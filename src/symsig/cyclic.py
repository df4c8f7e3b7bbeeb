"""Brute-force oracles for cyclic quotient singularities.

The diagonal action of the cyclic group of order n on C[u, v] by
u -> zeta*u, v -> zeta^a*v gives Sym^q an explicit monomial eigenbasis:
u^t v^(q-t) has weight t + a(q-t) mod n.  Counting weights therefore
decomposes Sym^q with no character theory at all, which makes this module a
fully independent check on the representation-theoretic path.

For the a = n-1 series the invariant ring is C[x, y, z]/(xy - z^n) via
x = u^n, y = v^n, z = uv, and the classical syzygy vectors

    s1 = (0, -u, v^(n-1)),   s2 = (-v, 0, u^(n-1))

pair to zero against (u^n, v^n, uv) and span a copy of the fundamental
representation inside the first syzygy module: the substitution u -> xi*u,
v -> xi^(-1)*v scales s1 by xi and s2 by xi^(-1).  The check here performs
that computation symbolically with exact cyclotomic coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .cyclotomic import CycloContext, CycloElement, get_context


# ---------------------------------------------------------------------------
# weight counting


@dataclass(frozen=True)
class WeightMultiset:
    """Multiplicities of the characters V_0..V_(n-1) in a cyclic-group module."""

    n: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.n:
            raise ValueError(f"need {self.n} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError("multiplicities must be non-negative")

    @property
    def dimension(self) -> int:
        return sum(self.counts)


def monomial_weights(n: int, a: int, q: int) -> WeightMultiset:
    """Weights of the monomial basis u^t v^(q-t) of Sym^q under u,v -> zeta u, zeta^a v."""
    if n < 1:
        raise ValueError("modulus n must be positive")
    if gcd(a, n) != 1:
        raise ValueError(f"a = {a} must be a unit mod n = {n}")
    if q < 0:
        raise ValueError("q must be non-negative")
    counts = [0] * n
    for t in range(q + 1):
        counts[(t + a * (q - t)) % n] += 1
    return WeightMultiset(n, tuple(counts))


def module_generators(n: int, a: int, t: int, degree_cap: int) -> list[tuple[int, int]]:
    """Minimal monomials u^i v^j with i + a*j = -t mod n, up to total degree degree_cap.

    Any quotient of two monomials of the same weight class is invariant, so
    minimality is plain divisibility among the listed monomials.  This is a
    descriptive spot-check of the module generators, not a certified minimal
    generating algorithm.
    """
    if not 0 <= t < n:
        raise ValueError(f"t = {t} must lie in [0, {n})")
    if degree_cap < n:
        raise ValueError(f"degree_cap = {degree_cap} must be at least n = {n}")
    if gcd(a, n) != 1:
        raise ValueError(f"a = {a} must be a unit mod n = {n}")
    members = [
        (i, j)
        for total in range(degree_cap + 1)
        for i in range(total + 1)
        for j in (total - i,)
        if (i + a * j + t) % n == 0
    ]
    minimal = [
        (i, j)
        for i, j in members
        if not any(
            ip <= i and jp <= j and (ip, jp) != (i, j) for ip, jp in members
        )
    ]
    return sorted(minimal, key=lambda m: (m[0] + m[1], -m[0]))


def format_monomial(m: tuple[int, int]) -> str:
    i, j = m
    parts = []
    if i:
        parts.append("u" if i == 1 else f"u^{i}")
    if j:
        parts.append("v" if j == 1 else f"v^{j}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# symbolic syzygy check
#
# Polynomials in u, v are dicts {(i, j): CycloElement}; MonomialVector keeps
# the normalized form demanded of results: terms sorted, zeros pruned.

Poly = dict


def _poly_normalize(p: Poly) -> tuple:
    return tuple(
        ((i, j), c) for (i, j), c in sorted(p.items()) if not c.is_zero
    )


def _poly_add_term(p: Poly, expo: tuple[int, int], coeff: CycloElement) -> None:
    cur = p.get(expo)
    p[expo] = coeff if cur is None else cur + coeff


def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            _poly_add_term(out, (i1 + i2, j1 + j2), c1 * c2)
    return out


def _poly_scale(p: Poly, c: CycloElement) -> Poly:
    return {expo: coeff * c for expo, coeff in p.items()}


@dataclass(frozen=True)
class MonomialVector:
    """A triple of two-variable polynomials with cyclotomic coefficients."""

    n: int
    components: tuple[tuple, tuple, tuple]  # normalized term lists

    @staticmethod
    def from_polys(n: int, polys) -> "MonomialVector":
        return MonomialVector(n, tuple(_poly_normalize(p) for p in polys))

    def polys(self) -> list[Poly]:
        return [dict(terms) for terms in self.components]


def _monomial(ctx: CycloContext, i: int, j: int, sign: int = 1) -> Poly:
    c = ctx.one if sign == 1 else -ctx.one
    return {(i, j): c}


def syzygy_vectors(n: int) -> tuple[MonomialVector, MonomialVector]:
    """The syzygies s1 = (0, -u, v^(n-1)) and s2 = (-v, 0, u^(n-1))."""
    ctx = get_context(n)
    s1 = MonomialVector.from_polys(n, ({}, _monomial(ctx, 1, 0, -1), _monomial(ctx, 0, n - 1)))
    s2 = MonomialVector.from_polys(n, (_monomial(ctx, 0, 1, -1), {}, _monomial(ctx, n - 1, 0)))
    return s1, s2


def relation_holds(vec: MonomialVector) -> bool:
    """Does vec pair to zero against (u^n, v^n, uv)?"""
    n = vec.n
    ctx = get_context(n)
    triple = (_monomial(ctx, n, 0), _monomial(ctx, 0, n), _monomial(ctx, 1, 1))
    acc: Poly = {}
    for comp, f in zip(vec.polys(), triple):
        for expo, coeff in _poly_mul(comp, f).items():
            _poly_add_term(acc, expo, coeff)
    return not _poly_normalize(acc)


def action_scales_by(vec: MonomialVector, k: int) -> bool:
    """Does u -> xi*u, v -> xi^(-1)*v send vec to xi^k * vec (xi = zeta_n)?"""
    n = vec.n
    ctx = get_context(n)
    transformed = []
    scaled = []
    for comp in vec.polys():
        transformed.append(
            {(i, j): c * ctx.zeta(i - j) for (i, j), c in comp.items()}
        )
        scaled.append(_poly_scale(comp, ctx.zeta(k)))
    return all(
        _poly_normalize(t) == _poly_normalize(s)
        for t, s in zip(transformed, scaled)
    )


@dataclass(frozen=True)
class SyzygyReport:
    n: int
    relation_s1: bool
    relation_s2: bool
    action_s1: bool
    action_s2: bool

    @property
    def passed(self) -> bool:
        return self.relation_s1 and self.relation_s2 and self.action_s1 and self.action_s2


def syzygy_action_check(n: int) -> SyzygyReport:
    """Verify the defining relations and the group equivariance of s1, s2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    s1, s2 = syzygy_vectors(n)
    return SyzygyReport(
        n=n,
        relation_s1=relation_holds(s1),
        relation_s2=relation_holds(s2),
        action_s1=action_scales_by(s1, 1),
        action_s2=action_scales_by(s2, -1),
    )
