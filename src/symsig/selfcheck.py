"""Cross-oracle checks, one implementation each, at the sizes the caller gives.

Each check pits independent computation paths against each other and raises
ConsistencyError, naming the group (or field) and q, on the first
disagreement.  ``SUITES`` binds the four checks to small sizes and
``--selfcheck`` runs them before any command; the acceptance gate and the
unit tests call the same functions on larger panels.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cyclotomic import ConsistencyError, cyclotomic_polynomial, get_context
from .klein import (
    BinaryDihedral,
    BinaryTetrahedral,
    Cyclic,
    build_group,
    character_table,
    cyclic_weight_indices,
)
from .cyclic import monomial_weights, syzygy_action_check
from .sympow import (
    molien_coefficients,
    multiplicity_series,
    sym_character_eigen,
    sym_character_series,
)


def check_cyclotomic(poly_conductors, axiom_conductors, draws: int) -> None:
    """Phi products for each m in poly_conductors; field axioms on ``draws``
    triples of random elements (seeded by m) for each m in axiom_conductors."""
    for m in poly_conductors:
        prod = [1]
        for d in range(1, m + 1):
            if m % d == 0:
                phi = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        out[i + j] += a * b
                prod = out
        if prod != [-1] + [0] * (m - 1) + [1]:
            raise ConsistencyError(f"product of cyclotomic polynomials fails at m={m}")
    for m in axiom_conductors:
        ctx = get_context(m)
        rng = random.Random(1000 + m)

        def draw():
            return ctx.from_coeffs(
                [Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(ctx.degree)]
            )

        for _ in range(draws):
            x, y, z = draw(), draw(), draw()
            axioms = (
                ("associativity of +", (x + y) + z == x + (y + z)),
                ("associativity of *", (x * y) * z == x * (y * z)),
                ("distributivity", x * (y + z) == x * y + x * z),
                ("commutativity", x * y == y * x),
                ("identities", x + ctx.zero == x and x * ctx.one == x),
                ("inverse", x.is_zero or x * x.inv() == ctx.one),
                ("conjugation", (x * y).conjugate() == x.conjugate() * y.conjugate()),
            )
            for name, holds in axioms:
                if not holds:
                    raise ConsistencyError(f"{name} fails in Q(zeta_{m})")


def check_characters(kinds, q_max: int) -> None:
    """Recurrence, eigenvalue and Molien characters of Sym^q, q <= q_max."""
    for kind in kinds:
        G = build_group(kind)
        character_table(G)  # validated before it is cached
        series = sym_character_series(G, q_max)
        for c in range(G.num_classes):
            molien = molien_coefficients(G, c, q_max)
            for q in range(q_max + 1):
                if molien[q] != series[q].values[c]:
                    raise ConsistencyError(f"Molien oracle disagrees at {kind}, q={q}")
        for q in range(q_max + 1):
            if sym_character_eigen(G, q).values != series[q].values:
                raise ConsistencyError(f"recurrence != eigen oracle at {kind}, q={q}")


def check_monomial(pairs, qs) -> None:
    """Multiplicities of Sym^q on cyclic:n,a against monomial weight counts."""
    for n, a in pairs:
        G = build_group(Cyclic(n, a))
        idx = cyclic_weight_indices(G)
        rows = multiplicity_series(G, max(qs))
        for q in qs:
            counts = monomial_weights(n, a, q).counts
            for s in range(n):
                if counts[s] != rows[q][idx[s]]:
                    raise ConsistencyError(f"monomial oracle disagrees at {G.kind}, q={q}, s={s}")


def check_syzygies(ns) -> None:
    """Syzygy relations and equivariance on cyclic:n,n-1 for each n."""
    for n in ns:
        if not syzygy_action_check(n).passed:
            raise ConsistencyError(f"syzygy check failed at n={n}")


_PANEL = (Cyclic(5, 2), Cyclic(6, 5), BinaryDihedral(3), BinaryTetrahedral)

SUITES = (
    ("cyclotomic field axioms", lambda: check_cyclotomic((12, 60), (24,), 25)),
    ("triple character oracles", lambda: check_characters(_PANEL, 16)),
    ("monomial weight oracle",
     lambda: check_monomial(((2, 1), (3, 2), (5, 2), (6, 5)), range(33))),
    ("syzygy relations", lambda: check_syzygies(range(2, 6))),
)


def run_selfcheck() -> list[str]:
    """Run every suite; return one line per suite, raising on any failure."""
    lines = []
    for name, fn in SUITES:
        fn()
        lines.append(f"selfcheck: {name}: ok")
    return lines
