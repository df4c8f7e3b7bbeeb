"""Symmetric signature partial sums, convergence bounds, and the naive ratio.

For a finite subgroup G < GL(2, C) with invariant ring R, the multiplicity
alpha_(i,q) of the i-th irreducible in Sym^q(V) equals the rank of the
corresponding MCM summand in the degree-q piece of the module decomposition,
so the Cesaro-style quotient

    (sum_{q<=N} alpha_(i,q)) / (sum_{q<=N} (q+1))

converges to deg_i / |G|.  This module assembles those exact partial sums,
computes a rigorous error bound (the one place floating point is allowed,
with a safety inflation), and exposes the per-q ratio alpha_(i,q)/(q+1)
whose oscillation shows why the naive limit fails to exist.

Each query reads the period table alpha_(i, s+k*m) = base_s[i] + k * step_s[i]
(s < m, `sympow._period_rows`): the sum to N is sum_s n_s * base_s[i] +
step_s[i] * n_s (n_s - 1) / 2 with n_s = floor((N - s)/m) + 1, and the limit is
the certified (sum_s step_s[i]) / m^2, so no column is built: O(m) for any N.
Within one residue the naive ratio (base_s[i] + k * step_s[i]) / (s + 1 + k * m)
is a Moebius map of k with positive denominator, hence monotone in k, so its
extremes over a window of q lie at the window's first and last k.

For the trivial character the partial ratio is simultaneously the syzygy
(differential) symmetric signature partial sum: the second syzygy of the
residue field is the fundamental module, whose multiplicity sequence is the
trivial one shifted into the same Cesaro average.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .cyclotomic import ConsistencyError
from .klein import KleinGroup, character_table, fundamental_character
from .sympow import _multiplicity_column, _period_rows

#: Multiplied into the floating-point part of every error bound so that
#: rounding in the complex embedding can never make the bound under-report.
BOUND_INFLATION = 1.01


@dataclass(frozen=True)
class SignatureSeries:
    """Partial data of the symmetric signature of one irreducible summand."""

    group: KleinGroup
    i: int
    N: int
    a_sum: int                  # sum of alpha_(i,q) over q = 0..N
    partial_ratio: Fraction     # a_sum / sum of (q + 1), exact
    limit: Fraction             # deg_i / |G|, as certified by the period table
    bound: float                # |partial_ratio - limit| <= bound

    # alpha_(i,q) and the weights q + 1 for q = 0..N, built in O(N) on each access
    a = property(lambda self: tuple(_multiplicity_column(self.group, self.i, self.N)))
    b = property(lambda self: tuple(range(1, self.N + 2)))


def _check_index(G: KleinGroup, i: int) -> None:
    if not 0 <= i < G.num_classes:
        raise IndexError(
            f"irreducible index {i} out of range for {G.kind} "
            f"({G.num_classes} irreducibles)"
        )


def _residues(G: KleinGroup, i: int, N: int) -> list[tuple[int, int, int]]:
    """(s, base_s[i], step_s[i]) for each residue s < m with s <= N."""
    _check_index(G, i)
    base, steps = _period_rows(G)
    return [(s, row[i], step[i]) for s, (row, step) in enumerate(zip(base[: N + 1], steps))]


def signature_partial(G: KleinGroup, i: int, N: int) -> SignatureSeries:
    """Exact partial sums of the signature quotient for irreducible i up to q = N."""
    if N < 0:
        raise ValueError("horizon N must be non-negative")
    a_sum = 0
    for s, a, d in _residues(G, i, N):
        n = (N - s) // G.m + 1
        a_sum += n * a + d * n * (n - 1) // 2
    ratio = Fraction(a_sum, (N + 1) * (N + 2) // 2)
    if not 0 <= ratio <= 1:
        raise ConsistencyError(f"partial ratio {ratio} outside [0, 1]")
    limit = Fraction(sum(step[i] for step in _period_rows(G)[1]), G.m ** 2)
    bound = error_bound(G, i, N) if N >= 1 else float("inf")
    return SignatureSeries(
        group=G, i=i, N=N, a_sum=a_sum,
        partial_ratio=ratio, limit=limit, bound=bound,
    )


def error_bound(G: KleinGroup, i: int, N: int) -> float:
    """Rigorous bound on |partial_ratio - deg_i/|G|| at horizon N.

    Summing the symmetric-power character over q telescopes into geometric
    sums of eigenvalues, so each non-identity class contributes at most
    4/|1 - lambda|^2 + N + 2 where |1 - lambda|^2 = 2 - Re(chi_V); the
    identity class is exactly the limit term and cancels.  Everything here is
    a bound, not a headline number, so it is evaluated in floating point and
    inflated by BOUND_INFLATION.
    """
    if N < 1:
        raise ValueError("horizon N must be at least 1 for the error bound")
    _check_index(G, i)
    chi = character_table(G)[i]
    fund = fundamental_character(G)
    total = 0.0
    for c, cls in enumerate(G.classes):
        if G.class_order(c) == 1:
            continue
        re_v = fund.values[c].embed_complex().real
        gap = 2.0 - re_v
        if not gap > 0.0:
            raise ConsistencyError(
                "2 - Re(chi_V) vanished on a non-identity class; "
                "the representation is not faithful"
            )
        total += cls.size * abs(chi.values[c].embed_complex()) * (4.0 / gap + N + 2)
    sum_b = (N + 1) * (N + 2) / 2
    return BOUND_INFLATION * total / (G.order * sum_b)


def naive_ratio_series(G: KleinGroup, i: int, N: int) -> list[Fraction]:
    """The per-q ratios alpha_(i,q)/(q+1) for q = 0..N (no Cesaro averaging)."""
    if N < 0:
        raise ValueError("horizon N must be non-negative")
    _check_index(G, i)
    return [Fraction(a, q + 1) for q, a in enumerate(_multiplicity_column(G, i, N))]


def oscillation_gap(G: KleinGroup, i: int, N: int) -> Fraction:
    """max - min of the naive ratio over q in [N//2, N].

    A gap bounded away from zero over ever-later windows certifies that the
    naive ratio has no limit, which is what forces the Cesaro averaging in
    the signature definition.  Within one residue s of q the ratio is
    monotone in k = (q - s)/m (see the module doc), so only the window's first
    and last k of each residue are compared: at most 2m ratios.
    """
    if N < 2:
        raise ValueError("horizon N must be at least 2")
    m, ends = G.m, []
    for s, a, d in _residues(G, i, N):
        k0, k1 = max(0, -((s - N // 2) // m)), (N - s) // m  # ceil, floor
        ends += [(a + k * d, s + k * m + 1) for k in {k0, k1} if k0 <= k1]
    key = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])  # num/den, exactly
    return Fraction(*max(ends, key=key)) - Fraction(*min(ends, key=key))
