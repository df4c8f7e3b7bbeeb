"""Symmetric signature partial sums, their exact error bound, and the naive ratio.

For a finite subgroup G < GL(2, C) with invariant ring R, the multiplicity
alpha_(i,q) of the i-th irreducible in Sym^q(V) equals the rank of the
corresponding MCM summand in the degree-q piece of the module decomposition,
so the Cesaro-style quotient

    (sum_{q<=N} alpha_(i,q)) / (sum_{q<=N} (q+1))

converges to deg_i / |G|.  This module assembles those exact partial sums,
an exact rational bound on their distance to the limit, and the per-q ratio
alpha_(i,q)/(q+1) whose oscillation shows why the naive limit fails to exist.

Each query reads the period table alpha_(i, s+k*m) = base_s[i] + k * step_s[i]
(s < m, `sympow._period_rows`): the sum to N is sum_s n_s * base_s[i] +
step_s[i] * n_s (n_s - 1) / 2 with n_s = floor((N - s)/m) + 1, and the limit is
the certified (sum_s step_s[i]) / m^2, so no column is built: O(m) for any N.
Within one residue the naive ratio (base_s[i] + k * step_s[i]) / (s + 1 + k * m)
is a Moebius map of k with positive denominator, hence monotone in k, so its
extremes over a window of q lie at the window's first and last k.

The error bound comes from the same table.  Write B, D for the sums of
base_s[i], step_s[i] over all s < m and B_s, D_s for those over s' <= s.  At
N' = s + K*m the terms in K^2 cancel against the limit D/m^2, leaving
S_i(N') - limit * C(N'+2, 2) = alpha_s * K + beta_s with
    2 m^2 alpha_s = 2 m^2 (B + D_s) - m^2 D - m D (2s + 3),
    2 m^2 beta_s  = 2 m^2 B_s - D (s + 1)(s + 2).
As K <= (N'+1)/m, the error at N' is at most 2|alpha_s| / (m (N'+2)) +
2|beta_s| / ((N'+1)(N'+2)), which decreases in N'; its maximum over s at N is
an exact rational that bounds the error at every N' >= N.

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
from .klein import KleinGroup
from .sympow import _multiplicity_column, _period_rows


@dataclass(frozen=True)
class SignatureSeries:
    """Partial data of the symmetric signature of one irreducible summand."""

    group: KleinGroup
    i: int
    N: int
    a_sum: int                  # sum of alpha_(i,q) over q = 0..N
    partial_ratio: Fraction     # a_sum / sum of (q + 1), exact
    limit: Fraction             # deg_i / |G|, as certified by the period table
    bound: Fraction | None      # error_bound(group, i, N); None at N = 0


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
    bound = error_bound(G, i, N) if N >= 1 else None
    return SignatureSeries(G, i, N, a_sum, ratio, limit, bound)


def error_bound(G: KleinGroup, i: int, N: int) -> Fraction:
    """Exact bound on |partial_ratio - deg_i/|G|| at every horizon N' >= N: the
    module doc's envelope, maximized over s < m in O(m) integer operations."""
    if N < 1:
        raise ValueError("horizon N must be at least 1 for the error bound")
    m, rows = G.m, _residues(G, i, G.m - 1)
    B, D = sum(a for _, a, _ in rows), sum(d for _, _, d in rows)
    worst = B_s = D_s = 0
    for s, a, d in rows:
        B_s, D_s = B_s + a, D_s + d
        alpha = m * m * (2 * (B + D_s) - D) - m * D * (2 * s + 3)  # 2 m^2 alpha_s
        beta = 2 * m * m * B_s - D * (s + 1) * (s + 2)  # 2 m^2 beta_s
        worst = max(worst, abs(alpha) * (N + 1) + m * abs(beta))
    return Fraction(worst, m ** 3 * (N + 1) * (N + 2))


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
