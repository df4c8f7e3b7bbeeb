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

For the trivial character the partial ratio is simultaneously the syzygy
(differential) symmetric signature partial sum: the second syzygy of the
residue field is the fundamental module, whose multiplicity sequence is the
trivial one shifted into the same Cesaro average.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import ConsistencyError
from .klein import KleinGroup, character_table, fundamental_character
from .sympow import _multiplicity_column

#: Multiplied into the floating-point part of every error bound so that
#: rounding in the complex embedding can never make the bound under-report.
BOUND_INFLATION = 1.01


@dataclass(frozen=True)
class SignatureSeries:
    """Partial data of the symmetric signature of one irreducible summand."""

    group: KleinGroup
    i: int
    N: int
    a: tuple[int, ...]          # alpha_(i,q) for q = 0..N
    b: tuple[int, ...]          # q + 1 for q = 0..N
    partial_ratio: Fraction     # (sum a) / (sum b), exact
    limit: Fraction             # deg_i / |G|
    bound: float                # |partial_ratio - limit| <= bound


def _check_index(G: KleinGroup, i: int) -> None:
    if not 0 <= i < G.num_classes:
        raise IndexError(
            f"irreducible index {i} out of range for {G.kind} "
            f"({G.num_classes} irreducibles)"
        )


def signature_partial(G: KleinGroup, i: int, N: int) -> SignatureSeries:
    """Exact partial sums of the signature quotient for irreducible i up to q = N."""
    if N < 0:
        raise ValueError("horizon N must be non-negative")
    _check_index(G, i)
    a = tuple(_multiplicity_column(G, i, N))
    b = tuple(q + 1 for q in range(N + 1))
    sum_b = (N + 1) * (N + 2) // 2
    if sum(b) != sum_b:
        raise ConsistencyError("weight sum mismatch")
    ratio = Fraction(sum(a), sum_b)
    if not 0 <= ratio <= 1:
        raise ConsistencyError(f"partial ratio {ratio} outside [0, 1]")
    deg = character_table(G).degrees[i]
    limit = Fraction(deg, G.order)
    bound = error_bound(G, i, N) if N >= 1 else float("inf")
    return SignatureSeries(
        group=G, i=i, N=N, a=a, b=b,
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
    """max - min of the naive ratio over q in [N/2, N].

    A gap bounded away from zero over ever-later windows certifies that the
    naive ratio has no limit, which is what forces the Cesaro averaging in
    the signature definition.
    """
    if N < 2:
        raise ValueError("horizon N must be at least 2")
    series = naive_ratio_series(G, i, N)
    window = series[N // 2:]
    return max(window) - min(window)
