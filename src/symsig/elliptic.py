"""Formal vector-bundle calculus on a plane cubic (elliptic) curve.

No curve is ever constructed: the module is a bookkeeping system over three
kinds of atoms — twists O_Y(k) of the structure sheaf, twisted Atiyah bundles
F_r (x) O_Y(k), and formally stable bundles of given rank and degree — with
rank, degree, and slope arithmetic.  Three identifications, proved elsewhere
by sheaf theory, enter as rewrite axioms:

* the restricted cotangent sheaf satisfies Omega~(-1) = F_2 (characteristic
  not 2 or 3), so Sym^q(Omega~) = F_(q+1) (x) O_Y(q);
* Sym^q(F_2) = F_(q+1), and F_r is indecomposable of rank r and degree 0;
* the syzygy bundle Syz(x, y, z) on the cubic is stable of rank 2 and
  degree -9.

With those granted, the differential symmetric signature vanishes (only
Sym^0 contributes a free summand) and the syzygy signature admits the upper
bound 1/2 + phi(N), both reproduced here as exact rational arithmetic.

Free ranks count split summands isomorphic to some O_Y(-d); a line bundle of
the right degree need not be such a twist (the Picard group of an elliptic
curve is larger), so results involving formally stable rank-1 atoms are
tagged as upper bounds rather than silently conflated with exact counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

#: Degree of the plane embedding: the curve is a non-singular cubic, so a
#: hyperplane section has degree 3 and deg O_Y(k) = 3k.
CURVE_DEGREE = 3


@dataclass(frozen=True)
class BundleAtom:
    """An indecomposable building block; construct via the factories below."""

    variant: str  # "line" | "atiyah" | "stable"
    rank: int
    data: int     # twist k for line/atiyah, degree d for stable

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")

    @property
    def degree(self) -> int:
        if self.variant == "line":
            return CURVE_DEGREE * self.data
        if self.variant == "atiyah":
            # deg(F_r (x) O_Y(k)) = 0 + rank * deg O_Y(k)
            return self.rank * CURVE_DEGREE * self.data
        return self.data


def LineTwist(k: int) -> BundleAtom:
    """O_Y(k): rank 1, degree 3k."""
    return BundleAtom("line", 1, k)


def AtiyahTwist(r: int, k: int) -> BundleAtom:
    """F_r (x) O_Y(k): rank r, degree 3kr.  F_1 = O_Y, so r = 1 normalizes."""
    if r < 1:
        raise ValueError("Atiyah bundle rank must be at least 1")
    if r == 1:
        return LineTwist(k)
    return BundleAtom("atiyah", r, k)


def FormalStable(r: int, d: int) -> BundleAtom:
    """A stable bundle of rank r and degree d, known only by its invariants."""
    return BundleAtom("stable", r, d)


#: Syz(x, y, z) restricted to the cubic: stable of rank 2 and degree -9.
SYZYGY_BUNDLE = FormalStable(2, -9)


@dataclass(frozen=True)
class BundleExpr:
    """A finite direct sum of atoms (order-free multiset, kept sorted)."""

    atoms: tuple[BundleAtom, ...]

    def __init__(self, atoms=()):
        object.__setattr__(
            self,
            "atoms",
            tuple(sorted(atoms, key=lambda a: (a.variant, a.rank, a.data))),
        )

    def __add__(self, other: "BundleExpr") -> "BundleExpr":
        return BundleExpr(self.atoms + other.atoms)


def bundle(*atoms: BundleAtom) -> BundleExpr:
    return BundleExpr(atoms)


def _as_atoms(e) -> tuple[BundleAtom, ...]:
    if isinstance(e, BundleAtom):
        return (e,)
    if isinstance(e, BundleExpr):
        return e.atoms
    raise TypeError(f"expected a bundle atom or expression, got {type(e).__name__}")


def rank(e) -> int:
    return sum(a.rank for a in _as_atoms(e))


def degree(e) -> int:
    return sum(a.degree for a in _as_atoms(e))


def slope(e) -> Fraction:
    r = rank(e)
    if r == 0:
        raise ValueError("the zero bundle has no slope")
    return Fraction(degree(e), r)


def sym_cotangent(q: int) -> BundleExpr:
    """Sym^q of the restricted cotangent sheaf: F_(q+1) (x) O_Y(q)."""
    if q < 0:
        raise ValueError("q must be non-negative")
    return bundle(AtiyahTwist(q + 1, q))


@dataclass(frozen=True)
class FreeRank:
    """A free-rank count; `exact` is False when it is only an upper bound."""

    value: int
    exact: bool


def free_rank(e) -> FreeRank:
    """Number of split summands of the form O_Y(-d).

    Twists O_Y(k) each contribute 1; Atiyah atoms of rank >= 2 and stable
    atoms of rank >= 2 are indecomposable non-line bundles and contribute 0;
    a stable rank-1 atom is a line bundle of known degree but unknown
    isomorphism class, so it contributes at most 1 and the total degrades to
    an upper bound.
    """
    value = 0
    exact = True
    for a in _as_atoms(e):
        if a.variant == "line":
            value += 1
        elif a.rank == 1:  # stable of rank 1: a line bundle, maybe not a twist
            value += 1
            exact = False
    return FreeRank(value, exact)


def sym_syzygy_free_rank_bound(q: int) -> int:
    """Upper bound for the free rank of Sym^q of the syzygy bundle.

    Sym^q is semistable of slope -9q/2 and rank q + 1; a rank-one split
    summand would be a line bundle of that slope, so its degree -9q/2 must be
    an integer — impossible for odd q, giving 0; for even q only the trivial
    bound by the rank remains.
    """
    if q < 0:
        raise ValueError("q must be non-negative")
    if q % 2 == 1:
        return 0
    return q + 1


def dsigma_partial(N: int) -> Fraction:
    """Partial ratio of the differential symmetric signature up to q = N.

    Sym^q(Omega~) is one Atiyah atom of rank >= 2 for q >= 1, so the exact free
    ranks sum to fr(0) + N * fr(1) = 1 and the value is 2/((N+1)(N+2)).
    """
    if N < 0:
        raise ValueError("horizon N must be non-negative")
    fr0, fr1 = free_rank(sym_cotangent(0)), free_rank(sym_cotangent(1))
    if not (fr0.exact and fr1.exact):
        raise AssertionError("cotangent powers must have exact free ranks")
    return Fraction(fr0.value + N * fr1.value, (N + 1) * (N + 2) // 2)


def sigma_upper_bound(N: int) -> Fraction:
    """Upper bound 1/2 + phi(N) on any syzygy-signature partial ratio.

    Odd symmetric powers contribute nothing, so pairing consecutive terms
    bounds each partial sum by half the weight sum plus the possible unpaired
    final even term phi(N) = (N+1)/((N+1)(N+2)/2).
    """
    if N < 1:
        raise ValueError("horizon N must be at least 1")
    phi = Fraction(2, N + 2) if N % 2 == 0 else Fraction(0)
    return Fraction(1, 2) + phi
