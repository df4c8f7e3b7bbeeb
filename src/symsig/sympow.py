"""Characters of Sym^q(V) and their decompositions into irreducibles.

Three independent routes compute the character of the q-th symmetric power of
the fundamental 2-dimensional representation, cross-checking each other:

* the three-term recurrence  chi_(q+1) = chi_q * chi_1 - det * chi_(q-1)
  (det is the determinant character; it is trivial for the SL(2) families,
  recovering the classical recurrence, and a weight character for the general
  cyclic embeddings) — the default, evaluated per class in eigenvalue-exponent
  coordinates where multiplying by a trace is just two cyclic shifts;
* the eigenvalue formula  chi(g) = sum_t lambda_1^t lambda_2^(q-t)
  with the eigenvalues re-derived from each representative by exhaustive
  search over roots of unity;
* Molien series coefficients, expanding 1/det(I - t*rho(g)) with the
  determinant polynomial computed from the matrix entries.

Decompositions push the same recurrence through the decomposition map: with
T[i][j] the multiplicity of chi_i in chi_V * chi_j (computed once and stored
as sparse columns), the multiplicity vectors satisfy
a_(q+1) = T a_q - P a_(q-1) where P permutes indices by tensoring with the
determinant character.  The non-cyclic families lie in SL(2), so P is the
identity: `build_group` proved det = 1 on every element.  For BT, BO and BI,
T's entries are inner products read exactly in F_p against the proven
table, with no field product.  For cyclic groups and BD:n, T (and the
cyclic P) is read off the row weights that prove the table, in O(r) lookups
(`_cyclic_twists`, `_dihedral_twists`; `_tensor_matrix` is their oracle in
the tests).  By Molien's formula sum_q a_q t^q has poles only at m-th
roots of unity (m the conductor), each of order at most 2, so the step
a_(q+m) - a_q depends only on q mod m.  The recurrence therefore runs once
per group, for q < 3m, and row q = s + k*m is a_s + k * (a_(s+m) - a_s) for
every q.  The literal inner-product evaluation is kept as `decompose_inner`
and serves as the oracle for the fast route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .cyclotomic import ConsistencyError, CycloElement, fp_image
from .klein import (
    Character,
    KleinGroup,
    character_table,
    fundamental_character,
    inner_product,
    _conj_weights,
    _cyclic_weights,
    _dihedral_weights,
)


# ---------------------------------------------------------------------------
# symmetric-power characters


def _sym_counts(G: KleinGroup, q_max: int):
    """Yield the exponent counts of Sym^q(V) for q = 0..q_max, one list per class.

    counts[e] is the number of eigenvalue products equal to zeta^e, so the
    value is sum_e counts[e] * zeta^e.  The recurrence, started from
    Sym^-1 = 0, multiplies by the trace zeta^e1 + zeta^e2 (two shifts) and
    subtracts the determinant twist zeta^(e1+e2) of the previous row (one
    shift).
    """
    m = G.m
    r = G.num_classes
    prev = [[0] * m for _ in range(r)]              # Sym^-1 = 0
    cur = [[1] + [0] * (m - 1) for _ in range(r)]   # Sym^0 = trivial
    yield cur
    for _ in range(q_max):
        nxt = []
        for c in range(r):
            e1, e2 = G.class_eigen[c]
            ed = (e1 + e2) % m
            pc, qc = cur[c], prev[c]
            vec = [
                pc[(e - e1) % m] + pc[(e - e2) % m] - qc[(e - ed) % m]
                for e in range(m)
            ]
            nxt.append(vec)
        prev, cur = cur, nxt
        yield cur


def _counts_character(G: KleinGroup, counts) -> Character:
    return Character(G, tuple(G.ctx.from_counts(vec) for vec in counts))


def sym_character_series(G: KleinGroup, q_max: int) -> list[Character]:
    """Characters of Sym^q(V) for q = 0..q_max via the recurrence."""
    return [_counts_character(G, counts) for counts in _sym_counts(G, q_max)]


def sym_character(G: KleinGroup, q: int) -> Character:
    """The character of Sym^q(V) (recurrence route, the default)."""
    if q < 0:
        raise ValueError("q must be non-negative")
    for counts in _sym_counts(G, q):
        pass
    return _counts_character(G, counts)


def _eigen_pair_search(G: KleinGroup, c: int) -> tuple[int, int]:
    """Re-derive eigenvalue exponents of a class representative from scratch."""
    ctx = G.ctx
    m = G.m
    rep = G.elements[G.classes[c].rep]
    if rep.det() == ctx.one:
        tau = rep.trace()
        for j in range(m):
            if ctx.zeta(j) + ctx.zeta(-j) == tau:
                return (j, (m - j) % m)
        raise ConsistencyError(
            f"no root of unity zeta^j has zeta^j + zeta^-j equal to the trace "
            f"of class {c} of {G.kind}"
        )
    # Outside SL(2) only the diagonal cyclic embeddings occur.
    if not rep.is_diagonal:
        raise ConsistencyError("non-diagonal representative outside SL(2)")
    found = []
    for entry in (rep.a, rep.d):
        for j in range(m):
            if ctx.zeta(j) == entry:
                found.append(j)
                break
        else:
            raise ConsistencyError("diagonal entry is not a root of unity")
    return (found[0], found[1])


@lru_cache(maxsize=None)
def _eigen_pairs(G: KleinGroup) -> tuple[tuple[int, int], ...]:
    """The searched eigenvalue exponents of every class, once per group."""
    return tuple(_eigen_pair_search(G, c) for c in range(G.num_classes))


def sym_character_eigen(G: KleinGroup, q: int) -> Character:
    """Independent oracle: evaluate sum_t lambda_1^t lambda_2^(q-t) directly."""
    if q < 0:
        raise ValueError("q must be non-negative")
    m = G.m
    values = []
    for e1, e2 in _eigen_pairs(G):
        counts = [0] * m
        for t in range(q + 1):
            counts[(e1 * t + e2 * (q - t)) % m] += 1
        values.append(G.ctx.from_counts(counts))
    return Character(G, tuple(values))


def molien_coefficients(G: KleinGroup, class_index: int, q_max: int) -> list[CycloElement]:
    """Coefficients 0..q_max of 1/det(I - t*rho(g)) for the class representative.

    The determinant polynomial is computed from the matrix entries (for the
    SL(2) families it is 1 - tau*t + t^2) and inverted as a formal power
    series with exact cyclotomic coefficients.
    """
    if q_max < 0:
        raise ValueError("q_max must be non-negative")
    ctx = G.ctx
    rep = G.elements[G.classes[class_index].rep]
    # det(I - t*M) = 1 - trace(M) t + det(M) t^2
    den = [ctx.one, -rep.trace(), rep.det()]
    if den[0] != ctx.one:
        raise ConsistencyError("determinant polynomial must have constant term 1")
    coeffs: list[CycloElement] = [ctx.one]
    for k in range(1, q_max + 1):
        acc = ctx.zero
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc + den[j] * coeffs[k - j]
        coeffs.append(-acc)
    return coeffs


# ---------------------------------------------------------------------------
# decomposition into irreducibles


@dataclass(frozen=True)
class Decomposition:
    group: KleinGroup
    q: int
    multiplicities: tuple[int, ...]

    def dimension(self) -> int:
        degrees = character_table(self.group).degrees
        return sum(a * d for a, d in zip(self.multiplicities, degrees))


def _check_multiplicity_row(
    G: KleinGroup, degrees: tuple[int, ...], q: int, row: tuple[int, ...]
) -> None:
    if any(a < 0 for a in row):
        raise ConsistencyError(f"negative multiplicity at q={q} for {G.kind}")
    total = sum(a * d for a, d in zip(row, degrees))
    if total != q + 1:
        raise ConsistencyError(
            f"dimension conservation fails at q={q} for {G.kind}: {total} != {q + 1}"
        )


def decompose_inner(G: KleinGroup, q: int) -> Decomposition:
    """Oracle route: literal inner products of chi_Sym^q against the table."""
    table = character_table(G)
    chi = sym_character(G, q)
    mults = []
    for irr in table:
        a = inner_product(irr, chi)  # <chi_i, chi> = <chi, chi_i>, rational
        if a.denominator != 1 or a < 0:
            raise ConsistencyError(
                f"multiplicity <Sym^{q}, chi> = {a} is not a non-negative integer"
            )
        mults.append(int(a))
    row = tuple(mults)
    _check_multiplicity_row(G, table.degrees, q, row)
    return Decomposition(G, q, row)


def _tensor_matrix(G: KleinGroup) -> list[list[tuple[int, int]]]:
    """Sparse columns of T: column j lists (i, T[i][j]) for each T[i][j] != 0.

    T[i][j] = N_ij / |G|, N_ij = sum_c size_c conj(chi_i(c)) chi_V(c) chi_j(c).
    validate() proved the rows orthonormal, with algebraic-integer values and
    chi(g^k) = sigma_k(chi(g)) (a cyclic or BD table in closed form), and chi_V,
    the trace of G's own matrices, has both too.  The power maps keep class
    sizes, so N_ij is a Galois-fixed algebraic integer: an integer, at most
    |G| L^2 L_V in absolute value for L and L_V the largest coefficient 1-norms
    of the table values and of chi_V.  Once 2 |G| L^2 L_V < p it is read
    exactly off a signed residue, and chi_V chi_j = sum_i T[i][j] chi_i is the
    expansion in the proven basis (Isaacs, Character Theory of Finite Groups,
    ch. 2).  No field product is taken.  Cyclic and BD:n read T off their weights.
    """
    table = character_table(G)
    image = fp_image(G.ctx)
    p = image.p
    fund = fundamental_character(G).values
    L = max(sum(map(abs, num)) for num in {v.num for chi in table for v in chi.values})
    bound = G.order * L ** 2 * max(sum(map(abs, v.num)) for v in fund)  # |N_ij| <= bound
    if 2 * bound >= p:
        raise ConsistencyError(f"tensor products bounded by {bound} are too large to read mod p")
    rows = [[image(v) for v in chi.values] for chi in table]
    weights = [_conj_weights(G, p, row) for row in rows]
    fund = [image(v) for v in fund]
    columns = []
    for j, row in enumerate(rows):
        prod = [x * y % p for x, y in zip(row, fund)]
        column = []
        for i, w in enumerate(weights):
            n = image.signed(sum(map(mul, w, prod)))
            t, rem = divmod(n, G.order)
            if rem or abs(n) > bound:  # not an exact read
                raise ConsistencyError(f"<chi_{i}, chi_V * chi_{j}> is not an integer")
            if t < 0:
                raise ConsistencyError(f"tensor multiplicity {t} is not a non-negative integer")
            if t:
                column.append((i, t))
        columns.append(column)
    return columns


def _cyclic_twists(G: KleinGroup) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """T's sparse columns and P for a cyclic group: O(r) lookups in its weights.

    With chi_j(g) = zeta^(s_j) (`_cyclic_weights`) and (e1, e2) g's exponents,
    chi_V * chi_j is the sum of the rows of weight s_j + e1 and s_j + e2, and
    det * chi_j the row of weight s_j + e1 + e2.
    """
    weights = _cyclic_weights(character_table(G))
    row_of = {s: j for j, s in enumerate(weights)}
    e1, e2 = G.class_eigen[G.class_of[G.right[0][0]]]
    pairs = [(row_of[(s + e1) % G.m], row_of[(s + e2) % G.m]) for s in weights]
    columns = [[(i, 2)] if i == k else sorted([(i, 1), (k, 1)]) for i, k in pairs]
    return columns, [row_of[(s + e1 + e2) % G.m] for s in weights]


def _dihedral_twists(G: KleinGroup) -> list[list[tuple[int, int]]]:
    """T's sparse columns for BD:n: chi_i is in chi_V * chi_j, once, iff their
    weights (`_dihedral_rows`) differ by 1, as chi_V = Ind lambda and Ind lambda *
    Ind lambda^l = Ind lambda^(l-1) + Ind lambda^(l+1), with Ind lambda^-l =
    Ind lambda^l and Ind lambda^0, Ind lambda^n the sums of the linear rows of
    weight 0 and of weight n.  This is McKay's affine D_(n+2) diagram."""
    weights = _dihedral_weights(character_table(G))
    rows = {}
    for i, l in enumerate(weights):
        rows.setdefault(l, []).append(i)
    return [sorted((i, 1) for w in (l - 1, l + 1) for i in rows.get(w, ())) for l in weights]


@lru_cache(maxsize=None)
def _period_rows(G: KleinGroup) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rows alpha_s and steps alpha_(s+m) - alpha_s for s < m (see the module doc).

    The recurrence runs from (Sym^-1, Sym^0) = (0, trivial) through q = 3m - 1;
    every row is checked, and the steps from q = m on must repeat the first m.
    """
    degrees = character_table(G).degrees
    r, m = len(degrees), G.m
    if G.kind.family == "cyclic":
        columns, perm = _cyclic_twists(G)
    else:  # in SL(2), by build_group's determinant check: P is the identity
        twists = _dihedral_twists if G.kind.family == "BD" else _tensor_matrix
        columns, perm = twists(G), range(r)
    rows = [(0,) * r, tuple(1 if i == 0 else 0 for i in range(r))]
    while len(rows) <= 3 * m:
        prev, cur = rows[-2], rows[-1]
        nxt = [0] * r
        for column, a in zip(columns, cur):
            if a:
                for i, t in column:
                    nxt[i] += t * a
        for j, b in enumerate(prev):
            if b:
                nxt[perm[j]] -= b
        rows.append(tuple(nxt))
    del rows[0]  # Sym^-1
    for q, row in enumerate(rows):
        _check_multiplicity_row(G, degrees, q, row)
    steps = [tuple(b - a for a, b in zip(rows[q], rows[q + m])) for q in range(2 * m)]
    if steps[:m] != steps[m:] or min(map(min, steps)) < 0:
        raise ConsistencyError(f"Sym^q multiplicity steps of {G.kind} are not m-periodic")
    _certify_limits(G, degrees, steps[:m])
    return tuple(rows[:m]), tuple(steps[:m])


def _certify_limits(G: KleinGroup, degrees: tuple[int, ...], steps) -> None:
    """Check sum_s step_s[i] * |G| == m^2 * d_i: given m-periodic steps, this
    proves the Cesaro limit d_i / |G| of each irreducible i exactly."""
    for i, d in enumerate(degrees):
        if sum(step[i] for step in steps) * G.order != G.m ** 2 * d:
            raise ConsistencyError(f"Cesaro limit certificate fails for {G.kind}, i={i}")


def _multiplicity_column(G: KleinGroup, i: int, N: int) -> list[int]:
    """alpha_(i,q) for q = 0..N, without building the other columns."""
    base, steps = _period_rows(G)
    pairs = [(row[i], step[i]) for row, step in zip(base, steps)]
    return [a + k * d for k in range(N // G.m + 1) for a, d in pairs][: N + 1]


def multiplicity_series(G: KleinGroup, q_max: int) -> list[tuple[int, ...]]:
    """Multiplicity vectors of Sym^q(V) for q = 0..q_max (table order).

    Row q = s + k*m is alpha_s + k * step_s, read off the period table of G;
    non-negativity and dimension conservation carry over from the checked
    rows, since both are linear in k.
    """
    if q_max < 0:
        raise ValueError("q_max must be non-negative")
    return list(zip(*(_multiplicity_column(G, i, q_max) for i in range(G.num_classes))))


def decompose(G: KleinGroup, q: int) -> Decomposition:
    """Multiplicities alpha_(i,q) of each irreducible in Sym^q(V), in O(r) for any q."""
    if q < 0:
        raise ValueError("q must be non-negative")
    base, steps = _period_rows(G)
    k, s = divmod(q, G.m)
    return Decomposition(G, q, tuple(a + k * d for a, d in zip(base[s], steps[s])))


def springer_series(G: KleinGroup, i: int, q_max: int) -> list[int]:
    """Coefficients of (1/|G|) sum_c size_c conj(chi_i(c)) / det(I - t*rho(c)).

    A third, generating-function route to the multiplicity sequence of the
    i-th irreducible; every coefficient must come out a non-negative integer.
    """
    table = character_table(G)
    chi = table[i]
    ctx = G.ctx
    acc = [ctx.zero] * (q_max + 1)
    for c, cls in enumerate(G.classes):
        weight = cls.size * chi.values[c].conjugate()
        series = molien_coefficients(G, c, q_max)
        for q in range(q_max + 1):
            acc[q] = acc[q] + weight * series[q]
    out = []
    for q, v in enumerate(acc):
        val = v.to_rational()
        if val is None:
            raise ConsistencyError(f"series coefficient {q} is not rational")
        val = val / G.order
        if val.denominator != 1 or val < 0:
            raise ConsistencyError(
                f"series coefficient {q} = {val} is not a non-negative integer"
            )
        out.append(int(val))
    return out
