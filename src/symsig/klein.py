"""Finite subgroups of SL(2) and their character tables, built from scratch.

The five families — cyclic, binary dihedral, binary tetrahedral, binary
octahedral, binary icosahedral — are constructed as explicit 2x2 matrix
groups over one cyclotomic field per group (the field of the group exponent,
so every eigenvalue of every element lives there).  One function,
`family_facts`, knows each family: it checks a kind's parameters and gives
its order, conductor and largest element order.  Generator matrices are
data, not trusted facts: enumeration re-derives the order, the determinants
(1 in SL(2)), the eigenvalues (roots of unity in the field), the conductor
(the lcm of the element orders), the largest element order (which tells the
families of one order apart) and the classes, and hard-fails on a mismatch.

Cyclic(n, a) supports any weight a coprime to n.  For a = n-1 the group lies
in SL(2) (the A_{n-1} case, invariant ring k[u,v]^G with equation y^n = xz);
other weights give the general cyclic quotient embedded in GL(2), which all
the character machinery handles uniformly.  The remaining families are honest
SL(2) subgroups; their invariant rings are the classical D and E hypersurfaces
(recorded here for orientation only — nothing in the code manipulates them):

    binary dihedral BD_n   (order 4n)  : x(y^2 - x^n) - z^2
    binary tetrahedral     (order 24)  : x^4 + y^3 + z^2
    binary octahedral      (order 48)  : x^3 y + y^3 + z^2
    binary icosahedral     (order 120) : x^5 + y^3 + z^2

Enumeration is the only matrix arithmetic: a breadth-first closure over
value ids, one field product per distinct pair of entries, which records
every element as a word in the generators.  Products, inverses, conjugacy
classes and cyclic subgroups are then worked out on element indices.

Character tables are computed, never transcribed.  A cyclic table is the n
powers of the weight character lambda = zeta^e1 (e1 the first eigenvalue
exponent of a class), and validate() proves it in O(|G| + r^2) integer steps
(`_cyclic_weights`).  A BD:n table is built in closed form once the group
data is proven to present BD:n, and validate() matches its rows to those,
also in O(|G| + r^2) (`_dihedral_rows`).  BT, BO and BI run one
tensor-peeling loop (`_discover_table`; the tests' BD oracle too).  It walks
the McKay graph from the trivial character, peeling fund * chi for each
irreducible chi the walk finds.  Plain tensor-peeling stalls on clumped
remainders (e.g. the three linear characters of the quaternion group arrive
as one norm-3 remainder), so while the walk is empty the loop draws
characters induced from the cyclic subgroups generated by class
representatives, class by class.  Discovery only searches, on images in F_p:
each norm and multiplicity is read off a signed residue (exact, as every
vector it draws is a character), a vector drawn twice is read once, one of
norm 1 is kept whole and a clump is peeled.  Only the r rows kept are built
as exact values.  It ends once r irreducibles are registered; running out of
seeds first raises ConsistencyError.  validate() proves such a table in the
same F_p image.  Its values must be algebraic integers with
chi(g^k) = sigma_k(chi(g)) (sigma_k: zeta -> zeta^k) for k in a generating
set of (Z/m)^x.  The power maps permute the classes and keep their sizes, so
each Gram entry a_ij = sum_c size_c conj(chi_i(c)) chi_j(c) is a
Galois-fixed algebraic integer: an integer, at most |G| L^2 in absolute
value for L the largest coefficient 1-norm of a value.  Once 2 |G| L^2 < p,
a_ij = |G| delta_ij is read exactly off signed residues, conj(chi(c)) read
as chi at the inverse class.  For the square table X, X D X^H = |G| I (D the
class sizes) gives X^H X = |G| D^-1: column orthogonality, the
squared-degree sum and distinct columns follow.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .cyclotomic import (
    ConsistencyError,
    CycloContext,
    CycloElement,
    FpImage,
    ValueIds,
    fp_image,
    get_context,
)


# ---------------------------------------------------------------------------
# group kinds


@dataclass(frozen=True)
class GroupKind:
    """One of the five families, with parameters where the family has them."""

    family: str  # "cyclic" | "BD" | "BT" | "BO" | "BI"
    n: int | None = None
    a: int | None = None

    def __str__(self) -> str:
        if self.family == "cyclic":
            return f"cyclic:{self.n},{self.a}"
        if self.family == "BD":
            return f"BD:{self.n}"
        return self.family


def Cyclic(n: int, a: int) -> GroupKind:
    return GroupKind("cyclic", n, a)


def BinaryDihedral(n: int) -> GroupKind:
    return GroupKind("BD", n)


BinaryTetrahedral = GroupKind("BT")
BinaryOctahedral = GroupKind("BO")
BinaryIcosahedral = GroupKind("BI")


def family_facts(kind: GroupKind) -> tuple[int, int, int]:
    """Check a kind's parameters; return its order, conductor and largest element order.

    The conductor is the group exponent.  Among the finite subgroups of SL(2)
    of one order, the largest element order tells the families apart: |G| for
    cyclic, |G|/2 for BD:n, and at most 10 for BT, BO and BI.  build_group
    re-derives all three from the enumerated group.
    """
    n, a = kind.n, kind.a
    if kind.family == "cyclic":
        if n is None or a is None or n < 2:
            raise ValueError(f"cyclic needs n >= 2 and a weight, got {kind}")
        if math.gcd(a, n) != 1:
            raise ValueError(
                f"cyclic weight a={a} must be coprime to n={n} "
                "(otherwise the representation is not faithful)"
            )
        return n, n, n
    if kind.family == "BD":
        if n is None or n < 2:
            raise ValueError(f"binary dihedral needs n >= 2, got {kind}")
        return 4 * n, math.lcm(2 * n, 4), 2 * n
    facts = {"BT": (24, 12, 6), "BO": (48, 24, 8), "BI": (120, 60, 10)}.get(kind.family)
    if facts is None:
        raise ValueError(f"unknown group family {kind.family!r}")
    return facts


# ---------------------------------------------------------------------------
# 2x2 matrices over a fixed cyclotomic field


class Matrix2:
    """A 2x2 matrix with CycloElement entries (a b / c d)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: CycloElement, b: CycloElement, c: CycloElement, d: CycloElement):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, o: "Matrix2") -> "Matrix2":
        return Matrix2(
            self.a * o.a + self.b * o.c,
            self.a * o.b + self.b * o.d,
            self.c * o.a + self.d * o.c,
            self.c * o.b + self.d * o.d,
        )

    def det(self) -> CycloElement:
        return self.a * self.d - self.b * self.c

    def trace(self) -> CycloElement:
        return self.a + self.d

    @property
    def is_diagonal(self) -> bool:
        return self.b.is_zero and self.c.is_zero

    def key(self):
        return (
            self.a.num, self.a.den, self.b.num, self.b.den,
            self.c.num, self.c.den, self.d.num, self.d.den,
        )

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


# ---------------------------------------------------------------------------
# generator data (validated, not trusted — see build_group post-conditions)


def _generators(kind: GroupKind, ctx: CycloContext) -> list[Matrix2]:
    m = ctx.m
    zero, one = ctx.zero, ctx.one

    def rot():
        return Matrix2(zero, one, -one, zero)  # [[0,1],[-1,0]], order 4

    def hurwitz(i):
        half = ctx.rational(Fraction(1, 2))
        return Matrix2(
            (i - 1) * half, (i + 1) * half,
            (i - 1) * half, (-1 - i) * half,
        )  # the Hurwitz unit (-1+i+j+k)/2

    if kind.family == "cyclic":
        return [Matrix2(ctx.zeta(1), zero, zero, ctx.zeta(kind.a))]

    if kind.family == "BD":
        z = ctx.zeta(m // (2 * kind.n))  # a primitive 2n-th root
        return [Matrix2(z, zero, zero, z.inv()), rot()]

    if kind.family == "BT":
        i = ctx.zeta(m // 4)
        return [Matrix2(i, zero, zero, -i), rot(), hurwitz(i)]

    if kind.family == "BO":
        e8 = ctx.zeta(m // 8)
        return [Matrix2(e8, zero, zero, e8.inv()), rot(), hurwitz(e8 * e8)]

    # BI, the one family left once family_facts accepted the kind
    z5 = ctx.zeta(m // 5)
    # 2*z5^3 + 2*z5^2 + 1 is a square root of 5 (up to sign); dividing the
    # symmetric generator by it lands back in SL(2).
    root5 = 2 * z5 ** 3 + 2 * z5 ** 2 + 1
    s = root5.inv()
    p = (z5 ** 4 - z5) * s
    r = (z5 ** 2 - z5 ** 3) * s
    return [
        Matrix2(z5 ** 3, zero, zero, z5 ** 2),
        rot(),
        Matrix2(p, r, r, -p),
    ]


# ---------------------------------------------------------------------------
# the group object


@dataclass(frozen=True)
class ConjugacyClass:
    rep: int                 # element index of the representative
    members: tuple[int, ...]
    size: int


class KleinGroup:
    """An enumerated matrix group with conjugacy data.

    Built only through :func:`build_group`.  All fields are set once during
    construction and never mutated afterwards; only ``_table``, the
    immutable character table, is attached after construction.

    Elements are addressed by index.  ``parent[x]`` is (p, k) with
    elements[x] = elements[p] * generator k (None for the identity), and
    ``right[k][x]`` is the index of elements[x] * generator k.  Together they
    spell every element as a word in the generators, so products, inverses
    and conjugates are list lookups (:meth:`mul`), not matrix products.
    """

    def __init__(self, kind, ctx, elements, index, parent, right, inverse,
                 element_orders, classes, class_of, class_eigen, in_sl2):
        self.kind = kind
        self.ctx = ctx
        self.m = ctx.m
        self.elements = elements            # tuple[Matrix2], identity first
        self.index = index                  # matrix key -> element index
        self.parent = parent                # index -> (parent index, generator) or None
        self.right = right                  # generator -> tuple over x of index(x * gen)
        self.inverse = inverse              # index -> index of the inverse
        self.order = len(elements)
        self.element_orders = element_orders
        self.classes = classes              # tuple[ConjugacyClass]
        self.class_of = class_of            # index -> class index
        self.class_eigen = class_eigen      # class index -> (e1, e2): eigenvalues zeta^e1, zeta^e2
        self.in_sl2 = in_sl2
        self._table = None

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def mul(self, h: int, x: int) -> int:
        """Index of elements[h] * elements[x]."""
        return _word_mul(self.parent, self.right, h, x)

    def class_order(self, c: int) -> int:
        """Order of the elements in class c."""
        return self.element_orders[self.classes[c].rep]

    def class_trace(self, c: int) -> CycloElement:
        return self.elements[self.classes[c].rep].trace()

    def __repr__(self):
        return f"KleinGroup({self.kind}, order={self.order}, m={self.m})"


def _word_mul(parent, right, h: int, x: int) -> int:
    """Index of h * x: apply the generators of x's BFS word to h, first to last."""
    word = []
    while x:
        x, k = parent[x]
        word.append(k)
    for k in reversed(word):
        h = right[k][h]
    return h


@lru_cache(maxsize=None)
def build_group(kind: GroupKind) -> KleinGroup:
    """Enumerate the group and its conjugacy classes; hard-validate everything.

    The breadth-first closure is the only matrix arithmetic; it runs on value
    ids, so each product or sum of two distinct entries is taken once.
    Inverses and conjugacy classes are then worked out on element indices.
    """
    target, conductor, largest = family_facts(kind)
    ctx = get_context(conductor)
    gens = _generators(kind, ctx)

    # Matrices are 4-tuples of value ids: equal values share an id, so the
    # tuple is a canonical key, and det = a d - b c is 1 iff a d = b c + 1.
    ids = ValueIds(ctx)
    add, mul = ids.add, ids.mul
    gens = [tuple(map(ids.id, (g.a, g.b, g.c, g.d))) for g in gens]
    in_sl2 = kind.family != "cyclic" or (kind.a + 1) % kind.n == 0
    if in_sl2:
        for a, b, c, d in gens:
            if mul(a, d) != add(mul(b, c), 1):
                raise ConsistencyError(f"generator of {kind} has determinant != 1")

    # Breadth-first closure under right multiplication by the generators,
    # recording each element's BFS parent and each generator's
    # right-multiplication permutation.  Elements are visited in the order
    # they are found, so ``elements`` doubles as the queue.
    elements = [(1, 0, 0, 1)]
    index = {elements[0]: 0}
    parent = [None]
    right = [[] for _ in gens]
    bound = 2 * target
    for i, (a, b, c, d) in enumerate(elements):
        for k, (ga, gb, gc, gd) in enumerate(gens):
            y = (add(mul(a, ga), mul(b, gc)), add(mul(a, gb), mul(b, gd)),
                 add(mul(c, ga), mul(d, gc)), add(mul(c, gb), mul(d, gd)))
            j = index.get(y)
            if j is None:
                if len(elements) >= bound:
                    raise ConsistencyError(
                        f"closure of {kind} exceeded {bound} elements; corrupted generators"
                    )
                j = index[y] = len(elements)
                elements.append(y)
                parent.append((i, k))
            right[k].append(j)
    if len(elements) != target:
        raise ConsistencyError(
            f"{kind} enumerated {len(elements)} elements, expected {target}"
        )
    right = tuple(map(tuple, right))

    # Eigenvalue exponents per element come from the diagonal (cyclic case)
    # or from the trace via exhaustive search over roots of unity (SL(2) case,
    # where the eigenvalues are zeta^e and zeta^-e), by value id.
    m = ctx.m
    monomial_exp = {ids.id(ctx.zeta(e)): e for e in range(m)}
    trace_exp = {}
    for e in range(m // 2 + 1):
        trace_exp.setdefault(ids.id(ctx.zeta(e) + ctx.zeta(-e)), e)

    element_orders, eigen = [], []
    for i, (a, b, c, d) in enumerate(elements):
        if (in_sl2 or b or c) and mul(a, d) != add(mul(b, c), 1):
            raise ConsistencyError(
                f"element {i} of {kind} has determinant != 1" if in_sl2
                else "non-diagonal element outside SL(2)"
            )
        if not (b or c):
            e1, e2 = monomial_exp.get(a), monomial_exp.get(d)
            if e1 is None or e2 is None:
                raise ConsistencyError("diagonal entry is not a root of unity")
        else:
            e1 = trace_exp.get(add(a, d))
            if e1 is None:
                raise ConsistencyError(
                    f"no eigenvalue zeta^j with zeta^j + zeta^-j matching a trace in {kind}"
                )
            e2 = (m - e1) % m
        order = m // math.gcd(m, e1, e2)
        if order == 1 and i != 0:
            raise ConsistencyError(
                f"non-identity element with both eigenvalues 1 in {kind} (not small)"
            )
        element_orders.append(order)
        eigen.append((e1, e2))
    if math.lcm(*element_orders) != m:
        raise ConsistencyError(
            f"conductor mismatch for {kind}: field has m={m}, "
            f"element orders give lcm={math.lcm(*element_orders)}"
        )
    if max(element_orders) != largest:
        raise ConsistencyError(
            f"the largest element order of {kind} is {max(element_orders)}, expected {largest}"
        )
    elements = tuple(Matrix2(*(ids.values[v] for v in x)) for x in elements)
    index = {x.key(): i for i, x in enumerate(elements)}

    # Inverses from the words: x = p * g gives x^-1 = g^-1 * p^-1, and g^-1 is
    # the power of g that g maps to the identity.
    gen_inverse = []
    for r in right:
        y = 0
        while r[y] != 0:
            y = r[y]
        gen_inverse.append(y)
    inverse = [0] * target
    for x in range(1, target):
        p, k = parent[x]
        inverse[x] = _word_mul(parent, right, gen_inverse[k], inverse[p])

    # Conjugacy classes: orbits of conjugation, identity class first, then by
    # minimal unplaced element index.  The generators generate the group, so
    # an orbit under the maps x -> g^-1 * x * g, one per generator g, is a
    # whole class; g^-1 * x = (x^-1 * g)^-1 makes each map four lookups.
    classes: list[ConjugacyClass] = []
    class_of = [-1] * target
    conjugators = [
        tuple(r[inverse[r[inverse[x]]]] for x in range(target)) for r in right
    ]
    for i in range(target):
        if class_of[i] != -1:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for conj in conjugators:
                y = conj[x]
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        members = tuple(sorted(orbit))
        ci = len(classes)
        for j in members:
            if class_of[j] not in (-1, ci):
                raise ConsistencyError("conjugacy orbits are not a partition")
            class_of[j] = ci
        classes.append(ConjugacyClass(rep=i, members=members, size=len(members)))
    if sum(c.size for c in classes) != target:
        raise ConsistencyError("conjugacy classes do not partition the group")
    if classes[0].size != 1 or classes[0].rep != 0:
        raise ConsistencyError("identity class is not the leading singleton")

    return KleinGroup(
        kind=kind,
        ctx=ctx,
        elements=elements,
        index=index,
        parent=tuple(parent),
        right=right,
        inverse=tuple(inverse),
        element_orders=tuple(element_orders),
        classes=tuple(classes),
        class_of=tuple(class_of),
        class_eigen=tuple(eigen[cls.rep] for cls in classes),
        in_sl2=in_sl2,
    )


# ---------------------------------------------------------------------------
# characters


class Character:
    """A class function presented by its values, one per conjugacy class."""

    __slots__ = ("group", "values")

    def __init__(self, group: KleinGroup, values):
        values = tuple(values)
        if len(values) != group.num_classes:
            raise ValueError("need one value per conjugacy class")
        self.group = group
        self.values = values

    @property
    def degree(self) -> int:
        d = self.values[0].to_rational()
        if d is None or d.denominator != 1 or d <= 0:
            raise ConsistencyError(f"character degree {d!r} is not a positive integer")
        return int(d)

    def __repr__(self):
        return f"Character({self.group.kind}, deg={self.values[0]})"


def fundamental_character(G: KleinGroup) -> Character:
    """Trace of the defining representation on each class (degree 2)."""
    return Character(G, tuple(G.class_trace(c) for c in range(G.num_classes)))


def _values_inner(G: KleinGroup, phi, psi) -> Fraction:
    """<phi, psi> = (1/|G|) sum over classes of size * conj(phi) * psi."""
    acc = G.ctx.zero
    for cls, x, y in zip(G.classes, phi, psi):
        if x and y:
            acc = acc + cls.size * (x.conjugate() * y)
    value = acc.to_rational()
    if value is None:
        raise ConsistencyError(
            "inner product of class functions is not rational; inputs are not characters"
        )
    return value / G.order


def inner_product(phi: Character, psi: Character) -> Fraction:
    if phi.group is not psi.group:
        raise ValueError("characters belong to different groups")
    return _values_inner(phi.group, phi.values, psi.values)


class CharacterTable:
    """The complete list of irreducible characters, trivial first."""

    __slots__ = ("group", "irreducibles")

    def __init__(self, group: KleinGroup, irreducibles):
        self.group = group
        self.irreducibles = tuple(irreducibles)

    def __len__(self):
        return len(self.irreducibles)

    def __iter__(self):
        return iter(self.irreducibles)

    def __getitem__(self, i) -> Character:
        return self.irreducibles[i]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(chi.degree for chi in self.irreducibles)

    def validate(self) -> None:
        """Hard-check the table by the exact certificates of the module doc."""
        G = self.group
        r = G.num_classes
        if len(self.irreducibles) != r:
            raise ConsistencyError(f"{len(self.irreducibles)} irreducibles for {r} classes")
        self.degrees  # the identity column holds positive integers
        proof = {"cyclic": _cyclic_weights, "BD": _dihedral_weights}.get(G.kind.family)
        if proof:
            proof(self)
            return
        ids = {}  # (num, den) -> (id, value) of each distinct value, in table order
        rows = [[ids.setdefault((v.num, v.den), (len(ids), v))[0] for v in chi.values]
                for chi in self.irreducibles]
        values = [v for _, v in ids.values()]
        for v in values:
            if v.den != 1:
                raise ConsistencyError(f"table value {v} is not an algebraic integer")
        for k in _unit_generators(G.m):
            sigma = [ids.get((w.num, w.den), (None,))[0] for w in (v._galois(k) for v in values)]
            powers = [G.class_of[_power(G, cls.rep, k)] for cls in G.classes]
            for i, row in enumerate(rows):
                for c, x in enumerate(row):
                    if sigma[x] != row[powers[c]]:
                        raise ConsistencyError(
                            f"chi_{i}(g^{k}) is not sigma_{k}(chi_{i}(g)) for g in class {c}"
                        )
        image = fp_image(G.ctx)
        bound = max(sum(map(abs, v.num)) for v in values)
        if 2 * G.order * bound ** 2 >= image.p:
            raise ConsistencyError(
                f"table values of coefficient 1-norm {bound} are too large to read mod p"
            )
        images = [image(v) for v in values]
        images = [[images[x] for x in row] for row in rows]
        for i in range(r):
            weights = _conj_weights(G, image.p, images[i])
            for j in range(i, r):
                got = image.signed(sum(map(mul, weights, images[j])))
                want = 1 if i == j else 0
                if got != want * G.order:
                    raise ConsistencyError(
                        f"<chi_{i}, chi_{j}> = {Fraction(got, G.order)}, expected {want}"
                    )


def _power(G: KleinGroup, x: int, k: int) -> int:
    """Index of elements[x]^k, by squaring."""
    y = 0
    while k:
        if k & 1:
            y = G.mul(y, x)
        x, k = G.mul(x, x), k >> 1
    return y


def _unit_generators(m: int) -> list[int]:
    """A generating set of (Z/m)^x, built greedily from k = 2, 3, ..."""
    gens, span = [], {1 % m}
    for k in range(2, m):
        if math.gcd(k, m) == 1 and k not in span:
            gens.append(k)
            coset = span  # span * k^e is a new coset until it holds 1
            while 1 not in (coset := {h * k % m for h in coset}):
                span = span | coset
    return gens


def _trivial_values(G: KleinGroup):
    return (G.ctx.one,) * G.num_classes


def _cyclic_table(G: KleinGroup) -> list[tuple[CycloElement, ...]]:
    # Row t is lambda^t, lambda(c) = zeta^e1(c); validate() proves the rows.
    zetas = [G.ctx.zeta(e) for e in range(G.m)]
    return [tuple(zetas[t * e1 % G.m] for e1, _ in G.class_eigen) for t in range(G.order)]


def _cyclic_weights(table: CharacterTable) -> list[int]:
    """Prove a cyclic table; return s_j with chi_j(g) = zeta^(s_j), g the generator.

    Walking x -> x g from 1 must add e(g) to both eigenvalue exponents at
    each step, and the rows must be n distinct powers lambda^t, t < n, of
    lambda = zeta^e1, built here apart from `_cyclic_table`.  So lambda(g)
    has order n, the walk covers G, and the rows are G's n linear characters.
    """
    G = table.group
    n, m, step, at_g = G.order, G.m, G.right[0], G.class_of[G.right[0][0]]
    g1, g2 = G.class_eigen[at_g]
    x = 0
    for k in range(n + 1):
        if G.class_eigen[G.class_of[x]] != (k * g1 % m, k * g2 % m):
            raise ConsistencyError(f"x -> x g does not add e(g) to e(x) in {G.kind} at x = {x}")
        x = step[x]
    keys = [(z.num, z.den) for z in map(G.ctx.zeta, range(m))]  # zeta^e by (num, den)
    t_of = {keys[t * g1 % m]: t for t in range(n)}  # lambda^t(g) -> t
    rows = [[(v.num, v.den) for v in chi.values] for chi in table]
    ts = [t_of.get(row[at_g]) for row in rows]
    for j, (row, t) in enumerate(zip(rows, ts)):
        if t is None or row != [keys[t * e1 % m] for e1, _ in G.class_eigen]:
            raise ConsistencyError(f"chi_{j} is not a power of lambda = zeta^e1")
    if len(set(ts)) != n:
        raise ConsistencyError(f"the rows of {G.kind} are not {n} distinct powers of lambda")
    return [t * g1 % m for t in ts]


def _dihedral_rows(G: KleinGroup) -> tuple[list[int], list[tuple[CycloElement, ...]]]:
    """BD:n's irreducibles in closed form, each with its weight l: lambda^l in chi|A.

    The group data must present BD:n, a and b its generators and A = <a>:
    x -> x a meets a^k of exponents ±k m/2n for k < 2n, then 1; G = A u A b,
    each a^k b of exponents ±m/4; b a b^-1 = a^-1 and b^2 = a^n.  At a^k b^t
    the rows are then eps^k beta^t (eps = ±1, beta^2 = eps^n; weight 0 or n
    as eps = 1 or -1) and, for 0 < j < n and lambda(a) = zeta^(m/2n),
    Ind_A^G lambda^j: lambda^j + lambda^-j on A, 0 off it, irreducible by
    Mackey's criterion (Serre, Linear Representations of Finite Groups,
    ch. 7).  Their squared degrees sum to |G|, and chi_V = Ind lambda.
    """
    n, m, (a, b) = G.kind.n, G.m, G.right
    u = m // (2 * n)
    walk, ab = [0], []
    for k in range(2 * n):
        ab.append(b[walk[k]])
        if (sorted(G.class_eigen[G.class_of[walk[k]]]) != sorted((k * u % m, -k * u % m))
                or sorted(G.class_eigen[G.class_of[ab[k]]]) != [m // 4, 3 * m // 4]):
            raise ConsistencyError(f"a^{k} or a^{k} b has wrong eigenvalue exponents in {G.kind}")
        walk.append(a[walk[k]])
    if walk.pop() != 0 or len(set(walk + ab)) != G.order:
        raise ConsistencyError(f"a of order 2n and b do not cover {G.kind} as A u A b")
    if a[ab[0]] != ab[-1] or b[ab[0]] != walk[n]:
        raise ConsistencyError(f"b a b^-1 = a^-1 or b^2 = a^n fails in {G.kind}")
    at = {G.class_of[x]: (k, t) for t, xs in enumerate((walk, ab)) for k, x in enumerate(xs)}
    coords = [at[c] for c in range(G.num_classes)]
    zeta = G.ctx.zeta
    traces = [zeta(t * u) + zeta(-t * u) for t in range(n + 1)]  # each value built once
    traces += traces[n - 1:0:-1] + [G.ctx.zero]  # zeta^(tu) + zeta^-(tu) at t < 2n, 0 at 2n
    # eps = zeta^e, beta = zeta^f with 2f = n e (mod m), for e = 0 and e = m/2
    linear = [(l * u, f) for l in (0, n) for f in (n * l * u // 2, n * l * u // 2 + m // 2)]
    rows = [tuple([zeta(k * e + t * f) for k, t in coords]) for e, f in linear]
    rows += [tuple([traces[2 * n if t else j * k % (2 * n)] for k, t in coords])
             for j in range(1, n)]
    return [0, 0, n, n, *range(1, n)], rows


def _dihedral_weights(table: CharacterTable) -> list[int]:
    """Prove a BD:n table: its rows must be those of `_dihedral_rows`, each once,
    compared by (num, den) keys, each value object keyed once (rows share
    them), so that a row reads as a tuple of key ids.  Returns the weights."""
    G = table.group
    weights, rows = _dihedral_rows(G)
    keys, ids = {}, {}  # (num, den) -> key id; id(value) -> key id

    def row_ids(values):
        out = list(map(ids.get, map(id, values)))
        if None in out:
            for c, v in enumerate(values):
                out[c] = ids[id(v)] = keys.setdefault((v.num, v.den), len(keys))
        return tuple(out)

    row_of = {row_ids(row): j for j, row in enumerate(rows)}
    picked = [row_of.get(row_ids(chi.values)) for chi in table]
    if None in picked:
        i = picked.index(None)
        raise ConsistencyError(f"chi_{i} is no eps^k beta^t or Ind lambda^j of {G.kind}")
    if sorted(picked) != list(range(len(rows))):
        raise ConsistencyError(f"the rows of {G.kind} are not its {len(rows)} irreducibles")
    return [weights[j] for j in picked]


def _subgroup_hits(G: KleinGroup, c: int) -> list[list[int]]:
    """hits[c'][s] = #{g in G : g * rep_c' * g^-1 = rep_c^s} for s < order(rep_c).

    By orbit-stabiliser this is |G| / |class c'| if rep_c^s lies in class c',
    and 0 otherwise; the powers of rep_c are taken by index.
    """
    rep = G.classes[c].rep
    d = G.element_orders[rep]
    hits = [[0] * d for _ in G.classes]
    powers = set()
    power = 0
    for s in range(d):
        powers.add(power)
        cp = G.class_of[power]
        hits[cp][s] = G.order // G.classes[cp].size
        power = G.mul(power, rep)
    if len(powers) != d:
        raise ConsistencyError("cyclic subgroup enumeration is inconsistent")
    return hits


def _induced_from_cyclic(G: KleinGroup, c: int):
    """Characters induced from the linear characters of <rep of class c>, one per draw.

    By Frobenius reciprocity every irreducible is a constituent of some of
    them: its restriction to a cyclic subgroup contains a linear character.
    Peeling them alone still does not isolate every irreducible (it stalls
    on BT, BO and BI); the McKay walk of discovery does.

    Each comes as one key per class, built into a value by ``_discover_table``:
    None for 0, (count, d, exponents) for (count / d) * sum of zeta^e over e.
    """
    hit_counts = _subgroup_hits(G, c)
    d = len(hit_counts[0])
    m = G.m
    step = m // d
    # Only the classes some power of rep_c lies in have a non-zero value;
    # each such power is hit |G| / |class| times.
    reached = [(cp, G.order // G.classes[cp].size, [s for s, cnt in enumerate(hits) if cnt])
               for cp, hits in enumerate(hit_counts) if any(hits)]
    for t in range(d):
        keys = [None] * len(hit_counts)
        for cp, count, powers in reached:
            keys[cp] = (count, d, tuple(sorted(step * t * s % m for s in powers)))
        yield keys


def _conj_weights(G: KleinGroup, p: int, images, scale: int = 1) -> list[int]:
    """scale * size_c * conj(chi(c)) mod p over the classes c, for chi given by its
    images mod p; conj(chi(g)) is read as chi(g^-1), as for every character."""
    return [cls.size * scale * images[G.class_of[G.inverse[cls.rep]]] % p for cls in G.classes]


def _peel(image: FpImage, vec, found) -> list[tuple[int, tuple]]:
    """The multiplicities of the found irreducibles in vec, an image vector mod p.

    found holds (values, images, weights) of orthonormal irreducibles chi, with
    weights the images of size_c * conj(chi(c)) / |G|, so the multiplicity
    <vec, chi> = <chi, vec> is the signed residue of a sum of images.  That is
    exact while vec is the image of a character: the multiplicity is then an
    integer in [0, d], d the degree, read as the signed residue at the
    identity.  Returns the (k, found entry) with k != 0.
    """
    deg = image.signed(vec[0])
    terms = []
    for entry in found:
        k = image.signed(sum(map(mul, entry[2], vec)))
        if not -deg <= k <= deg:
            raise ConsistencyError(
                f"multiplicity residue {k} mod p lies outside [-d, d] for the degree "
                f"d = {deg} of a vector being peeled: it is not a character"
            )
        if k < 0:
            raise ConsistencyError(
                f"negative multiplicity {k} while peeling a genuine character"
            )
        if k:
            terms.append((k, entry))
    return terms


def _subtract(vec, terms):
    """vec minus k * chi for each (k, (chi, ...)) of `_peel`'s terms, on integer
    numerators over a common denominator per class."""
    if not terms:
        return vec
    out = []
    for c, x in enumerate(vec):
        den = math.lcm(x.den, *(chi[c].den for _, (chi, _, _) in terms))
        num = [a * (den // x.den) for a in x.num]
        for k, (chi, _, _) in terms:
            scale = k * (den // chi[c].den)
            num = [a - scale * b for a, b in zip(num, chi[c].num)]
        out.append(CycloElement._make(x.ctx, num, den))
    return tuple(out)


def _discover_table(G: KleinGroup) -> list[tuple[CycloElement, ...]]:
    """Tensor-peeling along the McKay graph, with induced-character seeds, in F_p.

    Every vector drawn is a character, searched as its image mod p.  The walk
    is a deque of found irreducibles, from the trivial character on; a drawn
    factor chi yields the image of fund * chi, and each irreducible registered
    from a walk vector joins it, so it steps along the McKay graph.  While it
    is empty, the next seed is drawn, its image read off its keys.  A vector
    of norm 1 is an irreducible, new as it differs from every image seen;
    otherwise it is peeled, and its remainder, of norm <v, v> - sum k_i^2, is
    an irreducible when that is 1.  Only a row kept is built exactly: fund *
    chi or the seed's values, minus the peeled rows.  The loop ends: there are
    at most r + 1 walk draws and sum_c order(rep_c) seeds.
    """
    r = G.num_classes
    fund = fundamental_character(G).values
    image = fp_image(G.ctx)
    p, scale = image.p, pow(G.order, -1, image.p)
    fund_images = [image(v) for v in fund]
    zetas = [pow(image.omega, e, p) for e in range(G.m)]  # the images of zeta^e
    ones = [1] * r
    found = [(_trivial_values(G), ones, _conj_weights(G, p, ones, scale))]
    walk = deque(found)
    seeds = (keys for c in range(r) for keys in _induced_from_cyclic(G, c))
    seed_images, seed_values = {None: 0}, {None: G.ctx.zero}
    seen = {tuple(ones)}  # the image of every vector peeled or found
    while len(found) < r:
        walked = bool(walk)
        if walked:
            factor = walk.popleft()
            vec = [x * y % p for x, y in zip(factor[1], fund_images)]
        else:
            keys = next(seeds, None)
            if keys is None:
                raise ConsistencyError(
                    f"character discovery stalled for {G.kind}: "
                    f"{len(found)} of {r} irreducibles found"
                )
            for k in set(keys) - seed_images.keys():
                count, d, exponents = k
                seed_images[k] = count * sum(zetas[e] for e in exponents) * pow(d, -1, p) % p
            vec = [seed_images[k] for k in keys]
        if tuple(vec) in seen:
            continue
        seen.add(tuple(vec))
        weights = _conj_weights(G, p, vec, scale)
        norm = image.signed(sum(map(mul, weights, vec)))
        terms = [] if norm == 1 else _peel(image, vec, found)
        if norm - sum(k * k for k, _ in terms) != 1:
            continue  # zero, or not an irreducible
        if terms:
            for k, (_, images, _) in terms:
                vec = [(x - k * y) % p for x, y in zip(vec, images)]
            weights = _conj_weights(G, p, vec, scale)
            seen.add(tuple(vec))
        if walked:
            values = tuple(x * y for x, y in zip(factor[0], fund))
        else:
            for k in set(keys) - seed_values.keys():
                count, d, exponents = k
                counts = [0] * G.m
                for e in exponents:
                    counts[e] += count
                seed_values[k] = G.ctx.from_counts(counts, d)
            values = tuple(seed_values[k] for k in keys)
        found.append((_subtract(values, terms), vec, weights))
        if walked:
            walk.append(found[-1])
    return [values for values, _, _ in found]


def cyclic_weight_indices(G: KleinGroup) -> dict[int, int]:
    """For a cyclic group, map each weight s to the table row of V_s.

    V_s takes the value zeta_n^s on the generator diag(zeta_n, zeta_n^a):
    it is the row of weight s, read off the proof of the table.
    """
    if G.kind.family != "cyclic":
        raise ValueError("weight indices only make sense for cyclic groups")
    return dict(sorted((s, j) for j, s in enumerate(_cyclic_weights(character_table(G)))))


def character_table(G: KleinGroup) -> CharacterTable:
    """Discover, order, and validate the full character table."""
    if G._table is not None:
        return G._table
    build = {"cyclic": _cyclic_table, "BD": lambda G: _dihedral_rows(G)[1]}
    chars = [Character(G, vec) for vec in build.get(G.kind.family, _discover_table)(G)]
    trivial = _trivial_values(G)
    head = [chi for chi in chars if chi.values == trivial]
    if len(head) != 1:
        raise ConsistencyError("expected exactly one trivial character")
    # Degree, then the values class by class by power-basis numerators: the
    # coefficients, as validate() refuses every denominator but 1.
    rest = sorted(
        (chi for chi in chars if chi.values != trivial),
        key=lambda chi: (chi.degree, [v.num for v in chi.values]),
    )
    table = CharacterTable(G, head + rest)
    table.validate()
    G._table = table
    return table
