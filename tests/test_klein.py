"""Group construction, conjugacy classes, and character-table discovery."""

import copy
import itertools
import math
import random
from collections import deque
from fractions import Fraction

import pytest

from symsig import klein, sympow
from symsig.cyclotomic import (
    ConsistencyError,
    CycloContext,
    CycloElement,
    FpImage,
)
from symsig.klein import (
    BinaryDihedral,
    BinaryIcosahedral,
    BinaryOctahedral,
    BinaryTetrahedral,
    Character,
    CharacterTable,
    Cyclic,
    GroupKind,
    Matrix2,
    build_group,
    character_table,
    cyclic_weight_indices,
    fundamental_character,
    inner_product,
    _subgroup_hits,
    _values_inner,
)

ALL_KINDS = (
    [Cyclic(n, n - 1) for n in range(2, 9)]
    + [Cyclic(5, 2), Cyclic(7, 3)]
    + [BinaryDihedral(n) for n in range(2, 6)]
    + [BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral]
)


class TestConstruction:
    @pytest.mark.parametrize(
        "kind,order",
        [
            (Cyclic(2, 1), 2),
            (Cyclic(7, 3), 7),
            (BinaryDihedral(2), 8),
            (BinaryDihedral(3), 12),
            (BinaryTetrahedral, 24),
            (BinaryOctahedral, 48),
            (BinaryIcosahedral, 120),
        ],
    )
    def test_orders(self, kind, order):
        assert build_group(kind).order == order

    @pytest.mark.parametrize(
        "kind,m",
        [
            (Cyclic(5, 2), 5),
            (BinaryDihedral(2), 4),
            (BinaryDihedral(3), 12),
            (BinaryTetrahedral, 12),
            (BinaryOctahedral, 24),
            (BinaryIcosahedral, 60),
        ],
    )
    def test_conductors(self, kind, m):
        assert build_group(kind).m == m

    def test_identity_first(self):
        for kind in ALL_KINDS:
            G = build_group(kind)
            e = G.elements[0]
            assert e.is_diagonal and e.a == G.ctx.one and e.d == G.ctx.one

    def test_determinant_one_in_special_linear_families(self):
        for kind in ALL_KINDS:
            G = build_group(kind)
            if not G.in_sl2:
                continue
            assert all(g.det() == G.ctx.one for g in G.elements)

    def test_general_linear_cyclic_weights_have_nontrivial_determinant(self):
        G = build_group(Cyclic(5, 2))
        dets = {g.det() for g in G.elements}
        assert len(dets) == 5  # det = zeta^(k(1+a)) sweeps all fifth roots

    def test_no_hidden_identity(self):
        # a non-identity element with trace 2 would fix a vector, breaking
        # the free action away from the origin
        for kind in ALL_KINDS:
            G = build_group(kind)
            traces = [G.elements[i].trace() for i in range(1, G.order)]
            assert all(t != G.ctx.rational(2) for t in traces)

    def test_minus_identity_membership(self):
        for kind in ALL_KINDS:
            G = build_group(kind)
            minus_one = G.ctx.rational(-1)
            has = any(
                g.is_diagonal and g.a == minus_one and g.d == minus_one
                for g in G.elements
            )
            if kind.family == "cyclic":
                assert has == (kind.n % 2 == 0)
            else:
                assert has

    @pytest.mark.parametrize(
        "kind,corrupt,message",
        [
            (BinaryTetrahedral, lambda gens, ctx: [gens[0], Matrix2(*(2 * v for v in (
                gens[1].a, gens[1].b, gens[1].c, gens[1].d))), gens[2]],
             "generator of BT has determinant != 1"),
            (BinaryDihedral(3), lambda gens, ctx: [Matrix2(*(2 * v for v in (
                gens[0].a, gens[0].b, gens[0].c, gens[0].d))), gens[1]],
             "generator of BD:3 has determinant != 1"),
            (BinaryOctahedral, lambda gens, ctx: gens[:2] + [Matrix2(*(2 * v for v in (
                gens[2].a, gens[2].b, gens[2].c, gens[2].d)))],
             "generator of BO has determinant != 1"),
            (BinaryIcosahedral, lambda gens, ctx: gens[:2] + [Matrix2(*(2 * v for v in (
                gens[2].a, gens[2].b, gens[2].c, gens[2].d)))],
             "generator of BI has determinant != 1"),
            (BinaryTetrahedral, lambda gens, ctx: gens[:2] + [Matrix2(
                ctx.one, ctx.one, ctx.zero, ctx.one)],
             "closure of BT exceeded 48 elements; corrupted generators"),
            (BinaryTetrahedral, lambda gens, ctx: gens[1:2],
             "BT enumerated 4 elements, expected 24"),
            (Cyclic(5, 2), lambda gens, ctx: [Matrix2(
                ctx.zeta(1), ctx.one, ctx.zero, ctx.zeta(2))],
             "non-diagonal element outside SL(2)"),
            # a binary dihedral group of the same order and conductor
            (BinaryTetrahedral, lambda gens, ctx, g=klein._generators: g(BinaryDihedral(6), ctx),
             "the largest element order of BT is 12, expected 6"),
            (BinaryOctahedral, lambda gens, ctx, g=klein._generators: g(BinaryDihedral(12), ctx),
             "the largest element order of BO is 24, expected 8"),
            (BinaryIcosahedral, lambda gens, ctx, g=klein._generators: g(BinaryDihedral(30), ctx),
             "the largest element order of BI is 60, expected 10"),
        ],
    )
    def test_corrupted_generators_are_refused(self, kind, corrupt, message, monkeypatch):
        generators = klein._generators
        monkeypatch.setattr(
            klein, "_generators", lambda kind, ctx: corrupt(generators(kind, ctx), ctx)
        )
        with pytest.raises(ConsistencyError) as err:
            build_group.__wrapped__(kind)
        assert str(err.value) == message

    def test_invalid_kinds_rejected(self):
        with pytest.raises(ValueError):
            build_group(Cyclic(4, 2))
        with pytest.raises(ValueError):
            build_group(Cyclic(1, 1))
        with pytest.raises(ValueError):
            build_group(BinaryDihedral(1))
        with pytest.raises(ValueError, match="^unknown group family 'XX'$"):
            build_group(GroupKind("XX"))

    def test_kind_strings(self):
        assert str(Cyclic(5, 2)) == "cyclic:5,2"
        assert str(BinaryDihedral(3)) == "BD:3"
        assert str(BinaryTetrahedral) == "BT"
        assert str(BinaryIcosahedral) == "BI"


class TestConjugacyClasses:
    def test_cyclic_groups_have_singleton_classes(self):
        for n, a in ((2, 1), (5, 2), (8, 7), (240, 1)):
            G = build_group(Cyclic(n, a))
            assert G.num_classes == n
            assert all(cls.size == 1 for cls in G.classes)
            assert [cls.rep for cls in G.classes] == list(range(n))

    @pytest.mark.parametrize(
        "kind,classes",
        [
            (BinaryDihedral(2), 5),
            (BinaryDihedral(3), 6),
            (BinaryDihedral(4), 7),
            (BinaryDihedral(5), 8),
            (BinaryTetrahedral, 7),
            (BinaryOctahedral, 8),
            (BinaryIcosahedral, 9),
        ],
    )
    def test_class_counts(self, kind, classes):
        assert build_group(kind).num_classes == classes

    def test_classes_partition_the_group(self):
        for kind in (BinaryDihedral(3), BinaryTetrahedral, BinaryIcosahedral):
            G = build_group(kind)
            seen = sorted(i for cls in G.classes for i in cls.members)
            assert seen == list(range(G.order))
            assert G.classes[0].size == 1 and G.classes[0].rep == 0

    def test_class_sizes_divide_group_order(self):
        for kind in ALL_KINDS:
            G = build_group(kind)
            assert all(G.order % cls.size == 0 for cls in G.classes)


INDEX_KINDS = (
    [BinaryDihedral(n) for n in range(2, 13)]
    + [BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral, Cyclic(7, 3)]
)


def _matrix_inverses(G):
    """elements[inverse[g]] for every g, each checked by a Matrix2 product."""
    identity = G.elements[0].key()
    out = []
    for g, inv in zip(G.elements, G.inverse):
        ginv = G.elements[inv]
        assert (g * ginv).key() == identity and (ginv * g).key() == identity
        out.append(ginv)
    return out


def _conjugation_rows(G):
    """Row c lists the index of g * rep_c * g^-1 over all g, by Matrix2 products."""
    inverses = _matrix_inverses(G)
    return [
        [G.index[(g * G.elements[cls.rep] * ginv).key()] for g, ginv in zip(G.elements, inverses)]
        for cls in G.classes
    ]


class TestIndexLayer:
    """Index lookups against the matrix products they stand in for."""

    @pytest.mark.parametrize("kind", INDEX_KINDS, ids=str)
    def test_products_inverses_and_conjugates_match_matrices(self, kind):
        G = build_group(kind)
        _matrix_inverses(G)
        rng = random.Random(5)
        for _ in range(60):
            g, x = rng.randrange(G.order), rng.randrange(G.order)
            gm, xm, ginv = G.elements[g], G.elements[x], G.elements[G.inverse[g]]
            assert G.mul(g, x) == G.index[(gm * xm).key()]
            conj = G.mul(G.mul(g, x), G.inverse[g])
            assert conj == G.index[(gm * xm * ginv).key()]
            assert G.class_of[conj] == G.class_of[x]

    @pytest.mark.parametrize("kind", INDEX_KINDS, ids=str)
    def test_class_of_matches_the_literal_classes(self, kind):
        G = build_group(kind)
        assert len(G.class_of) == G.order
        for c, (cls, row) in enumerate(zip(G.classes, _conjugation_rows(G))):
            assert cls.members == tuple(sorted(set(row)))
            assert cls.members == tuple(i for i in range(G.order) if G.class_of[i] == c)

    @pytest.mark.parametrize("kind", INDEX_KINDS, ids=str)
    def test_orbit_stabiliser_hits_match_the_literal_count(self, kind):
        G = build_group(kind)
        rows = _conjugation_rows(G)
        for c, cls in enumerate(G.classes):
            rep = G.elements[cls.rep]
            power = G.elements[0]
            exponent_of = {}
            for s in range(G.element_orders[cls.rep]):
                exponent_of[G.index[power.key()]] = s
                power = power * rep
            literal = []
            for row in rows:
                counts = [0] * len(exponent_of)
                for target in row:
                    if target in exponent_of:
                        counts[exponent_of[target]] += 1
                literal.append(counts)
            assert _subgroup_hits(G, c) == literal


class TestOperationCounts:
    @pytest.mark.parametrize("kind", [BinaryIcosahedral, BinaryDihedral(12)], ids=str)
    def test_matrix_products_only_in_the_closure(self, kind, monkeypatch):
        calls = 0
        product = Matrix2.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return product(self, other)

        monkeypatch.setattr(Matrix2, "__mul__", counted)
        G = build_group.__wrapped__(kind)  # a cold build, past the cache
        # the closure multiplies value ids, not matrices
        assert calls <= len(G.right) * G.order
        calls = 0
        character_table(G)
        assert calls == 0

    @pytest.mark.parametrize("kind", [BinaryIcosahedral, BinaryDihedral(12)], ids=str)
    def test_closure_multiplies_each_distinct_entry_pair_once(self, kind, monkeypatch):
        calls = {"setup": 0, "build": 0}
        phase = "build"
        mul, generators = CycloElement.__mul__, klein._generators

        def counted_mul(self, other):
            calls[phase] += 1
            return mul(self, other)

        def counted_generators(kind, ctx):
            nonlocal phase
            phase = "setup"
            try:
                return generators(kind, ctx)
            finally:
                phase = "build"

        monkeypatch.setattr(CycloElement, "__mul__", counted_mul)
        monkeypatch.setattr(klein, "_generators", counted_generators)
        G = build_group.__wrapped__(kind)
        monkeypatch.undo()
        gens = generators(kind, G.ctx)
        pairs = set()
        for x in G.elements:
            # the entry products of x * g for every generator g, and of det x
            operands = [(x.a, x.d), (x.b, x.c)]
            for g in gens:
                operands += [(x.a, g.a), (x.b, g.c), (x.a, g.b), (x.b, g.d),
                             (x.c, g.a), (x.d, g.c), (x.c, g.b), (x.d, g.d)]
            pairs.update(
                frozenset([(p.num, p.den), (q.num, q.den)]) for p, q in operands if p and q
            )
        assert 0 < calls["build"] <= len(pairs)
        if kind == BinaryIcosahedral:
            # 3,398 when the closure took every Matrix2 product
            assert sum(calls.values()) <= 250

    def test_discovery_builds_each_distinct_induced_value_once(self, monkeypatch):
        G = build_group.__wrapped__(BinaryDihedral(30))
        fundamental_character(G)
        drawn = [0] * G.num_classes  # seeds drawn per class, t = 0, 1, ... in order
        calls = 0
        induce, from_counts = klein._induced_from_cyclic, CycloContext.from_counts

        def counted_seeds(G, c):
            for vec in induce(G, c):
                drawn[c] += 1
                yield vec

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return from_counts(self, *args)

        monkeypatch.setattr(klein, "_induced_from_cyclic", counted_seeds)
        monkeypatch.setattr(CycloContext, "from_counts", counted)
        klein._discover_table(G)
        monkeypatch.undo()
        values = set()
        for c, n in enumerate(drawn):
            # Oracle: value (1/d) sum_s hits[c'][s] zeta^(t s m / d) on class c'
            hits = _subgroup_hits(G, c)
            d = len(hits[0])
            for t in range(n):
                for row in hits:
                    counts = [0] * G.m
                    for s, cnt in enumerate(row):
                        counts[t * s * (G.m // d) % G.m] += cnt
                    v = G.ctx.from_counts(counts, d)
                    values.add((v.num, v.den))
        # 1,870 calls when every reached class of every drawn seed took one
        assert 0 < calls <= len(values)

    def test_discovery_builds_only_the_seeds_it_reads(self, monkeypatch):
        built = 0
        induce = klein._induced_from_cyclic

        def counted(G, c):
            nonlocal built
            for vec in induce(G, c):
                built += 1
                yield vec

        monkeypatch.setattr(klein, "_induced_from_cyclic", counted)
        G = build_group.__wrapped__(BinaryDihedral(12))
        character_table(G)
        # 160 seeds in all (one per linear character of each class's
        # cyclic subgroup); discovery is done after reading 28 of them
        assert 0 < built < sum(G.class_order(c) for c in range(G.num_classes))

    def test_peel_subtracts_without_field_arithmetic(self, monkeypatch):
        calls = 0
        inside = False
        for name in ("__mul__", "__rmul__", "__sub__"):
            op = getattr(CycloElement, name)

            def counted(self, other, op=op):
                nonlocal calls
                calls += inside
                return op(self, other)

            monkeypatch.setattr(CycloElement, name, counted)
        peel = klein._peel

        def watched(*args):
            nonlocal inside
            inside = True
            try:
                return peel(*args)
            finally:
                inside = False

        monkeypatch.setattr(klein, "_peel", watched)
        character_table(build_group.__wrapped__(BinaryIcosahedral))
        assert calls == 0

    @staticmethod
    def _peeled_vectors(kind, monkeypatch) -> list:
        """The vectors one cold discovery of kind passes to _peel, in order."""
        peeled = []
        peel = klein._peel

        def recorded(image, vec, found):
            peeled.append(tuple((v.num, v.den) for v in vec))
            return peel(image, vec, found)

        monkeypatch.setattr(klein, "_peel", recorded)
        klein._discover_table(build_group.__wrapped__(kind))
        return peeled

    def test_discovery_stops_peeling_once_the_table_is_complete(self, monkeypatch):
        # the walk along the McKay graph and then the induced seeds find
        # the 9 irreducibles in 12 peels; none runs after the last
        assert 0 < len(self._peeled_vectors(BinaryIcosahedral, monkeypatch)) <= 12

    def test_binary_dihedral_discovery_peels_about_once_per_class(self, monkeypatch):
        G = build_group(BinaryDihedral(30))
        peels = len(self._peeled_vectors(BinaryDihedral(30), monkeypatch))
        assert G.num_classes <= peels <= G.num_classes + 3

    @pytest.mark.parametrize(
        "kind",
        [BinaryDihedral(n) for n in range(2, 13)]
        + [BinaryDihedral(30), BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral],
        ids=str,
    )
    def test_discovery_never_peels_a_vector_twice(self, kind, monkeypatch):
        # Ind psi_t = Ind psi_-t: BD:30 skips 30 of its 66 draws as repeats
        peeled = self._peeled_vectors(kind, monkeypatch)
        assert len(set(peeled)) == len(peeled)

    def test_discovery_multiplies_only_the_vectors_it_draws(self, monkeypatch):
        G = build_group.__wrapped__(BinaryIcosahedral)
        fundamental_character(G)
        counts = {"products": 0, "draws": 0, "factors": 0}
        mul = CycloElement.__mul__

        def counted_mul(self, other):
            counts["products"] += 1
            return mul(self, other)

        class CountedWalk(deque):
            def __init__(self, factors=()):
                super().__init__(factors)
                counts["factors"] += len(self)

            def append(self, chi):
                counts["factors"] += 1
                super().append(chi)

            def popleft(self):
                counts["draws"] += 1
                return super().popleft()

        monkeypatch.setattr(CycloElement, "__mul__", counted_mul)
        monkeypatch.setattr(klein, "deque", CountedWalk)
        klein._discover_table(G)
        # each walk factor is multiplied by fund once, when it is drawn
        assert 0 < counts["draws"] <= counts["factors"]
        assert counts["products"] == G.num_classes * counts["draws"]

    def test_induced_seeds_build_only_the_reached_classes(self, monkeypatch):
        calls = 0
        from_counts = CycloContext.from_counts

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return from_counts(self, *args)

        monkeypatch.setattr(CycloContext, "from_counts", counted)
        G = build_group(BinaryDihedral(12))
        for c in range(G.num_classes):
            for keys in klein._induced_from_cyclic(G, c):
                # the powers of rep_c lie in at most order(rep_c) classes
                assert calls <= G.class_order(c)
                assert sum(key is not None for key in keys) <= G.class_order(c)
                calls = 0

    def test_cyclic_table_conjugates_once_per_distinct_value(self, monkeypatch):
        calls = 0
        conjugate = CycloElement.conjugate

        def counted(self):
            nonlocal calls
            calls += 1
            return conjugate(self)

        monkeypatch.setattr(CycloElement, "conjugate", counted)
        table = character_table(build_group.__wrapped__(Cyclic(60, 7)))
        distinct = {(v.num, v.den) for chi in table for v in chi.values}
        assert len(distinct) == 60
        assert calls == 0

    def test_cyclic_period_rows_need_no_field_product_or_inner_product(self, monkeypatch):
        G = build_group.__wrapped__(Cyclic(60, 7))
        character_table(G)  # validate() takes its inner products here
        calls = {"signed": 0, "__mul__": 0}
        for cls, name in ((FpImage, "signed"), (CycloElement, "__mul__")):
            op = getattr(cls, name)

            def counted(self, *args, op=op, name=name):
                calls[name] += 1
                return op(self, *args)

            monkeypatch.setattr(cls, name, counted)
        sympow._period_rows.__wrapped__(G)
        assert calls == {"signed": 0, "__mul__": 0}

    def test_validate_images_each_value_once_and_takes_no_field_product(self, monkeypatch):
        table = character_table(build_group.__wrapped__(BinaryDihedral(30)))
        imaged, products = [], 0
        call, mul = FpImage.__call__, CycloElement.__mul__

        def counted_call(self, x):
            imaged.append((x.num, x.den))
            return call(self, x)

        def counted_mul(self, other):
            nonlocal products
            products += 1
            return mul(self, other)

        monkeypatch.setattr(FpImage, "__call__", counted_call)
        monkeypatch.setattr(CycloElement, "__mul__", counted_mul)
        table.validate()
        # the 31 distinct values, each mapped to F_p once for the whole Gram matrix
        assert len(set(imaged)) == len(imaged) == 31
        assert products == 0

    def test_cyclic_validate_reads_nothing_in_f_p_and_takes_no_field_product(self, monkeypatch):
        # A cyclic table is proven by its weights, with nothing read mod p.
        table = character_table(build_group.__wrapped__(Cyclic(60, 7)))
        calls = {"__call__": 0, "signed": 0, "__mul__": 0}
        for cls, name in ((FpImage, "__call__"), (FpImage, "signed"), (CycloElement, "__mul__")):
            op = getattr(cls, name)

            def counted(self, *args, op=op, name=name):
                calls[name] += 1
                return op(self, *args)

            monkeypatch.setattr(cls, name, counted)
        table.validate()
        assert calls == {"__call__": 0, "signed": 0, "__mul__": 0}

    def test_a_dry_queue_stalls_discovery(self, monkeypatch):
        # With no seeds, Q8's walk finds V, then peels V * V to a norm-3 clump
        # of three linear characters and runs dry: discovery refuses to
        # return a partial table.
        G = build_group(BinaryDihedral(2))
        monkeypatch.setattr(klein, "_induced_from_cyclic", lambda G, c: iter(()))
        with pytest.raises(
            ConsistencyError,
            match=r"character discovery stalled for BD:2: 2 of 5 irreducibles found",
        ):
            klein._discover_table(G)


class TestFundamentalCharacter:
    def test_degree_two(self):
        for kind in ALL_KINDS:
            chi = fundamental_character(build_group(kind))
            assert chi.degree == 2

    def test_cyclic_generator_value(self):
        for n, a in ((3, 2), (5, 2), (7, 3), (8, 7)):
            G = build_group(Cyclic(n, a))
            ctx = G.ctx
            expected = ctx.zeta(1) + ctx.zeta(a)
            values = fundamental_character(G).values
            assert expected in values

    def test_icosahedral_group_contains_golden_trace(self):
        G = build_group(BinaryIcosahedral)
        ctx = G.ctx
        z5 = ctx.zeta(G.m // 5)
        golden = z5 + z5 ** 4
        assert golden in fundamental_character(G).values
        # golden trace equals (-1 + sqrt(5))/2: check (2x + 1)^2 = 5
        sq = (2 * golden + ctx.one) * (2 * golden + ctx.one)
        assert sq.to_rational() == 5

    def test_norm_detects_irreducibility(self):
        chi = fundamental_character(build_group(BinaryTetrahedral))
        assert inner_product(chi, chi) == 1
        for kind in (BinaryDihedral(2), BinaryOctahedral, BinaryIcosahedral):
            chi = fundamental_character(build_group(kind))
            assert inner_product(chi, chi) == 1

    def test_norm_of_decomposable_cyclic_fundamental(self):
        # V = V_1 + V_a: norm 2 when the weights differ, 4 when they coincide
        for n, a in ((3, 2), (5, 2), (7, 3), (12, 7)):
            chi = fundamental_character(build_group(Cyclic(n, a)))
            assert inner_product(chi, chi) == 2
        chi = fundamental_character(build_group(Cyclic(2, 1)))
        assert inner_product(chi, chi) == 4


class TestCharacterTable:
    @pytest.mark.parametrize(
        "kind,degrees",
        [
            (BinaryDihedral(2), (1, 1, 1, 1, 2)),
            (BinaryDihedral(3), (1, 1, 1, 1, 2, 2)),
            (BinaryTetrahedral, (1, 1, 1, 2, 2, 2, 3)),
            (BinaryOctahedral, (1, 1, 2, 2, 2, 3, 3, 4)),
            (BinaryIcosahedral, (1, 2, 2, 3, 3, 4, 4, 5, 6)),
            *[(BinaryDihedral(n), (1, 1, 1, 1) + (2,) * (n - 1)) for n in range(4, 17)],
        ],
    )
    def test_degree_multisets(self, kind, degrees):
        table = character_table(build_group(kind))
        assert tuple(sorted(table.degrees)) == degrees

    @pytest.mark.parametrize(
        "kind",
        [BinaryDihedral(n) for n in range(2, 41)]
        + [BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral, Cyclic(60, 7), Cyclic(120, 1)],
        ids=str,
    )
    def test_rows_follow_the_trivial_character_by_degree_then_coefficients(self, kind):
        G = build_group(kind)
        table = character_table(G)
        assert table[0].values == (G.ctx.one,) * G.num_classes
        keys = [(chi.degree, tuple(v.coeffs for v in chi.values)) for chi in table[1:]]
        assert keys == sorted(keys)

    def test_cyclic_tables_are_linear(self):
        for n, a in ((2, 1), (6, 5), (7, 3)):
            table = character_table(build_group(Cyclic(n, a)))
            assert table.degrees == (1,) * n

    def test_trivial_first_then_degree_order(self):
        for kind in ALL_KINDS:
            G = build_group(kind)
            table = character_table(G)
            assert all(v == G.ctx.one for v in table[0].values)
            assert list(table.degrees[1:]) == sorted(table.degrees[1:]) or all(
                d == 1 for d in table.degrees
            )

    def test_sum_of_squared_degrees_is_group_order(self):
        for kind in ALL_KINDS:
            G = build_group(kind)
            assert sum(d * d for d in character_table(G).degrees) == G.order

    def test_row_orthonormality(self):
        for kind in (Cyclic(5, 2), BinaryDihedral(3), BinaryOctahedral):
            table = character_table(build_group(kind))
            for i, chi in enumerate(table):
                for j, psi in enumerate(table):
                    assert inner_product(chi, psi) == (1 if i == j else 0)

    def test_column_orthogonality(self):
        for kind in (Cyclic(6, 5), BinaryTetrahedral):
            G = build_group(kind)
            table = character_table(G)
            for c in range(G.num_classes):
                for cp in range(G.num_classes):
                    acc = G.ctx.zero
                    for chi in table:
                        acc = acc + chi.values[c].conjugate() * chi.values[cp]
                    if c == cp:
                        assert acc.to_rational() == Fraction(G.order, G.classes[c].size)
                    else:
                        assert acc.is_zero

    def test_value_on_identity_is_degree(self):
        for kind in (BinaryOctahedral, Cyclic(7, 3)):
            table = character_table(build_group(kind))
            for chi in table:
                assert chi.values[0].to_rational() == chi.degree

    def test_columns_separate_classes(self):
        for kind in (BinaryDihedral(4), BinaryIcosahedral):
            G = build_group(kind)
            table = character_table(G)
            cols = [tuple(chi.values[c] for chi in table) for c in range(G.num_classes)]
            assert len(set(cols)) == G.num_classes


class TestInnerProductChecks:
    def test_non_rational_sum_is_rejected(self):
        for kind in (Cyclic(7, 3), BinaryTetrahedral):
            G = build_group(kind)
            trivial = (G.ctx.one,) * G.num_classes
            twisted = (G.ctx.zeta(1),) * G.num_classes
            with pytest.raises(ConsistencyError, match="not rational"):
                _values_inner(G, trivial, twisted)

    @pytest.mark.parametrize("kind", [Cyclic(60, 7), BinaryIcosahedral])
    def test_wide_values_fit_their_slots(self, kind):
        # Both sides 60 bits wide: the slot width must count both of them.
        G = build_group(kind)
        big = 3 ** 38
        for unit in (G.ctx.one, -G.ctx.one, G.ctx.zeta(1), G.ctx.zeta(7)):
            vec = (big * unit,) * G.num_classes
            assert _values_inner(G, vec, vec) == big * big

    @pytest.mark.parametrize("kind", [Cyclic(7, 3), BinaryDihedral(5), BinaryTetrahedral])
    def test_validate_rejects_a_perturbed_value(self, kind):
        G = build_group(kind)
        table = character_table(G)
        table.validate()
        for i, c in ((0, 1), (len(table) - 1, G.num_classes - 1), (1, G.num_classes // 2)):
            rows = [list(chi.values) for chi in table]
            rows[i][c] = rows[i][c] + G.ctx.zeta(1)
            bad = CharacterTable(G, [Character(G, row) for row in rows])
            with pytest.raises(ConsistencyError):
                bad.validate()

    # validate()'s messages: a cyclic row changed anywhere is no power of
    # the weight character.  Otherwise a halved value is not an algebraic
    # integer, a value moved by zeta or by 3^38 breaks the Galois
    # certificate, and a rational value times 3^38 is too large for the
    # exact read mod p.
    PERTURBED = {
        **{
            ("cyclic:60,7", change): [
                f"chi_{i} is not a power of lambda = zeta^e1" for i in (0, 59, 1)
            ]
            for change in ("zeta", "half", "wide")
        },
        ("BI", "zeta"): [
            "chi_0(g^7) is not sigma_7(chi_0(g)) for g in class 1",
            "chi_8(g^7) is not sigma_7(chi_8(g)) for g in class 1",
            "chi_1(g^7) is not sigma_7(chi_1(g)) for g in class 4",
        ],
        ("BI", "half"): ["table value 1/2 is not an algebraic integer"] * 3,
        ("BI", "wide"): [
            "chi_0(g^7) is not sigma_7(chi_0(g)) for g in class 1",
            "chi_8(g^7) is not sigma_7(chi_8(g)) for g in class 1",
            "table values of coefficient 1-norm 1350851717672992089 are too large to read mod p",
        ],
    }

    @pytest.mark.parametrize("change", ["zeta", "half", "wide"])
    @pytest.mark.parametrize("kind", [Cyclic(60, 7), BinaryIcosahedral], ids=str)
    def test_validate_messages_on_perturbed_tables(self, kind, change):
        G = build_group(kind)
        table = character_table(G)
        perturb = {
            "zeta": lambda v: v + G.ctx.zeta(1),
            "half": lambda v: v * Fraction(1, 2),
            "wide": lambda v: v * 3 ** 38,
        }[change]
        spots = ((0, 1), (len(table) - 1, 1), (1, G.num_classes // 2))
        for (i, c), message in zip(spots, self.PERTURBED[str(kind), change]):
            rows = [list(chi.values) for chi in table]
            rows[i][c] = perturb(rows[i][c])
            bad = CharacterTable(G, [Character(G, row) for row in rows])
            with pytest.raises(ConsistencyError) as err:
                bad.validate()
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "kind", [Cyclic(7, 3), Cyclic(12, 5), BinaryDihedral(5), BinaryOctahedral], ids=str
    )
    def test_validate_takes_every_gram_entry(self, kind, monkeypatch):
        G = build_group(kind)
        table = character_table(G)
        got = []
        signed = FpImage.signed

        def recorded(self, a):
            got.append(signed(self, a))
            return got[-1]

        monkeypatch.setattr(FpImage, "signed", recorded)
        table.validate()
        r = G.num_classes
        rows = [chi.values for chi in table]
        want = [_plain_inner(G, rows[i], rows[j]) * G.order for i in range(r) for j in range(i, r)]
        # a cyclic table is proven by its weights, with no Gram entry
        assert got == ([] if kind.family == "cyclic" else want)


def _plain_inner(G, phi, psi) -> Fraction:
    """Oracle: (1/|G|) sum_c size_c conj(phi_c) psi_c in field arithmetic."""
    acc = G.ctx.zero
    for cls, x, y in zip(G.classes, phi, psi):
        acc = acc + cls.size * (x.conjugate() * y)
    return acc.to_rational() / G.order


CERTIFIED_KINDS = (
    Cyclic(7, 3), Cyclic(8, 3), Cyclic(9, 2), Cyclic(12, 5), Cyclic(12, 11), Cyclic(60, 7),
    BinaryDihedral(2), BinaryDihedral(5), BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral,
)


def _swap_columns(rows, c, d):
    rows = [list(row) for row in rows]
    for row in rows:
        row[c], row[d] = row[d], row[c]
    return rows


class TestTableCertificate:
    """validate() ties each column to its class: a swap of two classes of
    equal size keeps both orthogonality relations, and only the degree read
    and the Galois certificate refuse it, or, for a cyclic group, the proof
    that each row is a power of the weight character, which refuses every
    swap."""

    @staticmethod
    def _exempt(G, cols):
        """Two columns that are Galois conjugates, or both rational."""
        if all(v.to_rational() is not None for col in cols for v in col):
            return True
        units = [k for k in range(1, G.m) if math.gcd(k, G.m) == 1]
        return any(all(v._galois(k) == w for v, w in zip(*cols)) for k in units)

    @pytest.mark.parametrize("kind", CERTIFIED_KINDS, ids=str)
    def test_validate_refuses_every_equal_size_column_swap(self, kind):
        G = build_group(kind)
        rows = [chi.values for chi in character_table(G)]
        cols = list(zip(*rows))
        sizes = [cls.size for cls in G.classes]
        for c, d in itertools.combinations(range(G.num_classes), 2):
            if sizes[c] != sizes[d]:
                continue
            bad = CharacterTable(G, [Character(G, row) for row in _swap_columns(rows, c, d)])
            if c == 0:
                with pytest.raises(ConsistencyError, match="^character degree .* is not a "
                                   "positive integer$"):
                    bad.validate()
            elif kind.family == "cyclic" or not self._exempt(G, (cols[c], cols[d])):
                with pytest.raises(ConsistencyError):
                    bad.validate()

    ROW_MESSAGES = {
        "BT": ["<chi_1, chi_1> = 4, expected 1", "<chi_1, chi_2> = 1, expected 0"],
        "cyclic:12,5": ["chi_1 is not a power of lambda = zeta^e1",
                        "the rows of cyclic:12,5 are not 12 distinct powers of lambda"],
    }

    @pytest.mark.parametrize("kind", [BinaryTetrahedral, Cyclic(12, 5)], ids=str)
    def test_the_row_relation_refuses_what_the_certificate_passes(self, kind):
        # Galois-stable integral rows: a doubled row, then a repeated row.
        G = build_group(kind)
        rows = [chi.values for chi in character_table(G)]
        for bad, message in zip(
            (rows[:1] + [tuple(2 * v for v in rows[1])] + rows[2:], rows[:1] + [rows[2]] + rows[2:]),
            self.ROW_MESSAGES[str(kind)],
        ):
            with pytest.raises(ConsistencyError) as err:
                CharacterTable(G, [Character(G, row) for row in bad]).validate()
            assert str(err.value) == message

    def test_a_cyclic_table_with_two_classes_swapped_is_refused(self, monkeypatch):
        # validate() proves the rows of _cyclic_table apart from it: a faulty
        # builder is refused.
        cyclic_table = klein._cyclic_table
        monkeypatch.setattr(klein, "_cyclic_table", lambda G: _swap_columns(cyclic_table(G), 1, 2))
        with pytest.raises(ConsistencyError, match=r"^chi_\d+ is not a power of lambda = zeta\^e1$"):
            character_table(build_group.__wrapped__(Cyclic(7, 3)))


class TestCyclicWeights:
    """The group half of the cyclic proof: the eigenvalue exponents must be
    additive along the generator, and lambda(g) must have order n."""

    @staticmethod
    def _with_eigen(G, eigen):
        H = copy.copy(G)
        H.class_eigen = tuple(eigen)
        return CharacterTable(H, [Character(H, chi.values) for chi in character_table(G)])

    def test_a_shifted_exponent_is_refused(self):
        G = build_group(Cyclic(12, 5))
        eigen = list(G.class_eigen)
        e1, e2 = eigen[7]
        eigen[7] = ((e1 + 1) % 12, e2)
        with pytest.raises(ConsistencyError, match=r"^x -> x g does not add e\(g\) to e\(x\) "
                           r"in cyclic:12,5 at x = 7$"):
            klein._cyclic_weights(self._with_eigen(G, eigen))

    def test_swapped_exponents_are_refused_with_the_table_built_from_them(self):
        # Rows built from the swapped data are powers of its lambda: only the
        # walk along the generator ties the exponents to the group.
        G = build_group(Cyclic(12, 5))
        eigen = list(G.class_eigen)
        eigen[2], eigen[3] = eigen[3], eigen[2]
        H = copy.copy(G)
        H.class_eigen = tuple(eigen)
        table = CharacterTable(H, [Character(H, row) for row in klein._cyclic_table(H)])
        with pytest.raises(ConsistencyError, match=r"^x -> x g does not add e\(g\) to e\(x\) "
                           r"in cyclic:12,5 at x = 2$"):
            klein._cyclic_weights(table)

    def test_a_generator_exponent_that_is_not_a_unit_is_refused(self):
        # Every e1 doubled: still additive along the generator, but lambda(g)
        # = zeta^2 has order 6, so its powers take six values at g.
        G = build_group(Cyclic(12, 5))
        eigen = [(2 * e1 % 12, e2) for e1, e2 in G.class_eigen]
        with pytest.raises(ConsistencyError, match=r"^chi_\d+ is not a power of lambda"):
            klein._cyclic_weights(self._with_eigen(G, eigen))

    @pytest.mark.parametrize("kind", [Cyclic(7, 3), Cyclic(12, 5), Cyclic(60, 7)], ids=str)
    def test_weights_are_the_values_at_the_generator(self, kind):
        G = build_group(kind)
        table = character_table(G)
        weights = klein._cyclic_weights(table)
        assert sorted(weights) == list(range(G.order))
        at_g = G.class_of[G.right[0][0]]
        assert [chi.values[at_g] for chi in table] == [G.ctx.zeta(s) for s in weights]


class TestWeightIndices:
    def test_bijection_onto_table_rows(self):
        for n, a in ((4, 3), (5, 2), (12, 11)):
            G = build_group(Cyclic(n, a))
            idx = cyclic_weight_indices(G)
            assert sorted(idx) == list(range(n))
            assert sorted(idx.values()) == list(range(n))
            assert idx[0] == 0  # weight zero is the trivial character

    def test_rejected_outside_cyclic_family(self):
        with pytest.raises(ValueError):
            cyclic_weight_indices(build_group(BinaryTetrahedral))


class TestImmutabilityOfBuild:
    def test_build_is_cached_and_deterministic(self):
        a = build_group(Cyclic(5, 2))
        b = build_group(Cyclic(5, 2))
        assert a is b
        t1 = character_table(a)
        t2 = character_table(b)
        assert all(x.values == y.values for x, y in zip(t1, t2))


class TestDiscoveryPremises:
    @staticmethod
    def _found(G, image, chi):
        """One found entry for _peel: chi and the images of size_c conj(chi[c]) / |G|."""
        p = image.p
        return chi, [cls.size * image(v.conjugate()) * pow(G.order, -1, p) % p
                     for cls, v in zip(G.classes, chi)]

    def test_peel_refuses_a_negative_multiplicity(self):
        G = build_group(BinaryTetrahedral)
        table = character_table(G)
        a, b = table[-1].values, table[1].values  # degrees 3 and 1
        image = FpImage(G.ctx)
        virtual = tuple(x - y for x, y in zip(a, b))
        with pytest.raises(ConsistencyError, match="^negative multiplicity -1 while peeling"):
            klein._peel(image, virtual, [self._found(G, image, b)])

    def test_peel_refuses_a_vector_that_is_not_a_character(self):
        G = build_group(BinaryTetrahedral)
        chi = character_table(G)[-1].values
        image = FpImage(G.ctx)
        half = tuple(x * Fraction(1, 2) for x in chi)
        with pytest.raises(
            ConsistencyError,
            match=r"^multiplicity residue -\d+ mod p lies outside \[-d, d\] for the degree "
            r"d = 3/2 of a vector being peeled: it is not a character$",
        ):
            klein._peel(image, half, [self._found(G, image, chi)])

    @pytest.mark.parametrize(
        "kind",
        [BinaryDihedral(n) for n in range(2, 41)]
        + [BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral],
        ids=str,
    )
    def test_discovery_completes_from_the_walk_and_the_induced_seeds(self, kind, monkeypatch):
        # The queue has no other source: on BD:n the seeds of classes 0..2
        # (the identity, diag(zeta, zeta^-1) and rot) complete the table.
        G = build_group.__wrapped__(kind)
        drawn = [0] * G.num_classes
        induce = klein._induced_from_cyclic

        def counted_seeds(G, c):
            for vec in induce(G, c):
                drawn[c] += 1
                yield vec

        monkeypatch.setattr(klein, "_induced_from_cyclic", counted_seeds)
        assert len(klein._discover_table(G)) == G.num_classes
        if kind.family == "BD":
            assert not any(drawn[3:])

    @pytest.mark.parametrize(
        "kind,found",
        [(BinaryTetrahedral, 4), (BinaryOctahedral, 1), (BinaryIcosahedral, 1)]
        + [(BinaryDihedral(n), None) for n in (2, 3, 5, 12, 30)],
        ids=str,
    )
    def test_the_seeds_alone_stall_on_the_exceptional_groups(self, kind, found, monkeypatch):
        # Every irreducible is a constituent of some seed, but on BT, BO and
        # BI only the McKay walk isolates all of them.
        class NoWalk(deque):
            def __init__(self, factors=()):
                super().__init__()

            def append(self, chi):
                pass

        monkeypatch.setattr(klein, "deque", NoWalk)
        G = build_group(kind)
        if found is None:
            assert len(klein._discover_table(G)) == G.num_classes
            return
        with pytest.raises(ConsistencyError) as err:
            klein._discover_table(G)
        assert str(err.value) == (
            f"character discovery stalled for {kind}: {found} of {G.num_classes} irreducibles found"
        )
