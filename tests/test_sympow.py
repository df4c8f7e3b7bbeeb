"""Symmetric-power characters and decompositions: three routes, one answer."""

import math
from fractions import Fraction

import pytest

from symsig import sympow
from symsig.cyclotomic import ConsistencyError, CycloElement, FpImage
from symsig.klein import (
    BinaryDihedral,
    BinaryIcosahedral,
    BinaryOctahedral,
    BinaryTetrahedral,
    Character,
    CharacterTable,
    Cyclic,
    build_group,
    character_table,
    fundamental_character,
    inner_product,
)
from symsig.sympow import (
    _cyclic_twists,
    _tensor_matrix,
    decompose,
    decompose_inner,
    molien_coefficients,
    multiplicity_series,
    springer_series,
    sym_character,
    sym_character_eigen,
    sym_character_series,
)
from symsig.selfcheck import check_characters

PANEL = (
    Cyclic(2, 1),
    Cyclic(5, 2),
    Cyclic(6, 5),
    Cyclic(7, 3),
    BinaryDihedral(2),
    BinaryDihedral(3),
    BinaryTetrahedral,
    BinaryOctahedral,
    BinaryIcosahedral,
)


def central_class(G):
    """Index of the class of -identity, or None."""
    for c in range(G.num_classes):
        if G.class_trace(c).to_rational() == -2:
            return c
    return None


class TestSymCharacter:
    def test_zeroth_power_is_trivial(self):
        for kind in PANEL:
            G = build_group(kind)
            chi = sym_character(G, 0)
            assert all(v == G.ctx.one for v in chi.values)

    def test_first_power_is_fundamental(self):
        for kind in PANEL:
            G = build_group(kind)
            assert sym_character(G, 1).values == fundamental_character(G).values

    def test_identity_value_counts_monomials(self):
        G = build_group(BinaryOctahedral)
        for q in (0, 1, 5, 23):
            assert sym_character(G, q).values[0].to_rational() == q + 1

    def test_central_class_alternates(self):
        for kind in (BinaryDihedral(2), BinaryTetrahedral, BinaryIcosahedral):
            G = build_group(kind)
            c = central_class(G)
            assert c is not None
            for q in (0, 1, 2, 3, 8, 13):
                v = sym_character(G, q).values[c].to_rational()
                assert v == (-1) ** q * (q + 1)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            sym_character(build_group(Cyclic(2, 1)), -1)

    def test_one_row_matches_the_series(self):
        for kind in PANEL:
            G = build_group(kind)
            series = sym_character_series(G, 2 * G.m + 1)
            for q in (0, 1, G.m, 2 * G.m + 1):
                assert sym_character(G, q).values == series[q].values


class TestEigenOracle:
    def test_generator_class_second_power(self):
        for n in (3, 5, 8):
            G = build_group(Cyclic(n, n - 1))
            ctx = G.ctx
            expected = ctx.zeta(2) + ctx.one + ctx.zeta(-2)
            assert expected in sym_character_eigen(G, 2).values

    def test_matches_recurrence(self):
        check_characters(PANEL, 24)

    def test_searches_each_class_once(self, monkeypatch):
        G = build_group.__wrapped__(BinaryTetrahedral)
        calls = 0
        search = sympow._eigen_pair_search

        def counted(G, c):
            nonlocal calls
            calls += 1
            return search(G, c)

        monkeypatch.setattr(sympow, "_eigen_pair_search", counted)
        for q in range(17):
            sym_character_eigen(G, q)
        assert calls == G.num_classes


class TestMolienOracle:
    def test_identity_class_series(self):
        G = build_group(BinaryTetrahedral)
        coeffs = molien_coefficients(G, 0, 9)
        assert [c.to_rational() for c in coeffs] == list(range(1, 11))

    def test_central_class_series_alternates(self):
        G = build_group(BinaryTetrahedral)
        c = central_class(G)
        coeffs = molien_coefficients(G, c, 7)
        assert [x.to_rational() for x in coeffs] == [1, -2, 3, -4, 5, -6, 7, -8]

    def test_matches_recurrence_on_every_class(self):
        check_characters(PANEL, 24)


class TestDecompose:
    def test_zeroth_power(self):
        for kind in PANEL:
            G = build_group(kind)
            d = decompose(G, 0)
            assert d.multiplicities == (1,) + (0,) * (G.num_classes - 1)

    def test_order_two_quotient_second_power(self):
        d = decompose(build_group(Cyclic(2, 1)), 2)
        assert d.multiplicities[0] == 3

    def test_order_three_quotient_third_power(self):
        d = decompose(build_group(Cyclic(3, 2)), 3)
        assert d.multiplicities[0] == 2

    def test_matches_inner_product_route(self):
        for kind in PANEL:
            G = build_group(kind)
            rows = multiplicity_series(G, max(16, 5 * G.m + 2))
            for q in (0, 1, 2, 3, 7, 16, 3 * G.m + 1, 5 * G.m + 2):
                assert rows[q] == decompose_inner(G, q).multiplicities

    def test_dimension_conservation_deep(self):
        degrees = {
            kind: character_table(build_group(kind)).degrees for kind in PANEL
        }
        for kind in PANEL:
            G = build_group(kind)
            rows = multiplicity_series(G, 256)
            for q, row in enumerate(rows):
                assert sum(a * d for a, d in zip(row, degrees[kind])) == q + 1

    def test_multiplicities_never_negative(self):
        for kind in PANEL:
            G = build_group(kind)
            for row in multiplicity_series(G, 128):
                assert min(row) >= 0

    def test_mckay_columns_are_sparse_and_conserve_dimension(self):
        # chi_V * chi_j has degree 2 d_j.  Its constituents are the
        # neighbours of j on the affine ADE McKay graph, at most 4 (the
        # centre of affine D4, BD:2), and 2 for the cyclic embeddings.
        for kind in PANEL + (BinaryDihedral(9), Cyclic(60, 7)):
            G = build_group(kind)
            degrees = character_table(G).degrees
            for j, column in enumerate(_tensor_matrix(G)):
                assert all(t > 0 for _, t in column)
                assert sum(t * degrees[i] for i, t in column) == 2 * degrees[j]
                assert len(column) <= (2 if kind.family == "cyclic" else 4)

    # A halved row reads the multiplicity 1/2 as its residue -(p - 1)/2
    # (p = 2305843009213693921 for m = 12 and 60), and BT's row shifted by
    # zeta reads another negative residue: both lie past 2 |chi_j(1)|, so the
    # message names the inner product, not the residue.  BI's shifted row is
    # refused at its degree.  A negated row reads its multiplicities negated.
    CORRUPTED = {
        ("BT", "half"): "<chi_4, chi_V * chi_2> is not an integer in [0, 2 d_2]",
        ("BT", "negate"): "tensor multiplicity -1 is not a non-negative integer",
        ("BT", "zeta"): "<chi_2, chi_V * chi_0> is not an integer in [0, 2 d_0]",
        ("BI", "half"): "<chi_2, chi_V * chi_0> is not an integer in [0, 2 d_0]",
        ("BI", "negate"): "tensor multiplicity -1 is not a non-negative integer",
        ("BI", "zeta"): "character degree None is not a positive integer",
    }

    @pytest.mark.parametrize("change", ["half", "negate", "zeta"])
    @pytest.mark.parametrize("kind", [BinaryTetrahedral, BinaryIcosahedral], ids=str)
    def test_mckay_columns_refuse_a_corrupted_row(self, kind, change, monkeypatch):
        G = build_group(kind)
        rows = [list(chi.values) for chi in character_table(G)]
        rows[2] = {
            "half": lambda row: [v * Fraction(1, 2) for v in row],
            "negate": lambda row: [-v for v in row],
            "zeta": lambda row: [row[0] + G.ctx.zeta(1)] + row[1:],
        }[change](rows[2])
        bad = CharacterTable(G, [Character(G, row) for row in rows])
        monkeypatch.setattr(sympow, "character_table", lambda G: bad)
        with pytest.raises(ConsistencyError) as err:
            _tensor_matrix(G)
        assert str(err.value) == self.CORRUPTED[str(kind), change]

    def test_mckay_matrix_multiplies_each_distinct_value_pair_once(self, monkeypatch):
        G = build_group(BinaryDihedral(22))
        table = character_table(G)
        fund = fundamental_character(G).values
        pairs = {(f.num, f.den, v.num, v.den) for chi in table for f, v in zip(fund, chi.values)}
        calls = 0
        mul = CycloElement.__mul__

        def counted(self, other):
            nonlocal calls
            calls += 1
            return mul(self, other)

        monkeypatch.setattr(CycloElement, "__mul__", counted)
        _tensor_matrix(G)
        # 625 products when each fund * chi_j was taken value by value
        assert 0 < calls <= len(pairs)

    def test_mckay_matrix_reads_one_residue_per_entry(self, monkeypatch):
        # The cost law: r^2 signed residues, one per entry T[i][j].
        G = build_group(BinaryDihedral(22))
        character_table(G)
        calls = 0
        signed = FpImage.signed

        def counted(self, a):
            nonlocal calls
            calls += 1
            return signed(self, a)

        monkeypatch.setattr(FpImage, "signed", counted)
        _tensor_matrix(G)
        assert G.num_classes == 25 and calls == 625

    def test_inner_product_is_symmetric_for_real_multiplicities(self):
        G = build_group(BinaryIcosahedral)
        table = character_table(G)
        for q in (2, 5, 9):
            chi = sym_character(G, q)
            for irr in table:
                assert inner_product(chi, irr) == inner_product(irr, chi)


def _arms(T, b):
    """Edges from branch node b along each of its arms, up to a leaf or a branch node."""
    r = len(T)
    arms = []
    for start in (j for j in range(r) if T[b][j]):
        prev, node, length = b, start, 1
        while sum(T[node]) == 2:
            prev, node = node, next(j for j in range(r) if T[node][j] and j != prev)
            length += 1
        arms.append(length)
    return tuple(sorted(arms))


class TestMcKayGraph:
    # The McKay matrix of a binary polyhedral group is the adjacency matrix
    # of its affine ADE diagram: a tree whose branch nodes have these arms.
    @pytest.mark.parametrize(
        "kind",
        [BinaryDihedral(n) for n in range(2, 41)]
        + [BinaryTetrahedral, BinaryOctahedral, BinaryIcosahedral],
        ids=str,
    )
    def test_tensor_matrix_is_the_affine_diagram(self, kind):
        if kind.family == "BD":
            branches = [(1, 1, 1, 1)] if kind.n == 2 else [(1, 1, kind.n - 2)] * 2
        else:
            branches = [{"BT": (2, 2, 2), "BO": (1, 3, 3), "BI": (1, 2, 5)}[kind.family]]
        G = build_group(kind)
        r = G.num_classes
        T = [[0] * r for _ in range(r)]
        for j, column in enumerate(_tensor_matrix(G)):
            for i, t in column:
                T[i][j] = t
        assert all(T[i][j] == T[j][i] in (0, 1) for i in range(r) for j in range(r))
        assert not any(T[i][i] for i in range(r))
        assert sum(map(sum, T)) == 2 * (r - 1)
        assert [_arms(T, b) for b in range(r) if sum(T[b]) > 2] == branches


def _field_det_permutation(G):
    """Oracle for P: perm[j] is the row equal to det * chi_j, by field products."""
    table = character_table(G)
    dets = [G.elements[cls.rep].det() for cls in G.classes]
    by_values = {chi.values: i for i, chi in enumerate(table)}
    return [by_values[tuple(d * v for d, v in zip(dets, chi.values))] for chi in table]


class TestCyclicTwists:
    @pytest.mark.parametrize("n", [*range(2, 25), 36, 48, 60])
    def test_matches_inner_products_and_field_products(self, n):
        weights = {36: [11], 48: [5], 60: [7]}.get(n, range(1, n))
        for a in weights:
            if math.gcd(a, n) == 1:
                G = build_group(Cyclic(n, a))
                columns, perm = _cyclic_twists(G)
                assert columns == _tensor_matrix(G), G.kind
                assert perm == _field_det_permutation(G), G.kind

    @pytest.mark.parametrize("replace", ["other root", "not a root"])
    def test_a_corrupted_row_is_refused(self, replace, monkeypatch):
        G = build_group(Cyclic(12, 5))
        table = character_table(G)
        for i, c in ((1, 1), (5, 7), (11, 11)):
            rows = [list(chi.values) for chi in table]
            v = rows[i][c]
            rows[i][c] = v * G.ctx.zeta(1) if replace == "other root" else 2 * v
            bad = CharacterTable(G, [Character(G, row) for row in rows])
            monkeypatch.setattr(sympow, "character_table", lambda G: bad)
            # _cyclic_twists reads the weights off the proof of the table
            with pytest.raises(ConsistencyError, match=rf"^chi_{i} is not a power of lambda"):
                _cyclic_twists(G)


class TestLimitCertificate:
    def test_a_corrupted_step_is_refused(self):
        G = build_group(BinaryIcosahedral)
        degrees = character_table(G).degrees
        steps = list(sympow._period_rows(G)[1])
        row = list(steps[7])
        row[4] += 1
        steps[7] = tuple(row)
        with pytest.raises(ConsistencyError, match=r"^Cesaro limit certificate fails for BI, i=4$"):
            sympow._certify_limits(G, degrees, steps)


class TestSpringerSeries:
    def test_trivial_coefficient_zero_is_one(self):
        for kind in (Cyclic(5, 2), BinaryOctahedral):
            assert springer_series(build_group(kind), 0, 0) == [1]

    def test_order_two_quotient_sequence(self):
        got = springer_series(build_group(Cyclic(2, 1)), 0, 6)
        assert got == [1, 0, 3, 0, 5, 0, 7]

    def test_agrees_with_decomposition(self):
        for kind in (Cyclic(6, 5), BinaryDihedral(3), BinaryTetrahedral):
            G = build_group(kind)
            rows = multiplicity_series(G, 64)
            for i in range(G.num_classes):
                assert springer_series(G, i, 64) == [rows[q][i] for q in range(65)]
