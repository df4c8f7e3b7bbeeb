"""Signature partial sums, certified error bounds, and non-convergence."""

import contextlib
import csv
import io
from fractions import Fraction
from itertools import accumulate

import pytest

import symsig.cli as cli
from symsig import signature, sympow
from symsig.klein import (
    BinaryDihedral,
    BinaryIcosahedral,
    BinaryOctahedral,
    BinaryTetrahedral,
    Cyclic,
    build_group,
    character_table,
)
from symsig.signature import (
    error_bound,
    naive_ratio_series,
    oscillation_gap,
    signature_partial,
)
from symsig.sympow import _multiplicity_column

PANEL = (
    Cyclic(2, 1),
    Cyclic(5, 2),
    Cyclic(6, 5),
    BinaryDihedral(2),
    BinaryDihedral(4),
    BinaryTetrahedral,
    BinaryOctahedral,
    BinaryIcosahedral,
)

CLOSED_FORM_PANEL = (
    BinaryTetrahedral,
    BinaryOctahedral,
    BinaryIcosahedral,
    BinaryDihedral(5),
    BinaryDihedral(30),
    Cyclic(7, 3),
    Cyclic(12, 11),
    Cyclic(60, 7),
)


class TestPartialSums:
    def test_order_two_quotient_at_small_horizon(self):
        G = build_group(Cyclic(2, 1))
        s = signature_partial(G, 0, 10)
        assert s.partial_ratio == Fraction(6, 11)
        assert sum(_multiplicity_column(G, 0, 10)) == 36 and sum(range(1, 12)) == 66
        assert s.limit == Fraction(1, 2)

    def test_horizon_zero_is_trivial(self):
        for kind in (Cyclic(3, 2), BinaryOctahedral):
            s = signature_partial(build_group(kind), 0, 0)
            assert s.partial_ratio == 1

    def test_limit_is_degree_over_order(self):
        G = build_group(BinaryIcosahedral)
        degrees = character_table(G).degrees
        for i in (0, 4, 8):
            s = signature_partial(G, i, 5)
            assert s.limit == Fraction(degrees[i], 120)
        assert signature_partial(G, 0, 5).limit == Fraction(1, 120)

    def test_weight_sequence(self):
        G = build_group(Cyclic(5, 2))
        s = signature_partial(G, 1, 7)
        assert tuple(range(1, s.N + 2)) == (1, 2, 3, 4, 5, 6, 7, 8)
        assert len(_multiplicity_column(G, 1, s.N)) == 8

    def test_ratio_stays_in_unit_interval(self):
        for kind in PANEL:
            G = build_group(kind)
            for i in range(G.num_classes):
                s = signature_partial(G, i, 40)
                assert 0 <= s.partial_ratio <= 1

    def test_mass_splits_across_irreducibles(self):
        for kind in (Cyclic(5, 2), BinaryOctahedral):
            G = build_group(kind)
            degrees = character_table(G).degrees
            N = 57
            total = sum(
                d * sum(_multiplicity_column(G, i, N))
                for i, d in enumerate(degrees)
            )
            assert total == (N + 1) * (N + 2) // 2

    def test_columns_carry_the_weight_sum(self):
        G = build_group(BinaryOctahedral)
        for N in (0, 1, 7, 100, 2001):
            s = signature_partial(G, 2, N)
            a, b = _multiplicity_column(G, 2, N), range(1, N + 2)
            assert sum(b) == (N + 1) * (N + 2) // 2 and len(b) == N + 1
            assert len(a) == N + 1 and sum(a) == s.a_sum
            assert s.partial_ratio == Fraction(sum(a), sum(b))

    def test_invalid_index_rejected(self):
        G = build_group(BinaryTetrahedral)
        with pytest.raises(IndexError):
            signature_partial(G, 7, 10)
        with pytest.raises(IndexError):
            signature_partial(G, -1, 10)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            signature_partial(build_group(Cyclic(2, 1)), 0, -1)


class TestErrorBound:
    def test_covers_the_true_error_at_small_horizon(self):
        G = build_group(Cyclic(2, 1))
        s = signature_partial(G, 0, 10)
        assert abs(s.partial_ratio - s.limit) == Fraction(1, 22)
        assert float(abs(s.partial_ratio - s.limit)) <= s.bound

    def test_soundness_panel(self):
        for kind in PANEL:
            G = build_group(kind)
            for i in range(G.num_classes):
                for N in (10, 100, 1000):
                    s = signature_partial(G, i, N)
                    assert abs(s.partial_ratio - s.limit) <= s.bound

    def test_decays_at_least_geometrically_under_doubling(self):
        for kind in (Cyclic(7, 3), BinaryDihedral(3), BinaryIcosahedral):
            G = build_group(kind)
            for N in (100, 200, 400):
                assert error_bound(G, 0, 2 * N) <= 0.6 * error_bound(G, 0, N)

    def test_scales_like_inverse_horizon(self):
        G = build_group(BinaryTetrahedral)
        c100 = error_bound(G, 0, 100) * 100
        for N in (200, 400, 800, 1600):
            assert error_bound(G, 0, N) <= c100 / N * 1.05

    def test_is_the_true_error_where_the_envelope_is_tight(self):
        # cyclic:5,2's trivial summand has every alpha_s = 0 (see the signature
        # module doc) and its largest |beta_s| at s = 0, so N = 0 mod 5 attains it.
        G = build_group(Cyclic(5, 2))
        for N in (5, 10, 100, 1000):
            s = signature_partial(G, 0, N)
            assert s.bound == abs(s.partial_ratio - s.limit)

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            error_bound(build_group(Cyclic(2, 1)), 0, 0)


class TestNaiveRatio:
    def test_odd_powers_vanish_for_order_four(self):
        series = naive_ratio_series(build_group(Cyclic(4, 3)), 0, 999)
        assert all(series[q] == 0 for q in range(1, 1000, 2))

    def test_even_powers_approach_half_for_order_four(self):
        series = naive_ratio_series(build_group(Cyclic(4, 3)), 0, 1000)
        assert abs(float(series[1000]) - 0.5) < 0.01

    def test_starts_at_one_for_trivial_summand(self):
        for kind in (Cyclic(5, 2), BinaryIcosahedral):
            series = naive_ratio_series(build_group(kind), 0, 3)
            assert series[0] == 1


class TestOscillationGap:
    def test_order_two_gap_is_full(self):
        gap = oscillation_gap(build_group(Cyclic(2, 1)), 0, 1000)
        assert gap >= Fraction(95, 100)

    def test_order_four_gap_near_half(self):
        gap = oscillation_gap(build_group(Cyclic(4, 3)), 0, 1000)
        assert gap >= Fraction(45, 100)

    def test_order_six_gap_near_third(self):
        gap = oscillation_gap(build_group(Cyclic(6, 5)), 0, 1000)
        assert gap >= Fraction(2, 6) - Fraction(2, 100)

    def test_icosahedral_parity_obstruction(self):
        gap = oscillation_gap(build_group(BinaryIcosahedral), 0, 200)
        assert gap >= Fraction(1, 120)

    def test_short_horizon_rejected(self):
        with pytest.raises(ValueError):
            oscillation_gap(build_group(Cyclic(2, 1)), 0, 1)


class TestClosedForms:
    """The O(m) sum and gap against the O(N) column and naive-ratio oracles."""

    @pytest.mark.parametrize("kind", CLOSED_FORM_PANEL, ids=str)
    def test_match_the_oracles_at_every_small_horizon(self, kind):
        G = build_group(kind)
        top, degrees = 4 * G.m, character_table(G).degrees
        for i in range(G.num_classes):
            # Oracle values up to N are the prefix q <= N of those up to top.
            column = _multiplicity_column(G, i, top)
            ratios = naive_ratio_series(G, i, top)
            ordered = sorted(set(ratios))  # ranks make each window's max and min int work
            rank = {v: k for k, v in enumerate(ordered)}
            ranks = [rank[v] for v in ratios]
            sums = list(accumulate(column))
            limit = Fraction(degrees[i], G.order)
            errors = [abs(Fraction(a, (n + 1) * (n + 2) // 2) - limit) for n, a in enumerate(sums)]
            later = list(accumulate(reversed(errors), max))[::-1]  # max error over N' in [N, top]
            for N in range(1, top + 1):
                s = signature_partial(G, i, N)
                assert s.a_sum == sums[N], (i, N)
                assert isinstance(s.bound, Fraction) and s.bound >= later[N], (i, N)
                if N < 2:
                    continue
                window = ranks[N // 2 : N + 1]
                expect = ordered[max(window)] - ordered[min(window)]
                assert oscillation_gap(G, i, N) == expect, (i, N)
            N = 2001
            assert signature_partial(G, i, N).a_sum == sum(_multiplicity_column(G, i, N))
            window = naive_ratio_series(G, i, N)[N // 2:]
            assert oscillation_gap(G, i, N) == max(window) - min(window)

    @pytest.mark.parametrize("i, limit", [(0, "1/120"), (3, "1/40")])
    def test_cli_builds_no_column_at_a_huge_horizon(self, monkeypatch, i, limit):
        def refuse(*args):
            raise AssertionError("an O(N) column was built")

        monkeypatch.setattr(sympow, "_multiplicity_column", refuse)
        monkeypatch.setattr(signature, "_multiplicity_column", refuse)
        monkeypatch.setattr(signature, "naive_ratio_series", refuse)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["signature", "BI", "-i", str(i), "--horizon", str(10**12),
                             "--format", "csv"])
        assert code == 0
        assert ["limit", limit] in [row[:2] for row in csv.reader(io.StringIO(out.getvalue()))]
