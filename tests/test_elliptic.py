"""Formal bundle calculus on the plane cubic: ranks, slopes, signatures."""

from fractions import Fraction

import pytest

from symsig.elliptic import (
    SYZYGY_BUNDLE,
    AtiyahTwist,
    FormalStable,
    LineTwist,
    bundle,
    degree,
    dsigma_partial,
    free_rank,
    rank,
    sigma_upper_bound,
    slope,
    sym_cotangent,
    sym_syzygy_free_rank_bound,
)


class TestAtoms:
    def test_line_twist_invariants(self):
        a = LineTwist(-4)
        assert rank(a) == 1 and degree(a) == -12

    def test_atiyah_twist_degree(self):
        assert degree(AtiyahTwist(5, 0)) == 0
        assert degree(AtiyahTwist(3, 2)) == 18

    def test_rank_one_atiyah_normalizes_to_line(self):
        assert AtiyahTwist(1, 7) == LineTwist(7)

    def test_stable_slope(self):
        assert slope(FormalStable(2, -9)) == Fraction(-9, 2)

    def test_syzygy_bundle_invariants(self):
        assert rank(SYZYGY_BUNDLE) == 2
        assert degree(SYZYGY_BUNDLE) == -9

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(ValueError):
            AtiyahTwist(0, 1)
        with pytest.raises(ValueError):
            FormalStable(0, 3)


class TestExpressions:
    def test_rank_and_degree_are_additive(self):
        e = bundle(LineTwist(1), AtiyahTwist(2, -1), FormalStable(2, -9))
        assert rank(e) == 5
        assert degree(e) == 3 - 6 - 9

    def test_sum_merges_multisets(self):
        e = bundle(LineTwist(0)) + bundle(LineTwist(0), AtiyahTwist(3, 1))
        assert rank(e) == 5 and len(e.atoms) == 3

    def test_slope_of_empty_expression_rejected(self):
        with pytest.raises(ValueError):
            slope(bundle())


class TestSymCotangent:
    def test_zeroth_power_is_structure_sheaf(self):
        assert sym_cotangent(0).atoms == (LineTwist(0),)

    def test_second_power(self):
        e = sym_cotangent(2)
        assert rank(e) == 3 and degree(e) == 18

    def test_slope_grows_linearly(self):
        base = slope(sym_cotangent(1))
        for q in (1, 2, 3, 17, 100, 1000):
            assert slope(sym_cotangent(q)) == q * base == 3 * q

    def test_higher_powers_have_no_free_summand(self):
        for q in range(1, 40):
            fr = free_rank(sym_cotangent(q))
            assert fr.value == 0 and fr.exact

    def test_zeroth_power_is_free(self):
        fr = free_rank(sym_cotangent(0))
        assert fr.value == 1 and fr.exact


class TestFreeRank:
    def test_counts_line_twists_exactly(self):
        fr = free_rank(bundle(LineTwist(-2), AtiyahTwist(2, 0)))
        assert fr.value == 1 and fr.exact

    def test_stable_rank_one_degrades_to_upper_bound(self):
        fr = free_rank(bundle(FormalStable(1, 5), LineTwist(0)))
        assert fr.value == 2 and not fr.exact

    def test_stable_higher_rank_contributes_nothing(self):
        fr = free_rank(bundle(SYZYGY_BUNDLE))
        assert fr.value == 0 and fr.exact


class TestSyzygyFreeRankBound:
    def test_odd_powers_vanish(self):
        assert sym_syzygy_free_rank_bound(3) == 0
        for q in range(1, 1002, 2):
            assert sym_syzygy_free_rank_bound(q) == 0

    def test_zeroth_power(self):
        assert sym_syzygy_free_rank_bound(0) == 1

    def test_even_powers_bounded_by_rank(self):
        assert sym_syzygy_free_rank_bound(4) == 5


class TestSignatureNumbers:
    def test_first_partial_sums(self):
        assert dsigma_partial(0) == 1
        assert dsigma_partial(10) == Fraction(1, 66)
        assert dsigma_partial(100) == Fraction(1, 5151)

    def test_closed_form(self):
        for N in range(0, 400):
            assert dsigma_partial(N) * ((N + 1) * (N + 2) // 2) == 1

    def test_matches_the_per_q_sum_of_free_ranks(self):
        total = 0
        for N in range(1001):
            fr = free_rank(sym_cotangent(N))
            assert fr.exact
            total += fr.value
            assert dsigma_partial(N) == Fraction(total, (N + 1) * (N + 2) // 2)

    def test_quadratic_decay(self):
        for N in range(2, 300):
            assert dsigma_partial(N) <= Fraction(3, N * N)

    def test_upper_bound_values(self):
        assert sigma_upper_bound(1) == Fraction(1, 2)
        assert sigma_upper_bound(2) == 1
        assert abs(float(sigma_upper_bound(1000)) - 0.5) < 0.002

    def test_upper_bound_brackets(self):
        for N in range(2, 600, 2):
            v = sigma_upper_bound(N)
            assert Fraction(1, 2) <= v <= Fraction(1, 2) + Fraction(2, N + 2)

    def test_even_weight_ratio_respects_bound(self):
        for N in range(2, 300):
            even_sum = sum(q + 1 for q in range(0, N + 1, 2))
            total = (N + 1) * (N + 2) // 2
            assert Fraction(even_sum, total) <= sigma_upper_bound(N)
