"""Weight-counting oracles and the symbolic syzygy verification."""

from math import gcd

import pytest

from symsig.cyclic import (
    MonomialVector,
    WeightMultiset,
    action_scales_by,
    format_monomial,
    module_generators,
    monomial_weights,
    relation_holds,
    syzygy_action_check,
    syzygy_vectors,
)
from symsig.cyclotomic import get_context
from symsig.selfcheck import check_monomial, check_syzygies


class TestMonomialWeights:
    def test_all_weights_even_power_order_two(self):
        assert monomial_weights(2, 1, 2).counts == (3, 0)

    def test_order_three_third_power(self):
        assert monomial_weights(3, 2, 3).counts[0] == 2

    def test_zeroth_power_is_invariant(self):
        for n, a in ((2, 1), (9, 4), (12, 5)):
            counts = monomial_weights(n, a, 0).counts
            assert counts[0] == 1 and sum(counts) == 1

    def test_total_count_is_dimension(self):
        for q in (0, 1, 17, 64):
            w = monomial_weights(7, 3, q)
            assert w.dimension == q + 1

    def test_non_unit_weight_rejected(self):
        with pytest.raises(ValueError):
            monomial_weights(6, 3, 4)

    def test_multiset_shape_validated(self):
        with pytest.raises(ValueError):
            WeightMultiset(3, (1, 2))
        with pytest.raises(ValueError):
            WeightMultiset(2, (1, -1))


class TestAnDecomposition:
    def test_odd_powers_have_no_invariants(self):
        assert monomial_weights(2, 1, 5).counts == (0, 6)

    def test_even_power_free_count(self):
        assert monomial_weights(2, 1, 4).counts[0] == 5

    def test_parity_vanishing_for_even_order(self):
        for n in (2, 4, 6, 8, 10, 12):
            for q in (1, 3, 5, 31, 255):
                assert monomial_weights(n, n - 1, q).counts[0] == 0


class TestOracleEquivalence:
    def test_weight_counts_equal_character_multiplicities(self):
        pairs = [(n, a) for n in range(2, 9) for a in range(1, n) if gcd(a, n) == 1]
        check_monomial(pairs, (0, 1, 2, 3, 7, 21, 48))


class TestModuleGenerators:
    def test_invariant_module_is_the_ring(self):
        assert module_generators(2, 1, 0, 4) == [(0, 0)]

    def test_odd_module_generated_by_both_variables(self):
        assert module_generators(2, 1, 1, 4) == [(1, 0), (0, 1)]

    def test_order_three_weight_one(self):
        gens = module_generators(3, 2, 1, 6)
        assert (2, 0) in gens and (0, 1) in gens

    def test_generator_count_matches_rank_one_modules(self):
        # for the a = n-1 series every nonzero weight module needs exactly
        # two monomial generators u^i and v^(n-i)
        for n in (3, 4, 7):
            for t in range(1, n):
                gens = module_generators(n, n - 1, t, 2 * n)
                assert len(gens) == 2

    def test_formatting(self):
        assert format_monomial((0, 0)) == "1"
        assert format_monomial((1, 0)) == "u"
        assert format_monomial((2, 3)) == "u^2*v^3"

    def test_small_cap_rejected(self):
        with pytest.raises(ValueError):
            module_generators(5, 4, 1, 3)


class TestSyzygyCheck:
    def test_passes_for_all_small_orders(self):
        check_syzygies(range(2, 13))

    def test_vectors_scale_oppositely(self):
        s1, s2 = syzygy_vectors(5)
        assert action_scales_by(s1, 1) and not action_scales_by(s1, -1)
        assert action_scales_by(s2, -1) and not action_scales_by(s2, 1)

    def test_perturbed_vector_fails_the_relation(self):
        for n in (3, 7, 12):
            ctx = get_context(n)
            bad = MonomialVector.from_polys(
                n, ({}, {(1, 0): -ctx.one}, {(0, n - 2): ctx.one})
            )
            assert not relation_holds(bad)

    def test_order_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            syzygy_action_check(1)
