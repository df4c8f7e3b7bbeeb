"""Exact arithmetic in Q(zeta_m): construction, field axioms, conjugation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsig.cyclotomic import (
    FpImage,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    get_context,
    is_prime,
)
from symsig.selfcheck import check_cyclotomic


class TestCyclotomicPolynomial:
    def test_first_polynomial_is_x_minus_one(self):
        assert tuple(cyclotomic_polynomial(1)) == (-1, 1)

    def test_fourth_is_x_squared_plus_one(self):
        assert tuple(cyclotomic_polynomial(4)) == (1, 0, 1)

    def test_sixth_is_x_squared_minus_x_plus_one(self):
        assert tuple(cyclotomic_polynomial(6)) == (1, -1, 1)

    def test_degree_is_totient(self):
        for m in (1, 2, 7, 12, 24, 60, 97):
            assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1

    @pytest.mark.parametrize("m", [1, 2, 6, 12, 30, 60, 99, 120])
    def test_product_over_divisors_is_x_m_minus_one(self, m):
        check_cyclotomic((m,), (), 0)


class TestRootsOfUnity:
    def test_primitive_fourth_root_has_unit_coefficient(self):
        ctx = get_context(4)
        assert ctx.zeta(1).coeffs == (Fraction(0), Fraction(1))

    def test_minus_one_in_conductor_two(self):
        ctx = get_context(2)
        assert ctx.zeta(1) == -1

    def test_third_root_squared_reduces(self):
        ctx = get_context(3)
        z = ctx.zeta(1)
        assert ctx.zeta(2) == -ctx.one - z

    def test_exponent_wraps_modulo_m(self):
        ctx = get_context(12)
        assert ctx.zeta(25) == ctx.zeta(1)
        assert ctx.zeta(-1) == ctx.zeta(11)

    def test_identity_element(self):
        ctx = get_context(20)
        assert ctx.zeta(0) == ctx.one


class TestFieldOperations:
    def test_root_times_inverse_power_is_one(self):
        for m in (2, 5, 12, 60):
            ctx = get_context(m)
            assert ctx.zeta(1) * ctx.zeta(m - 1) == ctx.one

    def test_all_sixth_roots_sum_to_zero(self):
        ctx = get_context(6)
        total = ctx.zero
        for k in range(6):
            total = total + ctx.zeta(k)
        assert total == ctx.zero

    def test_inverse_of_one_plus_i(self):
        ctx = get_context(4)
        x = ctx.one + ctx.zeta(1)
        expected = (ctx.one - ctx.zeta(1)) * Fraction(1, 2)
        assert x.inv() == expected

    @pytest.mark.parametrize("m", [7, 116, 120])
    def test_inverse_round_trip(self, m):
        ctx = get_context(m)
        rng = random.Random(m)
        for _ in range(3):
            x = ctx.from_coeffs([rng.randint(-9, 9) for _ in range(ctx.degree)])
            assert x * x.inv() == ctx.one
            assert x.inv().inv() == x

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            get_context(5).zeta(1) ** -1

    def test_inverse_of_zero_rejected(self):
        ctx = get_context(8)
        with pytest.raises(ZeroDivisionError):
            ctx.zero.inv()

    def test_mixed_conductors_rejected(self):
        with pytest.raises(ValueError):
            get_context(4).zeta(1) + get_context(3).zeta(1)

    def test_rational_embedding_arithmetic(self):
        ctx = get_context(12)
        assert ctx.rational(Fraction(1, 2)) + ctx.rational(Fraction(1, 3)) == ctx.rational(Fraction(5, 6))


class TestConjugation:
    def test_rationals_are_fixed(self):
        ctx = get_context(8)
        x = ctx.rational(Fraction(-7, 3))
        assert x.conjugate() == x

    def test_conjugate_of_i_is_minus_i(self):
        ctx = get_context(4)
        assert ctx.zeta(1).conjugate() == -ctx.zeta(1)

    def test_involution(self):
        ctx = get_context(5)
        x = ctx.rational(3) + 2 * ctx.zeta(1) + ctx.zeta(3)
        assert x.conjugate().conjugate() == x


class TestRationalDetection:
    def test_constant(self):
        ctx = get_context(10)
        assert ctx.rational(Fraction(7, 3)).to_rational() == Fraction(7, 3)

    def test_primitive_root_is_not_rational(self):
        assert get_context(5).zeta(1).to_rational() is None

    def test_cosine_combination(self):
        ctx = get_context(6)
        assert (ctx.zeta(1) + ctx.zeta(-1)).to_rational() == 1


class TestComplexEmbedding:
    def test_one(self):
        assert get_context(7).one.embed_complex() == pytest.approx(1.0)

    def test_i(self):
        z = get_context(4).zeta(1).embed_complex()
        assert abs(z - 1j) < 1e-12

    def test_golden_section(self):
        ctx = get_context(5)
        v = (ctx.zeta(1) + ctx.zeta(-1)).embed_complex()
        assert abs(v.real - 0.6180339887498949) < 1e-9
        assert abs(v.imag) < 1e-9


def elements(m):
    ctx = get_context(m)
    return st.lists(
        st.integers(min_value=-30, max_value=30),
        min_size=ctx.degree,
        max_size=ctx.degree,
    ).map(lambda cs: ctx.from_coeffs([Fraction(c) for c in cs]))


@pytest.mark.parametrize("m", [12, 24, 60])
class TestFieldAxioms:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_associativity_and_distributivity(self, m, data):
        x = data.draw(elements(m))
        y = data.draw(elements(m))
        z = data.draw(elements(m))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_multiplicative_inverse(self, m, data):
        x = data.draw(elements(m).filter(lambda e: not e.is_zero))
        ctx = get_context(m)
        assert x * x.inv() == ctx.one

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_conjugation_is_a_ring_map(self, m, data):
        x = data.draw(elements(m))
        y = data.draw(elements(m))
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.conjugate().conjugate() == x

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_norm_is_nonnegative_real(self, m, data):
        x = data.draw(elements(m))
        z = (x * x.conjugate()).embed_complex()
        assert abs(z.imag) < 1e-9
        assert z.real > -1e-9


def random_element(ctx, rng):
    """Mostly zero or small coefficients, some negative, some with denominators."""
    kind = rng.random()
    if kind < 0.15:
        return ctx.zero
    coeffs = []
    for _ in range(ctx.degree):
        if rng.random() < 0.3:
            coeffs.append(0)
        else:
            coeffs.append(Fraction(rng.randint(-40, 40), rng.choice((1, 1, 2, 3, 12))))
    return ctx.from_coeffs(coeffs)


def schoolbook_mul(x, y):
    """Oracle: the dense product loop over every coefficient pair, reduced
    with the power-basis vectors of z^d .. z^(2d-2)."""
    ctx = x.ctx
    d = ctx.degree
    out = [0] * (2 * d - 1)
    for i, a in enumerate(x.num):
        if a:
            for j, b in enumerate(y.num):
                if b:
                    out[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        c = out[k]
        if c:
            for j, rj in enumerate(ctx.zeta(k).num):
                if rj:
                    out[j] += c * rj
    return ctx.from_coeffs([Fraction(v, x.den * y.den) for v in out[:d]])


@pytest.mark.parametrize("m", [12, 24, 60, 105, 120])
def test_sparse_product_matches_the_schoolbook_loop(m):
    ctx = get_context(m)
    rng = random.Random(f"sparse-mul:{m}")
    operands = [ctx.zero, ctx.one, ctx.rational(Fraction(-3, 4))]
    for _ in range(6):
        e1, e2 = rng.randrange(m), rng.randrange(m)
        operands += [
            random_element(ctx, rng),
            ctx.zeta(e1),
            -ctx.zeta(e2),
            ctx.zeta(e1) + ctx.zeta(e2),
            ctx.zeta(e1) - 2 * ctx.zeta(e2),
        ]
    for x in operands:
        for y in operands:
            assert x * y == schoolbook_mul(x, y)
    assert ctx.zeta(m - 1) * ctx.zeta(1) == ctx.one


class TestFpImage:
    def test_primality_matches_a_sieve(self):
        n = 10 ** 5
        sieve = [False, False] + [True] * (n - 2)
        for k in range(2, math.isqrt(n) + 1):
            if sieve[k]:
                sieve[k * k::k] = [False] * len(range(k * k, n, k))
        assert [is_prime(k) for k in range(n)] == sieve

    def test_primality_on_a_mersenne_prime_and_strong_pseudoprimes(self):
        assert is_prime(2 ** 61 - 1)
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime up to 23
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    @pytest.mark.parametrize("m", [12, 24, 60, 44, 120, 404])
    def test_omega_is_a_primitive_root_mod_a_large_prime(self, m):
        image = FpImage(get_context(m))
        p, omega = image.p, image.omega
        assert is_prime(p) and p < 2 ** 61 and (p - 1) % m == 0
        assert not any(is_prime(q) for q in range(p + m, 2 ** 61, m))
        assert pow(omega, m, p) == 1
        for q in divisors(m)[1:]:
            if is_prime(q):
                assert pow(omega, m // q, p) != 1

    @pytest.mark.parametrize("m", [12, 24, 60, 44, 120, 404])
    def test_image_is_a_ring_map_and_conjugation_inverts_omega(self, m):
        ctx = get_context(m)
        image = FpImage(ctx)
        p = image.p
        rng = random.Random(f"fp-image:{m}")
        assert image(ctx.one) == 1 and image(ctx.zeta(1)) == image.omega
        inverse = pow(image.omega, -1, p)
        for _ in range(10):
            x, y = random_element(ctx, rng), random_element(ctx, rng)
            assert image(x + y) == (image(x) + image(y)) % p
            assert image(x * y) == image(x) * image(y) % p
            at_inverse = sum(a * pow(inverse, j, p) for j, a in enumerate(x.num))
            assert image(x.conjugate()) == at_inverse * pow(x.den, -1, p) % p
        for k in (0, 1, -7, p // 2, -(p // 2)):
            assert image.signed(image(ctx.rational(k))) == k
