"""Exact arithmetic in Q(zeta_m): construction, field axioms, conjugation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsig.cyclotomic import (
    ConsistencyError,
    FpImage,
    PackedProducts,
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


def pack(ctx, elements, width):
    """The elements as packed ints over their common denominator, and that denominator."""
    den = math.lcm(*(e.den for e in elements))
    return [ctx.pack(e.num, width) * (den // e.den) for e in elements], den


def numerator_bits(elements):
    """Bit length of the largest |numerator| over the common denominator."""
    den = math.lcm(*(e.den for e in elements))
    return max(abs(a) * (den // e.den) for e in elements for a in e.num).bit_length()


def residue_sum(ctx, px, py, den, width, weights=None):
    """sum_k w_k px[k] py[k] / den through PackedProducts.residue, or None."""
    products = PackedProducts(ctx, px, py, width, den)
    weights = weights or [1] * len(px)
    r = products.residue([products[k, w] for k, w in enumerate(weights)], range(len(px)))
    return None if r is None else Fraction(r, den)


def packed_sum(ctx, weights, xs, ys):
    """sum_k w_k x_k y_k at the slot width PackedProducts' docstring prescribes."""
    width = (
        numerator_bits(xs) + numerator_bits(ys)
        + (sum(map(abs, weights)) * ctx.degree).bit_length() + ctx.headroom
    )
    px, dx = pack(ctx, xs, width)
    py, dy = pack(ctx, ys, width)
    return residue_sum(ctx, px, py, dx * dy, width, weights)


def plain_sum(ctx, weights, xs, ys):
    """Oracle: the same sum in field arithmetic, one reduction per product."""
    acc = ctx.zero
    for w, x, y in zip(weights, xs, ys):
        acc = acc + w * (x * y)
    return acc


@pytest.mark.parametrize("m", [7, 12, 60, 116, 120])
class TestPackedSum:
    def test_matches_field_arithmetic(self, m):
        ctx = get_context(m)
        rng = random.Random(f"packed-sum:{m}")
        for _ in range(12):
            n = rng.randint(1, 9)
            weights = [rng.randint(1, 30) for _ in range(n)]
            xs = [random_element(ctx, rng) for _ in range(n)]
            ys = [random_element(ctx, rng) for _ in range(n)]
            plain = plain_sum(ctx, weights, xs, ys)
            assert packed_sum(ctx, weights, xs, ys) == plain.to_rational()
            # Close the sum with one more term so that it is a known rational.
            target = Fraction(rng.randint(-99, 99), rng.randint(1, 7))
            closing = ctx.rational(target) - plain
            got = packed_sum(ctx, weights + [1], xs + [ctx.one], ys + [closing])
            assert got == target

    def test_reduced_products_read_the_same_sums(self, m):
        # PackedProducts sums products reduced mod Phi_m(2^width) one by one;
        # one more term closes each sum to a known rational, and without it
        # the partial sum is read as field arithmetic finds it.
        ctx = get_context(m)
        rng = random.Random(f"packed-products:{m}")
        for _ in range(12):
            n = rng.randint(1, 9)
            weights = [rng.randint(1, 30) for _ in range(n)] + [1]
            xs = [random_element(ctx, rng) for _ in range(n)] + [ctx.one]
            ys = [random_element(ctx, rng) for _ in range(n)]
            target = Fraction(rng.randint(-99, 99), rng.randint(1, 7))
            ys.append(ctx.rational(target) - plain_sum(ctx, weights, xs, ys))
            width = (
                numerator_bits(xs) + numerator_bits(ys)
                + (sum(weights) * ctx.degree).bit_length() + ctx.headroom
            )
            (px, dx), (py, dy) = pack(ctx, xs, width), pack(ctx, ys, width)
            products = PackedProducts(ctx, px, py, width, dx * dy)
            rows = [products[k, w] for k, w in enumerate(weights)]
            assert Fraction(products.residue(rows, range(n + 1)), dx * dy) == target
            partial = products.residue(rows[:-1], range(n))
            assert (None if partial is None else Fraction(partial, dx * dy)) == plain_sum(
                ctx, weights[:-1], xs[:-1], ys[:-1]
            ).to_rational()

    def test_constant_terms_of_rational_sums(self, m):
        ctx = get_context(m)
        xs = [ctx.zeta(k) for k in range(m)]
        ys = [ctx.zeta(-k) for k in range(m)]
        assert packed_sum(ctx, [2] * m, xs, ys) == 2 * m
        assert packed_sum(ctx, [1] * m, xs, [ctx.one] * m) == 0

    def test_rational_sum_at_the_width_bound(self, m):
        # Unreduced coefficients A = 2^k - 1, the most the width allows:
        # A + A z^m (m odd) or A - A z^(m/2) (m even) reduces to 2A.
        ctx = get_context(m)
        d = ctx.degree
        e, sign = (m // 2, -1) if m % 2 == 0 else (m, 1)
        i = min(e, d - 1)
        assert e - i < d
        for k in (1, 7, 40):
            a = 2 ** k - 1
            width = k + ctx.headroom
            px, dx = pack(ctx, [ctx.rational(a), sign * a * ctx.zeta(i)], width)
            py, dy = pack(ctx, [ctx.one, ctx.zeta(e - i)], width)
            assert residue_sum(ctx, px, py, dx * dy, width) == 2 * a

    def test_smallest_irrational_residues_are_refused(self, m):
        # c +- z^j with c at the width bound, and with c overrunning B/4 by
        # up to B/2, where the residue c -+ B lies within B/2 of 0.
        ctx = get_context(m)
        width = 24
        bound = 2 ** (width - ctx.headroom) - 1
        half = 2 ** (width - 1)
        for j in (1, ctx.degree - 1):
            for c, s in ((bound, 1), (-bound, -1), (half + 1, -1), (-half - 1, 1)):
                px, dx = pack(ctx, [ctx.rational(c), ctx.zeta(j)], width)
                py, dy = pack(ctx, [ctx.one, ctx.one], width)
                assert residue_sum(ctx, px, py, dx * dy, width, [1, s]) is None


def test_packed_sum_detects_overflowing_slots():
    ctx = get_context(4)  # Q(i): phi = 2, so the sum has slots for 1, z, z^2
    x = ctx.from_coeffs([0, 100])
    px, dx = pack(ctx, [x], 4)
    with pytest.raises(ConsistencyError, match="overflows its 4-bit slots"):
        residue_sum(ctx, px, px, dx * dx, 4)


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
