"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

Elements are represented on the power basis 1, z, ..., z^(phi(m)-1) modulo the
m-th cyclotomic polynomial Phi_m — *not* modulo x^m - 1, which is not a field
and would break equality tests (1 + z + ... + z^(m-1) must be exactly 0).

Everything here is exact: coefficients are arbitrary-precision rationals,
stored as one integer vector plus a shared positive denominator so that the
inner loops are pure big-int arithmetic.  ``FpImage`` maps elements to the
prime field F_p, p = 1 (mod m), by evaluating at a primitive m-th root of
unity mod p, a ring map with no float.  It is the one exactness argument of
the package: a sum known to be an integer of absolute value below p/2 is the
signed residue of its image (``fp_image``: one image per field).  The only
floating-point door is ``embed_complex``, which evaluates at e^(2*pi*i/m) and
serves only the decimal shadows printed beside exact values.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul


class ConsistencyError(Exception):
    """An internal exactness invariant failed (this is a bug, not bad input)."""


def euler_phi(m: int) -> int:
    """Euler's totient of m >= 1."""
    if m < 1:
        raise ValueError(f"totient undefined for {m}")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return tuple(out)


def _poly_divide(num: list[int], den: tuple[int, ...]) -> tuple[int, ...]:
    """Divide num by monic den over Z; the division must be exact."""
    if den[-1] != 1:
        raise ConsistencyError("divisor is not monic")
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + dn]
        if c:
            quot[k] = c
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise ConsistencyError("polynomial division left a remainder")
    return tuple(quot)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, constant term first, monic.

    Computed by exact division of x^m - 1 by the product of Phi_d over the
    proper divisors d of m (the recursion bottoms out at Phi_1 = x - 1).
    """
    if m < 1:
        raise ValueError(f"no cyclotomic polynomial for {m}")
    if m == 1:
        return (-1, 1)
    den: tuple[int, ...] = (1,)
    for d in divisors(m)[:-1]:
        den = _poly_mul(den, cyclotomic_polynomial(d))
    num = [-1] + [0] * (m - 1) + [1]
    return _poly_divide(num, den)


class CycloContext:
    """The field Q(zeta_m): conductor, Phi_m, and reduction tables.

    Contexts are interned by conductor (see ``get_context``), so identity
    comparison of contexts is meaningful and elements of different conductors
    refuse to mix rather than silently coercing.
    """

    __slots__ = ("m", "degree", "poly", "_red", "_zeta_num", "zero", "one")

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"conductor must be positive, got {m}")
        self.m = m
        self.poly = cyclotomic_polynomial(m)
        self.degree = len(self.poly) - 1  # phi(m)
        d = self.degree
        # _zeta_num[e] = reduced integer vector of z^e, e in [0, m).  Phi_m is
        # monic with integer coefficients, so these vectors stay integral.
        top = [-c for c in self.poly[:d]]  # z^d reduced
        pows = []
        vec = [0] * d
        vec[0] = 1
        for _ in range(m):
            pows.append(tuple(vec))
            lead = vec[-1]
            vec = [0] + vec[:-1]
            if lead:
                for j, rj in enumerate(top):
                    vec[j] += lead * rj
        self._zeta_num = pows
        # x^(d+k) reduced mod Phi_m, for k in [0, d-1); products of reduced
        # elements never need more.  _red[k] lists its non-zero (j, coeff).
        red = [pows[(d + k) % m] for k in range(d - 1)]
        self._red = [[(j, c) for j, c in enumerate(row) if c] for row in red]
        self.zero = CycloElement(self, (0,) * d, 1)
        self.one = CycloElement(self, pows[0], 1)

    def zeta(self, k: int = 1) -> "CycloElement":
        """The root of unity zeta_m^k (k taken modulo m)."""
        return CycloElement(self, self._zeta_num[k % self.m], 1)

    def rational(self, value) -> "CycloElement":
        """Embed a rational number as a constant element."""
        f = Fraction(value)
        num = [0] * self.degree
        num[0] = f.numerator
        return CycloElement._make(self, num, f.denominator)

    def from_coeffs(self, coeffs) -> "CycloElement":
        """Element with the given power-basis rational coefficients."""
        fracs = [Fraction(c) for c in coeffs]
        if len(fracs) != self.degree:
            raise ValueError(
                f"need {self.degree} coefficients for conductor {self.m}, got {len(fracs)}"
            )
        den = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
        num = [f.numerator * (den // f.denominator) for f in fracs]
        return CycloElement._make(self, num, den)

    def from_counts(self, counts, den: int = 1) -> "CycloElement":
        """(sum of counts[e] * zeta^e over e in [0, m)) / den, with integer counts.

        This is the cheap bridge from eigenvalue-exponent bookkeeping (where
        symmetric-power character values are just multisets of exponents) back
        to reduced field elements.
        """
        if len(counts) != self.m:
            raise ValueError(f"need {self.m} counts, got {len(counts)}")
        acc = [0] * self.degree
        for e, c in enumerate(counts):
            if c:
                for j, pj in enumerate(self._zeta_num[e]):
                    if pj:
                        acc[j] += c * pj
        return CycloElement._make(self, acc, den)

    def __repr__(self) -> str:
        return f"CycloContext(m={self.m})"


@lru_cache(maxsize=None)
def get_context(m: int) -> CycloContext:
    return CycloContext(m)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the first 12 prime bases decide every n < 3.1 * 10^23."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpImage:
    """The ring map x -> x(omega) from Q(zeta_m) (elements whose denominators
    are units mod p) to F_p: p is the largest prime = 1 (mod m) below 2^61, and
    omega a primitive m-th root of unity mod p, so conj(x) maps to
    x(omega^-1).  Sums and products of images are images of sums and
    products, so an integer of absolute value below p/2 is read exactly as
    the signed residue of its image.  Each distinct value is mapped once.
    """

    def __init__(self, ctx: CycloContext):
        m = ctx.m
        p = (2 ** 61 - 2) // m * m + 1
        while not is_prime(p):
            p -= m
        primes = [q for q in divisors(m)[1:] if is_prime(q)]
        g = 2
        while True:
            omega = pow(g, (p - 1) // m, p)  # omega^m = 1: is it primitive?
            if all(pow(omega, m // q, p) != 1 for q in primes):
                break
            g += 1
        self.p, self.omega = p, omega
        self._powers = list(accumulate(repeat(omega, ctx.degree - 1), lambda a, b: a * b % p,
                                       initial=1))
        self._memo = {}

    def __call__(self, x: "CycloElement") -> int:
        """The image of x in [0, p)."""
        key = (x.num, x.den)
        r = self._memo.get(key)
        if r is None:
            r = sum(a * w for a, w in zip(x.num, self._powers) if a)
            r = self._memo[key] = r * pow(x.den, -1, self.p) % self.p
        return r

    def signed(self, a: int) -> int:
        """The residue of a mod p in (-p/2, p/2)."""
        a %= self.p
        return a - self.p if a > self.p >> 1 else a


@lru_cache(maxsize=None)
def fp_image(ctx: CycloContext) -> FpImage:
    """The one F_p image of Q(zeta_m), shared by every exact read in the field."""
    return FpImage(ctx)


class ValueIds:
    """Field values numbered by (num, den), so equal values share an id: 0 is
    zero and 1 is one.  Each sum or product of two ids, and each count
    vector's value, is built once."""

    def __init__(self, ctx: CycloContext):
        self.ctx, self.values, self._ids, self._memo = ctx, [], {}, {}
        self.id(ctx.zero), self.id(ctx.one)

    def id(self, v: "CycloElement") -> int:
        i = self._ids.setdefault((v.num, v.den), len(self.values))
        if i == len(self.values):
            self.values.append(v)
        return i

    def add(self, i: int, j: int) -> int:
        return self._memoized(add, i, j) if i and j else i or j

    def mul(self, i: int, j: int) -> int:
        return self._memoized(mul, i, j) if i > 1 and j > 1 else i * j

    def _memoized(self, op, i: int, j: int) -> int:
        key = (op, i, j) if i < j else (op, j, i)
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self.id(op(self.values[i], self.values[j]))
        return r

    def from_counts(self, counts, den: int) -> int:
        """The id of ``ctx.from_counts(counts, den)``, keyed on its lowest terms."""
        g = math.gcd(den, *counts)
        key = (den // g, tuple(n // g for n in counts))
        r = self._memo.get(key)
        if r is None:
            r = self._memo[key] = self.id(self.ctx.from_counts(key[1], key[0]))
        return r


class CycloElement:
    """An element of Q(zeta_m), reduced modulo Phi_m.

    Internally an integer numerator vector of length phi(m) plus one positive
    denominator, normalized so gcd(content(num), den) = 1.  The ``coeffs``
    property presents the rational view: a tuple of phi(m) Fractions.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: CycloContext, num, den: int):
        self.ctx = ctx
        self.num = tuple(num)
        self.den = den

    @staticmethod
    def _make(ctx: CycloContext, num: list[int], den: int) -> "CycloElement":
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            den = -den
            num = [-v for v in num]
        g = den
        for v in num:
            g = math.gcd(g, v)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [v // g for v in num]
        return CycloElement(ctx, num, den)

    # -- views ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def to_rational(self) -> Fraction | None:
        """The element as a Rational, or None if it is not rational."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def embed_complex(self) -> complex:
        """Numeric value at zeta_m = e^(2*pi*i/m), for decimal shadows only."""
        m = self.ctx.m
        total = 0j
        for j, v in enumerate(self.num):
            if v:
                total += v * cmath.exp(2j * cmath.pi * j / m)
        return total / self.den

    # -- arithmetic --------------------------------------------------------

    def _check_ctx(self, other: "CycloElement") -> None:
        if self.ctx is not other.ctx and self.ctx.m != other.ctx.m:
            raise ValueError(
                f"conductor mismatch: {self.ctx.m} vs {other.ctx.m}"
            )

    def _coerce(self, other):
        if isinstance(other, CycloElement):
            self._check_ctx(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = [x + y for x, y in zip(self.num, o.num)]
            return CycloElement._make(self.ctx, num, da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        num = [x * ma + y * mb for x, y in zip(self.num, o.num)]
        return CycloElement._make(self.ctx, num, da * ma)

    __radd__ = __add__

    def __neg__(self):
        return CycloElement(self.ctx, tuple(-v for v in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        d = ctx.degree
        if self.num.count(0) == d or o.num.count(0) == d:
            return ctx.zero
        # Schoolbook over the non-zero coefficients, the sparser operand outside.
        a = [(i, v) for i, v in enumerate(self.num) if v]
        b = [(j, v) for j, v in enumerate(o.num) if v]
        if len(a) > len(b):
            a, b = b, a
        out = [0] * (2 * d - 1)
        for i, ai in a:
            for j, bj in b:
                out[i + j] += ai * bj
        red = ctx._red
        for k in range(2 * d - 2, d - 1, -1):
            c = out[k]
            if c:
                for j, rj in red[k - d]:
                    out[j] += c * rj
        return CycloElement._make(ctx, out[:d], self.den * o.den)

    __rmul__ = __mul__

    def inv(self) -> "CycloElement":
        """Multiplicative inverse: the other Galois conjugates over the norm."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        ctx = self.ctx
        others = ctx.one
        for k in range(2, ctx.m):
            if math.gcd(k, ctx.m) == 1:
                others = others * self._galois(k)
        norm = (self * others).to_rational()
        if norm is None:
            raise ConsistencyError(f"norm from Q(zeta_{ctx.m}) is not rational")
        result = CycloElement._make(
            ctx, [v * norm.denominator for v in others.num], others.den * norm.numerator
        )
        if (result * self) != ctx.one:
            raise ConsistencyError("inverse check failed")
        return result

    def __pow__(self, k: int) -> "CycloElement":
        if k < 0:
            raise ValueError("negative exponent; use inv()")
        result = self.ctx.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def _galois(self, k: int) -> "CycloElement":
        """Image under the automorphism zeta_m -> zeta_m^k (k a unit mod m)."""
        ctx = self.ctx
        acc = [0] * ctx.degree
        for j, v in enumerate(self.num):
            if v:
                for t, pt in enumerate(ctx._zeta_num[(j * k) % ctx.m]):
                    if pt:
                        acc[t] += v * pt
        return CycloElement._make(ctx, acc, self.den)

    def conjugate(self) -> "CycloElement":
        """Image under the automorphism zeta_m -> zeta_m^(-1)."""
        return self._galois(-1)

    # -- comparisons / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.rational(other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return (
            self.ctx.m == other.ctx.m
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.ctx.m, self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for j, v in enumerate(self.num):
            if not v:
                continue
            c = Fraction(v, self.den)
            if j == 0:
                terms.append((c, ""))
            elif j == 1:
                terms.append((c, "z"))
            else:
                terms.append((c, f"z^{j}"))
        if not terms:
            return "0"
        parts = []
        for i, (c, mon) in enumerate(terms):
            sign = "-" if c < 0 else ("+" if i else "")
            mag = -c if c < 0 else c
            if mon and mag == 1:
                body = mon
            elif mon:
                body = f"{mag}*{mon}"
            else:
                body = str(mag)
            parts.append(f"{sign} {body}" if i else f"{sign}{body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Cyclo(m={self.ctx.m}: {self})"

