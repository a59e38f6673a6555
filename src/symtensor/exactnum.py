"""Exact scalars: arbitrary-precision rationals and cyclotomic field elements.

A rational scalar is an ``int`` when it is integral and a reduced
``fractions.Fraction`` otherwise; :func:`exact` is the package's one
normaliser for scalars, from the polynomial parser to the Groebner engine.
A :class:`CyclotomicNumber` of order m is a residue modulo the m-th cyclotomic
polynomial on the power basis 1, z, ..., z**(phi(m)-1), where z is a primitive
m-th root of unity.  It is stored as integer numerators over one positive
common denominator, so sums, products and rational scalings run on Python
ints; :attr:`CyclotomicNumber.coeffs` gives the same value as exact scalars.  All
arithmetic is exact; there are no floating-point code paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import IntegrityError


def exact(value):
    """An int or a Fraction as an exact scalar.

    The result is an int when the value is integral and a Fraction otherwise.
    Anything else, floats and strings included, raises TypeError: Fraction(0.1)
    would be the float's binary value, not one tenth.
    """
    if type(value) is int:
        return value
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"exact value needed (int or Fraction), got {type(value).__name__}")
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    """Euler totient phi(m), the degree of the m-th cyclotomic polynomial."""
    return len(cyclotomic_polynomial(m)) - 1


def mobius(m: int) -> int:
    """Moebius mu(m), the sum of the primitive m-th roots of unity; by trial
    division, 0 when a square divides m, else -1 to the number of prime factors."""
    if m < 1:
        raise ValueError("order must be positive")
    mu, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if m > 1 else mu


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, little-endian.

    Computed as prod_{d | m} (1 - x**d)**mu(m/d), which is -Phi_1 for m = 1.  The
    factors with mu = 1 are multiplied in place, top down, into a list as long
    as their product; those with mu = -1 are then divided out in place, bottom
    up, as power series, which is exact because Phi_m's degree phi(m) is below
    that length.  Monic of degree phi(m).
    """
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return (-1, 1)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    ups = [d for d in divisors if mobius(m // d) == 1]
    downs = [d for d in divisors if mobius(m // d) == -1]
    coeffs = [1] + [0] * sum(ups)
    for d in ups:
        for i in range(len(coeffs) - 1, d - 1, -1):
            coeffs[i] -= coeffs[i - d]
    for d in downs:
        for i in range(d, len(coeffs)):
            coeffs[i] += coeffs[i - d]
    degree = sum(ups) - sum(downs)
    if any(coeffs[degree + 1:]):
        raise IntegrityError(f"cyclotomic division left a remainder for m={m}")
    return tuple(coeffs[: degree + 1])


@lru_cache(maxsize=None)
def _power_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Rows giving x**j mod Phi_m for j = 0 .. max(m, 2*phi(m) - 1) - 1.

    That covers every power a product of two reduced elements reaches and
    every exponent i*k mod m of a Galois conjugate.
    """
    phi_coeffs = cyclotomic_polynomial(m)
    k = len(phi_coeffs) - 1
    cur = [1] + [0] * (k - 1)
    rows = []
    for _ in range(max(m, 2 * k - 1)):
        rows.append(tuple(cur))
        top = cur[k - 1]
        cur = [0] + cur[: k - 1]
        if top:
            for i in range(k):
                cur[i] -= top * phi_coeffs[i]
    return tuple(rows)


class CyclotomicNumber:
    """Immutable element of the m-th cyclotomic field.

    The element (nums[0] + nums[1]*z + ... ) / den is stored as a tuple
    ``nums`` of integer numerators on the power basis over one common
    denominator ``den >= 1``, normalised so that gcd(den, *nums) == 1 and
    zero has den == 1.  Two values compare equal iff they share the order and
    this canonical data.  A value comes in through ``CyclotomicNumber(m,
    coeffs)``, :meth:`zero`, :meth:`one` or :func:`zeta`.  ``+``, ``-`` and
    ``==`` stay within one field; ``*`` also scales by an int or a Fraction on
    either side, so a rational q enters the field as ``one(m) * q``.
    :attr:`coeffs` is the read-only view of the same value as one rational per
    basis element.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs):
        phi = euler_phi(order)
        cs = tuple(map(exact, coeffs))
        if len(cs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(cs)}")
        den = lcm(*(c.denominator for c in cs))
        _set_order(self, order)
        _set_nums(self, tuple(c.numerator * (den // c.denominator) for c in cs))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @classmethod
    def zero(cls, order: int) -> "CyclotomicNumber":
        return _make(order, (0,) * euler_phi(order), 1)

    @classmethod
    def one(cls, order: int) -> "CyclotomicNumber":
        return _make(order, (1,) + (0,) * (euler_phi(order) - 1), 1)

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Power-basis coefficients as exact scalars: ``nums`` itself when den == 1."""
        den = self.den
        if den == 1:
            return self.nums
        return tuple([exact(Fraction(n, den)) for n in self.nums])

    def to_rational(self):
        """The value as an exact scalar when the element is rational, else None."""
        if any(self.nums[1:]):
            return None
        return exact(Fraction(self.nums[0], self.den))

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, CyclotomicNumber):
            return None
        if other.order != self.order:
            raise ValueError(f"order mismatch ({self.order} vs {other.order})")
        return other

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not any(self.nums):
            return o
        if not any(o.nums):
            return self
        da, db = self.den, o.den
        if da == db:
            return _make(self.order, tuple([a + b for a, b in zip(self.nums, o.nums)]), da)
        return _make(self.order,
                     tuple([a * db + b * da for a, b in zip(self.nums, o.nums)]), da * db)

    def __neg__(self):
        return _make(self.order, tuple([-a for a in self.nums]), self.den)

    def __sub__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not CyclotomicNumber:  # isinstance on Fraction goes through abc
            if isinstance(other, (int, Fraction)):  # an int is p/q with q = 1
                p = other.numerator
                return _make(self.order, tuple([a * p for a in self.nums]),
                             self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.nums, o.nums
        if not any(a):
            return self
        if not any(b):
            return o
        phi = len(a)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        rows = _power_rows(self.order)
        for k in range(phi, 2 * phi - 1):  # empty for phi = 1
            c = conv[k]
            if c:
                for idx, rc in enumerate(rows[k]):
                    if rc:
                        conv[idx] += c * rc
        return _make(self.order, tuple(conv[:phi]), self.den * o.den)

    __rmul__ = __mul__

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.order, self.nums, self.den))

    def __repr__(self):
        """The value in the polynomial text format, in the variable z<order>."""
        from .poly import render_terms  # poly imports this module
        var = f"z{self.order}"
        return render_terms((c, [var if e == 1 else f"{var}^{e}"] if e else [])
                            for e, c in enumerate(self.coeffs) if c)


_set_order = CyclotomicNumber.order.__set__
_set_nums = CyclotomicNumber.nums.__set__
_set_den = CyclotomicNumber.den.__set__


def _make(order: int, nums: tuple, den: int) -> CyclotomicNumber:
    """Unchecked constructor for results: divides out gcd(den, *nums), den > 0."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([n // g for n in nums])
            den //= g
    value = object.__new__(CyclotomicNumber)
    _set_order(value, order)
    _set_nums(value, nums)
    _set_den(value, den)
    return value


def zeta(m: int, k: int = 1) -> CyclotomicNumber:
    """The k-th power of a fixed primitive m-th root of unity: row k mod m of
    the reduction table, which gives 1 and -1 for m = 1 and 2."""
    return _make(m, _power_rows(m)[k % m], 1)
