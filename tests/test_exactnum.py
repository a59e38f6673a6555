import random
from fractions import Fraction
from math import gcd

import pytest

import listpoly
from symtensor.exactnum import (CyclotomicNumber, cyclotomic_polynomial, euler_phi,
                                exact, mobius, zeta)


def test_rational_is_reduced_with_positive_denominator():
    q = exact(Fraction(6, -4))
    assert q.numerator == -3 and q.denominator == 2
    assert exact(Fraction(0, 7)) == 0 and type(exact(Fraction(0, 7))) is int
    big = exact(Fraction(10**40, 3) * Fraction(3, 10**40))
    assert big == 1 and type(big) is int


def test_cyclotomic_polynomial_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)          # x - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)        # x^2 + 1
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12, 20])
def test_cyclotomic_product_identity(m):
    # prod_{d | m} Phi_d(x) == x^m - 1
    prod = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            prod = listpoly.mul(prod, list(cyclotomic_polynomial(d)))
    want = [-1] + [0] * (m - 1) + [1]
    assert prod == want
    # the degree is the totient, counted here without the package
    assert euler_phi(m) == len(cyclotomic_polynomial(m)) - 1 == sum(
        gcd(k, m) == 1 for k in range(1, m + 1))


def test_multiplication_examples():
    z4 = zeta(4)
    assert z4 * z4 == CyclotomicNumber.one(4) * -1
    assert z4 * z4 != -1  # a rational enters the field only as one(m) * q
    z8 = zeta(8)
    assert z8 * zeta(8, 7) == CyclotomicNumber.one(8)
    z3 = zeta(3)
    assert CyclotomicNumber.one(3) + z3 + z3 * z3 == CyclotomicNumber.zero(3)


def test_to_rational():
    assert CyclotomicNumber.zero(8).to_rational() == 0
    s = zeta(8) + zeta(8, 7)
    assert (s * s).to_rational() == 2 and type((s * s).to_rational()) is int
    assert zeta(8).to_rational() is None


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        zeta(4) * zeta(8)
    with pytest.raises(ValueError):
        zeta(4) + zeta(12)
    # a zero operand returns early only after the orders are compared
    with pytest.raises(ValueError):
        CyclotomicNumber.zero(4) * zeta(8)
    with pytest.raises(ValueError):
        zeta(4) * CyclotomicNumber.zero(8)
    with pytest.raises(ValueError):
        CyclotomicNumber.zero(4) + zeta(12)


def _canonical(value):
    return (value.order, value.nums, value.den)


@pytest.mark.parametrize("m", [1, 2, 4, 12, 20])
def test_zero_operands_give_the_general_results(m):
    # x has den 6 > 1; the references are built from exact coefficients
    phi = euler_phi(m)
    x = CyclotomicNumber(m, tuple(Fraction(k - 2, 6 if k % 2 else 3) for k in range(phi)))
    assert x.den > 1
    zero = CyclotomicNumber.zero(m)
    want_product = _canonical(CyclotomicNumber(m, (0,) * phi))
    want_sum = _canonical(CyclotomicNumber(m, x.coeffs))
    for zero_operand in (zero, x - x, x * 0):
        assert _canonical(zero_operand * x) == want_product
        assert _canonical(x * zero_operand) == want_product
        assert _canonical(x + zero_operand) == want_sum
        assert _canonical(zero_operand + x) == want_sum
    assert _canonical(zero * zero) == _canonical(zero + zero) == want_product
    with pytest.raises(TypeError):
        x * 1.5


@pytest.mark.parametrize("m", [1, 4, 8, 12, 20])
def test_root_of_unity_has_exact_order(m):
    # zeta(m, k) reads row k of the reduction table; here z^k is built one product at a time
    z = zeta(m)
    power = CyclotomicNumber.one(m)
    for k in range(1, m + 1):
        power = power * z
        assert power == zeta(m, k)
        assert (power == CyclotomicNumber.one(m)) == (k == m), f"zeta_{m}^{k} has the wrong order"


def _random_cyclotomic(rng, m):
    phi = euler_phi(m)
    return CyclotomicNumber(
        m, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(phi)))


@pytest.mark.parametrize("m", [1, 3, 4, 5, 8, 12, 15, 20])
def test_field_axioms_on_random_samples(m):
    rng = random.Random(1000 + m)
    values = [_random_cyclotomic(rng, m) for _ in range(1000)]
    for i in range(0, len(values) - 2, 3):
        a, b, c = values[i], values[i + 1], values[i + 2]
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_cyclotomic_polynomial_agrees_with_division_through_300():
    for m in range(1, 301):
        assert cyclotomic_polynomial(m) == listpoly.cyclotomic_by_division(m), m


def test_mobius_is_minus_the_subleading_coefficient():
    assert [mobius(m) for m in (1, 2, 4, 6, 12, 30, 49, 210)] == [1, -1, 0, 1, 0, -1, 0, 1]
    for m in range(1, 301):
        assert mobius(m) == -cyclotomic_polynomial(m)[-2] == -listpoly.cyclotomic_by_division(m)[-2]
    with pytest.raises(ValueError):
        mobius(0)


def test_division_takes_unit_leading_coefficients_only():
    assert listpoly.divmod_exact([1, 0, 0, -1], [-1, 1]) == ([-1, -1, -1], [])
    assert listpoly.divmod_exact([1, 0, 0, -1], [1, 0, -1]) == ([0, 1], [1, -1])
    with pytest.raises(ValueError, match="not \\+-1"):
        listpoly.divmod_exact([1, 2, 3], [1, 2])


# -- the (nums, den) representation against a Fraction-only reference ----------


def _reference_reduce(m, poly):
    """Fraction coefficients of poly mod Phi_m, padded to phi(m) entries."""
    _, rem = listpoly.divmod_exact([Fraction(c) for c in poly],
                                   list(cyclotomic_polynomial(m)))
    return tuple(rem) + (Fraction(0),) * (euler_phi(m) - len(rem))


def _reference_product(m, a, b):
    conv = [Fraction(0)] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _reference_reduce(m, conv)


def _assert_canonical(x):
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den >= 1
    assert gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


def _mixed_denominator_sample(rng, m):
    phi = euler_phi(m)
    kind = rng.randrange(4)
    if kind == 0:
        return CyclotomicNumber.zero(m)
    if kind == 1:
        return CyclotomicNumber(m, [rng.randint(-5, 5) for _ in range(phi)])
    return CyclotomicNumber(m, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5, 6, 12)))
                                for _ in range(phi)])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12, 15, 20, 24])
def test_arithmetic_matches_fraction_reference(m):
    rng = random.Random(4242 + m)
    for _ in range(150):
        a = _mixed_denominator_sample(rng, m)
        b = _mixed_denominator_sample(rng, m)
        q = Fraction(rng.randint(-7, 7), rng.randint(1, 9))
        ra, rb = tuple(Fraction(c) for c in a.coeffs), tuple(Fraction(c) for c in b.coeffs)
        cases = [
            (a * b, _reference_product(m, ra, rb)),
            (a + b, tuple(x + y for x, y in zip(ra, rb))),
            (a - b, tuple(x - y for x, y in zip(ra, rb))),
            (a * q, tuple(x * q for x in ra)),
            (q * a, tuple(x * q for x in ra)),
            (a * q.numerator, tuple(x * q.numerator for x in ra)),
        ]
        for got, want in cases:
            assert got.coeffs == want
            _assert_canonical(got)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12, 15, 20, 24])
def test_equal_values_share_canonical_data(m):
    rng = random.Random(99 + m)
    for _ in range(60):
        a = _mixed_denominator_sample(rng, m)
        b = _mixed_denominator_sample(rng, m)
        routes = [
            CyclotomicNumber(m, a.coeffs),
            CyclotomicNumber(m, [7 * n for n in a.nums]) * Fraction(1, 7 * a.den),
            (a + a) * Fraction(1, 2),
            a * 3 - a * 2,
            (a + b) - b,
            (a * 4 + b * 4) * Fraction(1, 4) - b,
        ]
        for other in routes:
            assert (other.nums, other.den, hash(other)) == (a.nums, a.den, hash(a))
            assert other == a
        zero = a - a
        assert zero.nums == CyclotomicNumber.zero(m).nums and zero.den == 1


def test_floats_are_refused():
    with pytest.raises(TypeError):
        CyclotomicNumber.one(4) * 0.1
    with pytest.raises(TypeError):
        CyclotomicNumber(4, [0.1, 0])
    with pytest.raises(TypeError):
        CyclotomicNumber(4, [1, 2.0])
    with pytest.raises(TypeError):
        exact("1/2")
    with pytest.raises(TypeError):
        CyclotomicNumber(4, ["1/2", 0])


def test_reducible_input_fractions_are_normalised():
    half_one_plus_i = CyclotomicNumber(4, [Fraction(2, 4), Fraction(3, 6)])
    one_plus_i = CyclotomicNumber.one(4) + zeta(4)
    for other in (one_plus_i * Fraction(1, 2), Fraction(1, 2) * one_plus_i,
                  CyclotomicNumber(4, [Fraction(1, 2), Fraction(5, 10)])):
        assert (other.nums, other.den, hash(other)) == ((1, 1), 2, hash(half_one_plus_i))
    assert half_one_plus_i.coeffs == (Fraction(1, 2), Fraction(1, 2))
    assert [type(c) for c in CyclotomicNumber(4, [1, Fraction(1, 2)]).coeffs] == [int, Fraction]
    doubled = half_one_plus_i * 2
    assert doubled.nums == (1, 1) and doubled.den == 1
    assert doubled.coeffs is doubled.nums
