import random
from fractions import Fraction

import pytest

from symtensor.catalog import klein_row
from symtensor.errors import SpecParseError
from symtensor.poly import Polynomial, VariableContext, degrevlex_key, mono_mul

XY = VariableContext(("x", "y"))
ABCD = VariableContext(("a", "b", "c", "d"))


def test_arithmetic_examples():
    p = XY.parse("x + y")
    assert (p * p) == XY.parse("x^2 + 2*x*y + y^2")
    assert (p + p.scale(-1)).is_zero
    assert XY.parse("x - y") * p == XY.parse("x^2 - y^2")


def test_compare_examples():
    assert degrevlex_key((2, 1)) > degrevlex_key((1, 2))   # x^2 y > x y^2
    assert degrevlex_key((0, 2, 1)) > degrevlex_key((1, 0, 2))  # y^2 z > x z^2
    assert (1, 0) > (0, 5)                                 # lex: x > y^5
    assert degrevlex_key((3, 1)) == degrevlex_key((3, 1))


def test_leading_term_examples():
    assert XY.parse("x^2 + y^2").leading_term() == (1, (2, 0))
    assert XY.parse("3*x*y - y^3").leading_term() == (-1, (0, 3))
    assert XY.parse("5").leading_term() == (5, (0, 0))
    with pytest.raises(ValueError):
        XY.zero().leading_term()


@pytest.mark.parametrize("n", range(2, 7))
def test_dihedral_relation_is_weighted_homogeneous(n):
    row = klein_row("BD", n)
    assert row.degrees == (2 * n + 2, 2 * n, 4)
    assert row.relation_degree() == 4 * n + 4


def _random_poly(rng, ctx, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ctx.nvars))
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(ctx, terms)


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(200):
        p = _random_poly(rng, ABCD)
        q = _random_poly(rng, ABCD)
        r = _random_poly(rng, ABCD)
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p


@pytest.mark.parametrize("key", [degrevlex_key, tuple])
def test_order_multiplicativity_random(key):
    rng = random.Random(7)
    for _ in range(1000):
        m = tuple(rng.randint(0, 4) for _ in range(3))
        m1 = tuple(rng.randint(0, 4) for _ in range(3))
        m2 = tuple(rng.randint(0, 4) for _ in range(3))
        k1, k2 = key(m1), key(m2)
        k1m, k2m = key(mono_mul(m, m1)), key(mono_mul(m, m2))
        assert (k1 > k2, k1 == k2) == (k1m > k2m, k1m == k2m)


def test_leading_term_of_product():
    rng = random.Random(13)
    for _ in range(200):
        p = _random_poly(rng, XY)
        q = _random_poly(rng, XY)
        if p.is_zero or q.is_zero:
            continue
        cp, mp = p.leading_term()
        cq, mq = q.leading_term()
        c, m = (p * q).leading_term()
        assert c == cp * cq and m == mono_mul(mp, mq)


def test_homogeneity():
    assert XY.parse("x^2 + x*y").is_homogeneous()
    assert not XY.parse("x^2 + x").is_homogeneous()
    assert XY.zero().is_homogeneous()


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        XY.parse("x") + ABCD.parse("a")


def test_parse_syntax_forms():
    assert XY.parse("2x") == XY.parse("2*x")
    assert XY.parse("1/2*x + 1/2*x") == XY.parse("x")
    assert XY.parse("-x - -y") == XY.parse("y - x")
    assert XY.parse("0").is_zero
    assert XY.parse("x^2y") == XY.parse("x^2*y")
    assert ABCD.parse("3/4") == ABCD.constant(Fraction(3, 4))


@pytest.mark.parametrize("bad", ["x +", "q", "x^", "1/", "1/0*x", "x * * y", "x ^ y", ""])
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(SpecParseError):
        XY.parse(bad)


def test_render_parse_round_trip_random():
    rng = random.Random(99)
    ctx = VariableContext(("p12", "p13", "p23", "u1"))
    for _ in range(300):
        p = _random_poly(rng, ctx)
        assert ctx.parse(p.render()) == p
        assert ctx.parse(p.render(lex=True)) == p


def test_render_specific():
    ctx = VariableContext(("p12", "p13", "p23"))
    p = ctx.parse("p12^2 + p13^2 + p23^2")
    assert p.render() == "p12^2 + p13^2 + p23^2"
    assert XY.zero().render() == "0"
    assert XY.parse("x - 1").render() == "x - 1"


def _int_exactly_when_integral(p):
    return all(type(c) is (int if c.denominator == 1 else Fraction) for _, c in p.terms)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Polynomial(XY, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        XY.constant(0.1)
    with pytest.raises(TypeError):
        XY.parse("x").scale(0.1)
    with pytest.raises(TypeError):
        XY.parse("x").scale("2/3")


def test_coefficients_are_int_exactly_when_integral():
    p = XY.parse("1/2*x + 2/4*y + 6/3")
    q = XY.parse("2*x - 1/3*y")
    assert dict(p.terms)[(0, 0)] == 2 and type(dict(p.terms)[(0, 0)]) is int
    for r in (p, q, p + q, p - q, p * q, p * p, p.scale(2), XY.constant(2) - p,
              p + XY.constant(Fraction(1, 2)), p.scale(Fraction(4, 2)),
              p.scale(Fraction(2, 3)), p.monic(), q.monic(),
              Polynomial(XY, {(1, 0): Fraction(4, 2), (0, 1): Fraction(3, 6)}),
              XY.constant(Fraction(3, 1)), XY.constant(Fraction(1, 2))):
        assert _int_exactly_when_integral(r), r


def test_hash_agrees_with_equality():
    three = XY.constant(3)
    assert three == XY.parse("3") and hash(three) == hash(XY.parse("3"))
    # a polynomial equals only a polynomial, never a scalar
    assert three != 3 and XY.zero() != 0
    assert XY.constant(Fraction(1, 2)) != Fraction(1, 2)
    assert len({three, 3, XY.parse("3")}) == 2
    p = XY.parse("x + 3")
    assert hash(p) == hash(XY.parse("3 + x"))
    assert len({p, 3, XY.parse("x + 3")}) == 2
