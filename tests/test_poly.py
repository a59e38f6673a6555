import copy
import pickle
import random
import re
import sys
import time
from fractions import Fraction

import pytest

import listpoly
import tokenparse
from listpoly import degrevlex_key, mono_divides, mono_mul
from symtensor.catalog import klein_row
from symtensor.errors import LimitExceeded, SpecParseError
from symtensor.hilbert import MonomialIdeal
from symtensor.poly import Packing, Polynomial, VariableContext, layout, render_terms

XY = VariableContext(("x", "y"))
ABCD = VariableContext(("a", "b", "c", "d"))


def test_arithmetic_examples():
    p = XY.parse("x + y")
    assert (p * p) == XY.parse("x^2 + 2*x*y + y^2")
    assert (p + p.scale(-1)).is_zero
    assert XY.parse("x - y") * p == XY.parse("x^2 - y^2")


@pytest.mark.parametrize("degree", [1, 127, 128, 300])
def test_a_zero_factor_gives_the_zero_polynomial_in_its_own_layout(degree):
    # a zero factor has degree -1, and a degree-128 factor outgrows the layout of
    # the degree sum 127, so the product's layout must hold each factor alone
    zero, p = XY.poly({}), XY.poly({(degree, 0): 2, (0, degree): -1})
    for product in (zero * p, p * zero, zero * zero):
        assert product == zero and product.is_zero
        assert product.pk is zero.pk


def test_compare_examples():
    assert degrevlex_key((2, 1)) > degrevlex_key((1, 2))   # x^2 y > x y^2
    assert degrevlex_key((0, 2, 1)) > degrevlex_key((1, 0, 2))  # y^2 z > x z^2
    assert (1, 0) > (0, 5)                                 # lex: x > y^5
    assert degrevlex_key((3, 1)) == degrevlex_key((3, 1))


@pytest.mark.parametrize("seed", range(8))
def test_terms_are_sorted_descending_by_degrevlex_key(seed):
    rng = random.Random(seed)
    for nvars in range(1, 9):
        ctx = VariableContext(tuple(f"x{i}" for i in range(nvars)))
        # 80 draws over few total degrees, so most terms tie on degree
        monos = {tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(80)}
        p = ctx.poly({m: rng.choice((-2, 1, Fraction(1, 3))) for m in monos})
        keys = [degrevlex_key(m) for m, _ in p.terms]
        assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
        assert {m for m, _ in p.terms} == set(monos)


def test_leading_term_examples():
    assert XY.parse("x^2 + y^2").terms[0] == ((2, 0), 1)
    assert XY.parse("3*x*y - y^3").terms[0] == ((0, 3), -1)
    assert XY.parse("5").terms[0] == ((0, 0), 5)
    assert XY.parse("3*x*y - y^3").leading_monomial() == (0, 3)
    with pytest.raises(ValueError):
        XY.poly({}).leading_monomial()


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
        mp, cp = p.terms[0]
        mq, cq = q.terms[0]
        m, c = (p * q).terms[0]
        assert c == cp * cq and m == mono_mul(mp, mq)


def test_homogeneity():
    assert XY.parse("x^2 + x*y").is_homogeneous()
    assert not XY.parse("x^2 + x").is_homogeneous()
    assert XY.poly({}).is_homogeneous()


def test_context_mismatch_rejected():
    with pytest.raises(ValueError):
        XY.parse("x") + ABCD.parse("a")


def test_a_context_of_listed_names_is_the_context_of_their_tuple():
    # a list was once kept as given: unhashable, and unequal to the tuple's context
    listed = VariableContext(["x", "y"])
    assert listed.names == ("x", "y")
    assert listed == XY and hash(listed) == hash(XY)
    assert {listed.parse("x"), XY.parse("x")} == {XY.parse("x")}
    assert listed.parse("x") + XY.parse("y") == XY.parse("x + y")


def test_a_context_refuses_a_string_of_names():
    # a string was once read as its characters, so "xy" made the variables x and y
    with pytest.raises(ValueError, match="not the string 'xy'"):
        VariableContext("xy")
    with pytest.raises(ValueError, match="not the string 'x'"):
        VariableContext("x")


def test_parse_syntax_forms():
    assert XY.parse("2x") == XY.parse("2*x")
    assert XY.parse("1/2*x + 1/2*x") == XY.parse("x")
    assert XY.parse("-x - -y") == XY.parse("y - x")
    assert XY.parse("0").is_zero
    assert XY.parse("x^2y") == XY.parse("x^2*y")
    assert ABCD.parse("3/4") == ABCD.poly({(0, 0, 0, 0): Fraction(3, 4)})


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
    assert XY.poly({}).render() == "0"
    assert XY.parse("x - 1").render() == "x - 1"


def _int_exactly_when_integral(p):
    return all(type(c) is (int if c.denominator == 1 else Fraction) for _, c in p.terms)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Polynomial(XY, {(1, 0): 0.5})
    with pytest.raises(TypeError):
        XY.poly({(0, 0): 0.1})
    with pytest.raises(TypeError):
        XY.parse("x").scale(0.1)
    with pytest.raises(TypeError):
        XY.parse("x").scale("2/3")


def test_coefficients_are_int_exactly_when_integral():
    p = XY.parse("1/2*x + 2/4*y + 6/3")
    q = XY.parse("2*x - 1/3*y")
    assert dict(p.terms)[(0, 0)] == 2 and type(dict(p.terms)[(0, 0)]) is int
    for r in (p, q, p + q, p - q, p * q, p * p, p.scale(2), XY.poly({(0, 0): 2}) - p,
              p + XY.poly({(0, 0): Fraction(1, 2)}), p.scale(Fraction(4, 2)),
              p.scale(Fraction(2, 3)), p.scale(Fraction(1) / p.terms[0][1]),
              q.scale(Fraction(1) / q.terms[0][1]),
              Polynomial(XY, {(1, 0): Fraction(4, 2), (0, 1): Fraction(3, 6)}),
              XY.poly({(0, 0): Fraction(3, 1)}), XY.poly({(0, 0): Fraction(1, 2)})):
        assert _int_exactly_when_integral(r), r


def test_hash_agrees_with_equality():
    three = XY.poly({(0, 0): 3})
    assert three == XY.parse("3") and hash(three) == hash(XY.parse("3"))
    # a polynomial equals only a polynomial, never a scalar
    assert three != 3 and XY.poly({}) != 0
    assert XY.poly({(0, 0): Fraction(1, 2)}) != Fraction(1, 2)
    assert len({three, 3, XY.parse("3")}) == 2
    p = XY.parse("x + 3")
    assert hash(p) == hash(XY.parse("3 + x"))
    assert len({p, 3, XY.parse("x + 3")}) == 2


# -- packed monomials -------------------------------------------------------------


@pytest.mark.parametrize("bound,cap", [(0, 127), (127, 127), (128, 2 ** 15 - 1),
                                       (2 ** 15 - 1, 2 ** 15 - 1), (2 ** 31 - 1, 2 ** 31 - 1),
                                       (2 ** 63 - 1, 2 ** 63 - 1)])
def test_packing_width_boundaries(bound, cap):
    pk = Packing(3, bound)
    assert pk.cap == cap
    for m in ((bound, 0, 0), (0, 0, bound)):
        assert pk.unpack_exps(pk.pack_exps(m)) == m
        assert pk.unpack(pk.pack(m)) == m
        assert pk.degree(pk.pack_exps(m)) == bound


def test_packing_refuses_exponents_outside_its_fields():
    pk = Packing(2, 3)
    # 128 and 200 fit the byte of a field but set its guard bit past cap = 127
    for bad in ((-1, 2), (Fraction(3, 2), 0), (1.5, 0), (2, 1, 0), (128, 0), (200, 0)):
        with pytest.raises(ValueError, match=r"monomial \("):
            pk.pack_exps(bad)
        with pytest.raises(ValueError, match=r"monomial \("):
            pk.pack(bad)


@pytest.mark.parametrize("mono", [(-1, 2), (1.5, 0)])
def test_poly_refuses_exponents_that_are_not_natural_ints(mono):
    with pytest.raises(ValueError, match=re.escape(f"monomial {mono!r}")):
        XY.poly({mono: 1})
    assert XY.poly({(1, 2): 3}) == XY.parse("3*x*y^2")


@pytest.mark.parametrize("mono", [(-1, 2), (1.5, 0), (Fraction(1, 2), 1), ("1", 0), (None, 1),
                                  (1,), (1, 0, 0), (2 ** 70, -2 ** 70 + 1)])
def test_constructor_refuses_malformed_exponents(mono):
    with pytest.raises(ValueError, match=re.escape(f"monomial {mono!r}")):
        Polynomial(XY, {mono: 1})
    # a zero coefficient drops the term before its monomial is read
    assert Polynomial(XY, {mono: 0}).is_zero


# every way a monomial enters the package, each through the one check of poly.pack_monomials
ENTRY_POINTS = {
    "ctx.poly": lambda mono: XY.poly({mono: 1}),
    "Polynomial": lambda mono: Polynomial(XY, {mono: 1}),
    # the ideal's own constructor takes packed vectors, so tuples enter through from_generators
    "MonomialIdeal": lambda mono: MonomialIdeal.from_generators(2, (mono,)),
    "MonomialIdeal.from_generators": lambda mono: MonomialIdeal.from_generators(2, [(0, 1), mono]),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("mono", [(True, 0), (1.5, 0), (-1, 0), (1,), (1, 0, 0)])
def test_every_entry_point_refuses_a_malformed_monomial_alike(entry, mono):
    # a bool is not an exponent, though True == 1 and (True, 0) == (1, 0)
    message = f"monomial {mono!r} is not a tuple of 2 ints >= 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](mono)
    ENTRY_POINTS[entry]((1, 0))


@pytest.mark.parametrize("make,width", [
    (lambda: XY.parse("3*x*y^2 - 1/2*y + 5"), 8),
    (lambda: XY.parse("x^200 - 2/3*x*y^127 + y"), 16),
    (lambda: MonomialIdeal.from_generators(3, [(0, 1, 5), (130, 0, 0), (2, 0, 1), (3, 1, 5)]), 16),
], ids=["8-bit polynomial", "16-bit polynomial", "ideal"])
def test_pickle_and_deepcopy_round_trips_are_equal(make, width):
    value = make()
    assert value.pk.width == width
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and hash(copied) == hash(value)
        assert copied.pk is value.pk and copied.packed == value.packed


def test_parse_refuses_a_negative_exponent():
    with pytest.raises(SpecParseError):
        XY.parse("x^-1")


def test_parser_agrees_with_the_token_parser():
    # both accept with equal polynomials or both refuse, on valid and invalid strings alike
    rng = random.Random(32)
    texts = [tokenparse.random_text(rng) for _ in range(20_000)]
    accepted, differ = tokenparse.compare(VariableContext(tokenparse.NAMES), texts)
    assert not differ, differ[:5]
    assert 0.1 * len(texts) < accepted < 0.5 * len(texts)


@pytest.mark.parametrize("text,want", [("x" + " " * 100_000 + "!", None),
                                       ("x" + " " * 100_000 + "* y", "x*y"),
                                       ("-" * 100_000 + "x", "x")],
                         ids=["spaces-refused", "spaces-star", "signs"])
def test_parse_time_stays_linear(text, want):
    start = time.perf_counter()
    if want is None:
        with pytest.raises(SpecParseError, match="bad polynomial syntax near '!'"):
            XY.parse(text)
    else:
        assert XY.parse(text) == XY.parse(want)
    assert time.perf_counter() - start < 1


def test_parse_names_its_two_causes():
    with pytest.raises(SpecParseError, match="unknown variable 'z'"):
        XY.parse("x + 2*z")
    with pytest.raises(SpecParseError, match="zero denominator"):
        XY.parse("x + 1/00*y")
    with pytest.raises(SpecParseError, match=re.escape("bad polynomial syntax near '* * y'")):
        XY.parse("x * * y")


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-string limit is set")
def test_parse_refuses_numbers_past_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    digits = "1" * limit
    assert XY.parse(f"{digits}*x") == XY.poly({(1, 0): int(digits)})
    for text in (digits + "1", f"x^{digits}1", f"1/{digits}1"):
        with pytest.raises(SpecParseError, match=rf"number 1+\.\.\. of {limit + 1} digits"):
            XY.parse(text)


@pytest.mark.parametrize("name", ["x_1", "p12", "X", "a_B_9"])
def test_context_accepts_the_names_the_parser_reads_as_one(name):
    ctx = VariableContext((name, "y"))
    assert ctx.parse(name) == ctx.poly({(1, 0): 1})
    assert ctx.parse(f"2*{name}^3*y") == ctx.poly({(3, 1): 2})


@pytest.mark.parametrize("name", ["_x", "1x", "x-y", "x y", "x^2", "", "é"])
def test_context_refuses_what_the_parser_does_not_read_as_one_name(name):
    with pytest.raises(ValueError, match="bad variable name"):
        VariableContext((name,))


def test_render_terms_rules():
    assert render_terms([]) == "0"
    assert render_terms([(-1, []), (1, ["a"]), (-1, ["b", "c^2"])]) == "-1 + a - b*c^2"
    assert render_terms([(Fraction(-3, 2), ["x"]), (7, [])]) == "-3/2*x + 7"
    assert render_terms([(1, ["z"]), (1, ["a"])]) == "z + a"


def test_packing_refuses_a_degree_past_63_bits():
    with pytest.raises(LimitExceeded, match="63-bit"):
        Packing(3, 2 ** 63)


def _random_monomial(rng, nvars, cap):
    """Exponents of total degree at most cap; sometimes all of it in one variable."""
    if rng.random() < 0.2:
        m = [0] * nvars
        m[rng.randrange(nvars)] = cap
        return tuple(m)
    return tuple(rng.randint(0, cap // nvars) if rng.random() < 0.7 else 0
                 for _ in range(nvars))


@pytest.mark.parametrize("bound", [127, 128, 2 ** 15 - 1, 2 ** 31 - 1, 2 ** 63 - 1])
def test_packing_matches_tuple_arithmetic(bound):
    rng = random.Random(bound)
    for nvars in range(1, 7):
        pk = Packing(nvars, bound)
        monos = [_random_monomial(rng, nvars, pk.cap) for _ in range(60)]
        es = [pk.pack_exps(m) for m in monos]
        for a, b, ea, eb in zip(monos, monos[1:], es, es[1:]):
            below = tuple(rng.randint(0, e) for e in a)
            eq = pk.pack_exps(below)
            assert pk.unpack_exps(ea) == a and pk.unpack(pk.pack(a)) == a
            assert pk.degree(ea) == sum(a)
            assert pk.unpack_exps(pk.lcm(ea, eb)) == tuple(map(max, a, b))
            for x, y, ex, ey in ((a, b, ea, eb), (b, a, eb, ea), (below, a, eq, ea)):
                assert (not (ey - ex) & pk.guards) == mono_divides(x, y)
            assert mono_divides(below, a)
            assert pk.unpack_exps(ea - eq) == tuple(u - v for u, v in zip(a, below))
            assert (pk.pack(a) < pk.pack(b)) == (degrevlex_key(a) < degrevlex_key(b))
            var = rng.randrange(nvars)
            assert pk.unpack_exps(eq + pk.power(var, a[var] - below[var])) == \
                below[:var] + (a[var],) + below[var + 1:]
        for var in range(nvars):
            assert pk.exponents(es, var) == [m[var] for m in monos]
        supports = pk.supports(es)
        for m, support in zip(monos, supports):
            assert support == support & pk.guards
            assert pk.unpack_exps(support >> pk.value_bits) == tuple(int(e > 0) for e in m)
        assert pk.counts(supports) == [sum(1 for m in monos if m[v]) for v in range(nvars)]


def test_packing_counts_past_one_partial_sum():
    # 8-bit fields add at most 127 masks at a time; 900 masks need eight sums
    rng = random.Random(5)
    pk = Packing(4, 2)
    monos = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(4)) for _ in range(600)]
    monos += [(1, 0, 0, 0)] * 300
    supports = pk.supports([pk.pack_exps(m) for m in monos])
    assert pk.counts(supports) == [sum(1 for m in monos if m[v]) for v in range(4)]


# -- packed polynomials -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_packed_arithmetic_agrees_with_the_tuple_oracle(seed):
    # 500 cases a seed; CI runs 100,000
    differ = listpoly.compare_packed(seed, 500)
    assert not differ, differ[:3]


def test_a_result_takes_the_narrowest_layout_of_its_degree():
    big, y = XY.parse("x^200"), XY.parse("y")
    assert (big + y).pk.width == 16 and XY.parse("x^40000").pk.width == 32
    p = (big + y) - big
    assert p == y and hash(p) == hash(y) and p.pk.width == 8 and p.packed == y.packed
    assert (XY.parse("x^40000*y - x") - XY.parse("x^40000*y")).pk.width == 8
    assert XY.poly({}).pk is layout(2, 0) and (big - big) == XY.poly({})


def test_terms_unpack_the_keys():
    p = XY.parse("3*x^2*y - y^300 + 1/2")
    assert p.terms == (((0, 300), -1), ((2, 1), 3), ((0, 0), Fraction(1, 2)))
    assert [k for k, _ in p.packed] == [p.pk.pack(m) for m, _ in p.terms]
    assert p.degree() == 300 and not p.is_homogeneous()
