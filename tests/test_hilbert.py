import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import listpoly
from listpoly import minimalize_monomials, mono_divides
from symtensor.catalog import quadric_ideal, quadric_series
from symtensor.errors import IntegrityError, LimitExceeded
from symtensor.groebner import buchberger, leading_term_ideal
from symtensor.hilbert import (HilbertSeries, MonomialIdeal, _digit_width, _Numerators,
                               series_from_expansion, series_from_generator_degrees,
                               series_from_monomial_ideal)
from symtensor.poly import Packing, VariableContext, layout


def test_minimalization():
    gens = [(2, 0), (2, 1), (0, 1), (0, 2)]
    assert minimalize_monomials(gens) == ((0, 1), (2, 0))
    ideal = MonomialIdeal.from_generators(2, gens)
    assert ideal.gens == ((0, 1), (2, 0))


def test_series_from_monomial_ideal_examples():
    zero_ideal = MonomialIdeal.from_generators(2, [])
    assert series_from_monomial_ideal(zero_ideal).expand(5) == (1, 2, 3, 4, 5, 6)

    ad2 = MonomialIdeal.from_generators(4, [(1, 0, 0, 0), (0, 0, 0, 2)])
    assert series_from_monomial_ideal(ad2).expand(4) == (1, 3, 5, 7, 9)

    square = MonomialIdeal.from_generators(2, [(2, 0), (1, 1), (0, 2)])
    series = series_from_monomial_ideal(square)
    assert series.numerator == (1, 0, -3, 2)    # 1 - 3t^2 + 2t^3
    assert series.expand(5) == (1, 2, 0, 0, 0, 0)


def test_unit_ideal_is_zero_series():
    unit = MonomialIdeal.from_generators(3, [(0, 0, 0)])
    assert series_from_monomial_ideal(unit).expand(3) == (0, 0, 0, 0)


def _refusal(mono):
    return re.escape(f"monomial {mono!r} is not a tuple of 2 ints >= 0")


def test_direct_construction_checks_order_and_lengths():
    # the constructor trusts minimality, stores the vectors increasing, and moves
    # them to the narrowest layout of their largest degree; tuples enter through
    # from_generators, which checks their lengths
    gens = [(3, 0, 124), (0, 127, 0), (2, 2, 0), (0, 5, 6)]
    wide, narrow = layout(3, 200), layout(3, 127)
    assert wide.width == 16 and narrow.width == 8
    given = [wide.pack_exps(g) for g in gens]
    assert given != sorted(given)
    ideal = MonomialIdeal(3, wide, given)
    assert ideal.pk is narrow
    assert ideal.packed == tuple(sorted(map(narrow.pack_exps, gens)))
    assert ideal == MonomialIdeal.from_generators(3, gens)
    assert ideal.packed == MonomialIdeal.from_generators(3, gens).packed
    assert ideal.gens == tuple(sorted(gens))
    # vectors already in the ideal's layout stay as they are, sorted
    same = MonomialIdeal(3, narrow, [narrow.pack_exps(g) for g in gens])
    assert same.pk is narrow and same.packed == ideal.packed
    with pytest.raises(ValueError, match=_refusal((1, 0, 0))):
        MonomialIdeal.from_generators(2, ((0, 1), (1, 0, 0)))
    unit = MonomialIdeal.from_generators(2, ((0, 0), (1, 0)))
    assert series_from_monomial_ideal(unit).expand(2) == (0, 0, 0)


def test_negative_exponents_are_refused():
    with pytest.raises(ValueError, match=_refusal((-1, 0))):
        series_from_monomial_ideal(MonomialIdeal.from_generators(2, ((-1, 0), (0, 2))))
    with pytest.raises(ValueError, match=_refusal((-1, 0))):
        MonomialIdeal.from_generators(2, [(0, 2), (-1, 0)])
    # a generator too short or too long is refused even where it looks like a multiple
    for wrong in ((1,), (0, 0, 5)):
        with pytest.raises(ValueError, match=_refusal(wrong)):
            MonomialIdeal.from_generators(2, [(0, 0), wrong])


def test_series_from_generator_degrees_examples():
    assert series_from_generator_degrees([1, 1]).expand(3) == (1, 2, 3, 4)
    assert series_from_generator_degrees([2, 2, 2]).expand(6) == (1, 0, 3, 0, 6, 0, 10)
    s = series_from_generator_degrees([4, 4, 6], 12)
    assert s.expand(12) == (1, 0, 0, 0, 2, 0, 1, 0, 3, 0, 2, 0, 4)


def test_expand_examples():
    assert HilbertSeries((1,), (1, 1)).expand(3) == (1, 2, 3, 4)
    assert HilbertSeries((1, 1), (1,)).expand(4) == (1, 2, 2, 2, 2)
    assert HilbertSeries((1, 0, 0, 0, -1), (1, 1, 2)).expand(4) == (1, 2, 4, 6, 8)
    with pytest.raises(IntegrityError):
        HilbertSeries((1, -2), ()).expand(3)
    with pytest.raises(ValueError):
        HilbertSeries((1,), ()).expand(-1)


def test_series_product_examples():
    line = HilbertSeries((1, 1), (1, 1))   # (1+t)/(1-t)^2, dims 1,3,5,...
    prod = line * line
    assert prod.expand(1)[1] == 6
    assert line * HilbertSeries((1,), ()) == line
    geom = HilbertSeries((1,), (1,))
    assert (geom * geom).expand(3) == (1, 2, 3, 4)


def test_krull_dim_examples():
    assert HilbertSeries((1,), (2, 2, 2)).krull_dim() == 3
    assert HilbertSeries((1,), ()).krull_dim() == 0
    assert HilbertSeries((1, 0, -1), (1, 1)).krull_dim() == 1


def test_series_eq_examples():
    a = HilbertSeries((1, 1), (1,))
    b = HilbertSeries((1, 0, -1), (1, 1))
    assert a == b
    assert HilbertSeries((1,), (1,)) != HilbertSeries((1,), (2,))
    e12 = [1] + [0] * 11 + [-1]
    assert HilbertSeries(tuple(e12), (6, 4, 4)) == HilbertSeries(tuple(e12), (4, 6, 4))


def _times_one_minus_power(series, w):
    """The same rational function with numerator and denominator times (1 - t^w)."""
    num = listpoly.mul(list(series.numerator), listpoly.one_minus_power(w))
    return HilbertSeries(tuple(num), series.den_weights + (w,))


def test_series_equal_in_other_forms():
    rng = random.Random(23)
    for _ in range(30):
        degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        series = series_from_generator_degrees(degrees, rng.choice([None, 2 * degrees[0]]))
        for w in (1, 2, 5):
            widened = _times_one_minus_power(series, w)
            assert widened == series and series == widened
            assert widened.canonical() == widened
            assert widened.canonical() == series.canonical()
    klein = HilbertSeries(tuple([1] + [0] * 11 + [-1]), (4, 4, 6))
    assert klein.canonical() == klein and klein == klein.canonical()


def test_series_differing_in_one_coefficient_compare_unequal():
    rng = random.Random(29)
    for _ in range(30):
        degrees = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        series = _times_one_minus_power(series_from_generator_degrees(degrees), 3)
        for spot in range(len(series.numerator) + 2):
            for delta in (1, -1):
                bent = list(series.numerator) + [0, 0]
                bent[spot] += delta
                other = HilbertSeries(tuple(bent), series.den_weights)
                assert other != series and series != other
    # equal values at t = 2 do not make equal series: 1 and t - 1 over (1 - t)
    assert HilbertSeries((1,), (1,)) != HilbertSeries((-1, 1), (1,))
    assert HilbertSeries((1, 0, 0, 1), (2,)) != HilbertSeries((1, 4), (2,))


def _dense_den(weights):
    """prod_w (1 - t^w), multiplied out."""
    p = [1]
    for w in weights:
        p = listpoly.mul(p, listpoly.one_minus_power(w))
    return p


def _dense_cross_equal(a, b):
    """Equality by multiplying out N1 D2 and N2 D1 term by term."""
    return (listpoly.mul(list(a.numerator), _dense_den(b.den_weights))
            == listpoly.mul(list(b.numerator), _dense_den(a.den_weights)))


def _random_series(rng, scale):
    num = tuple(rng.randint(-scale, scale) for _ in range(rng.randint(0, 8)))
    return HilbertSeries(num, tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 6))))


def test_series_eq_agrees_with_dense_cross_multiplication():
    rng = random.Random(31)
    for scale in (1, 3, 1 << 70):
        for _ in range(300):
            a, b = _random_series(rng, scale), _random_series(rng, scale)
            assert (a == b) == _dense_cross_equal(a, b)
            for w in (1, rng.randint(2, 7)):
                # equal pairs in another form, numerator and denominator times 1 - t^w
                widened = _times_one_minus_power(a, w)
                assert widened == a and a == widened and _dense_cross_equal(widened, a)
                bent = list(widened.numerator) + [0]
                bent[rng.randrange(len(bent))] += rng.choice((1, -1, scale))
                other = HilbertSeries(tuple(bent), widened.den_weights)
                assert other != a and not _dense_cross_equal(other, a)


def test_series_eq_evaluates_past_the_coefficient_bound():
    # t against the constant 2^j: B = 1 + 2^j, so an evaluation point at or below
    # B + 1 = 2^j + 2 can be 2^j itself, where both sides agree
    t = HilbertSeries((0, 1), ())
    for j in range(1, 81):
        power = HilbertSeries((1 << j,), ())
        assert t != power and power != t
    # the denominators' share of the bound: the cross products agree at t = 32,
    # which exceeds |N1|_1 + |N2|_1 + 1 = 28 but not B + 1 = 14 + 13 * 2^4 + 1
    a = HilbertSeries((-6, -1, 1, 0, 0, 6), (1, 1, 1, 1))
    b = HilbertSeries((-6, 7), ())
    assert a != b and b != a
    assert not _dense_cross_equal(a, b)


def test_fraction_numerator_is_refused():
    with pytest.raises(TypeError, match="ints"):
        HilbertSeries((1, Fraction(1, 2)), (1,))
    with pytest.raises(TypeError):
        HilbertSeries((Fraction(1),), ())


@pytest.mark.parametrize("numerator,weights,message", [
    ((True,), (1,), "numerator coefficients must be ints"),
    ((1, 2.0), (1,), "numerator coefficients must be ints"),
    ((1,), (1.5,), "denominator weights must be ints"),
    ((1,), (2.0,), "denominator weights must be ints"),
    ((1,), ("2", True), "denominator weights must be ints"),
    ((1,), (1, True), "denominator weights must be ints"),
])
def test_series_inputs_are_exact_ints(numerator, weights, message):
    # a float or a bool once passed here and failed later, or was read as an int
    with pytest.raises(TypeError, match=f"^{message}$"):
        HilbertSeries(numerator, weights)


def test_numerator_may_be_any_iterable():
    # the int scan once consumed an iterator, and the trim then took its length
    series = HilbertSeries(iter([1, 2, 0]), iter([1]))
    assert series.numerator == (1, 2) and series.den_weights == (1,)
    assert series == HilbertSeries((1, 2), (1,))


def test_generator_degrees_are_not_coerced():
    # int() once read 2.7 as 2, 3.9 as 3, "2" as 2 and True as 1
    with pytest.raises(TypeError, match="denominator weights must be ints"):
        series_from_generator_degrees([2.7], 3)
    with pytest.raises(TypeError, match="denominator weights must be ints"):
        series_from_generator_degrees(["2", True])
    with pytest.raises(ValueError, match="denominator weights must be positive"):
        series_from_generator_degrees([2, 0])
    for relation in (3.9, True, 0, -1, "3"):
        with pytest.raises(ValueError, match=f"relation degree must be an int >= 1, got {relation!r}"):
            series_from_generator_degrees([2], relation)
    assert series_from_generator_degrees((2, 3), 6) == HilbertSeries((1, 0, 0, 0, 0, 0, -1), (3, 2))
    assert series_from_generator_degrees([1, 1]) == HilbertSeries((1,), (1, 1))


def _krull_by_division(series):
    """Pole order at 1, dividing N by 1 - t while its coefficients sum to 0."""
    num = list(series.numerator)
    if not num:
        return 0
    mult = 0
    while sum(num) == 0:
        num, r = listpoly.divmod_exact(num, [1, -1])
        assert not r
        mult += 1
    return len(series.den_weights) - mult


def test_krull_dim_agrees_with_division_on_planted_roots():
    rng = random.Random(37)
    for _ in range(200):
        num = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        if not any(num):
            continue
        m = rng.randint(0, 7)
        for _ in range(m):
            num = listpoly.mul(num, [1, -1])
        series = HilbertSeries(tuple(num), (1,) * rng.randint(m, m + 4))
        assert series.krull_dim() == _krull_by_division(series)
        assert series.krull_dim() <= len(series.den_weights) - m
    assert HilbertSeries((), (1, 1)).krull_dim() == 0


def test_series_from_expansion_agrees_with_dense_product():
    rng = random.Random(41)
    for _ in range(200):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(0, 12))]
        weights = tuple(rng.randint(1, 15) for _ in range(rng.randint(0, 5)))
        want = listpoly.mul(coeffs, _dense_den(weights))[: len(coeffs)]
        series = series_from_expansion(coeffs, weights)
        assert series.numerator == tuple(listpoly.trim(want))
        assert series.den_weights == tuple(sorted(weights))
    # every weight longer than the prefix leaves it as it is
    assert series_from_expansion([1, 2, 3], (4, 9)).numerator == (1, 2, 3)


def _random_ideal(rng):
    nvars = rng.randint(1, 5)
    gens = []
    for _ in range(rng.randint(1, 6)):
        total = rng.randint(1, 4)
        exps = [0] * nvars
        for _ in range(total):
            exps[rng.randrange(nvars)] += 1
        gens.append(tuple(exps))
    return MonomialIdeal.from_generators(nvars, gens)


def test_series_matches_brute_force_on_random_ideals():
    rng = random.Random(314159)
    for _ in range(25):
        ideal = _random_ideal(rng)
        got = series_from_monomial_ideal(ideal).expand(8)
        want = tuple(listpoly.count_standard_monomials(ideal, d) for d in range(9))
        assert got == want, f"{ideal.gens} in {ideal.nvars} vars"


def test_krull_dim_of_zero_ideal_and_canonical_invariance():
    for k in range(1, 6):
        series = series_from_monomial_ideal(MonomialIdeal.from_generators(k, []))
        assert series.krull_dim() == k
    s = HilbertSeries((1, 0, -1), (1, 1, 2))
    assert s.canonical().krull_dim() == s.krull_dim()
    klein = HilbertSeries(tuple([1] + [0] * 11 + [-1]), (4, 4, 6))
    assert klein.canonical().krull_dim() == klein.krull_dim() == 2


def _independent_set_dimension(ideal):
    """Largest variable subset containing no generator's support."""
    best = 0
    for size in range(ideal.nvars, -1, -1):
        for subset in itertools.combinations(range(ideal.nvars), size):
            sset = set(subset)
            if all(not set(v for v, e in enumerate(g) if e) <= sset for g in ideal.gens):
                return size
    return best


def test_krull_dim_matches_independent_set_oracle():
    rng = random.Random(2718)
    for _ in range(25):
        ideal = _random_ideal(rng)
        series = series_from_monomial_ideal(ideal)
        assert series.krull_dim() == _independent_set_dimension(ideal)


def test_product_expansion_is_convolution():
    rng = random.Random(55)
    for _ in range(30):
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        # a relation of degree divisible by one generator keeps dims non-negative
        relation = rng.choice([None, degrees[0] * rng.randint(2, 3)])
        a = series_from_generator_degrees(degrees, relation)
        b = series_from_generator_degrees(
            [rng.randint(1, 4) for _ in range(rng.randint(1, 4))])
        ca, cb = a.expand(10), b.expand(10)
        conv = tuple(sum(ca[i] * cb[d - i] for i in range(d + 1)) for d in range(11))
        assert (a * b).expand(10) == conv


def test_canonical_form():
    s = HilbertSeries((1, 0, -1), (1, 1))         # (1-t^2)/(1-t)^2
    c = s.canonical()
    assert c.numerator == (1, 1) and c.den_weights == (1,)
    assert s == c


def test_canonical_form_edge_cases():
    # the zero series cancels every factor and renders as 0, not as 0 over them
    zero = HilbertSeries((), (1, 1, 2)).canonical()
    assert zero.numerator == () and zero.den_weights == ()
    assert zero.render() == "0"
    # a numerator shorter than the weight is left as it is
    short = HilbertSeries((1, -1), (2,)).canonical()
    assert short.numerator == (1, -1) and short.den_weights == (2,)
    # 1 - t^3 cancels the weight 3, and 1 is left over the weight 1
    cube = HilbertSeries((1, 0, 0, -1), (3, 1)).canonical()
    assert cube.numerator == (1,) and cube.den_weights == (1,)
    assert cube.render() == "(1) / ((1 - t))"


def _reference_canonical(series):
    """Greedy cancellation, largest weight first, by long division."""
    num, den = list(series.numerator), list(series.den_weights)
    for w in sorted(set(den), reverse=True):
        while w in den:
            q, r = listpoly.divmod_exact(num, listpoly.one_minus_power(w))
            if r:
                break
            num = q
            den.remove(w)
    return tuple(num), tuple(sorted(den))


def test_canonical_form_agrees_with_long_division():
    rng = random.Random(43)
    for _ in range(300):
        series = _random_series(rng, rng.choice((1, 3, 1 << 70)))
        for w in rng.sample(range(1, 6), rng.randint(0, 3)):
            series = _times_one_minus_power(series, w)
        c = series.canonical()
        assert (c.numerator, c.den_weights) == _reference_canonical(series)
        assert c == series


def test_series_product_agrees_with_list_product():
    rng = random.Random(47)
    big = 1 << 200
    zero, one = HilbertSeries((), (2,)), HilbertSeries((1,), ())
    for _ in range(200):
        a, b = (HilbertSeries(tuple(rng.randint(-big, big) for _ in range(rng.randint(0, 12))),
                              tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3))))
                for _ in range(2))
        for x, y in ((a, b), (a, zero), (zero, b), (a, one), (one, b)):
            prod = x * y
            assert prod.numerator == tuple(listpoly.mul(list(x.numerator), list(y.numerator)))
            assert prod.den_weights == tuple(sorted(x.den_weights + y.den_weights))
    assert (zero * zero).numerator == () and (one * one).numerator == (1,)


def test_numerator_text_parses_back():
    # random numerators of about 200 bits and both signs, units among them, and zero
    ctx = VariableContext(("t",))
    rng = random.Random(32)
    numerators = [()] + [tuple(rng.choice((0, 1, -1, rng.randrange(-2 ** 200, 2 ** 200)))
                               for _ in range(rng.randint(1, 12))) for _ in range(300)]
    for num in numerators:
        series = HilbertSeries(num, ())
        assert ctx.parse(series.render()) == ctx.poly({(e,): c for e, c in enumerate(num)})


def test_render_and_json():
    s = HilbertSeries(tuple([1] + [0] * 11 + [-1]), (4, 4, 6))
    assert s.render() == "(1 - t^12) / ((1 - t^4)^2 (1 - t^6))"
    assert s.to_json_dict() == {"numerator": [1] + [0] * 11 + [-1],
                                "denominator_weights": [4, 4, 6]}
    assert HilbertSeries((1,), ()).render() == "1"


# -- differential test against the original recursion -----------------------------


def _reference_supports_disjoint(gens):
    seen = set()
    for g in gens:
        for v, e in enumerate(g):
            if e:
                if v in seen:
                    return False
                seen.add(v)
    return True


def _reference_colon_by_power(gens, var, exp):
    out = []
    for g in gens:
        if g[var]:
            g = g[:var] + (max(g[var] - exp, 0),) + g[var + 1:]
        out.append(g)
    return minimalize_monomials(out)


def _reference_numerator(gens, memo):
    """The original pivot recursion: both children re-minimalised at every step."""
    cached = memo.get(gens)
    if cached is not None:
        return cached
    if not gens:
        result = [1]
    elif any(sum(g) == 0 for g in gens):
        result = [0]
    elif _reference_supports_disjoint(gens):
        result = [1]
        for g in gens:
            result = listpoly.mul(result, listpoly.one_minus_power(sum(g)))
    else:
        nv = len(gens[0])
        counts = [0] * nv
        for g in gens:
            for v, e in enumerate(g):
                if e:
                    counts[v] += 1
        var = max(range(nv), key=lambda v: counts[v])
        exp = min(g[var] for g in gens if g[var])
        pivot = tuple(exp if v == var else 0 for v in range(nv))
        left = minimalize_monomials(gens + (pivot,))
        right = _reference_colon_by_power(gens, var, exp)
        base, colon = _reference_numerator(left, memo), _reference_numerator(right, memo)
        result = base + [0] * (exp + len(colon) - len(base))
        for i, c in enumerate(colon):
            result[i + exp] += c
    memo[gens] = result
    return result


def _reference_series_numerator(nvars, gens):
    return tuple(listpoly.trim(_reference_numerator(minimalize_monomials(gens), {})))


def _random_gens(rng, nvars, count, max_degree):
    gens = []
    for _ in range(count):
        exps = [0] * nvars
        for _ in range(rng.randint(1, max_degree)):
            exps[rng.randrange(nvars)] += 1
        gens.append(tuple(exps))
    return gens


def _split_gens(rng, isolated, rest, cap):
    """Isolated generators on private variables, the first of degree cap, beside rest sharing a hub."""
    terms = []
    nvars = 0
    for i in range(isolated):
        degree = cap if i == 0 else rng.randint(1, 6)
        if degree > 1 and rng.random() < 0.5:
            a = rng.randint(1, degree - 1)
            terms.append({nvars: a, nvars + 1: degree - a})
        else:
            terms.append({nvars: degree})  # a pure power
        nvars += len(terms[-1])
    if rest:
        # the hub times distinct quadrics in four more variables: one degree, so minimal
        hub, nvars = nvars, nvars + 5
        quadrics = list(itertools.combinations_with_replacement(range(hub + 1, nvars), 2))
        for pair in rng.sample(quadrics, rest):
            g = {hub: 1}
            for v in pair:
                g[v] = g.get(v, 0) + 1
            terms.append(g)
    perm = list(range(nvars))
    rng.shuffle(perm)
    return nvars, [tuple(g.get(perm[v], 0) for v in range(nvars)) for g in terms]


def _isolated(gens):
    """How many generators share no variable with another."""
    return sum(all(not any(a and b for a, b in zip(g, h)) for h in gens if h != g) for g in gens)


def _differential_cases():
    rng = random.Random(20240611)
    cases = []
    for _ in range(300):
        nvars = rng.randint(1, 8)
        cases.append((nvars, _random_gens(rng, nvars, rng.randint(0, 12), rng.randint(1, 5))))
    for _ in range(40):
        # disconnected supports: ideals in disjoint blocks of variables, interleaved
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        nvars = sum(sizes)
        order = list(range(nvars))
        rng.shuffle(order)
        gens, start = [], 0
        for size in sizes:
            block = order[start:start + size]
            start += size
            for small in _random_gens(rng, size, rng.randint(1, 4), 4):
                g = [0] * nvars
                for v, e in zip(block, small):
                    g[v] = e
                gens.append(tuple(g))
        cases.append((nvars, gens))
    for _ in range(20):
        # pure powers, alone and mixed with other generators
        nvars = rng.randint(1, 6)
        powers = [tuple(rng.randint(1, 4) if v == u else 0 for v in range(nvars))
                  for u in rng.sample(range(nvars), rng.randint(1, nvars))]
        cases.append((nvars, powers))
        cases.append((nvars, powers + _random_gens(rng, nvars, rng.randint(1, 6), 4)))
    for nvars in range(5):
        cases.append((nvars, []))                                  # zero ideal
        cases.append((nvars, [(0,) * nvars]))                      # unit ideal
    for nvars in range(1, 5):
        cases.append((nvars, [(0,) * nvars] + _random_gens(rng, nvars, 3, 3)))
    for wide in (False, True):
        for _ in range(12):
            # exponents about 127, the capacity of 8-bit fields: ideals whose
            # generators all have degree at most 127 pack into 8-bit fields,
            # the others into 16-bit ones
            nvars = rng.randint(3, 6)
            gens = []
            for _ in range(rng.randint(2, 5)):
                exps = [0] * nvars
                big = rng.sample(range(nvars), 2 if wide else 1)
                for v in big:
                    exps[v] = rng.randint(120, 135 if wide else 127)
                if not wide:
                    for _ in range(rng.randint(0, 127 - exps[big[0]])):
                        exps[rng.randrange(nvars)] += 1
                gens.append(tuple(exps))
            cases.append((nvars, gens))
    for cap in (127, 2 ** 15 - 1):
        # states that split off isolated generators: all of them isolated, or
        # beside a rest of two, three or more generators; one isolated
        # generator has degree cap, so the fields are 8 or 16 bits wide
        for isolated, rest in [(4, 0), (5, 0), (1, 3), (2, 2), (3, 3), (1, 6), (2, 8)]:
            for _ in range(2):
                cases.append(_split_gens(rng, isolated, rest, cap))
    for _ in range(20):
        # duplicate generators
        nvars = rng.randint(1, 6)
        gens = _random_gens(rng, nvars, rng.randint(1, 6), 4)
        cases.append((nvars, gens + [rng.choice(gens) for _ in range(3)]))
    for top in (127, 128, 2 ** 15 - 1, 2 ** 15):
        # a generator of degree top, which fills or passes the 8- or 16-bit
        # fields, with multiples past it, small generators that may divide it,
        # duplicates and at times the unit monomial: the kept generators can
        # need narrower fields than the given ones
        for _ in range(10):
            nvars = rng.randint(1, 4)
            g = [0] * nvars
            part = rng.randint(0, top)
            g[rng.randrange(nvars)] += part
            g[rng.randrange(nvars)] += top - part
            gens = [tuple(g)] + _random_gens(rng, nvars, rng.randint(0, 3), 3)
            for _ in range(rng.randint(1, 3)):
                gens.append(tuple(e + rng.randint(0, 2) for e in g))
            gens += [rng.choice(gens) for _ in range(2)]
            if rng.random() < 0.2:
                gens.append((0,) * nvars)
            rng.shuffle(gens)
            cases.append((nvars, gens))
    return cases


def _permuted(gens, perm):
    out = []
    for g in gens:
        h = [0] * len(perm)
        for v, e in enumerate(g):
            h[perm[v]] = e
        out.append(tuple(h))
    return out


def test_numerator_matches_reference_recursion():
    cases = _differential_cases()
    assert len(cases) >= 300
    rng = random.Random(7)
    caps = set()
    narrowed = 0  # ideals whose kept generators need narrower fields than the given ones
    splits = Counter()  # states of 4+ generators that split, by the size of the rest, 4 for 4+
    for nvars, gens in cases:
        want = _reference_series_numerator(nvars, gens)
        ideal = MonomialIdeal.from_generators(nvars, gens)
        isolated = _isolated(ideal.gens)
        if len(ideal.gens) >= 4 and isolated:
            splits[min(len(ideal.gens) - isolated, 4)] += 1
        # gens are the oracle's sorted minimal tuples; packed holds them as
        # increasing ints in the narrowest fields of their largest degree
        assert ideal.gens == minimalize_monomials(gens), f"{gens} in {nvars} vars"
        pk = Packing(nvars, max(map(sum, ideal.gens), default=0))
        assert ideal.pk.width == pk.width, f"{gens} in {nvars} vars"
        assert ideal.packed == tuple(sorted(map(pk.pack_exps, ideal.gens)))
        assert all(a < b for a, b in zip(ideal.packed, ideal.packed[1:]))
        narrowed += Packing(nvars, max(map(sum, gens), default=0)).width != pk.width
        got = series_from_monomial_ideal(ideal)
        assert got.numerator == want, f"{gens} in {nvars} vars"
        assert got.den_weights == (1,) * nvars
        # every recursion state is a canonical memo key: the increasing packed
        # minimal generators, in fields wide enough for the largest degree
        caps.add(ideal.pk.cap)
        # the int kernel evaluates the numerator at t = 2^k exactly, whatever k is
        numerators = _Numerators(ideal.pk, 64)
        value = numerators.numerator(ideal.packed)
        assert value == sum(c << 64 * j for j, c in enumerate(want) if c), f"{gens} at 2^64"
        for state in numerators.memo:
            assert state == tuple(sorted(set(state))), f"state {state}"
            unpacked = sorted(map(pk.unpack_exps, state))
            assert tuple(unpacked) == minimalize_monomials(unpacked), f"state {unpacked}"
        # variable-permuted copies change pivot ties and component order only
        perm = list(range(nvars))
        rng.shuffle(perm)
        copy = MonomialIdeal.from_generators(nvars, _permuted(gens, perm))
        assert series_from_monomial_ideal(copy).numerator == want, f"{gens} under {perm}"
    assert caps == {127, 2 ** 15 - 1, 2 ** 31 - 1} and narrowed >= 10, (caps, narrowed)
    # a shared variable has two holders, so a rest is never one generator
    assert set(splits) == {0, 2, 3, 4} and min(splits.values()) >= 4, splits


# numerator states memoised on the lead ideals of driven Q(n): splitting off
# isolated generators keeps them few, and pivoting without the component search
# leaves several times more (9,482 for Q(12)), which the numerators cannot show
MEMO_STATES = [(10, 707), (12, 2340)]


@pytest.mark.parametrize("n,states", MEMO_STATES, ids=[f"Q({n})" for n, _ in MEMO_STATES])
def test_memo_states_on_quadric_lead_ideals(n, states):
    lead = leading_term_ideal(buchberger(quadric_ideal(n), bound=quadric_series(n)))
    numerators = _Numerators(lead.pk, _digit_width(lead))
    numerators.numerator(lead.packed)
    assert len(numerators.memo) == states


def _capped_gens(rng, nvars, count, cap):
    # each generator has one exponent near cap/2..cap, the rest small, and degree <= cap
    gens = []
    for _ in range(count):
        exps = [0] * nvars
        exps[rng.randrange(nvars)] = rng.randint(cap // 2, cap - 4)
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(nvars)] += 1
        gens.append(tuple(exps))
    return gens


@pytest.mark.parametrize("cap", [127, 2 ** 15 - 1])
def test_taylor_base_case_past_the_field_cap(cap):
    # two or three generators that pack into fields of this cap, while the
    # degree of an lcm passes it and would wrap if read from the packed lcm
    rng = random.Random(cap)
    cases = [(5, [(0, 1, 124, 1, 0), (122, 1, 0, 2, 1), (1, 0, 0, 125, 0)])] if cap == 127 else []
    while len(cases) < 24:
        nvars = rng.randint(2, 5)
        cases.append((nvars, _capped_gens(rng, nvars, rng.choice((2, 3)), cap)))
    past = 0
    for nvars, gens in cases:
        ideal = MonomialIdeal.from_generators(nvars, gens)
        assert Packing(nvars, max(map(sum, ideal.gens))).cap == cap
        if not 2 <= len(ideal.gens) <= 3:
            continue
        past += sum(map(max, zip(*ideal.gens))) > cap
        want = _reference_series_numerator(nvars, gens)
        assert series_from_monomial_ideal(ideal).numerator == want, f"{gens} in {nvars} vars"
    assert past >= 12


def _naive_colon(gens, var, exp):
    """<gens> : x_var^exp as the lowered generators with x_var and the others that none of them divides."""
    moved = [g[:var] + (g[var] - exp,) + g[var + 1:] for g in gens if g[var]]
    return moved + [g for g in gens if not g[var] and not any(mono_divides(m, g) for m in moved)]


@pytest.mark.parametrize("top", [127, 200])
def test_colon_by_power_against_the_reference_colon(top):
    # generators x_var^exp x_j^a (single-variable drops), x_var^exp m with m in
    # two or more variables (wide drops), x_var^(exp+r) x_j^b and generators
    # without x_var, one of degree top, packed in fields of 8 or 16 bits
    rng = random.Random(top)
    shapes = {"single": 0, "wide": 0, "repeated": 0}
    for _ in range(150):
        nvars = rng.randint(2, 6)
        var, exp = rng.randrange(nvars), rng.randint(1, 3)
        others = [v for v in range(nvars) if v != var]
        gens = set()
        for _ in range(rng.randint(1, 4)):
            g = [0] * nvars
            g[var], g[rng.choice(others)] = exp, rng.randint(1, 5)
            gens.add(tuple(g))
        for _ in range(rng.randint(0, 3) if len(others) > 1 else 0):
            g = [0] * nvars
            g[var] = exp
            for v in rng.sample(others, 2):
                g[v] = rng.randint(1, 3)
            gens.add(tuple(g))
        for _ in range(rng.randint(0, 3)):
            g = [0] * nvars
            g[var], g[rng.choice(others)] = exp + rng.randint(1, 3), rng.randint(1, 3)
            gens.add(tuple(g))
        for degree in [top] + [rng.randint(1, 6) for _ in range(rng.randint(0, 6))]:
            g = [0] * nvars
            for _ in range(degree):
                g[rng.choice(others)] += 1
            gens.add(tuple(g))
        # a minimal state holds one x_var^exp x_j^a per j at most; the raw
        # generators may hold several, and then the least a must decide
        for state in (tuple(sorted(gens)), minimalize_monomials(gens)):
            if not any(g[var] for g in state):
                continue  # a generator without x_var divided all those with it
            low = min(g[var] for g in state if g[var])
            drops = [g for g in state if g[var] == low]
            singles = [next(v for v in others if g[v]) for g in drops if sum(map(bool, g)) == 2]
            shapes["single"] += bool(singles)
            shapes["wide"] += len(singles) < len(drops)
            shapes["repeated"] += len(set(singles)) < len(singles)
            want = _naive_colon(state, var, low)
            if state == minimalize_monomials(state):
                assert tuple(sorted(want)) == _reference_colon_by_power(state, var, low)
            pk = Packing(nvars, top)
            packed = tuple(sorted(map(pk.pack_exps, state)))
            column = pk.exponents(packed, var)
            same = tuple(g for g, e in zip(packed, column) if not e)
            got = _Numerators(pk, 64)._colon_by_power(packed, column, var, low, same)
            assert got == tuple(sorted(map(pk.pack_exps, want))), f"{state} : x{var}^{low}"
    assert min(shapes.values()) >= 20, shapes


def test_width_at_the_taylor_bound():
    # 60 coprime linear forms: N = (1 - t)^60, whose largest coefficient
    # C(60, 30) needs 57 bits; G = 60 is the smaller bound
    n = 60
    variables = [tuple(int(v == u) for v in range(n)) for u in range(n)]
    ideal = MonomialIdeal.from_generators(n, variables)
    assert _digit_width(ideal) == 2 + n
    assert series_from_monomial_ideal(ideal).numerator == tuple(
        (-1) ** j * comb(n, j) for j in range(n + 1))


def test_width_at_the_monomial_count_bound():
    # all degree-m monomials in x, y: G = m + 1 generators, N = 1 - (m+1) t^m
    # + m t^(m+1), and lcm degree 2m gives k = 2 + 2 + bits(C(2m + 1, 1)) = 12
    m = 80
    ideal = MonomialIdeal.from_generators(2, [(i, m - i) for i in range(m + 1)])
    assert _digit_width(ideal) == 12
    assert series_from_monomial_ideal(ideal).numerator == (1,) + (0,) * (m - 1) + (-(m + 1), m)


def test_high_degree_numerator_decodes():
    # <x^e, y^e>: N = (1 - t^e)^2 has 2e + 1 digits of k = 4 bits to read back
    e = 50000
    ideal = MonomialIdeal.from_generators(2, [(e, 0), (0, e)])
    assert _digit_width(ideal) == 4
    gap = (0,) * (e - 1)
    assert series_from_monomial_ideal(ideal).numerator == (1,) + gap + (-2,) + gap + (1,)


def test_deep_staircase_recursion():
    # all degree-n monomials in x, y: one pivot level per degree
    n = 700
    ideal = MonomialIdeal.from_generators(2, [(k, n - k) for k in range(n + 1)])
    expansion = series_from_monomial_ideal(ideal).expand(n + 2)
    assert expansion == tuple(range(1, n + 1)) + (0, 0, 0)


def test_too_deep_staircase_raises_limit_exceeded():
    # one pivot level per degree outgrows the recursion limit
    n = 1000
    ideal = MonomialIdeal.from_generators(2, [(k, n - k) for k in range(n + 1)])
    with pytest.raises(LimitExceeded, match="1001 generators in 2 variables"):
        series_from_monomial_ideal(ideal)


def test_degree_past_every_field_raises_limit_exceeded():
    with pytest.raises(LimitExceeded, match="63-bit"):
        series_from_monomial_ideal(MonomialIdeal.from_generators(1, [(2 ** 64,)]))


def test_limits_raised_outside_buchberger_carry_no_counters():
    deep = MonomialIdeal.from_generators(2, [(k, 1000 - k) for k in range(1001)])
    for raise_limit in (lambda: series_from_monomial_ideal(deep),
                        lambda: VariableContext(("x",)).poly({(2 ** 63,): 1})):
        with pytest.raises(LimitExceeded) as info:
            raise_limit()
        exc = info.value
        assert (exc.pairs_processed, exc.max_degree_reached, exc.basis_size,
                exc.elapsed) == (None, None, None, None)
