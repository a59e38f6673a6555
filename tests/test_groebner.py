import hashlib
import heapq
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import listpoly
from listpoly import degrevlex_key, minimalize_monomials, mono_divides
from symtensor import groebner
from symtensor.catalog import (grassmannian_ideal, grassmannian_series, ideal_presentation_for,
                               parse_spec, quadric_ideal, quadric_series)
from symtensor.errors import IntegrityError, LimitExceeded
from symtensor.groebner import (GroebnerBasis, GroebnerLimits, IdealPresentation,
                                buchberger, leading_term_ideal, normal_form,
                                s_polynomial)
from symtensor.hilbert import HilbertSeries, MonomialIdeal, series_from_monomial_ideal
from symtensor.poly import Packing, Polynomial, VariableContext

ABCD = VariableContext(("a", "b", "c", "d"))
XY = VariableContext(("x", "y"))

U2_ENTRIES = ("a^2 + b*c", "a*b + b*d", "a*c + c*d", "d^2 + b*c")


def _ideal(ctx, *texts):
    return IdealPresentation(ctx, tuple(ctx.parse(t) for t in texts))


def test_normal_form_examples():
    assert normal_form(XY.parse("x^2"), [XY.parse("x")]).is_zero
    assert normal_form(XY.parse("x^2 + y"), [XY.parse("x")]) == XY.parse("y")
    nf = normal_form(ABCD.parse("a^2 + b*c"),
                     [ABCD.parse("a + d"), ABCD.parse("d^2 + b*c")])
    assert nf.is_zero


def test_normal_form_is_idempotent_and_irreducible():
    basis = [ABCD.parse("a*b - c^2"), ABCD.parse("b^2 - d^2")]
    p = ABCD.parse("a^2*b^2 + b^3 + c*d^2")
    nf = normal_form(p, basis)
    assert normal_form(nf, basis) == nf
    for mono, _ in nf.terms:
        for b in basis:
            assert not mono_divides(b.leading_monomial(), mono)


def test_normal_form_rejects_other_contexts():
    xyz = VariableContext(("x", "y", "z"))
    with pytest.raises(ValueError):
        normal_form(XY.parse("x^2 + y"), [xyz.parse("x")])
    with pytest.raises(ValueError):
        normal_form(XY.parse("x^2 + y"), [XY.parse("x"), xyz.parse("y")])
    # the same basis once more, now cached: the check still applies
    normal_form(xyz.parse("x"), [xyz.parse("x")])
    with pytest.raises(ValueError):
        normal_form(XY.parse("x^2 + y"), [xyz.parse("x")])


def test_normal_form_rejects_non_polynomial_entries():
    x = XY.parse("x")
    for junk in ("junk", 3, None):
        with pytest.raises(TypeError):
            normal_form(XY.parse("x^2 + y"), [x, junk])
    # zero polynomials are skipped
    assert normal_form(XY.parse("x^2 + y"), [XY.poly({}), x, XY.poly({})]) == XY.parse("y")
    # an int never equals a constant Polynomial, so a basis holding one instead
    # misses the reused entries and is refused
    assert normal_form(XY.parse("y"), [x, XY.parse("3")]).is_zero
    with pytest.raises(TypeError):
        normal_form(XY.parse("y"), [x, 3])
    assert normal_form(XY.parse("x + y"), [XY.poly({}), x]) == XY.parse("y")
    with pytest.raises(TypeError):
        normal_form(XY.parse("x + y"), [0, x])


def test_exponents_outside_the_fields_raise_value_error():
    # the constructor packs every exponent tuple, so no polynomial the engine is
    # given holds one its fields cannot
    assert normal_form(XY.parse("x^2 + y"), [XY.parse("x")]) == XY.parse("y")
    with pytest.raises(ValueError, match=r"monomial \(-1, 2\)"):
        Polynomial(XY, {(-1, 2): 1})
    with pytest.raises(ValueError, match=r"monomial \(1\.5, 0\)"):
        Polynomial(XY, {(1.5, 0): 1})
    # the failed constructions left the kept basis usable
    assert normal_form(XY.parse("x^2 + y"), [XY.parse("x")]) == XY.parse("y")


def test_s_polynomial_examples():
    s = s_polynomial(XY.parse("x"), XY.parse("y"))
    assert s.is_zero
    s2 = s_polynomial(XY.parse("x^2 - y"), XY.parse("x*y - 1"))
    assert s2 == XY.parse("x - y^2")
    f = XY.parse("x^2 + y^2")
    assert s_polynomial(f, f).is_zero
    with pytest.raises(ValueError):
        s_polynomial(XY.poly({}), f)


def _reference_s_polynomial(f, g):
    """(lcm / lt_f) * f / lc_f - (lcm / lt_g) * g / lc_g in Polynomial arithmetic."""
    ctx = f.ctx
    lcm = tuple(max(a, b) for a, b in zip(f.leading_monomial(), g.leading_monomial()))

    def cofactor(p):
        return ctx.poly({tuple(a - b for a, b in zip(lcm, p.leading_monomial())): 1})

    return (cofactor(f) * f.scale(Fraction(1) / f.terms[0][1])
            - cofactor(g) * g.scale(Fraction(1) / g.terms[0][1]))


@pytest.mark.parametrize("text", ["Gr(2,4)", "Q(3)"])
def test_s_polynomial_matches_reference_on_reduced_bases(text):
    elements = buchberger(ideal_presentation_for(parse_spec(text))).elements
    for f in elements:
        for g in elements:
            assert s_polynomial(f, g) == _reference_s_polynomial(f, g)


def test_s_polynomial_matches_reference_off_monic_and_homogeneous():
    texts = ("2*x^2 - 3*y^2", "x*y - 1", "x^2 - y", "-3*x*y^2 + 1/2*x", "5*y^3 - x*y", "7")
    for f in map(XY.parse, texts):
        for g in map(XY.parse, texts):
            assert s_polynomial(f, g) == _reference_s_polynomial(f, g), (f, g)


def test_buchberger_two_generator_example():
    gb = buchberger(_ideal(ABCD, "a + d", "a*d - b*c"))
    assert set(gb.elements) == {ABCD.parse("a + d"), ABCD.parse("d^2 + b*c")}
    lt = leading_term_ideal(gb)
    # leading monomials under degrevlex a>b>c>d: a and bc
    assert set(lt.gens) == {(1, 0, 0, 0), (0, 1, 1, 0)}
    assert series_from_monomial_ideal(lt).expand(6) == (1, 3, 5, 7, 9, 11, 13)


def test_buchberger_single_generator():
    gb = buchberger(_ideal(XY, "x - y"))
    assert gb.elements == (XY.parse("x - y"),)
    assert leading_term_ideal(gb).gens == ((1, 0),)


def test_buchberger_square_zero_two_by_two():
    """Engine route confirmed against brute-force standard-monomial counts."""
    gb = buchberger(_ideal(ABCD, *U2_ENTRIES))
    lt = leading_term_ideal(gb)
    series = series_from_monomial_ideal(lt)
    got = series.expand(8)
    brute = tuple(listpoly.count_standard_monomials(lt, deg) for deg in range(9))
    assert got == brute
    assert got == (1, 4, 6, 7, 9, 11, 13, 15, 17)
    # strictly between the linear-span bound and the radical's function 2d+1
    assert got[1] == 4 and got[2] == 10 - 4
    assert got[3:] == tuple(2 * d + 1 for d in range(3, 9))


def test_buchberger_square_zero_with_trace():
    gb = buchberger(_ideal(ABCD, *U2_ENTRIES, "a + d"))
    assert set(gb.elements) == {ABCD.parse("a + d"), ABCD.parse("d^2 + b*c")}
    series = series_from_monomial_ideal(leading_term_ideal(gb))
    assert series.expand(6) == (1, 3, 5, 7, 9, 11, 13)


@pytest.mark.parametrize("text", ["Gr(1,3)", "Gr(2,4)", "Q(2)", "Q(3)"])
def test_reduced_leading_monomials_are_the_sorted_minimal_generators(text):
    # leading_term_ideal skips minimalisation, which a reduced basis makes a no-op
    gb = buchberger(ideal_presentation_for(parse_spec(text)))
    lts = [g.leading_monomial() for g in gb.elements]
    assert leading_term_ideal(gb).gens == minimalize_monomials(lts)


def test_empty_basis_gives_zero_ideal():
    gb = GroebnerBasis(ABCD, ())
    assert leading_term_ideal(gb).gens == ()


def test_buchberger_criterion_post_check():
    ideal = _ideal(ABCD, *U2_ENTRIES, "a + d")
    gb = buchberger(ideal)
    for i in range(len(gb.elements)):
        for j in range(i + 1, len(gb.elements)):
            spair = s_polynomial(gb.elements[i], gb.elements[j])
            assert normal_form(spair, gb.elements).is_zero
    for g in ideal.generators:
        assert normal_form(g, gb.elements).is_zero


def test_determinism():
    ideal = _ideal(ABCD, *U2_ENTRIES)
    first = buchberger(ideal)
    second = buchberger(ideal)
    assert first.elements == second.elements


def test_gb_elements_monic_reduced_homogeneous():
    gb = buchberger(_ideal(ABCD, *U2_ENTRIES))
    lts = [g.leading_monomial() for g in gb.elements]
    for idx, g in enumerate(gb.elements):
        assert g.terms[0][1] == 1
        assert g.is_homogeneous()
        for mono, _ in g.terms:
            for k, lt in enumerate(lts):
                if k != idx:
                    assert not mono_divides(lt, mono)


def test_non_unit_leading_coefficients_stay_exact():
    ctx = VariableContext(("x", "y", "z"))
    gb = buchberger(_ideal(ctx, "3*x^2 - 2*y^2", "2*x*y - 7*z^2"))
    expected = ("x*y - 7/2*z^2", "x^2 - 2/3*y^2", "y^3 - 21/4*x*z^2")
    assert gb.elements == tuple(ctx.parse(t) for t in expected)
    nf = normal_form(ctx.parse("x^3 + y^3 + z^3"), gb.elements)
    assert nf == ctx.parse("21/4*x*z^2 + 7/3*y*z^2 + z^3")
    spoly = s_polynomial(ctx.parse("2*x^2 - 3*y^2"), ctx.parse("x*y - 3*z^2"))
    for p in gb.elements + (nf, spoly):
        assert all(type(c) is (int if c.denominator == 1 else Fraction) for _, c in p.terms)


@pytest.mark.parametrize("lc,coeffs,tail", [
    (-1, (4, -6), (-4, 6)),                         # divided in ints
    (-2, (4, -6), (-2, 3)),
    (2, (4, 3), (2, Fraction(3, 2))),               # an odd coefficient leaves a Fraction
    (2, (Fraction(1, 3), 4), (Fraction(1, 6), 2)),
    (Fraction(2, 3), (4, 1), (6, Fraction(3, 2)))])
def test_monic_entry_is_exact_and_ints_stay_ints(lc, coeffs, tail):
    lt, got = groebner._entry(9, lc, [(9, lc), (5, coeffs[0]), (2, coeffs[1])])
    assert lt == 9 and got == ((5, tail[0]), (2, tail[1]))
    assert [type(c) for _, c in got] == [type(c) for c in tail]


def test_inhomogeneous_generator_rejected():
    with pytest.raises(ValueError):
        _ideal(XY, "x^2 - y")
    with pytest.raises(ValueError):
        _ideal(XY, "0")


def test_timeout_limit():
    from symtensor.catalog import grassmannian_ideal
    with pytest.raises(LimitExceeded) as info:
        buchberger(grassmannian_ideal(2, 4), limits=GroebnerLimits(timeout=1e-9))
    assert info.value.elapsed >= 0
    assert info.value.pairs_processed >= 0


def test_degree_cap_limit():
    with pytest.raises(LimitExceeded) as info:
        buchberger(_ideal(ABCD, *U2_ENTRIES), limits=GroebnerLimits(max_degree=2))
    assert info.value.max_degree_reached <= 2


def test_degree_cap_applies_to_reduced_pairs_only():
    # the only pair is coprime, so it is dropped before any reduction and a cap
    # below its lcm degree never fires
    gb = buchberger(_ideal(XY, "x^2", "y^2"), limits=GroebnerLimits(max_degree=2))
    assert set(gb.elements) == {XY.parse("x^2"), XY.parse("y^2")}


def test_timeout_checked_per_inserted_element():
    # no pair is ever queued here, so only the check at insertion can fire
    with pytest.raises(LimitExceeded) as info:
        buchberger(_ideal(XY, "x^2", "y^2"), limits=GroebnerLimits(timeout=1e-9))
    assert info.value.pairs_processed == 0


def test_timeout_checked_while_a_degree_is_built(monkeypatch):
    # the clock runs out at the start of the first build, so only a check
    # inside the build can fire before the build returns
    clock = [0.0]
    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    real_build = groebner._PairQueue.build

    def expiring(queue, deg, tick):
        clock[0] = 10.0
        real_build(queue, deg, tick)
        raise AssertionError("the build ran to its end past the timeout")

    monkeypatch.setattr(groebner._PairQueue, "build", expiring)
    with pytest.raises(LimitExceeded) as info:
        buchberger(grassmannian_ideal(2, 4), limits=GroebnerLimits(timeout=1.0))
    assert info.value.pairs_processed == 0 and info.value.elapsed == 10.0


@pytest.mark.parametrize("kwargs", [
    {"timeout": float("nan")}, {"timeout": 0}, {"timeout": -1.0}, {"timeout": "3"},
    {"timeout": True}, {"max_degree": float("nan")}, {"max_degree": "3"},
    {"max_degree": -1}, {"max_degree": 2.0}, {"max_degree": True},
], ids=repr)
def test_limits_refuse_values_that_would_switch_a_limit_off(kwargs):
    with pytest.raises(ValueError):
        GroebnerLimits(**kwargs)


def test_limits_accept_every_budget_they_can_apply():
    assert GroebnerLimits(max_degree=0, timeout=float("inf")) == GroebnerLimits(0, float("inf"))
    assert GroebnerLimits(max_degree=12, timeout=300) == GroebnerLimits(12, 300.0)
    assert GroebnerLimits() == GroebnerLimits(None, None)


# -- differential check of the pair criteria ------------------------------------


def _plain_entry(lt, lc, terms):
    """Monic (lt, tail) with every coefficient a Fraction; the division is Fraction / Fraction."""
    lc = Fraction(lc)
    return lt, tuple((m, Fraction(c) / lc) for m, c in terms if m != lt)


def _plain_spoly(entry_f, entry_g):
    """S-polynomial of two monic entries; the shared leading term cancels."""
    (ltf, tailf), (ltg, tailg) = entry_f, entry_g
    lcm = tuple(map(max, ltf, ltg))
    d = {}
    for lt, tail, sign in ((ltf, tailf, 1), (ltg, tailg, -1)):
        q = tuple(a - b for a, b in zip(lcm, lt))
        for m, c in tail:
            nm = tuple(a + b for a, b in zip(q, m))
            d[nm] = d.get(nm, Fraction(0)) + sign * c
    return {m: c for m, c in d.items() if c}


def _naive_reduce(d, entries, key=degrevlex_key):
    """Division by the first entry whose leading monomial divides, largest term first."""
    d, out = dict(d), {}
    while d:
        m = max(d, key=key)
        c = d.pop(m)
        for lt, tail in entries:
            if all(x <= y for x, y in zip(lt, m)):
                q = tuple(y - x for x, y in zip(lt, m))
                for tm, tc in tail:
                    nm = tuple(a + b for a, b in zip(q, tm))
                    d[nm] = d.get(nm, Fraction(0)) - c * tc
                    if not d[nm]:
                        del d[nm]
                break
        else:
            out[m] = c
    return out


def _plain_reduced(ctx, entries, key):
    """The reduced basis: minimal leading monomials, each tail reduced by the others."""
    minimal = []
    for lt, tail in sorted(entries, key=lambda e: key(e[0])):
        if not any(all(x <= y for x, y in zip(m, lt)) for m, _ in minimal):
            minimal.append((lt, tail))
    out = []
    for k, (lt, tail) in enumerate(minimal):
        reduced = _naive_reduce(dict(tail), minimal[:k] + minimal[k + 1:], key)
        reduced[lt] = Fraction(1)
        out.append(ctx.poly(reduced))
    return tuple(out)


def _lead_entry(p, key):
    """The monic reference entry of p, led by its largest monomial under ``key``."""
    terms = dict(p.terms)
    lt = max(terms, key=key)
    return _plain_entry(lt, terms[lt], terms.items())


def _plain_buchberger(ideal, key=degrevlex_key):
    """Every S-pair reduced, lowest lcm degree first, with no criteria, over Fractions
    only; shares no helper with the engine.  ``key`` sorts monomials: ``degrevlex_key``,
    or ``tuple`` for lex, which the engine does not offer."""
    entries = []
    pairs = []

    def add(entry):
        for k, (lt, _) in enumerate(entries):
            heapq.heappush(pairs, (sum(map(max, lt, entry[0])), k, len(entries)))
        entries.append(entry)

    for g in ideal.generators:
        add(_lead_entry(g, key))
    while pairs:
        _, i, j = heapq.heappop(pairs)
        h = _naive_reduce(_plain_spoly(entries[i], entries[j]), entries, key)
        if h:
            lt = max(h, key=key)
            add(_plain_entry(lt, h[lt], h.items()))
    return _plain_reduced(ideal.ctx, entries, key)


def _random_ideal(seed):
    rng = random.Random(seed)
    nvars = rng.randint(3, 5)
    ctx = VariableContext(tuple("xyzuv"[:nvars]))
    gens = []
    for _ in range(rng.randint(2, 4)):
        deg = rng.randint(2, 3) if nvars < 5 else 2
        terms = {}
        for _ in range(rng.randint(2, 3)):
            mono = [0] * nvars
            for _ in range(deg):
                mono[rng.randrange(nvars)] += 1
            terms[tuple(mono)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
        gens.append(ctx.poly(terms))
    gens = [g for g in gens if not g.is_zero]
    if rng.random() < 0.3:
        gens.append(gens[0] * ctx.parse(ctx.names[-1]))  # a redundant generator
    return IdealPresentation(ctx, tuple(gens))


def _check_against_plain(ideal, key):
    """Under degrevlex the engine's reduced basis is the reference's.  Under lex the
    reference basis differs, but it generates the same ideal, and for a homogeneous
    ideal the two initial ideals have the same Hilbert series."""
    gb = buchberger(ideal)
    plain = _plain_buchberger(ideal, key)
    if key is degrevlex_key:
        assert gb.elements == plain
        return
    assert all(normal_form(q, gb.elements).is_zero for q in plain)
    entries = [_lead_entry(q, key) for q in plain]
    assert all(not _naive_reduce(dict(g.terms), entries, key) for g in gb.elements)
    plain_lt = MonomialIdeal.from_generators(ideal.ctx.nvars, [lt for lt, _ in entries])
    assert (series_from_monomial_ideal(plain_lt)
            == series_from_monomial_ideal(leading_term_ideal(gb)))


@pytest.mark.parametrize("seed,key", [
    *(pytest.param(s, degrevlex_key, id=f"{s}-degrevlex") for s in range(80)),
    *(pytest.param(s, tuple, id=f"{s}-lex") for s in range(40)),
])
def test_criteria_match_plain_buchberger(seed, key):
    _check_against_plain(_random_ideal(seed), key)


@pytest.mark.parametrize("key", [degrevlex_key, tuple], ids=["degrevlex", "lex"])
@pytest.mark.parametrize("texts", [
    ("x^2", "y^2", "z^2"),                      # coprime leading monomials only
    ("x*y - z^2", "x*y - z^2", "x*z"),          # duplicate generators
    ("x + y", "x^2 + y*z", "x*y"),              # leading monomial of a later input divisible
    ("x^2 - y*z", "x*y - z^2", "y^2 - x*z"),    # twisted-cubic-like
    ("3*x^2 - 2*y^2", "2*x*y - 7*z^2"),         # non-unit leading coefficients
])
def test_criteria_match_plain_buchberger_corner_cases(texts, key):
    _check_against_plain(_ideal(VariableContext(("x", "y", "z")), *texts), key)


# -- the reducer entries normal_form keeps for its last basis -----------------


def _fresh_normal_form(p, basis):
    """The first-divisor remainder, from the tuple reference above alone."""
    entries = [_lead_entry(b, degrevlex_key) for b in basis if not b.is_zero]
    return p.ctx.poly(_naive_reduce(dict(p.terms), entries))


def test_normal_form_interleaved_bases():
    a = [XY.parse("x - y^2")]
    b = [XY.parse("x^2 - y")]
    c = [XY.parse("y^2 - x")]
    x, x3, y3 = XY.parse("x"), XY.parse("x^3"), XY.parse("y^3")
    assert normal_form(x, a) == x
    assert normal_form(x3, b) == XY.parse("x*y")
    assert normal_form(x, a) == x
    assert normal_form(y3, c) == XY.parse("x*y")
    assert normal_form(x3, b) == XY.parse("x*y")
    assert normal_form(x, a) == x


def test_normal_form_reuses_an_equal_basis():
    basis = [XY.parse("x - y^2"), XY.parse("x*y")]
    normal_form(XY.parse("x"), basis)
    kept = groebner._last_basis
    normal_form(XY.parse("y^3"), tuple(basis))
    assert groebner._last_basis is kept
    normal_form(XY.parse("y^3"), [XY.parse("x - y^2"), XY.parse("x*y")])
    assert groebner._last_basis is kept
    normal_form(XY.parse("y^3"), [XY.parse("x*y"), XY.parse("x - y^2")])
    assert groebner._last_basis is not kept


def test_normal_form_sees_a_list_mutated_in_place():
    basis = [XY.parse("x")]
    p = XY.parse("x^2 + y")
    assert normal_form(p, basis) == XY.parse("y")
    basis[0] = XY.parse("y")
    assert normal_form(p, basis) == XY.parse("x^2")


@pytest.mark.parametrize("text", ["Gr(2,4)", "Q(3)"])
def test_normal_form_matches_fresh_reducers(text):
    presentation = ideal_presentation_for(parse_spec(text))
    ctx = presentation.ctx
    elements = buchberger(presentation).elements
    leads = [g.leading_monomial() for g in elements]
    standard = [m for m, _ in (ctx.parse(f"{u}*{v}").terms[0]
                               for u in ctx.names for v in ctx.names)
                if not any(mono_divides(lt, m) for lt in leads)]
    probe = ctx.poly({standard[0]: 3})
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            s = s_polynomial(elements[i], elements[j])
            for p in (s, s + probe):
                assert normal_form(p, elements) == _fresh_normal_form(p, elements)
            assert normal_form(s + probe, elements) == probe
    for g in presentation.generators:
        assert normal_form(g, elements) == _fresh_normal_form(g, elements)


def _failing_once(build):
    """A stand-in for Polynomial.from_keys whose first call raises RuntimeError."""
    calls = []

    def failing(ctx, pk, acc):
        calls.append(acc)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return build(ctx, pk, acc)

    return staticmethod(failing)


def test_normal_form_recovers_from_a_failed_call(monkeypatch):
    basis = [XY.parse("x - y^2"), XY.parse("x*y")]
    p = XY.parse("x^3 + x*y^2 + y^5")
    want = _fresh_normal_form(p, basis)
    assert normal_form(p, basis) == want
    monkeypatch.setattr(Polynomial, "from_keys", _failing_once(Polynomial.from_keys))
    with pytest.raises(RuntimeError):
        normal_form(p, basis)
    assert normal_form(p, basis) == want
    monkeypatch.undo()
    with pytest.raises(TypeError):
        normal_form(p, [basis[0], "junk"])
    assert normal_form(p, basis) == want


def _monomial(variables, nvars):
    return tuple(variables.count(v) for v in range(nvars))


def test_the_kept_memo_is_cleared_past_its_cap(monkeypatch):
    # a memo past the cap is emptied after the call: incomplete, never wrong
    monkeypatch.setattr(groebner, "MEMO_CAP", 64)
    presentation = ideal_presentation_for(parse_spec("Gr(2,5)"))
    ctx, rng = presentation.ctx, random.Random(38)
    elements = buchberger(presentation).elements
    cleared, last = 0, 0
    for _ in range(200):
        p = ctx.poly({_monomial(rng.choices(range(ctx.nvars), k=3), ctx.nvars):
                      rng.randint(-3, 3) for _ in range(4)})
        assert normal_form(p, elements) == _fresh_normal_form(p, elements)
        memo = groebner._last_basis[2].memo
        assert len(memo) <= 64
        cleared += len(memo) < last
        last = len(memo)
    assert cleared


# -- the first-divisor index ----------------------------------------------------------


def _scan_first_divisor(leads, m):
    """The first index in insertion order whose leading monomial divides m, or None."""
    return next((k for k, lead in enumerate(leads) if mono_divides(lead, m)), None)


@pytest.mark.parametrize("seed", range(60))
def test_first_divisor_matches_a_linear_scan(seed):
    rng = random.Random(seed)
    nvars = 1 + seed % 8
    pk = Packing(nvars, 12)
    red = groebner._Reducers(pk)
    # a constant leading monomial first, late or never
    unit_at = (0, rng.randint(5, 30), None)[seed % 3]
    leads = []

    def monomial(top):
        return tuple(rng.randint(0, top) if rng.random() < 0.6 else 0 for _ in range(nvars))

    # lookups repeat on one pool, so a miss leaves ~k and a later lookup resumes at k
    pool = [monomial(4) for _ in range(40)]
    resumed = 0
    for step in range(36):
        lead = (0,) * nvars if step == unit_at else monomial(3)
        if not any(lead) and step != unit_at:
            continue
        red.add(pk.pack(lead), ())
        leads.append(lead)
        for m in pool + [monomial(4) for _ in range(5)]:
            memo = red.memo.get(pk.pack(m), -1)
            found = red.first_divisor(pk.pack(m))
            assert found == _scan_first_divisor(leads, m), (seed, leads, m)
            resumed += memo < -1 and found is not None
    assert resumed or unit_at == 0
    wider = Packing(nvars, 200)
    red.repack(wider)
    assert wider.width == 16
    for m in pool + [monomial(150 // nvars) for _ in range(20)]:
        assert red.first_divisor(wider.pack(m)) == _scan_first_divisor(leads, m)


# -- packed monomials: fields wider than the first width ---------------------------


XYZ = VariableContext(("x", "y", "z"))


@pytest.mark.parametrize("texts,expected", [
    (("x^300 - y^300", "x*y"), ("x^300 - y^300", "x*y", "y^301")),
    (("x^200*y - z^201", "x*z"), ("x^200*y - z^201", "x*z", "z^202")),
    # generators fit 8-bit fields, but the first pair's lcm x^100*y^60 does not
    (("x^100 - y^100", "x^60*y^60"), ("x^100 - y^100", "x^60*y^60", "y^160")),
], ids=["x300", "x200y", "repack"])
def test_buchberger_with_large_exponents(texts, expected):
    gb = buchberger(_ideal(XYZ, *texts))
    assert set(gb.elements) == {XYZ.parse(t) for t in expected}
    assert len(gb.elements) == len(expected)


def test_buchberger_repacks_before_a_wide_pair(monkeypatch):
    repacks = []
    real_repack = groebner._Reducers.repack

    def counting(red, pk):
        repacks.append(pk.cap)
        real_repack(red, pk)

    monkeypatch.setattr(groebner._Reducers, "repack", counting)
    gb = buchberger(_ideal(XY, "x^100 - y^100", "x^60*y^60"))
    assert repacks and min(repacks) >= 160
    assert XY.parse("y^160") in gb.elements


def test_buchberger_widens_only_past_the_field_capacity(monkeypatch):
    # 8-bit fields hold degree 127: the pair of lcm x^100*y^27 (degree 127)
    # is reduced in them, and the first wider layout comes with x^27*y^127
    bounds = []
    real_packing = groebner.Packing

    def recording(nvars, bound):
        bounds.append(bound)
        return real_packing(nvars, bound)

    monkeypatch.setattr(groebner, "Packing", recording)
    gb = buchberger(_ideal(XY, "x^100 - y^100", "x^27*y^27"))
    assert bounds == [100, 154]
    assert real_packing(2, 100).cap == 127
    assert XY.parse("y^127") in gb.elements


def test_normal_form_widens_a_cached_layout():
    # the kept layout of a basis packed for degree 2 holds no degree-300 term
    line = [XY.parse("x - y")]
    assert normal_form(XY.parse("x^2"), line) == XY.parse("y^2")
    assert normal_form(XY.parse("x^300 + y"), line) == XY.parse("y^300 + y")
    assert groebner._last_basis[2].pk.cap >= 300
    chain = [XYZ.parse("x - y"), XYZ.parse("y - z")]
    assert normal_form(XYZ.parse("x*y"), chain) == XYZ.parse("z^2")
    assert normal_form(XYZ.parse("x^200*y^100 + x*z"), chain) == XYZ.parse("z^300 + z^2")


def test_a_failed_call_leaves_the_kept_reducers_true(monkeypatch):
    # the kept reducers never grow, so a call that fails once reduction has
    # filled their memo leaves every memo entry true
    elements = buchberger(_ideal(XYZ, "x^2 - y*z", "x*y - z^2")).elements
    a, b = XYZ.parse("x + 2*y - z"), XYZ.parse("3*x - y + z")
    probes = [a * a * a * a * a, a * a * a * b * b * b, b * b * b * b * b * b * b]
    normal_form(probes[0], elements)
    kept = groebner._last_basis
    red = kept[2]
    filled = len(red.memo)
    # normal_form builds its result once the reduction has filled the memo
    monkeypatch.setattr(Polynomial, "from_keys", _failing_once(Polynomial.from_keys))
    with pytest.raises(RuntimeError):
        normal_form(probes[1], elements)
    monkeypatch.undo()
    assert groebner._last_basis is kept and len(red.memo) > filled
    leads = [g.leading_monomial() for g in elements]
    for m, k in red.memo.items():
        m = red.pk.unpack(m)
        assert _scan_first_divisor(leads, m) == (k if k >= 0 else None)
    for p in probes:
        assert normal_form(p, elements) == _fresh_normal_form(p, elements)
    assert groebner._last_basis is kept
    # past the field capacity a new set is built, with a memo of this call's
    # degree-300 lookups alone
    wide = XYZ.parse("x^300 + x^2*y^298")
    assert normal_form(wide, elements) == _fresh_normal_form(wide, elements)
    red = groebner._last_basis[2]
    assert red is not kept[2] and red.pk.cap >= 300 and red.memo
    assert all(sum(red.pk.unpack(m)) == 300 for m in red.memo)


def test_s_polynomial_with_large_exponents():
    s = s_polynomial(XY.parse("x^200 - y^200"), XY.parse("x*y^150 - y^151"))
    assert s == XY.parse("x^199*y^151 - y^350")


@pytest.mark.parametrize("cap,pairs,degree,size", [(2, 8, 2, 43), (3, 71, 3, 45)])
def test_degree_capped_grassmannian_counters(cap, pairs, degree, size):
    from symtensor.catalog import grassmannian_ideal
    with pytest.raises(LimitExceeded) as info:
        buchberger(grassmannian_ideal(2, 4), limits=GroebnerLimits(max_degree=cap))
    assert (info.value.pairs_processed, info.value.max_degree_reached,
            info.value.basis_size) == (pairs, degree, size)


# -- Hilbert-driven runs --------------------------------------------------------


def _digest(gb):
    return hashlib.sha256("\n".join(p.render() for p in gb.elements).encode()).hexdigest()


def _shifted(series, k, sign):
    """series + sign * t^k as a rational function over the same denominator."""
    den = [1]
    for w in series.den_weights:
        den = listpoly.mul(den, listpoly.one_minus_power(w))
    num = list(series.numerator) + [0] * (k + len(den) - len(series.numerator))
    for i, c in enumerate(den):
        num[i + k] += sign * c
    return HilbertSeries(tuple(num), series.den_weights)


DRIVEN_CASES = [(grassmannian_ideal, grassmannian_series, (r, n))
                for n in range(2, 6) for r in range(1, n)] + [
    (quadric_ideal, quadric_series, (n,)) for n in range(1, 7)]


@pytest.mark.parametrize("ideal,form,args", DRIVEN_CASES,
                         ids=[f"{i.__name__}{a}" for i, _, a in DRIVEN_CASES])
def test_driven_basis_equals_undriven(ideal, form, args):
    presentation = ideal(*args)
    driven, undriven = buchberger(presentation, bound=form(*args)), buchberger(presentation)
    assert _digest(driven) == _digest(undriven)
    # the driven run returns its lead ideal's series; the undriven run has none
    lead = series_from_monomial_ideal(leading_term_ideal(driven))
    assert (driven.series.numerator, driven.series.den_weights) == (
        lead.numerator, lead.den_weights)
    assert undriven.series is None
    assert driven == undriven and hash(driven) == hash(undriven)


@pytest.mark.parametrize("ideal,form,args", [(quadric_ideal, quadric_series, (3,)),
                                             (grassmannian_ideal, grassmannian_series, (1, 4))])
def test_inputs_that_are_a_basis_reach_no_s_polynomial(monkeypatch, ideal, form, args):
    calls = []
    original = groebner._spoly_dict
    monkeypatch.setattr(groebner, "_spoly_dict", lambda *a: calls.append(a) or original(*a))
    buchberger(ideal(*args), bound=form(*args))
    assert not calls


# S-polynomials reduced (driven, undriven): the reduced bases do not depend on
# which zero reductions the pair criteria skip, so only these counts catch a
# wrong deletion rule
REDUCED_PAIRS = [(grassmannian_ideal, grassmannian_series, (1, 4), 0, 188),
                 (grassmannian_ideal, grassmannian_series, (2, 4), 71, 112),
                 (grassmannian_ideal, grassmannian_series, (3, 4), 0, 188),
                 (grassmannian_ideal, grassmannian_series, (1, 5), 0, 845),
                 (grassmannian_ideal, grassmannian_series, (2, 5), 157, 691),
                 (quadric_ideal, quadric_series, (4,), 0, 35),
                 (quadric_ideal, quadric_series, (5,), 0, 140)]


@pytest.mark.parametrize("ideal,form,args,driven,undriven", REDUCED_PAIRS,
                         ids=[f"{i.__name__}{a}" for i, _, a, _, _ in REDUCED_PAIRS])
def test_reduced_pair_counts(monkeypatch, ideal, form, args, driven, undriven):
    calls = []
    original = groebner._spoly_dict
    monkeypatch.setattr(groebner, "_spoly_dict", lambda *a: calls.append(a) or original(*a))
    buchberger(ideal(*args), bound=form(*args))
    after_driven = len(calls)
    buchberger(ideal(*args))
    assert (after_driven, len(calls) - after_driven) == (driven, undriven)


def test_bound_too_high_is_caught_only_against_the_undriven_basis():
    presentation, bound = grassmannian_ideal(2, 5), grassmannian_series(2, 5)
    undriven = _digest(buchberger(presentation))
    # one extra degree-4 monomial: the lead ideal's count falls short of it
    with pytest.raises(IntegrityError):
        buchberger(presentation, bound=_shifted(bound, 4, 1))
    # one extra in degree 3: the deficit closes a reduction early, and a wrong
    # basis comes back with no error, so no driven run may check a bound
    assert _digest(buchberger(presentation, bound=_shifted(bound, 3, 1))) != undriven


@pytest.mark.parametrize("k", [2, 3, 4])
def test_bound_lowered_by_one_gives_the_undriven_basis(k):
    presentation, bound = grassmannian_ideal(2, 5), grassmannian_series(2, 5)
    lowered = buchberger(presentation, bound=_shifted(bound, k, -1))
    assert _digest(lowered) == _digest(buchberger(presentation))


def test_driven_run_keeps_the_timeout():
    with pytest.raises(LimitExceeded):
        buchberger(grassmannian_ideal(2, 5), limits=GroebnerLimits(timeout=1e-9),
                   bound=grassmannian_series(2, 5))


def test_degree_cap_counts_only_reduced_pairs_of_a_driven_run():
    presentation, limits = quadric_ideal(3), GroebnerLimits(max_degree=2)
    with pytest.raises(LimitExceeded):
        buchberger(presentation, limits=limits)
    driven = buchberger(presentation, limits=limits, bound=quadric_series(3))
    assert _digest(driven) == _digest(buchberger(presentation))


# -- pairs built by degree against the eager update ------------------------------


class _EagerQueue(groebner._PairQueue):
    """Reference pair queue: the M and F criteria run over all of h's candidates
    when h is inserted, and the survivors wait until the engine builds their
    degree.  ``survivors`` holds every pair the eager update would have queued."""

    def __init__(self, red):
        super().__init__(red)
        self.survivors = set()

    def update(self, h):
        pk, exps = self.red.pk, self.red.exps
        lcm_of, degree, guards = pk.lcm, pk.degree, pk.guards
        e_h = exps[h]
        deg_h = degree(e_h)
        active = self.active()
        candidates = []
        for g in active:
            lcm = lcm_of(exps[g], e_h)
            over_h = lcm - e_h
            candidates.append((deg_h + degree(over_h), g, lcm, over_h == exps[g]))
        candidates.sort()
        kept = []
        for deg, g, lcm, coprime in candidates:
            for k in kept:
                if not (lcm - k) & guards:
                    break
            else:
                kept.append(lcm)
                if not coprime:
                    self.pending.setdefault(deg, []).append((deg, g, h))
                    self.survivors.add((deg, g, h))
        for g in active:
            if not (exps[g] - e_h) & guards:
                self.removed[g] = h
        self.removed.append(groebner._NEVER)

    def build(self, deg, tick):
        for pair in self.pending.pop(deg):
            heapq.heappush(self.heap, pair)


def _pair_run(monkeypatch, presentation, bound=None, reference=False):
    """(pairs queued, pairs popped in order, basis digest, pair queue) of one
    run; with ``reference``, the pairs queued are the eager update's survivors."""
    pushed, popped, queues = set(), [], []
    queue_class = _EagerQueue if reference else groebner._PairQueue

    def push(heap, item):
        if type(item) is tuple:
            pushed.add(item)
        heapq.heappush(heap, item)

    def pop(heap):
        item = heapq.heappop(heap)
        if type(item) is tuple:
            popped.append(item)
        return item

    def make(red):
        queues.append(queue_class(red))
        return queues[-1]

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "heapq",
                      SimpleNamespace(heapify=heapq.heapify, heappush=push, heappop=pop))
        patch.setattr(groebner, "_PairQueue", make)
        gb = buchberger(presentation, bound=bound)
    return (queues[0].survivors if reference else pushed), popped, _digest(gb), queues[0]


def _check_against_eager(monkeypatch, presentation, bound):
    """The engine pops the reference's pairs in the reference's order; undriven
    it queues the same pairs, driven a subset.  Returns the pairs it queued and
    its pair queue."""
    pushed, popped, digest, queue = _pair_run(monkeypatch, presentation, bound)
    eager = _pair_run(monkeypatch, presentation, bound, reference=True)
    assert (popped, digest) == eager[1:3]
    if bound is None:
        assert pushed == eager[0]
    else:
        assert pushed <= eager[0]
    return pushed, queue


@pytest.mark.parametrize("seed", range(40))
def test_pairs_by_degree_match_the_eager_update(monkeypatch, seed):
    presentation = _random_ideal(seed)
    _check_against_eager(monkeypatch, presentation, None)
    exact = series_from_monomial_ideal(leading_term_ideal(buchberger(presentation)))
    _check_against_eager(monkeypatch, presentation, exact)


def test_pairs_by_degree_match_the_eager_update_across_a_repacking(monkeypatch):
    # the inputs fit 8-bit fields, but the lcm x^100*y^60 of the first two does
    # not; the third's candidate with the first (degree 110) is built before the
    # widening at 160 and with the second (degree 165) after it, where the M
    # criterion must find the first's lcm x^100*y^5*z^5 in the 16-bit layout
    presentation = _ideal(XYZ, "x^100 - y^100", "x^60*y^60", "x^100*y^5*z^5 - x^90*y^5*z^15")
    widths, real_build = [], groebner._PairQueue.build

    def recording(queue, deg, tick):
        widths.append((deg, queue.red.pk.width))
        real_build(queue, deg, tick)

    monkeypatch.setattr(groebner._PairQueue, "build", recording)
    _check_against_eager(monkeypatch, presentation, None)
    assert (110, 8) in widths and (165, 16) in widths
    exact = series_from_monomial_ideal(leading_term_ideal(buchberger(presentation)))
    _check_against_eager(monkeypatch, presentation, exact)


@pytest.mark.parametrize("driven", [False, True], ids=["undriven", "driven"])
def test_pairs_by_degree_match_the_eager_update_on_gr_2_5(monkeypatch, driven):
    pushed, queue = _check_against_eager(monkeypatch, grassmannian_ideal(2, 5),
                                         grassmannian_series(2, 5) if driven else None)
    # the eager update queued 757 pairs, driven or not; a driven run builds
    # degree 3 and stops when degree 4 comes due, before the entries whose
    # lcms start at degree 4 are scanned
    assert len(pushed) == (193 if driven else 757)
    # records (h, None) are the unscanned entries; degree 4 also holds the
    # candidates that the degree-3 scans filed there
    unscanned = {d for d, records in queue.pending.items()
                 if any(gs is None for _, gs in records)}
    least = 4 if driven else None
    assert min(queue.pending, default=None) == min(unscanned, default=None) == least
