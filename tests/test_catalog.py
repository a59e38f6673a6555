import dataclasses
import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import listpoly
from symtensor import catalog
from symtensor.catalog import (check_dimension_bounds, evaluate, grassmannian_ideal,
                               groebner_route, ideal_presentation_for, klein_row,
                               parse_spec, projective_space_dims, projective_space_series,
                               quadric_ideal)
from symtensor.errors import IntegrityError, SpecParseError
from symtensor.hilbert import HilbertSeries


# -- projective space ---------------------------------------------------------


def test_projective_space_dims_examples():
    assert projective_space_dims(1, 6) == (1, 3, 5, 7, 9, 11, 13)
    assert projective_space_dims(2, 1)[1] == 8
    for n in (1, 2, 3, 5):
        assert projective_space_dims(n, 0) == (1,)


def test_projective_space_series_matches_closed_form():
    for n in range(1, 5):
        series = projective_space_series(n)
        assert series.expand(10) == projective_space_dims(n, 10)
        assert series.krull_dim() == 2 * n


# -- grassmannians -------------------------------------------------------------


def test_grassmannian_ideal_contents_rank_one():
    pres = grassmannian_ideal(1, 2)
    assert pres.ctx.nvars == 4
    rendered = {g.render() for g in pres.generators}
    assert "u11 + u22" in rendered                      # trace
    assert pres.ctx.parse("u11*u22 - u12*u21") in pres.generators  # determinant
    # 4 entries of u*u, trace, det; duplicates removed
    assert len(pres.generators) == 6


def test_grassmannian_out_of_range():
    # the Gr rules are the one range check; grassmannian_ideal trusts its spec
    with pytest.raises(SpecParseError):
        parse_spec("Gr(0,2)")
    with pytest.raises(SpecParseError):
        parse_spec("Gr(2,2)")


@pytest.mark.parametrize("n,depth", [(2, 8), (3, 6)])
def test_rank_one_route_equals_projective_closed_form(n, depth):
    _, series = groebner_route(grassmannian_ideal(1, n))
    assert series.expand(depth) == projective_space_dims(n - 1, depth)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_rank_one_route_is_the_projective_series(n):
    _, series = groebner_route(grassmannian_ideal(1, n))
    assert series == projective_space_series(n - 1)


def test_grassmannian_2_4_flags_and_char_coefficients():
    pres = grassmannian_ideal(2, 4)
    assert pres.ctx.nvars == 16
    degrees = sorted({g.degree() for g in pres.generators})
    assert degrees == [1, 2, 3, 4]     # trace .. determinant plus quadrics/cubics
    spec = parse_spec("Gr(2,4)")
    report = evaluate(spec, max_degree=4)
    assert report.krull == 8
    assert "radicality-assumed" in report.flags
    # an ideal and its radical have the same Krull dimension, so it witnesses nothing
    assert "witness" not in report.provenance
    assert report.provenance.endswith("radicality assumed for rank bound >= 2")


def _cofactor_det(rows):
    """Reference determinant of a square list-of-lists of polynomials by cofactors."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    total = rows[0][0].ctx.poly({})
    for j in range(size):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _reference_grassmannian_generators(r, n):
    """grassmannian_ideal's generators built by Polynomial arithmetic and cofactors."""
    ctx = grassmannian_ideal(r, n).ctx
    u = [[ctx.parse(f"u{i}{j}") for j in range(1, n + 1)] for i in range(1, n + 1)]
    gens = []
    for i in range(n):
        for j in range(n):
            gens.append(sum((u[i][k] * u[k][j] for k in range(n)), ctx.poly({})))
    for k in range(1, n + 1):
        gens.append(sum((_cofactor_det([[u[i][j] for j in subset] for i in subset])
                         for subset in itertools.combinations(range(n), k)), ctx.poly({})))
    m = min(r, n - r)
    for rows in itertools.combinations(range(n), m + 1):
        for cols in itertools.combinations(range(n), m + 1):
            gens.append(_cofactor_det([[u[i][j] for j in cols] for i in rows]))
    out, seen = [], set()
    for g in gens:  # keep the first of the generators equal up to scale
        key = g.scale(Fraction(1) / g.terms[0][1]).terms
        if key not in seen:
            seen.add(key)
            out.append(g)
    return tuple(out)


@pytest.mark.parametrize("r,n", [(r, n) for n in range(2, 6) for r in range(1, n)])
def test_grassmannian_generators_match_cofactor_reference(r, n):
    assert grassmannian_ideal(r, n).generators == _reference_grassmannian_generators(r, n)


def test_grassmannian_3_6_generators_digest():
    # SHA-256 of the ideal-dump lines of Gr(3,6), as built by cofactor expansion
    gens = grassmannian_ideal(3, 6).generators
    text = "\n".join(g.render(lex=True) for g in gens)
    assert len(gens) == 267
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "418474c7c9a11c8c901384c6da82d2da5b958b944a206bfe0a6affe8859bfdad"


# -- quadrics --------------------------------------------------------------------


def test_quadric_ideal_small():
    pres = quadric_ideal(1)
    assert pres.ctx.names == ("p12", "p13", "p23")
    assert [g.render() for g in pres.generators] == ["p12^2 + p13^2 + p23^2"]
    _, series = groebner_route(pres)
    assert series.expand(8) == tuple(2 * d + 1 for d in range(9))
    assert series == HilbertSeries((1, 1), (1, 1))


def test_quadric_two_matches_kunneth():
    _, series = groebner_route(quadric_ideal(2))
    line = projective_space_series(1)
    assert series.expand(8) == (line * line).expand(8)
    assert series == line * line


def test_klein_quadric_is_grassmannian_2_4():
    _, quadric = groebner_route(quadric_ideal(4))
    _, grassmannian = groebner_route(grassmannian_ideal(2, 4))
    assert quadric == grassmannian


def test_quadric_three_krull():
    _, series = groebner_route(quadric_ideal(3))
    assert series.krull_dim() == 6


def test_quadric_plucker_relation_count():
    pres = quadric_ideal(3)             # dim V = 5: C(5,4) = 5 exchange relations
    assert len(pres.generators) == 6
    assert pres.ctx.nvars == 10


def test_induced_quadric_identity_on_decomposable_bivectors():
    """sum_{i<j} (v_i w_j - v_j w_i)^2 == |v|^2 |w|^2 - (v.w)^2 for q = sum x^2."""
    rng = random.Random(4)
    for _ in range(100):
        dim = rng.randint(2, 6)
        v = [rng.randint(-5, 5) for _ in range(dim)]
        w = [rng.randint(-5, 5) for _ in range(dim)]
        lhs = sum((v[i] * w[j] - v[j] * w[i]) ** 2
                  for i in range(dim) for j in range(i + 1, dim))
        rhs = sum(x * x for x in v) * sum(x * x for x in w) \
            - sum(a * b for a, b in zip(v, w)) ** 2
        assert lhs == rhs


# -- closed-form families ----------------------------------------------------------


def served(text):
    """The report the CLI serves for a spec."""
    return evaluate(parse_spec(text))


def test_two_quadrics_series_examples():
    assert served("2Q(3)").series.expand(4) == (1, 0, 3, 0, 6)
    assert served("2Q(1)").series.expand(4) == (1, 0, 1, 0, 1)
    for n in (1, 2, 3, 4):
        assert served(f"2Q({n})").series.krull_dim() == n


def test_abelian_series_examples():
    assert served("Ab(1)").series.expand(4) == (1, 1, 1, 1, 1)
    assert served("Ab(2)").series.expand(3) == (1, 2, 3, 4)
    for n in (1, 2, 3):
        assert served(f"Ab({n})").series.krull_dim() == n


def test_hitchin_bridge_and_examples():
    bridge = served("Hitchin(g=2,r=2,d=1,fixed)").series
    assert bridge == served("2Q(3)").series
    rank_one = served("Hitchin(g=3,r=1,d=1)").series
    assert rank_one.den_weights == (1, 1, 1)
    assert rank_one.expand(3) == (1, 3, 6, 10)
    g2r3 = served("Hitchin(g=2,r=3,d=1)").series
    assert g2r3.den_weights == (1, 1, 2, 2, 2, 3, 3, 3, 3, 3)


def test_hitchin_validity_errors():
    with pytest.raises(SpecParseError):
        parse_spec("Hitchin(g=2,r=2,d=2)")          # gcd(r, d) != 1
    with pytest.raises(SpecParseError):
        parse_spec("Hitchin(g=1,r=2,d=1)")          # genus too small


def test_parabolic_examples():
    for mode in ("literal", "sympow"):
        report = served(f"ParHitchin(g=4,r=1,s=3,mode={mode})")
        assert "codim-condition-ok" in report.flags
        assert report.series.den_weights == (1, 1, 1, 1)
    literal = served("ParHitchin(g=4,r=2,s=1,mode=literal)")
    assert "codim-condition-ok" in literal.flags
    assert literal.series.den_weights == (1, 1, 1, 1, 2, 2, 2, 2)
    sympow = served("ParHitchin(g=4,r=2,s=1,mode=sympow)").series
    assert sympow.den_weights.count(2) == 10


@pytest.mark.parametrize("g,r,expect", [(4, 1, True), (3, 3, True), (3, 2, False),
                                        (2, 5, True), (2, 4, False)])
def test_parabolic_validity_flag(g, r, expect):
    flags = served(f"ParHitchin(g={g},r={r},s=1)").flags
    assert ("codim-condition-ok" in flags) is expect
    assert ("codim-condition-unverified" in flags) is not expect


def test_parabolic_bad_mode():
    with pytest.raises(SpecParseError):
        parse_spec("ParHitchin(g=4,r=2,s=1,mode=other)")


# -- trivial families ------------------------------------------------------------------


def test_triviality_registry():
    for reason in ("c1_zero_finite_pi1", "general_type", "ruled_general_bundle"):
        report = served(f"Trivial({reason})")
        assert report.series.expand(5) == (1, 0, 0, 0, 0, 0)
        assert report.flags == ("constant-algebra",)
    hyper = served("Trivial(hypersurface,d=3,n=2)")
    assert hyper.series.expand(3) == (1, 0, 0, 0)
    assert hyper.flags == ("constant-algebra", "claimed-vanishing-includes-degree-zero")
    with pytest.raises(SpecParseError):
        parse_spec("Trivial(hypersurface,d=2,n=2)")
    with pytest.raises(SpecParseError):
        parse_spec("Trivial(nonsense)")


# -- klein table -----------------------------------------------------------------------


def test_klein_rows():
    for n in range(2, 7):
        row = klein_row("BD", n)
        assert row.relation_degree() is not None
        assert row.relation_degree() == 4 * n + 4
    a4 = klein_row("2T")
    assert a4.degrees == (4, 4, 6)
    assert a4.relation_degree() is None
    assert a4.table_series() is None
    s4 = klein_row("2O")
    assert s4.relation_degree() == 24
    a5 = klein_row("2I")
    assert a5.relation_degree() == 60
    assert a5.table_series().render() == "(1 - t^60) / ((1 - t^12) (1 - t^20) (1 - t^30))"
    # the served rows are the table's rows
    assert served("Klein(BD,2)").klein.row == klein_row("BD", 2)
    for label in ("2T", "2O", "2I"):
        assert served(f"Klein({label})").klein.row == klein_row(label)


def test_ruled_klein_dihedral():
    report = served("Klein(BD,2)").klein
    assert report.match is True
    assert report.molien.dims[4] == 2
    assert all(d == 0 for d in report.molien.dims[1::2])
    assert report.matching_rows == ("D_2",)


def test_ruled_klein_dihedral_beyond_the_candidate_rows_matches_its_own_row():
    served_report = served("Klein(BD,11)")
    report = served_report.klein
    assert report.match is True and report.matching_rows == ("D_11",)
    assert "matches-stated-row" in served_report.flags
    assert "matches:D_11" in served_report.flags


@pytest.mark.parametrize("n", [16, 17])
def test_ruled_klein_dihedral_past_the_old_search_window_matches_its_row(n):
    report = served(f"Klein(BD,{n})").klein
    assert report.molien.matched == (4, 2 * n, 2 * n + 2, 4 * n + 4)
    assert report.match is True and report.matching_rows == (f"D_{n}",)
    assert report.molien.series.krull_dim() == 2


def test_ruled_klein_tetrahedral_reports_discrepancy():
    served_report = served("Klein(2T)")
    report = served_report.klein
    assert report.match is None and report.row.table_series() is None
    assert served_report.flags[0] == "row-inconsistent"
    assert report.molien.matched == (6, 8, 12, 24)
    assert report.matching_rows == ("S4",)


def test_ruled_klein_octahedral_differs_from_stated_row():
    served_report = served("Klein(2O)")
    report = served_report.klein
    assert served_report.flags[:2] == ("row-consistent", "differs-from-stated-row")
    assert report.match is False
    assert report.molien.matched == (8, 12, 18, 36)
    assert report.matching_rows == ()


def test_ruled_klein_icosahedral_matches():
    report = served("Klein(2I)").klein
    assert report.match is True
    assert report.matching_rows == ("A5",)


# -- bounds -----------------------------------------------------------------------------


def test_check_dimension_bounds():
    assert check_dimension_bounds(parse_spec("2Q(3)"), served("2Q(3)").series) == 3
    assert check_dimension_bounds(parse_spec("Ab(2)"), served("Ab(2)").series) == 2
    _, q3 = groebner_route(quadric_ideal(3))
    assert check_dimension_bounds(parse_spec("Q(3)"), q3) == 6
    bad = served("Ab(3)").series     # krull 3 > 2 = dim of Ab(2): violates kappa bound
    with pytest.raises(IntegrityError, match="dim - kappa = 2"):
        check_dimension_bounds(parse_spec("Ab(2)"), bad)
    with pytest.raises(IntegrityError, match=r"outside \[0, 2\]"):
        check_dimension_bounds(parse_spec("2Q(1)"), projective_space_series(2))
    with pytest.raises(ValueError, match="no modeled dimension"):
        check_dimension_bounds(parse_spec("Trivial(general_type)"), HilbertSeries((1,), ()))


def test_check_dimension_bounds_refuses_a_homogeneous_spec_below_two_dim():
    # krull 4 lies inside Q(3)'s [0, 6]; only the homogeneous equality refuses it
    four = projective_space_series(2)
    assert four.krull_dim() == 4
    with pytest.raises(IntegrityError, match=r"krull dimension 4 != 2\*dim = 6"):
        check_dimension_bounds(parse_spec("Q(3)"), four)


DATA = Path(__file__).parent / "data"
GOLDEN_SPECS = tuple(dict.fromkeys(
    [row["spec"] for row in json.loads((DATA / "catalog_table.json").read_text())]
    + [line[len("spec: "):] for line in (DATA / "series_text.txt").read_text().splitlines()
       if line.startswith("spec: ")]))


@pytest.mark.parametrize("text", [t for t in GOLDEN_SPECS if parse_spec(t).dim_x() is not None])
def test_golden_specs_meet_their_dimension_bounds(text):
    report = served(text)
    assert check_dimension_bounds(report.spec, report.series) == report.krull


# -- spec grammar -------------------------------------------------------------------------


@pytest.mark.parametrize("text", ["Pn(2)", "Gr(2,4)", "Q(3)", "2Q(3)", "Ab(2)",
                                  "Hitchin(g=2,r=2,d=1,fixed)",
                                  "ParHitchin(g=4,r=2,s=1,mode=literal)",
                                  "Klein(BD,2)", "Klein(2I)", "Prod(Pn(1),Pn(1))",
                                  "Prod(Prod(Ab(1),Ab(1)),Pn(1))",
                                  "Trivial(general_type)",
                                  "Trivial(hypersurface,d=3,n=2)"])
def test_parse_round_trip(text):
    spec = parse_spec(text)
    assert parse_spec(spec.text()) == spec


@pytest.mark.parametrize("bad", ["Nope(1)", "Pn()", "Pn(0)", "Gr(2,2)", "Gr(0,2)", "Gr(2)",
                                 "Hitchin(g=2,r=2,d=2)", "Hitchin(g=2,r=2)",
                                 "Klein(BD)", "Klein(2I,3)", "Klein(XX)",
                                 "Prod(Pn(1))", "Pn(1) extra", "Pn(x)",
                                 "ParHitchin(g=4,r=2,s=1,mode=weird)", "",
                                 "Hitchin(g=2,r=2,d=1,x=3)", "Hitchin(g=2,g=3,r=2,d=1)",
                                 "Hitchin(g=2,r=2,d=1,fixed,fixed)", "Pn(n=2)", "Pn(2,3)",
                                 "Q(3,fixed)", "Trivial(hypersurface)",
                                 "Trivial(hypersurface,d=2,n=2)", "Trivial(general_type,d=3)",
                                 "Ab(0)", "2Q(0)", "Hitchin(g=1,r=2,d=1)", "Hitchin(g=2,r=0,d=1)",
                                 "ParHitchin(g=1,r=2,s=1)", "ParHitchin(g=4,r=0,s=1)",
                                 "ParHitchin(g=4,r=2,s=0)", "Trivial(nonsense)", "Q(0)"])
def test_parse_rejects(bad):
    with pytest.raises(SpecParseError):
        parse_spec(bad)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-string limit is set")
def test_parse_refuses_spec_integers_past_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    digits = "1" * limit
    assert parse_spec(f"Pn({digits})").n == int(digits)
    for text, field in ((f"Pn({digits}1)", "n"), (f"Hitchin(g=2,r=2,d={digits}1)", "d")):
        with pytest.raises(SpecParseError,
                           match=rf"^{field}: number 1+\.\.\. of {limit + 1} digits is too long"):
            parse_spec(text)


@pytest.mark.parametrize("bad", ["!" * 100_000, "a" * 100_000, "Pn(" * 50_000,
                                 "Pn(" + "(" * 20 + ")" * 50_000, "Pn(" + "x" * 100_000 + ")",
                                 "Pn(n=1," + "x" * 100_000 + ")", "Pn(1)" + "x" * 100_000],
                         ids=["junk", "long-name", "no-close", "unbalanced", "long-integer-field",
                              "long-argument", "long-trailer"])
def test_parse_refusals_echo_a_short_prefix(bad):
    with pytest.raises(SpecParseError) as refusal:
        parse_spec(bad)
    assert len(str(refusal.value)) < 120


# one spec per family, and for every spec field a value unlike its default
FAMILY_EXAMPLES = {
    "Pn": "Pn(2)", "Gr": "Gr(2,4)", "Q": "Q(3)", "2Q": "2Q(3)", "Ab": "Ab(2)",
    "Hitchin": "Hitchin(g=2,r=2,d=1,fixed)", "ParHitchin": "ParHitchin(g=4,r=2,s=1,mode=sympow)",
    "Klein": "Klein(BD,2)", "Prod": "Prod(Pn(1),Ab(1))",
    "Trivial": "Trivial(hypersurface,d=3,n=2)",
}
OTHER_VALUES = {"n": 3, "r": 1, "g": 3, "d": 1, "s": 2, "fixed_det": True, "mode": "sympow",
                "group": "2T", "reason": "general_type",
                "components": (parse_spec("Pn(1)"), parse_spec("Pn(1)"))}


@pytest.mark.parametrize("kind", sorted(catalog.FAMILIES))
def test_family_round_trips_and_rejects_fields_it_does_not_take(kind):
    spec = parse_spec(FAMILY_EXAMPLES[kind])
    assert spec.kind == kind
    assert parse_spec(spec.text()) == spec
    taken = catalog.FAMILIES[kind].fields
    for name, value in OTHER_VALUES.items():
        if name not in taken:
            with pytest.raises(SpecParseError):
                dataclasses.replace(spec, **{name: value})


@pytest.mark.parametrize("fields", [{"kind": "Pn", "n": 2, "r": 3},
                                    {"kind": "Klein", "group": "2T", "n": 5},
                                    {"kind": "Trivial", "reason": "hypersurface", "d": 2, "n": 2},
                                    {"kind": "Nope"}])
def test_spec_constructor_rejects(fields):
    with pytest.raises(SpecParseError):
        catalog.VarietySpec(**fields)


def test_parameter_caps_and_force():
    with pytest.raises(SpecParseError):
        evaluate(parse_spec("Q(4)"), max_degree=2)
    with pytest.raises(SpecParseError):
        evaluate(parse_spec("Gr(1,5)"), max_degree=2)
    report = evaluate(parse_spec("Q(4)"), max_degree=2, force=True)
    assert report.coefficients[0] == 1 and report.krull == 8


# -- evaluation ------------------------------------------------------------------------------


def test_evaluate_product():
    report = evaluate(parse_spec("Prod(Pn(1),Pn(1))"), max_degree=6)
    assert report.coefficients == (1, 6, 19, 44, 85, 146, 231)
    assert report.krull == 4


def test_evaluate_trivial():
    report = evaluate(parse_spec("Trivial(general_type)"), max_degree=4)
    assert report.coefficients == (1, 0, 0, 0, 0)
    assert report.krull == 0


def test_klein_provenance_names_the_form_outcome():
    for text in ("Klein(BD,2)", "Klein(BD,16)"):
        found = evaluate(parse_spec(text), max_degree=2)
        assert found.provenance.endswith("; hypersurface form equals the exact series"), text
        assert found.klein.molien.matched is not None and found.krull == 2, text


@pytest.mark.parametrize("text", ["Pn(1)", "Prod(Pn(1),Ab(1))"])
def test_projective_identity_holds_at_every_depth_and_inside_products(monkeypatch, text):
    # (1 + 7t)/(1 - t)^2 expands to 1 at degree 0, so a check through max_degree misses it
    monkeypatch.setattr(catalog, "projective_space_series",
                        lambda n: HilbertSeries((1, 7), (1, 1)))
    with pytest.raises(IntegrityError, match="projective-space series disagrees"):
        evaluate(parse_spec(text), max_degree=0)


def test_product_expands_only_its_own_series(monkeypatch):
    calls = []
    original = HilbertSeries.expand

    def counting(series, max_degree):
        calls.append(series)
        return original(series, max_degree)

    monkeypatch.setattr(HilbertSeries, "expand", counting)
    report = evaluate(parse_spec("Prod(Pn(1),Ab(1))"))
    assert calls == [report.series]


@pytest.mark.parametrize("kind", sorted(FAMILY_EXAMPLES))
def test_evaluate_calls_the_family_route_once_and_packages_it(monkeypatch, kind):
    spec = parse_spec(FAMILY_EXAMPLES[kind])
    series = HilbertSeries((1, 2), (1, 1, 3))
    basis, klein = object(), object()
    calls = []

    def recording(*args):
        calls.append(args)
        return series, "made up", ("flag",), basis, klein

    monkeypatch.setitem(catalog.FAMILIES, kind, catalog.FAMILIES[kind]._replace(route=recording))
    limits = catalog.GroebnerLimits(5, 1.0)
    report = evaluate(spec, max_degree=3, limits=limits, force=True)
    assert calls == [(spec, limits, True)]
    assert (report.spec, report.coefficients, report.series, report.krull) == (
        spec, series.expand(3), series, series.krull_dim())
    assert (report.provenance, report.flags, report.basis, report.klein) == (
        "made up", ("flag",), basis, klein)


# every module attribute a tracer may replace, with a spec whose route calls it
ROUTE_ATTRIBUTES = [("grassmannian_ideal", "Gr(1,2)"), ("quadric_ideal", "Q(1)"),
                    ("buchberger", "Q(1)"), ("leading_term_ideal", "Q(1)"),
                    ("series_from_monomial_ideal", "Q(1)"), ("ruled_klein", "Klein(BD,2)"),
                    ("build_group", "Klein(BD,2)"), ("molien_series", "Klein(BD,2)")]
# a driven run returns the series it stopped on, so only the undriven route calls these
UNDRIVEN_ROUTE_ATTRIBUTES = {"leading_term_ideal", "series_from_monomial_ideal"}


@pytest.mark.parametrize("name,text", ROUTE_ATTRIBUTES)
def test_evaluate_calls_module_attributes_as_they_are_when_it_runs(monkeypatch, name, text):
    original = getattr(catalog, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(catalog, name, wrapped)
    if name in UNDRIVEN_ROUTE_ATTRIBUTES:
        groebner_route(ideal_presentation_for(parse_spec(text)))
        assert calls, f"groebner_route({text}) bypassed catalog.{name}"
    else:
        evaluate(parse_spec(text), max_degree=2)
        assert calls, f"evaluate({text}) bypassed catalog.{name}"


def test_evaluate_klein_coefficients_truncate_and_extend():
    short = evaluate(parse_spec("Klein(BD,2)"), max_degree=6)
    assert short.coefficients == (1, 0, 0, 0, 2, 0, 1)
    long = evaluate(parse_spec("Klein(BD,2)"), max_degree=70)
    assert len(long.coefficients) == 71
    assert long.series.expand(70) == long.coefficients


def test_every_catalog_series_has_unit_constant_and_nonnegative_dims():
    texts = ["Pn(1)", "Pn(3)", "Gr(1,2)", "Q(1)", "2Q(2)", "Ab(3)",
             "Hitchin(g=2,r=2,d=1)", "ParHitchin(g=2,r=5,s=2,mode=sympow)",
             "Klein(2T)", "Prod(Ab(1),Pn(1))", "Trivial(ruled_general_bundle)"]
    for text in texts:
        report = evaluate(parse_spec(text), max_degree=8)
        assert report.coefficients[0] == 1, text
        assert all(c >= 0 for c in report.coefficients), text


def test_spec_dimensions():
    assert parse_spec("Gr(2,4)").dim_x() == 4
    assert parse_spec("Hitchin(g=2,r=2,d=1,fixed)").dim_x() == 3
    assert parse_spec("Hitchin(g=2,r=2,d=1)").dim_x() == 5
    assert parse_spec("ParHitchin(g=4,r=2,s=1)").dim_x() == 14
    assert parse_spec("Klein(2O)").dim_x() == 2
    assert parse_spec("Prod(Ab(2),Pn(1))").dim_x() == 3


def test_ideal_presentation_for():
    assert ideal_presentation_for(parse_spec("Gr(1,2)")) is not None
    assert ideal_presentation_for(parse_spec("Q(2)")) is not None
    assert ideal_presentation_for(parse_spec("2Q(3)")) is None
    assert ideal_presentation_for(parse_spec("Klein(2T)")) is None


# -- closed forms of the Groebner families ----------------------------------------


@pytest.mark.parametrize("text", ["Gr(1,3)", "Gr(2,4)", "Gr(2,5)", "Q(2)", "Q(5)"])
def test_evaluate_is_driven_by_the_closed_form_and_emits_the_lead_ideal_series(monkeypatch,
                                                                             text):
    spec = parse_spec(text)
    bounds = []
    original = catalog.buchberger

    def recording(presentation, limits=None, bound=None):
        bounds.append(bound)
        return original(presentation, limits=limits, bound=bound)

    monkeypatch.setattr(catalog, "buchberger", recording)
    report = evaluate(spec, max_degree=4, force=True)
    form = catalog.FAMILIES[spec.kind].closed_form(spec)
    assert bounds == [form] and report.series == form
    _, undriven = groebner_route(ideal_presentation_for(spec))
    assert report.series.to_json_dict() == undriven.to_json_dict()
    assert "Hilbert-driven by" in report.provenance


def test_quadric_series_is_hodges_formula():
    # Q(1) = (1 + t)/(1 - t)^2, and Q(n) is palindromic of degree n over (1 - t)^(2n)
    assert catalog.quadric_series(1) == HilbertSeries((1, 1), (1, 1))
    for n in range(1, 8):
        num = catalog.quadric_series(n).numerator
        assert len(num) == n + 1 and num == num[::-1]
        assert list(num) == listpoly.quadric_numerator(n)
