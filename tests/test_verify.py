import ast
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import listpoly
import symtensor
from symtensor import catalog, cli, verify
from symtensor.groebner import GroebnerLimits
from symtensor.hilbert import HilbertSeries, MonomialIdeal, series_from_monomial_ideal
from symtensor.verify import CheckResult, VerifyContext


def test_exit_code_semantics():
    ok = [CheckResult("a", verify.PASS, "", 0.0)]
    assert verify.exit_code(ok) == 0
    limited_gr24 = ok + [CheckResult("grassmannian-2-4-bigness", verify.LIMIT, "", 0.0)]
    assert verify.exit_code(limited_gr24) == 3
    limited_mandatory = ok + [CheckResult("quadric-coincidences", verify.LIMIT, "", 0.0)]
    assert verify.exit_code(limited_mandatory) == 3
    failed = ok + [CheckResult("b", verify.FAIL, "", 0.0)]
    assert verify.exit_code(failed) == 1


def test_tiny_timeout_marks_heavy_checks_limited():
    results, _ = verify.run_verification(
        limits=GroebnerLimits(catalog.DEFAULT_LIMITS.max_degree, timeout=1e-9))
    by_name = {r.name: r for r in results}
    assert by_name["projective-space-two-route"].status == verify.LIMIT
    assert by_name["quadric-coincidences"].status == verify.LIMIT
    assert by_name["homogeneous-bigness-quadrics"].status == verify.LIMIT
    # the contract check covers whatever bases completed (Q(1) has no pairs,
    # so it finishes even under a tiny budget) and reports a limit otherwise
    assert by_name["groebner-contract"].status in (verify.PASS, verify.LIMIT)
    # closed-form and molien checks are untouched by the groebner budget
    assert by_name["hitchin-bridge"].status == verify.PASS
    assert by_name["klein-molien"].status == verify.PASS
    assert by_name["monomial-ideal-oracle"].status == verify.PASS
    assert verify.exit_code(results) == 3


def test_default_run_is_green():
    results, ctx = verify.run_verification()
    assert verify.exit_code(results) == 0
    by_name = {r.name: r for r in results}
    assert len(results) == 11
    assert all(r.status == verify.PASS for r in results)
    assert by_name["klein-molien"].status == verify.PASS
    # integrity sweep must have seen real artifacts
    assert len(ctx.recorded_series) > 20


def test_default_output_matches_golden(capsys):
    # tests/data/verify.txt holds the output with every "(0.12s)" timing removed
    assert cli.main(["verify"]) == 0
    out = re.sub(r"\(\d+\.\d+s\)", "", capsys.readouterr().out)
    assert out == (Path(__file__).parent / "data" / "verify.txt").read_text()


def _plus_power(series, k):
    """The series plus t^k: numerator N + t^k D over the same denominator D."""
    den = [1]
    for w in series.den_weights:
        den = listpoly.mul(den, listpoly.one_minus_power(w))
    num = list(series.numerator) + [0] * (k + len(den) - len(series.numerator))
    for i, c in enumerate(den):
        num[i + k] += c
    return HilbertSeries(tuple(num), series.den_weights)


def _check(name):
    return next(c for c in verify._CHECKS if c.check_name == name)


@pytest.mark.parametrize("spec,check_name", [("Gr(1,3)", "projective-space-two-route"),
                                             ("Q(2)", "quadric-coincidences")])
def test_series_wrong_past_degree_eight_fails(spec, check_name):
    # t^9 added: equal through degree 8 only
    ctx = VerifyContext()
    presentation, basis, series = ctx.route(spec)
    wrong = _plus_power(series, 9)
    assert wrong.expand(8) == series.expand(8)
    assert wrong.expand(9) != series.expand(9)
    ctx.routes[spec] = (presentation, basis, wrong)
    assert _check(check_name)(ctx).status == verify.FAIL


@pytest.mark.parametrize("check_name,spec,wrong,message", [
    ("homogeneous-bigness-quadrics", "Q(2)", 1, "Q(2): krull dimension 2 != 2*dim = 4"),
    ("grassmannian-2-4-bigness", "Gr(2,4)", 3, "Gr(2,4): krull dimension 6 != 2*dim = 8"),
    ("dimension-bounds", "Gr(2,4)", 3, "Gr(2,4): krull dimension 6 != 2*dim = 8")],
    ids=["quadrics", "grassmannian", "dimension-bounds"])
def test_homogeneous_route_below_two_dim_fails(check_name, spec, wrong, message):
    # the series of Pn(wrong) has krull dimension 2*wrong, inside [0, 2*dim] but below it
    ctx = VerifyContext()
    presentation, basis, _ = ctx.route(spec)
    ctx.routes[spec] = (presentation, basis, catalog.projective_space_series(wrong))
    result = _check(check_name)(ctx)
    assert result.status == verify.FAIL and message in result.detail


def test_integrity_fails_a_molien_series_wrong_past_degree_g(monkeypatch):
    # t^(|G| + 30) added to BD(2)'s reported series: the averages through |G| fit the
    # true series, so the identity fails however far past |G| the error lies
    real = catalog.ruled_klein

    def wrong_bd2(label, n=None):
        report = real(label, n)
        if (label, n) != ("BD", 2):
            return report
        series = _plus_power(report.molien.series, report.group.order + 30)
        return dataclasses.replace(report, molien=dataclasses.replace(report.molien,
                                                                      series=series))

    monkeypatch.setattr(catalog, "ruled_klein", wrong_bd2)
    ctx = VerifyContext()
    assert _check("klein-molien")(ctx).status == verify.PASS
    result = _check("integrity")(ctx)
    assert result.status == verify.FAIL and "Molien series" in result.detail


def test_limit_detail_shows_progress_only_from_buchberger(monkeypatch):
    tiny = GroebnerLimits(catalog.DEFAULT_LIMITS.max_degree, timeout=1e-9)
    result = _check("projective-space-two-route")(VerifyContext(limits=tiny))
    assert result.status == verify.LIMIT
    assert re.fullmatch(r"limit: groebner timeout after 1e-09s \(pairs processed: \d+, "
                        r"max degree reached: \d+, elapsed: \d+\.\d\ds\)", result.detail)
    # a numerator recursion limit has no pair progress to show
    deep = MonomialIdeal.from_generators(2, [(k, 1000 - k) for k in range(1001)])
    monkeypatch.setattr(verify, "series_from_monomial_ideal",
                        lambda ideal: series_from_monomial_ideal(deep))
    result = _check("monomial-ideal-oracle")(VerifyContext())
    assert (result.status, result.detail) == (
        verify.LIMIT, "limit: numerator recursion deeper than the recursion limit for "
                      "1001 generators in 2 variables")


def test_monomial_oracle_fails_a_series_wrong_past_degree_eight(monkeypatch):
    # t^12 over (1 - t)^n leaves the expansion through degree 8 unchanged
    def wrong(ideal):
        series = series_from_monomial_ideal(ideal)
        numerator = series.numerator + (0,) * (12 - len(series.numerator)) + (1,)
        return HilbertSeries(numerator, series.den_weights)

    monkeypatch.setattr(verify, "series_from_monomial_ideal", wrong)
    result = _check("monomial-ideal-oracle")(VerifyContext())
    assert result.status == verify.FAIL
    assert "!= Taylor's sum" in result.detail


def test_wrong_identity_fails_under_python_O():
    # -O strips assert statements, so a check that fails through one would pass here
    code = """
from symtensor import catalog, verify
from symtensor.hilbert import HilbertSeries
catalog.projective_space_series = lambda n: HilbertSeries((1, 7), (1, 1))
check = next(c for c in verify._CHECKS if c.check_name == "projective-space-two-route")
result = check(verify.VerifyContext())
print(__debug__, result.status, result.detail.split(":")[0])
"""
    paths = (str(Path(symtensor.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", verify.FAIL, "IntegrityError"]


def test_package_has_no_assert_statements():
    package = Path(symtensor.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not found
