import re
from pathlib import Path

from symtensor import cli, verify
from symtensor.verify import CheckResult, VerifyConfig


def test_exit_code_semantics():
    ok = [CheckResult("a", verify.PASS, "", 0.0)]
    assert verify.exit_code(ok) == 0
    limited_stretch = ok + [CheckResult(verify.STRETCH_NAME, verify.LIMIT, "", 0.0)]
    assert verify.exit_code(limited_stretch) == 0
    limited_mandatory = ok + [CheckResult("quadric-coincidences", verify.LIMIT, "", 0.0)]
    assert verify.exit_code(limited_mandatory) == 3
    failed = ok + [CheckResult("b", verify.FAIL, "", 0.0)]
    assert verify.exit_code(failed) == 1


def test_tiny_timeout_marks_heavy_checks_limited():
    config = VerifyConfig(gb_timeout=1e-9)
    results, _ = verify.run_verification(config)
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
    assert len(results) == 10
    assert all(r.status in (verify.PASS, verify.LIMIT) for r in results)
    assert by_name["klein-molien"].status == verify.PASS
    # integrity sweep must have seen real artifacts
    assert len(ctx.recorded_series) > 20
    assert len(ctx.recorded_groups) >= 5


def test_default_output_matches_golden(capsys):
    # tests/data/verify.txt holds the output with every "(0.12s)" timing removed
    assert cli.main(["verify"]) == 0
    out = re.sub(r"\(\d+\.\d+s\)", "", capsys.readouterr().out)
    assert out == (Path(__file__).parent / "data" / "verify.txt").read_text()
