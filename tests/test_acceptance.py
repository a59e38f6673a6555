"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact; the stated per-criterion time budgets are asserted.
The shared verification run computes each Groebner basis once.
"""

import pytest

from symtensor import verify
from symtensor.groebner import GroebnerLimits


@pytest.fixture(scope="module")
def suite():
    results, ctx = verify.run_verification(
        max_degree=8, limits=GroebnerLimits(max_degree=12, timeout=300.0))
    return {r.name: r for r in results}, results, ctx


def _report(result, budget=None):
    print(f"ACCEPTANCE {result.name}: {result.status.upper()} "
          f"({result.elapsed:.2f}s): {result.detail}")
    assert result.status == verify.PASS, result.detail
    if budget is not None:
        assert result.elapsed <= budget, \
            f"{result.name} took {result.elapsed:.1f}s, budget {budget}s"


def test_criterion_1_projective_two_route(suite):
    by_name, _, _ = suite
    _report(by_name["projective-space-two-route"], budget=60)


def test_criterion_2_quadric_coincidences(suite):
    by_name, _, _ = suite
    _report(by_name["quadric-coincidences"], budget=60)


def test_criterion_3_homogeneous_bigness(suite):
    by_name, _, _ = suite
    _report(by_name["homogeneous-bigness-quadrics"], budget=180)


def test_criterion_3_grassmannian_bigness(suite):
    by_name, _, _ = suite
    _report(by_name["grassmannian-2-4-bigness"], budget=60)


def test_criterion_4_hitchin_bridge(suite):
    by_name, _, _ = suite
    _report(by_name["hitchin-bridge"], budget=1)


def test_criterion_5_klein_molien(suite):
    by_name, _, _ = suite
    result = by_name["klein-molien"]
    _report(result, budget=180)
    # the comparison report for the tetra/octahedral rows must be emitted
    assert "2T: recovered" in result.detail
    assert "2O: recovered" in result.detail


def test_criterion_6_monomial_oracle(suite):
    by_name, _, _ = suite
    _report(by_name["monomial-ideal-oracle"], budget=30)


def test_criterion_7_groebner_contract(suite):
    by_name, _, _ = suite
    _report(by_name["groebner-contract"])


def test_criterion_8_dimension_bounds(suite):
    by_name, _, _ = suite
    _report(by_name["dimension-bounds"])


def test_criterion_9_integrity(suite):
    by_name, _, _ = suite
    _report(by_name["integrity"])


def test_suite_exit_code_is_zero(suite):
    _, results, _ = suite
    assert verify.exit_code(results) == 0
