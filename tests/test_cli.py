import json
import re
import sys
from pathlib import Path

import pytest

from symtensor import catalog, cli, verify
from symtensor.errors import IntegrityError
from symtensor.hilbert import MonomialIdeal, series_from_monomial_ideal

# one spec of every family; the expected outputs are tests/data/catalog_table.{json,csv,md}
TABLE_SPECS = ("Pn(2)", "Gr(2,4)", "Gr(1,4)", "Q(3)", "2Q(3)", "Ab(2)",
               "Hitchin(g=2,r=2,d=1,fixed)", "Hitchin(g=3,r=3,d=1)",
               "ParHitchin(g=4,r=2,s=1,mode=literal)", "ParHitchin(g=2,r=5,s=2,mode=sympow)",
               "Klein(BD,2)", "Klein(BD,16)", "Klein(2T)", "Klein(2O)", "Klein(2I)",
               "Prod(Pn(1),Ab(1))", "Prod(Prod(Ab(1),Q(1)),Klein(2T))",
               "Trivial(general_type)", "Trivial(c1_zero_finite_pi1)",
               "Trivial(ruled_general_bundle)")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_two_quadrics_json(capsys):
    code, out, _ = run_cli(capsys, "series", "2Q(3)", "--max-degree", "6",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "spec": "2Q(3)",
        "coefficients": [1, 0, 3, 0, 6, 0, 10],
        "rational_form": {"numerator": [1], "denominator_weights": [2, 2, 2]},
        "krull_dim": 3,
        "provenance": "closed form: free algebra on 3 degree-2 generators",
        "flags": [],
    }


def test_series_abelian_text(capsys):
    code, out, _ = run_cli(capsys, "series", "Ab(1)")
    assert code == 0
    assert "coefficients: 1 1 1 1 1 1 1 1 1" in out


def test_series_quadric_matches_kunneth(capsys):
    code, out, _ = run_cli(capsys, "series", "Q(2)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    line = catalog.projective_space_series(1)
    want = list((line * line).expand(8))
    assert payload["coefficients"] == want


def test_series_klein_report(capsys):
    code, out, _ = run_cli(capsys, "series", "Klein(2T)")
    assert code == 0
    assert "molien recovered (d1,d2,d3,e): (6, 8, 12, 24)" in out
    assert "inconsistent" in out
    assert "matching table rows: S4" in out


def test_json_output_is_byte_deterministic(capsys):
    _, first, _ = run_cli(capsys, "series", "Klein(BD,2)", "--format", "json")
    _, second, _ = run_cli(capsys, "series", "Klein(BD,2)", "--format", "json")
    assert first == second


def test_ideal_dump_quadric(capsys):
    code, out, _ = run_cli(capsys, "ideal-dump", "Q(1)")
    assert code == 0
    assert out.strip() == "p12^2 + p13^2 + p23^2"


def test_ideal_dump_grassmannian(capsys):
    code, out, _ = run_cli(capsys, "ideal-dump", "Gr(1,2)")
    assert code == 0
    lines = out.strip().splitlines()
    assert "u11 + u22" in lines
    assert "u11*u22 - u12*u21" in lines


def test_ideal_dump_round_trips(capsys):
    code, out, _ = run_cli(capsys, "ideal-dump", "Q(2)")
    assert code == 0
    presentation = catalog.quadric_ideal(2)
    parsed = {presentation.ctx.parse(line) for line in out.strip().splitlines()}
    assert parsed == set(presentation.generators)


def test_ideal_dump_closed_form_exits_2(capsys):
    code, _, err = run_cli(capsys, "ideal-dump", "2Q(3)")
    assert code == 2
    assert "closed-form" in err


@pytest.mark.parametrize("spec", ["Klein(2I)", "Prod(Gr(1,2),Gr(1,2))"])
def test_ideal_dump_without_presentation_exits_2(capsys, spec):
    # Klein goes through the Molien route and Prod through Kunneth: neither is a closed form
    code, _, err = run_cli(capsys, "ideal-dump", spec)
    assert code == 2
    assert "closed-form" not in err
    assert "no ideal presentation" in err


def test_table_identical_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "Pn(1)", "Q(1)", "--max-degree", "4")
    assert code == 0
    lines = out.strip().splitlines()
    pn_cells = lines[2].split("|")[2:7]
    q_cells = lines[3].split("|")[2:7]
    assert pn_cells == q_cells == [" 1 ", " 3 ", " 5 ", " 7 ", " 9 "]


def test_table_klein_zero_odd_entries(capsys):
    import csv as csv_module
    code, out, _ = run_cli(capsys, "table", "Klein(BD,2)", "--format", "csv",
                           "--max-degree", "8")
    assert code == 0
    rows = list(csv_module.reader(out.strip().splitlines()))
    assert rows[1][0] == "Klein(BD,2)"
    coeffs = [int(c) for c in rows[1][1:10]]
    assert coeffs[1::2] == [0, 0, 0, 0]


def test_table_json_format(capsys):
    code, out, _ = run_cli(capsys, "table", "Ab(1)", "2Q(1)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [p["spec"] for p in payload] == ["Ab(1)", "2Q(1)"]


def test_empty_table_exits_2(capsys):
    code, _, err = run_cli(capsys, "table")
    assert code == 2


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_catalog_table_is_byte_identical_to_golden(capsys, fmt):
    code, out, _ = run_cli(capsys, "table", *TABLE_SPECS, "--format", fmt)
    assert code == 0
    suffix = "md" if fmt == "markdown" else fmt
    golden = Path(__file__).parent / "data" / f"catalog_table.{suffix}"
    assert out.encode() == golden.read_bytes()


def test_series_text_is_byte_identical_to_golden(capsys):
    # the golden is the concatenated text output of one `series` run per spec line
    golden = Path(__file__).parent / "data" / "series_text.txt"
    specs = [line[len("spec: "):] for line in golden.read_text().splitlines()
             if line.startswith("spec: ")]
    out = ""
    for spec in specs:
        code, text, err = run_cli(capsys, "series", spec)
        assert code == 0, err
        out += text
    assert out.encode() == golden.read_bytes()


def test_ideal_dump_is_byte_identical_to_golden(capsys):
    out = ""
    for spec in ("Gr(1,3)", "Gr(2,4)", "Q(2)", "Q(3)"):
        code, dump, _ = run_cli(capsys, "ideal-dump", spec)
        assert code == 0
        out += dump
    golden = Path(__file__).parent / "data" / "ideal_dump.txt"
    assert out.encode() == golden.read_bytes()


def test_product_with_a_formless_component_convolves_dims(capsys):
    # Klein(BD,16)'s form lies past the old search window; the product now has a series
    code, out, err = run_cli(capsys, "series", "Prod(Klein(BD,16),Pn(1))",
                             "--max-degree", "4")
    assert code == 0, err
    assert "coefficients: 1 3 5 7 10" in out
    assert "krull dim: 4" in out
    assert ("rational form: (1 + t - t^68 - t^69) / "
            "((1 - t)^2 (1 - t^4) (1 - t^32) (1 - t^34))") in out


@pytest.mark.parametrize("argv", [("series", "Pn(1)", "--timeout", "nan"),
                                  ("table", "Pn(1)", "--max-degree", "-1"),
                                  ("verify", "--max-degree", "-1"),
                                  ("verify", "--timeout", "0"),
                                  ("verify", "--gb-max-degree", "-1")])
def test_bad_limit_flags_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: argument --")


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "series", "Nope(3)")
    assert code == 2
    assert "error" in err


def nested_prod(depth):
    """Prod(Prod(..Pn(1)..,Pn(1)),Pn(1)) with ``depth`` levels of parentheses."""
    text = "Pn(1)"
    for _ in range(depth - 1):
        text = f"Prod({text},Pn(1))"
    return text


def test_series_of_a_spec_nested_to_the_bound_renders_as_text_and_json(capsys):
    text = nested_prod(32)
    code, out, _ = run_cli(capsys, "series", text)
    assert code == 0
    assert out.startswith(f"spec: {text}\n") and "krull dim: 64\n" in out
    code, out, _ = run_cli(capsys, "series", text, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["spec"] == text and payload["krull_dim"] == 64


@pytest.mark.parametrize("spec,message", [(nested_prod(33), "nested deeper than 32"),
                                          (nested_prod(199), "nested deeper than 32"),
                                          ("#" * 100_000, "optional (...) tail")],
                         ids=["depth-33", "depth-199", "junk"])
def test_deep_or_junk_specs_exit_2_with_a_short_message(capsys, spec, message):
    code, _, err = run_cli(capsys, "series", spec)
    assert code == 2
    assert err.startswith("error: ") and message in err and len(err) < 300


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no int-string limit is set")
def test_spec_integer_past_the_int_string_limit_exits_2_naming_the_field(capsys):
    digits = sys.get_int_max_str_digits() + 1
    code, _, err = run_cli(capsys, "series", "Pn(" + "1" * digits + ")")
    assert code == 2
    assert err == f"error: n: number 111111111111... of {digits} digits is too long to read\n"


def test_cap_violation_exits_2(capsys):
    code, _, err = run_cli(capsys, "series", "Q(4)")
    assert code == 2
    assert "force" in err


def test_limit_exceeded_exits_3(capsys):
    code, _, err = run_cli(capsys, "series", "Gr(2,4)", "--timeout", "0.000001")
    assert code == 3
    assert "limit exceeded" in err


def test_limit_message_shows_progress_only_from_buchberger(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "series", "Gr(2,4)", "--timeout", "0.000001")
    assert code == 3
    assert re.fullmatch(r"limit exceeded: groebner timeout after 1e-06s \(pairs processed: "
                        r"\d+, max degree reached: \d+, elapsed: \d+\.\d\ds\)\n", err)
    # a numerator recursion limit has no pair progress to show
    deep = MonomialIdeal.from_generators(2, [(k, 1000 - k) for k in range(1001)])
    monkeypatch.setattr(catalog, "evaluate", lambda *a, **k: series_from_monomial_ideal(deep))
    code, _, err = run_cli(capsys, "series", "Ab(1)")
    assert code == 3
    assert err == ("limit exceeded: numerator recursion deeper than the recursion limit for "
                   "1001 generators in 2 variables\n")


def test_integrity_error_exits_4(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise IntegrityError("forced for the exit-code contract")
    monkeypatch.setattr(catalog, "evaluate", boom)
    code, _, err = run_cli(capsys, "series", "Ab(1)")
    assert code == 4
    assert "integrity" in err


def test_verify_fail_exits_1(capsys, monkeypatch):
    fake = [verify.CheckResult("fake-check", verify.FAIL, "boom", 0.0)]
    monkeypatch.setattr(verify, "run_verification", lambda **kwargs: (fake, None))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "[FAIL] fake-check" in out


def test_verify_depth_zero_keeps_the_oracle_and_integrity_at_degree_eight(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "0")
    assert code == 0
    assert "equal Taylor's alternating lcm sum as rational functions" in out
    assert "re-expanded through degree 8" in out


def test_verify_reduced_depth_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-degree", "4")
    assert code == 0
    assert "[FAIL]" not in out
    assert out.count("[PASS]") == 11


def test_series_markdown_and_csv_formats(capsys):
    code, out, _ = run_cli(capsys, "series", "Pn(1)", "--max-degree", "3",
                           "--format", "markdown")
    assert code == 0
    assert out.splitlines()[0].startswith("| spec | c0 | c1 | c2 | c3 |")
    assert "| Pn(1) | 1 | 3 | 5 | 7 |" in out
    code, out, _ = run_cli(capsys, "series", "Pn(1)", "--max-degree", "3",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("Pn(1),1,3,5,7,")


def test_force_flag_lifts_cap(capsys):
    code, out, _ = run_cli(capsys, "series", "Q(4)", "--force", "--max-degree", "2",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["krull_dim"] == 8
