"""Command-line surface: series, ideal-dump, table, and verify.

Exit codes: 0 ok, 1 verification failure, 2 usage/parse error, 3 resource
limit, 4 integrity error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, verify
from .errors import (EXIT_INTEGRITY, EXIT_LIMIT, EXIT_OK, EXIT_USAGE,
                     IntegrityError, LimitExceeded, SpecParseError)
from .groebner import GroebnerLimits


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise SpecParseError(message)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0:  # also refuses nan, which would switch the timeout off
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="symtensor",
                             description="Exact Hilbert series of symmetric-tensor algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="graded dimensions for one spec")
    p_series.add_argument("spec")

    p_dump = sub.add_parser("ideal-dump", help="print the generators of a groebner-backed spec")
    p_dump.add_argument("spec")

    p_table = sub.add_parser("table", help="one row per spec")
    p_table.add_argument("specs", nargs="+")

    p_verify = sub.add_parser("verify", help="run the verification suite")

    for p in (p_series, p_table, p_verify):
        p.add_argument("--max-degree", type=_non_negative_int,
                       default=catalog.DEFAULT_MAX_DEGREE,
                       help="expansion depth D (default %(default)s)")
        p.add_argument("--timeout", type=_positive_seconds, default=catalog.DEFAULT_TIMEOUT,
                       help="groebner timeout in seconds (default %(default)s)")
        p.add_argument("--gb-max-degree", type=_non_negative_int,
                       default=catalog.DEFAULT_GB_MAX_DEGREE,
                       help="groebner pair-degree cap (default %(default)s)")
    for p in (p_series, p_table):
        p.add_argument("--format", dest="fmt", default="text",
                       choices=("text", "json", "csv", "markdown"))
        p.add_argument("--force", action="store_true",
                       help="override catalog parameter caps")
    return parser


def _limits(args) -> GroebnerLimits:
    return GroebnerLimits(max_degree=args.gb_max_degree, timeout=args.timeout)


def _reports(args, texts) -> list[catalog.SeriesReport]:
    return [catalog.evaluate(catalog.parse_spec(text), max_degree=args.max_degree,
                             limits=_limits(args), force=args.force)
            for text in texts]


def _render_text(report: catalog.SeriesReport) -> str:
    lines = [f"spec: {report.spec.text()}",
             "coefficients: " + " ".join(str(c) for c in report.coefficients),
             f"rational form: {report.series.render()}",
             f"krull dim: {report.krull}",
             f"provenance: {report.provenance}",
             "flags: " + (", ".join(report.flags) if report.flags else "(none)")]
    if report.klein is not None:
        m = report.klein
        lines.append(f"molien recovered (d1,d2,d3,e): {m.molien.matched}")
        row_state = "inconsistent" if m.match is None else "consistent"
        lines.append(f"table row {m.row.name}: degrees {m.row.degrees}, "
                     f"relation {m.row.relation_text} [{row_state}]")
        if m.match is not None:
            lines.append(f"matches stated row: {m.match}")
        lines.append("matching table rows: "
                     + ("+".join(m.matching_rows) if m.matching_rows else "none"))
    return "\n".join(lines)


def _table_rows(reports, max_degree):
    header = ["spec"] + [f"c{i}" for i in range(max_degree + 1)] + ["krull", "provenance"]
    rows = [header]
    for r in reports:
        rows.append([r.spec.text()] + [str(c) for c in r.coefficients]
                    + [str(r.krull), r.provenance])
    return rows


def _render_markdown(rows) -> str:
    out = ["| " + " | ".join(rows[0]) + " |",
           "|" + "|".join(" --- " for _ in rows[0]) + "|"]
    for row in rows[1:]:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out)


def _render_csv(rows) -> str:
    return "\n".join(",".join(_csv_cell(c) for c in row) for row in rows)


def _csv_cell(value: str) -> str:
    if any(ch in value for ch in ",\"\n"):
        return '"' + value.replace('"', '""') + '"'
    return value


def cmd_series(args) -> int:
    report, = _reports(args, [args.spec])
    if args.fmt == "json":
        print(json.dumps(report.to_json_dict()))
    elif args.fmt in ("csv", "markdown"):
        rows = _table_rows([report], args.max_degree)
        print(_render_csv(rows) if args.fmt == "csv" else _render_markdown(rows))
    else:
        print(_render_text(report))
    return EXIT_OK


def cmd_ideal_dump(args) -> int:
    spec = catalog.parse_spec(args.spec)
    presentation = catalog.ideal_presentation_for(spec)
    if presentation is None:
        kind = ("a closed-form entry" if catalog.FAMILIES[spec.kind].closed_form
                else "not a Groebner-route entry")
        raise SpecParseError(f"{spec.text()} is {kind}; it has no ideal presentation")
    for g in presentation.generators:
        print(g.render(lex=True))
    return EXIT_OK


def cmd_table(args) -> int:
    reports = _reports(args, args.specs)
    if args.fmt == "json":
        print(json.dumps([r.to_json_dict() for r in reports]))
    elif args.fmt == "csv":
        print(_render_csv(_table_rows(reports, args.max_degree)))
    else:
        print(_render_markdown(_table_rows(reports, args.max_degree)))
    return EXIT_OK


def cmd_verify(args) -> int:
    results, _ = verify.run_verification(max_degree=args.max_degree, limits=_limits(args))
    for r in results:
        tag = {verify.PASS: "PASS", verify.FAIL: "FAIL", verify.LIMIT: "LIMIT"}[r.status]
        print(f"[{tag}] {r.name} ({r.elapsed:.2f}s): {r.detail}")
    code = verify.exit_code(results)
    passed = sum(1 for r in results if r.status == verify.PASS)
    print(f"{passed}/{len(results)} checks passed; exit code {code}")
    return code


COMMANDS = {"series": cmd_series, "ideal-dump": cmd_ideal_dump, "table": cmd_table,
            "verify": cmd_verify}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except SpecParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
