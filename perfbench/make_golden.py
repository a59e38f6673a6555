"""Regenerate perfbench/golden.json.

    python3 perfbench/make_golden.py

Groebner and Klein goldens are the outputs of the code being benchmarked, so
run this only on a commit whose outputs are trusted; a change that claims to
keep outputs identical must not regenerate them.  The hilbert-numerator
goldens come from reference.py alone, never from symtensor.hilbert.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from symtensor import catalog  # noqa: E402

# (corpus seed, variables, minimal generators) for the hilbert-numerator ideals
HILBERT_CORPUS = tuple((seed, 24 + seed % 2, 90 + 5 * (seed % 5)) for seed in range(1, 7))


def random_monomial_ideal(rng, nvars, ngens):
    """Minimal generators of degree 2-3 drawn until ngens of them are minimal."""
    gens = set()
    while True:
        mono = [0] * nvars
        for _ in range(rng.randint(2, 3)):
            mono[rng.randrange(nvars)] += 1
        gens.add(reference.sparse(mono))
        kept = reference.minimal(gens)
        if len(kept) >= ngens:
            return kept


def _basis_lines(report):
    return [p.render() for p in report.basis.elements]


def main():
    golden = {"groebner-build": {}, "groebner-reduce": {}, "molien-klein": {},
              "hilbert-numerator": []}
    reports = {}
    for text in sorted(set(workloads.GROEBNER_BUILD_SPECS)
                       | {t for t, _ in workloads.REDUCE_BASES}):
        reports[text] = catalog.evaluate(catalog.parse_spec(text), force=True)
    for text in workloads.GROEBNER_BUILD_SPECS:
        report = reports[text]
        golden["groebner-build"][text] = {
            "numerator": list(report.series.numerator),
            "den_weights": list(report.series.den_weights),
            "basis_sha256": reference.basis_digest(_basis_lines(report))}
    for text, _ in workloads.REDUCE_BASES:
        lines = _basis_lines(reports[text])
        golden["groebner-reduce"][text] = {
            "basis": lines, "basis_sha256": reference.basis_digest(lines)}
    for text in workloads.KLEIN_SPECS:
        report = catalog.evaluate(catalog.parse_spec(text))
        golden["molien-klein"][text] = {
            "dims": list(report.klein.molien.dims),
            "matched": list(report.klein.molien.matched),
            "flags": list(report.flags)}
    for corpus_seed, nvars, ngens in HILBERT_CORPUS:
        gens = random_monomial_ideal(random.Random(corpus_seed), nvars, ngens)
        numerator = reference.monomial_numerator(gens)
        canonical, den_count = reference.strip_one_minus_t(numerator, nvars)
        golden["hilbert-numerator"].append({
            "nvars": nvars, "gens": [list(map(list, g)) for g in gens],
            "numerator": numerator, "canonical_numerator": canonical,
            "canonical_den_count": den_count})
    (HERE / "golden.json").write_text(json.dumps(golden, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
