"""The four benchmark workloads: their inputs, timed calls and golden checks.

Each workload turns (symtensor modules, golden values, seed) into a list of
items.  An item's ``run`` makes the timed calls into the public API and
returns the outputs; its ``check`` compares them with the golden values and
returns a description of the first mismatch, or None.  Calls go through
module attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import reference

GROEBNER_BUILD_SPECS = ("Gr(1,5)", "Gr(2,5)", "Q(5)", "Q(6)")
KLEIN_SPECS = tuple(f"Klein(BD,{n})" for n in range(2, 11)) + (
    "Klein(2T)", "Klein(2O)", "Klein(2I)")
REDUCE_BASES = (("Gr(2,4)", None), ("Q(5)", None), ("Gr(1,5)", 300))
HILBERT_EXPAND_DEGREE = 40

WHY = {
    "groebner-build":
        "Buchberger's write path on the four Groebner-route specs that finish in "
        "about a second; Gr(1,6), Gr(2,6) and Gr(3,6) are too slow to repeat often.",
    "groebner-reduce":
        "normal_form's read path against fixed reduced bases, so per-call setup "
        "costs show; it never runs Buchberger's pair loop or the Hilbert code.",
    "molien-klein":
        "group closure and the cyclotomic trace sweep behind every Klein entry, "
        "with the group cache cleared per pass; it does no Groebner work.",
    "hilbert-numerator":
        "the monomial-ideal numerator recursion alone on large lead ideals, which "
        "is only about 6% of groebner-build; it leaves out polynomial arithmetic.",
}


class GoldenError(RuntimeError):
    """Golden data failed its own consistency check during setup."""


@dataclass
class Item:
    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    items: list[Item]
    before_pass: Callable[[], None] = lambda: None


def _digest(polys):
    return reference.basis_digest([p.render() for p in polys])


# -- groebner-build ----------------------------------------------------------


def _groebner_build(api, golden, seed):
    catalog = api.catalog
    items = []
    for text in GROEBNER_BUILD_SPECS:
        spec = catalog.parse_spec(text)
        gold = golden["groebner-build"][text]
        expected_coeffs = reference.expand(gold["numerator"], gold["den_weights"], 8)

        def check(report, spec=spec, gold=gold, expected_coeffs=expected_coeffs):
            series = report.series
            if list(series.numerator) != gold["numerator"] \
                    or list(series.den_weights) != gold["den_weights"]:
                return f"series {series.render()} differs from golden"
            if _digest(report.basis.elements) != gold["basis_sha256"]:
                return "reduced basis differs from golden digest"
            if list(report.coefficients) != expected_coeffs:
                return f"coefficients {report.coefficients} differ from golden"
            if spec.kind == "Gr" and spec.r == 1:
                n = spec.n - 1
                if series != catalog.projective_space_series(n):
                    return f"Gr(1,{spec.n}) differs from projective_space_series({n})"
                closed = reference.projective_space_dims(n, 12)
                if reference.expand(gold["numerator"], gold["den_weights"], 12) != closed:
                    return f"golden Gr(1,{spec.n}) differs from the P^{n} closed form"
            return None

        items.append(Item(text, lambda spec=spec: catalog.evaluate(spec, force=True),
                          check))
    return Workload(items)


# -- groebner-reduce ------------------------------------------------------------


def _groebner_reduce(api, golden, seed):
    rng = random.Random(seed)
    items = []
    for text, sample in REDUCE_BASES:
        gold = golden["groebner-reduce"][text]
        pres = api.catalog.ideal_presentation_for(api.catalog.parse_spec(text))
        ctx = pres.ctx
        basis = [ctx.parse(line) for line in gold["basis"]]
        if _digest(basis) != gold["basis_sha256"]:
            raise GoldenError(f"{text}: parsed basis does not render back to its digest")
        leads = [reference.sparse(p.leading_monomial()) for p in basis]
        standard = []
        for a, b in itertools.combinations_with_replacement(range(ctx.nvars), 2):
            mono = [0] * ctx.nvars
            mono[a] += 1
            mono[b] += 1
            if not any(reference.divides(lead, reference.sparse(mono)) for lead in leads):
                standard.append(tuple(mono))
        pairs = list(itertools.combinations(range(len(basis)), 2))
        if sample is not None:
            pairs = sorted(rng.sample(pairs, sample))
        # NF(S + m) = m for a standard monomial m, since NF is linear and S lies
        # in the ideal; the probe stops a normal form that returns 0 from passing.
        probes = [ctx.poly({rng.choice(standard): 1}) for _ in pairs]
        gens = list(pres.generators)

        def run(basis=basis, gens=gens, pairs=pairs, probes=probes):
            groebner = api.groebner
            out = [groebner.normal_form(g, basis) for g in gens]
            for (i, j), probe in zip(pairs, probes):
                s = groebner.s_polynomial(basis[i], basis[j])
                out.append(groebner.normal_form(s + probe, basis))
            return out

        def check(out, ngens=len(gens), probes=probes, text=text):
            for k, r in enumerate(out[:ngens]):
                if not r.is_zero:
                    return f"{text}: generator {k} has nonzero normal form"
            for k, (r, probe) in enumerate(zip(out[ngens:], probes)):
                if r != probe:
                    return f"{text}: pair {k} reduces to {r.render()}, not {probe.render()}"
            return None

        label = text if sample is None else f"{text}[{sample} pairs]"
        items.append(Item(label, run, check))
    return Workload(items)


# -- molien-klein ---------------------------------------------------------------


def _molien_klein(api, golden, seed):
    catalog, invariants = api.catalog, api.invariants
    items = []
    for text in KLEIN_SPECS:
        spec = catalog.parse_spec(text)
        gold = golden["molien-klein"][text]
        window = len(gold["dims"]) - 1
        if reference.hypersurface_dims(*gold["matched"], window) != gold["dims"]:
            raise GoldenError(f"{text}: golden form does not expand to golden dims")

        def check(report, gold=gold):
            molien = report.klein.molien
            if list(molien.dims) != gold["dims"]:
                return "invariant dimensions differ from golden"
            if list(molien.matched or ()) != gold["matched"]:
                return f"recovered form {molien.matched} differs from golden"
            if list(report.flags) != gold["flags"]:
                return f"flags {report.flags} differ from golden"
            if list(report.coefficients) != gold["dims"][: len(report.coefficients)]:
                return "reported coefficients differ from golden dims"
            return None

        items.append(Item(text, lambda spec=spec: catalog.evaluate(spec), check))

    def before_pass():
        # a fresh process pays closure and sweep; a warm cache would time a lookup
        invariants.build_group.cache_clear()
        if invariants.build_group.cache_info().currsize != 0:
            raise RuntimeError("build_group cache did not clear")

    return Workload(items, before_pass)


# -- hilbert-numerator ---------------------------------------------------------------


def _hilbert_numerator(api, golden, seed):
    """The corpus is fixed; the seed relabels its variables.

    That keeps the work per pass steady across seeds while changing the pivot
    tie-breaks and memo keys the recursion sees; the series cannot change.
    """
    rng = random.Random(seed)
    hilbert = api.hilbert
    items = []
    for k, gold in enumerate(golden["hilbert-numerator"]):
        nvars = gold["nvars"]
        perm = list(range(nvars))
        rng.shuffle(perm)
        gens = []
        for g in gold["gens"]:
            mono = [0] * nvars
            for v, e in g:
                mono[perm[v]] = e
            gens.append(tuple(mono))
        ideal = hilbert.MonomialIdeal.from_generators(nvars, gens)
        canon_den = (1,) * gold["canonical_den_count"]
        expected_expansion = reference.expand(
            gold["canonical_numerator"], canon_den, HILBERT_EXPAND_DEGREE)

        def run(ideal=ideal):
            series = api.hilbert.series_from_monomial_ideal(ideal)
            canon = series.canonical()
            return series, canon, canon.expand(HILBERT_EXPAND_DEGREE)

        def check(out, gold=gold, canon_den=canon_den, expected=expected_expansion):
            series, canon, expansion = out
            if list(series.numerator) != gold["numerator"] \
                    or series.den_weights != (1,) * gold["nvars"]:
                return "numerator differs from the reference recursion"
            if list(canon.numerator) != gold["canonical_numerator"] \
                    or canon.den_weights != canon_den:
                return f"canonical form {canon.render()} differs from golden"
            if list(expansion) != expected:
                return "expansion differs from the reference expansion"
            return None

        label = f"ideal{k}({nvars}v,{len(gold['gens'])}g)"
        items.append(Item(label, run, check))
    return Workload(items)


WORKLOADS = {
    "groebner-build": _groebner_build,
    "groebner-reduce": _groebner_reduce,
    "molien-klein": _molien_klein,
    "hilbert-numerator": _hilbert_numerator,
}
