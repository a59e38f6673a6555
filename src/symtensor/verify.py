"""End-to-end verification suite: cross-route identities, oracles, and bounds.

Each check returns a CheckResult; the CLI prints one line per check and tests
assert on the same objects.  A check fails by raising IntegrityError, which
``python -O`` leaves in place, unlike an assert statement.  Groebner bases are
computed once per run and shared, with their cost attributed to the first check
that needs them.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from . import catalog
from .errors import (EXIT_CHECK_FAILED, EXIT_LIMIT, EXIT_OK, IntegrityError,
                     LimitExceeded)
from .groebner import GroebnerLimits, normal_form, s_polynomial
from .hilbert import (HilbertSeries, MonomialIdeal, series_from_expansion,
                      series_from_monomial_ideal)
from .invariants import invariant_dimension

PASS = "pass"
FAIL = "fail"
LIMIT = "limit"        # work cut short by a budget

KLEIN_GROUPS = (("BD", 2), ("BD", 3), ("2T", None), ("2O", None), ("2I", None))


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str
    elapsed: float


class VerifyContext:
    """Caches Groebner routes and records series for the integrity sweep."""

    def __init__(self, max_degree: int = catalog.DEFAULT_MAX_DEGREE,
                 limits: GroebnerLimits = catalog.DEFAULT_LIMITS):
        self.max_degree = max_degree
        self.limits = limits
        self.routes: dict[str, tuple] = {}  # spec text -> (presentation, basis, series)
        self.recorded_series: list = []

    def route(self, text: str):
        """(presentation, basis, series) for a Groebner-backed spec, cached.

        The run is undriven: no closed form bounds it, so the series it
        gives can check the closed forms.
        """
        if text not in self.routes:
            spec = catalog.parse_spec(text)
            presentation = catalog.ideal_presentation_for(spec)
            basis, series = catalog.groebner_route(presentation, self.limits)
            self.routes[text] = (presentation, basis, series)
            self.recorded_series.append((text, series))
        return self.routes[text]

    def record_series(self, label, series):
        self.recorded_series.append((label, series))


def _route_krull(ctx: VerifyContext, text: str) -> int:
    """Krull dimension of a Groebner-backed spec's series, checked against its bounds."""
    return catalog.check_dimension_bounds(catalog.parse_spec(text), ctx.route(text)[2])


_CHECKS: list = []


def _check(name):
    def decorate(fn):
        def wrapper(ctx: VerifyContext) -> CheckResult:
            start = time.monotonic()
            try:
                status, detail = fn(ctx)
            except LimitExceeded as exc:
                return CheckResult(name, LIMIT, f"limit: {exc}", time.monotonic() - start)
            except IntegrityError as exc:
                return CheckResult(name, FAIL, f"{type(exc).__name__}: {exc}",
                                   time.monotonic() - start)
            return CheckResult(name, status, detail, time.monotonic() - start)
        wrapper.__name__ = fn.__name__
        wrapper.check_name = name
        _CHECKS.append(wrapper)
        return wrapper
    return decorate


@_check("projective-space-two-route")
def _check_projective_two_route(ctx):
    """Rank-one nilpotent-cone route equals the closed binomial formula."""
    details = []
    for n in (2, 3):
        _, _, series = ctx.route(f"Gr(1,{n})")
        want = catalog.projective_space_series(n - 1)
        if series != want:
            raise IntegrityError(
                f"Gr(1,{n}) series {series.render()} != Pn({n - 1}) {want.render()}")
        details.append(f"Gr(1,{n}) = Pn({n - 1}) = {want.render()}")
    return PASS, "; ".join(details) + " as rational functions"


@_check("quadric-coincidences")
def _check_quadric_coincidences(ctx):
    _, _, q1 = ctx.route("Q(1)")
    want1 = HilbertSeries((1, 1), (1, 1))
    if q1 != want1:
        raise IntegrityError(f"Q(1) series {q1.render()} != {want1.render()}")
    _, _, q2 = ctx.route("Q(2)")
    line = catalog.projective_space_series(1)
    kunneth = line * line
    ctx.record_series("Pn(1)*Pn(1)", kunneth)
    if q2 != kunneth:
        raise IntegrityError(f"Q(2) series {q2.render()} != product of lines {kunneth.render()}")
    return PASS, (f"Q(1) = {want1.render()}; Q(2) = Pn(1)*Pn(1) = {kunneth.render()} "
                  "as rational functions")


@_check("homogeneous-bigness-quadrics")
def _check_homogeneous_bigness(ctx):
    details = [f"Q({n}):{_route_krull(ctx, f'Q({n})')}" for n in (1, 2, 3)]
    return PASS, "krull = 2*dim for " + ", ".join(details)


@_check("grassmannian-2-4-bigness")
def _check_grassmannian_bigness(ctx):
    spec = catalog.parse_spec("Gr(2,4)")
    return PASS, f"Gr(2,4) krull dimension {_route_krull(ctx, spec.text())} == {2 * spec.dim_x()}"


@_check("hitchin-bridge")
def _check_hitchin_bridge(ctx):
    left, right = (catalog.evaluate(catalog.parse_spec(text)).series
                   for text in ("Hitchin(g=2,r=2,d=1,fixed)", "2Q(3)"))
    ctx.record_series("Hitchin(2,2,1,fixed)", left)
    if left != right:
        raise IntegrityError(f"{left.render()} != {right.render()}")
    return PASS, f"genus-2 rank-2 fixed-determinant series equals {right.render()}"


@_check("klein-molien")
def _check_klein_molien(ctx):
    # BD_n and 2I must match their stated rows; 2T and 2O report the rows they match
    exact, recovered = [], []
    for label, n in KLEIN_GROUPS:
        report = catalog.ruled_klein(label, n)
        name = f"BD_{n}" if n else label
        if label in ("2T", "2O"):
            if report.molien.matched is None:
                raise IntegrityError(f"{label}: no hypersurface form recovered")
            if report.match is None:
                stated_result = f"stated {report.row.name} row is not weighted-homogeneous"
            else:
                stated_result = ("matches stated row" if report.match
                                 else "differs from stated row")
            matches = "+".join(report.matching_rows) if report.matching_rows else "none"
            recovered.append(
                f"{label}: recovered (d1,d2,d3,e)={report.molien.matched}; {stated_result}; "
                f"table rows matched: {matches}")
        else:
            if report.match is not True:
                raise IntegrityError(f"{name} does not match its stated {report.row.name} row")
            if label == "2I" and report.molien.matched != (12, 20, 30, 60):
                raise IntegrityError(f"2I recovered {report.molien.matched}, not (12, 20, 30, 60)")
            exact.append(f"{name} matches {'its' if n else 'the'} {report.row.name} row "
                         "as a rational function")
        ctx.record_series(catalog.VarietySpec(kind="Klein", group=label, n=n).text(),
                          report.molien.series)
    return PASS, "; ".join(exact + recovered)


def _taylor_series(ideal: MonomialIdeal) -> HilbertSeries:
    """Taylor's resolution: the sum over generator subsets S of (-1)^|S| t^deg lcm(S),
    over (1 - t)^nvars, each lcm a tuple of maxima."""
    terms = [((0,) * ideal.nvars, 1)]
    for g in ideal.gens:
        terms += [(tuple(map(max, lcm, g)), -sign) for lcm, sign in terms]
    numerator = [0] * (max(sum(lcm) for lcm, _ in terms) + 1)
    for lcm, sign in terms:
        numerator[sum(lcm)] += sign
    return HilbertSeries(tuple(numerator), (1,) * ideal.nvars)


@_check("monomial-ideal-oracle")
def _check_monomial_oracle(ctx):
    rng = random.Random(20260809)
    for i in range(20):
        nvars = rng.randint(1, 8)
        gens = []
        for _ in range(rng.randint(1, 12)):
            exps = [0] * nvars
            for _ in range(rng.randint(1, 4)):
                exps[rng.randrange(nvars)] += 1
            gens.append(exps)
        ideal = MonomialIdeal.from_generators(nvars, gens)
        series = series_from_monomial_ideal(ideal)
        ctx.record_series(f"random-monomial-{i}", series)
        want = _taylor_series(ideal)
        if series != want:
            raise IntegrityError(f"ideal {ideal.gens} in {nvars} vars: "
                                 f"{series.render()} != Taylor's sum {want.render()}")
    return PASS, "20 seeded random ideals equal Taylor's alternating lcm sum as rational functions"


@_check("groebner-contract")
def _check_groebner_contract(ctx):
    routes = ctx.routes
    if not routes:
        return LIMIT, "no groebner bases available (earlier checks hit their limits)"
    total_pairs = 0
    for text, (presentation, basis, _) in sorted(routes.items()):
        elements = basis.elements
        for g in presentation.generators:
            nf = normal_form(g, elements)
            if not nf.is_zero:
                raise IntegrityError(f"{text}: input generator {g.render()} has nonzero NF")
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                spair = s_polynomial(elements[i], elements[j])
                nf = normal_form(spair, elements)
                if not nf.is_zero:
                    raise IntegrityError(f"{text}: S-pair ({i},{j}) does not reduce to zero")
                total_pairs += 1
    return PASS, (f"{total_pairs} S-pairs and all input generators reduce to zero "
                  f"across {len(routes)} bases")


@_check("dimension-bounds")
def _check_dimension_bounds(ctx):
    reports = []
    for kind in ("Ab", "Pn", "2Q"):
        for n in (1, 2, 3):
            spec = catalog.parse_spec(f"{kind}({n})")
            series = catalog.evaluate(spec).series
            ctx.record_series(spec.text(), series)
            krull = catalog.check_dimension_bounds(spec, series)
            if kind == "Ab":
                # kappa = 0 bounds krull by dim without forcing equality: a K3 surface
                # has kappa = 0 and only constants (Trivial(c1_zero_finite_pi1))
                if krull != spec.dim_x():
                    raise IntegrityError(f"{spec.text()} should meet the kappa bound exactly")
                reports.append(f"{spec.text()}:{krull}<=({spec.dim_x()}-0)")
            elif kind == "Pn":
                reports.append(f"{spec.text()}:{krull}=2*{spec.dim_x()}")
    spec = catalog.parse_spec("Hitchin(g=2,r=2,d=1,fixed)")
    catalog.check_dimension_bounds(spec, catalog.evaluate(spec).series)
    for text in sorted(ctx.routes):
        reports.append(f"{text}:{_route_krull(ctx, text)}<={2 * catalog.parse_spec(text).dim_x()}")
    for label, n in KLEIN_GROUPS:
        spec = catalog.VarietySpec(kind="Klein", group=label, n=n)
        krull = catalog.check_dimension_bounds(spec, catalog.ruled_klein(label, n).molien.series)
        reports.append(f"{spec.text()}:{krull}<={2 * spec.dim_x()}")
    return PASS, "; ".join(reports)


@_check("integrity")
def _check_integrity(ctx):
    depth = max(catalog.DEFAULT_MAX_DEGREE, ctx.max_degree)
    for _, series in ctx.recorded_series:
        series.expand(depth)  # raises IntegrityError on any negative coefficient
    averages = 0
    for label, n in KLEIN_GROUPS:
        # every term 1/det(1 - tg) of the Molien sum is N_g/((1 - t^2)(1 - t^|G|))
        # with deg N_g <= |G|, so the averages through degree |G| fix the series
        report = catalog.ruled_klein(label, n)
        order = report.group.order
        dims = [invariant_dimension(report.group, p) for p in range(order + 1)]
        fit = series_from_expansion(dims, (2, order))
        if fit != report.molien.series:
            raise IntegrityError(f"{report.group!r}: the averages fit {fit.render()}, not the "
                                 f"Molien series {report.molien.series.render()}")
        averages += len(dims)
    return PASS, (f"{len(ctx.recorded_series)} series re-expanded through degree {depth} "
                  f"with no negative coefficients; {averages} direct invariant averages "
                  "through degree |G| fit the exact Molien series as rational functions")


@_check("closed-form-oracle")
def _check_closed_form_oracle(ctx):
    """Undriven Groebner series equal the families' closed forms, and Q(4) = Gr(2,4)."""
    texts = [f"Gr(1,{n})" for n in range(2, 6)] + ["Gr(2,4)", "Gr(2,5)"] + [
        f"Q({n})" for n in range(1, 5)]
    for text in texts:
        spec = catalog.parse_spec(text)
        _, _, series = ctx.route(text)
        want = catalog.FAMILIES[spec.kind].closed_form(spec)
        if series != want:
            raise IntegrityError(
                f"{text}: series {series.render()} != closed form {want.render()}")
    q4, gr24 = ctx.route("Q(4)")[2], ctx.route("Gr(2,4)")[2]
    if q4 != gr24:
        raise IntegrityError(f"Q(4) series {q4.render()} != Gr(2,4) {gr24.render()}")
    return PASS, (f"undriven series equal the closed forms for {', '.join(texts)}; "
                  "Q(4) = Gr(2,4) as rational functions")


def run_verification(max_degree: int = catalog.DEFAULT_MAX_DEGREE,
                     limits: GroebnerLimits = catalog.DEFAULT_LIMITS):
    """Run every check in order; returns (results, context)."""
    ctx = VerifyContext(max_degree, limits)
    results = [check(ctx) for check in _CHECKS]
    return results, ctx


def exit_code(results) -> int:
    """EXIT_CHECK_FAILED on any failure, else EXIT_LIMIT when any check hit a budget."""
    if any(r.status == FAIL for r in results):
        return EXIT_CHECK_FAILED
    if any(r.status == LIMIT for r in results):
        return EXIT_LIMIT
    return EXIT_OK
