"""Spans around symtensor's public calls, recorded from outside the package.

Wrappers replace module attributes (and two HilbertSeries methods) only while
a traced pass runs.  Each span is (name, start, end, parent index, item id,
pass index); spans stay in memory until the benchmark writes them out.  A
layer's self time is its span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# per-layer time metric -> span name
LAYER_SPANS = {
    "catalog.build_s": "catalog.build",
    "groebner.buchberger_s": "groebner.buchberger",
    "groebner.lead_ideal_s": "groebner.lead_ideal",
    "groebner.normal_form_s": "groebner.normal_form",
    "groebner.s_polynomial_s": "groebner.s_polynomial",
    "hilbert.numerator_s": "hilbert.numerator",
    "hilbert.canonical_s": "hilbert.canonical",
    "hilbert.expand_s": "hilbert.expand",
    "invariants.closure_s": "invariants.closure",
    "invariants.sweep_s": "invariants.sweep",
    "invariants.search_s": "invariants.search",
    "catalog.rows_s": "catalog.rows",
}

COUNTS = ("groebner.input_gens", "groebner.basis_size", "groebner.pairs_checked",
          "hilbert.lead_gens", "hilbert.numerator_terms", "invariants.group_order",
          "invariants.distinct_traces", "invariants.window")


def _count_buchberger(counts, args, result):
    counts["groebner.input_gens"] += len(args[0].generators)
    counts["groebner.basis_size"] += len(result.elements)


def _count_numerator(counts, args, result):
    counts["hilbert.lead_gens"] += len(args[0].gens)
    counts["hilbert.numerator_terms"] += len(result.numerator)


def _count_group(counts, args, group):
    counts["invariants.group_order"] += group.order
    counts["invariants.distinct_traces"] += len({g.trace().coeffs for g in group.elements})


def _count_window(counts, args, result):
    counts["invariants.window"] += len(result.dims) - 1


def _count_pair(counts, args, result):
    counts["groebner.pairs_checked"] += 1


def _targets(api):
    """(owner, attribute, span name, count hook) for every wrapped call."""
    catalog, groebner, hilbert, invariants = (
        api.catalog, api.groebner, api.hilbert, api.invariants)
    series = hilbert.HilbertSeries
    return [
        (catalog, "evaluate", "catalog.evaluate", None),
        (catalog, "grassmannian_ideal", "catalog.build", None),
        (catalog, "quadric_ideal", "catalog.build", None),
        (catalog, "buchberger", "groebner.buchberger", _count_buchberger),
        (catalog, "leading_term_ideal", "groebner.lead_ideal", None),
        (catalog, "series_from_monomial_ideal", "hilbert.numerator", _count_numerator),
        (hilbert, "series_from_monomial_ideal", "hilbert.numerator", _count_numerator),
        (series, "canonical", "hilbert.canonical", None),
        (series, "expand", "hilbert.expand", None),
        (groebner, "normal_form", "groebner.normal_form", None),
        (groebner, "s_polynomial", "groebner.s_polynomial", _count_pair),
        (catalog, "ruled_klein", "catalog.rows", None),
        (catalog, "build_group", "invariants.closure", _count_group),
        (catalog, "molien_series", "invariants.search", _count_window),
        (invariants, "invariant_dimension", "invariants.sweep", None),
    ]


class Tracer:
    def __init__(self, api):
        self.spans = []
        self.counts = {}
        self.item = None
        self.pass_index = None
        self._stack = []
        self._targets = _targets(api)
        self._originals = [getattr(owner, attr) for owner, attr, _, _ in self._targets]

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.item, self.pass_index]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(self.counts[self.pass_index], args, result)
            return result
        return traced

    def span(self, name, fn):
        """Run fn() inside a top-level span of its own."""
        return self._wrap(name, fn, None)()

    def install(self, pass_index):
        self.pass_index = pass_index
        self.counts[pass_index] = defaultdict(int)
        for (owner, attr, name, count), original in zip(self._targets, self._originals):
            setattr(owner, attr, self._wrap(name, original, count))

    def uninstall(self):
        for (owner, attr, _, _), original in zip(self._targets, self._originals):
            setattr(owner, attr, original)
        self.pass_index = None

    def self_times(self):
        """{pass index: {span name: summed self time}}."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, _, _, pass_index) in enumerate(self.spans):
            out[pass_index][name] += end - start - child_time[index]
        return out
