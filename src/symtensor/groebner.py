"""Buchberger's algorithm: reduced Groebner bases and initial ideals.

Pair selection is the normal strategy (minimal lcm total degree, ties broken
by pair index), and pairs are built one degree at a time.  Inserting a basis
element only files it, unscanned, in one map by degree, under the least
degree its lcms can have; when the run reaches a degree, each entry filed
there is scanned, its candidates of that degree become pairs, and the rest
are filed under their own degrees.  So nothing past the degree where a
Hilbert-driven run stops is scanned or built.  Pairs follow Gebauer and
Moller: the M, F and product (coprime) criteria filter a degree's candidates
as it is built, and the B-criterion tests a pair when it is popped.  The
append-only reducer set indexes its leading monomials by their last variable,
so a divisor lookup scans only the reducers that can divide, and remembers
each monomial's first divisor.  Every returned basis is the unique reduced
basis, so repeated runs are bitwise reproducible.

One order.  The engine works under degrevlex only.  For a homogeneous ideal
R/I and R/in(I) have the same Hilbert function under every monomial order
(Cox, Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 9 sec. 3), so
the order behind the Hilbert series is an internal choice.  Under degrevlex a
leading monomial has the largest total degree of its polynomial, so a
reduction step never raises the total degree.

Hilbert-driven runs.  Given a series B no larger than the Hilbert series of
R/I in any degree, ``buchberger`` stops as soon as its lead ideal's series
equals B, and drops a degree's remaining pairs once that degree's count of
standard monomials equals B's (Traverso, "Hilbert functions and the
Buchberger algorithm", J. Symbolic Comput. 22, 1996).  The series it stopped
on is returned with the basis, so no caller computes it again.  Without B it
runs every pair the criteria keep.

Packed monomials.  A monomial is one ``int``, its degrevlex key in the
:class:`poly.Packing` that ``poly.layout`` keeps per variable count and field
width; a ``Polynomial`` stores its terms as such keys, so the engine takes them
as they are and repacks them only into a wider layout.  A basis goes back as
keys, a lead ideal as its generators' exponent vectors, both in these layouts.

Every packed monomial has total degree at most the field capacity 2^w - 1,
which bounds every exponent; the width is the narrowest that holds the
inputs' degrees.  Buchberger's presentations are homogeneous, every variable
having degree 1, so each term of an S-polynomial and of its reduction has the
total degree of the pair's lcm, and all fields are repacked wider before a
pair of degree above the capacity is reduced.  ``normal_form`` works in the
layout of the largest degree of p and of the basis, which no reduction step
passes, and ``s_polynomial`` in that of deg f + deg g, which holds the lcm.

``normal_form`` keeps the reducer set of the last basis it was given, with its
divisor index and first-divisor memo, and reuses it while an equal basis
comes back with fields wide enough; the set never grows, so the memo stays
true across calls, and it is emptied once it holds more than ``MEMO_CAP``
monomials, so many calls against one basis keep bounded memory.

Basis entries, like every ``Polynomial``, hold exact scalars as
``exactnum.exact`` makes them: an ``int`` when integral, else a ``Fraction``.
``_Reducers.reduce`` makes each term exact as it emits it, the one place where
a reduction's scalars are normalised.
"""

from __future__ import annotations

import heapq
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real

from . import hilbert
from .errors import IntegrityError, LimitExceeded
from .exactnum import exact
from .hilbert import HilbertSeries, MonomialIdeal
from .poly import Polynomial, VariableContext, layout


@dataclass(frozen=True)
class GroebnerLimits:
    """Optional budgets for a single buchberger run.

    ``max_degree`` caps the total degree of a reduced pair's lcm, and
    ``timeout`` the seconds a run may take; None sets no limit.  Any other
    value that is not an int >= 0, or a number > 0, raises ValueError, so a
    nan cannot switch a limit off.
    """

    max_degree: int | None = None
    timeout: float | None = None

    def __post_init__(self):
        cap, timeout = self.max_degree, self.timeout
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
            raise ValueError(f"max_degree must be an int >= 0 or None, got {cap!r}")
        if timeout is not None and (isinstance(timeout, bool) or not isinstance(timeout, Real)
                                    or not timeout > 0):
            raise ValueError(f"timeout must be a number of seconds > 0 or None, got {timeout!r}")


@dataclass(frozen=True)
class IdealPresentation:
    """Homogeneous generators (every variable of degree 1) in a pinned context."""

    ctx: VariableContext
    generators: tuple[Polynomial, ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.ctx != self.ctx:
                raise ValueError("generator context mismatch")
            if g.is_zero:
                raise ValueError("zero generator in ideal presentation")
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous generator: {g.render()}")


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis: monic elements, no term divisible by another leading term.

    ``series`` is the Hilbert series of R/in(I) when a Hilbert-driven run
    stopped on it, else None; equality and hashing ignore it.
    """

    ctx: VariableContext
    elements: tuple[Polynomial, ...]
    series: HilbertSeries | None = field(default=None, compare=False)


# -- dict-polynomial core -----------------------------------------------------
#
# Inside the engine a polynomial is a dict {packed monomial: int or Fraction}
# and a basis entry is (leading monomial, tail) with the element kept monic.


def _entry(terms):
    """Monic entry (lt, tail) from exact (monomial, coefficient) pairs, the leading term first."""
    (lt, lc), *tail = terms
    if lc == 1:
        return lt, tuple(tail)
    if type(lc) is int and all(type(c) is int and not c % lc for _, c in tail):
        return lt, tuple([(m, c // lc) for m, c in tail])
    inv = 1 / Fraction(lc)
    return lt, tuple([(m, exact(c * inv)) for m, c in tail])


class _Reducers:
    """Append-only monic reducers with their exponent vectors and a divisor index.

    ``buckets[v + 1]`` lists in insertion order the reducers whose leading
    monomial's last variable is v, and ``buckets[0]`` the constant ones.  A
    divisor of m has its last variable in m's support, so ``first_divisor``
    scans the constants' bucket and the buckets of m's support variables,
    each up to its first divisor or an index past the best found so far, and
    returns the smallest: the first reducer in insertion order whose leading
    monomial divides m.  ``memo`` maps a monomial to that index, or to ~k
    when none of the first k reducers divides it, so a later lookup bisects
    each bucket at k and scans only the reducers added since.
    """

    __slots__ = ("pk", "lts", "tails", "exps", "buckets", "memo")

    def __init__(self, pk):
        """Empty reducers in the layout pk."""
        self.pk = pk
        self.lts, self.tails, self.exps = [], [], []
        self.buckets = [[] for _ in range(pk.total // pk.width + 1)]
        self.memo = {}

    def add(self, lt, tail):
        pk = self.pk
        e = pk.exps(lt)
        k = len(self.lts)
        self.lts.append(lt)
        self.tails.append(tail)
        self.exps.append(e)
        # the guard bit of variable v ends at bit (v + 1) * width
        support = ((e | pk.guards) - pk.ones) & pk.guards
        self.buckets[support.bit_length() // pk.width].append(k)
        return k

    def repack(self, pk):
        """Move every entry to the wider layout pk; the memo is keyed by old ints.

        Variable indices do not change, so neither do the buckets.
        """
        old = self.pk
        self.pk = pk
        self.lts = [pk.pack(old.unpack(m)) for m in self.lts]
        self.tails = [tuple([(pk.pack(old.unpack(m)), c) for m, c in tail])
                      for tail in self.tails]
        self.exps = [pk.exps(m) for m in self.lts]
        self.memo = {}

    def first_divisor(self, m):
        """Index of the first reducer whose leading monomial divides m, or None."""
        k = self.memo.get(m, -1)
        if k >= 0:
            return k
        start, n = ~k, len(self.lts)
        if start >= n:
            return None
        pk = self.pk
        guards, width = pk.guards, pk.width
        e = -m & pk.low
        support = ((e | guards) - pk.ones) & guards
        exps, buckets = self.exps, self.buckets
        best = n
        bucket = buckets[0]
        while True:
            for pos in range(bisect_left(bucket, start), len(bucket)):
                k = bucket[pos]
                if k >= best:
                    break
                if not (e - exps[k]) & guards:
                    best = k
                    break
            if not support:
                break
            bit = support & -support
            support ^= bit
            bucket = buckets[bit.bit_length() // width]
        if best < n:
            self.memo[m] = best
            return best
        self.memo[m] = ~n
        return None

    def reduce(self, target):
        """Full normal form of a dict-polynomial, as a dict of exact nonzero scalars.

        Its keys descend in insertion order: the heap pops keys in decreasing
        order, and every term a step adds is below the one it cancels.
        """
        first_divisor = self.first_divisor
        lts, tails = self.lts, self.tails
        coeffs = dict(target)
        heap = [-m for m in coeffs]
        heapq.heapify(heap)
        out = {}
        while heap:
            m = -heapq.heappop(heap)
            c = coeffs.pop(m, 0)
            if not c:
                continue
            k = first_divisor(m)
            if k is None:
                out[m] = exact(c)
                continue
            q = m - lts[k]
            neg_c = -c
            for tm, tc in tails[k]:
                nm = q + tm
                prev = coeffs.get(nm)
                if prev is None:
                    coeffs[nm] = neg_c * tc
                    heapq.heappush(heap, -nm)
                else:
                    coeffs[nm] = prev + neg_c * tc
        return out


def _spoly_dict(lcm, entry_f, entry_g):
    """S-polynomial of two monic entries with packed lcm; the shared leading term cancels.

    Terms that cancel stay, with coefficient 0.
    """
    ltf, tailf = entry_f
    ltg, tailg = entry_g
    qf = lcm - ltf
    qg = lcm - ltg
    d = {}
    for m, c in tailf:
        nm = qf + m
        d[nm] = d.get(nm, 0) + c
    for m, c in tailg:
        nm = qg + m
        d[nm] = d.get(nm, 0) - c
    return d


_NEVER = 2**32 - 1  # removed[g] while no later entry's leading monomial divides g's


class _PairQueue:
    """Critical pairs under the Gebauer-Moller criteria (Gebauer and Moller 1988),
    built one degree at a time.

    ``removed[g]`` is the first entry whose leading monomial divides g's, so
    the active entries, which no later entry divides, are those with
    removed[g] = _NEVER, and the entries active when h was inserted are the
    g < h with removed[g] >= h; only active entries form new pairs.
    ``pending`` maps a degree to records (h, gs): the g whose candidate
    (g, h) has an lcm of that degree, or gs = None while h is unscanned,
    filed by ``update(h)`` under the least degree its lcms can have.
    ``build(d)`` turns the degree-d candidates into pairs, which ``heap``
    holds as (degree, i, j), i < j, until they are popped; coprime pairs
    never enter it.  ``kept[h]`` lists, as indices, the g whose candidate
    passed the M and F criteria in the degrees built so far, so a repacking
    leaves it valid.  Homogeneous input under the normal strategy consumes
    pairs in degree order, so a degree the run never reaches is never
    scanned or built."""

    __slots__ = ("red", "removed", "heap", "pending", "kept")

    def __init__(self, red):
        self.red = red
        self.removed = array("I")
        self.heap = []
        self.pending = {}
        self.kept = {}

    def update(self, h):
        """Record the new entry h and the entries it removes from the active ones.

        Every lcm(g, h) has degree at least deg h, and above it unless an
        earlier entry's leading monomial divides h's, as one may among the
        inputs.
        """
        red, removed = self.red, self.removed
        exps, guards = red.exps, red.pk.guards
        e_h = exps[h]
        least = red.pk.degree(e_h) + (red.first_divisor(red.lts[h]) == h)
        self.pending.setdefault(least, []).append((h, None))
        for g in [g for g in range(h) if not (exps[g] - e_h) & guards and removed[g] == _NEVER]:
            removed[g] = h
        removed.append(_NEVER)

    def active(self):
        """The entries whose leading monomial no later entry's divides."""
        return [g for g, by in enumerate(self.removed) if by == _NEVER]

    def build(self, deg, tick):
        """Queue the degree-deg pairs, calling tick() before each record.

        An unscanned h, filed under its least degree deg, is scanned here: its
        degree-deg candidates go on to the criteria, and the rest are filed
        under their own degrees.  M and F criteria: entry by entry, and g by
        g, keep the first candidate of each minimal lcm(g, h) among h's
        candidates of degree <= deg, and queue it unless coprime.  A coprime
        (g, h) comes first among the pairs with its lcm lt(g) lt(h): another
        g' with that lcm has lt(g) | lt(g'), so either g' came after g, with a
        larger index, or g came later and removed g'.  The criteria compare
        only candidates of one h, so the order of the entries does not
        matter.
        """
        pk, exps, pending = self.red.pk, self.red.exps, self.pending
        lcm_of, degree, guards = pk.lcm, pk.degree, pk.guards
        removed = self.removed
        for h, gs in pending.pop(deg, ()):
            tick()
            e_h = exps[h]
            if gs is None:
                deg_h = degree(e_h)
                by_degree = {}
                # the entries active when h was inserted
                for g in [g for g in range(h) if removed[g] >= h]:
                    # lcm / h divides g, so its degree fits a field even when the lcm's may not
                    d = deg_h + degree(lcm_of(exps[g], e_h) - e_h)
                    later = by_degree.get(d)
                    if later is None:
                        later = by_degree[d] = array("I")
                    later.append(g)
                gs = by_degree.pop(deg, ())
                for d, later in by_degree.items():
                    pending.setdefault(d, []).append((h, later))
            kept = self.kept.setdefault(h, [])
            lcms = [lcm_of(exps[g], e_h) for g in kept]
            for g in gs:
                e_g = exps[g]
                lcm = lcm_of(e_g, e_h)
                for k in lcms:
                    if not (lcm - k) & guards:
                        break
                else:
                    lcms.append(lcm)
                    kept.append(g)
                    if lcm - e_h != e_g:
                        heapq.heappush(self.heap, (deg, g, h))

    def redundant(self, i, j):
        """B-criterion for (i, j): an entry h > j, inserted after the pair, has
        lt(h) | lcm(i, j) while lcm(i, h) and lcm(j, h) both differ from it."""
        pk, exps = self.red.pk, self.red.exps
        lcm_of, guards = pk.lcm, pk.guards
        e_i, e_j = exps[i], exps[j]
        lcm = lcm_of(e_i, e_j)
        for h in range(j + 1, len(exps)):
            e_h = exps[h]
            if not (lcm - e_h) & guards and lcm_of(e_i, e_h) != lcm and lcm_of(e_j, e_h) != lcm:
                return True
        return False


# -- public operations ---------------------------------------------------------


# The reducers of the last basis given to normal_form: one tuple (basis, ctx,
# reducers).  The reducers never grow once built, so each entry of their
# first-divisor memo stays true for as long as they are kept, and a call that
# fails can leave the memo incomplete but never wrong.  The tuple is rebound in
# a single assignment once the reducers are complete, so a call that fails
# while building them leaves the previous one intact.  Polynomials are
# immutable, so reusing it keeps normal_form a pure function of its arguments.
_last_basis = None

# normal_form clears the kept reducers' memo once it holds more entries than
# this; an emptied memo is incomplete but never wrong
MEMO_CAP = 32_768


def _basis_reducers(basis, ctx, bound):
    """The reducers of a basis tuple, reusing the last basis's.

    Their packing holds total degree ``bound`` and every basis element's.
    """
    global _last_basis
    last = _last_basis
    if last is not None and last[0] == basis and last[1] == ctx and last[2].pk.cap >= bound:
        return last[2]
    polys = []
    for b in basis:
        if not isinstance(b, Polynomial):
            raise TypeError(f"basis entry is not a Polynomial: {b!r}")
        if b.ctx != ctx:
            raise ValueError("basis context mismatch")
        if not b.is_zero:
            polys.append(b)
            bound = max(bound, b.degree())
    red = _Reducers(layout(ctx.nvars, bound))
    for b in polys:
        red.add(*_entry(b.packed_in(red.pk)))
    _last_basis = (basis, ctx, red)
    return red


def normal_form(p: Polynomial, basis) -> Polynomial:
    """Remainder of p modulo the basis: no term divisible by any basis leading term.

    Every basis entry must be a ``Polynomial`` in p's context (else TypeError or
    ValueError); zero polynomials are skipped.  The reducers of the last
    basis, packed monic entries with their divisor index and first-divisor
    memo, are kept and reused while an equal basis comes back with fields
    wide enough, so reducing many polynomials against one basis builds them
    once and looks up each monomial's first divisor once.  p's keys are
    reduced as they are, repacked only when the reducers' layout is wider,
    and a memo past ``MEMO_CAP`` entries is cleared after the call.
    """
    red = _basis_reducers(tuple(basis), p.ctx, p.degree())
    out = red.reduce(p.packed_in(red.pk))
    if len(red.memo) > MEMO_CAP:
        red.memo.clear()
    return Polynomial.from_keys(p.ctx, red.pk, out)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of the monic normalizations of f and g.

    Both are packed in the layout that holds deg f + deg g, so it holds their
    leading monomials' lcm, and no term of the S-polynomial has a larger degree.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of a zero polynomial")
    if f.ctx != g.ctx:
        raise ValueError("context mismatch")
    pk = layout(f.ctx.nvars, f.degree() + g.degree())
    entry_f, entry_g = _entry(f.packed_in(pk)), _entry(g.packed_in(pk))
    lcm = pk.lcm(pk.exps(entry_f[0]), pk.exps(entry_g[0]))
    spoly = _spoly_dict(pk.key(lcm, pk.degree(lcm)), entry_f, entry_g)
    return Polynomial.from_keys(f.ctx, pk, spoly)


def buchberger(ideal: IdealPresentation, limits: GroebnerLimits | None = None,
               bound: HilbertSeries | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of a homogeneous ideal.

    Raises LimitExceeded, whose message and fields give the S-pairs reduced,
    the degree reached and the time elapsed, when the configured degree cap
    or timeout is hit before completion.  The timeout is checked before every
    inserted basis element, popped pair and lead-ideal series, and before each
    record of the pair queue's degree map while a degree is built; the degree
    cap applies to the pairs that are reduced.

    ``bound``, a series B with B <= H(R/I) in every degree, drives the run
    (Traverso 1996).  The lead ideal J of the elements so far has
    H(R/J) >= H(R/I) >= B, so H(R/J) = B forces J = in(I), and the run stops
    there, before any pair when the inputs are a basis.  The test runs when a
    degree d comes due, before it is scanned and built, and J's series is
    computed again only when an element was inserted since the last test.
    Then the deficit H(R/J)(d) - B(d) counts the nonzero reductions left in
    degree d, each adding one leading monomial; at 0 the degree's pairs are
    dropped unreduced, and below 0 IntegrityError is raised.  A bound too
    high can also pass unnoticed and give a wrong basis, so no driven run
    checks B.  The degree cap never sees a dropped pair.

    When the run stops on B, the returned basis's ``series`` is H(R/J), the
    series of its minimal leading monomials, which equals B; otherwise it is
    None.
    """
    limits = limits or GroebnerLimits()
    start = time.monotonic()
    top = max([g.degree() for g in ideal.generators], default=0)
    red = _Reducers(layout(ideal.ctx.nvars, top))
    queue = _PairQueue(red)
    pairs_processed = 0
    max_degree_seen = 0

    def _diag(msg):
        elapsed = time.monotonic() - start
        return LimitExceeded(f"{msg} (pairs processed: {pairs_processed}, max degree reached: "
                             f"{max_degree_seen}, elapsed: {elapsed:.2f}s)",
                             pairs_processed=pairs_processed, max_degree_reached=max_degree_seen,
                             basis_size=len(red.lts), elapsed=elapsed)

    def _check_timeout():
        if limits.timeout is not None and time.monotonic() - start > limits.timeout:
            raise _diag(f"groebner timeout after {limits.timeout}s")

    def _lead_series(entries):
        """The minimal reducers of the entries and their lead ideal's series."""
        _check_timeout()
        minimal = _minimal(red, entries)
        lead = MonomialIdeal(ideal.ctx.nvars, red.pk, minimal.exps)
        return minimal, hilbert.series_from_monomial_ideal(lead)

    for g in ideal.generators:
        _check_timeout()
        red.add(*_entry(g.packed_in(red.pk)))
    inputs = range(len(red.lts))
    if bound is not None:
        # tested before the inputs' updates, whose removal scans are quadratic in
        # the inputs, so inputs that already form a basis (Q(5), Q(6), Gr(1,5))
        # skip them; left to the loop's first test, the same stop came slower
        minimal, lead = _lead_series(inputs)
        if lead == bound:
            return GroebnerBasis(ideal.ctx, _reduced(ideal.ctx, minimal), lead)
    compared = len(red.lts)  # the entries behind the last lead series
    for h in inputs:
        _check_timeout()
        queue.update(h)
    deficit = 0
    while queue.heap or queue.pending:
        _check_timeout()
        due = min(queue.pending, default=None)
        if due is not None and (not queue.heap or due <= queue.heap[0][0]):
            # no pair below degree due is left, and every entry inserted from
            # here on files its record above it, so each degree comes due once;
            # the stop rule runs before the degree is scanned and built, so the
            # degree the run stops at never is
            if bound is not None:
                if len(red.lts) > compared:
                    compared = len(red.lts)
                    minimal, lead = _lead_series(queue.active())
                    if lead == bound:
                        return GroebnerBasis(ideal.ctx, _reduced(ideal.ctx, minimal), lead)
                deficit = lead.expand(due)[due] - bound.expand(due)[due]
                if deficit < 0:
                    raise IntegrityError(f"Hilbert bound exceeds the lead ideal's count by "
                                         f"{-deficit} in degree {due}")
            queue.build(due, _check_timeout)
            continue
        deg, i, j = heapq.heappop(queue.heap)
        if bound is not None and not deficit:
            continue  # in(I) is reached in this degree: the pair reduces to zero
        if queue.redundant(i, j):
            continue
        if limits.max_degree is not None and deg > limits.max_degree:
            raise _diag(f"pair of degree {deg} above cap {limits.max_degree}")
        pairs_processed += 1
        if deg > max_degree_seen:
            max_degree_seen = deg
        # every term of the S-polynomial and its reduction has the lcm's degree
        if deg > red.pk.cap:
            red.repack(layout(ideal.ctx.nvars, deg))
        lcm = red.pk.key(red.pk.lcm(red.exps[i], red.exps[j]), deg)
        spoly = _spoly_dict(lcm, (red.lts[i], red.tails[i]), (red.lts[j], red.tails[j]))
        h = red.reduce(spoly)
        if h:
            deficit -= 1  # one more degree-deg monomial in the lead ideal
            _check_timeout()
            queue.update(red.add(*_entry(h.items())))

    return GroebnerBasis(ideal.ctx, _reduced(ideal.ctx, _minimal(red, queue.active())))


def _minimal(red, entries):
    """Reducers of the entries whose leading monomials generate minimally.

    Sorted by key, a divisor comes before its multiples, so one first-divisor
    pass keeps the minimal leading monomials, the first entry of each.
    """
    minimal = _Reducers(red.pk)
    for i in sorted(entries, key=lambda i: (red.lts[i], i)):
        if minimal.first_divisor(red.lts[i]) is None:
            minimal.add(red.lts[i], red.tails[i])
    return minimal


def _reduced(ctx, minimal):
    """The unique reduced basis from the minimal reducers of entries that form a basis.

    Each tail is reduced against the minimal set, and the reduced tail
    replaces the old one for later elements.
    """
    out = []
    for pos, lt in enumerate(minimal.lts):
        tail = minimal.reduce(dict(minimal.tails[pos]))
        minimal.tails[pos] = tuple(tail.items())
        tail[lt] = 1
        out.append(Polynomial.from_keys(ctx, minimal.pk, tail))
    return tuple(out)


def leading_term_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """The initial ideal of a reduced basis.

    A reduced basis's leading monomials are distinct and none divides
    another, so their exponent vectors are the ideal's minimal generators.
    """
    pk = layout(gb.ctx.nvars, max([g.degree() for g in gb.elements], default=0))
    return MonomialIdeal(gb.ctx.nvars, pk, [pk.exps(g.packed_in(pk)[0][0]) for g in gb.elements])
