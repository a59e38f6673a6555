"""Buchberger's algorithm: reduced Groebner bases and initial ideals.

Pair selection is the normal strategy (minimal lcm total degree, ties broken
by pair index).  Pairs are managed by the Gebauer-Moller update when a basis
element is inserted: its B-criterion deletes queued pairs, and the M, F and
product (coprime) criteria filter the new ones.  Leading monomials carry
divisibility masks (Bachmann and Schonemann 1998), and the append-only
reducer set remembers each monomial's first divisor.  Every returned basis is
the unique reduced basis for its order, so repeated runs are bitwise
reproducible.

``normal_form`` keeps the monic entries and masks of the last basis it was
given and reuses them while an equal basis comes back under the same order;
its first-divisor memo lives for one call only.

Basis entries, like every ``Polynomial``, hold exact scalars as
``exactnum.exact`` makes them: an ``int`` when integral, else a ``Fraction``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import LimitExceeded
from .exactnum import exact
from .hilbert import MonomialIdeal
from .poly import (DEGREVLEX, MonomialOrder, Polynomial, VariableContext,
                   mono_degree, mono_div, mono_divides, mono_lcm, mono_mul)


@dataclass(frozen=True)
class GroebnerLimits:
    """Optional budgets for a single buchberger run.

    ``max_degree`` caps the total degree of a reduced pair's lcm, also under a
    weighted grading: pair degrees only order the work, so they do not change
    the reduced basis, but the cap then counts unweighted degrees.
    """

    max_degree: int | None = None
    timeout: float | None = None


@dataclass(frozen=True)
class IdealPresentation:
    """Homogeneous generators in a pinned context, with grading metadata."""

    ctx: VariableContext
    generators: tuple[Polynomial, ...]
    weights: tuple[int, ...] | None = None
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        weights = self.weights
        if weights is not None:
            weights = tuple(weights)
            if len(weights) != self.ctx.nvars or any(w < 1 for w in weights):
                raise ValueError("need one positive weight per variable")
            object.__setattr__(self, "weights", weights)
        for g in self.generators:
            if g.ctx != self.ctx:
                raise ValueError("generator context mismatch")
            if g.is_zero:
                raise ValueError("zero generator in ideal presentation")
            if not g.is_homogeneous(self.grading):
                raise ValueError(f"inhomogeneous generator: {g.render()}")

    @property
    def grading(self) -> tuple[int, ...]:
        return self.weights if self.weights is not None else (1,) * self.ctx.nvars


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis: monic elements, no term divisible by another leading term."""

    ctx: VariableContext
    order: MonomialOrder
    elements: tuple[Polynomial, ...]


# -- dict-polynomial core -----------------------------------------------------
#
# Inside the engine a polynomial is a dict {exponent tuple: int or Fraction}
# and a basis entry is (leading monomial, tail) with the element kept monic.


def _entry(lt, lc, terms):
    """Monic entry (lt, tail) from exact (monomial, coefficient) pairs; tails are unsorted."""
    if lc == 1:
        return lt, tuple([t for t in terms if t[0] != lt])
    inv = 1 / Fraction(lc)
    return lt, tuple([(m, exact(c * inv)) for m, c in terms if m != lt])


def _entry_from_dict(d, order):
    """Entry of a reduction result, whose sums can leave integral Fractions."""
    lt = max(d, key=order.key)
    return _entry(lt, d[lt], [(m, exact(c)) for m, c in d.items()])


def _entry_from_poly(p, order):
    lc, lt = p.leading_term(order)
    return _entry(lt, lc, p.terms)


def _mask(m):
    """Divisibility mask: bits 2i and 2i+1 are set when e_i >= 1 and e_i >= 2.

    If a divides b then _mask(a) has no bit outside _mask(b), and two monomials
    have disjoint supports exactly when their masks share no bit.  The mask of
    lcm(a, b) is _mask(a) | _mask(b).
    """
    mask = 0
    bit = 1
    for e in m:
        if e:
            mask |= bit if e == 1 else 3 * bit
        bit <<= 2
    return mask


class _Reducers:
    """Append-only monic reducers with leading-monomial masks and a divisor memo.

    ``memo`` maps a monomial to the index of its first reducer, or to ~k when
    none of the first k reducers divides it, so a later lookup scans only the
    reducers added since.  The reducer found is always the first in insertion
    order whose leading monomial divides.
    """

    __slots__ = ("lts", "tails", "masks", "memo")

    def __init__(self, lts=(), tails=(), masks=()):
        self.lts = list(lts)
        self.tails = list(tails)
        self.masks = list(masks)
        self.memo = {}

    def add(self, lt, tail, mask=None):
        self.lts.append(lt)
        self.tails.append(tail)
        self.masks.append(_mask(lt) if mask is None else mask)
        return len(self.lts) - 1

    def first_divisor(self, m):
        """Index of the first reducer whose leading monomial divides m, or None."""
        k = self.memo.get(m, -1)
        if k >= 0:
            return k
        lts, masks = self.lts, self.masks
        n = len(lts)
        if ~k < n:
            outside = ~_mask(m)
            for k in range(~k, n):
                if not masks[k] & outside and mono_divides(lts[k], m):
                    self.memo[m] = k
                    return k
            self.memo[m] = ~n
        return None

    def reduce(self, target, order):
        """Full normal form of a dict-polynomial."""
        if not target:
            return {}
        neg_key = order.neg_key
        first_divisor = self.first_divisor
        coeffs = dict(target)
        heap = [(neg_key(m), m) for m in coeffs]
        heapq.heapify(heap)
        out = {}
        while heap:
            _, m = heapq.heappop(heap)
            c = coeffs.pop(m, 0)
            if not c:
                continue
            k = first_divisor(m)
            if k is None:
                out[m] = c
                continue
            q = mono_div(m, self.lts[k])
            neg_c = -c
            for tm, tc in self.tails[k]:
                nm = tuple(map(add, q, tm))
                prev = coeffs.get(nm)
                if prev is None:
                    coeffs[nm] = neg_c * tc
                    heapq.heappush(heap, (neg_key(nm), nm))
                else:
                    coeffs[nm] = prev + neg_c * tc
        return out


def _spoly_dict(entry_f, entry_g):
    """S-polynomial of two monic entries; the shared leading term cancels."""
    ltf, tailf = entry_f
    ltg, tailg = entry_g
    lcm = mono_lcm(ltf, ltg)
    qf = mono_div(lcm, ltf)
    qg = mono_div(lcm, ltg)
    d = {}
    for m, c in tailf:
        nm = mono_mul(qf, m)
        d[nm] = d.get(nm, 0) + c
    for m, c in tailg:
        nm = mono_mul(qg, m)
        d[nm] = d.get(nm, 0) - c
    return {m: c for m, c in d.items() if c}


class _PairQueue:
    """Critical pairs under the Gebauer-Moller update (Gebauer and Moller 1988).

    ``active`` holds the entries whose leading monomial no later entry divides;
    only they form new pairs.  Live pairs map (i, j), i < j, to their lcm and
    its mask; heap items (degree, i, j) no longer in ``live`` are skipped.
    Coprime pairs never enter the heap.
    """

    __slots__ = ("red", "active", "live", "heap")

    def __init__(self, red):
        self.red = red
        self.active = []
        self.live = {}
        self.heap = []

    def update(self, h):
        """Add the pairs of the new entry h and drop the ones it makes redundant."""
        lts, masks = self.red.lts, self.red.masks
        lt_h, mask_h = lts[h], masks[h]
        # B-criterion: h's leading monomial divides lcm(i, j) and both
        # lcm(i, h) and lcm(j, h) differ from it.
        doomed = [key for key, (lcm, lcm_mask) in self.live.items()
                  if not mask_h & ~lcm_mask and mono_divides(lt_h, lcm)
                  and mono_lcm(lts[key[0]], lt_h) != lcm
                  and mono_lcm(lts[key[1]], lt_h) != lcm]
        for key in doomed:
            del self.live[key]
        # M and F criteria: keep one pair per minimal lcm(g, h); the product
        # criterion then drops the whole class if any of its pairs is coprime.
        candidates = []
        for g in self.active:
            lcm = mono_lcm(lts[g], lt_h)
            candidates.append((mono_degree(lcm), g, lcm, masks[g] | mask_h,
                               not masks[g] & mask_h))
        candidates.sort()
        classes = []
        for deg, g, lcm, lcm_mask, coprime in candidates:
            for cls in classes:
                if not cls[3] & ~lcm_mask and mono_divides(cls[2], lcm):
                    if cls[2] == lcm and coprime:
                        cls[4] = True
                    break
            else:
                classes.append([deg, g, lcm, lcm_mask, coprime])
        for deg, g, lcm, lcm_mask, coprime in classes:
            if not coprime:
                self.live[(g, h)] = (lcm, lcm_mask)
                heapq.heappush(self.heap, (deg, g, h))
        self.active = [g for g in self.active
                       if mask_h & ~masks[g] or not mono_divides(lt_h, lts[g])]
        self.active.append(h)


# -- public operations ---------------------------------------------------------


# The reducer entries of the last basis given to normal_form: one tuple
# (order, basis, ctx, lts, tails, masks) of immutable fields, with basis None
# when it may not be matched.  It is rebound in a single assignment once the
# entries are complete, so a call that fails leaves the previous one intact.
# Polynomials and orders are immutable, so reusing it keeps normal_form a pure
# function of its arguments; it holds one basis and no memo.
_last_basis = None


def _basis_entries(basis, order):
    """(order, basis, ctx, lts, tails, masks) of a basis tuple, reusing the last one."""
    global _last_basis
    last = _last_basis
    if last is not None and last[0] == order and last[1] == basis:
        return last
    ctx = None
    key = basis
    red = _Reducers()
    for b in basis:
        if not isinstance(b, Polynomial):
            raise TypeError(f"basis entry is not a Polynomial: {b!r}")
        if ctx is None:
            ctx = b.ctx
        elif b.ctx != ctx:
            raise ValueError("basis context mismatch")
        if b.degree() <= 0:
            # a constant Polynomial equals an int, so a basis holding the int
            # instead would hit the entry and escape the TypeError above
            key = None
        if not b.is_zero:
            red.add(*_entry_from_poly(b, order))
    last = _last_basis = (order, key, ctx, tuple(red.lts), tuple(red.tails), tuple(red.masks))
    return last


def normal_form(p: Polynomial, basis, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Remainder of p modulo the basis: no term divisible by any basis leading term.

    Every basis entry must be a ``Polynomial`` in p's context (else TypeError or
    ValueError); zero polynomials are skipped.  The monic entries and masks of
    the last basis are kept and reused while an equal basis comes back under
    the same order, so reducing many polynomials against one basis builds them
    once.  The first-divisor memo is built afresh on every call.
    """
    _, _, ctx, lts, tails, masks = _basis_entries(tuple(basis), order)
    if ctx is not None and p.ctx != ctx:
        raise ValueError("context mismatch")
    red = _Reducers(lts, tails, masks)
    return Polynomial(p.ctx, red.reduce(dict(p.terms), order))


def s_polynomial(f: Polynomial, g: Polynomial, order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """S-polynomial of the monic normalizations of f and g."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomial of a zero polynomial")
    if f.ctx != g.ctx:
        raise ValueError("context mismatch")
    ef = _entry_from_poly(f, order)
    eg = _entry_from_poly(g, order)
    return Polynomial(f.ctx, _spoly_dict(ef, eg))


def buchberger(ideal: IdealPresentation, order: MonomialOrder = DEGREVLEX,
               limits: GroebnerLimits | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of a homogeneous ideal.

    Raises LimitExceeded (with the S-pairs reduced and the degree reached)
    when the configured degree cap or timeout is hit before completion.  The
    timeout is checked before every inserted basis element and popped pair;
    the degree cap applies to the pairs that are reduced.
    """
    limits = limits or GroebnerLimits()
    start = time.monotonic()
    red = _Reducers()
    queue = _PairQueue(red)
    pairs_processed = 0
    max_degree_seen = 0

    def _diag(msg):
        return LimitExceeded(msg, pairs_processed=pairs_processed,
                             max_degree_reached=max_degree_seen,
                             basis_size=len(red.lts),
                             elapsed=time.monotonic() - start)

    def _check_timeout():
        if limits.timeout is not None and time.monotonic() - start > limits.timeout:
            raise _diag(f"groebner timeout after {limits.timeout}s")

    def _insert(entry):
        _check_timeout()
        queue.update(red.add(*entry))

    for g in ideal.generators:
        _insert(_entry_from_poly(g, order))
    while queue.heap:
        _check_timeout()
        deg, i, j = heapq.heappop(queue.heap)
        if queue.live.pop((i, j), None) is None:
            continue  # deleted by the B-criterion
        if limits.max_degree is not None and deg > limits.max_degree:
            raise _diag(f"pair of degree {deg} above cap {limits.max_degree}")
        pairs_processed += 1
        if deg > max_degree_seen:
            max_degree_seen = deg
        spoly = _spoly_dict((red.lts[i], red.tails[i]), (red.lts[j], red.tails[j]))
        h = red.reduce(spoly, order)
        if h:
            _insert(_entry_from_dict(h, order))

    return GroebnerBasis(ideal.ctx, order,
                         _reduced_from_entries(ideal.ctx, red, queue.active, order))


def _reduced_from_entries(ctx, red, active, order):
    """The unique reduced basis from a complete basis and its active entries.

    The minimal leading monomials are taken from the active entries, reusing
    their masks; each tail is then reduced against the minimal set, and the
    reduced tail replaces the old one for later elements.
    """
    minimal = _Reducers()
    for i in sorted(active, key=lambda i: (order.key(red.lts[i]), i)):
        if minimal.first_divisor(red.lts[i]) is None:
            minimal.add(red.lts[i], red.tails[i], red.masks[i])
    out = []
    for pos, lt in enumerate(minimal.lts):
        tail = minimal.reduce(dict(minimal.tails[pos]), order)
        minimal.tails[pos] = tuple([(m, exact(c)) for m, c in tail.items()])
        tail[lt] = 1
        out.append(Polynomial(ctx, tail))
    return tuple(out)


def leading_term_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """Minimal monomial generators of the initial ideal of a reduced basis."""
    gens = [g.leading_monomial(gb.order) for g in gb.elements]
    return MonomialIdeal.from_generators(gb.ctx.nvars, gens)
