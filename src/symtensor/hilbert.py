"""Hilbert series as exact rational functions N(t) / prod(1 - t^w).

The numerator is an integer polynomial, the denominator a multiset of positive
weights.  Series from monomial ideals give every variable degree 1, so their
numerator is taken over (1 - t)^n, and use the pivot recursion

    N(I) = N(I + <p>) + t^deg(p) * N(I : p)

with p = x^e for the variable x in most generators (first on ties) and e its
smallest positive exponent there.  A state is the sorted tuple of packed
minimal generators (:class:`poly.Packing`, as wide as the largest degree).
Four facts keep every step free of a full re-minimalisation:

* I + <p> is the generators without x plus p, and p shares no variable with
  them, so N(I + <p>) = (1 - t^deg(p)) N(generators without x).
* In I : p, lowering x by e leaves divisibility among the generators with x
  unchanged, and between them and the others; only a generator that loses x
  can newly divide one without x, so only those pairs are tested.
* When the generators fall into groups with pairwise disjoint supports, N is
  the product of the groups' numerators, each memoised on its own.
* A generator g sharing no variable with another is such a group alone, with
  N = 1 - t^deg(g).  In a state of four or more generators one pass over the
  supports finds every such g: ``twice |= once & s; once |= s`` leaves in
  ``twice`` the variables of two or more generators, and g is isolated exactly
  when its support misses it.  The product of their factors is folded by
  shifts, f -= f << k deg(g), each an exact multiplication by 1 - 2^(k deg g),
  as deg g is read off a generator, which fits its fields.  The rest, never
  one generator since a shared variable has two holders, goes on in the same
  call, so the group search, which finds one group per sweep, meets no single
  generators.

States of at most three generators end the recursion with Taylor's sum
(below): 1 for none, 1 - t^deg for one, 4 or 8 terms for two or three.  An
lcm's degree can pass the fields' cap, which every generator's fits, and read
off its fields it would wrap, so deg lcm(a, b) is taken as deg a +
deg(lcm(a, b) - a): lcm(a, b) - a divides b and fits.  So a pivot state is
connected and has at least four generators.  In I : p the
generators with x to exactly e drop x, and such a drop d divides a generator s
without x exactly when s - d sets no guard bit.  No drop is the unit monomial:
p would then be a generator, by minimality the only one with x, and share no
variable with the others.  A drop x_j^a divides s when s_j >= a, so one
threshold T, holding the least such a in field j and the guard bit 2^w in the
fields of no such drop, tests all of them at once: no field of
(s + guards) - T borrows from the next, and it keeps a guard bit exactly when
one of these drops divides s.  The drops in two or more variables are tested
one at a time, each on what the last left.

Each numerator is carried as the int N(2^k) (Kronecker substitution): t^e is
a shift by k e bits and a sum or product one int operation.  Evaluation is a
ring homomorphism, so only the final N(2^k) is decoded, as balanced base-2^k
digits, which are N's coefficients once every |c_j| < 2^(k-1).  For G
generators in n variables of lcm degree D, k = 2 + min(G, n + bits(C)) with
C = C(n+D-1, n-1) is enough, by two bounds.  Taylor's resolution gives
N = sum over generator subsets S of (-1)^|S| t^deg lcm(S), so |N|_1 <= 2^G
and deg N <= D.  H(d) is at most C(n+d-1, n-1), the count of degree-d
monomials, so N = (1 - t)^n H gives |c_j| <= 2^n C < 2^(n + bits(C)) for
every j <= deg N <= D.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from math import comb
from operator import not_

from .errors import IntegrityError, LimitExceeded
from .poly import Packing, layout, pack_monomials, render_terms

# -- monomial ideals ----------------------------------------------------------


@dataclass(frozen=True, init=False)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators' exponent vectors.

    ``packed`` holds them increasing in ``pk``, the narrowest Packing of their
    largest degree, and ``gens`` unpacks them as sorted tuples.  The
    constructor takes them in any layout ``pk`` of nvars variables and trusts
    their minimality, which :meth:`from_generators` establishes for tuples."""

    nvars: int
    pk: Packing = field(compare=False, repr=False)
    packed: tuple

    def __init__(self, nvars, pk, exps):
        exps = sorted(exps)  # E's order, last field first, is the same in every layout
        narrow = layout(nvars, max(map(pk.degree, exps), default=0))
        if narrow is not pk:
            exps = [narrow.pack_exps(pk.unpack_exps(e)) for e in exps]
        self.__dict__.update(nvars=nvars, pk=narrow, packed=tuple(exps))

    @classmethod
    def from_generators(cls, nvars, gens):
        """The ideal of any generators, all checked by :func:`poly.pack_monomials`.

        A divisor is at most its multiple in every field, so it is the smaller int:
        m is kept when m - k sets a guard bit for each kept k."""
        pk, _, exps = pack_monomials(nvars, list(gens))
        guards, kept = pk.guards, []
        for m in sorted(set(exps)):
            if all((m - k) & guards for k in kept):
                kept.append(m)
        return cls(nvars, pk, kept)

    @property
    def gens(self) -> tuple:
        return tuple(sorted(map(self.pk.unpack_exps, self.packed)))

    def __reduce__(self):
        # the layout's Struct does not pickle, so the copy is rebuilt from the tuples
        return MonomialIdeal.from_generators, (self.nvars, self.gens)


# -- numerator recursion -------------------------------------------------------


def _components(gens, supports):
    """Groups of generators linked through shared variables, each kept sorted."""
    groups = []
    while True:
        reach, last = supports[0], 0
        while reach != last:
            last = reach
            for s in supports:
                if s & reach:
                    reach |= s
        flags = [s & reach for s in supports]
        if all(flags):
            groups.append(gens)
            return groups
        groups.append(tuple(compress(gens, flags)))
        gens = tuple(compress(gens, map(not_, flags)))
        supports = [s for s in supports if not s & reach]


class _Numerators:
    """Memoised numerators N(2^k) over (1 - t)^n of quotients by monomial ideals.

    A state is the increasing tuple of minimal generators packed by ``pk``, so
    equal ideals share one memo entry; the unit ideal is the state (0,).
    """

    def __init__(self, pk, k):
        self.pk = pk
        self.k = k
        self.memo = {}

    def _colon_by_power(self, gens, column, var, exp, same):
        """Minimal generators of <gens> : x_var^exp, where exp is var's least positive exponent.

        ``column`` holds the exponents of x_var, and ``same`` the generators
        without it.  The others all have x_var to at least exp, so the only
        divisibility that lowering them creates is a lowered generator without
        x_var, a drop, dividing one of ``same``; the module docstring gives the
        threshold test.
        """
        pk = self.pk
        power, guards, ones = pk.power(var, exp), pk.guards, pk.ones
        moved = [g - power for g, e in zip(gens, column) if e]
        # the drops ascend with gens, so the first x_j^a seen for each j has the least a
        threshold, wide = guards, []
        for d in (g - power for g, e in zip(gens, column) if e == exp):
            support = ((d | guards) - ones) & guards
            if support & (support - 1):
                wide.append(d)
            elif threshold & support:
                threshold += d - support
        kept = same
        if threshold != guards:
            kept = [s for s in kept if not ((s | guards) - threshold) & guards]
        for d in wide:
            kept = [s for s in kept if (s - d) & guards]
        return tuple(sorted([*kept, *moved]))

    def _taylor(self, gens):
        """N(2^k) of at most three generators, (-1)^|S| t^deg lcm(S) summed over subsets S:
        1 for none, and 1 - t^deg for one, which is 0 for the unit ideal (0,)."""
        pk, k = self.pk, self.k
        if len(gens) < 2:
            return 1 - (1 << k * pk.degree(gens[0])) if gens else 1
        degree, lcm = pk.degree, pk.lcm
        a, b = gens[0], gens[1]
        da, db = degree(a), degree(b)
        ab = lcm(a, b)
        dab = da + degree(ab - a)
        if len(gens) == 2:
            return 1 - (1 << k * da) - (1 << k * db) + (1 << k * dab)
        c = gens[2]
        ac, bc, abc = lcm(a, c), lcm(b, c), lcm(ab, c)
        dc, dac, dbc = degree(c), da + degree(ac - a), db + degree(bc - b)
        dabc = dab + degree(abc - ab)
        return (1 - (1 << k * da) - (1 << k * db) - (1 << k * dc) + (1 << k * dab)
                + (1 << k * dac) + (1 << k * dbc) - (1 << k * dabc))

    def numerator(self, gens):
        cached = self.memo.get(gens)
        if cached is not None:
            return cached
        pk, k = self.pk, self.k
        factor, rest = 1, gens
        if len(gens) > 3:
            supports = pk.supports(gens)
            once = twice = 0
            for s in supports:
                twice |= once & s
                once |= s
            if once != twice:
                rest = []
                for g, s in zip(gens, supports):
                    if s & twice:
                        rest.append(g)
                    else:
                        factor -= factor << k * pk.degree(g)
                rest = tuple(rest)
                supports = [s for s in supports if s & twice]
        if len(rest) <= 3:
            result = self._taylor(rest)
        else:
            groups = _components(rest, supports)
            if len(groups) > 1:
                result = self.numerator(groups[0])
                for group in groups[1:]:
                    result *= self.numerator(group)
            else:
                counts = pk.counts(supports)
                var = counts.index(max(counts))
                column = pk.exponents(rest, var)
                exp = min(filter(None, column))
                # I + <x^e> is the generators without x plus x^e, which shares
                # no variable with them: N(I + <x^e>) = (1 - t^e) N(same)
                same = tuple(compress(rest, map(not_, column)))
                base = self.numerator(same)
                colon = self.numerator(self._colon_by_power(rest, column, var, exp, same))
                result = base + ((colon - base) << k * exp)
        if factor != 1:
            result *= factor
        self.memo[gens] = result
        return result


# -- coefficient tuples -----------------------------------------------------------


def _trim(coeffs):
    """The coefficients without trailing zeros, so each polynomial has one tuple."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _decode(value, k):
    """N's coefficients from N(2^k) when every |c_j| < 2^(k-1): its balanced base-2^k digits.

    There are at most bits // k + 1 of them; adding 2^(k-1) to each turns them
    into plain k-bit fields, read off one binary string in linear time.
    """
    size, half = value.bit_length() // k + 1, 1 << (k - 1)
    fields = format(value + int(("1" + "0" * (k - 1)) * size, 2), "b").zfill(k * size)
    return [int(fields[i - k:i], 2) - half for i in range(k * size, 0, -k)]


# -- the series type ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HilbertSeries:
    """N(t) / prod_w (1 - t^w) with int coefficients and positive int weights, exact everywhere."""

    numerator: tuple[int, ...]
    den_weights: tuple[int, ...]

    def __post_init__(self):
        num, weights = tuple(self.numerator), tuple(self.den_weights)
        if not all(type(c) is int for c in num):
            raise TypeError("numerator coefficients must be ints")
        if not all(type(w) is int for w in weights):
            raise TypeError("denominator weights must be ints")
        if any(w < 1 for w in weights):
            raise ValueError("denominator weights must be positive")
        object.__setattr__(self, "numerator", _trim(num))
        object.__setattr__(self, "den_weights", tuple(sorted(weights)))

    # -- evaluation ---------------------------------------------------------

    def expand(self, max_degree: int):
        """Coefficients c_0..c_D by exact power-series division.

        A negative coefficient means the series is not the Hilbert series of a
        graded algebra, so it raises IntegrityError.
        """
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        coeffs = [0] * (max_degree + 1)
        for i, c in enumerate(self.numerator[: max_degree + 1]):
            coeffs[i] = c
        for w in self.den_weights:
            for i in range(w, max_degree + 1):
                coeffs[i] += coeffs[i - w]
        for d, c in enumerate(coeffs):
            if c < 0:
                raise IntegrityError(
                    f"negative graded dimension {c} at degree {d}; presentation is wrong")
        return tuple(coeffs)

    def krull_dim(self) -> int:
        """Pole order at t=1: denominator factor count minus numerator root multiplicity.

        1 is a root of N = sum c_i t^i of multiplicity the first j with
        sum_i c_i C(i, j) != 0, N's degree-j Taylor coefficient at 1.
        """
        num = self.numerator
        if not num:
            return 0
        mult = next(j for j in range(len(num))
                    if sum(c * comb(i, j) for i, c in enumerate(num[j:], j)))
        return len(self.den_weights) - mult

    def canonical(self) -> "HilbertSeries":
        """Cancel common (1 - t^w) factors greedily, largest weight first.

        N / (1 - t^w) is the series q_i = n_i + q_(i-w), built in place bottom up
        over N's length; the division is exact when q's top w entries vanish, so
        a zero numerator cancels every factor.
        """
        num = list(self.numerator)
        den = list(self.den_weights)
        for w in sorted(set(den), reverse=True):
            while w in den:
                q = num[:]
                for i in range(w, len(q)):
                    q[i] += q[i - w]
                if any(q[max(len(q) - w, 0):]):
                    break
                num = q[: len(q) - w]
                den.remove(w)
        return HilbertSeries(tuple(num), tuple(den))

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        # every coefficient of N1 N2 is at most |N1|_1 |N2|_1 < 2^(k-1) in size
        k = (sum(map(abs, self.numerator)) * sum(map(abs, other.numerator))).bit_length() + 1
        product = self._at_power_of_two(k)[0] * other._at_power_of_two(k)[0]
        return HilbertSeries(_decode(product, k), self.den_weights + other.den_weights)

    def _at_power_of_two(self, k):
        """(N(2^k), prod_w (1 - 2^(k w))) as exact ints, built by shifts."""
        num = sum(c << k * i for i, c in enumerate(self.numerator) if c)
        den = 1
        for w in self.den_weights:
            den -= den << k * w
        return num, den

    def __eq__(self, other):
        """Equality as rational functions, P = N1 D2 - N2 D1 = 0, by one evaluation.

        A coefficient of D = prod_w (1 - t^w) is at most 2^#W in size, so P's are
        at most B = |N1|_1 2^#W2 + |N2|_1 2^#W1.  A nonzero such P has no root
        x >= B + 1, where its leading term outweighs the rest (Cauchy's bound), so
        P = 0 exactly when P(2^k) = 0 for 2^k > B + 1 (Kronecker substitution).
        """
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        bound = ((sum(map(abs, self.numerator)) << len(other.den_weights))
                 + (sum(map(abs, other.numerator)) << len(self.den_weights)))
        k = (bound + 1).bit_length()
        (num1, den1), (num2, den2) = self._at_power_of_two(k), other._at_power_of_two(k)
        return num1 * den2 == num2 * den1

    __hash__ = None

    # -- display -------------------------------------------------------------

    def render(self) -> str:
        num = render_terms((c, ["t" if e == 1 else f"t^{e}"] if e else [])
                           for e, c in enumerate(self.numerator) if c)
        if not self.den_weights:
            return num
        groups = []
        for w, k in Counter(self.den_weights).items():
            base = f"(1 - t^{w})" if w > 1 else "(1 - t)"
            groups.append(base if k == 1 else f"{base}^{k}")
        return f"({num}) / ({' '.join(groups)})"

    def to_json_dict(self):
        return {"numerator": list(self.numerator),
                "denominator_weights": list(self.den_weights)}

    def __repr__(self):
        return f"<series {self.render()}>"


# -- constructors ----------------------------------------------------------------


def _digit_width(ideal: MonomialIdeal) -> int:
    """The k at which N(2^k) decodes to N, by the bounds in the module docstring."""
    pk = ideal.pk  # the lcm of all generators fits the fields, its degree may not
    top = sum(pk.unpack_exps(reduce(pk.lcm, ideal.packed, 0)))
    monomials = comb(ideal.nvars + top - 1, ideal.nvars - 1) if ideal.nvars else 1
    return 2 + min(len(ideal.packed), ideal.nvars + monomials.bit_length())


def series_from_monomial_ideal(ideal: MonomialIdeal) -> HilbertSeries:
    """Series of the quotient by a monomial ideal, over (1 - t)^n.

    The recursion takes one stack frame per pivot level, so a pivot chain
    deeper than Python's recursion limit raises LimitExceeded.
    """
    k = _digit_width(ideal)
    try:
        value = _Numerators(ideal.pk, k).numerator(ideal.packed)
    except RecursionError:
        raise LimitExceeded(
            f"numerator recursion deeper than the recursion limit for "
            f"{len(ideal.packed)} generators in {ideal.nvars} variables") from None
    return HilbertSeries(_decode(value, k), (1,) * ideal.nvars)


def series_from_expansion(coeffs, den_weights) -> HilbertSeries:
    """The series N / prod(1 - t^w) whose expansion begins with coeffs.

    N is the first len(coeffs) coefficients of the expansion times the denominator,
    one factor 1 - t^w at a time in place, top down; exact when deg N < len(coeffs).
    """
    num = list(coeffs)
    for w in den_weights:
        for i in range(len(num) - 1, w - 1, -1):
            num[i] -= num[i - w]
    return HilbertSeries(tuple(num), tuple(den_weights))


def series_from_generator_degrees(degrees, relation_degree=None) -> HilbertSeries:
    """Free generators of the given degrees, with one optional relation, all ints."""
    if relation_degree is None:
        return HilbertSeries((1,), degrees)
    if type(relation_degree) is not int or relation_degree < 1:
        raise ValueError(f"relation degree must be an int >= 1, got {relation_degree!r}")
    return HilbertSeries((1,) + (0,) * (relation_degree - 1) + (-1,), degrees)
