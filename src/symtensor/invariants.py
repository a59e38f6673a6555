"""Finite subgroups of SU(2) over cyclotomic fields, and their Molien series.

Groups are built by closing explicit generator matrices under multiplication.
A unimodular element of order k has eigenvalues z and 1/z with z a primitive
k-th root of unity, and k divides |G|, so its trace is one of the values
z + 1/z over the roots z of order dividing lcm(field order, |G|): one table
lookup per distinct trace gives every element's order.  The Molien series of
the invariant subalgebra of the symmetric algebra on the 2-dimensional
representation is then one closed sum over the histogram of
cyclic subgroups (R. Stanley, Bull. AMS 1979, section 2; B. Sturmfels,
Algorithms in Invariant Theory, 1993, chapter 2).  The graded dimensions,
integer sums of Ramanujan sums over the same histogram, are computed degree by
degree only as an independent check of that series.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import add

from .errors import IntegrityError
from .exactnum import CyclotomicNumber, _power_rows, euler_phi, mobius, zeta
from .hilbert import HilbertSeries, series_from_generator_degrees

# MolienResult.dims runs through this display window
DEFAULT_WINDOW = {"BD": 64, "2T": 64, "2O": 64, "2I": 124}


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix with cyclotomic entries, row-major (a b / c d)."""

    a: CyclotomicNumber
    b: CyclotomicNumber
    c: CyclotomicNumber
    d: CyclotomicNumber

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a * other.a + self.b * other.c,
                    self.a * other.b + self.b * other.d,
                    self.c * other.a + self.d * other.c,
                    self.c * other.b + self.d * other.d)

    def det(self) -> CyclotomicNumber:
        return self.a * self.d - self.b * self.c

    def trace(self) -> CyclotomicNumber:
        return self.a + self.d

    def neg(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    @classmethod
    def identity(cls, order: int) -> "Mat2":
        one = CyclotomicNumber.one(order)
        zero = CyclotomicNumber.zero(order)
        return cls(one, zero, zero, one)


class MatrixGroup:
    """Finite multiplicatively closed set of unit-determinant 2x2 matrices."""

    def __init__(self, label: str, field_order: int, elements):
        self.label = label
        self.field_order = field_order
        self.elements = tuple(elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def cyclic_subgroups(self) -> dict[int, int]:
        """{k: N_k / phi(k)} for the N_k elements of order k, one lookup per trace.

        A unimodular g of order k | |G| has eigenvalues z^a and z^-a, with z a
        primitive M-th root of unity for M = lcm(field order, |G|), so tr g =
        z^a + z^-a for exactly one a in 0..M/2, and k = M / gcd(a, M).  M can
        exceed the field order: 2T lives in Q(z4), its elements of order 3 do
        not.  Each distinct trace enters Q(z) by z_m^i -> z^(iM/m) and is looked
        up among the z^a + z^-a; a trace not among them raises IntegrityError.
        """
        big = lcm(self.field_order, self.order)
        rows, step = _power_rows(big), big // self.field_order
        orders = {tuple(map(add, rows[a], rows[-a % big])): big // gcd(a, big)
                  for a in range(big // 2 + 1)}
        counts = Counter()
        for trace, mult in Counter(g.trace() for g in self.elements).items():
            key = [0] * len(rows[0])
            for i, c in enumerate(trace.nums):
                if c:
                    for j, r in enumerate(rows[i * step]):
                        key[j] += c * r
            k = orders.get(tuple(key)) if trace.den == 1 else None
            if k is None:
                raise IntegrityError(f"trace {trace} in {self.label} is no z + 1/z with "
                                     f"z^{big} = 1")
            counts[k] += mult
        for k, count in counts.items():
            if count % euler_phi(k):
                raise IntegrityError(f"{count} elements of order {k} in group "
                                     f"{self.label}, not a multiple of phi({k})")
        return {k: counts[k] // euler_phi(k) for k in sorted(counts)}

    def __repr__(self):
        return f"<MatrixGroup {self.label} of order {self.order} over Q(z{self.field_order})>"


def _close_under_multiplication(generators, field_order, expected_order):
    """Dimino's coset closure: each element is built by exactly one product.

    With H the group of the generators before s, <H, s> is a union of right
    cosets H r.  A representative r times a generator t up to s either lies in
    a coset already added or starts a new one, which is added whole without
    lookups (G. Butler, Fundamental Algorithms for Permutation Groups, 1991).
    """
    ident = Mat2.identity(field_order)
    seen = {ident: None}  # a dict keeps the elements in closure order

    def add_coset(subgroup, rep):
        for h in subgroup:  # the identity comes first and gives rep itself
            if len(seen) >= 2 * expected_order:
                raise IntegrityError(
                    f"group closure exceeded twice the expected order "
                    f"{expected_order}; wrong generators")
            seen[h * rep if h is not ident else rep] = None

    for i, s in enumerate(generators):
        if s in seen:
            continue
        subgroup = tuple(seen)
        add_coset(subgroup, s)
        reps = [s]
        for r in reps:
            for t in generators[: i + 1]:
                rt = r * t
                if rt not in seen:
                    add_coset(subgroup, rt)
                    reps.append(rt)
    return tuple(seen)


def _bd_generators(n: int, field_order: int):
    rot = Mat2(zeta(field_order, field_order // (2 * n)),
               CyclotomicNumber.zero(field_order),
               CyclotomicNumber.zero(field_order),
               zeta(field_order, field_order - field_order // (2 * n)))
    one = CyclotomicNumber.one(field_order)
    zero = CyclotomicNumber.zero(field_order)
    flip = Mat2(zero, one, -one, zero)
    return (rot, flip)


def _binary_tetrahedral_generators(order: int = 4):
    # quaternions i, j and -(1+i+j+k)/2 as 2x2 matrices over Q(zeta_order), 4 | order
    ii = zeta(order, order // 4)
    one = CyclotomicNumber.one(order)
    zero = CyclotomicNumber.zero(order)
    half = Fraction(1, 2)
    qi = Mat2(ii, zero, zero, -ii)
    qj = Mat2(zero, one, -one, zero)
    qw = Mat2((-one - ii) * half, (-one - ii) * half,
              (one - ii) * half, (-one + ii) * half)
    return (qi, qj, qw)


def _binary_octahedral_generators():
    s = (zeta(8) + zeta(8, 7)) * Fraction(1, 2)  # 1/sqrt(2)
    extra = Mat2(s, s, -s, s)
    return _binary_tetrahedral_generators(8) + (extra,)


def _binary_icosahedral_generators():
    # Klein's icosahedral pair over Q(zeta_20): a 5-fold rotation and an
    # involution-like element built from sqrt(5) = e - e^2 - e^3 + e^4.
    e1 = zeta(20, 4)
    e2 = zeta(20, 8)
    e3 = zeta(20, 12)
    e4 = zeta(20, 16)
    zero = CyclotomicNumber.zero(20)
    rot = Mat2(e3, zero, zero, e2)  # e1**3 and e1**2
    root5 = e1 - e2 - e3 + e4
    inv_root5 = root5 * Fraction(1, 5)
    tmat = Mat2(-(e1 - e4) * inv_root5, (e2 - e3) * inv_root5,
                (e2 - e3) * inv_root5, (e1 - e4) * inv_root5)
    return (rot, tmat)


@lru_cache(maxsize=None)
def build_group(label: str, n: int | None = None) -> MatrixGroup:
    """Standard binary dihedral/tetrahedral/octahedral/icosahedral group.

    The closure is enumerated from scratch and hard-checked: expected order,
    determinant one everywhere, and -identity present.  Instances are cached
    and shared; their one derived table, ``cyclic_subgroups``, is stored only
    once it is computed without error.
    """
    if label == "BD":
        if n is None or n < 2:
            raise ValueError("binary dihedral groups need n >= 2")
        field_order = lcm(2 * n, 4)
        generators = _bd_generators(n, field_order)
        expected = 4 * n
    elif label == "2T":
        field_order, generators, expected = 4, _binary_tetrahedral_generators(), 24
    elif label == "2O":
        field_order, generators, expected = 8, _binary_octahedral_generators(), 48
    elif label == "2I":
        field_order, generators, expected = 20, _binary_icosahedral_generators(), 120
    else:
        raise ValueError(f"unknown group label {label!r}")
    elements = _closed_unimodular(generators, field_order, expected, label)
    if Mat2.identity(field_order).neg() not in elements:
        raise IntegrityError(f"group {label} does not contain -identity")
    return MatrixGroup(label, field_order, elements)


def _closed_unimodular(generators, field_order, expected_order, label):
    """Closure of the generators, checked for the expected order and for
    determinant one, which makes the eigenvalues z and 1/z, so that the trace
    lookup for element orders applies."""
    elements = _close_under_multiplication(generators, field_order, expected_order)
    if len(elements) != expected_order:
        raise IntegrityError(
            f"group {label} closed to order {len(elements)}, expected {expected_order}")
    one = CyclotomicNumber.one(field_order)
    for m in elements:
        if m.det() != one:
            raise IntegrityError(f"non-unimodular element in group {label}")
    return elements


def _multiples(d: int, p: int) -> int:
    """#{m in p, p - 2, ..., -p : d | m}: the j*d, |j| <= p // d, of p's parity."""
    q = p // d
    if d % 2:
        return q + (q + p + 1) % 2
    return 0 if p % 2 else 2 * q + 1


def invariant_dimension(group: MatrixGroup, p: int) -> int:
    """dim of the degree-p invariants: Molien's average grouped by element order.

    The generators of a cyclic subgroup of order k have eigenvalues z, 1/z with z
    running once over the primitive k-th roots of unity, so their degree-p traces
    add up to the Ramanujan sums sum_{d | k, d | m} mu(k/d) * d over m = p, p - 2,
    ..., -p, where mu(k/d) is the sum of the primitive (k/d)-th roots of unity.
    """
    if p < 0:
        raise ValueError("degree must be >= 0")
    total = sum(count * sum(mobius(k // d) * d * _multiples(d, p)
                            for d in range(1, k + 1) if k % d == 0)
                for k, count in group.cyclic_subgroups.items())
    value, rest = divmod(total, group.order)
    if rest or value < 0:
        raise IntegrityError(
            f"invariant average {Fraction(total, group.order)} at degree {p} is not a "
            f"non-negative integer for {group.label}")
    return value


# -- Molien series ----------------------------------------------------------------


@dataclass(frozen=True)
class MolienResult:
    """The exact Molien series, its dimensions through the display window, and
    the hypersurface form the series equals, when there is one."""

    dims: tuple[int, ...]
    series: HilbertSeries
    matched: tuple[int, int, int, int] | None  # (d1, d2, d3, e)


def _hypersurface_form(series: HilbertSeries):
    """(d1, d2, d3, e) with series == (1 - t^e)/prod(1 - t^di), or None.

    Each of d1, d2, d3 and then e is the first nonzero positive degree left
    after multiplying by (1 - t^d) for the degrees already taken; the form is
    returned only when it equals the series as a rational function.  The scan
    runs through three times the largest denominator weight: for a Molien
    series over (1 - t^2)(1 - t^|G|) that is 3|G|, and Noether's bound
    di <= |G| with e = d1 + d2 + d3 - 2 keeps every degree below it.
    """
    top = 3 * max(series.den_weights, default=0)
    coeffs = list(series.expand(top))
    degrees = []
    for _ in range(4):
        d = next((p for p in range(1, top + 1) if coeffs[p]), None)
        if d is None:
            return None
        degrees.append(d)
        for p in range(top, d - 1, -1):
            coeffs[p] -= coeffs[p - d]
    d1, d2, d3, e = degrees
    if series_from_generator_degrees((d1, d2, d3), e) != series:
        return None
    return (d1, d2, d3, e)


def molien_series(group: MatrixGroup) -> MolienResult:
    """The exact Molien series of the group, as one sum over its cyclic subgroups.

    A cyclic subgroup C_d of SU(2) has sum_{g in C_d} 1/det(1 - g t) =
    d (1 + t^d) / ((1 - t^2)(1 - t^d)), so by Moebius inversion the elements of
    order exactly k contribute sum_{d | k} mu(k/d) d (1 + t^d) / ((1 - t^2)(1 - t^d)).
    With N = |G| and c_k = ``cyclic_subgroups[k]``, every order divides N, and

        P(t) = (1/N) sum_k c_k sum_{d | k} mu(k/d) d (1 + t^d)(1 + t^d + ... + t^(N-d))

    over (1 - t^2)(1 - t^N) is the series, with deg P <= N (Stanley, Bull. AMS
    1979, section 2; Sturmfels, Algorithms in Invariant Theory, 1993, ch. 2).
    An order that does not divide N, or a coefficient of P that N does not
    divide, raises IntegrityError.  When the series is a hypersurface form,
    that form is the reported series.
    """
    order = group.order
    weights = Counter()  # d -> sum of c_k mu(k/d) d over the orders k that d divides
    for k, count in group.cyclic_subgroups.items():
        if order % k:
            raise IntegrityError(f"element order {k} does not divide the order {order} "
                                 f"of {group.label}")
        for d in range(1, k + 1):
            if k % d == 0:
                weights[d] += count * mobius(k // d) * d
    # (1 + t^d)(1 + t^d + ... + t^(N-d)) is 1 + 2t^d + ... + 2t^(N-d) + t^N
    total = [0] * (order + 1)
    for d, weight in weights.items():
        for p in range(0, order + 1, d):
            total[p] += 2 * weight
        total[0] -= weight
        total[order] -= weight
    numerator = []
    for p, coeff in enumerate(total):
        value, rest = divmod(coeff, order)
        if rest:
            raise IntegrityError(f"Molien numerator coefficient {Fraction(coeff, order)} "
                                 f"at degree {p} is not an integer for {group.label}")
        numerator.append(value)
    summed = HilbertSeries(tuple(numerator), (2, order))
    matched = _hypersurface_form(summed)
    series = summed if matched is None else series_from_generator_degrees(matched[:3],
                                                                           matched[3])
    window = DEFAULT_WINDOW.get(group.label, DEFAULT_WINDOW["BD"])
    return MolienResult(dims=series.expand(window), series=series, matched=matched)
