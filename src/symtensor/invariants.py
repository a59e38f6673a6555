"""Finite subgroups of SU(2) over cyclotomic fields, and their Molien series.

Groups are built by closing explicit generator matrices under multiplication;
the graded dimensions of the invariant subalgebra of the symmetric algebra on
the 2-dimensional representation come from exact trace averages.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import IntegrityError
from .exactnum import CyclotomicNumber, zeta
from .hilbert import HilbertSeries

DEFAULT_WINDOW = {"BD": 64, "2T": 64, "2O": 64, "2I": 124}
GROUP_LABELS = ("BD", "2T", "2O", "2I")


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

    def embed(self, order: int) -> "Mat2":
        return Mat2(self.a.embed(order), self.b.embed(order),
                    self.c.embed(order), self.d.embed(order))

    def key(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        return (a.nums, a.den, b.nums, b.den, c.nums, c.den, d.nums, d.den)

    @classmethod
    def identity(cls, order: int) -> "Mat2":
        one = CyclotomicNumber.one(order)
        zero = CyclotomicNumber.zero(order)
        return cls(one, zero, zero, one)


class MatrixGroup:
    """Finite multiplicatively closed set of unit-determinant 2x2 matrices."""

    def __init__(self, label: str, n_param, field_order: int, generators, elements):
        self.label = label
        self.n_param = n_param
        self.field_order = field_order
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        # distinct traces with multiplicities drive the dimension sweep
        counts = Counter(g.trace() for g in self.elements)
        self._traces = tuple(sorted(counts.items(),
                                    key=lambda item: (item[0].nums, item[0].den)))
        self._dims: list[int] = []
        self._rec_prev: list[CyclotomicNumber] = []
        self._rec_cur: list[CyclotomicNumber] = []

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self):
        tag = f"{self.label}_{self.n_param}" if self.n_param else self.label
        return f"<MatrixGroup {tag} of order {self.order} over Q(z{self.field_order})>"


def _close_under_multiplication(generators, field_order, expected_order):
    ident = Mat2.identity(field_order)
    seen = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in generators:
                prod = m * g
                k = prod.key()
                if k not in seen:
                    if len(seen) >= 2 * expected_order:
                        raise IntegrityError(
                            f"group closure exceeded twice the expected order "
                            f"{expected_order}; wrong generators")
                    seen[k] = prod
                    nxt.append(prod)
        frontier = nxt
    return tuple(sorted(seen.values(), key=Mat2.key))


def _bd_generators(n: int, field_order: int):
    rot = Mat2(zeta(field_order, field_order // (2 * n)),
               CyclotomicNumber.zero(field_order),
               CyclotomicNumber.zero(field_order),
               zeta(field_order, field_order - field_order // (2 * n)))
    one = CyclotomicNumber.one(field_order)
    zero = CyclotomicNumber.zero(field_order)
    flip = Mat2(zero, one, -one, zero)
    return (rot, flip)


def _binary_tetrahedral_generators():
    # quaternions i, j and -(1+i+j+k)/2 as 2x2 matrices over Q(i)
    ii = zeta(4)
    one = CyclotomicNumber.one(4)
    zero = CyclotomicNumber.zero(4)
    half = Fraction(1, 2)
    qi = Mat2(ii, zero, zero, -ii)
    qj = Mat2(zero, one, -one, zero)
    qw = Mat2((-one - ii) * half, (-one - ii) * half,
              (one - ii) * half, (-one + ii) * half)
    return (qi, qj, qw)


def _binary_octahedral_generators():
    base = tuple(m.embed(8) for m in _binary_tetrahedral_generators())
    s = (zeta(8) + zeta(8, 7)) * Fraction(1, 2)  # 1/sqrt(2)
    extra = Mat2(s, s, -s, s)
    return base + (extra,)


def _binary_icosahedral_generators():
    # Klein's icosahedral pair over Q(zeta_20): a 5-fold rotation and an
    # involution-like element built from sqrt(5) = e - e^2 - e^3 + e^4.
    e1 = zeta(20, 4)
    e2 = zeta(20, 8)
    e3 = zeta(20, 12)
    e4 = zeta(20, 16)
    zero = CyclotomicNumber.zero(20)
    rot = Mat2(e1 ** 3, zero, zero, e1 ** 2)
    root5 = e1 - e2 - e3 + e4
    inv_root5 = root5 * Fraction(1, 5)
    tmat = Mat2(-(e1 - e4) * inv_root5, (e2 - e3) * inv_root5,
                (e2 - e3) * inv_root5, (e1 - e4) * inv_root5)
    return (rot, tmat)


@lru_cache(maxsize=None)
def build_group(label: str, n_param: int | None = None) -> MatrixGroup:
    """Standard binary dihedral/tetrahedral/octahedral/icosahedral group.

    The closure is enumerated from scratch and hard-checked: expected order,
    determinant one everywhere, and -identity present.  Instances are cached
    and shared; the per-group dimension table is append-only.
    """
    if label == "BD":
        if n_param is None or n_param < 2:
            raise ValueError("binary dihedral groups need n >= 2")
        field_order = lcm(2 * n_param, 4)
        generators = _bd_generators(n_param, field_order)
        expected = 4 * n_param
    elif label == "2T":
        field_order, generators, expected = 4, _binary_tetrahedral_generators(), 24
    elif label == "2O":
        field_order, generators, expected = 8, _binary_octahedral_generators(), 48
    elif label == "2I":
        field_order, generators, expected = 20, _binary_icosahedral_generators(), 120
    else:
        raise ValueError(f"unknown group label {label!r}")
    elements = _closed_unimodular(generators, field_order, expected, label)
    minus_one = Mat2.identity(field_order).neg().key()
    if not any(m.key() == minus_one for m in elements):
        raise IntegrityError(f"group {label} does not contain -identity")
    return MatrixGroup(label, n_param, field_order, generators, elements)


def _closed_unimodular(generators, field_order, expected_order, label):
    """Closure of the generators, checked for the expected order and for
    determinant one, on which the dimension sweep's trace recursion relies."""
    elements = _close_under_multiplication(generators, field_order, expected_order)
    if len(elements) != expected_order:
        raise IntegrityError(
            f"group {label} closed to order {len(elements)}, expected {expected_order}")
    one = CyclotomicNumber.one(field_order)
    for m in elements:
        if m.det() != one:
            raise IntegrityError(f"non-unimodular element in group {label}")
    return elements


def _extend_dims(group: MatrixGroup, p: int) -> None:
    """Grow the cached dimension table through degree p.

    Unit determinant makes symmetric-power traces satisfy
    T_k = trace * T_{k-1} - T_{k-2}, which the sweep runs per distinct trace.
    The recursion state is committed only with a validated dimension, so a
    failed call leaves the shared group as it was.
    """
    if not group._dims:
        one = CyclotomicNumber.one(group.field_order)
        zero = CyclotomicNumber.zero(group.field_order)
        group._rec_prev = [zero] * len(group._traces)
        group._rec_cur = [one] * len(group._traces)
        group._dims.append(1)
    while len(group._dims) <= p:
        new_cur = []
        new_prev = []
        total = CyclotomicNumber.zero(group.field_order)
        for idx, (trace, mult) in enumerate(group._traces):
            t_new = trace * group._rec_cur[idx] - group._rec_prev[idx]
            new_prev.append(group._rec_cur[idx])
            new_cur.append(t_new)
            total = total + t_new * mult
        average = total * Fraction(1, group.order)
        value = average.to_rational()
        if value is None:
            raise IntegrityError(
                f"irrational invariant average at degree {len(group._dims)} "
                f"for {group.label}")
        if value.denominator != 1 or value < 0:
            raise IntegrityError(
                f"invariant average {value} at degree {len(group._dims)} is not a "
                f"non-negative integer for {group.label}")
        group._rec_prev = new_prev
        group._rec_cur = new_cur
        group._dims.append(value)


def invariant_dimension(group: MatrixGroup, p: int) -> int:
    """dim of the degree-p invariants: (1/|G|) * sum of symmetric-power traces."""
    if p < 0:
        raise ValueError("degree must be >= 0")
    _extend_dims(group, p)
    return group._dims[p]


# -- Molien series ----------------------------------------------------------------


@dataclass(frozen=True)
class MolienResult:
    """Graded invariant dimensions plus the recovered hypersurface form."""

    dims: tuple[int, ...]
    series: HilbertSeries | None
    matched: tuple[int, int, int, int] | None  # (d1, d2, d3, e)


def _recover_hypersurface(dims, max_degree):
    """Search for (d1<=d2<=d3, e) with dims = [(1-t^e)/prod(1-t^di)].

    Candidates run over even degrees up to max_degree/2 in ascending order;
    the first full match through the window wins.  Each (d1, d2) is expanded
    once; for each d3 the expansion u of 1/prod(1-t^di) is extended degree by
    degree, e is the first degree where u differs from dims, and the
    candidate is dropped at the first degree where u - t^e u does.
    """
    top = max_degree // 2
    for d1 in range(2, top + 1, 2):
        for d2 in range(d1, top + 1, 2):
            pair = HilbertSeries((1,), (d1, d2)).expand(max_degree)
            for d3 in range(d2, top + 1, 2):
                u = list(pair)
                e = None
                for pdeg in range(max_degree + 1):
                    if pdeg >= d3:
                        u[pdeg] += u[pdeg - d3]
                    if e is None:
                        if u[pdeg] == dims[pdeg]:
                            continue
                        if pdeg == 0:
                            break
                        e = pdeg
                    if u[pdeg] - u[pdeg - e] != dims[pdeg]:
                        break
                else:
                    if e is not None:
                        return (d1, d2, d3, e)
    return None


def molien_series(group: MatrixGroup, max_degree: int | None = None) -> MolienResult:
    """Invariant dimensions through max_degree plus a recovered rational form.

    The default window is large enough to see each group's relation degree.
    """
    if max_degree is None:
        max_degree = DEFAULT_WINDOW[group.label if group.label in DEFAULT_WINDOW else "BD"]
    dims = tuple(invariant_dimension(group, p) for p in range(max_degree + 1))
    matched = _recover_hypersurface(dims, max_degree)
    series = None
    if matched is not None:
        d1, d2, d3, e = matched
        num = [1] + [0] * (e - 1) + [-1]
        series = HilbertSeries(tuple(num), (d1, d2, d3))
    return MolienResult(dims=dims, series=series, matched=matched)
