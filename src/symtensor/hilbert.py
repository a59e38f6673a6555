"""Hilbert series as exact rational functions N(t) / prod(1 - t^w).

The numerator is an integer polynomial, the denominator a multiset of positive
weights.  Series from monomial ideals use the pivot recursion
N(I) = N(I + <p>) + t^deg(p) * N(I : p) on a most-frequent-variable pivot.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import univar
from .errors import IntegrityError
from .poly import mono_divides

# -- monomial ideals ----------------------------------------------------------


def minimalize_monomials(gens):
    """Minimal generating set: drop duplicates and multiples of other generators."""
    kept = []
    for m in sorted(set(gens), key=lambda m: (sum(m), m)):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators (exponent tuples)."""

    nvars: int
    gens: tuple[tuple[int, ...], ...]

    @classmethod
    def from_generators(cls, nvars, gens):
        gens = tuple(tuple(g) for g in gens)
        for g in gens:
            if len(g) != nvars:
                raise ValueError("generator length does not match variable count")
            if any(e < 0 for e in g):
                raise ValueError("negative exponent in monomial generator")
        return cls(nvars, minimalize_monomials(gens))

    def contains_monomial(self, mono) -> bool:
        return any(mono_divides(g, mono) for g in self.gens)


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def count_standard_monomials(ideal: MonomialIdeal, degree: int) -> int:
    """Brute-force count of degree-d monomials outside the ideal.

    Enumerates all compositions, so intended for small variable counts only.
    """
    return sum(1 for m in _compositions(degree, ideal.nvars)
               if not ideal.contains_monomial(m))


# -- numerator recursion -------------------------------------------------------


def _supports_disjoint(gens):
    seen = set()
    for g in gens:
        for v, e in enumerate(g):
            if e:
                if v in seen:
                    return False
                seen.add(v)
    return True


def _colon_by_power(gens, var, exp):
    out = []
    for g in gens:
        if g[var]:
            g = g[:var] + (max(g[var] - exp, 0),) + g[var + 1:]
        out.append(g)
    return minimalize_monomials(out)


def _numerator(gens, memo):
    """Numerator of the quotient's series over the all-ones denominator."""
    cached = memo.get(gens)
    if cached is not None:
        return cached
    if not gens:
        result = [1]
    elif any(sum(g) == 0 for g in gens):
        result = [0]
    elif _supports_disjoint(gens):
        result = [1]
        for g in gens:
            result = univar.mul(result, univar.one_minus_power(sum(g)))
    else:
        nv = len(gens[0])
        counts = [0] * nv
        for g in gens:
            for v, e in enumerate(g):
                if e:
                    counts[v] += 1
        var = max(range(nv), key=lambda v: counts[v])
        exp = min(g[var] for g in gens if g[var])
        pivot = tuple(exp if v == var else 0 for v in range(nv))
        left = minimalize_monomials(gens + (pivot,))
        right = _colon_by_power(gens, var, exp)
        result = univar.add(_numerator(left, memo),
                            univar.shift(_numerator(right, memo), exp))
    memo[gens] = result
    return result


# -- the series type ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HilbertSeries:
    """N(t) / prod_w (1 - t^w) with integer numerator, exact everywhere."""

    numerator: tuple[int, ...]
    den_weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "numerator", tuple(univar.trim(self.numerator)))
        object.__setattr__(self, "den_weights", tuple(sorted(self.den_weights)))
        if any(w < 1 for w in self.den_weights):
            raise ValueError("denominator weights must be positive")

    @classmethod
    def one(cls) -> "HilbertSeries":
        return cls((1,), ())

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
        """Pole order at t=1: denominator factor count minus numerator root multiplicity."""
        num = list(self.numerator)
        if not num:
            return 0
        mult = 0
        while sum(num) == 0:
            num, r = univar.divmod_exact(num, [1, -1])
            if r:
                raise AssertionError("division by (1 - t) must be exact when 1 is a root")
            mult += 1
        return len(self.den_weights) - mult

    def canonical(self) -> "HilbertSeries":
        """Cancel common (1 - t^w) factors greedily, largest weight first."""
        num = list(self.numerator)
        den = list(self.den_weights)
        for w in sorted(set(den), reverse=True):
            while w in den:
                q, r = univar.divmod_exact(num, univar.one_minus_power(w))
                if r:
                    break
                num = q
                den.remove(w)
        return HilbertSeries(tuple(num), tuple(den))

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return HilbertSeries(
            tuple(univar.mul(list(self.numerator), list(other.numerator))),
            self.den_weights + other.den_weights)

    def _den_poly(self):
        p = [1]
        for w in self.den_weights:
            p = univar.mul(p, univar.one_minus_power(w))
        return p

    def __eq__(self, other):
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        left = univar.mul(list(self.numerator), other._den_poly())
        right = univar.mul(list(other.numerator), self._den_poly())
        return left == right

    __hash__ = None

    # -- display -------------------------------------------------------------

    def render(self) -> str:
        num = univar.render(list(self.numerator))
        if not self.den_weights:
            return num
        groups = []
        seen = []
        for w in self.den_weights:
            if w in seen:
                continue
            seen.append(w)
            k = self.den_weights.count(w)
            base = f"(1 - t^{w})" if w > 1 else "(1 - t)"
            groups.append(base if k == 1 else f"{base}^{k}")
        den = " ".join(groups)
        return f"({num}) / ({den})"

    def to_json_dict(self):
        return {"numerator": list(self.numerator),
                "denominator_weights": list(self.den_weights)}

    def __repr__(self):
        return f"<series {self.render()}>"


# -- constructors and functional aliases ----------------------------------------


def series_from_monomial_ideal(ideal: MonomialIdeal) -> HilbertSeries:
    """Series of the quotient by a monomial ideal, over (1-t)^nvars."""
    num = _numerator(ideal.gens, {})
    return HilbertSeries(tuple(num), (1,) * ideal.nvars)


def series_from_generator_degrees(degrees, relation_degree=None) -> HilbertSeries:
    """Free generators of the given degrees, with one optional relation."""
    degrees = tuple(sorted(int(d) for d in degrees))
    if any(d < 1 for d in degrees):
        raise ValueError("generator degrees must be positive")
    if relation_degree is None:
        num = (1,)
    else:
        e = int(relation_degree)
        if e < 1:
            raise ValueError("relation degree must be positive")
        num = tuple(univar.one_minus_power(e))
    return HilbertSeries(num, degrees)


def series_product(a: HilbertSeries, b: HilbertSeries) -> HilbertSeries:
    return a * b


def series_eq(a: HilbertSeries, b: HilbertSeries) -> bool:
    return a == b


def krull_dim(s: HilbertSeries) -> int:
    return s.krull_dim()


def expand(s: HilbertSeries, max_degree: int):
    return s.expand(max_degree)
