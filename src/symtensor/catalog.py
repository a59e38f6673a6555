"""Catalog of varieties with computable symmetric-tensor algebras.

Each family either has a closed-form Hilbert series (abelian, projective
space, two-quadric intersections, Hitchin-type moduli) or an explicit
homogeneous ideal routed through the Groebner engine (Grassmannian nilpotent
cones, quadrics via decomposable bivectors).  Ruled-surface entries delegate
to the Molien engine and compare against the classical three-generator table;
products compose their components' routes.  ``FAMILIES`` holds one record per
family: grammar, checks, invariants and the route that ``evaluate`` calls.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, fields
from functools import cache
from math import comb, gcd, prod
from operator import mul
from typing import Callable, NamedTuple

from .errors import IntegrityError, SpecParseError
from .groebner import (GroebnerBasis, GroebnerLimits, IdealPresentation,
                       buchberger, leading_term_ideal)
from .hilbert import (HilbertSeries, series_from_expansion, series_from_generator_degrees,
                      series_from_monomial_ideal)
from .invariants import MolienResult, build_group, molien_series
from .poly import Polynomial, VariableContext

DEFAULT_MAX_DEGREE = 8        # expansion depth D
DEFAULT_LIMITS = GroebnerLimits(max_degree=12, timeout=300.0)  # pair-degree cap, seconds per run

GRASSMANNIAN_CAP = 4  # largest n accepted without force
QUADRIC_CAP = 3

PARABOLIC_MODES = ("literal", "sympow")

TRIVIAL_REASONS = {
    "c1_zero_finite_pi1":
        "first Chern class zero with finite fundamental group: constants only",
    "general_type":
        "variety of general type: constants only",
    "hypersurface":
        "smooth hypersurface of degree >= 3 and dimension >= 2: no sections in "
        "any positive degree (the classical vanishing statement covers degree "
        "zero as well; stored here as the constant algebra)",
    "ruled_general_bundle":
        "ruled surface over a general stable bundle: constants only",
}


# -- variety specs ---------------------------------------------------------------


@dataclass(frozen=True)
class VarietySpec:
    """Tagged description of one catalog entry; ``FAMILIES[kind]`` says which
    fields it takes and what they must satisfy."""

    kind: str
    n: int | None = None
    r: int | None = None
    g: int | None = None
    d: int | None = None
    s: int | None = None
    fixed_det: bool = False
    mode: str = "literal"
    group: str | None = None
    reason: str | None = None
    components: tuple["VarietySpec", ...] = ()

    def __post_init__(self):
        family = FAMILIES.get(self.kind)
        if family is None:
            raise SpecParseError(f"unknown spec kind {self.kind!r}")
        taken = ("kind",) + family.fields
        for f in fields(self):
            if f.name not in taken and getattr(self, f.name) != f.default:
                raise SpecParseError(f"{self.kind} takes no {f.name}")
        for holds, need in family.rules:
            if not holds(self):
                raise SpecParseError(f"{self.kind} needs {need}")

    def dim_x(self):
        """Dimension of the underlying variety, or None when not modeled."""
        return FAMILIES[self.kind].dim_x(self)

    def text(self) -> str:
        """The spec in the grammar ``parse_spec`` reads back to an equal spec."""
        family = FAMILIES[self.kind]
        args = [_arg_text(getattr(self, name)) for name in family.positional
                if getattr(self, name) is not None]
        args += [f"{name}={getattr(self, name)}" for name in family.keywords
                 if getattr(self, name) is not None]
        if self.fixed_det:
            args.append("fixed")
        return f"{self.kind}({','.join(args)})"


def _arg_text(value) -> str:
    return ",".join(c.text() for c in value) if isinstance(value, tuple) else str(value)


# -- catalog families ------------------------------------------------------------


def _closed_form_route(spec, limits, force):
    family = FAMILIES[spec.kind]
    return family.closed_form(spec), family.provenance(spec), family.flags(spec), None, None


def _projective_route(spec, limits, force):
    """The closed form as an identity: C(n+p, n)^2 - C(n+p-1, n)^2 is a polynomial
    of degree 2n - 1 in p, so its first 2n values fix a series over (1 - t)^(2n)."""
    route = _closed_form_route(spec, limits, force)
    n = spec.n
    if series_from_expansion(projective_space_dims(n, 2 * n - 1), (1,) * (2 * n)) != route[0]:
        raise IntegrityError("projective-space series disagrees with closed form")
    return route


def _ideal_route(spec, limits, force):
    family = FAMILIES[spec.kind]
    if spec.n > family.cap and not force:
        raise SpecParseError(f"{spec.kind} with n={spec.n} is above the default cap "
                             f"{family.cap}; rerun with force enabled")
    presentation = family.ideal(spec)
    basis, series = groebner_route(presentation, limits, family.closed_form(spec))
    provenance = f"{presentation.provenance}; {family.provenance(spec)}"
    return series, provenance, family.flags(spec), basis, None


def _klein_route(spec, limits, force):
    klein = ruled_klein(spec.group, spec.n)
    flags = ("row-inconsistent",) if klein.match is None else (
        "row-consistent", "matches-stated-row" if klein.match else "differs-from-stated-row")
    if klein.matching_rows:
        flags += ("matches:" + "+".join(klein.matching_rows),)
    form = ("hypersurface form equals the exact series" if klein.molien.matched
            else "no hypersurface form equals the exact series")
    provenance = f"invariant averages over the {spec.group} group; {form}"
    return klein.molien.series, provenance, flags, None, klein


def _product_route(spec, limits, force):
    """Kunneth: the product of the two components' routes' series."""
    left, right = (FAMILIES[c.kind].route(c, limits, force) for c in spec.components)
    return (left[0] * right[0], f"product of [{left[1]}] and [{right[1]}]",
            left[2] + right[2], None, None)


class Family(NamedTuple):
    """Everything the catalog knows about one family of varieties.

    ``route(spec, limits, force)`` computes a spec as (series, provenance,
    flags, basis, Klein report).  The default emits ``closed_form``, and
    ``Pn``'s also proves it.  ``Gr`` and ``Q`` refuse n above ``cap`` unless
    forced and run ``ideal`` through Buchberger, driven by ``closed_form``,
    which is never the emitted series.  ``Klein`` runs the Molien engine and
    ``Prod`` composes its components' routes.  Routes look module names up
    when called, so wrappers on this module's attributes see every call.
    """

    positional: tuple[str, ...] = ()     # spec fields given by position
    keywords: tuple[str, ...] = ()       # spec fields given as name=value
    fixed: bool = False                  # the bare word "fixed" sets fixed_det
    rules: tuple = ()                    # (predicate on the spec, what it needs)
    dim_x: Callable[[VarietySpec], int | None] = lambda spec: None
    kappa: int | None = None             # Kodaira dimension where it bounds krull by dim - kappa
    homogeneous: bool = False            # krull dimension must be 2*dim
    closed_form: Callable[[VarietySpec], HilbertSeries] | None = None
    provenance: Callable[[VarietySpec], str] | None = None
    ideal: Callable[[VarietySpec], IdealPresentation] | None = None
    cap: int | None = None
    flags: Callable[[VarietySpec], tuple[str, ...]] = lambda spec: ()
    route: Callable[[VarietySpec, GroebnerLimits, bool], tuple] = _closed_form_route

    @property
    def fields(self) -> tuple[str, ...]:
        return self.positional + self.keywords + (("fixed_det",) if self.fixed else ())


def _at_least(name, low):
    def holds(spec):
        value = getattr(spec, name)
        return value is not None and value >= low
    return holds, f"{name} >= {low}"


def _total(values):
    return None if None in values else sum(values)


FAMILIES: dict[str, Family] = {
    "Pn": Family(
        positional=("n",), rules=(_at_least("n", 1),),
        dim_x=lambda s: s.n, homogeneous=True, route=_projective_route,
        closed_form=lambda s: projective_space_series(s.n),
        provenance=lambda s: "closed form: squared-binomial differences (incidence divisor)"),
    "Gr": Family(
        positional=("r", "n"),
        rules=(_at_least("r", 1), _at_least("n", 2), (lambda s: s.r < s.n, "r <= n-1")),
        dim_x=lambda s: s.r * (s.n - s.r), homogeneous=True,
        closed_form=lambda s: grassmannian_series(s.r, s.n),
        provenance=lambda s: _grassmannian_provenance(s.r, s.n),
        ideal=lambda s: grassmannian_ideal(s.r, s.n), cap=GRASSMANNIAN_CAP, route=_ideal_route,
        flags=lambda s: ("radicality-assumed",) if min(s.r, s.n - s.r) >= 2 else ()),
    "Q": Family(
        positional=("n",), rules=(_at_least("n", 1),),
        dim_x=lambda s: s.n, homogeneous=True,
        closed_form=lambda s: quadric_series(s.n),
        provenance=lambda s: (f"Hilbert-driven by Hodge's standard-monomial series of "
                              f"Gr(2,{s.n + 2}) cut by the quadric, a nonzerodivisor"),
        ideal=lambda s: quadric_ideal(s.n), cap=QUADRIC_CAP, route=_ideal_route),
    "2Q": Family(
        positional=("n",), rules=(_at_least("n", 1),), dim_x=lambda s: s.n,
        closed_form=lambda s: series_from_generator_degrees([2] * s.n),
        provenance=lambda s: f"closed form: free algebra on {s.n} degree-2 generators"),
    "Ab": Family(
        positional=("n",), rules=(_at_least("n", 1),), dim_x=lambda s: s.n, kappa=0,
        closed_form=lambda s: series_from_generator_degrees([1] * s.n),
        provenance=lambda s: (f"closed form: free algebra on {s.n} degree-1 generators "
                              "(trivial tangent bundle)")),
    "Hitchin": Family(
        keywords=("g", "r", "d"), fixed=True,
        rules=(_at_least("g", 2), _at_least("r", 1), (lambda s: s.d is not None, "a degree d"),
               (lambda s: gcd(s.r, s.d) == 1, "coprime rank and degree")),
        dim_x=lambda s: ((s.r ** 2 - 1) * (s.g - 1) if s.fixed_det
                         else s.r ** 2 * (s.g - 1) + 1),
        closed_form=lambda s: series_from_generator_degrees(_hitchin_degrees(s)),
        provenance=lambda s: ("closed form: free algebra on characteristic coefficients "
                              f"of rank-{s.r} Higgs fields"),
        flags=lambda s: ("fixed-determinant",) if s.fixed_det else ()),
    "ParHitchin": Family(
        keywords=("g", "r", "s", "mode"),
        rules=(_at_least("g", 2), _at_least("r", 1), _at_least("s", 1),
               (lambda s: s.mode in PARABOLIC_MODES, "mode literal or sympow")),
        dim_x=lambda s: s.r ** 2 * (s.g - 1) + 1 + s.s * s.r * (s.r - 1) // 2,
        closed_form=lambda s: series_from_generator_degrees(_parabolic_degrees(s)),
        provenance=lambda s: "closed form: free algebra on parabolic characteristic coefficients",
        flags=lambda s: (f"mode:{s.mode}", "codim-condition-ok" if _parabolic_codim_ok(s)
                         else "codim-condition-unverified")),
    "Klein": Family(
        positional=("group", "n"),
        rules=((lambda s: s.group == "BD" or s.group in _EXCEPTIONAL_ROWS,
                "a group BD, 2T, 2O or 2I"),
               (lambda s: s.group != "BD" or (s.n is not None and s.n >= 2), "n >= 2 for BD"),
               (lambda s: s.group == "BD" or s.n is None, "no n for 2T, 2O or 2I")),
        dim_x=lambda s: 2, route=_klein_route),
    "Prod": Family(
        positional=("components",),
        rules=((lambda s: len(s.components) == 2, "two components"),),
        dim_x=lambda s: _total([c.dim_x() for c in s.components]), route=_product_route),
    "Trivial": Family(
        positional=("reason",), keywords=("d", "n"),
        rules=((lambda s: s.reason in TRIVIAL_REASONS, f"a reason in {sorted(TRIVIAL_REASONS)}"),
               (lambda s: s.reason != "hypersurface" or (
                   s.d is not None and s.d >= 3 and s.n is not None and s.n >= 2),
                "degree d >= 3 and dimension n >= 2 for a hypersurface"),
               (lambda s: s.reason == "hypersurface" or (s.d is None and s.n is None),
                "no d or n except for a hypersurface")),
        closed_form=lambda s: HilbertSeries((1,), ()),
        provenance=lambda s: TRIVIAL_REASONS[s.reason],
        flags=lambda s: ("constant-algebra",) + (
            ("claimed-vanishing-includes-degree-zero",) if s.reason == "hypersurface" else ())),
}


# -- spec grammar -----------------------------------------------------------------

_SPEC_RE = re.compile(r"\s*([A-Za-z0-9]+)\s*(?:\((.*)\))?\s*", re.DOTALL)
_DIGITS_RE = re.compile(r"[+-]?\d+")
_INT_FIELDS = ("n", "r", "g", "d", "s")
_MAX_NESTING = 32  # parentheses a spec may nest, so evaluating and printing it stay shallow


def _echo(text: str) -> str:
    """``text`` quoted for a refusal, cut to a short prefix."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... of {len(text)} characters"


def parse_spec(text: str) -> VarietySpec:
    """Parse the spec grammar: Pn(2), Gr(2,4), Q(3), 2Q(3), Ab(2),
    Hitchin(g=2,r=2,d=1,fixed), ParHitchin(g=4,r=2,s=1,mode=literal),
    Klein(BD,2), Klein(2I), Prod(Pn(1),Pn(1)), Trivial(general_type),
    Trivial(hypersurface,d=3,n=2)."""
    m = _SPEC_RE.fullmatch(text)
    if m is None:
        raise SpecParseError(f"expected a spec name and an optional (...) tail, got {_echo(text)}")
    name, tail = m.groups()
    args: list = []
    if tail is not None and tail.strip():
        depth, start = 0, 0
        for i, ch in enumerate(tail):
            depth += (ch == "(") - (ch == ")")
            if not 0 <= depth < _MAX_NESTING:
                break
            if ch == "," and not depth:
                args.append(tail[start:i].strip())
                start = i + 1
        if depth >= _MAX_NESTING:
            raise SpecParseError(f"parentheses nested deeper than {_MAX_NESTING} in {_echo(text)}")
        if depth:
            raise SpecParseError(f"unbalanced parentheses in {_echo(text)}")
        args.append(tail[start:].strip())
    if name == "Prod":
        return VarietySpec(kind="Prod", components=tuple(map(parse_spec, args)))
    return _spec_from_name_args(name, args)


def _spec_from_name_args(name: str, args: list) -> VarietySpec:
    """Fill the family's positional fields in order, then its name=value fields."""
    family = FAMILIES.get(name)
    if family is None:
        raise SpecParseError(f"unknown spec name {_echo(name)}")
    slots = iter(family.positional)
    values: dict = {}
    for arg in args:
        key, eq, value = (part.strip() for part in arg.partition("="))
        if not eq and family.fixed and arg == "fixed":
            key, value = "fixed_det", True
        elif not eq:
            key, value = next(slots, None), arg
        elif key not in family.keywords:
            key = None
        if key is None or key in values:
            raise SpecParseError(f"{name} argument {_echo(arg)} is unknown or repeated")
        if key in _INT_FIELDS:
            try:
                value = int(value)
            except ValueError:  # a run of digits fails only past the int-string limit
                raise SpecParseError(
                    f"{key}: number {value[:12]}... of {len(value)} digits is too long to read"
                    if _DIGITS_RE.fullmatch(value)
                    else f"{key} must be an integer, got {_echo(value)}") from None
        values[key] = value
    return VarietySpec(kind=name, **values)


# -- closed forms -----------------------------------------------------------------


def projective_space_dims(n: int, max_degree: int):
    """Graded dimensions for projective n-space: C(n+p,n)^2 - C(n+p-1,n)^2."""
    if n < 1:
        raise ValueError("projective space needs n >= 1")
    return tuple(comb(n + p, n) ** 2 - comb(n + p - 1, n) ** 2
                 for p in range(max_degree + 1))


def projective_space_series(n: int) -> HilbertSeries:
    """Rational form with numerator sum_k C(n,k)^2 t^k over (1-t)^(2n)."""
    return HilbertSeries(tuple(comb(n, k) ** 2 for k in range(n + 1)), (1,) * (2 * n))


def _hitchin_degrees(spec: VarietySpec) -> list[int]:
    """Generator degrees of the free algebra on the characteristic-coefficient
    space of rank-r Higgs fields.

    Degree-i block dimension: g for i=1 (dropped with fixed determinant) and
    (2i-1)(g-1) for 2 <= i <= r, by Riemann-Roch on the i-th canonical power.
    The degree d only enters the coprimality requirement.
    """
    degrees = [] if spec.fixed_det else [1] * spec.g
    for i in range(2, spec.r + 1):
        degrees += [i] * ((2 * i - 1) * (spec.g - 1))
    return degrees


def _parabolic_degrees(spec: VarietySpec) -> list[int]:
    """Generator degrees of the parabolic variant.

    Block i contributes generators of degree i; the block dimension comes from
    Riemann-Roch on a twist of the canonical bundle.  mode='literal' twists the
    canonical bundle itself by (i-1) copies of the s-point divisor; 'sympow'
    twists the i-th canonical power.  Block 1 is the canonical bundle itself,
    with g sections.  For i >= 2 the twisted degree is at least (2g-2) + s, and
    s >= 1, so it exceeds 2g-2 and Riemann-Roch gives degree - g + 1 sections.
    """
    g = spec.g
    degrees = [1] * g
    for i in range(2, spec.r + 1):
        power = 1 if spec.mode == "literal" else i
        degrees += [i] * (power * (2 * g - 2) + (i - 1) * spec.s - g + 1)
    return degrees


def _parabolic_codim_ok(spec: VarietySpec) -> bool:
    """Whether g >= 4, or g = 3 and r >= 3, or g = 2 and r >= 5."""
    g, r = spec.g, spec.r
    return (g >= 4) or (g == 3 and r >= 3) or (g == 2 and r >= 5)


def _partitions(size, rows, largest):
    """Nonincreasing tuples of ``rows`` entries in 0..largest with sum at most size."""
    if not rows:
        yield ()
        return
    for first in range(min(size, largest) + 1):
        for rest in _partitions(size - first, rows - 1, first):
            yield (first,) + rest


def grassmannian_series(r: int, n: int) -> HilbertSeries:
    """Series of the square-zero orbit closure of rank m = min(r, n - r) in gl_n.

    Its degree-d piece is the sum over partitions lam of d with at most m rows
    of the GL_n module of highest weight (lam, 0, .., 0, -lam reversed), by the
    Cauchy formula, Borel-Weil on Gr(r, n) and the normality of the closure
    (Kraft and Procesi, Invent. Math. 1979).  Weyl's dimension formula is a
    polynomial of degree at most n(n-1)/2 in the lam_i - lam_{i+1}, so the
    series has denominator D = prod_{i <= m} (1 - t^i)^(n(n-1)/2 + 1) and a
    numerator of degree below deg D, fixed by the first deg D dimensions.
    """
    m = min(r, n - r)
    den_weights = tuple(i for i in range(1, m + 1) for _ in range(n * (n - 1) // 2 + 1))
    top = sum(den_weights)
    pairs = tuple(itertools.combinations(range(n), 2))
    scale = prod(j - i for i, j in pairs)
    dims = [0] * top
    for lam in _partitions(top - 1, m, top - 1):
        mu = lam + (0,) * (n - 2 * m) + tuple(-part for part in reversed(lam))
        dims[sum(lam)] += prod(mu[i] - mu[j] + j - i for i, j in pairs) // scale
    return series_from_expansion(dims, den_weights)


def _grassmannian_provenance(r: int, n: int) -> str:
    m = min(r, n - r)
    text = (f"Hilbert-driven by the orbit closure's series: GL_{n} Weyl dimensions over "
            f"partitions of length <= {m} (Kraft-Procesi normality)")
    return text + ("; radicality assumed for rank bound >= 2" if m >= 2 else "")


def quadric_series(n: int) -> HilbertSeries:
    """Series of the decomposable-bivector ring of an N = (n+2)-dim space cut by a quadric.

    That ring is the Plucker ring of Gr(2, N); by Hodge's standard monomials
    its degree-d piece has dimension w_d = C(N+d-1, d) C(N+d-2, d) / (d + 1).
    The quadric is a nonzerodivisor on this domain, so c_d = w_d - w_{d-2}.
    Over (1 - t)^(2n) the numerator is the Plucker ring's, of degree N - 3,
    times 1 + t, so c_0..c_2n fix it.
    """
    big = n + 2
    w = [comb(big + d - 1, d) * comb(big + d - 2, d) // (d + 1) for d in range(2 * n + 1)]
    return series_from_expansion([w[d] - (w[d - 2] if d >= 2 else 0) for d in range(2 * n + 1)],
                                 (1,) * (2 * n))


# -- ideal-backed families ----------------------------------------------------------


def _signed_permutations(size):
    """Every permutation of range(size) with its sign."""
    out = []
    for perm in itertools.permutations(range(size)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        out.append((perm, -1 if inversions % 2 else 1))
    return out


def _add_variable_minor(terms, n, rows, cols, perms):
    """Add the rows x cols minor of the n x n matrix of distinct variables to terms.

    By Leibniz's formula the minor has one signed square-free monomial per
    permutation, and the monomial fixes both the permutation and the rows, so
    no two terms of one minor, or of minors on different row sets, coincide.
    """
    for perm, sign in perms:
        exps = [0] * (n * n)
        for i, p in zip(rows, perm):
            exps[i * n + cols[p]] = 1
        terms[tuple(exps)] = sign


def grassmannian_ideal(r: int, n: int) -> IdealPresentation:
    """Equations of square-zero endomorphisms of rank <= min(r, n-r).

    Generators: the entries of u*u, every characteristic-polynomial
    coefficient of u (degrees 1..n), and all minors of size min(r, n-r)+1.
    The minors and characteristic coefficients are adjoined because the
    square-zero entries alone do not even cut the right linear span.
    """
    names = tuple(f"u{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))
    ctx = VariableContext(names)
    gens: list[Polynomial] = []
    for i in range(n):
        for j in range(n):
            entry = {}  # sum over k of u_ik * u_kj; distinct k give distinct monomials
            for k in range(n):
                exps = [0] * (n * n)
                exps[i * n + k] += 1
                exps[k * n + j] += 1
                entry[tuple(exps)] = 1
            gens.append(Polynomial(ctx, entry))
    for k in range(1, n + 1):
        perms = _signed_permutations(k)
        coeff = {}
        for subset in itertools.combinations(range(n), k):
            _add_variable_minor(coeff, n, subset, subset, perms)
        gens.append(Polynomial(ctx, coeff))
    m = min(r, n - r)
    if m + 1 < n:  # else (only Gr(1,2)) the one minor is the determinant, c_n
        perms = _signed_permutations(m + 1)
        for rows in itertools.combinations(range(n), m + 1):
            for cols in itertools.combinations(range(n), m + 1):
                minor = {}
                _add_variable_minor(minor, n, rows, cols, perms)
                gens.append(Polynomial(ctx, minor))
    return IdealPresentation(
        ctx=ctx,
        generators=tuple(gens),
        provenance=(f"square-zero endomorphisms of a {n}-dim space with rank <= "
                    f"{m}; characteristic coefficients and size-{m + 1} minors adjoined"))


def quadric_ideal(n: int) -> IdealPresentation:
    """Decomposable-bivector ring of a (n+2)-dim quadratic space, cut by the
    induced quadric on bivectors.

    Generators: the three-term exchange relations among the bivector
    coordinates p_ij, plus sum p_ij^2 (the induced form for the standard
    sum-of-squares quadric).
    """
    dim_v = n + 2
    pairs = [(i, j) for i in range(1, dim_v + 1) for j in range(i + 1, dim_v + 1)]
    ctx = VariableContext(tuple(f"p{i}{j}" for i, j in pairs))
    index = {pair: v for v, pair in enumerate(pairs)}

    def product(first, second):
        exps = [0] * len(pairs)
        exps[index[first]] += 1
        exps[index[second]] += 1
        return tuple(exps)

    gens: list[Polynomial] = []
    for (i, j, k, l) in itertools.combinations(range(1, dim_v + 1), 4):
        # the three products share no variable, so they are distinct monomials
        gens.append(Polynomial(ctx, {product((i, j), (k, l)): 1,
                                     product((i, k), (j, l)): -1,
                                     product((i, l), (j, k)): 1}))
    gens.append(Polynomial(ctx, {product(pair, pair): 1 for pair in pairs}))
    return IdealPresentation(
        ctx=ctx,
        generators=tuple(gens),
        provenance=(f"decomposable bivectors of a {dim_v}-dim space meeting the "
                    "induced sum-of-squares quadric"))


def ideal_presentation_for(spec: VarietySpec) -> IdealPresentation | None:
    """The ideal behind a Groebner-routed spec, or None for closed forms."""
    family = FAMILIES[spec.kind]
    return None if family.ideal is None else family.ideal(spec)


# -- Klein table -----------------------------------------------------------------------


_KLEIN_CTX = VariableContext(("x", "y", "z"))


class KleinTableRow(NamedTuple):
    """One row of the classical three-generator/one-relation table."""

    name: str                         # D_n, A4, S4, A5
    degrees: tuple[int, int, int]     # stated degrees of the generators x, y, z
    relation_text: str

    def relation(self) -> Polynomial:
        return _KLEIN_CTX.parse(self.relation_text)

    def relation_degree(self) -> int | None:
        """Common weighted degree of the relation's terms, or None if mixed."""
        degrees = {sum(map(mul, m, self.degrees)) for m, _ in self.relation().terms}
        return degrees.pop() if len(degrees) == 1 else None

    @cache  # rows are constant data, so each is parsed once per process
    def table_series(self) -> HilbertSeries | None:
        e = self.relation_degree()
        if e is None:
            return None
        return series_from_generator_degrees(self.degrees, e)


_EXCEPTIONAL_ROWS = {
    "2T": KleinTableRow("A4", (4, 4, 6), "x^2 + y^3 + z^3"),
    "2O": KleinTableRow("S4", (12, 8, 6), "x^2 + y^3 + z^4"),
    "2I": KleinTableRow("A5", (30, 20, 12), "x^2 + y^3 + z^5"),
}


def klein_row(group_label: str, n: int | None = None) -> KleinTableRow:
    """The stated row of a group: D_n for BD(n), else its exceptional row."""
    if group_label == "BD":
        return KleinTableRow(f"D_{n}", (2 * n + 2, 2 * n, 4), f"x^2 + y^2*z + z^{n + 1}")
    return _EXCEPTIONAL_ROWS[group_label]


@dataclass(frozen=True)
class RuledKleinReport:
    """Molien computation vs. table row for one ruled-surface group."""

    group: object
    molien: MolienResult
    row: KleinTableRow
    match: bool | None                  # None when the stated row is not weighted-homogeneous
    matching_rows: tuple[str, ...]      # names of all table rows the computation matches


def ruled_klein(group_label: str, n: int | None = None) -> RuledKleinReport:
    """Compute the invariant series of a binary polyhedral group and compare it
    with the stated table row as rational functions; the computation is the
    authority, the comparison is data.  The candidate rows are D_2 .. D_10, the
    three exceptional rows and the stated row."""
    group = build_group(group_label, n)
    result = molien_series(group)
    row = klein_row(group_label, n)
    table = row.table_series()
    candidates = [klein_row("BD", k) for k in range(2, 11)] + list(_EXCEPTIONAL_ROWS.values())
    if row not in candidates:
        candidates.append(row)
    matching = tuple(c.name for c in candidates if result.series == c.table_series())
    return RuledKleinReport(group=group, molien=result, row=row,
                            match=None if table is None else result.series == table,
                            matching_rows=matching)


# -- dimension-bound checks ---------------------------------------------------------


def check_dimension_bounds(spec: VarietySpec, series: HilbertSeries) -> int:
    """The Krull dimension of ``series``, which must lie in [0, 2*dim], equal 2*dim
    for a homogeneous family and be at most dim - kappa where the family has kappa;
    a violation raises IntegrityError."""
    dim_x = spec.dim_x()
    if dim_x is None:
        raise ValueError(f"spec {spec.text()} has no modeled dimension")
    krull = series.krull_dim()
    family = FAMILIES[spec.kind]
    if not 0 <= krull <= 2 * dim_x:
        raise IntegrityError(f"{spec.text()}: krull dimension {krull} outside [0, {2 * dim_x}]")
    if family.homogeneous and krull != 2 * dim_x:
        raise IntegrityError(f"{spec.text()}: krull dimension {krull} != 2*dim = {2 * dim_x} "
                             "for a homogeneous variety")
    if family.kappa is not None and krull > dim_x - family.kappa:
        raise IntegrityError(f"{spec.text()}: krull dimension {krull} exceeds "
                             f"dim - kappa = {dim_x - family.kappa}")
    return krull


# -- evaluation -----------------------------------------------------------------------


@dataclass
class SeriesReport:
    """Everything the CLI emits for one spec."""

    spec: VarietySpec
    coefficients: tuple[int, ...]
    series: HilbertSeries
    krull: int
    provenance: str
    flags: tuple[str, ...]
    basis: GroebnerBasis | None = None
    klein: RuledKleinReport | None = None

    def to_json_dict(self):
        return {
            "spec": self.spec.text(),
            "coefficients": list(self.coefficients),
            "rational_form": self.series.to_json_dict(),
            "krull_dim": self.krull,
            "provenance": self.provenance,
            "flags": list(self.flags),
        }


def groebner_route(presentation: IdealPresentation,
                   limits: GroebnerLimits | None = None, bound: HilbertSeries | None = None):
    """Run Buchberger, driven by ``bound`` when given, and convert the initial
    ideal into a Hilbert series.

    The series is always the reduced basis's initial ideal's, never the bound:
    the one a driven run stopped on, which is its minimal leading monomials'
    (``GroebnerBasis.series``), or else one computed from the basis.
    """
    basis = buchberger(presentation, limits=limits, bound=bound)
    series = basis.series
    if series is None:
        series = series_from_monomial_ideal(leading_term_ideal(basis))
    return basis, series.canonical()


def evaluate(spec: VarietySpec, *, max_degree: int = DEFAULT_MAX_DEGREE,
             limits: GroebnerLimits = DEFAULT_LIMITS, force: bool = False) -> SeriesReport:
    """Run a spec's route and package the result."""
    series, provenance, flags, basis, klein = FAMILIES[spec.kind].route(spec, limits, force)
    return SeriesReport(spec, series.expand(max_degree), series, series.krull_dim(), provenance,
                        flags, basis=basis, klein=klein)
