"""Catalog of varieties with computable symmetric-tensor algebras.

Each family either has a closed-form Hilbert series (abelian, projective
space, two-quadric intersections, Hitchin-type moduli) or an explicit
homogeneous ideal routed through the Groebner engine (Grassmannian nilpotent
cones, quadrics via decomposable bivectors).  Ruled-surface entries delegate
to the Molien engine and compare against the classical three-generator table.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .errors import IntegrityError, SpecParseError
from .groebner import (GroebnerBasis, GroebnerLimits, IdealPresentation,
                       buchberger, leading_term_ideal)
from .hilbert import (HilbertSeries, series_from_generator_degrees,
                      series_from_monomial_ideal)
from .invariants import MolienResult, build_group, invariant_dimension, molien_series
from .poly import Polynomial, VariableContext

NEG_INFINITY = float("-inf")

GRASSMANNIAN_CAP = 4  # largest n accepted without force
QUADRIC_CAP = 3

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
    """Tagged description of one catalog entry."""

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
        kind = self.kind
        if kind == "Pn":
            _require(self.n is not None and self.n >= 1, "Pn needs n >= 1")
        elif kind == "Gr":
            _require(self.r is not None and self.n is not None, "Gr needs (r, n)")
            _require(1 <= self.r <= self.n - 1, "Gr needs 1 <= r <= n-1")
        elif kind == "Q":
            _require(self.n is not None and self.n >= 1, "Q needs n >= 1")
        elif kind == "2Q":
            _require(self.n is not None and self.n >= 1, "2Q needs n >= 1")
        elif kind == "Ab":
            _require(self.n is not None and self.n >= 1, "Ab needs n >= 1")
        elif kind == "Hitchin":
            _require(self.g is not None and self.g >= 2, "Hitchin needs genus g >= 2")
            _require(self.r is not None and self.r >= 1, "Hitchin needs rank r >= 1")
            _require(self.d is not None, "Hitchin needs a degree d")
            _require(gcd(self.r, self.d) == 1, "Hitchin needs coprime rank and degree")
        elif kind == "ParHitchin":
            _require(self.g is not None and self.g >= 2, "ParHitchin needs g >= 2")
            _require(self.r is not None and self.r >= 1, "ParHitchin needs r >= 1")
            _require(self.s is not None and self.s >= 1, "ParHitchin needs s >= 1")
            _require(self.mode in ("literal", "sympow"),
                     "ParHitchin mode must be literal or sympow")
        elif kind == "Klein":
            _require(self.group in ("BD", "2T", "2O", "2I"),
                     "Klein group must be BD, 2T, 2O or 2I")
            if self.group == "BD":
                _require(self.n is not None and self.n >= 2, "Klein(BD, n) needs n >= 2")
        elif kind == "Prod":
            _require(len(self.components) == 2, "Prod needs two components")
        elif kind == "Trivial":
            _require(self.reason in TRIVIAL_REASONS, f"unknown reason {self.reason!r}")
            if self.reason == "hypersurface":
                _require(self.d is not None and self.d >= 3,
                         "hypersurface triviality needs degree >= 3")
                _require(self.n is not None and self.n >= 2,
                         "hypersurface triviality needs dimension >= 2")
        else:
            raise SpecParseError(f"unknown spec kind {kind!r}")

    def dim_x(self):
        """Dimension of the underlying variety, or None when not modeled."""
        if self.kind == "Pn":
            return self.n
        if self.kind == "Gr":
            return self.r * (self.n - self.r)
        if self.kind in ("Q", "2Q"):
            return self.n
        if self.kind == "Ab":
            return self.n
        if self.kind == "Hitchin":
            if self.fixed_det:
                return (self.r ** 2 - 1) * (self.g - 1)
            return self.r ** 2 * (self.g - 1) + 1
        if self.kind == "ParHitchin":
            return self.r ** 2 * (self.g - 1) + 1 + self.s * self.r * (self.r - 1) // 2
        if self.kind == "Klein":
            return 2
        if self.kind == "Prod":
            dims = [c.dim_x() for c in self.components]
            if any(d is None for d in dims):
                return None
            return sum(dims)
        return None

    def kappa(self):
        """Kodaira dimension when known: 0, -infinity, or None for unknown."""
        if self.kind == "Ab":
            return 0
        if self.kind in ("Pn", "Gr", "Q"):
            return NEG_INFINITY
        if self.kind == "Klein":
            return NEG_INFINITY
        return None

    def text(self) -> str:
        k = self.kind
        if k == "Pn":
            return f"Pn({self.n})"
        if k == "Gr":
            return f"Gr({self.r},{self.n})"
        if k == "Q":
            return f"Q({self.n})"
        if k == "2Q":
            return f"2Q({self.n})"
        if k == "Ab":
            return f"Ab({self.n})"
        if k == "Hitchin":
            fixed = ",fixed" if self.fixed_det else ""
            return f"Hitchin(g={self.g},r={self.r},d={self.d}{fixed})"
        if k == "ParHitchin":
            return f"ParHitchin(g={self.g},r={self.r},s={self.s},mode={self.mode})"
        if k == "Klein":
            return f"Klein({self.group},{self.n})" if self.group == "BD" else f"Klein({self.group})"
        if k == "Prod":
            inner = ",".join(c.text() for c in self.components)
            return f"Prod({inner})"
        if k == "Trivial":
            return f"Trivial({self.reason})"
        raise AssertionError(k)


def _require(cond, message):
    if not cond:
        raise SpecParseError(message)


# -- spec grammar -----------------------------------------------------------------

_NAME_RE = re.compile(r"[A-Za-z0-9]+")


def parse_spec(text: str) -> VarietySpec:
    """Parse the spec grammar: Pn(2), Gr(2,4), Q(3), 2Q(3), Ab(2),
    Hitchin(g=2,r=2,d=1,fixed), ParHitchin(g=4,r=2,s=1,mode=literal),
    Klein(BD,2), Klein(2I), Prod(Pn(1),Pn(1))."""
    spec, pos = _parse_spec_at(text, 0)
    if text[pos:].strip():
        raise SpecParseError(f"trailing input after spec: {text[pos:]!r}")
    return spec


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_spec_at(text: str, pos: int):
    pos = _skip_ws(text, pos)
    m = _NAME_RE.match(text, pos)
    if m is None:
        raise SpecParseError(f"expected a spec name at {text[pos:pos + 12]!r}")
    name = m.group(0)
    pos = _skip_ws(text, m.end())
    args: list = []
    if pos < len(text) and text[pos] == "(":
        pos += 1
        if name == "Prod":
            first, pos = _parse_spec_at(text, pos)
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ",":
                raise SpecParseError("Prod needs two comma-separated specs")
            second, pos = _parse_spec_at(text, pos + 1)
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != ")":
                raise SpecParseError("unclosed Prod(...)")
            return VarietySpec(kind="Prod", components=(first, second)), pos + 1
        depth = 1
        start = pos
        while pos < len(text) and depth:
            if text[pos] == "(":
                depth += 1
            elif text[pos] == ")":
                depth -= 1
            pos += 1
        if depth:
            raise SpecParseError(f"unclosed parenthesis in {text!r}")
        raw = text[start:pos - 1]
        args = [a.strip() for a in raw.split(",")] if raw.strip() else []
    return _spec_from_name_args(name, args), pos


def _spec_from_name_args(name: str, args: list) -> VarietySpec:
    def as_int(token, what):
        try:
            return int(token)
        except ValueError:
            raise SpecParseError(f"{what} must be an integer, got {token!r}") from None

    if name in ("Pn", "Q", "2Q", "Ab"):
        if len(args) != 1:
            raise SpecParseError(f"{name} takes exactly one parameter")
        return VarietySpec(kind=name, n=as_int(args[0], name))
    if name == "Gr":
        if len(args) != 2:
            raise SpecParseError("Gr takes (r, n)")
        return VarietySpec(kind="Gr", r=as_int(args[0], "r"), n=as_int(args[1], "n"))
    if name == "Hitchin":
        kv = {}
        fixed = False
        for a in args:
            if a == "fixed":
                fixed = True
            elif "=" in a:
                k, v = a.split("=", 1)
                kv[k.strip()] = as_int(v.strip(), k.strip())
            else:
                raise SpecParseError(f"bad Hitchin argument {a!r}")
        missing = {"g", "r", "d"} - kv.keys()
        if missing:
            raise SpecParseError(f"Hitchin missing {sorted(missing)}")
        return VarietySpec(kind="Hitchin", g=kv["g"], r=kv["r"], d=kv["d"], fixed_det=fixed)
    if name == "ParHitchin":
        kv = {}
        mode = "literal"
        for a in args:
            if "=" not in a:
                raise SpecParseError(f"bad ParHitchin argument {a!r}")
            k, v = a.split("=", 1)
            k, v = k.strip(), v.strip()
            if k == "mode":
                mode = v
            else:
                kv[k] = as_int(v, k)
        missing = {"g", "r", "s"} - kv.keys()
        if missing:
            raise SpecParseError(f"ParHitchin missing {sorted(missing)}")
        return VarietySpec(kind="ParHitchin", g=kv["g"], r=kv["r"], s=kv["s"], mode=mode)
    if name == "Klein":
        if not args:
            raise SpecParseError("Klein needs a group label")
        group = args[0]
        if group == "BD":
            if len(args) != 2:
                raise SpecParseError("Klein(BD, n) needs n")
            return VarietySpec(kind="Klein", group="BD", n=as_int(args[1], "n"))
        if len(args) != 1:
            raise SpecParseError(f"Klein({group}) takes no extra parameters")
        return VarietySpec(kind="Klein", group=group)
    if name == "Trivial":
        if len(args) != 1:
            raise SpecParseError("Trivial takes a reason id")
        return VarietySpec(kind="Trivial", reason=args[0])
    raise SpecParseError(f"unknown spec name {name!r}")


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


def abelian_series(n: int) -> HilbertSeries:
    """Free polynomial algebra on n degree-1 generators."""
    if n < 1:
        raise ValueError("abelian entry needs n >= 1")
    return series_from_generator_degrees([1] * n)


def two_quadrics_series(n: int) -> HilbertSeries:
    """Free polynomial algebra on n generators of degree 2."""
    if n < 1:
        raise ValueError("two-quadric entry needs n >= 1")
    return series_from_generator_degrees([2] * n)


def hitchin_series(g: int, r: int, d: int, fixed_det: bool = False) -> HilbertSeries:
    """Free algebra on the characteristic-coefficient space of rank-r Higgs fields.

    Degree-i block dimension: g for i=1 (dropped with fixed determinant) and
    (2i-1)(g-1) for 2 <= i <= r, by Riemann-Roch on the i-th canonical power.
    The degree d only enters the coprimality requirement.
    """
    if g < 2:
        raise ValueError("need genus >= 2")
    if r < 1:
        raise ValueError("need rank >= 1")
    if gcd(r, d) != 1:
        raise SpecParseError("rank and degree must be coprime")
    degrees: list[int] = []
    if not fixed_det:
        degrees.extend([1] * g)
    for i in range(2, r + 1):
        degrees.extend([i] * ((2 * i - 1) * (g - 1)))
    return series_from_generator_degrees(degrees)


def parabolic_hitchin_series(g: int, r: int, s: int, mode: str = "literal"):
    """Series for the parabolic variant plus its validity flag.

    Block i contributes generators of degree i; the block dimension comes from
    Riemann-Roch on a twist of the canonical bundle.  mode='literal' twists the
    canonical bundle itself by (i-1) copies of the s-point divisor; 'sympow'
    twists the i-th canonical power.  The flag records whether the parameters
    satisfy g >= 4, or g = 3 and r >= 3, or g = 2 and r >= 5.
    """
    if g < 2 or r < 1 or s < 1:
        raise ValueError("need g >= 2, r >= 1, s >= 1")
    if mode not in ("literal", "sympow"):
        raise ValueError("mode must be 'literal' or 'sympow'")
    degrees: list[int] = []
    for i in range(1, r + 1):
        if mode == "literal":
            bundle_degree = (2 * g - 2) + (i - 1) * s
        else:
            bundle_degree = i * (2 * g - 2) + (i - 1) * s
        if i == 1:
            block = g  # the bundle is the canonical bundle itself
        else:
            if bundle_degree <= 2 * g - 2:
                raise AssertionError("twisted degree must exceed 2g-2 for i >= 2")
            block = bundle_degree - g + 1
        degrees.extend([i] * block)
    valid = (g >= 4) or (g == 3 and r >= 3) or (g == 2 and r >= 5)
    return series_from_generator_degrees(degrees), valid


# -- ideal-backed families ----------------------------------------------------------


def _dedupe_generators(gens):
    seen = set()
    out = []
    for g in gens:
        if g.is_zero:
            continue
        lc, _ = g.leading_term()
        key = g.scale(Fraction(1) / lc).terms
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


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
    if not (1 <= r <= n - 1):
        raise ValueError(f"need 1 <= r <= n-1, got r={r}, n={n}")
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
    perms = _signed_permutations(m + 1)
    for rows in itertools.combinations(range(n), m + 1):
        for cols in itertools.combinations(range(n), m + 1):
            minor = {}
            _add_variable_minor(minor, n, rows, cols, perms)
            gens.append(Polynomial(ctx, minor))
    provenance = (f"square-zero endomorphisms of a {n}-dim space with rank <= "
                  f"{m}; characteristic coefficients and size-{m + 1} minors adjoined")
    if m >= 2:
        provenance += "; radicality assumed for rank bound >= 2"
    return IdealPresentation(
        ctx=ctx,
        generators=tuple(_dedupe_generators(gens)),
        provenance=provenance)


def quadric_ideal(n: int) -> IdealPresentation:
    """Decomposable-bivector ring of a (n+2)-dim quadratic space, cut by the
    induced quadric on bivectors.

    Generators: the three-term exchange relations among the bivector
    coordinates p_ij, plus sum p_ij^2 (the induced form for the standard
    sum-of-squares quadric).
    """
    if n < 1:
        raise ValueError("quadric entry needs n >= 1")
    dim_v = n + 2
    pairs = [(i, j) for i in range(1, dim_v + 1) for j in range(i + 1, dim_v + 1)]
    ctx = VariableContext(tuple(f"p{i}{j}" for i, j in pairs))

    def var(i, j):
        return ctx.variable(f"p{i}{j}")

    gens: list[Polynomial] = []
    for (i, j, k, l) in itertools.combinations(range(1, dim_v + 1), 4):
        gens.append(var(i, j) * var(k, l) - var(i, k) * var(j, l) + var(i, l) * var(j, k))
    square_sum = ctx.zero()
    for i, j in pairs:
        square_sum = square_sum + var(i, j) * var(i, j)
    gens.append(square_sum)
    return IdealPresentation(
        ctx=ctx,
        generators=tuple(gens),
        provenance=(f"decomposable bivectors of a {dim_v}-dim space meeting the "
                    "induced sum-of-squares quadric"))


def ideal_presentation_for(spec: VarietySpec) -> IdealPresentation | None:
    """The ideal behind a Groebner-routed spec, or None for closed forms."""
    if spec.kind == "Gr":
        return grassmannian_ideal(spec.r, spec.n)
    if spec.kind == "Q":
        return quadric_ideal(spec.n)
    return None


# -- triviality registry --------------------------------------------------------------


@dataclass(frozen=True)
class TrivialityEntry:
    series: HilbertSeries
    reason: str
    note: str
    flags: tuple[str, ...]


def triviality_registry(reason: str, degree: int | None = None,
                        dimension: int | None = None) -> TrivialityEntry:
    """Constant-algebra entry for a family with no higher symmetric tensors."""
    if reason not in TRIVIAL_REASONS:
        raise SpecParseError(f"unknown triviality reason {reason!r}")
    flags = ["constant-algebra"]
    if reason == "hypersurface":
        if degree is None or degree < 3 or dimension is None or dimension < 2:
            raise SpecParseError("hypersurface triviality needs degree >= 3, dim >= 2")
        flags.append("claimed-vanishing-includes-degree-zero")
    return TrivialityEntry(series=HilbertSeries.one(), reason=reason,
                           note=TRIVIAL_REASONS[reason], flags=tuple(flags))


# -- Klein table -----------------------------------------------------------------------


@dataclass(frozen=True)
class KleinTableRow:
    """One row of the classical three-generator/one-relation table."""

    name: str                 # D_n, A4, S4, A5
    group_label: str          # BD, 2T, 2O, 2I
    n: int | None
    degrees: tuple[int, int, int]     # stated degrees of the generators x, y, z
    relation_text: str

    @property
    def ctx(self) -> VariableContext:
        return VariableContext(("x", "y", "z"))

    def relation(self) -> Polynomial:
        return self.ctx.parse(self.relation_text)

    def relation_degree(self) -> int | None:
        """Common weighted degree of the relation's terms, or None if mixed."""
        return self.relation().homogeneous_degree(self.degrees)

    def is_weighted_homogeneous(self) -> bool:
        return self.relation_degree() is not None

    def table_series(self) -> HilbertSeries | None:
        e = self.relation_degree()
        if e is None:
            return None
        return series_from_generator_degrees(self.degrees, e)


def klein_row(group_label: str, n: int | None = None) -> KleinTableRow:
    if group_label == "BD":
        if n is None or n < 2:
            raise ValueError("dihedral rows need n >= 2")
        return KleinTableRow(name=f"D_{n}", group_label="BD", n=n,
                             degrees=(2 * n + 2, 2 * n, 4),
                             relation_text=f"x^2 + y^2*z + z^{n + 1}")
    if group_label == "2T":
        return KleinTableRow(name="A4", group_label="2T", n=None,
                             degrees=(4, 4, 6), relation_text="x^2 + y^3 + z^3")
    if group_label == "2O":
        return KleinTableRow(name="S4", group_label="2O", n=None,
                             degrees=(12, 8, 6), relation_text="x^2 + y^3 + z^4")
    if group_label == "2I":
        return KleinTableRow(name="A5", group_label="2I", n=None,
                             degrees=(30, 20, 12), relation_text="x^2 + y^3 + z^5")
    raise ValueError(f"unknown group label {group_label!r}")


def _candidate_rows(max_dihedral_n: int = 10):
    rows = [klein_row("BD", n) for n in range(2, max_dihedral_n + 1)]
    rows.extend(klein_row(label) for label in ("2T", "2O", "2I"))
    return rows


@dataclass(frozen=True)
class RuledKleinReport:
    """Molien computation vs. table row for one ruled-surface group."""

    group_label: str
    n: int | None
    group: object
    molien: MolienResult
    row: KleinTableRow
    row_consistent: bool
    table_series: HilbertSeries | None
    match: bool | None                  # None when the row is inconsistent
    matching_rows: tuple[str, ...]      # names of all table rows the computation matches


def ruled_klein(group_label: str, n: int | None = None,
                window: int | None = None) -> RuledKleinReport:
    """Compute the invariant series of a binary polyhedral group and compare it
    with the stated table row; the computation is the authority, the comparison
    is data."""
    group = build_group(group_label, n)
    result = molien_series(group, window)
    row = klein_row(group_label, n)
    table = row.table_series()
    row_consistent = table is not None
    match = None
    if row_consistent and result.series is not None:
        match = result.series == table
    matching = []
    if result.series is not None:
        for cand in _candidate_rows():
            cand_series = cand.table_series()
            if cand_series is not None and result.series == cand_series:
                matching.append(cand.name)
    return RuledKleinReport(group_label=group_label, n=n, group=group, molien=result,
                            row=row, row_consistent=row_consistent, table_series=table,
                            match=match, matching_rows=tuple(matching))


# -- dimension-bound checks ---------------------------------------------------------


@dataclass(frozen=True)
class BoundsReport:
    spec_text: str
    krull: int
    dim_x: int
    upper: int
    homogeneous_equality: bool | None
    liu_bound: int | None
    liu_equality: bool | None


def check_dimension_bounds(spec: VarietySpec, series: HilbertSeries) -> BoundsReport:
    """Assert 0 <= krull <= 2*dim and the kappa bound where kappa is known."""
    dim_x = spec.dim_x()
    if dim_x is None:
        raise ValueError(f"spec {spec.text()} has no modeled dimension")
    krull = series.krull_dim()
    upper = 2 * dim_x
    if krull < 0 or krull > upper:
        raise IntegrityError(
            f"{spec.text()}: krull dimension {krull} outside [0, {upper}]")
    homogeneous_equality = None
    if spec.kind in ("Pn", "Gr", "Q"):
        homogeneous_equality = (krull == upper)
    kappa = spec.kappa()
    liu_bound = None
    liu_equality = None
    if kappa is not None and kappa != NEG_INFINITY:
        liu_bound = dim_x - int(kappa)
        if krull > liu_bound:
            raise IntegrityError(
                f"{spec.text()}: krull dimension {krull} exceeds dim - kappa = {liu_bound}")
        liu_equality = (krull == liu_bound)
    return BoundsReport(spec_text=spec.text(), krull=krull, dim_x=dim_x, upper=upper,
                        homogeneous_equality=homogeneous_equality,
                        liu_bound=liu_bound, liu_equality=liu_equality)


# -- evaluation -----------------------------------------------------------------------


@dataclass
class SeriesReport:
    """Everything the CLI emits for one spec."""

    spec: VarietySpec
    spec_text: str
    coefficients: tuple[int, ...]
    series: HilbertSeries | None
    krull: int | None
    provenance: str
    flags: tuple[str, ...]
    presentation: IdealPresentation | None = None
    basis: GroebnerBasis | None = None
    klein: RuledKleinReport | None = None

    def to_json_dict(self):
        return {
            "spec": self.spec_text,
            "coefficients": list(self.coefficients),
            "rational_form": self.series.to_json_dict() if self.series else None,
            "krull_dim": self.krull,
            "provenance": self.provenance,
            "flags": list(self.flags),
        }


def groebner_route(presentation: IdealPresentation,
                   limits: GroebnerLimits | None = None):
    """Run Buchberger and convert the initial ideal into a Hilbert series."""
    basis = buchberger(presentation, limits=limits)
    lt_ideal = leading_term_ideal(basis)
    series = series_from_monomial_ideal(lt_ideal, presentation.grading).canonical()
    return basis, lt_ideal, series


def evaluate(spec: VarietySpec, *, max_degree: int = 8,
             gb_timeout: float | None = 300.0, gb_max_degree: int | None = 12,
             force: bool = False) -> SeriesReport:
    """Dispatch a spec to its route and package the result."""
    kind = spec.kind
    if kind == "Pn":
        dims = projective_space_dims(spec.n, max_degree)
        series = projective_space_series(spec.n)
        if series.expand(max_degree) != dims:
            raise IntegrityError("projective-space series disagrees with closed form")
        return SeriesReport(spec, spec.text(), dims, series, series.krull_dim(),
                            "closed form: squared-binomial differences (incidence divisor)",
                            ())
    if kind == "Gr":
        if spec.n > GRASSMANNIAN_CAP and not force:
            raise SpecParseError(
                f"Gr with n={spec.n} is above the default cap {GRASSMANNIAN_CAP}; "
                "rerun with force enabled")
        presentation = grassmannian_ideal(spec.r, spec.n)
        limits = GroebnerLimits(max_degree=gb_max_degree, timeout=gb_timeout)
        basis, _, series = groebner_route(presentation, limits)
        flags = []
        if min(spec.r, spec.n - spec.r) >= 2:
            flags.append("radicality-assumed")
        return SeriesReport(spec, spec.text(), series.expand(max_degree), series,
                            series.krull_dim(), presentation.provenance, tuple(flags),
                            presentation=presentation, basis=basis)
    if kind == "Q":
        if spec.n > QUADRIC_CAP and not force:
            raise SpecParseError(
                f"Q with n={spec.n} is above the default cap {QUADRIC_CAP}; "
                "rerun with force enabled")
        presentation = quadric_ideal(spec.n)
        limits = GroebnerLimits(max_degree=gb_max_degree, timeout=gb_timeout)
        basis, _, series = groebner_route(presentation, limits)
        return SeriesReport(spec, spec.text(), series.expand(max_degree), series,
                            series.krull_dim(), presentation.provenance, (),
                            presentation=presentation, basis=basis)
    if kind == "2Q":
        series = two_quadrics_series(spec.n)
        return SeriesReport(spec, spec.text(), series.expand(max_degree), series,
                            series.krull_dim(),
                            f"closed form: free algebra on {spec.n} degree-2 generators", ())
    if kind == "Ab":
        series = abelian_series(spec.n)
        return SeriesReport(spec, spec.text(), series.expand(max_degree), series,
                            series.krull_dim(),
                            f"closed form: free algebra on {spec.n} degree-1 generators "
                            "(trivial tangent bundle)", ())
    if kind == "Hitchin":
        series = hitchin_series(spec.g, spec.r, spec.d, spec.fixed_det)
        flags = ("fixed-determinant",) if spec.fixed_det else ()
        return SeriesReport(spec, spec.text(), series.expand(max_degree), series,
                            series.krull_dim(),
                            "closed form: free algebra on characteristic coefficients "
                            "of rank-%d Higgs fields" % spec.r, flags)
    if kind == "ParHitchin":
        series, valid = parabolic_hitchin_series(spec.g, spec.r, spec.s, spec.mode)
        flags = [f"mode:{spec.mode}",
                 "codim-condition-ok" if valid else "codim-condition-unverified"]
        return SeriesReport(spec, spec.text(), series.expand(max_degree), series,
                            series.krull_dim(),
                            "closed form: free algebra on parabolic characteristic "
                            "coefficients", tuple(flags))
    if kind == "Klein":
        report = ruled_klein(spec.group, spec.n)
        dims = report.molien.dims
        if max_degree >= len(dims):
            dims = tuple(invariant_dimension(report.group, p)
                         for p in range(max_degree + 1))
        coefficients = dims[: max_degree + 1]
        series = report.molien.series
        flags = ["row-consistent" if report.row_consistent else "row-inconsistent"]
        if report.match is not None:
            flags.append("matches-stated-row" if report.match else "differs-from-stated-row")
        if report.matching_rows:
            flags.append("matches:" + "+".join(report.matching_rows))
        return SeriesReport(spec, spec.text(), coefficients, series,
                            series.krull_dim() if series else None,
                            f"invariant averages over the {spec.group} group; "
                            "hypersurface form recovered by search",
                            tuple(flags), klein=report)
    if kind == "Prod":
        left = evaluate(spec.components[0], max_degree=max_degree, gb_timeout=gb_timeout,
                        gb_max_degree=gb_max_degree, force=force)
        right = evaluate(spec.components[1], max_degree=max_degree, gb_timeout=gb_timeout,
                         gb_max_degree=gb_max_degree, force=force)
        if left.series is None or right.series is None:
            raise IntegrityError("product components must both carry a rational form")
        series = left.series * right.series
        return SeriesReport(spec, spec.text(), series.expand(max_degree), series,
                            series.krull_dim(),
                            f"product of [{left.provenance}] and [{right.provenance}]",
                            left.flags + right.flags)
    if kind == "Trivial":
        entry = triviality_registry(spec.reason, degree=spec.d, dimension=spec.n)
        series = entry.series
        return SeriesReport(spec, spec.text(), series.expand(max_degree), series,
                            series.krull_dim(), entry.note, entry.flags)
    raise AssertionError(f"unhandled kind {kind}")
