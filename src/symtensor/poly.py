"""Sparse multivariate polynomials over exact rationals.

Monomials are exponent tuples tied to an ordered :class:`VariableContext`, and
:func:`pack_monomials` checks every one that enters the package.  A
polynomial stores each term as its monomial's degrevlex key in a
:class:`Packing` and keeps the (key, coefficient) pairs sorted descending, so
its leading term is the first, and the Groebner engine uses the keys as they
are.  The layout is the narrowest that holds the polynomial's degree, so equal
values have identical representations.  A polynomial comes in through
``ctx.poly({monomial: scalar})`` or ``ctx.parse(text)``, and its terms are
(monomial, coefficient) pairs unpacked on each access.  Arithmetic and ``==``
are between polynomials of one context; a scalar enters only through
``scale(c)`` or as the constant term of ``ctx.poly``.  ``render(lex=True)``
lists the terms in lex order for display.  The module owns the polynomial text
format: :func:`render_terms` writes it, for ``HilbertSeries`` numerators too,
and one grammar reads it in ``ctx.parse``.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import countOf

from .errors import LimitExceeded, SpecParseError
from .exactnum import exact

# -- packed monomials -----------------------------------------------------------


def _field_bytes(bound) -> int:
    """Bytes per field of the narrowest layout whose fields hold total degree ``bound``."""
    for size in (1, 2, 4, 8):
        if bound < 1 << (8 * size - 1):
            return size
    raise LimitExceeded(f"degree {bound} does not fit a 63-bit exponent field")


class Packing:
    """The int layout of monomials in n variables (Bachmann and Schonemann 1998).

    The exponent vector E is the exponent tuple's bytes read as one
    little-endian int: fields of w value bits and a guard bit above them, w + 1
    being the narrowest of 8, 16, 32 or 64 that holds ``bound``, with variable
    i in field i.  ``cap`` = 2^w - 1 bounds every total degree, and so every
    exponent.  A product is one addition, a quotient one subtraction, and a
    divides b exactly when E_b - E_a sets no guard bit; the lcm and the
    support are read through the guard bits, and the total degree from one
    multiplication.  The degrevlex key K = deg * 2^T - E, T being the width
    of all n fields, is linear too, and comparing keys compares monomials.
    """

    __slots__ = ("fields", "width", "value_bits", "cap", "total", "low", "guards", "ones", "top")

    def __init__(self, nvars: int, bound: int):
        size = _field_bytes(bound)
        code = {1: "B", 2: "H", 4: "I", 8: "Q"}[size]
        self.fields = struct.Struct(f"<{nvars}{code}")
        self.width = 8 * size
        self.value_bits = self.width - 1
        self.cap = (1 << self.value_bits) - 1
        self.total = self.width * nvars
        self.low = (1 << self.total) - 1
        self.ones = int.from_bytes(self.fields.pack(*(1,) * nvars), "little")
        self.guards = self.ones << self.value_bits
        self.top = self.width * max(nvars - 1, 0)

    def pack_exps(self, m) -> int:
        """E of exponents in 0..cap; ValueError for any other, such as one that sets a guard bit."""
        try:
            e = int.from_bytes(self.fields.pack(*m), "little")
            if not e & self.guards:
                return e
        except struct.error:
            pass
        raise ValueError(f"monomial {tuple(m)!r} is not a tuple of ints in 0..{self.cap}")

    def unpack_exps(self, e) -> tuple:
        return self.fields.unpack(e.to_bytes(self.fields.size, "little"))

    def key(self, e, degree) -> int:
        """K of the monomial with exponent vector e and total degree ``degree``."""
        return (degree << self.total) - e

    def exps(self, k) -> int:
        return -k & self.low

    def pack(self, m) -> int:
        return self.key(self.pack_exps(m), sum(m))

    def unpack(self, k) -> tuple:
        return self.unpack_exps(self.exps(k))

    def key_degree(self, k) -> int:
        """Total degree of the monomial of key k: K = deg * 2^T - E with 0 <= E < 2^T."""
        return -(-k >> self.total)

    def power(self, var, e) -> int:
        """E of x_var^e."""
        return e << self.width * var

    def exponents(self, es, var) -> list:
        """The exponent of variable var in each exponent vector of es."""
        shift, cap = self.width * var, self.cap
        return [e >> shift & cap for e in es]

    def supports(self, es) -> list:
        """The guard bits of each exponent vector's variables."""
        guards, ones = self.guards, self.ones
        return [((e | guards) - ones) & guards for e in es]

    def counts(self, supports) -> list:
        """How many supports hold each variable; summing cap at a time keeps the fields apart."""
        parts = [self.unpack_exps(sum(supports[i:i + self.cap]) >> self.value_bits)
                 for i in range(0, len(supports), self.cap)]
        return list(map(sum, zip(*parts)))

    def degree(self, e) -> int:
        """Total degree of E, read from the top field of E * (1, ..., 1)."""
        return (e * self.ones >> self.top) & self.cap

    def lcm(self, a, b) -> int:
        """Field-wise maximum of two exponent vectors."""
        ge = ((a | self.guards) - b) & self.guards  # guard i set when a_i >= b_i
        ge -= ge >> self.value_bits                 # ... now its value bits instead
        return b ^ ((a ^ b) & ge)


_LAYOUTS = {}


def layout(nvars, degree) -> Packing:
    """The narrowest Packing of nvars variables that holds total degree ``degree``, cached."""
    key = (nvars, _field_bytes(degree))
    return _LAYOUTS.get(key) or _LAYOUTS.setdefault(key, Packing(nvars, degree))


def pack_monomials(nvars, monos):
    """The one check of the exponent tuples entering the package, which packs them.

    Returns the narrowest Packing that holds their largest total degree, their
    degrees and their exponent vectors.  A tuple that is not nvars ints >= 0,
    a bool not being one, raises ValueError naming it.
    """
    try:
        if countOf(map(type, chain.from_iterable(monos)), int) == nvars * len(monos):
            degrees = list(map(sum, monos))
            pk = layout(nvars, max(degrees, default=0))
            return pk, degrees, list(map(pk.pack_exps, monos))  # a negative or wrong length fails
    except (TypeError, ValueError):
        pass
    for m in monos:
        if not (isinstance(m, (tuple, list)) and len(m) == nvars
                and all(type(e) is int and e >= 0 for e in m)):
            raise ValueError(f"monomial {m!r} is not a tuple of {nvars} ints >= 0")


# -- contexts and polynomials ------------------------------------------------


@dataclass(frozen=True)
class VariableContext:
    """Ordered, named variables; every polynomial pins its context."""

    names: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.names, str):
            raise ValueError(f"names must be a sequence of names, not the string {self.names!r}")
        object.__setattr__(self, "names", tuple(self.names))  # so equal and hashable as given
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        for name in self.names:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"bad variable name {name!r}")

    @cached_property
    def _index(self):
        return {name: i for i, name in enumerate(self.names)}

    @cached_property
    def nvars(self) -> int:
        return len(self.names)

    def poly(self, mapping) -> "Polynomial":
        """The polynomial of {monomial: scalar}; a malformed monomial raises ValueError."""
        return Polynomial(self, mapping)

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial; each coefficient is an exact scalar (see ``exact``).

    ``packed`` holds the (degrevlex key, coefficient) pairs, keys descending,
    in the layout ``pk`` = ``layout(nvars, degree)``; every result is repacked
    into that layout, so equal polynomials have equal ``packed``.  ``terms``
    unpacks them on each access.  The constructor checks and packs the
    exponent tuples of the nonzero terms with :func:`pack_monomials`.
    """

    __slots__ = ("ctx", "pk", "packed")

    def __init__(self, ctx: VariableContext, mapping):
        monos, coeffs = [], []
        for mono, coeff in dict(mapping).items():
            if coeff := exact(coeff):
                monos.append(mono)
                coeffs.append(coeff)
        pk, degrees, exps = pack_monomials(ctx.nvars, monos)
        total = pk.total
        packed = sorted([((d << total) - e, c) for d, e, c in zip(degrees, exps, coeffs)],
                        reverse=True)
        _init(self, ctx, pk, tuple(packed))

    @classmethod
    def from_keys(cls, ctx: VariableContext, pk: Packing, acc) -> "Polynomial":
        """The polynomial of {degrevlex key in layout pk: scalar}, in its own layout.

        Zero scalars are dropped and the others made exact.
        """
        packed = [(k, exact(c)) for k, c in acc.items() if c]
        packed.sort(reverse=True)
        narrow = layout(ctx.nvars, pk.key_degree(packed[0][0]) if packed else 0)
        if narrow.width != pk.width:  # the degree fell below a narrower layout's cap
            packed = [(narrow.pack(pk.unpack(k)), c) for k, c in packed]
        return _init(object.__new__(cls), ctx, narrow, tuple(packed))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial, (self.ctx, dict(self.terms))

    def packed_in(self, pk: Packing):
        """The (key, coefficient) pairs in layout pk, whose fields must hold the degree."""
        if pk.width == self.pk.width:
            return self.packed
        old = self.pk
        return [(pk.pack(old.unpack(k)), c) for k, c in self.packed]

    # -- queries -------------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The (exponent tuple, coefficient) pairs, leading term first."""
        unpack = self.pk.unpack
        return tuple([(unpack(k), c) for k, c in self.packed])

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def degree(self) -> int:
        """Maximal total degree, -1 for the zero polynomial."""
        # keys compare total degree first
        return self.pk.key_degree(self.packed[0][0]) if self.packed else -1

    def leading_monomial(self):
        """The maximal monomial under degrevlex, the first of ``terms``."""
        if not self.packed:
            raise ValueError("zero polynomial has no leading monomial")
        return self.pk.unpack(self.packed[0][0])

    def is_homogeneous(self) -> bool:
        """Whether all terms share one total degree; the zero polynomial counts."""
        packed, deg = self.packed, self.pk.key_degree
        return not packed or deg(packed[0][0]) == deg(packed[-1][0])

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, Polynomial):
            return None
        if other.ctx != self.ctx:
            raise ValueError("polynomials live in different variable contexts")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        pk = self.pk if self.pk.width >= o.pk.width else o.pk
        acc = dict(self.packed_in(pk))
        for k, c in o.packed_in(pk):
            acc[k] = acc.get(k, 0) + c
        return Polynomial.from_keys(self.ctx, pk, acc)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # K(ab) = K(a) + K(b) in any layout that holds deg a + deg b; a zero
        # factor, of degree -1, counts as 0 so that the layout holds the other
        pk = layout(self.ctx.nvars, max(self.degree(), 0) + max(o.degree(), 0))
        acc = {}
        right = o.packed_in(pk)
        for k1, c1 in self.packed_in(pk):
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = acc.get(k, 0) + c1 * c2
        return Polynomial.from_keys(self.ctx, pk, acc)

    def scale(self, c) -> "Polynomial":
        c = exact(c)
        if not c:
            return Polynomial(self.ctx, {})
        # a nonzero factor keeps every term, and so the keys and layout
        return _init(object.__new__(Polynomial), self.ctx, self.pk,
                     tuple([(k, exact(cc * c)) for k, cc in self.packed]))

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.packed == other.packed

    def __hash__(self):
        return hash((self.ctx, self.packed))

    def render(self, lex: bool = False) -> str:
        """Text form: terms joined by +/-, '^' powers, '*' between factors.

        Terms come in degrevlex order, or in lex order when ``lex`` is set:
        distinct exponent tuples compare lexicographically, earlier names first.
        """
        terms = sorted(self.terms, reverse=True) if lex else self.terms
        names = self.ctx.names
        return render_terms((coeff, [name if e == 1 else f"{name}^{e}"
                                     for name, e in zip(names, mono) if e])
                            for mono, coeff in terms)

    def __repr__(self):
        return f"<poly {self.render()}>"


def _init(p, ctx, pk, packed):
    object.__setattr__(p, "ctx", ctx)
    object.__setattr__(p, "pk", pk)
    object.__setattr__(p, "packed", packed)
    return p


# -- text format ----------------------------------------------------------------


def render_terms(terms) -> str:
    """Text of (coefficient, factor texts) pairs, in the order given.

    The first term carries its sign, the others are joined by " + " or " - ",
    a magnitude of 1 is dropped before factors, and no terms render as "0".
    """
    parts = []
    for coeff, factors in terms:
        mag = abs(coeff)
        body = "*".join(factors if mag == 1 and factors else [str(mag), *factors])
        if parts:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        else:
            parts.append(body if coeff > 0 else f"-{body}")
    return " ".join(parts) or "0"


_NAME = r"[A-Za-z][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_FACTOR = rf"(\d+)(?:\s*/\s*(\d+))?|({_NAME})(?:\s*\^\s*(\d+))?"
_FACTOR_RE = re.compile(_FACTOR)
# a run of signs, then factors with an optional '*' between them; the separator
# \s*(?:\*\s*)? splits a run of spaces one way only, so a refusal takes linear time
_TERM_RE = re.compile(rf"\s*((?:[+-]\s*)*)((?:{_FACTOR})(?:\s*(?:\*\s*)?(?:{_FACTOR}))*)\s*")


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # only a run of more digits than the interpreter converts
        raise SpecParseError(f"number {digits[:12]}... of {len(digits)} digits "
                             "is too long to read") from None


def _parse_polynomial(ctx: VariableContext, text: str) -> Polynomial:
    """Read the text format: terms of factors a, a/b, name or name^e, '*' optional.

    Every term after the first starts with a sign, and the parity of its '-'
    signs gives the term's sign.
    """
    acc, pos = {}, 0
    while True:
        term = _TERM_RE.match(text, pos)
        if term is None or pos and not term.group(1):
            raise SpecParseError(f"bad polynomial syntax near {text[pos:].strip()[:20]!r}")
        coeff, exps = (-1) ** term.group(1).count("-"), [0] * ctx.nvars
        for num, den, name, power in _FACTOR_RE.findall(term.group(2)):
            if name:
                idx = ctx._index.get(name)
                if idx is None:
                    raise SpecParseError(f"unknown variable {name!r}")
                exps[idx] += _int(power or "1")
            elif not den:
                coeff *= _int(num)
            elif _int(den):
                coeff *= Fraction(_int(num), _int(den))
            else:
                raise SpecParseError("zero denominator in polynomial text")
        mono = tuple(exps)
        acc[mono] = acc.get(mono, 0) + coeff
        pos = term.end()
        if pos == len(text):
            return Polynomial(ctx, acc)
