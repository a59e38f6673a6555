"""Sparse multivariate polynomials over exact rationals.

Monomials are exponent tuples tied to an ordered :class:`VariableContext`;
polynomials keep their terms sorted descending under :func:`degrevlex_key` so
equal values have identical representations, and their leading term is the
first.  Arithmetic and ``==`` are between polynomials of one context; a
scalar enters only through ``ctx.constant(c)`` or ``scale(c)``.
``render(lex=True)`` lists the terms in lex order for display.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, le

from .errors import LimitExceeded, SpecParseError
from .exactnum import exact

# -- monomial helpers (exponent tuples) -------------------------------------


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when a divides b."""
    return all(map(le, a, b))


def degrevlex_key(m):
    """Degrevlex sort key: bigger key means bigger monomial."""
    return (sum(m), tuple([-e for e in reversed(m)]))


# -- packed monomials -----------------------------------------------------------


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
        size = next((size for size in (1, 2, 4, 8) if bound < 1 << (8 * size - 1)), None)
        if size is None:
            raise LimitExceeded(f"degree {bound} does not fit a 63-bit exponent field")
        code = {1: "B", 2: "H", 4: "I", 8: "Q"}[size]
        self.fields = struct.Struct(f"<{nvars}{code}")
        self.width = 8 * size
        self.value_bits = self.width - 1
        self.cap = (1 << self.value_bits) - 1
        self.total = self.width * nvars
        self.low = (1 << self.total) - 1
        self.ones = self.pack_exps((1,) * nvars)
        self.guards = self.ones << self.value_bits
        self.top = self.width * max(nvars - 1, 0)

    def pack_exps(self, m) -> int:
        """E of an exponent tuple whose entries are at most ``cap``.

        A tuple the fields cannot hold, with an entry that is negative or not
        an int or with the wrong length, raises ValueError.
        """
        try:
            return int.from_bytes(self.fields.pack(*m), "little")
        except struct.error:
            raise ValueError(f"monomial {tuple(m)!r} is not a tuple of ints "
                             f"in 0..{self.cap}") from None

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


# -- contexts and polynomials ------------------------------------------------


@dataclass(frozen=True)
class VariableContext:
    """Ordered, named variables; every polynomial pins its context."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        for name in self.names:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", name):
                raise ValueError(f"bad variable name {name!r}")

    @cached_property
    def _index(self):
        return {name: i for i, name in enumerate(self.names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def constant(self, c) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): 1})

    def poly(self, mapping) -> "Polynomial":
        """The polynomial of {monomial: scalar}; an exponent not an int >= 0 raises ValueError."""
        mapping = dict(mapping)
        for mono in mapping:
            if not all(type(e) is int and e >= 0 for e in mono):
                raise ValueError(f"monomial {tuple(mono)!r} has an exponent that is not an int >= 0")
        return Polynomial(self, mapping)

    def parse(self, text: str) -> "Polynomial":
        return _parse_polynomial(self, text)


class Polynomial:
    """Immutable sparse polynomial; each coefficient is an exact scalar (see ``exact``).

    Exponents go unchecked here, which keeps the engine's conversions cheap;
    ``ctx.poly`` and ``ctx.parse`` are the checked entry points."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: VariableContext, mapping):
        cleaned = {}
        for mono, coeff in dict(mapping).items():
            coeff = exact(coeff)
            if not coeff:
                continue
            if len(mono) != ctx.nvars:
                raise ValueError("monomial length does not match context")
            cleaned[tuple(mono)] = coeff
        # ascending (-degree, reversed exponents) is descending degrevlex_key for
        # distinct monomials, with no list built per term
        terms = tuple(sorted(cleaned.items(), key=lambda t: (-sum(t[0]), t[0][::-1])))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximal total degree, -1 for the zero polynomial."""
        # terms are sorted by degrevlex, which compares total degree first
        return sum(self.terms[0][0]) if self.terms else -1

    def leading_term(self):
        """(coefficient, monomial) of the maximal term under degrevlex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m, c = self.terms[0]
        return c, m

    def leading_monomial(self):
        return self.leading_term()[1]

    def is_homogeneous(self) -> bool:
        """Whether all terms share one total degree; the zero polynomial counts."""
        return len({sum(m) for m, _ in self.terms}) <= 1

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
        acc = dict(self.terms)
        for m, c in o.terms:
            acc[m] = acc.get(m, 0) + c
        return Polynomial(self.ctx, acc)

    def __neg__(self):
        return Polynomial(self.ctx, {m: -c for m, c in self.terms})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in o.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(self.ctx, acc)

    def scale(self, c) -> "Polynomial":
        c = exact(c)
        return Polynomial(self.ctx, {m: cc * c for m, cc in self.terms})

    def monic(self) -> "Polynomial":
        lc, _ = self.leading_term()
        return self.scale(Fraction(1) / lc)

    # -- comparison / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, self.terms))

    def render(self, lex: bool = False) -> str:
        """Text form: terms joined by +/-, '^' powers, '*' between factors.

        Terms come in degrevlex order, or in lex order when ``lex`` is set:
        distinct exponent tuples compare lexicographically, earlier names first.
        """
        if not self.terms:
            return "0"
        terms = sorted(self.terms, reverse=True) if lex else self.terms
        parts = []
        for mono, coeff in terms:
            factors = []
            for name, e in zip(self.ctx.names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<poly {self.render()}>"


# -- text parsing -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[\^*/+-]))")


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise SpecParseError(f"bad polynomial syntax near {rest[:20]!r}")
        if m.group("num") is not None:
            tokens.append(("num", int(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def _parse_polynomial(ctx: VariableContext, text: str) -> Polynomial:
    """Parse the term syntax: '*' optional, coefficients integer or a/b."""
    tokens = _tokenize(text)
    if not tokens:
        raise SpecParseError("empty polynomial text")
    acc: dict = {}
    i = 0
    n = len(tokens)

    def term_done(coeff, exps):
        mono = tuple(exps)
        acc[mono] = acc.get(mono, 0) + coeff

    while i < n:
        sign = 1
        while i < n and tokens[i] == ("op", "+") or i < n and tokens[i] == ("op", "-"):
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise SpecParseError("dangling sign in polynomial text")
        coeff = sign
        exps = [0] * ctx.nvars
        saw_factor = False
        while i < n:
            kind, value = tokens[i]
            if kind == "num":
                numerator = value
                i += 1
                if i < n and tokens[i] == ("op", "/"):
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        raise SpecParseError("expected denominator after '/'")
                    if not tokens[i][1]:
                        raise SpecParseError("zero denominator in polynomial text")
                    coeff *= Fraction(numerator, tokens[i][1])
                    i += 1
                else:
                    coeff *= numerator
                saw_factor = True
            elif kind == "name":
                idx = ctx._index.get(value)
                if idx is None:
                    raise SpecParseError(f"unknown variable {value!r}")
                power = 1
                i += 1
                if i < n and tokens[i] == ("op", "^"):
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        raise SpecParseError("expected integer exponent after '^'")
                    power = tokens[i][1]
                    i += 1
                exps[idx] += power
                saw_factor = True
            else:
                break
            if i < n and tokens[i] == ("op", "*"):
                i += 1
                if i >= n or tokens[i][0] == "op" and tokens[i][1] in "+-*/^":
                    raise SpecParseError("dangling '*' in polynomial text")
        if not saw_factor:
            raise SpecParseError("empty term in polynomial text")
        term_done(coeff, exps)
        if i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            continue
        if i < n:
            raise SpecParseError(f"unexpected token {tokens[i][1]!r}")
    return Polynomial(ctx, acc)
