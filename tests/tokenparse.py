"""The token-by-token polynomial parser, kept for the tests as an oracle.

A tokenizer and an index-walking parser over the same text format as
``VariableContext.parse``, written apart from it, so the tests can compare two
independent readings of one string: both accept it with equal polynomials, or
both refuse it with SpecParseError.
"""

import re
from fractions import Fraction

from symtensor.errors import SpecParseError
from symtensor.poly import Polynomial, VariableContext


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


def parse_polynomial(ctx: VariableContext, text: str) -> Polynomial:
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


# -- random texts ----------------------------------------------------------------

NAMES = ("x", "y", "x1", "y_2")
_PIECES = {
    "name": NAMES + ("z", "xy", "x_", "X"),
    "number": ("0", "1", "2", "12", "007", "3", "\u0663"),
    "op": ("+", "-", "*", "/", "^"),
    "space": (" ", "  ", "\t", "\n", "\u00a0"),
    "junk": ("_", "!", ".", "(", ")", "=", "1.5", "é", "**", "//"),
}


def _random_term(rng):
    """A term of a coefficient a or a/b and names with powers, spaced and starred at random.

    Some are refused: a denominator can be 0, and gluing two factors with no
    separator can merge them into one number or one unknown name.
    """
    factors = []
    if rng.random() < 0.6:
        factors.append(str(rng.randint(0, 30)))
        if rng.random() < 0.3:
            factors[-1] += rng.choice(("/", " / ")) + str(rng.randint(0, 9))
    for _ in range(rng.randint(0 if factors else 1, 3)):
        factors.append(rng.choice(NAMES))
        if rng.random() < 0.4:
            factors[-1] += rng.choice(("^", " ^ ", "^ ")) + str(rng.randint(0, 5))
    return "".join(factor if not i else rng.choice(("*", " * ", " ", "* ", "")) + factor
                   for i, factor in enumerate(factors))


def random_text(rng) -> str:
    """A seeded random string over the pieces of the text format, valid or not.

    About half start from a sum of terms, then take up to two random edits
    (insert, delete or replace one piece); the rest are pieces drawn at random.
    """
    if rng.random() < 0.5:
        pieces = [rng.choice(("", "-", "+", "- ", "--"))]
        for i in range(rng.randint(1, 4)):
            if i:
                pieces.append(rng.choice((" + ", " - ", "+", "-", " -- ", " + - ")))
            pieces.append(_random_term(rng))
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            piece = rng.choice(_PIECES[rng.choice(tuple(_PIECES))])
            edit = rng.random()
            if edit < 0.4:
                pieces.insert(rng.randrange(len(pieces) + 1), piece)
            elif edit < 0.7:
                del pieces[rng.randrange(len(pieces))]
            else:
                pieces[rng.randrange(len(pieces))] = piece
        return "".join(pieces)
    return "".join(rng.choice(_PIECES[rng.choice(tuple(_PIECES))])
                   for _ in range(rng.randint(0, 10)))


def _reading(parse, text):
    try:
        return parse(text)
    except SpecParseError:
        return None


def compare(ctx, texts):
    """(accepted, differ): how many texts both parsers accept alike, and the texts read apart.

    Two readings agree when both give equal polynomials or both raise
    SpecParseError; any other exception propagates.
    """
    accepted, differ = 0, []
    for text in texts:
        got = _reading(ctx.parse, text)
        if got != _reading(lambda t: parse_polynomial(ctx, t), text):
            differ.append(text)
        elif got is not None:
            accepted += 1
    return accepted, differ
