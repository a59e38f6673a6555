"""Reference arithmetic for the tests, kept apart from the package's.

Dense univariate polynomials are little-endian coefficient lists, an arithmetic
kept apart from the package's (which works in place or on Kronecker ints), so
the tests compare two independent constructions.  The zero polynomial is the
empty list.  Coefficients are ints or Fractions and every routine is exact;
division takes divisors with leading coefficient +-1 only, so it never leaves
the coefficients' ring.  ``count_standard_monomials`` is the brute-force count
of monomials outside a monomial ideal, likewise kept apart from the package's
numerator recursion.

Sparse multivariate polynomials are dicts {exponent tuple: nonzero scalar},
the representation the package's packed keys replaced, with ``degrevlex_key``
as the order oracle; ``compare_packed`` runs seeded cases of ``Polynomial``
arithmetic against them.  ``minimalize_monomials`` is the tuple minimalisation
that ``MonomialIdeal.from_generators`` replaced with one on packed ints.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement


def trim(p):
    """Drop trailing zeros so representations are canonical."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def mul(p, q):
    p, q = trim(p), trim(q)
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trim(out)


def one_minus_power(w):
    """1 - t**w."""
    return [1] + [0] * (w - 1) + [-1]


def divmod_exact(num, den):
    """Long division by a divisor with leading coefficient +-1: returns (quotient, remainder).

    That coefficient is its own inverse, so each step multiplies by it.
    """
    num, den = trim(num), trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    inv = den[-1]
    if inv not in (1, -1):
        raise ValueError(f"divisor's leading coefficient {inv} is not +-1")
    r = num
    dd = len(den) - 1
    if len(r) <= dd:
        return [], r
    q = [0] * (len(r) - dd)
    for k in range(len(r) - dd - 1, -1, -1):
        top = r[k + dd]
        if top == 0:
            continue
        c = q[k] = top * inv
        for i, dc in enumerate(den):
            r[k + i] -= c * dc
    return trim(q), trim(r)


@lru_cache(maxsize=None)
def cyclotomic_by_division(m):
    """Phi_m as a tuple: x**m - 1 divided by the product of Phi_d over the divisors d < m."""
    if m == 1:
        return (-1, 1)
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = mul(den, list(cyclotomic_by_division(d)))
    q, r = divmod_exact([-1] + [0] * (m - 1) + [1], den)
    assert not r, f"cyclotomic division left a remainder for m={m}"
    return tuple(q)


def count_standard_monomials(ideal, degree):
    """Degree-d monomials outside a MonomialIdeal, counted one by one (few variables only)."""
    count = 0
    for picks in combinations_with_replacement(range(ideal.nvars), degree):
        m = [picks.count(v) for v in range(ideal.nvars)]
        count += not any(all(a <= b for a, b in zip(g, m)) for g in ideal.gens)
    return count


# -- sparse multivariate polynomials as dicts of exponent tuples ------------------


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def minimalize_monomials(gens):
    """Minimal generating set, sorted: drop duplicates and multiples of other generators.

    A divisor of m is at most m in every exponent, so it sorts before m.
    """
    kept = []
    for m in sorted(set(gens)):
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


def degrevlex_key(m):
    """Degrevlex sort key: bigger key means bigger monomial."""
    return (sum(m), tuple([-e for e in reversed(m)]))


def dict_terms(d):
    """The (monomial, coefficient) pairs of a dict polynomial, leading term first."""
    return tuple(sorted(((m, c) for m, c in d.items() if c),
                        key=lambda t: degrevlex_key(t[0]), reverse=True))


def dict_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def dict_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def dict_s_polynomial(f, g):
    """(lcm / lt_f) * f / lc_f - (lcm / lt_g) * g / lc_g for nonzero f and g."""
    (ltf, lcf), (ltg, lcg) = dict_terms(f)[0], dict_terms(g)[0]
    lcm = tuple(map(max, ltf, ltg))
    out = {}
    for p, lt, scale in ((f, ltf, Fraction(1, 1) / lcf), (g, ltg, Fraction(-1, 1) / lcg)):
        shift = tuple(x - y for x, y in zip(lcm, lt))
        for m, c in p.items():
            m = mono_mul(m, shift)
            out[m] = out.get(m, 0) + c * scale
    return {m: c for m, c in out.items() if c}


def random_dict_polynomial(rng, nvars, top):
    """Up to six terms of total degree at most top, scalars ints or Fractions."""
    d = {}
    for _ in range(rng.randint(0, 6)):
        m = [0] * nvars
        for _ in range(rng.randint(0, 3)):
            m[rng.randrange(nvars)] += rng.randint(0, top // 3)
        d[tuple(m)] = rng.choice((1, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 7)))
    return {m: c for m, c in d.items() if c}


# total degrees within 8-bit fields, past them (16-bit) and past 16-bit (32-bit)
TOPS = (6, 120, 300, 40_000)


def compare_packed(seed, cases):
    """Run seeded cases of +, -, *, scale and s_polynomial against the dict oracle.

    Returns the descriptions of the cases that differ.  Each case draws two
    polynomials of 1-5 variables, each with degree up to a size from TOPS, so
    operands and results cross the 8-, 16- and 32-bit layouts; a result's
    terms must equal the oracle's in degrevlex order, and the result must sit
    in the narrowest layout that holds its degree.
    """
    from symtensor.groebner import s_polynomial
    from symtensor.poly import VariableContext, layout

    rng = random.Random(seed)
    contexts = [VariableContext(tuple(f"x{i}" for i in range(n))) for n in range(1, 6)]
    differ = []
    for case in range(cases):
        ctx = rng.choice(contexts)
        a = random_dict_polynomial(rng, ctx.nvars, rng.choice(TOPS))
        b = random_dict_polynomial(rng, ctx.nvars, rng.choice(TOPS))
        c = rng.choice((2, -1, Fraction(3, 4), Fraction(-5, 3)))
        p, q = ctx.poly(a), ctx.poly(b)
        checks = [("a", p, a), ("a + b", p + q, dict_add(a, b)),
                  ("a - b", p - q, dict_add(a, b, -1)), ("a * b", p * q, dict_mul(a, b)),
                  ("c a", p.scale(c), {m: v * c for m, v in a.items()}),
                  ("-a", -p, {m: -v for m, v in a.items()}), ("(a + b) - a", (p + q) - p, b)]
        if a and b:
            checks.append(("S(a, b)", s_polynomial(p, q), dict_s_polynomial(a, b)))
        for name, got, want in checks:
            narrowest = layout(ctx.nvars, max(got.degree(), 0))
            if got.terms != dict_terms(want) or got.pk is not narrowest:
                differ.append(f"case {case}: {name} for a = {a}, b = {b}, c = {c}")
    return differ
