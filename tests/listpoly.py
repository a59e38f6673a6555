"""Dense univariate polynomials as little-endian coefficient lists, for the tests.

An arithmetic kept apart from the package's (which works in place or on
Kronecker ints), so the tests compare two independent constructions.  The zero
polynomial is the empty list.  Coefficients are ints or Fractions and every
routine is exact; division takes divisors with leading coefficient +-1 only, so
it never leaves the coefficients' ring.  ``count_standard_monomials`` is the
brute-force count of monomials outside a monomial ideal, likewise kept apart
from the package's numerator recursion.
"""

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
