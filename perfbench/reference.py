"""Independent reference maths for the golden checks.

Nothing here imports symtensor: these are the second opinions the benchmark
holds the program's outputs against.  Monomials are sparse tuples of
(variable, exponent) pairs, unlike the program's dense exponent tuples, and the
Hilbert numerator uses the generator-removal recursion
N(J + <m>) = N(J) - t^deg(m) N(J : m), not the program's pivot recursion.
"""

from __future__ import annotations

import hashlib
from math import comb

# -- monomial ideals ----------------------------------------------------------


def sparse(dense):
    return tuple((v, e) for v, e in enumerate(dense) if e)


def divides(a, b):
    bd = dict(b)
    return all(bd.get(v, 0) >= e for v, e in a)


def _degree(m):
    return sum(e for _, e in m)


def minimal(gens):
    kept = []
    for m in sorted(set(gens), key=lambda m: (_degree(m), m)):
        if not any(divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


def _quotient(g, m):
    md = dict(m)
    return tuple((v, e - md.get(v, 0)) for v, e in g if e > md.get(v, 0))


def _components(gens):
    """Split generators into groups whose supports share no variable."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        vs = [v for v, _ in g]
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            a, b = find(vs[0]), find(v)
            if a != b:
                parent[a] = b
    groups = {}
    for g in gens:
        groups.setdefault(find(g[0][0]), []).append(g)
    return [tuple(grp) for grp in groups.values()]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _numerator(gens, memo):
    hit = memo.get(gens)
    if hit is not None:
        return hit
    if not gens:
        res = [1]
    elif any(not g for g in gens):
        res = [0]
    else:
        comps = _components(gens)
        if len(comps) > 1:
            res = [1]
            for c in comps:
                res = _poly_mul(res, _numerator(c, memo))
        elif len(gens) == 1:
            res = [1] + [0] * (_degree(gens[0]) - 1) + [-1]
        else:
            m, rest = gens[-1], gens[:-1]
            res = list(_numerator(rest, memo))
            colon = _numerator(minimal(_quotient(g, m) for g in rest), memo)
            shift = _degree(m)
            res += [0] * max(0, len(colon) + shift - len(res))
            for i, c in enumerate(colon):
                res[i + shift] -= c
    res = _trim(res)
    memo[gens] = res
    return res


def monomial_numerator(sparse_gens):
    """Numerator of S/I over (1-t)^nvars for a monomial ideal I."""
    return _numerator(minimal(sparse_gens), {})


def strip_one_minus_t(num, den_count):
    """Cancel (1-t) factors while the numerator vanishes at t = 1."""
    num = _trim(num)
    while den_count and len(num) > 1 and sum(num) == 0:
        # N = (1 - t) Q with Q's coefficients the prefix sums of N
        quotient, acc = [], 0
        for c in num[:-1]:
            acc += c
            quotient.append(acc)
        num = _trim(quotient)
        den_count -= 1
    return num, den_count


# -- series -----------------------------------------------------------------------


def expand(numerator, den_weights, max_degree):
    """Coefficients of N(t) / prod(1 - t^w) through max_degree."""
    coeffs = [0] * (max_degree + 1)
    for i, c in enumerate(numerator[: max_degree + 1]):
        coeffs[i] = c
    for w in den_weights:
        for i in range(w, max_degree + 1):
            coeffs[i] += coeffs[i - w]
    return coeffs


def projective_space_dims(n, max_degree):
    """Closed form for P^n: C(n+p,n)^2 - C(n+p-1,n)^2 in degree p."""
    return [comb(n + p, n) ** 2 - (comb(n + p - 1, n) ** 2 if p else 0)
            for p in range(max_degree + 1)]


def hypersurface_dims(d1, d2, d3, e, max_degree):
    """Graded dimensions of (1 - t^e) / ((1 - t^d1)(1 - t^d2)(1 - t^d3))."""
    return expand([1] + [0] * (e - 1) + [-1], (d1, d2, d3), max_degree)


def basis_digest(lines):
    """SHA-256 of rendered basis elements, one per line."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
