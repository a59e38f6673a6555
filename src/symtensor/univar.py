"""Dense univariate polynomial helpers on little-endian coefficient lists.

The zero polynomial is the empty list. Coefficients are ints or Fractions and
every routine is exact; division takes divisors with leading coefficient +-1
only, so it never leaves the coefficients' ring.
"""

from __future__ import annotations


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


def render(p):
    """Readable form like '1 - 3*t^2 + 2*t^3'; zero renders as '0'."""
    p = trim(p)
    if not p:
        return "0"
    parts = []
    for e, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
