"""Ground truth for the benchmark's ops, derived from the mathematics.

Nothing here reads output of the program under test to decide what is
right: jets of exp(z1+...+zn) have coefficients 1/I!, polynomial jets are
the polynomial, products and slices of Gaussian-integer series are
computed in exact integer arithmetic, and capacities have closed forms.
"""

from __future__ import annotations

import math


def parse_series_text(text: str):
    """Parse the series text format into (n, N, {(I, J): complex})."""
    n = N = None
    terms = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            fields = dict(part.split("=") for part in line.split())
            n, N = int(fields["n"]), int(fields["N"])
            continue
        left, right, coeff = (p.strip() for p in line.split("|"))
        re_s, im_s = coeff.split()
        key = (tuple(int(t) for t in left.split()),
               tuple(int(t) for t in right.split()))
        terms[key] = complex(float(re_s), float(im_s))
    return n, N, terms


def multi_indices(n: int, total_max: int):
    """All I in N^n with |I| <= total_max."""
    if n == 1:
        return [(k,) for k in range(total_max + 1)]
    return [(k,) + rest for k in range(total_max + 1)
            for rest in multi_indices(n - 1, total_max - k)]


def exp_sum_jet(n: int, order: int) -> dict:
    """Taylor coefficients of exp(z1 + ... + zn): 1/(i1! ... in!)."""
    zero = (0,) * n
    return {(I, zero): 1.0 / math.prod(math.factorial(i) for i in I)
            for I in multi_indices(n, order)}


def coeff_error(reported: dict, expected: dict) -> float:
    """Largest coefficient error over the union of both term sets."""
    keys = set(reported) | set(expected)
    return max((abs(reported.get(k, 0j) - expected.get(k, 0j)) for k in keys),
               default=0.0)


# -- exact Gaussian-integer series ---------------------------------------------

def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gpow(a, k: int):
    out = (1, 0)
    for _ in range(k):
        out = gmul(out, a)
    return out


def exact_product(a: dict, b: dict, max_order: int) -> dict:
    """Truncated Cauchy product of {(I, J): (re, im)} integer series."""
    out = {}
    for (I1, J1), c1 in a.items():
        d1 = sum(I1) + sum(J1)
        for (I2, J2), c2 in b.items():
            if d1 + sum(I2) + sum(J2) > max_order:
                continue
            key = (tuple(x + y for x, y in zip(I1, I2)),
                   tuple(x + y for x, y in zip(J1, J2)))
            re, im = gmul(c1, c2)
            acc = out.get(key, (0, 0))
            out[key] = (acc[0] + re, acc[1] + im)
    return {k: c for k, c in out.items() if c != (0, 0)}


def exact_slice(series: dict, a) -> dict:
    """Coefficients {(p, q): (re, im)} of t^p tbar^q of S(t a), a Gaussian."""
    abar = [(re, -im) for re, im in a]
    out = {}
    for (I, J), c in series.items():
        w = c
        for k in range(len(a)):
            w = gmul(w, gpow(a[k], I[k]))
            w = gmul(w, gpow(abar[k], J[k]))
        key = (sum(I), sum(J))
        acc = out.get(key, (0, 0))
        out[key] = (acc[0] + w[0], acc[1] + w[1])
    return {k: c for k, c in out.items() if c != (0, 0)}


def as_complex(series: dict) -> dict:
    return {k: complex(re, im) for k, (re, im) in series.items()}
