"""Schoolbook polynomial arithmetic and mpf recurrences for test oracles.

A polynomial is a plain coefficient sequence, index = power of z, of any
number type (int, Fraction, mpf).  Every list result carries no trailing
zeros, so equal polynomials compare equal as lists.  Nothing here imports
chebsqrt: an oracle built on these functions shares no code with the
kernels it checks (``grid_errors`` takes its evaluator as an argument).
"""

from fractions import Fraction
from itertools import accumulate, zip_longest

import mpmath
from mpmath import mpf, workprec


def strip(a):
    """a as a list without trailing zeros."""
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def add(a, b):
    return strip(x + y for x, y in zip_longest(a, b, fillvalue=0))


def sub(a, b):
    return strip(x - y for x, y in zip_longest(a, b, fillvalue=0))


def scale(c, a):
    """c * a for a scalar c."""
    return strip(c * x for x in a)


def mul(a, b):
    """Schoolbook product: every pair of coefficients, one by one."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return strip(out)


def power(a, n):
    """a**n for n >= 0 by repeated products."""
    out = [1]
    for _ in range(n):
        out = mul(out, a)
    return out


def derivative(a):
    return strip(i * c for i, c in enumerate(a) if i)


def horner(a, x):
    """Value at x; works for Fraction, mpf, mpc or complex x.

    With mpf coefficients and an mpc x this is the float Horner that rounds
    relative to its accumulator at every step, the oracle for the
    fixed-point evaluator of ``chebsqrt.verify``.
    """
    acc = x * 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def taylor(a, b, M):
    """Coefficients c_0..c_M of a/b at 0 as Fractions, b[0] != 0.

    The plain recurrence c_m = (a_m - sum_{j>=1} b_j c_{m-j}) / b_0, one
    Fraction reduction per operation; a and b hold ints or Fractions.
    """
    cs = []
    for m in range(M + 1):
        acc = Fraction(a[m]) if m < len(a) else Fraction(0)
        for j in range(1, min(m, len(b) - 1) + 1):
            acc -= b[j] * cs[m - j]
        cs.append(acc / b[0])
    return cs


def grid_errors(ev, samples, work):
    """abs(ev(z) - w) for every (z, w) in samples, all at ``work`` bits.

    With ev a ``chebsqrt.verify._FloatEvaluator`` this is the mpc path the
    integer grid errors replaced: A(z), B(z), their quotient, the difference
    and its modulus each round once.
    """
    with workprec(work):
        return [abs(ev(z) - w) for z, w in samples]


def mu_bound_worst(n_max, work):
    """The first largest (pi*n*mu_n**2, n), n = 1..n_max, by the mpf recurrence
    mu_n = mu_(n-1) * (2n - 1) / (2n) from mu_0 = 1, every step at ``work`` bits."""
    with workprec(work):
        pi = +mpmath.pi
        mus = accumulate(range(1, n_max + 1), lambda mu, n: mu * (2 * n - 1) / (2 * n),
                         initial=mpf(1))
        return max(((pi * n * mu * mu, n) for n, mu in enumerate(mus) if n),
                   key=lambda sample: sample[0])


def root_series(p, M):
    """Coefficients c_0..c_M of (1 - z)**(1/p) as Fractions, c_m = c_(m-1) * (m - 1 - 1/p) / m."""
    cs = [Fraction(1)]
    for m in range(1, M + 1):
        cs.append(cs[-1] * (m - 1 - Fraction(1, p)) / m)
    return cs


def guo_report(p, scheme, k, M, a, b):
    """The fields of ``GuoReport.to_json_dict`` for the iterate a/b, on Fractions.

    Every coefficient c_0..c_M of a/b comes from ``taylor`` and is compared
    with ``root_series`` as a Fraction: the head is the length of their
    agreement from c_0, and the signs are read from c_1 on, up to the degree
    when b is a constant.
    """
    cs, ref = taylor(a, b, M), root_series(p, M)
    head = 0
    while head <= M and cs[head] == ref[head]:
        head += 1
    is_poly, degree = len(b) == 1, len(a) - 1
    scan = cs[1:min(M, degree) + 1] if is_poly else cs[1:]
    counts = {"negative": sum(c < 0 for c in scan), "zero": sum(c == 0 for c in scan),
              "positive": sum(c > 0 for c in scan)}
    return {
        "p": p, "scheme": scheme, "k": k, "M": M,
        "coeffs_checked": len(scan),
        "head_agreement_length": head,
        "first_sign_violation": next((m for m, c in enumerate(scan, 1) if c >= 0), None),
        "is_polynomial": is_poly,
        "sign_counts": counts,
        "note": (f"polynomial iterate of degree {degree}: zero coefficients beyond the "
                 "degree are structural and excluded from the sign scan") if is_poly else "",
    }
