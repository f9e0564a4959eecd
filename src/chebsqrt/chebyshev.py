"""Chebyshev polynomials of the first and second kind.

Exact coefficients come from the three-term recurrence; the zeros of the
second-kind polynomials, which give the pole parameters of the partial
fractions, are produced directly from their angle form cos(k*pi/(n+1))
rather than by numeric root-finding.
"""

from __future__ import annotations

import enum

import mpmath
from mpmath import mpf, workprec

from .errors import BadIndex
from .exact import Polynomial

DEFAULT_PREC = 256

# Extra working bits so that results are honest to the requested precision.
GUARD_BITS = 32


class ChebKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def cheb_poly(kind: ChebKind, n: int) -> Polynomial:
    """Exact coefficients of the degree-n Chebyshev polynomial.

    Recurrence p_{k+1} = 2x p_k - p_{k-1} from p_0 = 1 and p_1 = x (first
    kind) or p_1 = 2x (second kind).
    """
    if n < 0:
        raise BadIndex("polynomial degree must be >= 0")
    prev = Polynomial((1,))
    if n == 0:
        return prev
    cur = Polynomial((0, 1)) if kind is ChebKind.FIRST else Polynomial((0, 2))
    two_x = Polynomial((0, 2))
    for _ in range(n - 1):
        prev, cur = cur, two_x * cur - prev
    return cur


def u_zero_nodes(n: int, prec: int = DEFAULT_PREC) -> list:
    """The n simple zeros cos(k*pi/(n+1)), k = 1..n, of U_n.

    Returned in decreasing order.  The values carry guard bits beyond the
    requested precision: the polynomials are steep at their outermost zeros
    (|U_n'| grows like (n+1)^3), so handing back exactly-prec roundings
    would cost visibly more than an ulp when the nodes are used as roots.
    """
    if n < 1:
        raise BadIndex("U_0 has no zeros; need n >= 1")
    with workprec(prec + GUARD_BITS):
        return [mpmath.cospi(mpf(k) / (n + 1)) for k in range(1, n + 1)]

