"""Chebyshev polynomials of the first and second kind.

Exact coefficients are integer lists from the explicit formulas
(``_cheb_ints``), which build the linear-fraction iterates
(``iterates.v_iterate``); the zeros of the second-kind polynomials, which
give the pole parameters of the partial fractions, are produced directly
from their angle form cos(k*pi/(n+1)) rather than by numeric root-finding.
"""

from __future__ import annotations

import enum

import mpmath
from mpmath import mpf, workprec

from .errors import BadIndex

DEFAULT_PREC = 256

# Extra working bits so that results are honest to the requested precision.
GUARD_BITS = 32


class ChebKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


def _cheb_ints(kind: ChebKind, n: int) -> list[int]:
    """Integer coefficients of the degree-n Chebyshev polynomial, index = power of x.

    Only the x**(n-2j) coefficients, j = 0..n//2, are nonzero.  For U_n it
    is (-1)**j C(n-j, j) 2**(n-2j), and for T_n (n >= 1; T_0 = 1) it is
    (n/2) (-1)**j (n-j-1)! / (j! (n-2j)!) 2**(n-2j), the U-form term times
    n / (2(n-j)).  Both run as a term-ratio recurrence from the leads 2**n
    and 2**(n-1): the ratio of consecutive terms is
    -(n-2j)(n-2j-1) / (4(j+1)(n-j)) for U and the same with n-j-1 in
    place of n-j for T.  Every term is an integer, so each division is exact.
    """
    first = kind is ChebKind.FIRST and n > 0
    coeffs = [0] * (n + 1)
    c = coeffs[n] = 2 ** (n - first)
    for j in range(n // 2):
        c = -c * (n - 2 * j) * (n - 2 * j - 1) // (4 * (j + 1) * (n - j - first))
        coeffs[n - 2 * j - 2] = c
    return coeffs


def u_zero_nodes(n: int, prec: int = DEFAULT_PREC) -> list:
    """The n simple zeros cos(k*pi/(n+1)), k = 1..n, of U_n.

    Returned in decreasing order.  Only k <= n//2 is evaluated; the zeros
    are symmetric about 0, so node n+1-k is the exact negative of node k,
    and for odd n the middle node is exactly 0.  The values carry guard bits
    beyond the requested precision: the polynomials are steep at their
    outermost zeros (|U_n'| grows like (n+1)^3), so handing back
    exactly-prec roundings would cost visibly more than an ulp when the
    nodes are used as roots.
    """
    if n < 1:
        raise BadIndex("U_0 has no zeros; need n >= 1")
    # the negation too runs at prec + GUARD_BITS: outside, -c rounds to the caller's precision
    with workprec(prec + GUARD_BITS):
        upper = [mpmath.cospi(mpf(k) / (n + 1)) for k in range(1, n // 2 + 1)]
        return upper + [mpf(0)] * (n % 2) + [-c for c in reversed(upper)]

