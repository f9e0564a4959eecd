"""Exact arithmetic: dense rational-coefficient polynomials and rational functions.

Scalars are `fractions.Fraction` throughout, so nothing in this module ever
rounds.  The costly kernels work on integers internally: ``_convolve`` is
the integer product that the Newton and Halley steps of ``iterates`` share;
the gcd is the primitive remainder sequence on integer forms; the
Taylor recurrence (``_taylor_scaled``) keeps each coefficient as an integer
numerator over one common denominator, the lcm of the denominators so far,
with one gcd per term, taken against the small constant B(0); and
evaluation at a rational or complex rational point runs Horner on Gaussian
integers against powers of the point's common denominator, reducing only
the final real and imaginary parts.  They convert back to `Fraction`
exactly and never round either.  Floating point lives in the
closed-form and verification layers.

``_convolve`` is a Kronecker product: each coefficient list is packed into
one integer, its values c_k in nb-byte two's-complement slots, the two
integers are multiplied once, and the product is read back slot by slot.
A slot of w >= bits(max|a|) + bits(max|b|) + bitlen(min(len a, len b)) + 1
bits holds every product coefficient d_k with |d_k| < 2**(w-1); biasing each
slot by 2**(w-1) makes it nonnegative and below 2**w, so no borrow crosses a
slot and the unpacking is exact.

A ``RationalFunction`` stores only its canonical integer pair, which every
computation reads as it is: the steps, Taylor, exact and float evaluation
and pickle.  ``num`` and ``den`` are monic views for printing and the
public API.  ``_store`` is the pair's only writer.  The iterates divide
out the one factor their lemma names and call the trusted
``_from_coprime``, as does unpickling; only the general constructor cancels
on integer lists (``_cancel``: the primitive gcd ``_int_gcd``, then integer
exact division by ``_exact_quotient``).  The joint content is not a gcd of
every coefficient either: each caller names a number that every prime of
the content divides (1 where its lemma proves the content 1), and
``_store`` scans only against that number, so a content of 1 costs at most
a few small gcds and divides no coefficient.  Copy and pickle name 1, as
the stored pair is canonical.  The general constructor and older
two-argument pickles name 0, which every prime divides, and get the full gcd.
Neither class carries arithmetic operators: a ``Polynomial`` is only the
view that printing, JSON and ``==`` read.

Wire format: a rational scalar serializes as ``"p/q"`` in base 10 (``"p"``
when the denominator is 1, which is what ``str(Fraction)`` produces); a
polynomial serializes as a JSON array of such strings, index = power of z.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence, Union

from .errors import (
    BadIndex,
    BadRootOrder,
    NotAnalyticAtZero,
    PoleAtPoint,
    ZeroDenominator,
)

RationalLike = Union[Fraction, int, str]


def as_fraction(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Polynomial:
    """Dense univariate polynomial; ``coeffs[i]`` multiplies ``z**i``.

    A read-only view with no arithmetic.  The zero polynomial stores no
    coefficients; otherwise the last stored coefficient is nonzero, so two
    equal polynomials are structurally equal.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not through __setattr__
        return (Polynomial, (self.coeffs,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> Fraction:
        """Coefficient of z**i (zero beyond the stored degree)."""
        if i < 0:
            raise BadIndex(f"coefficient index {i} is negative")
        return self.coeffs[i] if i < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                term = str(mag)
            else:
                var = "z" if i == 1 else f"z^{i}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + term)
        return " ".join(parts)


def _coerce_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    return NotImplemented


ONE = Polynomial((1,))


def _integer_form(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """Common denominator d and integer numerators of d * coeffs."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _pack(ints: Sequence[int], nb: int, bias: int) -> int:
    """The integer sum_k ints[k] * 2**(w*k), w = 8*nb, for |ints[k]| < 2**(w-1).

    Each coefficient fills its nb-byte slot in two's complement.  ``bias``
    has the top bit of at least len(ints) slots set; flipping those bits
    turns every slot into c + 2**(w-1), which lies in [0, 2**w), so the
    flipped integer is exactly the wanted sum plus ``bias``.
    """
    u = int.from_bytes(b"".join([c.to_bytes(nb, "little", signed=True) for c in ints]), "little")
    return (u ^ bias) - bias


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Coefficient list of the product of two integer coefficient lists.

    The Kronecker product: a and b are packed into the integers a(2**w) and
    b(2**w), with slots of w = 8*nb bits, and multiplied once, so CPython's
    Karatsuba does the work (a squaring when ``b is a``).  The product
    (ab)(2**w) is unpacked slot by slot into len(a) + len(b) - 1
    coefficients, zero slots at either end kept, also for an empty operand.

    The slot bound: each d_k = sum_i a_i b_(k-i) has at most
    m = min(len a, len b) terms, so
    |d_k| <= m max|a| max|b| < 2**(bits(a) + bits(b) + bitlen(m)) <= 2**(w-1).
    The unpacking is exact: adding ``bias`` (2**(w-1) in every slot) puts
    each slot at d_k + 2**(w-1) in [0, 2**w), so no borrow or carry crosses
    a slot boundary.  The bytes of the sum hold the biased slots as they
    are, and flipping each slot's top bit back leaves d_k in two's complement.
    """
    n = len(a) + len(b) - 1
    if not (a and b):
        return [0] * n
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(len(a), len(b)).bit_length() + 1)
    nb = (bits + 7) // 8
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")
    x = _pack(a, nb, bias)
    y = x if b is a else _pack(b, nb, bias)
    buf = ((x * y + bias) ^ bias).to_bytes(nb * n, "little")
    return [int.from_bytes(buf[i : i + nb], "little", signed=True) for i in range(0, nb * n, nb)]


def _times_one_minus_z(a: Sequence[int]) -> list[int]:
    """Coefficient list of (1 - z) * a."""
    return [c - d for c, d in zip([*a, 0], [0, *a])]


def _exact_quotient(a: list[int], g: list[int]) -> list[int]:
    """Coefficient list of a / g for a primitive g that divides a over Q.

    By Gauss's lemma g then divides a in Z[z], so each step of the long
    division divides exactly by the lead of g and stays on integers.
    """
    dg, lead = len(g) - 1, g[-1]
    r = list(a)
    q = [0] * (len(a) - dg)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + dg] // lead
        if c:
            for i, gc in enumerate(g):
                r[k + i] -= c * gc
    return q


def _stripped(ints: Sequence[int]) -> list[int]:
    """The coefficient list without trailing zeros."""
    out = list(ints)
    while out and not out[-1]:
        out.pop()
    return out


def _primitive(ints: list[int]) -> list[int]:
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return [v // g for v in ints] if g > 1 else ints


def _pseudo_rem(u: list[int], v: list[int]) -> list[int]:
    dv = len(v) - 1
    lv = v[-1]
    r = list(u)
    while r and len(r) - 1 >= dv:
        lr = r[-1]
        k = len(r) - 1 - dv
        r = [lv * c for c in r]
        for i, vc in enumerate(v):
            r[k + i] -= lr * vc
        while r and r[-1] == 0:
            r.pop()
    return r


def _int_gcd(u: Sequence[int], v: Sequence[int]) -> list[int]:
    """Primitive gcd of two integer coefficient lists ([] when both are zero) by the
    primitive remainder sequence: content removal at every step keeps the
    coefficients from swelling the way a naive rational Euclid does."""
    u, v = _primitive(_stripped(u)), _primitive(_stripped(v))
    while v:
        u, v = v, _primitive(_pseudo_rem(u, v))
    return u


def _cancel(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Integer lists num/h and den/h for h = gcd(num, den): a coprime pair."""
    h = _int_gcd(num, den)
    return _exact_quotient(num, h), _exact_quotient(den, h)


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd of two polynomials, by ``_int_gcd`` on their integer forms."""
    g = _int_gcd(_integer_form(a.coeffs)[1], _integer_form(b.coeffs)[1])
    return Polynomial(Fraction(c, g[-1]) for c in g)


class RationalFunction:
    """Quotient of two polynomials in canonical form.

    The only state, ``pair``, is the integer coefficient tuples (A, B) with
    f = A/B, coprime over Q, joint content 1, lead of B positive and no
    trailing zeros.  That pair is unique, so ``==`` and ``hash`` compare it.
    """

    __slots__ = ("pair",)

    def __init__(self, num, den=ONE):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("num and den must be Polynomial or rational scalars")
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        da, a = _integer_form(num.coeffs)
        db, b = _integer_form(den.coeffs)
        self._store(*_cancel([c * db for c in a], [c * da for c in b]))

    @classmethod
    def _from_coprime(cls, num: Sequence[int], den: Sequence[int],
                      primes_of: int = 0) -> "RationalFunction":
        """Trusted constructor from integer lists the caller proves coprime over Q.

        No polynomial gcd runs.

        Every prime of the lists' joint content divides ``primes_of``: 1 where
        the caller's lemma proves the content 1, p - 1 for the Newton and
        Halley steps, 1 for copy and pickle of a stored pair, and 0 (which
        every prime divides) where no lemma covers the pair, as for older
        two-argument pickles.
        """
        self = object.__new__(cls)
        self._store(num, den, primes_of)
        return self

    def _store(self, num: Sequence[int], den: Sequence[int], primes_of: int = 0) -> None:
        """Set the pair from integer lists coprime over Q: stripped, primitive, lead of den > 0.

        The joint content g is found by a scan.  Every prime of g divides
        r = ``primes_of``, so a pass replaces r by gcd(r, c) along the
        coefficients and stops at the first c that shares no prime with r:
        then g = 1.  A pass that ends with r > 1 has found a divisor of g
        that every prime of g divides, so the lists are divided by r and the
        next pass starts from r.  r = 1 runs no pass and stores the lists
        undivided; r = 0 makes the first pass the gcd of all coefficients.
        """
        num, den = _stripped(num), _stripped(den)
        if den[-1] < 0:
            num, den = [-c for c in num], [-c for c in den]
        r = primes_of
        while r != 1:
            for c in chain(num, den):
                r = math.gcd(r, c)
                if r == 1:
                    break
            else:
                num, den = [c // r for c in num], [c // r for c in den]
        object.__setattr__(self, "pair", (tuple(num), tuple(den)))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):
        # the stored pair is canonical already, so copy and pickle name no prime of
        # its content (1) and take neither gcd; older two-argument pickles name 0
        return (RationalFunction._from_coprime, (*self.pair, 1))

    @property
    def num(self) -> Polynomial:
        """Numerator over the monic denominator, A / lead(B); built on each access."""
        a, b = self.pair
        return Polynomial(Fraction(c, b[-1]) for c in a)

    @property
    def den(self) -> Polynomial:
        """Monic denominator B / lead(B); built on each access."""
        b = self.pair[1]
        return Polynomial(Fraction(c, b[-1]) for c in b)

    @property
    def is_polynomial(self) -> bool:
        return len(self.pair[1]) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return self.pair == other.pair
        if isinstance(other, (int, Fraction, Polynomial)):
            return self == RationalFunction(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.pair)

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact value at a rational point; raises PoleAtPoint on a pole.

        The im = 0 case of the Gaussian-integer kernel behind
        eval_ratfun_complex: one Fraction reduction per call.
        """
        x = as_fraction(x)
        re_num, _, s = _ratfun_gaussian(self, x.numerator, 0, x.denominator)
        if s == 0:
            raise PoleAtPoint(f"denominator vanishes at {x}")
        return Fraction(re_num, s)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


ONE_RF = RationalFunction._from_coprime([1], [1], 1)


def _taylor_scaled(f: RationalFunction, M: int) -> tuple[list[int], list[int]]:
    """Integers xs, Ds with c_m = xs[m] / Ds[m] the Taylor coefficients c_0..c_M of f.

    Runs the recurrence c_m = (a_m - sum_{j>=1} b_j c_{m-j}) / b_0 on the
    stored pair f = A/B: O(M * deg B) integer products.  The window
    c_{m-d..m-1} (d = deg B) is kept as numerators w over one common
    denominator D, so acc = a_m*D - sum_j b_j*w_{m-j} gives c_m = acc / (D*b_0).
    The one gcd per term, g = gcd(acc, |b_0|), is against the small constant
    b_0: the new numerator is sign(b_0)*acc/g, over D*u with u = |b_0|/g
    coprime to acc/g.  When u > 1, D and the window are multiplied by u.

    Invariant: D_m = lcm(den c_0..c_m), prime by prime -- a prime of u
    divides den c_m to exactly its power in D*u, and every other prime of
    den c_m divides D already.  So one path serves every b_0, with no fixed
    scale to trust.  Ds[m] > 0, and xs[m] / Ds[m] need not be in lowest terms.
    """
    if M < 0:
        raise BadIndex("series cutoff must be >= 0")
    a, b = f.pair
    b0, d = b[0], len(b) - 1
    if b0 == 0:
        raise NotAnalyticAtZero("denominator vanishes at 0")
    r, sign, tail = abs(b0), 1 if b0 > 0 else -1, b[1:]
    D = 1
    window: deque[int] = deque(maxlen=d)  # numerators of c_{m-1}, c_{m-2}, ... over D
    xs: list[int] = []
    Ds: list[int] = []
    for m in range(M + 1):
        acc = (a[m] * D if m < len(a) else 0) - sum(map(operator.mul, tail, window))
        g = math.gcd(acc, r)
        u = r // g
        if u > 1:
            D *= u
            window = deque((w * u for w in window), maxlen=d)
        x = acc // g * sign
        window.appendleft(x)
        xs.append(x)
        Ds.append(D)
    return xs, Ds


def taylor_coefficients(f: RationalFunction, M: int) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients c_0..c_M of f at the origin.

    The Fraction view of ``_taylor_scaled``: c_m = xs[m] / Ds[m], reduced
    once each as it is built.
    """
    return tuple(map(Fraction, *_taylor_scaled(f, M)))


def sqrt_series_coeff(m: int) -> Fraction:
    """Coefficient of z**m in the binomial series of sqrt(1 - z).

    Equals C(2m, m) / ((1 - 2m) * 4**m): exactly 1 at m = 0 and strictly
    negative for every m >= 1.
    """
    if m < 0:
        raise BadIndex("series index must be >= 0")
    return Fraction(math.comb(2 * m, m), (1 - 2 * m) * 4**m)


def central_binomial_ratio(n: int) -> Fraction:
    """C(2n, n) / 4**n, the scale of the sqrt-series tail sums."""
    if n < 0:
        raise BadIndex("index must be >= 0")
    return Fraction(math.comb(2 * n, n), 4**n)


def root_series_coeffs(p: int, M: int) -> list[Fraction]:
    """Coefficients c_0..c_M of (1 - z)**(1/p) for integer p >= 2.

    c_0 = 1 and c_m = c_{m-1} * (m - 1 - 1/p) / m, which is negative for
    every m >= 1.
    """
    if p < 2:
        raise BadRootOrder(f"root order must be >= 2, got {p}")
    if M < 0:
        raise BadIndex("series cutoff must be >= 0")
    cs = [Fraction(1)]
    for m in range(1, M + 1):
        cs.append(cs[-1] * Fraction((m - 1) * p - 1, m * p))
    return cs


def _gaussian_point(re: RationalLike, im: RationalLike) -> tuple[int, int, int]:
    """Integers (x, y, D) with re + im*i = (x + y*i) / D, D the lcm of the denominators."""
    re, im = as_fraction(re), as_fraction(im)
    D = math.lcm(re.denominator, im.denominator)
    return re.numerator * (D // re.denominator), im.numerator * (D // im.denominator), D


def _gaussian_horner(ints: Sequence[int], x: int, y: int, D: int, e: int) -> tuple[int, int]:
    """Integers (ar, ai) with P((x + y*i)/D) = (ar + ai*i) / D**e, e >= deg P.

    P has the integer coefficients ``ints``.  Horner runs on w = x + y*i and
    adds P_j * D**(e - j) at step j, so the accumulator ends as
    sum_j P_j * w**j * D**(e - j).
    """
    ar, ai = 0, 0
    scale = D ** (e - len(ints) + 1)
    for c in reversed(ints):
        ar, ai = ar * x - ai * y + c * scale, ar * y + ai * x
        scale *= D
    return ar, ai


def _ratfun_gaussian(f: RationalFunction, x: int, y: int, D: int) -> tuple[int, int, int]:
    """Integers (a, b, s) with f((x + y*i)/D) = (a + b*i) / s; s = 0 at a pole.

    A and B of the stored pair run through the Gaussian-integer Horner with
    the same power D**e, so it cancels in the quotient
    f = (nr + ni*i) / (dr + di*i), and multiplying through by the conjugate
    dr - di*i makes s = dr**2 + di**2 an integer.
    """
    a, b = f.pair
    e = max(len(a), len(b)) - 1
    nr, ni = _gaussian_horner(a, x, y, D, e)
    dr, di = _gaussian_horner(b, x, y, D, e)
    return nr * dr + ni * di, ni * dr - nr * di, dr * dr + di * di


def eval_ratfun_complex(f: RationalFunction, re: RationalLike, im: RationalLike):
    """Exact value of f at re + im*i as a (real, imaginary) Fraction pair.

    Runs on Gaussian integers (``_ratfun_gaussian``) and reduces only the
    two returned Fractions.
    """
    a, b, s = _ratfun_gaussian(f, *_gaussian_point(re, im))
    if s == 0:
        raise PoleAtPoint(f"denominator vanishes at {re}+{im}i")
    return Fraction(a, s), Fraction(b, s)


def poly_to_json(p: Polynomial) -> list[str]:
    """Coefficient list as base-10 strings, index = power of z."""
    return [str(c) for c in p.coeffs]
