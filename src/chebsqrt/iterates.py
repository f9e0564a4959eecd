"""The three iterate families approximating sqrt(1 - z) (and its p-th root cousins).

All constructions are exact, and each reaches canonical (coprime,
primitive integer pair) form by a lemma, not a gcd.  The linear-fraction
iterate v_n comes straight from the paper's Chebyshev form T_N / U_(N-1),
N = n + 1 (``v_iterate``; Pell's identity proves the pair coprime).  The
steps read their input's stored integer pair f = A/B and build the new
numerator and denominator on integers: sums and a (1 - z) shift for the v
step; for Newton and Halley also products and powers, each product one
Kronecker product (``exact._convolve``: one big-integer multiply per
polynomial product).  Since gcd(A, B) = 1, each step's lemma names the one
factor the new pair can share -- z if D(0) = 0 for the v step, 1 - z if
A(1) = 0 for Newton and Halley -- and that lemma is the only path: the step
divides the factor out and runs no gcd, whatever its input.  The joint
content has a lemma too: it is 1 for ``v_iterate`` and the v step, and
every prime of it divides p - 1 for Newton and Halley (none at p = 2).
``RationalFunction._from_coprime`` takes that number, scans only for
those primes, strips trailing zeros and fixes the sign of the
denominator's lead; a content of 1 divides no coefficient.  The v step
stays as an independent construction of v_n.  Canonical form is what makes
the composition identities -- the k-th Newton iterate equals the
(2^k - 1)-th linear-fraction iterate, the k-th Halley iterate the
(3^k - 1)-th -- checkable by plain ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .chebyshev import ChebKind, _cheb_ints
from .errors import BadIndex, BadRootOrder, CapExceeded, DegenerateStep
from .exact import ONE_RF, RationalFunction, _convolve, _exact_quotient, _times_one_minus_z

# The largest degree, max(deg num, deg den), an iterate may have: that of
# v_4096.  Work grows with the degree, not with k, so one degree cap bounds
# every scheme and root order; ``capped_degree`` checks it before any step.
MAX_DEGREE = 2048


def _check_root_order(p) -> None:
    if not isinstance(p, int) or p < 2:
        raise BadRootOrder(f"root order must be an integer >= 2, got {p}")


@dataclass(frozen=True)
class Scheme:
    """Iteration scheme selector: linear-fraction ("v"), "newton" or "halley".

    Newton and Halley carry the root order p >= 2 of the target equation
    x**p = 1 - z; the linear-fraction scheme has no order parameter.
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("v", "newton", "halley"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind != "v":
            _check_root_order(self.p)
        elif self.p is not None:
            raise BadRootOrder(f"the linear-fraction scheme takes no root order, got {self.p}")

    @classmethod
    def v(cls) -> "Scheme":
        return cls("v")

    @classmethod
    def newton(cls, p: int = 2) -> "Scheme":
        return cls("newton", p)

    @classmethod
    def halley(cls, p: int = 2) -> "Scheme":
        return cls("halley", p)

    def __str__(self):
        return self.kind if self.kind == "v" else f"{self.kind}(p={self.p})"

    def head_length(self, k: int) -> int:
        """Leading Taylor coefficients the k-th iterate shares with the root series.

        k + 1 for the linear-fraction scheme, 2^k for Newton and 3^k for
        Halley (convergence orders 2 and 3).  At p = 2 the k-th iterate is
        v_n with n = head_length(k) - 1.
        """
        if self.kind == "v":
            return k + 1
        return (2 if self.kind == "newton" else 3) ** k


def _scaled_sum(x: int, a: list[int], y: int, b: list[int]) -> list[int]:
    """Coefficient list of x*a + y*b."""
    if len(a) < len(b):
        x, a, y, b = y, b, x, a
    out = [x * c for c in a]
    for i, c in enumerate(b):
        out[i] += y * c
    return out


def _power(a: list[int], p: int) -> list[int]:
    """Coefficient list of a**p, p >= 1."""
    if len(a) == 1:  # the first step: degree 1 whatever p, so the cap leaves p unbounded
        return [a[0] ** p]
    out = a
    for _ in range(p - 1):
        out = _convolve(out, a)
    return out


def _over_one_minus_z(num: list[int], den: list[int], a: list[int], p: int) -> RationalFunction:
    """N/D of a Newton or Halley step from f = A/B for x**p = 1 - z.

    By the step's lemma gcd(N, D) is 1 - z iff A(1) = 0, and every prime of
    the joint content divides p - 1.  Dividing by 1 - z keeps the content:
    1 - z is primitive, and by Gauss's lemma contents multiply.
    """
    if not sum(a):
        num, den = _exact_quotient(num, [1, -1]), _exact_quotient(den, [1, -1])
    return RationalFunction._from_coprime(num, den, p - 1)


def v_step(f: RationalFunction) -> RationalFunction:
    """One linear-fraction step f -> (1 - z + f) / (1 + f).

    With f = A/B over integers and gcd(A, B) = 1 (f is canonical), the step
    is N/D with D = A + B and N = D - zB.  Since gcd(D, B) = gcd(A, B) = 1,
    gcd(N, D) = gcd(z, D): z when D(0) = 0, and then N(0) = 0 too, so the
    step divides both by z; else 1.  No gcd runs, whatever the input.  Along
    the chain from 1, D(0) = 2B(0) != 0.

    The joint content is 1: a prime dividing every coefficient of N and D
    divides D - N = zB, so it divides B and then A = D - B, against the
    joint content 1 of (A, B).  Dividing by z leaves the coefficients as
    they are, so the store scans no prime.
    """
    a, b = f.pair
    den = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    if not any(den):
        raise DegenerateStep("1 + f vanishes identically")
    num = [x - y for x, y in zip_longest(den, [0, *b], fillvalue=0)]
    if not den[0]:
        num, den = num[1:], den[1:]
    return RationalFunction._from_coprime(num, den, 1)


def newton_step(f: RationalFunction, p: int = 2) -> RationalFunction:
    """One Newton step for x**p = 1 - z: ((p-1) f + (1-z) / f**(p-1)) / p.

    With f = A/B canonical, the step is N/D with N = (p-1)A^p + (1-z)B^p
    and D = p A^(p-1) B.  gcd(N, B) = gcd((p-1)A^p, B) = 1.  A factor that
    N shares with A divides (1-z)B^p, hence divides 1 - z, which needs
    A(1) = 0; then B(1) != 0, so 1 - z divides A^p at least twice and N
    once.  So ``_over_one_minus_z`` divides out 1 - z when A(1) = 0, and no
    gcd runs.

    Every prime q of the joint content divides p - 1.  Read N and D mod q
    in F_q[z], where p A^(p-1) B = 0.  A = 0 mod q would leave
    N = (1-z)B^p != 0, as (A, B) has joint content 1.  If B = 0 mod q,
    N = (p-1)A^p vanishes only when q | p - 1.  Otherwise q | p, and then
    A^p = G(z^q) and B^p = H(z^q) with H != 0 (Frobenius: c^q = c in F_q),
    so N = -G(z^q) + (1-z)H(z^q) keeps the nonzero terms of -zH(z^q), at
    exponents = 1 mod q: no such q.  At p = 2 the content is therefore 1;
    Newton at p = 3 on f = 1/2 gives (10 - 8z)/6, content 2.
    """
    _check_root_order(p)
    a, b = f.pair
    if not a:
        raise DegenerateStep("Newton step undefined for the zero function")
    ap1 = _power(a, p - 1)
    num = _scaled_sum(p - 1, _convolve(ap1, a), 1, _times_one_minus_z(_power(b, p)))
    den = [p * c for c in _convolve(ap1, b)]
    return _over_one_minus_z(num, den, a, p)


def halley_step(f: RationalFunction, p: int = 2) -> RationalFunction:
    """One Halley step for x**p = 1 - z.

    f -> f * ((p-1) f**p + (p+1)(1-z)) / ((p+1) f**p + (p-1)(1-z)).

    With f = A/B canonical, P = A^p and W = (1-z)B^p, the step is
    N/D = A X / (B Y) with X = (p-1)P + (p+1)W and Y = (p+1)P + (p-1)W.
    Then (p+1)X - (p-1)Y = 4pW and (p+1)Y - (p-1)X = 4pP, so a common factor
    of X and Y divides both W and P; X = (p-1)P mod B and Y = (p-1)W mod A.
    Every common factor of N and D is therefore a power of 1 - z dividing A,
    which needs A(1) = 0; then B(1) != 0, so 1 - z divides P at least twice,
    W once and D = BY once.  So ``_over_one_minus_z`` divides out 1 - z when
    A(1) = 0, and no gcd runs; the zero function (A = 0, B = 1) goes to 0.

    Every prime q of the joint content divides p - 1.  Mod q, A X = 0 and
    B Y = 0 in F_q[z].  A = 0 leaves B != 0, so Y = (p-1)W = 0 and
    q | p - 1; B = 0 likewise gives X = (p-1)P = 0 and q | p - 1.
    Otherwise X = Y = 0, so 4pW = 0 and q | 2p.  A q | p is ruled out as
    in ``newton_step``: X = -G(z^q) + (1-z)H(z^q) with P = G(z^q),
    B^p = H(z^q), H != 0.  That leaves q = 2 with p odd, a prime of p - 1.
    At odd p, X and Y are both even, so the content is at least 2: the
    Halley iterates from 1 at p = 3 and p = 5 have content exactly 2.
    """
    _check_root_order(p)
    a, b = f.pair
    ap = _power(a, p)
    wbp = _times_one_minus_z(_power(b, p))
    y = _scaled_sum(p + 1, ap, p - 1, wbp)
    if not any(y):
        raise DegenerateStep("Halley step hit an identically-zero denominator")
    num = _convolve(a, _scaled_sum(p - 1, ap, p + 1, wbp))
    return _over_one_minus_z(num, _convolve(b, y), a, p)


def capped_degree(scheme: Scheme, k: int) -> int:
    """max(deg num, deg den) of the k-th iterate; CapExceeded above MAX_DEGREE.

    v_k has degree floor((k+1)/2).  From 1, a Newton step for x**p = 1 - z
    takes degree d to p*d (to 1 from d = 0) and a Halley step to (p+1)*d + 1,
    so the k-th iterate has degree p^(k-1) (0 at k = 0) or ((p+1)^k - 1)/p.
    At p = 2 these are the degrees of v_(2^k - 1) and v_(3^k - 1).
    """
    if k < 0:
        raise BadIndex("iteration count must be >= 0")
    p = scheme.p
    # with p >= 2 both degrees are at least 2^(k-1), so any k past the bit length
    # of MAX_DEGREE is past the cap; clipping k there keeps the powers small
    j = min(k, MAX_DEGREE.bit_length() + 1)
    if scheme.kind == "v":
        degree = (k + 1) // 2
    elif scheme.kind == "newton":
        degree = p ** (j - 1) if j else 0
    else:
        degree = ((p + 1) ** j - 1) // p
    if degree > MAX_DEGREE:
        raise CapExceeded(f"k = {k} exceeds the cap: the {scheme} iterate would have "
                          f"degree above {MAX_DEGREE}")
    return degree


def v_iterate(n: int) -> RationalFunction:
    """The n-th linear-fraction iterate, from its Chebyshev form.

    With N = n + 1, v_n(z) = A(z)/B(z) where A(z) = z^(N/2) T_N(z^(-1/2))
    and B(z) = z^((N-1)/2) U_(N-1)(z^(-1/2)): the z^j coefficient of A is
    the x^(N-2j) coefficient of T_N, and that of B the x^(N-1-2j)
    coefficient of U_(N-1).  Pell's identity T_N^2 - (x^2-1) U_(N-1)^2 = 1,
    multiplied by z^N, becomes A^2 - (1-z) B^2 = z^N, so gcd(A, B) divides
    z^N; B(0) = 2^(N-1) != 0 rules out z, so A and B are coprime.  A prime
    dividing every coefficient of A and B would have its square divide the
    coefficients of z^N, so the joint content is 1 and the store scans no
    prime.
    """
    capped_degree(Scheme.v(), n)
    N = n + 1
    num = _cheb_ints(ChebKind.FIRST, N)[N::-2]
    den = _cheb_ints(ChebKind.SECOND, N - 1)[N - 1 :: -2]
    return RationalFunction._from_coprime(num, den, 1)


def iterate(scheme: Scheme, k: int) -> RationalFunction:
    """The k-th iterate of the scheme from the initial value 1.

    The linear-fraction scheme returns ``v_iterate(k)``, built from its
    Chebyshev form.  Newton and Halley iterates are built step by step, once
    ``capped_degree`` has admitted k.
    """
    if scheme.kind == "v":
        return v_iterate(k)
    capped_degree(scheme, k)
    step = newton_step if scheme.kind == "newton" else halley_step
    f = ONE_RF
    for _ in range(k):
        f = step(f, scheme.p)
    return f
