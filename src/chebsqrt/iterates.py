"""The three iterate families approximating sqrt(1 - z) (and its p-th root cousins).

All constructions are exact: each step builds the new numerator/denominator
polynomials directly and lets the RationalFunction constructor put them in
canonical (coprime, monic-denominator) form.  Canonical form is what makes
the composition identities -- the k-th Newton iterate equals the (2^k - 1)-th
linear-fraction iterate, the k-th Halley iterate the (3^k - 1)-th -- checkable
by plain ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadIndex, BadRootOrder, CapExceeded, DegenerateStep
from .exact import ONE_RF, Polynomial, RationalFunction

ONE_MINUS_Z = Polynomial((1, -1))

# Degrees and coefficient bit-lengths grow with k; the caps keep desk-scale
# runtimes.  The Newton/Halley caps can be raised per call (iterate's max_k).
DEFAULT_MAX_V_STEPS = 4096
DEFAULT_MAX_NEWTON_K = 12
DEFAULT_MAX_HALLEY_K = 12


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
        if self.kind == "v":
            if self.p is not None:
                raise ValueError("the linear-fraction scheme takes no root order")
        elif not isinstance(self.p, int) or self.p < 2:
            raise BadRootOrder(f"root order must be an integer >= 2, got {self.p}")

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


def v_step(f: RationalFunction) -> RationalFunction:
    """One linear-fraction step f -> (1 - z + f) / (1 + f)."""
    a, b = f.num, f.den
    den = a + b
    if den.is_zero:
        raise DegenerateStep("1 + f vanishes identically")
    return RationalFunction(ONE_MINUS_Z * b + a, den)


def newton_step(f: RationalFunction, p: int = 2) -> RationalFunction:
    """One Newton step for x**p = 1 - z: ((p-1) f + (1-z) / f**(p-1)) / p."""
    if not isinstance(p, int) or p < 2:
        raise BadRootOrder(f"root order must be an integer >= 2, got {p}")
    a, b = f.num, f.den
    if a.is_zero:
        raise DegenerateStep("Newton step undefined for the zero function")
    num = (p - 1) * a**p + ONE_MINUS_Z * b**p
    den = p * a ** (p - 1) * b
    return RationalFunction(num, den)


def halley_step(f: RationalFunction, p: int = 2) -> RationalFunction:
    """One Halley step for x**p = 1 - z.

    f -> f * ((p-1) f**p + (p+1)(1-z)) / ((p+1) f**p + (p-1)(1-z)).
    """
    if not isinstance(p, int) or p < 2:
        raise BadRootOrder(f"root order must be an integer >= 2, got {p}")
    a, b = f.num, f.den
    ap = a**p
    wbp = ONE_MINUS_Z * b**p
    den = b * ((p + 1) * ap + (p - 1) * wbp)
    if den.is_zero:
        raise DegenerateStep("Halley step hit an identically-zero denominator")
    return RationalFunction(a * ((p - 1) * ap + (p + 1) * wbp), den)


_V_CACHE: list[RationalFunction] = [ONE_RF]


def v_iterate(n: int) -> RationalFunction:
    """Memoized n-th linear-fraction iterate, n <= DEFAULT_MAX_V_STEPS.

    The chain is extended once and shared, so sweeps over n cost one step
    per new index instead of one chain per call.
    """
    if n < 0:
        raise BadIndex("iterate index must be >= 0")
    if n > DEFAULT_MAX_V_STEPS:
        raise CapExceeded(f"n = {n} exceeds the cap {DEFAULT_MAX_V_STEPS} for v-steps")
    while len(_V_CACHE) <= n:
        _V_CACHE.append(v_step(_V_CACHE[-1]))
    return _V_CACHE[n]


def iterate(scheme: Scheme, k: int, max_k: int | None = None) -> RationalFunction:
    """The k-th iterate of the scheme from the initial value 1.

    The linear-fraction scheme returns the memoized chain ``v_iterate(k)``.
    Newton and Halley iterates are built step by step; max_k caps their k
    and defaults to DEFAULT_MAX_NEWTON_K or DEFAULT_MAX_HALLEY_K.
    """
    if k < 0:
        raise BadIndex("iteration count must be >= 0")
    if scheme.kind == "v":
        return v_iterate(k)
    if max_k is None:
        max_k = DEFAULT_MAX_NEWTON_K if scheme.kind == "newton" else DEFAULT_MAX_HALLEY_K
    if k > max_k:
        raise CapExceeded(f"k = {k} exceeds the cap {max_k} for scheme {scheme}")
    step = newton_step if scheme.kind == "newton" else halley_step
    f = ONE_RF
    for _ in range(k):
        f = step(f, scheme.p)
    return f
