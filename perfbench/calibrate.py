"""Machine-speed calibration: a fixed stdlib workload timed between operations.

On a shared host the speed of a core shifts, often within seconds, by up
to 1.8x, and chebsqrt's exact and bigfloat work slows down with it.  A
product of Fraction polynomials, written with the standard library only so
that no change to chebsqrt can move it, drifts the same way: interleaved
with ``v_step``, the ratio of the two times spread 10 times less than either
time alone.  Scaling an operation's time by REF_S over the kernel's time
around it gives the operation's time at a fixed reference speed, in
"reference seconds".
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_S = 0.04  # the reference speed: one kernel run takes this long
EVERY_S = 0.4  # operation time between two kernel samples
SETUP_SAMPLES = 3  # samples right after setup, whose median scales setup_s

_P = tuple(Fraction((-1) ** k * (k * k + 3), 2 * k + 7) for k in range(60))


def kernel() -> list:
    """Two rounds of a truncated product of degree-59 Fraction polynomials."""
    a = _P
    for _ in range(2):
        b = [Fraction(0)] * (2 * len(_P) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(_P):
                b[i + j] += x * y
        a = b[: len(_P)]
    return a


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def setup_speed() -> float:
    """Median kernel time right after setup."""
    return statistics.median(sample() for _ in range(SETUP_SAMPLES))


def scale(kernel_seconds: float, exponent: float = 1.0) -> float:
    """Factor from seconds at a speed where the kernel took ``kernel_seconds``
    to reference seconds, for work whose time goes as the kernel's ** exponent."""
    return (REF_S / kernel_seconds) ** exponent


def ref_times(op_seconds: list, marks: list, exponent: float = 1.0) -> list:
    """Each operation's time in reference seconds.

    ``marks`` holds (operations done before the sample, kernel seconds), in
    order, with one mark before the first operation and one after the last.
    An operation is scaled by the mean of the samples on either side of it.
    """
    out, k = [], 0
    for i, t in enumerate(op_seconds):
        while k + 1 < len(marks) and marks[k + 1][0] <= i:
            k += 1
        after = marks[k + 1][1] if k + 1 < len(marks) else marks[k][1]
        out.append(t * scale((marks[k][1] + after) / 2, exponent))
    return out
