"""The three workloads: setup, timed operations and output gates of one pass.

A pass runs in its own interpreter (see worker.py).  ``setup`` builds the
inputs the workload treats as given; ``timed`` runs the operations and
returns their outputs with one duration each; ``check`` compares the
outputs with the recorded reference and names every operation whose output
misses it.  The counted operations (``attempted``) are fixed by the
workload, never by the seed or the run length: an iterate built, a strategy
of ``eval`` at one n over all the points, or a check result.  Library callables are looked up through their module at call
time, so a traced pass sees them through the wrappers of spans.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath
from mpmath import mpc, mpf, workprec

from chebsqrt import cli, closedform, exact, iterates, verify
from chebsqrt.chebyshev import DEFAULT_PREC, GUARD_BITS
from chebsqrt.iterates import Scheme

import calibrate
from spans import time_checks

REFERENCE = Path(__file__).resolve().parent / "reference.json"

BUILD_V_MAX = 256
BUILD_SCHEMES = (
    (Scheme.newton(2), 9),
    (Scheme.halley(2), 6),
    (Scheme.newton(3), 5),
    (Scheme.halley(3), 4),
)
EVAL_NS = (32, 64, 128)
EVAL_POINTS = 150
EVAL_PREC = DEFAULT_PREC
EVAL_WORK = EVAL_PREC + GUARD_BITS  # the precision `chebsqrt eval` and `bench` use
EVAL_TOL_EXP = 16 - EVAL_PREC  # tolerance 2**-(prec - 16), as in `chebsqrt bench`
VERIFY_ARGV = ("--format", "json", "verify", "--all", "--n-max", "16")
MARGIN_LAYERS = ("verify.float_horner", "closedform.pf_eval")
# How a workload's time follows the calibration kernel's when the host's speed
# shifts: time ~ kernel time ** exponent (see calibrate.py).  verify-all spends
# about half its time in taylor_coefficients on numbers of thousands of digits,
# which slow down a third as much as the kernel; fitted over 30 seeded runs.
SPEED_EXPONENT = {"build": 1.0, "eval": 1.0, "verify-all": 0.7}


def margin_name(layer: str, n: int) -> str:
    """Per-layer metric log2(tolerance / worst deviation) of one strategy at one n."""
    return f"{layer}.margin_bits.n{n}"


@dataclass
class PassResult:
    """Outputs of one pass: per-operation times, failures and gate notes."""

    op_seconds: list = field(default_factory=list)
    calibrated: bool = False  # sample the machine's speed between operations
    cal_marks: list = field(default_factory=list)  # (operations done, kernel seconds)
    _since_mark: float = 0.0
    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    mismatches: list = field(default_factory=list)  # wrong exact outputs
    info: dict = field(default_factory=dict)

    def op_done(self, seconds: float) -> None:
        """Record one operation's time; sample the speed every calibrate.EVERY_S."""
        self.op_seconds.append(seconds)
        if self.calibrated:
            self._since_mark += seconds
            if self._since_mark >= calibrate.EVERY_S:
                self.mark(calibrate.sample())

    def mark(self, kernel_seconds: float) -> None:
        self.cal_marks.append((len(self.op_seconds), kernel_seconds))
        self._since_mark = 0.0

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: str, what: str = "", exact_output: bool = True) -> None:
        """Count operation ``op`` as failed; a wrong exact output also fails the gate."""
        self.failed_ops.add(op)
        if exact_output:
            self.mismatches.append(f"{op}: {what}" if what else op)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def ratfun_digest(f) -> str:
    return digest([exact.poly_to_json(f.num), exact.poly_to_json(f.den)])


# --------------------------------------------------------------------------
# build: the exact construction layer


def build_setup(seed: int):
    """No inputs beyond the import: the iterates are fixed by the workload."""
    return None


def build_timed(state, out: PassResult) -> dict:
    chain = [exact.ONE_RF]
    for _ in range(BUILD_V_MAX):
        t0 = time.perf_counter()
        f = iterates.v_step(chain[-1])
        out.op_done(time.perf_counter() - t0)
        chain.append(f)
    built = {}
    for scheme, k_max in BUILD_SCHEMES:
        for k in range(1, k_max + 1):
            t0 = time.perf_counter()
            f = iterates.iterate(scheme, k)
            out.op_done(time.perf_counter() - t0)
            built[(str(scheme), k)] = f
    return {"chain": chain, "built": built}


def build_digests(outputs: dict) -> list:
    """One digest per operation, in operation order."""
    rows = [ratfun_digest(f) for f in outputs["chain"][1:]]
    rows += [ratfun_digest(f) for f in outputs["built"].values()]
    return rows


def build_check(state, outputs: dict, reference: dict, out: PassResult) -> None:
    got = build_digests(outputs)
    want = reference["build_digests"]
    labels = [f"v_{n}" for n in range(1, BUILD_V_MAX + 1)]
    labels += [f"{s}_{k}" for s, k in outputs["built"]]
    out.attempted = len(labels)
    if len(got) != len(want):
        out.fail(labels[-1], f"built {len(got)} iterates, reference has {len(want)}")
    for label, g, w in zip(labels, got, want):
        if g != w:
            out.fail(label, f"digest {g} != reference {w}")
    chain = outputs["chain"]
    for (name, k), f in outputs["built"].items():
        index = {"newton(p=2)": 2**k - 1, "halley(p=2)": 3**k - 1}.get(name)
        if index is not None and index <= BUILD_V_MAX and f != chain[index]:
            out.fail(f"{name}_{k}", f"!= v_{index}")
    out.info["build_digest"] = digest(got)


# --------------------------------------------------------------------------
# eval: exact and float evaluation of prebuilt iterates


def eval_points(seed: int) -> list:
    """Seeded rational points with |z| <= 0.9, drawn as `chebsqrt bench` draws them."""
    return cli._random_disk_rationals(random.Random(seed), EVAL_POINTS)


def eval_setup(seed: int) -> dict:
    pts = eval_points(seed)
    with workprec(EVAL_WORK):
        zs = [mpc(mpmath.mpmathify(re), mpmath.mpmathify(im)) for re, im in pts]
    cases = []
    for n in EVAL_NS:
        f = iterates.v_iterate(n)
        cases.append({
            "n": n,
            "f": f,
            "pf": closedform.decompose(n, EVAL_PREC),
            "horner": verify._FloatEvaluator(f, EVAL_WORK),
        })
    return {"pts": pts, "zs": zs, "cases": cases}


def eval_timed(state: dict, out: PassResult) -> list:
    """Values per case: (exact, bigfloat Horner, partial fraction) at each point."""
    results = []
    for case in state["cases"]:
        f, horner, pf = case["f"], case["horner"], case["pf"]
        rows = []
        for (re, im), z in zip(state["pts"], state["zs"]):
            t0 = time.perf_counter()
            ex = exact.eval_ratfun_complex(f, re, im)
            t1 = time.perf_counter()
            with workprec(EVAL_WORK):
                hv = horner(z)
            t2 = time.perf_counter()
            pv = pf.eval(z)
            t3 = time.perf_counter()
            for seconds in (t1 - t0, t2 - t1, t3 - t2):
                out.op_done(seconds)
            rows.append((ex, hv, pv))
        results.append(rows)
    return results


def direct_value(n: int, re: Fraction, im: Fraction) -> tuple:
    """v_n at re + i*im from the ratio identity, independent of the v chain.

    v_n = sum_i C(N, 2i) u^i / sum_i C(N, 2i+1) u^i with u = 1 - z and
    N = n + 1, evaluated in Gaussian integers after scaling u by the common
    denominator D (both sums are scaled by the same power of D).
    """
    N = n + 1
    D = math.lcm(re.denominator, im.denominator)
    p, q = int((1 - re) * D), int(-im * D)
    deg = N // 2

    def scaled_sum(parity):
        # sum_i C(N, 2i + parity) (p + q i)^i D^(deg - i), by Horner in u
        ar, ai = 0, 0
        for i in range(deg, -1, -1):
            c = math.comb(N, 2 * i + parity) * D ** (deg - i)
            ar, ai = ar * p - ai * q + c, ar * q + ai * p
        return ar, ai

    nr, ni = scaled_sum(0)
    dr, di = scaled_sum(1)
    norm = dr * dr + di * di
    return Fraction(nr * dr + ni * di, norm), Fraction(ni * dr - nr * di, norm)


def deviation_margin(dev, tol) -> float:
    """log2(tol / dev); a zero deviation counts as one unit at the work precision."""
    with workprec(EVAL_WORK):
        return float(mpmath.log(tol / max(dev, mpf(2) ** -EVAL_WORK), 2))


def eval_check(state: dict, outputs: list, reference: dict, out: PassResult) -> None:
    with workprec(EVAL_WORK):
        tol = mpf(2) ** EVAL_TOL_EXP
    margins = {}
    exact_values = []
    misses = 0  # float values outside the tolerance, over all points
    out.attempted = 3 * len(state["cases"])
    for case, rows in zip(state["cases"], outputs):
        n = case["n"]
        worst = {"horner": mpf(0), "pf": mpf(0)}
        for (re, im), (ex, hv, pv) in zip(state["pts"], rows):
            exact_values.append([str(ex[0]), str(ex[1])])
            if ex != direct_value(n, re, im):
                out.fail(f"n={n} exact", f"z={re}+{im}i: value differs from the direct form")
            with workprec(EVAL_WORK):
                ref = mpc(mpmath.mpmathify(ex[0]), mpmath.mpmathify(ex[1]))
                for name, val in (("horner", hv), ("pf", pv)):
                    dev = abs(val - ref)
                    worst[name] = max(worst[name], dev)
                    if dev > tol:  # a float value outside the tolerance: failed, not wrong
                        misses += 1
                        out.fail(f"n={n} {name}", exact_output=False)
        for layer, key in zip(MARGIN_LAYERS, ("horner", "pf")):
            margins[margin_name(layer, n)] = deviation_margin(worst[key], tol)
    out.info["margins_bits"] = margins
    out.info["float_misses"] = f"{misses} of {2 * len(exact_values)} float values"
    out.info["exact_digest"] = digest(exact_values)


# --------------------------------------------------------------------------
# verify-all: the user's command, in-process


def verify_setup(seed: int):
    """The command line is fixed; the check suite takes no random input."""
    return None


def verify_timed(state, out: PassResult) -> dict:
    log = []

    def record(name, seconds):
        log.append((name, seconds))
        out.op_done(seconds)

    restore = time_checks(record)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(VERIFY_ARGV))
    finally:
        restore()
    return {"code": code, "lines": buf.getvalue().splitlines(), "log": log}


def verify_rows(lines: list) -> list:
    rows = []
    for line in lines:
        r = json.loads(line)
        rows.append([r["name"], r["params"], r["status"]])
    return rows


def verify_check(state, outputs: dict, reference: dict, out: PassResult) -> None:
    rows = verify_rows(outputs["lines"])
    want = reference["verify_rows"]
    out.attempted = len(want)
    if outputs["code"] != 0:
        out.fail("exit", f"exit code {outputs['code']}")
    if len(rows) != len(outputs["log"]):
        out.fail("count", f"{len(rows)} results but {len(outputs['log'])} timed checks")
    if len(rows) != len(want):
        out.fail("count", f"{len(rows)} results, reference has {len(want)}")
    for i, (got, ref) in enumerate(zip(rows, want)):
        if got != ref:
            out.fail(f"result {i}", f"{got} != reference {ref}")
        elif got[2] == "fail":
            out.fail(f"result {i}", f"{got[0]} {got[1]} failed")
    out.info["statuses"] = {s: sum(r[2] == s for r in rows) for s in ("pass", "fail", "skip")}


WORKLOADS = {
    "build": (build_setup, build_timed, build_check),
    "eval": (eval_setup, eval_timed, eval_check),
    "verify-all": (verify_setup, verify_timed, verify_check),
}
