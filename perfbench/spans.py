"""Spans around the public callables of each chebsqrt layer.

Nothing inside the package changes: ``install`` replaces a callable by a
timing wrapper at every name other modules look it up under (the defining
module and each ``from .x import y`` copy), and the returned function puts
the originals back.  Spans nest on one stack, so a layer's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    timed_calls: int = 0  # calls made while the workload's timed phase runs


@dataclass
class Tracer:
    """Aggregates nested spans by name; one per worker process."""

    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    in_timed_phase: bool = False
    _stack: list = field(default_factory=list)  # [name, start, child seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        st = self.stats.setdefault(name, LayerStats())
        st.calls += 1
        st.timed_calls += self.in_timed_phase
        st.s += dur
        st.self_s += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)


def _rebind_all(plan):
    """Wrap each ``(owner, attr, make_wrapper)`` of the plan; returns the undo.

    A function is rebound wherever a package module holds it, so callers
    that did ``from .x import y`` see the wrapper too; a method is replaced
    on its class.
    """
    from chebsqrt import chebyshev, cli, closedform, exact, iterates, verify

    modules = (chebyshev, cli, closedform, exact, iterates, verify)
    undo = []
    for owner, attr, make_wrapper in plan:
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        homes = [(mod, name) for mod in modules
                 for name, value in vars(mod).items() if value is original]
        if owner not in modules:
            homes.append((owner, attr))
        for home, name in homes:
            setattr(home, name, wrapper)
            undo.append((home, name, original))

    def restore():
        for home, name, original in reversed(undo):
            setattr(home, name, original)

    return restore


def _span(tracer: Tracer, name: str, after=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, out)
            return out

        return wrapper

    return make


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


def _record_size(tracer: Tracer, args, f) -> None:
    tracer.maximum("iterates.max_degree", max(f.num.degree, f.den.degree))
    tracer.maximum("exact.max_coeff_bits", max(_coeff_bits(f.num), _coeff_bits(f.den)))


def _record_gcd(tracer: Tracer, args, g) -> None:
    tracer.count("exact.poly_gcd.useful", g.degree > 0)


def _record_terms(tracer: Tracer, args, series) -> None:
    tracer.count("exact.taylor_coefficients.terms", len(series))


CHECK_NAMES = (
    "head", "tail_signs", "value_at_one", "composition", "mu_bound",
    "ratio_identity", "disk_bound", "uniform_compact", "monotone_improvement",
    "sqrt_consistency", "resummation", "coeff_formula", "radius_pole",
    "tail_sum", "guo_p2", "head_lengths",
)


def check_metric_name(fn_suffix: str) -> str:
    """verify.check_tail_signs -> verify.check.tail-signs (the CLI's name)."""
    return "verify.check." + fn_suffix.replace("_", "-")


def install(tracer: Tracer):
    """Wrap every traced callable; returns a function that undoes it."""
    from chebsqrt import chebyshev, cli, closedform, exact, iterates, verify

    plan = [
        (exact, "poly_gcd", "exact.poly_gcd", _record_gcd),
        (exact, "taylor_coefficients", "exact.taylor_coefficients", _record_terms),
        (exact, "eval_ratfun_complex", "exact.eval_ratfun_complex", None),
        (iterates, "v_step", "iterates.v_step", _record_size),
        (iterates, "iterate", "iterates.iterate", _record_size),
        (iterates, "v_iterate", "iterates.v_iterate", None),
        (verify._FloatEvaluator, "__call__", "verify.float_horner", None),
        (closedform.PartialFractionForm, "eval", "closedform.pf_eval", None),
        (closedform, "decompose", "closedform.decompose", None),
        (chebyshev, "u_zero_nodes", "chebyshev.u_zero_nodes", None),
        (closedform, "coeff_closed_range", "closedform.coeff_closed_range", None),
        (cli, "main", "cli.main", None),
    ]
    plan += [(verify, "check_" + c, check_metric_name(c), None) for c in CHECK_NAMES]
    return _rebind_all([(owner, attr, _span(tracer, name, after))
                       for owner, attr, name, after in plan])


def time_checks(record):
    """Call record(check name, seconds) after every check call; returns the undo.

    This is the operation timer of the verify-all workload, installed in
    traced and untraced runs alike; it costs two clock reads per check.
    """
    from chebsqrt import verify

    def make(name):
        def wrap(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(name, time.perf_counter() - start)

            return wrapper

        return wrap

    return _rebind_all([(verify, "check_" + c, make(c)) for c in CHECK_NAMES])


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metric values of one traced pass, by metric name."""

    def st(name):
        return tracer.stats.get(name, LayerStats())

    out = {}
    gcd = st("exact.poly_gcd")
    out["exact.poly_gcd.calls"] = gcd.calls
    out["exact.poly_gcd.timed_calls"] = gcd.timed_calls
    out["exact.poly_gcd.s"] = gcd.s
    out["exact.poly_gcd.useful_frac"] = (
        tracer.counters.get("exact.poly_gcd.useful", 0) / gcd.calls if gcd.calls else 0.0)
    for name in ("iterates.v_step", "iterates.iterate"):
        out[name + ".calls"] = st(name).calls
        out[name + ".s"] = st(name).s
        out[name + ".self_s"] = st(name).self_s
    for name in ("iterates.v_iterate", "exact.eval_ratfun_complex",
                 "verify.float_horner", "closedform.pf_eval"):
        out[name + ".calls"] = st(name).calls
        out[name + ".s"] = st(name).s
    taylor = st("exact.taylor_coefficients")
    out["exact.taylor_coefficients.calls"] = taylor.calls
    out["exact.taylor_coefficients.s"] = taylor.s
    out["exact.taylor_coefficients.terms"] = tracer.counters.get(
        "exact.taylor_coefficients.terms", 0)
    for name in ("closedform.decompose", "chebyshev.u_zero_nodes",
                 "closedform.coeff_closed_range"):
        out[name + ".s"] = st(name).s
    for c in CHECK_NAMES:
        name = check_metric_name(c)
        out[name + ".s"] = st(name).s
        out[name + ".self_s"] = st(name).self_s
    out["cli.main.self_s"] = st("cli.main").self_s
    out["iterates.max_degree"] = tracer.counters.get("iterates.max_degree", 0)
    out["exact.max_coeff_bits"] = tracer.counters.get("exact.max_coeff_bits", 0)
    return out
