"""Command-line surface: coeffs, decompose, eval, verify, explore-guo, bench.

Exit codes: 0 = success / all checks pass, 1 = a mathematical check failed,
2 = usage or configuration error.  Output is deterministic for identical
invocations (timing fields excluded); random sampling in `bench` is seeded
and the seed is echoed.

Environment override: PREC_BITS (default working precision).  The precision
is bounded by ``MAX_PREC`` and every iterate by ``iterates.MAX_DEGREE``, both
checked before any work.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import sys
import time
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf, workprec

from .chebyshev import DEFAULT_PREC
from .closedform import decompose, radius_of_convergence, tail_sum_identity
from .errors import BadRootOrder, CapExceeded, ChebsqrtError, PoleAtPoint
from .exact import (
    _gaussian_point,
    _ratfun_gaussian,
    eval_ratfun_complex,
    root_series_coeffs,
    taylor_coefficients,
)
from .iterates import Scheme, capped_degree, iterate, v_iterate
from .verify import (
    CHECKS,
    MAX_COEFF_INDEX,
    DiskGrid,
    _FloatEvaluator,
    _horner_bits,
    _refuse_taylor_work,
    _slack,
    _to_mpf,
    default_suite,
    guo_explore,
)


# Largest working precision in bits.  Float work grows faster than the
# precision, so without this cap the admitted float checks would have no
# time bound.
MAX_PREC = 4096

# Largest bench --points x --reps.  The points are drawn before any work,
# so an uncapped request could exhaust memory or run for days; the
# largest admitted run, 1000 points at n = 4096, takes about 300 s.
MAX_BENCH_EVALS = 1000

# Largest degree (at least 1) x point bits of an eval, the bits of the largest of
# x, y, D, z = (x + y*i) / D: the largest power of two whose runs stay within about
# 5 s.  On a shared 2-vCPU host, eval --scheme newton --k 12 (a 2.6 s build) took
# 3.6-4.4 s at a 64-bit point, 5.1-6.5 s at twice the cap, a 128-bit point.
MAX_EVAL_WORK = 1 << 17


def _float_str(x, prec: int) -> str:
    if mpmath.isinf(x):
        return "inf"
    return mpmath.nstr(x, mpmath.libmp.prec_to_dps(prec) + 2)


def _rounded(*xs: Fraction) -> list:
    """Each x rounded once at the working precision, by ``verify._to_mpf``."""
    return [_to_mpf(x.numerator, x.denominator) for x in xs]


def _scheme_from(name: str, p: int | None) -> Scheme:
    """The scheme of --scheme and --p; newton and halley take p = 2 unless --p is given."""
    if name == "v" and p is not None:
        raise BadRootOrder("--scheme v takes no --p")
    return Scheme(name, 2 if p is None and name != "v" else p)


# --------------------------------------------------------------------------
# coeffs


def cmd_coeffs(args) -> int:
    scheme = _scheme_from(args.scheme, args.p)
    if not 0 <= args.M <= MAX_COEFF_INDEX:
        raise ChebsqrtError(f"--M = {args.M} is outside the coefficient range 0..{MAX_COEFF_INDEX}")
    _refuse_taylor_work(scheme, args.k, args.M)
    f = iterate(scheme, args.k)
    cs = taylor_coefficients(f, args.M)
    p = 2 if scheme.kind == "v" else scheme.p
    ref = root_series_coeffs(p, args.M)
    head_limit = scheme.head_length(args.k)
    rows = []
    for m in range(args.M + 1):
        value = cs[m]
        sign = "+" if value > 0 else "-" if value < 0 else "0"
        region = "head" if m < head_limit else "tail"
        rows.append({"m": m, "coefficient": str(value), "reference": str(ref[m]),
                     "sign": sign, "region": region})
    if args.format == "json":
        print(json.dumps({"scheme": str(scheme), "k": args.k, "M": args.M, "rows": rows}))
    elif args.format == "csv":
        print("m,coefficient,reference,sign,region")
        for r in rows:
            print(f"{r['m']},{r['coefficient']},{r['reference']},{r['sign']},{r['region']}")
    else:
        print(f"series coefficients: scheme {scheme}, k = {args.k}")
        for r in rows:
            print(f"  m={r['m']:<4} {r['coefficient']:<24} ref {r['reference']:<24}"
                  f" {r['sign']} {r['region']}")
    return 0


# --------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    capped_degree(Scheme.v(), args.n)
    prec = args.prec
    pf = decompose(args.n, prec)
    radius = radius_of_convergence(args.n, prec)
    tail = tail_sum_identity(args.n)
    if args.format == "json":
        doc = pf.to_json_dict()
        doc["radius_of_convergence"] = _float_str(radius, prec)
        doc["tail_sum_identity"] = str(tail)
        print(json.dumps(doc))
    elif args.format == "csv":
        print("n,k,weight,pole_param,scale,radius,tail_sum")
        scale = _float_str(pf.scale, prec)
        rad = _float_str(radius, prec)
        if pf.term_count == 0:
            print(f"{pf.n},,,,{scale},{rad},{tail}")
        for i, (w, rho) in enumerate(zip(pf.weights, pf.pole_params), start=1):
            print(f"{pf.n},{i},{_float_str(w, prec)},{_float_str(rho, prec)},"
                  f"{scale},{rad},{tail}")
    else:
        print(f"partial fractions of iterate n = {pf.n}: head 1 - z/2, "
              f"scale {_float_str(pf.scale, 53)}")
        for i, (w, rho) in enumerate(zip(pf.weights, pf.pole_params), start=1):
            print(f"  term {i}: weight {_float_str(w, 53)}  pole_param {_float_str(rho, 53)}")
        print(f"  radius of convergence: {_float_str(radius, 53)}")
        print(f"  tail-sum identity value: {tail}")
    return 0


# --------------------------------------------------------------------------
# eval


def _rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ChebsqrtError(f"{flag} needs a rational number such as 1/2 or 0.25, "
                            f"got {text!r}") from None


def _full_str(x) -> str:
    """str(x) with Python's limit on int -> str digits lifted, then restored; releases
    without ``sys.set_int_max_str_digits`` have no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        return str(x)
    finally:
        set_limit(limit)


def cmd_eval(args) -> int:
    """Exact value of the iterate at a rational or complex rational point.

    Decimal parts are exact rationals, so both points run through the exact
    Gaussian-integer kernel; each printed decimal is rounded once, at prec
    bits, from its unreduced quotient.  Degree x point bits past
    MAX_EVAL_WORK is refused before the build, and an exact value prints in full.
    """
    prec = args.prec
    scheme = _scheme_from(args.scheme, args.p)
    if args.at is not None:
        re, im, at = _rational(args.at, "--at"), Fraction(0), args.at
    else:
        re, im = _rational(args.at_re, "--at-re"), _rational(args.at_im, "--at-im")
        at = f"{args.at_re}+{args.at_im}i"
    point = _gaussian_point(re, im)
    degree, bits = max(capped_degree(scheme, args.k), 1), max(abs(c).bit_length() for c in point)
    if degree * bits > MAX_EVAL_WORK:
        raise CapExceeded(f"{scheme} k = {args.k}: degree {degree} x {bits} point bits "
                          f"exceeds the eval work cap {MAX_EVAL_WORK}")
    a, b, s = _ratfun_gaussian(iterate(scheme, args.k), *point)
    if s == 0:
        raise PoleAtPoint(f"denominator vanishes at {at}")
    with workprec(prec):
        val_re, val_im = _to_mpf(a, s), _to_mpf(b, s)
    if args.at is not None:
        x, value = _full_str(re), _full_str(Fraction(a, s))
        fields = {"at": x, "exact": value, "decimal": _float_str(val_re, prec)}
        text = f"at {x}: {value} = {fields['decimal']}"
    else:
        fields = {"at_re": args.at_re, "at_im": args.at_im,
                  "re": _float_str(val_re, prec), "im": _float_str(val_im, prec)}
        text = f"at {at}: {fields['re']} + {fields['im']}i"
    print(json.dumps({"scheme": str(scheme), "k": args.k, **fields}) if args.format == "json"
          else f"{scheme} iterate k={args.k} {text}")
    return 0


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.n_max < 1:
        raise ChebsqrtError("--n-max must be >= 1")
    if not (args.all or args.check in CHECKS):
        raise ChebsqrtError(f"unknown check {args.check!r}" if args.check
                            else "choose --all or --check NAME")
    what = "--all" if args.all else f"check {args.check!r}"
    rows = default_suite if args.all else CHECKS[args.check]
    # the selectors typed (the parser sets no other) are the row's keywords, --grid-* its grid
    takes = inspect.signature(rows).parameters
    given = [name for name in ("n", "k", "M", "scheme", "grid_radius", "grid_radial",
                               "grid_angular", "compact_radius") if name in args]
    refused = [name for name in given if ("grid" if "grid_" in name else name) not in takes]
    if refused:
        raise ChebsqrtError(f"{what} takes no --{refused[0].replace('_', '-')}")
    selectors = {name: getattr(args, name) for name in given}
    grid = {name.removeprefix("grid_"): selectors.pop(name) for name in given if "grid_" in name}
    if grid:
        selectors["grid"] = DiskGrid(**grid, prec=args.prec)
    results = rows(args.n_max, args.prec, **selectors)
    if not results:
        raise ChebsqrtError(f"check {args.check!r} has no rows for these selectors")
    failed = 0
    for r in results:
        if args.format == "human":
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
            extra = f"  ({r.note})" if r.note else ""
            print(f"{mark} {r.name} {r.params} samples={r.samples}{extra}")
        else:
            print(json.dumps(r.to_json_dict()))
        if r.status == "fail":
            failed += 1
    return 1 if failed else 0


# --------------------------------------------------------------------------
# explore-guo


def cmd_explore_guo(args) -> int:
    report = guo_explore(args.p, args.scheme, args.k, args.M)
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"sign-pattern report: p={report.p} {report.scheme} k={report.k} M={report.M}")
        print(f"  head agreement length: {report.head_agreement_length}")
        print(f"  coefficients scanned:  {report.coeffs_checked}")
        print(f"  signs: {report.sign_counts}")
        print(f"  first sign violation:  {report.first_sign_violation}")
        if report.note:
            print(f"  note: {report.note}")
    if args.p == 2 and report.first_sign_violation is not None:
        return 1  # would contradict the proved p = 2 case
    return 0


# --------------------------------------------------------------------------
# bench


def _random_disk_rationals(rng: random.Random, count: int, denom: int = 64):
    """Seeded rational points with |z| <= 0.9 (rejection sampling)."""
    limit = (9 * denom // 10) ** 2
    pts = []
    while len(pts) < count:
        a = rng.randint(-denom, denom)
        b = rng.randint(-denom, denom)
        if a * a + b * b <= limit:
            pts.append((Fraction(a, denom), Fraction(b, denom)))
    return pts


def cmd_bench(args) -> int:
    if args.n < 2:
        raise ChebsqrtError("bench needs n >= 2 (no decomposition terms below that)")
    if args.points < 1 or args.reps < 1:
        raise ChebsqrtError("bench needs --points >= 1 and --reps >= 1")
    if args.points * args.reps > MAX_BENCH_EVALS:
        raise ChebsqrtError(f"--points x --reps exceeds the bench cap {MAX_BENCH_EVALS}")
    prec = args.prec
    f = v_iterate(args.n)  # refuses an n past the degree cap before a point is drawn
    rng = random.Random(args.seed)
    pts = _random_disk_rationals(rng, args.points)
    pf = decompose(args.n, prec)
    work = _horner_bits(f, prec)
    ev = _FloatEvaluator(f, work)
    with workprec(work):  # pf.eval sets its own precision
        zs = [mpc(*_rounded(*z)) for z in pts]
        # the strategies in row order; the first is exact, the others' reference
        strategies = {
            "exact-horner": lambda: [eval_ratfun_complex(f, re, im) for re, im in pts],
            "bigfloat-horner": lambda: [ev(z) for z in zs],
            "partial-fraction": lambda: [pf.eval(z) for z in zs],
        }
        timed = []
        for name, run in strategies.items():
            t0 = time.perf_counter()
            for _ in range(args.reps):
                vals = run()
            timed.append((name, time.perf_counter() - t0, vals))
        refs = [mpc(*_rounded(*v)) for v in timed[0][2]]
        rows = [(name, t, max(abs(a - b) for a, b in zip(vals, refs)) if i else mpf(0))
                for i, (name, t, vals) in enumerate(timed)]
        tol = _slack(prec)
    if args.format == "json":
        print(json.dumps({
            "n": args.n, "points": args.points, "reps": args.reps, "seed": args.seed,
            "precision_bits": prec, "tolerance": _float_str(tol, 53),
            "rows": [{"strategy": s, "seconds": round(t, 6),
                      "max_deviation": _float_str(d, 53)} for s, t, d in rows],
        }))
    elif args.format == "csv":
        print("strategy,points,reps,seconds,max_deviation")
        for s, t, d in rows:
            print(f"{s},{args.points},{args.reps},{t:.6f},{_float_str(d, 53)}")
    else:
        print(f"bench: n={args.n} points={args.points} reps={args.reps} seed={args.seed}")
        for s, t, d in rows:
            print(f"  {s:<18} {t:10.4f} s   max deviation {_float_str(d, 53)}")
    return 1 if max(d for _, _, d in rows) > tol else 0


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebsqrt",
        description="Exact rational approximants of sqrt(1 - z) and their checks",
        allow_abbrev=False,
    )
    parser.add_argument("--prec", type=int,
                        default=os.environ.get("PREC_BITS", str(DEFAULT_PREC)),
                        help="working precision in bits (env PREC_BITS)")
    parser.add_argument("--format", choices=("json", "csv", "human"), default="human")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed for bench")

    # global flags are accepted after the subcommand too; values given there win
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prec", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "csv", "human"),
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    # no abbreviations, here or above: --p must not pass for --prec
    c = sub.add_parser("coeffs", parents=[common], allow_abbrev=False,
                       help="exact series coefficients of an iterate")
    c.add_argument("--scheme", choices=("v", "newton", "halley"), required=True)
    c.add_argument("--p", type=int)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--M", type=int, required=True)
    c.set_defaults(func=cmd_coeffs)

    d = sub.add_parser("decompose", parents=[common], allow_abbrev=False,
                       help="partial-fraction data of a v-iterate")
    d.add_argument("--n", type=int, required=True)
    d.set_defaults(func=cmd_decompose)

    e = sub.add_parser("eval", parents=[common], allow_abbrev=False,
                       help="evaluate an iterate at a point")
    e.add_argument("--scheme", choices=("v", "newton", "halley"), required=True)
    e.add_argument("--p", type=int)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--at", help="rational point, e.g. 1/2 (exact evaluation)")
    e.add_argument("--at-re", help="real part of a complex point (decimal)")
    e.add_argument("--at-im", help="imaginary part of a complex point (decimal)")
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", parents=[common], allow_abbrev=False,
                       help="run identity/bound checks, JSON lines out")
    v.add_argument("--all", action="store_true")
    v.add_argument("--check", help="run a single named check")
    v.add_argument("--n-max", type=int, default=16)
    s = v.add_argument_group("selectors", argument_default=argparse.SUPPRESS)
    s.add_argument("--n", type=int)
    s.add_argument("--M", type=int)
    s.add_argument("--k", type=int)
    s.add_argument("--scheme", choices=("v", "newton", "halley"))
    s.add_argument("--grid-radius", type=float)
    s.add_argument("--grid-radial", type=int)
    s.add_argument("--grid-angular", type=int)
    s.add_argument("--compact-radius", type=float)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("explore-guo", parents=[common], allow_abbrev=False,
                       help="sign-pattern report for p-th root iterates")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--scheme", choices=("newton", "halley"), required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--M", type=int, required=True)
    g.set_defaults(func=cmd_explore_guo)

    b = sub.add_parser("bench", parents=[common], allow_abbrev=False,
                       help="compare evaluation strategies")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--points", type=int, default=100)
    b.add_argument("--reps", type=int, default=1)
    b.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 64 <= args.prec <= MAX_PREC:
            raise ChebsqrtError(f"precision must be between 64 and {MAX_PREC} bits")
        if args.format == "csv" and args.command in ("eval", "verify", "explore-guo"):
            raise ChebsqrtError(f"{args.command} has no CSV form; use --format json or human")
        if args.command == "eval":
            if args.at is not None and (args.at_re is not None or args.at_im is not None):
                raise ChebsqrtError("eval takes --at or --at-re and --at-im, not both")
            if args.at is None and (args.at_re is None or args.at_im is None):
                raise ChebsqrtError("eval needs --at or both --at-re and --at-im")
        return args.func(args)
    except ChebsqrtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
