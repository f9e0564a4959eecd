"""Seeded, layered benchmark of chebsqrt.

    python3 perfbench/run.py --workload {build,eval,verify-all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Every pass of the workload
runs in a fresh interpreter, one at a time, single-threaded.  Setup-only
interpreters are started first to give setup_s more samples; then passes
repeat while the next one is expected to end within ``--seconds``.  The
metrics describe a typical pass, from medians over the passes.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, with
trace_overhead = traced wall_s / untraced wall_s.  The last line of stdout
is {"correct", "attempted", "failed", "metrics"} with the GATED end-to-end
metrics; the line before it holds all of them, the environment stamp, the
tail percentile, the float margins and the first mismatches.  End-to-end
times are in reference seconds: each is scaled by the machine's speed at the
time, sampled with calibrate.py, and the line before the result also gives
the unscaled medians.  "attempted"
and "failed" count the workload's distinct operations once (see
workloads.py), so they depend neither on the seed nor on how many passes fit
in --seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "eval", "verify-all")
SETUP_PROBES = 5  # at least this many setup-only interpreters,
SETUP_SHARE = 0.1  # and more until this share of --seconds is spent on them
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many operations above it
RUN_LIMIT_S = 170  # a run must end within 180 s
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB", "fail_frac": "ratio"}
# The end-to-end metrics of the result line (BENCHMARK.json's end_to_end).
# The others go on the line before it: op_p50_ms and op_tail_ms follow single
# operations, which machine-speed drift moves by 20-50 % between runs, and
# fail_frac is 0 wherever nothing fails.
GATED = ("wall_s", "peak_rss_mb", "setup_s")
LAYER_UNITS = {"calls": "count", "timed_calls": "count", "terms": "count",
               "max_degree": "count", "s": "s", "self_s": "s", "useful_frac": "ratio",
               "fail_frac": "ratio", "trace_overhead": "ratio", "max_coeff_bits": "bits"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    return "bits" if ".margin_bits." in name else LAYER_UNITS[last]


class PassFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, trace: int, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise PassFailed(f"pass exceeded {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail(sorted_ops: list) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND values above it."""
    m = len(sorted_ops)
    i = max(m - TAIL_BEYOND - 1, 0)
    return sorted_ops[i], 100.0 * (i + 1) / m


def end_to_end(passes: list, setups: list) -> dict:
    """The metrics of a typical pass: medians over passes, which share inputs.

    Times are in reference seconds (calibrate.py).  Each operation's time is
    its median over the passes, and wall_s sums those plus the median time
    spent between operations.
    """
    med = statistics.median
    ops = [med(times) for times in zip(*(p["op_ref_seconds"] for p in passes))]
    between = med(p["between_ref_s"] for p in passes)
    ops.sort()
    return {
        "setup_s": med(setups),
        "wall_s": sum(ops) + between,
        "op_p50_ms": med(ops) * 1e3,
        "op_tail_ms": tail(ops)[0] * 1e3,
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: list, untraced: list) -> dict:
    med = statistics.median
    out = {name: med(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["trace_overhead"] = med(p["wall_s"] for p in traced) / med(p["wall_s"] for p in untraced)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "chebsqrt" / "__init__.py").is_file():
        print(f"no chebsqrt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()

    def left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    try:
        setups = []
        while not args.trace and (len(setups) < SETUP_PROBES
                                  or time.monotonic() - start < SETUP_SHARE * args.seconds):
            setups.append(spawn(args.workload, args.seed, 0, True, left()))
        passes = {0: [], 1: []}
        mode, longest = 0, 0.0
        # start a pass only if it should end within --seconds (but run at least one)
        while not passes[args.trace] or (
                time.monotonic() - start + longest <= args.seconds):
            began = time.monotonic()
            passes[mode].append(spawn(args.workload, args.seed, mode, False, left()))
            longest = max(longest, time.monotonic() - began)
            if args.trace:
                mode = 1 - mode
    except PassFailed as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    done = passes[0] + passes[1]
    stamps = {json.dumps(p["stamp"], sort_keys=True) for p in done}
    if len(stamps) != 1:
        print(f"passes ran under different environments: {stamps}", file=sys.stderr)
        return 1
    # Every pass runs the same operations on the same inputs, so the counts
    # are those of the distinct operations, however many passes fit in the run.
    if len({p["attempted"] for p in done}) != 1:
        print("passes attempted different operations", file=sys.stderr)
        return 1
    attempted = done[0]["attempted"]
    failed = min(len({op for p in done for op in p["failed_ops"]}), attempted)
    mismatches = list(dict.fromkeys(m for p in done for m in p["mismatches"]))
    ops = len(done[0]["op_seconds"])
    info = {
        "workload": args.workload,
        "stamp": done[0]["stamp"],
        "passes": len(passes[0]), "traced_passes": len(passes[1]),
        "setup_samples": len(setups) + len(passes[0]),
        "ops_per_pass": ops,
        "op_tail_percentile": round(tail(list(range(ops)))[1], 2),
        "op_tail_beyond": TAIL_BEYOND,
        "attempted": attempted, "failed": failed,
        "mismatches": mismatches[:20],
        **done[0]["info"],
    }
    if args.trace:
        values = per_layer(passes[1], passes[0])
        values["fail_frac"] = failed / attempted
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        setups += passes[0]
        values = end_to_end(passes[0], [p["setup_ref_s"] for p in setups])
        values["fail_frac"] = failed / attempted
        info["end_to_end"] = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        info["unscaled_s"] = {  # plain seconds of this machine at this time
            "setup_s": statistics.median(p["setup_s"] for p in setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes[0]),
        }
        info["cal_samples_per_pass"] = passes[0][0]["cal_samples"]
        metrics = {name: info["end_to_end"][name] for name in GATED}
    print(json.dumps(info))
    print(json.dumps({"correct": not mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
