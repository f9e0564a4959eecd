"""One pass of one workload, in a fresh interpreter started by run.py.

Prints one JSON object on stdout: setup and timed-phase durations, the
duration of every operation, failures, gate notes, the environment stamp
and, for a traced pass, the per-layer metrics.  An untraced pass also
samples the machine's speed (calibrate.py) after setup and between
operations, outside every measured interval, and reports its times in
reference seconds as well.  A fresh process per pass
keeps the module-level memo of the v chain from carrying over.

    python3 -I perfbench/worker.py --workload build --seed 1 --trace 0 \
        --spawned-at <time.monotonic() of the parent just before spawning>
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path[:0] = [str(SRC), str(HERE)]
    import chebsqrt

    if Path(chebsqrt.__file__).resolve().parent != SRC / "chebsqrt":
        print(f"chebsqrt imported from {chebsqrt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import mpmath

    import calibrate
    import spans
    import workloads

    setup, timed, check = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    restore = spans.install(tracer) if tracer else None
    state = setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at
    speed = None if args.trace else calibrate.setup_speed()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_s * calibrate.scale(speed)}))
        return 0

    res = workloads.PassResult(calibrated=speed is not None)
    if tracer:
        tracer.in_timed_phase = True
    else:
        res.mark(speed)
    t0 = time.perf_counter()
    outputs = timed(state, res)
    # the kernel samples taken between operations are not the workload's time
    wall_s = time.perf_counter() - t0 - sum(s for _, s in res.cal_marks[1:])
    if tracer:
        tracer.in_timed_phase = False
        restore()
    else:
        res.mark(calibrate.sample())
    check(state, outputs, workloads.load_reference(), res)

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_seconds": res.op_seconds,
        "attempted": res.attempted,
        "failed_ops": sorted(res.failed_ops),
        "mismatches": res.mismatches,
        "info": res.info,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stamp": {
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed,
        },
    }
    if not tracer:
        exponent = workloads.SPEED_EXPONENT[args.workload]
        report.update({
            "setup_ref_s": setup_s * calibrate.scale(speed),
            "op_ref_seconds": calibrate.ref_times(res.op_seconds, res.cal_marks, exponent),
            "between_ref_s": (wall_s - sum(res.op_seconds))
            * calibrate.scale(statistics.median(s for _, s in res.cal_marks), exponent),
            "cal_samples": len(res.cal_marks),
        })
    if tracer:
        layers = spans.layer_metrics(tracer)
        # margins are measured by the eval workload only; 0 elsewhere
        layers.update({workloads.margin_name(layer, n): 0.0
                       for n in workloads.EVAL_NS for layer in workloads.MARGIN_LAYERS})
        layers.update(res.info.get("margins_bits", {}))
        report["layers"] = layers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
