"""Compare saved outputs of run.py from two commits, metric by metric.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 42 --trace 0 >> base.txt
    ...                                                                      >> new.txt
    python3 perfbench/compare.py base.txt new.txt

Each file holds the stdout of one or more runs.  Runs are grouped by
workload; for each metric, gated or not, the medians of both sides and
their ratio are printed.  Outputs whose environment stamps (Python, mpmath and mpmath's
arithmetic backend) differ are refused: gmpy2 against the pure-python
backend changes every timing.
"""

import argparse
import json
import statistics
import sys

STAMP_KEYS = ("python", "mpmath", "backend")


def load(path: str) -> tuple:
    """({workload: {metric: [values]}}, set of stamps) from one output file."""
    runs, stamps, info = {}, set(), None
    with open(path) as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            row = json.loads(line)
            if "stamp" in row:
                info = row
                stamps.add(tuple(row["stamp"][k] for k in STAMP_KEYS))
            elif "metrics" in row and info is not None:
                metrics = runs.setdefault(info["workload"], {})
                # an untraced run lists every end-to-end metric on its info line
                for name, m in info.get("end_to_end", row["metrics"]).items():
                    metrics.setdefault(name, []).append(m["value"])
                info = None
    return runs, stamps


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()
    base, base_stamps = load(args.base)
    new, new_stamps = load(args.new)
    stamps = base_stamps | new_stamps
    if len(stamps) > 1:
        print(f"refused: results come from different environments "
              f"{sorted(stamps)} (fields {', '.join(STAMP_KEYS)})", file=sys.stderr)
        return 2
    for workload in sorted(set(base) & set(new)):
        print(workload)
        for name in base[workload]:
            if name not in new[workload]:
                continue
            b = statistics.median(base[workload][name])
            n = statistics.median(new[workload][name])
            ratio = f"{n / b:8.3f}" if b else "       -"
            print(f"  {name:<44} {b:14.6g} {n:14.6g} {ratio}"
                  f"   ({len(base[workload][name])} vs {len(new[workload][name])} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
