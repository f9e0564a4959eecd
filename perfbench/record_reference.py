"""Record the outputs the benchmark's gates compare against.

Writes perfbench/reference.json: one digest per iterate the build workload
constructs, and the (name, params, status) row of every verify-all result.
Run it only when the program's outputs are meant to change:

    python3 perfbench/record_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> None:
    res = workloads.PassResult()
    built = workloads.build_timed(None, res)
    ran = workloads.verify_timed(None, res)
    if ran["code"] != 0:
        sys.exit(f"verify-all exited with {ran['code']}; not recording")
    reference = {
        "build_digests": workloads.build_digests(built),
        "verify_rows": workloads.verify_rows(ran["lines"]),
    }
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
