"""Record the outputs that ``run.py`` checks exactly, for a range of seeds.

    python3 perfbench/record_reference.py --workload paper-online --seeds 0-31

Merges ``{workload: {seed: {quantity: value}}}`` into ``reference.json``.
Only the deterministic batch workloads are recorded; re-record only when a
change is meant to alter the program's solutions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The same single BLAS thread as run.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import REFERENCE_PATH, WORKLOADS, reference  # noqa: E402

RECORDED = {
    "paper-online": lambda raw: raw,
    "wide-cell": lambda raw: {
        "offline_cost": float(raw.cost.total),
        "lower_bound": float(raw.lower_bound),
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RECORDED), required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    workload = WORKLOADS[args.workload]
    for seed in range(lo, hi + 1):
        values = RECORDED[args.workload](workload.run(workload.instance(seed)))
        merged = reference()
        merged.setdefault(args.workload, {})[str(seed)] = values
        REFERENCE_PATH.write_text(
            json.dumps(merged, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(args.workload, seed, values, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
