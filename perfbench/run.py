"""Outside-in benchmark of the repro package.

    python3 perfbench/run.py --workload paper-online --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
Untraced (``--trace 0``) prints the end-to-end metrics, traced
(``--trace 1``) the per-layer metrics named in ``BENCHMARK.json``; see
``measure.py``. Each workload's last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 1 when an output check failed and 2 when the program cannot be
imported.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread, set before numpy loads: on a shared host a BLAS pool
# that spin-waits against other busy processes slows small matrix
# products by an order of magnitude, so timings would follow the load of
# whatever else runs there.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-online", "wide-cell", "serve-paced")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOADS + ("all",),
        help="'all' runs the three in turn, one result line each",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="default: the workload's own"
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="print one set-up time in seconds and exit (used for setup_s)",
    )
    args = parser.parse_args(argv)
    if args.setup_only and args.workload == "all":
        parser.error("--setup-only needs one workload")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.api  # noqa: F401
    except ImportError as exc:
        print(
            f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
            file=sys.stderr,
        )
        return 2
    from measure import measure, setup_only

    import_s = time.perf_counter() - _STARTED
    if args.setup_only:
        return setup_only(args, import_s=import_s)
    if args.workload != "all":
        return measure(args, import_s=import_s)
    codes = [
        measure(argparse.Namespace(**{**vars(args), "workload": name}), import_s=import_s)
        for name in WORKLOADS
    ]
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
