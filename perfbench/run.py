"""Benchmark entry point for the generate -> cross-validate pipeline.

    python3 perfbench/run.py --workload desk-r2 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; nothing needs to be installed or
built.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``cv_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones.  The same
object is also written to ``perfbench/out/<workload>-seed<n>.json`` (or
``.trace.json``), so traces sit beside, not inside, the end-to-end results.

Every measurement runs in a fresh child process (``perfbench/measure.py``):
set-up is then timed cold from the start of that process, and its peak RSS
belongs to the workload alone.  A traced run uses three children, one per
part (see measure.py), so no part inherits another's garbage.  The children
get one BLAS thread each, which keeps run-to-run spread on a shared 2-core
machine small; see the README for the figures.

``BENCHMARK.json`` lists ``desk-r2`` and ``full-greedy``; ``desk-r2-act``
runs by name the same way but is left out of that list (see the README).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKLOADS = ("desk-r2", "desk-r2-act", "full-greedy")
TRACE_PARTS = ("spans", "layers", "threads2")
TOTAL_BUDGET_S = 175.0

# Thread settings every child sees; anything else is inherited unchanged.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NECURVE_THREADS": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_child(args: argparse.Namespace, part: str, deadline: float) -> dict:
    """Runs one measuring child and returns its parsed JSON line.

    Raises RuntimeError when the child fails, times out or prints no result.
    """
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise RuntimeError(f"no time left for part {part!r}")
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--part", part,
        "--t0", repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=remaining,
            env={**os.environ, **CHILD_ENV},
        )
    except subprocess.TimeoutExpired as err:
        # subprocess.run has killed the child and waited for it
        raise RuntimeError(f"part {part!r} exceeded {remaining:.0f} s") from err
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        raise RuntimeError(f"part {part!r} exited with code {done.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + TOTAL_BUDGET_S
    parts = TRACE_PARTS if args.trace else ("e2e",)
    try:
        pieces = [run_child(args, part, deadline) for part in parts]
    except RuntimeError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    metrics: dict = {}
    for piece in pieces:
        overlap = set(metrics) & set(piece["metrics"])
        if overlap:
            print(f"benchmark failed: metrics reported twice: {overlap}", file=sys.stderr)
            return 1
        metrics.update(piece["metrics"])
    # the workload's own operations run in the first part; the others only
    # measure layers and add no operations
    result = {
        "correct": all(piece["correct"] for piece in pieces),
        "attempted": pieces[0]["attempted"],
        "failed": pieces[0]["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    suffix = ".trace.json" if args.trace else ".json"
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}{suffix}", "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
