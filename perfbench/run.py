#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-writes --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed correctness check prints no metrics
and exits 1; a missing program exits 2.  Scratch files (process-cluster
data directories, span dumps) go to ``.perfbench_run/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

WORKLOADS = ("sim-writes", "proc-durable-writes", "tcp-read-mostly")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {root / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

    from perfbench import proc_durable_writes, sim_writes, tcp_read_mostly
    from perfbench.measure import CheckFailed

    workload = {
        "sim-writes": sim_writes,
        "proc-durable-writes": proc_durable_writes,
        "tcp-read-mostly": tcp_read_mostly,
    }[args.workload]
    outdir = root / ".perfbench_run"
    outdir.mkdir(exist_ok=True)
    try:
        report = workload.run(args.seed, args.seconds, bool(args.trace), outdir)
    except CheckFailed as exc:
        print(f"CHECK FAILED ({args.workload}, seed {args.seed}): {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in report.notes:
        print(f"  {note}")
    report.info["failed_frac"] = (report.failed / max(report.attempted, 1), "fraction")
    for name, (value, unit) in {**report.metrics, **report.info}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
