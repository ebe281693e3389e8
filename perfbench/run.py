"""Benchmark entry point.

    python3 perfbench/run.py --workload study_coarse --seed 1 --seconds 25 --trace 0

Runs one workload from the checkout's ``src/`` tree.  ``--trace 0`` times
the workload and reports its end-to-end metrics; ``--trace 1`` makes the
separate traced run and reports the per-layer metrics.  The last line of
standard output is the result object: ``correct``, ``attempted``,
``failed`` and ``metrics``; its metrics are the ones every workload
reports under the same names, as ``BENCHMARK.json`` lists them.  The line
before it is the full report, which adds the workload's own named
metrics, the host fingerprint, the resolved configuration, the corpus
hash and per-workload details; ``--out FILE`` also writes it to a file for
``perfbench/compare.py``.  Exit status: 0 when every check passed, 1 when
a correctness check failed, 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load_workloads() -> dict:
    import course_serve
    import pdclint_corpus
    import spmd_fine
    import study_coarse

    return {m.WORKLOAD.name: m.WORKLOAD for m in (study_coarse, spmd_fine, course_serve, pdclint_corpus)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--record-findings", action="store_true",
                        help="record the corpus's current lint findings as pdclint_corpus's seed set")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import REFERENCE_UNIT_S, SPEED, fingerprint, resolved_config, stop_workers

    workloads = _load_workloads()
    if args.record_findings:
        import pdclint_corpus

        pdclint_corpus.write_expected()
        return 0
    workload = workloads.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        ctx = workload.setup(args.seed, args.size)
        try:
            result = (workload.trace if args.trace else workload.run)(ctx, args.seconds)
        finally:
            ctx.close()
    finally:
        stop_workers()
    setup_s = median(ctx.setup_times)
    if not args.trace:
        # The result line's times are at the reference host speed.
        result.metrics["setup_s"] = result.summary["setup_s"] = (setup_s, "s")
        scale = SPEED.factor()
        result.summary = {name: (value * scale, unit) for name, (value, unit) in result.summary.items()}

    # A metric with no sample left (every attempt failed) is left out.
    def finite(named: dict) -> dict:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in sorted(named.items()) if math.isfinite(value)}

    metrics = finite(result.metrics)
    summary = finite(result.summary)
    correct = result.ops.failed == 0 and len(summary) == len(result.summary)
    if len(summary) != len(result.summary):
        print(f"no sample for {sorted(set(result.summary) - set(summary))}", file=sys.stderr)
    report = {
        "workload": workload.name,
        "why": next(w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
                    if w["name"] == workload.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": bool(args.trace),
        "fingerprint": fingerprint(),
        "config": resolved_config(workload.pinned),
        "wall_s": time.perf_counter() - started,
        "setup_s": setup_s,
        "setup_samples": len(ctx.setup_times),
        "host_speed": {"reference_unit_s": REFERENCE_UNIT_S, "calibrations": len(SPEED.units),
                       "median_unit_s": median(SPEED.units)},
        "first_error": result.ops.first_error,
        "details": result.details,
        "metrics": metrics,
        "summary": summary,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True))
    if result.ops.first_error:
        print(f"check failed: {result.ops.first_error}", file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": summary,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
