"""``study_coarse``: the shared-memory lab's closing benchmarking study.

Integration (loop kernel), drug design, heat (long rod, few steps) and
forest fire, each run sequentially, on the ``threads`` backend and on the
``processes`` backend with one worker per core.  Chunks compute for tens
of milliseconds, so kernel compute in ``repro.exemplars`` dominates and
pool dispatch is a small share: kernel gains and the paper's speedup
claim show here, and a dispatch-only change should barely move it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable

import numpy as np

from common import (
    NPROC,
    SPEED,
    Ops,
    Result,
    SpanLog,
    Workload,
    boot_pool,
    layer_summary,
    repeat_for,
    require,
    stop_workers,
    write_trace,
)
from layers import BACKENDS, OmpProbe, omp_metrics

EXEMPLARS = ("integration", "drugdesign", "heat", "forestfire")
MODES = ("seq", "threads", "procs")

SIZES = {
    "full": {
        "trapezoids": 400_000,
        "ligands": 4_000,
        "ligand_chunk": 500,
        "rod": 1_000_000,
        "rod_steps": 16,
        "forest": 48,
        "fire_trials": 24,
        "fire_probs": None,
    },
    "tiny": {
        "trapezoids": 300_000,
        "ligands": 40,
        "ligand_chunk": 8,
        "rod": 1_000,
        "rod_steps": 4,
        "forest": 10,
        "fire_trials": 4,
        "fire_probs": (0.3, 0.6),
    },
}

#: Bytes a heat cell update reads and writes: three float64 loads, one store.
HEAT_BYTES_PER_UPDATE = 32


@dataclass
class Case:
    exemplar: str
    mode: str
    fn: Callable[[], Any]


class Study:
    """Inputs and callables for one seed and size."""

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.p = SIZES[size]
        self.workers = NPROC
        self.reference: dict[str, Any] = {}
        self.setup_times: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Set up afresh: generate the inputs and boot the worker pool."""
        from repro.exemplars import DEFAULT_PROBS, DEFAULT_PROTEIN, generate_ligands

        stop_workers()
        t0 = time.perf_counter()
        p = self.p
        self.ligands = generate_ligands(p["ligands"], max_len=24, seed=self.seed)
        self.fire_probs = p["fire_probs"] or DEFAULT_PROBS
        self.ops = {
            "integration": p["trapezoids"],
            "drugdesign": sum(len(lig) for lig in self.ligands) * len(DEFAULT_PROTEIN),
            "heat": (p["rod"] - 2) * p["rod_steps"],
        }
        boot_pool(self.workers)
        self.setup_times.append(time.perf_counter() - t0)
        SPEED.calibrate()

    def close(self) -> None:
        stop_workers()

    def cases(self) -> list[Case]:
        from repro.exemplars import (
            fire_curve_omp,
            fire_curve_seq,
            heat_omp,
            heat_seq,
            integrate_omp,
            integrate_seq,
            quarter_circle,
            run_omp,
            run_seq,
        )

        p, w = self.p, self.workers
        out: list[Case] = []
        for mode in MODES:
            be = BACKENDS.get(mode)
            if be is None:
                out += [
                    Case("integration", mode, lambda: integrate_seq(quarter_circle, 0.0, 2.0, p["trapezoids"])),
                    Case("drugdesign", mode, lambda: run_seq(self.ligands).scores),
                    Case("heat", mode, lambda: heat_seq(p["rod"], p["rod_steps"])),
                    Case("forestfire", mode, lambda: fire_curve_seq(
                        self.fire_probs, trials=p["fire_trials"], size=p["forest"], seed=self.seed).points),
                ]
                continue
            out += [
                Case("integration", mode, lambda be=be: integrate_omp(
                    p["trapezoids"], num_threads=w, backend=be, kernel="loop")),
                Case("drugdesign", mode, lambda be=be: run_omp(
                    self.ligands, num_threads=w, chunk=p["ligand_chunk"], backend=be, kernel="loop").scores),
                Case("heat", mode, lambda be=be: heat_omp(
                    p["rod"], p["rod_steps"], num_threads=w, backend=be, kernel="vector")),
                Case("forestfire", mode, lambda be=be: fire_curve_omp(
                    self.fire_probs, trials=p["fire_trials"], size=p["forest"], seed=self.seed,
                    num_threads=w, backend=be, kernel="loop").points),
            ]
        # Interleave the modes per exemplar so slow drift hits all alike.
        return sorted(out, key=lambda c: EXEMPLARS.index(c.exemplar))

    def check(self, case: Case, result: Any) -> None:
        """Sequential results are the reference; parallel ones must match."""
        ref = self.reference.get(case.exemplar)
        if case.mode == "seq":
            if case.exemplar == "integration":
                require(abs(result - math.pi) < 1e-8, f"pi off by {result - math.pi:.3g}")
            if ref is not None:
                require(_equal(result, ref), f"{case.exemplar} seq result changed between rounds")
            self.reference[case.exemplar] = result
            return
        require(ref is not None, "sequential reference missing")
        if case.exemplar == "integration":
            require(abs(result - ref) < 1e-12, f"parallel pi off sequential by {result - ref:.3g}")
        else:
            require(_equal(result, ref), f"{case.exemplar} on {case.mode} differs from sequential")

    def fire_ops(self) -> int:
        """Cell visits: every burn step visits the whole forest."""
        ref = self.reference["forestfire"]
        steps = sum(round(pt.avg_iterations * pt.trials) for pt in ref)
        return steps * self.p["forest"] ** 2


def _equal(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def setup(seed: int, size: str) -> Study:
    return Study(seed, size)


def _round(study: Study, ops: Ops, samples: dict[tuple[str, str], list[float]], spans: SpanLog | None = None,
           calibrate: bool = False) -> float:
    """Every case once; returns the round's wall time.  With
    ``calibrate``, the host's speed is taken after each case."""
    t0 = time.perf_counter()
    for case in study.cases():
        label = f"{case.exemplar}/{case.mode}"
        fn = case.fn
        if spans is not None:
            fn = lambda fn=case.fn, label=label: spans.timed(label, "exemplars", fn)[1]
        elapsed, result = ops.call(label, fn, lambda r, case=case: study.check(case, r))
        if not math.isnan(elapsed):
            samples.setdefault((case.exemplar, case.mode), []).append(elapsed)
        if calibrate:
            SPEED.calibrate()
    return time.perf_counter() - t0


def run(study: Study, seconds: float) -> Result:
    ops = Ops()
    samples: dict[tuple[str, str], list[float]] = {}

    def one(i: int) -> None:
        if i:
            study.reset()
        _round(study, ops, samples, calibrate=True)

    rounds = repeat_for(seconds, 3, one)
    totals = {
        mode: sum(median(samples.get((x, mode), [math.nan])) for x in EXEMPLARS) for mode in MODES
    }
    metrics = {
        "seq_s": (totals["seq"], "s"),
        "threads_s": (totals["threads"], "s"),
        "procs_s": (totals["procs"], "s"),
        "speedup": (totals["seq"] / totals["procs"], "x"),
    }
    details = {
        "rounds": rounds,
        "speedup_bases": {"seq_s": totals["seq"], "procs_s": totals["procs"]},
        "median_s": {f"{x}.{m}": median(v) for (x, m), v in samples.items()},
    }
    # One study: every exemplar run all three ways.
    summary = {"latency_ms": (sum(totals.values()) * 1e3, "ms")}
    return Result(summary, metrics, ops, details)


def trace(study: Study, seconds: float) -> Result:
    """Alternate untraced and traced rounds.

    Kernel times come from the untraced rounds; the OpenMP layer metrics
    from the traced ones, which run under a recorder and the probe."""
    from repro.obs import record

    ops = Ops()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    samples: dict[tuple[str, str], list[float]] = {}
    probe = OmpProbe()
    events: list = []
    spans = SpanLog()
    dropped = 0

    def one(i: int) -> None:
        nonlocal dropped
        if i % 2 == 0:
            plain_walls.append(_round(study, ops, samples))
            return
        with record(capacity=1 << 18) as rec, probe:
            before = probe.excluded_s
            wall = _round(study, ops, {}, spans)
        traced_walls.append(wall - (probe.excluded_s - before))
        events.extend(rec.events())
        dropped += rec.dropped

    repeat_for(seconds, 2, one)
    metrics: dict[str, tuple[float, str]] = {}
    for x in EXEMPLARS:
        seq_s = median(samples[(x, "seq")])
        n_ops = study.fire_ops() if x == "forestfire" else study.ops[x]
        metrics[f"exemplars.{x}.seq_s"] = (seq_s, "s")
        metrics[f"exemplars.{x}.ops"] = (float(n_ops), "count")
        metrics[f"exemplars.{x}.ops_per_s"] = (n_ops / seq_s, "1/s")
    metrics["exemplars.heat.bytes_computed"] = (float(study.ops["heat"] * HEAT_BYTES_PER_UPDATE), "B")
    metrics.update(omp_metrics(probe, events, study.workers, len(traced_walls)))
    metrics["obs.study_coarse.trace_overhead"] = (median(traced_walls) / median(plain_walls), "ratio")
    path = write_trace("study_coarse", events, spans, dropped)
    # Compute: the kernels run sequentially.  Overhead: pool loop time
    # not covered by any worker's chunk.
    summary = layer_summary(
        metrics, "study_coarse",
        compute_s=sum(metrics[f"exemplars.{x}.seq_s"][0] for x in EXEMPLARS),
        overhead_s=metrics["openmp.procs.dispatch_us"][0] * metrics["openmp.procs.chunks"][0] * 1e-6)
    return Result(summary, metrics, ops, {"chrome_trace": str(path), "dropped_events": dropped})


WORKLOAD = Workload(
    name="study_coarse",
    setup=setup,
    run=run,
    trace=trace,
    pinned={"workers": NPROC, "kernel.integration": "loop", "kernel.drugdesign": "loop",
            "kernel.heat": "vector", "kernel.forestfire": "loop", "OMP_BACKEND": "seq/threads/processes"},
)

