"""Shared machinery for the benchmark workloads.

Each workload module defines a :class:`Workload`: a ``setup`` that builds
its inputs from the seed, a timed ``run`` that reports the end-to-end
metrics, and a ``trace`` that reports the per-layer metrics.  This module
holds what they share: timing and quantile helpers, operation accounting,
the host fingerprint and resolved configuration, the span log that feeds
the Chrome trace, and process teardown.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable

#: The checkout root: the benchmark reads and writes nothing outside it.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for journals, caches, traces and reports (git-ignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Worker, rank and lint-job count: the usable cores, as the paper's
#: speedup claims are about real cores.
NPROC = os.cpu_count() or 1

#: Environment knobs the runtime reads; each is recorded with its source.
ENV_KNOBS = (
    "REPRO_MPI_BACKEND",
    "REPRO_KERNEL",
    "REPRO_COLL_ALGO",
    "REPRO_COLL_PLATFORM",
    "REPRO_SHM_THRESHOLD",
    "REPRO_MPI_BATCH_BYTES",
    "REPRO_MP_START_METHOD",
    "OMP_BACKEND",
    "OMP_NUM_THREADS",
    "OMP_SCHEDULE",
)


#: Seconds one :func:`_calibration` takes on the 2-vCPU Xeon (KVM) host the
#: benchmark was sized on, in that host's fast state.  Result-line times
#: are reported at this speed; see :class:`HostSpeed`.
REFERENCE_UNIT_S = 0.0041


class CheckFailed(AssertionError):
    """A workload output did not match its reference."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of raw samples (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Operation accounting and timing
# ---------------------------------------------------------------------------

@dataclass
class Ops:
    """Operations attempted and failed, with the first failure kept."""

    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def call(self, label: str, fn: Callable[[], Any], check: Callable[[Any], None]) -> tuple[float, Any]:
        """Time ``fn()``, then run ``check`` on its result outside the timing.

        Returns ``(seconds, result)``; a raise or a failed check counts
        the operation as failed and yields ``(nan, None)``.
        """
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
            check(result)
        except Exception as exc:  # a benchmark must report, not die, per op
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return math.nan, None
        return elapsed, result

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = message


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def repeat_for(seconds: float, min_rounds: int, round_fn: Callable[[int], None]) -> int:
    """Call ``round_fn(i)`` until ``seconds`` have passed and at least
    ``min_rounds`` rounds ran; returns the number of rounds."""
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        round_fn(rounds)
        rounds += 1
    return rounds


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

def _calibration() -> tuple[int, float, int]:
    """A fixed slice of the benchmark's own pure-Python work, about 4 ms:
    a string DP table, a floating-point loop and dictionary updates, the
    kinds of work the workloads do.  It calls no program code, so no
    change to the program moves it."""
    a, b = "ACDEFGHIKLMNPQRSTVWY" * 3, "MKTAYIAKQRQISFVKSHFSRQ" * 2
    prev = [0] * (len(b) + 1)
    for ca in a:
        cur = [0]
        for j, cb in enumerate(b):
            cur.append(prev[j] + 1 if ca == cb else max(prev[j + 1], cur[j]))
        prev = cur
    total = 0.0
    for i in range(20_000):
        x = i * 1e-4
        total += math.sqrt(4.0 - x * x)
    counts: dict[str, int] = {}
    for i in range(5_000):
        key = "k%d" % (i % 997)
        counts[key] = counts.get(key, 0) + len(key)
    return prev[-1], total, len(counts)


class HostSpeed:
    """Scales times taken on a shared host to the host's reference speed.

    The host the benchmark was sized on switches, for seconds to minutes
    at a time, between speed states up to about 1.9x apart, and a
    statistic taken inside one run cannot remove a state that outlasts
    it.  So :func:`_calibration` is timed after every timed interval of
    the run, and the run's times are scaled by ``REFERENCE_UNIT_S`` over
    the median calibration.  A program change moves the intervals, never
    the calibration.
    """

    def __init__(self) -> None:
        self.units: list[float] = []

    def _unit(self) -> float:
        # A collection of the program's objects is not host speed.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _calibration()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def calibrate(self) -> None:
        self.units.append(self._unit())

    def factor(self) -> float:
        """Reference speed over the run's speed: times multiply by it."""
        return REFERENCE_UNIT_S / median(self.units)


#: The run's one calibration series: a run is one process.
SPEED = HostSpeed()


# ---------------------------------------------------------------------------
# Spans recorded by the benchmark around calls into each layer
# ---------------------------------------------------------------------------

@dataclass
class SpanLog:
    """Benchmark-side spans: (name, layer, t0, t1) on the monotonic clock,
    the clock ``repro.obs`` events use, so both land on one timeline."""

    spans: list[tuple[str, str, float, float]] = field(default_factory=list)

    def timed(self, name: str, layer: str, fn: Callable[[], Any]) -> tuple[float, Any]:
        t0 = time.monotonic()
        result = fn()
        t1 = time.monotonic()
        self.spans.append((name, layer, t0, t1))
        return t1 - t0, result


def write_trace(workload: str, events: list, spans: SpanLog, dropped: int = 0) -> Path:
    """Write the run's Chrome trace: runtime events plus benchmark spans."""
    from repro.obs import build_profile, write_chrome_trace
    from repro.obs.profile import Lane, Span

    profile = build_profile(events, dropped=dropped)
    lane_id = len(profile.lanes)
    profile.lanes.append(Lane(kind="main", index=0, label="benchmark"))
    for name, layer, t0, t1 in spans.spans:
        profile.spans.append(Span(lane=lane_id, name=name, cat=layer, t0=t0, t1=t1))
    if spans.spans:
        first = min(t0 for _n, _l, t0, _t1 in spans.spans)
        profile.t_min = min(profile.t_min, first) if events else first
    return write_chrome_trace(OUT_DIR / f"trace-{workload}.json", profile).relative_to(ROOT)


# ---------------------------------------------------------------------------
# Host fingerprint and resolved configuration
# ---------------------------------------------------------------------------

def fingerprint() -> dict[str, Any]:
    """What makes two results comparable: cores, Python, NumPy, start method."""
    import numpy

    from repro.openmp.backends import _mp_context

    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": _mp_context().get_start_method(),
    }


def resolved_config(pinned: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Every setting in force, each with where its value came from.

    ``pinned`` holds what the workload passes explicitly (source
    ``benchmark``); environment knobs are ``env`` when set, else
    ``default`` with the runtime default value.
    """
    from repro.openmp.env import get_config

    omp = get_config()
    defaults = {
        "REPRO_MPI_BACKEND": "threads",
        "REPRO_KERNEL": "loop",
        "REPRO_COLL_ALGO": "auto",
        "REPRO_COLL_PLATFORM": "laptop",
        "REPRO_SHM_THRESHOLD": None,
        "REPRO_MPI_BATCH_BYTES": None,
        "REPRO_MP_START_METHOD": fingerprint()["start_method"],
        "OMP_BACKEND": omp.backend,
        "OMP_NUM_THREADS": omp.num_threads,
        "OMP_SCHEDULE": omp.schedule,
    }
    config: dict[str, dict[str, Any]] = {}
    for key in ENV_KNOBS:
        if key in os.environ:
            config[key] = {"value": os.environ[key], "source": "env"}
        else:
            config[key] = {"value": defaults[key], "source": "default"}
    for key, value in pinned.items():
        config[key] = {"value": value, "source": "benchmark"}
    return config


# ---------------------------------------------------------------------------
# Workloads and their results
# ---------------------------------------------------------------------------

@dataclass
class Result:
    """One run's outcome.

    ``summary`` holds the metrics every workload reports under the same
    names (those in ``BENCHMARK.json``, bar ``setup_s``, which the entry
    point adds); ``metrics`` the workload's own named metrics.  Both map
    ``name -> (value, unit)``.
    """

    summary: dict[str, tuple[float, str]]
    metrics: dict[str, tuple[float, str]]
    ops: Ops
    details: dict[str, Any] = field(default_factory=dict)


def layer_summary(metrics: dict[str, tuple[float, str]], workload: str,
                  compute_s: float, overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics every workload reports: its traced-run
    overhead, and the time per round spent in its compute layer and in
    the coordination around it."""
    return {
        "trace_overhead": metrics[f"obs.{workload}.trace_overhead"],
        "compute_ms": (compute_s * 1e3, "ms"),
        "overhead_ms": (overhead_s * 1e3, "ms"),
    }


@dataclass(frozen=True)
class Workload:
    name: str
    #: setup(seed, size) -> context with ``setup_times`` (seconds per
    #: set-up; the run sets up afresh between rounds) and ``close()``
    setup: Callable[[int, str], Any]
    #: run(ctx, seconds) -> Result with the end-to-end metrics
    run: Callable[[Any, float], Result]
    #: trace(ctx, seconds) -> Result with the per-layer metrics
    trace: Callable[[Any, float], Result]
    #: settings the workload passes explicitly
    pinned: dict[str, Any] = field(default_factory=dict)


def scratch_dir(prefix: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def stop_workers() -> None:
    """Stop the OpenMP process pool and wait for every child to exit."""
    from repro.openmp import backends

    pool = backends._pool
    if pool is not None:
        pool.shutdown(wait=True)
    backends.shutdown_pool()
    for child in multiprocessing.active_children():
        child.join(timeout=10)
        if child.is_alive():
            child.terminate()
            child.join(timeout=5)


def boot_pool(workers: int) -> None:
    """Fork the persistent OpenMP pool and run one task on every worker."""
    from repro.openmp import run_chunks

    run_chunks(_noop_chunk, [(i, i + 1) for i in range(workers)], workers=workers, backend="processes")


def _noop_chunk(lo: int, hi: int) -> int:
    return hi - lo


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
