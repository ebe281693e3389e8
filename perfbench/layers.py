"""Per-layer accounting for the OpenMP and MPI runtimes.

The traced runs time calls into ``repro.openmp`` from the benchmark's own
code: :class:`OmpProbe` swaps timing wrappers in for the worksharing entry
points the exemplar modules bound at import (``parallel_for_chunks``,
``run_chunks``, ``parallel_region``) and restores them on exit.  The rest
comes from the events ``repro.obs`` already records: ``chunk_begin/end``
from pool workers, ``thread_begin/end`` and barriers from thread teams,
and the MPI ``send``/``coll_msg``/``recv``/``wait`` vocabulary.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from typing import Any

#: Metric-name key -> runtime backend name, and back.
BACKENDS = {"threads": "threads", "procs": "processes"}
BACKEND_KEYS = {name: key for key, name in BACKENDS.items()}


@dataclass
class LoopCall:
    backend: str  # "threads" | "procs"
    t0: float
    t1: float
    chunks: int
    pickled_bytes: int = 0


@dataclass
class OmpProbe:
    """Timing wrappers around the OpenMP worksharing entry points."""

    loops: list[LoopCall] = field(default_factory=list)
    #: per parallel_for_chunks call: (backend, wall s, s inside run_chunks)
    pfc: list[tuple[str, float, float]] = field(default_factory=list)
    #: seconds the probe spent on its own bookkeeping (kept out of walls)
    excluded_s: float = 0.0
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)
    _inner_s: float = 0.0

    def __enter__(self) -> "OmpProbe":
        from repro.exemplars import drugdesign, forestfire, heat, integration
        from repro.openmp import backends

        original_run = backends.run_chunks
        original_region = heat.parallel_region

        def run_chunks(kernel, ranges, *, workers, backend=None):
            be = BACKEND_KEYS[backends.resolve_backend(backend)]
            t0 = time.monotonic()
            results = original_run(kernel, ranges, workers=workers, backend=backend)
            t1 = time.monotonic()
            self._inner_s += t1 - t0
            call = LoopCall(be, t0, t1, len(ranges))
            if be == "procs":
                # What crosses the pool boundary: the task per chunk and
                # its result.  Computed here, not observed in transit.
                call.pickled_bytes = sum(
                    len(pickle.dumps((kernel, lo, hi))) for lo, hi in ranges
                ) + sum(len(pickle.dumps(r)) for r in results)
            self.loops.append(call)
            self.excluded_s += time.monotonic() - t1
            return results

        def parallel_region(body, num_threads=None, args=()):
            t0 = time.monotonic()
            out = original_region(body, num_threads=num_threads, args=args)
            t1 = time.monotonic()
            self.loops.append(LoopCall("threads", t0, t1, num_threads or 1))
            return out

        def wrap_pfc(original):
            def parallel_for_chunks(*args, **kwargs):
                be = BACKEND_KEYS[backends.resolve_backend(kwargs.get("backend"))]
                inner_before, excluded_before = self._inner_s, self.excluded_s
                t0 = time.monotonic()
                out = original(*args, **kwargs)
                # The probe's own pickling inside run_chunks is not the fold.
                wall = time.monotonic() - t0 - (self.excluded_s - excluded_before)
                self.pfc.append((be, wall, self._inner_s - inner_before))
                return out

            return parallel_for_chunks

        self._patch(backends, "run_chunks", run_chunks)
        self._patch(heat, "run_chunks", run_chunks)
        self._patch(heat, "parallel_region", parallel_region)
        for module in (integration, drugdesign, forestfire):
            self._patch(module, "parallel_for_chunks", wrap_pfc(module.parallel_for_chunks))
        return self

    def _patch(self, module: Any, name: str, value: Any) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def __exit__(self, *exc: Any) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


def _pair_spans(events: list, opener: str, closer: str) -> list[tuple[Any, float, float]]:
    """Match begin/end events per lane: [(lane_key, t0, t1)]."""
    open_at: dict[tuple, list[float]] = {}
    spans = []
    for ev in sorted(events, key=lambda e: e.ts):
        if ev.name == opener:
            open_at.setdefault(ev.lane_key(), []).append(ev.ts)
        elif ev.name == closer:
            stack = open_at.get(ev.lane_key())
            if stack:
                spans.append((ev.lane_key(), stack.pop(), ev.ts))
    return spans


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _within(t: float, call: LoopCall) -> bool:
    return call.t0 <= t <= call.t1


def omp_metrics(probe: OmpProbe, events: list, workers: int, rounds: int) -> dict[str, tuple[float, str]]:
    """``openmp.<be>.*`` per-layer metrics from the probe and the events.

    Counts and times are per traced round; the per-chunk dispatch time and
    the busy share are ratios and need no scaling.
    """
    chunk_spans = _pair_spans(events, "chunk_begin", "chunk_end")
    thread_spans = _pair_spans(events, "thread_begin", "thread_end")
    barrier_spans = _pair_spans(events, "barrier_enter", "barrier_exit")
    out: dict[str, tuple[float, str]] = {}
    for be in ("threads", "procs"):
        calls = [c for c in probe.loops if c.backend == be]
        if not calls:
            continue
        loop_s = sum(c.t1 - c.t0 for c in calls)
        chunks = sum(c.chunks for c in calls)
        prefix = f"openmp.{be}"
        if be == "procs":
            compute_s = uncovered_s = queue_wait_s = 0.0
            for call in calls:
                mine = [(t0, t1) for _lane, t0, t1 in chunk_spans if _within(t0, call)]
                compute_s += sum(t1 - t0 for t0, t1 in mine)
                uncovered_s += (call.t1 - call.t0) - _union(mine)
                queue_wait_s += sum(t0 - call.t0 for t0, _t1 in mine)
            out[f"{prefix}.dispatch_us"] = (uncovered_s / chunks * 1e6, "us")
            out[f"{prefix}.queue_wait_s"] = (queue_wait_s / rounds, "s")
            out[f"{prefix}.pickled_bytes"] = (sum(c.pickled_bytes for c in calls) / rounds, "B")
        else:
            compute_s = 0.0
            for call in calls:
                member = sum(t1 - t0 for _l, t0, t1 in thread_spans if _within(t0, call))
                waited = sum(t1 - t0 for _l, t0, t1 in barrier_spans if _within(t0, call))
                compute_s += member - waited
        # parallel_for_chunks folds its reduction after run_chunks returns.
        reduce_s = sum(wall - inner for b, wall, inner in probe.pfc if b == be)
        out[f"{prefix}.reduce_s"] = (reduce_s / rounds, "s")
        out[f"{prefix}.loops"] = (len(calls) / rounds, "count")
        out[f"{prefix}.chunks"] = (chunks / rounds, "count")
        out[f"{prefix}.loop_s"] = (loop_s / rounds, "s")
        out[f"{prefix}.compute_s"] = (compute_s / rounds, "s")
        out[f"{prefix}.busy_share"] = (compute_s / (loop_s * workers) if loop_s else 0.0, "share")
    return out


def mpi_metrics(events: list, prefix: str) -> dict[str, tuple[float, str]]:
    """Messages, bytes and blocked-receive time from MPI events."""
    messages = 0
    nbytes = 0
    for ev in events:
        if ev.source != "mpi":
            continue
        if ev.name == "send" and len(ev.args) >= 5:
            messages += 1
            nbytes += ev.args[4]
        elif ev.name == "coll_msg" and len(ev.args) >= 4:
            messages += 1
            nbytes += ev.args[3]
    mpi_events = [ev for ev in events if ev.source == "mpi"]
    waits = _pair_spans(mpi_events, "recv_enter", "recv_exit")
    waits += _pair_spans(mpi_events, "wait_enter", "wait_exit")
    return {
        f"{prefix}.messages": (float(messages), "count"),
        f"{prefix}.bytes": (float(nbytes), "B"),
        f"{prefix}.wait_s": (sum(t1 - t0 for _l, t0, t1 in waits), "s"),
    }
