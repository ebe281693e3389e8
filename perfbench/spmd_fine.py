"""``spmd_fine``: coordination-bound runs on both backends at two workers/ranks.

OpenMP part: heat on a short rod with many steps, so every step is one
pool round trip.  MPI part: the MPI exemplars (``heat_mpi`` halo exchange,
``run_mpi_master_worker`` task farm, ``fire_curve_mpi`` gather) and a
verb suite: two-rank pingpong on the object path (small and 64 Ki-double
payloads) and on the buffer path (64 Ki doubles), ``sendrecv``, buffer
``Allreduce`` and ``Bcast``, and ``gather``.  Dispatch, pickling,
transport and waiting are nearly all the time; compute is near zero.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from statistics import median
from typing import Any, Callable, Iterator

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
from layers import BACKENDS, OmpProbe, mpi_metrics, omp_metrics

RANKS = 2
PARTS = ("omp_heat", "heat_mpi", "master_worker", "fire_mpi", "verbs")

SIZES = {
    "full": {
        "rod": 2_000, "rod_steps": 200, "mpi_rod": 2_000, "mpi_rod_steps": 100,
        "ligands": 100, "forest": 20, "fire_trials": 4,
        "count": 65_536, "small_iters": 200, "obj_iters": 10, "buf_iters": 40,
        "sendrecv_iters": 100, "coll_iters": 20, "gather_iters": 50, "race_iters": 20, "race_rounds": 5,
    },
    "tiny": {
        "rod": 64, "rod_steps": 5, "mpi_rod": 64, "mpi_rod_steps": 5,
        "ligands": 6, "forest": 8, "fire_trials": 2,
        "count": 1_024, "small_iters": 5, "obj_iters": 2, "buf_iters": 2,
        "sendrecv_iters": 3, "coll_iters": 2, "gather_iters": 2, "race_iters": 2, "race_rounds": 1,
    },
}

FIRE_PROBS = (0.3, 0.6)


@contextmanager
def mpi_backend(name: str) -> Iterator[None]:
    """Select the MPI backend for exemplars that take none as an argument."""
    saved = os.environ.get("REPRO_MPI_BACKEND")
    os.environ["REPRO_MPI_BACKEND"] = name
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_MPI_BACKEND"]
        else:
            os.environ["REPRO_MPI_BACKEND"] = saved


# ---------------------------------------------------------------------------
# SPMD bodies (module level: the processes backend forks them into ranks)
# ---------------------------------------------------------------------------

def _payload(seed: int, rank: int, count: int) -> np.ndarray:
    """Integer-valued doubles, so sums are exact in any order."""
    rng = np.random.default_rng((seed, rank))
    return rng.integers(0, 1 << 20, size=count).astype(np.float64)


def _per_call(fn: Callable[[], Any], iters: int) -> float:
    t0 = time.perf_counter()
    for _ in range(iters):
        fn()
    return (time.perf_counter() - t0) / iters


def verb_suite(comm: Any, p: dict, seed: int) -> dict[str, Any]:
    """Every timed verb on one world; returns per-call seconds and checks."""
    t_body = time.perf_counter()
    rank, other = comm.Get_rank(), 1 - comm.Get_rank()
    count = p["count"]
    mine = _payload(seed, rank, count)
    out: dict[str, Any] = {"errors": []}

    def pingpong(send: Callable, recv: Callable) -> Callable[[], None]:
        def once() -> None:
            if rank == 0:
                send(0)
                recv(1)
            else:
                recv(0)
                send(1)
        return once

    small = (seed, "ping", 3)
    box: dict[str, Any] = {}
    comm.Barrier()
    out["rtt_small"] = _per_call(pingpong(
        lambda tag: comm.send(small, dest=other, tag=tag),
        lambda tag: box.__setitem__("small", comm.recv(source=other, tag=tag))), p["small_iters"])
    if box["small"] != small:
        out["errors"].append("small pingpong payload changed")

    comm.Barrier()
    out["rtt_obj"] = _per_call(pingpong(
        lambda tag: comm.send(mine, dest=other, tag=tag),
        lambda tag: box.__setitem__("obj", comm.recv(source=other, tag=tag))), p["obj_iters"])
    theirs = _payload(seed, other, count)
    if not np.array_equal(box["obj"], theirs):
        out["errors"].append("object pingpong payload changed")

    buf = np.empty(count, dtype=np.float64)
    comm.Barrier()
    out["rtt_buf"] = _per_call(pingpong(
        lambda tag: comm.Send(buf if rank == 1 else mine, dest=other, tag=tag),
        lambda tag: comm.Recv(buf, source=other, tag=tag)), p["buf_iters"])
    if not np.array_equal(buf, mine if rank == 0 else theirs):
        out["errors"].append("buffer pingpong payload changed")

    comm.Barrier()
    out["sendrecv"] = _per_call(
        lambda: box.__setitem__("sr", comm.sendrecv(rank, dest=other, source=other)), p["sendrecv_iters"])
    if box["sr"] != other:
        out["errors"].append("sendrecv delivered the wrong value")

    total = np.empty(count, dtype=np.float64)
    comm.Barrier()
    out["allreduce"] = _per_call(lambda: comm.Allreduce(mine, total), p["coll_iters"])
    if not np.array_equal(total, mine + theirs):
        out["errors"].append("Allreduce sum is not exact")

    root_data = _payload(seed, 0, count)
    bbuf = root_data.copy() if rank == 0 else np.empty(count, dtype=np.float64)
    comm.Barrier()
    out["bcast"] = _per_call(lambda: comm.Bcast(bbuf, 0), p["coll_iters"])
    if not np.array_equal(bbuf, root_data):
        out["errors"].append("Bcast delivered the wrong buffer")

    comm.Barrier()
    out["gather"] = _per_call(lambda: box.__setitem__("g", comm.gather((rank, seed), root=0)), p["gather_iters"])
    if rank == 0 and box["g"] != [(r, seed) for r in range(comm.Get_size())]:
        out["errors"].append("gather assembled the wrong list")
    out["t_body"] = time.perf_counter() - t_body
    return out


def race_body(comm: Any, collective: str, algorithm: str, count: int, iters: int, seed: int) -> float:
    """Seconds per call of one collective with its algorithm forced."""
    rank = comm.Get_rank()
    data = _payload(seed, rank, count)
    if collective == "allreduce":
        total = np.empty(count, dtype=np.float64)
        call = lambda: comm.Allreduce(data, total, algorithm=algorithm)  # noqa: E731
    else:
        call = lambda: comm.Bcast(data, 0, algorithm=algorithm)  # noqa: E731
    call()  # first call pays segment set-up on the processes backend
    comm.Barrier()
    return _per_call(call, iters)


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------

class Spmd:
    def __init__(self, seed: int, size: str) -> None:
        self.p, self.seed = SIZES[size], seed
        self.workers = min(RANKS, NPROC)
        self.setup_times: list[float] = []
        self.reset()

    def reset(self) -> None:
        """Set up afresh: generate the inputs and references, boot the pool."""
        from repro.exemplars import fire_curve_seq, generate_ligands, heat_seq, run_seq

        stop_workers()
        t0 = time.perf_counter()
        p, seed = self.p, self.seed
        self.ligands = generate_ligands(p["ligands"], max_len=24, seed=seed)
        self.ref_heat = heat_seq(p["rod"], p["rod_steps"])
        self.ref_heat_mpi = heat_seq(p["mpi_rod"], p["mpi_rod_steps"])
        self.ref_scores = run_seq(self.ligands).scores
        self.ref_fire = fire_curve_seq(FIRE_PROBS, trials=p["fire_trials"], size=p["forest"], seed=seed).points
        boot_pool(self.workers)
        self.setup_times.append(time.perf_counter() - t0)
        SPEED.calibrate()

    def close(self) -> None:
        stop_workers()

    def part(self, name: str, be: str) -> tuple[Callable[[], Any], Callable[[Any], None]]:
        """(call, check) for one part on one backend."""
        from repro.exemplars import fire_curve_mpi, heat_mpi, heat_omp, run_mpi_master_worker
        from repro.mpi import mpirun

        p, backend = self.p, BACKENDS[be]

        def equal(ref: Any, what: str) -> Callable[[Any], None]:
            def check(got: Any) -> None:
                same = np.array_equal(got, ref) if isinstance(ref, np.ndarray) else got == ref
                require(bool(same), f"{what} on {be} differs from sequential")
            return check

        def in_backend(fn: Callable[[], Any]) -> Callable[[], Any]:
            def call() -> Any:
                with mpi_backend(backend):
                    return fn()
            return call

        if name == "omp_heat":
            return (lambda: heat_omp(p["rod"], p["rod_steps"], num_threads=self.workers,
                                     backend=backend, kernel="vector"), equal(self.ref_heat, "heat"))
        if name == "heat_mpi":
            return (in_backend(lambda: heat_mpi(p["mpi_rod"], p["mpi_rod_steps"], np_procs=RANKS)),
                    equal(self.ref_heat_mpi, "heat_mpi"))
        if name == "master_worker":
            return (in_backend(lambda: run_mpi_master_worker(self.ligands, np_procs=RANKS).scores),
                    equal(self.ref_scores, "master-worker scores"))
        if name == "fire_mpi":
            return (in_backend(lambda: fire_curve_mpi(FIRE_PROBS, trials=p["fire_trials"], size=p["forest"],
                                                      seed=self.seed, np_procs=RANKS)),
                    lambda got: equal(self.ref_fire, "fire curve")(got.points))

        def verbs() -> tuple[float, list[dict]]:
            t0 = time.perf_counter()
            outs = mpirun(verb_suite, RANKS, p, self.seed, backend=backend)
            return time.perf_counter() - t0, outs

        def check_verbs(got: tuple[float, list[dict]]) -> None:
            for out in got[1]:
                require(not out["errors"], "; ".join(out["errors"]))
        return verbs, check_verbs


def setup(seed: int, size: str) -> Spmd:
    return Spmd(seed, size)


def _round(spmd: Spmd, ops: Ops, samples: dict, verbs: dict, spans: SpanLog | None = None,
           calibrate: bool = False) -> float:
    """Every part on both backends once; returns the round's wall time.
    With ``calibrate``, the host's speed is taken after each part."""
    from repro.mpi.serial import serialized_totals

    t0 = time.perf_counter()
    for name in PARTS:
        for be in BACKENDS:
            call, check = spmd.part(name, be)
            layer = "openmp" if name == "omp_heat" else f"mpi.{be}"
            fn = call
            if spans is not None:
                fn = lambda call=call, label=f"{name}/{be}", layer=layer: spans.timed(label, layer, call)[1]
            before = serialized_totals()
            elapsed, result = ops.call(f"{name}/{be}", fn, check)
            after = serialized_totals()
            if calibrate:
                SPEED.calibrate()
            if math.isnan(elapsed):
                continue
            samples.setdefault((name, be), []).append(elapsed)
            if layer != "openmp":
                acc = verbs.setdefault(f"{be}.pickle", [0, 0])
                acc[0] += after["pickle_calls"] - before["pickle_calls"]
                acc[1] += after["pickled_bytes"] - before["pickled_bytes"]
            if name == "verbs":
                wall, outs = result
                verbs.setdefault(f"{be}.launch", []).append(wall - max(o["t_body"] for o in outs))
                for key in ("rtt_small", "rtt_obj", "rtt_buf", "sendrecv", "allreduce", "bcast", "gather"):
                    verbs.setdefault(f"{be}.{key}", []).append(max(o[key] for o in outs))
    return time.perf_counter() - t0


def _totals(samples: dict) -> dict[str, float]:
    return {be: sum(median(samples.get((name, be), [math.nan])) for name in PARTS) for be in BACKENDS}


def run(spmd: Spmd, seconds: float) -> Result:
    ops = Ops()
    samples: dict = {}

    def one(i: int) -> None:
        if i:
            spmd.reset()
        _round(spmd, ops, samples, {}, calibrate=True)

    rounds = repeat_for(seconds, 3, one)
    totals = _totals(samples)
    metrics = {"threads_s": (totals["threads"], "s"), "procs_s": (totals["procs"], "s")}
    details = {"rounds": rounds, "median_s": {f"{n}.{b}": median(v) for (n, b), v in samples.items()}}
    # One pass: every part on both backends.
    summary = {"latency_ms": (sum(totals.values()) * 1e3, "ms")}
    return Result(summary, metrics, ops, details)


def race(spmd: Spmd, ops: Ops) -> tuple[dict[str, tuple[float, str]], dict[str, Any]]:
    """Each registered Allreduce and Bcast algorithm, forced, against the
    runtime's own pick (``algorithm=None``).  Rounds of one launch per
    algorithm and one for the pick are interleaved, and each keeps its
    median, so a slow stretch of the host hits all of them alike.  All
    timed runs are untraced; one short recorded run of the pick names it
    from its ``coll_algo`` events.  Returns the metrics and the details."""
    from repro.mpi import algorithms, mpirun
    from repro.obs import record

    p = spmd.p
    out: dict[str, tuple[float, str]] = {}
    details: dict[str, Any] = {}

    def timed(collective: str, algo: str | None, backend: str) -> float:
        elapsed, per_rank = ops.call(
            f"race/{collective}/{algo or 'auto'}/{backend}",
            lambda: mpirun(race_body, RANKS, collective, algo, p["count"], p["race_iters"], spmd.seed,
                           backend=backend),
            lambda r: require(len(r) == RANKS, "race lost a rank"))
        return math.nan if math.isnan(elapsed) else max(per_rank)

    for be, backend in BACKENDS.items():
        for collective in ("allreduce", "bcast"):
            entrants = [*algorithms.available(collective), None]
            times: dict[str | None, list[float]] = {algo: [] for algo in entrants}
            for _ in range(p["race_rounds"]):
                for algo in entrants:
                    t = timed(collective, algo, backend)
                    if not math.isnan(t):
                        times[algo].append(t)
            medians = {algo: median(v) for algo, v in times.items() if v}
            auto = medians.pop(None, math.nan)
            with record() as rec:
                mpirun(race_body, RANKS, collective, None, p["count"], 1, spmd.seed, backend=backend)
            picked = sorted({ev.args[3] for ev in rec.events()
                             if ev.name == "coll_algo" and ev.args[2] == collective})
            details[f"{be}.{collective}"] = {"pick": "/".join(picked), "auto_us": auto * 1e6,
                                             "forced_us": {a: t * 1e6 for a, t in medians.items()}}
            if medians and not math.isnan(auto):
                out[f"mpi.{be}.{collective}_auto_over_best"] = (auto / min(medians.values()), "ratio")
    return out, details


def trace(spmd: Spmd, seconds: float) -> Result:
    from repro.obs import record

    ops = Ops()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    verbs: dict = {}
    traced_verbs: dict = {}
    probe = OmpProbe()
    events: list = []
    spans = SpanLog()
    dropped = 0
    metrics, race_details = race(spmd, ops)
    budget = max(0.0, seconds - 2.0)

    def one(i: int) -> None:
        nonlocal dropped
        if i % 2 == 0:
            plain_walls.append(_round(spmd, ops, {}, verbs))
            return
        with record(capacity=1 << 18) as rec, probe:
            before = probe.excluded_s
            wall = _round(spmd, ops, {}, traced_verbs, spans)
        traced_walls.append(wall - (probe.excluded_s - before))
        events.extend(rec.events())
        dropped += rec.dropped

    repeat_for(budget, 2, one)
    traced_rounds = len(traced_walls)
    metrics.update(omp_metrics(probe, events, spmd.workers, traced_rounds))
    for be in BACKENDS:
        prefix = f"mpi.{be}"
        windows = [(t0, t1) for _n, layer, t0, t1 in spans.spans if layer == prefix]
        mine = [ev for ev in events if any(t0 <= ev.ts <= t1 for t0, t1 in windows)]
        for name, (value, unit) in mpi_metrics(mine, prefix).items():
            metrics[name] = (value / traced_rounds, unit)
        calls, nbytes = traced_verbs.get(f"{be}.pickle", [0, 0])
        metrics[f"{prefix}.pickle_calls"] = (calls / traced_rounds, "count")
        metrics[f"{prefix}.pickled_bytes"] = (nbytes / traced_rounds, "B")
        metrics[f"{prefix}.launch_ms"] = (median(verbs[f"{be}.launch"]) * 1e3, "ms")
        for key in ("rtt_small", "rtt_obj", "rtt_buf", "sendrecv", "allreduce", "bcast", "gather"):
            metrics[f"{prefix}.{key}_us"] = (median(verbs[f"{be}.{key}"]) * 1e6, "us")
    metrics["obs.spmd_fine.trace_overhead"] = (median(traced_walls) / median(plain_walls), "ratio")
    path = write_trace("spmd_fine", events, spans, dropped)
    # Compute: in-worker heat chunks on both OpenMP backends.  Overhead:
    # pool loop time no chunk covers, plus ranks blocked in receives.
    summary = layer_summary(
        metrics, "spmd_fine",
        compute_s=sum(metrics[f"openmp.{be}.compute_s"][0] for be in BACKENDS),
        overhead_s=metrics["openmp.procs.dispatch_us"][0] * metrics["openmp.procs.chunks"][0] * 1e-6
        + sum(metrics[f"mpi.{be}.wait_s"][0] for be in BACKENDS))
    return Result(summary, metrics, ops, {"chrome_trace": str(path), "dropped_events": dropped,
                                 "traced_rounds": traced_rounds, "race": race_details})


WORKLOAD = Workload(
    name="spmd_fine",
    setup=setup,
    run=run,
    trace=trace,
    pinned={"workers": min(RANKS, NPROC), "ranks": RANKS, "kernel.heat": "vector",
            "OMP_BACKEND": "threads/processes", "REPRO_MPI_BACKEND": "threads/processes"},
)
