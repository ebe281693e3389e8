"""Differential property suite for the pluggable collective algorithms.

Every registered algorithm must be *bit-identical* to the linear
reference — on both backends, for object and typed-buffer payloads, at
world sizes 2, 3, 5, and 8, including non-commutative operations and
empty/odd payload shapes.  Reductions use exact dtypes (ints, strings)
so "identical" means identical, not approximately equal: any reordering
bug shows up as a hard mismatch rather than a tolerance miss.

Also covers: the ``create_communicator`` topology variants, cost-model
``resolve`` policy (env overrides, non-commutative downgrade), the
``coll_algo`` observability event, the gather/Gatherv overflow
diagnostics, fault-injection behaviour per algorithm, and a coarse
"auto-pick never loses to the worst algorithm by more than 2x" race.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.mpi import (
    ALGORITHMS,
    COMMUNICATOR_NAMES,
    DeadlockError,
    MAX,
    Op,
    RankFailedError,
    SUM,
    TruncationError,
    available,
    create_communicator,
    fork_available,
    resolve,
    run,
    run_procs,
)
from repro.mpi import hooks as mpi_hooks
from repro.mpi.algorithms import algorithm_cost, message_count
from repro.testkit import fault_injection
from tests.conftest import BACKENDS

TIMEOUT = 30.0
WORLD_SIZES = (2, 3, 5, 8)
SEEDS = (0, 1)

#: Non-commutative reduction: string concatenation.  Rank order matters,
#: so any algorithm that reorders the fold produces a scrambled string.
CONCAT = Op(lambda a, b: a + b, name="concat", commute=False, elementwise=False)


def _launch(backend, body, size, *args):
    runner = run if backend == "threads" else run_procs
    return runner(body, size, *args, deadlock_timeout=TIMEOUT)


# ---------------------------------------------------------------------------
# Object-mode differential: every algorithm vs the linear reference
# ---------------------------------------------------------------------------

BCAST_ALGOS = tuple(ALGORITHMS["bcast"])
REDUCE_ALGOS = tuple(ALGORITHMS["reduce"])
ALLREDUCE_ALGOS = tuple(ALGORITHMS["allreduce"])
ALLGATHER_ALGOS = tuple(ALGORITHMS["allgather"])


def _object_body(comm, seed):
    """Run every object-mode algorithm; return {(collective, algo): result}."""
    rank, size = comm.Get_rank(), comm.Get_size()
    root = seed % size
    out = {}

    payloads = {
        "dict": {"seed": seed, "rows": list(range(11))},
        "empty": [],
        "odd": bytes(range(7)) * (seed + 1) + b"!",
    }
    for shape, payload in payloads.items():
        for algo in BCAST_ALGOS:
            obj = payload if rank == root else None
            out[("bcast", shape, algo)] = comm.bcast(obj, root, algorithm=algo)

    mine = (rank, f"r{rank}" * (rank % 3 + 1), seed)
    for algo in ALLGATHER_ALGOS:
        out[("allgather", algo)] = comm.allgather(mine, algorithm=algo)

    value = [rank + 1, rank * seed, -rank]
    for algo in REDUCE_ALGOS:
        out[("reduce", "sum", algo)] = comm.reduce(value, SUM, root, algorithm=algo)
        out[("reduce", "concat", algo)] = comm.reduce(
            f"r{rank}.", CONCAT, root, algorithm=algo
        )

    for algo in ALLREDUCE_ALGOS:
        out[("allreduce", "sum", algo)] = comm.allreduce(value, SUM, algorithm=algo)
        out[("allreduce", "concat", algo)] = comm.allreduce(
            f"r{rank}.", CONCAT, algorithm=algo
        )
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", WORLD_SIZES)
@pytest.mark.parametrize("seed", SEEDS)
def test_object_algorithms_match_linear_reference(backend, size, seed):
    results = _launch(backend, _object_body, size, seed)
    root = seed % size

    expected_bcasts = {
        "dict": {"seed": seed, "rows": list(range(11))},
        "empty": [],
        "odd": bytes(range(7)) * (seed + 1) + b"!",
    }
    expected_sum = [sum(r + 1 for r in range(size)),
                    sum(r * seed for r in range(size)),
                    sum(-r for r in range(size))]
    expected_concat = "".join(f"r{r}." for r in range(size))
    expected_gather = [(r, f"r{r}" * (r % 3 + 1), seed) for r in range(size)]

    for rank, out in enumerate(results):
        for shape, payload in expected_bcasts.items():
            for algo in BCAST_ALGOS:
                assert out[("bcast", shape, algo)] == payload, (rank, shape, algo)
        for algo in ALLGATHER_ALGOS:
            assert out[("allgather", algo)] == expected_gather, (rank, algo)
        for algo in REDUCE_ALGOS:
            want_sum = expected_sum if rank == root else None
            want_cat = expected_concat if rank == root else None
            assert out[("reduce", "sum", algo)] == want_sum, (rank, algo)
            assert out[("reduce", "concat", algo)] == want_cat, (rank, algo)
        for algo in ALLREDUCE_ALGOS:
            assert out[("allreduce", "sum", algo)] == expected_sum, (rank, algo)
            assert out[("allreduce", "concat", algo)] == expected_concat, (
                rank, algo,
            )


@pytest.mark.skipif(not fork_available(), reason="needs both backends")
@pytest.mark.parametrize("size", (2, 5))
def test_backends_bit_identical(size):
    """Threads and forked processes produce byte-for-byte the same results."""
    threads = _launch("threads", _object_body, size, 0)
    procs = _launch("procs", _object_body, size, 0)
    assert threads == procs
    # Same value *and* same wire type: every payload is an exact dtype
    # (int/str/bytes), so equality here is bit-identity, not tolerance.
    flat_t = [(k, type(v).__name__) for out in threads for k, v in sorted(out.items())]
    flat_p = [(k, type(v).__name__) for out in procs for k, v in sorted(out.items())]
    assert flat_t == flat_p


# ---------------------------------------------------------------------------
# Buffer-mode differential (exact dtypes: int64 sums, float64 max)
# ---------------------------------------------------------------------------

def _buffer_body(comm, seed):
    rank, size = comm.Get_rank(), comm.Get_size()
    rng = np.random.default_rng(1000 * seed + rank)
    out = {}

    for count in (1, 37):  # odd lengths exercise uneven ring chunking
        src = np.arange(count, dtype=np.int64) * (seed + 3) + 7
        for algo in BCAST_ALGOS:
            buf = src.copy() if rank == 0 else np.zeros(count, dtype=np.int64)
            comm.Bcast(buf, 0, algorithm=algo)
            out[("Bcast", count, algo)] = buf

    local = rng.integers(-999, 999, size=33).astype(np.int64)
    out["local"] = local.copy()
    for algo in ALLGATHER_ALGOS:
        gathered = np.zeros(33 * size, dtype=np.int64)
        comm.Allgather(local, gathered, algorithm=algo)
        out[("Allgather", algo)] = gathered

    for algo in REDUCE_ALGOS:
        total = np.zeros(33, dtype=np.int64)
        comm.Reduce(local, total, SUM, 0, algorithm=algo)
        out[("Reduce", algo)] = total

    fmax = rng.random(33)
    out["fmax"] = fmax.copy()
    for algo in ALLREDUCE_ALGOS:
        total = np.zeros(33, dtype=np.int64)
        comm.Allreduce(local, total, SUM, algorithm=algo)
        out[("Allreduce", "sum", algo)] = total
        peak = np.zeros(33)
        comm.Allreduce(fmax, peak, MAX, algorithm=algo)
        out[("Allreduce", "max", algo)] = peak
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", WORLD_SIZES)
def test_buffer_algorithms_match_linear_reference(backend, size):
    seed = 1
    results = _launch(backend, _buffer_body, size, seed)
    locals_ = [out["local"] for out in results]
    expected_sum = np.sum(locals_, axis=0)
    expected_gather = np.concatenate(locals_)
    expected_max = np.max([out["fmax"] for out in results], axis=0)

    for rank, out in enumerate(results):
        for count in (1, 37):
            src = np.arange(count, dtype=np.int64) * (seed + 3) + 7
            for algo in BCAST_ALGOS:
                assert np.array_equal(out[("Bcast", count, algo)], src), (
                    rank, count, algo,
                )
        for algo in ALLGATHER_ALGOS:
            assert np.array_equal(out[("Allgather", algo)], expected_gather)
        for algo in REDUCE_ALGOS:
            if rank == 0:
                assert np.array_equal(out[("Reduce", algo)], expected_sum)
        for algo in ALLREDUCE_ALGOS:
            assert np.array_equal(out[("Allreduce", "sum", algo)], expected_sum)
            assert np.array_equal(out[("Allreduce", "max", algo)], expected_max)


# ---------------------------------------------------------------------------
# Topology-aware communicator variants
# ---------------------------------------------------------------------------

def _variant_body(comm):
    rank, size = comm.Get_rank(), comm.Get_size()
    out = {}
    for name in COMMUNICATOR_NAMES:
        kwargs = {"ranks_per_node": 2} if name == "hierarchical" else {}
        view = create_communicator(name, comm, **kwargs)
        assert view.Get_size() == size  # delegation works
        out[(name, "sum")] = view.allreduce([rank + 1, -rank], SUM)
        out[(name, "concat")] = view.allreduce(f"r{rank}.", CONCAT)
        buf = np.arange(9, dtype=np.int64) + rank
        total = np.zeros(9, dtype=np.int64)
        view.Allreduce(buf, total)
        out[(name, "buf")] = total
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("size", WORLD_SIZES)
def test_communicator_variants_agree(backend, size):
    results = _launch(backend, _variant_body, size)
    expected_sum = [sum(r + 1 for r in range(size)), sum(-r for r in range(size))]
    expected_concat = "".join(f"r{r}." for r in range(size))
    expected_buf = np.sum(
        [np.arange(9, dtype=np.int64) + r for r in range(size)], axis=0
    )
    for rank, out in enumerate(results):
        for name in COMMUNICATOR_NAMES:
            assert out[(name, "sum")] == expected_sum, (rank, name)
            assert out[(name, "concat")] == expected_concat, (rank, name)
            assert np.array_equal(out[(name, "buf")], expected_buf), (rank, name)


def test_create_communicator_validation():
    with pytest.raises(TypeError):
        create_communicator("flat")
    with pytest.raises(ValueError, match="unknown communicator variant"):
        create_communicator("torus", object())

    class _FakeComm:
        size = 6

    with pytest.raises(ValueError, match="must divide"):
        create_communicator("two_dimensional", _FakeComm(), rows=4)


# ---------------------------------------------------------------------------
# Selection policy: cost model, env overrides, downgrades
# ---------------------------------------------------------------------------

class TestResolve:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        """Auto-pick assertions need a clean slate: the CI collectives
        matrix exports REPRO_COLL_ALGO globally, and these tests pin the
        cost model, not the override.  Tests that exercise the env path
        re-set it through their own monkeypatch."""
        monkeypatch.delenv("REPRO_COLL_ALGO", raising=False)
        monkeypatch.delenv("REPRO_COLL_PLATFORM", raising=False)

    def test_available_catalogue(self):
        assert set(ALGORITHMS) >= {
            "bcast", "reduce", "allreduce", "allgather", "barrier",
        }
        names = available("allreduce")
        assert "ring" in names and "linear" in names

    def test_resolution_is_registered(self):
        for coll, registry in ALGORITHMS.items():
            picked = resolve(coll, size=4, nbytes=1024)
            assert picked in registry

    def test_small_allreduce_prefers_recursive_doubling(self):
        assert resolve("allreduce", size=4, nbytes=0) == "recursive_doubling"

    def test_large_chunked_allreduce_prefers_ring(self):
        assert resolve("allreduce", size=4, nbytes=1 << 20, chunked=True) == "ring"

    def test_large_bcast_prefers_scatter_allgather(self):
        assert resolve("bcast", size=4, nbytes=64) == "binomial"
        assert resolve("bcast", size=4, nbytes=1 << 20) == "scatter_allgather"

    def test_non_commutative_downgrades_to_fallback(self):
        picked = resolve(
            "allreduce", size=4, commute=False, requested="recursive_doubling"
        )
        assert picked == "linear"
        assert resolve("reduce", size=4, commute=False) == "linear"

    def test_unknown_request_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            resolve("allreduce", size=4, requested="bogus")

    def test_env_bare_name_applies_where_registered(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLL_ALGO", "ring")
        assert resolve("allreduce", size=4) == "ring"
        assert resolve("allgather", size=4) == "ring"
        # 'ring' is not a bcast algorithm: the bare name is ignored there.
        assert resolve("bcast", size=4) in ALGORITHMS["bcast"]

    def test_env_per_collective_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLL_ALGO", "allreduce=linear,bcast=binomial")
        assert resolve("allreduce", size=8, nbytes=1 << 20) == "linear"
        assert resolve("bcast", size=8, nbytes=1 << 20) == "binomial"

    def test_env_per_collective_unknown_is_strict(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLL_ALGO", "allreduce=bogus")
        with pytest.raises(ValueError, match="bogus"):
            resolve("allreduce", size=4)

    def test_keyword_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COLL_ALGO", "allreduce=linear")
        assert resolve("allreduce", size=4, requested="ring") == "ring"

    def test_costs_are_finite_and_positive(self):
        for coll, registry in ALGORITHMS.items():
            for algo in registry:
                for size in (2, 3, 8, 64):
                    cost = algorithm_cost(coll, algo, size=size, nbytes=4096)
                    assert 0.0 < cost < float("inf"), (coll, algo, size)

    def test_message_counts(self):
        assert message_count("allreduce", "recursive_doubling", 6) == 12
        assert message_count("barrier", "dissemination", 4) == 8
        assert message_count("allgather", "ring", 4) == 12
        assert message_count("bcast", "binomial", 8) == 7


# ---------------------------------------------------------------------------
# Observability: the chosen algorithm is a visible trace event
# ---------------------------------------------------------------------------

class TestAlgoEvents:
    def _capture(self, body, size):
        events = []

        def observer(event, *args):
            if event == "coll_algo":
                events.append(args)

        mpi_hooks.attach(observer)
        try:
            run(body, size, deadlock_timeout=TIMEOUT)
        finally:
            mpi_hooks.detach(observer)
        return events

    def test_forced_algorithm_is_emitted(self):
        def body(comm):
            comm.allreduce(comm.Get_rank(), SUM, algorithm="ring")

        events = self._capture(body, 3)
        picks = {(coll, algo) for _cid, _rank, coll, algo in events}
        assert picks == {("allreduce", "ring")}
        assert sorted(rank for _c, rank, _n, _a in events) == [0, 1, 2]

    def test_auto_pick_is_emitted(self):
        def body(comm):
            comm.bcast("x" if comm.Get_rank() == 0 else None, 0)

        events = self._capture(body, 4)
        algos = {algo for _c, _r, coll, algo in events if coll == "bcast"}
        assert len(algos) == 1 and algos <= set(ALGORITHMS["bcast"])

    def test_downgrade_is_visible(self):
        """A commutative-only request with a non-commutative op shows the
        fallback in the trace, not the requested name."""
        def body(comm):
            comm.allreduce(
                f"r{comm.Get_rank()}", CONCAT, algorithm="recursive_doubling"
            )

        events = self._capture(body, 2)
        assert {algo for *_rest, algo in events} == {"linear"}

    def test_trace_report_includes_algorithms(self):
        from repro.obs.events import Event
        from repro.obs.profile import build_profile, render_text

        evs = [
            Event(ts=0.0, source="mpi", name="coll_enter", args=(0, 0, "allreduce")),
            Event(ts=0.1, source="mpi", name="coll_algo", args=(0, 0, "allreduce", "ring")),
            Event(ts=0.2, source="mpi", name="coll_exit", args=(0, 0, "allreduce")),
        ]
        profile = build_profile(evs)
        assert profile.coll_algos == {"allreduce": {"ring": 1}}
        assert profile.to_dict()["collective_algorithms"] == {
            "allreduce": {"ring": 1}
        }
        assert "collective algorithms: allreduce=ring" in render_text(profile)


# ---------------------------------------------------------------------------
# Overflow diagnostics name the offending rank and sizes
# ---------------------------------------------------------------------------

class TestOverflowDiagnostics:
    def test_gatherv_overflow_names_rank_and_counts(self):
        def body(comm):
            rank = comm.Get_rank()
            data = np.ones(3 if rank != 1 else 5)  # rank 1 sends too much
            if rank == 0:
                recv = np.zeros(9)
                counts = (3, 3, 3)
                try:
                    comm.Gatherv(data, (recv, counts, (0, 3, 6)), 0)
                except ValueError as exc:
                    return str(exc)
                return "no error"
            comm.Gatherv(data, None, 0)
            return None

        message = _launch("threads", body, 3)[0]
        assert "rank 1" in message and "5" in message and "3" in message

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_gather_overflow_names_rank_and_sizes(self, backend):
        def body(comm):
            rank = comm.Get_rank()
            data = np.ones(4 if rank != 2 else 9)  # rank 2 overflows the slot
            recv = np.zeros(12) if rank == 0 else None
            try:
                comm.Gather(data, recv, 0)
            except TruncationError as exc:
                return str(exc)
            return "no error"

        message = _launch(backend, body, 3)[0]
        assert "rank 2" in message and "9" in message and "12" in message


# ---------------------------------------------------------------------------
# Fault injection: every algorithm surfaces crashes and drops
# ---------------------------------------------------------------------------

class TestAlgorithmFaults:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("algo", ALLREDUCE_ALGOS)
    def test_crash_surfaces_per_algorithm(self, backend, algo):
        def body(comm):
            return comm.allreduce([comm.Get_rank()], SUM, algorithm=algo)

        runner = run if backend == "threads" else run_procs
        with fault_injection("crash:rank=1,at=1"):
            with pytest.raises((RankFailedError, DeadlockError)):
                runner(body, 3, deadlock_timeout=4.0)

    @pytest.mark.parametrize("algo", ALLREDUCE_ALGOS)
    def test_drop_deadlocks_per_algorithm(self, algo):
        def body(comm):
            return comm.allreduce([comm.Get_rank()], SUM, algorithm=algo)

        with fault_injection("drop:src=0,dst=1,nth=1"):
            with pytest.raises((DeadlockError, RankFailedError)):
                run(body, 3, deadlock_timeout=4.0)

    @pytest.mark.parametrize("algo", BCAST_ALGOS)
    def test_bcast_crash_surfaces_per_algorithm(self, algo):
        def body(comm):
            data = "payload" if comm.Get_rank() == 0 else None
            return comm.bcast(data, 0, algorithm=algo)

        with fault_injection("crash:rank=1,at=1"):
            with pytest.raises((RankFailedError, DeadlockError)):
                run(body, 3, deadlock_timeout=4.0)


# ---------------------------------------------------------------------------
# Auto-pick quality: never worse than 2x the worst forced algorithm
# ---------------------------------------------------------------------------

def test_auto_pick_never_loses_badly_to_worst():
    count, size, repeats = 4096, 4, 5

    def timed_body(comm, algorithm):
        local = np.arange(count, dtype=np.int64) + comm.Get_rank()
        total = np.zeros(count, dtype=np.int64)
        comm.Allreduce(local, total, SUM)  # warm the transport
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            comm.Allreduce(local, total, SUM, algorithm=algorithm)
            best = min(best, time.perf_counter() - t0)
        return best

    def best_of(algorithm):
        times = run(timed_body, size, algorithm, deadlock_timeout=TIMEOUT)
        return max(times)  # collective finishes when the slowest rank does

    forced = {algo: best_of(algo) for algo in ALLREDUCE_ALGOS}
    auto = best_of(None)
    assert auto <= 2.0 * max(forced.values()), (auto, forced)
