"""Pluggable execution backends for the worksharing constructs.

The thread backend gives the teaching runtime its *concurrency* semantics
(real races, real locks) but — Python threads being GIL-bound — no
wall-clock speedup for CPU-bound loop bodies.  This module adds the
*parallelism* half: a ``"processes"`` backend that runs worksharing loops
on a persistent :mod:`multiprocessing` worker pool, so the handout's
benchmarking study measures genuine multicore scaling.

Design points:

* **Chunk tasks, not per-index closures.**  Work ships to the pool as
  *batches of indices* ``(lo, hi)``; the loop over the batch runs inside
  the worker.  One pickle round-trip per chunk instead of per iteration.
* **Picklable kernels.**  Anything crossing the process boundary must
  pickle: loop bodies and chunk kernels must be module-level functions (or
  :func:`functools.partial` over them).  A closure raises
  :class:`BackendUnavailable` with a pointed message rather than a bare
  ``PicklingError``.
* **Fork-once pipe pool.**  The first process-backend loop starts the
  workers, each behind its own duplex pipe; later loops reuse them (grown
  on demand, up to the usable cores), so per-chunk overhead is one pipe
  write and one reply.  The parent pickles the chunk task once per call
  and sends each batch to the first free worker, found by waiting on the
  busy pipes and every worker's process sentinel together.
* **Worker death.**  A worker that exits mid-call (or while idle) wakes
  that wait through its sentinel: the call raises
  :class:`BackendUnavailable` instead of hanging, every worker is retired,
  and the next call starts fresh ones.  A chunk that *raises* is not a
  death — the in-flight chunks are drained and the exception re-raised in
  the parent, so the pool stays usable with no stale replies.
* **Shared-memory arrays.**  :class:`SharedArray` wraps
  :mod:`multiprocessing.shared_memory` behind a picklable handle, so NumPy
  exemplars can let workers write results in place instead of shipping
  arrays back through pickles.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import os
import pickle
import selectors
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .env import BACKENDS, get_config, num_procs
from .reduction import Reduction, get_reduction
from .scheduling import DynamicScheduler, static_block_ranges

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = [
    "BackendUnavailable",
    "SharedArray",
    "chunk_ranges",
    "run_chunks",
    "process_parallel_for",
    "resolve_backend",
    "pool_size",
    "shutdown_pool",
]


class BackendUnavailable(RuntimeError):
    """The requested execution backend cannot run this workload."""


def resolve_backend(backend: str | None) -> str:
    """Normalize an explicit backend choice, defaulting to the config's."""
    name = (backend or get_config().backend).strip().lower()
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    return name


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

_pool: "_PipePool | None" = None

_WORKER_DIED = (
    "a process-backend worker died while running a chunk task "
    "(commonly: the kernel resolves to a name the worker cannot "
    "import, e.g. one defined interactively after the pool started)"
)


def _mp_context():
    """Fork-based context when the platform has it (fast, inherits state)."""
    preferred = os.environ.get("REPRO_MP_START_METHOD")
    methods = multiprocessing.get_all_start_methods()
    if preferred and preferred in methods:
        return multiprocessing.get_context(preferred)
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(conn: Connection, inherited: list[Connection]) -> None:
    """Pool worker: run ``(task, lo, hi, traced)`` requests until told to stop.

    Each request carries the chunk task pickled once by the parent; the
    reply is ``(True, result)`` or ``(False, (exception, traceback text))``.
    ``None`` or end-of-file on the pipe ends the worker.  Messages are plain
    pickles: they carry no multiprocessing handles, so the per-message
    set-up of ``Connection.send``'s reducing pickler buys nothing.
    """
    for other in inherited:
        other.close()
    while True:
        try:
            request = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        if request is None:
            return
        blob, lo, hi, traced = request
        try:
            task = pickle.loads(blob)
            if traced:
                from ..obs.recorder import run_traced_chunk

                reply: tuple[bool, Any] = (True, run_traced_chunk(task, lo, hi))
            else:
                reply = (True, task(lo, hi))
        except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
            reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send_bytes(pickle.dumps(reply))
        except OSError:
            return  # the parent closed this pipe: the pool was retired
        except Exception as exc:  # unpicklable result or exception
            failure = RuntimeError(f"chunk reply did not pickle: {exc!r}")
            conn.send_bytes(pickle.dumps((False, (failure, traceback.format_exc()))))


class _RemoteTraceback(Exception):
    """The worker-side traceback, chained as a re-raised chunk error's cause."""

    def __str__(self) -> str:
        return self.args[0]


class _PipePool:
    """Forked-once workers, each behind its own duplex pipe.

    The parent hands each chunk to whichever worker is free, found by one
    selector that watches every worker's pipe and process sentinel, so a
    worker that dies mid-chunk (or while idle) is noticed at once instead
    of leaving the call waiting.  An idle worker's pipe only turns
    readable at end-of-file, so readiness there is a death too.
    """

    def __init__(self) -> None:
        self._ctx = _mp_context()
        self.processes: list[Any] = []
        self._conns: list[Connection] = []
        self._selector = selectors.DefaultSelector()

    def grow(self, size: int) -> None:
        """Start workers until the pool has ``size`` of them."""
        # A forked worker inherits every parent end open at fork time, its
        # own included; it closes them, or no worker would see EOF when
        # the parent closes its end.
        fork = self._ctx.get_start_method() == "fork"
        while len(self.processes) < size:
            parent_end, child_end = self._ctx.Pipe(duplex=True)
            proc = self._ctx.Process(
                target=_worker_main,
                args=(child_end, [*self._conns, parent_end] if fork else []),
                name=f"repro-omp-worker-{len(self.processes)}",
                daemon=True,
            )
            proc.start()
            child_end.close()
            self.processes.append(proc)
            self._conns.append(parent_end)
            self._selector.register(parent_end, selectors.EVENT_READ)
            self._selector.register(proc.sentinel, selectors.EVENT_READ)

    def run(
        self,
        blob: bytes,
        ranges: Sequence[tuple[int, int]],
        workers: int,
        traced: bool,
    ) -> list[Any]:
        """Run the pickled task over every batch, in batch order.

        At most ``workers`` workers take part, so a grown pool still honours
        a smaller requested team.

        A chunk that raises stops further dispatch; the chunks already in
        flight are drained, so the pool holds no stale replies, and the
        first exception is raised.  A dead worker raises
        :class:`BackendUnavailable` and retires every worker; the next
        :func:`_get_pool` forks fresh ones.
        """
        results: list[Any] = [None] * len(ranges)
        idle = self._conns[:workers]
        busy: dict[Connection, int] = {}
        error: BaseException | None = None
        next_ci = 0
        try:
            while busy or (next_ci < len(ranges) and error is None):
                while idle and next_ci < len(ranges) and error is None:
                    conn = idle.pop()
                    lo, hi = ranges[next_ci]
                    conn.send_bytes(pickle.dumps((blob, lo, hi, traced)))
                    busy[conn] = next_ci
                    next_ci += 1
                ready = [key.fileobj for key, _ in self._selector.select()]
                replied = [c for c in ready if c in busy]
                for conn in replied:
                    ok, value = pickle.loads(conn.recv_bytes())
                    ci = busy.pop(conn)
                    idle.append(conn)
                    if ok:
                        results[ci] = value
                    elif error is None:
                        error, remote_tb = value
                        error.__cause__ = _RemoteTraceback(remote_tb)
                if len(replied) < len(ready):  # a sentinel or an idle pipe's EOF
                    raise BackendUnavailable(_WORKER_DIED)
        except (EOFError, OSError) as exc:
            self.shutdown(wait=False)
            raise BackendUnavailable(_WORKER_DIED) from exc
        except BaseException:
            # Replies still in flight would reach the next call: retire
            # these workers (the next call forks fresh ones).
            self.shutdown(wait=False)
            raise
        if error is not None:
            raise error
        return results

    def shutdown(self, wait: bool = True) -> None:
        """Ask every worker to exit; with ``wait``, join them (bounded)."""
        for conn in self._conns:
            try:
                conn.send_bytes(pickle.dumps(None))
            except OSError:
                pass  # that worker is already gone
            conn.close()
        if wait:
            for proc in self.processes:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
        self._selector.close()
        self._selector = selectors.DefaultSelector()
        self._conns = []
        self.processes = []


def _get_pool(workers: int) -> _PipePool:
    """The persistent pool, created on first use and grown on demand.

    Grown to at most :func:`num_procs` workers (the usable cores): extra
    workers would only time-share them.  The chunk decomposition still
    follows the requested count.
    """
    global _pool
    if _pool is None:
        _pool = _PipePool()
    _pool.grow(min(workers, num_procs()))
    return _pool


def pool_size() -> int:
    """Current size of the persistent worker pool (0 before first use)."""
    return len(_pool.processes) if _pool is not None else 0


def shutdown_pool() -> None:
    """Tear down the persistent pool (tests; also registered atexit)."""
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False)
        _pool = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# Chunk decomposition
# ---------------------------------------------------------------------------

def chunk_ranges(
    n: int,
    workers: int,
    schedule: str = "static",
    chunk: int | None = None,
) -> list[tuple[int, int]]:
    """Split ``range(n)`` into contiguous ``(lo, hi)`` batches.

    The schedule controls granularity exactly as OpenMP's does placement:

    * ``static`` without a chunk: one nearly equal block per worker;
    * ``static`` with chunk ``c`` / ``dynamic``: size-``c`` batches
      (dynamic defaults to ~8 batches per worker so the pool's first-free
      -worker assignment can balance skewed bodies);
    * ``guided``: decaying batch sizes, ``remaining / workers`` bounded
      below by the chunk.

    Empty batches are dropped, so ``n = 0`` yields ``[]``.
    """
    if n < 0:
        raise ValueError(f"iteration count must be non-negative, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be positive, got {chunk}")
    if n == 0:
        return []
    schedule = schedule.lower()
    if schedule == "static" and chunk is None:
        return [
            (r.start, r.stop)
            for r in static_block_ranges(n, workers)
            if len(r)
        ]
    if schedule in ("static", "dynamic"):
        size = chunk if chunk is not None else max(1, -(-n // (workers * 8)))
        return [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    if schedule == "guided":
        floor = chunk or 1
        out: list[tuple[int, int]] = []
        lo = 0
        while lo < n:
            size = min(max(floor, (n - lo) // workers), n - lo)
            out.append((lo, lo + size))
            lo += size
        return out
    raise ValueError(f"unknown schedule {schedule!r}")


# ---------------------------------------------------------------------------
# Chunk execution
# ---------------------------------------------------------------------------

def _pickled(obj: Any, what: str) -> bytes:
    """``pickle.dumps(obj)``, failing as :class:`BackendUnavailable`."""
    try:
        return pickle.dumps(obj)
    except Exception as exc:
        raise BackendUnavailable(
            f"the process backend must pickle {what}, and {obj!r} is not "
            "picklable — use a module-level function (or functools.partial "
            "over one) instead of a closure/lambda, or select "
            "backend='threads'"
        ) from exc


def _threads_run_chunks(
    kernel: Callable[[int, int], Any],
    ranges: Sequence[tuple[int, int]],
    workers: int,
) -> list[Any]:
    """Thread-backend chunk execution: team members pull batches dynamically."""
    from .team import parallel_region

    results: list[Any] = [None] * len(ranges)
    sched = DynamicScheduler(len(ranges), 1)

    def member() -> None:
        for ci in iter(sched):
            lo, hi = ranges[ci]
            results[ci] = kernel(lo, hi)

    parallel_region(member, num_threads=max(1, min(workers, len(ranges))))
    return results


def _process_run_chunks(
    kernel: Callable[[int, int], Any],
    ranges: Sequence[tuple[int, int]],
    workers: int,
) -> list[Any]:
    """Process-backend chunk execution on the persistent pool.

    The kernel is pickled once per call (which is also its picklability
    check) and each batch goes to whichever worker frees up first — the
    pool-side analogue of dynamic self-scheduling — with results kept in
    batch order.  A worker death surfaces as :class:`BackendUnavailable`
    rather than a hang.
    """
    blob = _pickled(kernel, "the chunk kernel")
    pool = _get_pool(workers)
    from ..obs import recorder as _obs

    tracing = _obs.active() is not None
    submit_ts = time.monotonic()
    outcomes = pool.run(blob, ranges, workers, tracing)
    if not tracing:
        return outcomes
    results = []
    for result, forwarded in outcomes:
        if forwarded is not None:
            _obs.ingest_forwarded(forwarded, submit_ts)
        results.append(result)
    return results


def run_chunks(
    kernel: Callable[[int, int], Any],
    ranges: Sequence[tuple[int, int]],
    *,
    workers: int,
    backend: str | None = None,
) -> list[Any]:
    """Run ``kernel(lo, hi)`` over every batch; results in batch order."""
    if not ranges:
        return []
    if resolve_backend(backend) == "processes":
        return _process_run_chunks(kernel, ranges, workers)
    return _threads_run_chunks(kernel, ranges, workers)


def _index_chunk(
    body: Callable[[int], Any],
    reduction: "str | Reduction | None",
    lo: int,
    hi: int,
) -> Any:
    """Worker-side driver: run a per-index body over one batch of indices."""
    red = get_reduction(reduction) if reduction is not None else None
    partial = red.identity if red is not None else None
    for i in range(lo, hi):
        value = body(i)
        if red is not None:
            partial = red.combine(partial, value)
    return partial


def process_parallel_for(
    n: int,
    body: Callable[[int], Any],
    workers: int,
    schedule: str,
    chunk: int | None,
    reduction: "str | Reduction | None",
) -> Any:
    """``parallel_for`` on the process backend (called from ``loops``).

    Named reductions travel as their operator string and are resolved
    inside the worker, so the lambda-bearing :class:`Reduction` registry
    entries never cross the pickle boundary.  Without a reduction the body
    runs purely for its side effects, which must land in a
    :class:`SharedArray` (or other cross-process channel) to be visible.
    """
    ranges = chunk_ranges(n, workers, schedule, chunk)
    red = get_reduction(reduction) if reduction is not None else None
    spec = reduction if (reduction is None or isinstance(reduction, str)) else reduction
    if spec is not None and not isinstance(spec, str):
        _pickled(spec, "a custom Reduction")
    kernel = functools.partial(_index_chunk, body, spec)
    partials = _process_run_chunks(kernel, ranges, workers) if ranges else []
    if red is not None:
        return red.fold(partials)
    return None


# ---------------------------------------------------------------------------
# Shared-memory arrays
# ---------------------------------------------------------------------------

#: Worker-side cache of attached segments, keyed by shm name, so repeated
#: chunk tasks over the same array attach once per worker process.
_attached: dict[str, "SharedArray"] = {}


def _attach_shared(name: str, shape: tuple[int, ...], dtype: str) -> "SharedArray":
    cached = _attached.get(name)
    if cached is None:
        cached = _attached[name] = SharedArray(shape, dtype, _attach_name=name)
    return cached


class SharedArray:
    """A NumPy array backed by ``multiprocessing.shared_memory``.

    Pickles to a lightweight *handle* (segment name + shape + dtype): a
    worker unpickling the handle attaches to the same physical pages, so
    writes made inside pool tasks are visible to the parent with no result
    shipping.  The creating process owns the segment's lifetime — call
    :meth:`unlink` (or use as a context manager) when done.
    """

    def __init__(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any = np.float64,
        *,
        _attach_name: str | None = None,
    ) -> None:
        # Segment lifetime is owner-managed (the creator unlinks), so the
        # stdlib resource tracker is kept out of it entirely — see
        # repro.mpi.shm._tracker_silenced for why registration from
        # multiple processes corrupts the tracker's bookkeeping.
        from repro.mpi import shm as _shm

        self.shape = tuple(shape) if isinstance(shape, (tuple, list)) else (int(shape),)
        self.dtype = np.dtype(dtype)
        nbytes = int(np.prod(self.shape)) * self.dtype.itemsize
        self._owner = _attach_name is None
        if self._owner:
            self._shm = _shm.create_segment(nbytes)
        else:
            self._shm = _shm.attach_segment(_attach_name)
        self.array = np.ndarray(self.shape, dtype=self.dtype, buffer=self._shm.buf)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SharedArray":
        """Create a shared copy of an existing array.

        Non-contiguous (strided-view) input is copied element-by-element
        into the segment's contiguous layout — an explicit
        ``ascontiguousarray``-style normalization, so a sliced view shares
        its *values*, never its stride pattern.  Object dtypes cannot live
        in flat shared bytes and are rejected.
        """
        arr = np.asarray(arr)
        if arr.dtype == object:
            raise TypeError(
                "SharedArray requires a typed NumPy array, got dtype=object"
            )
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        shared = cls(arr.shape, arr.dtype)
        shared.array[...] = arr
        return shared

    @property
    def name(self) -> str:
        return self._shm.name

    def __reduce__(self):
        return (_attach_shared, (self._shm.name, self.shape, self.dtype.str))

    def close(self) -> None:
        self.array = None
        self._shm.close()

    def unlink(self) -> None:
        """Release the segment (owner only); the array becomes invalid."""
        from repro.mpi import shm as _shm

        self.array = None
        if self._owner:
            _shm.unlink_segment(self._shm)
        else:
            self._shm.close()

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.unlink()
