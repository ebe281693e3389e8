"""Process-rank launcher: real OS processes behind the ``comm`` API.

The thread-per-rank :class:`~repro.mpi.runtime.World` gives the teaching
runtime faithful MPI *semantics* (matching, collectives, deadlock
detection) but no *parallelism* — every rank shares one GIL.  This module
launches ranks as forked OS processes with pipe-based message transport,
so the distributed exemplars measure real multicore speedup while keeping
the SPMD ``fn(comm)`` call shape unchanged.

Scope: :class:`ProcComm` is only a transport; the verbs are the shared
front end's (:class:`repro.mpi.frontend.Comm`), so process ranks run
exactly the threads backend's point-to-point verbs (``send``/``recv``/
``sendrecv`` and ``Send``/``Recv``/``Sendrecv``), every object and
typed-buffer collective and Cartesian topologies (``Create_cart``).
Nonblocking requests, ``probe``, ``ssend``, ``Split``/``Dup``/``Create``,
windows and files need transport features this backend lacks and remain
on the threaded backend; select per launch with ``mpirun(...,
backend=...)`` or ``REPRO_MPI_BACKEND``.

Transport: one multiprocessing queue (a locked pipe) per rank serves as
its inbox.  Object envelopes carry payloads pre-pickled by the sending
rank (through :func:`repro.mpi.serial.counted_dumps`, so serialization is
accounted), and receive-side :class:`Status` reports exact byte counts.
Typed buffers never touch pickle: their envelopes carry a
:class:`~repro.mpi.message.BufferHandle` — raw bytes inline below
:func:`repro.mpi.shm.shm_threshold`, a shared-memory segment reference
above it.  Large payloads reuse an acknowledged per-``(src, dst)``
segment (:class:`repro.mpi.shm.SendSlot`) that the receiver re-attaches
through a bounded :class:`repro.mpi.shm.SegmentCache`, for point-to-point
and collective traffic alike.  Collective traffic rides the same pipes
under a per-communicator sequence number — ranks execute collectives in
program order, so the sequence aligns without a separate channel — and
every envelope key carries its communicator's context, so a Cartesian
communicator's messages never match COMM_WORLD's.

Small envelopes are additionally *batched* per destination edge: sends at
or below ``REPRO_MPI_BATCH_BYTES`` (default 1024; ``0`` disables) are
coalesced and flushed as one envelope when the batch fills, before any
larger send to the same edge (non-overtaking), whenever this rank is
about to block (receive, collective, ack wait), and at rank-body end.
Batching turns itself off while a fault injector is armed, because fault
rules are keyed to per-edge message ordinals.

Requires a ``fork``-capable platform (rank bodies may be closures, which
fork inherits but pickle cannot ship).
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import queue as _queue_mod
import time
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from . import hooks as _hooks
from . import serial as _serial
from . import shm as _shm
from .constants import ANY_SOURCE, ANY_TAG, DEFAULT_DEADLOCK_TIMEOUT
from .errors import DeadlockError, MPIError, RankFailedError
from .frontend import CartTopology, Comm, batch_limit
from .message import BufferHandle

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from ..testkit.faults import FaultPlan

__all__ = ["ProcComm", "ProcCartcomm", "run_procs", "fork_available"]

#: Default per-edge coalescing threshold (bytes); REPRO_MPI_BATCH_BYTES
#: overrides, 0 disables.
DEFAULT_BATCH_BYTES = 1024
#: A pending batch is flushed once it holds this many envelopes ...
_BATCH_MAX_MSGS = 16
#: ... or this many payload bytes, whichever comes first.
_BATCH_FLUSH_BYTES = 8192


def fork_available() -> bool:
    """Whether the platform can launch process ranks (fork start method)."""
    return "fork" in multiprocessing.get_all_start_methods()


class _RemoteRankError(MPIError):
    """Re-raised form of an exception that crossed the process boundary."""


class ProcComm(Comm):
    """COMM_WORLD of one process rank: the pipe/shared-memory transport."""

    #: Context id for hook events: process ranks report 0, which never
    #: collides with threaded-world cids (their counter starts at 1).
    _obs_cid = 0
    #: Shared-memory handles carry one flat array, not a list of them.
    _join_blocks = staticmethod(np.concatenate)

    def __init__(
        self,
        rank: int,
        size: int,
        inboxes: Sequence[Any],
        hostname: str,
        deadlock_timeout: float | None,
    ) -> None:
        super().__init__(rank, size)
        #: Message context carried in every envelope key (see ProcCartcomm).
        self._cid: Any = 0
        self._inboxes = inboxes
        self._hostname = hostname
        self._timeout = deadlock_timeout
        #: Buffered envelopes: (source, (context, tag or internal key),
        #: payload) where payload is pickled bytes (object verbs) or a
        #: BufferHandle (buffer verbs).
        self._p2p: list[tuple[int, tuple[Any, int], Any]] = []
        self._coll: list[tuple[int, tuple[Any, int], Any]] = []
        #: Fault injector (``repro.testkit``); armed by ``_rank_main`` when
        #: ``run_procs`` found an active plan before forking.
        self._injector = None
        #: Per-destination coalescing buffers for small envelopes.
        self._batch_limit = batch_limit(DEFAULT_BATCH_BYTES)
        self._batch: dict[int, list[tuple[str, Any, Any]]] = {}
        self._batch_bytes: dict[int, int] = {}
        #: Zero-copy transport state: reused send segment per destination,
        #: received-but-unclaimed copy-out acknowledgments by segment name,
        #: and the attach-side segment cache.
        self._send_slots: dict[int, _shm.SendSlot] = {}
        self._acks: dict[str, int] = {}
        self._cache = _shm.SegmentCache()

    def Get_processor_name(self) -> str:
        return self._hostname

    # -- envelopes ----------------------------------------------------------
    def _file(self, kind: str, src: int, key: Any, payload: Any) -> None:
        """Sort one received envelope into the matching buffer."""
        if kind == "p2p":
            self._p2p.append((src, key, payload))
        elif kind == "coll":
            self._coll.append((src, key, payload))
        elif kind == "ack":
            self._acks[payload] = self._acks.get(payload, 0) + 1
        else:  # a coalesced batch: payload is [(kind, key, payload), ...]
            for inner_kind, inner_key, inner_payload in payload:
                self._file(inner_kind, src, inner_key, inner_payload)

    def _pump_once(self, timeout: float | None) -> bool:
        """Receive and file one envelope; False on timeout (never raises)."""
        try:
            kind, src, key, payload = self._inboxes[self._rank].get(timeout=timeout)
        except _queue_mod.Empty:
            return False
        self._file(kind, src, key, payload)
        return True

    def _pump(self) -> None:
        """Block for one envelope, filing it into the right buffer.

        Flushes this rank's pending batches first: we are about to block,
        and a peer may need one of the held envelopes to make progress.
        """
        self._flush_all()
        if not self._pump_once(self._timeout):
            raise DeadlockError(
                f"rank {self._rank} made no progress for "
                f"{self._timeout}s (blocked in a receive no sender "
                "matches — classic send/recv ordering deadlock?)"
            )

    def _post_raw(
        self, dest: int, kind: str, key: Any, payload: Any, nbytes: int
    ) -> None:
        """Post one envelope, batching small ones per destination edge."""
        envelope = (kind, self._rank, key, payload)
        if self._injector is not None:
            # Fault rules count per-edge message ordinals; coalescing would
            # renumber them, so injected runs always post eagerly.
            self._injector.dispositions(
                self._rank, dest, lambda: self._inboxes[dest].put(envelope)
            )
            return
        if self._batch_limit and nbytes <= self._batch_limit and dest != self._rank:
            pending = self._batch.setdefault(dest, [])
            pending.append((kind, key, payload))
            total = self._batch_bytes.get(dest, 0) + nbytes
            self._batch_bytes[dest] = total
            if len(pending) >= _BATCH_MAX_MSGS or total >= _BATCH_FLUSH_BYTES:
                self._flush_dest(dest)
            return
        # Non-overtaking: anything already batched for this edge must land
        # before this larger envelope.
        self._flush_dest(dest)
        self._inboxes[dest].put(envelope)

    def _flush_dest(self, dest: int) -> None:
        pending = self._batch.get(dest)
        if not pending:
            return
        self._batch[dest] = []
        self._batch_bytes[dest] = 0
        if len(pending) == 1:
            kind, key, payload = pending[0]
            self._inboxes[dest].put((kind, self._rank, key, payload))
        else:
            self._inboxes[dest].put(("batch", self._rank, 0, pending))

    def _flush_all(self) -> None:
        for dest, pending in self._batch.items():
            if pending:
                self._flush_dest(dest)

    def _post_ack(self, dest: int, name: str) -> None:
        """Acknowledge a copy-out so the sender may reuse segment ``name``.

        Acks are transport-internal: never batched, never fault-injected,
        invisible to the hook seam.
        """
        self._inboxes[dest].put(("ack", self._rank, 0, name))

    def _await_acks(self, name: str) -> None:
        while self._acks.get(name, 0) < 1:
            self._pump()
        del self._acks[name]

    # -- typed payloads -----------------------------------------------------
    def _wire(self, payload: Any, dest: int) -> Any:
        """Package an array for ``dest``, reusing the edge's send slot.

        Above :func:`repro.mpi.shm.shm_threshold` the array travels through
        the edge's reused shared-memory segment; the next large payload on
        the same edge waits for the receiver's copy-out ack before
        overwriting it (rendezvous semantics, as real MPI large sends have).
        """
        if not isinstance(payload, np.ndarray):
            return payload
        values = np.ascontiguousarray(payload)
        if self._injector is not None:
            # A dropped descriptor would leak its segment and a duplicated
            # single-use one would be fetched twice, so injected runs ship
            # every buffer inline — fault semantics stay message-shaped.
            return _shm.ship(values, threshold=1 << 62)
        if values.nbytes < _shm.shm_threshold():
            return _shm.ship(values)
        slot = self._send_slots.setdefault(dest, _shm.SendSlot())
        if slot.awaiting_ack and slot.segment is not None:
            self._await_acks(slot.segment.name)
            slot.awaiting_ack = False
        return _shm.ship(values, slot=slot)

    def _unwire(self, payload: Any, source: int) -> Any:
        """Copy a shipped array out (acking a reused segment)."""
        if not isinstance(payload, BufferHandle):
            return payload
        values, ack = _shm.fetch(payload, self._cache)
        if ack is not None:
            self._post_ack(source, ack)
        return values

    # -- front-end transport --------------------------------------------------
    def _begin_op(self) -> None:
        if self._injector is not None:
            self._injector.on_op(self._rank)

    def _p2p_post(self, dest: int, tag: int, payload: Any, nbytes: int) -> None:
        if _hooks.enabled:
            _hooks.emit("send", self._obs_cid, self._rank, dest, tag, nbytes)
        self._post_raw(dest, "p2p", (self._cid, tag), self._wire(payload, dest), nbytes)

    def _p2p_match(self, source: int, tag: int) -> tuple[int, int, Any, int]:
        while True:
            for idx, (src, (cid, tg), payload) in enumerate(self._p2p):
                if cid == self._cid and (source == ANY_SOURCE or src == source) and (
                    tag == ANY_TAG or tg == tag
                ):
                    del self._p2p[idx]
                    values = self._unwire(payload, src)
                    return src, tg, values, _hooks.payload_nbytes(values)
            self._pump()

    def _coll_post(self, dest: int, key: int, payload: Any) -> None:
        self._post_raw(
            dest, "coll", (self._cid, key), self._wire(payload, dest),
            _hooks.payload_nbytes(payload),
        )

    def _coll_match(self, source: int, key: int) -> Any:
        wanted = (self._cid, key)
        while True:
            for idx, (src, k, payload) in enumerate(self._coll):
                if src == source and k == wanted:
                    del self._coll[idx]
                    return self._unwire(payload, src)
            self._pump()

    @staticmethod
    def _snapshot(values: np.ndarray) -> np.ndarray:
        # Shipping copies every array per edge (inline bytes or a segment).
        return values

    def _cart_view(
        self, dims: tuple[int, ...], periods: tuple[bool, ...]
    ) -> "ProcCartcomm":
        return ProcCartcomm(self, dims, periods)

    def _finalize(self) -> None:
        """Flush and tear down transport state at rank-body end.

        Outstanding copy-out acks are collected (bounded wait: the ack
        follows the receiver's copy, so in a matched program it is already
        in flight) and then reused segments are unlinked.  A slot whose
        ack never arrives — an orphaned send, which is an erroneous MPI
        program — is closed without unlinking rather than yanked from
        under a late receiver.
        """
        self._flush_all()
        deadline = time.monotonic() + 2.0
        for slot in self._send_slots.values():
            if slot.awaiting_ack and slot.segment is not None:
                name = slot.segment.name
                while self._acks.get(name, 0) < 1:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._pump_once(remaining):
                        break
                if self._acks.pop(name, 0):
                    slot.awaiting_ack = False
            if slot.awaiting_ack:
                if slot.segment is not None:
                    slot.segment.close()
            else:
                slot.release()
        self._send_slots.clear()
        self._cache.close()


class ProcCartcomm(CartTopology, ProcComm):
    """Cartesian communicator of a process rank (row-major rank layout)."""

    def __init__(
        self, parent: ProcComm, dims: tuple[int, ...], periods: tuple[bool, ...]
    ) -> None:
        # Grid rank r is parent rank r, so the view shares the rank's whole
        # transport state (inboxes, pending envelopes, send slots, caches).
        # Only the message context and the collective sequence are its own;
        # the parent's sequence number names the context identically on
        # every member rank.
        self.__dict__.update(parent.__dict__)
        self._size = math.prod(dims)
        self._cid = (parent._cid, parent._coll_seq)
        self._coll_seq = 0
        self._dims = dims
        self._periods = periods


# ---------------------------------------------------------------------------
# Launch
# ---------------------------------------------------------------------------

def _rank_main(
    rank: int,
    size: int,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    inboxes: list[Any],
    results: Connection,
    hostname: str,
    deadlock_timeout: float | None,
    fault_plan: "FaultPlan | None",
) -> None:
    # Re-home any fork-inherited recorder: events this rank emits are
    # recorded locally and shipped back as the 3rd result-tuple element
    # (they would otherwise land in a dead copy of the parent's buffer).
    from ..obs.recorder import adopt_forked_recorder, collect_forwarded

    rank_rec = adopt_forked_recorder(("rank", rank))
    # The fork copied the parent's serialization counters; zero them so the
    # totals shipped back cover this rank's own traffic only.
    _serial.reset_serialized()
    comm = ProcComm(rank, size, inboxes, hostname, deadlock_timeout)
    if fault_plan:
        # The parent imported testkit to resolve the plan, so this names a
        # module the fork already holds: rank start-up imports nothing.
        from ..testkit.faults import FaultInjector

        comm._injector = FaultInjector(fault_plan)
    try:
        value = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - reported to the parent
        try:
            pickle.dumps(exc)
            payload: Any = exc
        except Exception:
            payload = _RemoteRankError(f"{type(exc).__name__}: {exc}")
        try:
            comm._finalize()
        except Exception:
            pass
        results.send(
            (False, payload, collect_forwarded(rank_rec),
             _serial.serialized_totals())
        )
        return
    try:
        comm._finalize()
    except Exception:
        pass
    forwarded = collect_forwarded(rank_rec)
    totals = _serial.serialized_totals()
    try:
        results.send((True, value, forwarded, totals))
    except Exception as exc:  # unpicklable rank result
        results.send(
            (False, _RemoteRankError(f"unpicklable result: {exc}"),
             forwarded, totals)
        )


def run_procs(
    fn: Callable[..., Any],
    np: int,
    *args: Any,
    hostname: str = "d6ff4f902ed6",
    deadlock_timeout: float | None = DEFAULT_DEADLOCK_TIMEOUT,
    **kwargs: Any,
) -> list[Any]:
    """Run ``fn(comm, *args)`` SPMD on ``np`` forked processes.

    The drop-in process-backed sibling of :func:`repro.mpi.mpirun`: same
    call shape, same per-rank return list, but each rank owns an OS
    process (and a core, when the host has them).  Raises
    :class:`DeadlockError` when ranks stop making progress and
    :class:`RankFailedError` when a rank raises.
    """
    if np < 1:
        raise ValueError(f"process count must be positive, got {np}")
    if not fork_available():
        raise MPIError(
            "the process-rank launcher needs the 'fork' start method; "
            "this platform lacks it — use backend='threads'"
        )
    # Resolved before the fork, so no rank pays for the import (lazy:
    # testkit depends on this package, not vice versa).
    from ..testkit.faults import active_fault_plan

    fault_plan = active_fault_plan()
    ctx = multiprocessing.get_context("fork")
    inboxes = [ctx.Queue() for _ in range(np)]
    from multiprocessing.connection import wait as _mp_wait

    from ..obs.recorder import active as _obs_active
    from ..obs.recorder import ingest_forwarded as _obs_ingest

    # One result pipe per rank, made just before that rank's fork and
    # closed in the parent right after, so only the rank holds its write
    # end: a rank that dies gives end-of-file.  The send pickles on the
    # spot, so an unpicklable result is reported rather than lost.
    procs: list[Any] = []
    readers: list[Connection] = []
    launch_ts = time.monotonic()
    for rank in range(np):
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_rank_main,
            args=(
                rank,
                np,
                fn,
                args,
                kwargs,
                inboxes,
                writer,
                hostname,
                deadlock_timeout,
                fault_plan,
            ),
            name=f"mpi-proc-rank-{rank}",
            daemon=True,
        )
        proc.start()
        writer.close()
        procs.append(proc)
        readers.append(reader)

    # Drain results *before* joining: a child flushing a large result into a
    # full pipe would otherwise deadlock against a parent stuck in join().
    results: list[Any] = [None] * np
    failures: dict[int, BaseException] = {}
    budget = (deadlock_timeout or 30.0) * 4
    deadline = time.monotonic() + budget
    pending = set(range(np))
    try:
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlockError(
                    f"ranks {sorted(pending)} did not finish within {budget}s"
                )
            # A rank's pipe turns readable with its result or at its death;
            # the sentinel still fires if a process the rank forked keeps
            # the write end open.
            watched = {readers[r]: r for r in pending}
            watched.update({procs[r].sentinel: r for r in pending})
            dead: dict[int, BaseException] = {}
            for rank in {watched[obj] for obj in _mp_wait(list(watched), remaining)}:
                pending.discard(rank)
                try:
                    if not readers[rank].poll():
                        raise EOFError
                    ok, payload, forwarded, serialized = readers[rank].recv()
                except EOFError:
                    procs[rank].join(timeout=2.0)
                    dead[rank] = _RemoteRankError(
                        f"rank process exited with code {procs[rank].exitcode}"
                    )
                    continue
                _serial.merge_serialized(serialized)
                if forwarded is not None and _obs_active() is not None:
                    _obs_ingest(forwarded, launch_ts)
                if ok:
                    results[rank] = payload
                else:
                    failures[rank] = payload
            if dead:
                raise RankFailedError(dead)
    finally:
        for p in procs:
            p.join(timeout=2.0)
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=2.0)
        for reader in readers:
            reader.close()
        for q in inboxes:
            q.cancel_join_thread()
            q.close()

    if failures:
        deadlocks = {
            r: e for r, e in failures.items() if isinstance(e, DeadlockError)
        }
        if deadlocks and len(deadlocks) == len(failures):
            raise next(iter(deadlocks.values()))
        raise RankFailedError(failures)
    return results
