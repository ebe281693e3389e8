"""The communicator front end: every MPI verb written once over a transport.

:class:`Comm` holds the verb layer the threads backend
(:class:`repro.mpi.comm.Intracomm`) and the processes backend
(:class:`repro.mpi.procs.ProcComm`) share: argument checks (peer, tag,
``PROC_NULL``, root, counts), pickle-vs-buffer framing and its
type-mismatch errors, :class:`~repro.mpi.status.Status` filling, the
``recv_enter``/``recv_exit``/``coll_*`` hook events, algorithm selection,
the truncation-checked receive fill and the Cartesian topology.

A backend subclasses :class:`Comm` and supplies only its transport:

``_begin_op()``
    Called once at the start of every verb: the liveness check, and the
    fault injector's operation tick.
``_p2p_post(dest, tag, payload, nbytes)`` / ``_p2p_match(source, tag)``
    Enqueue one user-context message; block for the earliest matching one
    and return ``(source, tag, payload, nbytes)``.
``_coll_post(dest, key, payload)`` / ``_coll_match(source, key)``
    The same for the collective context, keyed by an internal tag.
``_snapshot(values)``
    Make a typed send buffer safe to hand to the transport before the verb
    returns (the threads transport copies it; the processes transport
    copies per edge while shipping, so it returns the view).
``_cart_view(dims, periods)``
    The calling rank's view of a new Cartesian communicator.
``_join_blocks``
    How gathered blocks are joined before they are forwarded; ``None``
    when the transport can carry a list of arrays as one payload.

Payloads cross the transport as pickled ``bytes`` (lowercase verbs) or as
NumPy arrays (uppercase verbs); how an array travels is the transport's
business, and a receive that gets the other kind raises ``TypeError``.
"""

from __future__ import annotations

import math
import os
import pickle
from typing import Any, Callable, Sequence

import numpy as np

from . import algorithms as _algos
from . import collectives as coll
from . import hooks as _hooks
from .buffers import BufferSpec, parse_buffer, parse_vector_buffer
from .constants import ANY_SOURCE, ANY_TAG, PROC_NULL, TAG_UB, UNDEFINED
from .errors import InvalidCountError, InvalidRankError, InvalidTagError, TruncationError
from .ops import SUM, Op
from .serial import counted_dumps
from .status import Status

__all__ = ["Comm", "CartTopology", "batch_limit"]

#: Phase multiplier for internal collective tags: phases must stay below this.
_PHASE_SPAN = 1024


def batch_limit(default: int) -> int:
    """Per-edge send-coalescing threshold in bytes (0 disables batching).

    ``REPRO_MPI_BATCH_BYTES`` overrides the backend's ``default``; a value
    that is not an integer falls back to that default.
    """
    env = os.environ.get("REPRO_MPI_BATCH_BYTES")
    if env is None:
        return default
    try:
        return max(0, int(env))
    except ValueError:
        return default


class Comm:
    """The mpi4py ``Comm`` verb surface of one rank, over a backend transport."""

    #: Joins gathered blocks into one array before they are forwarded, for
    #: transports that cannot carry a list of arrays as one payload.
    _join_blocks: Callable[[Sequence[Any]], Any] | None = None

    #: Context id reported with hook events.
    _obs_cid: int

    def __init__(self, rank: int, size: int) -> None:
        self._rank = rank
        self._size = size
        self._coll_seq = 0

    # ---------------------------------------------------------------- transport
    def _begin_op(self) -> None:
        raise NotImplementedError

    def _p2p_post(self, dest: int, tag: int, payload: Any, nbytes: int) -> None:
        raise NotImplementedError

    def _p2p_match(self, source: int, tag: int) -> tuple[int, int, Any, int]:
        raise NotImplementedError

    def _coll_post(self, dest: int, key: int, payload: Any) -> None:
        raise NotImplementedError

    def _coll_match(self, source: int, key: int) -> Any:
        raise NotImplementedError

    def _snapshot(self, values: np.ndarray) -> Any:
        raise NotImplementedError

    def _cart_view(self, dims: tuple[int, ...], periods: tuple[bool, ...]) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------ framing
    @staticmethod
    def _load(payload: Any) -> Any:
        """Unpickle an object-mode payload, rejecting a typed-buffer one."""
        if not isinstance(payload, bytes):
            raise TypeError(
                "an object (lowercase) verb matched a typed-buffer message; "
                "use the same verb case on the sending and receiving side"
            )
        return pickle.loads(payload)

    @staticmethod
    def _values(payload: Any) -> Any:
        """Typed values of a buffer-mode payload, rejecting an object one."""
        if isinstance(payload, bytes):
            raise TypeError(
                "a buffer (uppercase) verb matched an object-mode message; "
                "use the same verb case on the sending and receiving side"
            )
        return payload

    # ------------------------------------------------------------------- checks
    def _check_peer(self, rank: int, *, wildcard: bool, what: str) -> None:
        if rank == PROC_NULL:
            return
        if wildcard and rank == ANY_SOURCE:
            return
        if not 0 <= rank < self._size:
            raise InvalidRankError(rank, self._size, what)

    @staticmethod
    def _check_tag(tag: int, *, wildcard: bool) -> None:
        if wildcard and tag == ANY_TAG:
            return
        if not 0 <= tag <= TAG_UB:
            raise InvalidTagError(tag)

    def _open_send(self, dest: int, tag: int) -> bool:
        """Entry of every send verb; False when ``dest`` is ``PROC_NULL``."""
        self._begin_op()
        self._check_peer(dest, wildcard=False, what="destination")
        self._check_tag(tag, wildcard=False)
        return dest != PROC_NULL

    def _open_recv(self, source: int, tag: int) -> None:
        """Entry of every receive verb."""
        self._begin_op()
        self._check_peer(source, wildcard=True, what="source")
        self._check_tag(tag, wildcard=True)

    # ------------------------------------------------------------------ inquiry
    def Get_rank(self) -> int:
        """Rank of the calling process in this communicator."""
        return self._rank

    def Get_size(self) -> int:
        """Number of processes in this communicator."""
        return self._size

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._size

    def Get_topology(self) -> str | None:
        return None

    # ------------------------------------------------------------ point-to-point
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send of a pickled Python object.

        Standard mode is eager-buffered, as small-message MPI sends are in
        practice: the call returns once the envelope is enqueued.
        """
        if self._open_send(dest, tag):
            payload = counted_dumps(obj)
            self._p2p_post(dest, tag, payload, len(payload))

    def Send(self, buf: Any, dest: int, tag: int = 0) -> None:
        """Blocking typed-buffer send (``[data, MPI.TYPE]`` or bare array)."""
        if self._open_send(dest, tag):
            spec = parse_buffer(buf)
            self._p2p_post(dest, tag, self._outgoing(spec), spec.nbytes)

    def _receive(self, source: int, tag: int, status: Status | None) -> Any:
        """Match one user message and fill ``status``; None when ``source``
        is ``PROC_NULL``."""
        self._open_recv(source, tag)
        if source == PROC_NULL:
            if status is not None:
                status._set(PROC_NULL, ANY_TAG, 0)
            return None
        if not _hooks.enabled:
            src, tg, payload, nbytes = self._p2p_match(source, tag)
        else:
            _hooks.emit("recv_enter", self._obs_cid, self._rank, source, tag)
            src, tg, payload, nbytes = self._p2p_match(source, tag)
            _hooks.emit("recv_exit", self._obs_cid, self._rank, src, tg, nbytes)
        if status is not None:
            status._set(src, tg, nbytes)
        return payload

    def recv(
        self,
        buf: Any = None,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        """Blocking receive; returns the (unpickled) object."""
        payload = self._receive(source, tag, status)
        return None if payload is None else self._load(payload)

    def Recv(
        self,
        buf: Any,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> None:
        """Blocking typed-buffer receive into caller-provided storage."""
        spec = parse_buffer(buf)
        payload = self._receive(source, tag, status)
        if payload is not None:
            self._fill(spec, self._values(payload))

    def sendrecv(
        self,
        sendobj: Any,
        dest: int,
        sendtag: int = 0,
        recvbuf: Any = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        """Combined send+receive, deadlock-free for exchange patterns."""
        self.send(sendobj, dest, sendtag)
        return self.recv(recvbuf, source, recvtag, status)

    def Sendrecv(
        self,
        sendbuf: Any,
        dest: int,
        sendtag: int = 0,
        recvbuf: Any = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Status | None = None,
    ) -> None:
        self.Send(sendbuf, dest, sendtag)
        self.Recv(recvbuf, source, recvtag, status)

    @staticmethod
    def _fill(spec: BufferSpec, values: Any) -> None:
        """Copy received values into a receive buffer, refusing to truncate."""
        arr = np.asarray(values)
        if arr.size > len(spec.array):
            raise TruncationError(
                f"message of {arr.size} elements truncated to receive buffer "
                f"of {len(spec.array)}"
            )
        spec.fill(arr.astype(spec.datatype.np_dtype, copy=False))

    # ---------------------------------------------------- collective transport
    def _transports(self) -> tuple[coll.Send, coll.Recv]:
        """Raw payload transport in the collective context for one collective.

        Each collective call consumes one sequence number; all ranks consume
        them in the same order (the standard requires collectives to be
        called in the same order on every rank), so internal tags agree.
        """
        self._begin_op()
        base = self._coll_seq * _PHASE_SPAN
        self._coll_seq += 1

        def send(dest: int, phase: int, payload: Any) -> None:
            if _hooks.enabled:
                _hooks.emit(
                    "coll_msg", self._obs_cid, self._rank, dest,
                    _hooks.payload_nbytes(payload),
                )
            self._coll_post(dest, base + phase, payload)

        def recv(source: int, phase: int) -> Any:
            return self._coll_match(source, base + phase)

        return send, recv

    def _obj_transports(self) -> tuple[coll.Send, coll.Recv]:
        """Pickling transport: every delivery is a private deep copy."""
        send_raw, recv_raw = self._transports()

        def send(dest: int, phase: int, obj: Any) -> None:
            send_raw(dest, phase, counted_dumps(obj))

        def recv(source: int, phase: int) -> Any:
            return self._load(recv_raw(source, phase))

        return send, recv

    def _buf_transports(self) -> tuple[coll.Send, coll.Recv]:
        """Typed-array transport: rejects object-mode collective traffic."""
        send, recv_raw = self._transports()

        def recv(source: int, phase: int) -> Any:
            return self._values(recv_raw(source, phase))

        return send, recv

    def _pick(
        self,
        collective: str,
        *,
        nbytes: int = 0,
        commute: bool = True,
        chunked: bool = False,
        requested: str | None = None,
    ) -> str:
        """Resolve the algorithm for one collective and record the choice.

        Every rank must arrive at the same answer or the internal tags
        mismatch, so the lowercase (object) verbs always resolve with
        ``nbytes=0`` — pickled sizes can differ across ranks.  The buffer
        verbs pass the typed byte count, which MPI semantics guarantee is
        identical everywhere.
        """
        algo = _algos.resolve(
            collective,
            size=self._size,
            nbytes=nbytes,
            commute=commute,
            chunked=chunked,
            requested=requested,
        )
        if _hooks.enabled:
            _hooks.emit("coll_algo", self._obs_cid, self._rank, collective, algo)
        return algo

    # ------------------------------------------------------- collectives (obj)
    @_hooks.traced_collective
    def barrier(self) -> None:
        """Block until every rank of the communicator has arrived."""
        self._pick("barrier")
        send, recv = self._transports()
        coll.barrier_dissemination(self._rank, self._size, send, recv)

    Barrier = barrier

    @_hooks.traced_collective
    def bcast(self, obj: Any, root: int = 0, *, algorithm: str | None = None) -> Any:
        """Broadcast a Python object from ``root`` to every rank."""
        self._check_peer(root, wildcard=False, what="root")
        algo = self._pick("bcast", requested=algorithm)
        send, recv = self._transports()
        payload = counted_dumps(obj) if self._rank == root else None
        result = _algos.run_bcast(
            algo, self._rank, self._size, root, payload, send, recv,
            split=coll.split_bytes, concat=b"".join,
        )
        return obj if self._rank == root else self._load(result)

    @_hooks.traced_collective
    def scatter(self, sendobj: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a ``size``-element sequence from root; returns the local item."""
        self._check_peer(root, wildcard=False, what="root")
        send, recv = self._obj_transports()
        chunks = None
        if self._rank == root:
            if sendobj is None or len(sendobj) != self._size:
                got = "None" if sendobj is None else str(len(sendobj))
                raise InvalidCountError(
                    f"scatter at root expects exactly {self._size} items, got {got}"
                )
            chunks = list(sendobj)
        return coll.scatter_linear(self._rank, self._size, root, chunks, send, recv)

    @_hooks.traced_collective
    def gather(self, sendobj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank into an ordered list at root."""
        self._check_peer(root, wildcard=False, what="root")
        send, recv = self._obj_transports()
        return coll.gather_linear(self._rank, self._size, root, sendobj, send, recv)

    @_hooks.traced_collective
    def allgather(self, sendobj: Any, *, algorithm: str | None = None) -> list[Any]:
        """Gather one object per rank; every rank gets the full list."""
        algo = self._pick("allgather", requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_allgather(algo, self._rank, self._size, sendobj, send, recv)

    @_hooks.traced_collective
    def alltoall(self, sendobj: Sequence[Any]) -> list[Any]:
        """Personalized exchange: item ``j`` of my sequence goes to rank ``j``."""
        if len(sendobj) != self._size:
            raise InvalidCountError(
                f"alltoall expects {self._size} items, got {len(sendobj)}"
            )
        send, recv = self._obj_transports()
        return coll.alltoall_pairwise(self._rank, self._size, list(sendobj), send, recv)

    @_hooks.traced_collective
    def reduce(
        self,
        sendobj: Any,
        op: Op = SUM,
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> Any:
        """Combine one value per rank with ``op``; result lands at root."""
        self._check_peer(root, wildcard=False, what="root")
        algo = self._pick("reduce", commute=op.commute, requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_reduce(
            algo, self._rank, self._size, root, sendobj, op, send, recv
        )

    @_hooks.traced_collective
    def allreduce(
        self, sendobj: Any, op: Op = SUM, *, algorithm: str | None = None
    ) -> Any:
        """Reduce then deliver the result to every rank."""
        algo = self._pick("allreduce", commute=op.commute, requested=algorithm)
        send, recv = self._obj_transports()
        return _algos.run_allreduce(
            algo, self._rank, self._size, sendobj, op, send, recv
        )

    @_hooks.traced_collective
    def scan(self, sendobj: Any, op: Op = SUM) -> Any:
        """Inclusive prefix reduction over ranks."""
        send, recv = self._obj_transports()
        return coll.scan_linear(self._rank, self._size, sendobj, op, send, recv)

    @_hooks.traced_collective
    def exscan(self, sendobj: Any, op: Op = SUM) -> Any:
        """Exclusive prefix reduction; rank 0 gets ``None``."""
        send, recv = self._obj_transports()
        return coll.exscan_linear(self._rank, self._size, sendobj, op, send, recv)

    # ---------------------------------------------------- collectives (buffer)
    @staticmethod
    def _array_split(values: Any, n: int) -> list[Any]:
        return list(np.array_split(values, n))

    def _outgoing(self, spec: BufferSpec) -> Any:
        """The send-side values of a parsed buffer, as the transport needs them."""
        return self._snapshot(spec.array[: spec.count])

    def _equal_chunks(self, spec: BufferSpec, verb: str) -> list[Any]:
        """Split a send buffer into one equal chunk per rank."""
        if spec.count % self._size:
            raise InvalidCountError(
                f"{verb}: send count {spec.count} not divisible by size {self._size}"
            )
        n = spec.count // self._size
        data = self._outgoing(spec)
        return [data[i * n : (i + 1) * n] for i in range(self._size)]

    @_hooks.traced_collective
    def Bcast(self, buf: Any, root: int = 0, *, algorithm: str | None = None) -> None:
        """Broadcast a typed buffer in place."""
        self._check_peer(root, wildcard=False, what="root")
        spec = parse_buffer(buf)
        algo = self._pick(
            "bcast",
            nbytes=spec.count * spec.array.dtype.itemsize,
            requested=algorithm,
        )
        send, recv = self._buf_transports()
        payload = self._outgoing(spec) if self._rank == root else None
        values = _algos.run_bcast(
            algo, self._rank, self._size, root, payload, send, recv,
            split=self._array_split, concat=np.concatenate,
        )
        if self._rank != root:
            self._fill(spec, values)

    @_hooks.traced_collective
    def Scatter(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Scatter equal contiguous chunks of ``sendbuf`` from root."""
        self._check_peer(root, wildcard=False, what="root")
        send, recv = self._buf_transports()
        chunks = None
        if self._rank == root:
            chunks = self._equal_chunks(parse_buffer(sendbuf), "Scatter")
        values = coll.scatter_linear(self._rank, self._size, root, chunks, send, recv)
        self._fill(parse_buffer(recvbuf), values)

    @_hooks.traced_collective
    def Scatterv(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Scatter variable-size segments ``[data, counts, displs, type]``."""
        self._check_peer(root, wildcard=False, what="root")
        send, recv = self._buf_transports()
        chunks = None
        if self._rank == root:
            vspec = parse_vector_buffer(sendbuf, self._size)
            chunks = [
                self._snapshot(vspec.array[d : d + c])
                for c, d in zip(vspec.counts, vspec.displs)
            ]
        values = coll.scatter_linear(self._rank, self._size, root, chunks, send, recv)
        self._fill(parse_buffer(recvbuf), values)

    @_hooks.traced_collective
    def Gather(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Gather equal chunks into root's buffer, ordered by rank."""
        self._check_peer(root, wildcard=False, what="root")
        send, recv = self._buf_transports()
        values = self._outgoing(parse_buffer(sendbuf))
        parts = coll.gather_linear(self._rank, self._size, root, values, send, recv)
        if self._rank == root:
            self._place_parts(parse_buffer(recvbuf), parts)

    @_hooks.traced_collective
    def Gatherv(self, sendbuf: Any, recvbuf: Any, root: int = 0) -> None:
        """Gather variable-size segments into ``[data, counts, displs, type]``."""
        self._check_peer(root, wildcard=False, what="root")
        send, recv = self._buf_transports()
        values = self._outgoing(parse_buffer(sendbuf))
        parts = coll.gather_linear(self._rank, self._size, root, values, send, recv)
        if self._rank == root:
            vspec = parse_vector_buffer(recvbuf, self._size)
            for src, (part, c, d) in enumerate(
                zip(parts, vspec.counts, vspec.displs)
            ):
                arr = np.asarray(part)
                if arr.size != c:
                    raise InvalidCountError(
                        f"Gatherv: rank {src} sent {arr.size} elements where "
                        f"counts specify {c} at displacement {d}"
                    )
                vspec.array[d : d + c] = arr.astype(vspec.datatype.np_dtype, copy=False)

    @_hooks.traced_collective
    def Allgather(
        self, sendbuf: Any, recvbuf: Any, *, algorithm: str | None = None
    ) -> None:
        """All ranks gather everyone's chunk into their own buffer."""
        sspec = parse_buffer(sendbuf)
        algo = self._pick(
            "allgather",
            nbytes=sspec.count * sspec.array.dtype.itemsize,
            requested=algorithm,
        )
        send, recv = self._buf_transports()
        parts = _algos.run_allgather(
            algo, self._rank, self._size, self._outgoing(sspec), send, recv,
            concat=self._join_blocks,
        )
        rspec = parse_buffer(recvbuf)
        if isinstance(parts, list):
            self._place_parts(rspec, parts)
        else:
            self._fill(rspec, parts)

    @_hooks.traced_collective
    def Alltoall(self, sendbuf: Any, recvbuf: Any) -> None:
        """Typed personalized exchange of equal chunks."""
        outgoing = self._equal_chunks(parse_buffer(sendbuf), "Alltoall")
        send, recv = self._buf_transports()
        parts = coll.alltoall_pairwise(self._rank, self._size, outgoing, send, recv)
        self._place_parts(parse_buffer(recvbuf), parts)

    @_hooks.traced_collective
    def Reduce(
        self,
        sendbuf: Any,
        recvbuf: Any,
        op: Op = SUM,
        root: int = 0,
        *,
        algorithm: str | None = None,
    ) -> None:
        """Elementwise typed reduction to root."""
        self._check_peer(root, wildcard=False, what="root")
        sspec = parse_buffer(sendbuf)
        algo = self._pick(
            "reduce",
            nbytes=sspec.count * sspec.array.dtype.itemsize,
            commute=op.commute,
            requested=algorithm,
        )
        send, recv = self._buf_transports()
        result = _algos.run_reduce(
            algo, self._rank, self._size, root, self._outgoing(sspec), op, send, recv
        )
        if self._rank == root:
            self._fill(parse_buffer(recvbuf), result)

    @_hooks.traced_collective
    def Allreduce(
        self,
        sendbuf: Any,
        recvbuf: Any,
        op: Op = SUM,
        *,
        algorithm: str | None = None,
    ) -> None:
        """Elementwise typed reduction delivered to every rank."""
        sspec = parse_buffer(sendbuf)
        # Chunking splits the array across the ring; only sound when the op
        # combines elementwise (MAXLOC-style pair ops must stay whole).
        chunkable = op.commute and op.elementwise and self._size > 1
        algo = self._pick(
            "allreduce",
            nbytes=sspec.count * sspec.array.dtype.itemsize,
            commute=op.commute,
            chunked=chunkable,
            requested=algorithm,
        )
        send, recv = self._buf_transports()
        result = _algos.run_allreduce(
            algo, self._rank, self._size, self._outgoing(sspec), op, send, recv,
            split=self._array_split if chunkable else None,
            concat=np.concatenate if chunkable else None,
        )
        self._fill(parse_buffer(recvbuf), result)

    @staticmethod
    def _place_parts(rspec: BufferSpec, parts: Sequence[Any]) -> None:
        offset = 0
        for src, part in enumerate(parts):
            arr = np.asarray(part)
            if offset + arr.size > len(rspec.array):
                raise TruncationError(
                    f"gathered data exceeds the receive buffer capacity: rank "
                    f"{src}'s part of {arr.size} elements at offset {offset} "
                    f"overflows the {len(rspec.array)}-element buffer"
                )
            rspec.array[offset : offset + arr.size] = arr.astype(
                rspec.datatype.np_dtype, copy=False
            )
            offset += arr.size

    # ----------------------------------------------------------------- topology
    def Create_cart(
        self,
        dims: Sequence[int],
        periods: Sequence[bool] | None = None,
        reorder: bool = False,
    ) -> Any:
        """Create a Cartesian topology communicator (collective).

        Ranks ``0 .. prod(dims)-1`` keep their rank on the grid (row-major,
        no reordering); the remaining ranks get ``None``.
        """
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise ValueError(f"invalid cartesian dims {dims}")
        nnodes = math.prod(dims)
        if nnodes > self._size:
            raise InvalidCountError(
                f"cartesian grid {dims} needs {nnodes} ranks, communicator has "
                f"{self._size}"
            )
        periods = tuple(bool(p) for p in (periods or (False,) * len(dims)))
        if len(periods) != len(dims):
            raise ValueError("periods must match dims in length")
        # Collective over this communicator: each rank announces whether it
        # joins the grid (the traffic repro.analysis.scale models).  It also
        # advances the collective sequence, which names the new context.
        self.allgather((0 if self._rank < nnodes else UNDEFINED, self._rank, self._rank))
        if self._rank >= nnodes:
            return None
        return self._cart_view(dims, periods)


class CartTopology:
    """Row-major Cartesian grid methods, mixed into a backend's communicator.

    The host class provides ``_rank``, ``_size``, ``_dims`` and ``_periods``.
    """

    _rank: int
    _size: int
    _dims: tuple[int, ...]
    _periods: tuple[bool, ...]

    def Get_topology(self) -> str:
        return "cart"

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def periods(self) -> tuple[bool, ...]:
        return self._periods

    @property
    def ndim(self) -> int:
        return len(self._dims)

    def Get_dim(self) -> int:
        return len(self._dims)

    def Get_topo(self) -> tuple[tuple[int, ...], tuple[bool, ...], tuple[int, ...]]:
        """Return ``(dims, periods, my_coords)``."""
        return self._dims, self._periods, self.Get_coords(self._rank)

    def Get_coords(self, rank: int) -> tuple[int, ...]:
        """Row-major coordinates of ``rank`` on the grid."""
        if not 0 <= rank < self._size:
            raise ValueError(f"rank {rank} outside cartesian communicator")
        coords = []
        for extent in reversed(self._dims):
            coords.append(rank % extent)
            rank //= extent
        return tuple(reversed(coords))

    @property
    def coords(self) -> tuple[int, ...]:
        return self.Get_coords(self._rank)

    def Get_cart_rank(self, coords: Sequence[int]) -> int:
        """Rank at the given coordinates (periodic wrap where allowed)."""
        if len(coords) != len(self._dims):
            raise ValueError(
                f"expected {len(self._dims)} coordinates, got {len(coords)}"
            )
        rank = 0
        for c, extent, periodic in zip(coords, self._dims, self._periods):
            if periodic:
                c %= extent
            elif not 0 <= c < extent:
                raise ValueError(
                    f"coordinate {c} outside non-periodic dimension of extent {extent}"
                )
            rank = rank * extent + c
        return rank

    def Shift(self, direction: int, disp: int = 1) -> tuple[int, int]:
        """Return ``(source, dest)`` for a shift along one dimension.

        At a non-periodic boundary the missing neighbor is ``PROC_NULL``,
        so shift exchanges degrade gracefully at the edges — exactly the
        behaviour the halo-exchange patternlet teaches.
        """
        if not 0 <= direction < len(self._dims):
            raise ValueError(f"invalid shift direction {direction}")
        me = list(self.Get_coords(self._rank))

        def neighbor(offset: int) -> int:
            coords = list(me)
            coords[direction] += offset
            extent = self._dims[direction]
            if self._periods[direction]:
                coords[direction] %= extent
            elif not 0 <= coords[direction] < extent:
                return PROC_NULL
            return self.Get_cart_rank(coords)

        return neighbor(-disp), neighbor(disp)
