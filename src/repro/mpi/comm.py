"""The threads backend: an in-process transport under the communicator front end.

One :class:`CommCore` holds the shared state of a communicator (mailboxes,
membership, context id); each rank interacts through its own
:class:`Intracomm` *view* bound to that core.  The verbs shared with the
processes backend live once in :class:`repro.mpi.frontend.Comm`; this
module supplies the mailbox transport beneath them, plus the verbs that
need transport features only threads have: nonblocking requests,
``probe``, synchronous sends and ``Split``/``Dup``/``Create``.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Sequence

import numpy as np

from . import hooks as _hooks
from .buffers import parse_buffer
from .constants import ANY_SOURCE, ANY_TAG, UNDEFINED
from .errors import CommAlreadyFreedError, WorldAbortedError
from .frontend import Comm, batch_limit
from .group import Group
from .message import Mailbox, Message, wait_event
from .request import BufferRecvRequest, RecvRequest, Request, SendRequest
from .serial import counted_dumps
from .status import Status

__all__ = ["CommCore", "Intracomm"]


class CommCore:
    """Shared state of one communicator across all of its rank views."""

    def __init__(
        self,
        world: Any,
        world_ranks: Sequence[int],
        name: str,
        view_cls: type | None = None,
        view_kwargs: dict[str, Any] | None = None,
    ) -> None:
        self.world = world
        self.world_ranks = tuple(world_ranks)
        self.size = len(self.world_ranks)
        self.cid = world.next_cid()
        self.name = name
        self.freed = False
        self.user_boxes = [Mailbox(world) for _ in range(self.size)]
        self.coll_boxes = [Mailbox(world) for _ in range(self.size)]
        # Off by default: mailbox delivery is a list append under a lock, so
        # coalescing buys little here and costs envelope latency.
        self.batch_limit = batch_limit(0)
        view_cls = view_cls or Intracomm
        view_kwargs = view_kwargs or {}
        self.views = [view_cls(self, r, **view_kwargs) for r in range(self.size)]


class Intracomm(Comm):
    """One rank's view of a communicator (the object user code receives)."""

    def __init__(self, core: CommCore, rank: int) -> None:
        super().__init__(rank, core.size)
        self._core = core
        #: Per-destination coalescing buffers (active only when the core's
        #: batch_limit is nonzero).
        self._out_batch: dict[int, list[Message]] = {}
        self._out_bytes: dict[int, int] = {}

    # ------------------------------------------------------------------ plumbing
    @classmethod
    def _create_world(cls, world: Any) -> "Intracomm":
        core = CommCore(world, range(world.size), "MPI_COMM_WORLD")
        return core.views[0]

    def _for_rank(self, rank: int) -> "Intracomm":
        return self._core.views[rank]

    @property
    def world(self) -> Any:
        return self._core.world

    @property
    def mailbox(self) -> Mailbox:
        return self._core.user_boxes[self._rank]

    @property
    def _obs_cid(self) -> int:
        return self._core.cid

    def _put_user(self, dest: int, message: Message) -> None:
        """Enqueue a user-context message, announcing it to the hook seam."""
        if _hooks.enabled:
            _hooks.emit(
                "send", self._core.cid, self._rank, dest, message.tag,
                message.nbytes,
            )
        injector = self._core.world.injector
        if injector is not None:
            # Fault rules count per-edge message ordinals, so injected runs
            # never coalesce.
            injector.dispositions(
                self._world_rank(),
                self._core.world_ranks[dest],
                lambda: self._core.user_boxes[dest].put(message),
            )
            return
        limit = self._core.batch_limit
        if (
            limit
            and message.synchronous is None
            and message.nbytes <= limit
            and dest != self._rank
        ):
            pending = self._out_batch.setdefault(dest, [])
            pending.append(message)
            total = self._out_bytes.get(dest, 0) + message.nbytes
            self._out_bytes[dest] = total
            if len(pending) >= 16 or total >= 8 * limit:
                self._flush_dest(dest)
            return
        # Non-overtaking: older batched envelopes for this edge must be
        # delivered before this one.
        self._flush_dest(dest)
        self._core.user_boxes[dest].put(message)

    def _flush_dest(self, dest: int) -> None:
        pending = self._out_batch.get(dest)
        if not pending:
            return
        self._out_batch[dest] = []
        self._out_bytes[dest] = 0
        self._core.user_boxes[dest].put_many(pending)

    def _flush_sends(self) -> None:
        """Deliver every coalesced envelope (called before blocking)."""
        if not self._out_batch:
            return
        for dest, pending in self._out_batch.items():
            if pending:
                self._flush_dest(dest)

    def _world_rank(self) -> int:
        """This view's rank in MPI_COMM_WORLD (fault rules use world ranks)."""
        return self._core.world_ranks[self._rank]

    # ----------------------------------------------------------------- transport
    def _begin_op(self) -> None:
        if self._core.freed:
            raise CommAlreadyFreedError(f"communicator {self._core.name} was freed")
        self._core.world.check_abort()
        injector = self._core.world.injector
        if injector is not None:
            # Every verb passes through here, so op counting sees point-to-
            # point and collective calls alike — a crash rule can therefore
            # kill a rank mid-collective, deterministically.
            injector.on_op(self._world_rank())

    def _p2p_post(self, dest: int, tag: int, payload: Any, nbytes: int) -> None:
        self._put_user(dest, Message(self._rank, tag, payload, nbytes))

    def _p2p_match(self, source: int, tag: int) -> tuple[int, int, Any, int]:
        self._flush_sends()
        msg = self.mailbox.get(source, tag)
        return msg.source, msg.tag, msg.payload, msg.nbytes

    def _coll_post(self, dest: int, key: int, payload: Any) -> None:
        core = self._core
        message = Message(self._rank, key, payload, 0)
        injector = core.world.injector
        if injector is not None:
            injector.dispositions(
                self._world_rank(),
                core.world_ranks[dest],
                lambda: core.coll_boxes[dest].put(message),
            )
            return
        core.coll_boxes[dest].put(message)

    def _coll_match(self, source: int, key: int) -> Any:
        self._flush_sends()
        return self._core.coll_boxes[self._rank].get(source, key).payload

    @staticmethod
    def _snapshot(values: np.ndarray) -> np.ndarray:
        # Envelopes are delivered by reference, so the send buffer is copied
        # once per verb; forwarded and combined payloads are already private.
        return values.copy()

    def _cart_view(self, dims: tuple[int, ...], periods: tuple[bool, ...]) -> Any:
        from .cartesian import Cartcomm

        core = self._core

        def factory() -> CommCore:
            return CommCore(
                core.world,
                core.world_ranks[: math.prod(dims)],
                f"{core.name}.cart{dims}",
                view_cls=Cartcomm,
                view_kwargs={"dims": dims, "periods": periods},
            )

        key = ("cart", core.cid, self._coll_seq, dims, periods)
        return core.world.registry.get_or_create(key, factory).views[self._rank]

    # ------------------------------------------------------------------- inquiry
    def Get_name(self) -> str:
        return self._core.name

    def Set_name(self, name: str) -> None:
        self._core.name = str(name)

    @property
    def name(self) -> str:
        return self._core.name

    def Get_group(self) -> Group:
        return Group(self._core.world_ranks)

    def Free(self) -> None:
        """Release the communicator; later operations raise."""
        self._core.freed = True

    def Abort(self, errorcode: int = 1) -> None:
        """Tear down the whole world (``MPI_Abort``)."""
        self._core.world.abort_with(WorldAbortedError(errorcode, origin=self._rank))
        self._core.world.check_abort()

    def Is_intra(self) -> bool:
        return True

    def Is_inter(self) -> bool:
        return False

    # ------------------------------------------- point-to-point (threads only)
    def _post_synchronous(self, obj: Any, dest: int, tag: int) -> threading.Event:
        done = threading.Event()
        payload = counted_dumps(obj)
        self._put_user(
            dest, Message(self._rank, tag, payload, len(payload), synchronous=done)
        )
        return done

    def ssend(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Synchronous send: blocks until the matching receive starts."""
        if self._open_send(dest, tag):
            done = self._post_synchronous(obj, dest, tag)
            self._flush_sends()
            wait_event(done, self._core.world)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking send; complete immediately (buffered)."""
        self.send(obj, dest, tag)
        return SendRequest(self)

    def issend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking synchronous send; completes when matched."""
        if not self._open_send(dest, tag):
            return SendRequest(self)
        return SendRequest(self, sync_event=self._post_synchronous(obj, dest, tag))

    def irecv(self, buf: Any = None, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; ``req.wait()`` returns the object."""
        self._open_recv(source, tag)
        return RecvRequest(self, source, tag)

    def Isend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        self.Send(buf, dest, tag)
        return SendRequest(self)

    def Irecv(self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        self._open_recv(source, tag)
        return BufferRecvRequest(self, parse_buffer(buf), source, tag)

    def probe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Status | None = None
    ) -> bool:
        """Block until a matching message is pending (without receiving it)."""
        self._begin_op()
        self._flush_sends()
        msg = self.mailbox.probe(source, tag, block=True)
        if status is not None and msg is not None:
            status._set(msg.source, msg.tag, msg.nbytes)
        return True

    def iprobe(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Status | None = None
    ) -> bool:
        """Nonblocking probe: True if a matching message is pending."""
        self._begin_op()
        self._flush_sends()
        msg = self.mailbox.probe(source, tag, block=False)
        if msg is not None and status is not None:
            status._set(msg.source, msg.tag, msg.nbytes)
        return msg is not None

    # ------------------------------------------------------ communicator creation
    def Split(self, color: int = 0, key: int = 0) -> "Intracomm | None":
        """Partition the communicator by color; order new ranks by (key, rank).

        Ranks passing ``color=UNDEFINED`` get ``None``.
        """
        triples = self.allgather((color, key, self._rank))
        seq_key = ("split", self._core.cid, self._coll_seq)
        if color == UNDEFINED:
            return None
        members = sorted(
            (k, r) for c, k, r in triples if c == color
        )
        parent_ranks = [r for _k, r in members]
        world_ranks = tuple(self._core.world_ranks[r] for r in parent_ranks)

        def factory() -> CommCore:
            return CommCore(
                self._core.world,
                world_ranks,
                f"{self._core.name}.split({color})",
            )

        core = self._core.world.registry.get_or_create((*seq_key, color), factory)
        return core.views[parent_ranks.index(self._rank)]

    def Dup(self) -> "Intracomm":
        """Duplicate the communicator (fresh contexts, same membership)."""
        dup = self.Split(color=0, key=self._rank)
        assert dup is not None
        dup._core.name = f"{self._core.name}.dup"
        return dup

    def Create(self, group: Group) -> "Intracomm | None":
        """Build a communicator from a subset group (collective over parent)."""
        try:
            my_pos = group.ranks.index(self._core.world_ranks[self._rank])
        except ValueError:
            my_pos = UNDEFINED
        color = 0 if my_pos != UNDEFINED else UNDEFINED
        key = my_pos if my_pos != UNDEFINED else 0
        return self.Split(color=color, key=key)

    # ------------------------------------------------------------------- misc
    def Get_processor_name(self) -> str:
        """Simulated hostname of the machine running this rank."""
        return self._core.world.hostname

    def py2f(self) -> int:
        return self._core.cid

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Intracomm {self._core.name!r} rank={self._rank} "
            f"size={self._core.size}>"
        )
