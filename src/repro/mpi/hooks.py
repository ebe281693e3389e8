"""Runtime instrumentation hooks for the message-passing runtime.

The observability layer (:mod:`repro.obs`) and the communication tracer
(:mod:`repro.mpi.tracing`) need to observe sends, receives, and collective
phases without the runtime importing them — the same seam design as
:mod:`repro.openmp.hooks`, duplicated rather than shared because both
``emit`` paths are hot and module-level globals beat an extra indirection.

Event vocabulary (``emit(event, *args)``; args are plain ints so events
pickle cheaply across the process-rank boundary):

===============================  =============================================
``send``, cid, src, dest,        a user-context message was enqueued
tag, nbytes
``recv_enter``, cid, rank,       calling rank is blocking in a receive
source, tag                      (``source``/``tag`` may be wildcards)
``recv_exit``, cid, rank,        the receive matched a message of ``nbytes``
source, tag, nbytes
``coll_enter``, cid, rank, name  calling rank entered collective ``name``
``coll_exit``, cid, rank, name   the collective completed on this rank
``coll_algo``, cid, rank,        the algorithm this rank resolved for the
name, algo                       collective (auto-pick, env, or keyword)
``coll_msg``, cid, src, dest,    one internal collective-transport message
nbytes
``wait_enter``, cid, rank        calling rank is blocking in a request wait
``wait_exit``, cid, rank         the wait completed
===============================  =============================================

``cid`` is the communicator context id (:attr:`CommCore.cid` on the
threaded backend; process ranks report 0 for every communicator).

Observer protocol, ``attach``/``detach`` semantics, and the timestamped
flavor are identical to :mod:`repro.openmp.hooks`.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

__all__ = [
    "enabled",
    "attach",
    "detach",
    "emit",
    "traced_collective",
    "payload_nbytes",
]

#: Fast-path flag: call sites test this before paying for an ``emit`` call.
enabled = False

#: Immutable snapshot of the plain observer set (``observer(event, *args)``).
_observers: tuple[Callable[..., None], ...] = ()

#: Timestamped observers, delivered ``observer(ts, event, *args)``.
_ts_observers: tuple[Callable[..., None], ...] = ()

_monotonic = time.monotonic


def attach(observer: Callable[..., None], timestamped: bool = False) -> None:
    """Register an event observer (see :mod:`repro.openmp.hooks`)."""
    global enabled, _observers, _ts_observers
    if timestamped:
        if observer not in _ts_observers:
            _ts_observers = _ts_observers + (observer,)
    elif observer not in _observers:
        _observers = _observers + (observer,)
    enabled = True


def detach(observer: Callable[..., None]) -> None:
    """Unregister an observer; clears the fast-path flag with the last one."""
    global enabled, _observers, _ts_observers
    # Filter by equality, not identity: observers registered as bound
    # methods (e.g. ``tracer._observe``) produce a fresh method object on
    # every attribute access, and those compare ``==`` but never ``is``.
    if observer in _observers:
        _observers = tuple(o for o in _observers if o != observer)
    if observer in _ts_observers:
        _ts_observers = tuple(o for o in _ts_observers if o != observer)
    enabled = bool(_observers or _ts_observers)


def emit(event: str, *args: Any, ts: float | None = None) -> None:
    """Deliver one runtime event to every attached observer."""
    if not enabled:
        return
    for observer in _observers:
        observer(event, *args)
    ts_observers = _ts_observers
    if ts_observers:
        if ts is None:
            ts = _monotonic()
        for observer in ts_observers:
            observer(ts, event, *args)


def traced_collective(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Bracket a communicator collective with ``coll_enter``/``coll_exit``.

    Decorates communicator methods; the communicator supplies
    its context id via ``_obs_cid`` and its rank via ``_rank``.  With no
    observer attached the wrapper is a single falsy branch over the
    undecorated call.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if not enabled:
            return fn(self, *args, **kwargs)
        cid = self._obs_cid
        rank = self._rank
        emit("coll_enter", cid, rank, name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            emit("coll_exit", cid, rank, name)

    return wrapper


def payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a transport payload (teaching precision)."""
    if payload is None:
        return 0
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return 0
