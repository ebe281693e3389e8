"""Runtime configuration: the ``OMP_*`` environment analogue.

OpenMP programs control their team size with ``omp_set_num_threads`` /
``OMP_NUM_THREADS`` and their loop scheduling with ``OMP_SCHEDULE``.  This
module provides the same knobs for the Python runtime, including the
environment-variable override so shell-driven lab exercises behave like
their C counterparts.

Beyond the standard knobs, the runtime adds an *execution backend* axis
(``OMP_BACKEND`` / :attr:`OpenMPConfig.backend`): ``"threads"`` runs
parallel regions on Python threads (concurrent, GIL-bound — races are
real, speedup is not), while ``"processes"`` runs worksharing loops on a
persistent pool of worker processes so CPU-bound loop bodies achieve real
wall-clock speedup on multicore hosts.  See :mod:`repro.openmp.backends`.
"""

from __future__ import annotations

import contextlib
import os
import threading
from dataclasses import dataclass

__all__ = [
    "OpenMPConfig",
    "BACKENDS",
    "get_config",
    "set_num_threads",
    "get_max_threads",
    "num_procs",
    "scoped_num_threads",
    "set_backend",
    "get_backend",
    "scoped",
]

#: Hard ceiling to protect the host from accidental thread bombs.
MAX_TEAM_SIZE = 512

#: The execution backends the worksharing constructs understand.
BACKENDS = ("threads", "processes")


@dataclass
class OpenMPConfig:
    """Mutable global runtime settings (one per process, as in OpenMP)."""

    num_threads: int
    schedule: str = "static"
    chunk: int | None = None
    dynamic_adjust: bool = False
    backend: str = "threads"


_lock = threading.Lock()
_config: OpenMPConfig | None = None


def _default_num_threads() -> int:
    env = os.environ.get("OMP_NUM_THREADS")
    if env:
        try:
            return max(1, int(env.split(",")[0]))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _default_backend() -> str:
    env = (os.environ.get("OMP_BACKEND") or "").strip().lower()
    return env if env in BACKENDS else "threads"


def get_config() -> OpenMPConfig:
    """The process-wide configuration, creating it on first use."""
    global _config
    with _lock:
        if _config is None:
            schedule = "static"
            chunk = None
            env = os.environ.get("OMP_SCHEDULE")
            if env:
                parts = env.split(",")
                schedule = parts[0].strip().lower() or "static"
                if len(parts) > 1 and parts[1].strip():
                    try:
                        chunk = max(1, int(parts[1]))
                    except ValueError:
                        chunk = None
            _config = OpenMPConfig(
                num_threads=_default_num_threads(),
                schedule=schedule,
                chunk=chunk,
                backend=_default_backend(),
            )
        return _config


def set_num_threads(n: int) -> None:
    """``omp_set_num_threads``: team size for subsequent parallel regions."""
    if not 1 <= n <= MAX_TEAM_SIZE:
        raise ValueError(f"num_threads must be in [1, {MAX_TEAM_SIZE}], got {n}")
    get_config().num_threads = int(n)


def get_max_threads() -> int:
    """``omp_get_max_threads``: team size the next region would use."""
    return get_config().num_threads


def num_procs() -> int:
    """``omp_get_num_procs``: processors this process may run on.

    That is the affinity mask's size, as libgomp reports it, else the
    host's CPU count on platforms without an affinity API.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def set_backend(name: str) -> None:
    """Select the execution backend for subsequent worksharing loops."""
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
    get_config().backend = name


def get_backend() -> str:
    """The currently selected execution backend."""
    return get_config().backend


def _reset_for_testing() -> None:
    """Drop the cached config so env-var parsing can be re-exercised."""
    global _config
    with _lock:
        _config = None


@contextlib.contextmanager
def scoped_num_threads(n: int):
    """Temporarily override the default team size (handy in tests/benches)."""
    cfg = get_config()
    old = cfg.num_threads
    set_num_threads(n)
    try:
        yield
    finally:
        cfg.num_threads = old


@contextlib.contextmanager
def scoped(
    num_threads: int | None = None,
    schedule: str | None = None,
    chunk: int | None = None,
    backend: str | None = None,
):
    """Temporarily override any combination of runtime settings.

    >>> with scoped(num_threads=4, backend="processes"):
    ...     pass  # worksharing loops here use 4 process workers
    """
    cfg = get_config()
    old = (cfg.num_threads, cfg.schedule, cfg.chunk, cfg.backend)
    try:
        if num_threads is not None:
            set_num_threads(num_threads)
        if schedule is not None:
            cfg.schedule = schedule.strip().lower()
        if chunk is not None:
            cfg.chunk = max(1, int(chunk))
        if backend is not None:
            set_backend(backend)
        yield cfg
    finally:
        cfg.num_threads, cfg.schedule, cfg.chunk, cfg.backend = old
