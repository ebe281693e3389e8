"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.mpi import fork_available
from repro.mpi import mpirun as _mpirun


def pytest_collection_modifyitems(config, items):
    """Auto-skip ``multicore`` tests on single-CPU runners."""
    if (os.cpu_count() or 1) >= 2:
        return
    skip = pytest.mark.skip(reason="needs >1 CPU for the processes backend")
    for item in items:
        if "multicore" in item.keywords:
            item.add_marker(skip)

#: Keep worst-case hangs short in tests: a genuinely stuck world should fail
#: the test in a couple of seconds, not the default 30.
TEST_DEADLOCK_TIMEOUT = 8.0


#: The two MPI rank backends, for tests that must hold on both.
BACKENDS = [
    pytest.param("threads", id="threads"),
    pytest.param(
        "procs",
        id="procs",
        marks=pytest.mark.skipif(
            not fork_available(), reason="process ranks need the fork start method"
        ),
    ),
]


def on_backends(values):
    """``(value, backend)`` cases: every value on each of :data:`BACKENDS`.

    Threads cases keep the bare value as their id, so a test that ran on
    threads only keeps its ids when it gains the processes backend.
    """
    return [
        pytest.param(
            value,
            backend.values[0],
            id=str(value) if backend.id == "threads" else f"{backend.id}-{value}",
            marks=backend.marks,
        )
        for backend in BACKENDS
        for value in values
    ]


def spmd(fn, np, *args, backend=None, **kwargs):
    """mpirun with a test-friendly watchdog; ``backend`` is a BACKENDS id."""
    kwargs.setdefault("deadlock_timeout", TEST_DEADLOCK_TIMEOUT)
    if backend == "procs":
        backend = "processes"
    return _mpirun(fn, np, *args, backend=backend, **kwargs)


@pytest.fixture
def run_spmd():
    return spmd
