"""Self-tests for the benchmark harness (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_results() -> dict[tuple[str, int], dict]:
    return {(w, t): _run(w, t) for w in WORKLOADS for t in (0, 1)}


def test_names_follow_the_rule_and_are_unique():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in SPEC["end_to_end"])}


def test_workloads_match_the_spec():
    sys.argv = ["run.py"]
    import run

    assert sorted(run._load_workloads()) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_its_checks(tiny_results, workload):
    for trace in (0, 1):
        result = tiny_results[(workload, trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_every_workload_reports_every_metric_of_the_spec(tiny_results):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        spec = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in WORKLOADS:
            metrics = tiny_results[(workload, trace)]["metrics"]
            assert {name: m["unit"] for name, m in metrics.items()} == spec, (workload, trace)
            assert all(m["value"] > 0 for name, m in metrics.items() if trace == 0), workload


def test_stall_delays_the_requests_queued_behind_it():
    """Requests due during a server stall are late by what is left of it."""
    import course_serve
    from common import Ops

    serve = course_serve.setup(3, "tiny")
    try:
        app = serve.boot("stall")
        module = serve.cohorts[0].module
        stall_s, spacing_s, stall_at = 0.06, 0.002, 20
        calls = [0]

        def stalling(scope, receive, send):
            calls[0] += 1
            if calls[0] == stall_at + 1:
                time.sleep(stall_s)
            app(scope, receive, send)

        reqs = [course_serve.Req(i * spacing_s, "read", "GET", f"/m/{module}?format=text")
                for i in range(60)]
        ops = Ops()
        samples = course_serve.run_schedule(stalling, reqs, ops)
        app.close()
    finally:
        serve.close()
    assert ops.failed == 0 and ops.attempted == 60
    before = [s.from_due for s in samples[:stall_at]]
    queued = samples[stall_at + 1: stall_at + 20]
    assert max(before) < stall_s / 2
    assert samples[stall_at].from_due >= stall_s
    # Each queued request waited for the rest of the stall: its lateness
    # shrinks with its due time, while its own service time stays small.
    for i, s in enumerate(queued, start=1):
        assert s.from_due >= stall_s - i * spacing_s - 0.005
        assert s.in_call < stall_s / 2


def test_compare_refuses_other_fingerprints():
    from compare import NotComparable, compare

    base = {"workload": "spmd_fine", "trace": False,
            "fingerprint": {"nproc": 2, "python": "3.11", "numpy": "2", "start_method": "fork"},
            "metrics": {"procs_s": {"value": 2.0, "unit": "s"}}}
    other = json.loads(json.dumps(base))
    other["metrics"]["procs_s"]["value"] = 1.0
    assert compare(base, other) == [("procs_s", "s", 2.0, 1.0, 0.5)]
    other["fingerprint"]["nproc"] = 4
    with pytest.raises(NotComparable):
        compare(base, other)
