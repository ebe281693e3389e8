"""Symbolic-rank protocol verification (``analysis.scale.symbolic``).

The headline claim: for programs inside the rank-set domain, the
symbolic checker's verdict holds for *every* world size P >= 2 — and it
is exactly what the concrete per-rank simulator reports size by size.
This suite cross-checks the two engines at P = 2..5 over the protocol
fixture corpus, pins the witness-size machinery, the launcher
world-size preconditions, and the reason-coded abstentions.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.flow.protocol import (
    extract_traces,
    simulate,
    spmd_roots,
)
from repro.analysis.scale.cost import analyze_cost
from repro.analysis.scale.rankset import CROSS_CHECK_MAX, P_MIN
from repro.analysis.scale.symbolic import (
    ABSTAIN_REASONS,
    check_protocol_symbolic,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: protocol fixtures with a clean/buggy expectation for the all-P claim
PROTOCOL_FIXTURES = [
    ("pdc103_tp.py", ["PDC103"]),
    ("pdc103_tn.py", []),
    ("pdc104_tp.py", ["PDC104"]),
    ("pdc104_tn.py", []),
    ("pdc110_tp.py", ["PDC110"]),
    ("pdc110_tn.py", []),
    ("pdc111_tp.py", ["PDC111"]),
    ("pdc111_tn.py", []),
    ("pdc112_tp.py", ["PDC112"]),
    ("pdc112_tn.py", []),
]


def _verdicts(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(root, check_protocol_symbolic(root, tree), tree)
            for root in spmd_roots(tree)]


class TestCrossCheck:
    """The symbolic verdict must agree with the concrete simulator at
    every size it claims to have checked (P = 2..5 for these fixtures)."""

    @pytest.mark.parametrize("fixture,expected_rules",
                             [(f, r) for f, r in PROTOCOL_FIXTURES])
    def test_symbolic_matches_concrete_per_size(self, fixture,
                                                expected_rules):
        for root, verdict, tree in _verdicts(FIXTURES / fixture):
            for p in verdict.checked:
                concrete = simulate(extract_traces(root, tree, size=p))
                concrete_keys = {(f.rule, f.line) for f in concrete}
                symbolic_keys = {
                    (f.rule, f.line) for f in verdict.findings
                    if p in f.details["sizes"]
                }
                assert symbolic_keys == concrete_keys, (
                    f"{fixture} P={p}: symbolic {symbolic_keys} "
                    f"!= concrete {concrete_keys}")

    @pytest.mark.parametrize("fixture,expected_rules",
                             [(f, r) for f, r in PROTOCOL_FIXTURES])
    def test_fixture_verdict_matches_expectation(self, fixture,
                                                 expected_rules):
        rules = sorted({
            f.rule
            for _, verdict, _ in _verdicts(FIXTURES / fixture)
            for f in verdict.findings
        })
        assert rules == sorted(set(expected_rules))

    @pytest.mark.parametrize(
        "fixture", [f for f, rules in PROTOCOL_FIXTURES if not rules])
    def test_clean_fixture_claim_is_universal(self, fixture):
        verdicts = [v for _, v, _ in _verdicts(FIXTURES / fixture)]
        assert verdicts
        for verdict in verdicts:
            assert verdict.universal, (fixture, verdict.reason)
            assert verdict.reason is None
            assert not verdict.findings

    def test_checked_sizes_span_the_cross_check_range(self):
        [(_, verdict, _)] = _verdicts(FIXTURES / "pdc103_tp.py")
        assert verdict.checked[0] == P_MIN
        assert verdict.checked[-1] >= CROSS_CHECK_MAX


class TestWitness:
    def test_violation_carries_smallest_witness_size(self):
        [(_, verdict, _)] = _verdicts(FIXTURES / "pdc103_tp.py")
        [finding] = [f for f in verdict.findings if f.rule == "PDC103"]
        assert finding.details["witness_p"] == min(finding.details["sizes"])
        assert finding.details["witness_p"] == 2

    def test_all_checked_sizes_exhibit_the_ring_deadlock(self):
        [(_, verdict, _)] = _verdicts(FIXTURES / "pdc103_tp.py")
        [finding] = [f for f in verdict.findings if f.rule == "PDC103"]
        assert finding.details["sizes"] == verdict.checked

    def test_witness_above_two_is_named_in_the_lint_message(self):
        # a split that only misbehaves once P is large enough for the
        # uneven chunks: rank P-1 receives one message per sender, but
        # only P-2 sends happen
        source = (
            "from repro.mpi import mpirun\n"
            "def relay(np=2):\n"
            "    def body(comm):\n"
            "        rank, size = comm.Get_rank(), comm.Get_size()\n"
            "        if rank >= 2:\n"
            "            comm.send(rank, dest=size - 1, tag=7)\n"
            "        if rank == size - 1:\n"
            "            for sender in range(2, size):\n"
            "                got = comm.recv(source=sender, tag=7)\n"
            "            extra = comm.recv(source=0, tag=9)\n"
            "        return None\n"
            "    return mpirun(body, np)\n"
        )
        tree = ast.parse(source)
        [root] = spmd_roots(tree)
        verdict = check_protocol_symbolic(root, tree)
        assert verdict.findings
        # the unmatched recv(source=0) is visible at every size, but the
        # per-size cross-check must stay consistent with the simulator
        for finding in verdict.findings:
            assert finding.details["witness_p"] == min(
                finding.details["sizes"])


class TestLauncherPreconditions:
    def test_even_only_guard_excludes_odd_sizes(self):
        [(_, verdict, _)] = _verdicts(FIXTURES / "pdc103_tn.py")
        assert all(p % 2 == 0 for p in verdict.checked)
        assert all(p % 2 == 1 for p in verdict.excluded)
        assert verdict.universal

    def test_unsatisfiable_guard_abstains_no_valid_world(self):
        source = (
            "from repro.mpi import mpirun\n"
            "def run(np=2):\n"
            "    if np < 100:\n"
            "        raise ValueError('needs a big cluster')\n"
            "    def body(comm):\n"
            "        rank = comm.Get_rank()\n"
            "        part = comm.bcast(rank, root=0)\n"
            "    return mpirun(body, np)\n"
        )
        tree = ast.parse(source)
        [root] = spmd_roots(tree)
        verdict = check_protocol_symbolic(root, tree)
        assert verdict.reason == "no-valid-world"
        assert not verdict.universal
        assert not verdict.checked


#: one small body per code the shared per-rank interpreter abstains with
INTERPRETER_ABSTENTIONS = [
    ("while-around-comm",
     "def body(comm, flag):\n    while flag:\n        comm.barrier()\n"),
    ("comm-in-handler",
     "def body(comm):\n    try:\n        x = 1\n"
     "    except ValueError:\n        comm.barrier()\n"),
    ("unknown-branch-comm",
     "def body(comm, flag):\n    if flag:\n        comm.barrier()\n"),
    ("unknown-loop-comm",
     "def body(comm, items):\n    for item in items:\n"
     "        comm.barrier()\n"),
    ("unresolved-endpoint",
     "def body(comm, flag):\n    comm.send(1, dest=0, tag=flag)\n"),
    ("comm-escapes",
     "def body(comm):\n    print(comm)\n"),
    ("comm-escapes",
     "def body(comm):\n    sub = comm.Split(0)\n    sub.barrier()\n"),
    ("comm-escapes",
     "def outer(comm):\n    comm.barrier()\n"
     "def helper(comm):\n    outer(comm)\n"
     "def body(comm):\n    helper(comm)\n"),
    ("unsupported-stmt",
     "def body(comm):\n    match 1:\n        case 1:\n"
     "            comm.barrier()\n"),
    ("eval-budget",
     "def body(comm):\n    for i in range(500):\n"
     "        for j in range(500):\n            x = j\n"
     "    comm.barrier()\n"),
    ("recursion",
     "def body(comm):\n    y = " + "-" * 1500 + "1\n    comm.barrier()\n"),
]


class TestAbstention:
    def test_while_around_comm_has_reason_code(self):
        # ranks below 4 never leave the loop: unrolling hits its cap
        source = (
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    while rank < 4:\n"
            "        comm.send(rank, dest=0, tag=1)\n"
        )
        tree = ast.parse(source)
        [root] = spmd_roots(tree)
        verdict = check_protocol_symbolic(root, tree)
        assert not verdict.universal
        assert verdict.reason == "while-around-comm"

    def test_bounded_while_around_comm_is_unrolled(self):
        source = (
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    while rank < 4:\n"
            "        comm.send(rank, dest=0, tag=1)\n"
            "        rank = rank + 1\n"
        )
        tree = ast.parse(source)
        [root] = spmd_roots(tree)
        verdict = check_protocol_symbolic(root, tree)
        assert verdict.universal
        # nobody receives: every size leaves the sends unmatched
        assert [(f.rule, f.line) for f in verdict.findings] == [("PDC112", 4)]
        assert verdict.findings[0].details["sizes"] == verdict.checked

    def test_nonaffine_guard_abstains_but_still_simulates(self):
        # rank * rank falls outside the affine guard language: the
        # universal claim is dropped, the bounded sizes still run
        source = (
            "def body(comm):\n"
            "    rank, size = comm.Get_rank(), comm.Get_size()\n"
            "    if rank * rank < size:\n"
            "        part = 1\n"
            "    flag = comm.bcast(rank, root=0)\n"
        )
        tree = ast.parse(source)
        [root] = spmd_roots(tree)
        verdict = check_protocol_symbolic(root, tree)
        assert not verdict.universal
        assert verdict.reason in ABSTAIN_REASONS
        assert verdict.checked  # concrete sizes were still simulated
        assert not verdict.findings  # and they are clean

    def test_every_reason_code_is_documented(self):
        for code, meaning in ABSTAIN_REASONS.items():
            assert code and meaning

    @pytest.mark.parametrize("code,body", INTERPRETER_ABSTENTIONS,
                             ids=[f"{code}-{i}" for i, (code, _) in
                                  enumerate(INTERPRETER_ABSTENTIONS)])
    def test_both_clients_abstain_with_the_interpreter_code(self, code, body):
        tree = ast.parse(body)
        [root] = spmd_roots(tree)
        assert code in ABSTAIN_REASONS
        assert check_protocol_symbolic(root, tree).reason == code
        assert analyze_cost(root, tree, size=2).abstained == code

    def test_abstention_never_manufactures_findings(self):
        [(_, verdict, _)] = _verdicts(FIXTURES / "pdc110_tn.py")
        if verdict.reason is not None:
            assert not verdict.findings


class TestScheduleDeadlockFreedom:
    """Every registered collective algorithm's schedule, proven deadlock-
    free by replaying its per-rank send/recv traces through the protocol
    simulator for all P = 2..SCHEDULE_P_MAX (schedule shapes are pure
    functions of P's power-of-two/divisor structure, so that range covers
    every shape the algorithms can produce)."""

    def _registry(self):
        from repro.mpi.algorithms import ALGORITHMS

        return [
            (coll, algo)
            for coll, algos in ALGORITHMS.items()
            for algo in algos
        ]

    def test_every_algorithm_schedule_is_deadlock_free(self):
        from repro.analysis.scale.symbolic import (
            SCHEDULE_P_MAX,
            check_schedule_symbolic,
        )

        for coll, algo in self._registry():
            verdict = check_schedule_symbolic(coll, algo)
            assert verdict.universal, (coll, algo)
            assert not verdict.findings, (coll, algo, verdict.findings)
            assert verdict.checked == list(range(2, SCHEDULE_P_MAX + 1)), (
                coll, algo,
            )

    def test_rooted_schedules_clean_for_nonzero_roots(self):
        from repro.analysis.scale.symbolic import check_schedule_symbolic

        for coll in ("bcast", "reduce"):
            from repro.mpi.algorithms import ALGORITHMS

            for algo in ALGORITHMS[coll]:
                for root in (1, 2):
                    verdict = check_schedule_symbolic(
                        coll, algo, max_p=17, root=root
                    )
                    assert not verdict.findings, (coll, algo, root)
                    # worlds smaller than the root are excluded, not checked
                    assert verdict.excluded == [p for p in range(2, 18) if root >= p]

    def test_schedule_traces_are_deterministic_and_cached(self):
        from repro.mpi.algorithms import schedule_traces

        first = schedule_traces("allreduce", "ring", 5)
        again = schedule_traces("allreduce", "ring", 5)
        assert first is again  # lru_cache: replay costs nothing the 2nd time
        assert len(first) == 5
        assert all(
            op[0] in ("send", "recv") and isinstance(op[1], int)
            for trace in first for op in trace
        )

    def test_broken_schedule_is_caught(self):
        """The checker is falsifiable: a schedule with a swallowed message
        (a recv no rank ever sends to) produces findings."""
        from repro.analysis.flow.protocol import simulate
        from repro.analysis.scale.symbolic import _schedule_rank_traces

        # rank 0 sends once; rank 1 expects two messages -> stuck forever
        broken = (
            (("send", 1, 0),),
            (("recv", 0, 0), ("recv", 0, 1)),
        )
        findings = simulate(_schedule_rank_traces(broken))
        assert findings
