"""Units for the static MPI protocol checker (repro.analysis.flow.protocol)."""

import ast
from pathlib import Path

import pytest

from repro.analysis.flow.interp import Ambiguous
from repro.analysis.flow.protocol import (
    check_protocol,
    extract_traces,
    simulate,
    spmd_roots,
)
from repro.analysis.scale.cost import analyze_cost
from repro.analysis.scale.symbolic import check_protocol_symbolic

REPO_ROOT = Path(__file__).resolve().parents[1]
PATTERNLETS = REPO_ROOT / "src" / "repro" / "patternlets"


def _module_func(path: Path, name: str) -> tuple[ast.AST, ast.Module]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    func = next(
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and n.name == name
    )
    return func, tree


def _inline(src: str, name: str = "body") -> tuple[ast.AST, ast.Module]:
    tree = ast.parse(src)
    func = next(
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == name
    )
    return func, tree


class TestDeadlockPatternlet:
    """Acceptance: the deadlock patternlet's cycle is caught statically."""

    def test_broken_reports_symmetric_recv_first_cycle(self):
        func, tree = _module_func(
            PATTERNLETS / "mpi" / "pointtopoint.py", "broken"
        )
        findings = check_protocol(func, tree)
        assert findings, "expected a static deadlock finding on broken()"
        errors = [f for f in findings if f.severity == "error"]
        assert len(errors) == 1
        assert errors[0].rule == "PDC103"
        assert "recv" in errors[0].message

    def test_repaired_is_clean(self):
        func, tree = _module_func(
            PATTERNLETS / "mpi" / "pointtopoint.py", "repaired"
        )
        findings = check_protocol(func, tree)
        assert not findings

    def test_zero_error_findings_on_correct_patternlet_roots(self):
        # Every analyzable SPMD root in the point-to-point and collective
        # patternlet modules is protocol-clean except the intentionally
        # broken exchange.
        for module in ("pointtopoint.py", "collective.py"):
            path = PATTERNLETS / "mpi" / module
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for root in spmd_roots(tree):
                findings = check_protocol(root, tree)
                if findings is None:
                    continue  # ambiguous: checker abstains, no finding
                errors = [f for f in findings if f.severity == "error"]
                if root.name == "broken":
                    assert errors
                else:
                    assert not errors, (
                        f"{module}:{root.name} -> "
                        f"{[f.message for f in errors]}"
                    )


class TestDerivedCommunicators:
    """Create_cart grids are followed; Split/Dup communicators abstain."""

    @pytest.fixture(scope="class")
    def halo(self):
        return _module_func(PATTERNLETS / "mpi" / "topology.py", "body")

    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_topology_halo_exchange_resolves(self, halo, size):
        func, tree = halo
        traces = extract_traces(func, tree, size=size)
        sends = [op for t in traces for op in t.ops if op.kind == "send"]
        # two sendrecvs per rank, minus the PROC_NULL ends of the rod
        assert len(sends) == 2 * (size - 1)
        assert all(op.comm == "cart@27" for op in sends)
        assert all(0 <= op.dest < size for op in sends)
        assert [t.ops[0].name for t in traces] == ["create_cart"] * size
        assert simulate(traces) == []
        # the cost model counts the same messages from the same interpreter
        cost = analyze_cost(func, tree, size=size)
        assert cost.abstained is None
        assert sum(s.msgs for s in cost.sites if s.kind == "p2p") == len(sends)

    def test_topology_halo_exchange_is_clean_for_all_sizes(self, halo):
        verdict = check_protocol_symbolic(*halo)
        assert verdict.reason is None and verdict.universal
        assert verdict.findings == []

    def test_send_on_world_never_matches_recv_on_cart(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    cart = comm.Create_cart((comm.Get_size(),), periods=(True,))\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        comm.send('x', dest=1, tag=1)\n"
            "    elif rank == 1:\n"
            "        got = cart.recv(source=0, tag=1)\n"
        )
        [finding] = check_protocol(func, tree)
        assert (finding.rule, finding.line) == ("PDC112", 7)

    @pytest.mark.parametrize("grid", [
        "MPI.Compute_dims(comm.Get_size(), 2)",  # dims unknown statically
        "(2, 2)",  # covers the world only at P=4
        "(comm.Get_size(), 1), periods=(True,)",  # periods of the wrong rank
    ])
    def test_unmodelled_cart_grid_abstains(self, grid):
        # a recv-first exchange on a 2-D torus: guessing a 1-D line with
        # PROC_NULL ends would resolve the chain and hide the deadlock
        func, tree = _inline(
            "def body(comm):\n"
            f"    cart = comm.Create_cart({grid})\n"
            "    left, right = cart.Shift(0, 1)\n"
            "    got = cart.recv(source=left, tag=1)\n"
            "    cart.send(got, dest=right, tag=1)\n"
        )
        for size in (2, 3):
            with pytest.raises(Ambiguous) as info:
                extract_traces(func, tree, size=size)
            assert info.value.code == "comm-escapes"
        verdict = check_protocol_symbolic(func, tree)
        assert verdict.reason == "comm-escapes" and verdict.findings == []

    def test_split_communicator_abstains(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    sub = comm.Split(comm.Get_rank() % 2)\n"
            "    got = sub.recv(source=0, tag=1)\n"
        )
        assert check_protocol(func, tree) is None


class TestEndpointParsing:
    def test_positional_root_follows_the_signature(self):
        # reduce(sendobj, op, root) and Reduce(sendbuf, recvbuf, op, root)
        func, tree = _inline(
            "def body(comm):\n"
            "    total = comm.reduce(comm.Get_rank(), SUM, 1)\n"
            "    comm.Reduce(buf, out, SUM, 1)\n"
        )
        traces = extract_traces(func, tree, size=2)
        assert [(op.name, op.root) for op in traces[0].ops] == [
            ("reduce", 1), ("reduce", 1)]


class TestCollectiveSplit:
    def test_collective_in_rank_branch(self):
        # Same shape mpicheck flags dynamically as a collective mismatch.
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        comm.bcast('x', root=0)\n"
            "    return rank\n"
        )
        findings = check_protocol(func, tree)
        assert findings
        assert any(
            f.rule == "PDC104" and f.severity == "error" for f in findings
        )

    def test_collective_for_all_ranks_is_clean(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    value = comm.bcast('x', root=0)\n"
            "    return value\n"
        )
        assert not check_protocol(func, tree)


class TestOrderingAndCounts:
    def test_divergent_collective_order(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        comm.bcast('x', root=0)\n"
            "        comm.gather(rank, root=0)\n"
            "    else:\n"
            "        comm.gather(rank, root=0)\n"
            "        comm.bcast('x', root=0)\n"
        )
        findings = check_protocol(func, tree)
        assert findings
        assert any(f.rule == "PDC111" for f in findings)

    def test_recv_from_finished_rank(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        return comm.recv(source=1, tag=3)\n"
            "    return None\n"
        )
        findings = check_protocol(func, tree)
        assert findings
        assert any(
            f.rule == "PDC112" and f.severity == "error" for f in findings
        )

    def test_leftover_buffered_send_is_warning_only(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        comm.send('x', dest=1, tag=9)\n"
            "    return None\n"
        )
        findings = check_protocol(func, tree)
        assert findings
        assert all(f.severity == "warning" for f in findings)
        assert any(f.rule == "PDC112" for f in findings)

    def test_crossed_waits_cycle(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        got = comm.recv(source=1, tag=1)\n"
            "        comm.send('a', dest=1, tag=2)\n"
            "    else:\n"
            "        got = comm.recv(source=0, tag=2)\n"
            "        comm.send('b', dest=0, tag=1)\n"
            "    return got\n"
        )
        findings = check_protocol(func, tree)
        assert findings
        assert any(
            f.rule == "PDC110" and f.severity == "error" for f in findings
        )

    def test_request_reply_with_tags_is_clean(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        comm.send('req', dest=1, tag=1)\n"
            "        reply = comm.recv(source=1, tag=2)\n"
            "    else:\n"
            "        req = comm.recv(source=0, tag=1)\n"
            "        comm.send('ack', dest=0, tag=2)\n"
            "        reply = req\n"
            "    return reply\n"
        )
        assert not check_protocol(func, tree)


class TestAmbiguity:
    def test_while_loop_with_comm_abstains(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    while True:\n"
            "        task = comm.recv(source=0, tag=1)\n"
            "        if task is None:\n"
            "            break\n"
            "    return rank\n"
        )
        assert check_protocol(func, tree) is None

    def test_wildcard_source_abstains(self):
        func, tree = _inline(
            "from repro.mpi import ANY_SOURCE\n"
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        got = comm.recv(source=ANY_SOURCE, tag=1)\n"
            "    else:\n"
            "        comm.send(rank, dest=0, tag=1)\n"
            "    return rank\n"
        )
        assert check_protocol(func, tree) is None

    def test_unknown_guard_without_comm_is_fine(self):
        # An unanalyzable condition is only fatal when comm hides behind it.
        func, tree = _inline(
            "def body(comm, data):\n"
            "    rank = comm.Get_rank()\n"
            "    if len(data) > 3:\n"
            "        total = sum(data)\n"
            "    comm.barrier()\n"
            "    return rank\n"
        )
        assert check_protocol(func, tree) == []


class TestRoots:
    def test_spmd_roots_pick_comm_functions(self):
        tree = ast.parse(
            "def body(comm):\n"
            "    comm.barrier()\n"
            "def plain(x):\n"
            "    return x + 1\n"
        )
        names = {f.name for f in spmd_roots(tree)}
        assert "body" in names and "plain" not in names

    def test_called_helper_is_not_a_root(self):
        # A comm-taking helper invoked from another root is analyzed as part
        # of its caller's trace, not as an independent SPMD entry point.
        tree = ast.parse(
            "def receive_then_send(comm, partner):\n"
            "    got = comm.recv(source=partner, tag=1)\n"
            "    comm.send('x', dest=partner, tag=1)\n"
            "    return got\n"
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    partner = rank ^ 1\n"
            "    if rank % 2 == 0:\n"
            "        comm.send('x', dest=partner, tag=1)\n"
            "        got = comm.recv(source=partner, tag=1)\n"
            "    else:\n"
            "        got = receive_then_send(comm, partner)\n"
            "    return got\n"
        )
        names = {f.name for f in spmd_roots(tree)}
        assert names == {"body"}

    def test_traces_and_simulate_roundtrip(self):
        func, tree = _inline(
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n"
            "    if rank == 0:\n"
            "        comm.send('x', dest=1, tag=5)\n"
            "    else:\n"
            "        got = comm.recv(source=0, tag=5)\n"
            "    return rank\n"
        )
        traces = extract_traces(func, tree, size=2)
        assert len(traces) == 2
        assert simulate(traces) == []
