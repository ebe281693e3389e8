"""Units for the static cost/scalability analyzer (``analysis.scale.cost``).

Covers the per-rank partial evaluator (message/byte accounting per
communication site, honest abstention codes), polynomial identification
over the ``(N, P)`` sample grid, the Amdahl-style speedup bound, and the
trusted/untrusted entry points.
"""

import ast
import builtins

import pytest

from repro.analysis.flow.protocol import check_protocol, spmd_roots
from repro.analysis.lint import lint_source
from repro.analysis.scale.cost import (
    FLOAT_PICKLE_BYTES,
    POLY_BASIS,
    CostModel,
    Poly,
    _param_defaults,
    analyze_cost,
    analyze_module_cost,
    cost_report,
    fit_poly,
)
from repro.analysis.scale.symbolic import check_protocol_symbolic


def _root(source: str):
    tree = ast.parse(source)
    roots = spmd_roots(tree)
    assert roots, "test source has no SPMD root"
    return roots[0], tree


def _sample(source: str, size: int, **kwargs):
    func, tree = _root(source)
    return analyze_cost(func, tree, size=size, **kwargs)


RING = """
def body(comm):
    rank = comm.Get_rank()
    size = comm.Get_size()
    value = 1.0
    comm.send(value, dest=(rank + 1) % size)
    got = comm.recv(source=(rank - 1) % size)
"""

FANOUT = """
def body(comm):
    rank = comm.Get_rank()
    size = comm.Get_size()
    if rank == 0:
        for worker in range(1, size):
            comm.send(1.0, dest=worker)
    else:
        got = comm.recv(source=0)
"""

BCAST = """
def body(comm):
    rank = comm.Get_rank()
    value = 7.0 if rank == 0 else None
    value = comm.bcast(value, root=0)
"""


class TestEvaluator:
    def test_ring_sends_one_message_per_rank(self):
        sample = _sample(RING, size=4)
        assert sample.abstained is None
        assert sample.msgs == 4
        assert sample.bytes == 4 * FLOAT_PICKLE_BYTES
        [site] = [s for s in sample.sites if s.kind == "p2p"]
        assert site.per_rank_msgs == [1, 1, 1, 1]

    def test_fanout_concentrates_messages_at_root(self):
        sample = _sample(FANOUT, size=5)
        assert sample.abstained is None
        assert sample.msgs == 4
        [site] = [s for s in sample.sites if s.kind == "p2p"]
        assert site.per_rank_msgs == [4, 0, 0, 0, 0]

    def test_bcast_message_count_matches_runtime_algorithm(self):
        # the runtime's bcast is a root fan-out: P - 1 transport messages
        for p in (2, 4, 8):
            sample = _sample(BCAST, size=p)
            assert sample.abstained is None
            assert sample.msgs == p - 1
            assert sample.bytes == (p - 1) * FLOAT_PICKLE_BYTES

    def test_work_scales_down_with_ranks(self):
        src = """
def body(comm):
    rank = comm.Get_rank()
    size = comm.Get_size()
    n = 120
    per = n // size
    total = 0.0
    for i in range(rank * per, (rank + 1) * per):
        total = total + i
    part = comm.reduce(total, root=0)
"""
        s2 = _sample(src, size=2)
        s4 = _sample(src, size=4)
        assert s2.abstained is None and s4.abstained is None
        assert s4.max_work < s2.max_work

    def test_imbalance_metric(self):
        src = """
def body(comm):
    rank = comm.Get_rank()
    size = comm.Get_size()
    total = 0.0
    if rank == 0:
        for i in range(100):
            total = total + i
    part = comm.gather(total, root=0)
"""
        sample = _sample(src, size=4)
        assert sample.abstained is None
        assert sample.imbalance > 1.0  # rank 0 does all the work
        assert max(sample.work) == sample.max_work


class TestAbstention:
    def test_while_around_comm_abstains_with_code(self):
        src = """
def body(comm):
    rank = comm.Get_rank()
    while rank < 100:
        comm.send(1.0, dest=0)
        rank = rank + 1
"""
        sample = _sample(src, size=2)
        assert sample.abstained == "while-around-comm"

    def test_unknown_branch_over_comm_abstains(self):
        src = """
def body(comm):
    rank = comm.Get_rank()
    if mystery():
        comm.send(1.0, dest=0)
"""
        sample = _sample(src, size=2)
        assert sample.abstained == "unknown-branch-comm"

    def test_unresolved_endpoint_abstains(self):
        src = """
def body(comm):
    rank = comm.Get_rank()
    comm.send(1.0, dest=pick_partner(rank))
"""
        sample = _sample(src, size=2)
        assert sample.abstained == "unresolved-endpoint"

    def test_abstention_never_raises(self):
        # a grab-bag of constructs the evaluator does not model
        src = """
def body(comm):
    rank = comm.Get_rank()
    try:
        comm.send(1.0, dest=1 - rank)
    except Exception:
        comm.send(2.0, dest=1 - rank)
"""
        sample = _sample(src, size=2)
        assert sample.abstained is not None

    def test_unknown_payload_degrades_bytes_not_msgs(self):
        # rank 0 skips the gather payload contribution logic entirely in
        # untrusted mode: byte totals go honest-None, counts stay exact
        src = """
def body(comm):
    rank = comm.Get_rank()
    local = compute_part(rank)
    parts = comm.gather(local, root=0)
"""
        sample = _sample(src, size=4)
        assert sample.abstained is None
        assert sample.msgs == 3  # gather: P - 1 transport messages
        assert sample.bytes is None


class TestPolyFit:
    def test_recovers_exact_polynomial(self):
        points = [(float(n), float(p), 3.0 + 2.0 * p)
                  for n in (10, 20, 40) for p in (1, 2, 4, 8)]
        poly = fit_poly(points)
        assert poly is not None
        assert poly.coeffs["P"] == pytest.approx(2.0, abs=1e-6)
        assert poly(100.0, 16.0) == pytest.approx(35.0, abs=1e-4)

    def test_abstains_on_non_polynomial_growth(self):
        points = [(0.0, float(p), 2.0 ** p) for p in (1, 2, 3, 4, 5, 6, 7, 8)]
        assert fit_poly(points) is None

    def test_describe_is_readable(self):
        poly = Poly(coeffs={"1": -1.0, "P": 1.0})
        text = poly.describe()
        assert "P" in text

    def test_basis_covers_the_teaching_shapes(self):
        # serialized fan-out (P), all-pairs (P^2), block decomposition (N/P)
        assert {"P", "P^2", "N/P"} <= set(POLY_BASIS)


class TestModuleModels:
    @pytest.fixture(scope="class")
    def integration_model(self) -> CostModel:
        return analyze_module_cost(
            "repro.exemplars.integration", "integrate_mpi",
            n_param="n", n_values=(100, 200, 400),
            p_values=(1, 2, 3, 4, 5))

    def test_integration_message_poly_is_p_minus_one(self, integration_model):
        poly = integration_model.msgs_poly
        assert poly is not None
        assert poly.coeffs["P"] == pytest.approx(1.0, abs=1e-6)
        assert poly.coeffs["1"] == pytest.approx(-1.0, abs=1e-6)

    def test_integration_bytes_scale_with_reduce_fanin(self,
                                                       integration_model):
        poly = integration_model.bytes_poly
        assert poly is not None
        assert poly(400.0, 4.0) == pytest.approx(
            3 * FLOAT_PICKLE_BYTES, rel=0.05)

    def test_integration_speedup_bound_is_monotone(self, integration_model):
        bounds = integration_model.speedup_bound
        assert [p for p, _ in bounds] == sorted(p for p, _ in bounds)
        values = [s for _, s in bounds]
        assert values == sorted(values)
        assert all(1.0 <= s <= p for p, s in bounds)

    def test_integration_serial_fraction_is_small(self, integration_model):
        assert integration_model.serial_fraction is not None
        assert 0.0 <= integration_model.serial_fraction < 0.1

    def test_sample_at_lookup(self, integration_model):
        sample = integration_model.sample_at(p=4, n=400)
        assert sample is not None
        assert sample.p == 4 and sample.n == 400
        assert integration_model.sample_at(p=99) is None


class TestParamDefaults:
    def test_constant_name_and_tuple_defaults(self):
        src = ("def launch(n, scale=2.0, probs=(0.1, 0.9), fn=helper):\n"
               "    pass\n")
        func = ast.parse(src).body[0]
        out = _param_defaults(func, {"helper": sum})
        assert out == {"scale": 2.0, "probs": (0.1, 0.9), "fn": sum}

    def test_unresolvable_default_left_unbound(self):
        src = "def launch(n, fn=missing, table={'a': 1}):\n    pass\n"
        func = ast.parse(src).body[0]
        out = _param_defaults(func, {})
        assert "fn" not in out and "table" not in out


def _each_root(check):
    def run(source: str) -> None:
        tree = ast.parse(source)
        for root in spmd_roots(tree):
            check(root, tree)
    return run


#: every entry point that reads learner code
_UNTRUSTED_ANALYSES = {
    "cost_report": lambda source: cost_report(source, "hostile.py"),
    "check_protocol": _each_root(check_protocol),
    "check_protocol_symbolic": _each_root(check_protocol_symbolic),
    "lint_source": lambda source: lint_source(source, "hostile.py"),
    "lint_source_cost": lambda source: lint_source(
        source, "hostile.py", enable=["PDC120", "PDC121", "PDC122"]),
}


class TestUntrustedReport:
    def test_cost_report_finds_spmd_roots(self):
        report = cost_report(FANOUT, "learner.py")
        assert len(report.models) == 1
        model = report.models[0]
        clean = [s for s in model.samples if s.abstained is None]
        assert clean
        # serialized fan-out: msgs = P - 1 at every sampled size
        for sample in clean:
            assert sample.msgs == sample.p - 1

    @pytest.mark.parametrize("analysis", sorted(_UNTRUSTED_ANALYSES))
    def test_cost_report_never_executes_user_code(self, tmp_path, analysis):
        marker = tmp_path / "executed"
        boom = f"    open({str(marker)!r}, 'w').write('boom')\n"
        source = (
            boom.lstrip()
            # a same-module helper taking comm is inlined, not called
            + "def exchange(comm, rank):\n" + boom
            + "    comm.send(open('x'), dest=1 - rank)\n"
            "def body(comm):\n"
            "    rank = comm.Get_rank()\n" + boom
            + "    exchange(comm, rank)\n"
        )
        _UNTRUSTED_ANALYSES[analysis](source)
        assert not marker.exists()

    @pytest.mark.parametrize("analysis", sorted(_UNTRUSTED_ANALYSES))
    def test_untrusted_code_cannot_rewrite_host_builtins(
            self, tmp_path, analysis):
        # abs.__self__ is the builtins module; had the interpreter read it
        # and stored through the subscript, its own len() would be exec()
        host_len = builtins.len
        marker = tmp_path / "executed"
        payload = f"open({str(marker)!r}, 'w').write('boom')"
        source = (
            "def body(comm):\n"
            "    b = abs.__self__.__dict__\n"
            "    b['len'] = b['exec']\n"
            f"    len({payload!r})\n"
            "    comm.send(len('xy'), dest=1 - comm.Get_rank())\n"
        )
        try:
            _UNTRUSTED_ANALYSES[analysis](source)
        finally:
            rewritten, builtins.len = builtins.len, host_len
        assert rewritten is host_len
        assert not marker.exists()

    def test_syntax_error_becomes_note(self):
        report = cost_report("def broken(:\n", "bad.py")
        assert not report.models
        assert any("syntax error" in note for note in report.notes)

    def test_report_round_trips_to_dict(self):
        payload = cost_report(RING, "ring.py").to_dict()
        assert payload["path"] == "ring.py"
        model = payload["models"][0]
        assert {"samples", "message_poly", "speedup_bound"} <= set(model)
