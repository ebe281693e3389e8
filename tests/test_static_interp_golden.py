"""Golden pin for the static per-rank interpreter and both of its clients.

Every SPMD root in the repo's MPI code (patternlets, examples, exemplars
and the lint fixtures) records what the protocol checker and the cost
model make of it:

* the ``extract_traces`` ops per rank at P = 2, 3, 4, or the abstain code;
* the ``check_protocol_symbolic`` reason, checked sizes and findings;
* ``analyze_cost(...).to_dict()`` at every ``COST_SAMPLE_SIZES`` size.

A change to the interpreter that moves any of these shows up as a diff
against ``goldens/static_interp.json``.  Regenerate it with
``PYTHONPATH=src python tests/test_static_interp_golden.py`` and review
every changed entry.
"""

import ast
import json
import os
from pathlib import Path

import pytest

from repro.analysis.flow.protocol import Ambiguous, extract_traces, spmd_roots
from repro.analysis.lint.costrules import COST_SAMPLE_SIZES
from repro.analysis.scale.cost import analyze_cost
from repro.analysis.scale.symbolic import check_protocol_symbolic

HERE = Path(__file__).parent
REPO_ROOT = HERE.parent
GOLDEN = HERE / "goldens" / "static_interp.json"
TRACE_SIZES = (2, 3, 4)
SOURCES = (
    "src/repro/patternlets/**/*.py",
    "examples/*.py",
    "src/repro/exemplars/*.py",
    "tests/fixtures/lint/*.py",
)


def _roots() -> list[tuple[str, ast.AST, ast.AST]]:
    out = []
    for pattern in SOURCES:
        for path in sorted(REPO_ROOT.glob(pattern)):
            tree = ast.parse(path.read_text())
            rel = path.relative_to(REPO_ROOT).as_posix()
            for root in spmd_roots(tree):
                out.append((f"{rel}:{getattr(root, 'lineno', 0)}", root, tree))
    return out


def _op(op) -> list:
    row = [op.kind, op.line, op.dest, op.source, op.tag, op.name, op.root]
    comm = getattr(op, "comm", "world")
    if comm != "world":
        row.append(comm)
    return row


def _abstain_code(exc: Exception) -> str:
    if isinstance(exc, RecursionError):
        return "recursion"
    return exc.code


def _traces(root: ast.AST, tree: ast.AST) -> dict:
    out = {}
    for p in TRACE_SIZES:
        try:
            traces = extract_traces(root, tree, size=p)
        except (Ambiguous, RecursionError) as exc:
            out[str(p)] = {"abstained": _abstain_code(exc)}
        else:
            out[str(p)] = [[_op(op) for op in trace.ops] for trace in traces]
    return out


def _entry(root: ast.AST, tree: ast.AST) -> dict:
    verdict = check_protocol_symbolic(root, tree)
    return {
        "traces": _traces(root, tree),
        "symbolic": {
            "reason": verdict.reason,
            "checked": verdict.checked,
            "findings": [[f.rule, f.line] for f in verdict.findings],
        },
        "cost": {str(p): analyze_cost(root, tree, size=p).to_dict()
                 for p in COST_SAMPLE_SIZES},
    }


def _snapshot(roots) -> dict:
    # JSON round trip: tuples become lists, as in the stored golden
    return json.loads(json.dumps(
        {key: _entry(root, tree) for key, (root, tree) in roots.items()}))


@pytest.fixture(scope="module")
def roots():
    return {key: (root, tree) for key, root, tree in _roots()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_root_set_matches_golden(roots, golden):
    assert sorted(roots) == sorted(golden)


@pytest.mark.parametrize("key", [key for key, _, _ in _roots()])
def test_root_matches_golden(roots, golden, key, monkeypatch):
    # the collective message counts follow REPRO_COLL_ALGO
    monkeypatch.delenv("REPRO_COLL_ALGO", raising=False)
    assert _snapshot({key: roots[key]})[key] == golden.get(key)


if __name__ == "__main__":
    os.environ.pop("REPRO_COLL_ALGO", None)
    everything = {key: (root, tree) for key, root, tree in _roots()}
    GOLDEN.write_text(
        json.dumps(_snapshot(everything), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
