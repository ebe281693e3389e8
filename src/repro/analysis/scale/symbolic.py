"""Symbolic-rank MPI protocol verification.

:func:`repro.analysis.flow.protocol.check_protocol` answers the concrete
question "is this SPMD body clean at world size 2?".  This module lifts
that to the parameterized claim learners actually need — *clean for
every world size P >= 2* — using the cutoff bound licensed by the
rank-set abstract domain (:mod:`repro.analysis.scale.rankset`):

1. scan every rank guard and message endpoint of the body; if all fit
   the abstract domain (front/back offsets, residue classes, affine
   thresholds), compute the cutoff ``P_c``;
2. evaluate the launcher's world-size preconditions (the ``if np < 2 or
   np % 2: raise`` guards that precede ``mpirun``) to discard sizes the
   program refuses to run at;
3. replay the concrete per-rank trace simulator at every remaining size
   ``2 <= P <= P_c`` and merge the verdicts: each violation carries the
   *smallest* world size exhibiting it as a concrete witness.

When the body steps outside the domain — a data-dependent guard, a
computed endpoint the evaluator cannot resolve, a cutoff past
:data:`~repro.analysis.scale.rankset.P_CAP` — the checker *abstains
from the universal claim* with a machine-readable reason code, while
still reporting whatever the bounded sizes it did simulate found.
Abstention never manufactures findings; it only weakens "for all P" to
"for the P we checked".
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ..flow.interp import ABSTAIN_CODES, Ambiguous, _enclosing_env, _parent_map
from ..flow.protocol import ProtocolFinding, extract_traces, simulate
from .rankset import (
    CROSS_CHECK_MAX,
    P_CAP,
    P_MIN,
    DomainScan,
    scan_domain,
    valid_world_sizes,
)

__all__ = [
    "SymbolicVerdict",
    "check_protocol_symbolic",
    "check_schedule_symbolic",
    "launcher_preconditions",
    "ABSTAIN_REASONS",
    "SCHEDULE_P_MAX",
]

#: Reason codes the checker may abstain with, and what they mean: the
#: rank-set domain's own, then the interpreter's (shared with the cost model).
ABSTAIN_REASONS = {
    "nonaffine-rank-guard": "a branch condition over the rank is outside "
                            "the affine/residue guard language",
    "nonaffine-rank-expr": "rank arithmetic outside the affine-with-wrap "
                           "expression language",
    "nonaffine-endpoint": "a message endpoint is not affine in rank and P",
    "domain-overflow": "the cutoff world size exceeds the simulation cap",
    "no-valid-world": "launcher preconditions reject every world size",
    **ABSTAIN_CODES,
}


@dataclass
class SymbolicVerdict:
    """The all-P verdict for one SPMD root.

    ``universal`` means the findings (or their absence) hold for every
    valid world size P >= 2; otherwise ``reason`` carries the abstention
    code and the findings are only known to hold for ``checked`` sizes.
    """

    findings: list[ProtocolFinding] = field(default_factory=list)
    checked: list[int] = field(default_factory=list)
    excluded: list[int] = field(default_factory=list)
    cutoff: int = CROSS_CHECK_MAX
    universal: bool = False
    reason: str | None = None
    reason_line: int | None = None
    domain: DomainScan | None = None

    @property
    def abstained(self) -> bool:
        return self.reason is not None


# ---------------------------------------------------------------------------
# Launcher preconditions
# ---------------------------------------------------------------------------

def _np_names_for(launcher: ast.AST, func: ast.AST) -> frozenset[str]:
    """Names bound to the process count in the launcher of ``func``.

    The reliable signal is the ``mpirun(body, np)`` call itself: its
    second positional argument (or ``np=`` keyword) names the count.
    Parameter names like ``np``/``nprocs`` are accepted as a fallback.
    """
    names: set[str] = set()
    func_name = getattr(func, "name", None)
    for node in ast.walk(launcher):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id not in ("mpirun", "run_script", "trace_run"):
            continue
        if node.args and func_name is not None:
            head = node.args[0]
            if not (isinstance(head, ast.Name) and head.id == func_name):
                # also accept conditional selection: `broken if x else repaired`
                chosen = {n.id for n in ast.walk(head)
                          if isinstance(n, ast.Name)}
                if func_name not in chosen:
                    continue
        count: ast.expr | None = None
        if len(node.args) > 1:
            count = node.args[1]
        for kw in node.keywords:
            if kw.arg in ("np", "nprocs", "n"):
                count = kw.value
        if isinstance(count, ast.Name):
            names.add(count.id)
    if not names:
        params = getattr(getattr(launcher, "args", None), "args", [])
        names = {a.arg for a in params
                 if a.arg in ("np", "nprocs", "num_procs", "n_ranks")}
    return frozenset(names)


def launcher_preconditions(
    func: ast.AST, tree: ast.AST
) -> tuple[list[ast.expr], frozenset[str]]:
    """``(raise-guard tests, process-count names)`` for one SPMD root.

    The launcher is the nearest enclosing function definition; its
    ``if <cond>: raise`` statements whose condition mentions the process
    count constrain which world sizes the body can ever run at.
    """
    parents = _parent_map(tree)
    node: ast.AST | None = func
    launcher: ast.AST | None = None
    while node is not None:
        node = parents.get(id(node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            launcher = node
            break
    if launcher is None:
        return [], frozenset()
    np_names = _np_names_for(launcher, func)
    if not np_names:
        return [], frozenset()
    guards: list[ast.expr] = []
    for stmt in ast.walk(launcher):
        if not isinstance(stmt, ast.If):
            continue
        if not all(isinstance(s, ast.Raise) for s in stmt.body):
            continue
        if any(isinstance(n, ast.Name) and n.id in np_names
               for n in ast.walk(stmt.test)):
            guards.append(stmt.test)
    return guards, np_names


# ---------------------------------------------------------------------------
# The symbolic check
# ---------------------------------------------------------------------------

def _int_consts(tree: ast.AST, func: ast.AST) -> dict[str, int]:
    return {
        name: value
        for name, value in _enclosing_env(tree, func).items()
        if isinstance(value, int) and not isinstance(value, bool)
    }


def check_protocol_symbolic(
    func: ast.AST,
    tree: ast.AST,
    *,
    max_p: int | None = None,
) -> SymbolicVerdict:
    """Check one SPMD root for every world size up to the domain cutoff.

    Always returns a verdict.  ``verdict.universal`` is True only when
    the body fits the rank-set domain and every valid size up to the
    cutoff simulated cleanly; otherwise ``verdict.reason`` explains the
    abstention and ``verdict.checked`` lists the sizes that *were*
    simulated (their findings still stand — a concrete witness is a
    concrete witness regardless of abstention).
    """
    scan = scan_domain(func, _int_consts(tree, func))
    verdict = SymbolicVerdict(domain=scan)
    verdict.reason = scan.violation
    verdict.reason_line = scan.violation_line

    cutoff = scan.cutoff() if scan.inside else CROSS_CHECK_MAX
    if scan.inside and cutoff > (max_p or P_CAP):
        verdict.reason = "domain-overflow"
        cutoff = CROSS_CHECK_MAX
    cap = max_p or P_CAP
    verdict.cutoff = min(cutoff, cap)

    guards, np_names = launcher_preconditions(func, tree)
    candidate = range(P_MIN, verdict.cutoff + 1)
    if guards:
        sizes = valid_world_sizes(guards, np_names, candidate)
    else:
        sizes = list(candidate)
    verdict.excluded = [p for p in candidate if p not in sizes]
    if not sizes:
        verdict.reason = verdict.reason or "no-valid-world"
        return verdict

    merged: dict[tuple[str, int], ProtocolFinding] = {}
    witness_sizes: dict[tuple[str, int], list[int]] = {}
    for p in sizes:
        try:
            traces = extract_traces(func, tree, size=p)
        except Ambiguous as exc:
            if verdict.reason is None:
                verdict.reason, verdict.reason_line = exc.code, exc.line
            break
        except RecursionError:
            verdict.reason = verdict.reason or "recursion"
            break
        verdict.checked.append(p)
        for finding in simulate(traces):
            key = (finding.rule, finding.line)
            witness_sizes.setdefault(key, []).append(p)
            if key not in merged:
                details = dict(finding.details)
                details["witness_p"] = p
                merged[key] = ProtocolFinding(
                    rule=finding.rule, line=finding.line,
                    message=finding.message, severity=finding.severity,
                    details=details,
                )
    for key, finding in merged.items():
        finding.details["sizes"] = witness_sizes[key]

    verdict.findings = sorted(
        merged.values(), key=lambda f: (f.line, f.rule))
    verdict.universal = (
        verdict.reason is None and list(verdict.checked) == sizes
    )
    return verdict


# ---------------------------------------------------------------------------
# Collective-algorithm schedules
# ---------------------------------------------------------------------------

#: Default verification bound for collective schedules.  Every registered
#: algorithm's schedule shape is a pure function of (P, pof2-remainder,
#: divisor structure); 2..66 covers each power-of-two boundary through 64
#: plus both parities around it, so any deadlock a larger P could exhibit
#: already appears inside this window.
SCHEDULE_P_MAX = 66


def _schedule_rank_traces(neutral: tuple) -> list:
    """Convert :func:`repro.mpi.algorithms.schedule_traces` tuples into the
    simulator's :class:`RankTrace` form (internal phases become tags)."""
    from ..flow.protocol import Op, RankTrace

    traces = []
    for rank, ops in enumerate(neutral):
        converted = []
        for i, (kind, peer, phase) in enumerate(ops):
            if kind == "send":
                converted.append(Op(kind="send", line=i, dest=peer, tag=phase))
            else:
                converted.append(Op(kind="recv", line=i, source=peer, tag=phase))
        traces.append(RankTrace(rank=rank, ops=converted))
    return traces


def check_schedule_symbolic(
    collective: str,
    algorithm: str,
    *,
    max_p: int = SCHEDULE_P_MAX,
    root: int = 0,
) -> SymbolicVerdict:
    """Prove a registered collective algorithm deadlock-free for P >= 2.

    Replays the algorithm's recorded message schedule (pure data, no real
    transports) through the eager-buffered trace simulator at every world
    size ``2 <= P <= max_p``.  Failures are stuck states (severity
    ``error``) and unreceived messages (PDC112); the symmetric
    send-before-recv *warning* (PDC103) is waived by construction — the
    collective context is buffered-eager on both backends, so a schedule
    in which every rank sends first cannot block.

    ``universal=True`` means every size simulated clean: the schedules
    are pure functions of (P, power-of-two remainder, divisor structure),
    all of whose shapes occur within the window (see
    :data:`SCHEDULE_P_MAX`).
    """
    from repro.mpi.algorithms import schedule_traces

    verdict = SymbolicVerdict(cutoff=max_p)
    merged: dict[tuple[str, int], ProtocolFinding] = {}
    witness_sizes: dict[tuple[str, int], list[int]] = {}
    for p in range(P_MIN, max_p + 1):
        if root >= p:  # no such rank at this world size
            verdict.excluded.append(p)
            continue
        neutral = schedule_traces(collective, algorithm, p, root)
        traces = _schedule_rank_traces(neutral)
        verdict.checked.append(p)
        for finding in simulate(traces):
            if finding.severity != "error" and finding.rule != "PDC112":
                continue
            key = (finding.rule, finding.line)
            witness_sizes.setdefault(key, []).append(p)
            if key not in merged:
                details = dict(finding.details)
                details["witness_p"] = p
                merged[key] = ProtocolFinding(
                    rule=finding.rule, line=finding.line,
                    message=finding.message, severity=finding.severity,
                    details=details,
                )
    for key, finding in merged.items():
        finding.details["sizes"] = witness_sizes[key]
    verdict.findings = sorted(merged.values(), key=lambda f: (f.line, f.rule))
    verdict.universal = True
    return verdict
