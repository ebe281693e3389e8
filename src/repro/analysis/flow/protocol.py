"""Static MPI protocol checking by per-rank abstract interpretation.

``mpicheck`` finds deadlocks *dynamically* — it has to run the program.
This module finds the same protocol bugs statically: the shared
per-rank interpreter (:mod:`.interp`) evaluates an SPMD body once per
rank (rank 0 and 1 of a 2-process world by default), and this module's
trace sink records the concrete ``send``/``recv``/collective operations
each rank would issue, per communicator.  A small matching simulator
then plays the traces against each other:

* every rank blocked in the same ``recv`` → the symmetric exchange
  deadlock (PDC103);
* blocked recvs forming an asymmetric wait cycle → PDC110;
* one rank inside a collective the others never call → PDC104;
* all ranks in collectives, but in different orders → PDC111;
* a ``recv`` whose sender already finished, or a ``send`` nobody ever
  receives → PDC112.

The interpreter is deliberately honest about its limits: any construct
it cannot follow *that involves communication* (unbounded ``while``
loops around comm ops, wildcard sources, unknown branch conditions
guarding sends) raises :class:`Ambiguous`, and the caller falls back to
the older lexical heuristics rather than guessing.  A correct program
never gains a finding from ambiguity.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .interp import WILDCARD_TAG, Ambiguous, RankInterp, Sink, comm_param

__all__ = [
    "Ambiguous",
    "Op",
    "RankTrace",
    "ProtocolFinding",
    "spmd_roots",
    "extract_traces",
    "simulate",
    "check_protocol",
    "WILDCARD_TAG",
]

#: simulated world size — the smallest SPMD world that exhibits cycles
R = 2


@dataclass(frozen=True)
class Op:
    """One communication operation in a rank's trace."""

    kind: str  # "send" | "recv" | "coll"
    line: int
    dest: int | None = None
    source: int | None = None
    tag: object = None
    name: str = ""  # collective method name
    root: int | None = None
    comm: str = "world"  # the communicator, see CommVal.name

    def key(self) -> tuple:
        """Shape key: identical across ranks for symmetric code."""
        return (self.kind, self.line, self.name)


@dataclass
class RankTrace:
    rank: int
    ops: list[Op] = field(default_factory=list)


@dataclass(frozen=True)
class ProtocolFinding:
    rule: str
    line: int
    message: str
    severity: str  # "error" | "warning"
    details: dict = field(default_factory=dict)


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


# ---------------------------------------------------------------------------
# SPMD root discovery
# ---------------------------------------------------------------------------

def spmd_roots(tree: ast.AST) -> list[ast.AST]:
    """Functions that run SPMD — one evaluation per rank.

    A function qualifies when it is passed to ``mpirun``/``run_script``/
    ``trace_run``, or takes a ``comm`` parameter *and is not called* by
    other code in the module (those are helpers, analyzed inline at
    their call sites instead of as independent roots).
    """
    launched: list[ast.AST] = []
    called_names: set[str] = set()
    defs: dict[str, ast.AST] = {}
    comm_param_funcs: list[ast.AST] = []

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, node)
            if comm_param(node):
                comm_param_funcs.append(node)
        elif isinstance(node, ast.Lambda) and comm_param(node):
            comm_param_funcs.append(node)
        elif isinstance(node, ast.Call):
            if _call_name(node) in ("mpirun", "run_script", "trace_run"):
                if node.args:
                    arg = node.args[0]
                    if isinstance(arg, ast.Lambda):
                        launched.append(arg)
                    elif isinstance(arg, ast.Name):
                        launched.append(arg.id)  # resolve after the walk
            elif isinstance(node.func, ast.Name):
                called_names.add(node.func.id)

    roots: list[ast.AST] = []
    seen: set[int] = set()

    def add(func: ast.AST) -> None:
        if id(func) not in seen:
            seen.add(id(func))
            roots.append(func)

    for item in launched:
        func = defs.get(item) if isinstance(item, str) else item
        if func is not None:
            add(func)
    for func in comm_param_funcs:
        name = getattr(func, "name", None)
        if name is None or name not in called_names:
            add(func)
    return roots


# ---------------------------------------------------------------------------
# Per-rank evaluation
# ---------------------------------------------------------------------------

class _TraceSink(Sink):
    """Appends each resolved call to its rank's trace."""

    def __init__(self, size: int) -> None:
        self.traces = [RankTrace(rank=rank) for rank in range(size)]

    def send(self, rank, line, method, comm, dest, tag, payload) -> None:
        self.traces[rank].ops.append(
            Op("send", line, dest=dest, tag=tag, comm=comm.name))

    def recv(self, rank, line, method, comm, source, tag) -> None:
        self.traces[rank].ops.append(
            Op("recv", line, source=source, tag=tag, comm=comm.name))

    def collective(self, rank, line, method, comm, root, payload) -> None:
        self.traces[rank].ops.append(
            Op("coll", line, name=method.lower(), root=root, comm=comm.name))


def extract_traces(func: ast.AST, tree: ast.AST, *, size: int = R) -> list[RankTrace]:
    """Evaluate ``func`` once per rank; raises :class:`Ambiguous`."""
    sink = _TraceSink(size)
    interp = RankInterp(func, tree, size, sink)
    for rank in range(size):
        interp.run(rank)
    return sink.traces


# ---------------------------------------------------------------------------
# Trace matching
# ---------------------------------------------------------------------------

def _coll_key(op: Op) -> tuple:
    return (op.comm, op.name, op.root)


def simulate(traces: list[RankTrace]) -> list[ProtocolFinding]:
    """Play the per-rank traces against each other; classify stuck states."""
    size = len(traces)
    pc = [0] * size
    channels: dict[tuple[str, int, int], list[Op]] = {}

    def current(r: int) -> Op | None:
        ops = traces[r].ops
        return ops[pc[r]] if pc[r] < len(ops) else None

    progress = True
    while progress:
        progress = False
        for r in range(size):
            op = current(r)
            if op is None:
                continue
            if op.kind == "send":
                channels.setdefault((op.comm, r, op.dest), []).append(op)
                pc[r] += 1
                progress = True
            elif op.kind == "recv":
                queue = channels.get((op.comm, op.source, r), [])
                for i, msg in enumerate(queue):
                    if op.tag == WILDCARD_TAG or msg.tag == op.tag:
                        queue.pop(i)
                        pc[r] += 1
                        progress = True
                        break
            elif op.kind == "coll":
                others = [current(o) for o in range(size) if o != r]
                if all(o is not None and o.kind == "coll"
                       and _coll_key(o) == _coll_key(op) for o in others):
                    for o in range(size):
                        pc[o] += 1
                    progress = True

    blocked = {r: current(r) for r in range(size) if current(r) is not None}
    if not blocked:
        return _classify_completed(traces, channels)
    return [_classify_stuck(traces, blocked, pc)]


def _classify_completed(
    traces: list[RankTrace],
    channels: dict[tuple[str, int, int], list[Op]],
) -> list[ProtocolFinding]:
    findings: list[ProtocolFinding] = []
    leftover_lines: dict[int, int] = {}
    for queue in channels.values():
        for msg in queue:
            leftover_lines[msg.line] = leftover_lines.get(msg.line, 0) + 1
    for line, count in sorted(leftover_lines.items()):
        findings.append(ProtocolFinding(
            rule="PDC112", line=line, severity="warning",
            message=(f"{count} message(s) sent here are never received by "
                     "any rank — a send/recv count mismatch"),
            details={"unreceived": count},
        ))
    if findings:
        return findings

    # Symmetric send-before-recv completes under buffering, but blocks the
    # moment messages stop fitting — keep flagging the classroom shape.
    keys = [tuple(op.key() for op in t.ops) for t in traces]
    p2p = [[op for op in t.ops if op.kind != "coll"] for t in traces]
    if (all(k == keys[0] for k in keys) and all(ops for ops in p2p)
            and all(ops[0].kind == "send" for ops in p2p)
            and all(any(op.kind == "recv" for op in ops) for ops in p2p)):
        line = p2p[0][0].line
        findings.append(ProtocolFinding(
            rule="PDC103", line=line, severity="warning",
            message=("every rank send()s before it recv()s; blocking sends "
                     "deadlock as soon as messages stop fitting in buffers"),
        ))
    return findings


def _classify_stuck(
    traces: list[RankTrace],
    blocked: dict[int, Op],
    pc: list[int],
) -> ProtocolFinding:
    size = len(traces)
    done = [r for r in range(size) if r not in blocked]
    kinds = {op.kind for op in blocked.values()}
    keys = [tuple(op.key() for op in t.ops) for t in traces]
    symmetric = all(k == keys[0] for k in keys)

    if kinds == {"recv"}:
        if symmetric and len(blocked) == size:
            op = blocked[0]
            return ProtocolFinding(
                rule="PDC103", line=op.line, severity="error",
                message=("every rank blocks in recv() before reaching its "
                         "send() — the symmetric exchange deadlocks"),
                details={"ranks": sorted(blocked)},
            )
        # Is every blocked rank waiting on another blocked rank?
        if all(op.source in blocked for op in blocked.values()):
            first = min(blocked.values(), key=lambda op: op.line)
            cycle = " -> ".join(
                f"rank {r} waits for rank {blocked[r].source} "
                f"(recv at line {blocked[r].line})"
                for r in sorted(blocked)
            )
            return ProtocolFinding(
                rule="PDC110", line=first.line, severity="error",
                message=(f"ranks deadlock in a message-wait cycle: {cycle}"),
                details={"cycle": sorted(blocked)},
            )
        stuck = min(
            (op for op in blocked.values() if op.source not in blocked),
            key=lambda op: op.line,
        )
        return ProtocolFinding(
            rule="PDC112", line=stuck.line, severity="error",
            message=(f"recv() from rank {stuck.source} can never complete: "
                     "that rank finishes without sending a matching message"),
            details={"source": stuck.source},
        )

    if kinds == {"coll"}:
        if done:
            op = min(blocked.values(), key=lambda op: op.line)
            return ProtocolFinding(
                rule="PDC104", line=op.line, severity="error",
                message=(f"collective '{op.name}' is only reached by a subset "
                         "of ranks (it sits inside a rank conditional); the "
                         "other ranks never enter the collective and the "
                         "program hangs"),
                details={"collective": op.name,
                         "missing_ranks": done},
            )
        remaining = [
            sorted(_coll_key(op) for op in traces[r].ops[pc[r]:]
                   if op.kind == "coll")
            for r in range(size)
        ]
        if all(r == remaining[0] for r in remaining):
            op = blocked[0]
            order = ", then ".join(
                f"rank {r}: '{blocked[r].name}' (line {blocked[r].line})"
                for r in sorted(blocked)
            )
            return ProtocolFinding(
                rule="PDC111", line=op.line, severity="error",
                message=("ranks call the same collectives in different "
                         f"orders — {order}; collective calls must match "
                         "in program order on every rank"),
                details={"order": order},
            )
        op = min(blocked.values(), key=lambda op: op.line)
        return ProtocolFinding(
            rule="PDC104", line=op.line, severity="error",
            message=(f"collective '{op.name}' is not matched by every rank: "
                     "the ranks disagree on which collectives they will "
                     "call, and all of them hang"),
            details={"collective": op.name},
        )

    # Mixed point-to-point / collective stuck state.
    op = min(blocked.values(), key=lambda op: op.line)
    what = ", ".join(
        f"rank {r} in {blocked[r].kind} (line {blocked[r].line})"
        for r in sorted(blocked)
    )
    return ProtocolFinding(
        rule="PDC110", line=op.line, severity="error",
        message=f"ranks deadlock waiting on mismatched operations: {what}",
        details={"blocked": what},
    )


def check_protocol(func: ast.AST, tree: ast.AST) -> list[ProtocolFinding] | None:
    """Protocol findings for one SPMD root, or None when ambiguous."""
    try:
        traces = extract_traces(func, tree)
    except Ambiguous:
        return None
    except RecursionError:  # pragma: no cover - pathological inputs
        return None
    return simulate(traces)
