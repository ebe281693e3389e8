"""Flow-sensitive static analysis under pdclint.

The package layers four facilities the lint rules build on:

* :mod:`.cfg` — per-function control-flow graphs with dominators;
* :mod:`.dataflow` — a generic worklist solver plus reaching-definitions
  and live-variables instances;
* :mod:`.mhp` — may-happen-in-parallel guard facts (must/may-held locks,
  one-thread regions) for ``repro.openmp`` parallel bodies;
* :mod:`.callgraph` — one-level effect summaries for helper functions;
* :mod:`.interp` — the static per-rank interpreter shared by the MPI
  protocol checker and the cost model;
* :mod:`.protocol` — static MPI protocol checking by trace matching over
  the interpreter's per-rank traces.
"""

from .callgraph import CallGraph, Summary, build_callgraph
from .cfg import CFG, BasicBlock, build_cfg
from .dataflow import (
    LiveVariables,
    Problem,
    ReachingDefinitions,
    facts_at,
    solve,
)
from .mhp import MHPAnalysis, StmtFacts, is_sync_guard, lock_names
from .protocol import (
    Ambiguous,
    Op,
    ProtocolFinding,
    RankTrace,
    check_protocol,
    extract_traces,
    simulate,
    spmd_roots,
)

__all__ = [
    "BasicBlock", "CFG", "build_cfg",
    "Problem", "solve", "facts_at", "ReachingDefinitions", "LiveVariables",
    "MHPAnalysis", "StmtFacts", "lock_names", "is_sync_guard",
    "CallGraph", "Summary", "build_callgraph",
    "Ambiguous", "Op", "RankTrace", "ProtocolFinding",
    "spmd_roots", "extract_traces", "simulate", "check_protocol",
]
