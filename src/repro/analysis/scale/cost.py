"""Static cost and scalability prediction for SPMD bodies.

The shared per-rank interpreter (:mod:`repro.analysis.flow.interp`,
also behind :mod:`repro.analysis.flow.protocol`) evaluates an MPI body
once per rank at sampled problem sizes ``N`` and world sizes ``P``.
Instead of matching traces, this module's sink *accounts*: every
communication site is charged its message count and payload bytes under
the byte model of the actual runtime (:func:`pickle.dumps` for object
transport, raw ``nbytes`` for buffer transport, the real collective
algorithms' message complexity from :mod:`repro.mpi.collectives`), and
every statement executed charges one abstract work tick to its rank.

The sampled totals are then identified as polynomials in ``N`` and ``P``
over the basis ``{1, N, P, N·P, P², N/P}`` (least squares with held-out
verification — a poor fit abstains rather than reporting a wrong
formula), and the per-rank work profile yields an Amdahl-style speedup
bound ``S(P) <= W(1) / max_r w_r(P)`` plus a fitted serial fraction.

Two trust levels share the interpreter:

* **trusted** (:func:`analyze_module_cost`) — for repo-owned exemplar
  modules: the module is imported and *pure same-module helpers are
  executed natively* when all their arguments are concrete, so payload
  byte predictions are exact up to the byte model.  Never used on
  learner submissions.
* **untrusted** (:func:`analyze_cost` as used by ``repro lint --cost``)
  — nothing is executed beyond a whitelist of safe builtins; unknown
  values stay abstract (typed unknowns, arrays tracked by length), byte
  totals honestly degrade to ``None`` where payloads are unknowable,
  and message counts/work ticks still feed the PDC120–122 scalability
  smells.
"""

from __future__ import annotations

import ast
import pickle
from dataclasses import dataclass, field
from typing import Any

from ..flow.interp import (
    Ambiguous,
    ArrayVal,
    RankInterp,
    Sink,
    Unknown,
    is_abstract,
)
from ..flow.protocol import spmd_roots

__all__ = [
    "Poly",
    "CostSite",
    "CostSample",
    "CostModel",
    "CostReport",
    "analyze_cost",
    "analyze_module_cost",
    "cost_report",
]

#: pickle size of a float payload (protocol-stable; asserted by tests)
FLOAT_PICKLE_BYTES = len(pickle.dumps(0.0))


def _holds_abstract(value: Any) -> bool:
    if isinstance(value, (tuple, list)):
        return any(_holds_abstract(v) for v in value)
    if isinstance(value, dict):
        return any(_holds_abstract(v) for v in (*value, *value.values()))
    return is_abstract(value)


def _payload_pickle_bytes(value: Any) -> int | None:
    """Bytes of ``pickle.dumps(value)`` under the object-transport model."""
    if isinstance(value, Unknown):
        if value.tag == "float":
            return FLOAT_PICKLE_BYTES
        return None
    if isinstance(value, ArrayVal):
        try:
            import numpy as np
        except Exception:  # pragma: no cover - numpy is a repo dependency
            return None
        return len(pickle.dumps(np.zeros(value.length)))
    if _holds_abstract(value):
        return None  # e.g. a tuple around a received value
    try:
        return len(pickle.dumps(value))
    except Exception:
        return None


def _payload_raw_bytes(value: Any) -> int | None:
    """Raw buffer bytes under the typed-transport model."""
    if isinstance(value, ArrayVal):
        return value.nbytes
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    return None


# ---------------------------------------------------------------------------
# Cost sites
# ---------------------------------------------------------------------------

@dataclass
class CostSite:
    """Accounting for one communication/allocation site at one sample."""

    line: int
    kind: str          # "p2p" | "coll" | "alloc"
    name: str
    msgs: int = 0
    bytes: int | None = 0
    per_rank_msgs: list[int] = field(default_factory=list)
    calls_per_rank: int = 0
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "line": self.line, "kind": self.kind, "name": self.name,
            "msgs": self.msgs, "bytes": self.bytes,
            "per_rank_msgs": self.per_rank_msgs,
            "calls_per_rank": self.calls_per_rank,
            **({"note": self.note} if self.note else {}),
        }


def _payload_bytes(value: Any, raw: bool) -> int | None:
    return _payload_raw_bytes(value) if raw else _payload_pickle_bytes(value)


class _SiteRecorder(Sink):
    """The cost model's sink: a per-(line, method) log, filled rank by rank.

    Buffer methods (``Send``, ``Bcast``, ...: capitalised) are charged
    raw ``nbytes``, object methods their pickled size.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        # key -> {"kind","name","line","payloads": [per-rank list of
        #         (payload_bytes, root, raw) tuples], "sends": per-rank count}
        self.entries: dict[tuple[int, str], dict[str, Any]] = {}

    def _entry(self, line: int, name: str, kind: str) -> dict[str, Any]:
        key = (line, name)
        if key not in self.entries:
            self.entries[key] = {
                "kind": kind, "name": name, "line": line,
                "payloads": [[] for _ in range(self.size)],
                "sends": [0] * self.size,
                "send_bytes": [0] * self.size,
                "bytes_known": True,
            }
        return self.entries[key]

    def send(self, rank, line, method, comm, dest, tag, payload) -> None:
        entry = self._entry(line, "send", "p2p")
        entry["sends"][rank] += 1
        nbytes = _payload_bytes(payload, method[0].isupper())
        if nbytes is None:
            entry["bytes_known"] = False
        else:
            entry["send_bytes"][rank] += nbytes

    def collective(self, rank, line, method, comm, root, payload) -> None:
        if method == "Create_cart":
            # Create_cart internally allgathers a 3-int membership triple.
            name, raw = "cart_setup", False
            nbytes: int | None = len(pickle.dumps((0, rank, rank)))
        else:
            name, raw = method.lower(), method[0].isupper()
            nbytes = 0 if name == "barrier" else _payload_bytes(payload, raw)
        entry = self._entry(line, name, "coll")
        entry["payloads"][rank].append((nbytes, root, raw))
        if nbytes is None:
            entry["bytes_known"] = False

    def alloc(self, rank, line, name) -> None:
        self._entry(line, name, "alloc")["sends"][rank] += 1


def _coll_msg_count(name: str, size: int) -> int:
    """Messages one call of the collective moves, per the real algorithms.

    For collectives with selectable algorithms the count comes from the
    registry's recorded schedule of whatever the runtime's object-verb
    policy would pick (``resolve`` with ``nbytes=0``, honoring any
    ``REPRO_COLL_ALGO`` override) — so the prediction tracks the actual
    wire traffic even as algorithm defaults evolve.
    """
    if size <= 1:
        return 0
    from repro.mpi import algorithms as _mpi_algos

    if name in _mpi_algos.ALGORITHMS:
        algo = _mpi_algos.resolve(name, size=size, nbytes=0)
        return _mpi_algos.message_count(name, algo, size)
    if name in ("scatter", "gather", "scan", "exscan"):
        return size - 1
    if name == "alltoall":
        return size * (size - 1)
    return size - 1


def _coll_bytes(name: str, size: int, payloads: list[int | None],
                root: int, raw: bool) -> int | None:
    """Byte total of one collective call from the per-rank payload sizes.

    ``payloads[r]`` is the byte size of rank ``r``'s contribution (the
    ``sendobj`` it passed), mirroring what the runtime's transport would
    pickle; ``None`` anywhere makes the total unknown.
    """
    if size <= 1:
        return 0
    if any(b is None for b in payloads):
        return None
    sizes: list[int] = [int(b) for b in payloads]  # type: ignore[arg-type]
    mean = sum(sizes) / len(sizes)
    if name == "barrier":
        return 0  # empty raw tokens: payload_nbytes(b"") == 0
    if name == "gather":
        return sum(b for r, b in enumerate(sizes) if r != root)
    if name in ("reduce", "scan", "exscan"):
        return round((size - 1) * mean)
    if name == "bcast":
        return (size - 1) * sizes[root]
    if name == "scatter":
        # root's payload is the full chunk list; each message carries one
        # pickled chunk — approximate chunks as equal slices of the list.
        per = sizes[root] / size
        return round((size - 1) * per)
    if name == "allgather":
        # ring: each block travels size-1 hops, re-pickled bare per hop
        return (size - 1) * sum(sizes)
    if name == "alltoall":
        return round((size - 1) * mean)
    return round(_coll_msg_count(name, size) * mean)


def _cart_setup_bytes(size: int) -> int:
    """Ring-allgather traffic of ``Create_cart``'s membership triples.

    Every rank contributes ``(flag, rank, rank)`` and each block travels
    ``size - 1`` hops, pickled bare per hop — exactly what the runtime's
    metadata-free ``allgather_ring`` puts on the wire.
    """
    per_block = [len(pickle.dumps((0, r, r))) for r in range(size)]
    return (size - 1) * sum(per_block)


# ---------------------------------------------------------------------------
# Samples, models, reports
# ---------------------------------------------------------------------------

@dataclass
class CostSample:
    """Totals from one per-rank evaluation at concrete ``(N, P)``."""

    p: int
    n: int | None = None
    sites: list[CostSite] = field(default_factory=list)
    msgs: int = 0
    bytes: int | None = 0
    work: list[int] = field(default_factory=list)
    abstained: str | None = None
    abstain_line: int | None = None

    @property
    def max_work(self) -> int:
        return max(self.work, default=0)

    @property
    def imbalance(self) -> float:
        if not self.work or sum(self.work) == 0:
            return 0.0
        mean = sum(self.work) / len(self.work)
        return max(self.work) / mean - 1.0 if mean else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "p": self.p, "n": self.n, "msgs": self.msgs, "bytes": self.bytes,
            "work": self.work, "imbalance": round(self.imbalance, 4),
            "sites": [s.to_dict() for s in self.sites],
            **({"abstained": self.abstained} if self.abstained else {}),
        }


def _finish_sample(sample: CostSample, recorder: _SiteRecorder,
                   size: int) -> None:
    total_msgs = 0
    total_bytes: int | None = 0

    def add_bytes(amount: int | None) -> None:
        nonlocal total_bytes
        if amount is None:
            total_bytes = None
        elif total_bytes is not None:
            total_bytes += amount

    for (line, name), entry in sorted(recorder.entries.items()):
        if entry["kind"] == "p2p":
            msgs = sum(entry["sends"])
            nbytes = (sum(entry["send_bytes"])
                      if entry["bytes_known"] else None)
            site = CostSite(line=line, kind="p2p", name=name, msgs=msgs,
                            bytes=nbytes, per_rank_msgs=list(entry["sends"]),
                            calls_per_rank=max(entry["sends"], default=0))
            total_msgs += msgs
            add_bytes(nbytes)
        elif entry["kind"] == "alloc":
            site = CostSite(line=line, kind="alloc", name=name,
                            msgs=0, bytes=0,
                            per_rank_msgs=list(entry["sends"]),
                            calls_per_rank=max(entry["sends"], default=0))
        else:
            payloads = entry["payloads"]
            ncalls = max((len(p) for p in payloads), default=0)
            msgs = 0
            nbytes: int | None = 0
            for i in range(ncalls):
                per_rank: list[int | None] = []
                root = 0
                raw = False
                for r in range(size):
                    if i < len(payloads[r]):
                        b, rt, raw_r = payloads[r][i]
                        per_rank.append(b)
                        raw = raw or raw_r
                        if rt is not None:
                            root = rt
                    else:
                        per_rank.append(None)
                if name == "cart_setup":
                    msgs += size * (size - 1)
                    call_bytes: int | None = _cart_setup_bytes(size)
                else:
                    msgs += _coll_msg_count(name, size)
                    call_bytes = _coll_bytes(name, size, per_rank, root, raw)
                if call_bytes is None:
                    nbytes = None
                elif nbytes is not None:
                    nbytes += call_bytes
            site = CostSite(line=line, kind="coll", name=name, msgs=msgs,
                            bytes=nbytes,
                            per_rank_msgs=[len(p) for p in payloads],
                            calls_per_rank=ncalls)
            total_msgs += msgs
            add_bytes(nbytes)
        sample.sites.append(site)
    sample.msgs = total_msgs
    sample.bytes = total_bytes


def analyze_cost(
    func: ast.AST,
    tree: ast.AST,
    *,
    size: int,
    n: int | None = None,
    bindings: dict[str, Any] | None = None,
    namespace: dict[str, Any] | None = None,
) -> CostSample:
    """Evaluate one SPMD root at concrete ``(n, size)``; never raises.

    ``bindings`` seeds the environment (enclosing-function parameters);
    ``namespace`` enables trusted native evaluation against the given
    module globals.  An evaluator abstention is recorded on the sample
    (with the partial accounting up to that point) rather than raised.
    """
    recorder = _SiteRecorder(size)
    sample = CostSample(p=size, n=n)
    ev = RankInterp(func, tree, size, recorder,
                    bindings=bindings, namespace=namespace)
    for rank in range(size):
        try:
            ev.run(rank)
        except Ambiguous as exc:  # the first rank to abstain names the reason
            if sample.abstained is None:
                sample.abstained, sample.abstain_line = exc.code, exc.line
        except RecursionError:
            sample.abstained = sample.abstained or "recursion"
        sample.work.append(ev.work)
    _finish_sample(sample, recorder, size)
    return sample


# ---------------------------------------------------------------------------
# Polynomial identification
# ---------------------------------------------------------------------------

#: the cost-expression grammar: linear combinations of these monomials
POLY_BASIS: tuple[str, ...] = ("1", "N", "P", "N*P", "P^2", "N/P")


def _basis_row(n: float, p: float) -> list[float]:
    return [1.0, n, p, n * p, p * p, n / p]


@dataclass
class Poly:
    """A fitted cost polynomial over :data:`POLY_BASIS`."""

    coeffs: dict[str, float]
    max_rel_err: float = 0.0

    def __call__(self, n: float, p: float) -> float:
        row = _basis_row(n, p)
        return sum(self.coeffs.get(term, 0.0) * val
                   for term, val in zip(POLY_BASIS, row))

    def describe(self) -> str:
        parts = []
        for term, coeff in self.coeffs.items():
            if abs(coeff) < 1e-9:
                continue
            if term == "1":
                parts.append(f"{coeff:.4g}")
            else:
                parts.append(f"{coeff:.4g}·{term}")
        return " + ".join(parts).replace("+ -", "- ") or "0"

    def to_dict(self) -> dict[str, Any]:
        return {"terms": {t: round(c, 6) for t, c in self.coeffs.items()
                          if abs(c) > 1e-9},
                "max_rel_err": round(self.max_rel_err, 6),
                "formula": self.describe()}


def fit_poly(points: list[tuple[float, float, float]],
             tol: float = 0.05) -> Poly | None:
    """Least-squares fit ``value ~ poly(N, P)`` with held-out verification.

    ``points`` are ``(n, p, value)`` samples.  The last sample is held
    out of the fit and used (together with the fitted residuals) to
    verify the identification; a relative error above ``tol`` abstains
    (returns ``None``) — a wrong formula is worse than no formula.
    """
    if len(points) < len(POLY_BASIS) + 1:
        fit_points = points
        holdout: list[tuple[float, float, float]] = []
    else:
        fit_points = points[:-1]
        holdout = points[-1:]
    try:
        import numpy as np
    except Exception:  # pragma: no cover - numpy is a repo dependency
        return None
    if not fit_points:
        return None
    a = np.array([_basis_row(n, p) for n, p, _ in fit_points])
    b = np.array([v for _, _, v in fit_points])
    coeffs, *_ = np.linalg.lstsq(a, b, rcond=None)
    poly = Poly(coeffs=dict(zip(POLY_BASIS, (float(c) for c in coeffs))))
    max_err = 0.0
    for n, p, value in points:
        predicted = poly(n, p)
        scale = max(abs(value), 1.0)
        max_err = max(max_err, abs(predicted - value) / scale)
    poly.max_rel_err = max_err
    if holdout and max_err > tol:
        return None
    return poly


# ---------------------------------------------------------------------------
# Whole-function model
# ---------------------------------------------------------------------------

@dataclass
class CostModel:
    """Fitted cost/scalability model for one SPMD function."""

    name: str
    samples: list[CostSample] = field(default_factory=list)
    msgs_poly: Poly | None = None
    bytes_poly: Poly | None = None
    work_poly: Poly | None = None
    speedup_bound: list[tuple[int, float]] = field(default_factory=list)
    serial_fraction: float | None = None
    abstained: str | None = None

    def sample_at(self, *, p: int, n: int | None = None) -> CostSample | None:
        for sample in self.samples:
            if sample.p == p and (n is None or sample.n == n):
                return sample
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "samples": [s.to_dict() for s in self.samples],
            "message_poly": self.msgs_poly.to_dict() if self.msgs_poly else None,
            "bytes_poly": self.bytes_poly.to_dict() if self.bytes_poly else None,
            "work_poly": self.work_poly.to_dict() if self.work_poly else None,
            "speedup_bound": [[p, round(s, 3)] for p, s in self.speedup_bound],
            "serial_fraction": (round(self.serial_fraction, 6)
                                if self.serial_fraction is not None else None),
            **({"abstained": self.abstained} if self.abstained else {}),
        }


def _fit_model(model: CostModel, n_for_speedup: int | None) -> None:
    clean = [s for s in model.samples if s.abstained is None]
    if not clean:
        model.abstained = model.samples[0].abstained if model.samples else None
        return
    msg_pts = [(float(s.n or 0), float(s.p), float(s.msgs)) for s in clean]
    model.msgs_poly = fit_poly(msg_pts)
    byte_pts = [(float(s.n or 0), float(s.p), float(s.bytes))
                for s in clean if s.bytes is not None]
    if len(byte_pts) == len(msg_pts):
        model.bytes_poly = fit_poly(byte_pts)
    work_pts = [(float(s.n or 0), float(s.p), float(s.max_work))
                for s in clean]
    model.work_poly = fit_poly(work_pts)

    # Amdahl-style bound: S(P) <= W(1) / max_r w_r(P), at one problem size.
    base = [s for s in clean if s.p == 1 and (n_for_speedup is None
                                              or s.n == n_for_speedup)]
    if base:
        w1 = base[0].max_work
        bounds: list[tuple[int, float]] = []
        for s in sorted(clean, key=lambda s: s.p):
            if s.p == 1 or (n_for_speedup is not None
                            and s.n != n_for_speedup):
                continue
            if s.max_work > 0:
                bounds.append((s.p, w1 / s.max_work))
        model.speedup_bound = bounds
        # Fit 1/S = s + (1-s)/P  =>  s = (P/S - 1) / (P - 1)
        estimates = [
            (p / bound - 1.0) / (p - 1.0)
            for p, bound in bounds if p > 1 and bound > 0
        ]
        if estimates:
            model.serial_fraction = max(
                0.0, min(1.0, sum(estimates) / len(estimates)))
    abst = next((s.abstained for s in model.samples if s.abstained), None)
    model.abstained = abst


def _param_defaults(func: ast.AST, namespace: dict[str, Any]) -> dict[str, Any]:
    """Concrete default values of a function's parameters.

    Constant defaults evaluate directly; bare-name defaults (e.g. a
    module-level callable) resolve through ``namespace``.  Anything else
    is left unbound so the evaluator treats it as unknown.
    """
    out: dict[str, Any] = {}
    args = getattr(func, "args", None)
    if args is None:
        return out
    params = [a.arg for a in args.args]
    defaults = list(args.defaults)
    for param, default in zip(params[len(params) - len(defaults):], defaults):
        if isinstance(default, ast.Constant):
            out[param] = default.value
        elif isinstance(default, ast.Name) and default.id in namespace:
            out[param] = namespace[default.id]
        elif isinstance(default, (ast.Tuple, ast.List)):
            try:
                out[param] = ast.literal_eval(default)
            except ValueError:
                pass
    for kwarg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None and isinstance(default, ast.Constant):
            out[kwarg.arg] = default.value
    return out


def analyze_module_cost(
    module_name: str,
    func_name: str,
    *,
    bindings: dict[str, Any] | None = None,
    n_param: str | None = None,
    n_values: tuple[int, ...] = (),
    p_values: tuple[int, ...] = (1, 2, 3, 4, 5),
    trusted: bool = True,
) -> CostModel:
    """Trusted cost model for one exemplar's SPMD body.

    Imports ``module_name``, locates the SPMD root nested inside
    ``func_name`` (the ``body(comm)`` closure passed to ``mpirun``), and
    evaluates it over the ``(n, p)`` sample grid.  ``bindings`` supplies
    the enclosing function's parameters; when ``n_param`` is given it is
    overridden by each value of ``n_values`` in turn.
    """
    import importlib
    import inspect

    module = importlib.import_module(module_name)
    source = inspect.getsource(module)
    tree = ast.parse(source)

    enclosing: ast.AST | None = None
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == func_name):
            enclosing = node
            break
    if enclosing is None:
        raise ValueError(f"{module_name} has no function {func_name!r}")
    roots = [r for r in spmd_roots(tree)
             if any(r is sub for sub in ast.walk(enclosing))]
    if not roots:
        raise ValueError(f"{func_name} contains no SPMD root")
    func = roots[0]

    namespace = dict(vars(module)) if trusted else None
    defaults = _param_defaults(enclosing, namespace or {})
    model = CostModel(name=f"{module_name}:{func_name}")
    ns = list(n_values) if n_values else [None]
    for n in ns:
        local_bindings = dict(defaults)
        local_bindings.update(bindings or {})
        if n is not None and n_param:
            local_bindings[n_param] = n
        for p in p_values:
            sample = analyze_cost(
                func, tree, size=p,
                n=n if n is not None else local_bindings.get(n_param or "", None),
                bindings=local_bindings, namespace=namespace)
            model.samples.append(sample)
    _fit_model(model, ns[-1] if ns[-1] is not None else None)
    return model


# ---------------------------------------------------------------------------
# Per-file report (untrusted; feeds ``repro lint --cost``)
# ---------------------------------------------------------------------------

@dataclass
class CostReport:
    """Untrusted cost scan of one source file's SPMD roots."""

    path: str
    models: list[CostModel] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "models": [m.to_dict() for m in self.models],
            "notes": self.notes,
        }


def cost_report(
    source: str,
    path: str = "<src>",
    *,
    p_values: tuple[int, ...] = (1, 2, 4, 8),
) -> CostReport:
    """Scan one source text (learner code: nothing is executed)."""
    report = CostReport(path=path)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        report.notes.append(f"syntax error: {exc}")
        return report
    for index, root in enumerate(spmd_roots(tree)):
        name = getattr(root, "name", None) or f"<spmd:{index}>"
        line = getattr(root, "lineno", 0)
        model = CostModel(name=f"{name}:{line}")
        for p in p_values:
            model.samples.append(
                analyze_cost(root, tree, size=p, namespace=None))
        _fit_model(model, None)
        report.models.append(model)
    return report
