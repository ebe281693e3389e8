"""One static per-rank interpreter for the MPI analyses.

The protocol checker (:mod:`repro.analysis.flow.protocol`) and the cost
model (:mod:`repro.analysis.scale.cost`) both evaluate an SPMD body once
per rank of a concrete world size.  This module is that evaluation,
written once.  It resolves rank-constant control flow (``if rank == 0:``),
unrolls bounded ``for`` and ``while`` loops, inlines same-module helpers
that take the communicator (one level deep), and tracks derived
communicators: Cartesian grids from ``Create_cart`` with their ``Shift``
neighbours, ``PROC_NULL`` included.  Each point-to-point or collective
call it resolves goes to a *sink*:

* the protocol checker's sink appends the call to its rank's trace;
* the cost model's sink charges the call's messages and payload bytes.

Values are concrete Python values or abstract ones: :class:`Unknown`
(optionally typed), :class:`ArrayVal` (an array tracked by length) and
:class:`CommVal` (a communicator).  Anything the interpreter cannot
follow *that involves communication* raises :class:`Ambiguous` with a
code from :data:`ABSTAIN_CODES`; a construct without communication is
skipped and whatever it binds becomes unknown.

Nothing is executed beyond a whitelist of builtins, and untrusted code
reads only public attributes of plain data.  The one exception
is a *trusted* evaluation, which passes the module's globals as
``namespace`` so pure same-module code runs natively; only
:func:`repro.analysis.scale.cost.analyze_module_cost` does that, and
only on repo-owned exemplars.
"""

from __future__ import annotations

import ast
import copy
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "ABSTAIN_CODES",
    "Ambiguous",
    "ArrayVal",
    "CommVal",
    "PROC_NULL",
    "RankInterp",
    "Sink",
    "Unknown",
    "WILDCARD_TAG",
    "comm_param",
    "is_abstract",
]

PROC_NULL = -2  # repro.mpi.constants.PROC_NULL (kept literal: no runtime dep)
#: recv with no explicit tag matches any tag
WILDCARD_TAG = "*"

#: statements plus expressions evaluated for one root at one world size
_MAX_STEPS = 200_000
_MAX_LOOP_ITERS = 512
_MAX_WHILE_ITERS = 64
_MAX_INLINE_DEPTH = 1

_SEND_METHODS = frozenset({"send", "Send", "ssend", "Ssend", "isend", "Isend",
                           "ibsend", "bsend", "Bsend"})
_RECV_METHODS = frozenset({"recv", "Recv", "irecv", "Irecv"})
_SENDRECV_METHODS = frozenset({"sendrecv", "Sendrecv"})
#: collectives, matched on the lower-cased method name
_COLLECTIVES = frozenset({
    "bcast", "scatter", "gather", "reduce", "allreduce", "allgather",
    "alltoall", "barrier", "scan", "exscan",
})
#: position of ``root`` in each rooted collective's signature
_ROOT_POSITION = {"bcast": 1, "Bcast": 1, "scatter": 1, "gather": 1,
                  "reduce": 2, "Scatter": 2, "Gather": 2, "Reduce": 3}
#: derived communicators the interpreter does not model
_OPAQUE_COMM_METHODS = frozenset({"Split", "Dup", "Clone", "Create"})
_ALLOC_CALLS = frozenset({"zeros", "empty", "ones", "full", "zeros_like",
                          "empty_like", "arange", "linspace"})
#: the only values untrusted code may read attributes of (public ones only)
_PLAIN_TYPES = frozenset({int, float, bool, complex, str, bytes, tuple, list,
                          dict, range, slice})

ABSTAIN_CODES = {
    "while-around-comm": "a while loop around communication has an "
                         "unresolvable condition or outruns the unrolling cap",
    "comm-in-handler": "communication inside an exception handler",
    "unknown-branch-comm": "an unresolvable branch condition guards "
                           "communication",
    "unknown-loop-comm": "unresolvable or over-long loop bounds around "
                         "communication",
    "unresolved-endpoint": "a send/recv/collective endpoint or tag did not "
                           "evaluate to a concrete value",
    "comm-escapes": "the communicator escapes into code the interpreter "
                    "cannot follow (an unknown call, a helper beyond the "
                    "inlining depth, a Split/Dup communicator, a Cartesian "
                    "grid with unknown or mismatched dims)",
    "unsupported-stmt": "communication under a statement kind the "
                        "interpreter does not model",
    "eval-budget": "the evaluation budget was exhausted",
    "recursion": "recursive evaluation overflow",
}


class Ambiguous(Exception):
    """The body does something the interpreter cannot follow.

    ``code`` is a key of :data:`ABSTAIN_CODES`; ``line`` is the source
    line of the construct, when known.
    """

    def __init__(self, code: str, detail: str = "", line: int | None = None):
        super().__init__(detail or code)
        self.code = code
        self.line = line


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

class Unknown:
    """A value the interpreter cannot compute, optionally typed."""

    __slots__ = ("tag",)

    def __init__(self, tag: str | None = None) -> None:
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<unknown:{self.tag or '?'}>"


@dataclass(frozen=True)
class ArrayVal:
    """An array tracked by length only (untrusted mode, halo padding...)."""

    length: int
    itemsize: int = 8

    @property
    def nbytes(self) -> int:
        return self.length * self.itemsize

    def slice_length(self, lower: int | None, upper: int | None,
                     step: int | None) -> int:
        return len(range(*slice(lower, upper, step).indices(self.length)))


class CommVal:
    """A communicator.

    ``kind`` is ``"world"`` (the root's parameter), ``"cart"`` (from
    ``Create_cart``; carries its grid) or ``"opaque"`` (from ``Split``,
    ``Dup``, ..., or a grid the interpreter cannot pin down: any
    communication on it abstains).  ``name`` tells
    communicators apart in traces: ``"world"`` or ``"<method>@<line>"``.
    """

    def __init__(self, kind: str = "world", name: str = "world",
                 dims: tuple[int, ...] | None = None,
                 periods: tuple[bool, ...] | None = None) -> None:
        self.kind = kind
        self.name = name
        self.dims = dims
        self.periods = periods

    def coords(self, rank: int) -> tuple[int, ...]:
        assert self.dims is not None
        out: list[int] = []
        for extent in reversed(self.dims):
            out.append(rank % extent)
            rank //= extent
        return tuple(reversed(out))

    def cart_rank(self, coords: tuple[int, ...]) -> int:
        assert self.dims is not None and self.periods is not None
        rank = 0
        for c, extent, periodic in zip(coords, self.dims, self.periods):
            if periodic:
                c %= extent
            elif not 0 <= c < extent:
                return PROC_NULL
            rank = rank * extent + c
        return rank

    def shift(self, rank: int, direction: int, disp: int) -> tuple[int, int]:
        me = list(self.coords(rank))

        def neighbor(offset: int) -> int:
            coords = list(me)
            coords[direction] += offset
            return self.cart_rank(tuple(coords))

        return neighbor(-disp), neighbor(disp)


def is_abstract(value: Any) -> bool:
    return isinstance(value, (Unknown, ArrayVal, CommVal))


#: MPI sentinels, by bare name or as an attribute of an unknown module
_MPI_CONSTANTS: dict[str, Any] = {
    "ANY_TAG": WILDCARD_TAG, "ANY_SOURCE": Unknown("int"),
    "PROC_NULL": PROC_NULL,
}

_SAFE_BUILTINS: dict[str, Any] = {
    "range": range, "len": len, "abs": abs, "min": min, "max": max,
    "int": int, "float": float, "sum": sum, "divmod": divmod, "list": list,
    "tuple": tuple, "sorted": sorted, "str": str, "bool": bool,
    "enumerate": enumerate, "zip": zip, "round": round, "reversed": reversed,
}

_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
    ast.BitXor: operator.xor, ast.BitAnd: operator.and_,
    ast.BitOr: operator.or_, ast.LShift: operator.lshift,
    ast.RShift: operator.rshift,
}
_CMPOPS = {
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
    ast.Is: operator.is_, ast.IsNot: operator.is_not,
}


def _is_comm_op(method: str) -> bool:
    """Methods that communicate (or create a communicator collectively)."""
    return (method in _SEND_METHODS or method in _RECV_METHODS
            or method in _SENDRECV_METHODS or method.lower() in _COLLECTIVES
            or method == "Create_cart" or method in _OPAQUE_COMM_METHODS)


class Sink:
    """Receives every communication call the interpreter resolves.

    ``dest``/``source`` are world ranks (never ``PROC_NULL``: calls to
    that peer are dropped before they get here), ``comm`` the
    :class:`CommVal` the call was made on, ``payload`` the abstract or
    concrete value sent.  ``collective`` also receives ``Create_cart``.
    The methods here do nothing; each client overrides what it needs.
    """

    def send(self, rank: int, line: int, method: str, comm: CommVal,
             dest: int, tag: object, payload: Any) -> None:
        pass

    def recv(self, rank: int, line: int, method: str, comm: CommVal,
             source: int, tag: object) -> None:
        pass

    def collective(self, rank: int, line: int, method: str, comm: CommVal,
                   root: int | None, payload: Any) -> None:
        pass

    def alloc(self, rank: int, line: int, name: str) -> None:
        pass


# ---------------------------------------------------------------------------
# Module scope: constants and helper definitions visible to a root
# ---------------------------------------------------------------------------

def _parent_map(tree: ast.AST) -> dict[int, ast.AST]:
    # Memoized on the tree: the symbolic checker replays extraction at
    # every world size up to the cutoff, and rebuilding the parent map
    # per size dominated the lint profile.  Callers never mutate it.
    cached = tree.__dict__.get("_pdc_parent_map")
    if cached is not None:
        return cached
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    tree.__dict__["_pdc_parent_map"] = parents
    return parents


def _constant_bindings(scope_body: list[ast.stmt]) -> dict[str, object]:
    """``NAME = 3`` / ``A, B = 1, 2`` constant bindings in one suite."""
    env: dict[str, object] = {}
    for stmt in scope_body:
        if not isinstance(stmt, ast.Assign):
            continue
        for target in stmt.targets:
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.Constant):
                env[target.id] = stmt.value.value
            elif (isinstance(target, ast.Tuple)
                  and isinstance(stmt.value, ast.Tuple)
                  and len(target.elts) == len(stmt.value.elts)):
                for t, v in zip(target.elts, stmt.value.elts):
                    if isinstance(t, ast.Name) and isinstance(v, ast.Constant):
                        env[t.id] = v.value
    return env


def _enclosing_env(tree: ast.AST, func: ast.AST) -> dict[str, object]:
    """Constants visible to ``func`` from the module and enclosing defs.

    Memoized per (tree, func) for the same reason as :func:`_parent_map`;
    callers copy before mutating.
    """
    env_cache = tree.__dict__.setdefault("_pdc_env_cache", {})
    cached = env_cache.get(id(func))
    if cached is not None:
        return cached
    parents = _parent_map(tree)
    chain: list[ast.AST] = []
    node: ast.AST | None = func
    while node is not None:
        node = parents.get(id(node))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            chain.append(node)
    env: dict[str, object] = {}
    for scope in reversed(chain):  # outermost first; inner shadows outer
        env.update(_constant_bindings(list(scope.body)))
    env_cache[id(func)] = env
    return env


def _module_defs(tree: ast.AST) -> dict[str, ast.AST]:
    """Every function definition in the module by name (first one wins)."""
    defs: dict[str, ast.AST] | None = tree.__dict__.get("_pdc_defs")
    if defs is None:
        defs = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, node)
        tree.__dict__["_pdc_defs"] = defs
    return defs


def comm_param(func: ast.AST) -> str | None:
    """``comm`` when ``func`` declares a parameter of that name."""
    args = getattr(func, "args", None)
    if args is not None and any(a.arg == "comm" for a in args.args):
        return "comm"
    return None


def _comm_name(func: ast.AST) -> str:
    """The root's communicator parameter: ``comm`` or else the first one."""
    args = getattr(func, "args", None)
    if comm_param(func) or args is None or not args.args:
        return "comm"
    return args.args[0].arg


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------

class _Return(Exception):
    pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Fail:
    """Native evaluation did not apply."""


_FAIL = _Fail()


class RankInterp:
    """Evaluate one SPMD root at one world size, rank by rank, feeding ``sink``.

    ``bindings`` seed the environment (enclosing-function parameters);
    ``namespace`` turns on trusted native evaluation.  The evaluation
    budget is shared by all ranks.  After :meth:`run`, ``work`` holds the
    abstract ticks charged to that rank: one per statement, plus the
    extent of loops skipped or evaluated natively.
    """

    def __init__(
        self,
        func: ast.AST,
        tree: ast.AST,
        size: int,
        sink: Sink,
        *,
        bindings: dict[str, Any] | None = None,
        namespace: dict[str, Any] | None = None,
    ) -> None:
        self.func = func
        self.size = size
        self.sink = sink
        self.namespace = namespace
        self.module_defs = _module_defs(tree)
        self.base_env: dict[str, Any] = dict(_enclosing_env(tree, func))
        if bindings:
            self.base_env.update(bindings)
        self.steps = 0

    def run(self, rank: int) -> None:
        """Evaluate the root as ``rank``; raises :class:`Ambiguous`."""
        self.rank = rank
        self.env = dict(self.base_env)
        self.defs = self.module_defs
        self.depth = 0
        self.loop_depth = 0
        self.work = 0
        self._call(self.func, {_comm_name(self.func): CommVal()})

    def _call(self, func: ast.AST, bound: dict[str, Any]) -> None:
        args = getattr(func, "args", None)
        if args is not None:
            params = [a.arg for a in args.args]
            for param, default in zip(params[len(params) - len(args.defaults):],
                                      args.defaults):
                self.env.setdefault(param, self._eval_default(default))
            for param in params:
                self.env.setdefault(param, Unknown())
        self.env.update(bound)
        body = (
            [ast.Expr(value=func.body)] if isinstance(func, ast.Lambda)
            else list(func.body)
        )
        try:
            self.exec_suite(body)
        except _Return:
            pass

    def _eval_default(self, default: ast.expr) -> Any:
        if isinstance(default, ast.Constant):
            return default.value
        native = self._native(default)
        return Unknown() if native is _FAIL else native

    # ---------------------------------------------------------------- helpers
    def _tick(self) -> None:
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise Ambiguous("eval-budget", "evaluation budget exceeded")

    def _is_comm_name(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Name)
                and isinstance(self.env.get(node.id), CommVal))

    def _passes_comm(self, call: ast.Call) -> bool:
        """The call hands a communicator to its callee."""
        return any(self._is_comm_name(arg) for arg in
                   [*call.args, *(kw.value for kw in call.keywords)])

    def _has_comm_ops(self, node: ast.AST) -> bool:
        """``node`` calls a communicating method or passes a communicator on."""
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if (isinstance(func, ast.Attribute) and self._is_comm_name(func.value)
                    and _is_comm_op(func.attr)):
                return True
            if self._passes_comm(sub):
                return True
        return False

    # ------------------------------------------------------------- statements
    def exec_suite(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        self._tick()
        self.work += 1
        if isinstance(stmt, ast.Expr):
            self.eval_expr(stmt.value)
        elif isinstance(stmt, ast.Assign):
            value = self.eval_expr(stmt.value)
            for target in stmt.targets:
                self._bind(target, value)
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval_expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id, Unknown())
                self.env[stmt.target.id] = self._binop_values(
                    _BINOPS.get(type(stmt.op)), current, value)
            else:
                self._bind(stmt.target, Unknown())
        elif isinstance(stmt, ast.AnnAssign):
            value = self.eval_expr(stmt.value) if stmt.value else Unknown()
            self._bind(stmt.target, value)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._exec_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval_expr(stmt.value)
            raise _Return
        elif isinstance(stmt, ast.Raise):
            raise _Return  # this rank stops here
        elif isinstance(stmt, ast.Break):
            raise _Break
        elif isinstance(stmt, ast.Continue):
            raise _Continue
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value)
            self.exec_suite(stmt.body)
        elif isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                if self._has_comm_ops(handler):
                    raise Ambiguous("comm-in-handler",
                                    "communication in exception handler",
                                    stmt.lineno)
            self.exec_suite(stmt.body)
            self.exec_suite(stmt.orelse)
            self.exec_suite(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.defs = {**self.defs, stmt.name: stmt}
            self.env[stmt.name] = Unknown()
        elif isinstance(stmt, ast.Assert):
            self.eval_expr(stmt.test)
        elif isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal,
                               ast.Import, ast.ImportFrom, ast.Delete)):
            pass
        elif self._has_comm_ops(stmt):
            raise Ambiguous("unsupported-stmt",
                            f"unsupported statement {type(stmt).__name__}",
                            stmt.lineno)

    def _bind(self, target: ast.expr, value: Any) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            if (isinstance(value, (tuple, list))
                    and len(value) == len(target.elts)):
                for t, v in zip(target.elts, value):
                    self._bind(t, v)
            else:
                for t in target.elts:
                    self._bind(t, Unknown())
        elif isinstance(target, ast.Subscript):
            base = self.eval_expr(target.value)
            index = self.eval_expr(target.slice)
            # untrusted code stores only into plain lists and dicts, which
            # it cannot get from the host (see _readable)
            if (not is_abstract(base) and not is_abstract(index)
                    and not is_abstract(value)
                    and (self.namespace is not None
                         or type(base) in (list, dict))):
                try:
                    base[index] = value
                except Exception:
                    pass
            # stores into abstract arrays keep their tracked length

    def _havoc(self, stmt: ast.stmt) -> None:
        """Skip a statement we will not execute; clobber what it binds."""
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                self.env[sub.id] = Unknown()

    def _exec_if(self, stmt: ast.If) -> None:
        test = self.eval_expr(stmt.test)
        if is_abstract(test):
            if any(self._has_comm_ops(s) for s in stmt.body + stmt.orelse):
                raise Ambiguous("unknown-branch-comm",
                                "unknown branch condition guards communication",
                                stmt.lineno)
            self._havoc(stmt)
            return
        self.exec_suite(stmt.body if test else stmt.orelse)

    def _iterate(self, body: list[ast.stmt]) -> bool:
        """Run one loop iteration; False when the body breaks out."""
        self.loop_depth += 1
        try:
            self.exec_suite(body)
        except _Break:
            return False
        except _Continue:
            pass
        finally:
            self.loop_depth -= 1
        return True

    def _exec_while(self, stmt: ast.While) -> None:
        for _ in range(_MAX_WHILE_ITERS):
            test = self.eval_expr(stmt.test)
            if is_abstract(test):
                break
            if not test:
                self.exec_suite(stmt.orelse)
                return
            if not self._iterate(stmt.body):
                return
        if self._has_comm_ops(stmt):
            raise Ambiguous("while-around-comm",
                            "while loop around communication", stmt.lineno)
        self._havoc(stmt)

    def _exec_for(self, stmt: ast.For) -> None:
        iterable = self.eval_expr(stmt.iter)
        if isinstance(iterable, (enumerate, zip, reversed, map, filter)):
            try:
                iterable = list(iterable)
            except Exception:
                iterable = Unknown()
        concrete = isinstance(iterable, (list, tuple, range, str))
        if not concrete or len(iterable) > _MAX_LOOP_ITERS:
            if self._has_comm_ops(stmt):
                raise Ambiguous("unknown-loop-comm",
                                "loop bounds unknown or over the unrolling "
                                "cap around communication", stmt.lineno)
            if concrete:
                self.work += len(iterable)
            elif isinstance(iterable, ArrayVal):
                self.work += iterable.length
            self._havoc(stmt)
            return
        for item in iterable:
            self._bind(stmt.target, item)
            if not self._iterate(stmt.body):
                return
        self.exec_suite(stmt.orelse)

    # ------------------------------------------------------------ expressions
    def eval_expr(self, expr: ast.expr) -> Any:
        self._tick()
        if isinstance(expr, ast.Constant):
            return expr.value
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.env:
                return self.env[name]
            if name in _MPI_CONSTANTS:
                return _MPI_CONSTANTS[name]
            if self.namespace is not None and name in self.namespace:
                return self.namespace[name]
            return _SAFE_BUILTINS.get(name, Unknown())
        if isinstance(expr, ast.Call):
            return self.eval_call(expr)
        if isinstance(expr, ast.Attribute):
            base = self.eval_expr(expr.value)
            if isinstance(base, ArrayVal):
                if expr.attr == "nbytes":
                    return base.nbytes
                if expr.attr == "size":
                    return base.length
                if expr.attr == "shape":
                    return (base.length,)
                return Unknown()
            if isinstance(base, Unknown) and expr.attr in _MPI_CONSTANTS:
                return _MPI_CONSTANTS[expr.attr]
            if is_abstract(base) or not self._readable(base, expr.attr):
                return Unknown()
            try:
                return getattr(base, expr.attr)
            except Exception:
                return Unknown()
        if isinstance(expr, ast.Tuple):
            return tuple([self.eval_expr(e) for e in expr.elts])
        if isinstance(expr, ast.List):
            return [self.eval_expr(e) for e in expr.elts]
        if isinstance(expr, ast.BinOp):
            left = self.eval_expr(expr.left)
            right = self.eval_expr(expr.right)
            return self._binop_values(_BINOPS.get(type(expr.op)), left, right)
        if isinstance(expr, ast.UnaryOp):
            value = self.eval_expr(expr.operand)
            if is_abstract(value):
                return Unknown("bool") if isinstance(expr.op, ast.Not) else value
            try:
                if isinstance(expr.op, ast.USub):
                    return -value
                if isinstance(expr.op, ast.UAdd):
                    return +value
                if isinstance(expr.op, ast.Not):
                    return not value
                if isinstance(expr.op, ast.Invert):
                    return ~value
            except Exception:
                pass
            return Unknown()
        if isinstance(expr, ast.Compare):
            left = self.eval_expr(expr.left)
            result: Any = True
            for op_node, comparator in zip(expr.ops, expr.comparators):
                right = self.eval_expr(comparator)
                op = _CMPOPS.get(type(op_node))
                if op is None or is_abstract(left) or is_abstract(right):
                    result = Unknown("bool")
                    left = right
                    continue
                try:
                    if not isinstance(result, Unknown) and not op(left, right):
                        result = False
                except Exception:
                    result = Unknown("bool")
                left = right
            return result
        if isinstance(expr, ast.BoolOp):
            values = [self.eval_expr(v) for v in expr.values]
            if any(is_abstract(v) for v in values):
                return Unknown("bool")
            if isinstance(expr.op, ast.And):
                return all(values)
            return any(values)
        if isinstance(expr, ast.IfExp):
            test = self.eval_expr(expr.test)
            if is_abstract(test):
                if self._has_comm_ops(expr.body) or self._has_comm_ops(expr.orelse):
                    raise Ambiguous(
                        "unknown-branch-comm",
                        "unknown conditional expression with comm ops",
                        expr.lineno)
                return Unknown()
            return self.eval_expr(expr.body if test else expr.orelse)
        if isinstance(expr, ast.Subscript):
            return self._subscript(expr)
        if isinstance(expr, ast.Slice):
            return slice(
                None if expr.lower is None else self.eval_expr(expr.lower),
                None if expr.upper is None else self.eval_expr(expr.upper),
                None if expr.step is None else self.eval_expr(expr.step),
            )
        if isinstance(expr, ast.JoinedStr):
            for part in expr.values:
                if isinstance(part, ast.FormattedValue):
                    self.eval_expr(part.value)
            return Unknown("str")
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp, ast.Lambda, ast.Dict, ast.Set,
                             ast.Starred)):
            if self._has_comm_ops(expr):
                raise Ambiguous("comm-escapes",
                                f"comm ops inside {type(expr).__name__}",
                                expr.lineno)
            native = self._native(expr)
            return Unknown() if native is _FAIL else native
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.eval_expr(child)
        return Unknown()

    def _readable(self, base: Any, attr: str) -> bool:
        """Untrusted code reads public attributes of plain data only.

        Anything more reaches host objects: ``abs.__self__.__dict__`` is
        the builtins dict, which a subscript store could then rewrite.
        """
        return self.namespace is not None or (
            not attr.startswith("_") and type(base) in _PLAIN_TYPES)

    def _binop_values(self, op: Callable | None, left: Any, right: Any) -> Any:
        if op is None:
            return Unknown()
        if isinstance(left, ArrayVal) or isinstance(right, ArrayVal):
            # elementwise arithmetic preserves the (broadcast) length
            if any(isinstance(v, CommVal) for v in (left, right)):
                return Unknown()
            return ArrayVal(max(v.length for v in (left, right)
                                if isinstance(v, ArrayVal)))
        if is_abstract(left) or is_abstract(right):
            tags = {getattr(v, "tag", None) for v in (left, right)
                    if isinstance(v, Unknown)}
            others = {type(v) for v in (left, right) if not is_abstract(v)}
            if op is operator.truediv or float in others or "float" in tags:
                return Unknown("float")
            if others <= {int} and tags <= {"int", None} and tags:
                return Unknown("int")
            return Unknown()
        try:
            return op(left, right)
        except Exception:
            return Unknown()

    def _subscript(self, expr: ast.Subscript) -> Any:
        base = self.eval_expr(expr.value)
        index = self.eval_expr(expr.slice)
        if isinstance(base, ArrayVal):
            if isinstance(index, slice):
                parts = (index.start, index.stop, index.step)
                if any(is_abstract(v) for v in parts):
                    return ArrayVal(base.length)
                return ArrayVal(base.slice_length(*parts))
            return Unknown("float")
        if is_abstract(base) or is_abstract(index):
            return Unknown()
        if isinstance(index, slice) and any(
                is_abstract(v) for v in (index.start, index.stop, index.step)):
            return Unknown()
        try:
            return base[index]
        except Exception:
            return Unknown()

    # ----------------------------------------------------------- native eval
    def _native(self, expr: ast.expr) -> Any:
        """Natively evaluate an expression subtree, or ``_FAIL``.

        Trusted mode only.  All free names must resolve to concrete
        values (env or module namespace); any abstract value or comm
        reference in the subtree disqualifies it.  Work is charged for
        ``range(...)`` extents appearing in the subtree so natively
        collapsed loops (``sum(... for i in range(lo, hi))``) still
        count toward the per-rank work profile.
        """
        if self.namespace is None:
            return _FAIL
        local: dict[str, Any] = {}
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                name = sub.id
                if name in local or name not in self.env:
                    # module globals and builtins resolve at eval time;
                    # names bound inside the expression (comprehension
                    # targets, lambda params) resolve during evaluation
                    continue
                value = self.env[name]
                if is_abstract(value):
                    return _FAIL
                local[name] = value
        try:
            code = compile(ast.Expression(body=_strip(expr)), "<cost>", "eval")
            glb = dict(self.namespace)
            glb.setdefault("__builtins__", _SAFE_BUILTINS)
            # Fold locals into globals: nested scopes (genexps, lambdas)
            # cannot see eval()'s locals mapping, only its globals.
            glb.update(local)
            value = eval(code, glb)  # noqa: S307 - trusted module only
        except Exception:
            return _FAIL
        self.work += _range_work(expr, local)
        return value

    # ------------------------------------------------------------------ calls
    def _arg(self, call: ast.Call, position: int, keyword: str,
             default: Any = None) -> Any:
        for kw in call.keywords:
            if kw.arg == keyword:
                return self.eval_expr(kw.value)
        if len(call.args) > position:
            return self.eval_expr(call.args[position])
        return default

    def _eval_args(self, call: ast.Call) -> None:
        for arg in call.args:
            self.eval_expr(arg)
        for kw in call.keywords:
            self.eval_expr(kw.value)

    def eval_call(self, call: ast.Call) -> Any:
        func = call.func
        if isinstance(func, ast.Attribute):
            base = self.eval_expr(func.value)
            if isinstance(base, CommVal):
                return self._comm_call(call, func.attr, base)
            if self._passes_comm(call):
                raise Ambiguous("comm-escapes",
                                f"communicator passed to '{func.attr}'",
                                call.lineno)
            if isinstance(base, ArrayVal):
                self._eval_args(call)
                if func.attr in ("copy", "astype", "ravel", "flatten"):
                    return base
                if func.attr in ("sum", "mean", "min", "max", "std", "var",
                                 "item"):
                    return Unknown("float")
                return Unknown()
            if (func.attr in ("concatenate", "hstack")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")):
                return self._concatenate(call)
            if func.attr in _ALLOC_CALLS and self.loop_depth > 0:
                self.sink.alloc(self.rank, call.lineno, func.attr)
            native = self._native(call)
            if native is not _FAIL:
                return native
            self._eval_args(call)
            return Unknown()
        if isinstance(func, ast.Name):
            return self._name_call(call, func.id)
        self.eval_expr(func)
        self._eval_args(call)
        return Unknown()

    def _concatenate(self, call: ast.Call) -> Any:
        native = self._native(call)
        if native is not _FAIL:
            return native
        if not call.args:
            return Unknown()
        parts = self.eval_expr(call.args[0])
        if not isinstance(parts, (list, tuple)):
            return Unknown()
        total = 0
        for part in parts:
            if isinstance(part, ArrayVal):
                total += part.length
            elif hasattr(part, "__len__") and not is_abstract(part):
                total += len(part)
            else:
                return Unknown()
        return ArrayVal(total)

    def _name_call(self, call: ast.Call, name: str) -> Any:
        arg_values = [self.eval_expr(a) for a in call.args]
        kw_values = {kw.arg: self.eval_expr(kw.value)
                     for kw in call.keywords if kw.arg}
        if self._passes_comm(call):
            target = self.defs.get(name)
            if target is None:
                raise Ambiguous("comm-escapes",
                                f"communicator passed to unresolvable call "
                                f"'{name}'", call.lineno)
            return self._inline(call, target, arg_values, kw_values)
        if name in _ALLOC_CALLS and self.loop_depth > 0:
            self.sink.alloc(self.rank, call.lineno, name)
        if name in ("float", "int") and len(arg_values) == 1:
            value = arg_values[0]
            if is_abstract(value):
                return Unknown(name)
            try:
                return (float if name == "float" else int)(value)
            except Exception:
                return Unknown(name)
        if name == "len" and len(arg_values) == 1:
            value = arg_values[0]
            if isinstance(value, ArrayVal):
                return value.length
            if is_abstract(value):
                return Unknown("int")
            try:
                return len(value)
            except Exception:
                return Unknown("int")
        if (name in _SAFE_BUILTINS and not kw_values
                and not any(is_abstract(v) for v in arg_values)):
            try:
                return _SAFE_BUILTINS[name](*arg_values)
            except Exception:
                return Unknown()
        native = self._native(call)
        return Unknown() if native is _FAIL else native

    def _inline(self, call: ast.Call, target: ast.AST, args: list[Any],
                kwargs: dict[str, Any]) -> Any:
        """Evaluate a same-module helper that receives the communicator."""
        if self.depth >= _MAX_INLINE_DEPTH:
            if self._has_comm_ops(target):
                raise Ambiguous("comm-escapes",
                                "communication beyond the helper-inlining "
                                "depth", call.lineno)
            return Unknown()
        params = [a.arg for a in target.args.args]
        bound = dict(zip(params, args))
        bound.update({k: v for k, v in kwargs.items() if k in params})
        saved = self.env, self.defs
        self.env = {}
        self.depth += 1
        try:
            self._call(target, bound)
        finally:
            self.env, self.defs = saved
            self.depth -= 1
        return Unknown()

    # ------------------------------------------------------------- comm calls
    def _peer(self, call: ast.Call, position: int, keyword: str,
              default: Any) -> int | None:
        """A resolved endpoint as a world rank; None for ``PROC_NULL``."""
        value = self._arg(call, position, keyword, default)
        if not isinstance(value, int):
            raise Ambiguous("unresolved-endpoint",
                            f"unresolvable {keyword} at line {call.lineno}",
                            call.lineno)
        return None if value == PROC_NULL else value % self.size

    def _tag(self, call: ast.Call, position: int, keyword: str,
             wildcard: bool) -> object:
        """A message tag; a receive's unknown tag matches any tag."""
        tag = self._arg(call, position, keyword,
                        WILDCARD_TAG if wildcard else 0)
        if wildcard and is_abstract(tag):
            return WILDCARD_TAG
        if not isinstance(tag, (int, str)):
            raise Ambiguous("unresolved-endpoint",
                            f"unresolvable {keyword} at line {call.lineno}",
                            call.lineno)
        return tag

    def _comm_call(self, call: ast.Call, method: str, comm: CommVal) -> Any:
        line = call.lineno
        if method in ("Get_rank", "Get_size"):
            if comm.kind == "opaque":
                return Unknown("int")
            return self.rank if method == "Get_rank" else self.size
        if method == "Shift":
            direction = self._arg(call, 0, "direction", 0)
            disp = self._arg(call, 1, "disp", 1)
            if (comm.dims is None or not isinstance(direction, int)
                    or not isinstance(disp, int)
                    or not 0 <= direction < len(comm.dims)):
                return (Unknown("int"), Unknown("int"))
            return comm.shift(self.rank, direction, disp)
        if not _is_comm_op(method):
            # Get_processor_name, Wtime, Free, ...: communication-free
            self._eval_args(call)
            return Unknown()
        if comm.kind == "opaque":
            raise Ambiguous("comm-escapes",
                            f"communication on {comm.name}, a derived "
                            "communicator the interpreter does not model",
                            line)
        if method in _OPAQUE_COMM_METHODS:
            self._eval_args(call)
            return CommVal("opaque", f"{method}@{line}")
        if method == "Create_cart":
            return self._create_cart(call, comm)
        if method in _SEND_METHODS:
            payload = self.eval_expr(call.args[0]) if call.args else None
            dest = self._peer(call, 1, "dest", None)
            tag = self._tag(call, 2, "tag", wildcard=False)
            if dest is not None:
                self.sink.send(self.rank, line, method, comm, dest, tag, payload)
            return Unknown()
        if method in _RECV_METHODS:
            source = self._peer(call, 1, "source", Unknown())
            tag = self._tag(call, 2, "tag", wildcard=True)
            if source is None:
                return None  # a receive from PROC_NULL completes with None
            self.sink.recv(self.rank, line, method, comm, source, tag)
            return Unknown()
        if method in _SENDRECV_METHODS:
            payload = self.eval_expr(call.args[0]) if call.args else None
            dest = self._peer(call, 1, "dest", None)
            sendtag = self._tag(call, 2, "sendtag", wildcard=False)
            source = self._peer(call, 4, "source", Unknown())
            recvtag = self._tag(call, 5, "recvtag", wildcard=True)
            if dest is not None:
                self.sink.send(self.rank, line, method, comm, dest, sendtag,
                               payload)
            if source is None:
                return None
            self.sink.recv(self.rank, line, method, comm, source, recvtag)
            return Unknown()
        # collectives
        payload = self.eval_expr(call.args[0]) if call.args else None
        root: int | None = None
        if method in _ROOT_POSITION:
            root = self._arg(call, _ROOT_POSITION[method], "root", 0)
            if not isinstance(root, int):
                raise Ambiguous("unresolved-endpoint",
                                f"unresolvable collective root at line {line}",
                                line)
            root %= self.size
        self.sink.collective(self.rank, line, method, comm, root, payload)
        return Unknown()

    def _create_cart(self, call: ast.Call, comm: CommVal) -> CommVal:
        """A grid when ``dims`` and ``periods`` are concrete and the grid
        covers the world; otherwise a communicator the interpreter does
        not model (``dims = Compute_dims(size, 2)`` is unknown here)."""
        line = call.lineno
        dims = self._arg(call, 0, "dims", None)
        periods = self._arg(call, 1, "periods", None)
        self.sink.collective(self.rank, line, "Create_cart", comm, None, None)
        if (isinstance(dims, (tuple, list))
                and all(type(d) is int and d >= 1 for d in dims)
                and math.prod(dims) == self.size):
            if periods is None:
                periods = (False,) * len(dims)
            if (isinstance(periods, (tuple, list))
                    and len(periods) == len(dims)
                    and not any(is_abstract(p) for p in periods)):
                return CommVal("cart", f"cart@{line}", tuple(dims),
                               tuple(bool(p) for p in periods))
        return CommVal("opaque", f"Create_cart@{line}")


def _range_work(expr: ast.expr, local: dict[str, Any]) -> int:
    """Work ticks for ranges a native evaluation collapsed."""
    total = 0
    for sub in ast.walk(expr):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "range"):
            args = []
            for arg in sub.args:
                if isinstance(arg, ast.Constant):
                    args.append(arg.value)
                elif isinstance(arg, ast.Name) and arg.id in local:
                    args.append(local[arg.id])
                else:
                    args = []
                    break
            if args and all(isinstance(a, int) for a in args):
                try:
                    total += len(range(*args))
                except Exception:
                    pass
    return total


def _strip(expr: ast.expr) -> ast.expr:
    """Re-locate an expression so ``compile`` accepts it standalone.

    Nodes lifted out of a module tree keep their original (possibly
    large) line numbers; compiling them in a fresh ``ast.Expression``
    needs a consistent location range, so reset every node to 1:0.
    """
    clone = copy.deepcopy(expr)
    for node in ast.walk(clone):
        if "lineno" in node._attributes:
            node.lineno = 1
            node.col_offset = 0
            node.end_lineno = 1
            node.end_col_offset = 0
    return clone
