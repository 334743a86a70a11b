"""Static write-footprint classification of layer chunk methods.

The coarse-grain runtime's safety contract is purely about *writes*: a
layer's ``forward_chunk``/``backward_chunk`` may touch only the blob
regions owned by its ``[lo, hi)`` iterations, and any cross-sample
coefficient accumulation must go through the privatized ``param_grads``
buffers.  This module checks that contract from the source: it parses a
layer class with :mod:`ast`, extracts every array write its chunk
methods perform (subscript assignment, ``np.copyto``, ufunc ``out=``,
``blaslib.gemm/gemv`` output operands, ``im2col/col2im`` ``out=``,
``np.add.at``, ``.fill``), resolves each write back to a *root*
(bottom/top blob data/diff, ``param_grads``, parameter blob diffs,
``self`` attributes, or freshly allocated locals), and decides whether
the write is *chunk-bounded* — confined to the ``[lo, hi)`` slice or to
an index drawn from ``range(lo, hi)``.

Classification per pass:

* all writes chunk-bounded (or private)        -> ``SAMPLE_DISJOINT``
* accumulation into ``param_grads``            -> ``REDUCTION``
* an unbounded write to a shared array         -> ``UNSAFE``
* a write the analyzer cannot resolve          -> ``UNKNOWN``

The analysis interprets what the runtime executes: ``forward_chunk``,
and ``backward_loops`` with the loop bodies it builds (the base class's
one body calls ``backward_chunk``; an override's lambdas call its own
helpers, each with its own ``lo``/``hi`` loop space).  Every
``self.<helper>(...)`` call is followed into the helper with each
parameter bound to the root and chunk-boundedness of the argument at the
call site — a helper is judged by what it is handed, never by its
parameter names.  The methods reached are
:func:`repro.analysis.sources.chunk_reachable`'s, plus the loop-building
helpers on the way to them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.framework.layer import (
    LayerContract,
    REDUCTION,
    SAMPLE_DISJOINT,
    SEQUENTIAL,
    UNKNOWN,
    UNSAFE,
)
from repro.analysis.report import Finding, LayerReport
from repro.analysis.sources import (
    chunk_reachable,
    method_tree,
    source_location,
)

# Array-allocating numpy constructors whose results are chunk-private.
_FRESH_FUNCS = {
    "empty", "zeros", "ones", "full", "empty_like", "zeros_like",
    "ones_like", "full_like", "arange", "array", "asarray",
    "ascontiguousarray", "where", "clip", "sign", "exp", "log", "log1p",
    "sqrt", "power", "abs", "maximum", "minimum", "tanh", "prod",
}

# Module-level helpers returning thread-private storage: the scratch
# pool hands each worker thread its own buffer, so a pooled array is as
# chunk-private as a fresh np.empty.
_POOL_FUNCS = {"scratch_buffer"}

# Methods that return a *view* of their receiver (alias-preserving).
_VIEW_METHODS = {"reshape", "ravel", "view", "squeeze", "transpose"}
# Methods returning a copy (result is private).
_COPY_METHODS = {"astype", "copy", "flatten", "sum", "max", "min", "mean",
                 "argmax", "argmin", "argpartition", "argsort"}


# ----------------------------------------------------------------------
# symbolic values
# ----------------------------------------------------------------------
# A root is a tuple:
#   ("io", "bottom"|"top", index|"*", "data"|"diff")  blob contents
#   ("blob", "bottom"|"top", index|"*")               a Blob object
#   ("seq", "bottom"|"top"|"param_grads"|"blobs")     the sequence itself
#   ("param_grad", index|"*")                         privatized grad buf
#   ("param", index|"*", "data"|"diff")               parameter blob array
#   ("attr", name)                                    self.<name> array
#   ("self",)                                         the instance
#   ("local",)                                        freshly allocated
#   ("unknown",)                                      unresolvable

@dataclass(frozen=True)
class Val:
    root: Tuple
    bounded: bool = False


_LOCAL = Val(("local",))
_UNKNOWN = Val(("unknown",))


@dataclass
class WriteEvent:
    """One array write found in a chunk method."""

    root: Tuple
    bounded: bool
    lineno: int
    desc: str

    @property
    def kind(self) -> str:
        return self.root[0]


@dataclass
class _Pass:
    """All writes one pass performs, over every method it reaches."""

    writes: List[WriteEvent] = field(default_factory=list)
    #: writes (and helpers) the analyzer could not resolve
    unresolved: int = 0
    #: loop bodies a loop builder handed the runtime
    bodies: int = 0


class _Interpreter(ast.NodeVisitor):
    """Walks one method body collecting write events into ``out``.

    ``env`` maps names to symbolic values; ``bound`` names the chunk
    bounds and the indices drawn from them.  In a loop builder
    (``per_chunk`` false) a lambda or nested def is a loop body
    ``(lo, hi, grads)``; in chunk code it is ordinary code over the same
    names.  ``stack`` is the chain of methods being interpreted, so
    recursion stops.
    """

    def __init__(self, cls, env: Dict[str, Val], bound: Set[str],
                 per_chunk: bool, out: _Pass, stack: Tuple[str, ...]) -> None:
        self.cls = cls
        self.env = env
        self.bound_names = bound
        self.per_chunk = per_chunk
        self.out = out
        self.stack = stack

    def run(self, body: Sequence[ast.AST]) -> None:
        for node in body:
            self.visit(node)

    # -- resolution ----------------------------------------------------
    def resolve(self, node: ast.AST) -> Val:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _UNKNOWN)
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            bounded = self._expr_bounded(node.slice)
            if base.root[0] == "seq":
                index = self._const_index(node.slice)
                seq = base.root[1]
                if seq in ("bottom", "top"):
                    return Val(("blob", seq, index))
                if seq == "param_grads":
                    return Val(("param_grad", index))
                if seq == "blobs":
                    return Val(("blob_param", index))
                return _UNKNOWN
            if base.root[0] in ("io", "param_grad", "param", "attr",
                               "local"):
                return Val(base.root, base.bounded or bounded)
            return base if base.root[0] != "unknown" else _UNKNOWN
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            attr = node.attr
            if base.root[0] == "self":
                if attr == "blobs":
                    return Val(("seq", "blobs"))
                return Val(("attr", attr))
            if base.root[0] == "blob":
                _, io, index = base.root
                if attr in ("data", "flat_data"):
                    return Val(("io", io, index, "data"))
                if attr in ("diff", "flat_diff"):
                    return Val(("io", io, index, "diff"))
                return _UNKNOWN
            if base.root[0] == "blob_param":
                index = base.root[1]
                if attr in ("data", "flat_data"):
                    return Val(("param", index, "data"))
                if attr in ("diff", "flat_diff"):
                    return Val(("param", index, "diff"))
                return _UNKNOWN
            return _UNKNOWN
        if isinstance(node, ast.Call):
            return self._resolve_call(node)
        if isinstance(node, ast.IfExp):
            # `param_grads[1] if self.bias_term else None`: the write
            # target is whichever arm carries a shared root.
            body = self.resolve(node.body)
            if body.root[0] not in ("local", "unknown"):
                return body
            return self.resolve(node.orelse)
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare, ast.Tuple,
                             ast.ListComp, ast.GeneratorExp, ast.Constant)):
            return _LOCAL
        return _UNKNOWN

    def _resolve_call(self, node: ast.Call) -> Val:
        func = node.func
        if isinstance(func, ast.Attribute):
            recv = self.resolve(func.value)
            # numpy / module-level constructors and elementwise helpers
            if isinstance(func.value, ast.Name) and func.value.id in (
                "np", "numpy"
            ):
                if func.attr in _FRESH_FUNCS:
                    return _LOCAL
                return _UNKNOWN
            # self._view(x) and friends: view of the argument
            if recv.root[0] == "self":
                if func.attr == "_view" and node.args:
                    return self.resolve(node.args[0])
                return _UNKNOWN
            if func.attr in _VIEW_METHODS:
                return recv
            if func.attr in _COPY_METHODS:
                return _LOCAL
            return _UNKNOWN
        if isinstance(func, ast.Name) and func.id in _POOL_FUNCS:
            return _LOCAL
        return _UNKNOWN

    # -- chunk-boundedness --------------------------------------------
    def _expr_bounded(self, node: ast.AST) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id in self.bound_names
                   for sub in ast.walk(node))

    def _const_index(self, sl: ast.AST):
        if isinstance(sl, ast.Constant) and isinstance(sl.value, int):
            return sl.value
        if (isinstance(sl, ast.UnaryOp) and isinstance(sl.op, ast.USub)
                and isinstance(sl.operand, ast.Constant)):
            return -sl.operand.value
        return "*"

    # -- write recording ----------------------------------------------
    def _record_write(self, target: ast.AST, lineno: int, desc: str) -> None:
        val = self.resolve(target)
        bounded = val.bounded or (isinstance(target, ast.Subscript)
                                  and self._expr_bounded(target.slice))
        if val.root[0] == "local":
            return  # private scratch: always safe
        if val.root[0] in ("unknown", "self", "seq", "blob", "blob_param"):
            self.out.unresolved += 1
            return
        self.out.writes.append(WriteEvent(val.root, bounded, lineno, desc))

    # -- statement handling -------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        value = self.resolve(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.env[target.id] = value
            elif isinstance(target, ast.Subscript):
                self._record_write(target, node.lineno, "assignment")
            elif isinstance(target, ast.Attribute):
                # `self.x = ...` inside a chunk rebinds layer state:
                # every thread clobbers the same attribute.
                resolved = self.resolve(target)
                if resolved.root[0] == "attr":
                    self.out.writes.append(WriteEvent(
                        resolved.root, False, node.lineno,
                        "attribute rebind"
                    ))
            elif isinstance(target, ast.Tuple):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        self.env[elt.id] = _UNKNOWN
                    elif isinstance(elt, ast.Subscript):
                        self._record_write(elt, node.lineno, "assignment")
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Subscript):
            self._record_write(target, node.lineno, "accumulation")
        elif isinstance(target, ast.Attribute):
            # `self.blobs[0].flat_diff += ...`: accumulation into a
            # shared array reached through an attribute chain.
            self._record_write(target, node.lineno, "accumulation")
        elif isinstance(target, ast.Name):
            val = self.env.get(target.id)
            if val is not None and val.root[0] not in ("local", "unknown"):
                self.out.writes.append(
                    WriteEvent(val.root, val.bounded, node.lineno,
                               "accumulation")
                )
            elif val is None or val.root[0] == "unknown":
                self.out.unresolved += 1
        self.visit(node.value)

    def _element_of(self, seq_expr: ast.AST) -> Val:
        """Symbolic value of one element drawn from an iterated sequence."""
        val = self.resolve(seq_expr)
        if val.root[0] == "seq":
            if val.root[1] in ("bottom", "top"):
                return Val(("blob", val.root[1], "*"))
            if val.root[1] == "blobs":
                return Val(("blob_param", "*"))
            if val.root[1] == "param_grads":
                return Val(("param_grad", "*"))
        if val.root[0] == "local":
            return _LOCAL
        return _UNKNOWN

    def _bind_loop_target(self, target: ast.AST, iter_node: ast.AST) -> None:
        """Bind loop variable(s) to element values of the iterable —
        including ``zip(...)`` and ``enumerate(...)`` destructuring."""
        if isinstance(iter_node, ast.Call) and isinstance(
            iter_node.func, ast.Name
        ):
            fname = iter_node.func.id
            if (fname == "zip" and isinstance(target, ast.Tuple)
                    and len(target.elts) == len(iter_node.args)):
                for elt, arg in zip(target.elts, iter_node.args):
                    if isinstance(elt, ast.Name):
                        self.env[elt.id] = self._element_of(arg)
                    else:
                        self._bind_loop_target(elt, arg)
                return
            if (fname == "enumerate" and isinstance(target, ast.Tuple)
                    and len(target.elts) == 2 and iter_node.args):
                if isinstance(target.elts[0], ast.Name):
                    self.env[target.elts[0].id] = _LOCAL
                self._bind_loop_target(target.elts[1], iter_node.args[0])
                return
        if isinstance(target, ast.Name):
            self.env[target.id] = self._element_of(iter_node)
        elif isinstance(target, ast.Tuple):
            for elt in target.elts:
                if isinstance(elt, ast.Name):
                    self.env[elt.id] = _UNKNOWN

    def visit_For(self, node: ast.For) -> None:
        # range(lo, hi) loop variables index chunk-owned iterations
        if (isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Name)
                and node.iter.func.id == "range"
                and isinstance(node.target, ast.Name)):
            if self._expr_bounded(node.iter):
                self.bound_names.add(node.target.id)
            else:
                self.env.setdefault(node.target.id, _UNKNOWN)
        else:
            self._bind_loop_target(node.target, node.iter)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # np.copyto(dst, src)
            if (isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")):
                if func.attr == "copyto" and node.args:
                    self._record_write(node.args[0], node.lineno,
                                       "np.copyto")
            # np.add.at(arr, idx, vals) / np.subtract.at ...
            if (isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id in ("np", "numpy")
                    and func.attr == "at" and node.args):
                self._record_write(node.args[0], node.lineno, "ufunc.at")
            # blaslib.gemm(...)/gemv(...): last positional arg is output
            if (isinstance(func.value, ast.Name)
                    and func.value.id == "blaslib"):
                if func.attr in ("gemm", "gemv") and node.args:
                    self._record_write(node.args[-1], node.lineno,
                                       f"blaslib.{func.attr} output")
                # im2col/col2im write through out=
            # arr.fill(v)
            if func.attr == "fill":
                self._record_write(func.value, node.lineno, ".fill")
            # self._helper(...): interpret the helper as called here
            if (isinstance(func.value, ast.Name)
                    and self.env.get(func.value.id, _UNKNOWN).root[0]
                    == "self"):
                self._follow(node)
        # any call with an out= keyword writes through it
        for kw in node.keywords:
            if kw.arg == "out":
                self._record_write(kw.value, node.lineno, "out= operand")
        self.generic_visit(node)

    def _follow(self, call: ast.Call) -> None:
        """Interpret ``self.<name>(...)`` with each helper parameter bound
        to the root and chunk-boundedness of its argument here."""
        name = call.func.attr
        if name in self.stack:
            return
        tree = method_tree(self.cls, name)
        if tree is None:  # no source to follow
            self.out.unresolved += 1
            return
        params = [a.arg for a in tree.args.args]
        env: Dict[str, Val] = {params[0]: Val(("self",))} if params else {}
        bound: Set[str] = set()
        args = list(zip(params[1:], call.args)) + [
            (kw.arg, kw.value) for kw in call.keywords if kw.arg in params]
        for param, arg in args:
            val = self.resolve(arg)
            bounded = val.bounded or self._expr_bounded(arg)
            if val.root[0] in ("local", "unknown") and bounded:
                bound.add(param)  # a chunk bound, or an index inside one
            if val.root[0] != "unknown":
                env[param] = Val(val.root, bounded)
        _Interpreter(self.cls, env, bound, self.per_chunk, self.out,
                     self.stack + (name,)).run(tree.body)

    def _loop_body(self, node, args: ast.arguments, body) -> None:
        if self.per_chunk:
            self.generic_visit(node)
            return
        # A loop builder hands the runtime body(lo, hi, grads).
        names = [a.arg for a in args.args]
        env = dict(self.env)
        if len(names) >= 3:
            env[names[2]] = Val(("seq", "param_grads"))
        self.out.bodies += 1
        _Interpreter(self.cls, env, self.bound_names | set(names[:2]), True,
                     self.out, self.stack).run(body)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._loop_body(node, node.args, [node.body])

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._loop_body(node, node.args, node.body)


#: Symbolic roles of the pass roots' parameters, positionally.
_FORWARD_ROLES = (("self",), ("seq", "bottom"), ("seq", "top"), "lo", "hi")
_BACKWARD_ROLES = (("self",), ("seq", "top"), None, ("seq", "bottom"))


def _interpret(cls, name: str, roles: Tuple, per_chunk: bool) -> _Pass:
    """Interpret the method ``cls`` runs as ``name``, its parameters
    bound to ``roles``, and everything it calls."""
    out = _Pass()
    tree = method_tree(cls, name)
    if tree is None:
        return out
    env: Dict[str, Val] = {}
    bound: Set[str] = set()
    for param, role in zip((a.arg for a in tree.args.args), roles):
        if role in ("lo", "hi"):
            bound.add(param)
        elif role is not None:
            env[param] = Val(role)
    _Interpreter(cls, env, bound, per_chunk, out, (name,)).run(tree.body)
    if not per_chunk and not out.bodies:
        out.unresolved += 1  # a loop builder whose bodies were not found
    return out


def _classify(p: _Pass) -> Tuple[str, Set[int], List[WriteEvent]]:
    """Classify one pass's writes.

    Returns ``(classification, reduction_indices, offending_writes)``.
    """
    reduction_indices: Set[int] = set()
    offending: List[WriteEvent] = []
    has_reduction = False
    for w in p.writes:
        if w.kind == "param_grad":
            has_reduction = True
            if isinstance(w.root[1], int):
                reduction_indices.add(w.root[1])
            continue
        if w.kind == "attr":
            continue  # judged against the scratch declaration separately
        if not w.bounded:
            offending.append(w)
    if offending:
        return UNSAFE, reduction_indices, offending
    if p.unresolved:
        return UNKNOWN, reduction_indices, []
    if has_reduction:
        return REDUCTION, reduction_indices, []
    return SAMPLE_DISJOINT, reduction_indices, []


def analyze_layer_class(cls) -> LayerReport:
    """Run the static footprint pass over one layer class."""
    declared: Optional[LayerContract] = getattr(cls, "contract", None)
    contract = declared or LayerContract()
    findings: List[Finding] = []

    def found(rule: str, message: str, location: str = "") -> None:
        findings.append(Finding(rule=rule, layer=cls.__name__,
                                message=message, location=location))

    reachable = chunk_reachable(cls)
    own_chunk_code = [m for m in cls.__dict__
                      if m in reachable or m == "backward_loops"]
    if own_chunk_code and "contract" not in cls.__dict__:
        found("FP001",
              f"defines its own chunk method(s) ({', '.join(own_chunk_code)})"
              " but declares no contract; an inherited contract cannot "
              "vouch for overridden code", location=source_location(cls))

    forward = _interpret(cls, "forward_chunk", _FORWARD_ROLES, True)
    backward = _interpret(cls, "backward_loops", _BACKWARD_ROLES, False)
    inferred_forward, _, fwd_offending = _classify(forward)
    inferred_backward, reduction_indices, bwd_offending = _classify(backward)
    report = LayerReport(
        cls_name=cls.__name__,
        declared=declared,
        inferred_forward=inferred_forward,
        inferred_backward=inferred_backward,
        inferred_reduction_params=tuple(sorted(reduction_indices)),
        findings=findings,
    )

    # FP005: whole-buffer writes in a layer not declared sequential
    if contract.forward != SEQUENTIAL:
        if inferred_forward == UNSAFE:
            w = fwd_offending[0]
            found("FP005",
                  f"forward pass writes {_root_desc(w.root)} outside the "
                  f"chunk bounds ({w.desc}, line {w.lineno}); whole-buffer "
                  "writes require forward=SEQUENTIAL")
        elif inferred_forward == UNKNOWN:
            found("FP006", "forward pass contains a write the analyzer "
                           "cannot resolve; verify the footprint manually")

    # FP002/FP003: backward classification against the declaration.  An
    # unbounded direct write to a parameter blob diff is a racy reduction
    # bypass, not merely "unsafe".
    direct_param = [w for w in bwd_offending if w.kind == "param"]
    undeclared = reduction_indices - set(contract.reduction_params)
    if contract.backward == SEQUENTIAL:
        pass
    elif direct_param:
        w = direct_param[0]
        found("FP003",
              f"backward pass writes parameter blob diff "
              f"{_root_desc(w.root)} directly without chunk bounds (line "
              f"{w.lineno}); cross-sample coefficient gradients must "
              "accumulate into the privatized param_grads buffers")
    elif inferred_backward == UNSAFE:
        w = bwd_offending[0]
        found("FP002",
              f"backward pass writes {_root_desc(w.root)} outside the chunk "
              f"bounds ({w.desc}, line {w.lineno}) but declares "
              f"backward={contract.backward!r}")
    elif inferred_backward == REDUCTION and contract.backward != REDUCTION:
        found("FP002",
              "backward pass accumulates into param_grads (a privatized "
              f"reduction) but declares backward={contract.backward!r}; "
              "declare backward=REDUCTION with its reduction_params")
    elif inferred_backward == REDUCTION and undeclared:
        found("FP003",
              f"param_grads indices {sorted(undeclared)} are accumulated "
              "but missing from the declared reduction_params")
    elif inferred_backward == UNKNOWN:
        found("FP006", "backward pass contains a write the analyzer cannot "
                       "resolve; verify the footprint manually")

    # FP004: hidden layer state written in the coalesced loop
    if (contract.forward, contract.backward) != (SEQUENTIAL, SEQUENTIAL):
        for w in forward.writes + backward.writes:
            if w.kind != "attr":
                continue
            name = w.root[1]
            if name not in contract.scratch:
                found("FP004",
                      f"chunk code writes undeclared layer state self.{name} "
                      f"(line {w.lineno}); declare it in the contract's "
                      "scratch tuple (and ensure the writes are "
                      "chunk-disjoint) or move it out of the parallel loop")
            elif not w.bounded:
                found("FP004",
                      f"declared scratch self.{name} is written outside the "
                      f"chunk bounds (line {w.lineno}); concurrent chunks "
                      "would overlap")
    return report


def _root_desc(root: Tuple) -> str:
    kind = root[0]
    if kind == "io":
        return f"{root[1]}[{root[2]}].{root[3]}"
    if kind == "param":
        return f"self.blobs[{root[1]}].{root[2]}"
    if kind == "param_grad":
        return f"param_grads[{root[1]}]"
    if kind == "attr":
        return f"self.{root[1]}"
    return str(root)


def analyze_classes(classes: Sequence[type]) -> Dict[str, LayerReport]:
    return {cls.__name__: analyze_layer_class(cls) for cls in classes}
