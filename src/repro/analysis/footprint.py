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

Classes overriding :meth:`backward_loops` are analyzed through the
``self._backward_*`` helper methods their loop bodies call (each helper
has its own ``lo``/``hi`` loop space) and, transitively, the own methods
those call (a fused conv reaches conv's chunk helpers through the
``_conv_loops`` helper both share), mirroring what the runtime actually
executes.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.framework.layer import (
    DECLARABLE_FOOTPRINTS,
    FootprintDecl,
    REDUCTION,
    SAMPLE_DISJOINT,
    SEQUENTIAL,
    UNKNOWN,
    UNSAFE,
)
from repro.analysis.report import ERROR, WARNING, Finding, LayerReport

#: Methods that constitute "defining your own chunk code": a class with
#: any of these in its own ``__dict__`` must also declare its footprint.
CHUNK_METHODS = ("forward_chunk", "backward_chunk", "backward_loops")

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
class MethodWrites:
    """All writes of one analyzed method."""

    name: str
    writes: List[WriteEvent] = field(default_factory=list)
    unresolved: List[WriteEvent] = field(default_factory=list)


class _ChunkVisitor(ast.NodeVisitor):
    """Walks one chunk-method body collecting write events.

    ``roles`` maps parameter names to symbolic roots (e.g. the second
    positional arg of ``forward_chunk`` is the bottom sequence); ``lo``
    and ``hi`` name the chunk bounds.
    """

    def __init__(self, func: ast.FunctionDef, roles: Dict[str, Val],
                 lo: Optional[str], hi: Optional[str]) -> None:
        self.env: Dict[str, Val] = dict(roles)
        self.lo = lo
        self.hi = hi
        self.bound_names: Set[str] = set()
        self.result = MethodWrites(func.name)
        self.self_calls: List[str] = []

    # -- resolution ----------------------------------------------------
    def resolve(self, node: ast.AST) -> Val:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _UNKNOWN)
        if isinstance(node, ast.Subscript):
            base = self.resolve(node.value)
            bounded = self._slice_bounded(node.slice)
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
        if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.Compare,
                             ast.ListComp, ast.GeneratorExp)):
            return _LOCAL
        if isinstance(node, ast.Constant):
            return _LOCAL
        if isinstance(node, ast.Tuple):
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
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in (self.lo, self.hi):
                    return True
                if sub.id in self.bound_names:
                    return True
        return False

    def _slice_bounded(self, sl: ast.AST) -> bool:
        return self._expr_bounded(sl)

    def _const_index(self, sl: ast.AST):
        if isinstance(sl, ast.Constant) and isinstance(sl.value, int):
            return sl.value
        if (isinstance(sl, ast.UnaryOp) and isinstance(sl.op, ast.USub)
                and isinstance(sl.operand, ast.Constant)):
            return -sl.operand.value
        return "*"

    # -- write recording ----------------------------------------------
    def _record_write(self, target: ast.AST, lineno: int,
                      desc: str, extra_bounded: bool = False) -> None:
        val = self.resolve(target)
        bounded = val.bounded or extra_bounded
        if isinstance(target, ast.Subscript):
            bounded = bounded or self._slice_bounded(target.slice)
        if val.root[0] == "local":
            return  # private scratch: always safe
        if val.root[0] in ("unknown", "self", "seq", "blob", "blob_param"):
            self.result.unresolved.append(
                WriteEvent(("unknown",), bounded, lineno, desc)
            )
            return
        self.result.writes.append(WriteEvent(val.root, bounded, lineno, desc))

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
                    self.result.writes.append(WriteEvent(
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
                self.result.writes.append(
                    WriteEvent(val.root, val.bounded, node.lineno,
                               "accumulation")
                )
            elif val is None or val.root[0] == "unknown":
                self.result.unresolved.append(
                    WriteEvent(("unknown",), False, node.lineno,
                               "accumulation")
                )
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
            # self._helper(...) calls (followed for backward_loops)
            if (isinstance(func.value, ast.Name)
                    and self.env.get(func.value.id, _UNKNOWN).root[0]
                    == "self"):
                self.self_calls.append(func.attr)
        # any call with an out= keyword writes through it
        for kw in node.keywords:
            if kw.arg == "out":
                self._record_write(kw.value, node.lineno, "out= operand")
        self.generic_visit(node)


def _method_roles(kind: str, func: ast.FunctionDef) -> Tuple[
    Dict[str, Val], Optional[str], Optional[str]
]:
    """Map a chunk method's parameters to symbolic roots."""
    params = [a.arg for a in func.args.args]
    roles: Dict[str, Val] = {}
    lo = hi = None
    if params:
        roles[params[0]] = Val(("self",))
    if kind == "forward_chunk" and len(params) >= 5:
        roles[params[1]] = Val(("seq", "bottom"))
        roles[params[2]] = Val(("seq", "top"))
        lo, hi = params[3], params[4]
    elif kind == "backward_chunk" and len(params) >= 7:
        roles[params[1]] = Val(("seq", "top"))
        roles[params[3]] = Val(("seq", "bottom"))
        lo, hi = params[4], params[5]
        roles[params[6]] = Val(("seq", "param_grads"))
    else:  # helper: go by name
        for name in params[1:]:
            if name == "bottom":
                roles[name] = Val(("seq", "bottom"))
            elif name == "top":
                roles[name] = Val(("seq", "top"))
            elif name == "param_grads" or name == "grads":
                roles[name] = Val(("seq", "param_grads"))
            elif name == "lo":
                lo = name
            elif name == "hi":
                hi = name
    return roles, lo, hi


def _parse_function(func) -> Optional[ast.FunctionDef]:
    try:
        src = textwrap.dedent(inspect.getsource(func))
        _, first_line = inspect.getsourcelines(func)
    except (OSError, TypeError):
        return None
    try:
        tree = ast.parse(src)
    except SyntaxError:
        return None
    # report file line numbers, not method-relative ones
    ast.increment_lineno(tree, first_line - 1)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            return node
    return None


def analyze_method(func, kind: str) -> Optional[Tuple[MethodWrites,
                                                      List[str]]]:
    """Extract write events from one chunk method (or helper).

    Returns ``(writes, self_call_names)`` or ``None`` when the source is
    unavailable (builtins, C extensions).
    """
    node = _parse_function(func)
    if node is None:
        return None
    roles, lo, hi = _method_roles(kind, node)
    visitor = _ChunkVisitor(node, roles, lo, hi)
    for stmt in node.body:
        visitor.visit(stmt)
    return visitor.result, visitor.self_calls


def _classify(writes: Sequence[WriteEvent],
              unresolved: Sequence[WriteEvent]) -> Tuple[str, Set[int],
                                                         List[WriteEvent]]:
    """Classify one pass's writes.

    Returns ``(classification, reduction_indices, offending_writes)``.
    """
    reduction_indices: Set[int] = set()
    offending: List[WriteEvent] = []
    has_reduction = False
    for w in writes:
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
    if unresolved:
        return UNKNOWN, reduction_indices, list(unresolved)
    if has_reduction:
        return REDUCTION, reduction_indices, []
    return SAMPLE_DISJOINT, reduction_indices, []


def _location(cls, func) -> str:
    try:
        path = inspect.getsourcefile(func) or "?"
        _, line = inspect.getsourcelines(func)
        return f"{path}:{line}"
    except (OSError, TypeError):
        return cls.__name__


def analyze_layer_class(cls) -> LayerReport:
    """Run the static footprint pass over one layer class."""
    declared: Optional[FootprintDecl] = getattr(cls, "write_footprint", None)
    own_chunk_code = any(m in cls.__dict__ for m in CHUNK_METHODS)
    findings: List[Finding] = []

    if own_chunk_code and "write_footprint" not in cls.__dict__:
        findings.append(Finding(
            rule="FP001", severity=ERROR, layer=cls.__name__,
            message=(
                "defines its own chunk method(s) "
                f"({', '.join(m for m in CHUNK_METHODS if m in cls.__dict__)}) "
                "but does not declare write_footprint; an inherited "
                "declaration cannot vouch for overridden code"
            ),
            location=_location(cls, cls),
        ))

    # ---- forward ----
    fwd_writes: List[WriteEvent] = []
    fwd_unresolved: List[WriteEvent] = []
    attr_writes: List[WriteEvent] = []
    fwd_func = getattr(cls, "forward_chunk", None)
    analyzed = analyze_method(fwd_func, "forward_chunk") if fwd_func else None
    if analyzed is not None:
        mw, _ = analyzed
        fwd_writes = [w for w in mw.writes if w.kind != "attr"]
        attr_writes += [w for w in mw.writes if w.kind == "attr"]
        fwd_unresolved = mw.unresolved
    inferred_forward, _, fwd_offending = _classify(
        fwd_writes, fwd_unresolved
    )

    # ---- backward ----
    bwd_writes: List[WriteEvent] = []
    bwd_unresolved: List[WriteEvent] = []
    if "backward_loops" in cls.__dict__:
        # Analyze the helper methods the loop bodies dispatch to.
        analyzed = analyze_method(cls.__dict__["backward_loops"],
                                  "backward_loops")
        helper_names: List[str] = []
        if analyzed is not None:
            _, helper_names = analyzed
        if not helper_names:
            bwd_unresolved.append(WriteEvent(
                ("unknown",), False, 0,
                "backward_loops body could not be followed"
            ))
        followed: Set[str] = set()
        while helper_names:
            name = helper_names.pop(0)
            if name in followed:
                continue
            followed.add(name)
            helper = getattr(cls, name, None)
            sub = analyze_method(helper, "helper") if helper else None
            if sub is None:
                bwd_unresolved.append(WriteEvent(
                    ("unknown",), False, 0, f"helper {name} unavailable"
                ))
                continue
            mw, calls = sub
            bwd_writes += [w for w in mw.writes if w.kind != "attr"]
            attr_writes += [w for w in mw.writes if w.kind == "attr"]
            bwd_unresolved += mw.unresolved
            helper_names += calls
    else:
        bwd_func = getattr(cls, "backward_chunk", None)
        analyzed = (analyze_method(bwd_func, "backward_chunk")
                    if bwd_func else None)
        if analyzed is not None:
            mw, _ = analyzed
            bwd_writes = [w for w in mw.writes if w.kind != "attr"]
            attr_writes += [w for w in mw.writes if w.kind == "attr"]
            bwd_unresolved = mw.unresolved
    inferred_backward, reduction_indices, bwd_offending = _classify(
        bwd_writes, bwd_unresolved
    )
    # An unbounded direct write to a parameter blob diff is a racy
    # reduction bypass, not merely "unsafe".
    direct_param = [w for w in bwd_offending if w.kind == "param"]

    report = LayerReport(
        cls_name=cls.__name__,
        declared=declared,
        inferred_forward=inferred_forward,
        inferred_backward=inferred_backward,
        inferred_reduction_params=tuple(sorted(reduction_indices)),
        findings=findings,
    )

    decl_forward = declared.forward if declared else SAMPLE_DISJOINT
    decl_backward = declared.backward if declared else SAMPLE_DISJOINT
    scratch = set(declared.scratch) if declared else set()

    # FP005: whole-buffer writes in a layer not declared sequential
    if inferred_forward == UNSAFE and decl_forward != SEQUENTIAL:
        w = fwd_offending[0]
        findings.append(Finding(
            rule="FP005", severity=ERROR, layer=cls.__name__,
            message=(
                f"forward_chunk writes {_root_desc(w.root)} outside the "
                f"chunk bounds ({w.desc}, line {w.lineno}); whole-buffer "
                "writes require forward=SEQUENTIAL"
            ),
        ))
    elif inferred_forward == UNKNOWN and decl_forward != SEQUENTIAL:
        findings.append(Finding(
            rule="FP006", severity=WARNING, layer=cls.__name__,
            message=(
                "forward_chunk contains a write the analyzer cannot "
                "resolve; verify the footprint manually"
            ),
        ))

    # FP002/FP003: backward classification against the declaration
    if decl_backward == SEQUENTIAL:
        pass
    elif direct_param:
        w = direct_param[0]
        findings.append(Finding(
            rule="FP003", severity=ERROR, layer=cls.__name__,
            message=(
                f"backward pass writes parameter blob diff "
                f"{_root_desc(w.root)} directly without chunk bounds "
                f"(line {w.lineno}); cross-sample coefficient gradients "
                "must accumulate into the privatized param_grads buffers"
            ),
        ))
    elif inferred_backward == UNSAFE:
        w = bwd_offending[0]
        findings.append(Finding(
            rule="FP002", severity=ERROR, layer=cls.__name__,
            message=(
                f"backward pass writes {_root_desc(w.root)} outside the "
                f"chunk bounds ({w.desc}, line {w.lineno}) but declares "
                f"backward={decl_backward!r}"
            ),
        ))
    elif inferred_backward == REDUCTION:
        if decl_backward != REDUCTION:
            findings.append(Finding(
                rule="FP002", severity=ERROR, layer=cls.__name__,
                message=(
                    "backward pass accumulates into param_grads (a "
                    "privatized reduction) but declares "
                    f"backward={decl_backward!r}; declare "
                    "backward=REDUCTION with its reduction_params"
                ),
            ))
        else:
            undeclared = reduction_indices - set(
                declared.reduction_params if declared else ()
            )
            if undeclared:
                findings.append(Finding(
                    rule="FP003", severity=ERROR, layer=cls.__name__,
                    message=(
                        f"param_grads indices {sorted(undeclared)} are "
                        "accumulated but missing from the declared "
                        "reduction_params"
                    ),
                ))
    elif inferred_backward == UNKNOWN:
        findings.append(Finding(
            rule="FP006", severity=WARNING, layer=cls.__name__,
            message=(
                "backward pass contains a write the analyzer cannot "
                "resolve; verify the footprint manually"
            ),
        ))

    # FP004: hidden layer state written in the coalesced loop
    if decl_forward != SEQUENTIAL or decl_backward != SEQUENTIAL:
        for w in attr_writes:
            name = w.root[1]
            if name not in scratch:
                findings.append(Finding(
                    rule="FP004", severity=ERROR, layer=cls.__name__,
                    message=(
                        f"chunk code writes undeclared layer state "
                        f"self.{name} (line {w.lineno}); declare it in the "
                        "footprint's scratch tuple (and ensure the writes "
                        "are chunk-disjoint) or move it out of the "
                        "parallel loop"
                    ),
                ))
            elif not w.bounded:
                findings.append(Finding(
                    rule="FP004", severity=ERROR, layer=cls.__name__,
                    message=(
                        f"declared scratch self.{name} is written outside "
                        f"the chunk bounds (line {w.lineno}); concurrent "
                        "chunks would overlap"
                    ),
                ))
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


def builtin_layer_classes() -> Dict[str, type]:
    """All registered layer classes (importing the built-in package)."""
    import repro.framework.layers  # noqa: F401  (fills the registry)
    from repro.framework.layer import _REGISTRY

    classes: Dict[str, type] = {}
    for cls in _REGISTRY.values():
        classes[cls.__name__] = cls
    return classes


def analyze_classes(classes: Sequence[type]) -> Dict[str, LayerReport]:
    reports: Dict[str, LayerReport] = {}
    for cls in classes:
        reports[cls.__name__] = analyze_layer_class(cls)
    return reports
