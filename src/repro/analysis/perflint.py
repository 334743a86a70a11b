"""Static performance-bug lint: the PE0xx half of the performance certifier.

The planner (PL) and the graph compiler (FU) buy speedups; this pass
finds the source-level anti-patterns that silently eat them.  Four
hazards are flagged in **chunk-reachable** code — the methods the thread
team executes per chunk, per iteration, where a stray allocation or a
dtype upcast multiplies by ``space x iterations x threads``:

* **PE001 — dtype-upcast creep**: ``float64`` intermediates
  (``astype(np.float64)``, ``dtype=np.float64``, ``np.float64(...)``)
  double the memory traffic of a pipeline whose cost model and arena are
  sized for ``DTYPE`` (float32).  Deliberate double accumulation (fixed
  summation order backing the bitwise contract) is declared via
  :class:`~repro.framework.layer.PerfDecl`.
* **PE002 — hot-loop allocation**: array-constructing calls
  (``np.zeros``/``np.empty``/``np.stack``/...) inside chunk code are
  allocator churn the per-thread scratch pool
  (:func:`repro.compiler.scratch.scratch_buffer`) exists to eliminate.
* **PE003 — implicit contiguity copy**: ``np.ascontiguousarray``,
  ``.flatten()``, and ``.ravel()`` on a sliced receiver materialize a
  copy per call; deliberate ones (BLAS needs contiguous operands) are
  declared.
* **PE004 — iteration-space-sized Python loop**: a ``range()`` loop
  whose bounds are tainted by the chunk bounds ``lo``/``hi`` runs the
  interpreter once per coalesced iteration.  Sometimes that *is* the
  design (one BLAS call per civ, priced as ``segments`` dispatch by the
  cost model) — then it is declared, with the why in the note.

Chunk-reachable means: the chunk protocol methods themselves
(``forward_chunk``/``backward_chunk`` and ``_forward*``/``_backward*``
loop bodies) plus every own method transitively reachable from them
through ``self.<method>()`` calls (LRN's ``_window_sum`` helper).  The
sequential prologue/epilogue (``reshape``, ``forward_finalize``,
``backward_loops``) runs once per pass, not per chunk, and is exempt.

Declarations are verified, not trusted: **PE005** flags drift — an
allowance naming a method the class does not define, a method that is
not chunk-reachable, or an allowance whose construct no longer exists in
the code.  Inherited declarations never vouch for a subclass's own
methods (mirrors FP001/DC006).

A small source scan also covers ``repro.core`` and ``repro.compiler``:
the runtime and compiler hot paths must stay float64-free (PE001) —
there is no declaration mechanism there because there is no legitimate
use.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import ERROR, WARNING, Finding
from repro.analysis.sources import (
    _dotted,
    _is_chunk_method,
    _own_method_trees,
    _terminal_name,
    package_roots,
    walk_sources,
)

#: numpy array-constructing calls that allocate a fresh buffer per call.
_ALLOC_CONSTRUCTORS = {
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "arange", "linspace", "concatenate", "stack", "vstack", "hstack",
    "column_stack", "tile", "meshgrid",
}

#: PerfDecl category -> (rule, severity) of the finding it silences.
_CATEGORY_RULES = {
    "float64": ("PE001", ERROR),
    "allocs": ("PE002", ERROR),
    "copies": ("PE003", WARNING),
    "loops": ("PE004", WARNING),
}


def _is_float64_ref(node: ast.AST) -> bool:
    """Is this expression a reference to the float64 dtype?"""
    chain = _dotted(node)
    if chain is not None:
        return chain[-1] == "float64"
    return isinstance(node, ast.Name) and node.id == "float64"


def _float64_sites(tree: ast.AST) -> List[Tuple[int, str]]:
    """(lineno, description) of every float64 construct under ``tree``."""
    sites: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name == "astype" and node.args and _is_float64_ref(node.args[0]):
            sites.append((node.lineno, "astype(np.float64)"))
        elif name == "float64":
            sites.append((node.lineno, "np.float64(...)"))
        else:
            for kw in node.keywords:
                if kw.arg == "dtype" and _is_float64_ref(kw.value):
                    sites.append((node.lineno, f"{name}(dtype=np.float64)"))
    return sites


def _alloc_sites(tree: ast.AST) -> List[Tuple[int, str]]:
    """(lineno, constructor) of every fresh-array allocation."""
    sites: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _dotted(node.func)
        if (chain is not None and len(chain) >= 2
                and chain[0] in ("np", "numpy")
                and chain[-1] in _ALLOC_CONSTRUCTORS):
            sites.append((node.lineno, f"np.{chain[-1]}"))
    return sites


def _copy_sites(tree: ast.AST) -> List[Tuple[int, str]]:
    """(lineno, description) of implicit/explicit contiguity copies."""
    sites: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name == "ascontiguousarray":
            sites.append((node.lineno, "np.ascontiguousarray"))
        elif isinstance(node.func, ast.Attribute):
            if name == "flatten":
                sites.append((node.lineno, ".flatten() (always copies)"))
            elif name == "ravel" and isinstance(node.func.value,
                                                ast.Subscript):
                sites.append((node.lineno,
                              ".ravel() on a sliced (strided) receiver"))
    return sites


def _mentions_tainted(node: ast.AST, tainted: Set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
    return False


def _loop_sites(tree: ast.FunctionDef) -> List[Tuple[int, str]]:
    """(lineno, description) of iteration-space-sized Python loops.

    Taint analysis: the chunk bounds ``lo``/``hi`` seed the tainted set;
    any name assigned from an expression mentioning a tainted name
    becomes tainted (two passes reach a fixpoint for straight-line
    code).  A ``for`` over ``range(...)`` whose arguments mention a
    tainted name iterates O(chunk size) times — geometry-sized loops
    (``range(self.kernel_h)``) stay clean.
    """
    tainted: Set[str] = set()
    arg_names = {a.arg for a in tree.args.args}
    for seed in ("lo", "hi"):
        if seed in arg_names:
            tainted.add(seed)
    if not tainted:
        return []
    for _ in range(2):
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                if _mentions_tainted(node.value, tainted):
                    for target in node.targets:
                        for sub in ast.walk(target):
                            if isinstance(sub, ast.Name):
                                tainted.add(sub.id)
            elif isinstance(node, ast.AugAssign):
                if (_mentions_tainted(node.value, tainted)
                        and isinstance(node.target, ast.Name)):
                    tainted.add(node.target.id)
    sites: List[Tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.For):
            continue
        call = node.iter
        if (isinstance(call, ast.Call)
                and _terminal_name(call.func) == "range"
                and any(_mentions_tainted(a, tainted) for a in call.args)):
            args = ", ".join(ast.unparse(a) for a in call.args)
            sites.append((node.lineno, f"for ... in range({args})"))
    return sites


_SITE_SCANNERS = {
    "float64": _float64_sites,
    "allocs": _alloc_sites,
    "copies": _copy_sites,
    "loops": _loop_sites,
}

_HAZARD_HINTS = {
    "float64": ("float64 intermediate doubles memory traffic vs DTYPE; "
                "declare deliberate double accumulation via PerfDecl"),
    "allocs": ("fresh allocation per chunk call is allocator churn; "
               "route through repro.compiler.scratch.scratch_buffer or "
               "declare why pooling does not apply"),
    "copies": ("materializes a copy per call; declare it if a BLAS call "
               "requires the contiguous operand"),
    "loops": ("Python-level loop over an iteration-space-sized range; "
              "declare it if per-civ BLAS dispatch is the design"),
}


# ---------------------------------------------------------------------------
# chunk reachability
# ---------------------------------------------------------------------------
def _self_calls(tree: ast.FunctionDef) -> Set[str]:
    """Names of own methods invoked as ``self.<name>(...)``."""
    called: Set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            called.add(node.func.attr)
    return called


def chunk_reachable_methods(trees: Dict[str, ast.FunctionDef]) -> Set[str]:
    """Chunk roots plus own methods transitively self-called from them."""
    reachable = {name for name in trees if _is_chunk_method(name)}
    frontier = list(reachable)
    while frontier:
        method = frontier.pop()
        for callee in _self_calls(trees[method]):
            if callee in trees and callee not in reachable:
                reachable.add(callee)
                frontier.append(callee)
    return reachable


# ---------------------------------------------------------------------------
# layer-class lint (PE001-PE005)
# ---------------------------------------------------------------------------
def analyze_layer_perf(cls) -> List[Finding]:
    """PE001-PE005 over one layer class."""
    findings: List[Finding] = []
    trees = _own_method_trees(cls)
    cls_name = cls.__name__
    reachable = chunk_reachable_methods(trees)
    decl = cls.__dict__.get("perf_decl")

    used: Dict[str, Set[str]] = {cat: set() for cat in _SITE_SCANNERS}
    for method in sorted(reachable):
        tree = trees[method]
        for cat, scanner in _SITE_SCANNERS.items():
            sites = scanner(tree)
            if not sites:
                continue
            allowed = getattr(decl, cat, ()) if decl is not None else ()
            if method in allowed:
                used[cat].add(method)
                continue
            rule, severity = _CATEGORY_RULES[cat]
            lineno, what = sites[0]
            extra = (f" (+{len(sites) - 1} more site(s))"
                     if len(sites) > 1 else "")
            findings.append(Finding(
                rule=rule, severity=severity, layer=cls_name,
                message=(
                    f"{what} in chunk-reachable method {method} (line "
                    f"{lineno}){extra}: {_HAZARD_HINTS[cat]}"
                ),
            ))

    if decl is not None:
        for cat in _SITE_SCANNERS:
            for method in getattr(decl, cat):
                if method not in trees:
                    findings.append(Finding(
                        rule="PE005", severity=ERROR, layer=cls_name,
                        message=(
                            f"perf_decl {cat} names {method!r} but the "
                            "class defines no such method of its own; "
                            "declarations never vouch for inherited code"
                        ),
                    ))
                elif method not in reachable:
                    findings.append(Finding(
                        rule="PE005", severity=ERROR, layer=cls_name,
                        message=(
                            f"perf_decl {cat} names {method!r}, which is "
                            "not chunk-reachable; the allowance is dead "
                            "weight — drop it"
                        ),
                    ))
                elif method not in used[cat]:
                    findings.append(Finding(
                        rule="PE005", severity=ERROR, layer=cls_name,
                        message=(
                            f"perf_decl grants {cat} in {method!r} but the "
                            "method no longer contains that construct; "
                            "stale allowance — drop it"
                        ),
                    ))
    return findings


def analyze_layer_classes_perf(
    classes: Optional[Sequence[type]] = None,
) -> List[Finding]:
    """PE001-PE005 over every registered (or given) layer class."""
    if classes is None:
        from repro.analysis.footprint import builtin_layer_classes

        classes = list(builtin_layer_classes().values())
    findings: List[Finding] = []
    seen = set()
    for cls in classes:
        if cls in seen:
            continue
        seen.add(cls)
        findings.extend(analyze_layer_perf(cls))
    return findings


# ---------------------------------------------------------------------------
# runtime/compiler source scan (PE001 only — no declaration mechanism)
# ---------------------------------------------------------------------------
#: Packages whose hot paths must stay float64-free.
SCAN_PACKAGES = ("core", "compiler")


def lint_sources_perf(roots: Optional[Iterable[Path]] = None) -> List[Finding]:
    """PE001 over every ``.py`` file under ``roots``."""
    findings: List[Finding] = []
    if roots is None:
        roots = package_roots(*SCAN_PACKAGES)
    for path, tree in walk_sources(roots, "PE001", findings):
        for lineno, what in _float64_sites(tree):
            findings.append(Finding(
                rule="PE001", severity=ERROR, layer=f"<{path.stem}>",
                message=(
                    f"{what}: runtime/compiler code computes in DTYPE "
                    "(float32); float64 here doubles the bandwidth the "
                    "cost model and arena are sized for"
                ),
                location=f"{path}:{lineno}",
            ))
    return findings


def lint_perf() -> List[Finding]:
    """The full static PE0xx pass: layer-class lint + source scan."""
    return analyze_layer_classes_perf() + lint_sources_perf()
