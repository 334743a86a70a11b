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
  summation order backing the bitwise contract) is declared as an
  allowance of the :class:`~repro.framework.layer.LayerContract`.
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

Chunk-reachable means :func:`repro.analysis.sources.chunk_reachable`:
``forward_chunk``, ``backward_chunk``, the loop bodies
``backward_loops`` builds, and every method they call through
``self.<method>()`` (LRN's ``_window_sum`` helper).  The sequential
prologue/epilogue (``reshape``, ``forward_finalize``, ``backward_loops``)
runs once per pass, not per chunk, and is exempt.

Allowances are verified, not trusted: **PE005** flags drift — an
allowance naming a method the class does not define, a method that is
not chunk-reachable, or an allowance whose construct no longer exists in
the code.  Inherited contracts never vouch for a subclass's own methods
(mirrors FP001/DC006).

A small source scan also covers ``repro.core`` and ``repro.compiler``:
the runtime and compiler hot paths must stay float64-free (PE001) —
there is no declaration mechanism there because there is no legitimate
use.  Both halves are rules on :func:`repro.analysis.sources.visit`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import Finding
from repro.analysis.sources import (
    Rule,
    _dotted,
    _terminal_name,
    builtin_layer_classes,
    chunk_reachable,
    own_contract,
    own_methods,
    package_roots,
    visit,
)
from repro.framework.layer import PERF_CATEGORIES

#: numpy array-constructing calls that allocate a fresh buffer per call.
_ALLOC_CONSTRUCTORS = {
    "zeros", "empty", "ones", "full",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "arange", "linspace", "concatenate", "stack", "vstack", "hstack",
    "column_stack", "tile", "meshgrid",
}

#: Allowance category -> the code of the finding it silences.
_CATEGORY_RULES = {
    "float64": "PE001",
    "allocs": "PE002",
    "copies": "PE003",
    "loops": "PE004",
}

_HAZARD_HINTS = {
    "float64": ("float64 intermediate doubles memory traffic vs DTYPE; "
                "declare deliberate double accumulation in the contract"),
    "allocs": ("fresh allocation per chunk call is allocator churn; "
               "route through repro.compiler.scratch.scratch_buffer or "
               "declare why pooling does not apply"),
    "copies": ("materializes a copy per call; declare it if a BLAS call "
               "requires the contiguous operand"),
    "loops": ("Python-level loop over an iteration-space-sized range; "
              "declare it if per-civ BLAS dispatch is the design"),
}


def _is_float64_ref(node: ast.AST) -> bool:
    """Is this expression a reference to the float64 dtype?"""
    chain = _dotted(node)
    if chain is not None:
        return chain[-1] == "float64"
    return isinstance(node, ast.Name) and node.id == "float64"


def _float64_site(call: ast.Call) -> Optional[str]:
    """What makes this call a float64 construct, if it is one."""
    name = _terminal_name(call.func)
    if name == "astype" and call.args and _is_float64_ref(call.args[0]):
        return "astype(np.float64)"
    if name == "float64":
        return "np.float64(...)"
    if any(kw.arg == "dtype" and _is_float64_ref(kw.value)
           for kw in call.keywords):
        return f"{name}(dtype=np.float64)"
    return None


def _alloc_site(call: ast.Call) -> Optional[str]:
    """The constructor, when this call allocates a fresh array."""
    chain = _dotted(call.func)
    if (chain is not None and len(chain) >= 2
            and chain[0] in ("np", "numpy")
            and chain[-1] in _ALLOC_CONSTRUCTORS):
        return f"np.{chain[-1]}"
    return None


def _copy_site(call: ast.Call) -> Optional[str]:
    """What makes this call an implicit/explicit contiguity copy."""
    name = _terminal_name(call.func)
    if name == "ascontiguousarray":
        return "np.ascontiguousarray"
    if isinstance(call.func, ast.Attribute):
        if name == "flatten":
            return ".flatten() (always copies)"
        if name == "ravel" and isinstance(call.func.value, ast.Subscript):
            return ".ravel() on a sliced (strided) receiver"
    return None


def _mentions_tainted(node: ast.AST, tainted: Set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
    return False


def _tainted(tree: ast.FunctionDef) -> Set[str]:
    """Names tainted by the chunk bounds ``lo``/``hi`` in one method.

    The bounds seed the set; any name assigned from an expression
    mentioning a tainted name becomes tainted (two passes reach a
    fixpoint for straight-line code).  A ``for`` over ``range(...)``
    whose arguments mention a tainted name iterates O(chunk size) times
    — geometry-sized loops (``range(self.kernel_h)``) stay clean.
    """
    tainted = {a.arg for a in tree.args.args} & {"lo", "hi"}
    for _ in range(2 if tainted else 0):
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
    return tainted


# ---------------------------------------------------------------------------
# layer-class lint (PE001-PE005)
# ---------------------------------------------------------------------------
class _PerfSites(Rule):
    """PE001-PE004 sites in the chunk-reachable methods of one class."""

    def __init__(self) -> None:
        #: (method, category) -> [(lineno, what)]
        self.sites: Dict[Tuple[str, str], List[Tuple[int, str]]] = {}
        self.tainted: Dict[str, Set[str]] = {}

    def _add(self, site, cat: str, lineno: int, what: Optional[str]) -> None:
        if site.chunk and what:
            self.sites.setdefault((site.method, cat), []).append(
                (lineno, what))

    def visit_FunctionDef(self, node: ast.FunctionDef, site) -> None:
        if node is site.tree:  # the method itself comes first
            self.tainted[site.method] = _tainted(node)

    def visit_Call(self, node: ast.Call, site) -> None:
        self._add(site, "float64", node.lineno, _float64_site(node))
        self._add(site, "allocs", node.lineno, _alloc_site(node))
        self._add(site, "copies", node.lineno, _copy_site(node))

    def visit_For(self, node: ast.For, site) -> None:
        call = node.iter
        if (isinstance(call, ast.Call)
                and _terminal_name(call.func) == "range"
                and any(_mentions_tainted(a, self.tainted[site.method])
                        for a in call.args)):
            args = ", ".join(ast.unparse(a) for a in call.args)
            self._add(site, "loops", node.lineno,
                      f"for ... in range({args})")


def analyze_layer_perf(cls) -> List[Finding]:
    """PE001-PE005 over one layer class."""
    findings: List[Finding] = []
    found = _PerfSites()
    visit([cls], [found])
    cls_name = cls.__name__
    contract = own_contract(cls)

    for (method, cat), sites in sorted(
            found.sites.items(),
            key=lambda item: (item[0][0], PERF_CATEGORIES.index(item[0][1]))):
        if method in getattr(contract, cat):
            continue
        lineno, what = sites[0]
        extra = (f" (+{len(sites) - 1} more site(s))"
                 if len(sites) > 1 else "")
        findings.append(Finding(
            rule=_CATEGORY_RULES[cat], layer=cls_name,
            message=(
                f"{what} in chunk-reachable method {method} (line "
                f"{lineno}){extra}: {_HAZARD_HINTS[cat]}"
            ),
        ))

    own = own_methods(cls)
    reachable = chunk_reachable(cls)
    for cat in PERF_CATEGORIES:
        for method in getattr(contract, cat):
            if method not in own:
                drift = ("but the class defines no such method of its own; "
                         "contracts never vouch for inherited code")
            elif method not in reachable:
                drift = ("which is not chunk-reachable; the allowance is "
                         "dead weight — drop it")
            elif (method, cat) not in found.sites:
                drift = ("which no longer contains that construct; stale "
                         "allowance — drop it")
            else:
                continue
            findings.append(Finding(
                rule="PE005", layer=cls_name,
                message=f"contract {cat} names {method!r}, {drift}",
            ))
    return findings


def analyze_layer_classes_perf(
    classes: Optional[Sequence[type]] = None,
) -> List[Finding]:
    """PE001-PE005 over every registered (or given) layer class."""
    if classes is None:
        classes = list(builtin_layer_classes().values())
    return [f for cls in dict.fromkeys(classes)
            for f in analyze_layer_perf(cls)]


# ---------------------------------------------------------------------------
# runtime/compiler source scan (PE001 only — no declaration mechanism)
# ---------------------------------------------------------------------------
#: Packages whose hot paths must stay float64-free.
SCAN_PACKAGES = ("core", "compiler")


class _Float64Rule(Rule):
    """PE001 on every call of the runtime/compiler corpus."""

    code = "PE001"

    def visit_Call(self, node: ast.Call, site) -> Optional[List[Finding]]:
        what = _float64_site(node)
        return what and [site.finding(
            "PE001", node,
            f"{what}: runtime/compiler code computes in DTYPE (float32); "
            "float64 here doubles the bandwidth the cost model and arena "
            "are sized for")]


def lint_sources_perf(roots: Optional[Iterable[Path]] = None) -> List[Finding]:
    """PE001 over every ``.py`` file under ``roots``."""
    if roots is None:
        roots = package_roots(*SCAN_PACKAGES)
    return visit(roots, [_Float64Rule()])


def lint_perf() -> List[Finding]:
    """The full static PE0xx pass: layer-class lint + source scan."""
    return analyze_layer_classes_perf() + lint_sources_perf()
