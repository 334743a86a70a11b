"""Runtime-invariant lint: ordered-merge discipline in the executor.

The privatized-reduction protocol demands that every merge of a private
gradient buffer into the shared one (``add_into``) executed *inside a
parallel region* happens under mutual exclusion — wrapped in a lambda
handed to ``ctx.ordered(...)`` or ``ctx.critical(...)``.  A bare
``add_into`` in a region function is exactly the race the paper's
ordered/critical merge phases exist to prevent.

RT001 parses ``src/repro/core/parallel_net.py`` and checks, for every
nested function named ``region`` (the closures dispatched to worker
threads via ``team.parallel``), that each ``add_into`` call is
syntactically inside a ``lambda`` that is passed — directly, or through
a local name such as ``merge = lambda: ...`` — to ``ctx.ordered`` or
``ctx.critical``.  ``add_into`` calls outside region functions (the
master-only tree/blockwise merge loops) are exempt: they run after the
team has joined.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.report import ERROR, Finding
from repro.analysis.sources import _terminal_name, walk_sources

_GUARD_ATTRS = {"ordered", "critical"}


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _guarded_lambdas(region: ast.FunctionDef) -> Set[ast.Lambda]:
    """Lambdas inside ``region`` that flow into ctx.ordered/critical."""
    guarded: Set[ast.Lambda] = set()
    # names bound to lambdas: merge = lambda: ...
    lambda_names: Dict[str, ast.Lambda] = {}
    for node in ast.walk(region):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    lambda_names[target.id] = node.value
    for node in ast.walk(region):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _GUARD_ATTRS):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Lambda):
                guarded.add(arg)
            elif isinstance(arg, ast.Name) and arg.id in lambda_names:
                guarded.add(lambda_names[arg.id])
    return guarded


def _enclosing_lambda(node: ast.AST,
                      parents: Dict[ast.AST, ast.AST],
                      stop: ast.AST) -> Optional[ast.Lambda]:
    cur = parents.get(node)
    while cur is not None and cur is not stop:
        if isinstance(cur, ast.Lambda):
            return cur
        cur = parents.get(cur)
    return None


def lint_runtime(source_path: Optional[str] = None) -> List[Finding]:
    """Run RT001 over the parallel executor source."""
    if source_path is None:
        import repro.core.parallel_net as pn
        source_path = pn.__file__
    findings: List[Finding] = []
    for path, tree in walk_sources([source_path], "RT001", findings):
        parents = _parent_map(tree)
        for region in ast.walk(tree):
            if not (isinstance(region, ast.FunctionDef)
                    and region.name == "region"):
                continue
            guarded = _guarded_lambdas(region)
            for call in ast.walk(region):
                if not (isinstance(call, ast.Call)
                        and _terminal_name(call.func) == "add_into"):
                    continue
                lam = _enclosing_lambda(call, parents, stop=region)
                if lam is None or lam not in guarded:
                    findings.append(Finding(
                        rule="RT001", severity=ERROR, layer="<runtime>",
                        message=(
                            "add_into at line "
                            f"{call.lineno} executes inside a parallel "
                            "region without ctx.ordered/ctx.critical "
                            "protection; concurrent merges into the shared "
                            "gradient race"
                        ),
                        location=f"{path}:{call.lineno}",
                    ))
    return findings
