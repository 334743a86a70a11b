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
from typing import List, Optional, Set

from repro.analysis.report import Finding
from repro.analysis.sources import Rule, _terminal_name, visit

_GUARD_ATTRS = {"ordered", "critical"}


def _guarded_lambdas(region: ast.FunctionDef) -> Set[ast.Lambda]:
    """Lambdas inside ``region`` that flow into ctx.ordered/critical —
    directly, or through a name bound to them (``merge = lambda: ...``)."""
    named, guarded, passed = {}, set(), set()
    for node in ast.walk(region):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
            named.update((target.id, node.value) for target in node.targets
                         if isinstance(target, ast.Name))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _GUARD_ATTRS):
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    guarded.add(arg)
                elif isinstance(arg, ast.Name):
                    passed.add(arg.id)
    return guarded | {named[name] for name in passed if name in named}


class _MergeRule(Rule):
    """RT001 on every ``add_into`` call inside a ``region`` function."""

    code = "RT001"

    def visit_Call(self, call: ast.Call, site) -> Optional[List[Finding]]:
        if _terminal_name(call.func) != "add_into":
            return None
        lam = None
        for node in site.ancestors(call):
            if isinstance(node, ast.FunctionDef) and node.name == "region":
                break
            if lam is None and isinstance(node, ast.Lambda):
                lam = node
        else:
            return None  # master-only merge, after the team has joined
        if lam is not None and lam in _guarded_lambdas(node):
            return None
        return [site.finding(
            "RT001", call,
            f"add_into at line {call.lineno} executes inside a parallel "
            "region without ctx.ordered/ctx.critical protection; "
            "concurrent merges into the shared gradient race",
            layer="<runtime>")]


def lint_runtime(source_path: Optional[str] = None) -> List[Finding]:
    """Run RT001 over the parallel executor source."""
    if source_path is None:
        import repro.core.parallel_net as pn
        source_path = pn.__file__
    return visit([source_path], [_MergeRule()])
