"""The source corpus the static lints read, and the AST idioms they share.

Every source lint (DC, PE, SY, RS, SV, RT) does the same first step:
walk some package roots, parse each ``.py`` file, and turn a file it
could not read into a coded finding rather than a silently smaller
corpus.  :func:`walk_sources` is that step, once.  The small AST
helpers below are the ones more than one lint needs: attribute-chain
and call-name extraction, and the "which of this class's own methods
run per chunk" convention the DC and PE layer lints agree on.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.footprint import _parse_function
from repro.analysis.report import ERROR, Finding

#: Methods whose own def makes a layer "chunk code": they execute under
#: the thread team, once per chunk.
_CHUNK_METHOD_PREFIXES = ("_backward", "_forward")
_CHUNK_METHOD_NAMES = {"forward_chunk", "backward_chunk"}


def package_roots(*packages: str) -> List[Path]:
    """Source directories of the named ``repro`` subpackages."""
    return [Path(importlib.import_module(f"repro.{name}").__file__).parent
            for name in packages]


def walk_sources(
    roots: Iterable[Path], rule: str, findings: List[Finding],
) -> Iterator[Tuple[Path, ast.Module]]:
    """Yield ``(path, tree)`` for every ``.py`` file under ``roots``.

    A root is a directory (walked recursively, files in sorted order) or
    a single file.  A file that cannot be read or parsed is not yielded;
    it appends exactly one ERROR finding to ``findings`` under the
    calling lint's ``rule``, naming the path — a lint must never certify
    a corpus it did not read.
    """
    for root in roots:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            try:
                tree = ast.parse(path.read_text())
            except (OSError, SyntaxError, ValueError) as exc:
                findings.append(Finding(
                    rule=rule, severity=ERROR, layer=f"<{path.stem}>",
                    message=f"cannot parse {path}: {exc}",
                    location=str(path),
                ))
                continue
            yield path, tree


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` attribute chain as a name tuple, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _terminal_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _own_method_trees(cls) -> Dict[str, ast.FunctionDef]:
    """Parsed ASTs of every function defined in the class's own __dict__."""
    trees: Dict[str, ast.FunctionDef] = {}
    for name, obj in cls.__dict__.items():
        if not callable(obj) or isinstance(obj, type):
            continue
        func = getattr(obj, "__func__", obj)  # unwrap staticmethod et al.
        node = _parse_function(func)
        if node is not None:
            trees[name] = node
    return trees


def _is_chunk_method(name: str) -> bool:
    return (name in _CHUNK_METHOD_NAMES
            or name.startswith(_CHUNK_METHOD_PREFIXES))
