"""The source the static lints read, parsed once, and the one traversal
and the one chunk-reachability rule they share.

Every AST lint reads **files** under package roots (the DC, PE, RS, SV,
RT and SY source scans: :func:`walk_sources` parses each once and turns
a file it could not read into a coded finding, never a silently smaller
corpus) or **layer classes** (the FP, DC, PE and RS class checks:
:func:`function_tree` parses each method once, with file line numbers).
:func:`chunk_reachable` is the one answer to "which of this class's
methods run per chunk"; :func:`visit` is the one traversal, handing
every node of every root, in :func:`ast.walk` order, to the
``visit_<NodeType>`` callbacks of each :class:`Rule`.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import textwrap
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union,
)

from repro.analysis.report import Finding
from repro.framework.layer import LayerContract

#: What a class without a contract of its own is vouched for by.
_NO_CONTRACT = LayerContract()


# ---------------------------------------------------------------------------
# the corpora
# ---------------------------------------------------------------------------
def package_roots(*packages: str) -> List[Path]:
    """Source directories of the named ``repro`` subpackages."""
    return [Path(importlib.import_module(f"repro.{name}").__file__).parent
            for name in packages]


def builtin_layer_classes() -> Dict[str, type]:
    """All registered layer classes (importing the built-in package)."""
    import repro.framework.layers  # noqa: F401  (fills the registry)
    from repro.framework.layer import _REGISTRY

    return {cls.__name__: cls for cls in _REGISTRY.values()}


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
                    rule=rule, layer=f"<{path.stem}>",
                    message=f"cannot parse {path}: {exc}",
                    location=str(path),
                ))
                continue
            yield path, tree


@functools.lru_cache(maxsize=None)
def _parse_function(func) -> Optional[ast.FunctionDef]:
    try:
        lines, first_line = inspect.getsourcelines(func)
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except (OSError, TypeError, SyntaxError):
        return None
    # report file line numbers, not method-relative ones
    ast.increment_lineno(tree, first_line - 1)
    return next((node for node in tree.body
                 if isinstance(node, ast.FunctionDef)), None)


def function_tree(func) -> Optional[ast.FunctionDef]:
    """Parsed source of one function (staticmethods and bound methods
    unwrapped), or None when it has none (builtins, C extensions).
    Parsed once per process: every lint reads the same tree, and none
    may mutate it."""
    try:
        return _parse_function(getattr(func, "__func__", func))
    except TypeError:  # an unhashable callable has no source either
        return None


def method_tree(cls, name: str) -> Optional[ast.FunctionDef]:
    """The parsed method ``self.<name>(...)`` runs on an instance of
    ``cls`` (resolved through the MRO), or None."""
    return function_tree(getattr(cls, name, None))


def own_methods(cls) -> Dict[str, ast.FunctionDef]:
    """Parsed source of every function in the class's own ``__dict__`` —
    the code its contract vouches for."""
    trees: Dict[str, ast.FunctionDef] = {}
    for name, obj in cls.__dict__.items():
        if callable(obj) and not isinstance(obj, type):
            tree = function_tree(obj)
            if tree is not None:
                trees[name] = tree
    return trees


def own_contract(cls) -> LayerContract:
    """The contract declared in the class's own ``__dict__`` (an empty
    one when it declares none): inherited contracts vouch only for the
    classes that declare them."""
    return cls.__dict__.get("contract") or _NO_CONTRACT


def source_location(obj) -> str:
    """``path:line`` of an object's source, or its name without one."""
    try:
        line = inspect.getsourcelines(obj)[1]
        return f"{inspect.getsourcefile(obj) or '?'}:{line}"
    except (OSError, TypeError):
        return obj.__name__


# ---------------------------------------------------------------------------
# what runs per chunk
# ---------------------------------------------------------------------------
def _calls_on_self(node: ast.AST,
                   nested: bool = False) -> Iterator[Tuple[str, bool]]:
    """``(name, nested)`` per ``self.<name>(...)`` call under ``node``;
    ``nested``: inside a lambda or def nested in it."""
    for child in ast.iter_child_nodes(node):
        func = getattr(child, "func", None)
        if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"):
            yield func.attr, nested
        yield from _calls_on_self(child, nested or isinstance(
            child, (ast.Lambda, ast.FunctionDef)))


def chunk_reachable(cls) -> Set[str]:
    """Names of the methods ``cls`` runs per chunk, under the thread team.

    The roots are ``forward_chunk``, ``backward_chunk`` and the loop
    bodies ``backward_loops`` builds: the methods called inside its
    lambdas and nested defs, and inside those of the helpers it calls to
    build loops (a fused conv's ``_conv_loops``).  The set is closed
    over ``self.<name>()`` calls, each resolved through the MRO.
    ``backward_loops`` and its loop-building helpers run once per pass,
    so they are not in it.
    """
    reachable: Set[str] = set()
    seen: Set[Tuple[str, bool]] = set()
    work = [("forward_chunk", True), ("backward_chunk", True),
            ("backward_loops", False)]
    while work:
        item = work.pop()
        if item in seen:
            continue
        seen.add(item)
        name, per_chunk = item
        if per_chunk:
            reachable.add(name)
        tree = method_tree(cls, name)
        if tree is not None:
            work += [(callee, per_chunk or nested)
                     for callee, nested in _calls_on_self(tree)]
    return reachable


# ---------------------------------------------------------------------------
# the one traversal
# ---------------------------------------------------------------------------
@dataclass
class Site:
    """Where :func:`visit` found a node: the module or method ``tree``
    being walked, and its file (file roots) or its method name and
    whether that runs per chunk (class roots)."""

    tree: ast.AST
    path: Optional[Path] = None
    method: str = ""
    chunk: bool = False

    @functools.cached_property
    def _parents(self) -> Dict[ast.AST, ast.AST]:
        return {child: node for node in ast.walk(self.tree)
                for child in ast.iter_child_nodes(node)}

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The nodes enclosing ``node``, innermost first."""
        node = self._parents.get(node)
        while node is not None:
            yield node
            node = self._parents.get(node)

    def finding(self, rule: str, node: ast.AST, message: str,
                layer: str = "") -> Finding:
        """A finding at ``node`` of this file (layer ``<stem>``)."""
        return Finding(rule=rule, layer=layer or f"<{self.path.stem}>",
                       message=message,
                       location=f"{self.path}:{node.lineno}")


class Rule:
    """One lint on :func:`visit`'s traversal.

    A subclass names the code a file it could not read is reported under
    (:attr:`code`) and defines ``visit_<NodeType>(node, site)`` callbacks
    — the :class:`ast.NodeVisitor` naming — returning findings or None.
    :meth:`done` runs once after the traversal with every parsed file,
    for what needs the whole corpus (synclint's lock graph).  A rule on
    a class may instead keep what it saw for its caller to judge
    (:func:`repro.analysis.rng_lint.rng_sites`).
    """

    code = ""

    def done(self, parsed: List[Tuple[Path, ast.Module]]
             ) -> Iterable[Finding]:
        return ()


def visit(roots: Iterable[Union[Path, str, type]],
          rules: Sequence[Rule]) -> List[Finding]:
    """Walk every root once for all ``rules``.

    A root is a directory or ``.py`` file (every module under it) or a
    class (each method in its own ``__dict__``, with :attr:`Site.chunk`
    from :func:`chunk_reachable`).  Returns one finding per unreadable
    file and rule first, then the callbacks' findings in traversal
    order, then each rule's :meth:`Rule.done`.
    """
    codes = [rule.code for rule in rules]
    unread: List[Finding] = []
    parsed: List[Tuple[Path, ast.Module]] = []
    found = []
    handlers = [{name[len("visit_"):]: getattr(rule, name)
                 for name in dir(rule) if name.startswith("visit_")}
                for rule in rules]
    for site in _sites(roots, codes, unread, parsed):
        for node in ast.walk(site.tree):
            for table in handlers:
                callback = table.get(type(node).__name__)
                if callback is not None:
                    found.extend(callback(node, site) or ())
    for rule in rules:
        found.extend(rule.done(parsed))
    return unread + found


def _sites(roots, codes: List[str], unread: List[Finding],
           parsed: List[Tuple[Path, ast.Module]]) -> Iterator[Site]:
    for root in roots:
        if isinstance(root, type):
            reachable = chunk_reachable(root)
            for name, tree in own_methods(root).items():
                yield Site(tree, method=name, chunk=name in reachable)
        elif codes:
            # An unreadable file is one finding per rule, each under its
            # own code.
            failed: List[Finding] = []
            for path, tree in walk_sources([root], codes[0], failed):
                parsed.append((path, tree))
                yield Site(tree, path=path)
            unread += [replace(f, rule=code)
                       for f in failed for code in codes]


# ---------------------------------------------------------------------------
# shared AST idioms
# ---------------------------------------------------------------------------
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
