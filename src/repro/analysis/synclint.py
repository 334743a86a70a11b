"""Concurrency certifier (synccheck): the static synchronization lint.

The paper's runtime stands on one OpenMP-shaped primitive set —
:class:`~repro.core.team.ThreadTeam` barriers, the critical lock, the
ordered turn — and every other certifier (detcheck, rescheck, ...)
takes the *correct use* of those primitives on faith.  This pass checks
that use.  It parses ``repro.core``, ``repro.compiler`` and
``repro.resilience``, extracts every ``threading`` primitive
(module-level and ``self.attr`` assignments, including primitives
nested in dict literals such as ``ThreadTeam._ordered_turn["cond"]``),
then simulates each function with a held-lock set to emit the SY lint
family:

* **SY001** — lock-order cycle in the inter-procedural acquisition
  graph (two functions acquiring the same locks in opposite orders can
  deadlock).
* **SY002** — a lock held across a barrier wait or other blocking call
  (``.join``, ``parallel*``, a *different* condition's ``wait``): the
  blocked-on thread may need that lock to make progress.
* **SY003** — ``Condition.wait()`` outside a predicate ``while`` loop:
  spurious wakeups and notify races make a bare or ``if``-guarded wait
  incorrect.
* **SY004** — module-level mutable state written with no lock held, in
  a module that uses ``threading`` (the write-classification analogue
  of footprint.py, applied to globals).  A write inside a function
  whose every in-corpus call site holds a lock is considered guarded
  (the ``_locked``-suffix helper convention).
* **SY005** — barrier divergence: two non-exempt code paths through
  one function perform different (nonzero) numbers of barrier waits,
  so peer threads can end up waiting at different barriers forever.
  Branches conditioned on shutdown/abort state and raising paths are
  exempt (aborting *is* the sanctioned way to leave the protocol).
* **SY006** — re-acquisition of a held non-reentrant ``Lock`` (self
  deadlock).

The team's constructs count as locks: a call ``X.critical(fn)`` or
``X.ordered(fn)`` holds ``<critical>`` (the team's critical lock) or
``<ordered>`` (its ordered turn) while ``fn``'s body runs, ``fn`` a
lambda or a module-level function.  Threads nesting the two in opposite
orders are therefore an SY001 cycle, and a barrier inside either is
SY002.

The lint is deliberately conservative in its *resolution* (an
unresolvable receiver is ignored rather than guessed) and deliberately
eager in its *rules* — the corpus must be clean, and the tests prove
each rule fires on seeded-defect fixtures.  What it cannot see — a wait
that never ends at run time — is the team watchdog's to catch:
``ThreadTeam(n, watchdog=seconds)`` (or ``REPRO_TEAM_WATCHDOG``) turns
such a wait into :class:`~repro.core.team.TeamDeadlock`.

CLI: ``python -m repro.analysis synccheck --gate`` (``--json`` for the
full document).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import Finding, Gated
from repro.analysis.sources import Rule, package_roots, visit

#: threading constructors we track, mapped to a primitive kind.
_PRIMITIVE_CTORS = {
    "Lock": "lock",
    "RLock": "rlock",
    "Condition": "condition",
    "Barrier": "barrier",
    "Semaphore": "lock",
    "BoundedSemaphore": "lock",
    "Event": "event",
    "local": "local",
}

#: Lockable kinds (participate in the held set / acquisition graph).
_LOCK_KINDS = {"lock", "rlock", "condition"}

#: Method calls that mutate a list/dict/set receiver in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "setdefault", "add", "discard", "popitem", "sort", "reverse",
}

#: Identifier substrings that mark a branch as an abort/shutdown path
#: (exempt from barrier-divergence counting: leaving the protocol on
#: abort is sanctioned, the abort call unblocks the peers).
_EXEMPT_BRANCH_MARKERS = ("shutdown", "abort", "stop", "closed", "broken")

#: Call names that wait at a team barrier.
_BARRIER_CALL_NAMES = {"barrier", "_barrier_wait"}

#: Team constructs that hold a lock-like resource while their function
#: argument runs: ``ctx.critical(fn)`` / ``ctx.ordered(fn)``.
_HOLDING_CALLS = {"critical": "<critical>", "ordered": "<ordered>"}

#: Call names that block on other threads (beyond barrier waits).
_BLOCKING_CALL_NAMES = {
    "join", "parallel", "parallel_for", "parallel_for_nest",
}


# ---------------------------------------------------------------------------
# primitive extraction
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Primitive:
    """One threading primitive found in the corpus."""

    ident: str      # "module.NAME", "module.Class.attr", ".. [key]"
    kind: str       # lock / rlock / condition / barrier / event / local
    path: str
    lineno: int

    @property
    def terminal(self) -> str:
        """The attribute/name a use site would spell (last component)."""
        tail = self.ident.rsplit(".", 1)[-1]
        return tail.split("[", 1)[0]


def _ctor_kind(node: ast.AST) -> Optional[str]:
    """Kind if ``node`` is a ``threading.X()`` style constructor call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = None
    if isinstance(func, ast.Attribute):
        name = func.attr
    elif isinstance(func, ast.Name):
        name = func.id
    return _PRIMITIVE_CTORS.get(name or "")


@dataclass
class CorpusIndex:
    """Every primitive plus lookup tables for use-site resolution."""

    primitives: Dict[str, Primitive] = field(default_factory=dict)
    #: terminal attribute/name -> idents spelling it.
    by_terminal: Dict[str, List[str]] = field(default_factory=dict)
    #: container idents (dicts holding primitives) -> {key: ident}.
    containers: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def add(self, prim: Primitive) -> None:
        self.primitives[prim.ident] = prim
        self.by_terminal.setdefault(prim.terminal, []).append(prim.ident)

    def kind(self, ident: Optional[str]) -> Optional[str]:
        if ident is None:
            return None
        prim = self.primitives.get(ident)
        return prim.kind if prim else None

    def resolve_terminal(self, name: str,
                         prefer_module: str = "") -> Optional[str]:
        """Unique primitive spelled ``name``, preferring the module."""
        candidates = self.by_terminal.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        same = [c for c in candidates
                if prefer_module and c.startswith(prefer_module + ".")]
        if len(same) == 1:
            return same[0]
        return None


def _extract_primitives(tree: ast.Module, modname: str, path: str,
                        index: CorpusIndex) -> None:
    def register(ident: str, kind: str, lineno: int) -> None:
        index.add(Primitive(ident, kind, path, lineno))

    def handle_value(ident: str, value: ast.AST, lineno: int) -> None:
        kind = _ctor_kind(value)
        if kind is not None:
            register(ident, kind, lineno)
            return
        if isinstance(value, ast.Dict):
            keys: Dict[str, str] = {}
            for key, val in zip(value.keys, value.values):
                vkind = _ctor_kind(val)
                if (vkind is not None and isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    member = f"{ident}[{key.value}]"
                    register(member, vkind, val.lineno)
                    keys[key.value] = member
            if keys:
                index.containers[ident] = keys

    # module-level assignments
    for stmt in tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                handle_value(f"{modname}.{target.id}", value, stmt.lineno)

    # self.attr assignments anywhere inside each class
    for cls in [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    handle_value(f"{modname}.{cls.name}.{target.attr}",
                                 node.value, node.lineno)


def _mutable_globals(tree: ast.Module, modname: str) -> Dict[str, int]:
    """Module-level names bound to a mutable container literal/ctor."""
    out: Dict[str, int] = {}
    for stmt in tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "dict", "set")
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                out[target.id] = stmt.lineno
    return out


def _imports_threading(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "threading" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "threading":
                return True
    return False


# ---------------------------------------------------------------------------
# per-function simulation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SyncEvent:
    """One synchronization-relevant operation in a function body."""

    kind: str                 # acquire / barrier / cond_wait / blocking
                              # / global_write / call
    resource: str             # primitive ident, global name, callee ref...
    held: Tuple[str, ...]     # sorted held-lock idents at the event
    lineno: int
    in_while: bool = False    # cond_wait: lexically inside a while loop


@dataclass
class FunctionSummary:
    """Everything the inter-procedural passes need about one function."""

    ref: str                  # "module.func" or "module.Class.method"
    path: str
    events: List[SyncEvent] = field(default_factory=list)
    #: possible barrier-wait counts over non-exempt paths (None when the
    #: function was too branchy to enumerate).
    barrier_counts: Optional[Set[int]] = None
    barrier_lines: List[int] = field(default_factory=list)

    @property
    def direct_acquires(self) -> Set[str]:
        return {e.resource for e in self.events if e.kind == "acquire"}


class _FunctionScanner:
    """Walks one function body tracking the held-lock set."""

    def __init__(self, modname: str, index: CorpusIndex,
                 mutable_globals: Dict[str, int], ref: str,
                 path: str) -> None:
        self.modname = modname
        self.index = index
        self.globals = mutable_globals
        self.summary = FunctionSummary(ref=ref, path=path)
        #: local name -> resolved primitive/container ident
        self.aliases: Dict[str, str] = {}

    # -- resolution ----------------------------------------------------
    def _resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve an expression to a primitive/container ident."""
        if isinstance(node, ast.Name):
            if node.id in self.aliases:
                return self.aliases[node.id]
            ident = f"{self.modname}.{node.id}"
            if ident in self.index.primitives or \
                    ident in self.index.containers:
                return ident
            return None
        if isinstance(node, ast.Attribute):
            # self._x / team._x / anything._x: resolve by terminal attr.
            return self.index.resolve_terminal(node.attr, self.modname)
        if isinstance(node, ast.Subscript):
            base = self._resolve(node.value)
            if base is None:
                return None
            keys = self.index.containers.get(base)
            sl = node.slice
            if (keys and isinstance(sl, ast.Constant)
                    and isinstance(sl.value, str)):
                return keys.get(sl.value)
            return None
        return None

    def _emit(self, kind: str, resource: str, held: Set[str],
              lineno: int, in_while: bool = False) -> None:
        self.summary.events.append(SyncEvent(
            kind, resource, tuple(sorted(held)), lineno, in_while,
        ))

    # -- expression-level classification -------------------------------
    def _classify_call(self, call: ast.Call, held: Set[str],
                       in_while: bool) -> Optional[ast.AST]:
        """Emit ``call``'s events; returns a lambda argument whose body
        was scanned already (under the construct's held resource)."""
        func = call.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            receiver = func.value
            if attr == "wait":
                ident = self._resolve(receiver)
                kind = self.index.kind(ident)
                rname = receiver.attr if isinstance(receiver, ast.Attribute) \
                    else receiver.id if isinstance(receiver, ast.Name) else ""
                if kind == "barrier" or (
                        kind is None and "barrier" in rname.lower()):
                    self.summary.barrier_lines.append(call.lineno)
                    self._emit("barrier", ident or rname or "<barrier>",
                               held, call.lineno)
                elif kind == "condition" or (
                        kind is None and "cond" in rname.lower()):
                    self._emit("cond_wait", ident or rname or "<condition>",
                               held, call.lineno, in_while=in_while)
                elif kind == "event":
                    self._emit("blocking", ident or rname, held, call.lineno)
                return
            if attr == "wait_for":
                ident = self._resolve(receiver)
                if self.index.kind(ident) == "condition":
                    # wait_for embeds the predicate loop: SY003-safe,
                    # but still a blocking point for SY002.
                    self._emit("cond_wait", ident or "<condition>", held,
                               call.lineno, in_while=True)
                return
            if attr in _BARRIER_CALL_NAMES:
                self.summary.barrier_lines.append(call.lineno)
                self._emit("barrier", f"<{attr.lstrip('_')}>", held,
                           call.lineno)
                return
            if attr in _HOLDING_CALLS and call.args:
                return self._holding_call(_HOLDING_CALLS[attr],
                                          call.args[0], held, in_while,
                                          call.lineno)
            if attr == "acquire":
                ident = self._resolve(receiver)
                if self.index.kind(ident) in _LOCK_KINDS:
                    self._emit("acquire", ident, held, call.lineno)
                    held.add(ident)
                return
            if attr == "release":
                ident = self._resolve(receiver)
                if ident is not None:
                    held.discard(ident)
                return
            if attr in _BLOCKING_CALL_NAMES:
                self._emit("blocking", attr, held, call.lineno)
                self._callee(func, held)
                return
            if attr in _MUTATOR_METHODS and isinstance(receiver, ast.Name):
                if receiver.id in self.globals:
                    self._emit("global_write", receiver.id, held,
                               call.lineno)
                return
            self._callee(func, held)
            return
        if isinstance(func, ast.Name):
            if func.id in _BLOCKING_CALL_NAMES:
                self._emit("blocking", func.id, held, call.lineno)
            self._callee(func, held)

    def _holding_call(self, resource: str, fn: ast.AST, held: Set[str],
                      in_while: bool, lineno: int) -> Optional[ast.AST]:
        """``X.critical(fn)`` / ``X.ordered(fn)``: acquire ``resource``,
        run ``fn``'s body (a lambda's, or a module function's through
        the fixpoint pass) with it held."""
        self._emit("acquire", resource, held, lineno)
        inner = held | {resource}
        if isinstance(fn, ast.Lambda):
            self._scan_expr(fn.body, inner, in_while)
            return fn
        if isinstance(fn, ast.Name):
            self._emit("call", f"{self.modname}.{fn.id}", inner, lineno)
        return None

    def _callee(self, func: ast.AST, held: Set[str]) -> None:
        """Record a potentially-resolvable call for the fixpoint pass."""
        if isinstance(func, ast.Name):
            self._emit("call", f"{self.modname}.{func.id}", held,
                       func.lineno)
        elif isinstance(func, ast.Attribute):
            # self.method() / obj.method(): resolved by terminal name in
            # the fixpoint pass (unique-method heuristic).
            self._emit("call", f"?.{func.attr}", held, func.lineno)

    def _scan_expr(self, node: ast.AST, held: Set[str],
                   in_while: bool) -> None:
        # ast.walk's breadth-first order, minus the bodies of lambdas a
        # holding call scanned already.
        todo = deque([node])
        while todo:
            sub = todo.popleft()
            scanned = None
            if isinstance(sub, ast.Call):
                scanned = self._classify_call(sub, held, in_while)
            todo.extend(child for child in ast.iter_child_nodes(sub)
                        if child is not scanned)

    # -- statement-level walk ------------------------------------------
    def scan(self, body: List[ast.stmt]) -> FunctionSummary:
        self._scan_block(body, set(), in_while=False)
        return self.summary

    def _scan_block(self, stmts: List[ast.stmt], held: Set[str],
                    in_while: bool) -> None:
        for stmt in stmts:
            self._scan_stmt(stmt, held, in_while)

    def _scan_stmt(self, stmt: ast.stmt, held: Set[str],
                   in_while: bool) -> None:
        if isinstance(stmt, ast.With):
            inner = set(held)
            for item in stmt.items:
                ident = self._resolve(item.context_expr)
                kind = self.index.kind(ident)
                if kind in _LOCK_KINDS:
                    self._emit("acquire", ident, inner, stmt.lineno)
                    inner.add(ident)
                else:
                    self._scan_expr(item.context_expr, inner, in_while)
            self._scan_block(stmt.body, inner, in_while)
            return
        if isinstance(stmt, ast.Assign):
            # alias tracking: x = <resolvable primitive/container>
            ident = self._resolve(stmt.value)
            if ident is not None:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.aliases[target.id] = ident
            self._scan_expr(stmt.value, held, in_while)
            for target in stmt.targets:
                self._check_global_write_target(target, held)
            return
        if isinstance(stmt, ast.AugAssign):
            self._scan_expr(stmt.value, held, in_while)
            self._check_global_write_target(stmt.target, held)
            return
        if isinstance(stmt, (ast.If,)):
            self._scan_expr(stmt.test, held, in_while)
            self._scan_block(stmt.body, set(held), in_while)
            self._scan_block(stmt.orelse, set(held), in_while)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test, held, in_while)
            self._scan_block(stmt.body, set(held), in_while=True)
            return
        if isinstance(stmt, ast.For):
            self._scan_expr(stmt.iter, held, in_while)
            self._scan_block(stmt.body, set(held), in_while)
            self._scan_block(stmt.orelse, set(held), in_while)
            return
        if isinstance(stmt, ast.Try):
            self._scan_block(stmt.body, set(held), in_while)
            for handler in stmt.handlers:
                self._scan_block(handler.body, set(held), in_while)
            self._scan_block(stmt.orelse, set(held), in_while)
            self._scan_block(stmt.finalbody, set(held), in_while)
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs analyzed separately
        for node in ast.iter_child_nodes(stmt):
            self._scan_expr(node, held, in_while)

    def _check_global_write_target(self, target: ast.AST,
                                   held: Set[str]) -> None:
        # G[k] = v, G[:] = v rebinds into a module-level mutable
        if isinstance(target, ast.Subscript) and \
                isinstance(target.value, ast.Name):
            name = target.value.id
            if name in self.globals and name not in self.aliases:
                self._emit("global_write", name, held, target.lineno)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_global_write_target(elt, held)


# ---------------------------------------------------------------------------
# barrier-divergence path counting (SY005)
# ---------------------------------------------------------------------------
_PATH_CAP = 256


def _branch_exempt(test: ast.AST) -> bool:
    for node in ast.walk(test):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name and any(m in name.lower() for m in _EXEMPT_BRANCH_MARKERS):
            return True
    return False


def _is_barrier_wait(stmt: ast.stmt, scanner_lines: Set[int]) -> int:
    """Number of barrier waits syntactically inside ``stmt`` itself."""
    count = 0
    for node in ast.walk(stmt):
        if getattr(node, "lineno", None) in scanner_lines and \
                isinstance(node, ast.Call):
            count += 1
    return count


def _barrier_counts(body: List[ast.stmt],
                    barrier_lines: Set[int]) -> Optional[Set[int]]:
    """Set of barrier-wait counts over non-exempt, non-raising paths.

    Returns None when the function is too branchy to enumerate.  Paths
    are (count, exempt, terminated) triples folded left-to-right.
    """
    # path := (count, exempt); terminated paths are moved to `done`.
    done: List[Tuple[int, bool]] = []

    def step(paths: List[Tuple[int, bool]],
             stmts: List[ast.stmt]) -> Optional[List[Tuple[int, bool]]]:
        for stmt in stmts:
            if len(paths) + len(done) > _PATH_CAP:
                return None
            if isinstance(stmt, ast.If):
                # Mark exemption *before* descending: a Return/Raise
                # inside the branch moves its path to `done` immediately.
                entry = ([(c, True) for c, _ in paths]
                         if _branch_exempt(stmt.test) else list(paths))
                body_paths = step(entry, stmt.body)
                else_paths = step(list(paths), stmt.orelse)
                if body_paths is None or else_paths is None:
                    return None
                paths = body_paths + else_paths
                continue
            if isinstance(stmt, (ast.While, ast.For)):
                # one symbolic iteration: divergence across iterations is
                # symmetric, divergence *inside* one iteration is not.
                test = stmt.test if isinstance(stmt, ast.While) else None
                entry = ([(c, True) for c, _ in paths]
                         if test is not None and _branch_exempt(test)
                         else list(paths))
                body_paths = step(entry, stmt.body)
                if body_paths is None:
                    return None
                paths = paths + body_paths
                continue
            if isinstance(stmt, ast.Try):
                body_paths = step(list(paths), stmt.body)
                if body_paths is None:
                    return None
                body_paths = step(body_paths, stmt.orelse)
                if body_paths is None:
                    return None
                # handler paths are error paths: exempt.
                for handler in stmt.handlers:
                    hp = step([(c, True) for c, e in paths], handler.body)
                    if hp is None:
                        return None
                    body_paths = body_paths + hp
                paths = step(body_paths, stmt.finalbody)
                if paths is None:
                    return None
                continue
            if isinstance(stmt, ast.Return):
                waits = _is_barrier_wait(stmt, barrier_lines)
                done.extend((c + waits, e) for c, e in paths)
                return []
            if isinstance(stmt, ast.Raise):
                done.extend((c, True) for c, e in paths)
                return []
            if isinstance(stmt, (ast.Break, ast.Continue)):
                done.extend(paths)
                return []
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            waits = _is_barrier_wait(stmt, barrier_lines)
            if waits:
                paths = [(c + waits, e) for c, e in paths]
        return paths

    final = step([(0, False)], body)
    if final is None:
        return None
    done.extend(final)
    return {c for c, exempt in done if not exempt}


# ---------------------------------------------------------------------------
# corpus analysis
# ---------------------------------------------------------------------------
#: The packages whose synchronization synccheck vouches for.
LINT_PACKAGES = ("core", "compiler", "resilience")


def _iter_functions(tree: ast.Module, modname: str):
    """Yield (ref, funcdef) for every function/method in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{modname}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{modname}.{node.name}.{sub.name}", sub


class _SyncRule(Rule):
    """The SY0xx rules, on the corpus :func:`visit` parsed."""

    code = "SY001"

    def done(self, parsed) -> List[Finding]:
        return analyze_sync(parsed)


def lint_sync(roots: Optional[Iterable[Path]] = None) -> List[Finding]:
    """Run the full SY0xx static pass over every module under roots."""
    if roots is None:
        roots = package_roots(*LINT_PACKAGES)
    return visit(roots, [_SyncRule()])


def analyze_sync(parsed: Sequence[Tuple[Path, ast.Module]]) -> List[Finding]:
    """The SY0xx rules over an already-parsed corpus of (path, tree)
    pairs (servecheck re-applies them to the serve sources it walked)."""
    modules = [(path.stem, str(path), tree) for path, tree in parsed]

    index = CorpusIndex()
    for modname, path, tree in modules:
        _extract_primitives(tree, modname, path, index)

    summaries: Dict[str, FunctionSummary] = {}
    by_method: Dict[str, List[str]] = {}
    for modname, path, tree in modules:
        mutables = _mutable_globals(tree, modname) \
            if _imports_threading(tree) else {}
        for ref, funcdef in _iter_functions(tree, modname):
            scanner = _FunctionScanner(modname, index, mutables, ref, path)
            summary = scanner.scan(funcdef.body)
            summary.barrier_counts = _barrier_counts(
                funcdef.body, set(summary.barrier_lines)
            )
            summaries[ref] = summary
            by_method.setdefault(ref.rsplit(".", 1)[-1], []).append(ref)

    findings: List[Finding] = []

    def emit(rule: str, where: str, message: str, path: str,
             lineno: int) -> None:
        findings.append(Finding(
            rule=rule, layer=where, message=message,
            location=f"{path}:{lineno}",
        ))

    # -- resolve call refs to summaries --------------------------------
    def resolve_callee(ref: str) -> Optional[FunctionSummary]:
        if ref in summaries:
            return summaries[ref]
        if ref.startswith("?."):
            method = ref[2:]
            candidates = by_method.get(method, [])
            if len(candidates) == 1:
                return summaries[candidates[0]]
        return None

    # -- transitive acquires (fixpoint) ---------------------------------
    trans: Dict[str, Set[str]] = {
        ref: set(s.direct_acquires) for ref, s in summaries.items()
    }
    changed = True
    while changed:
        changed = False
        for ref, summary in summaries.items():
            for event in summary.events:
                if event.kind != "call":
                    continue
                callee = resolve_callee(event.resource)
                if callee is None:
                    continue
                before = len(trans[ref])
                trans[ref] |= trans[callee.ref]
                if len(trans[ref]) != before:
                    changed = True

    # -- lock-acquisition graph (SY001 / SY006) -------------------------
    edges: Dict[str, Set[str]] = {}
    edge_sites: Dict[Tuple[str, str], Tuple[str, str, int]] = {}

    def add_edge(a: str, b: str, where: str, path: str,
                 lineno: int) -> None:
        edges.setdefault(a, set()).add(b)
        edge_sites.setdefault((a, b), (where, path, lineno))

    for ref, summary in summaries.items():
        for event in summary.events:
            if event.kind == "acquire":
                if (event.resource in event.held
                        and index.kind(event.resource) == "lock"):
                    emit("SY006", ref,
                         f"non-reentrant lock {event.resource} re-acquired "
                         "while already held (self deadlock)",
                         summary.path, event.lineno)
                for held in event.held:
                    if held != event.resource:
                        add_edge(held, event.resource, ref,
                                 summary.path, event.lineno)
            elif event.kind == "call" and event.held:
                callee = resolve_callee(event.resource)
                if callee is None:
                    continue
                for acquired in trans[callee.ref]:
                    for held in event.held:
                        if held != acquired:
                            add_edge(held, acquired, ref,
                                     summary.path, event.lineno)

    # cycle detection over the lock graph
    reported_cycles: Set[frozenset] = set()

    def find_cycles() -> None:
        color: Dict[str, int] = {}
        stack: List[str] = []

        def dfs(node: str) -> None:
            color[node] = 1
            stack.append(node)
            for succ in sorted(edges.get(node, ())):
                if color.get(succ, 0) == 0:
                    dfs(succ)
                elif color.get(succ) == 1:
                    cycle = stack[stack.index(succ):] + [succ]
                    key = frozenset(cycle)
                    if key not in reported_cycles:
                        reported_cycles.add(key)
                        where, path, lineno = edge_sites[
                            (stack[-1], succ)
                        ]
                        emit("SY001", where,
                             "lock-order cycle: "
                             + " -> ".join(cycle)
                             + " (two threads taking these locks in "
                             "opposite orders can deadlock)",
                             path, lineno)
            stack.pop()
            color[node] = 2

        for node in sorted(edges):
            if color.get(node, 0) == 0:
                dfs(node)

    find_cycles()

    # -- SY002 / SY003 ---------------------------------------------------
    for ref, summary in summaries.items():
        for event in summary.events:
            if event.kind == "barrier" and event.held:
                emit("SY002", ref,
                     f"barrier wait on {event.resource} while holding "
                     f"{', '.join(event.held)}: a peer needing the lock "
                     "can never reach the barrier",
                     summary.path, event.lineno)
            elif event.kind == "blocking" and event.held:
                emit("SY002", ref,
                     f"blocking call {event.resource}() while holding "
                     f"{', '.join(event.held)}",
                     summary.path, event.lineno)
            elif event.kind == "cond_wait":
                other = [h for h in event.held if h != event.resource]
                if other:
                    emit("SY002", ref,
                         f"Condition.wait on {event.resource} while "
                         f"holding {', '.join(other)}: wait releases only "
                         "the condition's own lock",
                         summary.path, event.lineno)
                if not event.in_while:
                    emit("SY003", ref,
                         f"Condition.wait on {event.resource} outside a "
                         "predicate while-loop: spurious wakeups and "
                         "missed notifies make a bare wait incorrect",
                         summary.path, event.lineno)

    # -- SY004: unguarded module-global writes ---------------------------
    # A function whose every in-corpus call site holds a lock is treated
    # as guarded (the *_locked helper convention, verified via the call
    # events rather than trusted from the name).
    callers: Dict[str, List[Tuple[str, ...]]] = {}
    for ref, summary in summaries.items():
        for event in summary.events:
            if event.kind != "call":
                continue
            callee = resolve_callee(event.resource)
            if callee is not None:
                callers.setdefault(callee.ref, []).append(event.held)

    for ref, summary in summaries.items():
        unguarded = [e for e in summary.events
                     if e.kind == "global_write" and not e.held]
        if not unguarded:
            continue
        call_helds = callers.get(ref)
        if call_helds and all(held for held in call_helds):
            continue  # only ever invoked under a lock
        for event in unguarded:
            emit("SY004", ref,
                 f"module-level mutable {event.resource!r} written with "
                 "no lock held in a threading-aware module",
                 summary.path, event.lineno)

    # -- SY005: barrier divergence --------------------------------------
    for ref, summary in summaries.items():
        counts = summary.barrier_counts
        if counts is None or not summary.barrier_lines:
            continue
        nonzero = {c for c in counts if c > 0}
        if len(nonzero) > 1:
            emit("SY005", ref,
                 "barrier divergence: non-exempt paths through this "
                 f"function wait at {sorted(nonzero)} barriers "
                 "depending on the branch taken; peers blocked at the "
                 "extra barrier(s) never get released",
                 summary.path,
                 summary.barrier_lines[0])

    return findings


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
@dataclass
class SynccheckReport(Gated):
    findings: List[Finding] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "findings": [f.to_json() for f in self.findings],
        }

    def summary_lines(self) -> List[str]:
        lines = [f.line() for f in self.findings]
        lines.append("synccheck: OK" if self.ok else "synccheck: FINDINGS")
        return lines


def run_synccheck() -> SynccheckReport:
    """The synccheck document: the SY0xx lint over the runtime corpus."""
    return SynccheckReport(lint_sync())
