"""Static nondeterminism lint: the DC0xx half of the determinism certifier.

Convergence invariance (paper Section 3.2.1) is only as strong as the
weakest random stream in the pipeline.  A single ``hash()``-salted seed,
one RNG constructed without a seed, or a random draw whose order depends
on how samples were chunked across threads silently breaks the property
the runtime works so hard to deliver.  This module finds those hazards
from the source, before anything runs:

* **Source scan** (:func:`lint_sources`) — every file of
  ``repro.core``, ``repro.framework`` and ``repro.data`` is parsed and
  checked for: unseeded RNG construction (DC001), process-salted seeds
  derived from ``hash()``/``id()`` (DC002), wall-clock/OS-entropy values
  flowing into RNG state (DC003), and use of the legacy global numpy
  stream (DC005).
* **Layer-class scan** (:func:`analyze_layer_rng`) — every registered
  layer class is checked against the RNG provenance its own
  :class:`~repro.framework.layer.LayerContract` declares: draws in
  chunk-reachable methods are flagged unconditionally (DC004 — the draw
  order would depend on the schedule), a class constructing an RNG
  without naming its seed is flagged (DC006), and declarations are
  verified against the code — seed parameters actually read, the
  ``stable_seed`` fallback actually present, draws happening where the
  contract says (DC007).

Both are rules on :func:`repro.analysis.sources.visit`.

Like the footprint pass (FP codes) and netcheck (NG codes), findings are
coded and stable; ``--gate`` fails on any ERROR.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.report import Finding
from repro.analysis.sources import (
    Rule,
    _dotted,
    _terminal_name,
    builtin_layer_classes,
    own_contract,
    package_roots,
    visit,
)
from repro.framework.layer import RNG_SETUP

#: Constructors that create an independent RNG stream.
_RNG_CONSTRUCTORS = {"default_rng", "RandomState"}

#: Generator draw methods (new-style ``np.random.Generator`` API).
_DRAW_METHODS = {
    "random", "normal", "uniform", "integers", "standard_normal",
    "choice", "shuffle", "permutation", "permuted", "exponential",
    "poisson", "binomial", "beta", "gamma", "bytes",
}

#: Legacy module-level numpy RNG entry points (the hidden global stream).
_LEGACY_GLOBAL_DRAWS = {
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "seed", "get_state", "set_state",
}

#: OS-entropy sources: nondeterministic anywhere in the numeric pipeline.
_ENTROPY_CALLS = {
    ("os", "urandom"), ("os", "getrandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("secrets", "token_bytes"), ("secrets", "token_hex"),
    ("secrets", "randbelow"), ("secrets", "randbits"),
}

#: Wall-clock reads: legitimate for instrumentation (``core/trace.py``
#: times layers), a hazard only when the value feeds RNG state — flagged
#: when found inside an RNG constructor's seed expression.
_WALLCLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("datetime", "now"),
    ("datetime", "utcnow"), ("os", "getpid"),
}

def _is_rng_construction(call: ast.Call) -> bool:
    return _terminal_name(call.func) in _RNG_CONSTRUCTORS


def _is_unseeded(call: ast.Call) -> bool:
    if call.args:
        return False
    return not any(kw.arg == "seed" for kw in call.keywords)


def _call_matches(call: ast.Call, table) -> bool:
    chain = _dotted(call.func)
    if chain is None or len(chain) < 2:
        return False
    # match on the last two links so `datetime.datetime.now` hits
    # ("datetime", "now") and `time.time` hits ("time", "time").
    return (chain[-2], chain[-1]) in table


def _is_legacy_global_draw(call: ast.Call) -> bool:
    chain = _dotted(call.func)
    if chain is None or len(chain) != 3:
        return False
    module, group, attr = chain
    return (module in ("np", "numpy") and group == "random"
            and attr in _LEGACY_GLOBAL_DRAWS)


def _is_rng_draw(call: ast.Call) -> bool:
    """A draw off something that is recognizably a generator object."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in _DRAW_METHODS:
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return "rng" in receiver.id.lower()
    if isinstance(receiver, ast.Attribute):
        return "rng" in receiver.attr.lower()
    return False


class _SourceRule(Rule):
    """DC001/DC002/DC003/DC005 on every call of the corpus."""

    code = "DC001"

    def __init__(self) -> None:
        # A hash() inside a seed expression is met twice (once via the
        # seed walk, once as a bare call) — report each site once.
        self.seen: Set[Tuple[str, str]] = set()

    def visit_Call(self, node: ast.Call, site) -> List[Finding]:
        findings: List[Finding] = []

        def emit(rule: str, node: ast.AST, message: str) -> None:
            finding = site.finding(rule, node, message)
            if (rule, finding.location) not in self.seen:
                self.seen.add((rule, finding.location))
                findings.append(finding)

        name = _terminal_name(node.func)
        if _is_rng_construction(node):
            if _is_unseeded(node):
                emit("DC001", node,
                     f"{name}() constructed without a seed draws its "
                     "state from OS entropy; every process gets a "
                     "different stream")
            else:
                # DC002/DC003 inside the seed expression.
                for arg in list(node.args) + [kw.value for kw in
                                              node.keywords]:
                    for sub in ast.walk(arg):
                        if not isinstance(sub, ast.Call):
                            continue
                        sub_name = _terminal_name(sub.func)
                        if (isinstance(sub.func, ast.Name)
                                and sub_name in ("hash", "id")):
                            emit("DC002", sub,
                                 f"seed derived from {sub_name}(): salted "
                                 "per process under hash randomization "
                                 "(PYTHONHASHSEED); use a stable digest "
                                 "(repro.framework.fillers.stable_seed)")
                        elif (_call_matches(sub, _WALLCLOCK_CALLS)
                              or _call_matches(sub, _ENTROPY_CALLS)):
                            emit("DC003", sub,
                                 "seed derived from a wall-clock/entropy "
                                 f"source ({'.'.join(_dotted(sub.func))}); "
                                 "two runs can never replay each other")
        elif isinstance(node.func, ast.Name) and name == "hash":
            # Bare id() is fine as an identity-map key (net.py does this);
            # it is only a hazard when it feeds a seed, which the
            # seed-expression walk above catches.
            emit("DC002", node,
                 "hash() produces process-salted values; any seed or "
                 "ordering derived from it differs across interpreter "
                 "processes")
        elif _call_matches(node, _ENTROPY_CALLS):
            emit("DC003", node,
                 f"OS-entropy source {'.'.join(_dotted(node.func))} in "
                 "deterministic-pipeline code")
        elif _is_legacy_global_draw(node):
            emit("DC005", node,
                 f"legacy global numpy RNG (np.random.{name}): the hidden "
                 "shared stream couples draw order across unrelated call "
                 "sites; construct an explicit seeded Generator instead")
        return findings


#: The packages whose determinism the certifier vouches for.
LINT_PACKAGES = ("core", "framework", "data", "compiler")


def lint_sources(roots: Optional[Iterable[Path]] = None) -> List[Finding]:
    """Run the DC0xx source scan over every ``.py`` file under ``roots``."""
    if roots is None:
        roots = package_roots(*LINT_PACKAGES)
    return visit(roots, [_SourceRule()])


# ---------------------------------------------------------------------------
# layer-class provenance check (DC004 / DC006 / DC007)
# ---------------------------------------------------------------------------
class RNGSites(Rule):
    """What one class's own methods do with random streams."""

    def __init__(self) -> None:
        #: ``(method, line, runs per chunk)`` per construction and draw
        self.constructions: List[Tuple[str, int, bool]] = []
        self.draws: List[Tuple[str, int, bool]] = []
        self.strings: Set[str] = set()
        self.calls: Set[str] = set()
        #: a method assigns ``self._rng`` (what rng_state() captures)
        self.stores_self_rng = False

    def visit_Call(self, node: ast.Call, site) -> None:
        self.calls.add(_terminal_name(node.func))
        if _is_rng_construction(node):
            self.constructions.append((site.method, node.lineno, site.chunk))
        if _is_rng_draw(node) or _is_legacy_global_draw(node):
            self.draws.append((site.method, node.lineno, site.chunk))

    def visit_Constant(self, node: ast.Constant, site) -> None:
        if isinstance(node.value, str):
            self.strings.add(node.value)

    def visit_Assign(self, node: ast.Assign, site) -> None:
        self.stores_self_rng |= any(map(_is_self_rng, node.targets))

    def visit_AnnAssign(self, node: ast.AnnAssign, site) -> None:
        self.stores_self_rng |= _is_self_rng(node.target)


def _is_self_rng(target: ast.AST) -> bool:
    return (isinstance(target, ast.Attribute) and target.attr == "_rng"
            and isinstance(target.value, ast.Name)
            and target.value.id == "self")


@functools.lru_cache(maxsize=None)
def rng_sites(cls) -> RNGSites:
    """The RNG sites of the methods in the class's own ``__dict__``,
    found once per class (every MRO walk revisits ``Layer``); callers
    only read the result."""
    sites = RNGSites()
    visit([cls], [sites])
    return sites


def rng_owners(cls) -> List[type]:
    """The classes on ``cls``'s MRO whose own methods construct an RNG:
    the contracts that must describe the stream (DC103, RS003)."""
    return [c for c in cls.__mro__
            if c is not object and rng_sites(c).constructions]


def analyze_layer_rng(cls) -> List[Finding]:
    """DC004/DC006/DC007 over one layer class."""
    findings: List[Finding] = []
    sites = rng_sites(cls)
    contract = own_contract(cls)

    def error(rule: str, message: str) -> None:
        findings.append(Finding(rule=rule, layer=cls.__name__,
                                message=message))

    # DC004: draws (or constructions) inside chunk-parallel code.
    first_draw: Dict[str, int] = {}
    for method, lineno, chunk in sites.draws:
        if chunk:
            first_draw.setdefault(method, lineno)
    for method, lineno in sorted(first_draw.items()):
        error("DC004",
              f"RNG draw inside chunk method {method} (line {lineno}): the "
              "draw count and order depend on how iterations are chunked "
              "across threads, so no two schedules replay the same stream; "
              "draw in the sequential reshape() prologue instead")
    for method, lineno, chunk in sites.constructions:
        if chunk:
            error("DC004",
                  f"RNG constructed inside chunk method {method} (line "
                  f"{lineno}); per-chunk generators make the stream a "
                  "function of the schedule")

    # DC006: an inherited contract vouches only for inherited code; a
    # class writing its own RNG construction must name its own seed
    # (mirrors FP001 for footprints).
    if sites.constructions and not contract.seed_params:
        owners = sorted({method for method, _, _ in sites.constructions})
        error("DC006",
              f"constructs an RNG in {', '.join(owners)} but its contract "
              "names no seed_params; detcheck cannot certify where the "
              "seed comes from or when draws happen")

    # DC007: the contract against the code.
    for param in contract.seed_params:
        if param not in sites.strings:
            error("DC007", f"contract names seed param {param!r} but the "
                           "layer source never reads it")
    if (contract.fallback == "stable_digest"
            and "stable_seed" not in sites.calls):
        error("DC007", "contract declares fallback='stable_digest' but the "
                       "layer source never calls stable_seed")
    if contract.seed_params and contract.draws == RNG_SETUP and any(
            method == "reshape" for method, _, _ in sites.draws):
        error("DC007", "contract declares draws='setup' but reshape() draws "
                       "from the generator each forward pass; declare "
                       "draws='per_forward'")
    return findings


def analyze_layer_classes_rng(
    classes: Optional[Sequence[type]] = None,
) -> List[Finding]:
    """DC004/DC006/DC007 over every registered (or given) layer class."""
    if classes is None:
        classes = list(builtin_layer_classes().values())
    return [f for cls in classes for f in analyze_layer_rng(cls)]


def lint_rng() -> List[Finding]:
    """The full static DC0xx pass: source scan + layer provenance check."""
    return lint_sources() + analyze_layer_classes_rng()
