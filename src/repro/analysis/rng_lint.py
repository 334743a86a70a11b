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
  layer class is checked against its declared
  :class:`~repro.framework.layer.RNGDecl`: draws inside chunk-parallel
  methods are flagged unconditionally (DC004 — the draw order would
  depend on the schedule), a class constructing an RNG without a
  declaration is flagged (DC006), and declarations are verified against
  the code — seed parameters actually read, the ``stable_seed`` fallback
  actually present, draws happening where the declaration says (DC007).

Like the footprint pass (FP codes) and netcheck (NG codes), findings are
coded and stable; ``--gate`` fails on any ERROR.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.report import ERROR, Finding
from repro.analysis.sources import (
    _dotted,
    _is_chunk_method,
    _own_method_trees,
    _terminal_name,
    package_roots,
    walk_sources,
)

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


def _scan_tree(tree: ast.AST, where: str, path: str) -> List[Finding]:
    """DC001/DC002/DC003/DC005 over one parsed module or function."""
    findings: List[Finding] = []
    seen = set()

    def emit(rule: str, lineno: int, message: str) -> None:
        # A hash() inside a seed expression is visited twice by ast.walk
        # (once via the seed walk, once as a bare call) — report it once.
        if (rule, lineno) in seen:
            return
        seen.add((rule, lineno))
        findings.append(Finding(
            rule=rule, severity=ERROR, layer=where, message=message,
            location=f"{path}:{lineno}",
        ))

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if _is_rng_construction(node):
            if _is_unseeded(node):
                emit("DC001", node.lineno,
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
                            emit("DC002", sub.lineno,
                                 f"seed derived from {sub_name}(): salted "
                                 "per process under hash randomization "
                                 "(PYTHONHASHSEED); use a stable digest "
                                 "(repro.framework.fillers.stable_seed)")
                        elif (_call_matches(sub, _WALLCLOCK_CALLS)
                              or _call_matches(sub, _ENTROPY_CALLS)):
                            emit("DC003", sub.lineno,
                                 "seed derived from a wall-clock/entropy "
                                 f"source ({'.'.join(_dotted(sub.func))}); "
                                 "two runs can never replay each other")
        elif isinstance(node.func, ast.Name) and name == "hash":
            # Bare id() is fine as an identity-map key (net.py does this);
            # it is only a hazard when it feeds a seed, which the
            # seed-expression walk above catches.
            emit("DC002", node.lineno,
                 "hash() produces process-salted values; any seed or "
                 "ordering derived from it differs across interpreter "
                 "processes")
        elif _call_matches(node, _ENTROPY_CALLS):
            emit("DC003", node.lineno,
                 f"OS-entropy source {'.'.join(_dotted(node.func))} in "
                 "deterministic-pipeline code")
        elif _is_legacy_global_draw(node):
            emit("DC005", node.lineno,
                 f"legacy global numpy RNG (np.random.{name}): the hidden "
                 "shared stream couples draw order across unrelated call "
                 "sites; construct an explicit seeded Generator instead")
    return findings


#: The packages whose determinism the certifier vouches for.
LINT_PACKAGES = ("core", "framework", "data", "compiler")


def lint_sources(roots: Optional[Iterable[Path]] = None) -> List[Finding]:
    """Run the DC0xx source scan over every ``.py`` file under ``roots``."""
    findings: List[Finding] = []
    if roots is None:
        roots = package_roots(*LINT_PACKAGES)
    for path, tree in walk_sources(roots, "DC001", findings):
        findings.extend(_scan_tree(tree, f"<{path.stem}>", str(path)))
    return findings


# ---------------------------------------------------------------------------
# layer-class provenance check (DC004 / DC006 / DC007)
# ---------------------------------------------------------------------------
def _string_constants(trees: Dict[str, ast.FunctionDef]) -> set:
    consts = set()
    for node in trees.values():
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                consts.add(sub.value)
    return consts


def _calls_name(trees: Dict[str, ast.FunctionDef], name: str) -> bool:
    for node in trees.values():
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call)
                    and _terminal_name(sub.func) == name):
                return True
    return False


def class_constructs_rng(cls) -> bool:
    """Does any method defined by this class construct an RNG stream?"""
    for node in _own_method_trees(cls).values():
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and _is_rng_construction(sub):
                return True
    return False


def analyze_layer_rng(cls) -> List[Finding]:
    """DC004/DC006/DC007 over one layer class."""
    findings: List[Finding] = []
    trees = _own_method_trees(cls)
    cls_name = cls.__name__

    construction_sites: List[Tuple[str, int]] = []
    draw_sites: Dict[str, List[int]] = {}
    for method, node in trees.items():
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            if _is_rng_construction(sub):
                construction_sites.append((method, sub.lineno))
            if _is_rng_draw(sub) or _is_legacy_global_draw(sub):
                draw_sites.setdefault(method, []).append(sub.lineno)

    # DC004: draws (or constructions) inside chunk-parallel code.
    for method, lines in sorted(draw_sites.items()):
        if _is_chunk_method(method):
            findings.append(Finding(
                rule="DC004", severity=ERROR, layer=cls_name,
                message=(
                    f"RNG draw inside chunk method {method} (line "
                    f"{lines[0]}): the draw count and order depend on how "
                    "iterations are chunked across threads, so no two "
                    "schedules replay the same stream; draw in the "
                    "sequential reshape() prologue instead"
                ),
            ))
    for method, lineno in construction_sites:
        if _is_chunk_method(method):
            findings.append(Finding(
                rule="DC004", severity=ERROR, layer=cls_name,
                message=(
                    f"RNG constructed inside chunk method {method} (line "
                    f"{lineno}); per-chunk generators make the stream a "
                    "function of the schedule"
                ),
            ))

    decl = cls.__dict__.get("rng_provenance")
    if construction_sites and decl is None:
        # An inherited declaration vouches only for inherited code; a
        # class writing its own RNG construction must declare its own
        # provenance (mirrors FP001 for footprints).
        findings.append(Finding(
            rule="DC006", severity=ERROR, layer=cls_name,
            message=(
                "constructs an RNG in "
                f"{', '.join(sorted({m for m, _ in construction_sites}))} "
                "but declares no rng_provenance; detcheck cannot certify "
                "where the seed comes from or when draws happen"
            ),
        ))

    if decl is not None:
        consts = _string_constants(trees)
        for param in decl.seed_params:
            if param not in consts:
                findings.append(Finding(
                    rule="DC007", severity=ERROR, layer=cls_name,
                    message=(
                        f"rng_provenance names seed param {param!r} but "
                        "the layer source never reads it"
                    ),
                ))
        if decl.fallback == "stable_digest" and not _calls_name(
                trees, "stable_seed"):
            findings.append(Finding(
                rule="DC007", severity=ERROR, layer=cls_name,
                message=(
                    "rng_provenance declares fallback='stable_digest' but "
                    "the layer source never calls stable_seed"
                ),
            ))
        from repro.framework.layer import RNG_SETUP

        if decl.draws == RNG_SETUP:
            offenders = [m for m in draw_sites if m == "reshape"]
            if offenders:
                findings.append(Finding(
                    rule="DC007", severity=ERROR, layer=cls_name,
                    message=(
                        "rng_provenance declares draws='setup' but "
                        "reshape() draws from the generator each forward "
                        "pass; declare draws='per_forward'"
                    ),
                ))
    return findings


def analyze_layer_classes_rng(
    classes: Optional[Sequence[type]] = None,
) -> List[Finding]:
    """DC004/DC006/DC007 over every registered (or given) layer class."""
    if classes is None:
        from repro.analysis.footprint import builtin_layer_classes

        classes = list(builtin_layer_classes().values())
    findings: List[Finding] = []
    for cls in classes:
        findings.extend(analyze_layer_rng(cls))
    return findings


def lint_rng() -> List[Finding]:
    """The full static DC0xx pass: source scan + layer provenance check."""
    return lint_sources() + analyze_layer_classes_rng()
