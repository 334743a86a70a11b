"""Symbolic shape/dtype inference rules for the layer zoo.

The net graph's blob shapes are fully determined by the layer parameters
(paper Section 3: the coalesced iteration space and blob layouts are
derivable before a single sample is processed), yet historically they
only existed after :class:`~repro.framework.net.Net` instantiated layers
and allocated blobs.  This module closes that gap: every layer module
registers one **inference rule** — a pure function from the layer's
:class:`~repro.framework.net_spec.LayerSpec` and the symbolic shapes of
its bottoms to the symbolic shapes of its tops — with no layer
instantiation, no parameter filling and no blob allocation.

Rules are registered alongside the layer classes (same module, same
import side effect), so importing :mod:`repro.framework.layers` loads
both registries in lockstep.  There are two consumers and one answer:
:meth:`Layer.reshape` shapes a live layer's tops, iteration space and
parameter blobs from its rule's result (``layer.geometry``), and
:func:`repro.framework.symbolic.infer_net` walks a spec DAG through the
same rules for netcheck's shape tables and lint findings, the planner
and the cost model.

A rule may additionally report:

* ``forward_space`` — the coalesced forward iteration count, which
  :meth:`Layer.forward_space` returns (defaults to the batch extent of
  the first bottom);
* ``param_shapes`` — shapes of the parameter blobs the layer creates;
* ``notes`` — ``(kind, message)`` diagnostics for legal-but-lossy
  geometry (e.g. a conv stride that drops boundary pixels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.framework.net_spec import LayerSpec

#: dtype name of every runtime blob (single precision, blob.py DTYPE).
FLOAT = "float32"

#: Note kinds a rule may attach (netcheck maps them to lint codes).
NOTE_DROPPED_PIXELS = "dropped-pixels"
NOTE_SKIPPED_PIXELS = "skipped-pixels"


class ShapeError(ValueError):
    """A layer's bottoms are incompatible with its parameters."""


@dataclass(frozen=True)
class BlobInfo:
    """Symbolic stand-in for a :class:`~repro.framework.blob.Blob`."""

    shape: Tuple[int, ...]
    dtype: str = FLOAT

    @property
    def num_axes(self) -> int:
        return len(self.shape)

    @property
    def count(self) -> int:
        return math.prod(self.shape)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BlobInfo({self.shape}, {self.dtype})"


@dataclass
class RuleResult:
    """Everything a rule can tell the checker about one layer."""

    tops: List[BlobInfo]
    forward_space: Optional[int] = None
    param_shapes: List[Tuple[int, ...]] = field(default_factory=list)
    notes: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes)


RuleFn = Callable[[LayerSpec, Sequence[BlobInfo]], "RuleResult | List[BlobInfo]"]


@dataclass(frozen=True)
class ShapeRule:
    """A registered inference rule plus its protocol flags."""

    fn: RuleFn
    type_names: Tuple[str, ...]
    #: The layer tolerates ``top == bottom`` (chunk-write protocol: the
    #: pass reads an element only from the iteration that owns it).
    inplace_ok: bool = False
    #: The layer's top is a terminal output (loss/accuracy scalar) that
    #: is legitimately never consumed downstream.
    terminal_ok: bool = False

    @property
    def sequential(self) -> bool:
        """The layer executes as a single sequential chunk (data
        feeders) — declared on the registered class, not here."""
        from repro.framework.layer import runs_sequential

        return all(runs_sequential(name) for name in self.type_names)


_SHAPE_RULES: Dict[str, ShapeRule] = {}


def register_shape_rule(
    *type_names: str,
    inplace_ok: bool = False,
    terminal_ok: bool = False,
) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering an inference rule for one or more types."""

    def decorator(fn: RuleFn) -> RuleFn:
        rule = ShapeRule(
            fn=fn,
            type_names=tuple(type_names),
            inplace_ok=inplace_ok,
            terminal_ok=terminal_ok,
        )
        for type_name in type_names:
            key = type_name.lower()
            if key in _SHAPE_RULES:
                raise ValueError(
                    f"shape rule for {type_name!r} registered twice"
                )
            _SHAPE_RULES[key] = rule
        return fn

    return decorator


def shape_rule_for(type_name: str) -> Optional[ShapeRule]:
    """The registered rule for a layer type, or None."""
    return _SHAPE_RULES.get(type_name.lower())


def registered_shape_rule_types() -> List[str]:
    return sorted(_SHAPE_RULES)


def _require_extents(
    spec: LayerSpec, names: Sequence[str], shapes: Sequence[Tuple[int, ...]]
) -> None:
    """An empty blob (a feeder with batch 0, ``num_output: 0``) carries
    no work to run, cost or schedule; the formulas downstream divide by
    its extents."""
    for name, shape in zip(names, shapes):
        if any(dim <= 0 for dim in shape):
            raise ShapeError(
                f"layer {spec.name!r}: blob {name!r} has a "
                f"non-positive extent in shape {tuple(shape)}"
            )


def infer_layer(spec: LayerSpec, bottoms: Sequence[BlobInfo]) -> RuleResult:
    """Run the registered rule for ``spec.type`` — the one validator and
    the one source of a layer's geometry, for :meth:`Layer.reshape` and
    :func:`~repro.framework.symbolic.infer_net` alike.

    Raises :class:`ShapeError` when bottoms are incompatible, the rule's
    tops do not match the declared ones or any extent is non-positive,
    KeyError when the layer type has no rule, and normalizes bare top
    lists into a :class:`RuleResult` with the base-class forward space
    (the batch extent of the first bottom, or 1).
    """
    rule = shape_rule_for(spec.type)
    if rule is None:
        raise KeyError(f"no shape rule for layer type {spec.type!r}")
    _require_extents(spec, spec.bottoms, [b.shape for b in bottoms])
    result = rule.fn(spec, list(bottoms))
    if not isinstance(result, RuleResult):
        result = RuleResult(tops=list(result))
    if len(result.tops) != len(spec.tops):
        raise ShapeError(
            f"layer {spec.name!r}: rule produced {len(result.tops)} tops "
            f"for {len(spec.tops)} declared top(s)"
        )
    _require_extents(spec, spec.tops, [t.shape for t in result.tops])
    _require_extents(
        spec, [f"param {i}" for i in range(len(result.param_shapes))],
        result.param_shapes,
    )
    if result.forward_space is None:
        if rule.sequential:
            result.forward_space = 1
        elif bottoms and bottoms[0].num_axes:
            result.forward_space = bottoms[0].shape[0]
        else:
            result.forward_space = 1
    return result


# ---------------------------------------------------------------------------
# shared geometry helpers used by several rules
# ---------------------------------------------------------------------------
def require_axes(spec: LayerSpec, blob: BlobInfo, axes: int) -> None:
    if blob.num_axes != axes:
        raise ShapeError(
            f"layer {spec.name!r} ({spec.type}) needs a {axes}-d bottom, "
            f"got shape {blob.shape}"
        )


def canonical_axis(spec: LayerSpec, blob: BlobInfo, axis: int) -> int:
    n = blob.num_axes
    if not -n <= axis < n:
        raise ShapeError(
            f"layer {spec.name!r}: axis {axis} out of range for "
            f"{n}-d shape {blob.shape}"
        )
    return axis % n
