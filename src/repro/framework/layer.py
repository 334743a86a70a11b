"""Layer base class, the chunk protocol, and the layer type registry.

Every layer mirrors the structure of the paper's Algorithms 2 and 3: a
nest of loops over the dimensions ``(S, D1, ..., DN)`` of the input blob,
applying a BLAS transformation per data segment.  The coarse-grain
parallelization (Algorithms 4 and 5) coalesces the outermost ``k`` of
those loops into a single iteration variable ``civ`` and distributes
contiguous ranges of ``civ`` across threads.

To make that *network-agnostic* — applicable to any layer without knowing
its computation — the base class defines the **chunk protocol**:

* :meth:`Layer.forward_space` — the coalesced iteration count of the
  forward pass (``S * D1 * ... * Dk``).
* :meth:`Layer.forward_chunk` — process iterations ``[lo, hi)`` of the
  forward pass.  Chunks write disjoint regions of the top blob, so threads
  need no synchronization.
* :meth:`Layer.backward_space` / :meth:`Layer.backward_chunk` — same for
  the backward pass.  ``backward_chunk`` receives *private* gradient
  buffers (one per parameter blob) to accumulate coefficient gradients
  into; the runtime merges them with an ordered reduction (Algorithm 5,
  lines 22-24).  Bottom-diff regions of distinct chunks are disjoint, so
  they are written directly.

The sequential path is *defined as* the chunk path over the full range —
``forward_cpu == forward_chunk(0, forward_space)`` — which is what makes
the parallel execution bitwise-comparable to the sequential one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.framework.blob import Blob
from repro.framework.net_spec import LayerSpec
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    infer_layer,
    shape_rule_for,
)

# ---------------------------------------------------------------------------
# write-footprint classification (the parallel-safety contract)
# ---------------------------------------------------------------------------
# Classification of a pass's writes with respect to the coalesced iteration
# space.  The coarse-grain runtime may distribute a pass across threads only
# when its writes are SAMPLE_DISJOINT (each iteration owns the regions it
# writes), REDUCTION (cross-iteration accumulation routed through the
# privatized ``param_grads`` buffers), or SEQUENTIAL (the pass runs as a
# single chunk; data layers).  UNKNOWN and UNSAFE mark layers the analyzer
# could not prove safe, respectively proved unsafe.
SAMPLE_DISJOINT = "sample_disjoint"
REDUCTION = "reduction"
SEQUENTIAL = "sequential"
UNKNOWN = "unknown"
UNSAFE = "unsafe"

#: Classifications a layer may *declare* (UNKNOWN/UNSAFE are verdicts the
#: analyzer produces, never valid declarations).
DECLARABLE_FOOTPRINTS = (SAMPLE_DISJOINT, REDUCTION, SEQUENTIAL)


@dataclass(frozen=True)
class FootprintDecl:
    """A layer's declared write footprint, checked by ``repro.analysis``.

    Attributes
    ----------
    forward / backward:
        Classification of the pass's writes (one of
        :data:`DECLARABLE_FOOTPRINTS`).
    reduction_params:
        Indices into ``self.blobs`` whose gradients the backward pass
        *accumulates* into the privatized ``param_grads`` buffers.  Must be
        non-empty exactly when ``backward == REDUCTION``.
    scratch:
        Names of instance attributes (numpy arrays) that chunk methods
        write, sliced by the chunk bounds — per-sample partials like a
        loss layer's ``_per_sample``.  Any other attribute write inside a
        chunk is hidden shared state and is flagged.
    """

    forward: str = SAMPLE_DISJOINT
    backward: str = SAMPLE_DISJOINT
    reduction_params: Tuple[int, ...] = ()
    scratch: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for label, value in (("forward", self.forward),
                             ("backward", self.backward)):
            if value not in DECLARABLE_FOOTPRINTS:
                raise ValueError(
                    f"footprint {label}={value!r} is not declarable; "
                    f"expected one of {DECLARABLE_FOOTPRINTS}"
                )
        if (self.backward == REDUCTION) != bool(self.reduction_params):
            raise ValueError(
                "reduction_params must be declared exactly when "
                f"backward == {REDUCTION!r} (got backward={self.backward!r}, "
                f"reduction_params={self.reduction_params})"
            )


# ---------------------------------------------------------------------------
# RNG provenance (the determinism contract, checked by repro.analysis.detcheck)
# ---------------------------------------------------------------------------
#: Where a layer's RNG draws happen.  ``setup`` — only during
#: :meth:`Layer.layer_setup` (parameter fillers; one fixed draw sequence
#: per construction).  ``per_forward`` — once per forward pass, in the
#: *sequential* :meth:`Layer.reshape` prologue (Dropout's mask), so the
#: draw count and order never depend on the thread count or chunking.
#: Draws inside chunk methods are never declarable: they are a
#: nondeterminism hazard by construction (lint DC004).
RNG_SETUP = "setup"
RNG_PER_FORWARD = "per_forward"

_RNG_DRAW_SITES = (RNG_SETUP, RNG_PER_FORWARD)
_RNG_FALLBACKS = ("constant", "stable_digest")


@dataclass(frozen=True)
class RNGDecl:
    """A layer's declared RNG provenance, checked by the determinism
    certifier (``repro.analysis.detcheck``).

    Attributes
    ----------
    seed_params:
        Spec parameter names the seed is read from (e.g.
        ``("filler_seed",)``); detcheck verifies the layer source actually
        reads each one.
    fallback:
        How the seed defaults when the spec omits every ``seed_params``
        entry: ``"constant"`` (a literal default) or ``"stable_digest"``
        (a process-invariant digest of the layer name via
        :func:`repro.framework.fillers.stable_seed` — never ``hash()``,
        which is salted per process under hash randomization).
    draws:
        :data:`RNG_SETUP` or :data:`RNG_PER_FORWARD` (see above).
    """

    seed_params: Tuple[str, ...]
    fallback: str = "constant"
    draws: str = RNG_SETUP

    def __post_init__(self) -> None:
        if not self.seed_params:
            raise ValueError(
                "an RNGDecl must name at least one seed parameter; a layer "
                "without seedable RNG should declare no provenance at all"
            )
        if self.fallback not in _RNG_FALLBACKS:
            raise ValueError(
                f"RNGDecl fallback={self.fallback!r} is not one of "
                f"{_RNG_FALLBACKS}"
            )
        if self.draws not in _RNG_DRAW_SITES:
            raise ValueError(
                f"RNGDecl draws={self.draws!r} is not one of "
                f"{_RNG_DRAW_SITES}"
            )


# ---------------------------------------------------------------------------
# performance allow-list (the perf contract, checked by repro.analysis.perfcheck)
# ---------------------------------------------------------------------------
#: Allowance categories a :class:`PerfDecl` may grant, keyed by the PE lint
#: rule each one silences.  ``float64`` — deliberate double-precision
#: accumulation in chunk code (PE001).  ``allocs`` — array-constructing
#: calls in chunk code that cannot (or need not) route through the scratch
#: pool (PE002).  ``copies`` — deliberate contiguity copies feeding BLAS
#: (PE003).  ``loops`` — Python-level loops over iteration-space-sized
#: ranges that are the architecture, not an accident (PE004): one BLAS call
#: per coalesced iteration (or per block of them), priced as ``segments``
#: dispatch by the cost model.
_PERF_CATEGORIES = ("float64", "allocs", "copies", "loops")


@dataclass(frozen=True)
class PerfDecl:
    """A layer's declared performance allow-list, checked by the
    performance certifier (``repro.analysis.perfcheck``).

    Each field names the layer's *own* methods (chunk-reachable code) in
    which the corresponding anti-pattern is deliberate.  An allowance
    silences the matching PE lint rule for that method only; the lint
    still flags the construct anywhere undeclared, and flags stale
    allowances that no longer match any construct (PE005).  Inherited
    declarations never vouch for a subclass's own code.

    Attributes
    ----------
    float64:
        Methods that deliberately compute in ``np.float64`` — fixed-order
        double accumulation backing the bitwise-invariance contract
        (e.g. Scale's per-channel coefficient gradients).
    allocs:
        Methods whose array-constructing calls are deliberate: either the
        allocation is batch-sized-but-cheap (boolean masks, ``arange``
        index vectors) or has no pooled equivalent (``np.stack`` over a
        variable bottom list).
    copies:
        Methods whose explicit contiguity copies (``ascontiguousarray``,
        strided ``ravel``) feed BLAS calls that require contiguous
        operands.
    loops:
        Methods whose Python-level loop over an iteration-space-sized
        range is the documented chunking design (per-civ BLAS dispatch).
    note:
        One-line justification, required — a declaration without a *why*
        is just a silenced warning.
    """

    float64: Tuple[str, ...] = ()
    allocs: Tuple[str, ...] = ()
    copies: Tuple[str, ...] = ()
    loops: Tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        if not self.note.strip():
            raise ValueError(
                "a PerfDecl must carry a non-empty note explaining why "
                "the declared constructs are deliberate"
            )
        if not any(getattr(self, cat) for cat in _PERF_CATEGORIES):
            raise ValueError(
                "a PerfDecl must grant at least one allowance; a layer "
                "with no deliberate perf anti-patterns should declare "
                "no PerfDecl at all"
            )
        for cat in _PERF_CATEGORIES:
            methods = getattr(self, cat)
            if not isinstance(methods, tuple) or not all(
                isinstance(m, str) and m for m in methods
            ):
                raise ValueError(
                    f"PerfDecl {cat} must be a tuple of method names, "
                    f"got {methods!r}"
                )


@dataclass
class LoopSpec:
    """One parallel loop of a layer's backward pass.

    ``body(lo, hi, grads)`` processes coalesced iterations ``[lo, hi)``.
    When :attr:`reduction` is set, ``grads`` holds private accumulation
    buffers (flat, one per entry of :attr:`grad_targets`) that the runtime
    merges into the targets afterwards; otherwise ``grads`` is the target
    list itself (the body writes disjoint regions directly).
    """

    space: int
    body: Callable[[int, int, Sequence[np.ndarray]], None]
    reduction: bool = False
    grad_targets: Tuple[np.ndarray, ...] = field(default_factory=tuple)
    block: int = 1

LayerParams = Dict[str, object]

_REGISTRY: Dict[str, Type["Layer"]] = {}


def register_layer(*type_names: str) -> Callable[[Type["Layer"]], Type["Layer"]]:
    """Class decorator registering a layer under one or more type names."""

    def decorator(cls: Type["Layer"]) -> Type["Layer"]:
        for type_name in type_names:
            key = type_name.lower()
            if key in _REGISTRY:
                raise ValueError(f"layer type {type_name!r} registered twice")
            _REGISTRY[key] = cls
        cls.type_names = tuple(type_names)
        return cls

    return decorator


def registered_layer_class(type_name: str) -> Type["Layer"] | None:
    """The class registered under ``type_name``, or None."""
    return _REGISTRY.get(type_name.lower())


def runs_sequential(type_name: str) -> bool:
    """Whether the class registered under ``type_name`` declares
    ``FootprintDecl(forward=SEQUENTIAL)``: its pass runs as one chunk
    (the data feeders).  The one place that question is answered."""
    cls = registered_layer_class(type_name)
    decl = cls.write_footprint if cls is not None else None
    return decl is not None and decl.forward == SEQUENTIAL


def create_layer(spec: LayerSpec) -> "Layer":
    """Instantiate the registered layer class for ``spec.type``."""
    cls = registered_layer_class(spec.type)
    if cls is None:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown layer type {spec.type!r}; known types: {known}")
    return cls(spec)


def registered_layer_types() -> List[str]:
    return sorted(_REGISTRY)


class Layer:
    """Base class of all layers.

    Subclasses implement :meth:`forward_chunk` and
    :meth:`backward_chunk` and register a shape rule
    (:func:`~repro.framework.shape_inference.register_shape_rule`);
    shapes, the iteration space and parameter shapes come from that rule
    through :meth:`reshape`, and everything else (sequential drivers,
    gradient-space defaults) is derived.
    """

    type_names: tuple = ()

    #: Declared write footprint (see :class:`FootprintDecl`).  ``None``
    #: means undeclared; ``repro.analysis`` flags any class that defines
    #: its own chunk methods without also declaring a footprint.
    write_footprint: FootprintDecl | None = None

    #: Declared RNG provenance (see :class:`RNGDecl`).  ``None`` means the
    #: layer draws no random numbers; ``repro.analysis.detcheck`` flags any
    #: class whose own methods construct an RNG without declaring where its
    #: seed comes from and when it draws (lint DC006).
    rng_provenance: RNGDecl | None = None

    #: Declared performance allow-list (see :class:`PerfDecl`).  ``None``
    #: means the layer's chunk code contains no deliberate perf
    #: anti-patterns; ``repro.analysis.perfcheck`` flags any undeclared
    #: float64 upcast, hot-loop allocation, contiguity copy, or
    #: iteration-space-sized Python loop in chunk-reachable code
    #: (lints PE001-PE004), and flags stale declarations (PE005).
    perf_decl: PerfDecl | None = None

    def __init__(self, spec: LayerSpec) -> None:
        self.spec = spec
        self.name = spec.name
        #: Parameter blobs (coefficients), e.g. ``[weights, bias]``.
        self.blobs: List[Blob] = []
        #: Per-top-blob loss weights; non-zero marks a loss output.
        self.loss_weights: List[float] = []
        #: What the registered shape rule derives from the current bottom
        #: shapes: top shapes, forward space, parameter shapes.  ``None``
        #: for a layer that shapes itself (the feeders, rule-less layers).
        self.geometry: RuleResult | None = None
        self._geometry_for: Tuple[Tuple[int, ...], ...] | None = None
        self._setup_done = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        """One-time initialization: validate counts, derive the geometry,
        create parameters (from ``self.geometry.param_shapes``).

        A layer without bottoms is where shapes *enter* the net: it has
        nothing to derive from and shapes itself in its own
        :meth:`reshape`.
        """
        self.check_blob_counts(bottom, top)
        self._geometry_for, self._setup_done = None, False  # also on re-setup
        if bottom and shape_rule_for(self.spec.type) is not None:
            self._derive_geometry(bottom, top)
        self.layer_setup(bottom, top)
        self.reshape(bottom, top)
        self.loss_weights = [0.0] * len(top)
        default = self.default_loss_weight()
        weight = self.spec.loss_weight
        if weight is None:
            weight = default
        if weight:
            self.loss_weights[0] = float(weight)
        self._setup_done = True

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        """Subclass hook: create parameter blobs, parse params."""

    # ------------------------------------------------------------------
    # RNG stream capture (checkpoint / resume)
    # ------------------------------------------------------------------
    def rng_state(self):
        """JSON-serializable state of this layer's live RNG stream, or
        ``None`` when the layer holds no persistent generator.

        The convention backing every stock layer: a layer that draws
        random numbers *per forward pass* (``RNG_PER_FORWARD``, e.g.
        Dropout's mask stream) keeps its generator in ``self._rng``;
        setup-only draws (weight fillers) use ephemeral generators that
        never need checkpointing.  A resume that skipped this state
        would silently fork the mask sequence — exactly the bug the
        resilience checkpoint format refuses to allow.
        """
        rng = getattr(self, "_rng", None)
        if rng is None:
            return None
        return rng.bit_generator.state

    def set_rng_state(self, state) -> None:
        """Restore a :meth:`rng_state` capture into the live generator."""
        rng = getattr(self, "_rng", None)
        if rng is None:
            raise ValueError(
                f"layer {self.name!r} has no persistent RNG stream to "
                "restore into"
            )
        rng.bit_generator.state = state

    # ------------------------------------------------------------------
    # shaping: one path, through the registered shape rule
    # ------------------------------------------------------------------
    def _derive_geometry(
        self, bottom: Sequence[Blob], top: Sequence[Blob]
    ) -> bool:
        """Re-run the shape rule if the bottom shapes moved since the
        last call; True when it did.  The rule is the one validator: a
        bad spec or bottom raises its ``ShapeError`` here, naming the
        layer, exactly as ``infer_net`` reports it."""
        shapes = tuple(b.shape for b in bottom)
        if shapes == self._geometry_for:
            return False
        spec = self.spec
        if (len(spec.bottoms), len(spec.tops)) != (len(bottom), len(top)):
            # Driven outside a Net (tests, the gradient checker) the spec
            # names no wiring; the blobs it is called with are the truth.
            spec = replace(spec, bottoms=[b.name for b in bottom],
                           tops=[t.name for t in top])
        geometry = infer_layer(spec, [BlobInfo(shape) for shape in shapes])
        if self._setup_done and (
                geometry.param_shapes != self.geometry.param_shapes):
            raise ValueError(
                f"layer {self.name!r}: bottom shapes {shapes} need "
                f"parameters of shape {geometry.param_shapes}, but it was "
                f"set up with {self.geometry.param_shapes} (input inner "
                "size / channel count changed after setup)"
            )
        self.geometry, self._geometry_for = geometry, shapes
        return True

    def reshape(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        """Shape the top blobs from the bottoms, through the shape rule.

        The rule runs only when a bottom shape changed (and once at
        setup); :meth:`shape_changed` then sizes work arrays.  Tops are
        brought to ``self.geometry.tops`` on every call — a tuple compare
        when nothing moved, and an in-place top already has its shape.
        A layer with no registered rule overrides this wholesale.
        """
        changed = self._derive_geometry(bottom, top) or not self._setup_done
        for blob, info in zip(top, self.geometry.tops):
            if blob.shape != info.shape:
                blob.reshape(info.shape)
        if changed:
            self.shape_changed(bottom, top)

    def shape_changed(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        """Subclass hook: size work arrays and derived extents.  Runs
        after the tops are shaped, at setup and whenever
        ``self.geometry`` was re-derived.  Arrays it allocates live until
        the next shape change, so a kernel that writes one only in part
        must clear it in its per-forward prologue, not here."""

    def default_loss_weight(self) -> float:
        """Loss layers override this to return 1.0."""
        return 0.0

    # ------------------------------------------------------------------
    # blob-count contracts
    # ------------------------------------------------------------------
    exact_num_bottom: int | None = None
    min_num_bottom: int | None = None
    max_num_bottom: int | None = None
    exact_num_top: int | None = None
    min_num_top: int | None = None
    max_num_top: int | None = None

    def check_blob_counts(
        self, bottom: Sequence[Blob], top: Sequence[Blob]
    ) -> None:
        def check(label: str, blobs: Sequence[Blob], exact, lo, hi) -> None:
            n = len(blobs)
            if exact is not None and n != exact:
                raise ValueError(
                    f"layer {self.name!r}: expected exactly {exact} {label} "
                    f"blob(s), got {n}"
                )
            if lo is not None and n < lo:
                raise ValueError(
                    f"layer {self.name!r}: expected at least {lo} {label} "
                    f"blob(s), got {n}"
                )
            if hi is not None and n > hi:
                raise ValueError(
                    f"layer {self.name!r}: expected at most {hi} {label} "
                    f"blob(s), got {n}"
                )

        check("bottom", bottom, self.exact_num_bottom, self.min_num_bottom,
              self.max_num_bottom)
        check("top", top, self.exact_num_top, self.min_num_top,
              self.max_num_top)

    # ------------------------------------------------------------------
    # chunk protocol (the coarse-grain iteration space)
    # ------------------------------------------------------------------
    def forward_space(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> int:
        """Total coalesced iterations of the forward pass.

        What the shape rule reported (Algorithm 4's
        ``S * D1 * ... * Dk``); for a layer that shapes itself, the
        batch size (pure batch-level parallelism, no coalescing).
        """
        if self.geometry is not None:
            return self.geometry.forward_space
        return bottom[0].shape[0] if bottom and bottom[0].num_axes else 1

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        """Process forward iterations ``[lo, hi)``; must write only the
        top regions owned by those iterations."""
        raise NotImplementedError

    def backward_space(self, top: Sequence[Blob], bottom: Sequence[Blob]) -> int:
        """Total coalesced iterations of the backward pass (defaults to
        the forward space)."""
        return self.forward_space(bottom, top)

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        """Process backward iterations ``[lo, hi)``.

        ``param_grads`` holds one flat array per parameter blob;
        coefficient gradients for the chunk are *accumulated* into them
        (the privatized ``private-diffs`` of Algorithm 5).  Bottom diffs
        owned by the chunk are written directly (disjoint regions).
        """
        raise NotImplementedError

    def forward_finalize(
        self, bottom: Sequence[Blob], top: Sequence[Blob]
    ) -> None:
        """Sequential epilogue run once after all forward chunks.

        Layers whose top is a reduction over samples (losses, accuracy)
        compute per-sample partials in :meth:`forward_chunk` and fold them
        here, in fixed sample order — keeping the scalar bitwise identical
        for any thread count.
        """

    def grad_block(self, space: int, batch: int) -> int:
        """Accumulation-block size for deterministic gradient merges.

        The runtime never lets a gradient accumulation block straddle two
        threads; see :mod:`repro.core.reduction`.  The default is the
        per-sample extent of the coalesced space.
        """
        if batch <= 0 or space <= 0:
            return max(space, 1)
        per_sample = space // batch
        return max(per_sample, 1)

    def backward_loops(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
    ) -> List[LoopSpec]:
        """The backward pass as a list of parallel loops.

        The default is a single loop over :meth:`backward_space` calling
        :meth:`backward_chunk`, requiring a privatized reduction exactly
        when the layer has coefficients.  Layers can override to decompose
        differently (e.g. InnerProduct computes weight gradients over
        disjoint output rows, avoiding the reduction entirely).
        """
        space = self.backward_space(top, bottom)
        batch = bottom[0].shape[0] if bottom and bottom[0].num_axes else 1

        def body(lo: int, hi: int, grads: Sequence[np.ndarray]) -> None:
            self.backward_chunk(top, propagate_down, bottom, lo, hi, grads)

        return [
            LoopSpec(
                space=space,
                body=body,
                reduction=bool(self.blobs),
                grad_targets=tuple(blob.flat_diff for blob in self.blobs),
                block=self.grad_block(space, batch),
            )
        ]

    # ------------------------------------------------------------------
    # sequential drivers (defined via the chunk path)
    # ------------------------------------------------------------------
    def forward(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> float:
        """Sequential forward pass; returns this layer's loss contribution."""
        self.reshape(bottom, top)
        space = self.forward_space(bottom, top)
        self.forward_chunk(bottom, top, 0, space)
        self.forward_finalize(bottom, top)
        loss = 0.0
        for top_blob, weight in zip(top, self.loss_weights):
            if weight:
                loss += weight * float(top_blob.flat_data[0])
        return loss

    def backward(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
    ) -> None:
        """Sequential backward pass, accumulating into ``self.blobs`` diffs.

        Defined as each backward loop run over its full range with the
        real diffs as accumulation targets — the same code path the
        parallel runtime chunks, which is what makes the two executions
        comparable value-for-value.
        """
        for loop in self.backward_loops(top, propagate_down, bottom):
            loop.body(0, loop.space, loop.grad_targets)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def footprint(self) -> FootprintDecl | None:
        """Effective footprint of this instance.

        Declarations are written against the layer's maximal parameter
        set; instances with fewer parameter blobs (e.g. a convolution
        without a bias term) get their ``reduction_params`` clipped.
        """
        decl = self.write_footprint
        if decl is None or not decl.reduction_params:
            return decl
        clipped = tuple(i for i in decl.reduction_params
                        if i < len(self.blobs))
        if clipped == decl.reduction_params:
            return decl
        if not clipped:
            # No surviving reduction target: the pass degenerates to a
            # disjoint one (nothing left to accumulate).
            return FootprintDecl(
                forward=decl.forward, backward=SAMPLE_DISJOINT,
                scratch=decl.scratch,
            )
        return FootprintDecl(
            forward=decl.forward, backward=decl.backward,
            reduction_params=clipped, scratch=decl.scratch,
        )

    @property
    def type(self) -> str:
        return self.spec.type

    def param_memory_bytes(self) -> int:
        """Bytes of coefficient storage (used by the memory experiment)."""
        return sum(blob.nbytes for blob in self.blobs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
