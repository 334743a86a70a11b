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

A layer's pass has one body, :meth:`Layer.forward` / :meth:`Layer.backward`,
under every executor.  The body describes each of its parallel loops as
a :class:`LoopSpec` and hands it to a *chunk runner*
``run(layer_name, phase, loop)``; the runner is all an executor chooses.  The
sequential one (:func:`run_sequential`) is the single call
``loop.body(0, loop.space, loop.grad_targets)``, the coarse-grain executor
cuts ``[0, space)`` over its thread team, the race detector replays each
simulated thread's chunks.  That the sequential pass is the chunk path
over the full range is what makes the parallel execution
bitwise-comparable to it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
# the layer contract (what repro.analysis checks each class against)
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

#: Performance allowance categories, each silencing one PE lint rule:
#: ``float64`` (PE001), ``allocs`` (PE002), ``copies`` (PE003), ``loops``
#: (PE004).
PERF_CATEGORIES = ("float64", "allocs", "copies", "loops")


@dataclass(frozen=True)
class LayerContract:
    """What a layer class promises the analyzers (``repro.analysis``).

    A class declares one, ``contract = LayerContract(...)``, and it
    vouches only for the methods in that class's own ``__dict__``: an
    inherited contract never covers an override (FP001, DC006, PE005),
    and a check about an inherited method reads the contract of the class
    that defines it.

    Write footprint (the parallel-safety contract, FP codes):

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

    RNG provenance (the determinism contract, DC codes and RS003):

    seed_params:
        Spec parameter names the seed is read from (e.g.
        ``("filler_seed",)``); detcheck verifies the source reads each
        one.  Empty means the class's own methods construct no RNG.
    fallback:
        How the seed defaults when the spec omits every ``seed_params``
        entry: ``"constant"`` (a literal default) or ``"stable_digest"``
        (a process-invariant digest of the layer name via
        :func:`repro.framework.fillers.stable_seed` — never ``hash()``,
        which is salted per process under hash randomization).
    draws:
        :data:`RNG_SETUP` or :data:`RNG_PER_FORWARD` (see above).

    Performance allowances (PE codes), each naming the class's own
    chunk-reachable methods in which an anti-pattern is deliberate; the
    lint flags it everywhere else, and flags allowances that match no
    construct (PE005):

    float64:
        Fixed-order double accumulation backing the bitwise-invariance
        contract (e.g. Scale's per-channel coefficient gradients).
    allocs:
        Array constructions that are batch-sized-but-cheap (boolean
        masks, ``arange`` index vectors) or have no pooled equivalent
        (``np.stack`` over a variable bottom list).
    copies:
        Contiguity copies (``ascontiguousarray``, strided ``ravel``)
        feeding BLAS calls that require contiguous operands.
    loops:
        A Python loop over an iteration-space-sized range that is the
        chunking design: one BLAS call per coalesced iteration (or block
        of them), priced as ``segments`` dispatch by the cost model.
    note:
        The one-line *why*, required exactly when an allowance is
        granted — an allowance without one is just a silenced warning.
    """

    forward: str = SAMPLE_DISJOINT
    backward: str = SAMPLE_DISJOINT
    reduction_params: Tuple[int, ...] = ()
    scratch: Tuple[str, ...] = ()
    seed_params: Tuple[str, ...] = ()
    fallback: str = "constant"
    draws: str = RNG_SETUP
    float64: Tuple[str, ...] = ()
    allocs: Tuple[str, ...] = ()
    copies: Tuple[str, ...] = ()
    loops: Tuple[str, ...] = ()
    note: str = ""

    def __post_init__(self) -> None:
        for label in ("forward", "backward"):
            if getattr(self, label) not in DECLARABLE_FOOTPRINTS:
                raise ValueError(
                    f"footprint {label}={getattr(self, label)!r} is not "
                    f"declarable; expected one of {DECLARABLE_FOOTPRINTS}"
                )
        if (self.backward == REDUCTION) != bool(self.reduction_params):
            raise ValueError(
                "reduction_params must be declared exactly when "
                f"backward == {REDUCTION!r} (got backward={self.backward!r}, "
                f"reduction_params={self.reduction_params})"
            )
        for label, value, allowed in (("fallback", self.fallback,
                                       _RNG_FALLBACKS),
                                      ("draws", self.draws, _RNG_DRAW_SITES)):
            if value not in allowed:
                raise ValueError(
                    f"contract {label}={value!r} is not one of {allowed}")
        if not self.seed_params and (self.fallback, self.draws) != (
                "constant", RNG_SETUP):
            raise ValueError(
                "fallback/draws describe a seeded RNG; name its seed_params")
        for cat in PERF_CATEGORIES:
            methods = getattr(self, cat)
            if not isinstance(methods, tuple) or not all(
                isinstance(m, str) and m for m in methods
            ):
                raise ValueError(
                    f"contract {cat} must be a tuple of method names, "
                    f"got {methods!r}"
                )
        granted = any(getattr(self, cat) for cat in PERF_CATEGORIES)
        if granted and not self.note.strip():
            raise ValueError(
                "a perf allowance must carry a non-empty note explaining "
                "why the declared constructs are deliberate"
            )
        if self.note.strip() and not granted:
            raise ValueError(
                "a note must come with at least one perf allowance; a "
                "layer with no deliberate perf anti-patterns grants none"
            )

    def clipped(self, num_params: int) -> "LayerContract":
        """This contract for an instance with ``num_params`` parameter
        blobs: contracts are written against the maximal parameter set,
        so indices past it (a convolution without a bias term) drop out,
        and a backward pass with no reduction target left is disjoint."""
        kept = tuple(i for i in self.reduction_params if i < num_params)
        if kept == self.reduction_params:
            return self
        return replace(self, reduction_params=kept,
                       backward=self.backward if kept else SAMPLE_DISJOINT)


@dataclass(slots=True)
class LoopSpec:
    """One parallel loop of a layer's pass: what a chunk runner runs.

    ``body(lo, hi, grads)`` processes coalesced iterations ``[lo, hi)``.
    When :attr:`reduction` is set, ``grads`` holds private accumulation
    buffers (flat, one per entry of :attr:`grad_targets`) that the runtime
    merges into the targets afterwards; otherwise ``grads`` is the target
    list itself (the body writes disjoint regions directly; a forward
    loop has none).  :attr:`block` is the loop's accumulation block (see
    :meth:`Layer.grad_block`).
    """

    space: int
    body: Callable[[int, int, Sequence[np.ndarray]], None]
    reduction: bool = False
    grad_targets: Tuple[np.ndarray, ...] = ()
    block: int = 1


def run_sequential(layer_name: str, phase: str, loop: LoopSpec) -> None:
    """The sequential chunk runner: the whole space as one chunk,
    straight into the targets.  Every runner has this signature: the
    layer's name, the phase (``"forward"`` / ``"backward"``) and the
    loop."""
    loop.body(0, loop.space, loop.grad_targets)


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
    ``LayerContract(forward=SEQUENTIAL)``: its pass runs as one chunk
    (the data feeders).  The one place that question is answered."""
    contract = getattr(registered_layer_class(type_name), "contract", None)
    return contract is not None and contract.forward == SEQUENTIAL


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
    :meth:`backward_chunk` (or :meth:`backward_loops`), register a shape
    rule (:func:`~repro.framework.shape_inference.register_shape_rule`)
    and declare a :class:`LayerContract`; shapes, the iteration space
    and parameter shapes come from that rule through :meth:`reshape`,
    and everything else (the pass bodies, gradient-space defaults) is
    derived.  :meth:`forward` and :meth:`backward` are the one pass body
    every driver runs; a driver passes its chunk runner.
    """

    type_names: tuple = ()

    #: :meth:`forward_loop`'s last loop and the ``(bottom, top)`` lists
    #: it closes over.
    _forward_memo: Tuple[LoopSpec | None, tuple] = (None, ())

    #: What this class promises the analyzers (see :class:`LayerContract`).
    #: ``None`` means undeclared; ``repro.analysis`` flags a class whose
    #: own methods run per chunk without a contract of its own (FP001),
    #: or construct an RNG without naming its seed (DC006).
    contract: LayerContract | None = None

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
        shapes = tuple([b.shape for b in bottom])
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
    # the pass bodies (Algorithm 4 forward, Algorithm 5 backward)
    # ------------------------------------------------------------------
    def forward_loop(self, bottom: Sequence[Blob],
                     top: Sequence[Blob]) -> LoopSpec:
        """The forward space as one :class:`LoopSpec` of
        :meth:`forward_chunk`.

        Built when the blobs or the space change and the same object on
        every other pass, so a chunk runner can bind it once.  Its body
        looks ``forward_chunk`` up on every call: a wrapper installed on
        the instance later still sees every chunk.
        """
        space = self.forward_space(bottom, top)
        loop, blobs = self._forward_memo
        if (loop is None or loop.space != space or blobs[0] is not bottom
                or blobs[1] is not top):
            loop = LoopSpec(space, lambda lo, hi, _grads: self.forward_chunk(
                bottom, top, lo, hi))
            self._forward_memo = loop, (bottom, top)
        return loop

    def forward(
        self,
        bottom: Sequence[Blob],
        top: Sequence[Blob],
        run: Callable[[str, str, LoopSpec], None] = run_sequential,
    ) -> float:
        """Forward pass; returns this layer's loss contribution.

        Reshape (sequential, as in Caffe), :meth:`forward_loop` handed
        to ``run``, the sequential :meth:`forward_finalize` epilogue,
        the loss share.
        """
        self.reshape(bottom, top)
        run(self.name, "forward", self.forward_loop(bottom, top))
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
        run: Callable[[str, str, LoopSpec], None] = run_sequential,
    ) -> None:
        """Backward pass, accumulating into ``self.blobs`` diffs: each of
        :meth:`backward_loops` handed to ``run``."""
        for loop in self.backward_loops(top, propagate_down, bottom):
            run(self.name, "backward", loop)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def footprint(self) -> LayerContract | None:
        """The contract as it applies to this instance's parameter blobs
        (see :meth:`LayerContract.clipped`)."""
        contract = self.contract
        return None if contract is None else contract.clipped(len(self.blobs))

    @property
    def type(self) -> str:
        return self.spec.type

    def param_memory_bytes(self) -> int:
        """Bytes of coefficient storage (used by the memory experiment)."""
        return sum(blob.nbytes for blob in self.blobs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
