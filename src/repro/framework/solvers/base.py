"""Solver base class: the training loop of the paper's Algorithm 1.

The solver owns the outer ``while loss not acceptable`` loop: each step
zeroes parameter diffs, runs forward+backward (possibly ``iter_size``
times, accumulating), regularizes, computes the per-parameter update from
the learning rate, and applies it.

Execution of the forward/backward passes is delegated to a pluggable
*executor* so the identical solver drives both the sequential and the
coarse-grain parallel versions — the paper's convergence-invariance
property is exactly the statement that swapping this executor does not
change the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.framework.blob import DTYPE, Blob
from repro.framework.layer import (
    Layer,
    LoopSpec,
    run_sequential,
    runs_sequential,
)
from repro.framework.solvers.lr_policy import learning_rate

if TYPE_CHECKING:  # net.py walks through the executors below
    from repro.framework.net import Net


@dataclass
class SolverParams:
    """Solver hyper-parameters (Caffe's ``SolverParameter``)."""

    type: str = "SGD"
    base_lr: float = 0.01
    lr_policy: str = "fixed"
    gamma: float = 0.1
    power: float = 0.75
    stepsize: int = 100
    stepvalues: Sequence[int] = field(default_factory=tuple)
    max_iter: int = 100
    momentum: float = 0.0
    weight_decay: float = 0.0
    regularization_type: str = "L2"
    iter_size: int = 1
    delta: float = 1e-8  # AdaGrad stabilizer
    display: int = 0
    test_interval: int = 0
    test_iter: int = 1
    clip_gradients: float = -1.0


def live_loop(layer: Layer, bottom: Sequence[Blob], loop: LoopSpec,
              rows: int) -> LoopSpec:
    """``loop`` cut to the iterations that produce the first ``rows``
    samples of the layer's batch ``N`` (the sample axis of its bottom).

    The coalesced space keeps the sample loop outermost (Algorithm 4's
    ``S x D1 x ... x Dk``), so when ``space % N == 0`` the first ``rows``
    samples are the iterations ``[0, space // N * rows)``; InnerProduct
    needs no rounding, since its chunks compute every aligned block they
    touch whole whatever the cut.  A feeder (``SEQUENTIAL`` forward), a
    layer with a :meth:`~repro.framework.layer.Layer.forward_finalize`
    epilogue (a fold over the whole batch) and a space the batch does
    not divide run whole.
    """
    if (runs_sequential(layer.type) or not bottom or not bottom[0].num_axes
            or type(layer).forward_finalize is not Layer.forward_finalize):
        return loop
    batch = bottom[0].shape[0]
    if rows > batch:
        raise ValueError(
            f"layer {layer.name!r}: {rows} live row(s) asked of a batch "
            f"of {batch}"
        )
    if loop.space % batch:
        return loop
    return replace(loop, space=loop.space // batch * rows)


class LayerwiseExecutor:
    """An executor is a chunk runner; its passes are the one walk.

    The passes are inherently sequential (Algorithm 1), and each layer's
    pass body is the layer's own (:meth:`~repro.framework.layer.Layer.forward`
    / :meth:`~repro.framework.layer.Layer.backward`).  What an executor
    chooses is only how one parallel loop's ``[0, space)`` runs: its
    chunk runner :meth:`_dispatch` ``(layer_name, phase, loop)``, which
    every layer body is called with and which reads the one
    :class:`~repro.framework.layer.LoopSpec`.  The base runner is the
    sequential one.  :meth:`forward_layer` / :meth:`backward_layer` are the
    per-layer steps of the walk; wrapping them (see
    :class:`repro.core.trace.TracingExecutor`) observes an executor
    without re-implementing it.
    """

    #: Team size the layer hooks run with.
    num_threads = 1

    #: :meth:`_live_loop`'s cuts by ``(layer name, rows)``: the loop,
    #: the bottom shape and the cut.
    _cuts: Optional[Dict[Tuple[str, int], tuple]] = None

    _dispatch = staticmethod(run_sequential)

    def forward_layer(self, net: Net, i: int,
                      rows: Optional[int] = None) -> float:
        """Run layer ``i`` forward; returns its weighted loss share.
        With ``rows``, each loop is cut by :func:`live_loop` before it
        reaches :meth:`_dispatch`."""
        layer, bottom = net.layers[i], net.bottoms[i]
        run = self._dispatch
        if rows is not None:
            dispatch = run

            def run(layer_name: str, phase: str, loop: LoopSpec) -> None:
                dispatch(layer_name, phase,
                         self._live_loop(layer, bottom, loop, rows))
        return layer.forward(bottom, net.tops[i], run)

    def _live_loop(self, layer: Layer, bottom: Sequence[Blob],
                   loop: LoopSpec, rows: int) -> LoopSpec:
        """:func:`live_loop`, cut once per loop, bottom shape and
        ``rows`` (the layer's forward loop is the same object from pass
        to pass) and the same cut returned after that."""
        cuts = self._cuts
        if cuts is None:
            cuts = self._cuts = {}
        shape = bottom[0].shape if bottom else None
        memo = cuts.get((layer.name, rows))
        if memo is None or memo[0] is not loop or memo[1] != shape:
            memo = cuts[layer.name, rows] = (
                loop, shape, live_loop(layer, bottom, loop, rows))
        return memo[2]

    def backward_layer(self, net: Net, i: int) -> None:
        """Run layer ``i`` backward (only called on layers that take
        part in the backward pass)."""
        net.layers[i].backward(net.tops[i], net.bottom_need_backward[i],
                               net.bottoms[i], self._dispatch)

    def forward(self, net: Net, rows: Optional[int] = None,
                upto: Optional[int] = None) -> float:
        """The forward walk; returns the weighted loss of the layers run.

        ``rows`` computes only the first ``rows`` samples of every layer
        :func:`live_loop` can cut (blobs keep their shapes; other rows
        hold whatever they held).  ``upto`` stops the walk after layer
        ``upto``.  Both ``None`` is the full pass.
        """
        last = len(net.layers) - 1 if upto is None else upto
        if not 0 <= last < len(net.layers):
            raise ValueError(
                f"upto={upto} outside the net's layers [0, "
                f"{len(net.layers) - 1}]"
            )
        if rows is not None and rows < 1:
            raise ValueError(f"rows must be >= 1, got {rows}")
        total = 0.0
        for i in range(last + 1):
            total += self.forward_layer(net, i, rows)
        return total

    def backward(self, net: Net) -> None:
        net._seed_loss_diffs()
        for i in range(len(net.layers) - 1, -1, -1):
            if any(net.bottom_need_backward[i]) or net.layers[i].blobs:
                self.backward_layer(net, i)


class SequentialExecutor(LayerwiseExecutor):
    """Default executor: the walk with the sequential runner — what
    :meth:`Net.forward <repro.framework.net.Net.forward>` and
    :meth:`Net.backward <repro.framework.net.Net.backward>` run."""


class Solver:
    """Base solver; subclasses implement :meth:`compute_update_value`.

    Parameters
    ----------
    params:
        Hyper-parameters.
    net:
        Training-phase network.
    test_net:
        Optional test-phase network sharing parameters with ``net``
        (hook it up via :meth:`share_test_net_params`).
    executor:
        Object with ``forward(net)`` / ``backward(net)``; defaults to
        sequential execution.
    """

    def __init__(
        self,
        params: SolverParams,
        net: Net,
        test_net: Optional[Net] = None,
        executor=None,
    ) -> None:
        if params.iter_size < 1:
            raise ValueError(f"iter_size must be >= 1, got {params.iter_size}")
        self.params = params
        self.net = net
        self.test_net = test_net
        self.executor = executor or SequentialExecutor()
        self.iteration = 0
        self.loss_history: List[float] = []
        #: Per-parameter solver state (e.g. momentum buffers).
        self.history: List[np.ndarray] = [
            np.zeros(blob.count, dtype=DTYPE) for blob in net.learnable_params
        ]
        #: Optional :class:`~repro.resilience.guards.HealthGuard`; when
        #: set, every iteration of :meth:`step` runs through it (NaN/Inf
        #: sentinels + halt / skip-batch / rollback recovery).
        self.guard = None
        self._display_fn: Callable[[str], None] = lambda message: None

    def set_display(self, fn: Callable[[str], None]) -> None:
        """Install a logging callback used when ``params.display`` > 0."""
        self._display_fn = fn

    # ------------------------------------------------------------------
    # the training loop
    # ------------------------------------------------------------------
    def current_lr(self) -> float:
        p = self.params
        return learning_rate(
            p.lr_policy, p.base_lr, self.iteration,
            gamma=p.gamma, power=p.power, stepsize=p.stepsize,
            stepvalues=p.stepvalues, max_iter=p.max_iter,
        )

    def step(self, iters: int) -> float:
        """Run ``iters`` training iterations; returns the last loss.

        With a :attr:`guard` installed every iteration runs through its
        sentinels; the guarded path performs the identical operations
        in the identical order, so healthy trajectories are bitwise
        equal with and without a guard.
        """
        last_loss = 0.0
        for _ in range(iters):
            if self.guard is not None:
                last_loss = self.guard.step(self)
            else:
                self._maybe_test()
                loss = self._forward_backward()
                self.apply_update()
                last_loss = self._finish_iteration(loss)
        return last_loss

    def _maybe_test(self) -> None:
        """Run the periodic test pass when this iteration calls for it."""
        if (
            self.test_net is not None
            and self.params.test_interval > 0
            and self.iteration % self.params.test_interval == 0
        ):
            self.test()

    def _forward_backward(self) -> float:
        """Clear diffs and accumulate ``iter_size`` forward/backward
        passes; returns the averaged loss (update not yet applied)."""
        self.net.clear_param_diffs()
        loss = 0.0
        for _ in range(self.params.iter_size):
            loss += self.executor.forward(self.net)
            self.executor.backward(self.net)
        return loss / self.params.iter_size

    def _finish_iteration(self, loss: float) -> float:
        """Record ``loss``, display, advance the iteration counter."""
        self.loss_history.append(loss)
        if self.params.display and self.iteration % self.params.display == 0:
            self._display_fn(
                f"iteration {self.iteration}, lr {self.current_lr():.6g}, "
                f"loss {loss:.6f}"
            )
        self.iteration += 1
        return loss

    def solve(self) -> float:
        """Train to ``params.max_iter``."""
        return self.step(self.params.max_iter - self.iteration)

    def test(self) -> float:
        """Average the test net's loss/accuracy outputs over test_iter
        batches; returns the mean scalar of the first output."""
        assert self.test_net is not None
        scores: List[float] = []
        for _ in range(self.params.test_iter):
            self.executor.forward(self.test_net)
            for layer, tops in zip(self.test_net.layers, self.test_net.tops):
                if layer.type == "Accuracy":
                    scores.append(float(tops[0].flat_data[0]))
        return float(np.mean(scores)) if scores else 0.0

    # ------------------------------------------------------------------
    # the update (Caffe's ApplyUpdate pipeline)
    # ------------------------------------------------------------------
    def apply_update(self) -> None:
        rate = self.current_lr()
        self._normalize()
        self._regularize()
        self._clip_gradients()
        for param_id in range(len(self.net.learnable_params)):
            self.compute_update_value(param_id, rate)
        for blob in self.net.learnable_params:
            blob.update()

    def _normalize(self) -> None:
        if self.params.iter_size == 1:
            return
        scale = DTYPE(1.0 / self.params.iter_size)
        for blob in self.net.learnable_params:
            blob.scale_diff(scale)

    def _regularize(self) -> None:
        decay = self.params.weight_decay
        if not decay:
            return
        reg = self.params.regularization_type
        for blob, mult in zip(self.net.learnable_params, self.net.params_decay):
            local = DTYPE(decay * mult)
            if not local:
                continue
            if reg == "L2":
                diff = blob.flat_diff
                diff += local * blob.flat_data
            elif reg == "L1":
                diff = blob.flat_diff
                diff += local * np.sign(blob.flat_data)
            else:
                raise ValueError(f"unknown regularization type {reg!r}")

    def _clip_gradients(self) -> None:
        threshold = self.params.clip_gradients
        if threshold <= 0:
            return
        sumsq = sum(blob.sumsq_diff() for blob in self.net.learnable_params)
        norm = float(np.sqrt(sumsq))
        if norm > threshold:
            scale = DTYPE(threshold / norm)
            for blob in self.net.learnable_params:
                blob.scale_diff(scale)

    def compute_update_value(self, param_id: int, rate: float) -> None:
        """Transform ``diff`` into the actual step for parameter
        ``param_id`` (subclass responsibility)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # full-state snapshots (weights + solver history + iteration)
    # ------------------------------------------------------------------
    def save_state(self, path: str) -> None:
        """Serialize everything a resume needs (Caffe's ``.solverstate``).

        Delegates to :func:`repro.resilience.checkpoint.save_checkpoint`:
        the file is written atomically inside a CRC-32-checksummed
        container and captures the *complete* trajectory state — network
        parameters, per-parameter solver history, iteration counter,
        loss history, LR-policy identity, every layer's live RNG stream
        and every batch source's cursor — so resume-at-iter-k is bitwise
        identical to the uninterrupted run.
        """
        from repro.resilience.checkpoint import save_checkpoint

        save_checkpoint(self, path)

    def load_state(self, path: str) -> None:
        """Restore a :meth:`save_state` snapshot into this solver.

        The checksum is verified before anything is parsed
        (:class:`~repro.resilience.checkpoint.CheckpointCorrupt` on
        damage); pre-resilience snapshots and state that would silently
        fork the trajectory are rejected with
        :class:`~repro.resilience.checkpoint.CheckpointFormatError` /
        :class:`~repro.resilience.checkpoint.CheckpointMismatch`.
        """
        from repro.resilience.checkpoint import load_checkpoint

        load_checkpoint(self, path)

    # ------------------------------------------------------------------
    # test-net parameter sharing
    # ------------------------------------------------------------------
    def share_test_net_params(self) -> None:
        """Point the test net's parameter blobs at the training net's.

        Layers are matched by name; mismatched names are left untouched
        (e.g. phase-specific data layers).
        """
        assert self.test_net is not None
        train_layers = dict(zip(self.net.layer_names, self.net.layers))
        for layer in self.test_net.layers:
            source = train_layers.get(layer.name)
            if source is None or not source.blobs:
                continue
            if len(source.blobs) != len(layer.blobs):
                raise ValueError(
                    f"layer {layer.name!r}: train/test parameter count "
                    f"mismatch"
                )
            layer.blobs = source.blobs
