"""Per-layer cost extraction: one ladder, two sources of shapes.

For every layer of a network, this module computes the quantities the
machine models consume: floating point operations, bytes streamed, the
coalesced iteration space the coarse-grain runtime distributes, the
data-thread *distribution signature* used by the locality model, and the
privatized reduction volume of the backward pass.

The per-type cost formulas are pure **geometry functions** (``conv_costs``,
``pool_costs``, ...) taking plain integers.  One ladder, :func:`costs_of`,
picks the formula from the *registered layer class* of ``spec.type``
(``issubclass``, so a user's ``NeuronLayer`` subclass is priced as a
neuron layer) and reads the integers from nothing but ``(LayerSpec,
bottom shapes, RuleResult)``.  Its two public callers differ only in
where those shapes come from:

* :func:`net_costs` takes them off an instantiated (already shaped)
  :class:`~repro.framework.net.Net` — figures follow the actual
  network, as on real hardware;
* :func:`spec_costs` takes them from
  :func:`repro.framework.symbolic.infer_net`, so the simulator can run
  from a prototxt alone, without allocating a single blob.  A caller
  that already holds the :class:`SymbolicNet` calls
  ``costs_of(sym.layers)`` instead of inferring again.

Their agreement is structural twice over: a live layer's shapes *are* its
rule's result (``layer.geometry``, see :meth:`Layer.reshape`), so both
callers hand the ladder the same ``RuleResult``.  The parity tests and
fusecheck's FU004 guard the rules' arithmetic and the ladder, not a second
copy of either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.framework.layer import Layer, registered_layer_class, runs_sequential
from repro.framework.layers.accuracy import AccuracyLayer
from repro.framework.layers.conv import ConvolutionLayer, _pair
from repro.framework.layers.fused import (
    FusedEltwiseReLU,
    FusedInnerProductReLU,
    FusedScaleBias,
)
from repro.framework.layers.inner_product import _BLOCK as IP_BLOCK
from repro.framework.layers.inner_product import InnerProductLayer
from repro.framework.layers.loss import LossLayer
from repro.framework.layers.lrn import LRNLayer
from repro.framework.layers.neuron import NeuronLayer
from repro.framework.layers.pooling import PoolingLayer
from repro.framework.layers.softmax import SoftmaxLayer
from repro.framework.net import Net
from repro.framework.net_spec import NetSpec
from repro.framework.shape_inference import BlobInfo, RuleResult
from repro.framework.symbolic import LayerInference, infer_net

BYTES = 4  # single precision


@dataclass
class LayerCost:
    """Work descriptor for one layer and one pass."""

    name: str
    type: str
    pass_: str              # "forward" or "backward"
    flops: float            # arithmetic operations
    bytes: float            # streamed bytes (inputs + outputs once each)
    space: int              # coalesced iterations available to the runtime
    segments: int           # BLAS-call / segment count (dispatch overhead)
    dist: str               # data-thread distribution signature
    serial: bool = False    # executes sequentially (data layers)
    reduction_bytes: float = 0.0  # privatized coefficient gradients
    input_bytes: float = 0.0      # bytes read from the previous layer
    variant: str = ""       # sub-type (e.g. pooling method MAX/AVE)
    channels_in: int = 0    # input channels (convolution kernels)
    plane_out: int = 0      # output cells per plane (pooling kernels)

    @property
    def key(self) -> str:
        return f"{self.name}.{'fwd' if self.pass_ == 'forward' else 'bwd'}"


# ---------------------------------------------------------------------------
# geometry functions: pure integer arithmetic
# ---------------------------------------------------------------------------
def conv_costs(
    name: str, *, n: int, c: int, h: int, w: int, k: int, oh: int, ow: int,
    kernel: int, group: int, weight_count: int, param_count: int,
) -> List[LayerCost]:
    """``kernel`` is the window area (kh*kw); ``weight_count`` the filter
    bank's element count; ``param_count`` all parameter elements."""
    macs = n * k * oh * ow * c * kernel / group
    fwd_flops = 2.0 * macs + n * k * oh * ow  # + bias add
    col_bytes = n * (c * kernel * oh * ow) * BYTES  # im2col materialization
    in_bytes = n * c * h * w * BYTES
    out_bytes = n * k * oh * ow * BYTES
    weight_bytes = weight_count * BYTES
    fwd = LayerCost(
        name=name, type="Convolution", pass_="forward",
        flops=fwd_flops, bytes=in_bytes + col_bytes + out_bytes + weight_bytes,
        space=n, segments=n * group, dist="sample",
        input_bytes=in_bytes, channels_in=c, plane_out=oh * ow,
    )
    # backward: dW (im2col + gemm), dX (im2col of the interleaved top
    # diff + gemm against the rotated filters) — ~2x forward arithmetic.
    bwd_flops = 4.0 * macs + n * k * oh * ow
    bwd = LayerCost(
        name=name, type="Convolution", pass_="backward",
        flops=bwd_flops,
        bytes=2 * col_bytes + in_bytes + out_bytes + 2 * weight_bytes,
        space=n, segments=2 * n * group, dist="sample",
        reduction_bytes=param_count * BYTES, input_bytes=out_bytes,
        channels_in=c, plane_out=oh * ow,
    )
    return [fwd, bwd]


def pool_costs(
    name: str, *, n: int, c: int, h: int, w: int, oh: int, ow: int,
    window: int, method: str,
) -> List[LayerCost]:
    fwd_flops = n * c * oh * ow * window  # one compare/add per window elem
    in_bytes = n * c * h * w * BYTES
    out_bytes = n * c * oh * ow * BYTES
    idx_bytes = out_bytes if method == "MAX" else 0
    fwd = LayerCost(
        name=name, type="Pooling", pass_="forward",
        flops=fwd_flops, bytes=in_bytes + out_bytes + idx_bytes,
        space=n * c, segments=n * c, dist="sample-channel",
        input_bytes=in_bytes, variant=method, plane_out=oh * ow,
    )
    bwd = LayerCost(
        name=name, type="Pooling", pass_="backward",
        flops=n * c * oh * ow * (window if method == "AVE" else 1),
        bytes=in_bytes + out_bytes + idx_bytes,
        space=n * c, segments=n * c, dist="sample-channel",
        input_bytes=out_bytes, variant=method, plane_out=oh * ow,
    )
    return [fwd, bwd]


def ip_costs(
    name: str, *, outer: int, inner: int, num_output: int, weight_count: int,
) -> List[LayerCost]:
    n = outer
    macs = n * num_output * inner
    in_bytes = n * inner * BYTES
    out_bytes = n * num_output * BYTES
    weight_bytes = weight_count * BYTES
    # One segment per aligned block of IP_BLOCK samples (forward,
    # backward-data) or output rows (backward-weight).  The layer issues
    # a chunk's blocks as one stacked gemm call, so this overprices its
    # dispatch; it is kept so the modelled figures and every analyzer
    # document stay as they are until measured costs replace the model.
    # Every block product re-reads the full weight matrix, and a block
    # that a chunk edge cuts is computed whole on both sides, so with the
    # modelled machine's 16 cores busy no active thread reads it less
    # than once.
    # Large weights do not stay cache-resident, so the layer is
    # weight-traffic bound — the mechanism behind the paper's ip1
    # plateau (Section 4.1.1).
    blocks = -(-n // IP_BLOCK)
    row_blocks = -(-num_output // IP_BLOCK)
    refetch = max(blocks, min(n, 16))
    fwd = LayerCost(
        name=name, type="InnerProduct", pass_="forward",
        flops=2.0 * macs + out_bytes / BYTES,
        bytes=in_bytes + out_bytes + weight_bytes * refetch,
        space=n, segments=blocks, dist="sample", input_bytes=in_bytes,
    )
    # backward: dX over sample blocks + dW over output-row blocks (no
    # reduction).
    bwd = LayerCost(
        name=name, type="InnerProduct", pass_="backward",
        flops=4.0 * macs,
        bytes=2 * in_bytes + 2 * out_bytes + weight_bytes * refetch,
        space=n, segments=blocks + row_blocks, dist="sample",
        input_bytes=out_bytes,
    )
    return [fwd, bwd]


def lrn_costs(name: str, *, n: int, elems: int) -> List[LayerCost]:
    # square, window adds, scale, power per element — float32 streams.
    fwd = LayerCost(
        name=name, type="LRN", pass_="forward",
        flops=6.0 * elems, bytes=3 * elems * BYTES,
        space=n, segments=n, dist="sample",
        input_bytes=elems * BYTES,
    )
    bwd = LayerCost(
        name=name, type="LRN", pass_="backward",
        flops=8.0 * elems, bytes=5 * elems * BYTES,
        space=n, segments=n, dist="sample",
        input_bytes=elems * BYTES,
    )
    return [fwd, bwd]


def neuron_costs(
    name: str, type_name: str, *, elems: int, batch: int,
) -> List[LayerCost]:
    fwd = LayerCost(
        name=name, type=type_name, pass_="forward",
        flops=float(elems), bytes=2 * elems * BYTES,
        space=elems, segments=max(batch, 1), dist="element",
        input_bytes=elems * BYTES,
    )
    bwd = LayerCost(
        name=name, type=type_name, pass_="backward",
        flops=float(elems), bytes=3 * elems * BYTES,
        space=elems, segments=max(batch, 1), dist="element",
        input_bytes=elems * BYTES,
    )
    return [fwd, bwd]


def loss_costs(
    name: str, type_name: str, *, batch: int, classes: int,
) -> List[LayerCost]:
    elems = batch * classes
    fwd = LayerCost(
        name=name, type=type_name, pass_="forward",
        flops=5.0 * elems, bytes=2 * elems * BYTES,
        space=batch, segments=batch, dist="sample",
        input_bytes=elems * BYTES,
    )
    bwd = LayerCost(
        name=name, type=type_name, pass_="backward",
        flops=2.0 * elems, bytes=2 * elems * BYTES,
        space=batch, segments=batch, dist="sample",
        input_bytes=elems * BYTES,
    )
    return [fwd, bwd]


def data_costs(name: str, *, out_count: int) -> List[LayerCost]:
    out_bytes = out_count * BYTES
    fwd = LayerCost(
        name=name, type="Data", pass_="forward",
        flops=float(out_count), bytes=2 * out_bytes,
        space=1, segments=1, dist="serial", serial=True,
        input_bytes=0.0,
    )
    return [fwd]  # no backward


def fuse_epilogue_costs(
    costs: List[LayerCost],
    *,
    elems: int,
    relu: bool = False,
    middle: Optional[str] = None,
    middle_params: int = 0,
    stash: bool = False,
) -> List[LayerCost]:
    """Fold a fused chain's epilogue into its primary's cost pair.

    The whole point of fusion is that the absorbed Bias/Scale/ReLU no
    longer re-stream the intermediate blob: the epilogue works on the
    output while it is hot.  So the forward pass gains only the
    epilogue *arithmetic* plus genuinely new traffic (the middle's
    coefficients; the pre-scale stash) — **not** the ``2 * elems *
    BYTES`` read/write the standalone layer would have cost.  The
    backward entries account the mask and channel reductions the fused
    ``backward_loops`` actually run.
    """
    fwd = next((c for c in costs if c.pass_ == "forward"), None)
    bwd = next((c for c in costs if c.pass_ == "backward"), None)
    if fwd is not None:
        if middle:
            fwd.flops += float(elems)
        if relu:
            fwd.flops += float(elems)
        fwd.bytes += middle_params * BYTES
        if stash:
            fwd.bytes += elems * BYTES
    if bwd is not None:
        if relu:
            # dy *= (y > 0): read dy + y, write dy.
            bwd.flops += float(elems)
            bwd.bytes += 3 * elems * BYTES
        if middle == "bias":
            # channel sums over dy.
            bwd.flops += float(elems)
            bwd.bytes += elems * BYTES
        elif middle == "scale":
            # dgamma/dbeta sums (2e) + in-place rescale (e); dy is read
            # twice, the stash once, dy written once.
            bwd.flops += 3.0 * elems
            bwd.bytes += 4 * elems * BYTES + 2 * middle_params * BYTES
    return costs


def structural_costs(
    name: str, type_name: str, *, elems: int,
) -> List[LayerCost]:
    """Structural layers (Split/Concat/Flatten/...): pure copies."""
    return [
        LayerCost(
            name=name, type=type_name, pass_="forward",
            flops=0.0, bytes=2 * elems * BYTES,
            space=max(elems, 1), segments=1, dist="element",
            input_bytes=elems * BYTES,
        ),
        LayerCost(
            name=name, type=type_name, pass_="backward",
            flops=float(elems), bytes=2 * elems * BYTES,
            space=max(elems, 1), segments=1, dist="element",
            input_bytes=elems * BYTES,
        ),
    ]


# ---------------------------------------------------------------------------
# the ladder: registered class of spec.type -> geometry function
# ---------------------------------------------------------------------------
def costs_of(
    layers: Iterable[LayerInference], include_accuracy: bool = False,
) -> List[LayerCost]:
    """Forward and backward costs of inferred layers (each ``inf.ok``).

    Costs come back in network order, forward pass first per layer; the
    backward entries appear for layers that participate in it.
    """
    out: List[LayerCost] = []
    for inf in layers:
        spec, bottoms, result = inf.spec, inf.bottoms, inf.result
        cls = registered_layer_class(spec.type) or Layer
        if runs_sequential(spec.type):
            out.extend(data_costs(
                spec.name, out_count=sum(t.count for t in result.tops),
            ))
        elif issubclass(cls, ConvolutionLayer):
            # FusedConv included: its absorbed middle and ReLU are spec
            # params a plain convolution never sets, and its middle's
            # coefficients follow the primary's in param_shapes.  The
            # privatized reduction covers only the primary's params; the
            # middle's reduce over channels, not samples.
            n, c, h, w = bottoms[0].shape
            _, k, oh, ow = result.tops[0].shape
            kernel_h, kernel_w = _pair(spec, "kernel")
            n_primary = 1 + (1 if spec.param("bias_term", True) else 0)
            primary_count = sum(
                math.prod(s) for s in result.param_shapes[:n_primary])
            raw = spec.param("fused_middle")
            middle = raw["type"].lower() if raw else None
            out.extend(fuse_epilogue_costs(
                conv_costs(
                    spec.name, n=n, c=c, h=h, w=w, k=k, oh=oh, ow=ow,
                    kernel=kernel_h * kernel_w,
                    group=int(spec.param("group", 1)),
                    weight_count=math.prod(result.param_shapes[0]),
                    param_count=primary_count,
                ),
                elems=result.tops[0].count,
                relu=bool(spec.param("fused_relu", False)),
                middle=middle,
                middle_params=result.param_count - primary_count,
                stash=middle == "scale",
            ))
        elif issubclass(cls, PoolingLayer):
            n, c, h, w = bottoms[0].shape
            _, _, oh, ow = result.tops[0].shape
            kernel_h, kernel_w = _pair(spec, "kernel")
            out.extend(pool_costs(
                spec.name, n=n, c=c, h=h, w=w, oh=oh, ow=ow,
                window=kernel_h * kernel_w,
                method=str(spec.param("pool", "MAX")).upper(),
            ))
        elif issubclass(cls, InnerProductLayer):
            num_output, inner = result.param_shapes[0]
            costs = ip_costs(
                spec.name, outer=result.forward_space, inner=inner,
                num_output=num_output, weight_count=num_output * inner,
            )
            if issubclass(cls, FusedInnerProductReLU):
                fuse_epilogue_costs(
                    costs, elems=result.tops[0].count, relu=True)
            out.extend(costs)
        elif issubclass(cls, LRNLayer):
            out.extend(lrn_costs(
                spec.name, n=bottoms[0].shape[0], elems=bottoms[0].count,
            ))
        elif issubclass(cls, NeuronLayer):
            batch = bottoms[0].shape[0] if bottoms[0].num_axes else 1
            out.extend(neuron_costs(
                spec.name, spec.type, elems=bottoms[0].count, batch=batch,
            ))
        elif issubclass(cls, (LossLayer, SoftmaxLayer, AccuracyLayer)):
            if include_accuracy or not issubclass(cls, AccuracyLayer):
                batch = bottoms[0].shape[0]
                out.extend(loss_costs(
                    spec.name, spec.type, batch=batch,
                    classes=bottoms[0].count // batch,
                ))
        else:
            costs = structural_costs(
                spec.name, spec.type, elems=sum(b.count for b in bottoms),
            )
            if issubclass(cls, FusedEltwiseReLU):
                fuse_epilogue_costs(
                    costs, elems=result.tops[0].count, relu=True)
            elif issubclass(cls, FusedScaleBias):
                n_primary = 1 + (1 if spec.param("bias_term", False) else 0)
                fuse_epilogue_costs(
                    costs, elems=result.tops[0].count, middle="bias",
                    middle_params=sum(
                        math.prod(s)
                        for s in result.param_shapes[n_primary:]),
                )
            out.extend(costs)
    return out


def net_costs(net: Net, include_accuracy: bool = False) -> List[LayerCost]:
    """Costs of an instantiated net, from its layers' geometry.

    The net must have been shaped (run one forward pass first).  A layer
    that shapes itself (the feeders) has no ``geometry``; its view is
    read off the live blobs.
    """
    return costs_of(
        (
            LayerInference(
                layer.spec,
                [BlobInfo(b.shape) for b in bottom],
                layer.geometry or RuleResult(
                    tops=[BlobInfo(t.shape) for t in top],
                    forward_space=layer.forward_space(bottom, top),
                    param_shapes=[b.shape for b in layer.blobs],
                ),
            )
            for layer, bottom, top in zip(net.layers, net.bottoms, net.tops)
        ),
        include_accuracy,
    )


def spec_costs(
    spec: NetSpec,
    phase: str = "TRAIN",
    batch: Optional[int] = None,
    include_accuracy: bool = False,
) -> List[LayerCost]:
    """Costs of a spec, from symbolically inferred shapes — no
    instantiation.

    ``batch`` overrides every feeder's batch extent (see
    :func:`repro.framework.symbolic.infer_net`).  Raises
    :class:`~repro.framework.shape_inference.ShapeError` (or ``KeyError``
    for an unregistered layer type) on a spec whose shapes don't check
    out — run the netcheck linter first for a readable report.
    """
    sym = infer_net(spec, phase=phase, batch=batch, strict=True)
    return costs_of(sym.layers, include_accuracy)


def chain(
    costs: Sequence[LayerCost],
) -> List[Tuple[LayerCost, Optional[LayerCost]]]:
    """Every pass, in ``costs`` order, with the pass that feeds it (None
    for the first forward and the last backward): the one producer rule.

    Forward reads the previous layer's forward; backward reads the
    gradient of the next layer that *has* a backward pass (a feeder has
    none).
    """
    out = []
    for index, cost in enumerate(costs):
        order = (range(index - 1, -1, -1) if cost.pass_ == "forward"
                 else range(index + 1, len(costs)))
        producer = next(
            (costs[j] for j in order
             if costs[j].pass_ == cost.pass_ and costs[j].name != cost.name),
            None,
        )
        out.append((cost, producer))
    return out


def producer_dist(costs: List[LayerCost], index: int) -> Optional[str]:
    """Distribution signature of the pass feeding ``costs[index]`` (see
    :func:`chain`), or None at the boundary."""
    producer = chain(costs)[index][1]
    return None if producer is None else producer.dist
