"""Per-layer cost extraction from real networks — or from specs alone.

For every layer of a network, this module computes the quantities the
machine models consume: floating point operations, bytes streamed, the
coalesced iteration space the coarse-grain runtime distributes, the
data-thread *distribution signature* used by the locality model, and the
privatized reduction volume of the backward pass.

The per-type cost formulas are pure **geometry functions** (``conv_costs``,
``pool_costs``, ...) taking plain integers, with two front ends sharing
them:

* :func:`net_costs` reads the geometry off an instantiated (already
  shaped) :class:`~repro.framework.net.Net` — figures follow the actual
  network, as on real hardware;
* :func:`spec_costs` derives the same geometry symbolically via
  :func:`repro.framework.symbolic.infer_net`, so the simulator can run
  from a prototxt alone, without allocating a single blob.

Because both paths call the same formulas, their agreement is structural
rather than coincidental — the parity the static planner's acceptance
tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.framework.layers.accuracy import AccuracyLayer
from repro.framework.layers.conv import ConvolutionLayer, _pair
from repro.framework.layers.data import DataLayer, InputLayer, MemoryDataLayer
from repro.framework.layers.fused import (
    FusedConvolutionLayer,
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
from repro.framework.layers.scale import ScaleLayer
from repro.framework.layers.softmax import SoftmaxLayer
from repro.framework.net import Net
from repro.framework.net_spec import NetSpec
from repro.framework.symbolic import infer_net

BYTES = 4  # single precision

#: Layer types (lowercased) routed to each geometry function when costing
#: a spec symbolically; mirrors the isinstance dispatch of net_costs.
_DATA_TYPES = frozenset(("data", "memorydata", "input"))
_NEURON_TYPES = frozenset((
    "relu", "sigmoid", "tanh", "power", "absval", "exp", "log", "bnll",
    "dropout",
))
_LOSS_TYPES = frozenset(("softmaxwithloss", "euclideanloss", "softmax"))


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
# geometry functions: pure integer arithmetic, shared by both front ends
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
    # backward: dW (gemm), dX (gemm + col2im) — ~2x forward arithmetic.
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
    # One gemm — one segment — per aligned block of IP_BLOCK samples
    # (forward, backward-data) or output rows (backward-weight).  Every
    # block GEMM re-reads the full weight matrix, and a block that a chunk
    # edge cuts is computed whole on both sides, so with the modelled
    # machine's 16 cores busy no active thread reads it less than once.
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
# front end 1: instantiated nets
# ---------------------------------------------------------------------------
def net_costs(net: Net, include_accuracy: bool = False) -> List[LayerCost]:
    """Extract forward and backward costs for every layer of ``net``.

    The net must have been shaped (run one forward pass first).  Costs
    come back in network order, forward pass first per layer; the
    backward entries appear for layers that participate in it.
    """
    out: List[LayerCost] = []
    for i, layer in enumerate(net.layers):
        bottom, top = net.bottoms[i], net.tops[i]
        if isinstance(layer, (DataLayer, MemoryDataLayer, InputLayer)):
            out.extend(data_costs(
                layer.name, out_count=sum(t.count for t in top),
            ))
        elif isinstance(layer, FusedConvolutionLayer):
            # Must precede the ConvolutionLayer branch (subclass).  The
            # privatized reduction covers only the primary's params; the
            # middle's coefficients reduce over channels, not samples.
            n, c, h, w = bottom[0].shape
            _, k, oh, ow = top[0].shape
            primary = layer._num_primary_blobs
            costs = conv_costs(
                layer.name, n=n, c=c, h=h, w=w, k=k, oh=oh, ow=ow,
                kernel=layer.kernel_h * layer.kernel_w, group=layer.group,
                weight_count=layer.blobs[0].count,
                param_count=sum(b.count for b in layer.blobs[:primary]),
            )
            middle = None
            if isinstance(layer._middle, ScaleLayer):
                middle = "scale"
            elif layer._middle is not None:
                middle = "bias"
            out.extend(fuse_epilogue_costs(
                costs, elems=top[0].count, relu=layer._fused_relu,
                middle=middle,
                middle_params=sum(b.count for b in layer.blobs[primary:]),
                stash=layer._prescale is not None,
            ))
        elif isinstance(layer, ConvolutionLayer):
            n, c, h, w = bottom[0].shape
            _, k, oh, ow = top[0].shape
            out.extend(conv_costs(
                layer.name, n=n, c=c, h=h, w=w, k=k, oh=oh, ow=ow,
                kernel=layer.kernel_h * layer.kernel_w, group=layer.group,
                weight_count=layer.blobs[0].count,
                param_count=sum(b.count for b in layer.blobs),
            ))
        elif isinstance(layer, PoolingLayer):
            n, c, h, w = bottom[0].shape
            _, _, oh, ow = top[0].shape
            out.extend(pool_costs(
                layer.name, n=n, c=c, h=h, w=w, oh=oh, ow=ow,
                window=layer.kernel_h * layer.kernel_w, method=layer.method,
            ))
        elif isinstance(layer, FusedInnerProductReLU):
            out.extend(fuse_epilogue_costs(
                ip_costs(
                    layer.name, outer=layer.outer, inner=layer.inner,
                    num_output=layer.num_output,
                    weight_count=layer.blobs[0].count,
                ),
                elems=top[0].count, relu=True,
            ))
        elif isinstance(layer, InnerProductLayer):
            out.extend(ip_costs(
                layer.name, outer=layer.outer, inner=layer.inner,
                num_output=layer.num_output,
                weight_count=layer.blobs[0].count,
            ))
        elif isinstance(layer, LRNLayer):
            out.extend(lrn_costs(
                layer.name, n=bottom[0].shape[0], elems=bottom[0].count,
            ))
        elif isinstance(layer, NeuronLayer):
            batch = bottom[0].shape[0] if bottom[0].num_axes else 1
            out.extend(neuron_costs(
                layer.name, layer.type, elems=bottom[0].count, batch=batch,
            ))
        elif isinstance(layer, (LossLayer, SoftmaxLayer)):
            batch = bottom[0].shape[0]
            out.extend(loss_costs(
                layer.name, layer.type, batch=batch,
                classes=bottom[0].count // batch,
            ))
        elif isinstance(layer, AccuracyLayer):
            if include_accuracy:
                batch = bottom[0].shape[0]
                out.extend(loss_costs(
                    layer.name, layer.type, batch=batch,
                    classes=bottom[0].count // batch,
                ))
        elif isinstance(layer, FusedEltwiseReLU):
            out.extend(fuse_epilogue_costs(
                structural_costs(
                    layer.name, layer.type,
                    elems=sum(b.count for b in bottom),
                ),
                elems=top[0].count, relu=True,
            ))
        elif isinstance(layer, FusedScaleBias):
            primary = layer._num_primary_blobs
            out.extend(fuse_epilogue_costs(
                structural_costs(
                    layer.name, layer.type,
                    elems=sum(b.count for b in bottom),
                ),
                elems=top[0].count, middle="bias",
                middle_params=sum(b.count for b in layer.blobs[primary:]),
            ))
        else:
            out.extend(structural_costs(
                layer.name, layer.type,
                elems=sum(b.count for b in bottom),
            ))
    return out


# ---------------------------------------------------------------------------
# front end 2: specs, via symbolic shape inference
# ---------------------------------------------------------------------------
def spec_costs(
    spec: NetSpec,
    phase: str = "TRAIN",
    batch: Optional[int] = None,
    include_accuracy: bool = False,
) -> List[LayerCost]:
    """Cost the network *symbolically* — same formulas, no instantiation.

    ``batch`` overrides every feeder's batch extent (see
    :func:`repro.framework.symbolic.infer_net`).  Raises
    :class:`~repro.framework.shape_inference.ShapeError` (or ``KeyError``
    for an unregistered layer type) on a spec whose shapes don't check
    out — run the netcheck linter first for a readable report.
    """
    sym = infer_net(spec, phase=phase, batch=batch, strict=True)
    out: List[LayerCost] = []
    for inf in sym.layers:
        layer_spec, bottoms, result = inf.spec, inf.bottoms, inf.result
        type_name = layer_spec.type.lower()
        if type_name in _DATA_TYPES:
            out.extend(data_costs(
                layer_spec.name,
                out_count=sum(t.count for t in result.tops),
            ))
        elif type_name in ("convolution", "fusedconv"):
            n, c, h, w = bottoms[0].shape
            _, k, oh, ow = result.tops[0].shape
            kernel_h, kernel_w = _pair(layer_spec, "kernel")
            n_primary = 1 + (1 if layer_spec.param("bias_term", True) else 0)
            if type_name == "convolution":
                n_primary = len(result.param_shapes)
            primary_count = sum(
                _shape_count(s) for s in result.param_shapes[:n_primary])
            costs = conv_costs(
                layer_spec.name, n=n, c=c, h=h, w=w, k=k, oh=oh, ow=ow,
                kernel=kernel_h * kernel_w,
                group=int(layer_spec.param("group", 1)),
                weight_count=_shape_count(result.param_shapes[0]),
                param_count=primary_count,
            )
            if type_name == "fusedconv":
                raw = layer_spec.param("fused_middle")
                middle = raw["type"].lower() if raw else None
                fuse_epilogue_costs(
                    costs, elems=result.tops[0].count,
                    relu=bool(layer_spec.param("fused_relu", False)),
                    middle=middle,
                    middle_params=result.param_count - primary_count,
                    stash=middle == "scale",
                )
            out.extend(costs)
        elif type_name == "pooling":
            n, c, h, w = bottoms[0].shape
            _, _, oh, ow = result.tops[0].shape
            kernel_h, kernel_w = _pair(layer_spec, "kernel")
            out.extend(pool_costs(
                layer_spec.name, n=n, c=c, h=h, w=w, oh=oh, ow=ow,
                window=kernel_h * kernel_w,
                method=str(layer_spec.param("pool", "MAX")).upper(),
            ))
        elif type_name in ("innerproduct", "fusedinnerproductrelu"):
            num_output, inner = result.param_shapes[0]
            costs = ip_costs(
                layer_spec.name, outer=result.forward_space, inner=inner,
                num_output=num_output,
                weight_count=_shape_count(result.param_shapes[0]),
            )
            if type_name == "fusedinnerproductrelu":
                fuse_epilogue_costs(
                    costs, elems=result.tops[0].count, relu=True)
            out.extend(costs)
        elif type_name == "lrn":
            out.extend(lrn_costs(
                layer_spec.name, n=bottoms[0].shape[0],
                elems=bottoms[0].count,
            ))
        elif type_name in _NEURON_TYPES:
            batch_ = bottoms[0].shape[0] if bottoms[0].num_axes else 1
            out.extend(neuron_costs(
                layer_spec.name, layer_spec.type,
                elems=bottoms[0].count, batch=batch_,
            ))
        elif type_name in _LOSS_TYPES:
            batch_ = bottoms[0].shape[0]
            out.extend(loss_costs(
                layer_spec.name, layer_spec.type, batch=batch_,
                classes=bottoms[0].count // batch_,
            ))
        elif type_name == "accuracy":
            if include_accuracy:
                batch_ = bottoms[0].shape[0]
                out.extend(loss_costs(
                    layer_spec.name, layer_spec.type, batch=batch_,
                    classes=bottoms[0].count // batch_,
                ))
        elif type_name == "fusedeltwiserelu":
            out.extend(fuse_epilogue_costs(
                structural_costs(
                    layer_spec.name, layer_spec.type,
                    elems=sum(b.count for b in bottoms),
                ),
                elems=result.tops[0].count, relu=True,
            ))
        elif type_name == "fusedscalebias":
            n_primary = 1 + (1 if layer_spec.param("bias_term", False) else 0)
            primary_count = sum(
                _shape_count(s) for s in result.param_shapes[:n_primary])
            out.extend(fuse_epilogue_costs(
                structural_costs(
                    layer_spec.name, layer_spec.type,
                    elems=sum(b.count for b in bottoms),
                ),
                elems=result.tops[0].count, middle="bias",
                middle_params=result.param_count - primary_count,
            ))
        else:
            out.extend(structural_costs(
                layer_spec.name, layer_spec.type,
                elems=sum(b.count for b in bottoms),
            ))
    return out


def _shape_count(shape) -> int:
    n = 1
    for dim in shape:
        n *= dim
    return n


def producer_dist(costs: List[LayerCost], index: int) -> Optional[str]:
    """Distribution signature of the layer feeding ``costs[index]``.

    For a forward entry that is the previous layer's forward signature;
    for a backward entry, the *downstream* layer's backward signature
    (gradients flow backwards).  Returns None at the boundary.
    """
    cost = costs[index]
    if cost.pass_ == "forward":
        for j in range(index - 1, -1, -1):
            if costs[j].pass_ == "forward" and costs[j].name != cost.name:
                return costs[j].dist
        return None
    # Backward data flows from the *downstream* layer, which appears later
    # in this (net-ordered) list.
    for j in range(index + 1, len(costs)):
        if costs[j].pass_ == "backward" and costs[j].name != cost.name:
            return costs[j].dist
    return None
