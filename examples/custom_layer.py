"""Network-agnostic parallelism: a brand-new layer, zero porting effort.

The paper's central claim: because the coarse-grain transformation only
touches the batch-level loop, a *novel research layer* (here: a "Swish"
activation, x * sigmoid(beta x), which did not exist in 2016) gets
parallel execution for free — no GPU kernel, no data-layout design, no
recoding.  We define the layer in ~30 lines, drop it into a LeNet
variant via prototxt, and train in parallel with bitwise-invariant
convergence.

Run:  python examples/custom_layer.py
"""

import numpy as np

from repro.core import ParallelExecutor
from repro.data import register_default_sources
from repro.framework.blob import Blob
from repro.framework.layer import LayerContract, register_layer
from repro.framework.layers.neuron import NeuronLayer
from repro.framework.net import Net
from repro.framework.prototxt import parse_prototxt
from repro.framework.shape_inference import RuleResult, register_shape_rule
from repro.framework.solvers import SGDSolver, SolverParams


@register_layer("Swish")
class SwishLayer(NeuronLayer):
    """``y = x * sigmoid(beta * x)`` — a post-2016 activation.

    Only the element-wise math is written; the chunk protocol inherited
    from :class:`NeuronLayer` is what the batch-parallel runtime needs.

    The contract states what the analyzers check: every chunk writes
    only its own ``[lo, hi)`` slice (the default footprint), no RNG, no
    deliberate perf anti-patterns.
    """

    contract = LayerContract()

    def layer_setup(self, bottom, top):
        self.beta = float(self.spec.param("beta", 1.0))

    def forward_chunk(self, bottom, top, lo, hi):
        x = bottom[0].flat_data[lo:hi]
        sig = 1.0 / (1.0 + np.exp(-self.beta * x))
        np.multiply(x, sig, out=top[0].flat_data[lo:hi])

    def backward_chunk(self, top, propagate_down, bottom, lo, hi,
                       param_grads):
        if not propagate_down[0]:
            return
        x = bottom[0].flat_data[lo:hi]
        y = top[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        sig = 1.0 / (1.0 + np.exp(-self.beta * x))
        # d/dx [x*sig] = sig + beta*y*(1 - sig)
        np.copyto(bottom[0].flat_diff[lo:hi],
                  dy * (sig + self.beta * y * (1.0 - sig)))


@register_shape_rule("Swish", inplace_ok=True)
def _swish_shape_rule(spec, bottoms):
    """*The* shape source for Swish: the live layer's tops and iteration
    space come from this rule (``layer.geometry``), and netcheck, the
    planner and the cost model run it on the bare spec — one answer."""
    return RuleResult(tops=[bottoms[0]], forward_space=bottoms[0].count)


SWISH_NET = """
name: "LeNet-Swish"
layer {
  name: "mnist" type: "Data" top: "data" top: "label"
  data_param { source: "synth_mnist_train" batch_size: 64 }
}
layer {
  name: "conv1" type: "Convolution" bottom: "data" top: "conv1"
  convolution_param { num_output: 12 kernel_size: 5 filler_seed: 21
    weight_filler { type: "xavier" } bias_filler { type: "constant" } }
}
layer {
  name: "swish1" type: "Swish" bottom: "conv1" top: "conv1"
  swish_param { beta: 1.5 }
}
layer {
  name: "pool1" type: "Pooling" bottom: "conv1" top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
layer {
  name: "ip1" type: "InnerProduct" bottom: "pool1" top: "ip1"
  inner_product_param { num_output: 10 filler_seed: 22
    weight_filler { type: "xavier" } bias_filler { type: "constant" } }
}
layer {
  name: "loss" type: "SoftmaxWithLoss" bottom: "ip1" bottom: "label"
  top: "loss"
}
"""


def gradient_check_swish() -> None:
    from repro.framework.gradient_check import check_gradient
    from repro.testing import make_blob, spec
    layer = SwishLayer(spec("sw", "Swish", beta=1.5))
    check_gradient(layer, [make_blob((3, 4))], [Blob()])
    print("Swish gradient check: OK")


def analyzer_demo() -> None:
    """The static pass vouches for Swish — and catches a clone that
    forgot to declare its contract."""
    from repro.analysis import analyze_layer_class
    from repro.framework.layer import SAMPLE_DISJOINT, UNKNOWN

    report = analyze_layer_class(SwishLayer)
    assert report.declared is not None
    assert report.inferred_forward == SAMPLE_DISJOINT, report
    print("analyzer on SwishLayer: clean "
          f"(forward={report.inferred_forward})")

    # The same code *without* the declaration is flagged: defining your
    # own chunk methods means vouching for them with your own contract.
    class UndeclaredSwish(SwishLayer):
        def forward_chunk(self, bottom, top, lo, hi):
            SwishLayer.forward_chunk(self, bottom, top, lo, hi)

    report = analyze_layer_class(UndeclaredSwish)
    missing = [f for f in report.findings if f.rule == "FP001"]
    assert missing, "expected the missing-declaration lint to fire"
    print(f"analyzer on UndeclaredSwish: {missing[0].message}")


def planned_cost_demo() -> None:
    """Priced from the prototxt as the NeuronLayer it subclasses — the
    same numbers ``net_costs`` reads off the built net."""
    from repro.simulator import CPUModel
    from repro.simulator.cost_model import spec_costs

    cost = next(c for c in spec_costs(parse_prototxt(SWISH_NET))
                if c.key == "swish1.fwd")
    print(f"swish1 priced from the spec: {cost.flops:.0f} flops in "
          f"{cost.segments} segments, "
          f"{CPUModel().layer_time(cost, 8):.1f} us modelled at 8 threads")


def main() -> None:
    register_default_sources()
    gradient_check_swish()
    analyzer_demo()
    planned_cost_demo()

    print("swish1 geometry, from its rule:",
          Net(parse_prototxt(SWISH_NET)).layer("swish1").geometry)

    def train(executor=None):
        net = Net(parse_prototxt(SWISH_NET))
        solver = SGDSolver(
            SolverParams(base_lr=0.01, momentum=0.9, max_iter=12),
            net, executor=executor,
        )
        solver.step(12)
        return solver.loss_history

    sequential = train()
    with ParallelExecutor(num_threads=4, reduction="blockwise") as executor:
        parallel = train(executor)

    print(f"sequential final loss: {sequential[-1]:.6f}")
    print(f"parallel   final loss: {parallel[-1]:.6f}")
    print("loss decreased:", sequential[-1] < sequential[0])
    print("parallel trajectory bitwise identical:", parallel == sequential)
    print("\nThe Swish layer was parallelized with ZERO parallelism-"
          "specific code\n(network-agnostic coarse-grain parallelism, "
          "paper Section 3.3).")


if __name__ == "__main__":
    main()
