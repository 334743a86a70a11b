"""Calibration harness: model outputs vs the paper's reported numbers.

Run ``python tools/calibrate.py`` to print every calibration target next
to the current model value.  Used while tuning
:mod:`repro.simulator.params`; kept in the repo so the provenance of the
constants is reproducible.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
)

import repro.framework.layers  # noqa: E402,F401  (layer registration)
from repro.zoo import build_net  # noqa: E402
from repro.simulator import (  # noqa: E402
    CPUModel, GPUModel, K40_CUDNN, K40_PLAIN, net_costs,
)

# (figure, network, metric key, paper value)
TARGETS = [
    # fig5 MNIST per-layer CPU speedups
    ("fig5", "lenet", "cpu8:ip1.fwd", 4.58),
    ("fig5", "lenet", "cpu8:ip1.bwd", 5.93),
    ("fig5", "lenet", "cpu8:pool2.fwd", 5.52),
    ("fig5", "lenet", "cpu8:pool2.bwd", 5.73),
    ("fig5", "lenet", "cpu16:conv1.fwd", 9.5),
    ("fig5", "lenet", "cpu16:conv2.fwd", 10.5),
    # fig6 MNIST overall
    ("fig6", "lenet", "cpu8:overall", 6.0),
    ("fig6", "lenet", "cpu16:overall", 8.0),
    ("fig6", "lenet", "plain:overall", 2.0),
    ("fig6", "lenet", "cudnn:overall", 12.0),
    # fig6 MNIST GPU per-layer
    ("fig6", "lenet", "plain:pool1.fwd", 57.0),
    ("fig6", "lenet", "plain:pool2.fwd", 62.0),
    ("fig6", "lenet", "plain:pool2.bwd", 12.81),
    ("fig6", "lenet", "plain:ip1.bwd", 12.25),
    ("fig6", "lenet", "plain:conv1.fwd", 1.11),
    ("fig6", "lenet", "plain:conv2.fwd", 1.63),
    ("fig6", "lenet", "plain:conv1.bwd", 0.43),
    ("fig6", "lenet", "plain:conv2.bwd", 2.86),
    ("fig6", "lenet", "plain:relu1.fwd", 2.47),
    ("fig6", "lenet", "plain:relu1.bwd", 4.0),
    ("fig6", "lenet", "cudnn:conv1.fwd", 15.0),
    ("fig6", "lenet", "cudnn:conv2.fwd", 25.0),
    ("fig6", "lenet", "cudnn:conv1.bwd", 19.0),
    ("fig6", "lenet", "cudnn:conv2.bwd", 8.0),
    ("fig6", "lenet", "cudnn:pool2.fwd", 27.0),
    ("fig6", "lenet", "cudnn:pool2.bwd", 8.81),
    ("fig6", "lenet", "cudnn:relu1.fwd", 1.74),
    ("fig6", "lenet", "cudnn:relu1.bwd", 2.41),
    # fig8 CIFAR per-layer CPU speedups
    ("fig8", "cifar10", "cpu8:conv1.fwd", 5.87),
    ("fig8", "cifar10", "cpu16:conv1.fwd", 9.0),
    ("fig8", "cifar10", "cpu8:pool1.fwd", 6.5),
    ("fig8", "cifar10", "cpu16:pool1.fwd", 11.0),
    ("fig8", "cifar10", "cpu8:relu1.fwd", 7.0),
    ("fig8", "cifar10", "cpu16:relu1.fwd", 13.0),
    ("fig8", "cifar10", "cpu8:norm1.fwd", 4.6),
    ("fig8", "cifar10", "cpu16:norm1.fwd", 10.8),
    ("fig8", "cifar10", "cpu16:conv2.fwd", 8.25),
    ("fig8", "cifar10", "cpu16:conv1.bwd", 10.0),
    # fig9 CIFAR overall
    ("fig9", "cifar10", "cpu8:overall", 6.0),
    ("fig9", "cifar10", "cpu16:overall", 8.83),
    ("fig9", "cifar10", "plain:overall", 6.0),
    ("fig9", "cifar10", "cudnn:overall", 27.0),
    # fig9 CIFAR GPU per-layer
    ("fig9", "cifar10", "plain:pool1.fwd", 110.0),
    ("fig9", "cifar10", "plain:norm1.fwd", 40.0),
    ("fig9", "cifar10", "plain:conv1.fwd", 4.0),
    ("fig9", "cifar10", "cudnn:conv2.fwd", 50.0),
    ("fig9", "cifar10", "cudnn:pool3.fwd", 11.75),
    ("fig9", "cifar10", "plain:pool3.fwd", 42.0),
    ("fig9", "cifar10", "plain:pool1.fwd2", 8.6),  # pool1 bwd per paper text
    ("fig9", "cifar10", "cudnn:pool1.fwd2", 20.9),
    # serial composition
    ("fig4", "lenet", "share:convpool", 0.80),
    ("fig7", "cifar10", "share:convpoolnorm", 0.85),
]


def evaluate(name: str):
    net = build_net(name)
    net.forward()
    costs = net_costs(net)
    cpu = CPUModel()
    plain = GPUModel(K40_PLAIN, host=cpu)
    cudnn = GPUModel(K40_CUDNN, host=cpu)
    out = {}
    for t in (2, 4, 8, 12, 16):
        out[f"cpu{t}:overall"] = cpu.speedup(costs, t)
        for key, val in cpu.layer_speedups(costs, t).items():
            out[f"cpu{t}:{key}"] = val
    out["plain:overall"] = plain.speedup(costs)
    out["cudnn:overall"] = cudnn.speedup(costs)
    for key, val in plain.layer_speedups(costs).items():
        out[f"plain:{key}"] = val
    for key, val in cudnn.layer_speedups(costs).items():
        out[f"cudnn:{key}"] = val
    # pool1 backward aliases used in TARGETS
    out["plain:pool1.fwd2"] = out.get("plain:pool1.bwd", float("nan"))
    out["cudnn:pool1.fwd2"] = out.get("cudnn:pool1.bwd", float("nan"))
    times = cpu.layer_times(costs, 1)
    total = sum(times.values())
    convpool = sum(v for k, v in times.items()
                   if k.startswith(("conv", "pool")))
    out["share:convpool"] = convpool / total
    out["share:convpoolnorm"] = sum(
        v for k, v in times.items()
        if k.startswith(("conv", "pool", "norm"))
    ) / total
    return out


def main() -> None:
    results = {name: evaluate(name) for name in ("lenet", "cifar10")}
    print(f"{'figure':8}{'net':10}{'metric':24}{'paper':>9}{'model':>9}{'ratio':>8}")
    print("-" * 68)
    for fig, name, metric, paper in TARGETS:
        model = results[name].get(metric, float("nan"))
        ratio = model / paper if paper else float("nan")
        flag = "" if 0.6 <= ratio <= 1.67 else "  <<<"
        print(f"{fig:8}{name:10}{metric:24}{paper:9.2f}{model:9.2f}"
              f"{ratio:8.2f}{flag}")


if __name__ == "__main__":
    main()
