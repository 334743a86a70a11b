"""Network zoo: the paper's two evaluation networks.

* :func:`lenet_spec` — the Caffe LeNet for MNIST (paper Figure 3, top):
  data, conv1, pool1, conv2, pool2, ip1, relu1, ip2, loss — 9 layers.
* :func:`cifar10_spec` — the Caffe CIFAR-10 "full" network (Figure 3,
  bottom): data, conv1, pool1, relu1, norm1, conv2, relu2, pool2, norm2,
  conv3, relu3, pool3, ip1, loss — 14 layers, including the two LRN
  layers the paper's Section 4.2 analyzes.

Both are stored as prototxt text (parsed through the real parser, so the
zoo also exercises that substrate) and wired to the synthetic data
sources.
"""

from repro.zoo.lenet import LENET_PROTOTXT, lenet_solver_params, lenet_spec
from repro.zoo.cifar10 import (
    CIFAR10_PROTOTXT,
    cifar10_solver_params,
    cifar10_spec,
)
from repro.zoo.mlp import MLP_PROTOTXT, mlp_solver_params, mlp_spec
from repro.zoo.build import (
    ZOO_NETS,
    UnknownNet,
    build_net,
    build_solver,
    zoo_spec,
)

__all__ = [
    "CIFAR10_PROTOTXT",
    "LENET_PROTOTXT",
    "MLP_PROTOTXT",
    "ZOO_NETS",
    "UnknownNet",
    "mlp_solver_params",
    "mlp_spec",
    "build_net",
    "build_solver",
    "cifar10_solver_params",
    "cifar10_spec",
    "lenet_solver_params",
    "lenet_spec",
    "zoo_spec",
]
