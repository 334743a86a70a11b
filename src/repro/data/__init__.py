"""Dataset substrate: deterministic synthetic stand-ins for MNIST/CIFAR-10.

The evaluation container is offline, so the real datasets are replaced by
procedural generators with the same shapes and a learnable class
structure:

* :class:`~repro.data.synth_mnist.SyntheticMNIST` — 28x28x1 grayscale
  "digits" rendered from per-class stroke skeletons with random jitter,
  translation and noise.
* :class:`~repro.data.synth_cifar.SyntheticCIFAR10` — 32x32x3 color images
  with per-class texture/shape signatures.

Both are exposed through :class:`~repro.data.batch_source.ArrayBatchSource`
(the LMDB-reader substitute that the framework's Data layer consumes) and
registered under the names the zoo prototxts reference; a registered
source renders its dataset on its first batch draw, not at net build.
"""

from repro.data.batch_source import ArrayBatchSource, BatchSource
from repro.data.synth_mnist import SyntheticMNIST
from repro.data.synth_cifar import SyntheticCIFAR10
from repro.data.registry import register_default_sources

__all__ = [
    "ArrayBatchSource",
    "BatchSource",
    "SyntheticCIFAR10",
    "SyntheticMNIST",
    "register_default_sources",
]
