"""Default data-source registrations for the zoo prototxts.

The zoo network definitions reference sources by name (e.g.
``source: "synth_mnist_train"``), just as Caffe's reference prototxts
point at LMDB paths.  Calling :func:`register_default_sources` installs
factories for all of them.  A source renders its dataset on its first
``next_batch``, not when the net is built, so shape inference, serving
(which swaps the source out) and static analysis never render; the
rendered dataset is cached so repeated net builds do not re-render it.
"""

from __future__ import annotations

from functools import lru_cache

from repro.data.batch_source import RenderedArraySource
from repro.data.synth_cifar import SyntheticCIFAR10
from repro.data.synth_mnist import SyntheticMNIST
from repro.framework.layers.data import register_source

#: Sample counts for the default synthetic datasets.  Small enough to
#: render quickly, large enough to show convergence.
TRAIN_SAMPLES = 2048
TEST_SAMPLES = 512

#: Declared per-sample geometry, letting static shape inference resolve
#: the zoo data layers without rendering a single synthetic image.
MNIST_SAMPLE_SHAPE = (1, 28, 28)
CIFAR_SAMPLE_SHAPE = (3, 32, 32)


@lru_cache(maxsize=None)
def _mnist(split: str) -> SyntheticMNIST:
    if split == "train":
        return SyntheticMNIST(n_samples=TRAIN_SAMPLES, seed=1)
    return SyntheticMNIST(n_samples=TEST_SAMPLES, seed=2)


@lru_cache(maxsize=None)
def _cifar(split: str) -> SyntheticCIFAR10:
    if split == "train":
        return SyntheticCIFAR10(n_samples=TRAIN_SAMPLES, seed=3)
    return SyntheticCIFAR10(n_samples=TEST_SAMPLES, seed=4)


def _factory(dataset, split: str, shape):
    """Builds a fresh, unrendered source over ``dataset(split)``."""
    def render():
        rendered = dataset(split)
        return rendered.images, rendered.labels

    size = TRAIN_SAMPLES if split == "train" else TEST_SAMPLES
    return lambda: RenderedArraySource(render, shape, size)


def register_default_sources() -> None:
    """Register the four named sources the zoo prototxts use.

    Sources are created fresh per call (so each net gets an independent
    cursor), but the underlying datasets are cached.
    """
    for prefix, dataset, shape in (
        ("synth_mnist", _mnist, MNIST_SAMPLE_SHAPE),
        ("synth_cifar", _cifar, CIFAR_SAMPLE_SHAPE),
    ):
        for split in ("train", "test"):
            register_source(f"{prefix}_{split}",
                            _factory(dataset, split, shape), shape=shape)
