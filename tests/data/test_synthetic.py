"""Unit tests for the synthetic MNIST / CIFAR-10 datasets."""

import hashlib

import numpy as np
import pytest

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)
from repro.data import (
    SyntheticCIFAR10,
    SyntheticMNIST,
    register_default_sources,
    registry,
    synth_mnist,
)

#: Every (n_samples, seed, noise, jitter) this file builds SyntheticMNIST with.
MNIST_CONFIGS = [
    (32, 0, 0.05, 0.02),
    (16, 0, 0.05, 0.02),
    (8, 5, 0.05, 0.02),
    (8, 1, 0.05, 0.02),
    (8, 2, 0.05, 0.02),
    (300, 0, 0.05, 0.02),
    (400, 0, 0.02, 0.02),
    (100, 9, 0.02, 0.02),
]

#: SHA-256 of ``images`` then ``labels`` bytes of each zoo split.  These
#: change only in a deliberate re-baseline of the synthetic data.
ZOO_SPLIT_SHA256 = {
    ("mnist", "train"):
        "ac27534863b789960c80f0ed803c9bae3c0bed9b261685d2b5afa1a9668a2c57",
    ("mnist", "test"):
        "5b2f83c906a36ba54ffe6d90018c1778631b8422833c9a83953e99870b906d76",
    ("cifar", "train"):
        "eaf805bcf6d5d48df674740326be6afe9ca3dc07cb8942e62067c8e7f5f93510",
    ("cifar", "test"):
        "13a3617162894e508b9b5ff4bfbae847a613be9405ae96e1eccd058782bc0083",
}


class TestSyntheticMNIST:
    def test_shapes(self):
        ds = SyntheticMNIST(n_samples=32, seed=0)
        assert ds.images.shape == (32, 1, 28, 28)
        assert ds.labels.shape == (32,)
        assert ds.shape == (1, 28, 28)

    def test_value_range(self):
        ds = SyntheticMNIST(n_samples=16, seed=0)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_deterministic(self):
        a = SyntheticMNIST(n_samples=8, seed=5)
        b = SyntheticMNIST(n_samples=8, seed=5)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        a = SyntheticMNIST(n_samples=8, seed=1)
        b = SyntheticMNIST(n_samples=8, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_all_classes_present(self):
        ds = SyntheticMNIST(n_samples=300, seed=0)
        assert set(ds.labels.tolist()) == set(range(10))

    def test_images_have_ink(self):
        ds = SyntheticMNIST(n_samples=16, seed=0)
        # every digit draws something substantial
        assert (ds.images.reshape(16, -1).sum(axis=1) > 10).all()

    def test_classes_are_distinguishable(self):
        """Nearest-class-mean classification beats chance by a wide
        margin — the classes carry learnable signal."""
        train = SyntheticMNIST(n_samples=400, seed=0, noise=0.02)
        test = SyntheticMNIST(n_samples=100, seed=9, noise=0.02)
        means = np.stack([
            train.images[train.labels == c].reshape(-1, 784).mean(axis=0)
            for c in range(10)
        ])
        flat = test.images.reshape(-1, 784)
        predictions = np.argmin(
            ((flat[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1
        )
        accuracy = (predictions == test.labels).mean()
        assert accuracy > 0.5  # chance is 0.1

    def test_invalid_sample_count(self):
        with pytest.raises(ValueError):
            SyntheticMNIST(n_samples=0)


    @pytest.mark.parametrize("n, seed, noise, jitter", MNIST_CONFIGS)
    def test_brush_pass_matches_per_point_loop(self, monkeypatch, n, seed,
                                               noise, jitter):
        """The vectorized brush renders the bytes the per-point
        ``canvas +=`` loop rendered."""
        new = SyntheticMNIST(n, seed=seed, noise=noise, jitter=jitter)
        monkeypatch.setattr(synth_mnist, "_rasterize", oracle.mnist_rasterize)
        old = SyntheticMNIST(n, seed=seed, noise=noise, jitter=jitter)
        assert new.images.tobytes() == old.images.tobytes()
        assert new.labels.tobytes() == old.labels.tobytes()


class TestSyntheticCIFAR10:
    def test_shapes(self):
        ds = SyntheticCIFAR10(n_samples=16, seed=0)
        assert ds.images.shape == (16, 3, 32, 32)
        assert ds.shape == (3, 32, 32)

    def test_value_range(self):
        ds = SyntheticCIFAR10(n_samples=16, seed=0)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0

    def test_deterministic(self):
        a = SyntheticCIFAR10(n_samples=8, seed=7)
        b = SyntheticCIFAR10(n_samples=8, seed=7)
        assert np.array_equal(a.images, b.images)

    def test_color_signatures_differ(self):
        ds = SyntheticCIFAR10(n_samples=400, seed=0)
        channel_means = np.stack([
            ds.images[ds.labels == c].mean(axis=(0, 2, 3))
            for c in range(10)
        ])
        # class hues are distinct: pairwise distances are non-trivial
        from itertools import combinations
        distances = [np.linalg.norm(channel_means[a] - channel_means[b])
                     for a, b in combinations(range(10), 2)]
        assert min(distances) > 0.01

    def test_classes_distinguishable(self):
        train = SyntheticCIFAR10(n_samples=400, seed=0, noise=0.02)
        test = SyntheticCIFAR10(n_samples=100, seed=9, noise=0.02)
        dim = 3 * 32 * 32
        means = np.stack([
            train.images[train.labels == c].reshape(-1, dim).mean(axis=0)
            for c in range(10)
        ])
        flat = test.images.reshape(-1, dim)
        predictions = np.argmin(
            ((flat[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1
        )
        assert (predictions == test.labels).mean() > 0.4


@pytest.mark.parametrize("dataset, split", sorted(ZOO_SPLIT_SHA256))
def test_zoo_split_bytes_pinned(dataset, split):
    rendered = getattr(registry, f"_{dataset}")(split)
    digest = hashlib.sha256(rendered.images.tobytes())
    digest.update(rendered.labels.tobytes())
    assert digest.hexdigest() == ZOO_SPLIT_SHA256[dataset, split]


class TestRegistry:
    def test_default_sources_registered(self):
        from repro.data import register_default_sources
        from repro.framework.layers.data import create_source
        register_default_sources()
        for name in ("synth_mnist_train", "synth_mnist_test",
                     "synth_cifar_train", "synth_cifar_test"):
            src = create_source(name)
            assert src.size > 0

    def test_sources_share_cached_dataset(self):
        from repro.data import register_default_sources
        from repro.framework.layers.data import create_source
        register_default_sources()
        a = create_source("synth_mnist_train")
        b = create_source("synth_mnist_train")
        assert a is not b  # independent cursors
        assert np.array_equal(a.next_batch(4)[0], b.next_batch(4)[0])


class TestRenderOnFirstDraw:
    """The zoo sources render their dataset on the first ``next_batch``."""

    @pytest.fixture
    def renders(self, monkeypatch):
        """Count dataset renders from an empty cache."""
        counts = {"n": 0}

        def counting(cls):
            def build(*args, **kwargs):
                counts["n"] += 1
                return cls(*args, **kwargs)
            return build

        for name in ("SyntheticMNIST", "SyntheticCIFAR10"):
            monkeypatch.setattr(registry, name,
                                counting(getattr(registry, name)))
        registry._mnist.cache_clear()
        registry._cifar.cache_clear()
        return counts

    def test_serve_engine_never_renders(self, renders):
        from repro.serve import InferenceEngine
        from repro.zoo import build_net

        with InferenceEngine(lambda: build_net("lenet", "TEST")) as engine:
            sample = np.zeros(engine.sample_shape, dtype=np.float32)
            assert engine.run_batch([sample]).outputs[0] is not None
        assert renders["n"] == 0

    def test_training_renders_on_first_step(self, renders):
        from repro.zoo import build_solver

        solver = build_solver("mlp", 4, batch=4)
        assert renders["n"] == 0
        solver.step(1)
        assert renders["n"] == 1
        solver.step(1)
        build_solver("mlp", 4, batch=4).step(1)
        assert renders["n"] == 1  # cached per process

    def test_cursor_round_trips_unrendered(self, renders):
        from repro.framework.layers.data import create_source

        register_default_sources()
        a = create_source("synth_mnist_train")
        b = create_source("synth_mnist_train")
        assert a.shape == (1, 28, 28) and a.size == registry.TRAIN_SAMPLES
        state = a.get_state()
        b.set_state(state)
        assert b.get_state() == state
        assert renders["n"] == 0
        assert np.array_equal(a.next_batch(3)[0], b.next_batch(3)[0])
        assert renders["n"] == 1
