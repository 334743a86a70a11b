"""Unit tests for the Blob storage unit."""

import numpy as np
import pytest

from repro.framework.blob import Blob


class TestShape:
    def test_basic(self):
        blob = Blob((2, 3, 4, 5))
        assert blob.shape == (2, 3, 4, 5)
        assert blob.count == 120
        assert blob.num_axes == 4

    def test_scalar(self):
        blob = Blob(())
        assert blob.count == 1
        assert blob.num_axes == 0

    def test_legacy_accessors(self):
        blob = Blob((2, 3, 4, 5))
        assert (blob.num, blob.channels, blob.height, blob.width) == (2, 3, 4, 5)

    def test_legacy_pads_missing_axes(self):
        blob = Blob((2, 3))
        assert (blob.num, blob.channels, blob.height, blob.width) == (2, 3, 1, 1)

    def test_legacy_rejects_5d(self):
        with pytest.raises(ValueError, match="legacy"):
            Blob((1, 2, 3, 4, 5)).num

    def test_negative_dim(self):
        with pytest.raises(ValueError, match="negative"):
            Blob((2, -1))

    def test_canonical_axis(self):
        blob = Blob((2, 3, 4))
        assert blob.canonical_axis(-1) == 2
        assert blob.canonical_axis(1) == 1
        with pytest.raises(IndexError):
            blob.canonical_axis(3)


class TestOffset:
    def test_paper_formula(self):
        """offset(n,k,h,w) == ((n*K + k)*H + h)*W + w (paper Section 2.1.1)."""
        n_, k_, h_, w_ = 4, 3, 5, 6
        blob = Blob((n_, k_, h_, w_))
        for n in (0, 1, 3):
            for k in (0, 2):
                for h in (0, 4):
                    for w in (0, 5):
                        expected = ((n * k_ + k) * h_ + h) * w_ + w
                        assert blob.offset((n, k, h, w)) == expected

    def test_matches_numpy_ravel(self):
        blob = Blob((2, 3, 4))
        for idx in np.ndindex(2, 3, 4):
            assert blob.offset(idx) == np.ravel_multi_index(idx, (2, 3, 4))

    def test_partial_indices(self):
        blob = Blob((2, 3, 4))
        assert blob.offset((1,)) == 12
        assert blob.offset((1, 2)) == 20

    def test_out_of_range(self):
        blob = Blob((2, 3))
        with pytest.raises(IndexError, match="out of range"):
            blob.offset((2, 0))
        with pytest.raises(IndexError, match="indices"):
            blob.offset((0, 0, 0))


class TestReshape:
    def test_shrink_preserves_storage(self):
        blob = Blob((4, 4))
        blob.flat_data[:] = np.arange(16)
        blob.reshape((2, 4))
        assert np.allclose(blob.flat_data, np.arange(8))

    def test_grow_reallocates(self):
        blob = Blob((2,))
        blob.reshape((4, 4))
        assert blob.count == 16
        assert np.allclose(blob.flat_data, 0)

    def test_reshape_like(self):
        a, b = Blob((2, 3)), Blob((6,))
        b.reshape_like(a)
        assert b.shape == (2, 3)


class TestDataDiff:
    def test_views_share_storage(self):
        blob = Blob((2, 2))
        blob.data[0, 0] = 5.0
        assert blob.flat_data[0] == 5.0

    def test_set_data(self):
        blob = Blob((3,))
        blob.set_data([1, 2, 3])
        assert np.allclose(blob.data, [1, 2, 3])

    def test_set_data_wrong_size(self):
        with pytest.raises(ValueError, match="set_data"):
            Blob((3,)).set_data([1, 2])

    def test_zero_helpers(self):
        blob = Blob((3,))
        blob.set_data([1, 2, 3])
        blob.flat_diff[:] = 4
        blob.zero_data().zero_diff()
        assert blob.asum_data() == 0 and blob.asum_diff() == 0

    def test_norms(self):
        blob = Blob((2,))
        blob.set_data([3, -4])
        assert blob.asum_data() == pytest.approx(7.0)
        assert blob.sumsq_data() == pytest.approx(25.0)

    def test_update_subtracts_diff(self):
        blob = Blob((2,))
        blob.set_data([10, 20])
        blob.flat_diff[:] = [1, 2]
        blob.update()
        assert np.allclose(blob.data, [9, 18])

    def test_scale_diff(self):
        blob = Blob((2,))
        blob.flat_diff[:] = [2, 4]
        blob.scale_diff(0.5)
        assert np.allclose(blob.flat_diff, [1, 2])

    def test_copy_from(self):
        a, b = Blob((2,)), Blob((2,))
        a.set_data([1, 2])
        b.copy_from(a)
        assert np.allclose(b.data, [1, 2])

    def test_copy_from_shape_mismatch(self):
        a, b = Blob((2,)), Blob((3,))
        with pytest.raises(ValueError, match="copy_from"):
            b.copy_from(a)
        b.copy_from(a, reshape=True)
        assert b.shape == (2,)


class TestSharing:
    def test_share_data(self):
        a, b = Blob((3,)), Blob((3,))
        b.set_data([1, 2, 3])
        a.share_data_with(b)
        b.flat_data[0] = 9
        assert a.flat_data[0] == 9

    def test_share_larger_rejected(self):
        a, b = Blob((4,)), Blob((3,))
        with pytest.raises(ValueError, match="smaller"):
            a.share_data_with(b)

    def test_nbytes(self):
        assert Blob((10,)).nbytes == 10 * 4 * 2  # data + diff
