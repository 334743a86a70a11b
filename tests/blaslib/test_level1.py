"""Unit tests for level-1 BLAS kernels, against the pure-Python oracle too."""

import numpy as np
import pytest

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)
from repro import blaslib


def vec(*values):
    return np.array(values, dtype=np.float32)


class TestAxpy:
    def test_basic(self):
        y = vec(1, 2, 3)
        blaslib.axpy(2.0, vec(1, 1, 1), y)
        assert np.allclose(y, [3, 4, 5])

    def test_alpha_one_fast_path(self):
        y = vec(1, 2, 3)
        blaslib.axpy(1.0, vec(5, 6, 7), y)
        assert np.allclose(y, [6, 8, 10])

    def test_returns_y(self):
        y = vec(0)
        assert blaslib.axpy(1.0, vec(1), y) is y

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            blaslib.axpy(1.0, vec(1, 2), vec(1))

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            blaslib.axpy(1.0, np.zeros((2, 2), np.float32), vec(1))

    def test_reference_matches_numpy(self):
        x = vec(1, -2, 3.5)
        y1, y2 = vec(4, 5, 6), vec(4, 5, 6)
        blaslib.axpy(-1.5, x, y1)
        oracle.reference_axpy(-1.5, x, y2)
        assert np.allclose(y1, y2)


class TestAxpby:
    def test_basic(self):
        y = vec(1, 2)
        blaslib.axpby(2.0, vec(3, 4), 0.5, y)
        assert np.allclose(y, [6.5, 9.0])

    def test_reference_matches(self):
        y1, y2 = vec(1, 2), vec(1, 2)
        blaslib.axpby(3.0, vec(1, 1), -2.0, y1)
        oracle.reference_axpby(3.0, vec(1, 1), -2.0, y2)
        assert np.allclose(y1, y2)


class TestScalSetCopy:
    def test_scal(self):
        x = vec(2, 4)
        blaslib.scal(0.5, x)
        assert np.allclose(x, [1, 2])

    def test_set_scalar(self):
        x = vec(1, 2, 3)
        blaslib.set_scalar(7.0, x)
        assert np.allclose(x, [7, 7, 7])

    def test_copy(self):
        y = vec(0, 0)
        blaslib.copy(vec(3, 4), y)
        assert np.allclose(y, [3, 4])

    def test_reference_scal(self):
        x = vec(1, 2, 3)
        oracle.reference_scal(3.0, x)
        assert np.allclose(x, [3, 6, 9])


class TestReductions:
    def test_dot(self):
        assert blaslib.dot(vec(1, 2, 3), vec(4, 5, 6)) == pytest.approx(32.0)

    def test_asum(self):
        assert blaslib.asum(vec(-1, 2, -3)) == pytest.approx(6.0)

    def test_nrm2(self):
        assert blaslib.nrm2(vec(3, 4)) == pytest.approx(5.0)

    def test_empty_vectors(self):
        empty = np.zeros(0, dtype=np.float32)
        assert blaslib.dot(empty, empty) == 0.0
        assert blaslib.asum(empty) == 0.0

    def test_reference_dot(self):
        assert oracle.reference_dot(vec(1, 2), vec(3, 4)) == pytest.approx(11.0)
