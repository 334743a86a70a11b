"""Property-based tests for im2col/col2im (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle_kernels as oracle  # tests/ is on sys.path (conftest.py)
from repro import blaslib


@st.composite
def conv_case(draw):
    c = draw(st.integers(1, 3))
    kh = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 3))
    sh = draw(st.integers(1, 2))
    sw = draw(st.integers(1, 2))
    ph = draw(st.integers(0, kh - 1))
    pw = draw(st.integers(0, kw - 1))
    h = draw(st.integers(kh, 7))
    w = draw(st.integers(kw, 7))
    seed = draw(st.integers(0, 2**16))
    return c, h, w, kh, kw, ph, pw, sh, sw, seed


class TestIm2colProperties:
    @given(case=conv_case())
    @settings(max_examples=60, deadline=None)
    def test_fast_equals_reference(self, case):
        c, h, w, kh, kw, ph, pw, sh, sw, seed = case
        image = np.random.default_rng(seed).standard_normal(
            (c, h, w)).astype(np.float32)
        fast = blaslib.im2col(image, kh, kw, ph, pw, sh, sw)
        slow = oracle.reference_im2col(image, kh, kw, ph, pw, sh, sw)
        assert np.array_equal(fast, slow)

    @given(case=conv_case())
    @settings(max_examples=60, deadline=None)
    def test_adjoint_identity(self, case):
        """<im2col(x), y> == <x, col2im(y)> for all shapes."""
        c, h, w, kh, kw, ph, pw, sh, sw, seed = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        col = blaslib.im2col(x, kh, kw, ph, pw, sh, sw)
        y = rng.standard_normal(col.shape).astype(np.float32)
        folded = blaslib.col2im(y, c, h, w, kh, kw, ph, pw, sh, sw)
        lhs = float(np.dot(col.astype(np.float64).ravel(),
                           y.astype(np.float64).ravel()))
        rhs = float(np.dot(x.astype(np.float64).ravel(),
                           folded.astype(np.float64).ravel()))
        assert abs(lhs - rhs) <= 1e-3 * max(abs(lhs), abs(rhs), 1.0)

    @given(case=conv_case())
    @settings(max_examples=40, deadline=None)
    def test_column_count_matches_output_size(self, case):
        c, h, w, kh, kw, ph, pw, sh, sw, seed = case
        from repro.blaslib.im2col import conv_out_size
        image = np.zeros((c, h, w), dtype=np.float32)
        col = blaslib.im2col(image, kh, kw, ph, pw, sh, sw)
        oh = conv_out_size(h, kh, ph, sh)
        ow = conv_out_size(w, kw, pw, sw)
        assert col.shape == (c * kh * kw, oh * ow)


@st.composite
def strided_case(draw):
    """Strides up to 4 (past the kernel too), pads up to the kernel, one
    image or a stack of one or of several, contiguous or not."""
    kh = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 3))
    ph = draw(st.integers(0, kh))
    pw = draw(st.integers(0, kw))
    h = draw(st.integers(max(1, kh - 2 * ph), 9))
    w = draw(st.integers(max(1, kw - 2 * pw), 9))
    return dict(
        c=draw(st.integers(1, 3)), h=h, w=w, kh=kh, kw=kw, ph=ph, pw=pw,
        sh=draw(st.integers(1, 4)), sw=draw(st.integers(1, 4)),
        stack=draw(st.sampled_from([None, 1, 3])),
        sliced=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
    )


class TestIm2colTwoStageCopy:
    @given(case=strided_case())
    @settings(max_examples=80, deadline=None)
    def test_bytes_equal_the_reference(self, case):
        """``im2col`` is a pure copy: its bytes are the scalar loop's at
        every stride, pad and stack, through a dirty ``out`` and a NaN
        ``work`` plane."""
        c, h, w = case["c"], case["h"], case["w"]
        args = tuple(case[k] for k in ("kh", "kw", "ph", "pw", "sh", "sw"))
        lead = () if case["stack"] is None else (case["stack"],)
        rng = np.random.default_rng(case["seed"])
        wide = rng.standard_normal((*lead, c, h, 2 * w)).astype(np.float32)
        image = wide[..., 1::2] if case["sliced"] else wide[..., :w].copy()
        want = oracle.reference_im2col(image, *args)
        assert blaslib.im2col(image, *args).tobytes() == want.tobytes()
        out = np.full_like(want, 7.0)
        work = np.full((*lead, c, h + 2 * case["ph"], w + 2 * case["pw"]),
                       np.nan, np.float32)
        assert blaslib.im2col(image, *args, out=out, work=work) is out
        assert out.tobytes() == want.tobytes()
