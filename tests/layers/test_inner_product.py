"""Unit tests for the InnerProduct layer."""

import numpy as np
import pytest

from repro.framework.blob import Blob
from repro.framework.layer import create_layer
from repro.testing import make_blob, spec


def ip_layer(**params):
    defaults = dict(num_output=4, filler_seed=13,
                    weight_filler={"type": "gaussian", "std": 0.5},
                    bias_filler={"type": "constant", "value": 0.25})
    defaults.update(params)
    return create_layer(spec("ip", "InnerProduct", **defaults))


class TestForward:
    def test_matches_matmul(self, rng):
        layer = ip_layer()
        bottom = [make_blob((3, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        expected = bottom[0].data @ layer.blobs[0].data.T + layer.blobs[1].data
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_flattens_trailing_axes(self, rng):
        layer = ip_layer()
        bottom = [make_blob((2, 3, 4, 4), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert top[0].shape == (2, 4)
        flat = bottom[0].data.reshape(2, -1)
        expected = flat @ layer.blobs[0].data.T + layer.blobs[1].data
        assert np.allclose(top[0].data, expected, atol=1e-5)

    def test_no_bias(self, rng):
        layer = ip_layer(bias_term=False)
        bottom = [make_blob((2, 3), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        assert np.allclose(top[0].data, bottom[0].data @ layer.blobs[0].data.T,
                           atol=1e-5)

    def test_chunked_equals_full_bitwise(self, rng):
        layer = ip_layer(num_output=7)
        bottom = [make_blob((5, 6), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        full = top[0].data.copy()
        top[0].zero_data()
        layer.forward_chunk(bottom, top, 0, 2)
        layer.forward_chunk(bottom, top, 2, 5)
        # bitwise: rows 0-4 are one ragged block, which both chunks
        # compute whole, each storing only its own rows
        assert np.array_equal(top[0].data, full)

    def test_inner_size_change_rejected(self, rng):
        layer = ip_layer()
        bottom = [make_blob((2, 5), rng=rng)]
        layer.setup(bottom, [Blob()])
        with pytest.raises(ValueError, match="inner size"):
            layer.reshape([make_blob((2, 6), rng=rng)], [Blob()])


class TestBackward:
    def test_gradient_check(self, rng):
        from repro.framework.gradient_check import check_gradient
        layer = ip_layer(num_output=3)
        bottom = [make_blob((4, 5), rng=rng)]
        check_gradient(layer, bottom, [Blob()])

    def test_weight_rows_chunking_invariant(self, rng):
        layer = ip_layer(num_output=6)
        bottom = [make_blob((4, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        top[0].flat_diff[:] = rng.standard_normal(top[0].count)

        def grads_with_rows(splits):
            for blob in layer.blobs:
                blob.zero_diff()
            lo = 0
            for hi in splits:
                layer._backward_weight_rows(top, bottom, lo, hi)
                lo = hi
            return layer.blobs[0].flat_diff.copy()

        a = grads_with_rows([6])
        b = grads_with_rows([1, 4, 6])
        assert np.array_equal(a, b)

    def test_backward_loops_structure(self, rng):
        layer = ip_layer()
        bottom = [make_blob((3, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        loops = layer.backward_loops(top, [True], bottom)
        assert len(loops) == 2
        assert not any(loop.reduction for loop in loops)  # row-parallel dW

    def test_backward_loops_skip_data_when_not_propagating(self, rng):
        layer = ip_layer()
        bottom = [make_blob((3, 5), rng=rng)]
        top = [Blob()]
        layer.setup(bottom, top)
        layer.forward(bottom, top)
        loops = layer.backward_loops(top, [False], bottom)
        assert len(loops) == 1  # only the weight loop


# ----------------------------------------------------------------------
# Block-GEMM kernels: cut-invariance (bitwise), parity with the frozen
# one-gemm-per-block loops (bitwise) and with the per-sample / per-row
# gemv loops (tolerance-bounded)
# ----------------------------------------------------------------------
import _oracle_kernels as oracle  # noqa: E402  (tests/ is on sys.path)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.framework.layers.inner_product import (  # noqa: E402
    _BLOCK,
    InnerProductLayer,
)
from repro.testing import NAN_BYTE, dirty_scratch_pool  # noqa: E402


@st.composite
def ip_case(draw):
    """Shapes around the block size 8: batch and ``num_output`` below it,
    not multiples of it, leaving a single-row ragged block (9, 17, 33)."""
    axis = draw(st.sampled_from([1, 2]))
    if axis == 1:
        lead = (draw(st.integers(1, 40)),)
    else:
        lead = (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    batch = int(np.prod(lead))
    num_output = draw(st.integers(1, 20))

    def cuts(space):
        return draw(st.lists(st.integers(0, space), max_size=4))

    return dict(
        type=draw(st.sampled_from(["InnerProduct", "FusedInnerProductReLU"])),
        shape=lead + (draw(st.integers(1, 48)),),
        params=dict(num_output=num_output, axis=axis,
                    bias_term=draw(st.booleans())),
        sample_cuts=cuts(batch), row_cuts=cuts(num_output),
        seed=draw(st.integers(0, 2**16)),
    )


#: Standard deviation of every operand in the generated cases.  A dot
#: product of up to 48 (or, over the batch, 40) such terms keeps its
#: partial sums below ~1, so the parity tolerance ``atol=1e-6`` is about
#: 16 float32 ulps of them: reassociation fits inside it even when a
#: result cancels to zero, a dropped or misplaced term (~1e-2) does not.
OPERAND_STD = 0.25


def setup_ip_case(case, type_=None):
    rng = np.random.default_rng(case["seed"])
    layer = create_layer(spec(
        "ip", type_ or case["type"], filler_seed=13,
        weight_filler={"type": "gaussian", "std": OPERAND_STD},
        bias_filler={"type": "gaussian", "std": OPERAND_STD},
        **case["params"]))
    size = int(np.prod(case["shape"]))
    bottom = [make_blob(case["shape"],
                        values=OPERAND_STD * rng.standard_normal(size))]
    top = [Blob()]
    layer.setup(bottom, top)
    layer.forward(bottom, top)
    top[0].flat_diff[:] = OPERAND_STD * rng.standard_normal(top[0].count)
    return layer, bottom, top, rng


def production(layer):
    cls = type(layer)  # FusedInnerProductReLU overrides forward_chunk
    return (cls.forward_chunk, cls._backward_data_chunk,
            cls._backward_weight_rows)


FROZEN = (oracle.ip_forward_chunk, oracle.ip_backward_data_chunk,
          oracle.ip_backward_weight_rows)


def kernels(layer, bottom, top, impl):
    """(name, the case's cuts it takes, its iteration space, arrays it
    writes, value they start from, chunk call) for the three kernels of
    ``impl``; the weight rows accumulate, the other two overwrite."""
    forward, backward_data, backward_weight = impl
    return [
        ("forward_chunk", "sample_cuts", layer.outer,
         [top[0].flat_data], 7.0,
         lambda lo, hi: forward(layer, bottom, top, lo, hi)),
        ("_backward_data_chunk", "sample_cuts", layer.outer,
         [bottom[0].flat_diff], 7.0,
         lambda lo, hi: backward_data(layer, top, bottom, lo, hi)),
        ("_backward_weight_rows", "row_cuts", layer.num_output,
         [blob.flat_diff for blob in layer.blobs], 0.0,
         lambda lo, hi: backward_weight(layer, top, bottom, lo, hi)),
    ]


def run_chunks(written, start_value, chunk, chunks):
    for array in written:
        array[:] = start_value
    for lo, hi in chunks:
        chunk(lo, hi)
    return [array.tobytes() for array in written]


def full_and_cut_bytes(case, impl=None):
    """``{kernel name: (bytes of one full-range call, bytes under
    case's partition — chunks in shuffled order, scratch pool
    NaN-filled)}`` for the kernels of ``impl`` (default: production)."""
    layer, bottom, top, rng = setup_ip_case(case)
    stored = {}
    for name, cuts, space, written, start_value, chunk in kernels(
            layer, bottom, top, impl or production(layer)):
        bounds = sorted({0, space, *case[cuts]})
        chunks = list(zip(bounds, bounds[1:]))
        rng.shuffle(chunks)
        full = run_chunks(written, start_value, chunk, [(0, space)])
        dirty_scratch_pool(NAN_BYTE)
        stored[name] = full, run_chunks(written, start_value, chunk, chunks)
    return stored


def cut_dependent_kernels(case, impl=None):
    """Names of the kernels of ``impl`` (default: production) whose
    bytes under ``case``'s partition differ from one full-range call's."""
    return [name for name, (full, cut) in full_and_cut_bytes(
        case, impl).items() if full != cut]


def lo_aligned_blocks(lo, hi):
    """The mutant walk: blocks of 8 counted from the chunk's own ``lo``
    rather than from absolute multiples of 8."""
    return [(a, min(a + _BLOCK, hi)) for a in range(lo, hi, _BLOCK)]


def lo_aligned_forward(layer, bottom, top, lo, hi):
    x = bottom[0].flat_data.reshape(layer.outer, layer.inner)
    y = top[0].flat_data.reshape(layer.outer, layer.num_output)
    for a, b in lo_aligned_blocks(lo, hi):
        y[a:b] = (layer.blobs[0].data @ x[a:b].T).T


def lo_aligned_backward_data(layer, top, bottom, lo, hi):
    dy = top[0].flat_diff.reshape(layer.outer, layer.num_output)
    dx = bottom[0].flat_diff.reshape(layer.outer, layer.inner)
    for a, b in lo_aligned_blocks(lo, hi):
        dx[a:b] = dy[a:b] @ layer.blobs[0].data


def lo_aligned_backward_weight(layer, top, bottom, lo, hi):
    x = bottom[0].flat_data.reshape(layer.outer, layer.inner)
    dy = top[0].flat_diff.reshape(layer.outer, layer.num_output)
    dweights = layer.blobs[0].flat_diff.reshape(layer.num_output, layer.inner)
    for a, b in lo_aligned_blocks(lo, hi):
        dweights[a:b] += dy[:, a:b].T @ x


LO_ALIGNED = (lo_aligned_forward, lo_aligned_backward_data,
              lo_aligned_backward_weight)


class TestCutInvariance:
    """A value depends on its absolute 8-aligned block, never on the
    chunk that computed it: any partition of the sample range and of the
    output-row range, run in any order on a NaN-filled scratch pool,
    stores the bytes one full-range call stores."""

    @given(case=ip_case())
    @settings(max_examples=200, deadline=None)
    def test_any_cut_any_order_same_bytes(self, case):
        assert cut_dependent_kernels(case) == []

    @pytest.mark.parametrize("batch", [3, 9, 17, 33])
    def test_every_single_cut_of_a_ragged_batch(self, batch):
        # batch < 8 is one ragged block; 9/17/33 end in a ragged block
        # of one row, which a cut at batch - 1 isolates.
        for cut in range(1, batch):
            case = dict(type="InnerProduct", shape=(batch, 33),
                        params=dict(num_output=batch, axis=1, bias_term=True),
                        sample_cuts=[cut], row_cuts=[cut], seed=cut)
            assert cut_dependent_kernels(case) == [], cut

    def test_blocks_aligned_at_lo_are_caught(self):
        """The control: the same check, run on kernels whose blocks
        start at the chunk's ``lo``, reports every one of them — block
        GEMMs of another composition are not the same bytes, so the
        absolute alignment is what the tests above certify."""
        caught = set()
        # K (the summed axis) is num_output for backward-data and the
        # batch for backward-weight; BLAS needs some length there before
        # another block composition changes a bit.
        for batch, num_output in [(17, 100), (9, 100), (64, 17), (100, 9)]:
            case = dict(type="InnerProduct", shape=(batch, 48),
                        params=dict(num_output=num_output, axis=1,
                                    bias_term=False),
                        sample_cuts=[3], row_cuts=[3], seed=batch)
            assert cut_dependent_kernels(case) == []
            caught.update(cut_dependent_kernels(case, LO_ALIGNED))
        assert caught == {"forward_chunk", "_backward_data_chunk",
                          "_backward_weight_rows"}


def use_per_block_gemms(patch):
    """InnerProductLayer's three chunk bodies back on the frozen one-gemm-
    per-block forms; FusedInnerProductReLU reaches them through super()."""
    patch.setattr(InnerProductLayer, "forward_chunk",
                  oracle.ip_block_forward_chunk)
    patch.setattr(InnerProductLayer, "_backward_data_chunk",
                  oracle.ip_block_backward_data_chunk)
    patch.setattr(InnerProductLayer, "_backward_weight_rows",
                  oracle.ip_block_backward_weight_rows)


class TestOracleParity:
    @given(case=ip_case())
    @settings(max_examples=100, deadline=None)
    def test_bitwise_the_per_block_gemms(self, case):
        """One stacked gemm per chunk stores the bytes of one gemm per
        block, full-range and under the case's cuts, for both layer
        types."""
        stacked = full_and_cut_bytes(case)
        with pytest.MonkeyPatch.context() as patch:
            use_per_block_gemms(patch)
            per_block = full_and_cut_bytes(case)
        assert stacked == per_block

    @given(case=ip_case())
    @settings(max_examples=200, deadline=None)
    def test_close_to_the_gemv_loops(self, case):
        layer, bottom, top, _ = setup_ip_case(case, type_="InnerProduct")
        new = kernels(layer, bottom, top, production(layer))
        old = kernels(layer, bottom, top, FROZEN)
        for (name, _, space, written, _, chunk), (*_, frozen) in zip(new,
                                                                     old):
            run_chunks(written, 0.0, chunk, [(0, space)])
            got = [array.copy() for array in written]
            run_chunks(written, 0.0, frozen, [(0, space)])
            for new_array, old_array in zip(got, written):
                np.testing.assert_allclose(new_array, old_array, rtol=1e-5,
                                           atol=1e-6, err_msg=name)


def test_the_chunk_wide_backward_is_gone():
    """``backward_chunk`` — one chunk-wide GEMM into ``param_grads``, a
    third and cut-dependent way to compute dW that no executor reached —
    is deleted, not overridden."""
    from repro.framework.layer import Layer
    from repro.framework.layers.inner_product import InnerProductLayer

    assert InnerProductLayer.backward_chunk is Layer.backward_chunk
