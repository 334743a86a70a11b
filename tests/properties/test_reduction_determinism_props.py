"""Property tests for the reduction modes' determinism contracts.

Each reduction mode ships an invariance tier
(:data:`repro.core.reduction.REDUCTION_TIERS`); these properties pin the
contracts the determinism certifier enforces dynamically:

* ``blockwise`` — bitwise identical across thread counts (the tier the
  paper's convergence-invariance argument wants);
* ``ordered`` / ``tree`` — bitwise reproducible at a fixed thread count;
* divergence as small as one ULP is *detected* by the certifier's
  comparator, never silently passed — the property that makes the
  ``atomic`` tier honest.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParallelExecutor
from repro.core.reduction import (
    BITWISE_INVARIANT,
    DETERMINISTIC_PER_T,
    NONDETERMINISTIC,
    REDUCTION_TIERS,
    TIER_ORDER,
    invariance_tier,
)
from repro.framework.layer import LoopSpec


def _reduce_sum(space, width, seed, threads, mode, repeats=1):
    """Run the canonical privatized reduction — per-sample partial sums
    merged into one target — and return the target bytes per repeat."""
    rng = np.random.default_rng(seed)
    data = (rng.standard_normal((space, width)) * 10
            ).astype(np.float32) ** 3  # spread magnitudes: reassociation
    results = []                       # visibly moves low-order bits
    for _ in range(repeats):
        target = np.zeros(width, dtype=np.float32)

        def body(lo, hi, grads):
            for s in range(lo, hi):
                grads[0] += data[s]

        loop = LoopSpec(space=space, body=body, reduction=True,
                        grad_targets=(target,), block=1)
        with ParallelExecutor(num_threads=threads, reduction=mode) as ex:
            ex._dispatch("synthetic", "backward", loop)
        results.append(target.tobytes())
    return results


class TestBlockwiseBitwiseInvariance:
    @given(space=st.integers(1, 40), width=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_identical_across_thread_counts(self, space, width, seed):
        baseline = _reduce_sum(space, width, seed, 1, "blockwise")[0]
        for threads in (2, 4, 8):
            assert _reduce_sum(space, width, seed, threads,
                               "blockwise")[0] == baseline


class TestPerThreadCountDeterminism:
    @given(space=st.integers(1, 40), width=st.integers(1, 8),
           seed=st.integers(0, 2**16), threads=st.sampled_from([2, 4, 8]),
           mode=st.sampled_from(["ordered", "tree"]))
    @settings(max_examples=15, deadline=None)
    def test_replay_reproducible_at_fixed_t(self, space, width, seed,
                                            threads, mode):
        a, b = _reduce_sum(space, width, seed, threads, mode, repeats=2)
        assert a == b


class TestDivergenceDetection:
    """The certifier's comparator must catch any bit flip — this is what
    keeps the atomic mode's nondeterminism from passing silently."""

    @given(size=st.integers(1, 64), seed=st.integers(0, 2**16),
           index=st.integers(0, 63))
    @settings(max_examples=40)
    def test_one_ulp_flip_detected(self, size, seed, index):
        from repro.analysis.detcheck import _array_divergence, ulp_distance

        rng = np.random.default_rng(seed)
        a = rng.standard_normal(size).astype(np.float32)
        b = a.copy()
        assert _array_divergence(a, b) is None
        i = index % size
        b[i] = np.nextafter(b[i], np.float32(np.inf), dtype=np.float32)
        diff = _array_divergence(a, b)
        assert diff is not None
        ulps, _, count = diff
        assert ulps == 1 and count == 1
        assert ulp_distance(a, b) == 1

    @given(loss=st.floats(-1e6, 1e6, allow_nan=False, width=64))
    @settings(max_examples=40)
    def test_scalar_loss_flip_detected(self, loss):
        import math

        from repro.analysis.detcheck import ulp_distance_scalar

        assert ulp_distance_scalar(loss, loss) == 0
        bumped = math.nextafter(loss, math.inf)
        assert ulp_distance_scalar(loss, bumped) == 1


class TestTierMetadata:
    def test_tier_table_covers_every_mode(self):
        from repro.core.reduction import REDUCTION_MODES

        assert set(REDUCTION_TIERS) == set(REDUCTION_MODES)
        assert (TIER_ORDER[BITWISE_INVARIANT]
                > TIER_ORDER[DETERMINISTIC_PER_T]
                > TIER_ORDER[NONDETERMINISTIC])

    def test_dynamic_schedule_degrades_ordered_and_tree(self):
        assert invariance_tier("tree", static_schedule=False) \
            == NONDETERMINISTIC
        assert invariance_tier("blockwise", static_schedule=False) \
            == BITWISE_INVARIANT
        assert invariance_tier("atomic") == NONDETERMINISTIC

    def test_executor_exposes_tier(self):
        with ParallelExecutor(num_threads=2, reduction="blockwise") as ex:
            assert ex.invariance_tier == BITWISE_INVARIANT
        with ParallelExecutor(num_threads=2, reduction="ordered") as ex:
            assert ex.invariance_tier == DETERMINISTIC_PER_T
