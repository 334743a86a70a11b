"""Loop coalescing: flattening nested loops into one induction variable.

The paper's Algorithm 4 collapses the outermost ``k`` loops of a layer's
nest ``(S, D1, ..., DN)`` into a single loop over
``civ in [0, S * D1 * ... * Dk)`` and recovers the original indices with
per-dimension functions ``f_s, f_1, ..., f_k``.  :class:`CoalescedSpace`
implements that bijection (row-major, matching the blob layout, so
consecutive ``civ`` values touch consecutive memory) plus the inverse.

The point of the transformation — explained in Section 3.2.1 — is work
distribution: under a static schedule the minimal unit of distribution is
one iteration, so coalescing multiplies the iteration count and shrinks
the work per iteration, letting the scheduler balance threads whose
counts do not divide the batch size.  :meth:`CoalescedSpace.imbalance`
quantifies exactly that effect and is used by the coalescing ablation
benchmark.
"""

from __future__ import annotations

from typing import Sequence, Tuple


class CoalescedSpace:
    """Bijection between ``civ`` and the coalesced loop indices.

    Parameters
    ----------
    dims:
        Extents of the coalesced loops, outermost first — e.g.
        ``(S, D1, D2)`` for a coalesce depth of 3.
    """

    def __init__(self, dims: Sequence[int]) -> None:
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("coalesced space needs at least one dimension")
        for d in dims:
            if d <= 0:
                raise ValueError(f"coalesced dimensions must be positive: {dims}")
        self.dims = dims
        self._strides = []
        stride = 1
        for d in reversed(dims):
            self._strides.append(stride)
            stride *= d
        self._strides.reverse()
        self.size = stride

    def indices(self, civ: int) -> Tuple[int, ...]:
        """The original loop indices of iteration ``civ`` (the paper's
        ``f_s(civ), f_1(civ), ...``)."""
        if not 0 <= civ < self.size:
            raise IndexError(f"civ {civ} out of range [0, {self.size})")
        out = []
        remainder = civ
        for stride in self._strides:
            out.append(remainder // stride)
            remainder %= stride
        return tuple(out)

    def civ(self, indices: Sequence[int]) -> int:
        """Inverse map: loop indices -> coalesced induction variable."""
        if len(indices) != len(self.dims):
            raise ValueError(
                f"{len(indices)} indices for {len(self.dims)} dimensions"
            )
        total = 0
        for idx, extent, stride in zip(indices, self.dims, self._strides):
            if not 0 <= idx < extent:
                raise IndexError(
                    f"index {idx} out of range for extent {extent}"
                )
            total += idx * stride
        return total

    def imbalance(self, num_threads: int) -> float:
        """Static-schedule load imbalance of this space.

        Ratio of the largest per-thread iteration count to the ideal
        (``size / num_threads``), minus 1 — zero means perfect balance.
        A batch-only loop (no coalescing) with ``S`` slightly above a
        multiple of the thread count shows the large imbalance the paper's
        "work unbalance" paragraph describes.
        """
        if num_threads <= 0:
            raise ValueError(f"num_threads must be positive: {num_threads}")
        ideal = self.size / num_threads
        largest = -(-self.size // num_threads)  # ceil division
        return largest / ideal - 1.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CoalescedSpace(dims={self.dims}, size={self.size})"
