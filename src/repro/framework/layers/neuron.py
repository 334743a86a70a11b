"""Element-wise ("neuron") layers: ReLU, Sigmoid, TanH, Power.

Neuron layers apply the same scalar function to every element, so their
coalesced iteration space is the *entire* flat element range — the fully
coalesced case of Algorithm 4 (``k = N``), which gives the scheduler the
finest work units the coarse-grain approach allows.  All of them support
in-place operation (top blob aliasing the bottom blob), as Caffe's do.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.framework.blob import Blob
from repro.framework.layer import FootprintDecl, Layer, register_layer
from repro.framework.shape_inference import (
    BlobInfo,
    RuleResult,
    register_shape_rule,
)


class NeuronLayer(Layer):
    """Base for element-wise layers: top has the bottom's shape."""

    exact_num_bottom = 1
    exact_num_top = 1


@register_layer("ReLU")
class ReLULayer(NeuronLayer):
    """Rectified linear unit: ``y = max(x, 0) + negative_slope * min(x, 0)``."""

    write_footprint = FootprintDecl()

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.negative_slope = float(self.spec.param("negative_slope", 0.0))

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data[lo:hi]
        y = top[0].flat_data[lo:hi]
        if self.negative_slope == 0.0:
            np.maximum(x, 0.0, out=y)
        else:
            np.copyto(y, np.where(x > 0, x, self.negative_slope * x))

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        # In-place safe: for slope 0 the (x > 0) mask is identical whether x
        # is the original input or the rectified output.
        x = bottom[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        dx = bottom[0].flat_diff[lo:hi]
        if self.negative_slope == 0.0:
            np.multiply(dy, x > 0, out=dx)
        else:
            np.copyto(dx, dy * np.where(x > 0, 1.0, self.negative_slope))


@register_layer("Sigmoid")
class SigmoidLayer(NeuronLayer):
    """Logistic sigmoid: ``y = 1 / (1 + exp(-x))``."""

    write_footprint = FootprintDecl()

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data[lo:hi]
        y = top[0].flat_data[lo:hi]
        # Numerically stable split by sign.
        np.copyto(y, np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                              np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x)))))

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        y = top[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        dx = bottom[0].flat_diff[lo:hi]
        np.copyto(dx, dy * y * (1.0 - y))


@register_layer("TanH")
class TanHLayer(NeuronLayer):
    """Hyperbolic tangent."""

    write_footprint = FootprintDecl()

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        np.tanh(bottom[0].flat_data[lo:hi], out=top[0].flat_data[lo:hi])

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        y = top[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        dx = bottom[0].flat_diff[lo:hi]
        np.copyto(dx, dy * (1.0 - y * y))


@register_layer("Power")
class PowerLayer(NeuronLayer):
    """``y = (shift + scale * x) ** power`` (Caffe PowerLayer)."""

    write_footprint = FootprintDecl()

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.power = float(self.spec.param("power", 1.0))
        self.scale = float(self.spec.param("scale", 1.0))
        self.shift = float(self.spec.param("shift", 0.0))

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data[lo:hi]
        y = top[0].flat_data[lo:hi]
        base = self.shift + self.scale * x
        if self.power == 1.0:
            np.copyto(y, base)
        else:
            np.copyto(y, np.power(base, self.power))

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        x = bottom[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        dx = bottom[0].flat_diff[lo:hi]
        if self.power == 1.0:
            np.copyto(dx, dy * self.scale)
        else:
            base = self.shift + self.scale * x
            # d/dx (base^p) = p * scale * base^(p-1)
            np.copyto(dx, dy * self.power * self.scale
                      * np.power(base, self.power - 1.0))


@register_layer("AbsVal")
class AbsValLayer(NeuronLayer):
    """Absolute value: ``y = |x|``."""

    write_footprint = FootprintDecl()

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        np.abs(bottom[0].flat_data[lo:hi], out=top[0].flat_data[lo:hi])

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        x = bottom[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        np.copyto(bottom[0].flat_diff[lo:hi], dy * np.sign(x))


@register_layer("Exp")
class ExpLayer(NeuronLayer):
    """``y = gamma^(shift + scale * x)`` (Caffe ExpLayer; default e^x)."""

    write_footprint = FootprintDecl()

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.base = float(self.spec.param("base", -1.0))  # -1 means e
        self.scale = float(self.spec.param("scale", 1.0))
        self.shift = float(self.spec.param("shift", 0.0))
        if self.base != -1.0 and self.base <= 0:
            raise ValueError(
                f"layer {self.name!r}: base must be positive (or -1 for e)"
            )
        log_base = 1.0 if self.base == -1.0 else np.log(self.base)
        self.inner_scale = log_base * self.scale
        self.inner_shift = log_base * self.shift

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data[lo:hi]
        np.exp(self.inner_shift + self.inner_scale * x,
               out=top[0].flat_data[lo:hi])

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        y = top[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        np.copyto(bottom[0].flat_diff[lo:hi], dy * y * self.inner_scale)


@register_layer("Log")
class LogLayer(NeuronLayer):
    """``y = log_base(shift + scale * x)`` (Caffe LogLayer; default ln)."""

    write_footprint = FootprintDecl()

    def layer_setup(self, bottom: Sequence[Blob], top: Sequence[Blob]) -> None:
        self.base = float(self.spec.param("base", -1.0))
        self.scale = float(self.spec.param("scale", 1.0))
        self.shift = float(self.spec.param("shift", 0.0))
        if self.base != -1.0 and self.base <= 0:
            raise ValueError(
                f"layer {self.name!r}: base must be positive (or -1 for e)"
            )
        self.denominator = 1.0 if self.base == -1.0 else np.log(self.base)

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data[lo:hi]
        np.copyto(top[0].flat_data[lo:hi],
                  np.log(self.shift + self.scale * x) / self.denominator)

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        x = bottom[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        np.copyto(
            bottom[0].flat_diff[lo:hi],
            dy * self.scale / ((self.shift + self.scale * x)
                               * self.denominator),
        )


@register_layer("BNLL")
class BNLLLayer(NeuronLayer):
    """Binomial normal log likelihood: ``y = log(1 + exp(x))``
    (softplus), computed stably for large |x|."""

    write_footprint = FootprintDecl()

    def forward_chunk(
        self, bottom: Sequence[Blob], top: Sequence[Blob], lo: int, hi: int
    ) -> None:
        x = bottom[0].flat_data[lo:hi]
        # log(1 + e^x) = max(x, 0) + log(1 + e^-|x|)
        np.copyto(top[0].flat_data[lo:hi],
                  np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))

    def backward_chunk(
        self,
        top: Sequence[Blob],
        propagate_down: Sequence[bool],
        bottom: Sequence[Blob],
        lo: int,
        hi: int,
        param_grads: Sequence[np.ndarray],
    ) -> None:
        if not propagate_down[0]:
            return
        x = bottom[0].flat_data[lo:hi]
        dy = top[0].flat_diff[lo:hi]
        sig = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        np.copyto(bottom[0].flat_diff[lo:hi], dy * sig)


@register_shape_rule(
    "ReLU", "Sigmoid", "TanH", "Power", "AbsVal", "Exp", "Log", "BNLL",
    inplace_ok=True,
)
def _neuron_shape_rule(spec, bottoms) -> RuleResult:
    """Element-wise layers: top has the bottom's shape, fully coalesced
    space."""
    return RuleResult(
        tops=[BlobInfo(bottoms[0].shape, bottoms[0].dtype)],
        forward_space=bottoms[0].count,
    )
