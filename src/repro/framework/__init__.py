"""Caffe-like deep learning framework substrate.

This package re-implements, in Python, the parts of the Caffe framework
that the paper's coarse-grain parallelization operates on:

* :class:`~repro.framework.blob.Blob` — the unified N-d storage unit with
  ``data`` and ``diff`` halves (Section 2.1.1 of the paper).
* :mod:`repro.framework.layers` — the layer zoo.  Every layer implements
  the forward/backward interface of Algorithm 2/3 and, additionally, the
  *chunk protocol* that exposes its coalescable outer iteration space to
  the coarse-grain runtime (Algorithm 4/5).
* :class:`~repro.framework.net.Net` — DAG assembly from a parsed prototxt
  network definition, plus forward/backward drivers.
* :mod:`repro.framework.solvers` — SGD, AdaGrad and Nesterov solvers with
  Caffe's learning-rate policies.
"""

from repro.framework.blob import Blob
from repro.framework.layer import Layer, LayerParams
from repro.framework.net import Net
from repro.framework.net_spec import LayerSpec, NetSpec
from repro.framework.prototxt import parse_prototxt

__all__ = [
    "Blob",
    "Layer",
    "LayerParams",
    "LayerSpec",
    "Net",
    "NetSpec",
    "parse_prototxt",
]
