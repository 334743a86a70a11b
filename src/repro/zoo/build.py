"""Convenience builders: zoo name -> spec / runnable Net / Solver.

Everything that turns a zoo name into something runnable goes through
here — the training tools, the benchmark ledger, and every analyzer's
replay — so "build lenet at batch 4" and "that name is not in the zoo"
each exist once.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.data import register_default_sources
from repro.framework.net import Net
from repro.framework.net_spec import NetSpec, with_batch
from repro.framework.solvers import SolverParams, create_solver
from repro.zoo.cifar10 import cifar10_solver_params, cifar10_spec
from repro.zoo.lenet import lenet_solver_params, lenet_spec
from repro.zoo.mlp import mlp_solver_params, mlp_spec

_SPECS = {
    "lenet": (lenet_spec, lenet_solver_params),
    "cifar10": (cifar10_spec, cifar10_solver_params),
    "mlp": (mlp_spec, mlp_solver_params),
}

#: Every zoo net name, sorted.
ZOO_NETS = tuple(sorted(_SPECS))


class UnknownNet(KeyError):
    """A net name that is not in the zoo."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown zoo network {name!r}; available: {', '.join(ZOO_NETS)}"
        )

    # KeyError.__str__ would repr() the message.
    __str__ = Exception.__str__


def _entry(name: str):
    if name not in _SPECS:
        raise UnknownNet(name)
    register_default_sources()
    return _SPECS[name]


def zoo_spec(name: str, batch: Optional[int] = None) -> NetSpec:
    """A fresh spec of zoo net ``name``, optionally at batch ``batch``.

    ``name`` is ``"lenet"``, ``"cifar10"`` or ``"mlp"``; anything else
    raises :class:`UnknownNet`.
    """
    spec_fn, _ = _entry(name)
    return with_batch(spec_fn(), batch)


def zoo_solver_params(name: str, max_iter: int = 100) -> SolverParams:
    """The solver configuration zoo net ``name`` trains with."""
    _, params_fn = _entry(name)
    return params_fn(max_iter=max_iter)


def build_net(name: str, phase: str = "TRAIN",
              batch: Optional[int] = None) -> Net:
    """Build a zoo network wired to the synthetic data sources."""
    return Net(zoo_spec(name, batch), phase=phase)


def build_solver(
    name: str,
    max_iter: int = 100,
    with_test_net: bool = False,
    executor=None,
    params: Optional[SolverParams] = None,
    batch: Optional[int] = None,
    spec_transform: Optional[Callable[[NetSpec], NetSpec]] = None,
    post_build: Optional[Callable[[Net], None]] = None,
):
    """Build a ready-to-run solver for a zoo network.

    ``batch`` shrinks every data layer for the analyzers' replays;
    ``spec_transform`` rewrites the spec before a net is built from it
    and ``post_build`` mutates each built net (fusecheck replays
    fused + arena nets through these two hooks).
    """
    def make_net(phase: str) -> Net:
        spec = zoo_spec(name, batch)
        if spec_transform is not None:
            spec = spec_transform(spec)
        net = Net(spec, phase=phase)
        if post_build is not None:
            post_build(net)
        return net

    solver_params = params or zoo_solver_params(name, max_iter)
    train_net = make_net("TRAIN")
    test_net = make_net("TEST") if with_test_net else None
    solver = create_solver(solver_params, train_net, test_net=test_net)
    if executor is not None:
        solver.executor = executor
    if test_net is not None:
        solver.share_test_net_params()
    return solver
