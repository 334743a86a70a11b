"""Deterministic fault injection for the resilience test-bed.

Every recovery path in :mod:`repro.resilience` is exercised by tests,
not hoped-for.  A :class:`FaultPlan` lists faults to fire at exact
iterations; :func:`inject` installs the plan on a solver (wrapping its
executor and patching the targeted layer instances) and removes every
patch on exit, so the same solver/net can run clean afterwards.

Fault classes:

* :class:`NaNBlob` — overwrite a named activation blob with NaN right
  after the forward pass of iteration ``k`` (models a numeric blow-up;
  exercised against the :class:`~repro.resilience.guards.HealthGuard`
  sentinels and policies).
* :class:`LayerRaise` — raise :class:`InjectedFault` from a named
  layer's forward or backward at iteration ``k`` (models a layer bug /
  OOM; exercises exception containment).
* :class:`ChunkAbort` — raise from *one thread's chunk* of a named
  layer's forward inside the parallel region at iteration ``k`` (models
  a dying worker; exercises :class:`~repro.core.team.ThreadTeam` abort,
  barrier recovery, and team reuse).  Fires on the first worker-thread
  chunk when the team has workers, on the master's first chunk for a
  one-thread team; it never fires under a plain ``SequentialExecutor``
  (no parallel region exists to abort).
* :class:`RequestStorm` / :class:`SlowChunk` / :class:`PoisonSample` —
  *serve-level* defect descriptors consumed by the servecheck chaos
  harness (:mod:`repro.serve.chaos`): an overload burst, a straggler
  chunk stall, and a NaN-poisoned client payload, replayed
  deterministically against the inference service.  They ride in a
  :class:`FaultPlan` (one fault vocabulary) and are ignored by
  :func:`inject`.
* :func:`corrupt_checkpoint` / :func:`truncate_checkpoint` — damage a
  checkpoint file deterministically (seeded byte flips / truncation) to
  exercise the CRC-32 and header verification paths.

Everything is deterministic: faults key on the solver's iteration
counter, and file damage is driven by ``random.Random(seed)``.
"""

from __future__ import annotations

import contextlib
import random
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, List, Tuple


class InjectedFault(RuntimeError):
    """The sentinel exception raised by LayerRaise / ChunkAbort faults.

    Tests and the rescheck certifier match on this type to tell an
    injected failure from a genuine bug in the recovery machinery.
    """


# ---------------------------------------------------------------------------
# fault descriptors
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NaNBlob:
    """Poison blob ``blob`` with NaN after forward of iteration ``iteration``."""

    blob: str
    iteration: int


@dataclass(frozen=True)
class LayerRaise:
    """Raise :class:`InjectedFault` inside layer ``layer`` at iteration
    ``iteration``, during ``phase`` ("forward" or "backward")."""

    layer: str
    iteration: int
    phase: str = "forward"

    def __post_init__(self) -> None:
        if self.phase not in ("forward", "backward"):
            raise ValueError(
                f"LayerRaise phase must be 'forward' or 'backward', "
                f"got {self.phase!r}"
            )


@dataclass(frozen=True)
class ChunkAbort:
    """Abort one thread's forward chunk of layer ``layer`` at iteration
    ``iteration`` (the first worker-thread chunk; the master's when the
    team is solo)."""

    layer: str
    iteration: int


@dataclass(frozen=True)
class RequestStorm:
    """Seeded *serve-level* defect descriptor: when trace replay reaches
    request index ``at_request``, submit ``count`` extra back-to-back
    requests (an overload burst).  Interpreted by the servecheck chaos
    harness (:mod:`repro.serve.chaos`), never by :func:`inject` — the
    certification gate requires every storm request to receive a coded
    shed/timeout/ok response, i.e. overload degrades loudly, not by
    dropping work on the floor."""

    at_request: int
    count: int = 8


@dataclass(frozen=True)
class SlowChunk:
    """Seeded serve-level defect descriptor: the first chunk of layer
    ``layer`` in served batch ``batch`` stalls for ``delay_s`` seconds
    (a straggler thread / cold page / noisy neighbour).  Interpreted by
    the servecheck chaos harness, which injects the stall through the
    serve runtime's *injected clock*, so certification replays it in
    virtual time.  Never consumed by :func:`inject`."""

    layer: str
    batch: int
    delay_s: float = 0.05


@dataclass(frozen=True)
class PoisonSample:
    """Seeded serve-level defect descriptor: the sample of trace request
    index ``request`` is replaced with NaNs before submission (a
    malformed client payload).  The serve runtime's admission sentinels
    must quarantine exactly that request with a coded response while the
    rest of its batch is served bit-exact.  Interpreted by the
    servecheck chaos harness, never by :func:`inject`."""

    request: int


class FaultPlan:
    """An ordered, seeded collection of fault descriptors."""

    def __init__(self, *faults, seed: int = 0) -> None:
        for fault in faults:
            if not isinstance(fault, (NaNBlob, LayerRaise, ChunkAbort,
                                      RequestStorm, SlowChunk,
                                      PoisonSample)):
                raise TypeError(
                    f"FaultPlan entries must be NaNBlob / LayerRaise / "
                    f"ChunkAbort / RequestStorm / SlowChunk / "
                    f"PoisonSample, got {type(fault).__name__}"
                )
        self.faults: Tuple = faults
        self.seed = seed
        self.rng = random.Random(seed)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(repr(f) for f in self.faults)
        return f"FaultPlan({inner}, seed={self.seed})"


def fault_target_layer(net) -> str:
    """The layer a chunk fault targets: the first with learnable
    parameters (conv/fc, whose forward is chunked across the worker
    threads), else the last layer."""
    for layer in net.layers:
        if layer.blobs:
            return layer.name
    return net.layers[-1].name


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------
class _ExecutorProxy:
    """Wraps the solver's executor; fault hooks key on solver.iteration."""

    def __init__(self, inner, injector: "_Injector") -> None:
        self._inner = inner
        self._injector = injector

    def forward(self, net) -> float:
        import numpy as np

        loss = self._inner.forward(net)
        if net is self._injector.solver.net:
            iteration = self._injector.solver.iteration
            for fault in self._injector.plan:
                if (isinstance(fault, NaNBlob)
                        and fault.iteration == iteration):
                    blob = net.blob(fault.blob)
                    blob.flat_data[:] = np.nan
        return loss

    def backward(self, net) -> None:
        self._inner.backward(net)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class LayerPatches:
    """Patches on layer instances, removed together.

    A patch shadows the class method in the instance's ``__dict__``, so
    :meth:`remove` restores the class behaviour by popping the name
    (patches stacked on one method go with it).  The training injector
    and the serve chaos harness both arm their faults through here.
    """

    def __init__(self) -> None:
        self._patched: List[Tuple[object, str]] = []

    def wrap(self, layer, method: str, wrapper: Callable) -> None:
        """Shadow ``layer.<method>`` with ``wrapper(original)``."""
        setattr(layer, method, wrapper(getattr(layer, method)))
        self._patched.append((layer, method))

    def first_chunk(self, layer, armed: Callable[[], bool],
                    fire: Callable[[int, int], None]) -> None:
        """Make the first forward chunk of ``layer`` that starts while
        ``armed()`` holds, on whichever thread, call ``fire(lo, hi)``
        before its work — exactly once."""
        # Taken by the one chunk that fires and never released.
        once = threading.Lock()

        def wrapper(original):
            def patched(bottom, top, lo, hi):
                if armed() and once.acquire(blocking=False):
                    fire(lo, hi)
                return original(bottom, top, lo, hi)
            return patched

        self.wrap(layer, "forward_chunk", wrapper)

    def remove(self) -> None:
        for layer, method in self._patched:
            layer.__dict__.pop(method, None)
        self._patched.clear()


class _Injector:
    """Installs/uninstalls a FaultPlan on one solver."""

    def __init__(self, solver, plan: FaultPlan) -> None:
        self.solver = solver
        self.plan = plan
        self.patches = LayerPatches()

    # -- install ---------------------------------------------------------
    def install(self) -> None:
        self._orig_executor = self.solver.executor
        self.solver.executor = _ExecutorProxy(self._orig_executor, self)
        # A one-thread *team* still runs chunks (on the master thread),
        # so the abort fires there; a plain SequentialExecutor has no
        # parallel region at all — the fault stays silent.
        team = getattr(self._orig_executor, "team", None)
        solo = team is not None and team.num_threads <= 1
        for fault in self.plan:
            if isinstance(fault, LayerRaise):
                # Every driver runs a layer's pass through its one body,
                # Layer.forward / Layer.backward — the phase's name.
                layer = self.solver.net.layer(fault.layer)
                self.patches.wrap(layer, fault.phase, self._raiser(fault))
            elif isinstance(fault, ChunkAbort):
                layer = self.solver.net.layer(fault.layer)
                self._arm_chunk_abort(layer, fault, solo)

    def _raiser(self, fault: LayerRaise) -> Callable:
        solver = self.solver

        def wrapper(original):
            def patched(*args, **kwargs):
                if solver.iteration == fault.iteration:
                    raise InjectedFault(
                        f"injected {fault.phase} failure in layer "
                        f"{fault.layer!r} at iteration {fault.iteration}"
                    )
                return original(*args, **kwargs)
            return patched

        return wrapper

    def _arm_chunk_abort(self, layer, fault: ChunkAbort, solo: bool) -> None:
        solver = self.solver

        def armed() -> bool:
            return solver.iteration == fault.iteration and (
                solo or threading.current_thread().name.startswith(
                    "team-worker-"))

        def fire(lo: int, hi: int) -> None:
            raise InjectedFault(
                f"injected chunk abort in layer {fault.layer!r} [{lo}:{hi}] "
                f"on {threading.current_thread().name} at iteration "
                f"{fault.iteration}"
            )

        self.patches.first_chunk(layer, armed, fire)

    # -- uninstall -------------------------------------------------------
    def uninstall(self) -> None:
        self.solver.executor = self._orig_executor
        self.patches.remove()


@contextlib.contextmanager
def inject(solver, plan: FaultPlan) -> Iterator[_Injector]:
    """Context manager: arm ``plan`` on ``solver``, disarm on exit.

    While armed, the solver's executor is wrapped (for NaN injection)
    and each targeted layer instance carries patched methods.  On exit
    every patch is removed, so the solver runs clean again — injected
    state (a poisoned blob, half-run diffs) is the *recovery machinery's*
    problem, exactly as a real fault would be.
    """
    injector = _Injector(solver, plan)
    injector.install()
    try:
        yield injector
    finally:
        injector.uninstall()


# ---------------------------------------------------------------------------
# checkpoint-file damage
# ---------------------------------------------------------------------------
def corrupt_checkpoint(path: str, seed: int = 0, nbytes: int = 8) -> None:
    """Deterministically flip ``nbytes`` payload bytes of ``path``.

    Offsets are drawn from ``random.Random(seed)`` past the container
    header, so the damage lands in the checksummed payload and must be
    caught by CRC-32 verification (not by a lucky header check).
    """
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    if not blob:
        raise ValueError(f"cannot corrupt empty file {path!r}")
    start = 18 if len(blob) > 18 else 0  # skip the RCKP header when present
    rng = random.Random(seed)
    for _ in range(max(1, nbytes)):
        offset = rng.randrange(start, len(blob))
        blob[offset] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(blob)


def truncate_checkpoint(path: str, fraction: float = 0.5) -> None:
    """Cut ``path`` down to ``fraction`` of its bytes (torn write /
    full-disk model).  ``fraction`` must be in [0, 1)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[: int(len(blob) * fraction)])
