"""Catch matrix, sync column: the two seeded synchronization defects and
the detectors that catch them.

Each defect is a region body, held below as fixture source.  Both
detectors see the same text: synccheck's static lint (``lint_sync``)
reads it from a file, and a real :class:`ThreadTeam` with the deadlock
watchdog runs it.

* ``lock_order_inversion`` — an ABBA between the team's ordered turn
  and its critical lock: even threads nest ``critical`` inside
  ``ordered``, odd threads ``ordered`` inside ``critical``.  SY001 sees
  the cycle.  Unforced, the master usually takes both before an odd
  thread starts, so the run order is forced with an ``Event``: thread 0
  asks for the critical lock only once an odd thread holds it.
* ``barrier_skip`` — thread ``skip_tid`` skips the first of two region
  barriers, stranding its peers at the second.  SY005 sees the
  divergence.  Under real threads it deadlocks on every run.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis.synclint import lint_sync
from repro.core.team import TeamDeadlock, ThreadTeam, WorkerError

SEEDED_DEFECTS = '''
def noop():
    pass


def lock_order_inversion(ctx, taken):
    if ctx.thread_id % 2 == 0:
        ctx.ordered(lambda: (taken.wait(5), ctx.critical(noop)))
    else:
        ctx.critical(lambda: (taken.set(), ctx.ordered(noop)))


def barrier_skip(ctx, skip_tid=1):
    if ctx.thread_id != skip_tid:
        ctx.barrier()
    ctx.barrier()
'''


def _defects():
    namespace: dict = {}
    exec(compile(SEEDED_DEFECTS, "seeded_defects", "exec"), namespace)
    return namespace


def test_lint_flags_each_defect(tmp_path):
    path = tmp_path / "seeded_defects.py"
    path.write_text(SEEDED_DEFECTS)
    found = {(f.rule, f.layer.rsplit(".", 1)[-1]) for f in lint_sync([path])}
    assert found == {("SY001", "lock_order_inversion"),
                     ("SY005", "barrier_skip")}


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("defect", ["lock_order_inversion", "barrier_skip"])
def test_watchdog_catches_each_defect(defect, threads):
    body = _defects()[defect]
    taken = threading.Event()
    region = ((lambda ctx: body(ctx, taken))
              if defect == "lock_order_inversion" else body)
    with ThreadTeam(threads, watchdog=0.2) as team:
        with pytest.raises(WorkerError) as info:
            team.parallel(region)
        assert isinstance(info.value.original, TeamDeadlock)
        seen = [False] * threads
        team.parallel(lambda ctx: seen.__setitem__(ctx.thread_id, True))
        assert all(seen)
