import threading
import time
from types import SimpleNamespace

import numpy as np

from ledger.workloads import (CLOSED_WINDOW, OPEN_RATE, LoadGenerator,
                              poisson_schedule)


def test_poisson_schedule_is_byte_identical_per_seed():
    first = poisson_schedule(3, 1, OPEN_RATE, 5.0)
    again = poisson_schedule(3, 1, OPEN_RATE, 5.0)
    assert first.dtype == np.float64
    assert first.tobytes() == again.tobytes()
    assert first.tobytes() != poisson_schedule(4, 1, OPEN_RATE, 5.0).tobytes()
    assert first.tobytes() != poisson_schedule(3, 2, OPEN_RATE, 5.0).tobytes()
    assert np.all(np.diff(first) > 0) and first[-1] < 5.0
    # ~2500 arrivals; six sigma of a Poisson count.
    assert abs(len(first) - 2500) < 300


def _response(rid, status="ok"):
    return SimpleNamespace(request_id=rid, status=status)


def test_open_loop_latency_is_charged_from_the_due_time():
    """A server that stalls 50 ms inside one submit makes the generator
    late for the requests that were due meanwhile; their latency must
    include that wait even though each is answered at once."""
    stall_at, stall_s = 5, 0.05
    calls = []

    def submit(sample, budget, request_id):
        calls.append(request_id)
        if len(calls) == stall_at + 1:
            time.sleep(stall_s)
        gen.on_deliver(_response(request_id))

    gen = LoadGenerator(submit, [None])
    offsets = [0.002 * i for i in range(20)]
    gen.run_open(offsets)
    report = gen.settle()
    lat = report["lat_ms"]
    assert report["sent"] == 20 and report["failed"] == 0
    # The stalled request itself, and the next one (due 2 ms later, so
    # it waited ~48 ms to be sent).  Charged from submit time it would
    # read ~0.
    assert lat[stall_at] >= stall_s * 1e3
    assert lat[stall_at + 1] >= (stall_s - 0.002) * 1e3 - 1.0
    assert lat[stall_at + 5] >= (stall_s - 0.010) * 1e3 - 1.0
    assert max(lat[:stall_at]) < 20.0
    # ... and the generator reports how late it ran.
    assert max(gen.late_s) >= stall_s - 0.003


class _SlowServer:
    """Answers each request 20 ms after it was submitted (long enough
    for the generator to fill its window first), from another thread,
    and tracks how many are outstanding."""

    def __init__(self):
        self.outstanding = self.peak = 0
        self.lock = threading.Lock()
        self.on_deliver = None
        self.timers = []

    def submit(self, sample, budget, request_id):
        with self.lock:
            self.outstanding += 1
            self.peak = max(self.peak, self.outstanding)
        timer = threading.Timer(0.02, self._answer, args=(request_id,))
        self.timers.append(timer)
        timer.start()

    def _answer(self, rid):
        with self.lock:
            self.outstanding -= 1
        self.on_deliver(_response(rid))


def test_closed_loop_never_exceeds_the_window():
    server = _SlowServer()
    gen = LoadGenerator(server.submit, [None])
    server.on_deliver = gen.on_deliver
    gen.run_closed(0.3, CLOSED_WINDOW)
    for timer in server.timers:
        timer.join(timeout=5.0)
        assert not timer.is_alive()
    report = gen.settle()
    assert server.peak == CLOSED_WINDOW == 16
    assert report["sent"] > CLOSED_WINDOW
    assert report["failed"] == 0 and not report["failures"]


def test_settle_counts_lost_late_refused_and_duplicated_as_failed():
    gen = LoadGenerator(lambda sample, budget, request_id: None, [None],
                        budget=0.5)
    now = time.perf_counter()
    gen.due = {"ok": now, "late": now - 1.0, "lost": now, "dup": now,
               "bad": now}
    gen.on_deliver(_response("ok"))
    gen.on_deliver(_response("late"))
    gen.on_deliver(_response("dup"))
    gen.on_deliver(_response("dup"))
    gen.on_deliver(_response("bad", status="shed"))
    report = gen.settle()
    assert report["sent"] == 5
    assert report["failures"] == {"late": 1, "lost": 1, "duplicated": 1,
                                  "shed": 1}
    assert report["failed"] == 4
    # A refusal is not a fast answer: only "ok" and the first answer of
    # "dup" contribute a latency.
    assert len(report["lat_ms"]) == 2
