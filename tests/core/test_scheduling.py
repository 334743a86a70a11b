"""Unit tests for loop schedules."""

import pytest

from repro.core.scheduling import (
    DynamicSchedule,
    GuidedSchedule,
    StaticSchedule,
    make_schedule,
)


def collect(schedule, space, threads):
    """All chunks of a schedule, flattened."""
    if schedule.is_static:
        plan = schedule.plan(space, threads)
        return [chunk for per in plan for chunk in per]
    server = schedule.chunk_server(space, threads)
    chunks = []
    while (chunk := server.next_chunk()) is not None:
        chunks.append(chunk)
    return chunks


def assert_exact_partition(chunks, space):
    covered = sorted(chunks)
    position = 0
    for lo, hi in covered:
        assert lo == position, f"gap/overlap at {lo}"
        assert hi > lo
        position = hi
    assert position == space


class TestStatic:
    def test_default_one_block_per_thread(self):
        plan = StaticSchedule().plan(10, 4)
        assert plan == [[(0, 3)], [(3, 6)], [(6, 9)], [(9, 10)]]

    def test_partition_exact(self):
        for space in (0, 1, 7, 16, 100):
            for threads in (1, 2, 3, 8):
                assert_exact_partition(
                    collect(StaticSchedule(), space, threads), space
                )

    def test_chunked_round_robin(self):
        plan = StaticSchedule(chunk=2).plan(10, 2)
        assert plan[0] == [(0, 2), (4, 6), (8, 10)]
        assert plan[1] == [(2, 4), (6, 8)]

    def test_empty_space(self):
        assert StaticSchedule().plan(0, 4) == [[], [], [], []]

    def test_fewer_iterations_than_threads(self):
        plan = StaticSchedule().plan(2, 4)
        assert plan[0] and plan[1] and not plan[2] and not plan[3]

    def test_deterministic(self):
        a = StaticSchedule(chunk=3).plan(20, 4)
        b = StaticSchedule(chunk=3).plan(20, 4)
        assert a == b

    def test_invalid(self):
        with pytest.raises(ValueError):
            StaticSchedule(chunk=0)
        with pytest.raises(ValueError):
            StaticSchedule().plan(-1, 2)
        with pytest.raises(ValueError):
            StaticSchedule().plan(4, 0)


class TestDynamic:
    def test_partition_exact(self):
        for chunk in (1, 3, 7):
            assert_exact_partition(
                collect(DynamicSchedule(chunk), 20, 4), 20
            )

    def test_chunk_sizes(self):
        chunks = collect(DynamicSchedule(4), 10, 2)
        assert chunks == [(0, 4), (4, 8), (8, 10)]

    def test_not_static(self):
        assert not DynamicSchedule().is_static


class TestGuided:
    def test_partition_exact(self):
        assert_exact_partition(collect(GuidedSchedule(1), 100, 4), 100)

    def test_decreasing_chunks(self):
        chunks = collect(GuidedSchedule(1), 100, 4)
        sizes = [hi - lo for lo, hi in chunks]
        assert sizes[0] > sizes[-1]
        assert sizes == sorted(sizes, reverse=True) or min(sizes) >= 1

    def test_min_chunk_respected(self):
        chunks = collect(GuidedSchedule(5), 100, 4)
        # all but possibly the last chunk are >= 5
        assert all(hi - lo >= 5 for lo, hi in chunks[:-1])


class TestMakeSchedule:
    def test_parse(self):
        assert isinstance(make_schedule("static"), StaticSchedule)
        assert make_schedule("static,4").chunk == 4
        assert isinstance(make_schedule("dynamic,2"), DynamicSchedule)
        assert isinstance(make_schedule("guided"), GuidedSchedule)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown schedule"):
            make_schedule("auto")

    @pytest.mark.parametrize("name", [
        "static,x", "static,-3", "static,0", "dynamic,0", "guided,0",
        "dynamic,1.5", "guided,", "static,2,3",
    ])
    def test_rejects_malformed_chunk_naming_the_string(self, name):
        with pytest.raises(ValueError) as info:
            make_schedule(name)
        assert repr(name) in str(info.value)
