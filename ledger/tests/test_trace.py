import pytest

from ledger import trace


def span(sid, name, start, end, parent=None, op=0, tid=0):
    return (sid, name, start, end, parent, op, tid)


def test_self_time_subtracts_sequential_children():
    spans = [
        span(0, "op", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 5.0, 9.0, parent=0),
        span(3, "leaf", 2.0, 3.0, parent=1),
    ]
    selfs = trace.self_times(spans)
    assert selfs[0] == pytest.approx(3.0)   # 10 - (3 + 4)
    assert selfs[1] == pytest.approx(2.0)   # 3 - 1; grandchild not counted twice
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[3] == pytest.approx(1.0)


def test_self_time_counts_overlapping_children_once():
    # Two chunks of one region on two threads overlap in time: the
    # region's self time is what *neither* covers.
    spans = [
        span(0, "team.region", 0.0, 10.0),
        span(1, "c.fwd", 1.0, 6.0, parent=0, tid=1),
        span(2, "c.fwd", 4.0, 9.0, parent=0, tid=2),
    ]
    assert trace.self_times(spans)[0] == pytest.approx(2.0)


def test_covered_clips_to_the_parent_interval():
    assert trace.covered([(-5.0, 2.0), (8.0, 20.0)], 0.0, 10.0) == \
        pytest.approx(4.0)


def test_recorder_links_parents_ops_and_regions():
    rec = trace.Recorder()
    inner = rec.wrap(lambda: None, "inner")
    region = rec.wrap(lambda: inner(), "team.region", region=True)
    op = rec.wrap(lambda n: region(), "op", new_op=True)
    op(1)
    op(1)
    by_name = {}
    for sid, name, start, end, parent, op_id, _tid in rec.spans:
        assert end >= start
        by_name.setdefault(name, []).append((sid, parent, op_id))
    assert [o for _, _, o in by_name["op"]] == [0, 1]
    for (op_sid, _, op_id), (reg_sid, reg_parent, reg_op), \
            (_, in_parent, in_op) in zip(by_name["op"],
                                         by_name["team.region"],
                                         by_name["inner"]):
        assert reg_parent == op_sid and in_parent == reg_sid
        assert reg_op == in_op == op_id


def test_per_op_rows_split_chunk_region_and_glue_time():
    rec = trace.Recorder()
    rec.chunk_kind["conv1.fwd"] = ("conv", "fwd")
    rec.spans.extend([
        span(0, "op", 0.0, 1.0),
        span(1, "executor.forward", 0.1, 0.9, parent=0),
        span(2, "team.region", 0.2, 0.8, parent=1),
        span(3, "conv1.fwd", 0.3, 0.7, parent=2),
    ])
    (row,) = trace.per_op(rec)
    assert row["framework.conv.fwd_ms"] == pytest.approx(400.0)
    assert row["core.team.region_overhead_ms"] == pytest.approx(200.0)
    assert row["core.executor.glue_ms"] == pytest.approx(200.0)
    assert row["core.team.regions"] == 1 and row["core.chunks"] == 1
    assert row["_op_ms"] == pytest.approx(1000.0)
    metrics = trace.median_row([row])
    # What no part claims is the operation's own self time.
    assert row["_op_ms"] - trace.parts_ms(metrics) == pytest.approx(200.0)
