"""Span self-time arithmetic: duration minus what the children cover."""

import json

import pytest

from perfbench.spans import Recorder, Span, self_times


def test_self_time_subtracts_children_clipped_and_without_double_counting():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),  # overlaps a: the union covers 1..6
        Span(3, 0, "c", 9.0, 12.0),  # runs past the parent: clipped to 9..10
        Span(4, 1, "a.child", 1.5, 2.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_self_times_of_a_tree_sum_to_the_root_duration():
    rec = Recorder()
    with rec.span("root"):
        with rec.span("x"):
            with rec.span("x.y"):
                pass
        with rec.span("z") as z:
            pass
        rec.add_child(z, "z.reported", z.duration / 2)
    root = rec.named("root")[0]
    assert sum(rec.self_times().values()) == pytest.approx(root.duration)
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0, 3]


def test_disabled_recorder_keeps_nothing():
    rec = Recorder(enabled=False)
    with rec.span("anything") as span:
        assert span is None
    assert rec.spans == []


def test_per_call_divides_batch_spans(tmp_path):
    rec = Recorder()
    with rec.span("batch", calls=4):
        pass
    assert rec.per_call("batch") == [rec.named("batch")[0].duration / 4]
    rec.write(tmp_path / "trace.json", {"workload": "w"})
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert doc["traceEvents"][0]["name"] == "batch"
    assert doc["traceEvents"][0]["args"]["self_us"] == pytest.approx(doc["traceEvents"][0]["dur"])
