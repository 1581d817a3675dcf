"""Span nesting and self-time arithmetic."""

import json

from perf import spans


def test_recorder_nests_spans_under_the_innermost_open_one():
    recorder = spans.SpanRecorder()
    recorder.rt_id = 7
    root = recorder.start("rt")
    first = recorder.start("a")
    recorder.stop(first)
    second = recorder.start("b")
    inner = recorder.start("b.inner")
    recorder.stop(inner)
    recorder.stop(second)
    recorder.stop(root)
    parents = [span[spans.PARENT] for span in recorder.spans]
    assert parents == [-1, root, root, second]
    assert all(span[spans.RT_ID] == 7 for span in recorder.spans)
    assert all(span[spans.END] >= span[spans.START] for span in recorder.spans)


def test_self_time_is_duration_minus_what_direct_children_cover():
    recorded = [
        ["rt", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 40, 90, 0, 0],
        ["b.inner", 50, 60, 2, 0],
    ]
    assert spans.self_times_ns(recorded) == [30, 20, 40, 10]


def test_overlapping_children_are_counted_once_and_clipped_to_the_parent():
    recorded = [
        ["parent", 100, 200, -1, 0],
        ["x", 110, 150, 0, 0],
        ["y", 140, 170, 0, 0],  # overlaps x by 10
        ["z", 190, 230, 0, 0],  # runs past the parent by 30
    ]
    assert spans.self_times_ns(recorded)[0] == 100 - (60 + 10)


def test_null_recorder_records_nothing():
    null = spans.NullRecorder()
    null.stop(null.start("anything"))
    assert not hasattr(null, "spans")


def test_jsonl_has_one_object_per_span_with_its_self_time(tmp_path):
    recorded = [["rt", 0, 100, -1, 3], ["a", 10, 30, 0, 3]]
    path = tmp_path / "trace.jsonl"
    spans.write_jsonl(path, recorded)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [
        {"name": "rt", "start_ns": 0, "end_ns": 100, "parent": -1, "rt_id": 3, "self_ns": 80},
        {"name": "a", "start_ns": 10, "end_ns": 30, "parent": 0, "rt_id": 3, "self_ns": 20},
    ]
    assert spans.durations_ms(recorded) == {"rt": [1e-4], "a": [2e-5]}
