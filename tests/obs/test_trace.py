"""Unit tests for the JSONL trace layer (``repro.obs.trace``): the
schema contract (golden file), canonical encoding, and validation
errors."""

import io
import json
import pathlib

import pytest

from repro.obs import (
    EVENT_TYPES,
    TRACE_SCHEMA,
    TraceError,
    TraceWriter,
    profiled_run,
    read_trace,
    validate_trace_line,
    validate_trace_text,
)

GOLDEN = pathlib.Path(__file__).parent / "golden_trace.jsonl"


def ok_event(**overrides):
    obj = {
        "schema": TRACE_SCHEMA,
        "event": "solve",
        "name": "t.c::IP+WL(FIFO)",
        "data": {"runtime_s": 1.0},
    }
    obj.update(overrides)
    return obj


class TestWriter:
    def test_emit_round_trips_through_validation(self):
        buf = io.StringIO()
        writer = TraceWriter(buf)
        writer.emit("solve", "a.c::EP+Naive", {"runtime_s": 0.5})
        writer.emit("metrics", "run", {"counters": {}, "timers": {}})
        writer.close()
        events = validate_trace_text(buf.getvalue())
        assert [e["event"] for e in events] == ["solve", "metrics"]
        assert writer.events == 2
        assert not buf.closed  # caller-owned streams are left open

    def test_path_target_is_owned_and_closed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path) as writer:
            writer.emit("stage", "constraints", {"runs": 1})
        assert len(read_trace(path)) == 1
        assert writer._file.closed

    def test_failed_block_leaves_no_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with TraceWriter(path) as writer:
                writer.emit("stage", "constraints", {"runs": 1})
                raise RuntimeError("the run died")
        assert list(tmp_path.iterdir()) == []
        writer.close()  # a no-op once discarded
        assert list(tmp_path.iterdir()) == []

    def test_profiled_run(self, tmp_path):
        with profiled_run(False, None) as (registry, trace):
            assert registry is None and trace is None
        with profiled_run(True, None) as (registry, trace):
            assert registry.enabled and trace is None
        path = tmp_path / "t.jsonl"
        with profiled_run(False, path) as (registry, trace):
            assert registry.enabled  # a trace implies profiling
            trace.emit("metrics", "run", registry.to_dict())
        assert [e["event"] for e in read_trace(path)] == ["metrics"]

    def test_canonical_line_encoding(self):
        buf = io.StringIO()
        TraceWriter(buf).emit("link", "a.c+b.c", {"b": 2, "a": 1})
        assert buf.getvalue() == (
            '{"data":{"a":1,"b":2},"event":"link","name":"a.c+b.c",'
            '"schema":1}\n'
        )

    def test_invalid_event_rejected_before_writing(self):
        buf = io.StringIO()
        writer = TraceWriter(buf)
        with pytest.raises(TraceError):
            writer.emit("bogus", "x", {})
        assert buf.getvalue() == ""
        assert writer.events == 0


class TestValidation:
    def test_accepts_every_event_type(self):
        for event in EVENT_TYPES:
            validate_trace_line(ok_event(event=event))

    @pytest.mark.parametrize(
        "bad, match",
        [
            ([1, 2], "not an object"),
            ({"schema": TRACE_SCHEMA, "event": "solve", "name": "x"},
             "missing=\\['data'\\]"),
            (ok_event(extra=1), "unexpected=\\['extra'\\]"),
            (ok_event(schema=999), "regenerate"),
            (ok_event(event="bogus"), "unknown event type"),
            (ok_event(name=""), "non-empty string"),
            (ok_event(name=7), "non-empty string"),
            (ok_event(data=[1]), "must be an object"),
        ],
    )
    def test_rejections_name_the_violation(self, bad, match):
        with pytest.raises(TraceError, match=match):
            validate_trace_line(bad)

    def test_text_errors_carry_line_numbers(self):
        good = json.dumps(ok_event())
        with pytest.raises(TraceError, match="line 2: not JSON"):
            validate_trace_text(good + "\n{broken\n")
        with pytest.raises(TraceError, match="line 3: unknown event"):
            validate_trace_text(
                good + "\n\n" + json.dumps(ok_event(event="nope"))
            )

    def test_blank_lines_ignored(self):
        assert validate_trace_text("\n\n") == []


class TestGoldenFile:
    """The checked-in golden trace IS the schema contract: it must
    validate forever under schema 1, and the writer must reproduce it
    byte-identically — any encoding drift fails here first."""

    def test_golden_validates(self):
        events = read_trace(GOLDEN)
        assert [e["event"] for e in events] == [
            "solve", "stage", "link", "metrics"
        ]
        assert all(e["schema"] == TRACE_SCHEMA for e in events)

    def test_writer_reproduces_golden_bytes(self):
        buf = io.StringIO()
        writer = TraceWriter(buf)
        for event in read_trace(GOLDEN):
            writer.emit(event["event"], event["name"], event["data"])
        assert buf.getvalue() == GOLDEN.read_text()

    def test_read_trace_event_filter(self):
        assert [e["event"] for e in read_trace(GOLDEN, events=["solve"])] == [
            "solve"
        ]
        assert read_trace(GOLDEN, events=[]) == []
