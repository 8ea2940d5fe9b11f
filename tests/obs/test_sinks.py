"""Sink tests: in-memory collection, JSON-lines round-trips and the
ASCII summary rendering."""

import io
import json
import pathlib

import pytest

from repro.core.errors import TraceFormatError
from repro.obs import (AsciiSummarySink, InMemorySink, JsonLinesSink,
                       Metrics, Span, Tracer, count, metrics_table,
                       read_trace, summary_table, use_tracer)

pytestmark = pytest.mark.obs


def make_trace(tracer):
    """A small two-level trace with counters set."""
    with tracer.span("q", kind="query"):
        with tracer.span("s", kind="source", rows=10, cols=2):
            pass
        with tracer.span("stmt", kind="db", sql="SELECT 1",
                         rows=10):
            pass
        with tracer.span("o", kind="output"):
            pass
    count("db.statements")


class TestInMemorySink:
    def test_collects_and_clears(self):
        sink = InMemorySink()
        sink.emit(Span(1, None, "a"))
        sink.emit(Span(2, 1, "b"))
        assert len(sink) == 2
        assert [s.name for s in sink.spans] == ["a", "b"]
        sink.clear()
        assert len(sink) == 0

    def test_spans_returns_copy(self):
        sink = InMemorySink()
        sink.emit(Span(1, None, "a"))
        sink.spans.append(Span(2, None, "b"))
        assert len(sink) == 1


class TestSpanSerialisation:
    def test_dict_roundtrip(self):
        span = Span(7, 3, "stmt", kind="db", start=1.0, end=2.5,
                    cpu_start=0.1, cpu_end=0.2,
                    attributes={"rows": 4, "sql": "SELECT 1"})
        clone = Span.from_dict(span.to_dict())
        assert clone == span

    def test_unfinished_span_roundtrip(self):
        span = Span(1, None, "open")
        clone = Span.from_dict(span.to_dict())
        assert clone.end is None and not clone.finished
        assert clone.wall_seconds == 0.0


class TestJsonLinesSink:
    def test_file_roundtrip_with_metrics(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(InMemorySink(), JsonLinesSink(path))
        make_trace(tracer)
        tracer.close()

        loaded = read_trace(path)
        assert [(s.name, s.kind) for s in loaded.spans] == \
            [(s.name, s.kind) for s in tracer.spans]
        assert [(s.span_id, s.parent_id) for s in loaded.spans] == \
            [(s.span_id, s.parent_id) for s in tracer.spans]
        assert loaded.spans[0].rows == 10
        assert loaded.metrics.get("db.statements").value == 1

    def test_lines_are_self_describing(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonLinesSink(path))
        make_trace(tracer)
        tracer.close()
        records = [json.loads(line) for line in
                   open(path, encoding="utf-8")]
        assert [r["type"] for r in records[:-1]] == \
            ["span"] * (len(records) - 1)
        assert records[-1]["type"] == "metrics"

    def test_stream_target_not_closed(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        sink.emit(Span(1, None, "a", start=0.0, end=1.0))
        sink.close(Metrics())
        sink.close()  # idempotent
        assert not stream.closed
        assert stream.getvalue().count("\n") == 2

    def test_read_trace_skips_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type": "span", "span_id": 1, '
                        '"parent_id": null, "name": "a"}\n\n')
        loaded = read_trace(str(path))
        assert len(loaded.spans) == 1

    def test_pathlike_target(self, tmp_path):
        path = tmp_path / "trace.jsonl"   # a pathlib.Path, not a str
        assert isinstance(path, pathlib.Path)
        sink = JsonLinesSink(path)
        sink.emit(Span(1, None, "a", start=0.0, end=1.0))
        sink.close()
        assert len(read_trace(path).spans) == 1

    def test_existing_file_is_truncated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for span_id in (1, 2):
            with JsonLinesSink(path) as sink:
                sink.emit(Span(span_id, None, f"s{span_id}",
                               start=0.0, end=1.0))
        assert [s.name for s in read_trace(path).spans] == ["s2"]

    def test_context_manager_closes_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonLinesSink(path) as sink:
            sink.emit(Span(1, None, "a", start=0.0, end=1.0))
        sink.emit(Span(2, None, "late", start=0.0, end=1.0))
        sink.close()  # idempotent after __exit__
        assert [s.name for s in read_trace(path).spans] == ["a"]


class TestReadTraceHardening:
    def _write(self, tmp_path, text):
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        return path

    def good_line(self, span_id=1, name="a"):
        return json.dumps({"type": "span", "span_id": span_id,
                           "parent_id": None, "name": name,
                           "start": 0.0, "end": 1.0})

    def test_truncated_line_raises_with_location(self, tmp_path):
        # the typical artefact of a killed process: a cut-off line
        path = self._write(tmp_path,
                           self.good_line(1) + "\n"
                           + self.good_line(2)[:25] + "\n")
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert "line 2" in str(err.value)
        assert str(path) in str(err.value)
        assert err.value.line == 2

    def test_truncated_line_skipped_on_request(self, tmp_path):
        path = self._write(tmp_path,
                           self.good_line(1, "a") + "\n"
                           + self.good_line(2, "b")[:25] + "\n"
                           + self.good_line(3, "c") + "\n")
        loaded = read_trace(path, on_error="skip")
        assert [s.name for s in loaded.spans] == ["a", "c"]
        assert len(loaded.errors) == 1
        assert loaded.errors[0].startswith("line 2:")

    def test_missing_required_key(self, tmp_path):
        path = self._write(tmp_path,
                           '{"type": "span", "name": "no-id"}\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)
        assert read_trace(path, on_error="skip").spans == []

    def test_non_object_record(self, tmp_path):
        path = self._write(tmp_path, "[1, 2, 3]\n")
        with pytest.raises(TraceFormatError) as err:
            read_trace(path)
        assert "list" in str(err.value)

    def test_bad_on_error_value(self, tmp_path):
        path = self._write(tmp_path, self.good_line() + "\n")
        with pytest.raises(ValueError):
            read_trace(path, on_error="ignore")


class TestTraceData:
    def _loaded(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(InMemorySink(), JsonLinesSink(path))
        make_trace(tracer)
        tracer.close()
        return read_trace(path)

    def test_structure_queries(self, tmp_path):
        loaded = self._loaded(tmp_path)
        roots = loaded.roots()
        assert [r.name for r in roots] == ["q"]
        children = loaded.children_of(roots[0])
        assert sorted(c.name for c in children) == ["o", "s", "stmt"]
        assert sorted(loaded.by_kind()) == \
            ["db", "output", "query", "source"]
        assert [(s.name, s.kind) for s in loaded.element_spans()] == \
            [("s", "source"), ("o", "output")]


class TestAsciiRendering:
    def test_summary_table_aggregates(self):
        tracer = Tracer()
        make_trace(tracer)
        make_trace(tracer)  # same shape twice -> count 2 per group
        text = summary_table(tracer.spans, title="smoke")
        assert "smoke" in text
        for name in ("source", "db", "output", "query"):
            assert name in text
        assert "(4 rows)" in text
        # two source spans of 10 rows each
        assert "20" in text

    def test_summary_table_empty(self):
        text = summary_table([])
        assert "(0 rows)" in text

    def test_metrics_table_lists_instruments(self):
        m = Metrics()
        m.counter("db.statements").inc(3)
        m.gauge("depth").set(1)
        text = metrics_table(m)
        assert "db.statements" in text
        assert "(2 rows)" in text

    def test_ascii_summary_sink_writes_on_close(self):
        stream = io.StringIO()
        tracer = Tracer(AsciiSummarySink(stream, title="run summary"))
        make_trace(tracer)
        assert stream.getvalue() == ""  # buffered until close
        tracer.close()
        out = stream.getvalue()
        assert "run summary" in out
        assert "db.statements" in out  # metrics table appended
