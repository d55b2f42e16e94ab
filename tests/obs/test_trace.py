"""Trace records: schema v1, channel segregation, Chrome export."""

from __future__ import annotations

import json

import pytest

from repro.obs.trace import Tracer, iter_jsonl


class TestRecords:
    def test_span_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Tracer().span("c", "n", 2.0, 1.0)

    def test_attrs_are_sorted_and_frozen(self):
        r = Tracer().span("c", "n", 0.0, 1.0, zeta=1, alpha=2)
        assert r.attrs == (("alpha", 2), ("zeta", 1))

    def test_json_is_compact_and_key_sorted(self):
        r = Tracer().event("cloud", "decision", 1.5, stage=3)
        line = r.to_json()
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert json.loads(line)["v"] == 1

    def test_wall_stamp_stays_out_of_the_virtual_channel(self):
        tracer = Tracer(wall_clock=True)
        tracer.span("c", "n", 0.0, 1.0)
        record = tracer.records[0]
        assert record.wall is not None
        assert "wall" not in json.loads(record.to_json())
        assert "wall" in json.loads(record.to_json(channel="wall"))

    def test_virtual_bytes_identical_with_and_without_wall_stamps(self):
        plain, stamped = Tracer(), Tracer(wall_clock=True)
        for t in (plain, stamped):
            t.span("c", "n", 0.0, 1.0, node=3)
            t.event("c", "e", 1.0)
        assert plain.to_jsonl() == stamped.to_jsonl()


class TestTracer:
    def test_disabled_tracer_collects_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("c", "n", 0.0, 1.0) is None
        assert tracer.event("c", "n", 0.0) is None
        tracer.extend([Tracer().event("c", "n", 0.0)])
        assert tracer.records == []
        assert tracer.to_jsonl() == ""

    def test_extend_merges_worker_records_in_order(self):
        worker = Tracer()
        worker.event("c", "a", 0.0)
        worker.event("c", "b", 1.0)
        tracer = Tracer()
        tracer.extend(worker.records)
        assert [r.name for r in tracer.records] == ["a", "b"]

    def test_jsonl_round_trips_through_read(self, tmp_path):
        tracer = Tracer()
        tracer.span("node", "compute", 0.0, 1.5, node=2, stage=0)
        tracer.event("cloud", "decision", 1.5, updated=True)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        assert list(iter_jsonl(path)) == tracer.records

    def test_read_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v":2,"kind":"event"}\n')
        with pytest.raises(ValueError):
            list(iter_jsonl(path))


class TestChromeExport:
    def test_spans_and_events_map_to_trace_event_phases(self, tmp_path):
        tracer = Tracer()
        tracer.span("node", "compute", 1.0, 3.0, node=7)
        tracer.event("cloud", "decision", 3.0)
        path = tmp_path / "trace.json"
        tracer.write_chrome(path)
        obj = json.loads(path.read_text())
        span, event = obj["traceEvents"]
        assert span["ph"] == "X"
        assert span["ts"] == pytest.approx(1e6)
        assert span["dur"] == pytest.approx(2e6)
        assert span["tid"] == 7  # node attr becomes the row
        assert event["ph"] == "i"
        assert event["tid"] == 0  # cloud records land on row 0

    def test_write_chrome_produces_valid_json(self, tmp_path):
        tracer = Tracer()
        tracer.span("c", "n", 0.0, 1.0)
        path = tmp_path / "trace.json"
        tracer.write_chrome(path)
        obj = json.loads(path.read_text())
        assert obj["displayTimeUnit"] == "ms"
        assert len(obj["traceEvents"]) == 1
