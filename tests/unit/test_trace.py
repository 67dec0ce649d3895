"""Unit tests for the receipt-trace recorder and loader."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core import OutsourcedDB
from repro.core.design import PhysicalDesign
from repro.experiments.throughput import run_load
from repro.workloads import build_dataset
from repro.workloads.trace import (
    TRACE_FORMAT,
    Trace,
    TraceEntry,
    TraceError,
    TraceRecorder,
    entries_from_outcomes,
    entry_from_outcome,
    load_trace,
    write_trace,
)


class TestTraceEntry:
    def test_json_round_trip(self):
        entry = TraceEntry(
            low=10, high=90, records=7, verified=True,
            sp_accesses=5, te_accesses=2, sp_cpu_ms=0.5, te_cpu_ms=1.25,
            pool_hits=3, pool_misses=4, auth_bytes=123, result_bytes=456,
            client_cpu_ms=0.75,
        )
        assert TraceEntry.from_json_dict(entry.to_json_dict()) == entry

    def test_missing_bounds_raise(self):
        with pytest.raises(TraceError, match="missing field"):
            TraceEntry.from_json_dict({"n": 3})

    def test_outcome_without_receipt_keeps_bounds_and_cardinality(self):
        outcome = SimpleNamespace(
            receipt=None,
            query=SimpleNamespace(low=1, high=9),
            records=[(1,), (2,)],
            verified=True,
        )
        entry = entry_from_outcome(outcome)
        assert (entry.low, entry.high, entry.records) == (1, 9, 2)
        assert entry.sp_accesses == 0

    def test_outcome_without_receipt_or_query_raises(self):
        outcome = SimpleNamespace(receipt=None, records=[], verified=True)
        with pytest.raises(TraceError, match="neither"):
            entry_from_outcome(outcome)


class TestRecorderAndLoader:
    def test_write_then_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        entries = [
            TraceEntry(low=0, high=10, records=2, sp_accesses=4),
            TraceEntry(low=5, high=25, records=6, sp_accesses=7, pool_misses=1),
        ]
        count = write_trace(path, {"scheme": "sae"}, entries)
        assert count == 2
        trace = load_trace(path)
        assert isinstance(trace, Trace)
        assert trace.meta == {"scheme": "sae"}
        assert list(trace.entries) == entries
        assert len(trace) == 2

    def test_header_line_carries_format_tag(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path, {"k": "v"}) as recorder:
            recorder.record_entry(TraceEntry(low=0, high=1))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["format"] == TRACE_FORMAT
        assert header["meta"] == {"k": "v"}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace(path)

    def test_wrong_format_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"format": "other/9", "meta": {}}) + "\n")
        with pytest.raises(TraceError, match="unsupported trace format"):
            load_trace(path)

    def test_non_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TraceError, match="not valid JSONL"):
            load_trace(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            load_trace(tmp_path / "absent.jsonl")


class TestLiveCapture:
    def test_entries_match_live_receipts(self, tmp_path):
        dataset = build_dataset(400, seed=5)
        system = OutsourcedDB(dataset, scheme="sae").setup()
        with system:
            bounds = [(100, 300), (2_000, 9_000), (50_000, 90_000)]
            report = run_load(system, bounds, num_clients=1, mode="per-query")
        entries = entries_from_outcomes(report.outcomes)
        assert len(entries) == len(report.outcomes)
        for entry, outcome in zip(entries, report.outcomes):
            assert entry.records == outcome.cardinality
            assert entry.sp_accesses == outcome.receipt.sp.node_accesses
            assert entry.verified is outcome.verified
        path = tmp_path / "trace.jsonl"
        write_trace(path, {"dataset": dataset.name}, entries)
        # The cpu columns are rounded to 4 dp on disk; compare projections.
        loaded = load_trace(path).entries
        assert [e.to_json_dict() for e in loaded] == [
            e.to_json_dict() for e in entries
        ]

    def test_trace_does_not_depend_on_the_client_count(self):
        # The tuning replay feeds its simulated pools in trace order, so a
        # trace must list the queries in submission order, batched the same
        # way, however many clients served them.  Only measured CPU may
        # differ.
        dataset = build_dataset(
            1_200, distribution="uniform", domain=(0, 1_000_000), seed=5
        )
        bounds = [(low, low + 60_000) for low in range(0, 900_000, 23_000)]
        traces = []
        for clients in (1, 4):
            system = OutsourcedDB(
                dataset, scheme="sae", design=PhysicalDesign(shards=2)
            ).setup()
            with system:
                report = run_load(
                    system, bounds, num_clients=clients, mode="batched",
                    batch_size=7,
                )
            traces.append([
                replace(entry, sp_cpu_ms=0.0, te_cpu_ms=0.0, client_cpu_ms=0.0)
                for entry in entries_from_outcomes(report.outcomes)
            ])
        assert [(entry.low, entry.high) for entry in traces[0]] == bounds
        assert traces[0] == traces[1]
