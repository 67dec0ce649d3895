"""Unit tests for ``benchmarks/history.py`` (the benchmark's committed trajectory)."""

import importlib.util
import json
from pathlib import Path


ROOT = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).parent / "fixtures" / "perf_runs.json"

_spec = importlib.util.spec_from_file_location("bench_history", ROOT / "benchmarks" / "history.py")
history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(history)


def test_append_reduces_untraced_runs_to_medians_and_reads_the_score_off_traced_ones(tmp_path):
    path = tmp_path / "history.jsonl"
    assert history.main(["--history", str(path), "append", str(FIXTURE),
                         "--commit", "abc1234", "--label", "fixture"]) == 0
    (line,) = history.load(path)
    assert (line["commit"], line["label"]) == ("abc1234", "fixture")
    fleet = line["workloads"]["sae-fleet-point"]
    assert fleet["runs"] == 3 and fleet["seeds"] == [1, 2, 3]
    assert fleet["metrics"] == {"setup_s": 1.5, "query_qps": 380.0, "query_p50_ms": 4.6}
    assert fleet["host.calibration_score"] == 13000.0
    scan = line["workloads"]["sae-mem-scan"]
    assert scan["metrics"]["query_qps"] == 29.0
    assert scan["host.calibration_score"] is None


def test_a_file_of_traced_runs_only_still_gives_medians():
    runs = [run for run in json.loads(FIXTURE.read_text()) if run["per_layer"]]
    (entry,) = history.reduce_runs(runs).values()
    assert entry["runs"] == 2 and entry["metrics"]["query_qps"] == 92.5


def test_append_adds_lines_and_show_prints_the_series(tmp_path, capsys):
    path = tmp_path / "history.jsonl"
    for commit in ("1111111", "2222222"):
        history.append(str(FIXTURE), commit, f"line {commit[0]}", path)
    assert [line["commit"] for line in history.load(path)] == ["1111111", "2222222"]
    assert history.main(["--history", str(path), "show", "--workload", "sae-mem-scan"]) == 0
    shown = capsys.readouterr().out
    assert "== sae-mem-scan" in shown and "sae-fleet-point" not in shown
    assert shown.index("1111111") < shown.index("2222222")
    assert "query_qps" in shown and "line 2" in shown
    assert history.main(["--history", str(path), "show", "--workload", "nope"]) == 1


def test_append_refuses_a_file_it_cannot_reduce(tmp_path, capsys):
    empty = tmp_path / "runs.json"
    empty.write_text("[]")
    path = tmp_path / "history.jsonl"
    assert history.main(["--history", str(path), "append", str(empty),
                         "--commit", "x", "--label", "y"]) == 1
    assert not path.exists()
    assert "holds no runs" in capsys.readouterr().err


def test_committed_history_parses_and_names_the_benchmark_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = history.load(history.HISTORY_PATH)
    assert len(lines) >= 2
    for line in lines:
        assert set(line["workloads"]) == {workload["name"] for workload in spec["workloads"]}
        for entry in line["workloads"].values():
            assert set(entry["metrics"]) == {metric["name"] for metric in spec["end_to_end"]}
