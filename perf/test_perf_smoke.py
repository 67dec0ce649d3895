"""Every workload of the benchmark at ``--scale smoke`` (tier-1).

Checks what a later change must not break: every metric named in
``BENCHMARK.json`` is printed with its unit, nothing fails, the counts of the
traced pass repeat exactly for one seed, another seed changes the traffic and
not the data, and the tamper canary really fires.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf import run as perf_run  # noqa: E402
from perf.harness import BenchmarkFailure, run_workload, tamper_canary  # noqa: E402
from perf.workloads import BY_NAME, SMOKE, WORKLOADS, InProcess, Oracle, make_ops  # noqa: E402

SPEC = perf_run.load_spec()
SEED = 7
#: Counts the traced pass (one client, no timers) must reproduce exactly.
EXACT = (
    "core.provider.node_accesses_per_op",
    "core.trusted_entity.node_accesses_per_op",
    "tom.entities.node_accesses_per_op",
    "tom.vo.bytes_per_op",
    "crypto.digest.memo_hit_rate",
    "storage.buffer_pool.misses_per_op",
    "storage.buffer_pool.evictions_per_op",
    "storage.pager.page_reads_per_op",
    "network.wire.frame_bytes_per_op",
    "network.fleet.legs_per_op",
)


@pytest.fixture(scope="module")
def printed(tmp_path_factory):
    """One smoke run of every workload through the command line entry point."""
    folder = tmp_path_factory.mktemp("perf")
    out, spans = folder / "runs.json", folder / "spans.json"
    lines = []

    class Capture:
        def write(self, text):
            lines.append(text)

        def flush(self):
            pass

    stdout, sys.stdout = sys.stdout, Capture()
    try:
        status = perf_run.main(
            ["--scale", "smoke", "--seed", str(SEED), "--out", str(out), "--trace-out", str(spans)]
        )
    finally:
        sys.stdout = stdout
    text = "".join(lines)
    contract = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    return SimpleNamespace(
        status=status, text=text, contract=contract,
        runs=json.loads(out.read_text()), spans=json.loads(spans.read_text()),
    )


def test_spec_and_code_agree():
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in WORKLOADS]
    assert SPEC["paths"] == ["perf"] and SPEC["command"] == ["python3", "perf/run.py"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_metric_is_printed_with_its_unit(printed):
    assert printed.status == 0
    assert len(printed.contract) == len(WORKLOADS)
    for line in printed.contract:
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            entry = line["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert isinstance(entry["value"], float)
            assert f"{metric['name']} " in printed.text
        for metric in SPEC["end_to_end"]:
            assert line["metrics"][metric["name"]]["value"] > 0, metric["name"]
    assert "failed_share=0.000000" in printed.text


def test_layers_are_separated_and_spans_are_linked(printed):
    by_name = {run["workload"]: run for run in printed.runs}
    scan = by_name["sae-mem-scan"]["per_layer"]
    assert not [name for name in scan if name.startswith("network.") and scan[name]]
    assert 0.9 <= scan["trace.coverage"] <= 1.1
    assert 0.9 <= by_name["sae-paged-mixed"]["per_layer"]["trace.coverage"] <= 1.1
    assert by_name["sae-fleet-point"]["per_layer"]["crypto.self_share_of_wall"] < 0.10
    assert by_name["sae-paged-mixed"]["samples"]["updates"] > 0
    for name in ("sae-mem-scan", "sae-paged-mixed"):
        assert by_name[name]["canary"] == "rejected"
    ids = {span["id"] for span in printed.spans}
    children = [span for span in printed.spans if span["parent"] is not None]
    assert children and all(span["parent"] in ids for span in children)
    assert all(span["request_id"] and span["end"] >= span["start"] for span in printed.spans)
    assert {"loadgen.op", "core.scheme.query", "core.provider.execute",
            "core.client.verify", "network.fleet.query"} <= {s["name"] for s in printed.spans}


def test_counts_repeat_for_a_seed_and_move_with_another(printed, tmp_path):
    first = {run["workload"]: run for run in printed.runs}
    for workload in WORKLOADS:
        again = run_workload(workload, SEED, 0.1, True, SMOKE, str(tmp_path))
        before = first[workload.name]
        assert again.failed == 0
        for name in EXACT:
            assert again.per_layer.get(name) == before["per_layer"].get(name), (workload.name, name)
        assert (again.end_to_end["storage_bytes_per_user_byte"]
                == before["end_to_end"]["storage_bytes_per_user_byte"])
        assert make_ops(workload, SEED) == make_ops(workload, SEED)
        assert make_ops(workload, SEED) != make_ops(workload, SEED + 1)
    scan = BY_NAME["sae-mem-scan"]
    other = run_workload(scan, SEED + 1, 0.1, True, SMOKE, str(tmp_path))
    assert other.sizes == first[scan.name]["sizes"]  # same data ...
    assert (other.end_to_end["storage_bytes_per_user_byte"]
            == first[scan.name]["end_to_end"]["storage_bytes_per_user_byte"])
    assert (other.per_layer["core.provider.node_accesses_per_op"]
            != first[scan.name]["per_layer"]["core.provider.node_accesses_per_op"])  # ... other traffic


def test_a_silent_verifier_fails_the_run(tmp_path):
    deployment = InProcess(BY_NAME["sae-mem-scan"], SMOKE, str(tmp_path / "canary")).setup()
    try:
        schema = deployment.dataset.schema
        oracle = Oracle(deployment.dataset.records, schema.key_index, schema.id_index)
        tamper_canary(deployment, oracle)  # the real provider: the attack is caught
        honest_db = deployment.db
        # A deployment whose attack hook does nothing answers honestly and
        # verifies: exactly what a no-op verifier would look like from outside.
        deployment.db = SimpleNamespace(query=honest_db.query, provider=SimpleNamespace(attack=None))
        with pytest.raises(BenchmarkFailure):
            tamper_canary(deployment, oracle)
        deployment.db = honest_db
    finally:
        deployment.close()
