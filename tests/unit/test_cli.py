"""Unit tests for the command-line interface."""

import contextlib
import io
import json

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_runs_and_detects_tampering(self, capsys):
        exit_code = main(["demo", "--records", "800"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "verified=True" in output
        assert "verified=False" in output

    def test_demo_zipf_distribution(self, capsys):
        assert main(["demo", "--records", "600", "--distribution", "zipf"]) == 0
        assert "SKW-600" in capsys.readouterr().out

    def test_demo_tom_scheme_with_key_flags(self, capsys):
        exit_code = main([
            "demo", "--records", "700", "--scheme", "tom",
            "--key-bits", "512", "--seed", "11",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "scheme tom" in output
        assert "verified=True" in output
        assert "verified=False" in output

    def test_demo_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["demo", "--scheme", "merkle2"])


class TestExperiments:
    def test_single_figure(self, capsys):
        exit_code = main(["experiments", "--scale", "quick", "--figure", "5"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 5" in output
        assert "Figure 6" not in output

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiments", "--scale", "galactic"])


class TestAttackGallery:
    def test_gallery_reports_verdicts_for_every_scheme(self, capsys):
        exit_code = main(["attack-gallery", "--records", "700"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "REJECTED" in output
        assert "accepted" in output
        assert "SAE" in output
        assert "TOM" in output

    def test_gallery_key_material_is_configurable(self, capsys):
        exit_code = main([
            "attack-gallery", "--records", "600", "--key-bits", "512", "--seed", "23",
        ])
        assert exit_code == 0
        assert "REJECTED" in capsys.readouterr().out


class TestBenchRunLoad:
    def test_sharded_run_load(self, capsys):
        exit_code = main([
            "bench", "run-load", "--records", "600", "--queries", "10",
            "--clients", "2", "--shards", "3", "--mode", "batched",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "3 shard(s)" in output
        assert "verified" in output

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--clients", "0"], "--clients must be at least 1"),
            (["--shards", "0"], "--shards must be at least 1"),
            (["--shards", "-4"], "--shards must be at least 1"),
            (["--batch-size", "0"], "--batch-size must be at least 1"),
            (["--workers", "2"], "--workers only applies to --transport fleet"),
            (
                ["--transport", "tcp", "--workers", "2"],
                "--workers only applies to --transport fleet",
            ),
            (
                ["--transport", "fleet", "--workers", "0"],
                "--workers must be at least 1",
            ),
        ],
    )
    def test_bad_arguments_exit_2_with_message(self, capsys, argv, fragment):
        exit_code = main(["bench", "run-load"] + argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert fragment in captured.err


class TestFleetArgumentValidation:
    """Fleet directories and single-process commands must not mix silently."""

    @pytest.fixture(scope="class")
    def fleet_dir(self, tmp_path_factory):
        from repro.core.design import PhysicalDesign
        from repro.network.fleet import build_fleet
        from repro.workloads import build_dataset

        base = tmp_path_factory.mktemp("cli-fleet")
        build_fleet(
            build_dataset(200, record_size=64, seed=9),
            base,
            scheme="sae",
            design=PhysicalDesign(shards=2),
            key_bits=512,
            seed=9,
        )
        return str(base)

    @pytest.mark.parametrize("option", ["--data-dir", "--replica-of"])
    def test_serve_refuses_a_fleet_directory(self, capsys, fleet_dir, option):
        exit_code = main(["serve", option, fleet_dir])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "holds a multi-process fleet" in captured.err
        assert f"repro serve-fleet --data-dir {fleet_dir}" in captured.err

    def test_serve_fleet_refuses_shard_count_mismatch(self, capsys, fleet_dir):
        exit_code = main(["serve-fleet", "--data-dir", fleet_dir, "--shards", "3"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "holds a 2-shard fleet but --shards 3 was requested" in captured.err

    def test_serve_fleet_refuses_replica_count_mismatch(self, capsys, fleet_dir):
        exit_code = main([
            "serve-fleet", "--data-dir", fleet_dir, "--shards", "2",
            "--replicas", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "replica snapshots are shipped at build time" in captured.err


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One full ``bench smoke`` recording without a baseline, shared by the
    tests that need a real run: ``(exit code, output directory, stdout)``."""
    out = tmp_path_factory.mktemp("smoke")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exit_code = main([
            "bench", "smoke", "--out", str(out),
            "--baseline", str(out / "missing-baseline.json"),
        ])
    return exit_code, out, stdout.getvalue()


class TestBenchSmoke:
    def test_smoke_without_baseline_records_and_passes(self, smoke_run):
        from repro.experiments.benchgate import BENCH_FILES

        exit_code, out, output = smoke_run
        assert exit_code == 0
        for name in BENCH_FILES:
            assert (out / name).exists()
        assert "BENCH_head_to_head.json" in BENCH_FILES
        assert "gate skipped" in output

    def test_bad_regression_factor_rejected(self, capsys):
        assert main(["bench", "smoke", "--inject-regression", "-1"]) == 2
        assert "--inject-regression" in capsys.readouterr().err

    def test_reuse_injects_regression_without_rebenchmarking(self, tmp_path, capsys, smoke_run):
        from repro.experiments.benchgate import BENCH_FILES

        exit_code, recorded, _ = smoke_run
        baseline = tmp_path / "baseline.json"
        assert exit_code == 0
        # Promote the honest run to a baseline, then gate a reused+degraded copy.
        import json

        merged = {"format": "sae-bench/1", "meta": {}, "metrics": {}}
        for name in BENCH_FILES:
            merged["metrics"].update(json.loads((recorded / name).read_text())["metrics"])
        baseline.write_text(json.dumps(merged))
        capsys.readouterr()

        clean = main(["bench", "smoke", "--out", str(tmp_path / "replay"),
                      "--baseline", str(baseline), "--reuse", str(recorded)])
        assert clean == 0
        degraded = main(["bench", "smoke", "--out", str(tmp_path / "degraded"),
                         "--baseline", str(baseline), "--reuse", str(recorded),
                         "--inject-regression", "0.5"])
        captured = capsys.readouterr().out
        assert degraded == 1
        assert "bench gate FAILED" in captured

    def test_reuse_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["bench", "smoke", "--out", str(tmp_path),
                     "--reuse", str(tmp_path / "nope")]) == 2


class TestScalingFigure:
    def test_scaling_figure_prints_sweep(self, capsys):
        exit_code = main([
            "experiments", "--scale", "quick", "--figure", "scaling",
            "--shards", "1,2",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "shard scaling" in output
        assert "Figure 5" not in output

    def test_scaling_figure_sweeps_tom(self, capsys):
        exit_code = main([
            "experiments", "--scale", "quick", "--figure", "scaling",
            "--shards", "1,2", "--scheme", "tom",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "tom" in output

    def test_bad_shard_list_rejected(self, capsys):
        assert main(["experiments", "--figure", "scaling", "--shards", "0,2"]) == 2
        assert "shard count" in capsys.readouterr().err


class TestHeadToHeadFigure:
    def test_head_to_head_prints_both_schemes(self, capsys):
        exit_code = main(["experiments", "--scale", "quick", "--figure", "head-to-head"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "head-to-head" in output
        assert "sae" in output and "tom" in output
        assert "update cost" in output
        assert "Figure 5" not in output


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchProfile:
    def test_profile_writes_gated_document(self, tmp_path, capsys):
        exit_code = main([
            "bench", "profile", "--scheme", "tom",
            "--records", "400", "--queries", "6", "--clients", "2",
            "--out", str(tmp_path),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "root verifier:" in output
        assert "node codec:" in output
        document = json.loads((tmp_path / "BENCH_profile.json").read_text())
        metrics = document["metrics"]
        assert any(name.startswith("profile.tom.stage.") for name in metrics)
        assert not any(".memo.replay" in name for name in metrics)  # no query-path memo
        assert metrics["profile.tom.wall_qps"]["gate"] is False

    def test_profile_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            main(["bench", "profile", "--scheme", "merkle2"])


class TestBenchSmokeWriteBaseline:
    def test_write_baseline_flag_records_merged_baseline(self, tmp_path, capsys):
        from repro.experiments.benchgate import (
            BENCH_FILES,
            GateMetric,
            metrics_document,
            write_bench_file,
        )

        reuse = tmp_path / "reuse"
        reuse.mkdir()
        for i, name in enumerate(BENCH_FILES):
            write_bench_file(
                reuse / name,
                metrics_document(
                    [GateMetric(f"suite{i}.model_qps", 10.0 + i, gate=True)],
                    meta={"suite": f"suite{i}"},
                ),
            )
        baseline = tmp_path / "baseline.json"
        exit_code = main([
            "bench", "smoke", "--out", str(tmp_path / "out"),
            "--reuse", str(reuse),
            "--baseline", str(baseline), "--write-baseline",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "wrote baseline" in output
        merged = json.loads(baseline.read_text())["metrics"]
        assert {f"suite{i}.model_qps" for i in range(len(BENCH_FILES))} <= set(merged)


class TestDesignFlag:
    """--design FILE with explicit flags as overrides; contradictions exit 2."""

    @pytest.fixture()
    def design_file(self, tmp_path):
        from repro.core.design import PhysicalDesign

        path = tmp_path / "design.json"
        PhysicalDesign(batch_size=10, pool_pages=32).save(path)
        return str(path)

    def test_run_load_serves_the_design(self, capsys, design_file):
        exit_code = main([
            "bench", "run-load", "--records", "400", "--queries", "6",
            "--clients", "1", "--design", design_file, "--mode", "batched",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "verified" in output

    def test_explicit_flags_override_the_design(self, capsys, design_file):
        exit_code = main([
            "bench", "run-load", "--records", "400", "--queries", "6",
            "--clients", "1", "--design", design_file, "--shards", "2",
            "--mode", "batched",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2 shard(s)" in output

    def test_malformed_design_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"shards": 2}')
        exit_code = main([
            "bench", "run-load", "--records", "400", "--design", str(bad),
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unsupported design format" in captured.err

    def test_record_trace_contradicts_mode_both(self, capsys, tmp_path):
        exit_code = main([
            "bench", "run-load", "--records", "400",
            "--record-trace", str(tmp_path / "t.jsonl"), "--mode", "both",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "contradicts --mode both" in captured.err

    def test_serve_design_contradicts_replica_of(self, capsys, design_file):
        exit_code = main([
            "serve", "--design", design_file, "--replica-of", "localhost:9999",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "--replica-of" in captured.err


class TestTuneCommand:
    def test_record_then_tune_emits_loadable_design(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "bench", "run-load", "--records", "600", "--queries", "12",
            "--clients", "1", "--shards", "2", "--mode", "per-query",
            "--record-trace", str(trace),
        ]) == 0
        capsys.readouterr()
        out = tmp_path / "design.json"
        report = tmp_path / "report.txt"
        exit_code = main([
            "tune", "--trace", str(trace), "--out", str(out),
            "--report", str(report),
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "recommended" in output
        assert "baseline" in report.read_text()

        from repro.core.design import PhysicalDesign

        PhysicalDesign.load(out)  # must parse and validate

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        exit_code = main(["tune", "--trace", str(tmp_path / "absent.jsonl")])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot read trace file" in captured.err

    def test_malformed_trace_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        exit_code = main(["tune", "--trace", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not valid JSONL" in captured.err
