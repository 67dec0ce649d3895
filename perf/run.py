#!/usr/bin/env python3
"""The repository benchmark: one command, every workload, every metric.

    python3 perf/run.py                       # all five workloads, traced, tables
    python3 perf/run.py --workload sae-mem-scan --seed 7 --seconds 10 --trace 0
    python3 perf/run.py --scale smoke --out runs.json --trace-out spans.json
    python3 perf/run.py compare A.json B.json

Each workload run ends with one JSON line -- ``correct``, ``attempted``,
``failed`` and ``metrics`` -- holding every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``, and both when ``--trace`` is not given.  Every answer is
compared with an oracle; a wrong one makes the command exit non-zero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK_ROOT = ROOT / ".perf_work"


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _parse(argv: Sequence[str], spec: Dict[str, Any]) -> argparse.Namespace:
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them, in order")
    parser.add_argument("--seed", type=int, default=7, help="seeds the traffic, never the data")
    parser.add_argument("--seconds", type=float, help="timed pass length (default: the scale's)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer ladder; default: both")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="append each run's result document to this JSON list")
    parser.add_argument("--trace-out", help="write the recorded spans here when the run ends")
    return parser.parse_args(argv)


def _format(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def print_result(result: Any, spec: Dict[str, Any], sections: Sequence[str]) -> None:
    sizes = ", ".join(f"{key}={value}" for key, value in result.sizes.items())
    print(f"== {result.workload}  seed={result.seed} scale={result.scale} "
          f"timed={result.seconds:g}s  [{sizes}]")
    print(f"   design: {json.dumps(result.design, sort_keys=True)}")
    print(f"   attempted={result.attempted} failed={result.failed} "
          f"failed_share={result.failed / max(1, result.attempted):.6f} "
          f"tamper_canary={result.canary} samples={result.samples}")
    for error in result.errors:
        print(f"   error: {error}")
    for section in sections:
        values = getattr(result, section)
        for metric in spec[section]:
            name = metric["name"]
            shown = _format(values[name]) if name in values else "n/a"
            print(f"   {name:<44} {shown:>14} {metric['unit']}")
    for note in result.notes:
        print(f"   note: {note}")


def contract_line(result: Any, spec: Dict[str, Any], sections: Sequence[str]) -> str:
    """The driver's JSON line; a layer the workload does not run reads 0."""
    metrics = {
        metric["name"]: {
            "value": getattr(result, section).get(metric["name"], 0.0),
            "unit": metric["unit"],
        }
        for section in sections
        for metric in spec[section]
    }
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    })


def _append(path: str, document: Dict[str, Any]) -> None:
    runs: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path) as handle:
            runs = json.load(handle)
    runs.append(document)
    with open(path, "w") as handle:
        json.dump(runs, handle, indent=1)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perf/run.py: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    spec = load_spec()
    if argv[:1] == ["compare"]:
        from perf.compare import compare_files

        return compare_files(argv[1:], spec)

    from perf.harness import BenchmarkFailure, run_workload
    from perf.tracing import Recorder
    from perf.workloads import BY_NAME, SCALES

    args = _parse(argv, spec)
    scale = SCALES[args.scale]
    seconds = args.seconds if args.seconds is not None else (
        float(spec["run_seconds"]) if scale.name == "full" else scale.seconds
    )
    sections = {None: ("end_to_end", "per_layer"), 0: ("end_to_end",), 1: ("per_layer",)}[args.trace]
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    recorder = Recorder()
    workroot = WORK_ROOT / f"run-{os.getpid()}"
    status = 0
    try:
        for name in names:
            try:
                result = run_workload(
                    BY_NAME[name], args.seed, seconds, args.trace != 0, scale,
                    str(workroot), recorder,
                )
            except BenchmarkFailure as failure:
                print(f"perf/run.py: {name}: {failure}", file=sys.stderr)
                return 1
            print_result(result, spec, sections)
            if args.out:
                _append(args.out, dataclasses.asdict(result))
            print(contract_line(result, spec, sections), flush=True)
            if not result.correct:
                status = 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
        if args.trace_out:
            recorder.dump(args.trace_out)
    return status


if __name__ == "__main__":
    # A terminated run must still stop its children and remove its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
