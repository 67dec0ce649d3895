#!/usr/bin/env python3
"""The benchmark's trajectory: one line per landed change, kept in the repo.

    python3 benchmarks/history.py append RUNS.json --commit SHA --label TEXT
    python3 benchmarks/history.py show [--workload NAME]

``append`` reduces one ``perf/run.py --out`` file -- the same set of runs a
change hands to ``perf/run.py compare`` -- to, per workload, the median of
every end-to-end metric plus ``host.calibration_score``, and appends that as
one JSON line to ``benchmarks/history.jsonl``.  ``show`` prints the series, one
table per workload, oldest line first.

A ``--trace 0`` run is the protocol the benchmark gates (three set-ups, no
traced pass before the timed one), so when a file holds such runs the medians
come from them alone; ``host.calibration_score`` is a per-layer metric and
comes from the traced runs of the file (``null`` when it holds none).  Timings
are **not** normalised by the score: it is there so that lines written on
different hosts can be read side by side.

Nothing here imports ``perf/`` or the program: the tool only reads and writes
JSON, so it cannot move what it records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HISTORY_PATH = Path(__file__).resolve().parent / "history.jsonl"
CALIBRATION = "host.calibration_score"


def reduce_runs(runs: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """workload -> ``{"runs", "seeds", CALIBRATION, "metrics"}`` (see module docstring)."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run)
    reduced = {}
    for workload, group in grouped.items():
        timed = [run for run in group if not run["per_layer"]] or group
        scores = [run["per_layer"][CALIBRATION] for run in group if CALIBRATION in run["per_layer"]]
        reduced[workload] = {
            "runs": len(timed),
            "seeds": sorted({run["seed"] for run in timed}),
            CALIBRATION: statistics.median(scores) if scores else None,
            "metrics": {
                name: statistics.median(run["end_to_end"][name] for run in timed)
                for name in timed[0]["end_to_end"]
            },
        }
    return reduced


def append(runs_path: str, commit: str, label: str, history: Path) -> Dict[str, Any]:
    with open(runs_path) as handle:
        runs = json.load(handle)
    if not runs:
        raise ValueError(f"{runs_path} holds no runs")
    line = {"commit": commit, "label": label, "workloads": reduce_runs(runs)}
    with open(history, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    return line


def load(history: Path) -> List[Dict[str, Any]]:
    if not history.exists():
        return []
    with open(history) as handle:
        return [json.loads(text) for text in handle if text.strip()]


def show(history: Path, workload: Optional[str] = None) -> int:
    lines = load(history)
    names: List[str] = []
    for line in lines:
        names.extend(name for name in line["workloads"] if name not in names)
    if workload is not None:
        if workload not in names:
            print(f"history.py: no line of {history} holds workload {workload!r}", file=sys.stderr)
            return 1
        names = [workload]
    for name in names:
        entries = [(line, line["workloads"][name]) for line in lines if name in line["workloads"]]
        metrics: List[str] = []
        for _, entry in entries:
            metrics.extend(metric for metric in entry["metrics"] if metric not in metrics)
        widths = [max(10, len(metric)) for metric in metrics]
        print(f"== {name}")
        print(f"   {'commit':<10} {'runs':>4} {'calibration':>11} "
              + " ".join(metric.rjust(width) for metric, width in zip(metrics, widths)) + "  label")
        for line, entry in entries:
            score = entry.get(CALIBRATION)
            cells = " ".join(
                (format(entry["metrics"][metric], ".5g") if metric in entry["metrics"] else "n/a").rjust(width)
                for metric, width in zip(metrics, widths)
            )
            print(f"   {line['commit'][:10]:<10} {entry['runs']:>4} "
                  f"{('n/a' if score is None else format(score, '.0f')):>11} {cells}  {line['label']}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--history", type=Path, default=HISTORY_PATH,
                        help="the history file (default: benchmarks/history.jsonl)")
    commands = parser.add_subparsers(dest="command", required=True)
    adder = commands.add_parser("append", help="reduce a perf/run.py --out file to one line")
    adder.add_argument("runs", help="a perf/run.py --out file")
    adder.add_argument("--commit", required=True, help="the commit the runs measured")
    adder.add_argument("--label", required=True, help="what that commit is, in a few words")
    shower = commands.add_parser("show", help="print the series")
    shower.add_argument("--workload", help="only this workload")
    args = parser.parse_args(argv)
    if args.command == "show":
        return show(args.history, args.workload)
    try:
        line = append(args.runs, args.commit, args.label, args.history)
    except (OSError, ValueError, KeyError) as exc:
        print(f"history.py: cannot reduce {args.runs}: {exc!r}", file=sys.stderr)
        return 1
    print(f"appended {line['commit'][:10]} ({', '.join(line['workloads'])}) to {args.history}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
