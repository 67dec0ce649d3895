"""``perf/run.py compare A.json B.json [...]``: read repeated runs, give a verdict.

Each file is the ``--out`` list of one side's runs (the first file is the
parent; with both files from one commit this is the A/A check).  For every
workload x end-to-end metric the tool prints each side's median and quartiles
and one of four verdicts, by the rules of the ``choosing-metrics`` guide:

* **improved** -- the change wins at least nine tenths of the pairs (run *i*
  of one side against run *i* of the other, ties for neither) and the medians
  differ by more than the distance between the parent's own quartiles;
* **regressed** -- the change's median is worse than the parent's by more
  than the bound ``BENCHMARK.json`` fixes for the metric;
* **unresolved** -- the run-to-run spread of either side is wider than that
  bound and the two sides' runs interleave, so neither of the above can be
  told from noise;
* **no worse** -- anything else.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Sequence, Tuple


def _load(path: str) -> Dict[str, List[Dict[str, float]]]:
    """workload -> the end-to-end metrics of each run, in file order."""
    with open(path) as handle:
        runs = json.load(handle)
    grouped: Dict[str, List[Dict[str, float]]] = {}
    for run in runs:
        grouped.setdefault(run["workload"], []).append(run["end_to_end"])
    return grouped


def summary(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); one run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    first, median, third = summary(values)
    return (third - first) / abs(median) if median else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse == sign * (change - parent) > 0
    p_first, p_median, p_third = summary(parent)
    _, c_median, _ = summary(change)
    worse_by = sign * (c_median - p_median) / abs(p_median) if p_median else 0.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    losses = sum(sign * (c - p) > 0 for p, c in pairs)
    separated_better = all(sign * (c - p) < 0 for p in parent for c in change)
    separated_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    noisy = max(spread(parent), spread(change)) > bound
    if (
        pairs and wins >= 0.9 * len(pairs) and wins > losses
        and abs(c_median - p_median) > (p_third - p_first)
    ):
        return "improved"
    if worse_by > bound:
        return "regressed" if separated_worse or not noisy else "unresolved"
    if noisy and not separated_better and worse_by > 0:
        return "unresolved"
    return "no worse"


def compare_files(paths: Sequence[str], spec: Dict[str, Any]) -> int:
    if len(paths) < 2:
        print("usage: perf/run.py compare PARENT.json CHANGE.json [CHANGE2.json ...]")
        return 2
    sides = [_load(path) for path in paths]
    parent = sides[0]
    regressed = 0
    for number, change in enumerate(sides[1:], start=1):
        print(f"== {paths[0]} (parent) vs {paths[number]}")
        for workload in spec["workloads"]:
            name = workload["name"]
            if name not in parent or name not in change:
                continue
            print(f"-- {name}: {len(parent[name])} vs {len(change[name])} runs")
            for metric in spec["end_to_end"]:
                key = metric["name"]
                before = [run[key] for run in parent[name]]
                after = [run[key] for run in change[name]]
                result = verdict(before, after, metric["better"], metric["bound"])
                regressed += result == "regressed"
                b_first, b_median, b_third = summary(before)
                a_first, a_median, a_third = summary(after)
                print(
                    f"   {key:<28} {metric['unit']:<6}"
                    f" {b_median:>11.5g} [{b_first:.5g}, {b_third:.5g}]"
                    f" -> {a_median:>11.5g} [{a_first:.5g}, {a_third:.5g}]"
                    f"  spread {max(spread(before), spread(after)):.3f}"
                    f" bound {metric['bound']:g}  {result}"
                )
    return 1 if regressed else 0
