"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records appended by ``run.py --record``, usually ten
seeds per workload. For every workload and metric the table shows each
side's median and quartiles and a label:

* improved   -- the change wins at least nine tenths of at least ten
                pairs (runs with the same seed, else in file order; ties
                count for neither) and the medians differ by more than the
                base's interquartile range;
* worse      -- the change's median is worse than the base's by more than
                the metric's bound in BENCHMARK.json (per-layer metrics have
                no bound: worse when they lose as an improvement would win);
* unchanged  -- not worse, and the run-to-run spread (interquartile range
                over median, either side) is within the bound, or every
                run of the change reads better than every run of the base;
                a per-layer metric is unchanged when its medians are equal;
* unresolved -- anything else: the spread is too wide to tell.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9

Series = Dict[Tuple[str, str], List[Tuple[int, float]]]


def load(path: str) -> Series:
    """(workload, metric) -> [(seed, value), ...] in file order."""
    series: Series = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for metric, entry in rec["metrics"].items():
                series[(rec["workload"], metric)].append((rec["seed"], entry["value"]))
    return series


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: List[Tuple[int, float]], change: List[Tuple[int, float]]) -> List[Tuple[float, float]]:
    by_seed = dict(change)
    if len(by_seed) == len(change) and all(seed in by_seed for seed, _ in base):
        return [(value, by_seed[seed]) for seed, value in base]
    return [(a, b) for (_, a), (_, b) in zip(base, change)]


def label(
    base: List[Tuple[int, float]],
    change: List[Tuple[int, float]],
    lower_is_better: bool,
    bound: Optional[float],
) -> str:
    sign = 1.0 if lower_is_better else -1.0
    a = [v for _, v in base]
    b = [v for _, v in change]
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    diff = sign * (med_b - med_a)  # > 0: the change is worse
    matched = pairs(base, change)
    wins = sum(1 for x, y in matched if sign * (y - x) < 0)
    losses = sum(1 for x, y in matched if sign * (y - x) > 0)
    enough = len(matched) >= MIN_PAIRS
    beyond_spread = abs(med_b - med_a) > qa[2] - qa[0]

    if enough and diff < 0 and wins >= WIN_SHARE * len(matched) and beyond_spread:
        return "improved"
    if bound is None:
        if enough and diff > 0 and losses >= WIN_SHARE * len(matched) and beyond_spread:
            return "worse"
        return "unchanged" if med_a == med_b else "unresolved"
    if diff > bound * abs(med_a):
        return "worse"
    spread = max(
        (qa[2] - qa[0]) / abs(med_a) if med_a else float("inf"),
        (qb[2] - qb[0]) / abs(med_b) if med_b else float("inf"),
    )
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread <= bound or all_better:
        return "unchanged"
    return "unresolved"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, change = load(args.base), load(args.change)
    order = {w["name"]: i for i, w in enumerate(spec["workloads"])}
    metric_order = {name: i for i, name in enumerate(metrics)}
    keys = sorted(
        set(base) & set(change),
        key=lambda k: (order.get(k[0], len(order)), metric_order.get(k[1], len(metric_order))),
    )
    print(f"{'workload':<20} {'metric':<32} {'unit':<6} {'base: median [q1, q3] n':<44} "
          f"{'change: median [q1, q3] n':<44} {'change':>8}  label")
    for workload, metric in keys:
        meta = metrics.get(metric)
        if meta is None:
            continue
        a, b = base[(workload, metric)], change[(workload, metric)]
        qa, qb = quartiles([v for _, v in a]), quartiles([v for _, v in b])
        rel = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else float("nan")
        verdict = label(a, b, meta["better"] == "lower", meta.get("bound"))
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {n}" for q, n in ((qa, len(a)), (qb, len(b)))]
        print(
            f"{workload:<20} {metric:<32} {meta['unit']:<6} {cells[0]:<44} {cells[1]:<44} "
            f"{100 * rel:>+7.2f}%  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
