#!/usr/bin/env python
"""Compare two ``run.py --out`` files: parent (A) against change (B).

    python benchmarks/e2e/compare.py A.json B.json

For every end-to-end (metric, workload) row it prints each side's
median and quartiles, the pairs B won (runs paired in order, ties
counting for neither) and one verdict:

- ``improved``: at least ten pairs, B wins at least 9 of 10 of them,
  and the medians differ, in the better direction, by more than A's
  interquartile range;
- ``worse``: B's median is worse than A's by more than the metric's
  bound (exact metrics: worse at all);
- ``unresolved``: neither, but A's own spread is wider than the bound
  and B does not read better on every run than every run of A (or an
  exact metric varies between runs);
- ``unchanged``: everything else.

Exits 1 when any row is worse or unresolved. A ``baseline.json`` (an
object with ``untraced`` results) is accepted on either side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ops import BATCH  # noqa: E402
from run import END_TO_END, quantile_row  # noqa: E402

#: Workloads each end-to-end metric is judged on, and where it is
#: deterministic (the same seed gives the same value: exact bound).
APPLIES = {
    "admit_p50_ms": ("service_realtime",),
    "sim_utilization": BATCH,
    "sim_queue_delay_p95_ms": BATCH,
    "sim_gold_attainment": ("fleet_elastic_16c", "shard_fence_2w"),
}
EXACT = ("failed_ratio", "sim_utilization", "sim_gold_attainment",
         "sim_queue_delay_p95_ms")
#: Fewer pairs than this never support a claimed gain.
MIN_PAIRS = 10


def load_runs(path: Path) -> "list[dict]":
    data = json.loads(path.read_text())
    if "untraced" in data:
        data = data["untraced"]
    return data["runs"]


def series(runs: "list[dict]", workload: str, metric: str) -> "list[float]":
    return [run["end_to_end"][metric] for run in runs
            if run["workload"] == workload and metric in run["end_to_end"]]


def verdict(a: "list[float]", b: "list[float]", better: str, bound: float,
            exact: bool) -> "tuple[str, int, int]":
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if exact:
        if len(set(a)) > 1 or len(set(b)) > 1:
            return "unresolved", wins, len(pairs)
        if a[0] == b[0]:
            return "unchanged", wins, len(pairs)
        return ("improved" if sign * (b[0] - a[0]) > 0 else "worse",
                wins, len(pairs))
    row_a = quantile_row(a)
    median_a, median_b = row_a["median"], statistics.median(b)
    gain = sign * (median_b - median_a)
    spread = row_a["q3"] - row_a["q1"]
    if (gain > 0 and len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gain > spread):
        return "improved", wins, len(pairs)
    if -gain > bound * abs(median_a):
        return "worse", wins, len(pairs)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound * abs(median_a) and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def compare(runs_a: "list[dict]", runs_b: "list[dict]") -> "list[dict]":
    rows = []
    workloads = sorted({run["workload"] for run in runs_a}
                       & {run["workload"] for run in runs_b})
    for name, unit, better, bound in END_TO_END:
        for workload in workloads:
            if workload not in APPLIES.get(name, (workload,)):
                continue
            a = series(runs_a, workload, name)
            b = series(runs_b, workload, name)
            if not a or not b:
                continue
            exact = name in EXACT and workload in BATCH
            outcome, wins, pairs = verdict(a, b, better, bound, exact)
            rows.append({"metric": name, "workload": workload, "unit": unit,
                         "bound": "exact" if exact else bound,
                         "a": quantile_row(a), "b": quantile_row(b),
                         "wins": wins, "pairs": pairs, "verdict": outcome})
    return rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change))
    for row in rows:
        a, b = row["a"], row["b"]
        print(f"{row['metric']:<24} {row['workload']:<18} "
              f"A {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]  "
              f"B {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] "
              f"{row['unit']}  wins {row['wins']}/{row['pairs']}  "
              f"bound {row['bound']}  {row['verdict']}")
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
