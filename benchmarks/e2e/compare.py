"""``python -m benchmarks.e2e.compare A.json B.json``: does B regress against A?

A and B are run sets written by ``runset.py`` (or single ``run.py --out``
files).  For every (end-to-end metric, workload) row the tool applies the
metric's bound from BENCHMARK.json to the two medians and prints

* ``worse`` / ``better`` -- B's median differs from A's by more than the bound;
* ``same`` -- it does not;
* ``unresolved`` -- the run-to-run spread (interquartile range over median, the
  wider of the two sides) exceeds the bound, so the medians cannot be told
  apart -- unless every run of one side beats every run of the other.

Every ratio is B over A, A being the base.  Exit status is 1 on any ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from benchmarks.e2e.measure import spread

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: str) -> list[dict]:
    payload = json.loads(Path(path).read_text())
    runs = payload["runs"] if "runs" in payload else [payload]
    return [run for run in runs if not run["traced"]]


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float, float]:
    """``(verdict, B/A ratio of medians, wider spread)`` of one row."""
    sign = 1.0 if better == "lower" else -1.0  # worsening = the value moving this way
    median_a, median_b = statistics.median(a), statistics.median(b)
    ratio = median_b / median_a
    worsening = sign * (ratio - 1.0)
    width = max(spread(a), spread(b))
    if width > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "worse", ratio, width
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "better", ratio, width
        return "unresolved", ratio, width
    if worsening > bound:
        return "worse", ratio, width
    if worsening < -bound:
        return "better", ratio, width
    return "same", ratio, width


def compare(runs_a: list[dict], runs_b: list[dict], spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a if r["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in runs_b if r["workload"] == workload]
            if not a or not b:
                continue
            outcome, ratio, width = verdict(a, b, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a_median": statistics.median(a),
                    "b_median": statistics.median(b),
                    "ratio_b_over_a": ratio,
                    "spread": width,
                    "bound": metric["bound"],
                    "runs": (len(a), len(b)),
                    "verdict": outcome,
                }
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="base run set")
    parser.add_argument("b", help="run set under test")
    args = parser.parse_args(argv)
    rows = compare(load_runs(args.a), load_runs(args.b), json.loads(SPEC_PATH.read_text()))
    print(f"{'workload':16s} {'metric':12s} {'A median':>12s} {'B median':>12s} {'B/A':>7s} "
          f"{'spread':>7s} {'bound':>6s} {'runs':>7s}  verdict")
    for row in rows:
        print(
            f"{row['workload']:16s} {row['metric']:12s} {row['a_median']:12.5g} {row['b_median']:12.5g} "
            f"{row['ratio_b_over_a']:7.3f} {row['spread']:7.3f} {row['bound']:6.2f} "
            f"{row['runs'][0]:3d}/{row['runs'][1]:<3d}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
