"""Compare two studies written by ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A with A named as its base, and a verdict from
the bounds fixed in BENCHMARK.json:

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the run-to-run spread of either side (quartile distance
                over median) is wider than the bound, so the bound
                cannot be judged — never read this as "unchanged".

Exits 1 unless every row is ``ok``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence

sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perf import harness  # noqa: E402


def worsening(median_a: float, median_b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    change = (median_b - median_a) / abs(median_a)
    return -change if better == "higher" else change


def verdict(values_a: Sequence[float], values_b: Sequence[float],
            better: str, bound: float) -> str:
    if max(harness.spread_share(values_a),
           harness.spread_share(values_b)) > bound:
        return "unresolved"
    worse = worsening(statistics.median(values_a),
                      statistics.median(values_b), better)
    return "worse" if worse > bound else "ok"


def end_to_end_values(study: Dict) -> Dict[tuple, List[float]]:
    """(workload, metric) -> values of the study's untraced runs."""
    table: Dict[tuple, List[float]] = {}
    for run in study["runs"]:
        if run["trace"]:
            continue
        for name, metric in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(
                metric["value"])
    return table


def compare(study_a: Dict, study_b: Dict, declaration: Dict) -> List[Dict]:
    a, b = end_to_end_values(study_a), end_to_end_values(study_b)
    rows = []
    for workload in [w["name"] for w in declaration["workloads"]]:
        for metric in declaration["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            qa, qb = harness.quartiles(a[key]), harness.quartiles(b[key])
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "a": qa, "b": qb,
                "ratio_b_over_a": qb[1] / qa[1],
                "verdict": verdict(a[key], b[key], metric["better"],
                                   metric["bound"]),
                "bound": metric["bound"], "n": (len(a[key]), len(b[key])),
            })
    return rows


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    studies = []
    for path in sys.argv[1:]:
        with open(path) as fh:
            studies.append(json.load(fh))
    rows = compare(studies[0], studies[1], harness.load_declaration())
    print(f"A = {sys.argv[1]} ({rows[0]['n'][0] if rows else 0} runs)   "
          f"B = {sys.argv[2]} ({rows[0]['n'][1] if rows else 0} runs)")
    print(f"{'workload':<15} {'metric':<17} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'B/A (base A)':<14} bound  verdict")
    for row in rows:
        def cell(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {row['unit']}"
        print(f"{row['workload']:<15} {row['metric']:<17} "
              f"{cell(row['a']):<32} {cell(row['b']):<32} "
              f"{row['ratio_b_over_a']:<14.3f} {row['bound']:<6} "
              f"{row['verdict']}")
    return 0 if all(row["verdict"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
