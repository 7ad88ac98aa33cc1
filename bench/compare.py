#!/usr/bin/env python3
"""Apply the benchmark's own bounds to two result sets.

    python3 bench/compare.py A.json B.json

A and B are files written by ``bench/run.py --repeat K --out FILE``
(A the parent or first set, B the change or second set).  One row per
workload x end-to-end metric: the medians of each set's runs, how much
worse B is than A as a share of A (negative = better), and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the runs of either set spread wider than the bound (and
                B's runs are not all better than all of A's), or fewer
                than two comparable runs are left on a side

A run that failed a check or flagged itself invalid (the open-loop
generator ran late, or the hypervisor withheld CPU from the guest) is
listed in the sets but not compared.

Two sets of runs of the same code must come out all ``ok``; that is the
proof the benchmark repeats.  Exit code 1 if any row regressed.
"""

from __future__ import annotations

import json
import os
import sys

from stats import median, spread

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds() -> dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def _by_workload(path: str) -> dict[str, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    grouped: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare(a_runs: dict[str, list[dict]], b_runs: dict[str, list[dict]],
            bounds: dict[str, dict]) -> list[dict]:
    """One verdict row per workload x metric present in both sets."""
    rows = []
    for workload in a_runs:
        if workload not in b_runs:
            continue
        a_valid = [r for r in a_runs[workload] if r["valid"] and r["correct"]]
        b_valid = [r for r in b_runs[workload] if r["valid"] and r["correct"]]
        enough = min(len(a_valid), len(b_valid)) >= 2
        for name, spec in bounds.items():
            a = [r["metrics"][name]["value"] for r in a_valid or a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_valid or b_runs[workload]]
            higher = spec["better"] == "higher"
            a_mid, b_mid = median(a), median(b)
            worse = ((a_mid - b_mid) if higher else (b_mid - a_mid)) / abs(a_mid)
            all_better = min(b) > max(a) if higher else max(b) < min(a)
            wide = max(spread(a), spread(b)) > spec["bound"]
            if not enough:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "regressed"
            elif wide and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name, "unit": spec["unit"],
                         "a": a_mid, "b": b_mid, "worse": worse,
                         "spread": max(spread(a), spread(b)),
                         "bound": spec["bound"], "verdict": verdict})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(_by_workload(argv[0]), _by_workload(argv[1]), load_bounds())
    print(f"{'workload':<18} {'metric':<16} {'A median':>12} {'B median':>12} "
          f"{'worse':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<18} {row['metric']:<16} {row['a']:>12.4f} "
              f"{row['b']:>12.4f} {row['worse']:>+8.3f} {row['spread']:>7.3f} "
              f"{row['bound']:>6.2f}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
