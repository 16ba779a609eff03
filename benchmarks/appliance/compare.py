"""Compare two result files written by ``run.py --out``.

    python -m benchmarks.appliance.compare A.json B.json

``A`` is the baseline (the parent commit, or the first of two sets of
runs of one commit), ``B`` the candidate.  One row per workload and
end-to-end metric, judged with that metric's own bound from
``BENCHMARK.json``:

* **worse** -- B's median is worse than A's by more than the bound;
* **better** -- better by more than the bound;
* **same** -- within the bound;
* **unresolved** -- the run-to-run spread is wider than the bound, so
  the files cannot tell (unless every B run beats every A run, which
  is reported as better).

Spread is (Q3 - Q1) / median over a file's runs, the larger of the two
files; with fewer than four runs per file it falls back to the widest
(max - min) / median between the rounds inside a run.  Exit status 1
if any row is worse.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))

from benchmarks.appliance.metrics import quartile_spread  # noqa: E402
from benchmarks.appliance.procs import ROOT  # noqa: E402


def load_runs(path: str) -> dict[str, list[dict]]:
    """``{workload: [metrics of each untraced run]}``."""
    with open(path) as src:
        records = json.load(src)
    runs: dict[str, list[dict]] = {}
    for record in records:
        if not record.get("trace"):
            runs.setdefault(record["workload"], []).append(record["metrics"])
    return runs


def spread_of(runs: list[dict], name: str) -> float:
    values = [run[name]["value"] for run in runs]
    if len(values) >= 4:
        return quartile_spread(values)
    return max(run[name]["spread"] for run in runs)


def judge(a_runs: list[dict], b_runs: list[dict], metric: dict) -> dict:
    """One row: medians, relative change, spread, verdict."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    a = [run[name]["value"] for run in a_runs]
    b = [run[name]["value"] for run in b_runs]
    a_mid, b_mid = statistics.median(a), statistics.median(b)
    #: positive = B worse, as a share of A's median
    worse_by = sign * (b_mid - a_mid) / a_mid if a_mid else 0.0
    spread = max(spread_of(a_runs, name), spread_of(b_runs, name))
    if spread > bound:
        all_better = (max(b) < min(a) if sign > 0 else min(b) > max(a))
        verdict = "better" if all_better else "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif worse_by < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return {"metric": name, "a": a_mid, "b": b_mid, "worse_by": worse_by,
            "spread": spread, "bound": bound, "verdict": verdict}


def compare(a_path: str, b_path: str, spec: dict) -> list[dict]:
    a_all, b_all = load_runs(a_path), load_runs(b_path)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a_all or workload not in b_all:
            continue
        for metric in spec["end_to_end"]:
            row = judge(a_all[workload], b_all[workload], metric)
            rows.append({"workload": workload, **row})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        spec = json.load(src)
    rows = compare(argv[0], argv[1], spec)
    print(f"{'workload':<12} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'B worse by':>10} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<18} {row['a']:>12.5g} "
              f"{row['b']:>12.5g} {row['worse_by']:>+10.1%} "
              f"{row['spread']:>7.1%} {row['bound']:>6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
