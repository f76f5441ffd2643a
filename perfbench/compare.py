"""Compare the end-to-end metrics of two sets of runs.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds run records (perfbench/runs/*-trace0.json) of one
commit, one per seed.  For every workload and metric it prints the median
and quartiles of each side, the change of the median as a share of the
BEFORE median (positive = worse), and a verdict against the metric's bound
in BENCHMARK.json: "worse" beyond the bound, "unresolved" when BEFORE's own
quartile spread exceeds the bound, else "ok".
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        res = rec["result"]
        entry = out.setdefault(rec["workload"], {"failed": 0, "attempted": 0, "metrics": {}})
        entry["failed"] += res["failed"]
        entry["attempted"] += res["attempted"]
        for name, m in res["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    before, after = load(sys.argv[1]), load(sys.argv[2])
    for wl in sorted(set(before) & set(after)):
        b, a = before[wl], after[wl]
        print(f"{wl}: failed {b['failed']}/{b['attempted']} -> {a['failed']}/{a['attempted']}")
        for name, m in spec.items():
            bq, aq = quartiles(b["metrics"][name]), quartiles(a["metrics"][name])
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = sign * (aq[1] - bq[1]) / bq[1]
            spread = (bq[2] - bq[0]) / bq[1]
            verdict = ("worse" if change > m["bound"] else
                       "unresolved" if spread > m["bound"] else "ok")
            print(f"  {name:12s} {bq[1]:10.4g} [{bq[0]:.4g}, {bq[2]:.4g}] -> "
                  f"{aq[1]:10.4g} [{aq[0]:.4g}, {aq[2]:.4g}]  "
                  f"worse by {change:+.1%} (bound {m['bound']:.0%})  {verdict}")


if __name__ == "__main__":
    main()
