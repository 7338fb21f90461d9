#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that `run.py --out FILE` (or `suite.py --out
FILE`) appends, one run per line. For every workload and end-to-end metric
the command prints the median and quartiles of each set and whether the
new median stays within the metric's bound from BENCHMARK.json: a metric
whose better direction is lower agrees when new <= base * (1 + bound), and
one whose better direction is higher when new >= base * (1 - bound). It
also prints each set's share of failed operations and the machines the
runs were made on. A workload of BENCHMARK.json with no untraced run in
either set, a higher share of failed operations in the new set, or a new
run whose outputs were wrong is a disagreement too. Exit status 0 when
everything agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(ln) for ln in fh if ln.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = {"base": load(args.base), "new": load(args.new)}

    for label, runs in sets.items():
        machines = {json.dumps(r["machine"], sort_keys=True) for r in runs}
        for m in sorted(machines):
            print(f"{label} machine: {m}")

    all_agree = True
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<20} {'metric':<12} {'base q1/median/q3':>30} {'new q1/median/q3':>30} "
          f"{'change':>8} {'bound':>6}  verdict")
    for wl in workloads:
        runs = {k: [r for r in v if r["workload"] == wl and r["trace"] == 0] for k, v in sets.items()}
        missing = [k for k, v in runs.items() if not v]
        if missing:
            print(f"{wl:<20} no runs in {' and '.join(missing)}: WORSE")
            all_agree = False
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            qs = {k: quartiles([r["result"]["metrics"][name]["value"] for r in v]) for k, v in runs.items()}
            base, new = qs["base"][1], qs["new"][1]
            change = new / base - 1.0
            if metric["better"] == "lower":
                agree = new <= base * (1.0 + bound)
            else:
                agree = new >= base * (1.0 - bound)
            all_agree &= agree
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{wl:<20} {name:<12} {fmt(qs['base']):>30} {fmt(qs['new']):>30} "
                  f"{change:>+8.1%} {bound:>6.2f}  {'agree' if agree else 'WORSE'}")
        counts = {}
        for k, v in runs.items():
            attempted = sum(r["result"]["attempted"] for r in v)
            failed = sum(r["result"]["failed"] for r in v)
            wrong = sum(not r["result"]["correct"] for r in v)
            counts[k] = failed, attempted
            print(f"{wl:<20} {k} runs {len(v)}: failed {failed}/{attempted} operations, "
                  f"{wrong} runs with wrong outputs")
        (fb, ab), (fn, an) = counts["base"], counts["new"]
        if fn * ab > fb * an or any(not r["result"]["correct"] for r in runs["new"]):
            print(f"{wl:<20} more failed operations or wrong outputs in new: WORSE")
            all_agree = False
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
