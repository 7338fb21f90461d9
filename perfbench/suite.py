#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print all metrics.

    python3 perfbench/suite.py --seed 1 [--out runs.jsonl]

Each workload runs in its own process through `run.py`, first with
`--trace 0` (end-to-end metrics) and then with `--trace 1` (per-layer
metrics), for the run length that BENCHMARK.json sets. Every metric is
printed by name with its unit; `--out` keeps the run records, with machine
info, for `compare.py`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    status = 0
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            if args.out is not None:
                cmd += ["--out", str(args.out.resolve())]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(lines[-1])
            print(f"== {wl} (trace {trace}): correct {res['correct']}, "
                  f"failed {res['failed']} of {res['attempted']} operations")
            for name, m in res["metrics"].items():
                print(f"   {name:<42} {m['value']:>16.6g} {m['unit']}")
            status |= 0 if res["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
