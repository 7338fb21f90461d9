#!/usr/bin/env python3
"""Run one nulldist benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-scenarios --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: nulldist is imported from `src/`.
The run repeats whole passes of the workload's operations until `--seconds`
have elapsed (at least one pass, two with tracing). Each operation is one
call into nulldist, timed alone; its output is then checked against an
oracle (first pass) or against the first pass's output (later passes).

`--trace 0` prints the end-to-end metrics: the median over passes of the
summed operation wall and CPU time, the peak RSS of the process, and the
set-up time (median over several fresh processes that start the
interpreter, import nulldist and generate the inputs). Times are scaled to
the host's nominal speed by the reference kernel in `hostspeed.py`, timed
between operations. `--trace 1` alternates untraced and traced passes and
prints the per-layer metrics, unscaled.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# the workloads measure one single-threaded process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append the result, with machine info, to this JSON-lines file")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def cpu_now() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def measure_setup(args) -> tuple[float, float, dict]:
    """Median time from starting a fresh process to its first timed call,
    the host-speed scale measured around those processes, and the kernel's
    parts."""
    import hostspeed

    speed = hostspeed.HostSpeed()
    samples = []
    for _ in range(SETUP_SAMPLES):
        speed.sample()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {err.strip()[-500:]}")
        samples.append(elapsed)
    speed.sample()
    return statistics.median(samples), speed.scale(), speed.parts()


def run_passes(ops, seconds: float, trace: bool):
    """Whole passes until `seconds` elapse. Returns per-pass records and the
    operation counts."""
    import hostspeed
    import tracing

    tracer = tracing.Tracer() if trace else None
    digests: dict[str, str] = {}
    attempted = failed = 0
    wrong: list[str] = []
    passes = []
    op_walls: dict[str, list] = {op.name: [] for op in ops}
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        wall = cpu = 0.0
        speed = hostspeed.HostSpeed()
        for op in ops:
            speed.sample()
            attempted += 1
            err = None
            result = None
            c0 = cpu_now()
            t0 = time.perf_counter()
            root = tracer.open(tracing.ROOT) if traced else None
            try:
                result = op.run()
            except Exception as exc:  # a failing call is a counted outcome
                err = f"{type(exc).__name__}: {exc}"
            finally:
                if traced:
                    tracer.close(root)
            t1 = time.perf_counter()
            c1 = cpu_now()
            wall += t1 - t0
            cpu += c1 - c0
            if not traced:
                op_walls[op.name].append(t1 - t0)
            if err is None:
                # an output the program itself flags is still checked and
                # compared between passes; the check then covers only what
                # holds whatever the program's verdict
                err = op.status(result)
                try:
                    dig = op.digest(result)
                    if op.name not in digests:
                        digests[op.name] = dig
                        op.check(result)
                    elif dig != digests[op.name]:
                        err = err or "output differs from the first pass"
                except Exception as exc:  # Wrong, or an output the check cannot read
                    wrong.append(f"{op.name}: {exc}")
                    print(f"WRONG {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            if err is not None:
                failed += 1
                print(f"FAILED {op.name} (pass {k}): {err}", file=sys.stderr)
        speed.sample()
        record = {"traced": traced, "wall": wall, "cpu": cpu,
                  "kernel": speed.kernel_s(), "scale": speed.scale(), "parts": speed.parts()}
        if traced:
            tracer.uninstall()
            record["durations"] = tracer.durations()
            record["wall"] = record["durations"].get(tracing.ROOT, 0.0)
            record["self"] = tracer.self_times()
            record["counters"] = dict(tracer.counters)
            t_first = tracer.spans[0][1] if tracer.spans else 0.0
            record["spans"] = [[name, round(a - t_first, 6), round(b - t_first, 6), parent]
                               for name, a, b, parent in tracer.spans]
        passes.append(record)
        k += 1
        if time.perf_counter() - start >= seconds and (not trace or k % 2 == 0):
            break
    for name, walls in op_walls.items():
        print(f"  {statistics.median(walls):9.4f} s  {name}", file=sys.stderr)
    print("  pass walls: " + " ".join(f"{p['wall']:.3f}" for p in passes), file=sys.stderr)
    print("  kernel ms:  " + " ".join(f"{1000 * p['kernel']:.2f}" for p in passes), file=sys.stderr)
    return passes, attempted, failed, wrong


def end_to_end(passes, setup) -> dict:
    """Times scaled to the host's nominal speed, pass by pass."""
    return {
        "wall_s": statistics.median(p["wall"] * p["scale"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] * p["scale"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup[0] * setup[1],
    }


def unscaled(passes, setup) -> dict:
    """The unscaled figures, with the kernel's parts per pass and over the
    set-up probes."""
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "setup_s": setup[0],
        "kernel_s": statistics.median(p["kernel"] for p in passes),
        "setup_parts": setup[2],
        "passes": [{k: p[k] for k in ("traced", "wall", "cpu", "parts")} for p in passes],
    }


def per_layer(passes, names) -> dict:
    """Per-layer metrics from the traced passes: self times and counts are
    means per pass, rates are totals over totals."""
    from tracing import ROOT as ROOT_SPAN

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    self_t, dur, cnt = {}, {}, {}
    for p in traced:
        for src, dst in ((p["self"], self_t), (p["durations"], dur), (p["counters"], cnt)):
            for key, val in src.items():
                dst[key] = dst.get(key, 0.0) + val

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    traced_wall = sum(p["wall"] for p in traced) / n
    untraced_wall = sum(p["wall"] for p in plain) / len(plain)
    special = {
        "bench.uncovered_s": self_t.get(ROOT_SPAN, 0.0) / n,
        "bench.ref_kernel_s": statistics.median(p["kernel"] for p in passes),
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "formats.csv_mb_per_s": rate(cnt.get("formats.csv_bytes", 0) / 1e6,
                                     dur.get("formats.write_long_matrix_csv", 0.0)),
        "cone.null_distance.entries_per_s": rate(cnt.get("cone.null_distance.entries", 0),
                                                 dur.get("cone.null_distance", 0.0)),
        "curvature.triangles_per_attempt": rate(cnt.get("curvature.triangles_found", 0),
                                                cnt.get("curvature.sampling_attempts", 0)),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith("_s"):
            out[name] = self_t.get(name[:-2], 0.0) / n
        else:
            out[name] = cnt.get(name, 0) / n
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import oracles
        import workloads
    except ImportError as exc:
        print(f"error: cannot import nulldist from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            work.mkdir(parents=True)
            workloads.build(args.workload, args.seed, work)
            print("ready", flush=True)
            return 0
        setup = measure_setup(args)
        work.mkdir(parents=True)
        ops = workloads.build(args.workload, args.seed, work)
        oracles.self_test()
        passes, attempted, failed, wrong = run_passes(ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = per_layer(passes, units) if args.trace else end_to_end(passes, setup)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    machine = machine_info()
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "passes": len(passes), "machine": machine, "result": result,
                  "unscaled": unscaled(passes, setup)}
        if args.trace:  # [name, start s, end s, parent index] of every span, per traced pass
            record["spans"] = [p["spans"] for p in passes if p["traced"]]
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes on {json.dumps(machine)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
