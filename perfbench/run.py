"""swarmdoppler benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload validate-mavic --seed 1 --seconds 50 --trace 0

Workloads (see workloads.py): validate-mavic, analytic-sweep, swarm-simulate.
Every sample runs in a fresh interpreter started by this script (job.py):
jobs back to back, each started while the run is shorter than ``--seconds``
(at least one job, so the last one may end up to a job late), and
SETUP_RUNS set-up-only processes spread over the run.  This is a closed
loop with a single client; the only concurrency is the ensemble pool inside
a job, with one worker per CPU this process may run on.

With ``--trace 0`` it reports the end-to-end metrics, each the median over
the run's samples.  With ``--trace 1`` every untraced job is followed by a
traced one and it reports the per-layer metrics of the traced jobs, plus
the tracing overhead.  Either way the outputs of every job are checked, a
table and the environment go to standard output, a full record goes to
perfbench/.work/results/, and the last line is the JSON result.

The harness measures only the processes it starts and changes no machine
setting: no CPU governor, affinity, cache, huge-page or BLAS-thread change.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import shutil
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKLOADS = ("validate-mavic", "analytic-sweep", "swarm-simulate")
SETUP_RUNS = 11
JOB_TIMEOUT_S = 170.0
# name, unit; every one is a median over the run's samples
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("points_per_s", "1/s"),
              ("peak_rss_mb", "MB"))


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100.0))
    return p, sorted(values)[rank - 1]


def spawn(workload: str, seed: int, mode: str, trace: int, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace),
           "--out", str(out), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process timed out after {JOB_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"{mode} process exited {proc.returncode}: "
                         + proc.stderr.strip()[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _openblas_threads():
    for path in _mapped_libraries():
        if "openblas" not in path.lower():
            continue
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _mapped_libraries():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            return sorted({line.split()[-1] for line in fh if ".so" in line})
    except OSError:
        return []


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return caches


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _openblas_threads(),
        "limits": "measures only the processes it starts; changes no machine "
                  "setting (governor, affinity, caches, huge pages, BLAS threads)",
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run_dir = WORK / "runs" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setups, jobs, traced = [], [], []
    start = time.monotonic()

    def setup():
        setups.append(spawn(workload, seed, "setup", 0, run_dir / f"setup{len(setups)}"))

    # set-up time drifts on a scale of seconds, so its samples are spread
    # over the run: some before, one after each job, the rest at the end
    for _ in range(SETUP_RUNS // 2):
        setup()
    # a validate-mavic job takes ~20 s: starting jobs until the budget is
    # spent, rather than stopping before one that would overrun it, gives
    # that workload three samples in a 50 s run instead of two
    while not jobs or time.monotonic() - start < seconds:
        jobs.append(spawn(workload, seed, "job", 0, run_dir / f"job{len(jobs)}"))
        if trace:
            traced.append(spawn(workload, seed, "job", 1, run_dir / f"traced{len(traced)}"))
        setup()
    while len(setups) < SETUP_RUNS:
        setup()
    # job.py removes its outputs; a crashed job may leave them behind
    for leftover in run_dir.iterdir():
        if leftover.is_dir():
            shutil.rmtree(leftover, ignore_errors=True)
    if not any(run_dir.iterdir()):
        run_dir.rmdir()
    return {"setups": setups, "jobs": jobs, "traced": traced}


def summarize(samples: dict, trace: int) -> tuple[dict, dict]:
    """Result line and full record from the samples of one run."""
    every = samples["setups"] + samples["jobs"] + samples["traced"]
    # a process that crashed counts as one failed operation
    errors = [s["error"] for s in every if "error" in s]
    done = [s for s in samples["jobs"] + samples["traced"] if "error" not in s]
    checks = [c for s in done for c in s["checks"]]
    attempted = len(checks) + len(errors)
    failed = sum(1 for c in checks if not c["ok"]) + len(errors)
    jobs = [s for s in samples["jobs"] if "error" not in s]
    series = {
        "setup_s": [s["setup_s"] for s in samples["setups"] if "error" not in s],
        "wall_s": [s["wall_s"] for s in jobs],
        "points_per_s": [s["points"] / s["wall_s"] for s in jobs],
        "peak_rss_mb": [s["peak_rss_mb"] for s in jobs],
        "realizations_per_s": [s["realizations"] / s["wall_s"] for s in jobs
                               if s["realizations"]],
    }
    metrics = {}
    if trace:
        traced = [s for s in samples["traced"] if "error" not in s]
        for name, unit, _, _ in LAYER_METRICS:
            values = [s["layers"][name] for s in traced if name in s["layers"]]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        if traced and jobs:
            overhead = (statistics.median(s["wall_s"] for s in traced)
                        - statistics.median(series["wall_s"]))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        for name, unit in END_TO_END:
            if series[name]:
                metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"series": series, "checks": checks, "errors": errors,
              "findings": sorted({f for s in done for f in s["findings"]})}
    return result, record


def print_table(workload, seed, seconds, trace, result, record) -> None:
    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    units = dict(END_TO_END, realizations_per_s="1/s")
    for name, values in record["series"].items():
        if not values:
            continue
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]} {tail[1]:.6g}" if tail
                     else "tail n/a (needs >= 11 samples)")
        print(f"  {name:<20} median {statistics.median(values):<12.6g} {units[name]:<4} "
              f"n={len(values):<3} {tail_text}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<20} {rate:g} ({result['failed']} failed / "
          f"{result['attempted']} checks)")
    if trace:
        moves = {name: text for name, _, _, text in LAYER_METRICS}
        for name, value in result["metrics"].items():
            print(f"  {name:<46} {value['value']:<12.6g} {value['unit']:<6} "
                  f"moves: {moves[name]}")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"  FAILED check: {check['name']} {check['detail']}")
    for error in record["errors"]:
        print(f"  ERROR: {error}")
    for finding in record["findings"]:
        print(f"  finding (not counted): {finding}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swarmdoppler" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    samples = run(args.workload, args.seed, args.seconds, args.trace)
    result, record = summarize(samples, args.trace)
    env = environment()
    print_table(args.workload, args.seed, args.seconds, args.trace, result, record)
    print("env " + json.dumps(env, sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record.update(env=env, result=result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
