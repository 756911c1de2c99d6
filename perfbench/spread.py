"""Run the benchmark over several seeds and report run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--seconds 20]
        [--out perfbench/baseline-run.json]

For every end-to-end metric of every workload it prints the median of the
per-run values, their quartiles as ``statistics.quantiles(values, n=4)``
gives them, the spread (Q3 - Q1) / median, and that spread as a share of
the metric's bound in BENCHMARK.json.  The per-job samples of all runs are
pooled for the highest percentile that has ten samples beyond it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORK, WORKLOADS, tail_percentile


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds_arg, required=True)
    parser.add_argument("--workloads", default=None,
                        help=f"comma-separated, from {', '.join(WORKLOADS)}; "
                             "default: those in BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    per_run = {w: {} for w in workloads}
    pooled = {w: {} for w in workloads}
    failures = []
    env = None
    for seed in args.seeds:
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                failures.append((w, seed, result))
            for name, metric in result["metrics"].items():
                per_run[w].setdefault(name, []).append(metric["value"])
            record = json.loads((WORK / "results" / f"{w}-seed{seed}-trace0.json")
                                .read_text(encoding="utf-8"))
            env = record["env"]
            for name, values in record["series"].items():
                pooled[w].setdefault(name, []).extend(values)
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {"seconds": seconds, "seeds": args.seeds, "env": env, "workloads": {}}
    for w in workloads:
        print(f"\n{w}")
        rows = {}
        for name, values in per_run[w].items():
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            samples = pooled[w].get(name, [])
            tail = tail_percentile(samples)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "runs": len(values), "pooled_samples": len(samples),
                          "tail": {"percentile": tail[0], "value": tail[1]} if tail else None}
            print(f"  {name:<14} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} = {spread / bounds[name]:.2f} of bound "
                  f"(runs {len(values)}, job samples {len(samples)}"
                  + (f", p{tail[0]} {tail[1]:.6g})" if tail else ")"))
        extra = pooled[w].get("realizations_per_s")
        if extra:
            rows["realizations_per_s"] = {"median_of_jobs": statistics.median(extra),
                                          "pooled_samples": len(extra)}
        summary["workloads"][w] = rows
    for w, seed, result in failures:
        print(f"FAILED: {w} seed {seed}: {result['failed']}/{result['attempted']}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
