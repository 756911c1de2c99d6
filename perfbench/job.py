"""One benchmark process: set up, then optionally run, check and report one job.

``run.py`` starts this file in a fresh interpreter for every sample, so the
imports count toward set-up time and ``ru_maxrss`` belongs to one job alone:

    python3 perfbench/job.py --workload W --seed N --mode setup|job \
        --trace 0|1 --out DIR --t0 T

``--t0`` is the parent's ``time.monotonic()`` just before the start of this
process (the clock is system-wide).  The last line of standard output is one
JSON record.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "job"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = patched = None
    if args.trace:
        tracer = spans.Tracer(run_id=f"{args.workload}-seed{args.seed}-{args.out.name}")
        patched = spans.instrument(tracer)
    workloads.setup(workload)
    record = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "job":
        out = args.out
        start = time.perf_counter()
        if tracer:
            result = tracer.root(lambda: workload.run(out))
        else:
            result = workload.run(out)
        record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            spans.restore(patched)
            record["layers"] = spans.layer_metrics(tracer.spans)
            tracer.write(out.parent / f"spans-{out.name}.jsonl")
        record["points"] = result["points"]
        record["realizations"] = result["realizations"]
        record["checks"] = workload.check(out, result)
        record["findings"] = workload.findings()
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
