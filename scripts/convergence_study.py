#!/usr/bin/env python3
"""Monte Carlo convergence of the autocorrelation estimate.

Generates one large ensemble for the mavic-like preset and measures the
normalised RMS error of the single-reference estimator against the closed
form as the realization count grows, confirming the expected inverse
square-root trend.  Writes a CSV table and an SVG plot.
"""
import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import swarmdoppler as sd
from swarmdoppler.cli import PRESETS
from swarmdoppler.svgplot import line_svg
from swarmdoppler.validation import acf_window, compare_acf


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/convergence")
    parser.add_argument("--n-max", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=8644)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    config = sd.load_config(json.dumps(PRESETS["mavic-like"]))
    params, grid = config.params, config.grid
    n_window = acf_window(params, grid)

    print(f"generating {args.n_max} realizations ...", flush=True)
    ensemble = sd.simulate_ensemble(params, grid, args.n_max, args.seed)

    counts, errors = [], []
    n = 100
    while n <= args.n_max:
        subset = sd.Ensemble(params=params, grid=grid, master_seed=args.seed,
                             signals=ensemble.signals[:n])
        estimate = sd.estimate_acf(subset, n_lags=n_window)
        err = compare_acf(params, grid, estimate).nrmse
        counts.append(n)
        errors.append(err)
        print(f"N={n:>6d}  nrmse={err:.4f}")
        n *= 2

    table = out / "convergence.csv"
    lines = ["n_realizations,nrmse"] + [f"{c},{e!r}" for c, e in zip(counts, errors)]
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    guide = [errors[0] * math.sqrt(counts[0] / c) for c in counts]
    line_svg([(np.log10(counts), np.log10(errors), "measured"),
              (np.log10(counts), np.log10(guide), "inverse square root")],
             title="estimator convergence",
             xlabel="log10 realization count", ylabel="log10 nrmse",
             path=out / "convergence.svg")
    print(f"wrote {table}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
