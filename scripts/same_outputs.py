#!/usr/bin/env python3
"""Check that the CLI writes the same bytes as at a git revision.

    python3 scripts/same_outputs.py REV

Runs a fixed matrix of ``swarmdoppler`` commands twice, each command in a
fresh interpreter: once on the package in this checkout's ``src/``, and once
on the package of ``git archive REV``, unpacked under a temporary directory.
Then it compares the two output trees and prints one line per file,
``identical`` or ``different`` (or ``only in ...``).  In a manifest the
``created_utc`` stamp is left out of the comparison.  Exit code 0 if every
file and every command's exit code agree, 1 if not.
"""
import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from swarmdoppler.cli import PRESETS

MAVIC_LIKE = PRESETS["mavic-like"]
# config documents the matrix reads, by the name its arguments use in braces
CONFIGS = {
    # deterministic rotor speed: the spectrum is the line spectrum
    "zero": {**MAVIC_LIKE, "speed_variance": 0.0},
    # every grid and estimator key given (the step is below the Nyquist bound)
    "explicit": {**MAVIC_LIKE, "grid": {"t_start_s": 0.25, "dt_s": 5e-5, "n_samples": 2048},
                 "estimator": {"n_realizations": 300, "seed": 77}},
    # a start time alone: the step is the default one
    "late": {**MAVIC_LIKE, "grid": {"t_start_s": 2.5}},
    # a start where absolute sample times would round by up to 6e-5 s, a
    # phase of 2.9 rad at the band edge: the kernel's times run from it
    "late12": {**MAVIC_LIKE, "grid": {"t_start_s": 1e12}},
    # a start whose product with every rotor speed overflows float64: the
    # turn over it is reduced exactly in scaled steps
    "late306": {**MAVIC_LIKE, "grid": {"t_start_s": 1e306}},
    # mean/std = 11.7: every pair's mirror Gaussians overlap around DC
    "wide": {**MAVIC_LIKE, "speed_variance": 2000.0},
    # kernel std 2.83*n rad/s on validate's bins of 11.7 rad/s: the first 8
    # of 64 kernels are narrower than two bins
    "narrow": {**MAVIC_LIKE, "speed_variance": 2.0},
    # blade/wavelength 148.5, near the top of the Bessel envelope
    "ratio148": {**MAVIC_LIKE, "blade_length_m": 4.455},
    # blade/wavelength 2: a short series whose density falls below 2**-35
    # of its peak on ~28% of the support, where psd_eval sums again from zero
    "ratio2": {**MAVIC_LIKE, "blade_length_m": 0.06},
    # the synthesis kernel's other branches: one blade, an odd count past
    # one, and a second blade pair
    "blades1": {**MAVIC_LIKE, "n_blades": 1},
    "blades3": {**MAVIC_LIKE, "n_blades": 3},
    "blades4": {**MAVIC_LIKE, "n_blades": 4},
    # the deterministic form's 15 blade offsets, at zero spread
    "zero8": {**MAVIC_LIKE, "n_blades": 8, "speed_variance": 0.0},
    # one blade at blade/wavelength 7.8, where the power past the paper's
    # cutoff plus 20 orders is largest
    "blade1ratio78": {**MAVIC_LIKE, "n_blades": 1, "blade_length_m": 0.234},
    "blade1ratio78zero": {**MAVIC_LIKE, "n_blades": 1, "blade_length_m": 0.234,
                          "speed_variance": 0.0},
    # mod_index on the 28th zero of J_0, 87.18062984364116
    # (scipy.special.jn_zeros(0, 28)[-1]), next to mavic-like's 87.96: the
    # floor j0_squared is 2e-31, so the damped series' own bits reach the
    # acf file
    "j0zero": {**MAVIC_LIKE, "blade_length_m": 0.20812842272220453},
}
SEED = ["--seed", "20240"]
MAVIC = ["--preset", "mavic-like"]
ZERO = ["--config", "{zero}"]
EXPLICIT = ["--config", "{explicit}"]
PAIR = ["--workers", "2", *SEED]
MATRIX = {
    "acf-csv": ["acf", *MAVIC],
    "acf-json": ["acf", *MAVIC, "--format", "json"],
    "acf-deterministic": ["acf", *MAVIC, "--deterministic"],
    "psd-csv": ["psd", *MAVIC],
    "psd-json": ["psd", *MAVIC, "--format", "json"],
    "psd-hz": ["psd", *MAVIC, "--hz"],
    "psd-zero-variance-csv": ["psd", *ZERO],
    "psd-zero-variance-json": ["psd", *ZERO, "--format", "json"],
    "coeffs": ["coeffs", *MAVIC],
    "validate-1-worker": ["validate", *MAVIC, "--n", "2000", "--workers", "1", *SEED],
    "validate-2-workers": ["validate", *MAVIC, "--n", "2000", "--workers", "2", *SEED],
    # five 8-row blocks and a partial one of 5 rows
    "validate-partial-block": ["validate", *MAVIC, "--n", "45", *PAIR],
    "simulate-spectrogram": ["simulate", *MAVIC, "--n", "64", "--spectrogram", *SEED],
    "simulate-complex128-2-workers": ["simulate", *MAVIC, "--n", "64", "--dtype", "complex128",
                                      "--workers", "2", "--spectrogram", *SEED],
    "acf-explicit-grid": ["acf", *EXPLICIT],
    "validate-explicit-grid": ["validate", *EXPLICIT, "--n", "200"],
    "simulate-late-start": ["simulate", "--config", "{late}", "--n", "5"],
    # spectrogram frame times run from a non-zero grid start
    "simulate-late-spectrogram": ["simulate", "--config", "{late}", "--n", "5", "--spectrogram"],
    "validate-late-start": ["validate", "--config", "{late12}", "--n", "2000", *PAIR],
    "validate-overflow-start": ["validate", "--config", "{late306}", "--n", "2000",
                                "--workers", "2", "--seed", "5"],
    "validate-zero-variance": ["validate", *ZERO, "--n", "200"],
    "validate-narrow-kernels": ["validate", "--config", "{narrow}", "--n", "2000", *PAIR],
    "psd-wide-spread": ["psd", "--config", "{wide}"],
    "acf-ratio-148": ["acf", "--config", "{ratio148}"],
    "psd-ratio-148": ["psd", "--config", "{ratio148}"],
    # out to 1 s ~40% of the lags have damped to ~0, where acf_eval sums
    # again from zero
    "acf-long-lags": ["acf", *MAVIC, "--tau-max", "1", "--points", "20001"],
    "acf-long-lags-j0-zero": ["acf", "--config", "{j0zero}", "--tau-max", "1",
                              "--points", "20001"],
    "psd-small-ratio": ["psd", "--config", "{ratio2}"],
    "simulate-1-blade": ["simulate", "--config", "{blades1}", "--n", "64", *PAIR],
    "simulate-3-blades": ["simulate", "--config", "{blades3}", "--n", "64", *PAIR],
    "simulate-4-blades": ["simulate", "--config", "{blades4}", "--n", "64", *PAIR],
    "validate-1-blade": ["validate", "--config", "{blades1}", "--n", "2000", *PAIR],
    "validate-3-blades": ["validate", "--config", "{blades3}", "--n", "2000", *PAIR],
    "validate-4-blades": ["validate", "--config", "{blades4}", "--n", "2000", *PAIR],
    # the deterministic form with several blade offsets, and over more than
    # one of its lag tiles
    "acf-4-blades-deterministic": ["acf", "--config", "{blades4}", "--deterministic"],
    "acf-8-blades-zero-variance": ["acf", "--config", "{zero8}", "--points", "20001"],
    "acf-1-blade-ratio-7.8": ["acf", "--config", "{blade1ratio78}"],
    "psd-1-blade-ratio-7.8": ["psd", "--config", "{blade1ratio78}"],
    "psd-1-blade-ratio-7.8-zero-variance": ["psd", "--config", "{blade1ratio78zero}"],
}


def run_matrix(src: Path, out: Path, configs: dict) -> dict:
    """Run every command of MATRIX on the package in ``src``, writing
    ``out/<name>``; ``configs`` maps each name of CONFIGS to its file.
    Returns each command's exit code."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    codes = {}
    for name, argv in MATRIX.items():
        argv = [arg.format(**configs) for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "swarmdoppler.cli", *argv, "--out", str(out / name)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        codes[name] = proc.returncode
        if proc.stderr:
            print(f"{out.name} {name}: {proc.stderr.strip()}", file=sys.stderr)
    return codes


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "manifest.json":
        return data
    manifest = json.loads(data)
    manifest.pop("created_utc", None)
    return json.dumps(manifest, sort_keys=True).encode("utf-8")


def compare_trees(ours: Path, theirs: Path) -> list:
    """``(relative path, verdict)`` for every file under either tree, sorted;
    the verdict is ``identical``, ``different``, ``only in ours`` or
    ``only in theirs``."""
    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    mine, other = files(ours), files(theirs)
    verdicts = []
    for rel in sorted(mine | other):
        if rel not in other:
            verdicts.append((rel, "only in ours"))
        elif rel not in mine:
            verdicts.append((rel, "only in theirs"))
        else:
            same = _comparable(ours / rel) == _comparable(theirs / rel)
            verdicts.append((rel, "identical" if same else "different"))
    return verdicts


def export(rev: str, dest: Path) -> Path:
    """Unpack ``git archive rev`` into ``dest``; returns its ``src``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tmp = Path(tmp)
        configs = {name: tmp / f"{name}.json" for name in CONFIGS}
        for name, path in configs.items():
            path.write_text(json.dumps(CONFIGS[name]), encoding="utf-8")
        theirs_src = export(args.rev, tmp / "rev")
        ours_codes = run_matrix(ROOT / "src", tmp / "ours", configs)
        theirs_codes = run_matrix(theirs_src, tmp / "theirs", configs)
        verdicts = compare_trees(tmp / "ours", tmp / "theirs")
    for name in MATRIX:
        agree = "same" if ours_codes[name] == theirs_codes[name] else "DIFFERENT"
        print(f"exit {ours_codes[name]} / {theirs_codes[name]} {agree}: {name}")
    for rel, verdict in verdicts:
        print(f"{verdict}: {rel}")
    same = ours_codes == theirs_codes and all(v == "identical" for _, v in verdicts)
    print(f"{len(verdicts)} files, all identical" if same else "outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(run())
