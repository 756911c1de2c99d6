"""The benchmark's workloads: inputs made from a seed, the timed job, the checks.

Each workload is one job that runs to completion in a fresh process, driven
through the public API and the CLI.  The job is timed; the checks run after
it, outside the timed region, and each check counts as one operation
attempted.  Function lookups go through the module attributes (``sd.x``,
``cli.main``) at call time, so a traced run sees the wrapped functions.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

import swarmdoppler as sd
from swarmdoppler import cli
from swarmdoppler.special import MAX_ABS_ARG

CURVE_POINTS = 20_001
# blade/wavelength ratios of the sweep: from a small rotor to the series'
# Bessel envelope (the series form refuses above ~159)
SWEEP_RATIOS = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 79.0, 150.0)
# acf_deterministic_eval takes J_0 of the full electrical size 8*pi*ratio,
# which leaves the Bessel envelope |x| <= MAX_ABS_ARG above a ratio of ~79.6
DETERMINISTIC_RATIO_MAX = MAX_ABS_ARG / (8.0 * math.pi)
CONSISTENCY_MAX = 1e-6
IDENTITY_MAX = 1e-10
EVENNESS_STRIDE = 10

VALIDATE_N = 10_000
SWARM_N = 64
SWARM_SAMPLES = 16_001


def n_workers() -> int:
    return len(os.sched_getaffinity(0))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check(name: str, ok, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


class ValidateMavic:
    """``swarmdoppler validate --preset mavic-like`` at a passing realization count."""

    name = "validate-mavic"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.n_samples = sd.load_config(self.config_text()).grid.n_samples

    def config_text(self) -> str:
        return json.dumps(cli.PRESETS["mavic-like"])

    def run(self, out: Path) -> dict:
        rc = cli.main(["validate", "--preset", "mavic-like", "--n", str(VALIDATE_N),
                       "--workers", str(n_workers()), "--seed", str(self.seed),
                       "--out", str(out)])
        return {"rc": rc, "realizations": VALIDATE_N, "points": VALIDATE_N * self.n_samples}

    def check(self, out: Path, result: dict) -> list:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return [
            _check("exit code 0", result["rc"] == 0, f"rc={result['rc']}"),
            _check("report overall_pass", report["overall_pass"] is True,
                   f"acf nrmse {report['acf']['nrmse']:.4f}, "
                   f"psd nrmse {report['psd']['nrmse']:.4f}"),
            _check("report provenance",
                   report["n_realizations"] == VALIDATE_N
                   and report["master_seed"] == self.seed),
        ]

    def findings(self) -> list:
        return []


class AnalyticSweep:
    """Closed forms only, across blade/wavelength ratios from ~2 to ~150."""

    name = "analytic-sweep"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        # shrink-only jitter keeps every ratio inside its envelope
        self.ratios = [r * float(rng.uniform(0.98, 1.0)) for r in SWEEP_RATIOS]
        self.mean_speed = float(rng.uniform(480.0, 560.0))
        self.speed_variance = float(rng.uniform(15.0, 40.0))

    def params(self, ratio: float, spread: bool = True) -> sd.SwarmParams:
        return sd.SwarmParams(n_drones=1, n_rotors=4, n_blades=2,
                              blade_length=0.03 * ratio, wavelength=0.03,
                              mean_speed=self.mean_speed,
                              speed_variance=self.speed_variance if spread else 0.0)

    def config_text(self) -> str:
        p = self.params(self.ratios[-1])
        return json.dumps({"n_drones": p.n_drones, "n_rotors": p.n_rotors,
                           "n_blades": p.n_blades, "blade_length_m": p.blade_length,
                           "wavelength_m": p.wavelength,
                           "mean_speed_rad_s": p.mean_speed,
                           "speed_variance": p.speed_variance})

    def run(self, out: Path) -> dict:
        taus = np.linspace(0.0, 4.0 * np.pi / self.mean_speed, CURVE_POINTS)
        steps = []
        points = 0
        for ratio in self.ratios:
            p = self.params(ratio)
            acf = sd.build_acf(p)
            acf_values = sd.acf_eval(acf, taus)
            psd = sd.build_psd(p)
            freqs = np.linspace(*sd.psd_support(p), CURVE_POINTS)
            psd_values = sd.psd_eval(psd, freqs)
            points += acf_values.size + psd_values.size
            step = {"ratio": ratio, "acf": acf, "psd": psd, "freqs": freqs,
                    "psd_values": psd_values}
            p0 = self.params(ratio, spread=False)
            if ratio <= DETERMINISTIC_RATIO_MAX:
                acf0 = sd.build_acf(p0)
                step["series0"] = sd.acf_eval(acf0, taus)
                step["exact0"] = sd.acf_deterministic_eval(p0, taus)
                step["acf0"] = acf0
                points += 2 * CURVE_POINTS
            step["lines"] = sd.psd_line_spectrum(p0)
            size = sd.derive(p).electrical_size
            step["fractions"] = [
                sd.coefficient_power_fraction(size, p.n_blades, q, order=order)
                for q in cli.POWER_FRACTIONS for order in ("magnitude", "index")]
            steps.append(step)
        return {"steps": steps, "points": points, "realizations": 0}

    def check(self, out: Path, result: dict) -> list:
        checks = []
        for step in result["steps"]:
            ratio = step["ratio"]
            if "exact0" in step:
                scale = abs(sd.acf_eval(step["acf0"], 0.0))
                err = float(np.max(np.abs(step["series0"] - step["exact0"]))) / scale
                checks.append(_check(f"ratio {ratio:.2f}: series vs exact at zero spread",
                                     err <= CONSISTENCY_MAX, f"max rel err {err:.2e}"))
            sub = step["freqs"][::EVENNESS_STRIDE]
            mirrored = sd.psd_eval(step["psd"], -sub)
            checks.append(_check(f"ratio {ratio:.2f}: psd_eval exactly even",
                                 np.array_equal(mirrored,
                                                step["psd_values"][::EVENNESS_STRIDE])))
            acf = step["acf"]
            orders = acf.params.n_blades * acf.n_terms
            squares = sd.harmonic_coefficients(acf.derived.electrical_size, 1, orders)
            gap = 1.0 - (acf.j0_squared + 2.0 * float(np.sum(squares)))
            checks.append(_check(f"ratio {ratio:.2f}: J_0^2 + 2 sum J_k^2 = 1 to the tail",
                                 abs(gap) <= IDENTITY_MAX, f"1 - sum = {gap:.2e}"))
        return checks

    def findings(self) -> list:
        """Known envelope gaps, probed and reported, never counted as failures."""
        p0 = self.params(self.ratios[-1], spread=False)
        try:
            sd.acf_deterministic_eval(p0, np.array([0.0, 1e-4]))
            refused = "accepted"
        except sd.DomainError:
            refused = "refused with DomainError"
        return [f"acf_deterministic_eval at blade/wavelength {self.ratios[-1]:.1f}: "
                f"{refused} (J_0 argument is the full electrical size; envelope "
                f"ends at ratio {DETERMINISTIC_RATIO_MAX:.1f}, the series form at ~159)"]


class SwarmSimulate:
    """``swarmdoppler simulate --spectrogram`` on a large swarm, then load it back."""

    name = "swarm-simulate"

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.doc = {
            "n_drones": 8, "n_rotors": 4, "n_blades": 3,
            "blade_length_m": 0.12 * float(rng.uniform(0.95, 1.05)),
            "wavelength_m": 0.03,
            "mean_speed_rad_s": float(rng.uniform(560.0, 640.0)),
            "speed_variance": float(rng.uniform(20.0, 60.0)),
            "grid": {"n_samples": SWARM_SAMPLES},
            "estimator": {"n_realizations": SWARM_N, "seed": seed},
        }
        self.probe = int(rng.integers(1, SWARM_N - 1))

    def config_text(self) -> str:
        return json.dumps(self.doc)

    def run(self, out: Path) -> dict:
        out.mkdir(parents=True, exist_ok=True)
        config = out / "swarm.json"
        config.write_text(self.config_text(), encoding="utf-8")
        rc = cli.main(["simulate", "--config", str(config), "--workers", str(n_workers()),
                       "--spectrogram", "--out", str(out)])
        ensemble = sd.load_ensemble(out / "ensemble.bin")
        return {"rc": rc, "ensemble": ensemble, "realizations": SWARM_N,
                "points": SWARM_N * SWARM_SAMPLES}

    def check(self, out: Path, result: dict) -> list:
        ensemble = result["ensemble"]
        path = out / "ensemble.bin"
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        digests = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        rewritten = out / "rewritten.bin"
        sd.save_ensemble(rewritten, ensemble)
        checks = [
            _check("exit code 0", result["rc"] == 0, f"rc={result['rc']}"),
            _check("manifest digest of the container", digests.get("ensemble.bin")
                   == _sha256(path)),
            _check("loaded container rewrites bit-identically",
                   rewritten.read_bytes() == path.read_bytes()),
            _check("container shape and seed",
                   ensemble.signals.shape == (SWARM_N, SWARM_SAMPLES)
                   and ensemble.master_seed == self.seed),
        ]
        config = sd.load_config(self.config_text())
        for k in (0, self.probe, SWARM_N - 1):
            state = sd.sample_state(config.params, sd.realization_rng(self.seed, k))
            alone = sd.synthesize(state, config.params, config.grid)
            checks.append(_check(
                f"realization {k} recomputed alone equals row {k}",
                np.array_equal(alone.astype(ensemble.signals.dtype), ensemble.signals[k])))
        return checks

    def findings(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (ValidateMavic, AnalyticSweep, SwarmSimulate)}


def setup(workload) -> None:
    """The fixed cost every run pays after the imports: config, grid, closed forms."""
    config = sd.load_config(workload.config_text())
    sd.default_grid(config.params, n_samples=config.grid.n_samples)
    sd.build_acf(config.params)
    if config.params.speed_variance > 0.0:
        sd.build_psd(config.params)
