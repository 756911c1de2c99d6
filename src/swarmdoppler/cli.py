"""Command-line front end: analytic curves, simulation, validation, studies.

Every command writes its data files plus a JSON manifest listing the
resolved configuration, seed, tool version and the SHA-256 digest of each
output, so a run can be repeated bit-identically from the manifest alone.
A command builds every output in memory, then writes them all, the manifest
last, in one step that is all or none: each file goes to a temporary file
beside its target, and only once every one is written are they moved onto
their names.  A command that fails, in the model or while writing, leaves
no new file in the output directory and every old one as it was.
Exit codes: 0 success, 2 configuration or usage error, 3 I/O or
out-of-memory error, 4 validation-threshold failure.
"""
from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._atomic import write_files
from .analytic import (CONVENTION_CONSTANT, build_acf, build_psd, acf_eval,
                       acf_deterministic_eval, coefficient_power_fraction,
                       harmonic_coefficients, mainlobe_width, psd_eval,
                       psd_line_spectrum, psd_support, truncation_index)
from .exceptions import ConfigError, SwarmModelError
from .model import (Curve, EstimatorSettings, RunConfig, curve_to_csv, curve_to_json,
                    derive, load_config, serialize_config)
from .simulate import StftConfig, container_chunks, simulate_ensemble, spectrogram
from .svgplot import heatmap_svg, line_svg
from .validation import validate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_THRESHOLD = 4

POWER_FRACTIONS = (0.5, 0.9, 0.95, 0.99)

# co-sized with a small commercial quadcopter; grid and estimator defaults
# are declared choices of this tool
PRESETS = {
    "mavic-like": {
        "n_drones": 1,
        "n_rotors": 4,
        "n_blades": 2,
        "blade_length_m": 0.21,
        "wavelength_m": 0.03,
        "mean_speed_rad_s": 523.0,
        "speed_variance": 27.0,
        "gain_magnitude": 1.0,
    },
}


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc) \
        .replace(microsecond=0).isoformat().replace("+00:00", "Z")


def _resolve_config(args) -> RunConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"config not found: {args.config}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config} is not UTF-8 text: {exc}") from None
        config = load_config(text)
    else:
        config = load_config(json.dumps(PRESETS[args.preset]))
    seed = getattr(args, "seed", None)
    if seed is not None:
        config = RunConfig(params=config.params, grid=config.grid,
                           estimator=EstimatorSettings(
                               n_realizations=config.estimator.n_realizations,
                               seed=seed))
    return config


# namespace entries that are not recorded as the command's arguments: the
# configuration source and seed are in the manifest's config, the output
# directory is where the manifest sits
_UNRECORDED = frozenset({"command", "func", "config", "preset", "out", "seed"})


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _table_text(header: str, columns) -> str:
    rows = zip(*columns)
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _curve_file(stem: str, curve: Curve, fmt: str) -> tuple[str, str]:
    if fmt == "json":
        return f"{stem}.json", curve_to_json(curve) + "\n"
    return f"{stem}.csv", curve_to_csv(curve)


def _write_outputs(args, config: RunConfig, files: dict, extra: dict) -> None:
    """Write ``files`` ({name: text or bytes chunks}) and their manifest into
    ``--out``, all or none."""
    files = {name: [data.encode("utf-8")] if isinstance(data, str) else data
             for name, data in files.items()}
    outputs = []
    for name in sorted(files):
        digest = hashlib.sha256()
        for chunk in files[name]:
            digest.update(chunk)
        outputs.append({"path": name, "sha256": digest.hexdigest()})
    manifest = {
        "tool": "swarmdoppler",
        "version": __version__,
        "command": args.command,
        "arguments": {k: v for k, v in vars(args).items() if k not in _UNRECORDED},
        "config": json.loads(serialize_config(config)),
        "created_utc": _utc_now(),
        "outputs": outputs,
    }
    manifest.update(extra)
    files["manifest.json"] = [_json_text(manifest).encode("utf-8")]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_files(out_dir, files)


def cmd_acf(args) -> int:
    config = _resolve_config(args)
    params = config.params
    tau_max = config.grid.span if args.tau_max is None else args.tau_max
    taus = np.array([0.0]) if tau_max == 0.0 else np.linspace(0.0, tau_max, args.points)
    acf = build_acf(params)
    width = mainlobe_width(params)
    meta = {"kind": "acf_series", "n_terms": acf.n_terms,
            "mainlobe_width_s": width}
    curves = {"acf": ("series", Curve(axis="lag_s", x=taus, y=acf_eval(acf, taus),
                                      meta=meta))}
    if params.speed_variance == 0.0 or args.deterministic:
        curves["acf_deterministic"] = (
            "deterministic speed",
            Curve(axis="lag_s", x=taus, y=acf_deterministic_eval(params, taus),
                  meta={"kind": "acf_deterministic"}))
    files = dict(_curve_file(stem, curve, args.format)
                 for stem, (_, curve) in curves.items())
    vlines = [(width, "main lobe width")] if 0 < width <= (tau_max or width) else []
    files["acf.svg"] = line_svg(
        [(curve.x, np.real(curve.y), label) for label, curve in curves.values()],
        title="return autocorrelation", xlabel="lag (s)",
        ylabel="autocorrelation", vlines=vlines)
    _write_outputs(args, config, files, {"mainlobe_width_s": width})
    return EXIT_OK


def cmd_psd(args) -> int:
    config = _resolve_config(args)
    params = config.params
    lo, hi = psd_support(params)
    extra = {"support_rad_s": [lo, hi]}
    line_spectrum = params.speed_variance == 0.0
    if line_spectrum:
        spectrum = psd_line_spectrum(params)
        curve = Curve(axis="angular_frequency_rad_per_s",
                      x=[ln.frequency for ln in spectrum],
                      y=[ln.weight for ln in spectrum],
                      meta={"kind": "psd_line_spectrum"})
        extra.update(line_count=len(spectrum),
                     line_spacing_rad_s=params.n_blades * params.mean_speed)
    else:
        psd = build_psd(params)
        freqs = np.linspace(lo, hi, args.points)
        curve = Curve(axis="angular_frequency_rad_per_s", x=freqs,
                      y=psd_eval(psd, freqs),
                      meta={"kind": "psd_mixture",
                            "dc_dirac_weight": psd.dc_weight,
                            "convention_constant": CONVENTION_CONSTANT})
        extra.update(dc_dirac_weight=psd.dc_weight,
                     convention_constant=CONVENTION_CONSTANT)
    edges = np.array([lo, hi])
    if args.hz:
        curve = Curve(axis="frequency_hz", x=curve.x / (2.0 * np.pi), y=curve.y,
                      meta=curve.meta)
        edges = edges / (2.0 * np.pi)
    vlines = [(edges[0], "support"), (edges[1], "")]
    if line_spectrum:
        if args.format == "json":
            name, table = _curve_file("psd_lines", curve, "json")
        else:
            name, table = "psd_lines.csv", _table_text(f"{curve.axis},weight",
                                                       (curve.x, curve.y))
        svg = line_svg([], stems=list(zip(curve.x, curve.y)), vlines=vlines,
                       title="line spectrum (deterministic rotor speed)",
                       xlabel=curve.axis, ylabel="line power")
    else:
        name, table = _curve_file("psd", curve, args.format)
        svg = line_svg([(curve.x, np.real(curve.y), "mixture density")], vlines=vlines,
                       title="return power spectral density (continuous part)",
                       xlabel=curve.axis, ylabel="density")
    _write_outputs(args, config, {name: table, "psd.svg": svg}, extra)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _resolve_config(args)
    n_real = args.n if args.n is not None else config.estimator.n_realizations
    dtype = np.complex128 if args.dtype == "complex128" else np.complex64
    ensemble = simulate_ensemble(config.params, config.grid, n_real,
                                 config.estimator.seed, n_workers=args.workers,
                                 dtype=dtype)
    files = {"ensemble.bin": container_chunks(ensemble)}
    if args.spectrogram:
        spec = spectrogram(ensemble.signals[0].astype(np.complex128), config.grid,
                           StftConfig())
        files["spectrogram.svg"] = heatmap_svg(
            spec.power, spec.times, spec.freqs, title="spectrogram, realization 0",
            xlabel="time (s)", ylabel="angular frequency (rad/s)")
    _write_outputs(args, config, files,
                   {"n_realizations": n_real, "master_seed": config.estimator.seed,
                    "dtype": str(np.dtype(dtype))})
    return EXIT_OK


def _overlay_svg(comparison, title: str, xlabel: str, ylabel: str) -> str:
    return line_svg([(comparison.x, comparison.reference, "analytic"),
                     (comparison.x, comparison.estimate, "monte carlo")],
                    title=title, xlabel=xlabel, ylabel=ylabel)


def cmd_validate(args) -> int:
    config = _resolve_config(args)
    n_real = args.n if args.n is not None else config.estimator.n_realizations
    result = validate(config.params, config.grid, n_real, config.estimator.seed,
                      n_workers=args.workers)
    files = {"acf_overlay.svg": _overlay_svg(
        result.acf, f"autocorrelation overlay (N={n_real})", "lag (s)", "autocorrelation")}
    if result.psd is not None:
        files["psd_overlay.svg"] = _overlay_svg(
            result.psd, f"spectral density overlay (N={n_real})",
            "angular frequency (rad/s)", "density")
    files["report.json"] = _json_text(result.report)
    overall = result.report["overall_pass"]
    _write_outputs(args, config, files, {"overall_pass": overall})
    return EXIT_OK if overall else EXIT_THRESHOLD


def cmd_coeffs(args) -> int:
    config = _resolve_config(args)
    params = config.params
    size = derive(params).electrical_size
    cutoff = truncation_index(size, params.n_blades)
    coeffs = harmonic_coefficients(size, params.n_blades, args.max_n)
    index = np.arange(1, args.max_n + 1)
    rows = [(sweep_size, fraction,
             coefficient_power_fraction(sweep_size, params.n_blades, fraction,
                                        order="magnitude"),
             coefficient_power_fraction(sweep_size, params.n_blades, fraction,
                                        order="index"))
            for sweep_size in sorted(set(args.l_sweep + [size]))
            for fraction in POWER_FRACTIONS]
    lines = ["electrical_size,fraction,k_magnitude_order,k_index_order"]
    lines += [f"{s!r},{f!r},{km},{ki}" for s, f, km, ki in rows]
    files = {
        "coefficients.csv": _table_text("n,coefficient", (index, coeffs)),
        "coefficients.svg": line_svg(
            [(index.astype(float), coeffs, "squared-Bessel coefficient")],
            title="series coefficients", xlabel="harmonic index n",
            ylabel="coefficient", ylog=True,
            vlines=[(float(cutoff), f"cutoff n={cutoff}")]),
        "power_fractions.csv": "\n".join(lines) + "\n",
    }
    _write_outputs(args, config, files,
                   {"truncation_index": cutoff, "electrical_size": size})
    return EXIT_OK


def _checked(cast, accept, expected: str):
    """An argparse type: ``cast(text)``, which must pass ``accept``."""
    def parse(text: str):
        try:
            value = cast(text)
            ok = accept(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


# NaN fails every comparison, so the float checks also reject it
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_positive = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")


# flags that only some commands take: --seed where random numbers are drawn,
# --format where a curve file is written, --hz where frequencies are shown
_OPTIONAL_FLAGS = {
    "seed": dict(type=int, default=None, help="override the estimator seed"),
    "format": dict(choices=("csv", "json"), default="csv", help="data file format"),
    "hz": dict(action="store_true",
               help="display frequencies in Hz instead of rad/s"),
}


def _add_common(parser: argparse.ArgumentParser, *optional: str) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON configuration document")
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="named built-in parameter set")
    parser.add_argument("--out", default="out", help="output directory")
    for name in optional:
        parser.add_argument(f"--{name}", **_OPTIONAL_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmdoppler",
        description="second-order micro-Doppler model of rotor-swarm radar returns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("acf", help="evaluate the analytic autocorrelation")
    _add_common(p, "format")
    p.add_argument("--tau-max", type=_nonnegative, default=None, dest="tau_max",
                   help="largest lag in seconds (default: grid span)")
    p.add_argument("--points", type=_positive_int, default=2001)
    p.add_argument("--deterministic", action="store_true",
                   help="also evaluate the deterministic-speed form")
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser("psd", help="evaluate the analytic spectral density")
    _add_common(p, "format", "hz")
    p.add_argument("--points", type=_positive_int, default=4001)
    p.set_defaults(func=cmd_psd)

    p = sub.add_parser("simulate", help="generate and persist a signal ensemble")
    _add_common(p, "seed")
    p.add_argument("--n", type=_positive_int, default=None, help="realization count")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--dtype", choices=("complex64", "complex128"),
                   default="complex64")
    p.add_argument("--spectrogram", action="store_true",
                   help="also render the spectrogram of realization 0")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate",
                       help="compare Monte Carlo estimates against the closed forms")
    _add_common(p, "seed")
    p.add_argument("--n", type=_positive_int, default=None, help="realization count")
    p.add_argument("--workers", type=_positive_int, default=1)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("coeffs", help="study the series coefficients")
    _add_common(p)
    p.add_argument("--max-n", type=_positive_int, default=10_000, dest="max_n")
    p.add_argument("--l-sweep", dest="l_sweep", default="10,30,100,300,1000",
                   type=lambda s: [_positive(v) for v in s.split(",") if v],
                   help="comma-separated electrical sizes for the power table")
    p.set_defaults(func=cmd_coeffs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_CONFIG
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except SwarmModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
