"""Parameter, grid and curve types, plus configuration ingestion.

Everything here is immutable after construction and safe to share across
threads without synchronisation.
"""
from __future__ import annotations

import json
import math
import types
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (ConfigError, ValidationError, _checked_array, _checked_int,
                         _checked_real)

CURVE_AXES = ("lag_s", "angular_frequency_rad_per_s", "frequency_hz", "time_s")

DEFAULT_N_SAMPLES = 4001
DEFAULT_N_REALIZATIONS = 10_000
DEFAULT_SEED = 1234
# seeds are unsigned 64-bit integers wherever they are taken
_SEED_MAX = 2 ** 64 - 1


@dataclass(frozen=True)
class SwarmParams:
    """Physical and stochastic description of the swarm and the radar.

    Counts are per parent unit (rotors per drone, blades per rotor).  Angular
    speeds are in rad/s, lengths in metres.  Rotor speeds are modelled as
    independent Gaussians with common mean ``mean_speed`` and variance
    ``speed_variance``.  The reflection gain is stored as a magnitude only:
    all second-order quantities depend on the squared magnitude, so a phase
    would be an inert field.
    """

    n_drones: int
    n_rotors: int
    n_blades: int
    blade_length: float
    wavelength: float
    mean_speed: float
    speed_variance: float = 0.0
    gain_magnitude: float = 1.0

    def __post_init__(self) -> None:
        for name in ("n_drones", "n_rotors", "n_blades"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        for name in ("blade_length", "wavelength", "mean_speed", "gain_magnitude"):
            _checked_real(getattr(self, name), name, gt=0)
        _checked_real(self.speed_variance, "speed_variance", ge=0)
        if self.wavelength >= self.blade_length:
            # Advisory only: the point-scatterer reduction assumes the carrier
            # wavelength is much smaller than the blade length.
            warnings.warn(
                "carrier wavelength is not small compared to the blade length "
                f"(wavelength={self.wavelength}, blade_length={self.blade_length}); "
                "the model is outside its intended regime",
                stacklevel=3,
            )

    @property
    def speed_std(self) -> float:
        """Standard deviation of the rotor speed distribution, rad/s."""
        return math.sqrt(self.speed_variance)


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless quantities derived from :class:`SwarmParams`.

    ``electrical_size`` is ``8*pi*blade_length/wavelength``.  ``mod_index``
    is half of it: the peak phase swing of the return from a single rotating
    blade tip, i.e. the modulation index of the per-scatterer phase signal.
    ``electrical_size`` is a finite real > 0, else :class:`ValidationError`.
    """

    electrical_size: float

    def __post_init__(self) -> None:
        _checked_real(self.electrical_size, "electrical_size", gt=0)

    @property
    def mod_index(self) -> float:
        return 0.5 * self.electrical_size


def derive(params: SwarmParams) -> DerivedParams:
    """Compute the dimensionless blade size and modulation index."""
    return DerivedParams(8.0 * math.pi * params.blade_length / params.wavelength)


def band_edge(params: SwarmParams) -> float:
    """Largest angular frequency (rad/s) carrying non-negligible power.

    The outermost spectral component sits at ``mod_index * mean_speed`` and
    has standard deviation ``mod_index * speed_std``; five standard
    deviations beyond it capture the whole tail.
    """
    d = derive(params)
    return d.mod_index * (params.mean_speed + 5.0 * params.speed_std)


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform time grid: samples at ``t_start + k*dt`` for ``k < n_samples``."""

    t_start: float
    dt: float
    n_samples: int

    def __post_init__(self) -> None:
        _checked_real(self.t_start, "t_start")
        _checked_real(self.dt, "dt", gt=0)
        object.__setattr__(self, "n_samples", _checked_int(self.n_samples, "n_samples"))

    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_samples)

    @property
    def span(self) -> float:
        """Time covered from the first to the last sample, seconds."""
        return self.dt * (self.n_samples - 1)


def default_grid(params: SwarmParams, oversample: float = 1.0,
                 n_samples: int = DEFAULT_N_SAMPLES) -> SamplingGrid:
    """Grid whose sampling rate covers the signal band with the given margin.

    ``dt`` is set to ``pi / (oversample * band_edge(params))`` so the
    two-sided spectrum fits inside the Nyquist range; at ``oversample=1`` the
    Nyquist frequency coincides with the band edge.
    """
    _checked_real(oversample, "oversample", ge=1)
    return SamplingGrid(t_start=0.0,
                        dt=math.pi / (oversample * band_edge(params)),
                        n_samples=n_samples)


def check_grid(params: SwarmParams, grid: SamplingGrid) -> None:
    """Raise unless ``grid.dt`` respects the Nyquist bound for ``params``."""
    bound = math.pi / band_edge(params)
    if grid.dt > bound * (1.0 + 1e-12):
        raise ValidationError(
            f"dt={grid.dt!r} undersamples the signal band (Nyquist bound "
            f"{bound:.6e} s); use a step within the bound"
        )


@dataclass(frozen=True)
class Curve:
    """A sampled real or complex function of one variable.

    ``axis`` names the x quantity (one of :data:`CURVE_AXES`); ``x`` is a
    strictly increasing 1-d array of finite reals and ``y`` a 1-d array of
    finite real or complex numbers of the same length (else
    :class:`ValidationError`); ``meta`` is a free-form provenance record
    (parameters, seed, estimator settings).
    """

    axis: str
    x: np.ndarray
    y: np.ndarray
    meta: types.MappingProxyType = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.axis, str) or self.axis not in CURVE_AXES:
            raise ValidationError(f"axis must be one of {CURVE_AXES}, got {self.axis!r}")
        x = _checked_array(self.x, "x")
        y = _checked_array(self.y, "y", complex_ok=True)
        if x.ndim != 1 or y.ndim != 1:
            raise ValidationError("x and y must be one-dimensional")
        if x.shape != y.shape:
            raise ValidationError(f"x and y lengths differ: {x.shape} vs {y.shape}")
        if x.size > 1 and not np.all(np.diff(x) > 0):
            raise ValidationError("x must be strictly increasing")
        x = x.copy()
        y = y.copy()
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "meta", types.MappingProxyType(dict(self.meta)))

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.y)


def curve_to_csv(curve: Curve) -> str:
    """Render a curve as ``x,y_re,y_im`` CSV text."""
    lines = [f"{curve.axis},y_re,y_im"]
    yre = np.real(curve.y)
    yim = np.imag(curve.y) if curve.is_complex else np.zeros_like(yre)
    for xv, re, im in zip(curve.x, yre, yim):
        lines.append(f"{float(xv)!r},{float(re)!r},{float(im)!r}")
    return "\n".join(lines) + "\n"


def curve_to_json(curve: Curve) -> str:
    """Render a curve (values plus metadata) as JSON text."""
    doc = {
        "axis": curve.axis,
        "x": [float(v) for v in curve.x],
        "y_re": [float(v) for v in np.real(curve.y)],
        "y_im": [float(v) for v in np.imag(curve.y)] if curve.is_complex
                else [0.0] * len(curve.x),
        "meta": dict(curve.meta),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


@dataclass(frozen=True)
class EstimatorSettings:
    """Monte Carlo estimation settings carried by a configuration."""

    n_realizations: int = DEFAULT_N_REALIZATIONS
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_realizations",
                           _checked_int(self.n_realizations, "n_realizations"))
        object.__setattr__(self, "seed", _checked_int(self.seed, "seed", low=0, high=_SEED_MAX))


@dataclass(frozen=True)
class RunConfig:
    """A fully validated configuration: parameters, grid and estimator."""

    params: SwarmParams
    grid: SamplingGrid
    estimator: EstimatorSettings


_REQUIRED_KEYS = ("n_drones", "n_rotors", "n_blades", "blade_length_m",
                  "wavelength_m", "mean_speed_rad_s", "speed_variance")
_TOP_KEYS = _REQUIRED_KEYS + ("gain_magnitude", "grid", "estimator")
_GRID_KEYS = ("t_start_s", "dt_s", "n_samples")
_ESTIMATOR_KEYS = ("n_realizations", "seed")


def _reject_unknown(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def load_config(text: str) -> RunConfig:
    """Parse and validate a UTF-8 JSON configuration document.

    The schema is strict: unknown keys are rejected so parameter typos
    cannot silently alter an experiment.  ``grid`` and ``estimator`` are
    optional sections; an omitted grid defaults to the Nyquist-matched grid
    of :func:`default_grid`.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise ConfigError(f"text must be a JSON document as str or bytes, got {text!r}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config bytes do not decode as JSON text: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ConfigError(f"missing required key {key!r}")
    params = SwarmParams(
        n_drones=doc["n_drones"],
        n_rotors=doc["n_rotors"],
        n_blades=doc["n_blades"],
        blade_length=doc["blade_length_m"],
        wavelength=doc["wavelength_m"],
        mean_speed=doc["mean_speed_rad_s"],
        speed_variance=doc["speed_variance"],
        gain_magnitude=doc.get("gain_magnitude", 1.0),
    )
    grid_doc = doc.get("grid", {})
    if not isinstance(grid_doc, dict):
        raise ConfigError("grid must be a JSON object")
    _reject_unknown(grid_doc, _GRID_KEYS, "grid")
    if "dt_s" in grid_doc:
        grid = SamplingGrid(t_start=grid_doc.get("t_start_s", 0.0), dt=grid_doc["dt_s"],
                            n_samples=grid_doc.get("n_samples", DEFAULT_N_SAMPLES))
        check_grid(params, grid)
    else:
        grid = default_grid(params, n_samples=grid_doc.get("n_samples", DEFAULT_N_SAMPLES))
        if "t_start_s" in grid_doc:
            grid = SamplingGrid(t_start=grid_doc["t_start_s"], dt=grid.dt,
                                n_samples=grid.n_samples)
    est_doc = doc.get("estimator", {})
    if not isinstance(est_doc, dict):
        raise ConfigError("estimator must be a JSON object")
    _reject_unknown(est_doc, _ESTIMATOR_KEYS, "estimator")
    estimator = EstimatorSettings(
        n_realizations=est_doc.get("n_realizations", DEFAULT_N_REALIZATIONS),
        seed=est_doc.get("seed", DEFAULT_SEED),
    )
    return RunConfig(params=params, grid=grid, estimator=estimator)


def serialize_config(config: RunConfig) -> str:
    """Render a configuration as canonical JSON; inverse of :func:`load_config`."""
    p = config.params
    doc = {
        "n_drones": p.n_drones,
        "n_rotors": p.n_rotors,
        "n_blades": p.n_blades,
        "blade_length_m": p.blade_length,
        "wavelength_m": p.wavelength,
        "mean_speed_rad_s": p.mean_speed,
        "speed_variance": p.speed_variance,
        "gain_magnitude": p.gain_magnitude,
        "grid": {
            "t_start_s": config.grid.t_start,
            "dt_s": config.grid.dt,
            "n_samples": config.grid.n_samples,
        },
        "estimator": {
            "n_realizations": config.estimator.n_realizations,
            "seed": config.estimator.seed,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=1)
