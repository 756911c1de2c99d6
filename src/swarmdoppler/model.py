"""Parameter, grid and curve types, plus configuration ingestion.

Everything here is immutable after construction and safe to share across
threads without synchronisation.
"""
from __future__ import annotations

import json
import math
import types
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .exceptions import (ConfigError, ValidationError, _checked_array, _checked_int,
                         _checked_real)

CURVE_AXES = ("lag_s", "angular_frequency_rad_per_s", "frequency_hz")

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
    """Angular frequency (rad/s) of the band the Nyquist bound and the
    ``psd`` curve stop at.

    A blade tip's Doppler shift peaks at ``mod_index * mean_speed``, with
    standard deviation ``mod_index * speed_std``; the edge is five of those
    deviations beyond it.  The spectrum does not end there: the series puts
    Gaussians past it, out to ``n_blades * n_terms * mean_speed``.  On
    mavic-like the edge is at 48,291 rad/s and the last centre at 66,944;
    0.25% of the side mass lies beyond the edge, and the density is 6.5e-3
    of the largest Gaussian height at the edge and 1.6e-6 of it at 1.1 times
    the edge.
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
    """Raise :class:`ValidationError` unless ``grid.dt`` respects the
    Nyquist bound ``pi / band_edge(params)``."""
    bound = math.pi / band_edge(params)
    if grid.dt > bound * (1.0 + 1e-12):
        raise ValidationError(
            f"dt must be within the Nyquist bound {bound:.6e} s, got {grid.dt!r}: "
            "it undersamples the signal band"
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


def _csv_text(header: str, columns) -> str:
    """``header``, then one line per row of ``columns``: each cell the
    ``repr`` of a float, which reads back as the same float."""
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def curve_to_csv(curve: Curve) -> str:
    """Render a curve as ``x,y_re,y_im`` CSV text."""
    yre = np.real(curve.y)
    yim = np.imag(curve.y) if curve.is_complex else np.zeros_like(yre)
    return _csv_text(f"{curve.axis},y_re,y_im", (curve.x, yre, yim))


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
    """A fully validated configuration: parameters, grid and estimator.

    Each field must be of its record type and the grid must respect the
    Nyquist bound of the parameters (see :func:`check_grid`), else
    :class:`ValidationError`; so :func:`serialize_config` of any
    ``RunConfig`` is a document that :func:`load_config` reads back.
    """

    params: SwarmParams
    grid: SamplingGrid
    estimator: EstimatorSettings

    def __post_init__(self) -> None:
        for name, kind in (("params", SwarmParams), ("grid", SamplingGrid),
                           ("estimator", EstimatorSettings)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValidationError(f"{name} must be a {kind.__name__}, got {value!r}")
        check_grid(self.params, self.grid)


# the configuration document's key for each record field, in document order;
# of the parameters only gain_magnitude may be omitted, and the estimator
# section's keys are the EstimatorSettings field names
_PARAM_KEYS = {"n_drones": "n_drones", "n_rotors": "n_rotors", "n_blades": "n_blades",
               "blade_length": "blade_length_m", "wavelength": "wavelength_m",
               "mean_speed": "mean_speed_rad_s", "speed_variance": "speed_variance",
               "gain_magnitude": "gain_magnitude"}
_GRID_KEYS = {"t_start": "t_start_s", "dt": "dt_s", "n_samples": "n_samples"}


def _section(doc: dict, name: str, allowed) -> dict:
    """The optional object ``doc[name]``, refused if it holds a key not in
    ``allowed``."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    _reject_unknown(section, allowed, name)
    return section


def _reject_unknown(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def load_config(text: str) -> RunConfig:
    """Parse and validate a UTF-8 JSON configuration document.

    The schema is strict: unknown keys are rejected so parameter typos
    cannot silently alter an experiment.  ``grid`` and ``estimator`` are
    optional sections; an omitted ``dt_s`` defaults to the Nyquist-matched
    step of :func:`default_grid`.
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
    _reject_unknown(doc, [*_PARAM_KEYS.values(), "grid", "estimator"], "config")
    for name, key in _PARAM_KEYS.items():
        if key not in doc and name != "gain_magnitude":
            raise ConfigError(f"missing required key {key!r}")
    params = SwarmParams(**{name: doc[key] for name, key in _PARAM_KEYS.items()
                            if key in doc})
    grid_doc = _section(doc, "grid", _GRID_KEYS.values())
    grid_args = {"t_start": 0.0, "n_samples": DEFAULT_N_SAMPLES,
                 **{name: grid_doc[key] for name, key in _GRID_KEYS.items() if key in grid_doc}}
    if "dt" not in grid_args:
        grid_args["dt"] = default_grid(params).dt
    grid = SamplingGrid(**grid_args)
    estimator = EstimatorSettings(**_section(
        doc, "estimator", [f.name for f in fields(EstimatorSettings)]))
    return RunConfig(params=params, grid=grid, estimator=estimator)


def serialize_config(config: RunConfig) -> str:
    """Render a configuration as canonical JSON; inverse of :func:`load_config`."""
    doc = {key: getattr(config.params, name) for name, key in _PARAM_KEYS.items()}
    doc["grid"] = {key: getattr(config.grid, name) for name, key in _GRID_KEYS.items()}
    doc["estimator"] = asdict(config.estimator)
    return json.dumps(doc, sort_keys=True, indent=1)
