"""Second-order micro-Doppler model of rotor-swarm radar returns.

Closed-form autocorrelation and spectral density of the coherent return
from a swarm of identical rotor drones, plus a deterministic Monte Carlo
signal simulator used to validate the closed forms.
"""

__version__ = "0.1.0"

from .exceptions import (SwarmModelError, ValidationError, ConfigError,
                         DomainError, FormatError)
from .model import (SwarmParams, DerivedParams, SamplingGrid, Curve,
                    EstimatorSettings, RunConfig, derive, band_edge,
                    default_grid, check_grid, load_config,
                    serialize_config, curve_to_csv, curve_to_json)
from .special import bessel_j, bessel_j_many
from .analytic import (AcfSeries, PsdMixture, build_acf, acf_eval,
                       acf_deterministic_eval, mainlobe_width, truncation_index,
                       harmonic_coefficients, build_psd, psd_eval, psd_support,
                       psd_line_spectrum, coefficient_power_fraction)
from .simulate import (SwarmState, Ensemble, Spectrogram,
                       sample_state, synthesize, simulate_ensemble,
                       realization_rng, AcfAccumulator, accumulate,
                       estimate_psd, spectrogram, save_ensemble, load_ensemble)

__all__ = [
    "__version__",
    "SwarmModelError", "ValidationError", "ConfigError", "DomainError",
    "FormatError",
    "SwarmParams", "DerivedParams", "SamplingGrid", "Curve",
    "EstimatorSettings", "RunConfig", "derive", "band_edge", "default_grid",
    "check_grid", "load_config", "serialize_config",
    "curve_to_csv", "curve_to_json",
    "bessel_j", "bessel_j_many",
    "AcfSeries", "PsdMixture", "build_acf", "acf_eval",
    "acf_deterministic_eval", "mainlobe_width", "truncation_index",
    "harmonic_coefficients", "build_psd", "psd_eval", "psd_support",
    "psd_line_spectrum", "coefficient_power_fraction",
    "SwarmState", "Ensemble", "Spectrogram", "sample_state",
    "synthesize", "simulate_ensemble", "realization_rng", "AcfAccumulator",
    "accumulate", "estimate_psd", "spectrogram", "save_ensemble", "load_ensemble",
]
