"""Shared test utilities: reference parameter sets, random draws, oracles."""
import numpy as np

import swarmdoppler as sd
from swarmdoppler.analytic import SQRT_TWO_PI

# commercial-quadcopter-sized reference configuration used throughout
MAVIC_LIKE = dict(n_drones=1, n_rotors=4, n_blades=2, blade_length=0.21,
            wavelength=0.03, mean_speed=523.0, speed_variance=27.0,
            gain_magnitude=1.0)


def mavic_params(**overrides) -> sd.SwarmParams:
    return sd.SwarmParams(**{**MAVIC_LIKE, **overrides})


def random_params(rng: np.random.Generator, *, sigma_zero=False,
                  min_rel_spread=0.005, max_rel_spread=0.1) -> sd.SwarmParams:
    """A physically sensible random parameter draw (wavelength << blade)."""
    wavelength = float(rng.uniform(0.005, 0.05))
    blade_length = wavelength * float(rng.uniform(3.0, 40.0))
    mean_speed = float(rng.uniform(100.0, 1200.0))
    if sigma_zero:
        variance = 0.0
    else:
        spread = mean_speed * float(rng.uniform(min_rel_spread, max_rel_spread))
        variance = spread ** 2
    return sd.SwarmParams(
        n_drones=int(rng.integers(1, 6)),
        n_rotors=int(rng.integers(1, 6)),
        n_blades=int(rng.integers(1, 5)),
        blade_length=blade_length,
        wavelength=wavelength,
        mean_speed=mean_speed,
        speed_variance=variance,
        gain_magnitude=float(rng.choice([0.5, 1.0, 2.0])),
    )


def synthesize_per_blade(state: sd.SwarmState, params: sd.SwarmParams,
                         grid: sd.SamplingGrid) -> np.ndarray:
    """The return summed blade by blade, one complex phasor per blade.

    The direct form of the model, kept as the reference for the
    paired-blade kernel of :func:`swarmdoppler.synthesize`.
    """
    mod_index = sd.derive(params).mod_index
    base = state.initial_angles[..., None] + state.rotor_speeds[..., None] * grid.times()
    acc = np.zeros(base.shape, dtype=np.complex128)
    for b in range(params.n_blades):
        angle = base + (2.0 * np.pi * b / params.n_blades)
        acc += np.exp(-1j * mod_index * np.cos(angle))
    rotor_gain = np.exp(-1j * state.projection_phases)[..., None]
    return params.gain_magnitude * np.sum(rotor_gain * acc, axis=(0, 1))


def transform_of_analytic_acf(params: sd.SwarmParams, *, oversample=2.0,
                              decay_sigmas=12.0):
    """Scaled transform of the densely sampled series autocorrelation.

    Samples the analytic autocorrelation minus its constant floor out to
    where every Gaussian factor has died, then applies the same
    lag-step-scaled transform as the Monte Carlo spectrum estimator.
    Returns (frequency curve, mixture) for comparison against psd_eval.
    """
    acf = sd.build_acf(params)
    psd = sd.build_psd(params)
    grid = sd.default_grid(params, oversample=oversample)
    tau_max = decay_sigmas / (params.speed_std * params.n_blades)
    n_lags = int(np.ceil(tau_max / grid.dt)) + 1
    assert n_lags <= 3_000_000, "lag grid too large; constrain the draw"
    lags = grid.dt * np.arange(n_lags)
    values = sd.acf_eval(acf, lags) - acf.dc_level
    curve = sd.Curve(axis="lag_s", x=lags, y=values.astype(complex))
    return sd.estimate_psd(curve), psd


def fit_convention_constant(transform_curve, psd: sd.PsdMixture,
                            floor_rel: float = 1e-9):
    """Least-squares scale between a transform and the mixture density.

    Bins below ``floor_rel`` of the mixture peak are excluded: between
    well-separated kernels the density underflows to values no floating
    comparison can certify relatively.
    """
    freqs = transform_curve.x
    values = transform_curve.y
    reference = sd.psd_eval(psd, freqs)
    _, hi = sd.psd_support(psd.params)
    dfreq = freqs[1] - freqs[0]
    mask = (np.abs(freqs) <= hi) & (np.abs(freqs) >= 1.5 * dfreq)
    mask &= reference >= floor_rel * reference.max()
    scale = float(np.sum(values[mask] * reference[mask])
                  / np.sum(reference[mask] ** 2))
    rel = np.abs(values[mask] - scale * reference[mask]) / reference[mask]
    return scale, float(rel.max()), int(mask.sum())


def acf_eval_outer(acf: sd.AcfSeries, tau):
    """The series autocorrelation as one (n_terms x n_points) outer product.

    The direct form of the series, kept as the reference for the phasor
    recurrence of :func:`swarmdoppler.acf_eval`.
    """
    p = acf.params
    t = np.abs(np.asarray(tau, dtype=float)).ravel()
    n = np.arange(1, acf.n_terms + 1, dtype=float)
    base_freq = p.n_blades * p.mean_speed
    phases = np.outer(n, base_freq * t)
    damping = np.exp(-0.5 * p.speed_variance * p.n_blades ** 2 * np.outer(n ** 2, t ** 2))
    series = acf.coefficients @ (np.cos(phases) * damping)
    return sd.analytic._prefactor(p) * (acf.j0_squared + 2.0 * series)


def psd_eval_outer(psd: sd.PsdMixture, freq):
    """The mixture density with every kernel pair at every frequency.

    The direct form of the mixture, kept as the reference for the windowed
    sum of :func:`swarmdoppler.psd_eval`, which must equal it bit for bit.
    """
    f = np.asarray(freq, dtype=float).ravel()
    c = psd.centers[:, None]
    s = psd.stds[:, None]
    m = psd.side_masses[:, None]
    pair = np.exp(-0.5 * ((f[None, :] - c) / s) ** 2) \
        + np.exp(-0.5 * ((f[None, :] + c) / s) ** 2)
    return np.sum(m / (SQRT_TWO_PI * s) * pair, axis=0)
