"""Shared test utilities: reference parameter sets, random draws, oracles."""
import json
import math
from dataclasses import asdict

import numpy as np

import swarmdoppler as sd
from swarmdoppler.analytic import SQRT_TWO_PI
from swarmdoppler.cli import PRESETS

# the CLI's commercial-quadcopter-sized preset, as SwarmParams keywords:
# the reference configuration used throughout
MAVIC_LIKE = asdict(sd.load_config(json.dumps(PRESETS["mavic-like"])).params)


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


def synthesize_paired(state: sd.SwarmState, params: sd.SwarmParams,
                      grid: sd.SamplingGrid) -> np.ndarray:
    """The paired-blade sum of one realization, written out rotor by rotor.

    The bit-exact reference for the block kernel behind
    :func:`swarmdoppler.synthesize`, which must take the same operations
    element by element and row by row: every cosine and sine from the
    kernel's half-angle tangent helper given the halved angle, and each
    rotor angle at sample ``k = a*B + b`` from a coarse table at ``a*B``
    times a fine table over ``b`` steps, one matrix product per blade and
    rotor; the rotors are rotated, scaled and summed by one matrix product
    per coarse step, of their weights with the real (and, for odd blade
    counts, imaginary) planes.  Grid starts whose turn ``speed*t_start``
    overflows are not covered.
    """
    cos_sin = sd.simulate._cos_sin
    steps = sd.simulate._TURN_STEPS
    half_mod = 0.5 * sd.derive(params).mod_index
    n_blades = params.n_blades
    paired = n_blades % 2 == 0
    n_coarse = max(2, -(-grid.n_samples // steps))
    speeds = state.rotor_speeds.ravel()
    starts = state.initial_angles.ravel() + np.fmod(speeds * grid.t_start, 2.0 * np.pi)
    # planes padded to whole coarse steps, as the kernel's
    re = np.zeros((speeds.size, n_coarse * steps))
    im = np.zeros_like(re)
    for rotor, (start, speed) in enumerate(zip(starts, speeds)):
        fine_cos, fine_sin = np.empty(steps), np.empty(steps)
        cos_sin(0.5 * speed * (grid.dt * np.arange(steps)), fine_cos, fine_sin)
        fine = np.stack([fine_cos, -fine_sin])
        rotor_half = 0.5 * speed * (grid.dt * (steps * np.arange(n_coarse))) + 0.5 * start
        for b in range(n_blades // 2 if paired else n_blades):
            half = rotor_half + 0.5 * (2.0 * np.pi * b / n_blades) if b else rotor_half
            coarse_cos, coarse_sin = np.empty(n_coarse), np.empty(n_coarse)
            cos_sin(half, coarse_cos, coarse_sin)
            coarse = half_mod * np.stack([coarse_cos, coarse_sin], axis=1)
            phase = (coarse @ fine).ravel()
            sine = np.empty_like(phase)
            cos_sin(phase, phase, sine)
            re[rotor] += phase
            im[rotor] -= sine
    scale = (2.0 if paired else 1.0) * params.gain_magnitude
    cos_p, sin_p = np.empty(speeds.size), np.empty(speeds.size)
    cos_sin(0.5 * state.projection_phases.ravel(), cos_p, sin_p)
    cos_p *= scale
    sin_p *= scale
    # the rotor sum: one product of the rotation weights with the planes
    # per coarse step
    weights, planes = np.stack([cos_p, -sin_p]), re
    if not paired:
        weights = np.concatenate([weights, np.stack([sin_p, cos_p])], axis=1)
        planes = np.concatenate([re, im])
    sums = np.empty((2, planes.shape[1]))
    for lo in range(0, planes.shape[1], steps):
        sums[:, lo:lo + steps] = weights @ planes[:, lo:lo + steps]
    y = np.empty(grid.n_samples, dtype=np.complex128)
    y.real, y.imag = sums[:, :grid.n_samples]
    return y


def time_average_partial(rows: np.ndarray, fft_len: int) -> np.ndarray:
    """``sum_k |FFT y_k|^2`` over the rows, zero-padded to ``fft_len``.

    The time-average partial sum as first written, each row copied to
    complex128 and padded inside the transform; the reference for
    :class:`swarmdoppler.AcfAccumulator`, which pads by hand and transforms
    in place, and must equal this bit for bit.
    """
    spectra = np.fft.fft(rows.astype(np.complex128), n=fft_len, axis=1)
    parts = spectra.view(np.float64)
    squares = np.einsum("kf,kf->f", parts, parts)
    return squares[0::2] + squares[1::2]


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
    _, hi = sd.psd_support(psd.acf.params)
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


def acf_eval_every_term(acf: sd.AcfSeries, tau):
    """The phasor recurrence of the series with every term at every lag.

    The reference for the windowed sum of :func:`swarmdoppler.acf_eval`,
    which runs each term only where its Gaussian damping is non-zero and
    must equal this bit for bit.
    """
    p = acf.params
    lags = np.abs(np.asarray(tau, dtype=float).ravel())
    n_lags = lags.size
    # numpy rounds an in-place complex product over one element differently
    # from one over a longer array: a lone lag turns beside a copy of itself
    if n_lags == 1:
        lags = np.repeat(lags, 2)
    with np.errstate(over="ignore"):
        phi = (p.n_blades * p.mean_speed) * lags
        decay = -0.5 * np.square((p.n_blades * p.speed_std) * lags)
    overflow = ~np.isfinite(phi)
    if overflow.any():
        phi[overflow] = 0.0
        decay[overflow] = -np.inf
    step = np.exp(1j * phi)
    phasor = step.copy()
    series = np.zeros_like(phi)
    term = np.empty_like(phi)
    # past its reach, n*n times a term's decay may overflow to -inf: exp gives 0
    with np.errstate(over="ignore"):
        for n, coeff in enumerate(acf.coefficients, start=1):
            np.multiply(decay, float(n * n), out=term)
            np.exp(term, out=term)
            term *= coeff
            term *= phasor.real
            series += term
            phasor *= step
    return (sd.analytic._prefactor(p) * (acf.j0_squared + 2.0 * series))[:n_lags]


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


# Gauss-Hermite nodes of the oracle's mean over rotor speed: they integrate
# cos(a*z), z standard normal, to 2.6e-16 up to a = 5 and to 2.8e-13 at a = 6
_SPEED_NODES = 40
_SPEED_REACH = 5.0


def _quadrature_orders(params: sd.SwarmParams) -> int:
    """Half the oracle's angle nodes: past this Fourier order of the blade
    sum ``J_k(mod_index)`` carries no power a double can hold."""
    m = sd.derive(params).mod_index
    return math.ceil(m + 10.0 * m ** (1.0 / 3.0) + 64.0)


def acf_quadrature_reach(params: sd.SwarmParams) -> float:
    """The largest |lag| :func:`acf_quadrature` takes, in seconds: where its
    speed nodes still integrate every harmonic of the blade sum."""
    if params.speed_std == 0.0:
        return math.inf
    return _SPEED_REACH / (params.speed_std * _quadrature_orders(params))


def acf_quadrature(params: sd.SwarmParams, tau) -> np.ndarray:
    """The autocorrelation by quadrature of its definition, with no Bessel
    value and no series.

    A rotor at angle theta returns ``s(theta) = sum_b exp(-1j*m*cos(theta +
    2*pi*b/n_blades))``, m the modulation index.  Rotors are independent,
    each with a uniform angle and phase and a speed omega drawn from
    N(mean_speed, speed_variance), so the autocorrelation at lag tau is
    ``|gain|^2 * n_drones * n_rotors`` times the mean over omega of the
    mean over theta of ``s(theta) * conj(s(theta + omega*tau))``.

    The theta mean is the trapezoid rule on K >= 2*(m + 10*m**(1/3) + 64)
    nodes, exact for the periodic integrand but for aliases, each a product
    with a Bessel value past order K/2, below 2e-26 over the envelope.  K is a
    multiple of n_blades, so blade b's angle at node j is the angle of node
    ``j + b*K/n_blades``: ``s`` is one exponential over the K nodes folded
    onto the first K/n_blades, over which, one period of ``s``, the mean is
    taken.  The omega mean is Gauss-Hermite on 40 nodes, which integrates
    harmonic k to 2.6e-16 while ``k*speed_std*|tau| <= 5``; lags past
    :func:`acf_quadrature_reach`, where that fails for some ``k <= K/2``,
    fail the calling test.  At zero spread it is the one node mean_speed.
    """
    lags = np.asarray(tau, dtype=float).ravel()
    assert np.all(np.abs(lags) <= acf_quadrature_reach(params)), \
        "lag past the reach of the quadrature over rotor speed"
    m = sd.derive(params).mod_index
    nb = params.n_blades
    n_nodes = nb * math.ceil(2 * _quadrature_orders(params) / nb)
    theta = (2.0 * np.pi / n_nodes) * np.arange(n_nodes)

    def blade_sum(shifts):
        """s(theta + shift) on one blade period, a row per shift."""
        rows = np.exp(-1j * m * np.cos(theta + shifts[:, None]))
        return rows.reshape(shifts.size, nb, n_nodes // nb).sum(axis=1)

    if params.speed_std == 0.0:
        speeds, weights = np.array([params.mean_speed]), np.ones(1)
    else:
        x, w = np.polynomial.hermite.hermgauss(_SPEED_NODES)
        speeds = params.mean_speed + math.sqrt(2.0) * params.speed_std * x
        weights = w / math.sqrt(math.pi)
    here = np.conj(blade_sum(np.zeros(1)))
    values = np.empty(lags.size)
    for i, lag in enumerate(lags):
        # the turn omega*lag, reduced exactly to one period
        there = blade_sum(np.fmod(speeds * lag, 2.0 * np.pi))
        values[i] = weights @ np.mean((here * there).real, axis=1)
    return params.gain_magnitude ** 2 * params.n_drones * params.n_rotors * values


# oracles of the paper's phase-average identity, the mean of J_n(size*sin(phi))
# over phi is J_{n/2}(size/2)**2, behind the series coefficients (A6)

# i**n for n mod 4; complex integer powers drift for large n, a table does not
_IPOW = (1 + 0j, 1j, -1 + 0j, -1j)


def squared_bessel_sum_check(z: float, n_terms: int) -> float:
    """Partial sum J_0(z)^2 + 2*sum_{k=1..n_terms} J_k(z)^2.

    Approaches 1 from below as ``n_terms`` grows; the convergence and
    normalisation oracle of the squared-coefficient family.
    """
    col = sd.bessel_j_many(n_terms, z)
    return float(col[0] ** 2 + 2.0 * np.sum(col[1:] ** 2))


def bessel_phase_average(n: int, size: float, *, tol: float = 1e-11) -> float:
    """Average of J_n(size * sin(phi)) over phi uniform on [0, 2*pi).

    Evaluated as (1 / (2*pi*i**n)) * integral over a full period of
    J_0(size*cos(t)) * exp(i*n*t), by trapezoid quadrature with doubling
    resolution.  The integrand is smooth and periodic, so the rule converges
    geometrically and the change between successive refinements bounds the
    error; the result is real, and an imaginary residue above ``tol``, like
    a quadrature that does not converge, fails the calling test.
    """
    # spectral accuracy needs the sample count past the integrand's harmonic
    # content, roughly size + n
    npts = 64
    while npts < 3.0 * (size + n) + 32.0:
        npts *= 2
    prev = None
    while npts <= (1 << 22):
        theta = (2.0 * np.pi / npts) * np.arange(npts)
        samples = sd.bessel_j(0, size * np.cos(theta)) * np.exp(1j * n * theta)
        cur = complex(samples.mean() * 2.0 * np.pi)
        if prev is not None and abs(cur - prev) <= 0.5 * tol:
            coeff = cur / (2.0 * np.pi * _IPOW[n % 4])
            assert abs(coeff.imag) <= tol, \
                f"phase-average quadrature left imaginary residue {coeff.imag:.3e}"
            return float(coeff.real)
        prev = cur
        npts *= 2
    raise AssertionError(f"phase-average quadrature did not converge to tol={tol:g}; "
                         f"last refinement changed the value by {abs(cur - prev):.3e}")


def bessel_phase_average_closed(n: int, size: float) -> float:
    """Closed form of the even-order phase average: J_{n/2}(size/2)**2.

    Independent of :func:`bessel_phase_average`, so either route checks the
    other; odd orders average to exactly zero and have no closed form here.
    """
    assert n % 2 == 0, f"closed form exists for even orders only, got n={n}"
    return float(sd.bessel_j(n // 2, size / 2.0) ** 2)
