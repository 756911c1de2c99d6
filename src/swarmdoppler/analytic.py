"""Closed-form second-order quantities of the swarm return signal.

The autocorrelation of the return is a truncated harmonic series: a constant
floor plus cosines at multiples of ``n_blades * mean_speed`` whose
coefficients are squared Bessel values, each damped by a Gaussian in lag
whenever the rotor-speed distribution has spread.  Its spectrum is a Dirac
mass at zero plus a symmetric mixture of Gaussian kernels.  With
deterministic rotor speed the autocorrelation collapses to an exact finite
double sum over blade pairs, which doubles as an independent cross-check of
the series form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ValidationError, _checked_int, _checked_real
from .model import SwarmParams, DerivedParams, band_edge, derive
from .special import J0_MAX_ABS_ARG, MAX_ABS_ARG, MAX_ORDER, bessel_j, bessel_j_many

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
# twice the first zero of J_0 (2.404825557695773), rounded
MAINLOBE_CONSTANT = 4.8
# exp(-z**2/2) is exactly 0.0 in double precision for |z| > 38.61
_KERNEL_REACH = 39.0
# float64 phases are a whole radian apart from 2**52 rad on, so no digit of a
# rotor phase mean_speed*|tau| beyond it is known within its turn
PHASE_MAX = 2.0 ** 52


def _finite(values, name: str) -> np.ndarray:
    """``values`` as a float array; non-finite entries raise DomainError."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite, got a non-finite value")
    return arr


def _check_phase(mean_speed: float, tau: np.ndarray) -> None:
    """Refuse lags whose rotor phase ``mean_speed*|tau|`` exceeds PHASE_MAX."""
    lag = float(np.max(np.abs(tau), initial=0.0))
    with np.errstate(over="ignore"):
        phase = np.float64(mean_speed) * lag
    if not phase <= PHASE_MAX:
        raise DomainError(f"tau too large: the rotor phase at |tau| = {lag!r} s "
                          f"exceeds 2**52 rad, past which float64 phases are a "
                          f"radian apart")


def _shaped(flat: np.ndarray, like: np.ndarray):
    """``flat`` in the shape of the input ``like``; a float for a scalar."""
    return float(flat[0]) if like.ndim == 0 else flat.reshape(like.shape)


def _check_envelope(electrical_size: float, size_max: float, form: str) -> None:
    """Refuse an electrical size beyond the Bessel envelope of ``form``.

    ``size_max`` is the largest electrical size whose Bessel arguments stay
    within the kernel's range for that form; the message names it as a
    blade/wavelength ratio, since the electrical size is
    ``8*pi*blade/wavelength``.
    """
    if not abs(electrical_size) <= size_max:
        per_ratio = 8.0 * math.pi
        raise DomainError(
            f"blade/wavelength {electrical_size / per_ratio:.2f} (electrical size "
            f"{electrical_size:.6g}) is outside the Bessel envelope of the {form}: "
            f"blade/wavelength <= {size_max / per_ratio:.2f} "
            f"(electrical size <= {size_max:g})"
        )


def _prefactor(params: SwarmParams) -> float:
    """|gain|^2 * n_drones * n_rotors * n_blades^2, the series scale."""
    count = params.n_drones * params.n_rotors * params.n_blades ** 2
    return params.gain_magnitude ** 2 * count


def truncation_index(electrical_size: float, n_blades: int) -> int:
    """Smallest harmonic index beyond which the series coefficients vanish.

    A Bessel function is negligible before its order reaches its argument,
    so squared coefficients at order ``n_blades*n`` of argument
    ``electrical_size/2`` die once ``n`` exceeds
    ``electrical_size / (2*n_blades)``.
    """
    electrical_size = _checked_real(electrical_size, "electrical_size", gt=0)
    return math.ceil(electrical_size / (2.0 * _checked_int(n_blades, "n_blades")))


def _series_margin(cutoff: int) -> int:
    # cutoff is a first-order estimate; the margin is validated by the
    # truncation-soundness test
    return max(20, math.ceil(0.2 * cutoff))


def harmonic_coefficients(electrical_size: float, n_blades: int, n_max: int) -> np.ndarray:
    """Squared-Bessel coefficients c_n = J_{n_blades*n}(electrical_size/2)^2.

    Returns c_1..c_n_max.  Orders beyond the Bessel evaluation envelope are
    returned as exact zeros: for any in-envelope argument (<= 2000) the
    squared value at order >= 3000 is below 1e-250 and cannot move a
    double-precision cumulative sum.  An electrical size beyond
    ``2*MAX_ABS_ARG`` (blade/wavelength 159.15) raises DomainError.
    """
    _check_envelope(_checked_real(electrical_size, "electrical_size"), 2.0 * MAX_ABS_ARG,
                    "series form")
    n_blades = _checked_int(n_blades, "n_blades")
    n_max = _checked_int(n_max, "n_max")
    half = electrical_size / 2.0
    top = min(n_blades * n_max, MAX_ORDER)
    column = bessel_j_many(top, half)
    coeffs = np.zeros(n_max)
    reachable = top // n_blades
    orders = n_blades * np.arange(1, reachable + 1)
    coeffs[:reachable] = column[orders] ** 2
    return coeffs


@dataclass(frozen=True)
class AcfSeries:
    """Truncated harmonic-series form of the return autocorrelation."""

    params: SwarmParams
    derived: DerivedParams
    n_terms: int
    coefficients: np.ndarray   # c_1..c_{n_terms}, all >= 0
    j0_squared: float          # J_0(electrical_size/2)^2
    dc_level: float            # prefactor * j0_squared; the large-lag floor

    def __post_init__(self) -> None:
        c = np.asarray(self.coefficients, dtype=float).view()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)


def build_acf(params: SwarmParams, n_terms: int | None = None) -> AcfSeries:
    """Assemble the series coefficients for the given swarm.

    ``n_terms`` defaults to the truncation index plus a safety margin; it may
    be overridden (e.g. to probe truncation soundness).
    """
    d = derive(params)
    if n_terms is None:
        cutoff = truncation_index(d.electrical_size, params.n_blades)
        n_terms = cutoff + _series_margin(cutoff)
    coeffs = harmonic_coefficients(d.electrical_size, params.n_blades, n_terms)
    j0_sq = bessel_j(0, d.mod_index) ** 2
    return AcfSeries(params=params, derived=d, n_terms=n_terms, coefficients=coeffs,
                     j0_squared=j0_sq, dc_level=_prefactor(params) * j0_sq)


def acf_eval(acf: AcfSeries, tau):
    """Evaluate the series autocorrelation at lag(s) ``tau`` (seconds).

    Even in ``tau`` by construction.  For nonzero speed spread the value
    decays to ``dc_level`` at large lags.  Returns a float for a scalar lag,
    otherwise an array of the input's shape; a non-finite lag raises
    :class:`DomainError`.  At zero spread so does a lag whose rotor phase
    ``mean_speed*|tau|`` exceeds ``PHASE_MAX`` (2**52 rad; mavic-like
    beyond 8.6e12 s), where the phase has no correct digit.  With spread
    such a lag is accepted: the damping settles the value to ``dc_level``.

    The harmonics are summed one at a time in O(n_points) memory:
    ``cos(n*phi)`` is the real part of a phasor rotated by ``exp(i*phi)``
    once per term, and each term keeps its exact Gaussian damping.
    """
    p = acf.params
    t = _finite(tau, "tau")
    lags = np.abs(t.ravel())
    if p.speed_std == 0.0:
        _check_phase(p.mean_speed, lags)
    # a lag so large that the square overflows is fully damped: exp(-inf) = 0
    with np.errstate(over="ignore"):
        phi = (p.n_blades * p.mean_speed) * lags
        decay = -0.5 * np.square((p.n_blades * p.speed_std) * lags)
    overflow = ~np.isfinite(phi)
    if overflow.any():
        # past ~1e305 s even the phase overflows, but the spread damps it
        phi[overflow] = 0.0
        decay[overflow] = -np.inf
    step = np.exp(1j * phi)
    phasor = step.copy()
    series = np.zeros_like(phi)
    term = np.empty_like(phi)
    for n, coeff in enumerate(acf.coefficients, start=1):
        np.multiply(decay, float(n * n), out=term)
        np.exp(term, out=term)
        term *= coeff
        term *= phasor.real
        series += term
        phasor *= step
    return _shaped(_prefactor(p) * (acf.j0_squared + 2.0 * series), t)


def acf_deterministic_eval(params: SwarmParams, tau):
    """Exact autocorrelation for deterministic rotor speed (no truncation).

    A finite sum of J_0 terms over blade-index offsets; the speed variance in
    ``params`` is ignored.  J_0 takes the full electrical size, up to
    ``J0_MAX_ABS_ARG``, so the form refuses blade/wavelength above 159.15
    with :class:`DomainError`, as the series form does.  Lags follow the
    zero-spread contract of :func:`acf_eval`, refused past ``PHASE_MAX``.
    """
    d = derive(params)
    _check_envelope(d.electrical_size, J0_MAX_ABS_ARG, "deterministic form")
    t = _finite(tau, "tau")
    _check_phase(params.mean_speed, t)
    nb = params.n_blades
    theta = 0.5 * params.mean_speed * t.ravel()
    offsets = np.arange(-(nb - 1), nb)
    mult = (nb - np.abs(offsets)).astype(float)
    args = d.electrical_size * np.sin(theta[None, :] - (np.pi / nb) * offsets[:, None])
    j0_vals = bessel_j(0, args)
    values = (params.gain_magnitude ** 2 * params.n_drones * params.n_rotors) \
        * (mult @ j0_vals)
    return _shaped(values, t)


def mainlobe_width(params: SwarmParams) -> float:
    """Width scale of the autocorrelation main lobe, seconds.

    ``4.8 / (electrical_size * mean_speed)``: twice the first zero of J_0
    divided by the product, which tracks the first zero crossing of the
    deterministic-speed autocorrelation.
    """
    d = derive(params)
    return MAINLOBE_CONSTANT / (d.electrical_size * params.mean_speed)


@dataclass(frozen=True)
class PsdMixture:
    """Spectrum of the return: DC Dirac mass plus Gaussian kernels.

    Kernels come in mirror pairs at ``+-n_blades*n*mean_speed`` with standard
    deviation ``speed_std*n*n_blades``; ``side_masses[n-1]`` is the integral
    of each member of pair ``n``.  ``convention_constant`` is the single
    global factor relating :func:`psd_eval` to the plain integral transform
    of the autocorrelation, pinned by the transform round-trip check.
    """

    params: SwarmParams
    derived: DerivedParams
    dc_weight: float
    centers: np.ndarray       # positive centers, pair n at index n-1
    stds: np.ndarray
    side_masses: np.ndarray
    convention_constant: float = 1.0

    def __post_init__(self) -> None:
        for name in ("centers", "stds", "side_masses"):
            arr = np.asarray(getattr(self, name), dtype=float).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def kernels(self):
        """All kernels as (center, std, mass) tuples, mirror pairs included."""
        pos = [(c, s, m) for c, s, m in zip(self.centers, self.stds, self.side_masses)]
        neg = [(-c, s, m) for c, s, m in pos]
        return tuple(sorted(neg + pos))


def build_psd(params: SwarmParams, n_terms: int | None = None) -> PsdMixture:
    """Assemble the Gaussian-mixture spectrum for the given swarm.

    Requires a spread rotor-speed distribution; in the zero-variance limit
    the kernels degenerate to Dirac lines, handled by
    :func:`psd_line_spectrum` instead.
    """
    if params.speed_variance == 0.0:
        raise DomainError(
            "speed_variance is zero: the spectrum is a line spectrum; "
            "use psd_line_spectrum"
        )
    acf = build_acf(params, n_terms)
    p = params
    n = np.arange(1, acf.n_terms + 1, dtype=float)
    centers = p.n_blades * p.mean_speed * n
    stds = p.speed_std * p.n_blades * n
    side_masses = 2.0 * np.pi * _prefactor(p) * acf.coefficients
    dc_weight = SQRT_TWO_PI * acf.dc_level
    return PsdMixture(params=p, derived=acf.derived, dc_weight=dc_weight,
                      centers=centers, stds=stds, side_masses=side_masses)


def psd_eval(psd: PsdMixture, freq):
    """Continuous part of the spectrum at angular frequency ``freq`` (rad/s).

    The DC Dirac mass is reported separately in ``psd.dc_weight``, never as a
    density sample.  Mirror kernels are summed pairwise, so the result is
    exactly even in ``freq``.  Returns a float for a scalar frequency,
    otherwise an array of the input's shape; a non-finite frequency raises
    :class:`DomainError`.

    Each pair is added, in harmonic order, only on the sorted frequencies
    within 39 standard deviations of ``+c`` or ``-c``; beyond that both of
    its kernels are exactly zero in double precision, so the result equals
    the sum of every pair at every frequency bit for bit, in O(n_points)
    memory.
    """
    f = _finite(freq, "freq")
    flat = f.ravel()
    order = np.argsort(flat, kind="stable")
    fs = flat[order]
    c = psd.centers
    s = psd.stds
    scale = psd.side_masses / (SQRT_TWO_PI * s)
    reach = _KERNEL_REACH * s
    lo_neg, hi_neg, lo_pos, hi_pos = np.searchsorted(
        fs, np.stack([-c - reach, -c + reach, c - reach, c + reach]))
    # the negative window ends where the positive one starts if they overlap
    hi_neg = np.minimum(hi_neg, lo_pos)
    acc = np.zeros_like(fs)
    for k in np.flatnonzero((hi_neg > lo_neg) | (hi_pos > lo_pos)):
        for a, b in ((lo_neg[k], hi_neg[k]), (lo_pos[k], hi_pos[k])):
            x = fs[a:b]
            pair = np.exp(-0.5 * ((x - c[k]) / s[k]) ** 2) \
                + np.exp(-0.5 * ((x + c[k]) / s[k]) ** 2)
            acc[a:b] += scale[k] * pair
    values = np.empty_like(acc)
    values[order] = acc
    return _shaped(values, f)


def psd_support(params: SwarmParams) -> tuple[float, float]:
    """Frequency interval (rad/s) that carries the whole spectrum tail.

    Symmetric: ``+-(electrical_size/2) * (mean_speed + 5*speed_std)``; the
    five-standard-deviation margin beyond the outermost kernel captures its
    tail entirely.
    """
    edge = band_edge(params)
    return (-edge, edge)


@dataclass(frozen=True)
class SpectralLine:
    """A Dirac component of the zero-spread spectrum."""

    frequency: float   # rad/s
    weight: float      # mean power carried by the line


def psd_line_spectrum(params: SwarmParams) -> list[SpectralLine]:
    """Dirac-line spectrum in the deterministic-speed (zero-variance) limit.

    Lines sit at 0 and ``+-n_blades*n*mean_speed`` up to the truncation
    index, so mirror pairs are counted separately and the pair count is the
    electrical size over the blade count.  Weights are the mean power per
    line; they sum to the zero-lag autocorrelation (within truncation).
    """
    if params.speed_variance != 0.0:
        raise DomainError(
            f"line spectrum requires speed_variance == 0, got {params.speed_variance!r}"
        )
    cutoff = truncation_index(derive(params).electrical_size, params.n_blades)
    acf = build_acf(params, cutoff)
    scale = _prefactor(params)
    spacing = params.n_blades * params.mean_speed
    lines = [SpectralLine(frequency=0.0, weight=acf.dc_level)]
    for n in range(1, cutoff + 1):
        weight = scale * float(acf.coefficients[n - 1])
        lines.append(SpectralLine(frequency=n * spacing, weight=weight))
        lines.append(SpectralLine(frequency=-n * spacing, weight=weight))
    return sorted(lines, key=lambda ln: ln.frequency)


def coefficient_power_fraction(electrical_size: float, n_blades: int,
                               fraction: float, *, order: str = "magnitude",
                               n_max: int = 10_000) -> int:
    """Number of coefficients needed to hold ``fraction`` of the series power.

    Power is the cumulative sum of c_n over the first ``n_max`` coefficients.
    ``order`` selects the cumulation rule: ``"magnitude"`` sorts coefficients
    in descending size first, ``"index"`` keeps natural harmonic order.  Both
    are exposed because neither ordering is canonical.
    """
    _checked_real(fraction, "fraction", gt=0, lt=1)
    if order not in ("magnitude", "index"):
        raise ValidationError(f"order must be 'magnitude' or 'index', got {order!r}")
    coeffs = harmonic_coefficients(electrical_size, n_blades, n_max)
    if order == "magnitude":
        coeffs = np.sort(coeffs)[::-1]
    cumulative = np.cumsum(coeffs)
    target = fraction * cumulative[-1]
    return int(np.searchsorted(cumulative, target) + 1)
