"""Closed-form second-order quantities of the swarm return signal.

The autocorrelation of the return is a truncated harmonic series: a constant
floor plus cosines at multiples of ``n_blades * mean_speed`` whose
coefficients are squared Bessel values, each damped by a Gaussian in lag
whenever the rotor-speed distribution has spread.  Its spectrum is a Dirac
mass at zero plus a symmetric mixture of Gaussians.  With
deterministic rotor speed the autocorrelation collapses to an exact finite
double sum over blade pairs, which doubles as an independent cross-check of
the series form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (DomainError, ValidationError, _checked_array, _checked_int,
                         _checked_real)
from .model import Curve, DerivedParams, SwarmParams, band_edge, derive
from .special import J0_MAX_ABS_ARG, MAX_ABS_ARG, MAX_ORDER, bessel_j, bessel_j_many

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
# twice the first zero of J_0 (2.404825557695773), rounded
MAINLOBE_CONSTANT = 4.8
# exp(-z**2/2) is exactly 0.0 in double precision for |z| > 38.61
_KERNEL_REACH = 39.0
# and a normal double for |z| <= _NORMAL_REACH (37.64): the root of
# exp(-z**2/2) == tiny, one ulp down so that exp rounds to tiny or above.
# Between the two reaches it is subnormal, which numpy's exp and multiply
# take ~100x and ~30x longer to produce on x86 without flush-to-zero
_NORMAL_REACH = math.nextafter(math.sqrt(-2.0 * math.log(np.finfo(float).tiny)), 0.0)
# float64 phases are a whole radian apart from 2**52 rad on, so no digit of a
# rotor phase mean_speed*|tau| beyond it is known within its turn
PHASE_MAX = 2.0 ** 52
# the one global factor relating psd_eval to the plain integral transform of
# the autocorrelation, pinned by the transform round-trip check
CONVENTION_CONSTANT = 1.0


def _check_phase(mean_speed: float, tau: np.ndarray) -> None:
    """Refuse lags whose rotor phase ``mean_speed*|tau|`` exceeds PHASE_MAX."""
    lag = float(np.max(np.abs(tau), initial=0.0))
    with np.errstate(over="ignore"):
        phase = np.float64(mean_speed) * lag
    if not phase <= PHASE_MAX:
        raise DomainError(f"tau too large: the rotor phase at |tau| = {lag!r} s "
                          f"exceeds 2**52 rad, past which float64 phases are a "
                          f"radian apart")


def _kernel_windows(points: np.ndarray, centers, stds, reach: float):
    """Sort ``points`` once and find where each Gaussian is within ``reach``.

    Returns the stable sort permutation ``order``, the sorted points, and
    index arrays ``lo``, ``hi`` of the shape of ``centers`` and ``stds``
    broadcast: Gaussian k is evaluated only on ``sorted[lo[k]:hi[k]]``, the
    points within ``reach`` standard deviations of its center.  Results
    computed on the sorted points go back through ``order``.
    """
    order = np.argsort(points, kind="stable")
    ordered = points[order]
    bound = reach * stds
    lo, hi = np.searchsorted(ordered, np.stack(np.broadcast_arrays(centers - bound,
                                                                   centers + bound)))
    return order, ordered, lo, hi


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
    """Harmonic-series form of the return autocorrelation, cut at ``n_terms``.

    The series is fixed by ``params`` (a :class:`SwarmParams`) and
    ``n_terms`` (an integer >= 1), else :class:`ValidationError`; every other
    field is computed from them.
    """

    params: SwarmParams
    n_terms: int
    derived: DerivedParams = field(init=False, compare=False)
    coefficients: np.ndarray = field(init=False, compare=False)  # c_1..c_{n_terms}, >= 0
    j0_squared: float = field(init=False, compare=False)  # J_0(electrical_size/2)^2
    dc_level: float = field(init=False, compare=False)  # prefactor*j0_squared, large-lag floor

    def __post_init__(self) -> None:
        p = self.params
        if not isinstance(p, SwarmParams):
            raise ValidationError(f"params must be a SwarmParams, got {p!r}")
        object.__setattr__(self, "n_terms", _checked_int(self.n_terms, "n_terms"))
        d = derive(p)
        coeffs = harmonic_coefficients(d.electrical_size, p.n_blades, self.n_terms)
        coeffs.setflags(write=False)
        j0_sq = bessel_j(0, d.mod_index) ** 2
        object.__setattr__(self, "derived", d)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "j0_squared", j0_sq)
        object.__setattr__(self, "dc_level", _prefactor(p) * j0_sq)


def build_acf(params: SwarmParams, n_terms: int | None = None) -> AcfSeries:
    """Assemble the series coefficients for the given swarm.

    ``n_terms`` defaults to the truncation index plus a safety margin; it may
    be overridden (e.g. to probe truncation soundness).
    """
    if n_terms is None:
        cutoff = truncation_index(derive(params).electrical_size, params.n_blades)
        n_terms = cutoff + _series_margin(cutoff)
    return AcfSeries(params, n_terms)


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
    once per term, and each term keeps its exact Gaussian damping
    ``exp(-(n*u)**2/2)``, ``u = n_blades*speed_std*|tau|``.  Term n runs
    only on the sorted lags with ``n*u`` below ``_NORMAL_REACH`` (37.64),
    where the damping is a normal double, and the sum stops at the first
    term that reaches no lag.  A skipped term is below 2**-1021, so it
    cannot move a partial sum of magnitude 2**-966 or more, and where the
    partial sum is smaller ``j0_squared + 2*series`` rounds to
    ``j0_squared`` either way: the result equals the sum of every term at
    every lag bit for bit, and the cost scales with the (term, lag) pairs
    in reach.  At zero spread every term runs on every lag, undamped: its
    damping is exactly 1.0, so the term is the coefficient times the cosine.
    """
    p = acf.params
    t = _checked_array(tau, "tau", DomainError)
    lags = np.abs(t.ravel())
    if p.speed_std == 0.0:
        _check_phase(p.mean_speed, lags)
    with np.errstate(over="ignore"):
        phi = (p.n_blades * p.mean_speed) * lags
        u = (p.n_blades * p.speed_std) * lags
    # past ~1e305 s even the phase overflows, but the spread damps it fully
    overflow = ~np.isfinite(phi)
    phi[overflow] = 0.0
    u[overflow] = np.inf
    # in u, term n is a Gaussian of standard deviation 1/n centred at zero
    order, u, _, ends = _kernel_windows(u, 0.0, 1.0 / np.arange(1, acf.n_terms + 1),
                                        _NORMAL_REACH)
    # numpy rounds an in-place complex product over one element differently
    # from one over a longer array, so the phasors always turn over at least
    # two elements; a lone lag turns beside a copy of itself
    turning = np.maximum(ends, 2)
    # at zero spread every damping is exp(-0.0) == 1.0, which changes no bit
    damped = p.speed_std != 0.0
    if damped:
        decay = -0.5 * np.square(u[:ends[0]])
    step = phi[order[:turning[0]]]
    step = np.exp(1j * (np.repeat(step, 2) if step.size == 1 else step))
    phasor = step.copy()
    series = acc = np.zeros_like(u)
    term = np.empty(ends[0])
    for n, (coeff, end, turn) in enumerate(zip(acf.coefficients, ends.tolist(),
                                               turning.tolist()), start=1):
        if end == 0:
            break
        term, acc = term[:end], acc[:end]
        step, phasor = step[:turn], phasor[:turn]
        if damped:
            np.multiply(decay[:end], float(n * n), out=term)
            np.exp(term, out=term)
            term *= coeff
            term *= phasor.real[:end]
        else:
            np.multiply(coeff, phasor.real[:end], out=term)
        acc += term
        phasor *= step
    values = np.empty_like(series)
    values[order] = series
    return _shaped(_prefactor(p) * (acf.j0_squared + 2.0 * values), t)


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
    t = _checked_array(tau, "tau", DomainError)
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
    """Spectrum of the return: DC Dirac mass plus a mixture of Gaussians.

    The spectrum of the series ``acf`` (an :class:`AcfSeries`, else
    :class:`ValidationError`); every other field is computed from it.  The
    Gaussians come in mirror pairs at ``+-n_blades*n*mean_speed`` with
    standard deviation ``speed_std*n*n_blades``; ``side_masses[n-1]`` is the
    integral of each member of pair ``n``.  A series with zero speed
    variance raises :class:`DomainError`: its Gaussians degenerate to Dirac
    lines, handled by :func:`psd_line_spectrum` instead.
    """

    acf: AcfSeries
    params: SwarmParams = field(init=False, compare=False)
    derived: DerivedParams = field(init=False, compare=False)
    dc_weight: float = field(init=False, compare=False)
    centers: np.ndarray = field(init=False, compare=False)  # positive, pair n at n-1
    stds: np.ndarray = field(init=False, compare=False)
    side_masses: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        acf = self.acf
        if not isinstance(acf, AcfSeries):
            raise ValidationError(f"acf must be an AcfSeries, got {acf!r}")
        p = acf.params
        if p.speed_variance == 0.0:
            raise DomainError(
                "speed_variance is zero: the spectrum is a line spectrum; "
                "use psd_line_spectrum"
            )
        n = np.arange(1, acf.n_terms + 1, dtype=float)
        fields = dict(params=p, derived=acf.derived,
                      dc_weight=SQRT_TWO_PI * acf.dc_level,
                      centers=p.n_blades * p.mean_speed * n,
                      stds=p.speed_std * p.n_blades * n,
                      side_masses=2.0 * np.pi * _prefactor(p) * acf.coefficients)
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)


def build_psd(params: SwarmParams, n_terms: int | None = None) -> PsdMixture:
    """Assemble the Gaussian-mixture spectrum for the given swarm.

    Requires a spread rotor-speed distribution; see :class:`PsdMixture`.
    """
    return PsdMixture(build_acf(params, n_terms))


def _gaussian(x: np.ndarray, center, std, buffer: np.ndarray) -> np.ndarray:
    """The unit-height ``exp(-0.5*((x - center)/std)**2)``, computed in place
    in ``buffer[:x.size]`` in that order of operations, which it returns."""
    out = buffer[:x.size]
    np.subtract(x, center, out=out)
    out /= std
    np.square(out, out=out)
    out *= -0.5
    return np.exp(out, out=out)


def _mixture_sum(points: np.ndarray, psd: PsdMixture, scale: np.ndarray,
                 reach: float) -> np.ndarray:
    """The mixture at the non-negative ``points``, each Gaussian taken only
    within ``reach`` standard deviations of its center.

    Pair k adds ``scale[k]*(g(+c) + g(-c))``, in harmonic order, on two
    buffers reused across pairs; every point gets the bits of that sum over
    the pairs in reach, whatever the other points are.
    """
    c, s = psd.centers, psd.stds
    order, fs, (lo, _), (hi, hi_neg) = _kernel_windows(points, np.stack([c, -c]), s, reach)
    acc = np.zeros_like(fs)
    near, mirror = np.empty_like(fs), np.empty_like(fs)
    for k in np.flatnonzero(hi > lo):
        g = _gaussian(fs[lo[k]:hi[k]], c[k], s[k], near)
        # the -c window is [0, hi_neg); its upper bound is the negated lower
        # bound of +c, so where it is not empty lo[k] == 0
        if hi_neg[k]:
            g[:hi_neg[k]] += _gaussian(fs[:hi_neg[k]], -c[k], s[k], mirror)
        g *= scale[k]
        acc[lo[k]:hi[k]] += g
    values = np.empty_like(acc)
    values[order] = acc
    return values


def psd_eval(psd: PsdMixture, freq):
    """Continuous part of the spectrum at angular frequency ``freq`` (rad/s).

    The DC Dirac mass is reported separately in ``psd.dc_weight``, never as a
    density sample.  Mirror Gaussians are summed pairwise, so the result is
    exactly even in ``freq``.  Returns a float for a scalar frequency,
    otherwise an array of the input's shape; a non-finite frequency raises
    :class:`DomainError`.

    The mixture is evaluated at ``|freq|``, where the ``-c`` Gaussian of a
    pair is non-zero only near DC, inside the window of ``+c``.  A first
    pass adds each Gaussian only on the sorted ``|freq|`` within
    ``_NORMAL_REACH`` (37.64) standard deviations of its center, where it
    is a normal double; a skipped one is below 2**-1021 of its pair's
    height.  A density has no floor to absorb that, so every point whose
    first-pass value is below 2**-200 of the largest height is summed again
    within 39 standard deviations, past which a Gaussian is exactly zero in
    double precision.  So the result equals the sum of every pair at every
    frequency bit for bit, in O(n_points) memory, and the cost scales with
    the (Gaussian, frequency) pairs in reach.
    """
    f = _checked_array(freq, "freq", DomainError)
    points = np.abs(f.ravel())
    scale = psd.side_masses / (SQRT_TWO_PI * psd.stds)
    values = _mixture_sum(points, psd, scale, _NORMAL_REACH)
    faint = np.flatnonzero(values < 2.0 ** -200 * scale.max())
    values[faint] = _mixture_sum(points[faint], psd, scale, _KERNEL_REACH)
    return _shaped(values, f)


def psd_support(params: SwarmParams) -> tuple[float, float]:
    """Frequency interval (rad/s) that carries the whole spectrum tail.

    Symmetric: ``+-(electrical_size/2) * (mean_speed + 5*speed_std)``; the
    five-standard-deviation margin beyond the outermost kernel captures its
    tail entirely.
    """
    edge = band_edge(params)
    return (-edge, edge)


def psd_line_spectrum(params: SwarmParams) -> Curve:
    """Dirac-line spectrum in the deterministic-speed (zero-variance) limit.

    A :class:`Curve` on the ``angular_frequency_rad_per_s`` axis: lines at 0
    and ``+-n_blades*n*mean_speed``, ascending, with the mean power each
    carries as ``y``.  Mirror pairs are counted separately, so the pair
    count is the electrical size over the blade count.  The lines stop at
    the paper's cutoff, :func:`truncation_index`, so their sum can fall a
    few percent short of the zero-lag autocorrelation (0.3-2.8% on
    mavic-like with 1-4 blades).
    """
    if params.speed_variance != 0.0:
        raise DomainError(
            f"line spectrum requires speed_variance == 0, got {params.speed_variance!r}"
        )
    cutoff = truncation_index(derive(params).electrical_size, params.n_blades)
    acf = build_acf(params, cutoff)
    freqs = np.arange(1, cutoff + 1) * (params.n_blades * params.mean_speed)
    weights = _prefactor(params) * acf.coefficients
    return Curve(axis="angular_frequency_rad_per_s",
                 x=np.concatenate([-freqs[::-1], [0.0], freqs]),
                 y=np.concatenate([weights[::-1], [acf.dc_level], weights]),
                 meta={"kind": "psd_line_spectrum"})


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
    if not isinstance(order, str) or order not in ("magnitude", "index"):
        raise ValidationError(f"order must be 'magnitude' or 'index', got {order!r}")
    coeffs = harmonic_coefficients(electrical_size, n_blades, n_max)
    if order == "magnitude":
        coeffs = np.sort(coeffs)[::-1]
    cumulative = np.cumsum(coeffs)
    target = fraction * cumulative[-1]
    return int(np.searchsorted(cumulative, target) + 1)
