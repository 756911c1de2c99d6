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
from .special import (J0_MAX_ABS_ARG, MAX_ABS_ARG, MAX_ORDER, _j0_vector, _start_order,
                      bessel_j_many)

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
# The evaluators' first pass stops each term where it is below _EPSILON (in
# units of the largest coefficient or Gaussian height) and keeps a point's sum
# A only when np.spacing(|A|) > 4*_EPSILON, so that adding any skipped term
# to A rounds back to A; the other points go on with the terms they skipped.
# A power of two, so a kept series sum has spacing >= 8*_EPSILON, that is
# |A| >= 2**-35.  A larger value sends more points on
# (2**-70 took a fifth to a third longer on the benchmark's sweep); a smaller
# one widens every reach as sqrt(2*ln(1/_EPSILON)), 11.2 standard deviations
# for a unit height here.  The sweep's evaluator time was flat within 5%
# from 2**-80 to 2**-120, and 2**-90 sits inside that plateau
_EPSILON = 2.0 ** -90
# float64 phases are a whole radian apart from 2**52 rad on, so no digit of a
# rotor phase mean_speed*|tau| beyond it is known within its turn
PHASE_MAX = 2.0 ** 52
# the one global factor relating psd_eval to the plain integral transform of
# the autocorrelation, pinned by the transform round-trip check
CONVENTION_CONSTANT = 1.0
# acf_deterministic_eval walks the lags in tiles of this many, so its
# temporaries are a few tile-sized arrays (~0.6 MB) whatever the lag count.
# Its time per call at 20,001 and 200,001 lags, 2 and 8 blades, on a 2-vCPU
# AVX-512 Xeon was flat from 8192 to 32768, ~10% longer at 4096 and 20-40%
# longer at 2048
_TILE = 8192


def _check_phase(mean_speed: float, tau: np.ndarray) -> None:
    """Refuse lags whose rotor phase ``mean_speed*|tau|`` exceeds PHASE_MAX."""
    # the largest |tau| without an |tau| temporary the size of tau
    lag = float(max(np.max(tau, initial=0.0), -np.min(tau, initial=0.0)))
    with np.errstate(over="ignore"):
        phase = np.float64(mean_speed) * lag
    if not phase <= PHASE_MAX:
        raise DomainError(f"tau too large: the rotor phase at |tau| = {lag!r} s "
                          f"exceeds 2**52 rad, past which float64 phases are a "
                          f"radian apart")


def _windows(ordered: np.ndarray, centers, stds, reach):
    """Index arrays ``lo``, ``hi`` of the shape of ``centers``, ``stds`` and
    ``reach`` broadcast: Gaussian k is evaluated only on
    ``ordered[lo[k]:hi[k]]``, the sorted points within ``reach[k]``
    standard deviations of its center."""
    bound = reach * stds
    return np.searchsorted(ordered, np.stack(np.broadcast_arrays(centers - bound,
                                                                 centers + bound)))


def _reaches(heights: np.ndarray, floor: float) -> np.ndarray:
    """Reach of each term of the first pass, in its standard deviations.

    Term k, a Gaussian of height ``heights[k]``, runs out to
    ``min(_NORMAL_REACH, sqrt(2*ln(T_k/floor)))``, where ``T_k`` is the
    largest of ``heights[k:]`` (0 where ``T_k <= floor``): past its reach a
    term is below ``floor``.  The reach never grows with k, so the terms a
    point is beyond are a suffix in harmonic order.
    """
    tail = np.maximum.accumulate(heights[::-1])[::-1]
    # a floor that underflowed to 0 gives T_k/floor = inf, or nan where
    # T_k is 0 too: reach _NORMAL_REACH, or 0 for a term that is 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = np.log(tail / floor)
    return np.minimum(_NORMAL_REACH, np.sqrt(2.0 * np.fmax(logs, 0.0)))


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
    """The paper's cutoff: the harmonic index where the Bessel order
    ``n_blades*n`` reaches the argument ``electrical_size/2``.

    Past it the squared coefficients enter Airy's transition region and then
    fall off faster than geometrically, but they are not yet negligible:
    the series itself runs on to where the Bessel kernel starts its
    recurrence (:func:`build_acf`), which is where the mixture's lines and
    the power table stop too.  This index is reported, never summed to.
    """
    electrical_size = _checked_real(electrical_size, "electrical_size", gt=0)
    return math.ceil(electrical_size / (2.0 * _checked_int(n_blades, "n_blades")))


def _checked_size(electrical_size) -> float:
    """``electrical_size`` as a float, refused outside the series envelope."""
    electrical_size = _checked_real(electrical_size, "electrical_size")
    _check_envelope(electrical_size, 2.0 * MAX_ABS_ARG, "series form")
    return electrical_size


def _series_terms(electrical_size: float, n_blades: int) -> int:
    """Number of harmonics every series sum keeps: each whose Bessel order
    ``n_blades*n`` lies below the order the Miller recurrence of
    :mod:`.special` starts from at ``x = electrical_size/2``.

    The power the rule leaves out, ``sum_{nu>K} J_nu(x)**2`` past that
    order K, is below ``_EPSILON`` (2**-90), the size of a term the
    evaluators skip, over the whole envelope.
    """
    x = abs(_checked_size(electrical_size)) / 2.0
    return math.ceil(_start_order(0, x) / _checked_int(n_blades, "n_blades"))


def harmonic_coefficients(electrical_size: float, n_blades: int, n_max: int) -> np.ndarray:
    """Squared-Bessel coefficients c_n = J_{n_blades*n}(electrical_size/2)^2.

    Returns c_1..c_n_max.  Orders beyond the Bessel evaluation envelope are
    returned as exact zeros: for any in-envelope argument (<= 2000) the
    squared value at order >= 3000 is below 1e-250 and cannot move a
    double-precision cumulative sum.  An electrical size beyond
    ``2*MAX_ABS_ARG`` (blade/wavelength 159.15) raises DomainError.
    """
    return _squared_orders(electrical_size, n_blades, n_max)[1:]


def _squared_orders(electrical_size: float, n_blades: int, n_max: int) -> np.ndarray:
    """J_{n_blades*n}(electrical_size/2)^2 for n = 0..n_max, from one Bessel
    column: J_0^2, then the coefficients of :func:`harmonic_coefficients`."""
    half = _checked_size(electrical_size) / 2.0
    n_blades = _checked_int(n_blades, "n_blades")
    n_max = _checked_int(n_max, "n_max")
    top = min(n_blades * n_max, MAX_ORDER)
    column = bessel_j_many(top, half)
    squares = np.zeros(n_max + 1)
    reachable = top // n_blades
    squares[:reachable + 1] = column[n_blades * np.arange(reachable + 1)] ** 2
    return squares


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
        # J_0^2 and the coefficients from one Bessel column
        squares = _squared_orders(d.electrical_size, p.n_blades, self.n_terms)
        coeffs = squares[1:]
        coeffs.setflags(write=False)
        j0_sq = float(squares[0])
        object.__setattr__(self, "derived", d)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "j0_squared", j0_sq)
        object.__setattr__(self, "dc_level", _prefactor(p) * j0_sq)


def build_acf(params: SwarmParams) -> AcfSeries:
    """Assemble the series coefficients for the given swarm.

    The series keeps every harmonic whose Bessel order ``n_blades*n`` lies
    below the order the kernel's recurrence starts from at
    ``electrical_size/2``, so it leaves out less than 2**-90 of the Bessel
    power ``J_0**2 + 2*sum J_k**2 = 1``: 67 terms on mavic-like, whose
    paper cutoff (:func:`truncation_index`) is 44.
    ``AcfSeries(params, n_terms)`` cuts the series elsewhere.
    """
    return AcfSeries(params, _series_terms(derive(params).electrical_size, params.n_blades))


def _series_sum(acf: AcfSeries, u: np.ndarray, phi: np.ndarray, acc: np.ndarray,
                start: np.ndarray, stop: np.ndarray, damped: bool) -> np.ndarray:
    """Add the harmonics to ``acc`` at the sorted ``u`` (``phi`` in the same
    order) and return it.

    Term n is added on ``u[start[n-1]:stop[n-1]]``, in harmonic order, and
    the sum stops at the first term whose ``stop`` is 0; ``stop`` never
    grows with n.  Every lag's phasor turns once per term up to there.
    """
    # numpy rounds an in-place complex product over one element differently
    # from one over a longer array, so the phasors always turn over at least
    # two elements; a lone lag turns beside a copy of itself
    turning = np.maximum(stop, 2)
    if damped:
        decay = -0.5 * np.square(u[:stop[0]])
    step = phi[:turning[0]]
    step = np.exp(1j * (np.repeat(step, 2) if step.size == 1 else step))
    phasor = step.copy()
    term = np.empty(stop[0])
    for n, (coeff, a, b, turn) in enumerate(zip(acf.coefficients, start.tolist(),
                                                stop.tolist(), turning.tolist()), start=1):
        if b == 0:
            break
        step, phasor = step[:turn], phasor[:turn]
        if b > a:
            out = term[:b - a]
            if damped:
                np.multiply(decay[a:b], float(n * n), out=out)
                np.exp(out, out=out)
                out *= coeff
                out *= phasor.real[a:b]
            else:
                np.multiply(coeff, phasor.real[a:b], out=out)
            acc[a:b] += out
        phasor *= step
    return acc


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
    ``exp(-(n*u)**2/2)``, ``u = n_blades*speed_std*|tau|``.  On the sorted
    lags, a first pass runs term n only where ``n*u`` is below its reach
    ``R_n = min(37.64, sqrt(2*ln(T_n/2**-90)))``, ``T_n`` the largest
    coefficient from n on, so a skipped term is below 2**-90 and the terms
    skipped at a lag are a suffix in harmonic order.  A lag keeps its sum A
    when ``np.spacing(|A|) > 2**-88``: each skipped term is below a quarter
    ulp of A, so adding them changes no bit.  The other lags, mostly where
    the series has damped to ~0, go on with the terms they skipped, in
    harmonic order, term n out to ``_NORMAL_REACH`` (37.64), where the
    damping stops being a normal double: a term skipped there is below 2**-1021, so it cannot move a
    partial sum of magnitude 2**-966 or more, and where the partial sum is
    smaller ``j0_squared + 2*series`` rounds to ``j0_squared`` either way.
    Every lag's value is decided by that lag alone, and it equals the sum
    of every term at every lag bit for bit; the cost scales with the
    (term, lag) pairs in reach.  At zero spread every damping is exactly
    1.0, so the term is the coefficient times the cosine, and every term
    with a tail above 2**-90 runs on every lag.
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
    widths = 1.0 / np.arange(1, acf.n_terms + 1)
    reach = _reaches(acf.coefficients, _EPSILON)
    order = np.argsort(u, kind="stable")
    u, phi = u[order], phi[order]
    _, ends = _windows(u, 0.0, widths, reach)
    # at zero spread every damping is exp(-0.0) == 1.0, which changes no bit
    damped = p.speed_std != 0.0
    series = _series_sum(acf, u, phi, np.zeros_like(u), np.zeros_like(ends), ends, damped)
    # only the lags past the last term's reach skipped a term; the rest go
    # on with the terms they skipped
    rest = ends[-1] + np.flatnonzero(np.spacing(np.abs(series[ends[-1]:]))
                                     <= 4.0 * _EPSILON)
    if rest.size:
        sub = u[rest]
        _, full = _windows(sub, 0.0, widths, _NORMAL_REACH)
        series[rest] = _series_sum(acf, sub, phi[rest], series[rest],
                                   np.searchsorted(sub, reach * widths), full, damped)
    values = np.empty_like(series)
    values[order] = series
    return _shaped(_prefactor(p) * (acf.j0_squared + 2.0 * values), t)


def _j0_offset(theta: np.ndarray, shift: float, size: float,
               buf: np.ndarray) -> np.ndarray:
    """A new array of ``J_0(size*sin(theta - shift))``, formed in ``buf``."""
    np.subtract(theta, shift, out=buf)
    np.sin(buf, out=buf)
    # J_0 is even; its array kernel takes |x|
    np.abs(buf, out=buf)
    buf *= size
    return _j0_vector(buf)


def acf_deterministic_eval(params: SwarmParams, tau):
    """Exact autocorrelation for deterministic rotor speed (no truncation).

    A finite sum of J_0 terms over blade-index offsets; the speed variance in
    ``params`` is ignored.  J_0 takes the full electrical size, up to
    ``J0_MAX_ABS_ARG``, so the form refuses blade/wavelength above 159.15
    with :class:`DomainError`, as the series form does.  Lags follow the
    zero-spread contract of :func:`acf_eval`, refused past ``PHASE_MAX``.

    With ``theta = mean_speed*tau/2`` and ``nb`` blades, the value is
    ``|gain|^2 * n_drones * n_rotors`` times
    ``nb*J_0(x_0) + sum_{k=1}^{nb-1} (nb - k)*(J_0(x_k) + J_0(x_-k))``,
    ``x_k = electrical_size*sin(theta - k*pi/nb)``, summed in that order:
    the centre term, then the pairs in increasing k.  The lags are walked
    in tiles of ``_TILE`` (8192), one offset at a time, so the working
    memory is the output plus O(tile) whatever the lag and blade counts:
    at 2**18 lags the traced peak is ~11 B per lag, 8 of them the output,
    with 1 to 8 blades.  Every lag's value is decided by that lag alone: a
    scalar call and the same lag anywhere in an array give the same bits.
    """
    d = derive(params)
    _check_envelope(d.electrical_size, J0_MAX_ABS_ARG, "deterministic form")
    t = _checked_array(tau, "tau", DomainError)
    _check_phase(params.mean_speed, t)
    nb = params.n_blades
    size = d.electrical_size
    half_speed = 0.5 * params.mean_speed
    lags = t.ravel()
    values = np.empty_like(lags)
    width = min(_TILE, lags.size)
    theta, buf = np.empty(width), np.empty(width)
    for start in range(0, lags.size, _TILE):
        out = values[start:start + _TILE]
        # the last tile may be shorter
        theta, buf = theta[:out.size], buf[:out.size]
        np.multiply(half_speed, lags[start:start + _TILE], out=theta)
        np.multiply(_j0_offset(theta, 0.0, size, buf), nb, out=out)
        for k in range(1, nb):
            shift = (np.pi / nb) * k
            pair = _j0_offset(theta, shift, size, buf)
            pair += _j0_offset(theta, -shift, size, buf)
            pair *= nb - k
            out += pair
    values *= params.gain_magnitude ** 2 * params.n_drones * params.n_rotors
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
    integral of each member of pair ``n``, and ``dc_weight``, the Dirac mass
    at DC, is ``2*pi*dc_level`` in the same convention: with both members
    of every pair it sums to ``2*pi*acf_eval(acf, 0)``.  A series with
    zero speed variance raises :class:`DomainError`: its Gaussians
    degenerate to Dirac lines, handled by :func:`psd_line_spectrum` instead.
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
                      dc_weight=2.0 * np.pi * acf.dc_level,
                      centers=p.n_blades * p.mean_speed * n,
                      stds=p.speed_std * p.n_blades * n,
                      side_masses=2.0 * np.pi * _prefactor(p) * acf.coefficients)
        for name, value in fields.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)


def build_psd(params: SwarmParams) -> PsdMixture:
    """Assemble the Gaussian-mixture spectrum of :func:`build_acf`'s series,
    one pair of Gaussians per harmonic it keeps.

    Requires a spread rotor-speed distribution; see :class:`PsdMixture`.
    Another cut is ``PsdMixture(AcfSeries(params, n_terms))``.
    """
    return PsdMixture(build_acf(params))


def _gaussian(x: np.ndarray, center, std, buffer: np.ndarray) -> np.ndarray:
    """The unit-height ``exp(-0.5*((x - center)/std)**2)``, computed in place
    in ``buffer[:x.size]`` in that order of operations, which it returns."""
    out = buffer[:x.size]
    np.subtract(x, center, out=out)
    out /= std
    np.square(out, out=out)
    out *= -0.5
    return np.exp(out, out=out)


def _add_pairs(fs: np.ndarray, acc: np.ndarray, psd: PsdMixture, scale: np.ndarray,
               start: np.ndarray, stop: np.ndarray, mirror_stop: np.ndarray) -> np.ndarray:
    """Add the mixture's pairs to ``acc`` at the sorted non-negative ``fs``.

    Pair k adds ``scale[k]*(g(+c) + g(-c))`` on ``fs[start[k]:stop[k]]``,
    in harmonic order, with the ``-c`` Gaussian only below
    ``mirror_stop[k]``, on two buffers reused across pairs; every point
    gets the bits of that sum over the pairs in reach, whatever the other
    points are.  Returns ``acc``.
    """
    c, s = psd.centers, psd.stds
    near, mirror = np.empty_like(fs), np.empty_like(fs)
    for k in np.flatnonzero(stop > start):
        a, b = start[k], stop[k]
        g = _gaussian(fs[a:b], c[k], s[k], near)
        # the -c window's upper bound is the negated lower bound of +c, so
        # it ends inside the +c window
        m = min(mirror_stop[k], b)
        if m > a:
            g[:m - a] += _gaussian(fs[a:m], -c[k], s[k], mirror)
        g *= scale[k]
        acc[a:b] += g
    return acc


def psd_eval(psd: PsdMixture, freq):
    """Continuous part of the spectrum at angular frequency ``freq`` (rad/s).

    The DC Dirac mass is reported separately in ``psd.dc_weight``, never as a
    density sample.  Mirror Gaussians are summed pairwise, so the result is
    exactly even in ``freq``.  Returns a float for a scalar frequency,
    otherwise an array of the input's shape; a non-finite frequency raises
    :class:`DomainError`.

    The mixture is evaluated at the sorted ``|freq|``, where the ``-c``
    Gaussian of a pair is non-zero only near DC, inside the window of
    ``+c``.  Each pair runs up to ``_NORMAL_REACH`` (37.64) standard
    deviations above its center, where a Gaussian stops being a normal
    double; a Gaussian skipped there is below 2**-1021 of its pair's
    height.  Below its center, a first pass runs pair k only from
    ``min_{m>=k} (c_m - R_m*s_m)``, with ``R_m = min(37.64,
    sqrt(2*ln(T_m/(2**-90*H))))``, ``T_m`` the largest pair height (twice
    the Gaussian's) from m on and H the largest Gaussian height: a pair
    skipped there is below 2**-90*H, and the pairs a point skips are a
    suffix in harmonic order.  A point keeps its sum A when
    ``np.spacing(A) > 2**-88*H``, so each skipped pair is below half an
    ulp of A and adding it changes no bit.  The other points go on with
    the skipped pairs out to 37.64 standard deviations, in harmonic order.
    A density has no floor to absorb what even that skips, so every point
    whose value is below 2**-200*H is summed again within 39 standard
    deviations, past which a Gaussian is exactly zero in double precision.
    Every point's value is decided by that point alone, and it equals the
    sum of every pair at every frequency bit for bit, in O(n_points)
    memory; the cost scales with the (Gaussian, frequency) pairs in reach.
    """
    f = _checked_array(freq, "freq", DomainError)
    points = np.abs(f.ravel())
    c, s = psd.centers, psd.stds
    both = np.stack([c, -c])
    scale = psd.side_masses / (SQRT_TWO_PI * s)
    height = scale.max()
    order = np.argsort(points, kind="stable")
    fs = points[order]
    _, (hi, mirror_hi) = _windows(fs, both, s, _NORMAL_REACH)
    starts = c - _reaches(2.0 * scale, _EPSILON * height) * s
    starts = np.minimum.accumulate(starts[::-1])[::-1]
    first = np.searchsorted(fs, starts)
    acc = _add_pairs(fs, np.zeros_like(fs), psd, scale, first, hi, mirror_hi)
    rest = np.flatnonzero(np.spacing(acc) <= 4.0 * _EPSILON * height)
    if rest.size:
        sub = fs[rest]
        (lo, _), (_, mirror_hi) = _windows(sub, both, s, _NORMAL_REACH)
        acc[rest] = _add_pairs(sub, acc[rest], psd, scale, lo,
                               np.searchsorted(sub, starts), mirror_hi)
        faint = rest[acc[rest] < 2.0 ** -200 * height]
        sub = fs[faint]
        (lo, _), (hi, mirror_hi) = _windows(sub, both, s, _KERNEL_REACH)
        acc[faint] = _add_pairs(sub, np.zeros_like(sub), psd, scale, lo, hi, mirror_hi)
    values = np.empty_like(acc)
    values[order] = acc
    return _shaped(values, f)


def psd_support(params: SwarmParams) -> tuple[float, float]:
    """Frequency interval (rad/s) the ``psd`` curve covers:
    ``+-band_edge(params)``, that is
    ``+-(electrical_size/2) * (mean_speed + 5*speed_std)``.

    Not the whole spectrum: the series' higher Gaussians lie past the edge,
    with 0.25% of the side mass on mavic-like (see :func:`band_edge`).
    """
    edge = band_edge(params)
    return (-edge, edge)


def psd_line_spectrum(params: SwarmParams) -> Curve:
    """Dirac-line spectrum in the deterministic-speed (zero-variance) limit.

    A :class:`Curve` on the ``angular_frequency_rad_per_s`` axis: lines at 0
    and ``+-n_blades*n*mean_speed``, ascending, with the mean power each
    carries as ``y``: ``dc_level`` and the weighted coefficients of
    :func:`build_acf`'s series, a mirror pair per harmonic it keeps (67 on
    mavic-like).  The weights sum to ``acf_eval(build_acf(params), 0)``;
    lines cut at the paper's :func:`truncation_index` would fall 0.3-2.8%
    short of it on mavic-like with 1-4 blades.
    """
    if params.speed_variance != 0.0:
        raise DomainError(
            f"line spectrum requires speed_variance == 0, got {params.speed_variance!r}"
        )
    acf = build_acf(params)
    freqs = np.arange(1, acf.n_terms + 1) * (params.n_blades * params.mean_speed)
    weights = _prefactor(params) * acf.coefficients
    return Curve(axis="angular_frequency_rad_per_s",
                 x=np.concatenate([-freqs[::-1], [0.0], freqs]),
                 y=np.concatenate([weights[::-1], [acf.dc_level], weights]),
                 meta={"kind": "psd_line_spectrum"})


def coefficient_power_fraction(electrical_size: float, n_blades: int,
                               fraction: float, *, order: str = "magnitude") -> int:
    """Number of coefficients needed to hold ``fraction`` of the series power.

    Power is the cumulative sum of c_n over the coefficients a series of
    this size keeps (those of :func:`build_acf`), whose total is within
    2**-90 of the whole series'.  ``order`` selects the cumulation rule:
    ``"magnitude"`` sorts coefficients in descending size first, ``"index"``
    keeps natural harmonic order.  Both are exposed because neither ordering
    is canonical.
    """
    _checked_real(fraction, "fraction", gt=0, lt=1)
    if not isinstance(order, str) or order not in ("magnitude", "index"):
        raise ValidationError(f"order must be 'magnitude' or 'index', got {order!r}")
    coeffs = harmonic_coefficients(electrical_size, n_blades,
                                   _series_terms(electrical_size, n_blades))
    if order == "magnitude":
        coeffs = np.sort(coeffs)[::-1]
    cumulative = np.cumsum(coeffs)
    target = fraction * cumulative[-1]
    return int(np.searchsorted(cumulative, target) + 1)
