"""Monte Carlo check of the closed forms: the one comparison path.

The ``validate`` command and the acceptance tests both compare through
these functions, and the verdict thresholds below are the acceptance gate's
tolerances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (acf_deterministic_eval, acf_eval, build_acf, build_psd,
                       mainlobe_width, psd_eval, psd_support)
from .exceptions import DomainError, _checked_int
from .model import Curve, SamplingGrid, SwarmParams
from .simulate import AcfAccumulator, accumulate, estimate_psd

ACF_NRMSE_MAX = 0.05
PSD_NRMSE_MAX = 0.10
CONSISTENCY_MAX = 1e-6


@dataclass(frozen=True)
class Comparison:
    """A Monte Carlo estimate against its closed form at the compared points."""

    x: np.ndarray
    reference: np.ndarray
    estimate: np.ndarray

    @property
    def nrmse(self) -> float:
        """Root-mean-square error normalised by the reference RMS."""
        return float(np.sqrt(np.mean((self.estimate - self.reference) ** 2))
                     / np.sqrt(np.mean(self.reference ** 2)))


@dataclass(frozen=True)
class ValidationResult:
    """The ``report.json`` content and its overlays (``psd`` is None at zero spread)."""

    report: dict
    acf: Comparison
    psd: Comparison | None


def acf_window(params: SwarmParams, grid: SamplingGrid) -> int:
    """Lag count spanning 20 main-lobe widths, capped at the grid length."""
    return min(grid.n_samples,
               math.ceil(20.0 * mainlobe_width(params) / grid.dt) + 1)


def compare_acf(params: SwarmParams, grid: SamplingGrid, estimate: Curve) -> Comparison:
    """The real part of an estimate on lags ``grid.dt * k`` against the series,
    over the first :func:`acf_window` lags."""
    n_window = acf_window(params, grid)
    lags = estimate.x[:n_window]
    reference = acf_eval(build_acf(params), lags)
    return Comparison(lags, reference, np.real(estimate.y[:n_window]))


def compare_psd(params: SwarmParams, spectrum: Curve) -> tuple[Comparison, int]:
    """A spectrum estimate against the mixture density.

    Compares the support bins at least 1.5 bins from DC and outside
    ``max(5 std, 3 bins)`` of every kernel narrower than two bins, which the
    bin grid cannot resolve; also returns how many kernel pairs were excluded.
    Raises :class:`DomainError` when no bin is left, as on a grid too short
    to resolve any kernel.
    """
    psd = build_psd(params)
    freqs = spectrum.x
    reference = psd_eval(psd, freqs)
    dfreq = freqs[1] - freqs[0]
    mask = (np.abs(freqs) <= psd_support(params)[1]) & (np.abs(freqs) >= 1.5 * dfreq)
    narrow = psd.stds < 2.0 * dfreq
    for center, std in zip(psd.centers[narrow], psd.stds[narrow]):
        mask &= np.abs(np.abs(freqs) - center) > max(5.0 * std, 3.0 * dfreq)
    if not mask.any():
        raise DomainError(
            f"no spectrum bin is left to compare: every bin of {dfreq:.4g} rad/s "
            f"lies near DC or an unresolved kernel; raise n_samples (the spectrum "
            f"has {freqs.size} bins)")
    comparison = Comparison(freqs[mask], reference[mask], spectrum.y[mask])
    return comparison, int(np.count_nonzero(narrow))


def sigma_zero_error(params: SwarmParams) -> float:
    """Largest gap between the series and the finite-sum deterministic form
    over 1000 lags out to 10 main-lobe widths, relative to the zero-lag value."""
    acf = build_acf(params)
    taus = np.linspace(0.0, 10.0 * mainlobe_width(params), 1000)
    gap = np.abs(acf_eval(acf, taus) - acf_deterministic_eval(params, taus))
    return float(np.max(gap) / abs(acf_eval(acf, 0.0)))


def _loglog_slope(points: list) -> float | None:
    """Least-squares slope of ln nrmse on ln n, or None below two points."""
    if len(points) < 2:
        return None
    x = np.log([point["n"] for point in points])
    y = np.log([point["nrmse"] for point in points])
    x -= x.mean()
    return float(x @ (y - y.mean()) / (x @ x))


def validate(params: SwarmParams, grid: SamplingGrid, n_realizations: int,
             seed: int, *, n_workers: int = 1) -> ValidationResult:
    """Compare a seeded Monte Carlo ensemble against the closed forms.

    The ensemble is never stored (see :func:`accumulate`), so memory is
    O(block), and the result is bit-identical for any ``n_workers``.  When
    the rotor speeds spread, the time-average estimate is accumulated too
    and its spectrum compared, else the series against the finite sum.

    The realizations are fed in consecutive ranges that end at 128, 256,
    512, ... below ``n_realizations`` and then at ``n_realizations``; the
    ACF nRMSE after each range is the report's ``acf.convergence``, and
    ``acf.convergence_slope`` is the least-squares slope of its log-log
    line (near -1/2; None for one point).  Every split is a multiple of the
    32-row block from 0, so the blocks and the folded sums are bit for bit
    those of one call over ``[0, n_realizations)``.
    """
    n_realizations = _checked_int(n_realizations, "n_realizations")
    # compare_acf reads only the first acf_window lags
    single = AcfAccumulator(grid, n_lags=acf_window(params, grid))
    averaged = AcfAccumulator(grid, time_average=True) \
        if params.speed_variance > 0.0 else None
    accumulators = [acc for acc in (single, averaged) if acc is not None]
    convergence, start = [], 0
    while start < n_realizations:
        stop = min(max(2 * start, 128), n_realizations)
        accumulate(params, grid, seed, accumulators, start, stop, n_workers=n_workers)
        acf = compare_acf(params, grid, single.curve())
        convergence.append({"n": stop, "nrmse": acf.nrmse})
        start = stop
    acf_pass = bool(acf.nrmse <= ACF_NRMSE_MAX)
    report = {
        "n_realizations": n_realizations,
        "master_seed": int(seed),
        "thresholds": {"acf_nrmse": ACF_NRMSE_MAX, "psd_nrmse": PSD_NRMSE_MAX,
                       "sigma_zero_consistency": CONSISTENCY_MAX},
        "acf": {"estimator": "single_reference", "nrmse": acf.nrmse, "pass": acf_pass,
                "window_lags": int(acf.x.size), "window_span_s": float(acf.x[-1]),
                "mainlobe_width_s": mainlobe_width(params),
                "convergence": convergence,
                "convergence_slope": _loglog_slope(convergence)},
    }
    psd = None
    if averaged is not None:
        psd, n_narrow = compare_psd(params, estimate_psd(averaged.curve()))
        other_pass = bool(psd.nrmse <= PSD_NRMSE_MAX)
        report["psd"] = {"estimator": "time_average", "nrmse": psd.nrmse,
                         "pass": other_pass, "bins_compared": int(psd.x.size),
                         "narrow_kernels_excluded": n_narrow}
    else:
        error = sigma_zero_error(params)
        other_pass = bool(error <= CONSISTENCY_MAX)
        report["sigma_zero_consistency"] = {"max_relative_error": error,
                                            "pass": other_pass}
    report["overall_pass"] = acf_pass and other_pass
    report["advisories"] = []
    if not report["overall_pass"] and n_realizations < 2000:
        report["advisories"].append(
            f"insufficient realization count (N={n_realizations}) for the Monte "
            "Carlo thresholds; rerun with a larger --n before treating this as "
            "a model failure")
    return ValidationResult(report, acf, psd)
