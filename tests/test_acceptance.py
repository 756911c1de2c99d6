"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Tolerances are fixed here; the last test holds ``validate``'s thresholds
to them.  A1, A2 and A4 compare through ``swarmdoppler.validation``, as
``validate`` does.  Reference numbers marked "pinned" were computed
beforehand with 40-digit arithmetic or an independent brute-force oracle.
"""
import numpy as np
import pytest
import scipy.optimize

import swarmdoppler as sd
from swarmdoppler import validation
from helpers import (bessel_phase_average, bessel_phase_average_closed, mavic_params,
                     fit_convention_constant, random_params, transform_of_analytic_acf)

ACF_NRMSE_MAX = 0.05
PSD_NRMSE_MAX = 0.10
CONSISTENCY_MAX = 1e-6
WIDTH_TOL = 0.05
ODD_AVERAGE_MAX = 1e-11
COEFF_MATCH_MAX = 1e-9
WK_POINTWISE_MAX = 0.01
WK_CONSTANT_TOL = 1e-3
BAND_LEAK_MAX = 0.01

# pinned by 40-digit arithmetic at the reference configuration
PINNED_MEDIAN_C1_44 = 0.005534678407140605
PINNED_MAX_C48_60 = 4.118416148344036e-05
PINNED_MIN_C1_44 = 4.083465534680044e-05
PINNED_MAX_C1_44 = 0.0230343674416149


def report(tag: str, passed: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if passed else 'FAIL'} {detail}", flush=True)
    assert passed, f"{tag}: {detail}"


def test_a1_acf_monte_carlo_match(mavic, mavic_grid, mavic_ensemble):
    comparison = validation.compare_acf(mavic, mavic_grid,
                                        sd.estimate_acf(mavic_ensemble))
    value = comparison.nrmse
    spans = comparison.x[-1] / sd.mainlobe_width(mavic)
    report("A1", value <= ACF_NRMSE_MAX,
           f"acf nrmse {value:.4f} <= {ACF_NRMSE_MAX} over {spans:.1f} "
           f"main-lobe widths, N={mavic_ensemble.n_realizations}")


def test_a2_psd_monte_carlo_match(mavic, mavic_ensemble):
    spectrum = sd.estimate_psd(sd.estimate_acf(mavic_ensemble, time_average=True))
    comparison, _ = validation.compare_psd(mavic, spectrum)
    value = comparison.nrmse
    report("A2", value <= PSD_NRMSE_MAX,
           f"psd nrmse {value:.4f} <= {PSD_NRMSE_MAX} over "
           f"{comparison.x.size} support bins")


def test_a3_truncation_cutoff(mavic):
    size = sd.derive(mavic).electrical_size
    cutoff = sd.truncation_index(size, mavic.n_blades)
    coeffs = sd.harmonic_coefficients(size, mavic.n_blades, 60)
    median_head = float(np.median(coeffs[:44]))
    tail_max = float(coeffs[47:60].max())
    head_min = float(coeffs[:44].min())
    head_max = float(coeffs[:44].max())
    # decay profile pinned beforehand by the direct Bessel oracle
    assert median_head == pytest.approx(PINNED_MEDIAN_C1_44, rel=1e-10)
    assert tail_max == pytest.approx(PINNED_MAX_C48_60, rel=1e-8)
    assert head_min == pytest.approx(PINNED_MIN_C1_44, rel=1e-8)
    assert head_max == pytest.approx(PINNED_MAX_C1_44, rel=1e-10)
    ok = (cutoff == 44
          and tail_max < 1e-2 * median_head
          and head_max / head_min <= 1e3)
    report("A3", ok,
           f"cutoff {cutoff} == 44; max c_48..60 {tail_max:.3e} < "
           f"{1e-2 * median_head:.3e}; head spread x{head_max / head_min:.0f} "
           "within 3 decades")


def test_a4_zero_spread_consistency():
    rng = np.random.default_rng(404)
    cases = [mavic_params(speed_variance=0.0)]
    cases += [random_params(rng, sigma_zero=True) for _ in range(20)]
    worst = max(validation.sigma_zero_error(params) for params in cases)
    report("A4", worst <= CONSISTENCY_MAX,
           f"series vs finite-sum max relative error {worst:.2e} <= "
           f"{CONSISTENCY_MAX} across {len(cases)} parameter sets")


def _first_null(params) -> float:
    width = sd.mainlobe_width(params)
    taus = np.linspace(1e-9, 3.0 * width, 4000)
    values = sd.acf_deterministic_eval(params, taus)
    idx = np.nonzero(values[:-1] * values[1:] < 0)[0][0]
    return scipy.optimize.brentq(
        lambda t: sd.acf_deterministic_eval(params, float(t)),
        taus[idx], taus[idx + 1], xtol=1e-16)


def test_a5_mainlobe_width():
    params = mavic_params()
    width = sd.mainlobe_width(params)
    null = _first_null(params)
    base_err = abs(null - width) / width
    # inverse proportionality in blade length and rotation speed
    null_half_blade = _first_null(mavic_params(blade_length=0.105))
    null_double_speed = _first_null(mavic_params(mean_speed=1046.0))
    ratio_blade = null_half_blade / null
    ratio_speed = null_double_speed / null
    ok = (base_err <= WIDTH_TOL
          and abs(ratio_blade - 2.0) <= 2.0 * WIDTH_TOL
          and abs(ratio_speed - 0.5) <= 0.5 * WIDTH_TOL)
    report("A5", ok,
           f"first null {null:.4e}s vs width estimate {width:.4e}s "
           f"({100 * base_err:.1f}%); halved blade ratio {ratio_blade:.3f}, "
           f"doubled speed ratio {ratio_speed:.3f}")


def test_a6_phase_average_identity():
    worst_odd = 0.0
    worst_even = 0.0
    for size in (1.0, 10.0, 175.9292):
        for n in range(0, 13):
            quad = bessel_phase_average(n, size)
            if n % 2 == 1:
                worst_odd = max(worst_odd, abs(quad))
            else:
                closed = bessel_phase_average_closed(n, size)
                worst_even = max(worst_even, abs(quad - closed))
    ok = worst_odd <= ODD_AVERAGE_MAX and worst_even <= COEFF_MATCH_MAX
    report("A6", ok,
           f"odd-order residue {worst_odd:.2e} <= {ODD_AVERAGE_MAX}; "
           f"even-order closed-form gap {worst_even:.2e} <= {COEFF_MATCH_MAX}")


def test_a7_transform_closure():
    rng = np.random.default_rng(707)
    cases = [mavic_params()]
    cases += [random_params(rng, min_rel_spread=0.02) for _ in range(5)]
    worst_rel = 0.0
    worst_const = 0.0
    for params in cases:
        curve, psd = transform_of_analytic_acf(params)
        scale, max_rel, _ = fit_convention_constant(curve, psd)
        worst_rel = max(worst_rel, max_rel)
        worst_const = max(worst_const, abs(scale - sd.analytic.CONVENTION_CONSTANT))
    ok = worst_rel <= WK_POINTWISE_MAX and worst_const <= WK_CONSTANT_TOL
    report("A7", ok,
           f"transform of sampled acf vs mixture: pointwise {worst_rel:.2e} "
           f"<= {WK_POINTWISE_MAX}, constant offset {worst_const:.2e} <= "
           f"{WK_CONSTANT_TOL}, {len(cases)} parameter sets")


def test_a8_ensemble_determinism(mavic):
    grid = sd.default_grid(mavic, n_samples=512)
    baseline = sd.simulate_ensemble(mavic, grid, 96, 2024, n_workers=1)
    identical = True
    for workers in (1, 4, 8):
        again = sd.simulate_ensemble(mavic, grid, 96, 2024, n_workers=workers)
        identical &= bool(np.array_equal(baseline.signals, again.signals))
        identical &= again.signals.dtype == baseline.signals.dtype
    report("A8", identical,
           "96-realization ensembles bit-identical across reruns and "
           "worker counts {1, 4, 8}")


def test_a9_band_confinement(mavic):
    # oversampled grid so frequencies beyond the support interval exist
    grid = sd.default_grid(mavic, oversample=2.0, n_samples=8001)
    ensemble = sd.simulate_ensemble(mavic, grid, 1, 42)
    spec = sd.spectrogram(ensemble.signals[0].astype(np.complex128), grid)
    _, hi = sd.psd_support(mavic)
    outside = np.abs(spec.freqs) > hi
    fraction = float(spec.power[outside].sum() / spec.power.sum())
    report("A9", fraction < BAND_LEAK_MAX,
           f"spectrogram energy outside the support interval: "
           f"{100 * fraction:.3f}% < {100 * BAND_LEAK_MAX:.0f}%")


def test_a10_linearity_and_symmetry_suite():
    rng = np.random.default_rng(1010)
    checked = 0
    for _ in range(100):
        params = random_params(rng, min_rel_spread=0.01)
        acf = sd.build_acf(params)
        taus = rng.uniform(-0.05, 0.05, 32)
        values = sd.acf_eval(acf, taus)
        peak = sd.acf_eval(acf, 0.0)
        # evenness and boundedness
        assert np.array_equal(values, sd.acf_eval(acf, -taus))
        assert np.all(np.abs(values) <= peak * (1.0 + 1e-9))
        # exact scaling in the drone and rotor counts (power-of-two factors)
        doubled = sd.build_acf(
            sd.SwarmParams(params.n_drones * 2, params.n_rotors,
                           params.n_blades, params.blade_length,
                           params.wavelength, params.mean_speed,
                           params.speed_variance, params.gain_magnitude))
        assert np.array_equal(sd.acf_eval(doubled, taus), 2.0 * values)
        quad_rotors = sd.build_acf(
            sd.SwarmParams(params.n_drones, params.n_rotors * 4,
                           params.n_blades, params.blade_length,
                           params.wavelength, params.mean_speed,
                           params.speed_variance, params.gain_magnitude))
        assert np.array_equal(sd.acf_eval(quad_rotors, taus), 4.0 * values)
        # non-power-of-two integer factors scale to within one rounding
        tripled = sd.build_acf(
            sd.SwarmParams(params.n_drones * 3, params.n_rotors,
                           params.n_blades, params.blade_length,
                           params.wavelength, params.mean_speed,
                           params.speed_variance, params.gain_magnitude))
        assert np.allclose(sd.acf_eval(tripled, taus), 3.0 * values, rtol=1e-14)
        psd = sd.build_psd(params)
        freqs = rng.uniform(0.0, 1.2 * sd.psd_support(params)[1], 32)
        spectrum = sd.psd_eval(psd, freqs)
        assert np.array_equal(spectrum, sd.psd_eval(psd, -freqs))
        assert np.all(spectrum >= 0.0)
        doubled_psd = sd.build_psd(
            sd.SwarmParams(params.n_drones * 2, params.n_rotors,
                           params.n_blades, params.blade_length,
                           params.wavelength, params.mean_speed,
                           params.speed_variance, params.gain_magnitude))
        assert np.array_equal(sd.psd_eval(doubled_psd, freqs), 2.0 * spectrum)
        checked += 1
    report("A10", checked == 100,
           f"linearity, evenness, nonnegativity and boundedness held on "
           f"{checked}/100 random parameter draws")


def test_gate_constants_are_the_validate_thresholds():
    assert (ACF_NRMSE_MAX, PSD_NRMSE_MAX, CONSISTENCY_MAX) == (
        validation.ACF_NRMSE_MAX, validation.PSD_NRMSE_MAX, validation.CONSISTENCY_MAX)
