import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import given, settings, strategies as st

import swarmdoppler as sd
from swarmdoppler import validation
from swarmdoppler.exceptions import DomainError, ValidationError
from swarmdoppler.analytic import (_EPSILON, _KERNEL_REACH, _NORMAL_REACH, SQRT_TWO_PI,
                                   _reaches, _series_terms, _windows)
from helpers import (acf_eval_every_term, acf_eval_outer, acf_quadrature,
                     acf_quadrature_reach, mavic_params, fit_convention_constant,
                     psd_eval_outer, random_params, transform_of_analytic_acf)

# 40-digit-arithmetic references at the exact float inputs of the reference
# configuration (blade 0.21 m, wavelength 0.03 m, mean speed 523 rad/s)
MAVIC_DC_LEVEL = 0.05773234942134046
MAVIC_J0_SQ = 0.0036082718388337786
MAVIC_RDET_ZERO = 8.340045034754912
MAVIC_C1 = 0.0037737419761765816
MAVIC_MAINLOBE = 5.216769508611702e-05
MAVIC_FIRST_NULL = 5.405415692826266e-05


def test_truncation_index_reference():
    assert sd.truncation_index(175.9292, 2) == 44


def test_truncation_index_exact_integer_edge():
    assert sd.truncation_index(2.0, 1) == 1


def test_truncation_index_three_blades():
    assert sd.truncation_index(175.9292, 3) == 30


def test_truncation_index_validation():
    with pytest.raises(ValidationError):
        sd.truncation_index(0.0, 2)
    with pytest.raises(ValidationError):
        sd.truncation_index(10.0, 0)


def test_build_acf_reference_values():
    acf = sd.build_acf(mavic_params())
    # the kernel's recurrence starts at order 133 for J(87.96), so 67 terms
    # of order 2n; the paper's cutoff is 44
    assert acf.n_terms == 67
    assert acf.dc_level == pytest.approx(MAVIC_DC_LEVEL, rel=1e-11)
    assert acf.j0_squared == pytest.approx(MAVIC_J0_SQ, rel=1e-11)
    assert acf.coefficients[0] == pytest.approx(MAVIC_C1, rel=1e-10)
    assert np.all(acf.coefficients >= 0.0)


def test_a_series_reads_j0_and_its_coefficients_from_one_bessel_column():
    memo = sd.special._miller_column
    memo.cache_clear()
    acf = sd.build_acf(mavic_params())
    assert memo.cache_info().misses == 1
    column = memo(2 * acf.n_terms, acf.derived.mod_index)
    assert acf.j0_squared == column[0] ** 2
    assert np.array_equal(acf.coefficients, column[2::2] ** 2)


def test_build_acf_doubling_drone_count_scales_exactly():
    base = sd.build_acf(mavic_params())
    doubled = sd.build_acf(mavic_params(n_drones=2))
    taus = np.linspace(0.0, 3e-4, 17)
    assert np.array_equal(sd.acf_eval(doubled, taus), 2.0 * sd.acf_eval(base, taus))
    assert doubled.dc_level == 2.0 * base.dc_level


def test_acf_large_lag_settles_to_floor():
    acf = sd.build_acf(mavic_params())
    # 1e200 squared overflows, and at 1e306 so does the phase: the damping
    # must still read exactly zero
    assert np.all(sd.acf_eval(acf, np.array([1e6, 1e200, -1e306])) == acf.dc_level)
    undamped = sd.build_acf(mavic_params(speed_variance=0.0))
    # inside the phase-precision cut, 8.6e12 s here
    assert abs(sd.acf_eval(undamped, 1e12)) <= sd.acf_eval(undamped, 0.0)
    # without spread a phase that overflows has no value to settle to
    with pytest.raises(DomainError, match="tau"):
        sd.acf_eval(undamped, np.array([0.0, 1e306]))
    with pytest.raises(DomainError, match="tau"):
        sd.acf_deterministic_eval(mavic_params(speed_variance=0.0), 1e306)


def test_zero_spread_lags_past_the_phase_precision_cut_are_refused():
    params = mavic_params(speed_variance=0.0)
    undamped = sd.build_acf(params)
    cut = sd.analytic.PHASE_MAX / params.mean_speed
    inside = np.array([0.0, -0.999 * cut])
    assert np.all(np.isfinite(sd.acf_eval(undamped, inside)))
    assert np.all(np.isfinite(sd.acf_deterministic_eval(params, inside)))
    # at 1e300 s the phase is representable but has no correct digit: both
    # forms returned values (-1.32 and -0.97) instead of refusing
    for tau in (1e300, np.array([0.0, -1.001 * cut])):
        with pytest.raises(DomainError, match="tau too large"):
            sd.acf_eval(undamped, tau)
        with pytest.raises(DomainError, match="tau too large"):
            sd.acf_deterministic_eval(params, tau)
    # with spread the damping settles such lags to the floor
    assert sd.acf_eval(sd.build_acf(mavic_params()), 1e300) == undamped.dc_level


def test_acf_zero_lag_matches_deterministic_form():
    params = mavic_params()
    acf = sd.build_acf(params)
    series = sd.acf_eval(acf, 0.0)
    exact = sd.acf_deterministic_eval(params, 0.0)
    assert exact == pytest.approx(MAVIC_RDET_ZERO, rel=1e-12)
    assert series == pytest.approx(exact, rel=1e-6)


def test_acf_evenness_is_exact():
    acf = sd.build_acf(mavic_params())
    rng = np.random.default_rng(3)
    taus = rng.uniform(0.0, 1e-2, 64)
    assert np.array_equal(sd.acf_eval(acf, taus), sd.acf_eval(acf, -taus))


def test_acf_bounded_by_zero_lag():
    rng = np.random.default_rng(11)
    for _ in range(20):
        params = random_params(rng)
        acf = sd.build_acf(params)
        peak = sd.acf_eval(acf, 0.0)
        taus = rng.uniform(0.0, 1.0, 200)
        assert np.all(np.abs(sd.acf_eval(acf, taus)) <= peak * (1.0 + 1e-9))


def test_acf_series_truncation_soundness():
    rng = np.random.default_rng(5)
    for params in [mavic_params()] + [random_params(rng) for _ in range(5)]:
        acf = sd.build_acf(params)
        extended = sd.AcfSeries(params, math.ceil(1.5 * acf.n_terms))
        taus = np.linspace(0.0, 10.0 * sd.mainlobe_width(params), 300)
        base = sd.acf_eval(acf, taus)
        longer = sd.acf_eval(extended, taus)
        scale = abs(sd.acf_eval(acf, 0.0))
        assert np.max(np.abs(longer - base)) <= 1e-9 * scale


# the blade/wavelength ratios of the Bessel envelope: geometric steps below
# 1, then even ones up to 159.15, its top
ENVELOPE_RATIOS = np.concatenate([np.geomspace(1e-3, 1.0, 60, endpoint=False),
                                  np.linspace(1.0, 159.15, 700)])


def test_the_series_leaves_out_less_than_2_to_the_minus_90_of_the_bessel_power():
    for ratio in ENVELOPE_RATIOS:
        size = 8.0 * np.pi * ratio
        column = sd.bessel_j_many(sd.special.MAX_ORDER, size / 2.0)
        # past[k] is the power J_0^2 + 2*sum J_nu^2 holds past order k
        past = 2.0 * np.cumsum(column[:0:-1] ** 2)[::-1]
        for n_blades in range(1, 9):
            kept = n_blades * _series_terms(size, n_blades)
            assert past[kept] <= _EPSILON, (ratio, n_blades)


def _quadrature_lags(params, fractions):
    """Lags out to one revolution, or less where the oracle's speed nodes
    stop integrating every harmonic."""
    span = min(2.0 * np.pi / params.mean_speed, acf_quadrature_reach(params))
    return span * np.append(0.0, fractions)


def _quadrature_gap(params, taus):
    """The largest |acf_eval - acf_quadrature| in units of acf(0)."""
    values = sd.acf_eval(sd.build_acf(params), taus)
    return np.max(np.abs(values - acf_quadrature(params, taus))) / values[0]


@pytest.mark.filterwarnings("ignore:carrier wavelength is not small:UserWarning")
@pytest.mark.parametrize("n_blades", range(1, 9))
def test_the_quadrature_oracle_is_the_deterministic_form_at_zero_spread(n_blades):
    for ratio in (0.3, 7.8, 40.0):
        params = mavic_params(n_blades=n_blades, speed_variance=0.0,
                              blade_length=0.03 * ratio)
        taus = _quadrature_lags(params, np.linspace(0.05, 1.0, 6))
        exact = sd.acf_deterministic_eval(params, taus)
        gap = np.abs(acf_quadrature(params, taus) - exact)
        assert np.max(gap) <= 1e-13 * exact[0], ratio


@pytest.mark.filterwarnings("ignore:carrier wavelength is not small:UserWarning")
@settings(max_examples=30, deadline=None)
@given(ratio=st.floats(min_value=0.01, max_value=40.0),
       n_blades=st.integers(min_value=1, max_value=8),
       n_drones=st.integers(min_value=1, max_value=6),
       n_rotors=st.integers(min_value=1, max_value=8),
       variance=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=400.0)),
       fractions=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=5))
def test_acf_eval_is_the_quadrature_of_its_definition(ratio, n_blades, n_drones, n_rotors,
                                                      variance, fractions):
    params = mavic_params(blade_length=0.03 * ratio, n_blades=n_blades, n_drones=n_drones,
                          n_rotors=n_rotors, speed_variance=variance)
    assert _quadrature_gap(params, _quadrature_lags(params, fractions)) <= 1e-13


# one blade near ratio 7.8, where the power past the paper's cutoff plus 20
# orders is largest (2.2e-11 of acf(0)), and the top of the envelope
@pytest.mark.parametrize("n_blades, ratio", [(1, 5.0), (1, 7.8), (1, 8.0), (2, 100.0),
                                             (1, 159.0), (3, 159.15)])
@pytest.mark.parametrize("variance", [0.0, 27.0])
def test_acf_eval_is_the_quadrature_of_its_definition_across_the_envelope(n_blades, ratio,
                                                                          variance):
    params = mavic_params(n_blades=n_blades, blade_length=0.03 * ratio,
                          speed_variance=variance)
    taus = _quadrature_lags(params, np.linspace(0.02, 1.0, 4) ** 3)
    assert _quadrature_gap(params, taus) <= 1e-13


@pytest.mark.filterwarnings("ignore:carrier wavelength is not small:UserWarning")
@pytest.mark.parametrize("n_blades", range(1, 9))
def test_line_weights_sum_to_the_zero_lag_autocorrelation(n_blades):
    for ratio in (0.05, 2.0, 7.0, 7.8, 40.0, 150.0):
        params = mavic_params(n_blades=n_blades, speed_variance=0.0,
                              blade_length=0.03 * ratio)
        total = sd.acf_eval(sd.build_acf(params), 0.0)
        assert sd.psd_line_spectrum(params).y.sum() == pytest.approx(total, rel=1e-14), ratio


def test_series_matches_deterministic_form_without_spread():
    rng = np.random.default_rng(17)
    cases = [mavic_params(speed_variance=0.0)]
    cases += [random_params(rng, sigma_zero=True) for _ in range(3)]
    for params in cases:
        assert validation.sigma_zero_error(params) <= 1e-6


def test_deterministic_single_blade_zero_lag():
    params = mavic_params(n_blades=1, speed_variance=0.0)
    expected = params.gain_magnitude ** 2 * params.n_drones * params.n_rotors
    assert sd.acf_deterministic_eval(params, 0.0) == pytest.approx(expected, rel=1e-12)


def test_deterministic_single_blade_periodicity():
    params = mavic_params(n_blades=1, speed_variance=0.0)
    period = 2.0 * math.pi / params.mean_speed
    taus = np.linspace(0.0, period, 50)
    a = sd.acf_deterministic_eval(params, taus)
    b = sd.acf_deterministic_eval(params, taus + period)
    assert np.allclose(a, b, rtol=1e-9, atol=1e-9)


def test_mainlobe_width_reference_value():
    assert sd.mainlobe_width(mavic_params()) == pytest.approx(MAVIC_MAINLOBE, rel=1e-12)


def test_mainlobe_width_scalings():
    params = mavic_params()
    base = sd.mainlobe_width(params)
    assert sd.mainlobe_width(mavic_params(mean_speed=1046.0)) == \
        pytest.approx(base / 2.0, rel=1e-12)
    assert sd.mainlobe_width(mavic_params(blade_length=0.42)) == \
        pytest.approx(base / 2.0, rel=1e-12)


def _first_null(params):
    width = sd.mainlobe_width(params)

    def value(tau):
        return sd.acf_deterministic_eval(params, float(tau))

    taus = np.linspace(1e-9, 3.0 * width, 2000)
    vals = sd.acf_deterministic_eval(params, taus)
    sign_change = np.nonzero(vals[:-1] * vals[1:] < 0)[0][0]
    return scipy.optimize.brentq(value, taus[sign_change], taus[sign_change + 1],
                                 xtol=1e-16)


def test_first_null_tracks_width_estimate():
    params = mavic_params()
    null = _first_null(params)
    assert null == pytest.approx(MAVIC_FIRST_NULL, rel=1e-6)
    assert abs(null - sd.mainlobe_width(params)) / sd.mainlobe_width(params) <= 0.05


def test_build_psd_reference_kernels():
    params = mavic_params()
    psd = sd.build_psd(params)
    n = np.arange(1, psd.centers.size + 1)
    assert np.array_equal(psd.centers, 1046.0 * n)
    assert np.array_equal(psd.stds, params.speed_std * 2.0 * n)
    assert psd.dc_weight == pytest.approx(2 * math.pi * MAVIC_DC_LEVEL, rel=1e-11)
    # the cutoff kernel sits at the band edge mean_speed * size/2
    cutoff = sd.truncation_index(sd.derive(params).electrical_size, params.n_blades)
    edge = sd.derive(params).mod_index * params.mean_speed
    assert psd.centers[cutoff - 1] == pytest.approx(edge, rel=1e-2)


def test_build_psd_rejects_zero_variance():
    params = mavic_params(speed_variance=0.0)
    with pytest.raises(DomainError, match="line") as built:
        sd.build_psd(params)
    with pytest.raises(DomainError) as mixed:
        sd.PsdMixture(sd.build_acf(params))
    assert str(mixed.value) == str(built.value)


def test_the_analytic_records_take_only_the_inputs_that_define_them():
    taken = {record: [f.name for f in dataclasses.fields(record) if f.init]
             for record in (sd.AcfSeries, sd.PsdMixture, sd.DerivedParams)}
    assert taken == {sd.AcfSeries: ["params", "n_terms"], sd.PsdMixture: ["acf"],
                     sd.DerivedParams: ["electrical_size"]}


def test_build_psd_fields_are_the_mixture_formulas_of_the_series():
    for params in (mavic_params(), mavic_params(n_blades=3, speed_variance=400.0)):
        psd = sd.build_psd(params)
        acf = sd.build_acf(params)
        n = np.arange(1, acf.n_terms + 1, dtype=float)
        scale = params.gain_magnitude ** 2 * params.n_drones * params.n_rotors \
            * params.n_blades ** 2
        assert psd.acf == acf and psd.acf.params is params
        assert np.array_equal(psd.centers, params.n_blades * params.mean_speed * n)
        assert np.array_equal(psd.stds, params.speed_std * params.n_blades * n)
        assert np.array_equal(psd.side_masses, 2.0 * np.pi * scale * acf.coefficients)
        assert psd.dc_weight == 2.0 * np.pi * acf.dc_level


@pytest.mark.parametrize("overrides", [{}, {"n_blades": 3}, {"speed_variance": 400.0}])
def test_the_mixture_holds_the_transform_of_the_whole_acf(overrides):
    # the Dirac mass plus both members of every pair is the total mass of
    # the plain transform of the autocorrelation: 2*pi times its value at 0
    acf = sd.build_acf(mavic_params(**overrides))
    psd = sd.PsdMixture(acf)
    total = psd.dc_weight + 2.0 * np.sum(psd.side_masses)
    assert total == pytest.approx(2.0 * np.pi * sd.acf_eval(acf, 0.0), rel=1e-12)


def test_psd_eval_symmetry_is_exact():
    psd = sd.build_psd(mavic_params())
    rng = np.random.default_rng(23)
    freqs = rng.uniform(0.0, 5e4, 200)
    assert np.array_equal(sd.psd_eval(psd, freqs), sd.psd_eval(psd, -freqs))


def test_psd_eval_nonnegative_and_decays():
    psd = sd.build_psd(mavic_params())
    lo, hi = sd.psd_support(mavic_params())
    freqs = np.linspace(lo, hi, 2001)
    values = sd.psd_eval(psd, freqs)
    assert np.all(values >= 0.0)
    assert sd.psd_eval(psd, 4.0 * hi) < 1e-12 * values.max()


def test_psd_peak_sits_on_first_kernel():
    psd = sd.build_psd(mavic_params())
    freqs = np.linspace(900.0, 1200.0, 4001)
    values = sd.psd_eval(psd, freqs)
    peak = freqs[np.argmax(values)]
    assert abs(peak - 1046.0) <= psd.stds[0]


def test_psd_scaling_with_rotor_count_exact():
    base = sd.build_psd(mavic_params())
    scaled = sd.build_psd(mavic_params(n_rotors=8))
    freqs = np.linspace(-5e4, 5e4, 101)
    assert np.array_equal(sd.psd_eval(scaled, freqs), 2.0 * sd.psd_eval(base, freqs))


def test_psd_support_reference_interval():
    lo, hi = sd.psd_support(mavic_params())
    assert lo == -hi
    assert hi == pytest.approx(48290.87001810405, rel=1e-12)
    params0 = mavic_params(speed_variance=0.0)
    lo0, hi0 = sd.psd_support(params0)
    assert hi0 == sd.derive(params0).mod_index * params0.mean_speed
    doubled = sd.psd_support(mavic_params(blade_length=0.42))[1]
    assert doubled == pytest.approx(2.0 * hi, rel=1e-12)


def test_line_spectrum_reference_layout():
    params = mavic_params(speed_variance=0.0)
    lines = sd.psd_line_spectrum(params)
    freqs, weights = lines.x, lines.y
    # a mirror pair per term of the series
    assert len(freqs) == 2 * 67 + 1
    positive = freqs[freqs > 0]
    assert np.array_equal(np.diff(positive), np.full(66, 1046.0))
    assert np.array_equal(freqs, -freqs[::-1])
    acf = sd.build_acf(params)
    assert weights.sum() == pytest.approx(sd.acf_eval(acf, 0.0), rel=1e-14)
    mirrored = set(zip(-freqs, weights))
    assert mirrored == set(zip(freqs, weights))


def test_line_spectrum_minimal_case():
    with pytest.warns(UserWarning):   # deliberately long carrier
        params = sd.SwarmParams(n_drones=1, n_rotors=1, n_blades=1,
                                blade_length=2.0 / (8.0 * math.pi),
                                wavelength=1.0, mean_speed=1.0,
                                speed_variance=0.0)
    lines = sd.psd_line_spectrum(params)
    # the paper's cutoff is 1, but the lines run on to the order the
    # kernel's recurrence starts from at x = 1, 41
    assert lines.x.tolist() == [float(n) for n in range(-41, 42)]


def test_line_spectrum_rejects_spread_speeds():
    with pytest.raises(DomainError):
        sd.psd_line_spectrum(mavic_params())


def test_harmonic_coefficients_match_direct_bessel():
    size = sd.derive(mavic_params()).electrical_size
    coeffs = sd.harmonic_coefficients(size, 2, 80)
    n = np.arange(1, 81)
    reference = scipy.special.jv(2 * n, size / 2.0) ** 2
    assert np.allclose(coeffs, reference, rtol=5e-9, atol=1e-18)


def test_harmonic_coefficients_zero_beyond_envelope():
    coeffs = sd.harmonic_coefficients(20.0, 2, 10_000)
    assert coeffs[1500:].max() == 0.0
    assert coeffs[:10].max() > 0.0


def test_power_fraction_reference_values():
    size = sd.derive(mavic_params()).electrical_size
    # pinned beforehand by a direct cumulative sum over 10,000 coefficients
    assert sd.coefficient_power_fraction(size, 2, 0.5) == 11
    assert sd.coefficient_power_fraction(size, 2, 0.9) == 28
    assert sd.coefficient_power_fraction(size, 2, 0.95) == 32
    assert sd.coefficient_power_fraction(size, 2, 0.99) == 40
    assert sd.coefficient_power_fraction(size, 2, 0.5, order="index") == 31
    assert sd.coefficient_power_fraction(size, 2, 0.99, order="index") == 45


def test_power_fraction_against_brute_force():
    size = sd.derive(mavic_params()).electrical_size
    n = np.arange(1, 10_001)
    coeffs = scipy.special.jv(2 * n, size / 2.0) ** 2
    for fraction in (0.5, 0.9, 0.95, 0.99):
        for order in ("magnitude", "index"):
            ordered = np.sort(coeffs)[::-1] if order == "magnitude" else coeffs
            brute = int(np.searchsorted(np.cumsum(ordered),
                                        fraction * coeffs.sum()) + 1)
            assert sd.coefficient_power_fraction(size, 2, fraction,
                                                 order=order) == brute


def test_power_fraction_monotone_in_fraction():
    size = sd.derive(mavic_params()).electrical_size
    ks = [sd.coefficient_power_fraction(size, 2, f)
          for f in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999)]
    assert ks == sorted(ks)


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 1.5])
def test_power_fraction_rejects_boundary_fractions(fraction):
    with pytest.raises(ValidationError):
        sd.coefficient_power_fraction(100.0, 2, fraction)


def test_transform_round_trip_matches_mixture():
    # lag-step-scaled transform of the sampled series autocorrelation must
    # reproduce the mixture density pointwise with a unit scale constant
    curve, psd = transform_of_analytic_acf(mavic_params())
    scale, max_rel, n_bins = fit_convention_constant(curve, psd)
    assert abs(scale - sd.analytic.CONVENTION_CONSTANT) <= 1e-3
    assert max_rel <= 0.01
    assert n_bins > 1000


# blade/wavelength 148.5 with two blades: a 996-term series
RATIO_150 = dict(blade_length=0.03 * 148.5, wavelength=0.03)
SWARMS = {f"{nb} blades": dict(n_blades=nb) for nb in (1, 2, 3, 4)}
SWARMS["ratio 150"] = RATIO_150


def _argument_cases(scale: float) -> dict:
    """Evaluation points around +-scale in every layout the evaluators accept."""
    x = np.random.default_rng(41).uniform(-1.5 * scale, 1.5 * scale, 240)
    return {
        "unsorted": x,
        "descending": np.sort(x)[::-1],
        "duplicates": np.repeat(x[:40], 3),
        "far": np.array([1e150, -scale, 0.0, -1e150, scale]),
        "scalar": float(x[0]),
        "empty": np.array([]),
        "2-D": x.reshape(4, 60),
    }


# mean/std = 11.7 < 39: every pair's mirror windows overlap around DC
WIDE_SPREAD = 2000.0
PSD_SWARMS = {**SWARMS, "wide spread": dict(speed_variance=WIDE_SPREAD)}


@pytest.mark.parametrize("swarm", PSD_SWARMS)
def test_psd_eval_equals_the_pairwise_mixture_sum_bit_for_bit(swarm):
    params = mavic_params(**PSD_SWARMS[swarm])
    psd = sd.build_psd(params)
    for case, freqs in _argument_cases(sd.psd_support(params)[1]).items():
        values = sd.psd_eval(psd, freqs)
        assert np.shape(values) == np.shape(freqs), case
        # numpy reduces an (n_terms x 1) product pairwise, not in harmonic
        # order, so the reference always gets a second point
        reference = psd_eval_outer(psd, np.append(freqs, 0.0))[:-1]
        assert np.array_equal(np.ravel(values), reference), case


@pytest.mark.parametrize("variance", [27.0, 0.0])
@pytest.mark.parametrize("swarm", SWARMS)
def test_acf_eval_matches_the_outer_product_series(swarm, variance):
    acf = sd.build_acf(mavic_params(speed_variance=variance, **SWARMS[swarm]))
    scale = abs(sd.acf_eval(acf, 0.0))
    for case, taus in _argument_cases(8.0 * np.pi / acf.params.mean_speed).items():
        if case == "far":
            taus = np.array([1e6, -1e-3, 0.0, -1e6, 1e-3])
        values = sd.acf_eval(acf, taus)
        assert np.shape(values) == np.shape(taus), case
        gap = np.abs(np.ravel(values) - acf_eval_outer(acf, taus))
        assert np.all(gap <= 1e-12 * scale), case


@pytest.mark.parametrize("variance", [27.0, 0.0, WIDE_SPREAD])
@pytest.mark.parametrize("swarm", SWARMS)
def test_acf_eval_equals_every_term_at_every_lag_bit_for_bit(swarm, variance):
    acf = sd.build_acf(mavic_params(speed_variance=variance, **SWARMS[swarm]))
    scale = 8.0 * np.pi / acf.params.mean_speed
    # with spread, the later terms reach only the first of these lags
    lone = {"lone": np.array([0.37 * scale, 50.0 * scale, -60.0 * scale])}
    for case, taus in {**_argument_cases(scale), **lone}.items():
        if case == "far" and variance == 0.0:
            # zero spread refuses lags past 2**52 rad of rotor phase
            taus = np.array([1e6, -1e-3, 0.0, -1e6, 1e-3])
        values = sd.acf_eval(acf, taus)
        assert np.shape(values) == np.shape(taus), case
        assert np.array_equal(np.ravel(values), acf_eval_every_term(acf, taus)), case


@pytest.mark.filterwarnings("ignore:carrier wavelength is not small:UserWarning")
@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(min_value=0.0, max_value=159.0, exclude_min=True),
       n_blades=st.integers(min_value=1, max_value=4),
       taus=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=40))
def test_zero_spread_acf_eval_equals_every_term_bit_for_bit(ratio, n_blades, taus):
    # zero spread skips the damping, exactly 1.0; up to the envelope's edge
    acf = sd.build_acf(mavic_params(blade_length=ratio, wavelength=1.0,
                                    n_blades=n_blades, speed_variance=0.0))
    taus = np.array(taus) * (8.0 * np.pi / acf.params.mean_speed)
    assert np.array_equal(sd.acf_eval(acf, taus), acf_eval_every_term(acf, taus))


def test_the_first_pass_ends_where_a_gaussian_stops_being_a_normal_double():
    tiny = np.finfo(float).tiny
    assert np.exp(-_NORMAL_REACH ** 2 / 2) >= tiny
    assert np.exp(-0.5 * (_NORMAL_REACH * (1.0 + 1e-12)) ** 2) < tiny
    # the exact pass reaches past float64 underflow
    assert _KERNEL_REACH >= 38.62
    assert np.exp(-0.5 * 38.62 ** 2) == 0.0


@pytest.mark.parametrize("swarm", [RATIO_150, dict(speed_variance=WIDE_SPREAD)],
                         ids=["ratio 150", "wide spread"])
def test_evaluators_skip_only_pairs_below_2_to_the_minus_1021(swarm):
    params = mavic_params(**swarm)
    acf = sd.build_acf(params)
    n = np.arange(1, acf.n_terms + 1)
    # acf_eval: term n is damped by exp(-0.5*(n*u)**2), u = n_blades*speed_std*|tau|
    lags = np.linspace(0.0, 5e-2, 2001)
    u = (params.n_blades * params.speed_std) * lags     # ascending
    lo, hi = _windows(u, 0.0, 1.0 / n, _NORMAL_REACH)
    assert np.all(lo == 0) and hi[0] == u.size and hi[-1] < u.size
    decay = -0.5 * np.square(u)
    for k, end in zip(n, hi):
        assert np.all(np.exp(decay[end:] * float(k * k)) < 2.0 ** -1021), k
    # psd_eval's windows out to 37.64 standard deviations: each Gaussian of
    # each mirror pair, outside its window
    psd = sd.build_psd(params)
    freqs = np.abs(np.linspace(*sd.psd_support(params), 2001))
    centers = np.stack([psd.centers, -psd.centers])
    fs = np.sort(freqs)
    lo, hi = _windows(fs, centers, psd.stds, _NORMAL_REACH)
    assert np.any(hi - lo < fs.size)
    for center, s, a, b in zip(centers.ravel(), np.tile(psd.stds, 2), lo.ravel(), hi.ravel()):
        outside = np.concatenate([fs[:a], fs[b:]])
        assert np.all(np.exp(-0.5 * ((outside - center) / s) ** 2) < 2.0 ** -1021), center


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# blade/wavelength 2: a 33-term series, whose density falls below 2**-35 of
# its peak on ~28% of the support
RATIO_2 = dict(blade_length=0.06, wavelength=0.03)
# blade/wavelength ratios where J_0(electrical_size/2) is ~1e-16: there the
# floor j0_squared of acf_eval no longer hides the bits of a damped series
J0_ZERO_RATIOS = scipy.special.jn_zeros(0, 630) / (4.0 * np.pi)


def _pair_heights(psd):
    return psd.side_masses / (SQRT_TWO_PI * psd.stds)


@pytest.mark.filterwarnings("ignore:carrier wavelength is not small:UserWarning")
@settings(max_examples=60, deadline=None)
@given(ratio=st.one_of(st.floats(min_value=0.05, max_value=159.0),
                       st.sampled_from(J0_ZERO_RATIOS.tolist())),
       n_blades=st.integers(min_value=1, max_value=8),
       variance=st.floats(min_value=1e-4, max_value=2e4),
       # down to gains whose largest Gaussian height is subnormal
       gain_exponent=st.floats(min_value=-165.0, max_value=6.0),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_windowed_evaluators_equal_every_term_bit_for_bit(ratio, n_blades, variance,
                                                          gain_exponent, seed):
    params = mavic_params(blade_length=ratio, wavelength=1.0, n_blades=n_blades,
                          speed_variance=variance, gain_magnitude=10.0 ** gain_exponent)
    rng = np.random.default_rng(seed)
    acf, psd = sd.build_acf(params), sd.build_psd(params)
    # factors near 1 for points near a term's first-pass reach
    near = np.concatenate([rng.uniform(0.98, 1.02, 30), [1.0 - 2.0 ** -52, 1.0, 1.0 + 2.0 ** -52]])
    # points where a Gaussian is subnormal, 37-39.5 standard deviations out,
    # on both sides of random pairs and of the first, whose lower tail and
    # whose mirror's upper tail reach into the gap at DC
    k = np.append(rng.integers(0, acf.n_terms, 15), np.zeros(5, dtype=int))
    z = rng.uniform(37.0, 39.5, k.size)
    c, s = psd.centers[k], psd.stds[k]
    tails = np.concatenate([c - z * s, c + z * s, z * s - c])
    # z standard deviations below random centers, z near the pair's
    # first-pass reach
    scale = _pair_heights(psd)
    k = rng.integers(0, acf.n_terms, near.size)
    z = _reaches(2.0 * scale, _EPSILON * scale.max())[k] * near
    reach = psd.centers[k] - z * psd.stds[k]
    # and, on the rest path, the gap at DC and out to 1.3 times the support
    edge = sd.psd_support(params)[1]
    freqs = np.concatenate([rng.uniform(-1.3 * edge, 1.3 * edge, 100), tails, -tails,
                            reach, -reach, rng.uniform(0.0, psd.centers[0], 20)])
    assert np.array_equal(_bits(sd.psd_eval(psd, freqs)), _bits(psd_eval_outer(psd, freqs)))
    # lags where the damping of random terms is subnormal, and where n*u is
    # near term n's first-pass reach
    n = rng.integers(1, acf.n_terms + 1, 20)
    band = rng.uniform(37.0, 39.5, n.size) / (n * (params.n_blades * params.speed_std))
    n = rng.integers(1, acf.n_terms + 1, near.size)
    reach = _reaches(acf.coefficients, _EPSILON)[n - 1] * near
    reach /= n * (params.n_blades * params.speed_std)
    # on the rest path: where the first term is damped by 2**-50 ... 2**-150,
    # and past ~1 s, the series has damped to ~0
    damped = rng.uniform(8.3, 14.5, 20) / (params.n_blades * params.speed_std)
    taus = np.concatenate([rng.uniform(-1.5, 1.5, 100) * (8.0 * np.pi / params.mean_speed),
                           band, -band, reach, -reach, damped, rng.uniform(1.0, 3.0, 20)])
    assert np.array_equal(_bits(sd.acf_eval(acf, taus)), _bits(acf_eval_every_term(acf, taus)))


@pytest.mark.parametrize("swarm", [{}, RATIO_2, RATIO_150, dict(speed_variance=WIDE_SPREAD)],
                         ids=["mavic-like", "ratio 2", "ratio 150", "wide spread"])
def test_the_first_pass_skips_a_suffix_of_terms_below_epsilon(swarm):
    params = mavic_params(**swarm)
    acf, psd = sd.build_acf(params), sd.build_psd(params)
    n = np.arange(1, acf.n_terms + 1)
    # acf_eval: term n runs on the lags with n*u below its reach R_n
    lags = np.linspace(0.0, 1.0, 4001)
    u = (params.n_blades * params.speed_std) * lags     # ascending
    _, ends = _windows(u, 0.0, 1.0 / n, _reaches(acf.coefficients, _EPSILON))
    assert ends[-1] < u.size
    # a lag past term n's window is past every later one
    assert np.all(np.diff(ends) <= 0)
    decay = -0.5 * np.square(u)
    for k, coeff, end in zip(n, acf.coefficients, ends):
        assert np.all(coeff * np.exp(decay[end:] * float(k * k)) < _EPSILON), k
    # psd_eval: pair k runs from min_{m>=k} (c_m - R_m*s_m) up
    scale = _pair_heights(psd)
    height = scale.max()
    c, s = psd.centers, psd.stds
    starts = c - _reaches(2.0 * scale, _EPSILON * height) * s
    starts = np.minimum.accumulate(starts[::-1])[::-1]
    fs = np.sort(np.abs(np.linspace(*sd.psd_support(params), 4001)))
    first = np.searchsorted(fs, starts)
    assert first[-1] > 0
    # point i skips pair k when i < first[k]: a suffix, since first never falls
    assert np.all(np.diff(first) >= 0)
    for k, a in enumerate(first):
        below = fs[:a]
        pair = scale[k] * (np.exp(-0.5 * ((below - c[k]) / s[k]) ** 2)
                           + np.exp(-0.5 * ((below + c[k]) / s[k]) ** 2))
        assert np.all(pair < _EPSILON * height), k


def test_a_point_has_the_same_bits_alone_and_among_others():
    # the rest path is chosen point by point, so no neighbour moves a bit
    params = mavic_params()
    acf, psd = sd.build_acf(params), sd.build_psd(params)
    rng = np.random.default_rng(11)
    # main-lobe lags keep their first pass; past 0.8 s the series is ~0
    taus = np.concatenate([rng.uniform(-20.0, 20.0, 25) * sd.mainlobe_width(params),
                           rng.uniform(0.8, 1.5, 25)])
    series = np.abs(sd.acf_eval(acf, taus) - acf.dc_level) / sd.analytic._prefactor(params)
    assert np.all(series[:25] > 2.0 ** -30) and np.all(series[25:] < 2.0 ** -40)
    # near strong centers the first pass holds; the gap at DC takes the rest
    scale = _pair_heights(psd)
    k = rng.choice(np.flatnonzero(scale > 2.0 ** -20 * scale.max()), 25)
    freqs = np.concatenate([psd.centers[k] + rng.uniform(-3.0, 3.0, 25) * psd.stds[k],
                            rng.uniform(-0.5, 0.5, 25) * psd.centers[0]])
    density = sd.psd_eval(psd, freqs) / scale.max()
    assert np.all(density[:25] > 2.0 ** -30) and np.all(density[25:] < 2.0 ** -40)
    for evaluate, model, points in ((sd.acf_eval, acf, taus), (sd.psd_eval, psd, freqs)):
        together = evaluate(model, points)
        alone = [evaluate(model, float(x)) for x in points]
        assert np.array_equal(_bits(alone), _bits(together))


def test_psd_eval_keeps_the_subnormal_density_in_the_gap_at_dc():
    # mavic-like psd.csv holds this value; the first pass alone gives 0.0
    f = 651.9267452444037
    values = sd.psd_eval(sd.build_psd(mavic_params()), np.array([f, -f]))
    assert values.tolist() == [8.436972213e-315] * 2


@pytest.mark.parametrize("evaluate, build, span", [
    (sd.acf_eval, sd.build_acf, lambda params: (0.0, 2e-2)),
    (sd.psd_eval, sd.build_psd, sd.psd_support),
])
def test_evaluator_memory_does_not_grow_with_the_term_count(evaluate, build, span):
    params = mavic_params(**RATIO_150)
    assert sd.build_acf(params).n_terms == 996
    model = build(params)
    points = np.linspace(*span(params), 20_001)
    tracemalloc.start()
    try:
        evaluate(model, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (n_terms x n_points) outer products peaked at ~538 MB here
    assert peak < 8 * 2 ** 20


EVALUATORS = {
    "acf_eval": lambda params, x: sd.acf_eval(sd.build_acf(params), x),
    "psd_eval": lambda params, x: sd.psd_eval(sd.build_psd(params), x),
    "acf_deterministic_eval": sd.acf_deterministic_eval,
}


@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_return_the_input_shape(name):
    params = mavic_params()
    grid = np.linspace(0.0, 3e-4, 6).reshape(2, 3)
    values = EVALUATORS[name](params, grid)
    assert values.shape == (2, 3)
    assert np.array_equal(values.ravel(), EVALUATORS[name](params, grid.ravel()))
    assert isinstance(EVALUATORS[name](params, 1e-4), float)


@pytest.mark.parametrize("variance", [27.0, 0.0])
def test_acf_eval_gives_a_scalar_lag_the_bits_of_the_same_lag_in_an_array(variance):
    acf = sd.build_acf(mavic_params(speed_variance=variance))
    taus = np.array([0.0, 1e-4, 2e-4, 3.3e-3, 0.05, 1.0])
    values = sd.acf_eval(acf, taus)
    for tau, value in zip(taus, values):
        assert sd.acf_eval(acf, float(tau)).hex() == float(value).hex()
        assert float(sd.acf_eval(acf, [tau])[0]).hex() == float(value).hex()


@pytest.mark.parametrize("n_blades", range(1, 9))
def test_deterministic_form_gives_a_lag_the_same_bits_in_any_array(n_blades):
    params = mavic_params(speed_variance=0.0, n_blades=n_blades)
    rng = np.random.default_rng(n_blades)
    taus = rng.uniform(-0.02, 0.02, 24)
    values = sd.acf_deterministic_eval(params, taus)
    reversed_ = sd.acf_deterministic_eval(params, taus[::-1])[::-1]
    # the lags sit across the first tile boundary of a longer array
    tile = sd.analytic._TILE
    padded = np.concatenate([rng.uniform(0.0, 0.01, tile - 10), taus,
                             rng.uniform(0.0, 0.01, 30)])
    straddling = sd.acf_deterministic_eval(params, padded)[tile - 10:tile + 14]
    for k, tau in enumerate(taus):
        bits = float(values[k]).hex()
        assert sd.acf_deterministic_eval(params, float(tau)).hex() == bits
        assert float(reversed_[k]).hex() == bits
        assert float(straddling[k]).hex() == bits


@pytest.mark.parametrize("n_blades", range(1, 9))
def test_deterministic_form_is_the_double_sum_over_blade_pairs(n_blades):
    params = mavic_params(speed_variance=0.0, n_blades=n_blades)
    size = sd.derive(params).electrical_size
    taus = np.linspace(-3e-3, 3e-3, 301)
    theta = 0.5 * params.mean_speed * taus
    blades = np.arange(n_blades)
    # every blade pair (b, b') adds J_0(size*sin(theta - pi*(b - b')/nb))
    offsets = (blades[:, None] - blades[None, :]).ravel()
    terms = scipy.special.j0(size * np.sin(theta[None, :]
                                           - (np.pi / n_blades) * offsets[:, None]))
    expected = params.gain_magnitude ** 2 * params.n_drones * params.n_rotors \
        * np.sum(terms, axis=0)
    scale = abs(sd.acf_deterministic_eval(params, 0.0))
    gap = np.abs(sd.acf_deterministic_eval(params, taus) - expected)
    assert np.max(gap) <= 1e-13 * scale


@pytest.mark.parametrize("n_blades", [1, 2, 8])
def test_deterministic_form_working_memory_is_the_output_plus_tiles(n_blades):
    params = mavic_params(speed_variance=0.0, n_blades=n_blades)
    taus = np.linspace(0.0, 0.05, 2 ** 18)
    tracemalloc.start()
    try:
        sd.acf_deterministic_eval(params, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16 B per lag plus 1 MiB: the 8 B output, the 1 B finiteness mask and
    # the tiles' few 8192-lag arrays.  Measured: 2.89 MB with 1 blade and
    # 2.96 MB with 2 and 8 (11.0 and 11.3 B per lag).  Forming all
    # 2*n_blades - 1 offsets at once peaked at 98, 279 and 1365 B per lag
    assert peak <= 16 * taus.size + 2 ** 20


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", EVALUATORS)
def test_evaluators_refuse_non_finite_arguments(name, bad):
    argument = "freq" if name == "psd_eval" else "tau"
    with pytest.raises(DomainError, match=f"{argument} must be finite"):
        EVALUATORS[name](mavic_params(), np.array([0.0, bad, 1e-4]))


def test_series_refuses_beyond_its_envelope_naming_the_limit():
    beyond = mavic_params(blade_length=0.03 * 160.0, wavelength=0.03)
    for build in (sd.build_acf, sd.build_psd):
        with pytest.raises(DomainError, match=r"blade/wavelength 160\.00 .*<= 159\.15"):
            build(beyond)
    with pytest.raises(DomainError, match=r"<= 159\.15"):
        sd.psd_line_spectrum(mavic_params(speed_variance=0.0, blade_length=4.8,
                                          wavelength=0.03))
    with pytest.raises(DomainError, match=r"electrical size <= 4000"):
        sd.coefficient_power_fraction(4000.5, 2, 0.9)
    assert sd.build_acf(mavic_params(blade_length=0.03 * 159.0)).n_terms > 0


def test_deterministic_form_refuses_beyond_its_envelope_naming_the_limit():
    near = mavic_params(speed_variance=0.0, blade_length=0.03 * 159.0, wavelength=0.03)
    assert math.isfinite(sd.acf_deterministic_eval(near, 1e-4))
    beyond = mavic_params(speed_variance=0.0, blade_length=0.03 * 160.0, wavelength=0.03)
    # refused up front, even at lags whose J_0 arguments would stay in range
    with pytest.raises(DomainError, match=r"blade/wavelength 160\.00 .*<= 159\.15"):
        sd.acf_deterministic_eval(beyond, 0.0)


@pytest.mark.parametrize("n_blades", [2, 3, 5])
@pytest.mark.parametrize("ratio", [100.0, 150.0, 159.0])
def test_series_matches_deterministic_form_up_to_the_series_envelope(ratio, n_blades):
    params = mavic_params(speed_variance=0.0, n_blades=n_blades,
                          blade_length=0.03 * ratio, wavelength=0.03)
    acf = sd.build_acf(params)
    # one revolution sweeps every J_0 argument in [-size, size]
    taus = np.linspace(0.0, 2.0 * np.pi / params.mean_speed, 4001)
    gap = np.abs(sd.acf_eval(acf, taus) - sd.acf_deterministic_eval(params, taus))
    assert np.max(gap) <= validation.CONSISTENCY_MAX * abs(sd.acf_eval(acf, 0.0))
    assert validation.sigma_zero_error(params) <= validation.CONSISTENCY_MAX
