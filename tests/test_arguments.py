"""The argument contract shared by every public entry point.

A bad scalar or array raises a typed library error whose message starts
with the argument's name; numpy integers are accepted wherever an integer
is, and are stored as Python ints; an array of reals may hold integers or
floats of any width, never bools, strings or objects.
"""
import json

import numpy as np
import pytest

import swarmdoppler as sd
from swarmdoppler import validation
from swarmdoppler.exceptions import DomainError, ValidationError
from helpers import mavic_params

PARAMS = mavic_params()
GRID = sd.default_grid(PARAMS, n_samples=64)
# validate compares spectra, which needs more than 200 samples
VALIDATE_GRID = sd.default_grid(PARAMS, n_samples=256)


def _accumulate(seed, n_workers=1):
    sd.accumulate(PARAMS, GRID, seed, [sd.AcfAccumulator(GRID)], 0, 2, n_workers=n_workers)


_REFUSED = [
    ("harmonic_coefficients-n_blades-0",
     lambda: sd.harmonic_coefficients(10.0, 0, 5), ValidationError, "n_blades"),
    ("coefficient_power_fraction-n_blades-0",
     lambda: sd.coefficient_power_fraction(10.0, 0, 0.5), ValidationError, "n_blades"),
    ("truncation_index-nan",
     lambda: sd.truncation_index(float("nan"), 2), ValidationError, "electrical_size"),
    ("truncation_index-inf",
     lambda: sd.truncation_index(float("inf"), 2), ValidationError, "electrical_size"),
    ("truncation_index-str",
     lambda: sd.truncation_index("3", 2), ValidationError, "electrical_size"),
    ("harmonic_coefficients-str",
     lambda: sd.harmonic_coefficients("10", 2, 5), ValidationError, "electrical_size"),
    ("bessel_j_many-bool", lambda: sd.bessel_j_many(2, True), DomainError, "x"),
    ("bessel_j_many-str", lambda: sd.bessel_j_many(2, "1.5"), DomainError, "x"),
    ("squared_bessel_sum_check-str",
     lambda: sd.squared_bessel_sum_check("a", 3), DomainError, "z"),
    ("bessel_phase_average-str",
     lambda: sd.bessel_phase_average(2, "abc"), DomainError, "size"),
]
ACF = sd.build_acf(PARAMS)
PSD = sd.build_psd(PARAMS)
PARAMS0 = mavic_params(speed_variance=0.0)
ROWS = np.zeros((2, GRID.n_samples), np.complex64)
_REFUSED += [
    ("acf_eval-str", lambda: sd.acf_eval(ACF, "1e-3"), DomainError, "tau"),
    ("acf_eval-str-nan", lambda: sd.acf_eval(ACF, "a"), DomainError, "tau"),
    ("acf_eval-bool", lambda: sd.acf_eval(ACF, True), DomainError, "tau"),
    ("acf_eval-object-array",
     lambda: sd.acf_eval(ACF, np.array([1e-3], dtype=object)), DomainError, "tau"),
    ("psd_eval-bool-array",
     lambda: sd.psd_eval(PSD, np.array([True, False])), DomainError, "freq"),
    ("acf_deterministic_eval-str",
     lambda: sd.acf_deterministic_eval(PARAMS0, "0.1"), DomainError, "tau"),
    ("bessel_j-str", lambda: sd.bessel_j(0, "1.5"), DomainError, "x"),
    ("bessel_j-bool", lambda: sd.bessel_j(2, True), DomainError, "x"),
    ("bessel_j-str-array", lambda: sd.bessel_j(0, np.array(["1"])), DomainError, "x"),
    ("AcfAccumulator.add-list-rows",
     lambda: sd.AcfAccumulator(GRID).add(ROWS.tolist(), 1), DomainError, "rows"),
]
for _seed in (-1, 1.5, 2 ** 64):
    _REFUSED += [
        (f"realization_rng-master_seed-{_seed}",
         lambda s=_seed: sd.realization_rng(s, 0), ValidationError, "master_seed"),
        (f"AcfAccumulator.add-master_seed-{_seed}",
         lambda s=_seed: sd.AcfAccumulator(GRID).add(ROWS, s), ValidationError,
         "master_seed"),
    ]
_REFUSED.append(("realization_rng-index--1", lambda: sd.realization_rng(1, -1),
                 ValidationError, "index"))
for _seed in (-1, 1.5):
    _REFUSED += [
        (f"simulate_ensemble-master_seed-{_seed}",
         lambda s=_seed: sd.simulate_ensemble(PARAMS, GRID, 2, s), ValidationError,
         "master_seed"),
        (f"accumulate-master_seed-{_seed}",
         lambda s=_seed: _accumulate(s), ValidationError, "master_seed"),
        (f"validate-master_seed-{_seed}",
         lambda s=_seed: validation.validate(PARAMS, VALIDATE_GRID, 2, s),
         ValidationError, "master_seed"),
    ]
for _workers in (0, -3, 2.5):
    _REFUSED += [
        (f"simulate_ensemble-n_workers-{_workers}",
         lambda w=_workers: sd.simulate_ensemble(PARAMS, GRID, 2, 1, n_workers=w),
         ValidationError, "n_workers"),
        (f"accumulate-n_workers-{_workers}",
         lambda w=_workers: _accumulate(1, n_workers=w), ValidationError, "n_workers"),
        (f"validate-n_workers-{_workers}",
         lambda w=_workers: validation.validate(PARAMS, VALIDATE_GRID, 2, 1, n_workers=w),
         ValidationError, "n_workers"),
    ]

_STATE = dict(initial_angles=np.zeros((1, 4)), projection_phases=np.zeros((1, 4)),
              rotor_speeds=np.full((1, 4), 523.0))
for _field in _STATE:
    for _label, _bad in (("nan", np.nan), ("inf", -np.inf), ("str", "a"), ("complex", 1j),
                         ("bool", True)):
        _REFUSED.append((f"SwarmState-{_field}-{_label}",
                         lambda f=_field, b=_bad: sd.SwarmState(**{**_STATE, f: np.full((1, 4), b)}),
                         ValidationError, _field))


@pytest.mark.parametrize("call,error,name", [case[1:] for case in _REFUSED],
                         ids=[case[0] for case in _REFUSED])
def test_bad_scalars_raise_a_typed_error_naming_the_argument(call, error, name):
    with pytest.raises(error, match=rf"^{name} must be "):
        call()


def test_numpy_integers_are_accepted_and_stored_as_int():
    params = mavic_params(n_drones=np.int64(2), n_rotors=np.int32(4), n_blades=np.uint8(2))
    grid = sd.SamplingGrid(t_start=0.0, dt=GRID.dt, n_samples=np.int64(64))
    settings = sd.EstimatorSettings(n_realizations=np.int64(3), seed=np.uint64(2 ** 64 - 1))
    stft = sd.StftConfig(window_length=np.int64(32), hop=np.int16(8),
                         fft_length=np.int64(64))
    for value in (params.n_drones, params.n_rotors, params.n_blades, grid.n_samples,
                  settings.n_realizations, settings.seed, stft.window_length, stft.hop,
                  stft.fft_length):
        assert type(value) is int
    assert sd.truncation_index(10.0, np.int64(2)) == 3
    assert np.array_equal(sd.harmonic_coefficients(10.0, np.int64(2), np.int64(5)),
                          sd.harmonic_coefficients(10.0, 2, 5))
    ens = sd.simulate_ensemble(params, grid, np.int64(2), np.int64(7), n_workers=np.int64(2))
    assert type(ens.master_seed) is int
    assert np.array_equal(ens.signals, sd.simulate_ensemble(params, grid, 2, 7).signals)
    acc = sd.AcfAccumulator(grid)
    sd.accumulate(params, grid, np.int64(7), [acc], np.int64(0), np.int64(2))
    assert json.loads(sd.curve_to_json(acc.curve()))["meta"]["master_seed"] == 7


def test_numpy_integer_params_round_trip_through_the_config():
    config = sd.RunConfig(params=mavic_params(n_drones=np.int64(2)), grid=GRID,
                          estimator=sd.EstimatorSettings(seed=np.int64(5)))
    text = sd.serialize_config(config)
    assert json.loads(text)["n_drones"] == 2
    assert sd.load_config(text) == config


def test_lists_scalars_and_integer_arrays_evaluate_as_float64():
    taus = [0, 1, 2]
    floats = np.array(taus, dtype=float) * 1e-4
    for evaluate, model in ((sd.acf_eval, ACF), (sd.psd_eval, PSD),
                            (sd.acf_deterministic_eval, PARAMS0)):
        reference = evaluate(model, floats)
        assert np.array_equal(evaluate(model, floats.tolist()), reference)
        assert evaluate(model, 2) == evaluate(model, 2.0)
        assert np.array_equal(evaluate(model, np.array(taus, dtype=np.int32)),
                              evaluate(model, np.arange(3.0)))
    assert np.array_equal(sd.bessel_j(0, [1, 2]), sd.bessel_j(0, np.array([1.0, 2.0])))
    assert np.array_equal(sd.bessel_j(3, np.float32(1.5)), sd.bessel_j(3, 1.5))
    assert sd.bessel_j(0, np.uint8(2)) == sd.bessel_j(0, 2.0)


def test_accumulator_stores_a_numpy_integer_seed_as_int():
    acc = sd.AcfAccumulator(GRID)
    acc.add(ROWS, np.uint64(2 ** 64 - 1))
    assert json.loads(sd.curve_to_json(acc.curve()))["meta"]["master_seed"] == 2 ** 64 - 1
    assert type(acc.master_seed) is int
