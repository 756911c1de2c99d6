"""The argument contract shared by every public entry point.

A bad scalar or array raises a typed library error whose message starts
with the argument's name; numpy integers are accepted wherever an integer
is, and are stored as Python ints; an array of reals may hold integers or
floats of any width, never bools, strings or objects.
"""
import inspect
import json
import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swarmdoppler as sd
from swarmdoppler import validation
from swarmdoppler.exceptions import ConfigError, DomainError, ValidationError
from helpers import MAVIC_LIKE, mavic_params

PARAMS = mavic_params()
GRID = sd.default_grid(PARAMS, n_samples=64)
# validate compares spectra, which needs more than 200 samples, and a
# spectrogram one window of 256
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

for _count in (0, -1, 2.5, True, "10"):
    _REFUSED.append((f"validate-n_realizations-{_count}",
                     lambda n=_count: validation.validate(PARAMS, VALIDATE_GRID, n, 1),
                     ValidationError, "n_realizations"))

_STATE = dict(initial_angles=np.zeros((1, 4)), projection_phases=np.zeros((1, 4)),
              rotor_speeds=np.full((1, 4), 523.0))
for _field in _STATE:
    for _label, _bad in (("nan", np.nan), ("inf", -np.inf), ("str", "a"), ("complex", 1j),
                         ("bool", True)):
        _REFUSED.append((f"SwarmState-{_field}-{_label}",
                         lambda f=_field, b=_bad: sd.SwarmState(**{**_STATE, f: np.full((1, 4), b)}),
                         ValidationError, _field))
    _REFUSED.append((f"SwarmState-{_field}-1-d",
                     lambda f=_field: sd.SwarmState(**{**_STATE, f: np.zeros(4)}),
                     ValidationError, _field))

_SIGNALS = np.zeros((2, GRID.n_samples), np.complex64)
for _label, _bad in (("str", "x"), ("negative", -1), ("float", 1.5), ("bool", True),
                     ("past-64-bits", 2 ** 64)):
    _REFUSED.append((f"Ensemble-master_seed-{_label}",
                     lambda b=_bad: sd.Ensemble(PARAMS, GRID, b, _SIGNALS), ValidationError,
                     "master_seed"))
# a container stores complex64 or complex128 only; where long double is double,
# clongdouble is complex128 and stores whole
if np.dtype(np.clongdouble).itemsize > 16:
    _REFUSED.append(("Ensemble-signals-clongdouble",
                     lambda: sd.Ensemble(PARAMS, GRID, 1, np.full(
                         _SIGNALS.shape, np.clongdouble(1) / 3)), ValidationError, "signals"))
_SPECTROGRAM = dict(power=np.ones((4, 3)), times=np.arange(3.0), freqs=np.arange(4.0))
_REFUSED += [
    ("AcfSeries-params-dict", lambda: sd.AcfSeries(MAVIC_LIKE, 5), ValidationError, "params"),
    ("AcfSeries-n_terms-0", lambda: sd.AcfSeries(PARAMS, 0), ValidationError, "n_terms"),
    ("AcfSeries-n_terms-str", lambda: sd.AcfSeries(PARAMS, "5"), ValidationError, "n_terms"),
    ("PsdMixture-acf-params", lambda: sd.PsdMixture(PARAMS), ValidationError, "acf"),
    ("DerivedParams-nan", lambda: sd.DerivedParams(math.nan), ValidationError,
     "electrical_size"),
    ("DerivedParams-str", lambda: sd.DerivedParams("10"), ValidationError,
     "electrical_size"),
    ("Spectrogram-power-str",
     lambda: sd.Spectrogram(**{**_SPECTROGRAM, "power": np.full((4, 3), "a")}),
     ValidationError, "power"),
]
_X = np.arange(3.0)
_CURVE = dict(axis="lag_s", x=_X, y=_X)
for _field, _label, _bad in (("x", "str", ["a", "b", "c"]), ("x", "complex", _X + 1j),
                             ("x", "inf", [0.0, 1.0, np.inf]), ("y", "str", ["a", "b", "c"]),
                             ("y", "object", _X.astype(object)),
                             ("y", "bool", [True, False, True]), ("y", "nan", [0.0, np.nan, 1.0])):
    _REFUSED.append((f"Curve-{_field}-{_label}",
                     lambda f=_field, b=_bad: sd.Curve(**{**_CURVE, f: b}), ValidationError,
                     _field))
for _bad in (True, 3, "bogus"):
    _REFUSED.append((f"simulate_ensemble-dtype-{_bad}",
                     lambda b=_bad: sd.simulate_ensemble(PARAMS, GRID, 2, 1, dtype=b),
                     ValidationError, "dtype"))
for _bad in (None, 5, True):
    _REFUSED.append((f"load_config-{_bad}", lambda b=_bad: sd.load_config(b), ConfigError,
                     "text"))
_RUN_CONFIG = dict(params=PARAMS, grid=GRID, estimator=sd.EstimatorSettings())
for _field in _RUN_CONFIG:
    _REFUSED.append((f"RunConfig-{_field}-str",
                     lambda f=_field: sd.RunConfig(**{**_RUN_CONFIG, f: "x"}), ValidationError,
                     _field))
_REFUSED.append(("RunConfig-grid-undersampled",
                 lambda: sd.RunConfig(**{**_RUN_CONFIG, "grid": sd.SamplingGrid(
                     t_start=0.0, dt=2.0 * GRID.dt, n_samples=64)}), ValidationError, "dt"))
_CHOICES = np.array(["index", "magnitude"])
_REFUSED += [
    ("coefficient_power_fraction-order-array",
     lambda: sd.coefficient_power_fraction(10.0, 2, 0.5, order=_CHOICES), ValidationError,
     "order"),
    ("Curve-axis-array",
     lambda: sd.Curve(**{**_CURVE, "axis": np.array(["lag_s", "frequency_hz"])}),
     ValidationError, "axis"),
]


@pytest.mark.parametrize("call,error,name", [case[1:] for case in _REFUSED],
                         ids=[case[0] for case in _REFUSED])
def test_bad_scalars_raise_a_typed_error_naming_the_argument(call, error, name):
    with pytest.raises(error, match=rf"^{name} must be "):
        call()


def test_numpy_integers_are_accepted_and_stored_as_int():
    params = mavic_params(n_drones=np.int64(2), n_rotors=np.int32(4), n_blades=np.uint8(2))
    grid = sd.SamplingGrid(t_start=0.0, dt=GRID.dt, n_samples=np.int64(64))
    settings = sd.EstimatorSettings(n_realizations=np.int64(3), seed=np.uint64(2 ** 64 - 1))
    for value in (params.n_drones, params.n_rotors, params.n_blades, grid.n_samples,
                  settings.n_realizations, settings.seed):
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


# ------------------------------------------------------- fuzzing over __all__

# bad kinds of value, by what the argument takes; none is a huge count, so
# no call that is refused too late can run without end
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, max_side=3)
_NOT_NUMBERS = st.one_of(
    st.booleans(), st.none(), st.sampled_from([math.nan, math.inf, -math.inf]),
    st.builds(complex, st.floats(-9, 9), st.floats(0.5, 9)),
    hnp.arrays(object, _SHAPES, elements=st.floats(-9, 9)),
    hnp.arrays("U3", _SHAPES), hnp.arrays(bool, _SHAPES))


def _numbers(refused_ndim=lambda ndim: True, dtype=float):
    """Finite numeric arrays of the ndims for which ``refused_ndim`` is true."""
    return hnp.arrays(dtype, _SHAPES.filter(lambda shape: refused_ndim(len(shape))),
                      elements=st.integers(-9, 9))


def _non_finite(shape):
    """Arrays of ``shape``, real or complex, that hold a NaN or an infinity."""
    return st.builds(lambda v, c: np.full(shape, complex(v, 0) if c else v),
                     st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())


def _arrays(ndim=None, complex_ok=False):
    """Bad values for an argument of finite numbers of ``ndim`` dimensions, or
    of any if it is None; the walker adds non-finite arrays of the valid shape."""
    kinds = [_NOT_NUMBERS, st.text(max_size=3)]
    if ndim is not None:
        kinds.append(_numbers(lambda n: n != ndim))
    if not complex_ok:
        kinds.append(_numbers(dtype=complex))
    return st.one_of(*kinds)


_BAD = {
    "int": st.one_of(_NOT_NUMBERS, st.text(max_size=3), st.floats(), _numbers(),
                     _numbers(dtype=int)),
    "real": st.one_of(_NOT_NUMBERS, st.text(max_size=3), _numbers()),
    "reals": _arrays(),
    "reals-1d": _arrays(1),
    "reals-2d": _arrays(2),
    "numbers-1d": _arrays(1, complex_ok=True),
    "numbers-2d": _arrays(2, complex_ok=True),
    "choice": st.one_of(_NOT_NUMBERS, st.text(max_size=3), st.floats(), _numbers(),
                        hnp.arrays("U12", _SHAPES, elements=st.sampled_from(
                            ["lag_s", "hann", "index", "magnitude"]))),
    "dtype": st.one_of(_NOT_NUMBERS, st.integers(-9, 9), _numbers(),
                       st.sampled_from(["bogus", "float64", "i4", ">c16"])),
    "text": st.one_of(_NOT_NUMBERS, st.text(max_size=3), st.floats(), st.integers(-9, 9),
                      _numbers()),
}
# an ensemble stores any complex numbers, NaN and infinities too; the
# estimators that read it refuse those
_BAD["stored-2d"] = _arrays(2, complex_ok=True)
_BAD["int-or-none"] = _BAD["int"].filter(lambda v: v is not None)
_ARRAY_KINDS = {"reals", "reals-1d", "reals-2d", "numbers-1d", "numbers-2d"}

# every public callable that takes numbers: (call, valid keyword arguments,
# kind of each argument the walker spoils)
_WALK = {
    "SwarmParams": (sd.SwarmParams, MAVIC_LIKE,
                    {**dict.fromkeys(("n_drones", "n_rotors", "n_blades"), "int"),
                     **dict.fromkeys(("blade_length", "wavelength", "mean_speed",
                                      "speed_variance", "gain_magnitude"), "real")}),
    "SamplingGrid": (sd.SamplingGrid, dict(t_start=0.0, dt=GRID.dt, n_samples=8),
                     dict(t_start="real", dt="real", n_samples="int")),
    "Curve": (sd.Curve, _CURVE, dict(axis="choice", x="reals-1d", y="numbers-1d")),
    "EstimatorSettings": (sd.EstimatorSettings, dict(n_realizations=2, seed=1),
                          dict(n_realizations="int", seed="int")),
    "default_grid": (sd.default_grid, dict(params=PARAMS, oversample=2.0, n_samples=8),
                     dict(oversample="real", n_samples="int")),
    "load_config": (sd.load_config, dict(text=sd.serialize_config(sd.RunConfig(
        PARAMS, GRID, sd.EstimatorSettings()))), dict(text="text")),
    "bessel_j": (sd.bessel_j, dict(n=2, x=[1.5, 2.0]), dict(n="int", x="reals")),
    "bessel_j_many": (sd.bessel_j_many, dict(n_max=2, x=1.5), dict(n_max="int", x="real")),
    "DerivedParams": (sd.DerivedParams, dict(electrical_size=10.0),
                      dict(electrical_size="real")),
    "AcfSeries": (sd.AcfSeries, dict(params=PARAMS, n_terms=5), dict(n_terms="int")),
    "acf_eval": (sd.acf_eval, dict(acf=ACF, tau=[0.0, 1e-4]), dict(tau="reals")),
    "acf_deterministic_eval": (sd.acf_deterministic_eval, dict(params=PARAMS0, tau=[0.0, 1e-4]),
                               dict(tau="reals")),
    "truncation_index": (sd.truncation_index, dict(electrical_size=10.0, n_blades=2),
                         dict(electrical_size="real", n_blades="int")),
    "harmonic_coefficients": (sd.harmonic_coefficients,
                              dict(electrical_size=10.0, n_blades=2, n_max=5),
                              dict(electrical_size="real", n_blades="int", n_max="int")),
    "psd_eval": (sd.psd_eval, dict(psd=PSD, freq=[0.0, 1e3]), dict(freq="reals")),
    "coefficient_power_fraction": (
        sd.coefficient_power_fraction,
        dict(electrical_size=10.0, n_blades=2, fraction=0.5, order="index"),
        dict(electrical_size="real", n_blades="int", fraction="real", order="choice")),
    "SwarmState": (sd.SwarmState, _STATE, dict.fromkeys(_STATE, "reals-2d")),
    "Ensemble": (sd.Ensemble, dict(params=PARAMS, grid=GRID, master_seed=1, signals=_SIGNALS),
                 dict(master_seed="int", signals="stored-2d")),
    "simulate_ensemble": (sd.simulate_ensemble,
                          dict(params=PARAMS, grid=GRID, n_realizations=2, master_seed=1,
                               n_workers=1, dtype=np.complex64),
                          dict(n_realizations="int", master_seed="int", n_workers="int",
                               dtype="dtype")),
    "realization_rng": (sd.realization_rng, dict(master_seed=1, index=0),
                        dict(master_seed="int", index="int")),
    "AcfAccumulator": (sd.AcfAccumulator, dict(grid=GRID, t_ref_index=0, n_lags=8),
                       dict(t_ref_index="int", n_lags="int-or-none")),
    "AcfAccumulator.add": (lambda **kw: sd.AcfAccumulator(GRID).add(**kw),
                           dict(rows=ROWS, master_seed=1),
                           dict(rows="numbers-2d", master_seed="int")),
    "accumulate": (lambda **kw: sd.accumulate(PARAMS, GRID, accumulators=[
        sd.AcfAccumulator(GRID)], **kw), dict(master_seed=1, start=0, stop=2, n_workers=1),
        dict(master_seed="int", start="int", stop="int", n_workers="int")),
    "spectrogram": (sd.spectrogram,
                    dict(series=np.zeros(VALIDATE_GRID.n_samples), grid=VALIDATE_GRID),
                    dict(series="numbers-1d")),
    "Spectrogram": (sd.Spectrogram, _SPECTROGRAM, dict.fromkeys(_SPECTROGRAM, "reals")),
}
# callables that take no number, only the library's own objects or a path
_NO_NUMBERS = {"RunConfig", "derive", "band_edge", "check_grid", "serialize_config",
               "curve_to_csv", "curve_to_json", "mainlobe_width", "build_acf", "build_psd",
               "PsdMixture", "psd_support", "psd_line_spectrum", "sample_state",
               "synthesize", "estimate_psd", "save_ensemble", "load_ensemble"}
_SPOILS = [(name, arg) for name, (_, _, kinds) in _WALK.items() for arg in kinds]


def test_the_walk_covers_every_public_callable():
    public = {name for name in sd.__all__ if callable(getattr(sd, name))
              and not (inspect.isclass(getattr(sd, name))
                       and issubclass(getattr(sd, name), sd.SwarmModelError))}
    walked = {name.split(".")[0] for name in _WALK}
    assert public == walked | _NO_NUMBERS
    for name, (call, valid, _) in _WALK.items():
        call(**valid)


@settings(max_examples=800, deadline=None)
@given(spoil=st.sampled_from(_SPOILS), data=st.data())
def test_bad_kinds_of_argument_raise_only_library_errors(spoil, data):
    name, arg = spoil
    call, valid, kinds = _WALK[name]
    bad = _BAD[kinds[arg]]
    if kinds[arg] in _ARRAY_KINDS:
        bad = st.one_of(bad, _non_finite(np.shape(valid[arg])))
    bad = data.draw(bad, label=f"{name}({arg}=...)")
    with pytest.raises(sd.SwarmModelError):
        call(**{**valid, arg: bad})
