import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import swarmdoppler as sd
from swarmdoppler.exceptions import ConfigError, ValidationError
from helpers import mavic_params

# independent arithmetic: (electrical_size/2) * (523 + 5*sqrt(27))
MAVIC_BAND_EDGE = 48290.87001810405
MAVIC_DT_BOUND = 6.505562340069713e-05


def test_derive_reference_size():
    d = sd.derive(mavic_params())
    assert d.electrical_size == 8.0 * math.pi * 0.21 / 0.03
    assert d.electrical_size == pytest.approx(175.9292, abs=1e-4)
    assert d.mod_index == 0.5 * d.electrical_size


def test_derive_unit_size():
    wavelength = 0.03
    with pytest.warns(UserWarning):   # blade shorter than the carrier
        params = mavic_params(blade_length=wavelength / (8.0 * math.pi))
    assert sd.derive(params).electrical_size == pytest.approx(1.0, rel=1e-14)


def test_derive_cutoff_ratio_matches_coefficient_knee():
    d = sd.derive(mavic_params())
    assert d.electrical_size / (2 * 2) == pytest.approx(43.98, abs=0.01)


def test_derive_is_pure():
    a = sd.derive(mavic_params())
    b = sd.derive(mavic_params())
    assert a == b


@pytest.mark.parametrize("field,value", [
    ("n_drones", 0), ("n_rotors", -1), ("n_blades", 0), ("n_blades", 2.0),
    ("blade_length", 0.0), ("wavelength", -0.01), ("mean_speed", 0.0),
    ("speed_variance", -1.0), ("gain_magnitude", 0.0),
    ("mean_speed", float("nan")),
])
def test_invalid_params_name_the_field(field, value):
    with pytest.raises(ValidationError, match=field):
        mavic_params(**{field: value})


def test_long_wavelength_regime_warns():
    with pytest.warns(UserWarning, match="wavelength"):
        sd.SwarmParams(n_drones=1, n_rotors=1, n_blades=2, blade_length=0.02,
                       wavelength=0.03, mean_speed=100.0)


def test_default_grid_reference_values():
    grid = sd.default_grid(mavic_params())
    assert sd.band_edge(mavic_params()) == pytest.approx(MAVIC_BAND_EDGE, rel=1e-12)
    assert grid.dt == pytest.approx(MAVIC_DT_BOUND, rel=1e-12)
    assert grid.n_samples == 4001
    assert grid.t_start == 0.0


def test_default_grid_zero_variance_edge():
    params = mavic_params(speed_variance=0.0)
    assert sd.band_edge(params) == sd.derive(params).mod_index * params.mean_speed


def test_default_grid_oversample_scaling():
    params = mavic_params()
    dt1 = sd.default_grid(params, oversample=1.0).dt
    dt4 = sd.default_grid(params, oversample=4.0).dt
    assert dt4 == pytest.approx(dt1 / 4.0, rel=1e-15)


def test_default_grid_rejects_undersampling_factor():
    with pytest.raises(ValidationError):
        sd.default_grid(mavic_params(), oversample=0.5)


@settings(max_examples=40, deadline=None)
@given(ratio=st.floats(min_value=3.0, max_value=40.0),
       mean=st.floats(min_value=50.0, max_value=2000.0),
       rel_spread=st.floats(min_value=0.0, max_value=0.2),
       oversample=st.floats(min_value=1.0, max_value=8.0))
def test_default_grid_nyquist_bound_property(ratio, mean, rel_spread, oversample):
    params = sd.SwarmParams(n_drones=1, n_rotors=1, n_blades=2,
                            blade_length=0.01 * ratio, wavelength=0.01,
                            mean_speed=mean,
                            speed_variance=(rel_spread * mean) ** 2)
    grid = sd.default_grid(params, oversample=oversample)
    d = sd.derive(params)
    product = d.mod_index * (mean + 5.0 * params.speed_std) * grid.dt
    assert product <= math.pi / oversample * (1.0 + 1e-12)


def test_check_grid_enforces_nyquist_guard():
    params = mavic_params()
    bound = math.pi / sd.band_edge(params)
    sd.check_grid(params, sd.SamplingGrid(t_start=0.0, dt=bound, n_samples=100))
    with pytest.raises(ValidationError, match="undersample") as refused:
        sd.check_grid(params, sd.SamplingGrid(t_start=0.0, dt=2.0 * bound, n_samples=100))
    message = str(refused.value)      # names no opt-out keyword: there is none
    assert "allow_undersampled" not in message and "=True" not in message


def test_check_grid_refuses_times_whose_rounding_moves_the_phase_too_far():
    params = mavic_params()
    dt = math.pi / sd.band_edge(params)
    # mavic-like: half an ulp moves the phase 0.0058 rad below 2**31 s, 0.0115 above
    span = dt * 99
    sd.check_grid(params, sd.SamplingGrid(t_start=2.0 ** 31 - 2 * span, dt=dt, n_samples=100))
    sd.check_grid(params, sd.SamplingGrid(t_start=-2.0 ** 31 + span, dt=dt, n_samples=100))
    for late in (sd.SamplingGrid(t_start=2.0 ** 31 - span / 2, dt=dt, n_samples=100),
                 sd.SamplingGrid(t_start=-2.0 ** 31, dt=dt, n_samples=100),
                 sd.SamplingGrid(t_start=0.0, dt=dt, n_samples=2 ** 46),
                 sd.SamplingGrid(t_start=1e12, dt=dt, n_samples=100)):
        with pytest.raises(ValidationError, match="t_start .* too late"):
            sd.check_grid(params, late)


def test_grid_field_validation():
    with pytest.raises(ValidationError):
        sd.SamplingGrid(t_start=0.0, dt=0.0, n_samples=10)
    with pytest.raises(ValidationError):
        sd.SamplingGrid(t_start=0.0, dt=1e-5, n_samples=0)
    with pytest.raises(ValidationError):
        sd.SamplingGrid(t_start=float("inf"), dt=1e-5, n_samples=10)
    for bad in (True, False):
        with pytest.raises(ValidationError, match="t_start"):
            sd.SamplingGrid(t_start=bad, dt=1e-5, n_samples=10)
    doc = dict(MAVIC_DOC, grid={"t_start_s": True})
    with pytest.raises(ValidationError, match="t_start"):
        sd.load_config(json.dumps(doc))


def test_grid_times_and_span():
    grid = sd.SamplingGrid(t_start=1.0, dt=0.5, n_samples=4)
    assert np.array_equal(grid.times(), [1.0, 1.5, 2.0, 2.5])
    assert grid.span == 1.5


MAVIC_DOC = {
    "n_drones": 1, "n_rotors": 4, "n_blades": 2,
    "blade_length_m": 0.21, "wavelength_m": 0.03,
    "mean_speed_rad_s": 523.0, "speed_variance": 27.0,
}


def test_load_config_reference_document():
    config = sd.load_config(json.dumps(MAVIC_DOC))
    assert config.params == mavic_params()
    # omitted sections fall back to declared defaults
    assert config.grid.n_samples == 4001
    assert config.grid.dt == pytest.approx(MAVIC_DT_BOUND, rel=1e-12)
    assert config.estimator == sd.EstimatorSettings()


def test_load_config_empty_document():
    with pytest.raises(ConfigError, match="missing required key"):
        sd.load_config("{}")


def test_load_config_invariant_violation():
    doc = dict(MAVIC_DOC, n_blades=0)
    with pytest.raises(ValidationError, match="n_blades"):
        sd.load_config(json.dumps(doc))


@pytest.mark.parametrize("mutate", [
    lambda d: d.update(blade_len_m=0.2),
    lambda d: d.update(grid={"dt": 1e-5}),
    lambda d: d.update(estimator={"n_realisations": 10}),
])
def test_load_config_rejects_unknown_keys(mutate):
    doc = dict(MAVIC_DOC)
    mutate(doc)
    with pytest.raises(ConfigError, match="unknown key"):
        sd.load_config(json.dumps(doc))


def test_load_config_parse_error_carries_location():
    with pytest.raises(ConfigError, match="line 1"):
        sd.load_config("{not json")


def test_load_config_rejects_undersampled_grid():
    doc = dict(MAVIC_DOC, grid={"dt_s": 1.0, "n_samples": 10})
    with pytest.raises(ValidationError, match="undersample"):
        sd.load_config(json.dumps(doc))


@settings(max_examples=50, deadline=None)
@given(ratio=st.floats(min_value=3.0, max_value=40.0),
       mean=st.floats(min_value=50.0, max_value=2000.0),
       rel_spread=st.floats(min_value=0.0, max_value=0.2),
       drones=st.integers(min_value=1, max_value=20),
       n_real=st.integers(min_value=1, max_value=10 ** 6),
       seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       shrink=st.floats(min_value=1.0, max_value=8.0))
def test_config_round_trip_identity(ratio, mean, rel_spread, drones, n_real,
                                    seed, shrink):
    params = sd.SwarmParams(n_drones=drones, n_rotors=2, n_blades=3,
                            blade_length=0.01 * ratio, wavelength=0.01,
                            mean_speed=mean,
                            speed_variance=(rel_spread * mean) ** 2)
    grid = sd.SamplingGrid(t_start=0.0,
                           dt=math.pi / (shrink * sd.band_edge(params)),
                           n_samples=257)
    config = sd.RunConfig(params=params, grid=grid,
                          estimator=sd.EstimatorSettings(n_realizations=n_real,
                                                         seed=seed))
    assert sd.load_config(sd.serialize_config(config)) == config


# the document layout, written out by hand: the one key table in model.py
# must keep writing these names
MAVIC_EXPLICIT_TEXT = """{
 "blade_length_m": 0.21,
 "estimator": {
  "n_realizations": 300,
  "seed": 77
 },
 "gain_magnitude": 1.0,
 "grid": {
  "dt_s": 5e-05,
  "n_samples": 2048,
  "t_start_s": 0.25
 },
 "mean_speed_rad_s": 523.0,
 "n_blades": 2,
 "n_drones": 1,
 "n_rotors": 4,
 "speed_variance": 27.0,
 "wavelength_m": 0.03
}"""


def test_serialize_config_writes_the_documented_keys():
    config = sd.RunConfig(mavic_params(),
                          sd.SamplingGrid(t_start=0.25, dt=5e-5, n_samples=2048),
                          sd.EstimatorSettings(n_realizations=300, seed=77))
    assert sd.serialize_config(config) == MAVIC_EXPLICIT_TEXT
    assert sd.load_config(MAVIC_EXPLICIT_TEXT) == config


def test_curve_axis_and_shape_validation():
    with pytest.raises(ValidationError):
        sd.Curve(axis="volts", x=np.arange(3.0), y=np.arange(3.0))
    with pytest.raises(ValidationError):
        sd.Curve(axis="lag_s", x=np.arange(3.0), y=np.arange(4.0))
    with pytest.raises(ValidationError, match="strictly increasing"):
        sd.Curve(axis="lag_s", x=np.array([0.0, 0.0, 1.0]), y=np.zeros(3))


def test_curve_is_immutable():
    curve = sd.Curve(axis="lag_s", x=np.arange(3.0), y=np.ones(3))
    with pytest.raises(ValueError):
        curve.x[0] = 5.0
    with pytest.raises(TypeError):
        curve.meta["new"] = 1


def test_curve_csv_and_json():
    curve = sd.Curve(axis="lag_s", x=np.array([0.0, 1.0]),
                     y=np.array([1.0 + 2.0j, 3.0]), meta={"seed": 5})
    text = sd.curve_to_csv(curve)
    assert text.splitlines()[0] == "lag_s,y_re,y_im"
    assert text.splitlines()[1] == "0.0,1.0,2.0"
    doc = json.loads(sd.curve_to_json(curve))
    assert doc["meta"] == {"seed": 5}
    assert doc["y_im"] == [2.0, 0.0]
