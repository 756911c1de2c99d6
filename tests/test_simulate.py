import ctypes
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import swarmdoppler as sd
from swarmdoppler import simulate, validation
from swarmdoppler.exceptions import DomainError, FormatError, ValidationError
from helpers import mavic_params, synthesize_paired, synthesize_per_blade, time_average_partial
from conftest import MAVIC_N, MAVIC_SEED, N_WORKERS


def small_grid(params, n_samples=256):
    return sd.default_grid(params, n_samples=n_samples)


def static_scatterer():
    """One blade, one rotor, frozen at angle zero: a constant return."""
    params = mavic_params(n_drones=1, n_rotors=1, n_blades=1, gain_magnitude=0.7)
    state = sd.SwarmState(initial_angles=np.zeros((1, 1)),
                          projection_phases=np.zeros((1, 1)),
                          rotor_speeds=np.zeros((1, 1)))
    return params, state


# ---------------------------------------------------------------- sampling

def test_sample_state_zero_variance_pins_speeds():
    params = mavic_params(speed_variance=0.0)
    state = sd.sample_state(params, np.random.default_rng(1))
    assert np.all(state.rotor_speeds == params.mean_speed)


def test_sample_state_is_reproducible():
    params = mavic_params()
    a = sd.sample_state(params, np.random.default_rng(99))
    b = sd.sample_state(params, np.random.default_rng(99))
    assert np.array_equal(a.initial_angles, b.initial_angles)
    assert np.array_equal(a.projection_phases, b.projection_phases)
    assert np.array_equal(a.rotor_speeds, b.rotor_speeds)


def test_sample_state_draws_uniform_angles_then_phases_then_gaussian_speeds():
    # the draw formula every stored ensemble and seed was made with
    params = mavic_params(n_drones=3, n_rotors=2)
    state = sd.sample_state(params, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    assert np.array_equal(state.initial_angles, rng.uniform(0.0, 2.0 * np.pi, size=(3, 2)))
    assert np.array_equal(state.projection_phases, rng.uniform(0.0, 2.0 * np.pi, size=(3, 2)))
    assert np.array_equal(state.rotor_speeds, params.mean_speed
                          + params.speed_std * rng.standard_normal(size=(3, 2)))


def test_sample_state_angle_ranges():
    state = sd.sample_state(mavic_params(n_drones=50, n_rotors=50),
                            np.random.default_rng(2))
    for arr in (state.initial_angles, state.projection_phases):
        assert arr.min() >= 0.0 and arr.max() < 2.0 * np.pi


def test_sample_state_speed_moments():
    params = mavic_params(n_drones=1000, n_rotors=1000)
    state = sd.sample_state(params, np.random.default_rng(3))
    n = state.rotor_speeds.size
    assert n == 10 ** 6
    bound = 5.0 * params.speed_std / math.sqrt(n)
    assert abs(state.rotor_speeds.mean() - params.mean_speed) <= bound


# ---------------------------------------------------------------- synthesis

def test_synthesize_static_scatterer():
    params, state = static_scatterer()
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=16)
    y = sd.synthesize(state, params, grid)
    expected = params.gain_magnitude * np.exp(-1j * sd.derive(params).mod_index)
    assert np.allclose(y, expected, rtol=1e-12)


def test_synthesize_amplitude_bound():
    rng = np.random.default_rng(4)
    params = mavic_params(n_drones=2, gain_magnitude=1.3)
    grid = small_grid(params, 64)
    for _ in range(5):
        y = sd.synthesize(sd.sample_state(params, rng), params, grid)
        bound = params.gain_magnitude * 2 * 4 * 2
        assert np.max(np.abs(y)) <= bound * (1.0 + 1e-9)


# The per-blade form rounds angle + 2*pi*b/n_blades near 150 rad (spacing
# 2.8e-14) and multiplies by mod_index 88, so each blade may move by ~2.5e-12;
# measured against the kernel's turn table: 1.3e-12, 1.0e-12, 7.4e-13 and
# 5.8e-13 per scatterer for 1-4 blades.
KERNEL_TOL_PER_SCATTERER = 2.5e-12


@pytest.mark.parametrize("n_blades", [1, 2, 3, 4])
def test_synthesize_matches_per_blade_reference(n_blades):
    params = mavic_params(n_drones=2, n_blades=n_blades, gain_magnitude=1.3)
    grid = sd.default_grid(params)
    scatterers = params.n_drones * params.n_rotors * n_blades
    tol = KERNEL_TOL_PER_SCATTERER * params.gain_magnitude * scatterers
    for k in range(5):
        state = sd.sample_state(params, sd.realization_rng(3, k))
        y = sd.synthesize(state, params, grid)
        assert y.dtype == np.complex128 and y.shape == (grid.n_samples,)
        assert np.array_equal(y, synthesize_paired(state, params, grid))
        assert np.max(np.abs(y - synthesize_per_blade(state, params, grid))) <= tol


def test_synthesize_rejects_mismatched_state():
    params, state = static_scatterer()
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=4)
    with pytest.raises(ValidationError):
        sd.synthesize(state, mavic_params(), grid)


def _exact_turn(speed: float, t_start: float) -> float:
    """``fmod(speed*t_start, 2*pi)`` of the product rounded to nearest-even
    float64 with no largest exponent, in exact rational arithmetic."""
    product = Fraction(speed) * Fraction(t_start)
    if product:
        # 2**e <= |product| < 2**(e+1)
        e = abs(product.numerator).bit_length() - product.denominator.bit_length()
        e -= abs(product) < Fraction(2) ** e
        ulp = Fraction(2) ** max(e - 52, -1074)
        product = round(product / ulp) * ulp
    period = Fraction(2.0 * np.pi)
    rest = product - int(product / period) * period
    return math.copysign(float(rest), speed * t_start)    # the sign of the product


@settings(max_examples=60, deadline=None)
@given(t_start=st.floats(allow_nan=False, allow_infinity=False),
       n_blades=st.integers(1, 4), dtype=st.sampled_from([np.complex64, np.complex128]))
@example(t_start=3.32e305, n_blades=2, dtype=np.complex64)      # overflows for some draws
@example(t_start=-1e306, n_blades=2, dtype=np.complex64)
@example(t_start=sys.float_info.max, n_blades=3, dtype=np.complex128)
def test_a_late_row_is_the_row_at_zero_turned_by_its_start(t_start, n_blades, dtype):
    params = mavic_params(n_blades=n_blades)
    dt = sd.default_grid(params).dt
    angles, phases, speeds = simulate._draw(params, simulate._substreams(3, 0, 2))
    turn = np.array([_exact_turn(speed, t_start) for speed in speeds.ravel().tolist()])
    late, turned = np.empty((2, 2, 64), dtype=dtype)
    simulate._synthesize_rows(late, angles, phases, speeds, params,
                              sd.SamplingGrid(t_start=t_start, dt=dt, n_samples=64))
    simulate._synthesize_rows(turned, angles + turn.reshape(speeds.shape),
                              phases, speeds, params,
                              sd.SamplingGrid(t_start=0.0, dt=dt, n_samples=64))
    assert late.tobytes() == turned.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        direct = np.fmod(speeds * t_start, 2.0 * np.pi).ravel()
    finite = np.isfinite(direct)
    assert turn[finite].tobytes() == direct[finite].tobytes()


_LONG_DOUBLE_IS_WIDER = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def _long_double_row(angles, phases, speeds, turns, params, grid):
    """One realization's return in long double at exact angles: rotor r of
    blade b at sample k sits at ``angles[r] + turns[r] + speeds[r]*k*dt +
    2*pi*b/n_blades``, every input taken as the exact value of its double."""
    ld = np.longdouble
    times = ld(grid.dt) * np.arange(grid.n_samples, dtype=ld)
    rotor = (angles.astype(ld) + turns.astype(ld))[:, None] + speeds.astype(ld)[:, None] * times
    two_pi = 2 * np.arccos(ld(-1))
    mod_index = ld(sd.derive(params).mod_index)
    re = im = ld(0)
    for b in range(params.n_blades):
        phase = mod_index * np.cos(rotor + two_pi * b / params.n_blades)
        re, im = re + np.cos(phase), im - np.sin(phase)
    cos_p, sin_p = np.cos(phases.astype(ld))[:, None], np.sin(phases.astype(ld))[:, None]
    gain = ld(params.gain_magnitude)
    return (gain * np.sum(cos_p * re + sin_p * im, axis=0),
            gain * np.sum(cos_p * im - sin_p * re, axis=0))


# the bound is the per-blade test's, fixed before this test first ran: one
# unit in the last place of the largest angle times the modulation index per
# scatterer.  Each table sample's angle takes the roundings of the angle the
# per-sample form took at a*B, plus that of the turn over b steps
@pytest.mark.skipif(not _LONG_DOUBLE_IS_WIDER,
                    reason="long double is float64 here: no more precise reference")
@pytest.mark.parametrize("t_start", [0.0, 1e12])
@pytest.mark.parametrize("n_blades", [1, 2, 3, 4])
def test_kernel_is_within_tolerance_of_long_double_at_exact_angles(n_blades, t_start):
    params = mavic_params(n_drones=2, n_blades=n_blades, gain_magnitude=1.3)
    default = sd.default_grid(params)
    grid = sd.SamplingGrid(t_start=t_start, dt=default.dt, n_samples=default.n_samples)
    angles, phases, speeds = simulate._draw(params, simulate._substreams(3, 0, 2))
    rows = np.empty((2, grid.n_samples), dtype=np.complex128)
    simulate._synthesize_rows(rows, angles, phases, speeds, params, grid)
    scatterers = params.n_drones * params.n_rotors * n_blades
    tol = KERNEL_TOL_PER_SCATTERER * params.gain_magnitude * scatterers
    for row, angle, phase, speed in zip(rows, angles, phases, speeds):
        # the kernel's turn over t_start, exact: what the start angle absorbs
        turns = np.array([_exact_turn(v, t_start) for v in speed.ravel().tolist()])
        re, im = _long_double_row(angle.ravel(), phase.ravel(), speed.ravel(), turns,
                                  params, grid)
        assert np.max(np.hypot(row.real - re, row.imag - im)) <= tol


@settings(max_examples=40, deadline=None)
@given(n_samples=st.integers(1, 5000), extra=st.integers(1, 3000), n_blades=st.integers(1, 4),
       n_drones=st.integers(1, 6), dtype=st.sampled_from([np.complex64, np.complex128]),
       t_start=st.sampled_from([0.0, 0.25, 1e12]), seed=st.integers(0, 2 ** 64 - 1))
@example(n_samples=64, extra=1, n_blades=2, n_drones=1, dtype=np.complex128, t_start=0.0,
         seed=0)     # one coarse step, and the first sample of the next
# 48 rotor planes of 8000 samples: one rotor-sum product over the whole row
# would be past OpenBLAS's threading threshold, and its split would move
@example(n_samples=4999, extra=3000, n_blades=3, n_drones=6, dtype=np.complex128,
         t_start=0.0, seed=1)
def test_a_row_is_the_prefix_of_the_same_row_on_a_longer_grid(n_samples, extra, n_blades,
                                                              n_drones, dtype, t_start,
                                                              seed):
    # a sample's bits depend on its index alone, not on the grid's length
    params = mavic_params(n_drones=n_drones, n_blades=n_blades)
    dt = sd.default_grid(params).dt
    draws = simulate._draw(params, simulate._substreams(seed, 0, 3))
    short = np.empty((3, n_samples), dtype=dtype)
    simulate._synthesize_rows(short, *draws, params,
                              sd.SamplingGrid(t_start=t_start, dt=dt, n_samples=n_samples))
    longer = np.empty((3, n_samples + extra), dtype=dtype)
    simulate._synthesize_rows(longer, *draws, params,
                              sd.SamplingGrid(t_start=t_start, dt=dt,
                                              n_samples=n_samples + extra))
    assert short.tobytes() == np.ascontiguousarray(longer[:, :n_samples]).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       start=st.one_of(st.integers(0, 2 ** 40), st.integers(2 ** 32 - 40, 2 ** 32)),
       count=st.integers(1, 40))
@example(seed=2 ** 64 - 1, start=2 ** 32 - 3, count=6)     # straddles 2**32
@example(seed=0, start=0, count=1)
def test_substreams_are_numpys_seed_sequence_streams(seed, start, count):
    # realization k's generator is PCG64 seeded by numpy's own chain
    for k, rng in zip(range(start, start + count), simulate._substreams(seed, start,
                                                                       start + count)):
        oracle = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            seed, spawn_key=(k,))))
        assert rng.bit_generator.state == oracle.bit_generator.state
        for draw in ("random", "standard_normal", "random"):
            assert getattr(rng, draw)(3).tobytes() == getattr(oracle, draw)(3).tobytes()


# ------------------------------------------------------- half-angle helper

def _cos_and_sin(x):
    c, s = np.empty_like(x), np.empty_like(x)
    simulate._cos_sin(0.5 * x, c, s)     # the helper takes the half angle
    return c, s


def _kernel_arguments():
    """Every angle the mavic-like kernel takes a cosine or sine of, for one
    block: rotor angles, modulation phases and projection phases."""
    params = mavic_params()
    grid = sd.default_grid(params)
    angles, phases, speeds = simulate._draw(
        params, simulate._substreams(1, 0, simulate._BLOCK_ROWS))
    rotor = speeds.reshape(-1, 1) * grid.times() + angles.reshape(-1, 1)
    return rotor, sd.derive(params).mod_index * np.cos(rotor), phases.reshape(-1)


@pytest.mark.skipif(not _LONG_DOUBLE_IS_WIDER,
                    reason="long double is float64 here: no more precise reference")
def test_cos_sin_is_within_4_5e_16_of_long_double():
    rng = np.random.default_rng(11)
    special = np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2 * np.pi])
    for x in (rng.uniform(-1e6, 1e6, 200_000), special, *_kernel_arguments()):
        x = x.ravel()
        c, s = _cos_and_sin(x)
        ref = x.astype(np.longdouble)
        assert np.max(np.abs(c - np.cos(ref))) <= 4.5e-16
        assert np.max(np.abs(s - np.sin(ref))) <= 4.5e-16
    # cosine only, in place, gives the same bits as beside the sine
    x = rng.uniform(-1e6, 1e6, 1000)
    in_place = 0.5 * x
    assert np.array_equal(simulate._cos_sin(in_place, in_place), _cos_and_sin(x)[0])
    assert _cos_and_sin(np.zeros(3))[1].tobytes() == np.zeros(3).tobytes()   # +0.0


def test_cos_sin_gives_an_element_the_same_bits_anywhere():
    x = _kernel_arguments()[0][:, :125]
    c, s = _cos_and_sin(x)
    flat_c, flat_s = c.ravel(), s.ravel()
    for i in range(x.size):        # each element alone
        alone = _cos_and_sin(x.ravel()[i:i + 1])
        assert (alone[0].tobytes(), alone[1].tobytes()) \
            == (flat_c[i:i + 1].tobytes(), flat_s[i:i + 1].tobytes())
    for offset in range(17):       # every alignment, and every length up to 1000
        for n in range(1, 1001, 37 if offset else 1):
            part = _cos_and_sin(x.ravel()[offset:offset + n])
            assert (part[0].tobytes(), part[1].tobytes()) \
                == (flat_c[offset:offset + n].tobytes(), flat_s[offset:offset + n].tobytes())
    for view in ((slice(None), slice(None, None, 3)), (slice(None, None, 2), slice(None))):
        c_out, s_out = np.empty_like(x)[view], np.empty_like(x)[view]   # strided out too
        simulate._cos_sin((0.5 * x)[view], c_out, s_out)
        assert (c_out.tobytes(), s_out.tobytes()) == (c[view].tobytes(), s[view].tobytes())


_KERNEL_TESTS = ("test_synthesize_matches_per_blade_reference",
                 "test_kernel_is_within_tolerance_of_long_double_at_exact_angles",
                 "test_a_row_is_the_prefix_of_the_same_row_on_a_longer_grid",
                 "test_substreams_are_numpys_seed_sequence_streams")


def _rerun(tests, env, check):
    """Run ``tests`` of this module in a fresh interpreter with ``env``
    added, after the statement ``check`` holds there."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = (f"import sys, pytest\n{check}\n"
              "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
              + ", ".join(f"'tests/test_simulate.py::{test}'" for test in tests) + "]))\n")
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    if _LONG_DOUBLE_IS_WIDER:
        assert "skipped" not in run.stdout, run.stdout[-3000:]


def test_cos_sin_and_the_kernel_hold_on_numpys_libm_tangent():
    # numpy's SIMD tangent needs AVX-512; without it np.tan calls libm
    features = pytest.importorskip("numpy._core._multiarray_umath")
    if "X86_V4" not in getattr(features, "__cpu_dispatch__", ()):
        pytest.skip("this numpy build has no X86_V4 dispatch to turn off")
    _rerun(("test_cos_sin_is_within_4_5e_16_of_long_double", *_KERNEL_TESTS),
           {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
           "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
           "assert not f['X86_V4'], 'X86_V4 still on'")


def _openblas_core():
    """The name of the OpenBLAS core numpy's matrix products run on, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for path in paths:
            for symbol in ("openblas_get_corename", "openblas_get_corename64_",
                           "scipy_openblas_get_corename64_"):
                corename = getattr(ctypes.CDLL(path), symbol, None)
                if corename is not None:
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                    return corename().decode()
    except OSError:
        pass
    return None


def test_the_kernel_holds_on_openblas_without_fma():
    # the turn table's and the rotor sum's products run in BLAS gemm;
    # OpenBLAS's Sandybridge core has no fused multiply-add and gives other
    # bits than FMA cores
    if _openblas_core() is None:
        pytest.skip("numpy's matrix products do not run on an OpenBLAS that names its core")
    _rerun(_KERNEL_TESTS, {"OPENBLAS_CORETYPE": "Sandybridge"},
           "sys.path.insert(0, 'tests')\n"
           "from test_simulate import _openblas_core\n"
           "assert _openblas_core() == 'Sandybridge', _openblas_core()")


def test_a_row_keeps_its_bits_where_openblas_splits_products_over_threads():
    # OpenBLAS's Haswell core, on two threads, splits a product past its
    # threading threshold at a point that moves with the product's width
    if _openblas_core() is None:
        pytest.skip("numpy's matrix products do not run on an OpenBLAS that names its core")
    features = pytest.importorskip("numpy._core._multiarray_umath").__cpu_features__
    if not (features.get("AVX2") and features.get("FMA3")):
        pytest.skip("the Haswell core needs AVX2 and FMA3")
    _rerun(("test_a_row_is_the_prefix_of_the_same_row_on_a_longer_grid",),
           {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "2"},
           "sys.path.insert(0, 'tests')\n"
           "from test_simulate import _openblas_core\n"
           "assert _openblas_core() == 'Haswell', _openblas_core()")


# ---------------------------------------------------------------- ensembles

def test_ensemble_repeatability_and_worker_independence():
    params = mavic_params()
    grid = small_grid(params)
    a = sd.simulate_ensemble(params, grid, 24, 7)
    b = sd.simulate_ensemble(params, grid, 24, 7)
    c = sd.simulate_ensemble(params, grid, 24, 7, n_workers=4)
    assert np.array_equal(a.signals, b.signals)
    assert np.array_equal(a.signals, c.signals)
    d = sd.simulate_ensemble(params, grid, 24, 8)
    assert not np.array_equal(a.signals, d.signals)


def test_ensemble_substreams_do_not_depend_on_count():
    params = mavic_params()
    grid = small_grid(params)
    small = sd.simulate_ensemble(params, grid, 4, 7)
    larger = sd.simulate_ensemble(params, grid, 8, 7)
    assert np.array_equal(small.signals, larger.signals[:4])


def test_ensemble_validation():
    params = mavic_params()
    grid = small_grid(params)
    with pytest.raises(ValidationError):
        sd.simulate_ensemble(params, grid, 0, 1)
    with pytest.raises(ValidationError):
        sd.simulate_ensemble(params, grid, 2, 1, dtype=np.float64)


def test_pool_never_starts_more_threads_than_cpus(monkeypatch):
    started = []

    class Recording(simulate.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
    params = mavic_params()
    grid = small_grid(params, 64)
    ens = sd.simulate_ensemble(params, grid, 4, 3, n_workers=10 ** 6)
    assert all(n <= (os.cpu_count() or 1) for n in started)
    assert np.array_equal(ens.signals, sd.simulate_ensemble(params, grid, 4, 3).signals)


def test_pool_threads_are_capped_at_the_cpus_the_process_may_use(monkeypatch):
    # an affinity mask of one CPU: every block is made and reduced on the
    # calling thread, whatever the worker count
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    params = mavic_params()
    grid = small_grid(params, 64)
    threads = []

    def reduce(rows):
        threads.append(threading.get_ident())
        return rows

    n = 4 * simulate._BLOCK_ROWS
    rows = np.concatenate(list(simulate._blocks(params, grid, 3, 0, n, 8,
                                                np.dtype(np.complex64), reduce)))
    assert len(threads) == 4 and set(threads) == {threading.get_ident()}
    assert np.array_equal(rows, sd.simulate_ensemble(params, grid, n, 3).signals)


def test_ensemble_keeps_a_read_only_view_of_the_callers_array():
    params = mavic_params()
    signals = np.zeros((2, 8), complex)
    ens = sd.Ensemble(params, small_grid(params, 8), 1, signals)
    assert signals.flags.writeable and not ens.signals.flags.writeable
    assert np.shares_memory(ens.signals, signals)


def test_ensemble_rows_are_single_realizations_rounded():
    params = mavic_params(n_blades=3)
    grid = small_grid(params, 64)
    ens = sd.simulate_ensemble(params, grid, simulate._BLOCK_ROWS + 2, 5, n_workers=2)
    for k in (0, simulate._BLOCK_ROWS, simulate._BLOCK_ROWS + 1):
        alone = sd.synthesize(sd.sample_state(params, sd.realization_rng(5, k)),
                              params, grid)
        assert np.array_equal(ens.signals[k], alone.astype(np.complex64))


class _RowRecorder(sd.AcfAccumulator):
    """Keeps the rows :func:`swarmdoppler.accumulate` feeds it, in order, or
    only their ``columns``."""

    def __init__(self, grid, columns=slice(None)):
        super().__init__(grid)
        self.columns = columns
        self.rows = []

    def _partial(self, rows):
        return rows[:, self.columns].copy()

    def _fold(self, partial, n_rows, master_seed):
        self.rows.append(partial)


@settings(max_examples=30, deadline=None)
@given(n_drones=st.integers(1, 5), n_rotors=st.integers(1, 5), n_blades=st.integers(1, 4),
       gain=st.sampled_from([0.5, 1.0, 2.0]), n_samples=st.integers(16, 3000),
       start=st.integers(0, 2 * simulate._BLOCK_ROWS),
       count=st.integers(1, 3 * simulate._BLOCK_ROWS - 1),
       n_workers=st.integers(1, 2), seed=st.integers(0, 2 ** 64 - 1))
def test_every_row_made_is_the_public_pair_rounded(n_drones, n_rotors, n_blades, gain,
                                                   n_samples, start, count, n_workers,
                                                   seed):
    params = mavic_params(n_drones=n_drones, n_rotors=n_rotors, n_blades=n_blades,
                          gain_magnitude=gain)
    grid = small_grid(params, n_samples)
    stop = start + count

    def alone(k, dtype):
        state = sd.sample_state(params, sd.realization_rng(seed, k))
        return sd.synthesize(state, params, grid).astype(dtype)

    recorder = _RowRecorder(grid)
    sd.accumulate(params, grid, seed, [recorder], start, stop, n_workers=n_workers)
    streamed = np.concatenate(recorder.rows)
    assert streamed.dtype == np.complex64 and streamed.shape == (count, n_samples)
    for k, row in zip(range(start, stop), streamed):
        assert np.array_equal(row, alone(k, np.complex64))
    # the pool's blocks in the other dtype, and the stored ensemble in both
    wide = np.concatenate(list(simulate._blocks(params, grid, seed, start, stop, n_workers,
                                                np.dtype(np.complex128), lambda rows: rows)))
    for k, row in zip(range(start, stop), wide):
        assert np.array_equal(row, alone(k, np.complex128))
    for dtype in (np.complex64, np.complex128):
        ens = sd.simulate_ensemble(params, grid, min(count, 4), seed, n_workers=n_workers,
                                   dtype=dtype)
        for k, row in enumerate(ens.signals):
            assert np.array_equal(row, alone(k, dtype))


# ---------------------------------------------------------------- estimators

@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_streamed_estimates_equal_materialized(n_workers):
    # more than two blocks, the last one partial
    params = mavic_params(n_rotors=2)
    grid = small_grid(params, 64)
    n = 2 * simulate._BLOCK_ROWS + 5
    ens = sd.simulate_ensemble(params, grid, n, 17)
    single = sd.AcfAccumulator(grid)
    averaged = sd.AcfAccumulator(grid, time_average=True)
    sd.accumulate(params, grid, 17, [single, averaged], 0, n, n_workers=n_workers)
    for streamed, stored in ((single.curve(), sd.estimate_acf(ens)),
                             (averaged.curve(), sd.estimate_acf(ens, time_average=True))):
        assert np.array_equal(streamed.x, stored.x)
        assert np.array_equal(streamed.y, stored.y)
        assert streamed.meta == stored.meta


@pytest.mark.parametrize("split, exact", [
    (simulate._BLOCK_ROWS, True), (2 * simulate._BLOCK_ROWS, True),
    (1, False), (simulate._BLOCK_ROWS + 7, False),
])
def test_consecutive_ranges_equal_one_run(split, exact):
    params = mavic_params(n_rotors=2)
    grid = small_grid(params, 64)
    n = 3 * simulate._BLOCK_ROWS - 3
    for time_average in (False, True):
        whole = sd.AcfAccumulator(grid, 2, 40, time_average=time_average)
        sd.accumulate(params, grid, 23, [whole], 0, n)
        parts = sd.AcfAccumulator(grid, 2, 40, time_average=time_average)
        sd.accumulate(params, grid, 23, [parts], 0, split, n_workers=2)
        sd.accumulate(params, grid, 23, [parts], split, n)
        a, b = whole.curve(), parts.curve()
        assert a.meta == b.meta and a.meta["n_realizations"] == n
        if exact:
            assert np.array_equal(a.y, b.y)
        else:
            assert np.max(np.abs(a.y - b.y)) <= 1e-13 * np.max(np.abs(a.y))


def test_accumulator_refuses_an_empty_estimate_and_lags_past_the_grid():
    grid = small_grid(mavic_params(), 64)
    for time_average in (False, True):
        with pytest.raises(DomainError, match="no realizations"):
            sd.AcfAccumulator(grid, time_average=time_average).curve()
    for t_ref_index, n_lags in ((0, 65), (10, 55), (64, None), (-1, 4), (0, 2.5),
                                (1.0, 4), (0, True), (True, 4), (None, 4)):
        with pytest.raises(DomainError, match="lag range"):
            sd.AcfAccumulator(grid, t_ref_index, n_lags)
    acc = sd.AcfAccumulator(grid, np.int64(1), np.int32(4))
    assert (acc.t_ref_index, acc.n_lags) == (1, 4)


def test_accumulator_refuses_foreign_rows_grids_and_seeds():
    params = mavic_params()
    grid = small_grid(params, 64)
    acc = sd.AcfAccumulator(grid)
    with pytest.raises(DomainError, match="64-sample"):
        acc.add(np.zeros((2, 63), np.complex64), 1)
    with pytest.raises(ValidationError, match="grid"):
        sd.accumulate(params, small_grid(params, 65), 1, [acc], 0, 2)
    sd.accumulate(params, grid, 1, [acc], 0, 2)
    with pytest.raises(DomainError, match="seed"):
        sd.accumulate(params, grid, 2, [acc], 2, 4)
    with pytest.raises(ValidationError, match="start < stop"):
        sd.accumulate(params, grid, 1, [acc], 4, 4)
    assert acc.curve().meta["n_realizations"] == 2


def test_accumulator_refuses_rows_that_are_not_numbers():
    acc = sd.AcfAccumulator(small_grid(mavic_params(), 64))
    for rows in (np.full((2, 64), "a"), np.zeros((2, 64), bool), np.full((2, 64), None)):
        with pytest.raises(DomainError, match="dtype"):
            acc.add(rows, 1)
    assert acc.n_realizations == 0


def test_accumulator_refuses_rows_that_are_not_finite():
    acc = sd.AcfAccumulator(small_grid(mavic_params(), 64))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        rows = np.zeros((2, 64), complex)
        rows[1, 5] = bad
        for partial in (rows, rows.astype(np.complex64), np.full((2, 64), bad)):
            with pytest.raises(DomainError, match="finite"):
                acc.add(partial, 1)
    assert acc.n_realizations == 0


def test_simulation_refuses_an_undersampled_grid():
    params = mavic_params()
    grid = sd.SamplingGrid(t_start=0.0, dt=10.0 * small_grid(params).dt, n_samples=256)
    with pytest.raises(ValidationError, match="undersamples"):
        sd.simulate_ensemble(params, grid, 2, 1)
    with pytest.raises(ValidationError, match="undersamples"):
        sd.accumulate(params, grid, 1, [sd.AcfAccumulator(grid)], 0, 2)
    with pytest.raises(ValidationError, match="undersamples"):
        validation.validate(params, grid, 2, 1)


def test_estimate_acf_rejects_empty_ensemble():
    params = mavic_params()
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=8)
    ens = sd.Ensemble(params=params, grid=grid, master_seed=0,
                      signals=np.zeros((0, 8), complex))
    with pytest.raises(DomainError, match="no realizations"):
        sd.estimate_acf(ens)


def test_estimate_acf_static_scatterer_is_flat():
    params, state = static_scatterer()
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=32)
    signal = sd.synthesize(state, params, grid)
    ens = sd.Ensemble(params=params, grid=grid, master_seed=0,
                      signals=signal[None, :])
    curve = sd.estimate_acf(ens)
    assert np.allclose(curve.y, params.gain_magnitude ** 2, rtol=1e-6)
    assert abs(curve.y[0].imag) <= 1e-15 * curve.y[0].real
    assert curve.y[0].real >= 0.0


def test_estimate_acf_matches_brute_force():
    rng = np.random.default_rng(8)
    sig = (rng.normal(size=(5, 48)) + 1j * rng.normal(size=(5, 48)))
    params = mavic_params()
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-5, n_samples=48)
    ens = sd.Ensemble(params=params, grid=grid, master_seed=0, signals=sig)
    got = sd.estimate_acf(ens, t_ref_index=3, n_lags=20)
    brute = np.array([np.mean(sig[:, 3] * np.conj(sig[:, 3 + j]))
                      for j in range(20)])
    assert np.allclose(got.y, brute, rtol=1e-12)
    got_ta = sd.estimate_acf(ens, time_average=True)
    brute_ta = np.array([
        np.mean([np.mean(sig[k, :48 - j] * np.conj(sig[k, j:]))
                 for k in range(5)])
        for j in range(48)
    ])
    assert np.allclose(got_ta.y, brute_ta, rtol=1e-10)


# whole and partial groups of the transform's rows
@pytest.mark.parametrize("n_rows", [1, 3, 4, 5, 8, 31, 32])
@pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.float64])
def test_time_average_partial_is_the_padded_copy_transform(n_rows, dtype):
    grid = small_grid(mavic_params(), 4001)
    rng = np.random.default_rng(n_rows)
    rows = rng.normal(size=(n_rows, 4001))
    if dtype is not np.float64:
        rows = (rows + 1j * rng.normal(size=(n_rows, 4001))).astype(dtype)
    for n_lags in (None, 100):
        acc = sd.AcfAccumulator(grid, n_lags=n_lags, time_average=True)
        assert np.array_equal(acc._partial(rows), time_average_partial(rows, 8192))


@pytest.mark.parametrize("n_samples, n_lags, fft_len", [
    (100, 29, 128), (100, 30, 256), (64, 1, 64), (65, 64, 128), (48, 48, 128), (2, 1, 2),
])
def test_time_average_transform_is_the_shortest_power_of_two(n_samples, n_lags, fft_len):
    rng = np.random.default_rng(n_samples + n_lags)
    sig = rng.normal(size=(3, n_samples)) + 1j * rng.normal(size=(3, n_samples))
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-5, n_samples=n_samples)
    acc = sd.AcfAccumulator(grid, n_lags=n_lags, time_average=True)
    assert acc._partial(sig).shape == (fft_len,)
    acc.add(sig, 0)
    direct = np.array([np.mean(sig[:, :n_samples - j] * np.conj(sig[:, j:]))
                       for j in range(n_lags)])
    assert np.max(np.abs(acc.curve().y - direct)) <= 1e-12 * abs(direct[0])


def test_validate_reports_what_a_full_lag_single_reference_estimate_gives(monkeypatch):
    params = mavic_params()
    grid = small_grid(params, 512)
    n = simulate._BLOCK_ROWS + 5
    report = validation.validate(params, grid, n, 5, n_workers=2).report
    assert report["acf"]["window_lags"] < grid.n_samples

    class FullLags(sd.AcfAccumulator):
        def __init__(self, grid, t_ref_index=0, n_lags=None, *, time_average=False):
            super().__init__(grid, t_ref_index, time_average=time_average)

    monkeypatch.setattr(validation, "AcfAccumulator", FullLags)
    assert validation.validate(params, grid, n, 5).report == report


def test_a_zero_spread_validate_makes_only_the_samples_it_reads(monkeypatch):
    params = mavic_params(speed_variance=0.0)
    grid = sd.default_grid(params)
    n = 2 * simulate._BLOCK_ROWS + 5
    made, blocks = [], simulate._blocks

    def recorded(params, grid, *args, **kwargs):
        made.append(grid)
        return blocks(params, grid, *args, **kwargs)

    monkeypatch.setattr(simulate, "_blocks", recorded)
    result = validation.validate(params, grid, n, 5, n_workers=2)
    window = validation.acf_window(params, grid)
    assert made == [sd.SamplingGrid(grid.t_start, grid.dt, window)] and window < 20

    def full_rows(params, _, *args, **kwargs):
        return blocks(params, grid, *args, **kwargs)

    monkeypatch.setattr(simulate, "_blocks", full_rows)
    full = validation.validate(params, grid, n, 5, n_workers=2)
    assert json.dumps(full.report) == json.dumps(result.report)
    assert full.acf.estimate.tobytes() == result.acf.estimate.tobytes()
    # a reference past the first samples reads its own prefix
    for t_ref, n_lags in ((0, 1), (100, 7), (3000, 1001)):
        short, whole = (sd.AcfAccumulator(grid, t_ref, n_lags) for _ in range(2))
        monkeypatch.setattr(simulate, "_blocks", recorded)
        sd.accumulate(params, grid, 5, [short], 0, n)
        assert made[-1].n_samples == t_ref + n_lags
        monkeypatch.setattr(simulate, "_blocks", full_rows)
        sd.accumulate(params, grid, 5, [whole], 0, n, n_workers=2)
        assert short.curve().y.tobytes() == whole.curve().y.tobytes()


def test_validate_checkpoints_give_the_bits_of_one_accumulate():
    params = mavic_params()
    grid = small_grid(params, 512)
    n = 300
    result = validation.validate(params, grid, n, 5)
    single = sd.AcfAccumulator(grid, n_lags=validation.acf_window(params, grid))
    averaged = sd.AcfAccumulator(grid, time_average=True)
    sd.accumulate(params, grid, 5, [single, averaged], 0, n)
    acf = validation.compare_acf(params, grid, single.curve())
    psd = validation.compare_psd(params, averaged.curve())
    for got, want in ((result.acf, acf), (result.psd, psd)):
        for field in ("x", "reference", "estimate"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    assert result.report["acf"]["nrmse"] == acf.nrmse
    assert result.report["psd"]["nrmse"] == psd.nrmse
    # the reference is the estimator's own transform of the series on its lags
    lags = averaged.curve().x
    series = sd.build_acf(params)
    model = sd.Curve("lag_s", lags, sd.acf_eval(series, lags))
    assert np.array_equal(result.psd.reference, sd.estimate_psd(model).y)
    assert np.array_equal(result.psd.estimate, sd.estimate_psd(averaged.curve()).y)
    # the density floor: the transform of the series less its DC level
    continuous = sd.Curve("lag_s", lags, sd.acf_eval(series, lags) - series.dc_level)
    floor = validation.Comparison(result.psd.x, sd.psd_eval(sd.build_psd(params), result.psd.x),
                                  sd.estimate_psd(continuous).y)
    assert result.report["psd"]["density_floor_nrmse"] == pytest.approx(floor.nrmse, rel=1e-12)


# Both failed before the spectrum was compared with the estimator's
# expectation.  (a) Kernels narrower than two bins: against the density, the
# window's leakage left a floor of PSD nRMSE 0.11 that does not shrink with N.
# (b) On 1024 samples the narrow-kernel exclusion kept only the gaps between
# kernels, where the density is ~2e-9 and the leakage ~3e-4: nRMSE 151651.
@pytest.mark.parametrize("speed_variance, n_samples, n, verdict", [
    (2.0, None, 4000, lambda report: report["overall_pass"]),
    (0.5, 1024, 2000, lambda report: report["psd"]["pass"]),
], ids=["default-grid", "1024-samples"])
def test_validate_passes_when_kernels_are_narrower_than_two_bins(speed_variance, n_samples,
                                                                n, verdict):
    params = mavic_params(speed_variance=speed_variance)
    grid = sd.default_grid(params) if n_samples is None \
        else sd.default_grid(params, n_samples=n_samples)
    dfreq = 2.0 * np.pi / ((2 * grid.n_samples - 1) * grid.dt)
    assert sd.build_psd(params).stds[0] < 2.0 * dfreq
    report = validation.validate(params, grid, n, 12, n_workers=2).report
    assert verdict(report)


def test_validate_reports_its_convergence_at_each_doubling():
    params = mavic_params()
    grid = small_grid(params, 512)
    report = validation.validate(params, grid, 600, 5).report
    points = report["acf"]["convergence"]
    assert [point["n"] for point in points] == [128, 256, 512, 600]
    assert points[-1]["nrmse"] == report["acf"]["nrmse"]
    n = np.log([point["n"] for point in points])
    slope = np.polyfit(n, np.log([point["nrmse"] for point in points]), 1)[0]
    assert report["acf"]["convergence_slope"] == pytest.approx(slope, rel=1e-12)
    assert validation.validate(params, grid, 600, 5, n_workers=2).report == report
    one = validation.validate(params, grid, 40, 5).report["acf"]
    assert one["convergence"] == [{"n": 40, "nrmse": one["nrmse"]}]
    assert one["convergence_slope"] is None


def test_estimate_acf_lag_overflow():
    params, state = static_scatterer()
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=8)
    ens = sd.Ensemble(params=params, grid=grid, master_seed=0,
                      signals=np.zeros((1, 8), complex))
    with pytest.raises(DomainError, match="lag"):
        sd.estimate_acf(ens, t_ref_index=7, n_lags=2)


def test_estimate_acf_metadata():
    params = mavic_params()
    grid = small_grid(params, 64)
    ens = sd.simulate_ensemble(params, grid, 3, 21)
    curve = sd.estimate_acf(ens)
    assert curve.meta["n_realizations"] == 3
    assert curve.meta["master_seed"] == 21
    assert curve.meta["estimator"] == "single_reference"


def test_estimate_psd_constant_curve_is_pure_dc():
    lags = 1e-4 * np.arange(64)
    curve = sd.Curve(axis="lag_s", x=lags, y=np.full(64, 2.5 + 0j))
    spec = sd.estimate_psd(curve)
    zero_bin = np.argmin(np.abs(spec.x))
    others = np.delete(spec.y, zero_bin)
    assert spec.y[zero_bin] == pytest.approx(2.5 * 127 * 1e-4, rel=1e-12)
    assert np.max(np.abs(others)) < 1e-12 * spec.y[zero_bin]


def test_estimate_psd_real_for_hermitian_input():
    rng = np.random.default_rng(12)
    lags = 1e-4 * np.arange(128)
    values = rng.normal(size=128) + 1j * rng.normal(size=128)
    values[0] = values[0].real
    curve = sd.Curve(axis="lag_s", x=lags, y=values)
    spec = sd.estimate_psd(curve)
    assert spec.meta["max_imag_residual"] <= 1e-10 * np.max(np.abs(spec.y))


def test_estimate_psd_peaks_on_harmonic_comb():
    params = mavic_params()
    acf = sd.build_acf(params)
    grid = sd.default_grid(params)
    lags = grid.dt * np.arange(2048)
    curve = sd.Curve(axis="lag_s", x=lags,
                     y=(sd.acf_eval(acf, lags) - acf.dc_level).astype(complex))
    spec = sd.estimate_psd(curve)
    positive = (spec.x > 500.0) & (spec.x < 5e3)
    peak = spec.x[positive][np.argmax(spec.y[positive])]
    spacing = params.n_blades * params.mean_speed
    assert abs(peak - spacing) < 2.0 * (spec.x[1] - spec.x[0])


def test_estimate_psd_rejects_bad_grids():
    curve = sd.Curve(axis="lag_s", x=np.array([0.0, 1.0, 3.0]), y=np.zeros(3))
    with pytest.raises(DomainError, match="uniform"):
        sd.estimate_psd(curve)
    shifted = sd.Curve(axis="lag_s", x=np.array([1.0, 2.0, 3.0]), y=np.zeros(3))
    with pytest.raises(DomainError, match="zero"):
        sd.estimate_psd(shifted)
    wrong_axis = sd.Curve(axis="frequency_hz", x=np.arange(3.0), y=np.zeros(3))
    with pytest.raises(DomainError, match="lag"):
        sd.estimate_psd(wrong_axis)


# ---------------------------------------------------------------- spectrogram

def test_spectrogram_zero_input():
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=1024)
    spec = sd.spectrogram(np.zeros(1024, complex), grid)
    assert np.all(spec.power == 0.0)
    assert spec.power.shape == (256, len(spec.times))


def test_spectrogram_pure_tone_concentration():
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-3, n_samples=2048)
    window = simulate._STFT_WINDOW
    # tone exactly on a transform bin
    bin_index = 40
    omega = 2.0 * np.pi * bin_index / (window * grid.dt)
    tone = np.exp(1j * omega * grid.times())
    spec = sd.spectrogram(tone, grid)
    nearest = np.argmin(np.abs(spec.freqs - omega))
    column = spec.power[:, 0]
    # oracle: transform of one Hann-windowed frame, computed directly
    frame = tone[:window] * (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window))
    oracle = np.abs(np.fft.fftshift(np.fft.fft(frame))) ** 2
    assert np.allclose(column, oracle, rtol=1e-10, atol=1e-9)
    # the on-bin tone lands in the nearest bin and its two neighbours
    neighbourhood = column[nearest - 1:nearest + 2].sum()
    assert neighbourhood >= 0.9 * column.sum()


@pytest.mark.parametrize("t_start", [0.0, 2.5])
def test_spectrogram_axes_annotation(t_start):
    params = mavic_params()
    grid = sd.SamplingGrid(t_start=t_start, dt=sd.default_grid(params).dt, n_samples=1024)
    spec = sd.spectrogram(np.zeros(1024, complex), grid)
    assert spec.times[0] == grid.t_start + 0.5 * (simulate._STFT_WINDOW - 1) * grid.dt
    assert np.allclose(np.diff(spec.times), simulate._STFT_HOP * grid.dt, rtol=1e-12)
    nyquist = np.pi / grid.dt
    assert spec.freqs.min() >= -nyquist - 1e-9
    assert spec.freqs.max() <= nyquist + 1e-9


def test_spectrogram_keeps_read_only_views_of_the_callers_arrays():
    arrays = {"power": np.ones((4, 3)), "times": np.arange(3.0), "freqs": np.arange(4.0)}
    spec = sd.Spectrogram(**arrays)
    for name, arr in arrays.items():
        assert arr.flags.writeable and not getattr(spec, name).flags.writeable
        assert np.shares_memory(getattr(spec, name), arr)


def test_spectrogram_window_longer_than_series():
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=100)
    with pytest.raises(DomainError):
        sd.spectrogram(np.zeros(100, complex), grid)


@pytest.mark.parametrize("series, match", [
    (np.full(512, "a"), "dtype"),
    (np.zeros(512, bool), "dtype"),
    (np.full(512, None), "dtype"),
    (np.r_[np.zeros(511), np.nan], "finite"),
    (np.r_[np.zeros(511, complex), complex(0.0, np.inf)], "finite"),
    (np.zeros((2, 512), complex), "one-dimensional"),
    (np.complex64(1.0), "one-dimensional"),
])
def test_spectrogram_refuses_series_that_are_not_finite_numbers(series, match):
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=512)
    with pytest.raises(DomainError, match=match):
        sd.spectrogram(series, grid)


@pytest.mark.parametrize("series", [np.full(512, 1e200 + 0j),
                                    np.resize([1.7e308, -1.7e308], 512)])
def test_spectrogram_refuses_a_finite_series_whose_power_overflows(series):
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=512)
    # RuntimeWarnings are errors here, so an overflow warning fails this too
    with pytest.raises(DomainError, match="series"):
        sd.spectrogram(series, grid)


def test_spectrogram_keeps_the_imaginary_part_and_takes_real_numbers():
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-4, n_samples=1024)
    tone = np.exp(1j * 2000.0 * grid.times()).astype(np.complex64)
    spec = sd.spectrogram(tone, grid)
    assert np.array_equal(spec.power, sd.spectrogram(tone.astype(complex), grid).power)
    # a positive tone has no mirror: the real part alone would have one
    peak = spec.freqs[np.argmax(spec.power[:, 0])]
    assert peak > 0.0
    assert spec.power[np.argmin(np.abs(spec.freqs + peak)), 0] < 1e-6 * spec.power.max()
    ramp = np.arange(1024)
    assert np.array_equal(sd.spectrogram(ramp, grid).power,
                          sd.spectrogram(ramp.astype(float), grid).power)


# ---------------------------------------------------------------- persistence

def test_ensemble_round_trip(tmp_path):
    params = mavic_params()
    grid = small_grid(params, 64)
    ens = sd.simulate_ensemble(params, grid, 5, 31)
    path = tmp_path / "ens.bin"
    sd.save_ensemble(path, ens)
    back = sd.load_ensemble(path)
    assert back.params == params
    assert back.grid == grid
    assert back.master_seed == 31
    assert np.array_equal(back.signals, ens.signals)
    # identical content twice -> identical bytes
    second = tmp_path / "ens2.bin"
    sd.save_ensemble(second, ens)
    assert path.read_bytes() == second.read_bytes()


def test_load_ensemble_holds_the_payload_once(tmp_path):
    params = mavic_params()
    signals = np.full((16, 2 ** 15), 1.0 + 2.0j)
    path = tmp_path / "ens.bin"
    sd.save_ensemble(path, sd.Ensemble(params, small_grid(params, 2 ** 15), 3, signals))
    tracemalloc.start()
    try:
        back = sd.load_ensemble(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the bytes read, viewed in place; a converted copy would double the peak
    assert peak < 1.1 * signals.nbytes
    assert np.array_equal(back.signals, signals)


# traced peak of one mavic-like validate block by blade count: below 3 MB
# with two blades, and else the peak measured with the rotor sum as BLAS
# products, 3.75, 5.89 and 3.79 MB for 1, 3 and 4 blades
# (2-vCPU Xeon, numpy 2.4.6), plus 5% rounded up to 0.05 MB: less than the
# 1.03 MB of one more (rotors, padded row) plane of an 8-row block
@pytest.mark.parametrize("n_blades, bound_mb", [(1, 3.95), (2, 3.0), (3, 6.2), (4, 4.0)])
def test_one_validate_block_working_set(n_blades, bound_mb):
    params = mavic_params(n_blades=n_blades)
    assert _one_validate_block_peak(params, sd.default_grid(params)) < bound_mb * 1e6


def _one_validate_block_peak(params, grid):
    """Traced peak bytes of one block through validate's two accumulators,
    one worker, after a warm-up block."""
    accs = [sd.AcfAccumulator(grid, n_lags=validation.acf_window(params, grid)),
            sd.AcfAccumulator(grid, time_average=True)]
    block = simulate._BLOCK_ROWS
    sd.accumulate(params, grid, MAVIC_SEED, accs, 0, block)    # warm-up
    tracemalloc.start()
    try:
        sd.accumulate(params, grid, MAVIC_SEED, accs, block, 2 * block)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# on a long grid a validate block's working set is per sample: the 8-row
# block's complex64 rows, 64 B, beside the synthesis kernel's 48 float64
# planes (two blades: 8 x (4 rotors + 2 sums)), 384 B; the time average's
# padded transform of the rows, 256 B, comes after the kernel's planes are
# freed.  460 B measured (2-vCPU Xeon, numpy 2.4.6), 652 B with 32-row
# blocks; the bound is 448 B plus 25%
def test_one_validate_block_working_set_on_a_long_grid():
    params = mavic_params()
    n_samples = 2 ** 18
    assert _one_validate_block_peak(params, small_grid(params, n_samples)) < 560 * n_samples


def _container_header(dtype_name):
    return ('{"dtype": "%s", "grid": {"dt": 1e-05, "n_samples": 4, "t_start": 0.0}, '
            '"master_seed": 7, "n_realizations": 2, "n_samples": 4, "params": '
            '{"blade_length": 0.21, "gain_magnitude": 1.0, "mean_speed": 523.0, '
            '"n_blades": 2, "n_drones": 1, "n_rotors": 4, "speed_variance": 27.0, '
            '"wavelength": 0.03}, "version": 1}' % dtype_name).encode("utf-8")


@pytest.mark.parametrize("dtype,wire", [("complex64", "<c8"), ("complex128", "<c16")])
def test_container_layout_is_pinned(dtype, wire):
    # magic, version and header length, header, payload: the bytes of the
    # documented layout, written out by hand
    grid = sd.SamplingGrid(t_start=0.0, dt=1e-5, n_samples=4)
    signals = (np.arange(8) + 1j * np.arange(8)).reshape(2, 4).astype(dtype)
    chunks = simulate.container_chunks(sd.Ensemble(mavic_params(), grid, 7, signals))
    header = _container_header(dtype)
    assert [bytes(c) for c in chunks[:3]] == [b"SWEN", struct.pack("<IQ", 1, len(header)),
                                             header]
    assert bytes(chunks[3]) == signals.astype(wire).tobytes()


def test_a_big_endian_ensemble_saves_in_its_own_width(tmp_path):
    params = mavic_params()
    grid = small_grid(params, 16)
    native = sd.simulate_ensemble(params, grid, 3, 9)
    swapped = sd.Ensemble(params, grid, 9, native.signals.astype(">c8"))
    sd.save_ensemble(tmp_path / "native.bin", native)
    sd.save_ensemble(tmp_path / "swapped.bin", swapped)
    assert (tmp_path / "swapped.bin").read_bytes() == (tmp_path / "native.bin").read_bytes()
    back = sd.load_ensemble(tmp_path / "swapped.bin")
    assert back.signals.dtype == np.complex64
    assert np.array_equal(back.signals, swapped.signals)


def test_ensemble_container_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FormatError):
        sd.load_ensemble(path)


def saved_container(tmp_path):
    params = mavic_params()
    path = tmp_path / "ens.bin"
    sd.save_ensemble(path, sd.simulate_ensemble(params, small_grid(params, 16), 3, 9))
    return path


def rewrite_header(path, **changes):
    """Re-encode the container at ``path`` with some header fields changed."""
    data = path.read_bytes()
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + header_len])
    header.update(changes)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob
                     + data[16 + header_len:])


@pytest.mark.parametrize("keep", [10, 16, 40])
def test_load_ensemble_rejects_truncated_header(tmp_path, keep):
    path = saved_container(tmp_path)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(FormatError, match="truncated"):
        sd.load_ensemble(path)


def test_load_ensemble_rejects_oversized_header_length(tmp_path):
    # a length field near 2**64 must not reach read(), which allocates first
    path = saved_container(tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:8] + struct.pack("<Q", 2**63) + data[16:])
    with pytest.raises(FormatError, match="truncated"):
        sd.load_ensemble(path)


def test_load_ensemble_rejects_oversized_payload_length(tmp_path):
    path = saved_container(tmp_path)
    rewrite_header(path, n_realizations=2**60)
    with pytest.raises(FormatError, match="payload"):
        sd.load_ensemble(path)


def test_load_ensemble_rejects_truncated_payload(tmp_path):
    path = saved_container(tmp_path)
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(FormatError, match="payload"):
        sd.load_ensemble(path)


def test_load_ensemble_rejects_trailing_bytes(tmp_path):
    path = saved_container(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="after"):
        sd.load_ensemble(path)


def test_load_ensemble_rejects_bad_dtype(tmp_path):
    path = saved_container(tmp_path)
    rewrite_header(path, dtype="float64")
    with pytest.raises(FormatError, match="dtype"):
        sd.load_ensemble(path)


@pytest.mark.parametrize("changes", [
    {"n_realizations": -1}, {"n_realizations": "3"}, {"n_samples": 0},
    {"master_seed": True}, {"params": {"n_drones": 1}}, {"params": [1, 2]},
    {"grid": {"t_start": 0.0, "dt": -1.0, "n_samples": 16}},
    {"grid": {"t_start": 0.0, "dt": 1e-4, "n_samples": 8}}, {"dtype": []},
])
def test_load_ensemble_rejects_bad_header_fields(tmp_path, changes):
    path = saved_container(tmp_path)
    rewrite_header(path, **changes)
    with pytest.raises(FormatError):
        sd.load_ensemble(path)


def test_load_ensemble_refuses_a_seed_past_64_bits(tmp_path):
    path = saved_container(tmp_path)
    rewrite_header(path, master_seed=2 ** 64 - 1)
    assert sd.load_ensemble(path).master_seed == 2 ** 64 - 1
    rewrite_header(path, master_seed=2 ** 64)
    with pytest.raises(FormatError, match="master_seed"):
        sd.load_ensemble(path)


def test_non_finite_signals_round_trip_and_are_refused_where_used(tmp_path):
    # the container stores what it is given; the estimators refuse NaN and inf
    params = mavic_params()
    grid = small_grid(params, 64)
    signals = sd.simulate_ensemble(params, grid, 2, 9).signals.copy()
    signals[1, 3] = complex(np.nan, np.inf)
    path = tmp_path / "nan.bin"
    sd.save_ensemble(path, sd.Ensemble(params, grid, 9, signals))
    loaded = sd.load_ensemble(path)
    assert loaded.signals.tobytes() == signals.tobytes()
    with pytest.raises(DomainError, match="finite"):
        sd.estimate_acf(loaded, t_ref_index=0, n_lags=8)
    with pytest.raises(DomainError, match="finite"):
        sd.spectrogram(loaded.signals[1], grid)


def test_load_ensemble_rejects_malformed_header_json(tmp_path):
    path = saved_container(tmp_path)
    data = bytearray(path.read_bytes())
    data[16] = 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="JSON"):
        sd.load_ensemble(path)


WRONG_TYPED = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
    st.text(max_size=4), st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2))


# a flipped digit may leave a valid header whose blade is shorter than the
# wavelength, which loads with SwarmParams' advisory warning
@pytest.mark.filterwarnings("ignore:carrier wavelength is not small:UserWarning")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_containers_load_or_raise_format_error(tmp_path, data):
    path = saved_container(tmp_path)
    blob = bytearray(path.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "flip", "header"]))
    if kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    elif kind == "flip":
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    else:
        (header_len,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + header_len])
        fields = [(header, key) for key in sorted(header)]
        fields += [(header[section], key) for section in ("params", "grid")
                   for key in sorted(header[section])]
        table, key = data.draw(st.sampled_from(fields))
        table[key] = data.draw(WRONG_TYPED)
        edited = json.dumps(header).encode("utf-8")
        blob[8:16 + header_len] = struct.pack("<Q", len(edited)) + edited
    path.write_bytes(bytes(blob))
    try:
        ensemble = sd.load_ensemble(path)
    except FormatError:
        return
    assert ensemble.signals.shape == (ensemble.n_realizations, ensemble.grid.n_samples)


def test_failed_container_write_leaves_the_target_as_it_was(tmp_path, full_disk):
    params = mavic_params()
    ensemble = sd.simulate_ensemble(params, small_grid(params, 16), 3, 9)
    kept = tmp_path / "kept.bin"
    kept.write_bytes(b"old content")
    for path in (tmp_path / "new.bin", kept):
        with pytest.raises(OSError, match="No space"):
            sd.save_ensemble(path, ensemble)
    assert [p.name for p in tmp_path.iterdir()] == ["kept.bin"]
    assert kept.read_bytes() == b"old content"


# ------------------------------------------------- statistical invariants

def test_signal_mean_is_zero(mavic, mavic_grid):
    rng = np.random.default_rng(55)
    ts = rng.integers(0, mavic_grid.n_samples, size=5)
    recorder = _RowRecorder(mavic_grid, columns=ts)
    sd.accumulate(mavic, mavic_grid, MAVIC_SEED, [recorder], 0, MAVIC_N, n_workers=N_WORKERS)
    columns = np.concatenate(recorder.rows)
    assert columns.dtype == np.complex64 and columns.shape == (MAVIC_N, ts.size)
    for column in columns.T.astype(np.complex128):
        sample_mean = column.mean()
        spread = math.sqrt(np.mean(np.abs(column - sample_mean) ** 2) / MAVIC_N)
        assert abs(sample_mean) <= 5.0 * spread


def test_estimator_is_stationary(mavic, mavic_grid):
    # two reference times must agree within three batched standard errors
    # (rms across lags)
    n_lags = 1500
    refs = (0, 2000)
    batches = 20
    per_batch = MAVIC_N // batches
    pooled = [sd.AcfAccumulator(mavic_grid, t_ref, n_lags) for t_ref in refs]
    batch_diffs = np.empty((batches, n_lags), dtype=complex)
    for b in range(batches):
        batch = [sd.AcfAccumulator(mavic_grid, t_ref, n_lags) for t_ref in refs]
        sd.accumulate(mavic, mavic_grid, MAVIC_SEED, batch + pooled, b * per_batch,
                      (b + 1) * per_batch, n_workers=N_WORKERS)
        batch_diffs[b] = batch[0].curve().y - batch[1].curve().y
    se_diff = batch_diffs.std(axis=0, ddof=1) / math.sqrt(batches)
    diff = pooled[0].curve().y - pooled[1].curve().y
    rms_diff = math.sqrt(float(np.mean(np.abs(diff) ** 2)))
    rms_se = math.sqrt(float(np.mean(np.abs(se_diff) ** 2)))
    assert rms_diff <= 3.0 * rms_se


def test_estimator_converges_like_root_n(mavic, mavic_grid):
    acc = sd.AcfAccumulator(mavic_grid, n_lags=validation.acf_window(mavic, mavic_grid))
    errors, start = [], 0
    for n in (100, 1000, 10_000):
        sd.accumulate(mavic, mavic_grid, MAVIC_SEED, [acc], start, n, n_workers=N_WORKERS)
        errors.append(validation.compare_acf(mavic, mavic_grid, acc.curve()).nrmse)
        start = n
    assert errors[0] > errors[1] > errors[2]
    for a, b in zip(errors, errors[1:]):
        ratio = a / b
        assert math.sqrt(10.0) / 2.0 <= ratio <= 2.0 * math.sqrt(10.0)


def test_speed_sign_symmetry(mavic, mavic_grid):
    # negating every rotor speed must leave the second-order statistics alone
    seed = 909
    n_lags = 400
    batches = 20
    per_batch = 100
    # realizations of each batch as drawn (0) and with their speeds negated (1)
    rows = np.empty((2, per_batch, mavic_grid.n_samples), complex)
    pooled = [sd.AcfAccumulator(mavic_grid, n_lags=n_lags) for _ in rows]
    diffs = np.empty((batches, n_lags), complex)
    for b in range(batches):
        for i in range(per_batch):
            state = sd.sample_state(mavic, sd.realization_rng(seed, b * per_batch + i))
            flipped = sd.SwarmState(initial_angles=state.initial_angles,
                                    projection_phases=state.projection_phases,
                                    rotor_speeds=-state.rotor_speeds)
            rows[0, i] = sd.synthesize(state, mavic, mavic_grid)
            rows[1, i] = sd.synthesize(flipped, mavic, mavic_grid)
        batch = [sd.AcfAccumulator(mavic_grid, n_lags=n_lags) for _ in rows]
        for acc, signs in zip(batch + pooled, [*rows, *rows]):
            acc.add(signs, seed)
        diffs[b] = batch[0].curve().y - batch[1].curve().y
    diff = pooled[0].curve().y - pooled[1].curve().y
    se = diffs.std(axis=0, ddof=1) / math.sqrt(batches)
    rms_diff = math.sqrt(float(np.mean(np.abs(diff) ** 2)))
    rms_se = math.sqrt(float(np.mean(np.abs(se) ** 2)))
    assert rms_diff <= 3.0 * rms_se


def test_session_validation_provenance(mavic_validation):
    report = mavic_validation.report
    assert report["n_realizations"] == MAVIC_N
    assert report["master_seed"] == MAVIC_SEED
    assert report["acf"]["convergence"][-1]["n"] == MAVIC_N
