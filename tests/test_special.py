import sys
import threading

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import swarmdoppler as sd
from swarmdoppler.exceptions import DomainError
from helpers import (bessel_phase_average, bessel_phase_average_closed,
                     squared_bessel_sum_check)

FIRST_J0_ZERO = 2.404825557695773
# pinned beforehand by 40-digit arithmetic and by the integral oracle below
J100_AT_87_9646 = 0.0008812419387234744
J1_SQ_AT_87_9646 = 0.0035878953235476472
# J_0 at the double nearest each argument, from 40-digit arithmetic
J0_REFERENCES = [
    (0.5, 0.9384698072408129042284046735997126255689),
    (10.0, -0.2459357644513483351977608624853287538296),
    (24.999, 0.09614138240616852632895022099046555636768),
    (FIRST_J0_ZERO, -6.108765259736730397081979074235388478631e-17),
]


def bessel_integral_oracle(n: int, x: float) -> float:
    # independent route: full-period trapezoid of cos(n*t - x*sin(t))/(2*pi),
    # spectrally exact once the sample count passes the harmonic content
    npts = int(4 * (n + abs(x)) + 64)
    t = (2.0 * np.pi / npts) * np.arange(npts)
    return float(np.mean(np.cos(n * t - x * np.sin(t))))


def test_order_zero_at_origin():
    assert sd.bessel_j(0, 0.0) == 1.0


def test_positive_order_at_origin():
    assert sd.bessel_j(5, 0.0) == 0.0


def test_value_at_first_zero_of_j0():
    assert abs(sd.bessel_j(0, FIRST_J0_ZERO)) < 1e-12


def test_pinned_high_order_value():
    got = sd.bessel_j(100, 87.9646)
    assert got == pytest.approx(J100_AT_87_9646, rel=1e-12)
    assert got == pytest.approx(bessel_integral_oracle(100, 87.9646), rel=1e-10)


@pytest.mark.parametrize("n,x", [
    (0, 2000.0), (500, 500.0), (37, 1.5), (1999, 2000.0), (88, 87.96459430051421),
])
def test_integral_oracle_crosscheck(n, x):
    ref = bessel_integral_oracle(n, x)
    assert sd.bessel_j(n, x) == pytest.approx(ref, rel=1e-10, abs=1e-14)


def test_scipy_crosscheck_random_grid():
    rng = np.random.default_rng(20_001)
    for _ in range(250):
        n = int(rng.integers(0, 3001))
        x = float(rng.uniform(0.0, 2000.0))
        ref = scipy.special.jv(n, x)
        got = sd.bessel_j(n, x)
        if abs(ref) > 1e-200:
            assert got == pytest.approx(ref, rel=5e-9), (n, x)
        else:
            assert abs(got - ref) < 1e-200


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=0, max_value=400),
       x=st.floats(min_value=0.0, max_value=2000.0,
                   allow_nan=False, allow_infinity=False))
def test_negative_argument_symmetry(n, x):
    assert sd.bessel_j(n, -x) == ((-1.0) ** n) * sd.bessel_j(n, x)


def test_vector_matches_scalar():
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(-2000, 2000, 64), [0.0, 1e-150, -1e-200]])
    for n in (0, 1, 7, 150):
        vec = sd.bessel_j(n, xs)
        for xv, got in zip(xs, vec):
            ref = sd.bessel_j(n, float(xv))
            if n > 0:
                # an array of order n > 0 runs the scalar recurrence per point
                assert got == ref, (n, xv)
            else:
                # J_0 over arrays takes the integral or Hankel's expansion;
                # absolute slack covers points near oscillatory zeros, where
                # relative error amplifies
                assert got == pytest.approx(ref, rel=1e-11, abs=1e-13), (n, xv)


@pytest.mark.parametrize("x,ref", J0_REFERENCES)
def test_j0_array_below_the_expansion_matches_40_digit_references(x, ref):
    # Bessel's integral on 16 trapezoid panels: its truncation error is below
    # 2.2e-20 at x = 25, so only rounding is left
    got = sd.bessel_j(0, np.array([x, -x]))
    assert np.all(np.abs(got - ref) <= 6e-16), got - ref


def test_j0_array_is_exactly_one_at_and_near_the_origin():
    assert np.array_equal(sd.bessel_j(0, np.array([0.0, 1e-300, -1e-300])), np.ones(3))


def test_j0_array_matches_scipy_on_a_dense_grid():
    xs = np.linspace(0.0, sd.special.J0_MAX_ABS_ARG, 400_001)
    # scipy.special.j0 is itself up to ~2e-15 from 40-digit references on
    # [25, 4000]; the expansion there is within 1e-16 and the recurrence
    # below 25 within 5e-16
    assert np.max(np.abs(sd.bessel_j(0, xs) - scipy.special.j0(xs))) <= 3e-15
    assert np.array_equal(sd.bessel_j(0, -xs), sd.bessel_j(0, xs))


def test_j0_array_is_continuous_where_the_expansion_takes_over():
    x0 = sd.special._HANKEL_MIN_ARG
    below, at = sd.bessel_j(0, np.array([np.nextafter(x0, 0.0), x0]))
    # |J_0'(25)| ~ 0.13, so one ulp of the argument moves J_0 by ~5e-16
    assert abs(at - below) <= 1e-15
    assert at == pytest.approx(sd.bessel_j(0, x0), abs=1e-15)


def test_j0_envelope_reaches_twice_the_general_limit():
    limit = sd.special.J0_MAX_ABS_ARG
    assert limit == 2.0 * sd.special.MAX_ABS_ARG
    xs = np.array([-limit, -3000.0, 2000.5, limit])
    vals = sd.bessel_j(0, xs)
    assert np.max(np.abs(vals - scipy.special.j0(xs))) <= 3e-15
    # a scalar beyond the recurrence's range is an array of one
    assert sd.bessel_j(0, 3000.0) == vals[1]


def test_column_matches_scalar():
    col = sd.bessel_j_many(60, 35.5)
    for n in (0, 1, 13, 60):
        assert col[n] == pytest.approx(sd.bessel_j(n, 35.5), rel=1e-12)


def test_recurrence_residual_randomized():
    rng = np.random.default_rng(99)
    for _ in range(150):
        n = int(rng.integers(1, 3000))
        x = float(rng.uniform(1e-3, 2000.0))
        col = sd.bessel_j_many(n + 1, x)
        residual = abs(col[n - 1] + col[n + 1] - (2.0 * n / x) * col[n])
        assert residual <= 1e-10 * max(1.0, abs(col[n])), (n, x)


MEMO_ORDERS = (0, 1, 7, 150, 2999, 3000)
MEMO_ARGS = (0.0, -0.0, 5e-101, -3e-150, -35.5, 2000.0, -2000.0)


def _bits(col: np.ndarray) -> np.ndarray:
    return col.view(np.uint64)


def test_kept_columns_equal_the_plain_recurrence_bit_for_bit():
    fresh = sd.special._miller_column.__wrapped__
    # more pairs than the cache holds, each asked for twice: once computed,
    # once (if still kept) read back
    for _ in range(2):
        for n_max in MEMO_ORDERS:
            for x in MEMO_ARGS:
                got = sd.bessel_j_many(n_max, x)
                assert np.array_equal(_bits(got), _bits(fresh(n_max, x))), (n_max, x)


def test_a_returned_column_is_the_callers_to_change():
    col = sd.bessel_j_many(60, 35.5)
    assert col.flags.writeable
    col[:] = np.nan
    again = sd.bessel_j_many(60, 35.5)
    assert np.array_equal(_bits(again), _bits(sd.special._miller_column.__wrapped__(60, 35.5)))


def test_the_kept_columns_are_bounded_and_read_only():
    memo = sd.special._miller_column
    assert memo.cache_info().maxsize == 16
    assert not memo(40, 12.5).flags.writeable


def test_an_array_of_positive_order_keeps_no_column():
    memo = sd.special._miller_column
    memo.cache_clear()
    kept = sd.bessel_j_many(5, 1.0)
    before = memo.cache_info()
    vals = sd.bessel_j(3, np.linspace(-2000.0, 2000.0, 1000))
    after = memo.cache_info()
    assert (after.currsize, after.hits, after.misses) == \
        (before.currsize, before.hits, before.misses)
    assert vals[0] == -sd.bessel_j(3, 2000.0)
    # the column kept before the array is still there
    assert np.array_equal(sd.bessel_j_many(5, 1.0), kept)
    assert memo.cache_info().hits == after.hits + 1


def test_threads_asking_at_once_get_the_same_columns():
    # more threads than CPUs and more pairs than the cache holds, so columns
    # are computed, read and evicted by several threads at once
    pairs = [(3000, 1234.5)] + [(100 + k, 80.0 + k) for k in range(19)]
    fresh = sd.special._miller_column.__wrapped__
    reference = [_bits(fresh(n_max, x)) for n_max, x in pairs]
    sd.special._miller_column.cache_clear()
    start = threading.Barrier(4)
    wrong = []

    def ask(shift):
        start.wait()
        for k in range(2 * len(pairs)):
            k = (k + shift) % len(pairs)
            if not np.array_equal(_bits(sd.bessel_j_many(*pairs[k])), reference[k]):
                wrong.append(pairs[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(shift,)) for shift in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@pytest.mark.parametrize("n,x", [(-1, 1.0), (3001, 1.0), (2.5, 1.0),
                                 (5, 2000.5), (5, float("nan")), (0, 4000.5)])
def test_envelope_refusals(n, x):
    with pytest.raises(DomainError):
        sd.bessel_j(n, x)


def test_envelope_refusal_in_array():
    with pytest.raises(DomainError):
        sd.bessel_j(2, np.array([1.0, 2000.5]))


def test_sum_check_at_zero():
    assert squared_bessel_sum_check(0.0, 5) == 1.0


def test_sum_check_small_argument():
    assert squared_bessel_sum_check(1.0, 30) == pytest.approx(1.0, abs=1e-12)


def test_sum_check_large_argument():
    assert squared_bessel_sum_check(87.9646, 200) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(z=st.floats(min_value=0.0, max_value=1000.0,
                   allow_nan=False, allow_infinity=False))
def test_sum_check_monotone_and_bounded(z):
    top = int(z) + 60
    col = sd.bessel_j_many(top, z)
    partial = col[0] ** 2 + 2.0 * np.cumsum(np.concatenate([[0.0], col[1:] ** 2]))
    # adding nonnegative squares never decreases the partial sums
    assert np.all(np.diff(partial) >= 0.0)
    assert partial[-1] <= 1.0 + 1e-12
    assert squared_bessel_sum_check(z, top) <= 1.0 + 1e-12


@pytest.mark.parametrize("n", [1, 3, 7, 15])
def test_phase_average_vanishes_for_odd_order(n):
    rng = np.random.default_rng(n)
    for size in rng.uniform(0.1, 500.0, 5):
        assert abs(bessel_phase_average(n, float(size))) < 1e-11


def test_phase_average_small_size_limit():
    assert bessel_phase_average(0, 1e-8) == pytest.approx(1.0, abs=1e-10)


def test_phase_average_pinned_value():
    got = bessel_phase_average(2, 175.9292)
    assert got == pytest.approx(J1_SQ_AT_87_9646, abs=1e-11)


@pytest.mark.parametrize("size", [1.0, 10.0, 175.9292])
@pytest.mark.parametrize("n", [0, 2, 4, 8])
def test_closed_form_matches_quadrature(n, size):
    quad = bessel_phase_average(n, size)
    closed = bessel_phase_average_closed(n, size)
    assert abs(quad - closed) <= 1e-9

