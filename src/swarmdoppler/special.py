"""Integer-order Bessel functions of the first kind.

There are two routes.  Every order at a scalar argument, and every order
n > 0 over an array (point by point), comes from one column of a single
downward three-term recurrence (Miller's algorithm, :func:`bessel_j_many`)
started well above both the order and the argument, normalised with the
squared-sum identity

    J_0(x)^2 + 2 * sum_{k>=1} J_k(x)^2 = 1,

whose terms are all nonnegative, so normalisation cannot lose digits to
cancellation; the overall sign comes from J_0(x) + 2*sum J_{2k}(x) = 1.
Intermediate growth is tamed with exact power-of-two rescaling, so rescaling
itself never rounds; per-order shift counts are kept so early-captured
orders survive later rescales without underflow.

The closed forms of one swarm read the same columns many times, so one
column is kept per (order, argument) pair, the 16 most recently used: each
is read-only, and :func:`bessel_j_many` hands out a copy.  An array of
order n > 0 runs the recurrence uncached, point by point, so a dense array
never evicts them.

This is stable straight across the order-equals-argument turning point,
which is exactly where the series truncation of the swarm model lives.
Measured against 40-digit references, relative error stays below ~1e-13
throughout the supported envelope except within a few ulps of an isolated
zero of an oscillatory-regime J_n, where relative error degrades while the
absolute error stays near 1e-13 times the local envelope.

J_0 over an array takes Hankel's large-argument expansion (DLMF 10.17.3,
eight terms each of P and Q) for |x| >= 25, and below 25 Bessel's integral
J_0(x) = (2/pi) * integral_0^{pi/2} cos(x sin t) dt (DLMF 10.9.1) on 16
trapezoid panels.  The integrand is smooth and periodic, so the rule
converges geometrically; its truncation error is below 2.2e-20 at x = 25,
and rounding is all that is left.  Against 40-digit references the
expansion is within 1e-16 absolute at x = 25 and within 1e-17 over
[2000, 4000]; the integral below 25 is within 6e-16.

Supported envelope: integer order 0 <= n <= 3000 and |x| <= 2000, and for
J_0 |x| <= 4000.  A scalar J_0 beyond 2000 is evaluated as an array of one.
Outside the envelope, calls refuse with DomainError rather than silently
degrade.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .exceptions import DomainError, _checked_array, _checked_int, _checked_real

MAX_ORDER = 3000
MAX_ABS_ARG = 2000.0
# J_0 over arrays leaves the recurrence at _HANKEL_MIN_ARG, so it reaches
# the full electrical size of every swarm the series form supports
J0_MAX_ABS_ARG = 2.0 * MAX_ABS_ARG

_SHIFT = 500
_BIG = 2.0 ** _SHIFT
_SMALL = 2.0 ** (-_SHIFT)
_TINY_ARG = 1e-100
# measured against 40-digit references: eight terms of the expansion are
# within 8.3e-17 at x = 25 but 6.7e-14 at x = 15
_HANKEL_MIN_ARG = 25.0
_HANKEL_TERMS = 8
# below _HANKEL_MIN_ARG, J_0 over arrays is Bessel's integral on this many
# trapezoid panels over a quarter period
_J0_PANELS = 16


def _start_order(n: int, x: float) -> int:
    # Enough headroom that the minimal-solution contamination decays below
    # 1e-16 before the recurrence reaches order n, including the Airy
    # transition zone around order ~ argument.
    return int(max(n, math.ceil(x))) + max(40, int(math.ceil(10.0 * x ** (1.0 / 3.0))))


def _tiny_arg_column(n_max: int, x: float) -> np.ndarray:
    # Leading series term only; for x < 1e-100 the relative truncation error
    # is below x**2/4 ~ 1e-200.
    out = np.zeros(n_max + 1)
    out[0] = 1.0
    half = x / 2.0
    if half == 0.0:   # zero, or a subnormal halved to zero: positive orders vanish
        return out
    logx2 = math.log(half)
    for k in range(1, n_max + 1):
        logv = k * logx2 - math.lgamma(k + 1.0)
        if logv < -745.0:
            break
        out[k] = math.exp(logv)
    return out


# the closed forms of one swarm read the same few (order, argument) pairs
# again and again; 16 columns of at most 3,001 doubles are ~384 KB
@functools.lru_cache(maxsize=16)
def _miller_column(n_max: int, x: float) -> np.ndarray:
    """Read-only J_0(x) .. J_{n_max}(x) of checked ``n_max`` and ``x``.

    Memoized on the (order, argument) pair; ``__wrapped__`` is the plain
    recurrence, which stores nothing.
    """
    ax = abs(x)
    if ax < _TINY_ARG:
        out = _tiny_arg_column(n_max, ax)
    else:
        top = _start_order(n_max, ax)
        out = np.zeros(n_max + 1)
        cap_shift = np.zeros(n_max + 1, dtype=np.int64)
        two_over_x = 2.0 / ax
        fk1 = 0.0
        fk = 1.0
        sq = 0.0
        lin = 0.0
        shifts = 0
        for k in range(top, 0, -1):
            if k <= n_max:
                out[k] = fk
                cap_shift[k] = shifts
            sq += 2.0 * fk * fk
            if not k & 1:
                lin += 2.0 * fk
            fk1, fk = fk, (two_over_x * k) * fk - fk1
            if abs(fk) > _BIG:
                fk *= _SMALL
                fk1 *= _SMALL
                sq *= _SMALL * _SMALL
                lin *= _SMALL
                shifts += 1
        out[0] = fk
        cap_shift[0] = shifts
        sq += fk * fk
        lin += fk
        norm = math.sqrt(sq) if lin >= 0.0 else -math.sqrt(sq)
        out = np.ldexp(out / norm, (_SHIFT * (cap_shift - shifts)).astype(np.int32))
    if x < 0.0:
        out[1::2] = -out[1::2]
    out.setflags(write=False)
    return out


def bessel_j_many(n_max: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{n_max}(x) in one downward pass at scalar ``x``.

    The last 16 columns are kept, so a repeated (``n_max``, ``x``) costs a
    copy; the caller owns the array returned.
    """
    n_max = _checked_int(n_max, "n_max", DomainError, 0, MAX_ORDER)
    x = float(_checked_real(x, "x", DomainError, ge=-MAX_ABS_ARG, le=MAX_ABS_ARG))
    return _miller_column(n_max, x).copy()


def _hankel_coefficients(terms: int) -> tuple[tuple, tuple]:
    """Coefficients (-1)**k a_{2k}(0) of P and (-1)**k a_{2k+1}(0) of Q, k < terms.

    a_k(0) = (-1)**k * 1**2 * 3**2 * ... * (2k-1)**2 / (k! * 8**k), the
    nu = 0 case of DLMF 10.17.1; the integer quotient rounds once.
    """
    num, den = 1, 1
    a = [1.0]
    for k in range(1, 2 * terms):
        num *= -(2 * k - 1) ** 2
        den *= 8 * k
        a.append(num / den)
    p = tuple((-1) ** k * a[2 * k] for k in range(terms))
    q = tuple((-1) ** k * a[2 * k + 1] for k in range(terms))
    return p, q


_HANKEL_P, _HANKEL_Q = _hankel_coefficients(_HANKEL_TERMS)


def _j0_hankel(ax: np.ndarray) -> np.ndarray:
    """J_0 at arguments >= _HANKEL_MIN_ARG by Hankel's expansion (DLMF 10.17.3).

    J_0(x) = sqrt(2/(pi*x)) * (P(x) cos(x - pi/4) - Q(x) sin(x - pi/4)),
    with cos(x - pi/4) = (cos x + sin x)/sqrt(2) and sin(x - pi/4) =
    (sin x - cos x)/sqrt(2), so pi/4 is never subtracted in floating point.
    """
    inv_sq = 1.0 / (ax * ax)
    p = np.full_like(ax, _HANKEL_P[-1])
    q = np.full_like(ax, _HANKEL_Q[-1])
    for cp, cq in zip(_HANKEL_P[-2::-1], _HANKEL_Q[-2::-1]):
        p *= inv_sq
        p += cp
        q *= inv_sq
        q += cq
    q /= ax
    c = np.cos(ax)
    s = np.sin(ax)
    return (p * (c + s) + q * (c - s)) / np.sqrt(np.pi * ax)


def _j0_trapezoid(ax: np.ndarray) -> np.ndarray:
    """J_0 below _HANKEL_MIN_ARG from Bessel's integral (DLMF 10.9.1).

    J_0(x) = (2/pi) * integral_0^{pi/2} cos(x sin t) dt by the trapezoid rule
    on _J0_PANELS panels, whose end nodes give 1 and cos(x), each halved.  By
    symmetry this is the 64-point rule over a full period, so its only error
    is the alias 2*J_64(x) + 2*J_128(x) + ..., below 2.2e-20 at x = 25.
    """
    nodes = np.sin((0.5 * np.pi / _J0_PANELS) * np.arange(1, _J0_PANELS))
    acc = 0.5 + 0.5 * np.cos(ax)
    for s in nodes:
        acc += np.cos(ax * s)
    return acc / _J0_PANELS


def _j0_vector(ax: np.ndarray) -> np.ndarray:
    """J_0 over an array of nonnegative arguments: expansion far, integral near."""
    far = ax >= _HANKEL_MIN_ARG
    out = np.empty_like(ax)
    out[far] = _j0_hankel(ax[far])
    out[~far] = _j0_trapezoid(ax[~far])
    return out


def bessel_j(n: int, x):
    """Bessel function of the first kind, integer order.

    ``x`` may be a scalar or an ndarray; the return type matches.  Orders
    0..3000 are supported with |x| <= 2000, and J_0 with |x| <= 4000.  A
    scalar within 2000 runs the recurrence of :func:`bessel_j_many`, and an
    array of order n > 0 runs it point by point, so both agree bit for bit.
    J_0 over an array (or a scalar beyond 2000) takes Hankel's expansion for
    |x| >= 25 and Bessel's integral on 16 trapezoid panels below, within
    1e-16 and 6e-16 of 40-digit references.
    """
    n = _checked_int(n, "n", DomainError, 0, MAX_ORDER)
    arr = _checked_array(x, "x", DomainError)
    limit = J0_MAX_ABS_ARG if n == 0 else MAX_ABS_ARG
    if np.any(np.abs(arr) > limit):
        raise DomainError(f"argument outside supported range |x| <= {limit}")
    if arr.ndim == 0 and abs(arr) <= MAX_ABS_ARG:
        return float(_miller_column(n, float(arr))[n])
    if n == 0:
        vals = _j0_vector(np.abs(arr).ravel())
    else:
        # uncached, so a dense array cannot evict the columns the closed forms reuse
        vals = np.array([_miller_column.__wrapped__(n, v)[n] for v in arr.ravel().tolist()])
    vals = vals.reshape(arr.shape)
    return float(vals) if arr.ndim == 0 else vals
