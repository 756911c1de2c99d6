"""Stochastic synthesis of swarm returns and Monte Carlo estimators.

Each realization draws initial blade angles and projection phases uniformly
on [0, 2*pi) and rotor speeds from a Gaussian, then sums unit scatterer
returns coherently.  Realization ``k`` of an ensemble is generated from the
PCG64 substream of ``SeedSequence(master_seed, spawn_key=(k,))``, so
ensembles are bit-identical regardless of worker count or scheduling.  A
block's generators are seeded from words computed for all its realizations
at once; :func:`realization_rng` builds one through numpy's own chain.

The synthesis kernel forms each blade's modulation phase from a turn table
in BLAS matrix products, takes one tangent pass per blade (or blade pair)
and sample for its phasor, and rotates, scales and sums the rotors in one
matrix product per realization and turn-table row.
"""
from __future__ import annotations

import json
import math
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._atomic import write_files
from .exceptions import (DomainError, FormatError, ValidationError, _checked_array,
                         _checked_int)
from .model import _SEED_MAX, Curve, SamplingGrid, SwarmParams, check_grid, derive

_ENSEMBLE_MAGIC = b"SWEN"
_ENSEMBLE_VERSION = 1
# the signal dtypes an ensemble holds, by name, and the little-endian type
# each is stored as in the container
_WIRE_DTYPES = {"complex64": "<c8", "complex128": "<c16"}
# realizations per pool task, seeded, drawn, synthesized by one kernel call
# and reduced together.  Fewer, longer numpy calls hold the interpreter lock
# for less of each realization: validate-mavic (in process, 2 workers) took
# 1.94 s with 4 rows per kernel call and 1.61 s with 8; 16 rows was no
# faster over 6 alternating pairs (1.70 s against 1.63 s) and doubles the
# kernel's working set per call
_BLOCK_ROWS = 8
# fine steps of the synthesis kernel's turn table: a rotor's angle at
# sample k is its angle at k - k % _TURN_STEPS turned on by k % _TURN_STEPS
# steps.  A constant, so a sample's bits depend on its index alone
_TURN_STEPS = 64
# the spectrogram's short-time transform: Hann windows of _STFT_WINDOW
# samples, one every _STFT_HOP samples, each transformed at its own length
_STFT_WINDOW = 256
_STFT_HOP = 64


@dataclass(frozen=True)
class SwarmState:
    """Latent draws of one realization: per-rotor angles, phases and speeds,
    each a 2-d array of finite reals (else :class:`ValidationError`).
    ``initial_angles`` are the rotor angles at t = 0, whatever the grid's
    ``t_start``."""

    initial_angles: np.ndarray      # (n_drones, n_rotors), [0, 2*pi)
    projection_phases: np.ndarray   # (n_drones, n_rotors), [0, 2*pi)
    rotor_speeds: np.ndarray        # (n_drones, n_rotors), rad/s

    def __post_init__(self) -> None:
        for name in ("initial_angles", "projection_phases", "rotor_speeds"):
            arr = _checked_array(getattr(self, name), name)
            if arr.ndim != 2:
                raise ValidationError(f"{name} must be a 2-d array")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.initial_angles.shape == self.projection_phases.shape
                == self.rotor_speeds.shape):
            raise ValidationError("state arrays must share one (n_drones, n_rotors) shape")


def _draw(params: SwarmParams, rngs) -> tuple:
    """Latent draws of one realization per generator in ``rngs``: initial
    angles, projection phases and rotor speeds as ``(len(rngs), n_drones,
    n_rotors)`` arrays.

    Each generator draws its angle block, phase block and speed block, each
    in row-major drone/rotor order, straight into its realization's row;
    scaling the whole arrays afterwards gives, element by element, the bits
    of ``Generator.uniform(0, 2*pi)`` and ``mean + std*standard_normal()``.
    """
    shape = (len(rngs), params.n_drones, params.n_rotors)
    # each realization's angle and phase blocks side by side: one call draws
    # both, the same stream as two
    uniforms, speeds = np.empty((shape[0], 2, *shape[1:])), np.empty(shape)
    for rng, uniform, speed in zip(rngs, uniforms, speeds):
        rng.random(out=uniform)
        rng.standard_normal(out=speed)
    uniforms *= 2.0 * np.pi
    speeds *= params.speed_std
    speeds += params.mean_speed
    return uniforms[:, 0], uniforms[:, 1], speeds


def sample_state(params: SwarmParams, rng: np.random.Generator) -> SwarmState:
    """Draw one latent state from ``rng``.

    Draw order is fixed (angle block, phase block, speed block, each in
    row-major drone/rotor order) so a given generator position always yields
    the same state.  Speeds are not truncated: the return is symmetric in
    the speed sign, so negative samples are admissible.
    """
    angles, phases, speeds = _draw(params, [rng])
    return SwarmState(initial_angles=angles[0], projection_phases=phases[0],
                      rotor_speeds=speeds[0])


def _cos_sin(h: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray | None = None):
    """``cos 2h`` into ``cos_out`` and, if given, ``sin 2h`` into ``sin_out``,
    from the tangent of the half angle ``h``: with ``t = tan h`` and
    ``w = 2/(1 + t*t)``, ``cos 2h = w - 1`` and ``sin 2h = t*w``.  Returns
    ``cos_out``.

    Callers form the half angle themselves, from halved factors: halving is
    exact, so ``0.5*a * b + 0.5*c`` has the bits of ``0.5*(a*b + c)`` unless
    a product is subnormal.  On AVX-512 CPUs numpy's ``tan`` runs SIMD code
    while its ``cos`` calls libm per element; without AVX-512 both call
    libm and this is slower than ``cos``.  The rest is four correctly
    rounded operations, so an element gets the same bits whatever array,
    offset or stride it sits in.  Both outputs are within 4.5e-16 of the
    true values.  ``cos_out`` may be ``h``; ``sin_out`` must be neither.
    """
    t = np.tan(h, out=cos_out if sin_out is None else sin_out)
    w = np.multiply(t, t, out=cos_out)
    w += 1.0
    np.divide(2.0, w, out=w)
    if sin_out is not None:
        sin_out *= w
    w -= 1.0
    return cos_out


def _synthesize_rows(out: np.ndarray, angles: np.ndarray, phases: np.ndarray,
                     speeds: np.ndarray, params: SwarmParams, grid: SamplingGrid) -> None:
    """Write the return of realization ``i`` of a block into ``out[i]``.

    ``angles``, ``phases`` and ``speeds`` are ``(n, n_drones, n_rotors)``
    draws (see :func:`_draw`) and ``out`` is ``(n, n_samples)``, complex64
    or complex128.  Every element goes through the same operations whatever
    ``n`` is, and each product has one shape per swarm, so a row does not
    depend on the block it was made in, and a sample does not depend on
    the grid's length.  Every cosine and sine comes from :func:`_cos_sin`,
    in place, of a half angle formed from halved factors.  Each blade (or
    blade pair) takes one tangent pass per sample: its modulation phase
    ``m*cos(angle)`` comes from a turn table, the rotor angle at every
    ``_TURN_STEPS``-th sample and its turn over the steps in between, in
    one BLAS matrix product.  The rotors are rotated by their projection
    phases, scaled and summed by BLAS products too, of ``(2, rotors)``
    weights with ``_TURN_STEPS`` columns of the rotor planes at a time.  So
    the bits follow the BLAS kernel as well as numpy's CPU dispatch:
    OpenBLAS's core without fused multiply-add
    (``OPENBLAS_CORETYPE=Sandybridge``) rounds the products differently.
    """
    half_mod = 0.5 * derive(params).mod_index
    n_blades = params.n_blades
    paired = n_blades % 2 == 0
    n_groups = n_blades // 2 if paired else n_blades    # blades, or blade pairs
    later = n_groups > 1
    n, n_samples = out.shape
    n_rows = speeds.size
    # coarse steps of the turn table (below): at least two, so its product
    # is a matrix product (numpy takes one coarse row as a vector-matrix
    # product, with other bits)
    n_coarse = max(2, -(-n_samples // _TURN_STEPS))
    width = n_coarse * _TURN_STEPS
    n_rotors = n_rows // n     # of one realization
    # every buffer of the call in one allocation: per realization, the rotor
    # planes the rotor sum reads, one padded row per rotor of the real parts
    # and, with an odd blade count, of the imaginary parts after them; then
    # the later blades' phase (and sine) planes and the rotor sums.  malloc
    # keeps one large block per call for the next; several ~1 MB ones it
    # returned to the system after each block and faulted in again
    # (~20 page faults per realization on validate-mavic, one worker)
    n_parts = 1 if paired else 2
    n_later = later * n_parts
    work = np.empty(((n_parts + n_later) * n_rows + 2 * n) * width)
    parts = work[:n_parts * n_rows * width].reshape(n, n_parts * n_rotors, width)
    spare = work[parts.size:parts.size + n_later * n_rows * width].reshape(
        n_later, n, n_rotors, width)
    sums = work[parts.size + spare.size:].reshape(n, 2, width)
    # each rotor's angle at the grid start, its turn over t_start reduced
    # (exactly) by fmod: the rounding of speed*t_start is one constant per
    # rotor, which the uniform start angle absorbs, and no sample time is
    # rounded at the scale of t_start.  Where the product could overflow,
    # t_start is scaled by 2**-k first and the remainder doubled back k
    # times; scaling, doubling and fmod are exact, so the turn is fmod of
    # the rounded product, as if float64 had no largest exponent
    k = max(0, math.frexp(grid.t_start)[1] + math.frexp(float(np.abs(speeds).max()))[1]
            - 1023)
    turned = np.fmod(speeds * math.ldexp(grid.t_start, -k), 2.0 * np.pi)
    for _ in range(k):
        turned = np.fmod(2.0 * turned, 2.0 * np.pi)
    # a rotor's angle at sample k = a*B + b (B = _TURN_STEPS) is its angle at
    # a*B turned on by b steps, so cos(angle) comes from two tables through
    # the angle-addition formula.  The coarse one holds, per blade (or pair)
    # and rotor, half_mod * (cos, sin) of the angle at every a*B, from the
    # half angle the sample a*B itself takes; the fine one holds, per rotor,
    # (cos, -sin) of the turn over b < B steps.  One matrix product per
    # blade writes half_mod * cos(angle) at every sample, the half angle of
    # the blade's phasor
    half_speeds = (0.5 * speeds).reshape(-1, 1)
    coarse_half = np.multiply(half_speeds, grid.dt * (_TURN_STEPS * np.arange(n_coarse)))
    coarse_half += (0.5 * (angles + turned)).reshape(-1, 1)
    # each table's cosines and sines in contiguous planes, where _cos_sin
    # runs about twice as fast as on interleaved columns; the product reads
    # them as (n, rotors, n_coarse, 2) and (n, rotors, 2, _TURN_STEPS) stacks
    coarse = np.empty((n_groups, 2, n_rows, n_coarse))
    for j in range(n_groups):
        half = coarse_half + 0.5 * (2.0 * np.pi * j / n_blades) if j else coarse_half
        _cos_sin(half, coarse[j, 0], coarse[j, 1])
    coarse *= half_mod
    coarse = coarse.transpose(0, 2, 3, 1).reshape(n_groups, n, n_rotors, n_coarse, 2)
    fine = np.empty((2, n_rows, _TURN_STEPS))
    _cos_sin(np.multiply(half_speeds, grid.dt * np.arange(_TURN_STEPS)), fine[0], fine[1])
    np.negative(fine[1], out=fine[1])
    fine = fine.transpose(1, 0, 2).reshape(n, n_rotors, 2, _TURN_STEPS)
    tables = (n, n_rotors, n_coarse, _TURN_STEPS)
    # blade 0 in the real parts; the later blades (or pairs) take theirs in
    # a spare plane, odd blade counts their sines in another and their
    # imaginary parts beside the real ones
    re = parts[:, :n_rotors]
    im = None if paired else parts[:, n_rotors:]
    np.matmul(coarse[0], fine, out=re.reshape(tables))
    _cos_sin(re, re, im)
    if not paired:
        np.subtract(0.0, im, out=im)    # not -sin: a zero sine stays +0.0
    phase = spare[0] if later else None
    sine = spare[1] if later and not paired else None
    for j in range(1, n_groups):
        np.matmul(coarse[j], fine, out=phase.reshape(tables))
        _cos_sin(phase, phase, sine)
        if not paired:
            im -= sine
        re += phase
    # rotate each rotor by exp(-1j * projection phase), scale and sum the
    # rotors by one matrix product per realization and turn-table row: the
    # weights of a rotor's real part are (cos, -sin) of its phase and, with
    # an odd blade count, those of its imaginary part (sin, cos).  Every
    # product has the one shape (2, rotors) @ (rotors, _TURN_STEPS), so a
    # sum's bits depend neither on the grid's length nor on how BLAS would
    # split one longer product over its threads
    scale = (2.0 if paired else 1.0) * params.gain_magnitude
    weights = np.empty((n, 2, n_parts, n_rotors))
    cos_p, sin_p = weights[:, 0, 0], weights[:, 1, 0]
    _cos_sin(np.multiply(phases.reshape(n, n_rotors), 0.5), cos_p, sin_p)
    weights[:, :, 0] *= scale
    if not paired:
        weights[:, 0, 1] = sin_p
        weights[:, 1, 1] = cos_p
    np.negative(sin_p, out=sin_p)
    np.matmul(weights.reshape(n, 1, 2, -1),
              parts.reshape(n, -1, n_coarse, _TURN_STEPS).transpose(0, 2, 1, 3),
              out=sums.reshape(n, 2, n_coarse, _TURN_STEPS).transpose(0, 2, 1, 3))
    np.copyto(out.real, sums[:, 0, :n_samples], casting="same_kind")
    np.copyto(out.imag, sums[:, 1, :n_samples], casting="same_kind")


def synthesize(state: SwarmState, params: SwarmParams, grid: SamplingGrid) -> np.ndarray:
    """Coherent return signal of one realization on the given time grid.

    Each blade contributes a unit phasor whose phase is the modulation index
    times the cosine of its rotation angle; rotor returns are rotated by the
    projection phase and summed.  Output is complex128 of length
    ``grid.n_samples``.

    With an even blade count, blade ``b + n_blades/2`` is half a turn from
    blade ``b``, so its phasor is the complex conjugate and the pair sums to
    the real ``2*cos(m*cos(angle))``.  Odd blade counts take the real and
    imaginary parts blade by blade.  Each blade, or pair, takes one tangent
    pass per sample, for its phasor: ``(m/2)*cos(angle)`` comes from the
    rotor angle at every 64th sample and its turn over the samples in
    between, by angle addition in one matrix product.  The rotors are
    rotated, scaled and summed by matrix products too.  This is the
    one-realization case of the block kernel that ensembles and
    streamed estimates run.  Its bits follow numpy's CPU dispatch and the
    BLAS kernel: for OpenBLAS, the core type, which ``OPENBLAS_CORETYPE``
    may set.  Sample
    times run from ``grid.t_start``, and any finite start synthesizes: each
    rotor's turn over it is ``fmod(speed*t_start, 2*pi)`` of the rounded
    product, reduced exactly even where that product overflows float64.
    """
    if state.initial_angles.shape != (params.n_drones, params.n_rotors):
        raise ValidationError(
            f"state shape {state.initial_angles.shape} does not match "
            f"(n_drones, n_rotors)=({params.n_drones}, {params.n_rotors})"
        )
    y = np.empty((1, grid.n_samples), dtype=np.complex128)
    _synthesize_rows(y, state.initial_angles[None], state.projection_phases[None],
                     state.rotor_speeds[None], params, grid)
    return y[0]


@dataclass(frozen=True)
class Ensemble:
    """A batch of signal realizations with its generation provenance: a 2-d
    complex64 or complex128 array, in either byte order, and an unsigned
    64-bit seed (else :class:`ValidationError`)."""

    params: SwarmParams
    grid: SamplingGrid
    master_seed: int
    signals: np.ndarray   # (n_realizations, n_samples), complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", _checked_int(
            self.master_seed, "master_seed", low=0, high=_SEED_MAX))
        arr = np.asarray(self.signals).view()    # made read-only; the caller's stays as is
        if arr.ndim != 2 or arr.dtype.name not in _WIRE_DTYPES:
            raise ValidationError("signals must be a 2-d complex64 or complex128 array, "
                                  f"got {arr.ndim}-d {arr.dtype}")
        if arr.shape[1] != self.grid.n_samples:
            raise ValidationError(
                f"signals have {arr.shape[1]} samples but the grid has {self.grid.n_samples}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "signals", arr)

    @property
    def n_realizations(self) -> int:
        return self.signals.shape[0]


def realization_rng(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic substream for realization ``index`` of ``master_seed``:
    PCG64 seeded by ``SeedSequence(master_seed, spawn_key=(index,))``."""
    master_seed = _checked_int(master_seed, "master_seed", low=0, high=_SEED_MAX)
    index = _checked_int(index, "index", low=0)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed,
                                                                      spawn_key=(index,))))


def _blocks(params: SwarmParams, grid: SamplingGrid, master_seed: int, start: int,
            stop: int, n_workers: int, dtype: np.dtype, reduce,
            block_rows: int = _BLOCK_ROWS):
    """``reduce(rows)`` for consecutive blocks of realizations ``[start, stop)``.

    Checks the grid, the range, the seed and the worker count when called,
    before any realization is made, and returns a generator of the reduced
    blocks, in order.  Block ``j`` holds realizations
    ``[start + j*B, start + (j+1)*B)`` with ``B = block_rows``, drawn all
    at once from generators seeded in one pass (see :mod:`._seeding`),
    synthesized by one kernel call and rounded to ``dtype``: each row has
    the bits of ``synthesize(sample_state(params, realization_rng(master_seed,
    k)), params, grid)`` rounded alone.  The block is built and reduced on one of
    ``n_workers`` pool threads, at most one per CPU the process may run on.
    At most twice as many blocks as threads, plus one, are in flight, so
    memory is O(B) whatever the range is.
    """
    check_grid(params, grid)
    start = _checked_int(start, "realization index start", low=0)
    stop = _checked_int(stop, "realization index stop (start < stop)", low=start + 1)
    _checked_int(master_seed, "master_seed", low=0, high=_SEED_MAX)
    # the CPUs this process may run on, where the platform says
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n_threads = min(_checked_int(n_workers, "n_workers"), cpus)
    # imported here, so that importing the package does not import numpy.random
    from ._seeding import generators

    def work(lo: int):
        rows = np.empty((min(block_rows, stop - lo), grid.n_samples), dtype=dtype)
        if rows.shape[0] == 1:
            # the public pair is the kernel's one-realization case, and a
            # profiler that wraps public functions sees the realization
            rows[0] = synthesize(sample_state(params, realization_rng(master_seed, lo)),
                                 params, grid)
        else:
            draws = _draw(params, generators(master_seed, lo, lo + rows.shape[0]))
            _synthesize_rows(rows, *draws, params, grid)
        return reduce(rows)

    def generate():
        starts = range(start, stop, block_rows)
        if n_threads == 1:
            for lo in starts:
                yield work(lo)
            return
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            pending: deque = deque()
            try:
                for lo in starts:
                    pending.append(pool.submit(work, lo))
                    if len(pending) > 2 * n_threads:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            finally:
                for future in pending:
                    future.cancel()
    return generate()


def simulate_ensemble(params: SwarmParams, grid: SamplingGrid, n_realizations: int,
                      master_seed: int, *, n_workers: int = 1,
                      dtype=np.complex64) -> Ensemble:
    """Generate ``n_realizations`` independent signal realizations.

    Realization ``k`` depends only on ``(master_seed, k)``; results are
    bit-identical for any ``n_workers``.  ``dtype`` may be complex64 (the
    default, halving memory) or complex128.  An undersampled grid (see
    :func:`check_grid`) raises :class:`ValidationError`.
    """
    try:
        dtype = np.dtype(dtype)
    except TypeError:
        raise ValidationError(f"dtype must be complex64 or complex128, got {dtype!r}") from None
    if dtype not in [np.dtype(name) for name in _WIRE_DTYPES]:
        raise ValidationError(f"dtype must be complex64 or complex128, got {dtype}")
    # one realization per task, so that each row comes from the public
    # sample_state/synthesize pair: perfbench's
    # test_instrumented_pool_spans_keep_their_ensemble_parent counts the
    # synthesize spans its function wrapping sees.  The rows do not depend
    # on the block size
    blocks = _blocks(params, grid, master_seed, 0, n_realizations, n_workers, dtype,
                     reduce=lambda rows: rows, block_rows=1)
    try:
        signals = np.empty((n_realizations, grid.n_samples), dtype=dtype)
    except MemoryError as exc:
        raise MemoryError(
            f"could not allocate ensemble storage ({n_realizations} x "
            f"{grid.n_samples} {dtype}); 0/{n_realizations} realizations done"
        ) from exc
    done = 0
    try:
        for rows in blocks:
            signals[done:done + rows.shape[0]] = rows
            done += rows.shape[0]
    except MemoryError as exc:
        raise MemoryError(
            f"ensemble generation exhausted memory after {done}/{n_realizations} "
            "realizations"
        ) from exc
    return Ensemble(params=params, grid=grid, master_seed=master_seed, signals=signals)


class AcfAccumulator:
    """A Monte Carlo autocorrelation estimate over nonnegative lags, built up
    block by block: each block of realizations is reduced to a partial sum,
    the partial sums are added in realization order, and :meth:`curve`
    scales the total, after any block.

    The default estimator averages ``y_k(t_ref) * conj(y_k(t_ref + lag))``
    across realizations at the single reference time.  ``time_average=True``
    additionally averages over every valid reference time within each
    realization, a variance-reduction extension that assumes stationarity.
    """

    def __init__(self, grid: SamplingGrid, t_ref_index: int = 0,
                 n_lags: int | None = None, *, time_average: bool = False) -> None:
        t_ref_index = _checked_int(t_ref_index, "t_ref_index of the lag range", DomainError, 0)
        n_lags = (grid.n_samples - t_ref_index if n_lags is None
                  else _checked_int(n_lags, "n_lags of the lag range", DomainError))
        if n_lags < 1 or t_ref_index + n_lags > grid.n_samples:
            raise DomainError(
                f"lag range overflows the grid: t_ref_index={t_ref_index}, "
                f"n_lags={n_lags}, n_samples={grid.n_samples}"
            )
        self.grid, self.t_ref_index, self.n_lags = grid, t_ref_index, n_lags
        self.time_average = time_average
        self.n_realizations = 0
        self.master_seed: int | None = None
        self._total = 0

    def _partial(self, rows: np.ndarray) -> np.ndarray:
        """Single reference: ``sum_k y_k(t_ref) * conj(y_k(t_ref + lag))``.  Time
        average: ``sum_k |FFT y_k|^2`` on the shortest power-of-two length
        that makes the correlation linear, ``n_samples + n_lags - 1`` or
        more; its inverse transform is the sum of every lagged product
        (Wiener-Khinchin), taken once in :meth:`curve`."""
        if self.time_average:
            n_samples = self.grid.n_samples
            fft_len = 1 << (n_samples + self.n_lags - 2).bit_length()
            # padded by hand, transformed and squared in place in one
            # buffer; a reduction over rows adds each row's squared parts
            # (re, im interleaved) in row order, the sum einsum("kf,kf->f")
            # takes over all the rows at once
            spectra = np.empty((rows.shape[0], fft_len), dtype=np.complex128)
            spectra[:, :n_samples] = rows
            spectra[:, n_samples:] = 0.0
            np.fft.fft(spectra, axis=1, out=spectra)
            parts = spectra.view(np.float64)
            np.multiply(parts, parts, out=parts)
            squares = np.add.reduce(parts, axis=0)
            return squares[0::2] + squares[1::2]
        lo = self.t_ref_index
        return np.sum(rows[:, lo:lo + 1] * np.conj(rows[:, lo:lo + self.n_lags]),
                      axis=0, dtype=np.complex128)

    def _fold(self, partial: np.ndarray, n_rows: int, master_seed: int) -> None:
        if self.n_realizations and master_seed != self.master_seed:
            raise DomainError(f"cannot pool realizations of seed {master_seed} into "
                              f"an estimate of seed {self.master_seed}")
        self._total = self._total + partial
        self.n_realizations += n_rows
        self.master_seed = master_seed

    def add(self, rows: np.ndarray, master_seed: int) -> None:
        """Add the next stored realizations of ``master_seed``, one per row.

        Every row is checked, ``_BLOCK_ROWS`` (8) at a time, before any is
        added.  They are then reduced and added a block at a time, as
        :func:`accumulate` adds its blocks: the rows of realizations
        ``[0, N)`` give the streamed estimate's bits, in one block's
        working memory.
        """
        master_seed = _checked_int(master_seed, "master_seed", low=0, high=_SEED_MAX)
        if not isinstance(rows, np.ndarray):
            raise DomainError(f"rows must be an array of realizations, one per row, "
                              f"got {type(rows).__name__}")
        if rows.dtype.kind not in "iufc":
            raise DomainError(f"rows must hold real or complex numbers, got dtype {rows.dtype}")
        if rows.ndim != 2 or rows.shape[1] != self.grid.n_samples:
            raise DomainError(f"rows of shape {rows.shape} are not "
                              f"{self.grid.n_samples}-sample realizations")
        blocks = np.split(rows, range(_BLOCK_ROWS, rows.shape[0], _BLOCK_ROWS))
        if not all(np.isfinite(block).all() for block in blocks):
            raise DomainError("rows must be finite, got a non-finite value")
        for block in blocks:
            self._fold(self._partial(block), block.shape[0], master_seed)

    def curve(self) -> Curve:
        """The estimate over the realizations added so far."""
        if not self.n_realizations:
            raise DomainError("the estimate holds no realizations")
        n_real, n_lags = self.n_realizations, self.n_lags
        if self.time_average:
            counts = (self.grid.n_samples - np.arange(n_lags)).astype(float)
            values = np.conj(np.fft.ifft(self._total)[:n_lags]) / (n_real * counts)
        else:
            values = self._total / n_real
        meta = {"n_realizations": n_real, "t_ref_index": self.t_ref_index,
                "master_seed": self.master_seed, "dt_s": self.grid.dt,
                "estimator": "time_average" if self.time_average else "single_reference"}
        return Curve(axis="lag_s", x=self.grid.dt * np.arange(n_lags), y=values, meta=meta)


def accumulate(params: SwarmParams, grid: SamplingGrid, master_seed: int,
               accumulators, start: int, stop: int, *, n_workers: int = 1) -> None:
    """Feed realizations ``[start, stop)`` of ``master_seed`` to every accumulator.

    Each block of realizations is synthesized, rounded to complex64 and
    reduced to every partial sum on one pool thread, so memory is O(block)
    and the estimates are bit-identical for any ``n_workers``; from
    ``start`` 0 they equal :meth:`AcfAccumulator.add` of the stored
    ensemble's rows.
    Consecutive ranges add the same realizations as their union, bit for
    bit when each split is a multiple of the block size (8) from ``start``.
    Unless an accumulator is a time average, only the samples the estimates
    read are made: the rows are the grid's first ``max(t_ref_index +
    n_lags)`` samples, which are the full rows' bits.
    """
    accumulators = list(accumulators)
    if any(acc.grid != grid for acc in accumulators):
        raise ValidationError(f"every accumulator must be on the simulated grid {grid}")
    read = max((grid.n_samples if acc.time_average else acc.t_ref_index + acc.n_lags
                for acc in accumulators), default=grid.n_samples)

    def reduce(rows):
        return rows.shape[0], [acc._partial(rows) for acc in accumulators]

    for n_rows, partials in _blocks(params, replace(grid, n_samples=read),
                                    master_seed, start, stop, n_workers,
                                    np.dtype(np.complex64), reduce):
        for acc, partial in zip(accumulators, partials):
            acc._fold(partial, n_rows, int(master_seed))


def estimate_psd(acf_curve: Curve) -> Curve:
    """Spectrum estimate: scaled transform of a lag-domain curve.

    The curve must hold uniformly spaced lags starting at zero.  Negative
    lags are reconstructed by conjugate symmetry and the result approximates
    the plain integral transform of the autocorrelation (DFT scaled by the
    lag step).  The frequency axis is angular (rad/s), ascending.
    """
    if acf_curve.axis != "lag_s":
        raise DomainError(f"expected a lag-domain curve, got axis {acf_curve.axis!r}")
    lags = acf_curve.x
    if lags.size < 2:
        raise DomainError("need at least two lags to form a spectrum")
    dlag = lags[1] - lags[0]
    steps = np.diff(lags)
    if np.any(np.abs(steps - dlag) > 1e-9 * dlag):
        raise DomainError("lag grid must be uniformly spaced")
    if lags[0] != 0.0:
        raise DomainError("lag grid must start at zero")
    values = np.asarray(acf_curve.y, dtype=np.complex128)
    m = values.size
    total = 2 * m - 1
    seq = np.empty(total, dtype=np.complex128)
    seq[:m] = values
    seq[m:] = np.conj(values[-1:0:-1])
    spectrum = np.fft.fft(seq) * dlag
    freqs = 2.0 * np.pi * np.fft.fftfreq(total, d=dlag)
    order = np.fft.fftshift(np.arange(total))
    freqs = freqs[order]
    spectrum = spectrum[order]
    residual = float(np.max(np.abs(spectrum.imag)))
    meta = dict(acf_curve.meta)
    meta.update({
        "dlag_s": float(dlag),
        "max_imag_residual": residual,
        "transform": "lag-step-scaled DFT of the conjugate-symmetric extension",
    })
    return Curve(axis="angular_frequency_rad_per_s", x=freqs, y=spectrum.real, meta=meta)


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude-squared short-time transform with annotated axes; each array
    holds finite reals (else :class:`ValidationError`)."""

    power: np.ndarray   # (n_freqs, n_frames)
    times: np.ndarray   # frame centers, seconds
    freqs: np.ndarray   # angular frequency, rad/s, ascending

    def __post_init__(self) -> None:
        for name in ("power", "times", "freqs"):
            arr = _checked_array(getattr(self, name), name).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def spectrogram(series: np.ndarray, grid: SamplingGrid) -> Spectrogram:
    """Magnitude-squared short-time transform of one complex series.

    Frames of ``_STFT_WINDOW`` (256) samples under a Hann window start every
    ``_STFT_HOP`` (64) samples; each is transformed at its own length and
    timed at its center.  ``series`` must be a one-dimensional array of
    finite real or complex numbers, at least one window long, whose
    short-time power is finite; anything else raises :class:`DomainError`.
    """
    series = _checked_array(series, "series", DomainError, complex_ok=True)
    if series.ndim != 1:
        raise DomainError("series must be one-dimensional")
    if series.size < _STFT_WINDOW:
        raise DomainError(f"series must be at least one {_STFT_WINDOW}-sample window long, "
                          f"got {series.size} samples")
    k = np.arange(_STFT_WINDOW)
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / _STFT_WINDOW)
    starts = _STFT_HOP * np.arange(1 + (series.size - _STFT_WINDOW) // _STFT_HOP)
    frames = series[starts[:, None] + k] * win
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.abs(np.fft.fftshift(np.fft.fft(frames, axis=1), axes=1)) ** 2
    if not np.isfinite(power).all():
        raise DomainError("series too large: its short-time power overflows float64")
    freqs = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(_STFT_WINDOW, d=grid.dt))
    times = grid.t_start + (starts + 0.5 * (_STFT_WINDOW - 1)) * grid.dt
    return Spectrogram(power=power.T, times=times, freqs=freqs)


def container_chunks(ensemble: Ensemble) -> list:
    """The container of ``ensemble`` as buffers in file order; the last is a
    view of the payload, not a copy."""
    dtype_name = ensemble.signals.dtype.name
    header = {
        "version": _ENSEMBLE_VERSION,
        "params": asdict(ensemble.params),
        "grid": asdict(ensemble.grid),
        "master_seed": ensemble.master_seed,
        "n_realizations": ensemble.n_realizations,
        "n_samples": ensemble.grid.n_samples,
        "dtype": dtype_name,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(ensemble.signals).astype(_WIRE_DTYPES[dtype_name],
                                                            copy=False)
    return [_ENSEMBLE_MAGIC, struct.pack("<IQ", _ENSEMBLE_VERSION, len(blob)), blob,
            memoryview(payload.reshape(-1).view(np.uint8))]


def save_ensemble(path, ensemble: Ensemble) -> None:
    """Write an ensemble to the versioned binary container.

    Layout: magic ``SWEN``, little-endian u32 version and u64 header length,
    UTF-8 JSON header (params, grid, seed, shape, dtype), then the raw
    little-endian row-major payload.  The file is replaced whole: a write
    that fails leaves ``path`` as it was.
    """
    directory, name = os.path.split(os.fspath(path))
    write_files(directory, {name: container_chunks(ensemble)})


def load_ensemble(path) -> Ensemble:
    """Read an ensemble written by :func:`save_ensemble`.

    Raises :class:`FormatError` unless the file is one whole container: the
    magic and version, a complete JSON header with valid fields and dtype,
    and a payload of exactly the declared size with nothing after it.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _ENSEMBLE_MAGIC:
            raise FormatError(f"not an ensemble container (magic {magic!r})")
        prefix = fh.read(12)
        if len(prefix) != 12:
            raise FormatError("truncated container: the version and header length "
                              f"need 12 bytes, found {len(prefix)}")
        version, header_len = struct.unpack("<IQ", prefix)
        if version != _ENSEMBLE_VERSION:
            raise FormatError(f"unsupported ensemble container version {version}")
        # lengths come from the file: bound them by what is left of it before
        # reading, since read(n) allocates n bytes first
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if header_len > remaining:
            raise FormatError(f"truncated container header: {header_len} bytes "
                              f"declared, {remaining} left in the file")
        blob = fh.read(header_len)
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:
            raise FormatError(f"container header is not UTF-8 JSON: {exc}") from None
        if not isinstance(header, dict):
            raise FormatError("container header must be a JSON object")
        dtype_name = header.get("dtype")
        wire_dtype = _WIRE_DTYPES.get(dtype_name) if isinstance(dtype_name, str) else None
        if wire_dtype is None:
            raise FormatError(f"container dtype must be complex64 or complex128, "
                              f"got {header.get('dtype')!r}")
        n_real, n_samples, master_seed = (
            _checked_int(header.get(key), f"container header field {key!r}", FormatError,
                         low, high)
            for key, low, high in (("n_realizations", 0, None), ("n_samples", 1, None),
                                   ("master_seed", 0, _SEED_MAX)))
        try:
            params = SwarmParams(**header["params"])
            grid = SamplingGrid(**header["grid"])
        except (KeyError, TypeError, ValidationError) as exc:
            raise FormatError(f"container header params/grid are invalid: {exc}") from None
        if grid.n_samples != n_samples:
            raise FormatError(f"container grid has {grid.n_samples} samples but the "
                              f"header declares {n_samples}")
        n_bytes = n_real * n_samples * np.dtype(wire_dtype).itemsize
        remaining = os.fstat(fh.fileno()).st_size - fh.tell()
        if n_bytes > remaining:
            raise FormatError(f"truncated container payload: {n_bytes} bytes "
                              f"declared, {remaining} left in the file")
        if n_bytes < remaining:
            raise FormatError(f"container has {remaining - n_bytes} bytes after its "
                              f"{n_bytes}-byte payload")
        payload = fh.read(n_bytes)
    # on a little-endian host the signals are a view of the bytes read, not a copy
    signals = np.frombuffer(payload, dtype=wire_dtype).astype(dtype_name, copy=False)
    return Ensemble(params, grid, master_seed, signals.reshape(n_real, n_samples))
