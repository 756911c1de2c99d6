"""Stochastic synthesis of swarm returns and Monte Carlo estimators.

Each realization draws initial blade angles and projection phases uniformly
on [0, 2*pi) and rotor speeds from a Gaussian, then sums unit scatterer
returns coherently.  Realization ``k`` of an ensemble is generated from a
substream derived deterministically from ``(master_seed, k)``, so ensembles
are bit-identical regardless of worker count or scheduling.
"""
from __future__ import annotations

import json
import os
import struct
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._atomic import write_files
from .exceptions import DomainError, FormatError, ValidationError, _checked_int
from .model import _SEED_MAX, Curve, SamplingGrid, SwarmParams, check_grid, derive

_ENSEMBLE_MAGIC = b"SWEN"
_ENSEMBLE_VERSION = 1
# realizations per estimator block: on validate-mavic (2 workers) blocks of
# 32 held peak RSS to ~66 MB against ~150 MB at 256, at equal wall time
_CHUNK_ROWS = 32


@dataclass(frozen=True)
class SwarmState:
    """Latent draws of one realization: per-rotor angles, phases and speeds."""

    initial_angles: np.ndarray      # (n_drones, n_rotors), [0, 2*pi)
    projection_phases: np.ndarray   # (n_drones, n_rotors), [0, 2*pi)
    rotor_speeds: np.ndarray        # (n_drones, n_rotors), rad/s

    def __post_init__(self) -> None:
        for name in ("initial_angles", "projection_phases", "rotor_speeds"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise ValidationError(f"{name} must be a 2-d array")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.initial_angles.shape == self.projection_phases.shape
                == self.rotor_speeds.shape):
            raise ValidationError("state arrays must share one (n_drones, n_rotors) shape")


def sample_state(params: SwarmParams, rng: np.random.Generator) -> SwarmState:
    """Draw one latent state from ``rng``.

    Draw order is fixed (angle block, phase block, speed block, each in
    row-major drone/rotor order) so a given generator position always yields
    the same state.  Speeds are not truncated: the return is symmetric in
    the speed sign, so negative samples are admissible.
    """
    shape = (params.n_drones, params.n_rotors)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    speeds = params.mean_speed + params.speed_std * rng.standard_normal(size=shape)
    return SwarmState(initial_angles=angles, projection_phases=phases,
                      rotor_speeds=speeds)


def synthesize(state: SwarmState, params: SwarmParams, grid: SamplingGrid) -> np.ndarray:
    """Coherent return signal of one realization on the given time grid.

    Each blade contributes a unit phasor whose phase is the modulation index
    times the cosine of its rotation angle; rotor returns are rotated by the
    projection phase and summed.  Output is complex128 of length
    ``grid.n_samples``.

    With an even blade count, blade ``b + n_blades/2`` is half a turn from
    blade ``b``, so its phasor is the complex conjugate and the pair sums to
    the real ``2*cos(m*cos(angle))``.  Odd blade counts take the real and
    imaginary parts blade by blade.
    """
    if state.initial_angles.shape != (params.n_drones, params.n_rotors):
        raise ValidationError(
            f"state shape {state.initial_angles.shape} does not match "
            f"(n_drones, n_rotors)=({params.n_drones}, {params.n_rotors})"
        )
    mod_index = derive(params).mod_index
    n_blades = params.n_blades
    paired = n_blades % 2 == 0
    # one row per rotor: its angle at every sample time
    angles = state.initial_angles.reshape(-1, 1) \
        + state.rotor_speeds.reshape(-1, 1) * grid.times()
    re = im = 0.0
    for b in range(n_blades // 2 if paired else n_blades):
        phase = np.cos(angles + 2.0 * np.pi * b / n_blades)
        phase *= mod_index
        re = re + np.cos(phase)
        if not paired:
            im = im - np.sin(phase)
    # rotate each rotor by exp(-1j * projection phase) and sum the rotors
    cos_p = np.cos(state.projection_phases).ravel()
    sin_p = np.sin(state.projection_phases).ravel()
    y = np.empty(grid.n_samples, dtype=np.complex128)
    y.real = np.einsum("k,kt->t", cos_p, re)
    y.imag = -np.einsum("k,kt->t", sin_p, re)
    if not paired:
        y.real += np.einsum("k,kt->t", sin_p, im)
        y.imag += np.einsum("k,kt->t", cos_p, im)
    return (2.0 if paired else 1.0) * params.gain_magnitude * y


@dataclass(frozen=True)
class Ensemble:
    """A batch of signal realizations with its generation provenance."""

    params: SwarmParams
    grid: SamplingGrid
    master_seed: int
    signals: np.ndarray   # (n_realizations, n_samples), complex

    def __post_init__(self) -> None:
        arr = np.asarray(self.signals).view()    # made read-only; the caller's stays as is
        if arr.ndim != 2 or not np.iscomplexobj(arr):
            raise ValidationError("signals must be a 2-d complex array")
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
    """Deterministic substream for realization ``index`` of ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _blocks(params: SwarmParams, grid: SamplingGrid, master_seed: int, start: int,
            stop: int, n_workers: int, dtype: np.dtype, reduce,
            block_rows: int = _CHUNK_ROWS):
    """``reduce(rows)`` for consecutive blocks of realizations ``[start, stop)``.

    Checks the grid, the range, the seed and the worker count when called,
    before any realization is made, and returns a generator of the reduced
    blocks, in order.  Block ``j`` holds realizations
    ``[start + j*B, start + (j+1)*B)`` with ``B = block_rows``, each
    synthesized alone and rounded to ``dtype``; the block is built and
    reduced on one of ``min(n_workers, os.cpu_count())`` pool threads.  At
    most twice as many blocks as threads, plus one, are in flight, so memory
    is O(B) whatever the range is.
    """
    check_grid(params, grid)
    start = _checked_int(start, "realization index start", low=0)
    stop = _checked_int(stop, "realization index stop (start < stop)", low=start + 1)
    _checked_int(master_seed, "master_seed", low=0, high=_SEED_MAX)
    n_threads = min(_checked_int(n_workers, "n_workers"), os.cpu_count() or 1)

    def work(lo: int):
        rows = np.empty((min(block_rows, stop - lo), grid.n_samples), dtype=dtype)
        for i in range(rows.shape[0]):
            state = sample_state(params, realization_rng(master_seed, lo + i))
            rows[i] = synthesize(state, params, grid)
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
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.complex64), np.dtype(np.complex128)):
        raise ValidationError(f"dtype must be complex64 or complex128, got {dtype}")
    # one realization per task keeps the workers evenly loaded; the rows
    # do not depend on the block size
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
    return Ensemble(params=params, grid=grid, master_seed=int(master_seed), signals=signals)


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
        average: ``sum_k |FFT y_k|^2`` on a zero-padded length that makes the
        correlation linear; its inverse transform is the sum of every lagged
        product (Wiener-Khinchin), taken once in :meth:`curve`."""
        if self.time_average:
            fft_len = 1 << (self.grid.n_samples + self.n_lags - 1).bit_length()
            spectra = np.fft.fft(rows.astype(np.complex128), n=fft_len, axis=1)
            parts = spectra.view(np.float64)      # re, im interleaved
            squares = np.einsum("kf,kf->f", parts, parts)
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
        """Add the next stored realizations of ``master_seed``, one per row."""
        if rows.ndim != 2 or rows.shape[1] != self.grid.n_samples:
            raise DomainError(f"rows of shape {rows.shape} are not "
                              f"{self.grid.n_samples}-sample realizations")
        self._fold(self._partial(rows), rows.shape[0], master_seed)

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
    ``start`` 0 they equal :func:`estimate_acf` over the stored ensemble.
    Consecutive ranges add the same realizations as their union, bit for
    bit when each split is a multiple of the block size (32) from ``start``.
    """
    accumulators = list(accumulators)
    if any(acc.grid != grid for acc in accumulators):
        raise ValidationError(f"every accumulator must be on the simulated grid {grid}")

    def reduce(rows):
        return rows.shape[0], [acc._partial(rows) for acc in accumulators]

    for n_rows, partials in _blocks(params, grid, master_seed, start, stop, n_workers,
                                    np.dtype(np.complex64), reduce):
        for acc, partial in zip(accumulators, partials):
            acc._fold(partial, n_rows, int(master_seed))


def estimate_acf(ensemble: Ensemble, t_ref_index: int = 0, n_lags: int | None = None,
                 *, time_average: bool = False) -> Curve:
    """The :class:`AcfAccumulator` estimate over a stored ensemble."""
    acc = AcfAccumulator(ensemble.grid, t_ref_index, n_lags, time_average=time_average)
    for lo in range(0, ensemble.n_realizations, _CHUNK_ROWS):
        acc.add(ensemble.signals[lo:lo + _CHUNK_ROWS], ensemble.master_seed)
    return acc.curve()


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
    residual = float(np.max(np.abs(spectrum.imag))) if m > 1 else 0.0
    meta = dict(acf_curve.meta)
    meta.update({
        "dlag_s": float(dlag),
        "max_imag_residual": residual,
        "transform": "lag-step-scaled DFT of the conjugate-symmetric extension",
    })
    return Curve(axis="angular_frequency_rad_per_s", x=freqs, y=spectrum.real, meta=meta)


@dataclass(frozen=True)
class StftConfig:
    """Short-time transform settings for spectrograms."""

    window: str = "hann"
    window_length: int = 256
    hop: int = 64
    fft_length: int = 256

    def __post_init__(self) -> None:
        if self.window not in ("hann", "rectangular"):
            raise ValidationError(f"window must be 'hann' or 'rectangular', got {self.window!r}")
        for name in ("window_length", "hop", "fft_length"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        if self.hop > self.window_length:
            raise ValidationError(
                f"hop ({self.hop}) must not exceed window_length ({self.window_length})"
            )
        if self.fft_length < self.window_length:
            raise ValidationError(
                f"fft_length ({self.fft_length}) must be >= window_length "
                f"({self.window_length})"
            )


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude-squared short-time transform with annotated axes."""

    power: np.ndarray   # (n_freqs, n_frames)
    times: np.ndarray   # frame centers, seconds
    freqs: np.ndarray   # angular frequency, rad/s, ascending

    def __post_init__(self) -> None:
        for name in ("power", "times", "freqs"):
            arr = np.asarray(getattr(self, name), dtype=float).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def spectrogram(series: np.ndarray, grid: SamplingGrid,
                cfg: StftConfig = StftConfig()) -> Spectrogram:
    """Magnitude-squared short-time transform of one complex series."""
    series = np.asarray(series)
    if series.ndim != 1:
        raise DomainError("series must be one-dimensional")
    if cfg.window_length > series.size:
        raise DomainError(
            f"window_length ({cfg.window_length}) exceeds series length ({series.size})"
        )
    if cfg.window == "hann":
        k = np.arange(cfg.window_length)
        win = 0.5 - 0.5 * np.cos(2.0 * np.pi * k / cfg.window_length)
    else:
        win = np.ones(cfg.window_length)
    n_frames = 1 + (series.size - cfg.window_length) // cfg.hop
    starts = cfg.hop * np.arange(n_frames)
    frames = series[starts[:, None] + np.arange(cfg.window_length)[None, :]] * win
    transform = np.fft.fft(frames, n=cfg.fft_length, axis=1)
    power = np.abs(np.fft.fftshift(transform, axes=1)) ** 2
    freqs = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(cfg.fft_length, d=grid.dt))
    times = grid.t_start + (starts + 0.5 * (cfg.window_length - 1)) * grid.dt
    return Spectrogram(power=power.T, times=times, freqs=freqs)


def container_chunks(ensemble: Ensemble) -> list:
    """The container of ``ensemble`` as buffers in file order; the last is a
    view of the payload, not a copy."""
    p = ensemble.params
    g = ensemble.grid
    dtype_name = "complex64" if ensemble.signals.dtype == np.complex64 else "complex128"
    header = {
        "version": _ENSEMBLE_VERSION,
        "params": {
            "n_drones": p.n_drones, "n_rotors": p.n_rotors, "n_blades": p.n_blades,
            "blade_length": p.blade_length, "wavelength": p.wavelength,
            "mean_speed": p.mean_speed, "speed_variance": p.speed_variance,
            "gain_magnitude": p.gain_magnitude,
        },
        "grid": {"t_start": g.t_start, "dt": g.dt, "n_samples": g.n_samples},
        "master_seed": ensemble.master_seed,
        "n_realizations": ensemble.n_realizations,
        "n_samples": g.n_samples,
        "dtype": dtype_name,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    wire_dtype = "<c8" if dtype_name == "complex64" else "<c16"
    payload = np.ascontiguousarray(ensemble.signals).astype(wire_dtype, copy=False)
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
        wire_dtype = {"complex64": "<c8", "complex128": "<c16"}.get(dtype_name) \
            if isinstance(dtype_name, str) else None
        if wire_dtype is None:
            raise FormatError(f"container dtype must be complex64 or complex128, "
                              f"got {header.get('dtype')!r}")
        n_real, n_samples, master_seed = (
            _checked_int(header.get(key), f"container header field {key!r}", FormatError, low)
            for key, low in (("n_realizations", 0), ("n_samples", 1), ("master_seed", 0)))
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
    signals = np.frombuffer(payload, dtype=wire_dtype).astype(dtype_name).reshape(
        n_real, n_samples)
    return Ensemble(params=params, grid=grid, master_seed=master_seed, signals=signals)
