import errno
import os

import pytest

import swarmdoppler as sd
from swarmdoppler import _atomic, validation
from helpers import mavic_params

MAVIC_SEED = 424242
MAVIC_N = 10_000
# the CPUs this process may run on: Monte Carlo results do not depend on it
N_WORKERS = len(os.sched_getaffinity(0))


@pytest.fixture(scope="session")
def mavic():
    return mavic_params()


@pytest.fixture(scope="session")
def mavic_grid(mavic):
    return sd.default_grid(mavic)


@pytest.fixture(scope="session")
def mavic_validation(mavic, mavic_grid):
    """``validate`` at reference scale, run once per session.

    The realizations stream through the path the CLI ships and are never
    stored.  The result is bit-identical for any worker count, so it uses
    every CPU the process may run on.
    """
    return validation.validate(mavic, mavic_grid, MAVIC_N, MAVIC_SEED, n_workers=N_WORKERS)


class _HalfWrite:
    """A file that takes half of its first write, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


class FullDisk:
    """Counts the files that whole-file writes open; from the one at index
    ``fail_at`` on (0: every file), each takes half of its first write, then
    fails like a full disk.  ``fail_from_now(None)`` lets every write through."""

    def __init__(self):
        self.fail_at = 0
        self.opened = 0

    def open(self, path, mode):
        index, self.opened = self.opened, self.opened + 1
        fh = open(path, mode)
        failing = self.fail_at is not None and index >= self.fail_at
        return _HalfWrite(fh) if failing else fh

    def fail_from_now(self, index):
        """Fail from the ``index``-th file opened after this call on."""
        self.fail_at, self.opened = index, 0


@pytest.fixture
def full_disk(monkeypatch):
    """Make every whole-file write fail halfway through its first write
    (see :class:`FullDisk` to let the first few files through)."""
    disk = FullDisk()
    monkeypatch.setattr(_atomic, "open", disk.open, raising=False)
    return disk
