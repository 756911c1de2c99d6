"""Exception hierarchy used across the package, and the one argument check.

Every public entry point checks its scalar arguments with ``_checked_int``
and ``_checked_real``: a bool is never a number; an integer may be a Python
or numpy integer and is used (and stored) as a Python ``int``, so configs
and container headers stay JSON; a real is a finite Python ``int`` or
``float`` (numpy's float64 is one), never a string.  Array arguments of
numbers go through ``_checked_array``, which holds them to the same rule by
dtype.  A bad value raises the caller's :class:`SwarmModelError` subclass,
naming the argument and bounds.
"""
import operator
import sys

import numpy as np


class SwarmModelError(Exception):
    """Base class for every error raised by swarmdoppler."""


class ValidationError(SwarmModelError):
    """A parameter value violates its constraints; the message names the field."""


class ConfigError(ValidationError):
    """A configuration document failed to parse or does not match the schema."""


class DomainError(SwarmModelError):
    """An operation was invoked outside its supported domain."""


class NumericsError(SwarmModelError):
    """A numerical routine could not reach its accuracy target."""


class FormatError(SwarmModelError):
    """A binary container is corrupt or has an unsupported version."""


def _checked_int(value, name: str, error=ValidationError, low: int = 1,
                 high: int | None = None) -> int:
    """``value``, a Python or numpy integer but not a bool, as an ``int`` in
    ``[low, high]``; anything else raises ``error`` naming ``name``."""
    number = None if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
        else int(value)
    if number is None or number < low or (high is not None and number > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {bounds}, got {value!r}")
    return number


_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}


def _checked_real(value, name: str, error=ValidationError, **bounds):
    """``value``, unchanged, if it is a finite Python ``int`` or ``float``, not
    a bool, within ``bounds`` (any of ``ge``, ``gt``, ``le``, ``lt``);
    anything else raises ``error`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max \
            or not all(getattr(operator, op)(value, b) for op, b in bounds.items()):
        rule = " and ".join(f"{_SYMBOLS[op]} {b}" for op, b in bounds.items())
        raise error(f"{name} must be a finite real {rule}".rstrip() + f", got {value!r}")
    return value


def _checked_array(values, name: str, error=ValidationError, *,
                   complex_ok: bool = False) -> np.ndarray:
    """``values``, a real number or array of them (numpy kinds ``i``, ``u``,
    ``f``, and ``c`` if ``complex_ok``; never a bool, string or object), as a
    float array, or a complex one for complex input, if every entry is
    finite; anything else raises ``error`` naming ``name``."""
    arr = np.asarray(values)
    if arr.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        kind = "" if complex_ok else "real "
        raise error(f"{name} must be a {kind}number or an array of them, "
                    f"got dtype {arr.dtype}")
    arr = arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise error(f"{name} must be finite, got a non-finite value")
    return arr
