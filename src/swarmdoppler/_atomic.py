"""Whole-file writes: a reader sees the old file or the new one, never a part."""
from __future__ import annotations

import contextlib
import os
import secrets


@contextlib.contextmanager
def atomic_file(path):
    """A binary file handle whose content replaces ``path`` on a clean exit.

    The content goes to a temporary file in the same directory, which
    ``os.replace`` then moves onto ``path``.  If the block raises, the
    temporary file is removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    temp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(temp, "xb") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp)
        raise
