"""Whole-file writes: a reader sees the old files or the new ones, never a part."""
from __future__ import annotations

import contextlib
import os
import secrets


def write_files(directory, files) -> None:
    """Write ``files``, a ``{name: chunks}`` mapping, into ``directory``.

    Each file's chunks (bytes-like objects) go to a temporary file beside
    its target.  Only after every file is written does ``os.replace`` move
    each one onto its name, in mapping order.  On any failure every
    temporary file is removed, so a write that fails replaces no file; only
    a failing rename, which moves a directory entry and copies nothing, can
    come after earlier names were replaced.
    """
    directory = os.fspath(directory)
    temps = []
    try:
        for name, chunks in files.items():
            temps.append(os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp"))
            with open(temps[-1], "xb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        for temp, name in zip(temps, files):
            os.replace(temp, os.path.join(directory, name))
    except BaseException:
        for temp in temps:
            with contextlib.suppress(OSError):
                os.remove(temp)
        raise
