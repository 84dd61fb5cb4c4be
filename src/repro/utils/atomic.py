"""Durable, atomic replacement of a file's contents."""

from __future__ import annotations

import os
import uuid


def write_atomic(path: str | os.PathLike[str], text: str) -> None:
    """Replace the file at ``path`` with ``text``, all or nothing.

    The text goes to a fresh temp file in the same directory, which is
    flushed and fsynced before ``os.replace`` renames it over ``path``.
    So a reader sees the old contents or the new ones, never a torn or
    empty file; and because the data reaches the disk before the rename,
    a power loss cannot leave the renamed file empty either (the rename
    itself may be lost, leaving the old file).  On any failure the temp
    file is removed and ``path`` is left as it was.
    """
    path = os.fspath(path)
    directory, name = os.path.split(os.path.abspath(path))
    # A unique name, so concurrent writers never share a temp file; opened
    # with "x" (not mkstemp) so the file gets the usual umask-derived mode.
    tmp = os.path.join(directory, f".{name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
