"""Crash-durability primitives shared by every on-disk sink.

The stores (:mod:`repro.protocol.store`, :mod:`repro.protocol.sharded_store`)
and any other component that persists results follow one write discipline:

* bytes are written to a ``.tmp-*`` sibling, flushed, and fsynced;
* the tmp file is :func:`os.replace`\\ d over the final path;
* the containing **directory** is fsynced, because without that the rename
  itself can vanish on power failure even though the file's bytes were
  durable.

These helpers used to live as private functions inside the JSON results
store; they are hoisted here (stdlib-only, no heavy imports) so every layer
— including :class:`repro.evaluation.checkpoint.RunnerCheckpoint` — can
share them without importing the protocol package.  The ``durability`` rule
of :mod:`repro.analysis` enforces the pattern: any function calling
``os.replace`` must also call :func:`fsync_dir` (or delegate to
:func:`atomic_write_text`, which does).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["fsync_dir", "atomic_write_text"]

_TMP_PREFIX = ".tmp-"


def fsync_dir(directory: "str | os.PathLike[str]") -> None:
    """fsync a directory so renames/creates/unlinks in it survive power loss.

    POSIX-guarded: platforms that cannot open or fsync a directory (Windows,
    some network filesystems) silently skip — the data files themselves are
    still fsynced, so this only narrows the power-failure window, it never
    breaks a write.
    """
    if not hasattr(os, "O_DIRECTORY"):
        return
    try:
        fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    directory: Path, path: Path, payload: str, *, suffix: str = ".json"
) -> None:
    """tmp-write + fsync + rename + dir fsync; no stray tmp file on failure.

    The directory fsync after :func:`os.replace` is what makes the *rename*
    durable: without it a completed record can vanish on power failure even
    though its bytes were fsynced.
    """
    descriptor, tmp_name = tempfile.mkstemp(
        prefix=_TMP_PREFIX, suffix=suffix, dir=directory
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(directory)
