"""Durable on-disk stores of protocol results, behind one shared contract.

Two implementations exist:

* :class:`ResultsStore` (this module) — one ``<key>.json`` file per cell.
  Simple, greppable, zero-dependency; the right store up to a few thousand
  cells, after which the filesystem becomes the scheduler (every
  ``status()`` is N opens + parses).
* :class:`~repro.protocol.sharded_store.ShardedResultsStore` — append-only
  per-writer segment files compacted into a sqlite index; ``status()`` over
  tens of thousands of cells is one index scan.

Both satisfy :class:`ResultsStoreProtocol`, which is what
:class:`~repro.protocol.pipeline.ProtocolPipeline` consumes — the pipeline
never touches paths, only keys and records.

Three invariants make the single-file store safe to kill at any moment:

* **atomic writes** — records are written to a ``.tmp-*`` sibling, flushed
  and fsynced, then :func:`os.replace`\\ d into place **and the directory
  entry fsynced**, so a visible ``<key>.json`` is always complete and a
  completed rename survives power loss;
* **corruption tolerance** — a record that cannot be parsed (e.g. a file
  truncated by a crash of a *non*-atomic writer, or hand-edited) is treated
  as absent, never as an error, so the pipeline simply recomputes that cell;
* **content-hashed keys** — the filename alone decides whether a cell is
  done, so resuming requires no manifest, no database, and no ordering.

Records are plain JSON dictionaries; the store imposes no schema beyond
requiring JSON-serialisable values.  Writes are **strict** JSON: non-finite
floats are serialised as ``null`` (see :mod:`repro.core.jsonio`), while
reads stay tolerant of legacy records carrying bare ``NaN`` tokens.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.core.durability import atomic_write_text as _atomic_write_text
from repro.core.durability import fsync_dir as _fsync_dir
from repro.core.jsonio import dumps_strict

__all__ = ["ResultsStore", "ResultsStoreProtocol"]

_SUFFIX = ".json"
_TMP_PREFIX = ".tmp-"
_CHECKPOINT_DIR = "checkpoints"


def _safe_key(key: str) -> str:
    safe = key.replace(os.sep, "_")
    if os.altsep:
        safe = safe.replace(os.altsep, "_")
    return safe


def _checkpoint_path(root: Path, key: str) -> Path:
    """Where a mid-cell runner checkpoint for ``key`` lives under ``root``.

    Checkpoints are a *side area* (``root/checkpoints/``), deliberately
    outside the record namespace: an in-flight checkpoint must never show up
    in ``records()``/``statuses()`` as if the cell were done.  Shared by both
    store backends.
    """
    return root / _CHECKPOINT_DIR / f"{_safe_key(key)}{_SUFFIX}"


def _read_json_dict(path: Path) -> "dict | None":
    """Parse a JSON object from ``path``; missing or corrupt means ``None``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def _discard_checkpoint(root: Path, key: str) -> bool:
    """Delete the checkpoint for ``key``; returns whether one existed."""
    path = _checkpoint_path(root, key)
    try:
        path.unlink()
    except FileNotFoundError:
        return False
    _fsync_dir(path.parent)
    return True


# Hoisted to repro.core.durability so every on-disk sink shares the same
# tmp-write + fsync + replace + dir-fsync discipline; re-exported under the
# historical private names because ShardedResultsStore imports them from
# here.


@runtime_checkable
class ResultsStoreProtocol(Protocol):
    """What the pipeline requires of a results store.

    Keys are the content-hashed cell keys from
    :meth:`~repro.protocol.spec.ProtocolSpec.cell_key`; records are plain
    JSON dictionaries.  ``statuses`` exists so ``pending()``/``status()``
    over large specs are a single bulk scan instead of a per-key ``get``
    loop — implementations back it with whatever index they have.

    Both built-in stores additionally expose an *optional* mid-cell
    checkpoint side area (``checkpoint_path_for`` / ``get_checkpoint`` /
    ``discard_checkpoint``) used by the pipeline's ``checkpoint_every``
    resume; the pipeline duck-types these, so third-party stores without
    them still satisfy this protocol and simply run without mid-cell
    checkpoints.
    """

    def put(self, key: str, record: dict): ...

    def get(self, key: str) -> "dict | None": ...

    def discard(self, key: str) -> bool: ...

    def keys(self) -> list[str]: ...

    def records(self) -> Iterator[tuple[str, dict]]: ...

    def statuses(self) -> dict[str, bool]: ...

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]: ...

    def save_spec(self, spec_json: str): ...

    def __contains__(self, key: str) -> bool: ...

    def __len__(self) -> int: ...


class ResultsStore:
    """A directory of one-JSON-record-per-cell results with atomic writes."""

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self._root

    # ------------------------------------------------------------- pathing
    def path_for(self, key: str) -> Path:
        """Where the record for ``key`` lives (whether or not it exists)."""
        return self._root / f"{_safe_key(key)}{_SUFFIX}"

    # ------------------------------------------------------------ write API
    def put(self, key: str, record: dict) -> Path:
        """Atomically persist ``record`` under ``key`` (overwriting any old one).

        The record is serialised to canonical (sorted-key) **strict** JSON —
        non-finite floats become ``null`` — in a temporary sibling file,
        fsynced, and renamed over the final path (with a directory fsync), so
        readers and crash-restarted runs never observe a partial record.
        """
        path = self.path_for(key)
        self._atomic_write(path, dumps_strict(record, indent=2, sort_keys=True))
        return path

    def discard(self, key: str) -> bool:
        """Delete the record for ``key``; returns whether one existed."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            return False
        _fsync_dir(self._root)
        return True

    def save_spec(self, spec_json: str) -> Path:
        """Persist a provenance copy of the spec alongside the records."""
        path = self._root / "spec.json"
        self._atomic_write(path, spec_json)
        return path

    # --------------------------------------------------- mid-cell checkpoints
    def checkpoint_path_for(self, key: str) -> Path:
        """Side-area path for the mid-cell runner checkpoint of ``key``.

        The runner writes here atomically during a cell; the pipeline
        discards it the moment the cell's record is persisted.  Living in
        ``checkpoints/``, it is invisible to ``records()``/``statuses()``.
        """
        return _checkpoint_path(self._root, key)

    def get_checkpoint(self, key: str) -> "dict | None":
        """The stored checkpoint payload for ``key``, or ``None``."""
        return _read_json_dict(self.checkpoint_path_for(key))

    def discard_checkpoint(self, key: str) -> bool:
        """Delete the checkpoint for ``key``; returns whether one existed."""
        return _discard_checkpoint(self._root, key)

    def _atomic_write(self, path: Path, payload: str) -> None:
        _atomic_write_text(self._root, path, payload)

    # ------------------------------------------------------------- read API
    def get(self, key: str) -> "dict | None":
        """The stored record for ``key``, or ``None`` if absent or corrupt."""
        return self._load(self.path_for(key))

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def keys(self) -> list[str]:
        """Keys of every *readable* record, sorted."""
        return [key for key, _ in self.records()]

    def records(self) -> Iterator[tuple[str, dict]]:
        """Iterate ``(key, record)`` over every readable record, sorted by key."""
        for path in sorted(self._root.glob(f"*{_SUFFIX}")):
            if path.name.startswith(_TMP_PREFIX) or path.name == "spec.json":
                continue
            record = self._load(path)
            if record is not None:
                yield path.name[: -len(_SUFFIX)], record

    def statuses(self) -> dict[str, bool]:
        """``key -> record is error-free`` for every readable record.

        One directory scan; each record file is parsed exactly once, however
        many keys the caller goes on to interrogate.
        """
        return {
            key: record.get("error") is None for key, record in self.records()
        }

    def get_many(self, keys: Iterable[str]) -> dict[str, dict]:
        """Records for every key in ``keys`` that has a readable record."""
        found: dict[str, dict] = {}
        for key in keys:
            record = self.get(key)
            if record is not None:
                found[key] = record
        return found

    def __len__(self) -> int:
        return len(self.keys())

    # ------------------------------------------------------------ internals
    @staticmethod
    def _load(path: Path) -> "dict | None":
        return _read_json_dict(path)
