"""Versioned snapshot/restore contract shared by every stateful layer.

Every stateful object in the stack — windows, RBMs, detectors, classifiers,
streams, evaluators, and the prequential runner itself — exposes the same
three methods:

* ``snapshot() -> dict`` — a JSON-compatible dict (safe to pass through
  :func:`repro.core.jsonio.dumps_strict`) capturing the *full physical*
  state, schema-versioned per class;
* ``restore(state)`` — load a snapshot back into an existing, identically
  configured instance (always available);
* ``from_snapshot(state)`` — reconstruct an instance from a snapshot alone
  (only for classes whose constructor inputs are fully contained in the
  state; streams hold un-serialisable factories and are restore-in-place
  only).

The guarantee is **bit-identical resume**: restoring a snapshot and replaying
the remaining input produces exactly the outputs of the uninterrupted run.
That is why the codec below is lossless where it matters:

* NumPy arrays are encoded as base64 of their raw bytes plus dtype/shape —
  no float-to-decimal round-trip, no dtype widening;
* ``np.random.Generator`` objects are encoded via their bit-generator state
  dict (arbitrary-precision ints, which Python's JSON round-trips exactly);
* non-finite Python floats are tagged (``{"__f64__": "inf"}``) because
  :func:`~repro.core.jsonio.dumps_strict` deliberately serialises bare
  non-finite floats as ``null`` — and legitimate detector state is full of
  them (DDM's ``p_min`` starts at ``inf``, RBM-IM's per-class errors at
  ``NaN``);
* tuples, sets, deques (with ``maxlen``) and non-string-keyed dicts are
  tagged so they decode back to the exact container type the hot loops
  expect.

Version policy: ``SNAPSHOT_VERSION`` is per-class and bumped whenever the
state layout changes; :meth:`Snapshotable.restore` requires an exact match
and raises :class:`SnapshotError` otherwise.  There is deliberately no
migration machinery — a snapshot is a crash-resume/rollback artifact, not an
archival format.
"""

from __future__ import annotations

import base64
import dataclasses
import math
from collections import deque

import numpy as np

__all__ = [
    "SnapshotError",
    "Snapshotable",
    "encode_state",
    "decode_state",
    "register_dataclass",
    "snapshot_matches",
    "snapshotable_class",
]

_ND = "__nd__"
_GEN = "__gen__"
_F64 = "__f64__"
_TUPLE = "__tuple__"
_SET = "__set__"
_DEQUE = "__deque__"
_MAP = "__map__"
_SNAP = "__snap__"
_DC = "__dc__"

_TAGS = frozenset({_ND, _GEN, _F64, _TUPLE, _SET, _DEQUE, _MAP, _SNAP, _DC})


class SnapshotError(ValueError):
    """A snapshot cannot be produced, decoded, or applied."""


#: kind -> Snapshotable subclass, populated by ``__init_subclass__``.
_CLASSES: dict[str, type] = {}

#: name -> registered plain dataclass (configs, monitors, metric snapshots).
_DATACLASSES: dict[str, type] = {}


def snapshotable_class(kind: str) -> type:
    """The registered :class:`Snapshotable` subclass for ``kind``."""
    try:
        return _CLASSES[kind]
    except KeyError:
        raise SnapshotError(f"unknown snapshot kind {kind!r}") from None


def snapshot_matches(snapshot, cls: type) -> bool:
    """Whether ``snapshot`` carries the kind and version of ``cls``, and every
    Snapshotable nested in its state those of its registered class.

    :meth:`Snapshotable.restore` refuses any other snapshot, possibly after
    restoring part of the state; this check lets a caller ignore a stale
    snapshot before restoring anything.
    """
    return (
        isinstance(snapshot, dict)
        and snapshot.get("kind") == cls.__name__
        and snapshot.get("version") == cls.SNAPSHOT_VERSION
        and _nested_snapshots_match(snapshot.get("state"))
    )


def _nested_snapshots_match(value) -> bool:
    if isinstance(value, list):
        return all(_nested_snapshots_match(item) for item in value)
    if not isinstance(value, dict):
        return True
    if len(value) == 1 and _SNAP in value:
        nested = value[_SNAP]
        kind = nested.get("kind") if isinstance(nested, dict) else None
        return kind in _CLASSES and snapshot_matches(nested, _CLASSES[kind])
    return all(_nested_snapshots_match(item) for item in value.values())


def register_dataclass(cls):
    """Allow instances of dataclass ``cls`` inside snapshot state.

    Encoding walks :func:`dataclasses.fields` with ``getattr`` (never
    ``asdict``, which would deep-copy and mangle nested Snapshotables);
    decoding calls ``cls(**fields)``.  Returns ``cls`` so it can be used as a
    decorator.
    """
    if not dataclasses.is_dataclass(cls) or not isinstance(cls, type):
        raise SnapshotError(f"{cls!r} is not a dataclass type")
    _DATACLASSES[cls.__name__] = cls
    return cls


# --------------------------------------------------------------------- codec
def _encode_float(value: float):
    if math.isfinite(value):
        return value
    if math.isnan(value):
        return {_F64: "nan"}
    return {_F64: "inf" if value > 0 else "-inf"}


def _encode_ndarray(value: np.ndarray) -> dict:
    if value.dtype == object:
        raise SnapshotError("object-dtype arrays are not snapshotable")
    contiguous = np.ascontiguousarray(value)
    return {
        _ND: {
            "dtype": value.dtype.str,
            "shape": list(value.shape),
            "data": base64.b64encode(contiguous.tobytes()).decode("ascii"),
        }
    }


def _decode_ndarray(payload: dict) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape(tuple(payload["shape"])).copy()


def _decode_generator(payload) -> np.random.Generator:
    state = decode_state(payload)
    bit_generator_cls = getattr(np.random, state["bit_generator"])
    generator = np.random.Generator(bit_generator_cls())
    generator.bit_generator.state = state
    return generator


def encode_state(value):
    """Recursively encode ``value`` into strict-JSON-safe structures."""
    if value is None:
        return None
    kind = type(value)
    if kind is bool or kind is int or kind is str:
        return value
    if kind is float:
        return _encode_float(value)
    if isinstance(value, np.ndarray):
        return _encode_ndarray(value)
    if isinstance(value, np.generic):
        # NumPy scalars collapse to their exact-value Python equivalents;
        # both are 64-bit doubles / arbitrary-precision ints, so arithmetic
        # on the restored value is bit-identical.
        return encode_state(value.item())
    if isinstance(value, np.random.Generator):
        return {_GEN: encode_state(value.bit_generator.state)}
    if isinstance(value, Snapshotable):
        return {_SNAP: value.snapshot()}
    if kind.__name__ in _DATACLASSES and _DATACLASSES[kind.__name__] is kind:
        fields = {
            field.name: encode_state(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        return {_DC: {"cls": kind.__name__, "fields": fields}}
    if isinstance(value, dict):
        keys_are_safe = all(type(key) is str for key in value) and not (
            len(value) == 1 and next(iter(value)) in _TAGS
        )
        if keys_are_safe:
            return {key: encode_state(item) for key, item in value.items()}
        return {
            _MAP: [
                [encode_state(key), encode_state(item)]
                for key, item in value.items()
            ]
        }
    if isinstance(value, list):
        return [encode_state(item) for item in value]
    if isinstance(value, tuple):
        return {_TUPLE: [encode_state(item) for item in value]}
    if isinstance(value, (set, frozenset)):
        return {_SET: [encode_state(item) for item in sorted(value)]}
    if isinstance(value, deque):
        return {
            _DEQUE: {
                "maxlen": value.maxlen,
                "items": [encode_state(item) for item in value],
            }
        }
    raise SnapshotError(f"cannot snapshot value of type {kind.__name__}")


def decode_state(value):
    """Inverse of :func:`encode_state`.

    Tagged nested :class:`Snapshotable` payloads decode to a fresh instance
    when the class is self-contained; otherwise the raw snapshot dict is
    returned so the owner can ``restore`` it into an existing instance.
    """
    if isinstance(value, dict):
        if len(value) == 1:
            (tag,) = value
            if tag in _TAGS:
                return _decode_tag(tag, value[tag])
        return {key: decode_state(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_state(item) for item in value]
    return value


def _decode_tag(tag: str, payload):
    if tag == _ND:
        return _decode_ndarray(payload)
    if tag == _F64:
        return {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}[payload]
    if tag == _GEN:
        return _decode_generator(payload)
    if tag == _TUPLE:
        return tuple(decode_state(item) for item in payload)
    if tag == _SET:
        return {decode_state(item) for item in payload}
    if tag == _DEQUE:
        return deque(
            (decode_state(item) for item in payload["items"]),
            maxlen=payload["maxlen"],
        )
    if tag == _MAP:
        return {
            decode_state(key): decode_state(item) for key, item in payload
        }
    if tag == _SNAP:
        cls = snapshotable_class(payload.get("kind"))
        if cls.SNAPSHOT_SELF_CONTAINED:
            return cls.from_snapshot(payload)
        return payload
    if tag == _DC:
        try:
            cls = _DATACLASSES[payload["cls"]]
        except KeyError:
            raise SnapshotError(
                f"unknown snapshot dataclass {payload['cls']!r}"
            ) from None
        return cls(
            **{
                name: decode_state(item)
                for name, item in payload["fields"].items()
            }
        )
    raise SnapshotError(f"unknown snapshot tag {tag!r}")


# ------------------------------------------------------------------ contract
class Snapshotable:
    """Mixin providing the versioned snapshot/restore contract.

    The default implementation snapshots every instance attribute (``__dict__``
    or ``__slots__`` across the MRO) except names listed in
    ``_SNAPSHOT_EXCLUDE`` — the right behaviour for almost every class in the
    stack, whose attributes are numbers, arrays, containers, and nested
    Snapshotables.  Classes holding un-encodable members (streams with
    factory callables) override :meth:`_snapshot_state` /
    :meth:`_restore_state` instead, and classes with derived scratch buffers
    rebuild them in :meth:`_after_restore`.
    """

    __slots__ = ()

    #: Bumped whenever a class's state layout changes; restore requires an
    #: exact match (no migrations).
    SNAPSHOT_VERSION = 1

    #: Whether ``from_snapshot`` can rebuild an instance from state alone.
    #: False for classes holding un-serialisable constructor inputs
    #: (streams and samplers hold concept factories) — those are
    #: restore-in-place only.
    SNAPSHOT_SELF_CONTAINED = True

    #: Attribute names skipped by the generic state walk (scratch buffers,
    #: caches rebuilt by ``_after_restore``).  Merged across the MRO.
    _SNAPSHOT_EXCLUDE: frozenset = frozenset()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        _CLASSES[cls.__name__] = cls

    # ------------------------------------------------------------- public API
    def snapshot(self) -> dict:
        """Full state as a strict-JSON-compatible dict."""
        return {
            "kind": type(self).__name__,
            "version": type(self).SNAPSHOT_VERSION,
            "state": encode_state(self._snapshot_state()),
        }

    def restore(self, snapshot: dict) -> None:
        """Load ``snapshot`` into this (identically configured) instance."""
        if not isinstance(snapshot, dict) or "state" not in snapshot:
            raise SnapshotError("malformed snapshot payload")
        kind = snapshot.get("kind")
        if kind != type(self).__name__:
            raise SnapshotError(
                f"snapshot kind {kind!r} does not match {type(self).__name__!r}"
            )
        version = snapshot.get("version")
        if version != type(self).SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot version {version!r} of {kind!r} does not match "
                f"expected {type(self).SNAPSHOT_VERSION!r}"
            )
        self._restore_state(decode_state(snapshot["state"]))
        self._after_restore()

    @classmethod
    def from_snapshot(cls, snapshot: dict):
        """Reconstruct an instance from ``snapshot`` alone."""
        target = snapshotable_class(snapshot.get("kind"))
        if cls is not Snapshotable and not issubclass(target, cls):
            raise SnapshotError(
                f"snapshot kind {snapshot.get('kind')!r} is not a {cls.__name__}"
            )
        if not target.SNAPSHOT_SELF_CONTAINED:
            raise SnapshotError(
                f"{target.__name__} snapshots are restore-in-place only"
            )
        instance = target.__new__(target)
        instance.restore(snapshot)
        return instance

    # ------------------------------------------------------ state walk hooks
    @classmethod
    def _snapshot_exclude(cls) -> frozenset:
        merged: set = set()
        for base in cls.__mro__:
            merged |= getattr(base, "_SNAPSHOT_EXCLUDE", frozenset())
        return frozenset(merged)

    def _state_attr_names(self) -> list:
        instance_dict = getattr(self, "__dict__", None)
        names = list(instance_dict) if instance_dict else []
        seen = set(names)
        for base in type(self).__mro__:
            for slot in getattr(base, "__slots__", ()):
                if slot in seen or slot in ("__dict__", "__weakref__"):
                    continue
                seen.add(slot)
                if hasattr(self, slot):
                    names.append(slot)
        return names

    def _snapshot_state(self) -> dict:
        exclude = self._snapshot_exclude()
        return {
            name: getattr(self, name)
            for name in self._state_attr_names()
            if name not in exclude
        }

    def _restore_state(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def _after_restore(self) -> None:
        """Rebuild excluded scratch state after a restore (hook)."""
