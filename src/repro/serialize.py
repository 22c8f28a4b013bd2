"""Sketch serialization: ``state_dict`` snapshots and a binary wire format.

Every sketch in the library is mergeable-or-transportable state plus
construction-time parameters, which is exactly what distributed F0
estimation needs: a worker ingests its shard, ships the sketch to a
coordinator, and the coordinator revives it and merge-reduces.  This
module provides that transport for *every* estimator (and their internal
components — hash families, bit structures) without ``pickle``:

* :func:`snapshot` — capture an object's complete state as a plain tree
  of Python values (``state_dict()`` on the estimator base classes).
  Nested library objects become explicit ``{"__object__": ...}`` nodes;
  *shared* sub-objects (e.g. the ``F0HashBundle`` shared between the
  small-F0 and Figure 3 regimes) are captured once and referenced
  thereafter, so reviving a snapshot restores the exact aliasing
  structure — a requirement for bit-identical *continued* ingestion,
  not just for frozen state.
* :func:`restore` — load a snapshot back into an existing instance
  (``load_state_dict()``), torch-style: construct the estimator with the
  same parameters, then restore.
* :func:`dumps` / :func:`loads` — frame a snapshot as bytes
  (``to_bytes()`` / ``from_bytes()``): a magic header, a format version,
  and a compact tag-length-value encoding of the tree.  Unlike
  ``pickle``, decoding only ever instantiates classes from inside the
  ``repro`` package, so a payload cannot name arbitrary importable
  callables.

The supported value set is deliberately closed: ``None``, ``bool``,
``int`` (arbitrary precision — the bit-packed counter buffers are
multi-thousand-bit Python integers), ``float`` (bit-exact via IEEE-754
encoding), ``str``, ``bytes``, ``bytearray``, ``list``, ``tuple``,
``dict``, ``set``/``frozenset``, NumPy arrays and scalars, and objects
of classes defined inside ``repro``.
Anything else raises :class:`~repro.exceptions.SerializationError` at
*encode* time, so a sketch that grows unsupported state fails loudly in
its own round-trip test rather than corrupting a worker transport.
"""

from __future__ import annotations

import importlib
import struct
from typing import Any, Dict, List, Optional, Tuple

from .exceptions import SerializationError
from .vectorize import HAS_NUMPY, np

__all__ = [
    "snapshot",
    "restore",
    "dumps",
    "loads",
    "dumps_tree",
    "loads_tree",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
]

#: Frame header of the byte format produced by :func:`dumps`.
FORMAT_MAGIC = b"RPRS"

#: Version byte following the magic; bumped on incompatible changes.
FORMAT_VERSION = 1

#: Only classes whose defining module lives under this package may be
#: revived by decoding.
_TRUSTED_PACKAGE = __name__.split(".")[0]


# ---------------------------------------------------------------------------
# Snapshot: object graph -> plain tree
# ---------------------------------------------------------------------------


def _is_library_object(value: Any) -> bool:
    module = type(value).__module__ or ""
    return module == _TRUSTED_PACKAGE or module.startswith(_TRUSTED_PACKAGE + ".")


def _instance_fields(value: Any) -> List[Tuple[str, Any]]:
    """Return the set attributes of ``value`` (``__dict__`` and ``__slots__``)."""
    fields: List[Tuple[str, Any]] = []
    if hasattr(value, "__dict__"):
        fields.extend(value.__dict__.items())
    for klass in type(value).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                fields.append((slot, getattr(value, slot)))
            except AttributeError:
                continue  # slot declared but never assigned
    return fields


class _Snapshotter:
    """One snapshot pass: assigns node ids so shared objects encode once."""

    def __init__(self) -> None:
        self._memo: Dict[int, int] = {}
        self._keepalive: List[Any] = []  # ids stay unique while we run
        self._next_id = 0

    def _remember(self, value: Any) -> int:
        node_id = self._next_id
        self._next_id += 1
        self._memo[id(value)] = node_id
        self._keepalive.append(value)
        return node_id

    def encode(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, int, float, str, bytes)):
            return value
        if isinstance(value, bytearray):
            return {"__bytearray__": bytes(value)}
        if isinstance(value, list):
            return [self.encode(entry) for entry in value]
        if isinstance(value, tuple):
            return {"__tuple__": [self.encode(entry) for entry in value]}
        if isinstance(value, dict):
            items = list(value.items())
            # Canonical key order: two dicts holding equal entries must
            # snapshot identically even when their *insertion* orders
            # differ (e.g. a sample dict built shard-by-shard-then-merged
            # versus sequentially) — no sketch's behaviour depends on
            # dict iteration order, so insertion order is not state.
            if all(isinstance(key, (int, float, str, bytes, bool)) for key, _ in items):
                items.sort(key=lambda pair: (type(pair[0]).__name__, pair[0]))
            return {
                "__map__": [
                    [self.encode(key), self.encode(entry)] for key, entry in items
                ]
            }
        if isinstance(value, (set, frozenset)):
            try:
                ordered = sorted(value)
            except TypeError:
                ordered = list(value)
            marker = "__frozenset__" if isinstance(value, frozenset) else "__set__"
            return {marker: [self.encode(entry) for entry in ordered]}
        if HAS_NUMPY and isinstance(value, np.ndarray):
            if value.dtype == object:
                return {
                    "__ndarray__": {
                        "dtype": "object",
                        "shape": list(value.shape),
                        "items": [self.encode(entry) for entry in value.ravel().tolist()],
                    }
                }
            return {
                "__ndarray__": {
                    "dtype": value.dtype.str,
                    "shape": list(value.shape),
                    "data": np.ascontiguousarray(value).tobytes(),
                }
            }
        if HAS_NUMPY and isinstance(value, np.generic):
            return {"__npscalar__": value.dtype.str, "data": value.tobytes()}
        if _is_library_object(value):
            known = self._memo.get(id(value))
            if known is not None:
                return {"__ref__": known}
            node_id = self._remember(value)
            klass = type(value)
            state = {name: self.encode(entry) for name, entry in _instance_fields(value)}
            return {
                "__object__": "%s:%s" % (klass.__module__, klass.__qualname__),
                "__id__": node_id,
                "__state__": state,
            }
        raise SerializationError(
            "cannot serialize a value of type %r (module %r); sketch state "
            "must stay within the supported type set"
            % (type(value).__name__, type(value).__module__)
        )


def snapshot(value: Any) -> Dict[str, Any]:
    """Return a ``state_dict`` tree capturing ``value``'s complete state.

    The result contains only plain Python values (plus ``bytes`` for raw
    buffers) and is safe to hold, compare, or encode with :func:`dumps`.
    Two sketches with equal snapshots are in bit-identical state.
    """
    tree = _Snapshotter().encode(value)
    if not (isinstance(tree, dict) and "__object__" in tree):
        raise SerializationError(
            "snapshot() expects a library object, got %r" % type(value).__name__
        )
    return tree


# ---------------------------------------------------------------------------
# Rebuild: plain tree -> object graph
# ---------------------------------------------------------------------------


def _resolve_class(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    if not (
        module_name == _TRUSTED_PACKAGE
        or module_name.startswith(_TRUSTED_PACKAGE + ".")
    ):
        raise SerializationError(
            "refusing to revive class %r from outside the %r package"
            % (path, _TRUSTED_PACKAGE)
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise SerializationError("cannot import module %r" % module_name) from error
    target: Any = module
    for piece in qualname.split("."):
        target = getattr(target, piece, None)
        if target is None:
            raise SerializationError("class %r not found" % path)
    if not isinstance(target, type):
        raise SerializationError("%r does not name a class" % path)
    return target


# A damaged payload must surface as SerializationError, never as whatever
# low-level exception the damage happens to trip first.  The decode entry
# points funnel through this guard; SerializationError itself passes
# through untouched (it is a ValueError subclass, so it must be re-raised
# before the blanket ValueError arm).
_DECODE_ERRORS = (
    KeyError,
    IndexError,
    TypeError,
    ValueError,
    AttributeError,
    OverflowError,
    MemoryError,
    struct.error,
)


def _guarded(fn, *args):
    try:
        return fn(*args)
    except SerializationError:
        raise
    except _DECODE_ERRORS as error:
        raise SerializationError(
            "malformed payload: %s: %s" % (type(error).__name__, error)
        ) from error


class _Rebuilder:
    """One rebuild pass; mirrors the memo discipline of :class:`_Snapshotter`."""

    def __init__(self) -> None:
        self._memo: Dict[int, Any] = {}

    def decode(self, node: Any) -> Any:
        if node is None or isinstance(node, (bool, int, float, str, bytes)):
            return node
        if isinstance(node, list):
            return [self.decode(entry) for entry in node]
        if isinstance(node, dict):
            if "__tuple__" in node:
                return tuple(self.decode(entry) for entry in node["__tuple__"])
            if "__map__" in node:
                entries = node["__map__"]
                if not isinstance(entries, list) or any(
                    not isinstance(pair, (list, tuple)) or len(pair) != 2
                    for pair in entries
                ):
                    raise SerializationError("malformed __map__ node")
                return {
                    self.decode(key): self.decode(entry) for key, entry in entries
                }
            if "__set__" in node:
                return {self.decode(entry) for entry in node["__set__"]}
            if "__frozenset__" in node:
                return frozenset(self.decode(entry) for entry in node["__frozenset__"])
            if "__bytearray__" in node:
                return bytearray(node["__bytearray__"])
            if "__ndarray__" in node:
                spec = node["__ndarray__"]
                if not isinstance(spec, dict) or "dtype" not in spec or "shape" not in spec:
                    raise SerializationError("malformed __ndarray__ node")
                if spec["dtype"] == "object":
                    if "items" not in spec or not isinstance(spec["items"], list):
                        raise SerializationError("malformed object-dtype __ndarray__ node")
                    array = np.empty(len(spec["items"]), dtype=object)
                    for index, entry in enumerate(spec["items"]):
                        array[index] = self.decode(entry)
                    return array.reshape(spec["shape"])
                if "data" not in spec or not isinstance(spec["data"], bytes):
                    raise SerializationError("__ndarray__ node is missing its buffer")
                return np.frombuffer(
                    spec["data"], dtype=np.dtype(spec["dtype"])
                ).reshape(spec["shape"]).copy()
            if "__npscalar__" in node:
                return np.frombuffer(
                    node["data"], dtype=np.dtype(node["__npscalar__"])
                )[0]
            if "__ref__" in node:
                try:
                    return self._memo[node["__ref__"]]
                except KeyError:
                    raise SerializationError(
                        "dangling shared-object reference %r" % node["__ref__"]
                    ) from None
            if "__object__" in node:
                if not isinstance(node.get("__object__"), str):
                    raise SerializationError("malformed __object__ node")
                if "__id__" not in node or not isinstance(node.get("__state__"), dict):
                    raise SerializationError("object node is missing __id__/__state__")
                klass = _resolve_class(node["__object__"])
                instance = klass.__new__(klass)
                self._memo[node["__id__"]] = instance
                self._apply_state(instance, node["__state__"])
                return instance
            raise SerializationError("unrecognised snapshot node %r" % sorted(node))
        raise SerializationError("unrecognised snapshot value %r" % type(node).__name__)

    def _apply_state(self, instance: Any, state: Dict[str, Any]) -> None:
        for name, entry in state.items():
            value = self.decode(entry)
            try:
                object.__setattr__(instance, name, value)
            except AttributeError:
                # A slotted class cannot hold a field it does not declare
                # (e.g. a payload written by an older layout of the class).
                raise SerializationError(
                    "payload field %r is not a field of %s"
                    % (name, type(instance).__qualname__)
                ) from None

    def rebuild_into(self, instance: Any, node: Dict[str, Any]) -> None:
        """Restore a top-level object node into an existing instance."""
        recorded = node.get("__object__")
        klass = type(instance)
        expected = "%s:%s" % (klass.__module__, klass.__qualname__)
        if recorded != expected:
            raise SerializationError(
                "state_dict was captured from %r, cannot load into %r"
                % (recorded, expected)
            )
        self._memo[node["__id__"]] = instance
        # Drop attributes not present in the snapshot (e.g. lazy caches),
        # so the restored instance is field-for-field the captured one.
        if hasattr(instance, "__dict__"):
            for stale in [
                key for key in instance.__dict__ if key not in node["__state__"]
            ]:
                del instance.__dict__[stale]
        self._apply_state(instance, node["__state__"])


def restore(instance: Any, state: Dict[str, Any]) -> None:
    """Load a :func:`snapshot` tree back into ``instance`` (in place).

    ``instance`` must be of the exact class the snapshot was captured
    from (construct it with any valid parameters first); all captured
    fields — including nested components and shared sub-objects — are
    rebuilt and assigned.
    """
    if not (isinstance(state, dict) and "__object__" in state):
        raise SerializationError("restore() expects a snapshot produced by snapshot()")
    _guarded(_Rebuilder().rebuild_into, instance, state)


def revive(state: Dict[str, Any]) -> Any:
    """Construct a fresh object from a :func:`snapshot` tree."""
    if not (isinstance(state, dict) and "__object__" in state):
        raise SerializationError("revive() expects a snapshot produced by snapshot()")
    return _guarded(_Rebuilder().decode, state)


# ---------------------------------------------------------------------------
# Binary codec: plain tree <-> bytes
# ---------------------------------------------------------------------------

_TAG_NONE = 0x00
_TAG_TRUE = 0x01
_TAG_FALSE = 0x02
_TAG_INT = 0x03
_TAG_FLOAT = 0x04
_TAG_STR = 0x05
_TAG_BYTES = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SerializationError("varint fields are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _encode_tree(out: bytearray, node: Any) -> None:
    if node is None:
        out.append(_TAG_NONE)
    elif node is True:
        out.append(_TAG_TRUE)
    elif node is False:
        out.append(_TAG_FALSE)
    elif isinstance(node, int):
        out.append(_TAG_INT)
        length = (node.bit_length() + 8) // 8 or 1
        raw = node.to_bytes(length, "little", signed=True)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(node, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack("<d", node))
    elif isinstance(node, str):
        raw = node.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(node, bytes):
        out.append(_TAG_BYTES)
        _write_varint(out, len(node))
        out.extend(node)
    elif isinstance(node, list):
        out.append(_TAG_LIST)
        _write_varint(out, len(node))
        for entry in node:
            _encode_tree(out, entry)
    elif isinstance(node, dict):
        out.append(_TAG_DICT)
        _write_varint(out, len(node))
        # Order-safe: _encode_tree only ever sees snapshotter output, where
        # plain dicts have already been canonicalized into sorted __map__
        # marker nodes; the dicts reaching here are single-marker wrappers
        # and __state__ dicts built in deterministic construction order.
        for key, entry in node.items():  # lint: allow[det-serialize-dict-order] input is canonical snapshotter output
            if not isinstance(key, str):
                raise SerializationError("snapshot tree keys must be strings")
            _encode_tree(out, key)
            _encode_tree(out, entry)
    else:
        raise SerializationError(
            "snapshot tree contains an unencodable %r" % type(node).__name__
        )


class _Reader:
    def __init__(self, data: bytes, offset: int) -> None:
        self._data = data
        self._offset = offset

    def _take(self, count: int) -> bytes:
        end = self._offset + count
        if end > len(self._data):
            raise SerializationError("truncated payload")
        piece = self._data[self._offset : end]
        self._offset = end
        return piece

    def read_varint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self._take(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 70:
                raise SerializationError("varint overflow in payload")

    def read_tree(self) -> Any:
        tag = self._take(1)[0]
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_INT:
            return int.from_bytes(self._take(self.read_varint()), "little", signed=True)
        if tag == _TAG_FLOAT:
            return struct.unpack("<d", self._take(8))[0]
        if tag == _TAG_STR:
            try:
                return self._take(self.read_varint()).decode("utf-8")
            except UnicodeDecodeError as error:
                raise SerializationError("malformed utf-8 string in payload") from error
        if tag == _TAG_BYTES:
            return bytes(self._take(self.read_varint()))
        if tag == _TAG_LIST:
            return [self.read_tree() for _ in range(self._read_count())]
        if tag == _TAG_DICT:
            result: Dict[str, Any] = {}
            for _ in range(self._read_count()):
                key = self.read_tree()
                if not isinstance(key, str):
                    raise SerializationError("snapshot tree keys must be strings")
                result[key] = self.read_tree()
            return result
        raise SerializationError("unknown tag 0x%02x in payload" % tag)

    def _read_count(self) -> int:
        """Read an element count, bounded by the bytes actually left.

        Every encoded element occupies at least one byte, so a count
        exceeding the remaining payload proves corruption immediately —
        without first looping until a truncation error fires.
        """
        count = self.read_varint()
        if count > len(self._data) - self._offset:
            raise SerializationError("element count exceeds remaining payload")
        return count

    def finished(self) -> bool:
        return self._offset == len(self._data)


def dumps(value: Any, state: Optional[Dict[str, Any]] = None) -> bytes:
    """Serialize a library object (or a pre-taken snapshot) to framed bytes."""
    tree = state if state is not None else snapshot(value)
    out = bytearray()
    out.extend(FORMAT_MAGIC)
    out.append(FORMAT_VERSION)
    _encode_tree(out, tree)
    return bytes(out)


def dumps_tree(value: Any) -> bytes:
    """Serialize any supported value tree to framed canonical bytes.

    Unlike :func:`dumps`, the input need not be a library object: plain
    dicts, lists, scalars, and NumPy arrays are accepted directly, with
    the same canonicalisation rules (sorted dict keys, contiguous array
    buffers) the object path uses.  Two structurally equal trees encode
    to byte-identical payloads, which is what fingerprint-style callers
    (e.g. :func:`repro.streams.workloads.workload_fingerprint`) rely on.
    """
    tree = _Snapshotter().encode(value)
    out = bytearray()
    out.extend(FORMAT_MAGIC)
    out.append(FORMAT_VERSION)
    _encode_tree(out, tree)
    return bytes(out)


def decode_frame(data: bytes, require_object: bool = True) -> Any:
    """Validate the framing of ``data`` and return the snapshot tree."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SerializationError("from_bytes expects a bytes-like payload")
    data = bytes(data)
    if len(data) < len(FORMAT_MAGIC) + 1 or data[: len(FORMAT_MAGIC)] != FORMAT_MAGIC:
        raise SerializationError("payload does not start with the %r frame" % FORMAT_MAGIC)
    version = data[len(FORMAT_MAGIC)]
    if version != FORMAT_VERSION:
        raise SerializationError(
            "unsupported serialization format version %d (expected %d)"
            % (version, FORMAT_VERSION)
        )
    reader = _Reader(data, len(FORMAT_MAGIC) + 1)
    tree = _guarded(reader.read_tree)
    if not reader.finished():
        raise SerializationError("trailing bytes after payload")
    if require_object and not (isinstance(tree, dict) and "__object__" in tree):
        raise SerializationError("payload does not contain an object snapshot")
    return tree


def loads(data: bytes) -> Any:
    """Revive the object serialized by :func:`dumps`."""
    return revive(decode_frame(data))


def loads_tree(data: bytes) -> Any:
    """Decode a value tree serialized by :func:`dumps_tree`.

    The inverse of :func:`dumps_tree`: the top-level value may be any
    supported tree (dict, list, scalar, NumPy array), not necessarily a
    library-object snapshot.  Library objects nested inside the tree are
    revived exactly as :func:`loads` would revive them.
    """
    tree = decode_frame(data, require_object=False)
    return _guarded(_Rebuilder().decode, tree)
