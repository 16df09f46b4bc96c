"""Columnar artifact codec: named numpy columns <-> packed bytes / files.

The columnar refactor (DESIGN.md §16) stores hot artifacts as parallel
arrays instead of per-record object graphs.  This module is the codec
those artifacts share: a deterministic binary container holding named,
dtype-tagged columns plus a JSON metadata block, with three access
paths of increasing laziness::

    blob  = pack(schema, meta, columns)        # bytes (for pickling/IPC)
    obj   = unpack(blob)                       # zero-copy views into blob
    obj   = load(path, use_mmap=True)          # columns are mmap views

Layout (all little-endian, offsets relative to file start)::

    magic "RCOL" | u16 format version | u16 reserved | u64 header length
    header JSON (schema, meta, column table with dtype/shape/offset)
    zero padding to a 64-byte boundary
    column payloads, each padded to a 64-byte boundary

The format is consumed by later runs of *different* processes (cache
artifacts on disk), so it is a wire contract (RPR010): bump
:data:`FORMAT_VERSION` on any layout change — readers reject versions
they do not know rather than misparse them.

Object round-tripping goes through a registry keyed by schema name:
classes declare ``__columnar__`` plus ``to_columns()`` /
``from_columns()`` and call :func:`register`.  Loading never imports
arbitrary classes — only registered schemas resolve.

numpy is a dependency of the package, not an optional accelerator.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

#: Always true: numpy is a declared dependency.  Nothing in ``src`` reads
#: it; it stays only for the benchmark harness, which still imports it.
HAVE_NUMPY = True

MAGIC = b"RCOL"

#: Container layout version; readers reject anything newer or older.
FORMAT_VERSION = 1

#: Column payloads start and stay aligned to this many bytes, so mmap'd
#: views are safely aligned for every dtype we allow.
ALIGNMENT = 64

#: Dtype kinds a column may use: signed/unsigned ints, floats, bools.
#: (No object/str columns — those would smuggle pickle back in.)
ALLOWED_KINDS = frozenset("iufb")

__wire_contract__ = {"colpack-format": ("MAGIC", "FORMAT_VERSION",
                                        "ALIGNMENT", "ALLOWED_KINDS")}


class ColpackError(ValueError):
    """A blob or file that is not a valid colpack container."""


def _pad(length: int) -> int:
    """Bytes needed to advance ``length`` to the next aligned boundary."""
    return (ALIGNMENT - length % ALIGNMENT) % ALIGNMENT


@dataclass
class Columnar:
    """One decoded container: schema tag, JSON-safe meta, named columns."""

    schema: str
    meta: dict
    columns: dict[str, np.ndarray]

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise ColpackError("container %r has no column %r (have: %s)"
                               % (self.schema, name,
                                  ", ".join(sorted(self.columns)))) from None


def _check_column(name: str, array: np.ndarray) -> None:
    if not isinstance(array, np.ndarray):
        raise ColpackError("column %r is not an ndarray" % (name,))
    if array.dtype.kind not in ALLOWED_KINDS:
        raise ColpackError("column %r dtype %s not allowed (kinds: %s)"
                           % (name, array.dtype, "".join(sorted(ALLOWED_KINDS))))
    if array.dtype.byteorder not in ("<", "=", "|"):
        raise ColpackError("column %r must be little/native endian" % (name,))


def pack(schema: str, meta: Mapping, columns: Mapping[str, np.ndarray]
         ) -> bytes:
    """Encode columns into one deterministic byte blob.

    Columns are laid out in sorted-name order and the header JSON uses
    sorted keys, so identical inputs produce identical bytes regardless
    of the order the caller assembled its dict in (RPR009).
    """
    names = sorted(columns)
    payloads: list[bytes] = []
    table: list[dict] = []
    offset = 0  # relative to the payload region
    for name in names:
        array = np.ascontiguousarray(columns[name])
        _check_column(name, array)
        blob = array.astype(array.dtype.newbyteorder("<"),
                            copy=False).tobytes()
        table.append({"name": name,
                      "dtype": array.dtype.newbyteorder("<").str,
                      "shape": list(array.shape),
                      "offset": offset,
                      "nbytes": len(blob)})
        payloads.append(blob)
        offset += len(blob) + _pad(len(blob))
    header = json.dumps({"schema": schema, "meta": dict(meta),
                         "columns": table},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    prefix_len = len(MAGIC) + 2 + 2 + 8
    payload_base = prefix_len + len(header)
    payload_base += _pad(payload_base)
    parts = [MAGIC,
             FORMAT_VERSION.to_bytes(2, "little"),
             b"\x00\x00",
             len(header).to_bytes(8, "little"),
             header,
             b"\x00" * _pad(prefix_len + len(header))]
    for blob in payloads:
        parts.append(blob)
        parts.append(b"\x00" * _pad(len(blob)))
    return b"".join(parts)


def unpack(buf) -> Columnar:
    """Decode a blob produced by :func:`pack`.

    ``buf`` may be ``bytes`` or any buffer (an ``mmap.mmap`` included);
    column arrays are zero-copy views into it — the caller keeps the
    buffer alive as long as the arrays are used (numpy holds a reference
    via ``.base``, so ordinary usage is safe).
    """
    view = memoryview(buf)
    if len(view) < 16 or bytes(view[:4]) != MAGIC:
        raise ColpackError("not a colpack container (bad magic)")
    version = int.from_bytes(view[4:6], "little")
    if version != FORMAT_VERSION:
        raise ColpackError("colpack format version %d not supported "
                           "(expected %d)" % (version, FORMAT_VERSION))
    header_len = int.from_bytes(view[8:16], "little")
    prefix_len = 16
    if prefix_len + header_len > len(view):
        raise ColpackError("truncated colpack header")
    try:
        header = json.loads(bytes(view[prefix_len:prefix_len + header_len]))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ColpackError("corrupt colpack header: %s" % (error,)) from None
    payload_base = prefix_len + header_len
    payload_base += _pad(payload_base)
    columns: dict = {}
    for spec in header["columns"]:
        dtype = np.dtype(spec["dtype"])
        if dtype.kind not in ALLOWED_KINDS:
            raise ColpackError("column %r dtype %s not allowed"
                               % (spec["name"], dtype))
        start = payload_base + spec["offset"]
        end = start + spec["nbytes"]
        if end > len(view):
            raise ColpackError("truncated column %r" % (spec["name"],))
        array = np.frombuffer(view[start:end], dtype=dtype)
        columns[spec["name"]] = array.reshape(spec["shape"])
    return Columnar(schema=header["schema"], meta=header["meta"],
                    columns=columns)


def write(path: str | Path, schema: str, meta: Mapping,
          columns: Mapping[str, np.ndarray]) -> int:
    """Atomically write a container file; returns bytes written."""
    blob = pack(schema, meta, columns)
    path = Path(path)
    tmp = path.with_suffix(".tmp.%d" % os.getpid())
    tmp.write_bytes(blob)
    os.replace(tmp, path)
    return len(blob)


def load(path: str | Path, use_mmap: bool = True) -> Columnar:
    """Read a container file, memory-mapping the columns by default.

    With ``use_mmap`` the file's pages are faulted in lazily as columns
    are touched — a warm-cache run that only consults a few columns
    never reads the rest.  The map is closed by the garbage collector
    once no column view references it.
    """
    if not use_mmap:
        return unpack(Path(path).read_bytes())
    with open(path, "rb") as stream:
        try:
            mapped = _mmap.mmap(stream.fileno(), 0, access=_mmap.ACCESS_READ)
        except ValueError:  # zero-length file: nothing to map
            raise ColpackError("empty colpack file %s" % (path,)) from None
    return unpack(mapped)


# -- object registry ---------------------------------------------------------

_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    """Register a columnar-capable class under its ``__columnar__`` tag.

    The class must define ``__columnar__`` (schema name), an instance
    method ``to_columns() -> (meta, columns)`` and a classmethod
    ``from_columns(meta, columns)``.  Usable as a decorator.
    """
    schema = getattr(cls, "__columnar__", None)
    if not schema:
        raise ValueError("%r has no __columnar__ schema tag" % (cls,))
    existing = _REGISTRY.get(schema)
    if existing is not None and existing is not cls:
        raise ValueError("schema %r already registered to %r"
                         % (schema, existing))
    _REGISTRY[schema] = cls
    return cls


def schema_of(value: object) -> str | None:
    """The registered schema tag of ``value``, or None."""
    schema = getattr(type(value), "__columnar__", None)
    if schema is not None and _REGISTRY.get(schema) is type(value):
        return schema
    return None


def pack_object(value: object) -> bytes:
    """Pack a registered columnar-capable object."""
    schema = schema_of(value)
    if schema is None:
        raise ColpackError("%r is not a registered columnar class"
                           % (type(value),))
    meta, columns = value.to_columns()
    return pack(schema, meta, columns)


def _resolve(container: Columnar) -> object:
    cls = _REGISTRY.get(container.schema)
    if cls is None:
        raise ColpackError("no columnar class registered for schema %r"
                           % (container.schema,))
    return cls.from_columns(container.meta, container.columns)


def unpack_object(buf) -> object:
    """Decode a blob back into its registered class instance."""
    return _resolve(unpack(buf))


def write_object(path: str | Path, value: object) -> int:
    """Atomically write a registered object as a container file."""
    schema = schema_of(value)
    if schema is None:
        raise ColpackError("%r is not a registered columnar class"
                           % (type(value),))
    meta, columns = value.to_columns()
    return write(path, schema, meta, columns)


def load_object(path: str | Path, use_mmap: bool = True) -> object:
    """Load a container file back into its registered class instance."""
    return _resolve(load(path, use_mmap=use_mmap))
