"""Memory-mappable payload segments: the schema-4 store layout's codec.

A schema-4 store keeps entry payloads as **raw little-endian arrays**
concatenated into per-segment ``.bin`` files, with each array's offset,
dtype, and shape recorded in the segment manifest.  Hydrating a cold
entry is then O(1): ``np.memmap`` the segment once and hand out
zero-copy views — no decompression, no per-entry file open, and N
serving processes mapping the same segment share one OS page cache.
The legacy npz layout it replaced (compressed per-entry archives) pays
a full deflate round-trip per cold entry and duplicates the
decompressed arrays in every process.

This module is the layer *below* :mod:`repro.serve.persistence` and
knows nothing about manifests, stores, or schema versions.  It provides:

* :func:`flatten_payload` / :func:`restore_payload` — split a universal
  ``to_dict`` payload into a JSON skeleton plus exact numeric arrays
  (and back).  The split is byte-identical to the one in the legacy npz
  stores, so the two layouts round-trip the same synopsis bitwise.
* :class:`SegmentWriter` — append payloads' arrays to one segment data
  file (16-byte aligned, little-endian), returning the offset table to
  record in the segment manifest.
* :class:`SegmentReader` — lazily memory-map a segment data file and
  resolve offset specs back to ndarray views.

A segment data file starts with a 48-byte header — an 8-byte magic tag
plus the 32-hex-char ``store_uid`` of the save that wrote it — so a
reader whose directory was replaced by a later save fails loudly
instead of serving views of foreign bytes under stale offsets.

Errors raise :class:`SegmentFormatError` (a ``ValueError``); the
persistence layer wraps them into ``StoreCorruptionError``.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, BinaryIO, Dict, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ALIGNMENT",
    "HEADER_SIZE",
    "SEGMENT_MAGIC",
    "SegmentFormatError",
    "SegmentReader",
    "SegmentWriter",
    "flatten_payload",
    "read_segment_header",
    "restore_payload",
]

#: Magic tag opening every segment data file.
SEGMENT_MAGIC = b"RPROSEG1"
#: Fixed header: 8-byte magic + 32-hex-char store uid + 8 reserved bytes.
HEADER_SIZE = 48
#: Array starts are padded to this boundary so every dtype maps aligned.
ALIGNMENT = 16

_UID_LENGTH = 32


class SegmentFormatError(ValueError):
    """A segment data file or array spec is malformed or inconsistent."""


# --------------------------------------------------------------------- #
# Payload <-> (skeleton, arrays): the universal numeric split
# --------------------------------------------------------------------- #


def _is_numeric_list(obj: Any) -> bool:
    return (
        isinstance(obj, list)
        and bool(obj)
        and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
        )
    )


def flatten_payload(payload: Dict[str, Any]) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Split a ``to_dict`` payload into a JSON skeleton and numeric arrays.

    Numeric lists (the ``O(k)``-sized parts) become float64/int64 arrays
    referenced from the skeleton by key path; everything else stays in
    the skeleton.  Generic over payload shape, so codecs registered
    after this module shipped persist without changes here.
    """
    arrays: Dict[str, np.ndarray] = {}

    def walk(obj: Any, path: str) -> Any:
        if isinstance(obj, dict):
            return {key: walk(val, f"{path}.{key}") for key, val in obj.items()}
        if _is_numeric_list(obj):
            arrays[path] = np.asarray(obj)
            return {"__array__": path}
        if isinstance(obj, list):
            return [walk(val, f"{path}.{i}") for i, val in enumerate(obj)]
        return obj

    return walk(payload, "payload"), arrays


def restore_payload(skeleton: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Inverse of :func:`flatten_payload`.

    Array references resolve to the ndarrays themselves (not lists):
    every ``from_dict`` consumer runs its fields through ``np.asarray``
    anyway, so boxing into Python objects would only double the
    hydration cost.
    """

    def walk(obj: Any) -> Any:
        if isinstance(obj, dict):
            if set(obj) == {"__array__"}:
                return arrays[obj["__array__"]]
            return {key: walk(val) for key, val in obj.items()}
        if isinstance(obj, list):
            return [walk(val) for val in obj]
        return obj

    return walk(skeleton)


# --------------------------------------------------------------------- #
# Raw array spec helpers
# --------------------------------------------------------------------- #


def _as_little_endian(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise SegmentFormatError(
            f"cannot store object-dtype array ({array.dtype})"
        )
    if array.dtype.itemsize == 0:
        raise SegmentFormatError(f"cannot store zero-itemsize dtype {array.dtype}")
    return array.astype(array.dtype.newbyteorder("<"), copy=False)


def _parse_spec(spec: Any) -> Tuple[int, np.dtype, Tuple[int, ...]]:
    if not isinstance(spec, dict):
        raise SegmentFormatError(f"array spec must be a mapping, got {spec!r}")
    try:
        offset = int(spec["offset"])
        dtype = np.dtype(str(spec["dtype"]))
        shape = tuple(int(d) for d in spec["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SegmentFormatError(f"invalid array spec {spec!r}: {exc}") from exc
    if dtype.hasobject or dtype.itemsize == 0:
        raise SegmentFormatError(f"invalid array dtype {spec.get('dtype')!r}")
    if offset < HEADER_SIZE:
        raise SegmentFormatError(
            f"array offset {offset} overlaps the segment header"
        )
    if any(d < 0 for d in shape):
        raise SegmentFormatError(f"invalid array shape {spec.get('shape')!r}")
    return offset, dtype, shape


def _make_header(store_uid: str) -> bytes:
    uid = str(store_uid).encode("ascii")
    if len(uid) != _UID_LENGTH:
        raise SegmentFormatError(
            f"store uid must be {_UID_LENGTH} ascii chars, got {store_uid!r}"
        )
    header = SEGMENT_MAGIC + uid
    return header + b"\0" * (HEADER_SIZE - len(header))


def _check_header(raw: bytes, path: Path, store_uid: Optional[str]) -> None:
    if len(raw) < HEADER_SIZE or raw[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
        raise SegmentFormatError(
            f"{path.name!r} is not a segment data file (bad magic)"
        )
    uid = raw[len(SEGMENT_MAGIC) : len(SEGMENT_MAGIC) + _UID_LENGTH]
    if store_uid is not None and uid != str(store_uid).encode("ascii"):
        raise SegmentFormatError(
            f"segment data file {path.name!r} belongs to a different "
            f"save of this store (the directory was replaced after load); "
            f"reload the store"
        )


def read_segment_header(
    path: Union[str, Path], store_uid: Optional[str] = None
) -> None:
    """Validate a segment file's magic + uid without mapping it.

    The persistence layer's up-front integrity pass uses this so a
    garbage or foreign ``.bin`` fails at load time, not mid-query.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            raw = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise SegmentFormatError(
            f"unreadable segment data file {path.name!r}: {exc}"
        ) from exc
    _check_header(raw, path, store_uid)


# --------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------- #


class SegmentWriter:
    """Append payload arrays to one segment data file.

    ``add(payload)`` flattens the payload, writes each numeric array as
    raw little-endian bytes at a 16-byte-aligned offset, and returns the
    payload spec to record in the segment manifest::

        {"skeleton": <JSON skeleton>,
         "arrays": {"payload.synopsis.lefts":
                        {"offset": 48, "dtype": "<i8", "shape": [5]}, ...}}

    The writer is a context manager; the file is complete once ``close``
    (or the ``with`` block) returns.
    """

    def __init__(self, path: Union[str, Path], store_uid: str) -> None:
        self.path = Path(path)
        self._handle: Optional[BinaryIO] = open(self.path, "wb")
        self._handle.write(_make_header(store_uid))
        self._offset = HEADER_SIZE

    @property
    def bytes_written(self) -> int:
        """Total file size so far (header + padding + array bytes)."""
        return self._offset

    def add(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Write one payload's arrays; return its manifest spec."""
        skeleton, arrays = flatten_payload(payload)
        specs = {
            key: self._write_array(array) for key, array in arrays.items()
        }
        return {"skeleton": skeleton, "arrays": specs}

    def _write_array(self, array: np.ndarray) -> Dict[str, Any]:
        if self._handle is None:
            raise SegmentFormatError("segment writer is closed")
        array = _as_little_endian(array)
        padding = (-self._offset) % ALIGNMENT
        if padding:
            self._handle.write(b"\0" * padding)
            self._offset += padding
        spec = {
            "offset": self._offset,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
        }
        data = array.tobytes()
        self._handle.write(data)
        self._offset += len(data)
        return spec

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Reader
# --------------------------------------------------------------------- #


class SegmentReader:
    """Lazy zero-copy reads over one segment data file.

    The file is memory-mapped on the first ``array`` call and the map is
    shared by every entry of the segment (and, via the page cache, by
    every process mapping the same file).  Returned arrays are read-only
    views into the map; callers that need to mutate (streaming learner
    state) must copy.
    """

    def __init__(
        self, path: Union[str, Path], store_uid: Optional[str] = None
    ) -> None:
        self.path = Path(path)
        self.store_uid = store_uid
        self._mm: Optional[np.memmap] = None
        self._lock = threading.Lock()

    def _buffer(self) -> np.memmap:
        if self._mm is None:
            with self._lock:
                if self._mm is None:
                    if not self.path.is_file():
                        raise SegmentFormatError(
                            f"missing segment data file {self.path.name!r}"
                        )
                    try:
                        mm = np.memmap(self.path, mode="r", dtype=np.uint8)
                    except (OSError, ValueError) as exc:
                        raise SegmentFormatError(
                            f"cannot map segment data file "
                            f"{self.path.name!r}: {exc}"
                        ) from exc
                    _check_header(
                        bytes(mm[:HEADER_SIZE]), self.path, self.store_uid
                    )
                    self._mm = mm
        return self._mm

    def array(self, spec: Any) -> np.ndarray:
        """Resolve one offset spec to a read-only ndarray view."""
        offset, dtype, shape = _parse_spec(spec)
        count = 1
        for dim in shape:
            count *= dim
        nbytes = count * dtype.itemsize
        mm = self._buffer()
        if offset + nbytes > mm.size:
            raise SegmentFormatError(
                f"segment data file {self.path.name!r} is truncated: array "
                f"at offset {offset} needs {nbytes} bytes, file holds "
                f"{mm.size}"
            )
        return mm[offset : offset + nbytes].view(dtype).reshape(shape)

    def close(self) -> None:
        with self._lock:
            self._mm = None

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
