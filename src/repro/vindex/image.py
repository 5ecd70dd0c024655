"""The on-store index image: the one byte layout SaveIndex writes and
LoadIndex reads (DESIGN.md §5, "Index image").

::

    "BHIX" | version u32 | header_len u32 | header (JSON) | pad to 64
    | section 0 | pad to 64 | section 1 | ...

The header is ``[tree, table]``: ``tree`` is the index's ``to_payload()``
with every ndarray replaced by ``null``, ``table`` one
``[path, dtype, shape, offset]`` row per array, where ``path`` is the
key sequence that reaches the array in the tree and ``offset`` counts
from the first section.  Sections are C-contiguous, little-endian and
64-byte aligned, so :func:`decode_image` hands every array back as a
read-only ``np.frombuffer`` view over whatever buffer holds the image —
``bytes`` from a cache tier, a ``bytearray``, a ``memoryview``, later an
``mmap`` or a shared block — and no object graph is rebuilt or array copied.

An image arriving from a store is outside input: every way it can be
malformed raises :class:`~repro.errors.IndexCorruptError`.  There is no
whole-image checksum (it would cost more than the load it protects), so
a flipped bit *inside* a section is not detected here; index types
validate the structural arrays (graph and cell offsets) they gather
through with :func:`check_offsets` / :func:`load_adjacency`.

The second half of the module is the graph half of the format:
adjacency is kept at rest as CSR (``uint32`` offsets, neighbour ids in
the narrowest unsigned dtype that holds ``ntotal``) and the helpers here
freeze builder lists into it, thaw them back, size it, and move it in
and out of a payload.
"""

from __future__ import annotations

import json
import math
import struct
from itertools import chain
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import IndexCorruptError

MAGIC = b"BHIX"
VERSION = 1
ALIGNMENT = 64
_PREFIX = struct.Struct("<4sII")
_DECODER = json.JSONDecoder()

# The dtype whitelist, keyed by the little-endian type string the
# section table stores.
_DTYPES: Dict[str, np.dtype] = {
    np.dtype(code).str: np.dtype(code)
    for code in ("?", "<u1", "<u2", "<u4", "<u8", "<i1", "<i2", "<i4", "<i8", "<f2", "<f4", "<f8")
}


def _aligned(nbytes: int) -> int:
    return -(-nbytes // ALIGNMENT) * ALIGNMENT


# ----------------------------------------------------------------------
# SaveIndex
# ----------------------------------------------------------------------
def _strip_arrays(value: Any, path: List[Any], sections: List[Tuple[List[Any], np.ndarray]]) -> Any:
    """``value`` with arrays moved into ``sections``; TypeError on
    anything an image cannot hold, naming the offending key."""
    if isinstance(value, np.ndarray):
        dtype = _DTYPES.get(value.dtype.newbyteorder("<").str)
        if dtype is not None:
            sections.append((path, np.asarray(value, dtype=dtype, order="C")))
            return None
    elif value is None or isinstance(value, (bool, int, float, str)):
        return value
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        return {key: _strip_arrays(item, path + [key], sections) for key, item in value.items()}
    elif isinstance(value, (list, tuple)):
        return [_strip_arrays(item, path + [i], sections) for i, item in enumerate(value)]
    held = f"{value.dtype} array" if isinstance(value, np.ndarray) else type(value).__name__
    raise TypeError(
        f"index payload field {'.'.join(map(str, path)) or '<root>'!r} holds a {held}; "
        "an index image stores None, bool, int, float, str, numeric ndarrays, "
        "and str-keyed dicts / lists of those"
    )


def encode_image(payload: Dict[str, Any]) -> bytes:
    """Image bytes for one ``to_payload()`` tree (byte-stable)."""
    sections: List[Tuple[List[Any], np.ndarray]] = []
    tree = _strip_arrays(payload, [], sections)
    table = []
    offset = 0
    for path, array in sections:
        table.append([path, array.dtype.str, list(array.shape), offset])
        offset += _aligned(array.nbytes)
    header = json.dumps([tree, table], separators=(",", ":")).encode("ascii")
    parts = [_PREFIX.pack(MAGIC, VERSION, len(header)), header]
    written = _PREFIX.size + len(header)
    for _, array in sections:
        parts.append(bytes(_aligned(written) - written))
        parts.append(array.tobytes())
        written = _aligned(written) + array.nbytes
    return b"".join(parts)


# ----------------------------------------------------------------------
# LoadIndex
# ----------------------------------------------------------------------
def decode_image(buffer: Any) -> Any:
    """The payload tree of an image, arrays as read-only views of ``buffer``.

    Raises :class:`IndexCorruptError` for a bad magic or version, a
    header that does not parse, a dtype outside the whitelist, or a
    section that is misaligned or leaves the buffer.
    """
    view = memoryview(buffer).cast("B").toreadonly()
    size = view.nbytes
    if size < _PREFIX.size:
        raise IndexCorruptError(f"index image is {size} bytes, shorter than its prefix")
    magic, version, header_len = _PREFIX.unpack_from(view)
    if magic != MAGIC or version != VERSION:
        raise IndexCorruptError(f"not a version-{VERSION} index image: {magic!r} v{version}")
    base = _aligned(_PREFIX.size + header_len)
    if _PREFIX.size + header_len > size:
        raise IndexCorruptError(f"index image header ({header_len} bytes) leaves the buffer")
    try:
        header = str(view[_PREFIX.size : _PREFIX.size + header_len], "ascii")
        (tree, table), end = _DECODER.raw_decode(header)
        if end != header_len:
            raise ValueError("trailing bytes after the header document")
        for path, code, shape, offset in table:
            dtype = _DTYPES[code]
            count = math.prod(shape)
            start = base + offset
            if count < 0 or offset < 0 or offset % ALIGNMENT or start + count * dtype.itemsize > size:
                raise ValueError(f"section {path} [{code} {shape} @ {offset}] leaves the buffer")
            array = np.frombuffer(view, dtype, count, start)
            node = tree
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = array if len(shape) == 1 else array.reshape(shape)
    except (ValueError, TypeError, KeyError, IndexError, RecursionError) as exc:
        raise IndexCorruptError(f"malformed index image header: {exc!r}") from exc
    return tree


def array_field(payload: Dict[str, Any], key: str, dtype: Any, *shape: Any) -> np.ndarray:
    """``payload[key]``, required to be an ndarray of exactly ``dtype``
    and ``shape`` (``None`` matches any extent).  ``from_payload``
    implementations read every array through this, so an image whose
    header disagrees with its index type fails here and not in a kernel."""
    value = payload[key]
    if (
        isinstance(value, np.ndarray)
        and value.dtype == dtype
        and value.ndim == len(shape)
        and all(want is None or want == have for want, have in zip(shape, value.shape))
    ):
        return value
    found = f"{value.dtype}{list(value.shape)}" if isinstance(value, np.ndarray) else type(value).__name__
    raise IndexCorruptError(
        f"index image field {key!r}: expected {np.dtype(dtype)}{list(shape)}, found {found}"
    )


# ----------------------------------------------------------------------
# Adjacency at rest: CSR
# ----------------------------------------------------------------------
def _id_dtype(ntotal: int) -> np.dtype:
    """The dtype neighbour ids are stored in: the narrowest unsigned one
    that holds ``ntotal``."""
    return np.dtype(np.uint16 if ntotal <= 0xFFFF else np.uint32)


def freeze_adjacency(lists: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Neighbour lists → ``(offsets uint32[len + 1], indices int64)``;
    order inside each list is preserved."""
    offsets = np.zeros(len(lists) + 1, dtype=np.uint32)
    offsets[1:] = np.cumsum(np.fromiter(map(len, lists), dtype=np.int64, count=len(lists)))
    indices = np.fromiter(chain.from_iterable(lists), dtype=np.int64, count=int(offsets[-1]))
    return offsets, indices


def thaw_adjacency(offsets: np.ndarray, indices: np.ndarray) -> List[List[int]]:
    """Inverse of :func:`freeze_adjacency`."""
    flat = indices.tolist()
    bounds = offsets.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def adjacency_bytes(offsets: np.ndarray, indices: np.ndarray) -> int:
    """Resident size charged for a graph: 8 bytes a link plus 16 a list
    (what ``memory_bytes()`` has always reported for list-of-lists)."""
    return 8 * int(indices.shape[0]) + 16 * (int(offsets.shape[0]) - 1)


def check_offsets(name: str, offsets: np.ndarray, total: int) -> None:
    """``offsets`` must start at 0, never decrease and end at ``total``."""
    if (
        offsets.shape[0] == 0
        or offsets[0] != 0
        or offsets[-1] != total
        or not (offsets[1:] >= offsets[:-1]).all()
    ):
        raise IndexCorruptError(
            f"index image field {name!r}: offsets are not a non-decreasing 0..{total} run"
        )


def adjacency_fields(
    prefix: str, offsets: np.ndarray, indices: np.ndarray, ntotal: int
) -> Dict[str, np.ndarray]:
    """The two payload fields a CSR is persisted as."""
    return {
        f"{prefix}_offsets": offsets,
        f"{prefix}_indices": indices.astype(_id_dtype(ntotal)),
    }


def load_adjacency(
    payload: Dict[str, Any], prefix: str, ntotal: int, slots: Any = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`adjacency_fields`, validated: ``slots`` lists
    (any number when ``None``), monotone offsets that end at the index
    array, every neighbour a row of the index.  Both come back as views
    of the image: the fast kernels read a hop through a ``memoryview``
    slice, which yields python ints whatever the id width."""
    name = f"{prefix}_offsets"
    offsets = array_field(payload, name, np.uint32, None if slots is None else slots + 1)
    indices = array_field(payload, f"{prefix}_indices", _id_dtype(ntotal), None)
    check_offsets(name, offsets, indices.shape[0])
    if indices.shape[0] and int(indices.max()) >= ntotal:
        raise IndexCorruptError(f"index image field {name!r}: neighbour id outside 0..{ntotal - 1}")
    return offsets, indices
