"""Pluggable index registry and the SQL-facing index spec.

The registry is the extensibility point the paper claims: a new index
library is integrated by implementing :class:`repro.vindex.api.VectorIndex`
and calling :func:`register_index_type`; the engine, the SQL dialect
(``INDEX ann_idx embedding TYPE HNSW('M=16')``), persistence, and the
auto-index machinery pick it up with no further changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Type

from repro.errors import IndexCorruptError, IndexParameterError, UnknownIndexTypeError
from repro.vindex.api import VectorIndex
from repro.vindex.diskann import DiskANNIndex
from repro.vindex.flat import FlatIndex
from repro.vindex.hnsw import HNSWIndex
from repro.vindex.hnswsq import HNSWSQIndex
from repro.vindex.image import decode_image, encode_image
from repro.vindex.ivf import IVFFlatIndex
from repro.vindex.ivfpq import IVFPQFastScanIndex, IVFPQIndex

# Registered constructors keyed by upper-case type name.
_REGISTRY: Dict[str, Type[VectorIndex]] = {}

# Constructor-parameter whitelist per type: SQL options map onto these.
_INT_PARAMS = {
    "FLAT": set(),
    "IVFFLAT": {"nlist", "seed"},
    "IVFPQ": {"nlist", "m", "seed"},
    "IVFPQFS": {"nlist", "m", "seed"},
    "HNSW": {"m", "ef_construction", "seed"},
    "HNSWSQ": {"m", "ef_construction", "seed"},
    "DISKANN": {"r", "build_beam", "seed"},
}
_FLOAT_PARAMS = {"DISKANN": {"alpha"}}


def register_index_type(
    name: str,
    cls: Type[VectorIndex],
    int_params: Optional[set] = None,
    float_params: Optional[set] = None,
) -> None:
    """Register a new pluggable index type under ``name``."""
    key = name.upper()
    _REGISTRY[key] = cls
    if int_params is not None:
        _INT_PARAMS[key] = set(int_params)
    if float_params is not None:
        _FLOAT_PARAMS[key] = set(float_params)


def registered_types() -> List[str]:
    """Names of all currently registered index types, sorted."""
    return sorted(_REGISTRY)


for _name, _cls in (
    ("FLAT", FlatIndex),
    ("IVFFLAT", IVFFlatIndex),
    ("IVFPQ", IVFPQIndex),
    ("IVFPQFS", IVFPQFastScanIndex),
    ("HNSW", HNSWIndex),
    ("HNSWSQ", HNSWSQIndex),
    ("DISKANN", DiskANNIndex),
):
    register_index_type(_name, _cls)


@dataclass
class IndexSpec:
    """Parsed description of one vector index (from SQL or the API).

    ``params`` hold build-time knobs (``M``, ``ef_construction``,
    ``nlist``, ...); ``dim`` comes from the column definition or the
    ``DIM`` option; ``metric`` defaults to L2 like the paper's
    ``L2Distance`` examples.
    """

    index_type: str
    dim: int
    metric: str = "l2"
    params: Dict[str, Any] = field(default_factory=dict)
    name: str = "ann_idx"
    column: str = "embedding"

    def __post_init__(self) -> None:
        self.index_type = self.index_type.upper()
        if self.index_type not in _REGISTRY:
            raise UnknownIndexTypeError(
                f"unknown index type {self.index_type!r}; "
                f"registered: {registered_types()}"
            )
        if self.dim <= 0:
            raise IndexParameterError(f"index dim must be positive, got {self.dim}")

    def with_params(self, **overrides: Any) -> "IndexSpec":
        """Copy of this spec with some build params replaced (auto-index)."""
        merged = dict(self.params)
        merged.update(overrides)
        return IndexSpec(
            index_type=self.index_type,
            dim=self.dim,
            metric=self.metric,
            params=merged,
            name=self.name,
            column=self.column,
        )


def parse_index_options(option_string: str) -> Dict[str, Any]:
    """Parse ``'DIM=960, M=16'``-style option strings from SQL."""
    options: Dict[str, Any] = {}
    for chunk in option_string.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise IndexParameterError(f"malformed index option {chunk!r}")
        key, _, value = chunk.partition("=")
        key = key.strip().lower()
        value = value.strip().strip("'\"")
        try:
            options[key] = int(value)
        except ValueError:
            try:
                options[key] = float(value)
            except ValueError:
                options[key] = value
    return options


def create_index(spec: IndexSpec) -> VectorIndex:
    """Instantiate a fresh index from a spec, validating parameters."""
    cls = _REGISTRY[spec.index_type]
    kwargs: Dict[str, Any] = {}
    int_ok = _INT_PARAMS.get(spec.index_type, set())
    float_ok = _FLOAT_PARAMS.get(spec.index_type, set())
    for key, value in spec.params.items():
        key = key.lower()
        if key in ("dim", "metric"):
            continue
        if key in int_ok:
            kwargs[key] = int(value)
        elif key in float_ok:
            kwargs[key] = float(value)
        else:
            raise IndexParameterError(
                f"index type {spec.index_type} does not accept parameter {key!r}"
            )
    return cls(spec.dim, spec.metric, **kwargs)


def serialize_index(index: VectorIndex) -> bytes:
    """The index image of any registered index (SaveIndex).

    Byte-stable: the same logical index serializes to the same bytes,
    including after a load round trip.  A payload value the image cannot
    hold is a ``TypeError`` naming its key.
    """
    return encode_image(index.to_payload())


def deserialize_index(buffer: Any) -> VectorIndex:
    """Inverse of :func:`serialize_index` (LoadIndex).

    ``buffer`` is anything exposing the buffer protocol; the loaded
    index's bulk arrays are read-only views of it, so it stays alive as
    long as the index does.  Raises :class:`IndexCorruptError` for bytes
    that are not a valid image of their type and
    :class:`UnknownIndexTypeError` for a well-formed image of a type
    nobody registered.
    """
    state = decode_image(buffer)
    type_name = state.get("index_type") if isinstance(state, dict) else None
    if not isinstance(type_name, str):
        raise IndexCorruptError("index image names no index type")
    cls = _REGISTRY.get(type_name)
    if cls is None:
        raise UnknownIndexTypeError(f"cannot deserialize unknown index type {type_name!r}")
    try:
        return cls.from_payload(state)
    except (LookupError, TypeError, ValueError, IndexParameterError) as exc:
        raise IndexCorruptError(
            f"{type_name} image does not describe a valid index: {exc!r}"
        ) from exc
