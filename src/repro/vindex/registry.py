"""Pluggable index registry and the SQL-facing index spec.

The registry is the extensibility point the paper claims: a new index
library is a :class:`repro.vindex.api.VectorIndex` subclass and one
``register_index_type(name, cls)`` call.  The class declares every fact
the engine reads of its type: its SQL build options (``build_options``),
its one search-depth knob and the default every search uses
(``search_knob``, ``search_knob_default``), its ``family`` (flat, graph
or IVF) and the ``visit_kernel`` a visit is priced at.  The SQL dialect
(``INDEX ann_idx embedding TYPE HNSW('M=16')``), the planner, the scan
charger, auto-index, compaction and persistence read them here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Type

from repro.errors import IndexCorruptError, IndexParameterError, UnknownIndexTypeError
from repro.vindex.api import IndexFamily, VectorIndex
from repro.vindex.diskann import DiskANNIndex
from repro.vindex.flat import FlatIndex
from repro.vindex.hnsw import HNSWIndex
from repro.vindex.hnswsq import HNSWSQIndex
from repro.vindex.image import decode_image, encode_image
from repro.vindex.ivf import IVFFlatIndex
from repro.vindex.ivfpq import IVFPQFastScanIndex, IVFPQIndex

# Registered classes keyed by upper-case type name.
_REGISTRY: Dict[str, Type[VectorIndex]] = {}


def register_index_type(name: str, cls: Type[VectorIndex]) -> None:
    """Register a new pluggable index type under ``name``."""
    if cls.family is not IndexFamily.FLAT and cls.search_knob is None:
        raise IndexParameterError(
            f"a {cls.family.value} index type must declare its search_knob: {name}"
        )
    _REGISTRY[name.upper()] = cls


def index_class(index_type: str) -> Type[VectorIndex]:
    """The class registered under ``index_type``: its facts are the type's."""
    cls = _REGISTRY.get(index_type)
    if cls is None:
        raise UnknownIndexTypeError(f"unknown index type {index_type!r}: {registered_types()}")
    return cls


def registered_types() -> List[str]:
    """Names of all currently registered index types, sorted."""
    return sorted(_REGISTRY)


for _cls in (
    FlatIndex, IVFFlatIndex, IVFPQIndex, IVFPQFastScanIndex, HNSWIndex, HNSWSQIndex, DiskANNIndex
):
    register_index_type(_cls.index_type, _cls)


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
        index_class(self.index_type)  # raises for an unregistered type
        if self.dim <= 0:
            raise IndexParameterError(f"index dim must be positive, got {self.dim}")

    def with_params(self, **overrides: Any) -> "IndexSpec":
        """Copy of this spec with some build params replaced (auto-index)."""
        return replace(self, params={**self.params, **overrides})


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
    cls = index_class(spec.index_type)
    kwargs: Dict[str, Any] = {}
    for key, value in spec.params.items():
        key = key.lower()
        if key in ("dim", "metric"):
            continue
        convert = cls.build_options.get(key)
        if convert is None:
            raise IndexParameterError(
                f"index type {spec.index_type} does not accept parameter {key!r}"
            )
        kwargs[key] = convert(value)
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
    cls = index_class(type_name)
    try:
        return cls.from_payload(state)
    except (LookupError, TypeError, ValueError, IndexParameterError) as exc:
        raise IndexCorruptError(
            f"{type_name} image does not describe a valid index: {exc!r}"
        ) from exc
