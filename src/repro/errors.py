"""Exception hierarchy for the BlendHouse reproduction.

Every error raised by the library derives from :class:`BlendHouseError` so
callers can catch one type at the API boundary.  Subclasses are grouped by
subsystem: SQL front-end, catalog, storage, vector index, planner, and
cluster runtime.
"""

from __future__ import annotations


class BlendHouseError(Exception):
    """Base class for all errors raised by this library."""


class SQLError(BlendHouseError):
    """Errors raised while lexing, parsing, or binding SQL text."""


class ParseError(SQLError):
    """The SQL text could not be parsed.

    Carries the offending position so callers can point at the token.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class BindError(SQLError):
    """The SQL parsed, but references an unknown table, column, or function."""


class CatalogError(BlendHouseError):
    """Catalog inconsistencies: duplicate tables, missing tables, bad schema."""


class TableNotFoundError(CatalogError):
    """The referenced table does not exist in the catalog."""


class TableAlreadyExistsError(CatalogError):
    """CREATE TABLE for a name that is already registered."""


class SchemaError(CatalogError):
    """A schema definition or a row violated the declared schema."""


class StorageError(BlendHouseError):
    """Failures in the storage substrate (object store, segments, caches)."""


class ObjectNotFoundError(StorageError):
    """A key was requested from a store that does not hold it."""


class SegmentError(StorageError):
    """A segment is malformed or an operation violated immutability."""


class DurabilityError(StorageError):
    """Failures in the durability layer (WAL, checkpoints, recovery)."""


class WALCorruptionError(DurabilityError):
    """A WAL frame failed validation somewhere other than the torn tail.

    A torn *final* record is expected after a crash and is truncated
    silently; corruption in the middle of the log is not survivable.
    """


class RecoveryError(DurabilityError):
    """Cold-boot recovery could not reconstruct a consistent engine."""


class ManifestError(StorageError):
    """MVCC manifest failures: bad edits, commit protocol violations."""


class SnapshotExpiredError(ManifestError):
    """A manifest id was requested that is no longer retained or pinned."""


class IndexError_(BlendHouseError):
    """Vector-index failures (named with a trailing underscore to avoid
    shadowing the builtin :class:`IndexError`)."""


class IndexNotTrainedError(IndexError_):
    """Search or add was attempted on an index that requires training first."""


class UnknownIndexTypeError(IndexError_):
    """The requested index type is not registered."""


class IndexParameterError(IndexError_):
    """An index was created or searched with invalid parameters."""


class IndexCorruptError(IndexError_):
    """Persisted index bytes are not a valid index image: bad magic or
    version, a header that does not parse, a section that leaves the
    buffer, or structural arrays (graph / cell offsets) that could not
    be gathered through safely."""


class PlannerError(BlendHouseError):
    """Plan construction or optimization failed."""


class ExecutionError(BlendHouseError):
    """A physical operator failed at run time."""


class QueryCancelledError(ExecutionError):
    """The query's cancel token was set (client timeout, disconnect, or
    an explicit cancel) and execution unwound at a scan boundary."""


class ServingError(BlendHouseError):
    """Serving front-end flow-control failures."""


class AdmissionRejectedError(ServingError):
    """The serving tier is saturated: every execution slot is busy and
    the wait queue is at its configured depth."""


class TenantQuotaExceededError(ServingError):
    """The tenant already has its quota of queries in flight."""


class ClusterError(BlendHouseError):
    """Virtual-warehouse runtime failures."""


class WorkerUnavailableError(ClusterError):
    """The targeted worker is down or has left the topology."""


class NoWorkersError(ClusterError):
    """An operation required at least one live worker but none exist."""
