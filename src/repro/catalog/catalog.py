"""The table catalog.

A :class:`Catalog` maps table names to :class:`TableEntry` records holding
the schema, live statistics and the segment-name sequence.  The catalog
itself is metadata-only: a table's segments are listed by its manifest
(:mod:`repro.storage.manifest`), and their payloads live in the object
store and the per-node caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.catalog.schema import TableSchema
from repro.catalog.statistics import TableStatistics
from repro.errors import TableAlreadyExistsError, TableNotFoundError


def segment_prefix(table: str) -> str:
    """What every segment id of ``table`` starts with."""
    return f"{table}/seg-"


@dataclass
class TableEntry:
    """Catalog record for one table."""

    schema: TableSchema
    statistics: TableStatistics = field(default_factory=TableStatistics)
    next_segment_seq: int = 0

    def allocate_segment_id(self) -> str:
        """Unique, stable segment name (hashed by the scheduler)."""
        seq = self.next_segment_seq
        self.next_segment_seq += 1
        return f"{segment_prefix(self.schema.name)}{seq:08d}"


class Catalog:
    """In-memory registry of tables."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableEntry] = {}

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> TableEntry:
        """Register a new table.

        Raises
        ------
        TableAlreadyExistsError
            If the name is taken and ``if_not_exists`` is False.
        """
        if schema.name in self._tables:
            if if_not_exists:
                return self._tables[schema.name]
            raise TableAlreadyExistsError(f"table {schema.name!r} already exists")
        entry = TableEntry(schema=schema)
        self._tables[schema.name] = entry
        return entry

    def drop_table(self, name: str, if_exists: bool = False) -> bool:
        """Remove a table; returns whether it existed."""
        if name not in self._tables:
            if if_exists:
                return False
            raise TableNotFoundError(f"table {name!r} does not exist")
        del self._tables[name]
        return True

    def get(self, name: str) -> TableEntry:
        """Look up a table entry.

        Raises
        ------
        TableNotFoundError
            If no table of that name exists.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        """All registered table names, sorted."""
        return sorted(self._tables)

    def entries(self) -> List[TableEntry]:
        """All table entries in creation order.

        Checkpoints serialize in this order so recovery rebuilds tables
        deterministically.
        """
        return list(self._tables.values())
