"""Tests for the table catalog."""

import pytest

from repro.catalog.catalog import Catalog
from repro.catalog.schema import TableSchema
from repro.errors import TableAlreadyExistsError, TableNotFoundError
from repro.sqlparser.ast_nodes import ColumnDef


def schema(name="t"):
    return TableSchema.from_ddl(
        name,
        [ColumnDef("id", "UInt64"), ColumnDef("v", "Array", ("Float32",))],
    )


class TestLifecycle:
    def test_create_and_get(self):
        catalog = Catalog()
        entry = catalog.create_table(schema())
        assert catalog.get("t") is entry
        assert "t" in catalog

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.create_table(schema())
        with pytest.raises(TableAlreadyExistsError):
            catalog.create_table(schema())

    def test_if_not_exists_returns_existing(self):
        catalog = Catalog()
        first = catalog.create_table(schema())
        second = catalog.create_table(schema(), if_not_exists=True)
        assert first is second

    def test_drop(self):
        catalog = Catalog()
        catalog.create_table(schema())
        assert catalog.drop_table("t")
        assert "t" not in catalog

    def test_drop_missing(self):
        catalog = Catalog()
        with pytest.raises(TableNotFoundError):
            catalog.drop_table("ghost")
        assert not catalog.drop_table("ghost", if_exists=True)

    def test_get_missing(self):
        with pytest.raises(TableNotFoundError):
            Catalog().get("ghost")

    def test_table_names_sorted(self):
        catalog = Catalog()
        catalog.create_table(schema("zz"))
        catalog.create_table(schema("aa"))
        assert catalog.table_names() == ["aa", "zz"]


class TestEntry:
    def test_segment_id_allocation_unique(self):
        catalog = Catalog()
        entry = catalog.create_table(schema())
        ids = {entry.allocate_segment_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(sid.startswith("t/seg-") for sid in ids)

    def test_recreated_table_continues_past_dropped_ids(self):
        catalog = Catalog()
        first = catalog.create_table(schema())
        dropped = [first.allocate_segment_id() for _ in range(3)]
        catalog.drop_table("t")
        assert catalog.next_seqs == {"t": 3}
        again = catalog.create_table(schema())
        assert again.allocate_segment_id() == "t/seg-00000003"
        assert "t/seg-00000003" not in dropped
        assert catalog.next_seqs == {}
        assert catalog.create_table(schema("u")).allocate_segment_id() == "u/seg-00000000"
