"""Tests for the interactive shell (python -m repro)."""

import io

import pytest

from repro.__main__ import (
    execute_line,
    format_result,
    handle_dot_command,
    repl,
    seed_demo_table,
)
from repro.core.database import BlendHouse


def run_shell(*lines):
    out = io.StringIO()
    db = repl(lines, out=out)
    return db, out.getvalue()


class TestDotCommands:
    def test_help(self):
        db = BlendHouse()
        assert ".tables" in handle_dot_command(db, ".help")

    def test_tables_empty(self):
        db = BlendHouse()
        assert handle_dot_command(db, ".tables") == "(no tables)"

    def test_seed_and_describe(self):
        db = BlendHouse()
        message = handle_dot_command(db, ".seed demo 50 8")
        assert "seeded 50 rows" in message
        described = handle_dot_command(db, ".describe demo")
        assert "rows_alive: 50" in described

    def test_metrics(self):
        db = BlendHouse()
        handle_dot_command(db, ".seed demo 20 4")
        text = handle_dot_command(db, ".metrics")
        assert "ingest_rows_total 20" in text
        assert "# TYPE" in text

    def test_profile_folds_retained_traces(self):
        db = BlendHouse()
        assert "no traces" in handle_dot_command(db, ".profile")
        handle_dot_command(db, ".seed demo 20 4")
        execute_line(db, "SELECT id FROM demo LIMIT 3")
        lines = handle_dot_command(db, ".profile").splitlines()
        assert lines[0].startswith("query") and "wall/sim" in lines[0]
        assert any(line.startswith("merge_project") for line in lines)

    def test_quit_returns_none(self):
        assert handle_dot_command(BlendHouse(), ".quit") is None

    def test_unknown_command(self):
        assert "unknown" in handle_dot_command(BlendHouse(), ".bogus")

    def test_compact(self):
        db = BlendHouse()
        handle_dot_command(db, ".seed demo 20 4")
        assert "merges" in handle_dot_command(db, ".compact demo")


class TestExecuteLine:
    @pytest.fixture
    def db(self):
        db = BlendHouse()
        seed_demo_table(db, "t", 100, 8)
        return db

    def test_select_renders_table(self, db):
        vec = "[" + ",".join(["0.0"] * 8) + "]"
        text = execute_line(
            db, f"SELECT id, dist FROM t ORDER BY L2Distance(embedding, {vec}) "
                f"AS dist LIMIT 3"
        )
        assert "strategy=" in text
        assert "dist" in text

    def test_insert_reports_rows(self, db):
        vec = "[" + ",".join(["0.0"] * 8) + "]"
        text = execute_line(
            db, f"INSERT INTO t (id, label, views, embedding) "
                f"VALUES (999, 'x', 0, {vec})"
        )
        assert "inserted 1 rows" in text

    def test_update_reports_matches(self, db):
        text = execute_line(db, "UPDATE t SET label = 'y' WHERE id = 5")
        assert "matched 1" in text


class TestRepl:
    def test_full_session(self):
        _, output = run_shell(
            ".seed demo 30 4",
            "SELECT id FROM demo WHERE views < 2000 LIMIT 2;",
            ".quit",
        )
        assert "seeded 30 rows" in output
        assert "strategy=scalar_only" in output

    def test_multiline_statement(self):
        _, output = run_shell(
            ".seed demo 30 4",
            "SELECT id FROM demo",
            "WHERE views < 2000 LIMIT 1;",
        )
        assert "1 rows" in output

    def test_error_reported_not_raised(self):
        _, output = run_shell("SELECT id FROM ghost LIMIT 1;")
        assert "error:" in output

    def test_blank_lines_ignored(self):
        _, output = run_shell("", "   ", ".tables")
        assert "(no tables)" in output


class TestFormatting:
    def test_vector_cells_truncated(self):
        db = BlendHouse()
        seed_demo_table(db, "t", 20, 8)
        vec = "[" + ",".join(["0.0"] * 8) + "]"
        result = db.execute(
            f"SELECT embedding FROM t ORDER BY L2Distance(embedding, {vec}) LIMIT 1"
        )
        rendered = format_result(result)
        assert "..." in rendered

    def test_row_truncation(self):
        db = BlendHouse()
        seed_demo_table(db, "t", 100, 4)
        result = db.execute("SELECT id FROM t WHERE views >= 0 LIMIT 90")
        rendered = format_result(result, max_rows=10)
        assert "more rows" in rendered
