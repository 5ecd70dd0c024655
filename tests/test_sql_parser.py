"""Tests for the SQL parser."""

import pytest

from repro.errors import ParseError
from repro.sqlparser.ast_nodes import (
    Between,
    BinaryOp,
    CreateTable,
    Delete,
    DropTable,
    FunctionCall,
    InList,
    Insert,
    Literal,
    Select,
    SetStatement,
    UnaryOp,
    Update,
    VectorLiteral,
)
from repro.sqlparser.parser import parse_statement


class TestCreateTable:
    def test_full_example_one(self):
        """The paper's Example 1 DDL parses completely."""
        statement = parse_statement(
            """
            CREATE TABLE images (
              id UInt64,
              label String,
              published_time DateTime,
              embedding Array(Float32),
              INDEX ann_idx embedding TYPE HNSW('DIM=960')
            )
            ORDER BY published_time
            PARTITION BY (toYYYYMMDD(published_time), label)
            CLUSTER BY embedding INTO 512 BUCKETS;
            """
        )
        assert isinstance(statement, CreateTable)
        assert statement.name == "images"
        assert [c.name for c in statement.columns] == [
            "id", "label", "published_time", "embedding",
        ]
        assert statement.columns[3].type_name == "Array"
        assert statement.indexes[0].index_type == "HNSW"
        assert statement.indexes[0].options == ("DIM=960",)
        assert statement.order_by == ["published_time"]
        assert len(statement.partition_by) == 2
        assert isinstance(statement.partition_by[0], FunctionCall)
        assert statement.cluster_by == "embedding"
        assert statement.cluster_buckets == 512

    def test_if_not_exists(self):
        statement = parse_statement("CREATE TABLE IF NOT EXISTS t (id UInt64, v Array(Float32))")
        assert statement.if_not_exists

    def test_missing_paren_raises(self):
        with pytest.raises(ParseError):
            parse_statement("CREATE TABLE t id UInt64")


class TestDropTable:
    def test_plain(self):
        statement = parse_statement("DROP TABLE t")
        assert isinstance(statement, DropTable)
        assert not statement.if_exists

    def test_if_exists(self):
        assert parse_statement("DROP TABLE IF EXISTS t").if_exists


class TestInsert:
    def test_values_rows(self):
        statement = parse_statement(
            "INSERT INTO t (id, v) VALUES (1, [1.0, 2.0]), (2, [3.0, -4.0])"
        )
        assert isinstance(statement, Insert)
        assert statement.columns == ["id", "v"]
        assert statement.rows[0] == (1, [1.0, 2.0])
        assert statement.rows[1][1] == [3.0, -4.0]

    def test_negative_numbers(self):
        statement = parse_statement("INSERT INTO t (a) VALUES (-5)")
        assert statement.rows == [(-5,)]

    def test_csv_infile(self):
        statement = parse_statement("INSERT INTO images CSV INFILE 'img_data.csv'")
        assert statement.infile == "img_data.csv"

    def test_non_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("INSERT INTO t (a) VALUES (x + 1)")


class TestSelect:
    def test_hybrid_query_shape(self):
        statement = parse_statement(
            "SELECT id, dist, published_time FROM images "
            "WHERE label = 'animal' AND published_time >= 20241010 "
            "ORDER BY L2Distance(embedding, [1.0, 0.0]) AS dist LIMIT 100"
        )
        assert isinstance(statement, Select)
        assert statement.limit == 100
        order = statement.order_by[0]
        assert order.alias == "dist"
        assert isinstance(order.expression, FunctionCall)
        assert isinstance(order.expression.args[1], VectorLiteral)

    def test_star_projection(self):
        statement = parse_statement("SELECT * FROM t")
        assert statement.items[0].expression.name == "*"

    def test_limit_offset(self):
        statement = parse_statement("SELECT id FROM t LIMIT 10 OFFSET 5")
        assert statement.limit == 10
        assert statement.offset == 5

    def test_order_desc(self):
        statement = parse_statement("SELECT id FROM t ORDER BY id DESC LIMIT 1")
        assert not statement.order_by[0].ascending

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT id FROM t LIMIT 1 garbage")


class TestExpressions:
    def where(self, text):
        return parse_statement(f"SELECT id FROM t WHERE {text}").where

    def test_precedence_and_over_or(self):
        expr = self.where("a = 1 OR b = 2 AND c = 3")
        assert isinstance(expr, BinaryOp) and expr.op == "or"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "and"

    def test_parentheses(self):
        expr = self.where("(a = 1 OR b = 2) AND c = 3")
        assert expr.op == "and"
        assert expr.left.op == "or"

    def test_not(self):
        expr = self.where("NOT a = 1")
        assert isinstance(expr, UnaryOp) and expr.op == "not"

    def test_between(self):
        expr = self.where("a BETWEEN 1 AND 5")
        assert isinstance(expr, Between)
        assert not expr.negated

    def test_not_between(self):
        assert self.where("a NOT BETWEEN 1 AND 5").negated

    def test_in_list(self):
        expr = self.where("a IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert len(expr.items) == 3

    def test_like_and_regexp(self):
        like = self.where("name LIKE '%cat%'")
        assert like.op == "like"
        regexp = self.where("name REGEXP '^[0-9]'")
        assert regexp.op == "regexp"

    def test_is_null(self):
        expr = self.where("a IS NULL")
        assert expr.op == "is_null"
        neg = self.where("a IS NOT NULL")
        assert isinstance(neg, UnaryOp)

    def test_arithmetic_precedence(self):
        expr = self.where("a = 1 + 2 * 3")
        add = expr.right
        assert add.op == "+"
        assert add.right.op == "*"

    def test_unary_minus(self):
        expr = self.where("a > -5")
        assert isinstance(expr.right, UnaryOp)

    def test_boolean_literals(self):
        expr = self.where("TRUE")
        assert isinstance(expr, Literal) and expr.value is True

    def test_vector_literal_negative_components(self):
        statement = parse_statement(
            "SELECT id FROM t ORDER BY L2Distance(v, [-1.5, 2.0, -0.25]) LIMIT 1"
        )
        vec = statement.order_by[0].expression.args[1]
        assert vec.values == (-1.5, 2.0, -0.25)


class TestUpdateDeleteSet:
    def test_update(self):
        statement = parse_statement("UPDATE t SET a = 1, b = 'x' WHERE id = 3")
        assert isinstance(statement, Update)
        assert statement.assignments[0][0] == "a"
        assert isinstance(statement.where, BinaryOp)

    def test_update_vector_assignment(self):
        statement = parse_statement("UPDATE t SET v = [1.0, 2.0] WHERE id = 1")
        assert isinstance(statement.assignments[0][1], VectorLiteral)

    def test_delete(self):
        statement = parse_statement("DELETE FROM t WHERE id < 5")
        assert isinstance(statement, Delete)

    def test_delete_without_where(self):
        assert parse_statement("DELETE FROM t").where is None

    def test_set_numeric(self):
        statement = parse_statement("SET enable_cbo = 0")
        assert isinstance(statement, SetStatement)
        assert statement.value == 0

    def test_set_string(self):
        assert parse_statement("SET forced_strategy = 'post_filter'").value == "post_filter"

    def test_set_bareword(self):
        assert parse_statement("SET mode = auto").value == "auto"


class TestErrors:
    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_statement("EXPLAIN SELECT 1")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_statement("SELECT FROM")
        assert info.value.position >= 0

    @pytest.mark.parametrize("sql, at", [
        ("SELECT id FROM t WHERE x < 1e", "1e"),
        ("SELECT id FROM t LIMIT 1.5", "1.5"),
        ("SELECT id FROM t LIMIT 1e3", "1e3"),
        ("SELECT id FROM t AS OF 1.5 LIMIT 3", "1.5"),
        ("SELECT id FROM t ORDER BY L2Distance(v, [1e, 2]) LIMIT 3", "1e"),
    ])
    def test_malformed_number_is_a_parse_error_with_position(self, sql, at):
        # These used to escape as bare ValueErrors from float() / int().
        with pytest.raises(ParseError) as info:
            parse_statement(sql)
        assert info.value.position == sql.index(at)


class TestTemplate:
    def test_literal_nodes_remember_their_slot(self):
        statement = parse_statement(
            "SELECT id FROM t AS OF 3 WHERE a < 5 AND b = 'x' "
            "ORDER BY L2Distance(v, [1.0, -2.0]) LIMIT 10 OFFSET 2"
        )
        assert statement.as_of_slot == 0 and statement.as_of == 3
        assert statement.where.left.right == Literal(5)
        assert statement.where.left.right.slot == 1
        assert statement.where.right.right.slot == 2
        vector = statement.order_by[0].expression.args[1]
        assert (vector.values, vector.slot) == ((1.0, -2.0), 3)
        assert (statement.limit, statement.limit_slot) == (10, 4)
        assert (statement.offset, statement.offset_slot) == (2, 5)

    def test_keyword_constants_have_no_slot(self):
        where = parse_statement("SELECT id FROM t WHERE a IS NULL AND TRUE").where
        assert where.left.right.slot is None and where.right.slot is None

    def test_vector_grammar(self):
        def values(text):
            return parse_statement(f"UPDATE t SET v = {text}").assignments[0][1].values

        assert values("[]") == ()
        assert values("[1 2,3,]") == (1.0, 2.0, 3.0)
        assert values("[- 1, -2e-1 .5]") == (-1.0, -0.2, 0.5)
        assert values("[1, -- one\n 2]") == (1.0, 2.0)
        for bad in ("[1,,2]", "[nan]", "[inf]", "[1_0]", "[[1]]", "['1']", "[+1]", "[1"):
            with pytest.raises(ParseError):
                values(bad)
