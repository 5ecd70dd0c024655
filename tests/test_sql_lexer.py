"""Tests for the SQL lexer."""

import pytest

from repro.errors import ParseError
from repro.sqlparser.lexer import TokenType, tokenize


def kinds(sql):
    return [t.type for t in tokenize(sql)]


def values(sql):
    return [t.value for t in tokenize(sql)[:-1]]


class TestBasics:
    def test_keywords_uppercased(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type == TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        assert values("MyTable my_col") == ["MyTable", "my_col"]

    def test_eof_always_last(self):
        assert tokenize("")[-1].type == TokenType.EOF
        assert tokenize("SELECT")[-1].type == TokenType.EOF

    def test_positions_recorded(self):
        tokens = tokenize("a  b")
        assert tokens[0].position == 0
        assert tokens[1].position == 3


class TestNumbers:
    def test_integer(self):
        assert values("42") == ["42"]

    def test_float(self):
        assert values("3.14") == ["3.14"]

    def test_scientific(self):
        assert values("1e-5 2.5E3") == ["1e-5", "2.5E3"]

    def test_leading_dot(self):
        assert values(".5") == [".5"]


class TestStrings:
    def test_single_quoted(self):
        tokens = tokenize("'hello world'")
        assert tokens[0].type == TokenType.STRING
        assert tokens[0].value == "hello world"

    def test_double_quoted(self):
        assert tokenize('"abc"')[0].value == "abc"

    def test_escaped_quote(self):
        assert tokenize(r"'it\'s'")[0].value == "it's"

    def test_unterminated_raises(self):
        with pytest.raises(ParseError):
            tokenize("'oops")


class TestOperatorsAndPunctuation:
    def test_two_char_operators(self):
        assert values("<= >= != <>") == ["<=", ">=", "!=", "<>"]

    def test_brackets_and_parens(self):
        tokens = tokenize("([1,2])")
        assert [t.type for t in tokens[:-1]] == [
            TokenType.LPAREN, TokenType.LBRACKET, TokenType.NUMBER,
            TokenType.COMMA, TokenType.NUMBER, TokenType.RBRACKET,
            TokenType.RPAREN,
        ]

    def test_comment_skipped(self):
        assert values("SELECT -- a comment\n1") == ["SELECT", "1"]

    def test_unexpected_char(self):
        with pytest.raises(ParseError) as info:
            tokenize("SELECT @")
        assert info.value.position == 7

    def test_semicolon(self):
        assert tokenize(";")[0].type == TokenType.SEMICOLON


class TestTokenHelpers:
    def test_is_keyword(self):
        token = tokenize("SELECT")[0]
        assert token.is_keyword("SELECT")
        assert token.is_keyword("SELECT", "FROM")
        assert not token.is_keyword("FROM")


from repro.sqlparser.lexer import scan_statement  # noqa: E402 - added with the scan


class TestScan:
    SQL = ("explain analyze SELECT id FROM t WHERE a < 5 AND b = 'it\\'s' "
           "ORDER BY L2Distance(v, [1.5, -2, 3e-1]) LIMIT 10;")

    def test_template_collapses_each_literal_to_one_slotted_token(self):
        scan = scan_statement(self.SQL)
        slotted = [(t.type, t.slot) for t in scan.tokens if t.slot >= 0]
        assert slotted == [
            (TokenType.NUMBER, 0), (TokenType.STRING, 1),
            (TokenType.VECTOR, 2), (TokenType.NUMBER, 3),
        ]
        assert scan.literals == [5, "it's", (1.5, -2.0, 0.3), 10]
        assert [self.SQL[t.position] for t in scan.tokens if t.slot >= 0] == [
            "5", "'", "[", "1",
        ]
        assert scan.tokens[-1].type == TokenType.EOF
        assert len(scan.tokens) < len(tokenize(self.SQL)) - 6

    def test_signature_excludes_the_explain_prefix(self):
        scan = scan_statement(self.SQL)
        assert scan.explain == 2
        assert self.SQL[scan.start:].startswith("SELECT id")
        assert scan.signature == scan_statement(self.SQL[scan.start:]).signature
        assert scan.signature == (
            "SELECT id FROM t WHERE a < ? AND b = ? "
            "ORDER BY L2Distance ( v , [?] ) LIMIT ? ;"
        )
        assert scan_statement("EXPLAIN SELECT 1").explain == 1
        assert scan_statement("SELECT 1").explain == 0

    def test_number_conversion_is_the_parsers_rule(self):
        assert scan_statement("1 1.0 1e0 .5 2.").literals == [1, 1.0, 1.0, 0.5, 2.0]
        assert [type(v) for v in scan_statement("7 7e0").literals] == [int, float]

    def test_bulk_and_token_wise_vectors_agree(self):
        bulk = scan_statement("[0.1, -2.5e-3,7]").literals
        slow = scan_statement("[0.1 -2.5e-3 , 7,]").literals
        assert bulk == slow == [(0.1, -0.0025, 7.0)]

    def test_malformed_literal_is_deferred_not_raised(self):
        # The signature of a malformed statement is still well defined.
        scan = scan_statement("SELECT [[1, 2], [3, 4]], 1e FROM t")
        assert scan.signature == "SELECT [?] , ? FROM t"
        assert isinstance(scan.error, ParseError) and scan.error.position == 8
        assert scan_statement("SELECT 1").error is None

    def test_integer_slot(self):
        scan = scan_statement("LIMIT 10 OFFSET 2.5")
        assert scan.integer(0) == 10
        with pytest.raises(ParseError) as info:
            scan.integer(1)
        assert info.value.position == 16
