"""Recursive-descent parser for the BlendHouse SQL dialect.

Entry point: :func:`parse_statement`.  The parser consumes the scan's
*template* — every literal, a whole query vector included, is one token —
and fills each literal node from the scan's literal vector, remembering
its slot.  Expression parsing uses precedence climbing (OR < AND < NOT <
comparison < additive < multiplicative < unary).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import ParseError
from repro.sqlparser.ast_nodes import (
    Between,
    BinaryOp,
    Checkpoint,
    ColumnDef,
    ColumnRef,
    CreateTable,
    Delete,
    DropTable,
    Explain,
    Expression,
    FunctionCall,
    InList,
    IndexDef,
    Insert,
    Literal,
    OrderByItem,
    Select,
    SelectItem,
    SetStatement,
    ShowSlowQueries,
    Statement,
    UnaryOp,
    Update,
    VectorLiteral,
)
from repro.sqlparser.lexer import Scan, Token, TokenType, scan_statement


class _Parser:
    """Stateful cursor over a scan's template tokens."""

    def __init__(self, scan: Scan) -> None:
        self._scan = scan
        self._tokens = scan.tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Cursor helpers
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self.current
        if token.type != TokenType.EOF:
            self._pos += 1
        return token

    def check(self, token_type: TokenType, value: Optional[str] = None) -> bool:
        token = self.current
        if token.type != token_type:
            return False
        return value is None or token.value == value

    def match(self, token_type: TokenType, value: Optional[str] = None) -> Optional[Token]:
        if self.check(token_type, value):
            return self.advance()
        return None

    def expect(self, token_type: TokenType, value: Optional[str] = None) -> Token:
        if not self.check(token_type, value):
            token = self.current
            want = value or token_type.value
            raise ParseError(
                f"expected {want!r} but found {token.value!r} at position {token.position}",
                position=token.position,
            )
        return self.advance()

    def match_keyword(self, *names: str) -> Optional[Token]:
        if self.current.is_keyword(*names):
            return self.advance()
        return None

    def expect_keyword(self, name: str) -> Token:
        if not self.current.is_keyword(name):
            token = self.current
            raise ParseError(
                f"expected keyword {name} but found {token.value!r} "
                f"at position {token.position}",
                position=token.position,
            )
        return self.advance()

    def expect_identifier(self) -> str:
        token = self.current
        if token.type == TokenType.IDENTIFIER:
            self.advance()
            return token.value
        # Non-reserved usage of keywords as identifiers (e.g. a column
        # named "type") is not supported; keep the dialect strict.
        raise ParseError(
            f"expected identifier but found {token.value!r} at position {token.position}",
            position=token.position,
        )

    def expect_integer(self) -> Tuple[int, int]:
        """An integer literal: its value and its slot."""
        if self.current.type not in (TokenType.NUMBER, TokenType.STRING):
            self.expect(TokenType.NUMBER)  # raises: no scalar literal here
        slot = self.advance().slot
        return self._scan.integer(slot), slot

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        token = self.current
        if token.is_keyword("EXPLAIN"):
            return self._parse_explain()
        if token.is_keyword("CREATE"):
            return self._parse_create_table()
        if token.is_keyword("DROP"):
            return self._parse_drop_table()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("SELECT"):
            return self._parse_select()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("SET"):
            return self._parse_set()
        if token.is_keyword("CHECKPOINT"):
            self.advance()
            self._finish()
            return Checkpoint()
        if token.is_keyword("SHOW"):
            return self._parse_show()
        raise ParseError(
            f"unsupported statement starting with {token.value!r}",
            position=token.position,
        )

    def _parse_explain(self) -> Explain:
        self.expect_keyword("EXPLAIN")
        analyze = bool(self.match_keyword("ANALYZE"))
        if not self.current.is_keyword("SELECT"):
            token = self.current
            raise ParseError(
                f"EXPLAIN supports only SELECT, found {token.value!r} "
                f"at position {token.position}",
                position=token.position,
            )
        return Explain(statement=self._parse_select(), analyze=analyze)

    def _parse_show(self) -> ShowSlowQueries:
        self.expect_keyword("SHOW")
        self.expect_keyword("SLOW")
        self.expect_keyword("QUERIES")
        limit: Optional[int] = None
        if self.match_keyword("LIMIT"):
            limit = self.expect_integer()[0]
        self._finish()
        return ShowSlowQueries(limit=limit)

    def _finish(self) -> None:
        self.match(TokenType.SEMICOLON)
        token = self.current
        if token.type != TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input {token.value!r} at position {token.position}",
                position=token.position,
            )

    # -- CREATE TABLE ---------------------------------------------------
    def _parse_create_table(self) -> CreateTable:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.match_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_identifier()
        self.expect(TokenType.LPAREN)
        columns: List[ColumnDef] = []
        indexes: List[IndexDef] = []
        while True:
            if self.match_keyword("INDEX"):
                indexes.append(self._parse_index_def())
            else:
                columns.append(self._parse_column_def())
            if not self.match(TokenType.COMMA):
                break
        self.expect(TokenType.RPAREN)

        order_by: List[str] = []
        partition_by: List[Expression] = []
        cluster_by: Optional[str] = None
        cluster_buckets = 0
        while True:
            if self.match_keyword("ORDER"):
                self.expect_keyword("BY")
                order_by.append(self.expect_identifier())
                while self.match(TokenType.COMMA):
                    order_by.append(self.expect_identifier())
            elif self.match_keyword("PARTITION"):
                self.expect_keyword("BY")
                partition_by.extend(self._parse_partition_exprs())
            elif self.match_keyword("CLUSTER"):
                self.expect_keyword("BY")
                cluster_by = self.expect_identifier()
                self.expect_keyword("INTO")
                cluster_buckets = self.expect_integer()[0]
                self.expect_keyword("BUCKETS")
            else:
                break
        self._finish()
        return CreateTable(
            name=name,
            columns=columns,
            indexes=indexes,
            order_by=order_by,
            partition_by=partition_by,
            cluster_by=cluster_by,
            cluster_buckets=cluster_buckets,
            if_not_exists=if_not_exists,
        )

    def _parse_partition_exprs(self) -> List[Expression]:
        expressions: List[Expression] = []
        if self.match(TokenType.LPAREN):
            expressions.append(self.parse_expression())
            while self.match(TokenType.COMMA):
                expressions.append(self.parse_expression())
            self.expect(TokenType.RPAREN)
        else:
            expressions.append(self.parse_expression())
        return expressions

    def _parse_column_def(self) -> ColumnDef:
        name = self.expect_identifier()
        type_name = self.expect_identifier()
        type_args: Tuple[str, ...] = ()
        if self.match(TokenType.LPAREN):
            args: List[str] = []
            while not self.check(TokenType.RPAREN):
                args.append(self.advance().value)
                self.match(TokenType.COMMA)
            self.expect(TokenType.RPAREN)
            type_args = tuple(args)
        return ColumnDef(name=name, type_name=type_name, type_args=type_args)

    def _parse_index_def(self) -> IndexDef:
        name = self.expect_identifier()
        column = self.expect_identifier()
        self.expect_keyword("TYPE")
        index_type = self.expect_identifier()
        options: Tuple[str, ...] = ()
        if self.match(TokenType.LPAREN):
            collected: List[str] = []
            while not self.check(TokenType.RPAREN):
                collected.append(self.advance().value)
                self.match(TokenType.COMMA)
            self.expect(TokenType.RPAREN)
            options = tuple(collected)
        return IndexDef(name=name, column=column, index_type=index_type, options=options)

    # -- DROP TABLE -----------------------------------------------------
    def _parse_drop_table(self) -> DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.match_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self.expect_identifier()
        self._finish()
        return DropTable(name=name, if_exists=if_exists)

    # -- INSERT ----------------------------------------------------------
    def _parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: List[str] = []
        if self.match(TokenType.LPAREN):
            columns.append(self.expect_identifier())
            while self.match(TokenType.COMMA):
                columns.append(self.expect_identifier())
            self.expect(TokenType.RPAREN)
        if self.match_keyword("CSV"):
            self.expect_keyword("INFILE")
            path = self.expect(TokenType.STRING).value
            self._finish()
            return Insert(table=table, columns=columns, infile=path)
        self.expect_keyword("VALUES")
        rows: List[Tuple[Any, ...]] = []
        while True:
            self.expect(TokenType.LPAREN)
            row: List[Any] = []
            while not self.check(TokenType.RPAREN):
                row.append(self._parse_insert_value())
                self.match(TokenType.COMMA)
            self.expect(TokenType.RPAREN)
            rows.append(tuple(row))
            if not self.match(TokenType.COMMA):
                break
        self._finish()
        return Insert(table=table, columns=columns, rows=rows)

    def _parse_insert_value(self) -> Any:
        expression = self.parse_expression()
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, VectorLiteral):
            return list(expression.values)
        if isinstance(expression, UnaryOp) and expression.op == "-":
            inner = expression.operand
            if isinstance(inner, Literal) and isinstance(inner.value, (int, float)):
                return -inner.value
        raise ParseError("INSERT values must be literals")

    # -- UPDATE / DELETE / SET -------------------------------------------
    def _parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments: List[Tuple[str, Expression]] = []
        while True:
            column = self.expect_identifier()
            self.expect(TokenType.OPERATOR, "=")
            assignments.append((column, self.parse_expression()))
            if not self.match(TokenType.COMMA):
                break
        where = None
        if self.match_keyword("WHERE"):
            where = self.parse_expression()
        self._finish()
        return Update(table=table, assignments=assignments, where=where)

    def _parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        where = None
        if self.match_keyword("WHERE"):
            where = self.parse_expression()
        self._finish()
        return Delete(table=table, where=where)

    def _parse_set(self) -> SetStatement:
        self.expect_keyword("SET")
        name = self.expect_identifier()
        self.expect(TokenType.OPERATOR, "=")
        value_expr = self.parse_expression()
        if isinstance(value_expr, Literal):
            value = value_expr.value
        elif isinstance(value_expr, ColumnRef):
            value = value_expr.name  # bare words like `SET mode = auto`
        else:
            raise ParseError("SET value must be a literal")
        self._finish()
        return SetStatement(name=name, value=value)

    # -- SELECT ----------------------------------------------------------
    def _parse_select(self) -> Select:
        self.expect_keyword("SELECT")
        items: List[SelectItem] = []
        while True:
            if self.check(TokenType.OPERATOR, "*"):
                self.advance()
                items.append(SelectItem(expression=ColumnRef("*")))
            else:
                expression = self.parse_expression()
                alias = None
                if self.match_keyword("AS"):
                    alias = self.expect_identifier()
                items.append(SelectItem(expression=expression, alias=alias))
            if not self.match(TokenType.COMMA):
                break
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        # Time travel: FROM <table> AS OF <manifest_id>.  Unambiguous
        # because the grammar has no table aliases.
        as_of = limit = as_of_slot = limit_slot = offset_slot = None
        if self.match_keyword("AS"):
            self.expect_keyword("OF")
            as_of, as_of_slot = self.expect_integer()
        where = None
        if self.match_keyword("WHERE"):
            where = self.parse_expression()
        order_by: List[OrderByItem] = []
        if self.match_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expression = self.parse_expression()
                alias = None
                if self.match_keyword("AS"):
                    alias = self.expect_identifier()
                ascending = True
                if self.match_keyword("DESC"):
                    ascending = False
                else:
                    self.match_keyword("ASC")
                order_by.append(
                    OrderByItem(expression=expression, alias=alias, ascending=ascending)
                )
                if not self.match(TokenType.COMMA):
                    break
        offset = 0
        if self.match_keyword("LIMIT"):
            limit, limit_slot = self.expect_integer()
            if self.match_keyword("OFFSET"):
                offset, offset_slot = self.expect_integer()
        self._finish()
        return Select(
            items=items,
            table=table,
            where=where,
            order_by=order_by,
            limit=limit,
            offset=offset,
            as_of=as_of,
            limit_slot=limit_slot,
            offset_slot=offset_slot,
            as_of_slot=as_of_slot,
        )

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.match_keyword("OR"):
            left = BinaryOp("or", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.match_keyword("AND"):
            left = BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.match_keyword("NOT"):
            return UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        negated = bool(self.match_keyword("NOT"))
        if self.match_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return Between(operand=left, low=low, high=high, negated=negated)
        if self.match_keyword("IN"):
            self.expect(TokenType.LPAREN)
            items: List[Expression] = [self.parse_expression()]
            while self.match(TokenType.COMMA):
                items.append(self.parse_expression())
            self.expect(TokenType.RPAREN)
            return InList(operand=left, items=tuple(items), negated=negated)
        if self.match_keyword("LIKE"):
            node = BinaryOp("like", left, self._parse_additive())
            return UnaryOp("not", node) if negated else node
        if self.match_keyword("REGEXP"):
            node = BinaryOp("regexp", left, self._parse_additive())
            return UnaryOp("not", node) if negated else node
        if negated:
            raise ParseError("dangling NOT before comparison")
        if self.current.type == TokenType.OPERATOR and self.current.value in (
            "=", "!=", "<>", "<", "<=", ">", ">=",
        ):
            op = self.advance().value
            if op == "<>":
                op = "!="
            return BinaryOp(op, left, self._parse_additive())
        if self.match_keyword("IS"):
            negated_is = bool(self.match_keyword("NOT"))
            self.expect_keyword("NULL")
            node = BinaryOp("is_null", left, Literal(None))
            return UnaryOp("not", node) if negated_is else node
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self.current.type == TokenType.OPERATOR and self.current.value in ("+", "-"):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self.current.type == TokenType.OPERATOR and self.current.value in ("*", "/", "%"):
            op = self.advance().value
            left = BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        if self.check(TokenType.OPERATOR, "-"):
            self.advance()
            return UnaryOp("-", self._parse_unary())
        if self.check(TokenType.OPERATOR, "+"):
            self.advance()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.current
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            self.advance()
            return Literal(self._scan.literals[token.slot], token.slot)
        if token.type == TokenType.VECTOR:
            self.advance()
            return VectorLiteral(self._scan.literals[token.slot], token.slot)
        if token.is_keyword("NULL"):
            self.advance()
            return Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return Literal(False)
        if token.type == TokenType.LPAREN:
            self.advance()
            inner = self.parse_expression()
            self.expect(TokenType.RPAREN)
            return inner
        if token.type == TokenType.IDENTIFIER:
            self.advance()
            if self.check(TokenType.LPAREN):
                self.advance()
                args: List[Expression] = []
                if not self.check(TokenType.RPAREN):
                    args.append(self.parse_expression())
                    while self.match(TokenType.COMMA):
                        args.append(self.parse_expression())
                self.expect(TokenType.RPAREN)
                return FunctionCall(name=token.value, args=tuple(args))
            return ColumnRef(name=token.value)
        raise ParseError(
            f"unexpected token {token.value!r} at position {token.position}",
            position=token.position,
        )


def parse_statement(sql: str, scan: Optional[Scan] = None) -> Statement:
    """Parse one SQL statement into its AST.

    ``scan`` is the statement's lexer pass when the caller already made
    one, so the text is lexed once.

    Raises
    ------
    ParseError
        With the offending source position on any syntax error.
    """
    if scan is None:
        scan = scan_statement(sql)
    if scan.error is not None:
        raise scan.error
    return _Parser(scan).parse_statement()
