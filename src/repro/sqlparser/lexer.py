"""SQL lexer: one regex-driven scan per statement.

:func:`scan_statement` walks the text once and returns all a consumer of
it needs: the *template* token list the parser consumes (each literal,
a whole query vector included, is one slotted token), the literal vector
and the signature that keys the plan cache.  :func:`tokenize` is the
same grammar with nothing collapsed.  Keywords are recognized
case-insensitively but identifiers preserve their case.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import ParseError

KEYWORDS = {
    "CREATE", "TABLE", "DROP", "IF", "NOT", "EXISTS", "INDEX", "TYPE",
    "ORDER", "BY", "PARTITION", "CLUSTER", "INTO", "BUCKETS", "INSERT",
    "VALUES", "SELECT", "FROM", "WHERE", "AND", "OR", "LIMIT", "AS",
    "ASC", "DESC", "BETWEEN", "IN", "LIKE", "REGEXP", "UPDATE", "SET",
    "DELETE", "NULL", "TRUE", "FALSE", "IS", "OFFSET", "CSV", "INFILE",
    "EXPLAIN", "ANALYZE", "OF", "CHECKPOINT", "SHOW", "SLOW", "QUERIES",
}


class TokenType(enum.Enum):
    """Lexical category of a token."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    VECTOR = "vector"  # template only: a whole ``[...]`` literal
    OPERATOR = "operator"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"
    EOF = "eof"


@dataclass
class Token:
    """One lexed token with its source position for error messages; in
    a template, a literal's token carries its ``slot`` in the literal vector."""

    type: TokenType
    value: str
    position: int
    slot: int = -1

    def is_keyword(self, *names: str) -> bool:
        """Whether this token is one of the given keywords."""
        return self.type == TokenType.KEYWORD and self.value in names


# The token grammar, leading whitespace included.  ``vector`` takes a flat
# bracket of plain numbers in one match; any other bracket is lexed
# token by token.
_GRAMMAR = re.compile(
    r"""\s*(?:
     (?P<word>[^\W\d]\w*)
    |(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)
    |(?P<vector>\[[0-9eE.,\s-]*\])
    |(?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
    |(?P<skip>--[^\n]*\n?|$)
    |(?P<punct><=|>=|!=|<>|[=<>+\-*/%()\[\],;])
    )""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_PUNCTUATION = {kind.value: kind for kind in TokenType if len(kind.value) == 1}


@dataclass
class Scan:
    """One lexer pass over a statement.

    ``tokens`` is the template (EOF last) and ``literals`` the value of
    each slot.  ``signature`` is the statement's shape: the template with
    ``?`` for every number and string and ``[?]`` for every bracketed
    literal, minus the ``explain`` leading EXPLAIN [ANALYZE] tokens — so
    ``EXPLAIN q`` shares ``q``'s signature — and ``start`` is where that
    statement's own text begins.  A malformed literal does not stop the
    scan (the shape is still well defined): ``error`` holds the first,
    for whoever goes on to use the values.
    """

    tokens: List[Token]
    literals: List[Any]
    signature: str
    explain: int = 0
    start: int = 0
    error: Optional[ParseError] = None

    def integer(self, slot: int) -> int:
        """The literal in ``slot``, which the grammar needs integral."""
        value = self.literals[slot]
        if type(value) is not int:
            position = next(t.position for t in self.tokens if t.slot == slot)
            raise ParseError(
                f"expected an integer but found {value!r} at position {position}",
                position=position,
            )
        return value


def _number(token: Token, real: bool = False) -> Any:
    """A NUMBER token's value: a float if ``real`` or it has a fraction
    or an exponent, else an int."""
    text = token.value
    try:
        if real or "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)
    except ValueError:
        raise ParseError(
            f"malformed number {text!r} at position {token.position}",
            position=token.position,
        ) from None


def _token(sql: str, pos: int, bulk: bool = False) -> Tuple[Optional[Token], int]:
    """The token at ``pos`` (None for a comment or the end) and where the
    next one starts.  Only with ``bulk`` is a flat bracket of plain
    numbers one VECTOR token."""
    m = _GRAMMAR.match(sql, pos)
    if m is None:
        pos = len(sql) - len(sql[pos:].lstrip())
        if sql[pos] in "'\"":
            raise ParseError(f"unterminated string starting at {pos}", position=pos)
        raise ParseError(
            f"unexpected character {sql[pos]!r} at position {pos}", position=pos
        )
    kind = m.lastgroup
    pos, end = m.span(kind)
    text = sql[pos:end]
    if kind == "skip":
        return None, end
    if kind == "word":
        upper = text.upper()
        if upper in KEYWORDS:
            return Token(TokenType.KEYWORD, upper, pos), end
        return Token(TokenType.IDENTIFIER, text, pos), end
    if kind == "number":
        return Token(TokenType.NUMBER, text, pos), end
    if kind == "string":
        body = text[1:-1]
        return Token(TokenType.STRING, _ESCAPE.sub(r"\1", body), pos), end
    if kind == "vector":
        if bulk:
            return Token(TokenType.VECTOR, text, pos), end
        text, end = "[", pos + 1
    return Token(_PUNCTUATION.get(text, TokenType.OPERATOR), text, pos), end


def _tokens(sql: str, pos: int = 0, depth: float = float("inf")) -> Tuple[List[Token], int]:
    """The fine-grained tokens from ``pos`` up to the bracket that closes
    ``depth`` open ones — by default, or if it never comes, up to the end
    and an EOF token — and where they stop."""
    tokens: List[Token] = []
    while depth and pos < len(sql):
        token, pos = _token(sql, pos)
        if token is not None:
            tokens.append(token)
            depth += (token.type == TokenType.LBRACKET) - (
                token.type == TokenType.RBRACKET)
    if depth:
        tokens.append(Token(TokenType.EOF, "", len(sql)))
    return tokens, pos


def _vector(inner: List[Token]) -> Tuple[float, ...]:
    """The vector a bracket's tokens spell: numbers, each optionally
    negated and optionally followed by a comma."""
    values: List[float] = []
    at = 0
    while inner[at].type != TokenType.RBRACKET:
        negative = inner[at].type == TokenType.OPERATOR and inner[at].value == "-"
        token = inner[at + negative]
        if token.type != TokenType.NUMBER:
            raise ParseError(
                f"expected 'number' but found {token.value!r} "
                f"at position {token.position}",
                position=token.position,
            )
        value = _number(token, real=True)
        values.append(-value if negative else value)
        at += negative + 1
        at += inner[at].type == TokenType.COMMA
    return tuple(values)


def scan_statement(sql: str) -> Scan:
    """Lex ``sql`` once into its template, literal vector and signature.

    Raises
    ------
    ParseError
        On unterminated strings or unexpected characters.
    """
    tokens: List[Token] = []
    literals: List[Any] = []
    parts: List[str] = []
    error: Optional[ParseError] = None
    # Enum member lookups are slow enough to show in this loop.
    number, string, vector, bracket = (
        TokenType.NUMBER, TokenType.STRING, TokenType.VECTOR, TokenType.LBRACKET
    )
    pos, n = 0, len(sql)
    while pos < n:
        token, pos = _token(sql, pos, bulk=True)
        if token is None:
            continue
        kind, value, inner = token.type, None, None
        if kind is vector or kind is bracket:
            if kind is vector:
                try:
                    value = tuple(map(float, token.value[1:-1].split(",")))
                except ValueError:
                    pass  # commas are optional, a sign may stand apart, ...
            token = Token(vector, "[?]", token.position)
            if value is None:
                inner, pos = _tokens(sql, token.position + 1, depth=1)
        try:
            if inner is not None:
                value = _vector(inner)
            elif kind is number:
                value = _number(token)
            elif kind is string:
                value = token.value
        except ParseError as exc:
            error, value = error or exc, ()
        if value is None:
            parts.append(token.value)
        else:
            token.slot = len(literals)
            literals.append(value)
            parts.append("[?]" if kind is vector or kind is bracket else "?")
        tokens.append(token)
    tokens.append(Token(TokenType.EOF, "", n))
    explain = 0
    if tokens[0].is_keyword("EXPLAIN"):
        explain = 2 if tokens[1].is_keyword("ANALYZE") else 1
    return Scan(
        tokens, literals, " ".join(parts[explain:]), explain,
        tokens[explain].position, error,
    )


def tokenize(sql: str) -> List[Token]:
    """Lex ``sql`` into fine-grained tokens, ending with an EOF token.

    Raises
    ------
    ParseError
        On unterminated strings or unexpected characters.
    """
    return _tokens(sql)[0]
