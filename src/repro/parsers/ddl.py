"""Recursive-descent parser for a practical subset of SQL DDL.

Supported grammar (enough for real CREATE TABLE dumps and the query
fragments users paste into Schemr):

* ``CREATE TABLE [IF NOT EXISTS] [schema.]name ( ... );``
* column definitions with multi-word types (``DOUBLE PRECISION``),
  type parameters (``VARCHAR(100)``, ``DECIMAL(5,2)``) and the column
  constraints ``PRIMARY KEY``, ``NOT NULL``, ``NULL``, ``UNIQUE``,
  ``DEFAULT <literal>``, ``REFERENCES t(c)``, ``CHECK (...)``
* table constraints: ``PRIMARY KEY (...)``, ``UNIQUE (...)``,
  ``FOREIGN KEY (c) REFERENCES t(c)``, ``CONSTRAINT name <constraint>``,
  ``CHECK (...)``
* any number of statements per input; non-CREATE statements are skipped.

Everything parsed lands in the :mod:`repro.model` classes; foreign keys
whose target table is not part of the same input are dropped with a
warning list rather than failing, because query fragments are partial
by nature.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ParseError
from repro.model.elements import Attribute, Entity, ForeignKey
from repro.model.schema import Schema
from repro.parsers.sqltok import Token, TokenType, tokenize_sql

_COLUMN_CONSTRAINT_STARTERS = (
    "PRIMARY", "NOT", "NULL", "UNIQUE", "DEFAULT", "REFERENCES", "CHECK",
    "AUTO_INCREMENT", "AUTOINCREMENT", "COLLATE",
)
_TABLE_CONSTRAINT_STARTERS = ("PRIMARY", "UNIQUE", "FOREIGN", "CONSTRAINT",
                              "CHECK", "KEY", "INDEX")


@dataclass(slots=True)
class _PendingForeignKey:
    source_entity: str
    source_attribute: str
    target_entity: str
    target_attribute: str


@dataclass(slots=True)
class DdlParseResult:
    """Parsed schema plus foreign keys that referenced absent tables."""

    schema: Schema
    dangling_foreign_keys: list[str] = field(default_factory=list)


class _DdlParser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        i = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[i]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _expect_punct(self, value: str) -> Token:
        token = self._advance()
        if token.type is not TokenType.PUNCT or token.value != value:
            raise ParseError(f"expected {value!r}, found {token.value!r}",
                             line=token.line, column=token.column)
        return token

    def _expect_keyword(self, *keywords: str) -> Token:
        token = self._advance()
        if not token.is_keyword(*keywords):
            raise ParseError(
                f"expected {'/'.join(keywords)}, found {token.value!r}",
                line=token.line, column=token.column)
        return token

    def _expect_ident(self) -> Token:
        token = self._advance()
        if token.type is not TokenType.IDENT:
            raise ParseError(f"expected identifier, found {token.value!r}",
                             line=token.line, column=token.column)
        return token

    def _at_punct(self, value: str) -> bool:
        token = self._peek()
        return token.type is TokenType.PUNCT and token.value == value

    def _skip_parenthesized(self) -> None:
        """Consume a balanced ``( ... )`` group (CHECK bodies etc.)."""
        self._expect_punct("(")
        depth = 1
        while depth:
            token = self._advance()
            if token.type is TokenType.EOF:
                raise ParseError("unbalanced parentheses",
                                 line=token.line, column=token.column)
            if token.type is TokenType.PUNCT:
                if token.value == "(":
                    depth += 1
                elif token.value == ")":
                    depth -= 1

    def _skip_statement(self) -> None:
        """Consume tokens up to and including the next top-level ';'."""
        while True:
            token = self._advance()
            if token.type is TokenType.EOF:
                return
            if token.type is TokenType.PUNCT and token.value == ";":
                return

    # -- grammar -----------------------------------------------------------

    def parse(self, schema_name: str) -> DdlParseResult:
        schema = Schema(name=schema_name, source="ddl")
        pending_fks: list[_PendingForeignKey] = []
        while self._peek().type is not TokenType.EOF:
            token = self._peek()
            if token.is_keyword("CREATE") and self._peek(1).is_keyword("TABLE"):
                entity, fks = self._parse_create_table()
                # A re-declared table keeps its first definition, as a
                # dump with duplicates usually repeats identical DDL.
                if entity.name not in schema.entities:
                    schema.add_entity(entity)
                    pending_fks.extend(fks)
            else:
                self._skip_statement()
        dangling: list[str] = []
        for fk in pending_fks:
            self._attach_foreign_key(schema, fk, dangling)
        return DdlParseResult(schema=schema, dangling_foreign_keys=dangling)

    @staticmethod
    def _attach_foreign_key(schema: Schema, fk: _PendingForeignKey,
                            dangling: list[str]) -> None:
        description = (f"{fk.source_entity}.{fk.source_attribute} -> "
                       f"{fk.target_entity}.{fk.target_attribute}")
        target = schema.entities.get(fk.target_entity)
        if target is None:
            dangling.append(description)
            return
        # REFERENCES t  (no column) defaults to t's primary key, else its
        # first attribute.
        target_attribute = fk.target_attribute
        if not target_attribute:
            pk = [a.name for a in target.attributes if a.primary_key]
            if pk:
                target_attribute = pk[0]
            elif target.attributes:
                target_attribute = target.attributes[0].name
            else:
                dangling.append(description)
                return
        if not target.has_attribute(target_attribute):
            dangling.append(description)
            return
        schema.add_foreign_key(ForeignKey(
            source_entity=fk.source_entity,
            source_attribute=fk.source_attribute,
            target_entity=fk.target_entity,
            target_attribute=target_attribute,
        ))

    def _parse_create_table(self) -> tuple[Entity, list[_PendingForeignKey]]:
        self._expect_keyword("CREATE")
        self._expect_keyword("TABLE")
        if self._peek().is_keyword("IF"):
            self._advance()
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
        name = self._expect_ident().value
        if self._at_punct("."):  # schema-qualified: keep the table part
            self._advance()
            name = self._expect_ident().value
        entity = Entity(name=name)
        fks: list[_PendingForeignKey] = []
        self._expect_punct("(")
        while True:
            token = self._peek()
            if token.is_keyword(*_TABLE_CONSTRAINT_STARTERS):
                self._parse_table_constraint(entity, fks)
            else:
                self._parse_column(entity, fks)
            if self._at_punct(","):
                self._advance()
                continue
            break
        self._expect_punct(")")
        # trailing table options (ENGINE=..., etc.) up to ';'
        self._skip_statement_tail()
        return entity, fks

    def _skip_statement_tail(self) -> None:
        while True:
            token = self._peek()
            if token.type is TokenType.EOF:
                return
            if token.type is TokenType.PUNCT and token.value == ";":
                self._advance()
                return
            self._advance()

    def _parse_column(self, entity: Entity,
                      fks: list[_PendingForeignKey]) -> None:
        name_token = self._expect_ident()
        attribute = Attribute(name=name_token.value,
                              data_type=self._parse_type())
        while True:
            token = self._peek()
            if token.type is TokenType.PUNCT and token.value in (",", ")"):
                break
            if token.type is TokenType.EOF:
                break
            if token.is_keyword("PRIMARY"):
                self._advance()
                self._expect_keyword("KEY")
                attribute.primary_key = True
                attribute.nullable = False
            elif token.is_keyword("NOT"):
                self._advance()
                self._expect_keyword("NULL")
                attribute.nullable = False
            elif token.is_keyword("NULL"):
                self._advance()
                attribute.nullable = True
            elif token.is_keyword("UNIQUE", "AUTO_INCREMENT",
                                  "AUTOINCREMENT"):
                self._advance()
            elif token.is_keyword("COLLATE"):
                self._advance()
                self._advance()  # collation name
            elif token.is_keyword("DEFAULT"):
                self._advance()
                self._parse_default_value()
            elif token.is_keyword("CHECK"):
                self._advance()
                self._skip_parenthesized()
            elif token.is_keyword("REFERENCES"):
                self._advance()
                target, target_attr = self._parse_references_target()
                fks.append(_PendingForeignKey(
                    source_entity=entity.name,
                    source_attribute=attribute.name,
                    target_entity=target,
                    target_attribute=target_attr,
                ))
            elif token.is_keyword("CONSTRAINT"):
                self._advance()
                self._advance()  # constraint name; the constraint itself
                # follows and is handled by the next loop turn.
            else:
                raise ParseError(
                    f"unexpected token {token.value!r} in column definition",
                    line=token.line, column=token.column)
        entity.add_attribute(attribute)

    def _parse_default_value(self) -> None:
        token = self._advance()
        if token.type is TokenType.IDENT and self._at_punct("("):
            self._skip_parenthesized()  # DEFAULT now() and friends
        elif token.type is TokenType.PUNCT and token.value == "-":
            self._advance()  # negative numeric default

    def _parse_type(self) -> str:
        """Type name, possibly multi-word, with optional parameters."""
        token = self._peek()
        if token.type is not TokenType.IDENT or token.is_keyword(
                *_COLUMN_CONSTRAINT_STARTERS):
            return ""  # typeless column (SQLite allows this)
        parts = [self._advance().value]
        # multi-word types: DOUBLE PRECISION, CHARACTER VARYING, ...
        follow = self._peek()
        if follow.is_keyword("PRECISION", "VARYING"):
            parts.append(self._advance().value)
        type_name = " ".join(parts)
        if self._at_punct("("):
            self._advance()
            params: list[str] = []
            while not self._at_punct(")"):
                token = self._advance()
                if token.type is TokenType.EOF:
                    raise ParseError("unterminated type parameters",
                                     line=token.line, column=token.column)
                if not (token.type is TokenType.PUNCT and token.value == ","):
                    params.append(token.value)
            self._advance()  # ')'
            type_name = f"{type_name}({','.join(params)})"
        return type_name

    def _parse_table_constraint(self, entity: Entity,
                                fks: list[_PendingForeignKey]) -> None:
        token = self._peek()
        if token.is_keyword("CONSTRAINT"):
            self._advance()
            self._expect_ident()  # constraint name
            token = self._peek()
        if token.is_keyword("PRIMARY"):
            self._advance()
            self._expect_keyword("KEY")
            for column in self._parse_column_list():
                if entity.has_attribute(column):
                    attr = entity.attribute(column)
                    attr.primary_key = True
                    attr.nullable = False
        elif token.is_keyword("UNIQUE", "KEY", "INDEX"):
            self._advance()
            if self._peek().type is TokenType.IDENT:
                self._advance()  # optional index name
            self._parse_column_list()
        elif token.is_keyword("CHECK"):
            self._advance()
            self._skip_parenthesized()
        elif token.is_keyword("FOREIGN"):
            self._advance()
            self._expect_keyword("KEY")
            columns = self._parse_column_list()
            self._expect_keyword("REFERENCES")
            target, target_attr = self._parse_references_target()
            for column in columns:
                fks.append(_PendingForeignKey(
                    source_entity=entity.name,
                    source_attribute=column,
                    target_entity=target,
                    target_attribute=target_attr,
                ))
        else:
            raise ParseError(
                f"unexpected token {token.value!r} in table constraint",
                line=token.line, column=token.column)

    def _parse_column_list(self) -> list[str]:
        self._expect_punct("(")
        columns = [self._expect_ident().value]
        while self._at_punct(","):
            self._advance()
            columns.append(self._expect_ident().value)
        self._expect_punct(")")
        return columns

    def _parse_references_target(self) -> tuple[str, str]:
        target = self._expect_ident().value
        if self._at_punct("."):
            self._advance()
            target = self._expect_ident().value
        target_attr = ""
        if self._at_punct("("):
            columns = self._parse_column_list()
            target_attr = columns[0]
        # ON DELETE/UPDATE actions
        while self._peek().is_keyword("ON"):
            self._advance()
            self._expect_keyword("DELETE", "UPDATE")
            action = self._advance()
            if action.is_keyword("NO", "SET"):
                self._advance()  # ACTION / NULL / DEFAULT
        return target, target_attr


def parse_ddl(text: str, schema_name: str = "ddl_schema") -> Schema:
    """Parse DDL text into a :class:`Schema`.

    Raises :class:`ParseError` for malformed input or when no CREATE
    TABLE statement is present.  See :func:`parse_ddl_result` for the
    variant that also reports dangling foreign keys.
    """
    return parse_ddl_result(text, schema_name).schema


def parse_ddl_result(text: str,
                     schema_name: str = "ddl_schema") -> DdlParseResult:
    """Parse DDL and return the schema plus dangling-FK diagnostics."""
    result = _DdlParser(tokenize_sql(text)).parse(schema_name)
    if not result.schema.entities:
        raise ParseError("input contains no CREATE TABLE statement")
    return result
