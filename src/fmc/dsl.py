"""Textual DSL for feature models: parser and pretty-printer.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    model       := "feature" IDENT body? constraintsBlock?
    body        := "{" (childDecl | attrDecl)* "}"
    childDecl   := ("mandatory" | "optional") IDENT body?
                 | ("or" | "alternative") "{" IDENT body? (IDENT body?)+ "}"
    attrDecl    := "attribute" IDENT ":" ("string"|"integer"|"decimal"|"boolean"|"date")
    constraintsBlock := "constraints" "{" (IDENT ("requires"|"excludes") IDENT)* "}"

Identifiers match ``[A-Za-z][A-Za-z0-9_]*``. The structural keywords are
reserved and cannot name features. ``parse(to_source(m))`` reproduces ``m``
exactly for any model whose feature order is declaration (preorder) order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import (
    DATATYPES,
    Attribute,
    ConstraintKind,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    Group,
    GroupKind,
    Variability,
    validate,
)

KEYWORDS = frozenset({
    "feature", "mandatory", "optional", "or", "alternative",
    "attribute", "constraints", "requires", "excludes",
})

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class ParseError(Exception):
    """Syntax or model error in DSL source, with 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "{", "}", ":", "eof"
    value: str
    line: int
    column: int

    def describe(self) -> str:
        return "end of input" if self.kind == "eof" else f"'{self.value}'"


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < n and source[i] != "\n":
                i += 1
        elif ch in "{}:":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
        else:
            m = _IDENT_RE.match(source, i)
            if not m:
                raise ParseError(f"unexpected character {ch!r}", line, col)
            tokens.append(_Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


@dataclass
class _FeatureRec:
    name: str
    parent: str | None
    variability: Variability
    group: int | None = None
    attributes: list[Attribute] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.records: list[_FeatureRec] = []
        self.by_name: dict[str, _FeatureRec] = {}
        self.groups: list[Group | None] = []
        self.constraints: list[CrossTreeConstraint] = []

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.value in words

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected '{kind}', got {tok.describe()}", tok.line, tok.column)
        return self.advance()

    def expect_name(self, what: str = "feature name") -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected {what}, got {tok.describe()}", tok.line, tok.column)
        if tok.value in KEYWORDS:
            raise ParseError(
                f"'{tok.value}' is a reserved keyword and cannot be used as a {what}",
                tok.line, tok.column)
        return self.advance()

    def parse_model(self) -> FeatureModel:
        tok = self.peek()
        if not self.at_keyword("feature"):
            raise ParseError(f"expected 'feature', got {tok.describe()}", tok.line, tok.column)
        self.advance()
        root_tok = self.expect_name()
        self.add_feature(root_tok, None, Variability.MANDATORY)
        if self.peek().kind == "{":
            self.parse_body(root_tok.value)
        if self.at_keyword("constraints"):
            self.parse_constraints()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.describe()} after model", tok.line, tok.column)

        features = tuple(
            Feature(r.name, r.parent, r.variability, r.group, tuple(r.attributes))
            for r in self.records)
        model = FeatureModel(root_tok.value, features, tuple(self.groups),
                             tuple(self.constraints))
        validate(model)
        return model

    def add_feature(self, tok: _Token, parent: str | None,
                    variability: Variability, group: int | None = None) -> _FeatureRec:
        if tok.value in self.by_name:
            raise ParseError(f"duplicate feature name '{tok.value}'", tok.line, tok.column)
        rec = _FeatureRec(tok.value, parent, variability, group)
        self.records.append(rec)
        self.by_name[tok.value] = rec
        return rec

    def parse_body(self, owner: str) -> None:
        """Parse a ``{...}`` body with everything nested in it.

        Open bodies and groups sit on an explicit stack, so nesting depth is
        limited by memory, not by the interpreter's recursion limit. A frame
        is (owner, intro token, group id, members); the last three are None
        for a body.
        """
        self.expect("{")
        stack: list[tuple] = [(owner, None, None, None)]
        while stack:
            owner, intro, group_id, members = stack[-1]
            tok = self.peek()
            if tok.kind == "}":
                self.advance()
                stack.pop()
                if intro is not None:
                    self.close_group(owner, intro, group_id, members)
                continue
            if tok.kind == "eof":
                unclosed = "unclosed group" if intro is not None else "unclosed '{'"
                raise ParseError(f"{unclosed}: expected '}}'", tok.line, tok.column)
            if intro is not None:
                name_tok = self.expect_name("group member name")
                members.append(name_tok.value)
                self.add_feature(name_tok, owner, Variability.GROUP_MEMBER, group_id)
            elif self.at_keyword("mandatory", "optional"):
                kind = Variability.MANDATORY if tok.value == "mandatory" else Variability.OPTIONAL
                self.advance()
                name_tok = self.expect_name()
                self.add_feature(name_tok, owner, kind)
            elif self.at_keyword("or", "alternative"):
                self.advance()
                self.expect("{")
                stack.append((owner, tok, len(self.groups), []))
                self.groups.append(None)  # reserve the id; nested groups claim later ones
                continue
            elif self.at_keyword("attribute"):
                self.parse_attribute(owner)
                continue
            else:
                raise ParseError(
                    "expected 'mandatory', 'optional', 'or', 'alternative', "
                    f"'attribute', or '}}', got {tok.describe()}",
                    tok.line, tok.column)
            if self.peek().kind == "{":
                self.advance()
                stack.append((name_tok.value, None, None, None))

    def close_group(self, owner: str, intro: _Token, group_id: int,
                    members: list[str]) -> None:
        kind = GroupKind.OR if intro.value == "or" else GroupKind.ALTERNATIVE
        if len(members) < 2:
            raise ParseError(
                f"{kind.value} group under '{owner}' needs at least 2 members, found {len(members)}",
                intro.line, intro.column)
        self.groups[group_id] = Group(group_id, owner, kind, tuple(members))

    def parse_attribute(self, owner: str) -> None:
        self.advance()
        name_tok = self.expect_name("attribute name")
        self.expect(":")
        dt_tok = self.peek()
        if dt_tok.kind != "ident" or dt_tok.value not in DATATYPES:
            raise ParseError(
                f"expected attribute datatype (one of {', '.join(DATATYPES)}), "
                f"got {dt_tok.describe()}",
                dt_tok.line, dt_tok.column)
        self.advance()
        rec = self.by_name[owner]
        if any(a.name == name_tok.value for a in rec.attributes):
            raise ParseError(
                f"duplicate attribute '{name_tok.value}' on feature '{owner}'",
                name_tok.line, name_tok.column)
        rec.attributes.append(Attribute(name_tok.value, dt_tok.value))

    def parse_constraints(self) -> None:
        self.advance()
        self.expect("{")
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind == "eof":
                raise ParseError("unclosed constraints block: expected '}'", tok.line, tok.column)
            src_tok = self.expect_name()
            if src_tok.value not in self.by_name:
                raise ParseError(f"unknown feature '{src_tok.value}' in constraint",
                                 src_tok.line, src_tok.column)
            kind_tok = self.peek()
            if not self.at_keyword("requires", "excludes"):
                raise ParseError(f"expected 'requires' or 'excludes', got {kind_tok.describe()}",
                                 kind_tok.line, kind_tok.column)
            self.advance()
            kind = ConstraintKind.REQUIRES if kind_tok.value == "requires" else ConstraintKind.EXCLUDES
            tgt_tok = self.expect_name()
            if tgt_tok.value not in self.by_name:
                raise ParseError(f"unknown feature '{tgt_tok.value}' in constraint",
                                 tgt_tok.line, tgt_tok.column)
            if src_tok.value == tgt_tok.value:
                raise ParseError(
                    f"constraint source and target are the same feature '{src_tok.value}'",
                    tgt_tok.line, tgt_tok.column)
            self.constraints.append(CrossTreeConstraint(kind, src_tok.value, tgt_tok.value))
        self.advance()


def parse(source: str) -> FeatureModel:
    """Parse DSL source text into a validated FeatureModel.

    Feature order in the result is source (preorder) order. Raises
    ParseError with position information on any syntax or naming problem.
    """
    return _Parser(_tokenize(source)).parse_model()


def parse_file(path) -> FeatureModel:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def to_source(model: FeatureModel) -> str:
    """Pretty-print a model in the DSL; parse(to_source(m)) == m."""
    lines: list[str] = []
    _write_tree(model, lines)
    if model.constraints:
        lines.append("")
        lines.append("constraints {")
        for c in model.constraints:
            lines.append(f"  {c.source} {c.kind.value} {c.target}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def _write_tree(model: FeatureModel, lines: list[str]) -> None:
    # A stack of pending output: a str is a finished line, a tuple is a
    # (feature, depth, intro) still to expand. Iterative, so deep models
    # do not hit the interpreter's recursion limit.
    stack: list = [(model.feature(model.root), 0, "feature")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        feature, depth, intro = item
        indent = "  " * depth
        head = f"{indent}{intro} {feature.name}" if intro else f"{indent}{feature.name}"
        children = model.children(feature.name)
        if not feature.attributes and not children:
            lines.append(head)
            continue
        lines.append(head + " {")
        for attr in feature.attributes:
            lines.append(f"{indent}  attribute {attr.name} : {attr.datatype}")
        body: list = []  # in output order; pushed reversed
        printed: set[str] = set()
        for child in children:
            if child.name in printed:
                continue
            if child.variability is Variability.GROUP_MEMBER:
                group = model.group(child.group)
                body.append(f"{indent}  {group.kind.value} {{")
                body.extend((model.feature(m), depth + 2, None) for m in group.members)
                body.append(f"{indent}  }}")
                printed.update(group.members)
            else:
                body.append((child, depth + 1, child.variability.value))
        body.append(indent + "}")
        stack.extend(reversed(body))


def parse_configuration(text: str) -> set[str]:
    """Read a configuration file: one feature name per line.

    Blank lines and lines starting with '#' are ignored.
    """
    selected = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        selected.add(line)
    return selected
