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

The parser shares its lexer and token cursor with the OWL reader
(``fmc.lexer``): one regex scan, whose white-space group also swallows
comments, with line and column worked out only when an error is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .lexer import Cursor, Token, describe
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
)

KEYWORDS = frozenset({
    "feature", "mandatory", "optional", "or", "alternative",
    "attribute", "constraints", "requires", "excludes",
})

# A comment runs to the end of its line and is skipped with the white
# space; a comment that ends the text is where end of input is reported.
_TOKEN_RE = re.compile(
    r"""(?P<ws>(?:[ \t\r\n]+|\#[^\n]*(?=\n))+)
      | (?P<punct>[{}:])
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<eof>\#.*)
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    """Syntax or model error in DSL source, with 1-based line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class _FeatureRec:
    name: str
    parent: str | None
    variability: Variability
    group: int | None = None
    attributes: list[Attribute] = field(default_factory=list)


class _Parser(Cursor):
    """Tokens are (kind, value, offset); kind is "ident", "{", "}", ":" or "eof"."""

    def __init__(self, source: str):
        super().__init__(source, _TOKEN_RE, ParseError)
        self.records: list[_FeatureRec] = []
        self.by_name: dict[str, _FeatureRec] = {}
        self.groups: list[Group | None] = []
        self.constraints: list[CrossTreeConstraint] = []

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok[0] == "ident" and tok[1] in words

    def expect_name(self, what: str = "feature name") -> Token:
        tok = self.peek()
        if tok[0] != "ident":
            raise self.error(tok, f"expected {what}, got {describe(tok)}")
        if tok[1] in KEYWORDS:
            raise self.error(tok, f"'{tok[1]}' is a reserved keyword and cannot be used as a {what}")
        return self.advance()

    def parse_model(self) -> FeatureModel:
        tok = self.peek()
        if not self.at_keyword("feature"):
            raise self.error(tok, f"expected 'feature', got {describe(tok)}")
        self.advance()
        root_tok = self.expect_name()
        self.add_feature(root_tok, None, Variability.MANDATORY)
        if self.peek()[0] == "{":
            self.parse_body(root_tok[1])
        if self.at_keyword("constraints"):
            self.parse_constraints()
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error(tok, f"unexpected {describe(tok)} after model")

        features = tuple(
            Feature(r.name, r.parent, r.variability, r.group, tuple(r.attributes))
            for r in self.records)
        return FeatureModel(root_tok[1], features, tuple(self.groups),
                            tuple(self.constraints))

    def add_feature(self, tok: Token, parent: str | None,
                    variability: Variability, group: int | None = None) -> _FeatureRec:
        if tok[1] in self.by_name:
            raise self.error(tok, f"duplicate feature name '{tok[1]}'")
        rec = _FeatureRec(tok[1], parent, variability, group)
        self.records.append(rec)
        self.by_name[tok[1]] = rec
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
            if tok[0] == "}":
                self.advance()
                stack.pop()
                if intro is not None:
                    self.close_group(owner, intro, group_id, members)
                continue
            if tok[0] == "eof":
                unclosed = "unclosed group" if intro is not None else "unclosed '{'"
                raise self.error(tok, f"{unclosed}: expected '}}'")
            if intro is not None:
                name_tok = self.expect_name("group member name")
                members.append(name_tok[1])
                self.add_feature(name_tok, owner, Variability.GROUP_MEMBER, group_id)
            elif self.at_keyword("mandatory", "optional"):
                kind = Variability.MANDATORY if tok[1] == "mandatory" else Variability.OPTIONAL
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
                raise self.error(
                    tok, "expected 'mandatory', 'optional', 'or', 'alternative', "
                    f"'attribute', or '}}', got {describe(tok)}")
            if self.peek()[0] == "{":
                self.advance()
                stack.append((name_tok[1], None, None, None))

    def close_group(self, owner: str, intro: Token, group_id: int,
                    members: list[str]) -> None:
        kind = GroupKind.OR if intro[1] == "or" else GroupKind.ALTERNATIVE
        if len(members) < 2:
            raise self.error(intro, f"{kind.value} group under '{owner}' needs at least 2 members, "
                             f"found {len(members)}")
        self.groups[group_id] = Group(group_id, owner, kind, tuple(members))

    def parse_attribute(self, owner: str) -> None:
        self.advance()
        name_tok = self.expect_name("attribute name")
        self.expect(":")
        dt_tok = self.peek()
        if dt_tok[0] != "ident" or dt_tok[1] not in DATATYPES:
            raise self.error(
                dt_tok, f"expected attribute datatype (one of {', '.join(DATATYPES)}), "
                f"got {describe(dt_tok)}")
        self.advance()
        rec = self.by_name[owner]
        if any(a.name == name_tok[1] for a in rec.attributes):
            raise self.error(name_tok, f"duplicate attribute '{name_tok[1]}' on feature '{owner}'")
        rec.attributes.append(Attribute(name_tok[1], dt_tok[1]))

    def parse_constraints(self) -> None:
        self.advance()
        self.expect("{")
        while self.peek()[0] != "}":
            tok = self.peek()
            if tok[0] == "eof":
                raise self.error(tok, "unclosed constraints block: expected '}'")
            src_tok = self.expect_name()
            if src_tok[1] not in self.by_name:
                raise self.error(src_tok, f"unknown feature '{src_tok[1]}' in constraint")
            kind_tok = self.peek()
            if not self.at_keyword("requires", "excludes"):
                raise self.error(
                    kind_tok, f"expected 'requires' or 'excludes', got {describe(kind_tok)}")
            self.advance()
            kind = ConstraintKind.REQUIRES if kind_tok[1] == "requires" else ConstraintKind.EXCLUDES
            tgt_tok = self.expect_name()
            if tgt_tok[1] not in self.by_name:
                raise self.error(tgt_tok, f"unknown feature '{tgt_tok[1]}' in constraint")
            if src_tok[1] == tgt_tok[1]:
                raise self.error(
                    tgt_tok, f"constraint source and target are the same feature '{src_tok[1]}'")
            self.constraints.append(CrossTreeConstraint(kind, src_tok[1], tgt_tok[1]))
        self.advance()


def parse(source: str) -> FeatureModel:
    """Parse DSL source text into a validated FeatureModel.

    Feature order in the result is source (preorder) order. Raises
    ParseError with position information on any syntax or naming problem.
    """
    return _Parser(source).parse_model()


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
