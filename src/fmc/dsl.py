"""Textual DSL for feature models: parser and pretty-printer.

Grammar (whitespace-insensitive, ``#`` starts a line comment)::

    model       := "feature" IDENT body? constraintsBlock?
    body        := "{" (childDecl | attrDecl)* "}"
    childDecl   := ("mandatory" | "optional") IDENT body?
                 | ("or" | "alternative") "{" IDENT body? (IDENT body?)+ "}"
    attrDecl    := "attribute" IDENT ":" ("string"|"integer"|"decimal"|"boolean"|"date")
    constraintsBlock := "constraints" "{" (IDENT ("requires"|"excludes") IDENT)* "}"

Identifiers are names (``fmc.lexer.NAME``); the structural keywords
(``fmc.model.KEYWORDS``) are reserved, in text and in models built in
code. ``parse(to_source(m)) == m`` when m's features are in declaration
(preorder) order and its groups are listed and numbered 0, 1, ... in the
order of their first members; the parser renumbers any other group ids.

The parser shares its lexer and token cursor with the OWL reader
(``fmc.lexer``): the token texts come from one ``findall``, whose skipped
prefix takes white space and comments, and positions are worked out only
when an error is raised. Plain text is cut by one ``str.split()``
instead, which is the same list when the text is ASCII, holds no ``#``
and none of the control characters ``str.split()`` also splits at, and
every piece is a brace, a colon or one name; any other text, and every
error position, goes by the ``findall``. The parser compares token
texts, and keeps the index of a token it may report later (a group's
keyword, a duplicate name, a constraint's endpoints). A child or group
member is read in place: a name that is neither a keyword nor taken
becomes its ``Feature`` at once. Any other token there falls back to ``expect_name`` and
``add_feature``, which word every error, so messages, lines and columns
are the same on either path.
"""

from __future__ import annotations

from .lexer import NAME, Cursor, Lexicon, PositionedError, is_name_lines, read_source
from .model import (
    DATATYPES,
    KEYWORDS,
    Attribute,
    ConstraintKind,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    Group,
    GroupKind,
    Variability,
)

_PUNCTUATION = frozenset("{}:")
_NOT_NAMES = _PUNCTUATION | {""}
_RESERVED = _NOT_NAMES | KEYWORDS  # no token here names a feature
_CHILD_KINDS = {"mandatory": Variability.MANDATORY, "optional": Variability.OPTIONAL}
# In ASCII text str.split() also splits at the first six, which the DSL
# does not skip; '#' starts a comment.
_NOT_SPLIT = "\x0b\x0c\x1c\x1d\x1e\x1f#"


class ParseError(PositionedError):
    """Syntax or model error in DSL source, with 1-based line/column."""


class _Parser(Cursor):
    """Tokens are texts: an identifier, "{", "}", ":", or "" for end of input."""

    lexicon = Lexicon(
        skip=r"[ \t\r\n]*(?:\#[^\n]*\n[ \t\r\n]*)*",
        token=rf"[{{}}:]|{NAME}",
        # a comment that ends the text is where end of input is reported
        end=r"(?:\#[^\n]*)?\Z",
        other=r"[^ \t\r\n\#]",
    )
    error_cls = ParseError

    def __init__(self, source: str):
        super().__init__(source)
        self.by_name: dict[str, Feature] = {}  # in declaration order
        self.attributes: dict[str, dict[str, Attribute]] = {}  # by owner, then name
        self.groups: list[Group | None] = []
        self.constraints: list[CrossTreeConstraint] = []

    def _scan(self, text: str) -> list[str]:
        # One str.split() gives the tokens findall gives when the text is
        # ASCII, skips only what the lexicon skips, and every piece is one
        # token: a brace, a colon or a name. On the benchmark's 300-feature
        # consume model this scan takes 0.07 ms, the findall 0.20 ms.
        if text.isascii() and not any(c in text for c in _NOT_SPLIT):
            tokens = text.split()
            names = set(tokens)
            names -= _PUNCTUATION
            if is_name_lines("\n".join(names)):
                tokens.append("")
                return tokens
        return super()._scan(text)

    def expect_name(self, what: str = "feature name") -> int:
        """Step over a name; return its token index."""
        at = self.pos
        tok = self.tokens[at]
        if tok in _NOT_NAMES:
            raise self.expected(what)
        if tok in KEYWORDS:
            raise self.error(at, f"'{tok}' is a reserved keyword and cannot be used as a {what}")
        self.pos += 1
        return at

    def parse_model(self) -> FeatureModel:
        self.expect("feature")
        root_at = self.expect_name()
        self.add_feature(root_at, None, Variability.MANDATORY)
        root = self.tokens[root_at]
        if self.tokens[self.pos] == "{":
            self.parse_body(root)
        if self.tokens[self.pos] == "constraints":
            self.parse_constraints()
        self.expect_end("model")
        features = self.by_name
        for owner, attributes in self.attributes.items():  # completed once, at the end
            f = features[owner]
            features[owner] = Feature(f.name, f.parent, f.variability, f.group,
                                      tuple(attributes.values()))
        return FeatureModel(root, tuple(features.values()), tuple(self.groups),
                            tuple(self.constraints))

    def add_feature(self, at: int, parent: str | None,
                    variability: Variability, group: int | None = None) -> None:
        name = self.tokens[at]
        if name in self.by_name:
            raise self.error(at, f"duplicate feature name '{name}'")
        self.by_name[name] = Feature(name, parent, variability, group)

    def parse_body(self, owner: str) -> None:
        """Parse a ``{...}`` body with everything nested in it.

        Open bodies and groups sit on an explicit stack, so nesting depth is
        limited by memory, not by the interpreter's recursion limit. The
        frame being read is (owner, intro token index, group id, members),
        the last three None for a body; the stack holds the frames around it.
        A child or group member with a new name is read in place; any other
        token after ``mandatory`` or ``optional``, or in a group, goes to
        ``expect_name`` and ``add_feature``, which raise its error.
        """
        self.expect("{")
        tokens, by_name, groups = self.tokens, self.by_name, self.groups
        member = Variability.GROUP_MEMBER
        stack: list[tuple] = []
        intro = group_id = members = None
        pos = self.pos
        while True:
            tok = tokens[pos]
            if tok == "}":
                pos += 1
                if intro is not None:
                    self.close_group(owner, intro, group_id, members)
                if not stack:
                    break
                owner, intro, group_id, members = stack.pop()
                continue
            if intro is not None:
                name = tok
                if name in _RESERVED or name in by_name:
                    if name == "":
                        raise self.error(pos, "unclosed group: expected '}'")
                    self.pos = pos
                    # raises: a name that is no name, a keyword or a duplicate
                    self.add_feature(self.expect_name("group member name"), owner, member, group_id)
                by_name[name] = Feature(name, owner, member, group_id)
                members.append(name)
                pos += 1
            elif tok == "mandatory" or tok == "optional":
                kind = _CHILD_KINDS[tok]
                name = tokens[pos + 1]
                if name in _RESERVED or name in by_name:
                    self.pos = pos + 1
                    self.add_feature(self.expect_name(), owner, kind)  # raises, as above
                by_name[name] = Feature(name, owner, kind)
                pos += 2
            elif tok == "or" or tok == "alternative":
                self.pos = pos + 1
                self.expect("{")
                stack.append((owner, intro, group_id, members))
                intro, group_id, members = pos, len(groups), []
                groups.append(None)  # reserve the id; nested groups claim later ones
                pos = self.pos
                continue
            elif tok == "attribute":
                self.pos = pos
                self.parse_attribute(owner)
                pos = self.pos
                continue
            elif tok == "":
                raise self.error(pos, "unclosed '{': expected '}'")
            else:
                self.pos = pos
                raise self.expected(
                    "'mandatory', 'optional', 'or', 'alternative', 'attribute', or '}'")
            if tokens[pos] == "{":
                pos += 1
                stack.append((owner, intro, group_id, members))
                owner, intro, group_id, members = name, None, None, None
        self.pos = pos

    def close_group(self, owner: str, intro: int, group_id: int,
                    members: list[str]) -> None:
        kind = GroupKind.OR if self.tokens[intro] == "or" else GroupKind.ALTERNATIVE
        if len(members) < 2:
            raise self.error(intro, f"{kind.value} group under '{owner}' needs at least 2 members, "
                             f"found {len(members)}")
        self.groups[group_id] = Group(group_id, owner, kind, tuple(members))

    def parse_attribute(self, owner: str) -> None:
        self.pos += 1
        name_at = self.expect_name("attribute name")
        name = self.tokens[name_at]
        self.expect(":")
        datatype = self.tokens[self.pos]
        if datatype not in DATATYPES:
            raise self.expected(f"attribute datatype (one of {', '.join(DATATYPES)})")
        self.pos += 1
        attributes = self.attributes.setdefault(owner, {})
        if name in attributes:
            raise self.error(name_at, f"duplicate attribute '{name}' on feature '{owner}'")
        attributes[name] = Attribute(name, datatype)

    def parse_constraints(self) -> None:
        self.pos += 1
        self.expect("{")
        tokens = self.tokens
        while tokens[self.pos] != "}":
            if tokens[self.pos] == "":
                raise self.error(self.pos, "unclosed constraints block: expected '}'")
            source = tokens[self.endpoint()]
            kind_word = tokens[self.pos]
            if kind_word not in ("requires", "excludes"):
                raise self.expected("'requires' or 'excludes'")
            self.pos += 1
            kind = ConstraintKind.REQUIRES if kind_word == "requires" else ConstraintKind.EXCLUDES
            target_at = self.endpoint()
            target = tokens[target_at]
            if source == target:
                raise self.error(
                    target_at, f"constraint source and target are the same feature '{source}'")
            self.constraints.append(CrossTreeConstraint(kind, source, target))
        self.pos += 1

    def endpoint(self) -> int:
        """Step over a constraint's endpoint, a declared feature; return its index."""
        at = self.expect_name()
        if self.tokens[at] not in self.by_name:
            raise self.error(at, f"unknown feature '{self.tokens[at]}' in constraint")
        return at


def parse(source: str) -> FeatureModel:
    """Parse DSL source text into a validated FeatureModel.

    Feature order in the result is source (preorder) order. Raises
    ParseError with position information on any syntax or naming problem.
    """
    return _Parser(source).parse_model()


def parse_file(path) -> FeatureModel:
    return parse(read_source(path))


def to_source(model: FeatureModel) -> str:
    """Pretty-print a model in the DSL; parse(to_source(m)) == m when m's
    features and groups are in the order the module docstring states."""
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
