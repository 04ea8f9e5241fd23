"""The lexer and token cursor shared by the DSL and OWL functional-syntax parsers.

A language is a ``Lexicon``: what it skips before a token (white space,
and comments in the DSL), the alternatives of a valid token, how the text
may end, and a one-character catch-all. One C-level ``findall`` of
``skip(token|end|other)`` gives the token texts, and nothing else: a
token's kind follows from its text, and ``""`` is the end of input.
Every position matches one of the alternatives, so ``findall`` never
skips ahead. A catch-all token is an unexpected character, raised before
parsing starts. Offsets, and from them line and column, are worked out
only when an error is raised: by a ``finditer`` over the same regex to
the token's index. A reader may get the same list faster where it can
show it is the same: the DSL cuts plain text with one ``str.split()``
(``fmc.dsl``), and the ``findall`` still defines the tokens and every
error position. ``read_source`` reads a model, configuration or OWL
file and drops one leading byte order mark.
"""

from __future__ import annotations

import re

# A name: a DSL identifier, a feature or attribute name, an OWL entity
# name. Names double as OWL names and scaffold identifiers, so they need
# no escaping anywhere.
NAME = r"[A-Za-z][A-Za-z0-9_]*"
is_name = re.compile(NAME).fullmatch
# names one a line: many names checked in one call
is_name_lines = re.compile(rf"{NAME}(?:\n{NAME})*").fullmatch

# A character of an IRI, written between angle brackets in OWL text:
# neither bracket, no white space, and no lone surrogate, which no UTF-8
# file can hold.
IRI_CHAR = r"[^<>\s\ud800-\udfff]"


def read_source(path) -> str:
    """The text of a UTF-8 file, without one leading byte order mark.

    Not ``encoding="utf-8-sig"``: its decoder reads a file of only the
    first one or two bytes of the mark as empty text, and counts the
    offset in a ``UnicodeDecodeError`` from after the mark.
    """
    with open(path, encoding="utf-8") as fh:
        return fh.read().removeprefix("\ufeff")


class PositionedError(Exception):
    """An error at a 1-based line and column of a text."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class Lexicon:
    """The regexes of one language, from its pattern parts.

    ``end`` matches at the end of the text only, and ``other`` matches
    exactly one character wherever no other part does, so every position
    after ``skip`` matches, and a token of any other length is no
    catch-all. Use no possessive quantifier or atomic group: they
    need Python 3.11.
    """

    def __init__(self, skip: str, token: str, end: str, other: str):
        self.scan_re = re.compile(f"(?:{skip})({token}|{end}|{other})")
        self.token_re = re.compile(token)
        self.end_re = re.compile(end)


def describe(token: str) -> str:
    """How an error names a token: its text in quotes, an IRI without its
    brackets, and a compound token such as OWL's ``DisjointClasses(:A :B)``
    by its text up to ``(``, the word it starts with. ``(`` itself is
    shown as it is."""
    if not token:
        return "end of input"
    if token[0] == "<":  # an IRI, shown without its brackets
        return f"'{token[1:-1]}'"
    return f"'{token.partition('(')[0] or token}'"


class Cursor:
    """A parser's position in the token texts of ``text``.

    A subclass sets ``lexicon`` and ``error_cls``, a ``PositionedError``
    subclass. Parsers keep the index of a token they may report an error
    on later; ``expected`` and ``expect_end`` word the errors on the
    current one.
    """

    lexicon: Lexicon
    error_cls: type[PositionedError]

    def __init__(self, text: str):
        self.text = text
        self.tokens = self._scan(text)
        self.pos = 0

    def _scan(self, text: str) -> list[str]:
        """The token texts of ``text``, the last one ``""``; an unexpected
        character raises its error."""
        lexicon = self.lexicon
        tokens = lexicon.scan_re.findall(text)
        # The match that reaches the end of the text is the end of input.
        # When it is not empty, findall adds one empty match after it.
        if len(tokens) > 1 and lexicon.end_re.fullmatch(tokens[-2]):
            tokens.pop()
        tokens[-1] = ""
        # a catch-all token is one character: only the distinct ones of
        # those need a look, picked out without a set of every token, which
        # would hash every distinct token text of a long text
        one_character = {t for t in tokens if len(t) == 1}
        unexpected = {t for t in one_character if not lexicon.token_re.fullmatch(t)}
        if unexpected:
            at = next(i for i, t in enumerate(tokens) if t in unexpected)
            raise self.error(at, f"unexpected character {tokens[at]!r}")
        return tokens

    def error(self, index: int, message: str,
              cls: type[PositionedError] | None = None) -> PositionedError:
        matches = self.lexicon.scan_re.finditer(self.text)
        for _ in range(index):
            next(matches)
        offset = next(matches).start(1)
        line_start = self.text.rfind("\n", 0, offset) + 1
        return (cls or self.error_cls)(
            message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def expected(self, what: str) -> PositionedError:
        """The error for the current token, where ``what`` should be."""
        return self.error(self.pos, f"expected {what}, got {describe(self.tokens[self.pos])}")

    def expect(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.expected(f"'{text}'")
        self.pos += 1

    def expect_end(self, after: str) -> None:
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(self.pos, f"unexpected {describe(tok)} after {after}")
