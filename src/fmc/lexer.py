"""The lexer and token cursor shared by the DSL and OWL functional-syntax parsers.

A language is a token regex with named groups plus an error class taking
``(message, line, column)``. One ``finditer`` scan yields tokens
``(kind, value, offset)``: ``ws`` matches are skipped, a ``punct`` token's
kind is its text, any other kind is its group's name, and a final ``eof``
token sits at the end of the text or where an ``eof`` group matched. Line
and column are worked out from the offset only when an error is raised.
"""

from __future__ import annotations

Token = tuple[str, str, int]  # (kind, value, offset)


def describe(tok: Token) -> str:
    return "end of input" if tok[0] == "eof" else f"'{tok[1]}'"


class Cursor:
    """A parser's position in the token list of ``text``."""

    def __init__(self, text: str, token_re, error_cls: type):
        self.text = text
        self.error_cls = error_cls
        tokens: list[Token] = []
        pos, end = 0, len(text)
        for m in token_re.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
            kind = m.lastgroup
            if kind == "eof":
                end = m.start()
            elif kind != "ws":
                value = m.group(kind)
                tokens.append((value if kind == "punct" else kind, value, m.start()))
        if pos != len(text):
            raise self.error(("", "", pos), f"unexpected character {text[pos]!r}")
        tokens.append(("eof", "", end))
        self.tokens = tokens
        self.pos = 0

    def error(self, tok: Token, message: str, cls: type | None = None) -> Exception:
        offset = tok[2]
        line_start = self.text.rfind("\n", 0, offset) + 1
        return (cls or self.error_cls)(
            message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.error(tok, f"expected '{kind}', got {describe(tok)}")
        self.pos += 1
        return tok
