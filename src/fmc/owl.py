"""Neutral OWL 2 axiom data model with a functional-style serializer/parser.

Supported subset: class/object-property/data-property declarations,
SubClassOf, EquivalentClasses (binary), DisjointClasses (binary),
ObjectPropertyRange, DataPropertyDomain, DataPropertyRange, and class
expressions built from named classes, owl:Thing, ObjectComplementOf,
ObjectIntersectionOf, ObjectUnionOf, ObjectSomeValuesFrom and
ObjectAllValuesFrom. ``parse_functional`` inverts ``serialize_functional``.

An ``Ontology`` validates itself when it is built (``validate_ontology``),
so the serializer and the scaffold need not check again; an axiom that
uses an undeclared name raises ``UndeclaredNameError``.

Validation is one pass over the axioms (``_checked_axioms``) that yields
each axiom once it is checked, and rendering (``_lines``) makes one line
per axiom. ``fmc compile`` chains the two over the compiler's axiom
stream and writes each line as it comes (``_write_functional``), so no
axiom is kept; the output is opened only once the whole stream has
checked out. ``serialize_functional`` and ``write_functional`` use the
same renderer on a built ``Ontology``.

The reader shares its lexer and token cursor with the DSL parser
(``fmc.lexer``): one regex scan, with line and column worked out only
when an error is raised. Class expressions may nest at most
``MAX_EXPR_DEPTH`` levels deep.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

from .lexer import Cursor, Token, describe


class OwlError(Exception):
    pass


class UndeclaredNameError(OwlError):
    """An axiom references a name with no declaration in the ontology."""


class OwlSyntaxError(OwlError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsupportedConstructError(OwlSyntaxError):
    """Valid-looking OWL construct outside the supported subset."""


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_DATATYPE_RE = re.compile(r"xsd:[A-Za-z][A-Za-z0-9]*\Z")


# --- class expressions -----------------------------------------------------

# Class expressions nest at most this deep. The compiler writes at most
# 4 levels; the bound keeps the recursive reader, validator and serializer
# far from the interpreter's recursion limit.
MAX_EXPR_DEPTH = 100


class ClassExpression:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Thing(ClassExpression):
    """owl:Thing, the top concept."""


THING = Thing()


@dataclass(frozen=True, slots=True)
class NamedClass(ClassExpression):
    name: str


@dataclass(frozen=True, slots=True)
class ComplementOf(ClassExpression):
    operand: ClassExpression


@dataclass(frozen=True, slots=True)
class IntersectionOf(ClassExpression):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise OwlError("ObjectIntersectionOf needs at least 2 operands")


@dataclass(frozen=True, slots=True)
class UnionOf(ClassExpression):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise OwlError("ObjectUnionOf needs at least 2 operands")


@dataclass(frozen=True, slots=True)
class SomeValuesFrom(ClassExpression):
    property: str
    filler: ClassExpression


@dataclass(frozen=True, slots=True)
class AllValuesFrom(ClassExpression):
    property: str
    filler: ClassExpression


# --- axioms ----------------------------------------------------------------

class EntityKind(Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"


class Axiom:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Declaration(Axiom):
    kind: EntityKind
    name: str


@dataclass(frozen=True, slots=True)
class SubClassOf(Axiom):
    sub: ClassExpression
    sup: ClassExpression


@dataclass(frozen=True, slots=True)
class EquivalentClasses(Axiom):
    a: ClassExpression
    b: ClassExpression


@dataclass(frozen=True, slots=True)
class DisjointClasses(Axiom):
    a: NamedClass
    b: NamedClass


@dataclass(frozen=True, slots=True)
class ObjectPropertyRange(Axiom):
    property: str
    range: ClassExpression


@dataclass(frozen=True, slots=True)
class DataPropertyDomain(Axiom):
    property: str
    domain: NamedClass


@dataclass(frozen=True, slots=True)
class DataPropertyRange(Axiom):
    property: str
    datatype: str  # prefixed name, e.g. "xsd:decimal"


@dataclass(frozen=True, slots=True)
class Ontology:
    """An ontology whose names are declared: built only if it validates."""

    iri: str
    axioms: tuple[Axiom, ...]

    def __post_init__(self):
        validate_ontology(self)


# --- validation ------------------------------------------------------------

def validate_ontology(ontology: Ontology) -> None:
    """Check declaration closure: unique declarations per kind, every used
    name declared, names lexically valid. Raises OwlError subclasses: the
    first declaration error in axiom order if there is one, otherwise the
    first use error in axiom order. A name may be used before it is
    declared.
    """
    for _ in _checked_axioms(ontology.iri, ontology.axioms):
        pass


def _checked_axioms(iri: str, axioms: Iterable[Axiom]) -> Iterator[Axiom]:
    """Check the axioms in one pass, yielding each one once it is checked.

    Raises the error ``validate_ontology`` states. A declaration error is
    raised when it is met. A use may come before its declaration, so
    uses of names not declared yet, and the first other use error after
    them, are held until the stream ends; a later declaration error
    still comes first.
    """
    if not iri or any(ch in iri for ch in "<> \t\n"):
        raise OwlError(f"invalid ontology IRI {iri!r}")
    declared: dict[EntityKind, set[str]] = {kind: set() for kind in EntityKind}
    classes, object_properties, data_properties = declared.values()  # EntityKind order
    # (kind, name) for each use of a name not declared when it was met,
    # in use order; then the first other use error, if there is one
    held: list = []

    def check_expr(expr: ClassExpression, depth: int = 0) -> None:
        # depth counts the constructors around expr, as the reader does
        if isinstance(expr, NamedClass):
            if expr.name not in classes:
                held.append((EntityKind.CLASS, expr.name))
            return
        if isinstance(expr, Thing):
            return
        if depth == MAX_EXPR_DEPTH:
            raise OwlError(f"class expression nested more than {MAX_EXPR_DEPTH} levels deep")
        if isinstance(expr, ComplementOf):
            check_expr(expr.operand, depth + 1)
        elif isinstance(expr, (IntersectionOf, UnionOf)):
            for op in expr.operands:
                check_expr(op, depth + 1)
        elif isinstance(expr, (SomeValuesFrom, AllValuesFrom)):
            if expr.property not in object_properties:
                held.append((EntityKind.OBJECT_PROPERTY, expr.property))
            check_expr(expr.filler, depth + 1)
        else:
            raise OwlError(f"unknown class expression {expr!r}")

    def check_uses(axiom: Axiom) -> None:
        # DisjointClasses first: a compiled ontology is almost all of them
        if isinstance(axiom, DisjointClasses):
            check_expr(axiom.a)
            check_expr(axiom.b)
        elif isinstance(axiom, SubClassOf):
            check_expr(axiom.sub)
            check_expr(axiom.sup)
        elif isinstance(axiom, EquivalentClasses):
            check_expr(axiom.a)
            check_expr(axiom.b)
        elif isinstance(axiom, ObjectPropertyRange):
            if axiom.property not in object_properties:
                held.append((EntityKind.OBJECT_PROPERTY, axiom.property))
            check_expr(axiom.range)
        elif isinstance(axiom, DataPropertyDomain):
            if axiom.property not in data_properties:
                held.append((EntityKind.DATA_PROPERTY, axiom.property))
            check_expr(axiom.domain)
        elif isinstance(axiom, DataPropertyRange):
            if axiom.property not in data_properties:
                held.append((EntityKind.DATA_PROPERTY, axiom.property))
            if not _DATATYPE_RE.match(axiom.datatype):
                raise OwlError(f"unsupported datatype {axiom.datatype!r}")
        else:
            raise OwlError(f"unknown axiom {axiom!r}")

    failed = False  # a use error is held: no later use can be the first
    for axiom in axioms:
        if isinstance(axiom, Declaration):
            if not _NAME_RE.match(axiom.name):
                raise OwlError(f"invalid entity name {axiom.name!r}")
            names = declared[axiom.kind]
            if axiom.name in names:
                raise OwlError(f"duplicate {axiom.kind.value} declaration '{axiom.name}'")
            names.add(axiom.name)
        elif not failed:
            try:
                check_uses(axiom)
            except OwlError as exc:
                held.append(exc)
                failed = True
        yield axiom
    for use in held:
        if isinstance(use, OwlError):
            raise use
        kind, name = use
        if name not in declared[kind]:
            raise _undeclared(kind, name)


def _undeclared(kind: EntityKind, name: str) -> UndeclaredNameError:
    return UndeclaredNameError(f"{kind.value} '{name}' used but not declared")


# --- serialization ---------------------------------------------------------

def _render_expr(expr: ClassExpression) -> str:
    if isinstance(expr, NamedClass):
        return f":{expr.name}"
    if isinstance(expr, Thing):
        return "owl:Thing"
    if isinstance(expr, ComplementOf):
        return f"ObjectComplementOf({_render_expr(expr.operand)})"
    if isinstance(expr, IntersectionOf):
        return f"ObjectIntersectionOf({' '.join(_render_expr(e) for e in expr.operands)})"
    if isinstance(expr, UnionOf):
        return f"ObjectUnionOf({' '.join(_render_expr(e) for e in expr.operands)})"
    if isinstance(expr, SomeValuesFrom):
        return f"ObjectSomeValuesFrom(:{expr.property} {_render_expr(expr.filler)})"
    if isinstance(expr, AllValuesFrom):
        return f"ObjectAllValuesFrom(:{expr.property} {_render_expr(expr.filler)})"
    raise OwlError(f"unknown class expression {expr!r}")


def _render_axiom(axiom: Axiom) -> str:
    # DisjointClasses first: a compiled ontology is almost all of them
    if isinstance(axiom, DisjointClasses):
        return f"DisjointClasses({_render_expr(axiom.a)} {_render_expr(axiom.b)})"
    if isinstance(axiom, Declaration):
        return f"Declaration({axiom.kind.value}(:{axiom.name}))"
    if isinstance(axiom, SubClassOf):
        return f"SubClassOf({_render_expr(axiom.sub)} {_render_expr(axiom.sup)})"
    if isinstance(axiom, EquivalentClasses):
        return f"EquivalentClasses({_render_expr(axiom.a)} {_render_expr(axiom.b)})"
    if isinstance(axiom, ObjectPropertyRange):
        return f"ObjectPropertyRange(:{axiom.property} {_render_expr(axiom.range)})"
    if isinstance(axiom, DataPropertyDomain):
        return f"DataPropertyDomain(:{axiom.property} {_render_expr(axiom.domain)})"
    if isinstance(axiom, DataPropertyRange):
        return f"DataPropertyRange(:{axiom.property} {axiom.datatype})"
    raise OwlError(f"unknown axiom {axiom!r}")


def _lines(iri: str, axioms: Iterable[Axiom]) -> Iterator[str]:
    """The functional-syntax text, one line (with its newline) at a time."""
    yield f"Prefix(:=<{iri}>)\n"
    yield f"Ontology(<{iri}>\n"
    for axiom in axioms:
        yield _render_axiom(axiom) + "\n"
    yield ")\n"


def serialize_functional(ontology: Ontology) -> str:
    """Render the ontology in OWL 2 functional-style syntax.

    One axiom per line between the header and the closing parenthesis,
    so the output has exactly len(axioms) + 3 lines. The owl: and xsd:
    prefixes are treated as built-ins and not declared.
    """
    return "".join(_lines(ontology.iri, ontology.axioms))


def write_functional(ontology: Ontology, path) -> None:
    """Write ``serialize_functional(ontology)`` to path."""
    _write_functional(ontology.iri, ontology.axioms, path)


def _write_functional(iri: str, axioms: Iterable[Axiom], path) -> None:
    """Write the lines of ``serialize_functional`` as the axioms come.

    The lines go to an anonymous temporary file first, and path is opened
    for writing only once the last axiom is rendered. So an error raised
    by the axioms leaves path as it was, or absent, and path is opened
    just as ``open(path, "w")`` would: links, owner and mode stay, and
    it may be a device or a pipe.
    """
    # imported here, as only a write needs them: tempfile would add about
    # 8 ms to every start of the command line
    import shutil
    import tempfile

    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n") as spool:
        spool.writelines(_lines(iri, axioms))
        spool.seek(0)
        with open(path, "wb") as fh:
            shutil.copyfileobj(spool.buffer, fh)


# --- parsing ---------------------------------------------------------------

_AXIOM_KEYWORDS = frozenset({
    "Declaration", "SubClassOf", "EquivalentClasses", "DisjointClasses",
    "ObjectPropertyRange", "DataPropertyDomain", "DataPropertyRange",
})
_EXPR_KEYWORDS = frozenset({
    "ObjectComplementOf", "ObjectIntersectionOf", "ObjectUnionOf",
    "ObjectSomeValuesFrom", "ObjectAllValuesFrom",
})
_ENTITY_KINDS = {kind.value: kind for kind in EntityKind}

# Token kinds: punctuation is its own kind; "iri" (value without the
# brackets), "pname", "word" and "number".
_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<punct>[()]|:=)
      | <(?P<iri>[^<>\s]*)>
      | (?P<pname>(?:[A-Za-z][A-Za-z0-9_]*)?:[A-Za-z][A-Za-z0-9_]*)
      | (?P<word>[A-Za-z][A-Za-z0-9_]*)
      | (?P<number>[0-9]+)
    """,
    re.VERBOSE,
)

class _OwlParser(Cursor):
    def __init__(self, text: str):
        super().__init__(text, _TOKEN_RE, OwlSyntaxError)
        self.depth = 0  # class expressions open around the current token

    def expect_word(self, word: str) -> Token:
        tok = self.peek()
        if tok[0] != "word" or tok[1] != word:
            raise self.error(tok, f"expected '{word}', got {describe(tok)}")
        return self.advance()

    def local_name(self, what: str) -> str:
        # a name in the default (empty) prefix, e.g. ":AISCO"
        tok = self.peek()
        if tok[0] != "pname" or not tok[1].startswith(":"):
            raise self.error(tok, f"expected {what} (:Name), got {describe(tok)}")
        self.advance()
        return tok[1][1:]

    def parse_ontology(self) -> Ontology:
        self.expect_word("Prefix")
        self.expect("(")
        self.expect(":=")
        self.expect("iri")
        self.expect(")")
        self.expect_word("Ontology")
        self.expect("(")
        iri = self.expect("iri")[1]
        axioms = []
        while self.peek()[0] != ")":
            if self.peek()[0] == "eof":
                raise self.error(self.peek(), "unclosed 'Ontology(': expected ')'")
            axioms.append(self.parse_axiom())
        self.advance()
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error(tok, f"unexpected {describe(tok)} after ontology")
        return Ontology(iri, tuple(axioms))

    def parse_axiom(self) -> Axiom:
        tok = self.peek()
        kind, keyword, _ = tok
        if kind != "word":
            raise self.error(tok, f"expected an axiom, got {describe(tok)}")
        if keyword not in _AXIOM_KEYWORDS:
            raise self.error(tok, f"unsupported construct '{keyword}'", UnsupportedConstructError)
        self.advance()
        self.expect("(")
        if keyword == "Declaration":
            kind_tok = self.peek()
            if kind_tok[0] != "word":
                raise self.error(kind_tok, f"expected entity kind, got {describe(kind_tok)}")
            if kind_tok[1] not in _ENTITY_KINDS:
                raise self.error(kind_tok, f"unsupported declaration kind '{kind_tok[1]}'",
                                 UnsupportedConstructError)
            self.advance()
            self.expect("(")
            name = self.local_name("entity name")
            self.expect(")")
            axiom: Axiom = Declaration(_ENTITY_KINDS[kind_tok[1]], name)
        elif keyword == "SubClassOf":
            axiom = SubClassOf(self.parse_expr(), self.parse_expr())
        elif keyword == "EquivalentClasses":
            axiom = EquivalentClasses(self.parse_expr(), self.parse_expr())
            self.reject_extra_operands("EquivalentClasses")
        elif keyword == "DisjointClasses":
            axiom = DisjointClasses(self.parse_named("disjoint class"),
                                    self.parse_named("disjoint class"))
            self.reject_extra_operands("DisjointClasses")
        elif keyword == "ObjectPropertyRange":
            axiom = ObjectPropertyRange(self.local_name("object property"), self.parse_expr())
        elif keyword == "DataPropertyDomain":
            axiom = DataPropertyDomain(self.local_name("data property"),
                                       self.parse_named("domain class"))
        else:  # DataPropertyRange
            prop = self.local_name("data property")
            dt_tok = self.peek()
            if dt_tok[0] != "pname" or dt_tok[1].startswith(":"):
                raise self.error(dt_tok, f"expected a datatype, got {describe(dt_tok)}")
            self.advance()
            axiom = DataPropertyRange(prop, dt_tok[1])
        self.expect(")")
        return axiom

    def reject_extra_operands(self, construct: str) -> None:
        tok = self.peek()
        if tok[0] != ")":
            raise self.error(
                tok, f"n-ary {construct} is not supported (expected exactly 2 operands)",
                UnsupportedConstructError)

    def parse_named(self, what: str) -> NamedClass:
        return NamedClass(self.local_name(what))

    def parse_expr(self) -> ClassExpression:
        tok = self.peek()
        kind, value, _ = tok
        if kind == "pname":
            if value.startswith(":"):
                self.advance()
                return NamedClass(value[1:])
            if value == "owl:Thing":
                self.advance()
                return THING
            raise self.error(tok, f"expected a class expression, got {describe(tok)}")
        if kind != "word":
            raise self.error(tok, f"expected a class expression, got {describe(tok)}")
        if value not in _EXPR_KEYWORDS:
            raise self.error(tok, f"unsupported construct '{value}'", UnsupportedConstructError)
        if self.depth == MAX_EXPR_DEPTH:
            raise self.error(tok, f"class expression nested more than {MAX_EXPR_DEPTH} levels deep")
        self.depth += 1
        self.advance()
        self.expect("(")
        if value == "ObjectComplementOf":
            expr: ClassExpression = ComplementOf(self.parse_expr())
        elif value in ("ObjectIntersectionOf", "ObjectUnionOf"):
            operands = [self.parse_expr(), self.parse_expr()]
            while self.peek()[0] != ")":
                operands.append(self.parse_expr())
            ctor = IntersectionOf if value == "ObjectIntersectionOf" else UnionOf
            expr = ctor(tuple(operands))
        else:  # ObjectSomeValuesFrom / ObjectAllValuesFrom
            prop = self.local_name("object property")
            filler = self.parse_expr()
            ctor = SomeValuesFrom if value == "ObjectSomeValuesFrom" else AllValuesFrom
            expr = ctor(prop, filler)
        self.expect(")")
        self.depth -= 1
        return expr


def parse_functional(text: str) -> Ontology:
    """Parse the functional-style subset emitted by serialize_functional.

    The result is a validated ``Ontology``. Raises OwlSyntaxError (with
    position) on malformed input, UnsupportedConstructError on OWL
    constructs outside the subset, UndeclaredNameError when an axiom uses
    a name the text does not declare, and OwlError on other validation
    failures (such as a duplicate declaration).
    """
    return _OwlParser(text).parse_ontology()


def parse_functional_file(path) -> Ontology:
    with open(path, encoding="utf-8") as fh:
        return parse_functional(fh.read())
