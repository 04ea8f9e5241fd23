"""Neutral OWL 2 axiom data model with a functional-style serializer/parser.

Supported subset: class/object-property/data-property declarations,
SubClassOf, EquivalentClasses (binary), DisjointClasses (binary, of two
named classes), ObjectPropertyRange, DataPropertyDomain (of a named
class), DataPropertyRange, and class expressions built from named
classes, owl:Thing, ObjectComplementOf, ObjectIntersectionOf,
ObjectUnionOf, ObjectSomeValuesFrom and ObjectAllValuesFrom. Names are
``fmc.lexer.NAME``s and the IRI's characters ``fmc.lexer.IRI_CHAR``s.
``parse_functional`` inverts ``serialize_functional``: the checker takes
exactly what the reader reads, so every ``Ontology`` reads back.

Every value is a frozen slotted value class built by ``fmc.model._value``,
whose ``__init__`` stores each field through its slot descriptor rather
than through ``object.__setattr__``; a compiled ontology is hundreds of
thousands of values. An ``Ontology`` validates itself when it is built
(``validate_ontology``), so the serializer and the scaffold need not
check again; an axiom that uses an undeclared name raises
``UndeclaredNameError``. ``Ontology.axioms`` is an ``Axioms``: a
read-only sequence, not a ``tuple`` instance, that compares, hashes and
reprs as the tuple of its axioms does, and holds them as batches.

Validation is one declare-before-use pass (``_checked_axioms``) over
batches of axioms: it checks the IRI at the call, then each axiom of a
batch in one loop, yields the batch once it is checked, and raises the
first error in stream order, so a stream must declare each name before
it uses it. ``validate_ontology`` runs it over the batches of an
ontology's ``Axioms``, and only if that raises, again as two batches, its
declarations and then its other axioms: there a name may be used before
it is declared, and the error reported is the first in that order. A
field of the wrong type is an ``OwlError`` too. Rendering
(``_render_axiom``) makes one line per axiom, and ``_lines`` joins the
lines of a batch into one string. The checker takes a
``DisjointClasses`` of two plain ``NamedClass`` operands, nearly all of
a built ontology, with two set lookups, and the renderer writes every
``DisjointClasses`` with one f-string.

A batch may also be a whole DisjointClasses block, a ``_DisjointBlock``
of the classes that are pairwise disjoint, whose axioms are built only
when it is iterated. The checker checks the block once per class, not
once per pair: every class a plain ``NamedClass`` with a declared name
(one set of the classes' types, one ``issuperset`` over their names),
and then passes it whole. ``_lines`` reads the names once too, and
renders each row of the block, a class against the later ones, with one
join, the same text as its axioms' lines. A block that fails the check
is checked an axiom at a time, so its first error is the one its axioms
raise one by one.
``fmc compile`` chains the two over the compiler's batches, which
declare every name before its first use, and ``_write_functional``
encodes each batch's text into a binary temporary file in one write as
it comes, so no batch is kept; the output is opened only once the whole
stream has checked out. The header is rendered first, which is safe
because the IRI was checked at the call. ``serialize_functional`` and
``write_functional`` render a built ``Ontology`` through the same
``_lines``: its tuples of values in slices of ``_WRITE_SLICE`` axioms,
an axiom at a time, and its block row by row.

The reader shares its lexer and token cursor with the DSL parser
(``fmc.lexer``): the token texts come from one ``findall``, and positions
are worked out only when an error is raised. It reads a ``:Name`` as a
name under the ontology IRI, so a default prefix other than that IRI is
an ``UnsupportedConstructError``. A token's kind follows from
its text: ``(``, ``)``, ``:=``, ``<iri>``, ``:Name``, ``prefix:name``, a
word, a number, or a run of up to ``_ROW_CHUNK`` consecutive
``DisjointClasses(:A :B)`` lines as the serializer writes them, one line
break apart. Each parse builds one ``NamedClass`` per class name and
shares it among all the axioms that use the name. A compiled ontology is
nearly all one such run, so a few hundred consecutive tokens. Where such
tokens hold exactly the lines of ``combinations(classes, 2)``, they read
as one ``_DisjointBlock`` of those classes (``_OwlParser.block``): the
first row names the classes, and each later token is compared with the
text the serializer writes for its lines, so no axiom value is built per
pair. Any other run of them is read a token at a time: its names come
from one replace and one split, its axioms from one ``map``. Either way
the tokens are dropped from the token list once they are read, so a read
holds a run's text or what it reads as, never both. A
``DisjointClasses`` line of any other spacing or shape ends a
run and is five tokens, read by ``parse_axiom``, which words every error.
Where no axiom may start, a run reads as the word ``DisjointClasses``
would, and an error there names that word at the position of the run's
first line. Class expressions may nest at most ``MAX_EXPR_DEPTH`` levels
deep.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Collection, Iterable, Iterator, Sequence
from enum import Enum
from itertools import accumulate, chain, combinations, filterfalse, groupby, starmap
from operator import attrgetter, index

from .lexer import IRI_CHAR, NAME, Cursor, Lexicon, PositionedError, is_name, read_source
from .model import _value


class OwlError(Exception):
    pass


class UndeclaredNameError(OwlError):
    """An axiom references a name with no declaration in the ontology."""


class OwlSyntaxError(OwlError, PositionedError):
    """Malformed functional-syntax text, with 1-based line/column."""


class UnsupportedConstructError(OwlSyntaxError):
    """Valid-looking OWL construct outside the supported subset."""


_IRI_RE = re.compile(f"{IRI_CHAR}+")
_DATATYPE_RE = re.compile(r"xsd:[A-Za-z][A-Za-z0-9]*\Z")


# --- class expressions -----------------------------------------------------

# Class expressions nest at most this deep. The compiler writes at most
# 4 levels; the bound keeps the recursive reader, validator and serializer
# far from the interpreter's recursion limit.
MAX_EXPR_DEPTH = 100


class ClassExpression:
    __slots__ = ()


@_value
class Thing(ClassExpression):
    """owl:Thing, the top concept."""


THING = Thing()


@_value
class NamedClass(ClassExpression):
    name: str


@_value
class ComplementOf(ClassExpression):
    operand: ClassExpression


@_value
class IntersectionOf(ClassExpression):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        operands = tuple(self.operands)  # a list or an iterator becomes a tuple
        IntersectionOf.operands.__set__(self, operands)
        if len(operands) < 2:
            raise OwlError("ObjectIntersectionOf needs at least 2 operands")


@_value
class UnionOf(ClassExpression):
    operands: tuple[ClassExpression, ...]

    def __post_init__(self):
        operands = tuple(self.operands)  # a list or an iterator becomes a tuple
        UnionOf.operands.__set__(self, operands)
        if len(operands) < 2:
            raise OwlError("ObjectUnionOf needs at least 2 operands")


@_value
class SomeValuesFrom(ClassExpression):
    property: str
    filler: ClassExpression


@_value
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


@_value
class Declaration(Axiom):
    kind: EntityKind
    name: str


@_value
class SubClassOf(Axiom):
    sub: ClassExpression
    sup: ClassExpression


@_value
class EquivalentClasses(Axiom):
    a: ClassExpression
    b: ClassExpression


@_value
class DisjointClasses(Axiom):
    a: NamedClass
    b: NamedClass


# At most this many axioms make one piece of an alternative group's row of
# pairwise axioms (``fmc.compiler._rows``), and at most this many lines one
# run token of the reader's: it bounds the size of both. A group axiom is
# four tracked objects (SubClassOf, ComplementOf, IntersectionOf and its
# tuple), so a piece is about 1000 of them. With a piece per whole group
# row, a streamed compile of an 800-member group ran 917 gen-0 collections
# against 853, and one of a 1000-member group peaked 0.7-0.8 MiB higher
# (CPython 3.11).
_ROW_CHUNK = 256


class _DisjointBlock:
    """The axioms ``DisjointClasses(a, b)`` for each pair (a, b) of
    ``combinations(classes, 2)``, in that order: a whole DisjointClasses
    block as one batch, whose axioms are built only when it is iterated.

    The checker checks the classes once, not once per pair, and passes the
    block whole; the renderer reads their names once and writes a row of
    the block with one join (``_checked_batches``, ``_lines``). This took
    the benchmark's ``ontology`` pass from 0.628 to 0.592 s. The reader
    reads a block's lines back as one too (``_OwlParser.block``).
    """

    __slots__ = ("classes",)

    def __init__(self, classes: Iterable[NamedClass]):
        self.classes = tuple(classes)

    def __len__(self) -> int:
        n = len(self.classes)
        return n * (n - 1) // 2

    def __iter__(self) -> Iterator[DisjointClasses]:
        return starmap(DisjointClasses, combinations(self.classes, 2))

    def __getitem__(self, k: int) -> DisjointClasses:
        """The k-th axiom, for 0 <= k < len(self), built alone: row i, the
        class i against the later ones, starts at axiom i(2n-i-1)/2."""
        classes = self.classes
        n = len(classes)
        i = bisect_right(range(n - 1), k, key=lambda i: i * (2 * n - i - 1) // 2) - 1
        return DisjointClasses(classes[i], classes[k - i * (2 * n - i - 1) // 2 + i + 1])


def _is_block(batch: Collection[Axiom]) -> bool:
    return type(batch) is _DisjointBlock


class Axioms(Sequence):
    """An ontology's axioms: a read-only sequence, not a ``tuple``, that
    compares, hashes and reprs as the tuple of its axioms does.

    It holds them as batches: tuples of values, and a whole DisjointClasses
    block as one ``_DisjointBlock``, whose axioms are built only when they
    are read. ``len`` adds up the batches, iteration chains them, an index
    (negative too) builds the one axiom it names, and a slice is a tuple.
    ``==`` takes a tuple on either side; against another ``Axioms`` of the
    same batch lengths a block is compared with a block by its classes,
    which pick out its axioms (its first row names them all). ``Axioms(x)``
    holds the axioms of any iterable as one batch; a compiled or read
    ontology holds its block whole (``Axioms._of``).
    """

    __slots__ = ("_batches", "_ends", "_len")

    def __init__(self, axioms: Iterable[Axiom] = ()):
        self._hold((tuple(axioms),))  # a tuple is kept, not copied

    @classmethod
    def _of(cls, batches: Iterable[Collection[Axiom]]) -> Axioms:
        """The axioms of the batches, each run of batches of values merged
        into one tuple and each ``_DisjointBlock`` kept whole."""
        axioms = cls.__new__(cls)
        kept: list[Collection[Axiom]] = []
        for is_block, run in groupby(batches, _is_block):
            kept += run if is_block else (tuple(chain.from_iterable(run)),)
        axioms._hold(kept)
        return axioms

    def _hold(self, batches: Iterable[Collection[Axiom]]) -> None:
        self._batches = batches = tuple(batch for batch in batches if len(batch))
        self._ends = tuple(accumulate(map(len, batches)))  # each batch's end
        self._len = self._ends[-1] if batches else 0

    def __reduce__(self):
        return Axioms._of, (self._batches,)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Axiom]:
        return chain.from_iterable(self._batches)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._at, range(*i.indices(self._len))))
        i = index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("Axioms index out of range")
        return self._at(i)

    def _at(self, i: int) -> Axiom:
        b = bisect_right(self._ends, i)
        return self._batches[b][i - self._ends[b - 1] if b else i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Axioms):
            mine, theirs = self._batches, other._batches
            if self._ends == other._ends and list(map(type, mine)) == list(map(type, theirs)):
                return all(a.classes == b.classes if _is_block(a) else a == b
                           for a, b in zip(mine, theirs))
            if self._len != other._len:
                return False
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        if self._len != len(other):
            return False
        return all(tuple(batch) == other[start:end] for batch, start, end in
                   zip(self._batches, (0, *self._ends), self._ends))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@_value
class ObjectPropertyRange(Axiom):
    property: str
    range: ClassExpression


@_value
class DataPropertyDomain(Axiom):
    property: str
    domain: NamedClass


@_value
class DataPropertyRange(Axiom):
    property: str
    datatype: str  # prefixed name, e.g. "xsd:decimal"


@_value
class Ontology:
    """An ontology whose names are declared: built only if it validates."""

    iri: str
    axioms: Axioms

    def __post_init__(self):
        # an Axioms is kept as it is; the axioms of any other iterable
        # become its one batch, a tuple kept as it is, not copied
        if not isinstance(self.axioms, Axioms):
            Ontology.axioms.__set__(self, Axioms(self.axioms))
        validate_ontology(self)


# --- validation ------------------------------------------------------------

def validate_ontology(ontology: Ontology) -> None:
    """Check declaration closure: unique declarations per kind, every used
    name declared, names and the IRI lexically valid, every field of its
    type, a named class where the text holds a name. Raises OwlError
    subclasses only: the first declaration error in axiom order if there
    is one, otherwise the first use error in axiom order. A name may be
    used before it is declared: the declarations are checked first, then
    the other axioms.

    The axioms are checked in the order they come first, a batch of the
    ``Axioms`` at a time, so a DisjointClasses block is checked once per
    class; that is the declarations-first order's verdict whenever it
    passes: a compiled or written ontology declares each name before its
    first use. Only if that raises are they checked again, declarations first, as a
    batch of the declarations and a batch of the rest, for the error to
    report, or to find that every name was declared after all. On a
    300-feature compile (46,530 axioms) one batch took 5.9 ms, and
    declarations first 9.7 ms. A compiled or read ontology holds its block
    whole, checked once per class: on a 46,838-axiom compile its batches
    take 0.97 ms where the same axioms as one tuple take 3.8 ms (CPython
    3.11).
    """
    iri, axioms = ontology.iri, ontology.axioms
    try:
        for _ in _checked_axioms(iri, axioms._batches):
            pass
        return
    except OwlError:
        pass
    is_declaration = Declaration.__instancecheck__  # a C call per axiom
    # the second batch is built only once the first has checked out
    batches = (tuple(split(is_declaration, axioms)) for split in (filter, filterfalse))
    for _ in _checked_axioms(iri, batches):
        pass


def _checked_axioms(iri: str,
                    batches: Iterable[Collection[Axiom]]) -> Iterator[Collection[Axiom]]:
    """Check batches of axioms in one pass, yielding each batch once every
    axiom in it is checked.

    The IRI is checked at the call, before any batch is pulled, so a
    writer may render the header at once. The stream must declare each
    name before it uses it, as the compiler's does: the first error in
    stream order is raised when it is met, and a use of a name not
    declared yet is an error.
    """
    if not isinstance(iri, str):
        raise _wrong_type("ontology IRI", "a str", iri)
    if not _IRI_RE.fullmatch(iri):
        raise OwlError(f"invalid ontology IRI {iri!r}")
    return _checked_batches(batches)


_name = attrgetter("name")


def _checked_batches(batches: Iterable[Collection[Axiom]]) -> Iterator[Collection[Axiom]]:
    declared: dict[EntityKind, set[str]] = {kind: set() for kind in EntityKind}
    classes, object_properties, data_properties = declared.values()  # EntityKind order

    def check_name(names: set[str], kind: EntityKind, name: str) -> None:
        if not isinstance(name, str):
            raise _wrong_type(f"{kind.value} name", "a str", name)
        if name not in names:
            raise _undeclared(kind, name)

    def check_class(expr: ClassExpression, slot: str) -> None:
        # a slot the reader reads as a name
        if not isinstance(expr, NamedClass):
            raise _wrong_type(slot, "a named class", expr)
        check_name(classes, EntityKind.CLASS, expr.name)

    def check_expr(expr: ClassExpression, depth: int = 0) -> None:
        # depth counts the constructors around expr, as the reader does
        if isinstance(expr, NamedClass):
            check_name(classes, EntityKind.CLASS, expr.name)
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
            check_name(object_properties, EntityKind.OBJECT_PROPERTY, expr.property)
            check_expr(expr.filler, depth + 1)
        else:
            raise OwlError(f"unknown class expression {expr!r}")

    for batch in batches:
        # a block whose every class is a plain NamedClass with a declared
        # name passes whole; any other is checked an axiom at a time, below,
        # for the error, or to pass it after all (a NamedClass subclass)
        if type(batch) is _DisjointBlock:
            block = batch.classes
            try:
                if set(map(type, block)) <= {NamedClass} and classes.issuperset(map(_name, block)):
                    yield batch
                    continue
            except TypeError:  # an unhashable name
                pass
        for axiom in batch:
            # DisjointClasses first: a compiled ontology is almost all of them.
            # Two declared plain NamedClass operands pass at once; otherwise
            # check_class raises the error, or passes a NamedClass subclass
            if isinstance(axiom, DisjointClasses):
                a, b = axiom.a, axiom.b
                try:
                    named = (type(a) is NamedClass and type(b) is NamedClass
                             and a.name in classes and b.name in classes)
                except TypeError:  # an unhashable name
                    named = False
                if not named:
                    check_class(a, "DisjointClasses operand")
                    check_class(b, "DisjointClasses operand")
            elif isinstance(axiom, Declaration):
                kind, name = axiom.kind, axiom.name
                if not isinstance(kind, EntityKind):
                    raise _wrong_type("declaration kind", "an EntityKind", kind)
                if not isinstance(name, str):
                    raise _wrong_type("entity name", "a str", name)
                if not is_name(name):
                    raise OwlError(f"invalid entity name {name!r}")
                names = declared[kind]
                if name in names:
                    raise OwlError(f"duplicate {kind.value} declaration '{name}'")
                names.add(name)
            elif isinstance(axiom, SubClassOf):
                check_expr(axiom.sub)
                check_expr(axiom.sup)
            elif isinstance(axiom, EquivalentClasses):
                check_expr(axiom.a)
                check_expr(axiom.b)
            elif isinstance(axiom, ObjectPropertyRange):
                check_name(object_properties, EntityKind.OBJECT_PROPERTY, axiom.property)
                check_expr(axiom.range)
            elif isinstance(axiom, DataPropertyDomain):
                check_name(data_properties, EntityKind.DATA_PROPERTY, axiom.property)
                check_class(axiom.domain, "DataPropertyDomain domain")
            elif isinstance(axiom, DataPropertyRange):
                check_name(data_properties, EntityKind.DATA_PROPERTY, axiom.property)
                if not isinstance(axiom.datatype, str):
                    raise _wrong_type("datatype", "a str", axiom.datatype)
                if not _DATATYPE_RE.match(axiom.datatype):
                    raise OwlError(f"unsupported datatype {axiom.datatype!r}")
            else:
                raise OwlError(f"unknown axiom {axiom!r}")
        yield batch


def _undeclared(kind: EntityKind, name: str) -> UndeclaredNameError:
    return UndeclaredNameError(f"{kind.value} '{name}' used but not declared")


def _wrong_type(field: str, expected: str, value) -> OwlError:
    return OwlError(f"{field} must be {expected}, got {type(value).__name__}")


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
    # DisjointClasses first: a compiled ontology is almost all of them.
    # The checker let through only named classes where the text holds names
    if isinstance(axiom, DisjointClasses):
        return f"DisjointClasses(:{axiom.a.name} :{axiom.b.name})"
    if isinstance(axiom, Declaration):
        return f"Declaration({axiom.kind.value}(:{axiom.name}))"
    if isinstance(axiom, SubClassOf):
        return f"SubClassOf({_render_expr(axiom.sub)} {_render_expr(axiom.sup)})"
    if isinstance(axiom, EquivalentClasses):
        return f"EquivalentClasses({_render_expr(axiom.a)} {_render_expr(axiom.b)})"
    if isinstance(axiom, ObjectPropertyRange):
        return f"ObjectPropertyRange(:{axiom.property} {_render_expr(axiom.range)})"
    if isinstance(axiom, DataPropertyDomain):
        return f"DataPropertyDomain(:{axiom.property} :{axiom.domain.name})"
    if isinstance(axiom, DataPropertyRange):
        return f"DataPropertyRange(:{axiom.property} {axiom.datatype})"
    raise OwlError(f"unknown axiom {axiom!r}")


def _header(iri: str) -> str:
    """The text's first two lines, without the last newline."""
    return f"Prefix(:=<{iri}>)\nOntology(<{iri}>"


def _lines(iri: str, batches: Iterable[Collection[Axiom]]) -> Iterator[str]:
    """The functional-syntax text in pieces: the header, the lines of each
    checked batch of axioms as one string, the closing parenthesis.

    A ``_DisjointBlock`` is rendered a row at a time, each row with one
    join over the names of its later classes, which are read once: the
    same text as ``_render_axiom`` makes for each of its axioms."""
    yield _header(iri) + "\n"
    for batch in batches:
        if type(batch) is _DisjointBlock:
            names = tuple(map(_name, batch.classes))
            for i, a in enumerate(names[:-1], 1):
                head = f"DisjointClasses(:{a} :"
                yield head + (")\n" + head).join(names[i:]) + ")\n"
        elif batch:
            yield "\n".join(map(_render_axiom, batch)) + "\n"
    yield ")\n"


# a built ontology is rendered this many axioms at a time
_WRITE_SLICE = 4096


def _slices(axioms: Axioms) -> Iterator[Collection[Axiom]]:
    """The batches of the axioms: a block whole, and each tuple of values
    in consecutive slices of ``_WRITE_SLICE``."""
    for batch in axioms._batches:
        if _is_block(batch):
            yield batch
        else:
            yield from (batch[i:i + _WRITE_SLICE] for i in range(0, len(batch), _WRITE_SLICE))


def serialize_functional(ontology: Ontology) -> str:
    """Render the ontology in OWL 2 functional-style syntax.

    One axiom per line between the header and the closing parenthesis,
    so the output has exactly len(axioms) + 3 lines. The owl: and xsd:
    prefixes are treated as built-ins and not declared.

    The text is the join of the pieces ``write_functional`` writes, one
    per ``_WRITE_SLICE`` axioms, so at its peak it holds about two copies
    of the text: the pieces and the result.
    """
    return "".join(_lines(ontology.iri, _slices(ontology.axioms)))


def write_functional(ontology: Ontology, path) -> None:
    """Write ``serialize_functional(ontology)`` to path."""
    _write_functional(ontology.iri, _slices(ontology.axioms), path)


def _write_functional(iri: str, batches: Iterable[Collection[Axiom]], path) -> None:
    """Write the lines of ``serialize_functional`` as the batches come.

    The lines go to an anonymous temporary file first, and path is opened
    for writing only once the last batch is rendered. So an error raised
    by the batches leaves path as it was, or absent, and path is opened
    just as ``open(path, "w")`` would: links, owner and mode stay, and
    it may be a device or a pipe.
    """
    # imported here, as only a write needs them: tempfile would add about
    # 8 ms to every start of the command line
    import shutil
    import tempfile

    # the spool is binary and takes each batch's lines in one encoded
    # write: a text spool, opened for reading too, resets its decoder on
    # every write
    with tempfile.TemporaryFile() as spool:
        for text in _lines(iri, batches):
            spool.write(text.encode("utf-8"))
        spool.seek(0)
        with open(path, "wb") as fh:
            shutil.copyfileobj(spool, fh)


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
_is_prefixed_name = re.compile(f"{NAME}:{NAME}").fullmatch


class _Interned(dict):
    """NamedClass by name, each built on its first lookup."""

    def __missing__(self, name: str) -> NamedClass:
        named = self[name] = NamedClass(name)
        return named


_DISJOINT_LINE = rf"DisjointClasses\(:{NAME} :{NAME}\)"
# the slot of a run token once it is read: no error reads a token
# before the current one (positions come from the text), and this is the
# word an error names a run by
_READ_RUN = "DisjointClasses"


def _run_names(tok: str) -> list[str]:
    """The names of a run token's lines, two to a line, in order."""
    return tok[17:-1].replace(")\nDisjointClasses(:", " :").split(" :")


class _OwlParser(Cursor):
    """Tokens are texts: "(", ")", ":=", "<iri>", ":Name", "prefix:name", a
    word, a number, a run of "DisjointClasses(:A :B)" lines, or "" for end
    of input."""

    # "prefix:name" is matched as a word with an optional ":name" after it,
    # so a word's letters are read once. A run of up to _ROW_CHUNK
    # consecutive DisjointClasses lines as the serializer writes them, one
    # "\n" apart, is one compound token, tried before the word; the run
    # ends at the last complete line, and the next line starts a new token
    lexicon = Lexicon(
        skip=r"[ \t\r\n]*",
        token=(rf"[()]|:=|:{NAME}|{_DISJOINT_LINE}(?:\n{_DISJOINT_LINE}){{0,{_ROW_CHUNK - 1}}}"
               rf"|{NAME}(?::{NAME})?|<{IRI_CHAR}*>|[0-9]+"),
        end=r"\Z",
        other=r"[^ \t\r\n]",
    )
    error_cls = OwlSyntaxError

    def __init__(self, text: str):
        super().__init__(text)
        self.depth = 0  # class expressions open around the current token
        self.named = _Interned()  # one NamedClass per name in this text

    def expect_iri(self) -> str:
        tok = self.tokens[self.pos]
        if tok[:1] != "<":
            raise self.expected("'iri'")
        self.pos += 1
        return tok[1:-1]

    def local_name(self, what: str) -> str:
        # a name in the default (empty) prefix, e.g. ":AISCO"
        tok = self.tokens[self.pos]
        if tok[:1] != ":" or tok == ":=":
            raise self.expected(f"{what} (:Name)")
        self.pos += 1
        return tok[1:]

    def parse_ontology(self) -> Ontology:
        self.expect("Prefix")
        self.expect("(")
        self.expect(":=")
        prefix = self.expect_iri()
        self.expect(")")
        self.expect("Ontology")
        self.expect("(")
        iri = self.expect_iri()
        # a :Name is read as a name under the ontology IRI
        if prefix != iri:
            raise self.error(self.pos - 1, f"default prefix '{prefix}' is not the ontology IRI "
                             f"'{iri}'", UnsupportedConstructError)
        tokens, named = self.tokens, self.named
        batches: list[Collection[Axiom]] = []  # lists of values, and blocks
        axioms: list[Axiom] = []
        append = axioms.append
        pos = self.pos
        while True:
            tok = tokens[pos]
            # a run of DisjointClasses(:A :B) lines, nearly all of a compiled
            # ontology, is one token. A maximal run of such tokens whose
            # lines are exactly a block's is one _DisjointBlock; any other
            # run is read a token at a time, its names from one split and
            # its axioms from one map. Once a run is read its tokens' slots
            # take a shared placeholder, so a read holds the unread runs'
            # text or what they are read as, not both. Any other spacing
            # or shape is five tokens, read by parse_axiom
            if tok[:16] == "DisjointClasses(":
                end = pos + 1
                while tokens[end][:16] == "DisjointClasses(":
                    end += 1
                block = self.block(pos, end)
                if block is not None:
                    batches += (axioms, block)
                    axioms = []
                    append = axioms.append
                    tokens[pos:end] = [_READ_RUN] * (end - pos)
                else:
                    for pos in range(pos, end):
                        terms = list(map(named.__getitem__, _run_names(tokens[pos])))
                        axioms.extend(map(DisjointClasses, terms[::2], terms[1::2]))
                        tokens[pos] = _READ_RUN
                pos = end
                continue
            if tok == ")":
                break
            if tok == "":
                raise self.error(pos, "unclosed 'Ontology(': expected ')'")
            self.pos = pos
            append(self.parse_axiom())
            pos = self.pos
        self.pos = pos + 1
        self.expect_end("ontology")
        # past the end no syntax error can come, so the tokens go, and the
        # lists of values once they are copied: neither is held while the
        # copy is validated
        tokens.clear()
        batches.append(axioms)
        del axioms, append
        read = Axioms._of(batches)
        batches.clear()
        return Ontology(iri, read)

    def block(self, start: int, end: int) -> _DisjointBlock | None:
        """The ``_DisjointBlock`` whose axioms are exactly the lines of the
        run tokens ``tokens[start:end]``, or None.

        The block's first row, its first class against each later one, is
        the lines whose first name is the first line's, and it names the
        classes. From the token where that row ends, each token is then
        compared with the text the serializer writes for its lines. Only
        the classes' names and one token's names or text are held."""
        tokens = self.tokens
        first = tokens[start][17:tokens[start].index(" ")]  # the first line's first name
        names = [first]
        for pos in range(start, end):
            terms = _run_names(tokens[pos])
            firsts = terms[::2]
            if firsts.count(first) < len(firsts):
                break
            names += terms[1::2]
        else:
            # the whole run is the first row: one pair, or not a block
            return _DisjointBlock(map(self.named.__getitem__, names)) if len(names) == 2 else None
        # the first row ends in this token, whose first line is the class 0
        # against the class len(names), or starts the second row
        row, col = 0, len(names)
        names += terms[1:2 * next(i for i, a in enumerate(firsts) if a != first):2]
        n = len(names)
        if col == n:
            row, col = 1, 2
        for pos in range(pos, end):
            tok = tokens[pos]
            lines, pieces = tok.count("\n") + 1, []
            while lines:
                if row == n - 1:  # past the block's last line
                    return None
                k = min(lines, n - col)
                head = f"DisjointClasses(:{names[row]} :"
                pieces.append(head + (")\n" + head).join(names[col:col + k]) + ")")
                lines -= k
                col += k
                if col == n:
                    row += 1
                    col = row + 1
            if "\n".join(pieces) != tok:
                return None
        return _DisjointBlock(map(self.named.__getitem__, names)) if row == n - 1 else None

    def parse_axiom(self) -> Axiom:
        keyword = self.tokens[self.pos]
        if keyword not in _AXIOM_KEYWORDS:
            raise self.unsupported("construct", "an axiom")
        self.pos += 1
        self.expect("(")
        # DisjointClasses first: a compiled ontology is almost all of them
        if keyword == "DisjointClasses":
            axiom: Axiom = DisjointClasses(self.parse_named("disjoint class"),
                                           self.parse_named("disjoint class"))
            self.reject_extra_operands("DisjointClasses")
        elif keyword == "Declaration":
            kind = self.tokens[self.pos]
            if kind not in _ENTITY_KINDS:
                raise self.unsupported("declaration kind", "entity kind")
            self.pos += 1
            self.expect("(")
            name = self.local_name("entity name")
            self.expect(")")
            axiom = Declaration(_ENTITY_KINDS[kind], name)
        elif keyword == "SubClassOf":
            axiom = SubClassOf(self.parse_expr(), self.parse_expr())
        elif keyword == "EquivalentClasses":
            axiom = EquivalentClasses(self.parse_expr(), self.parse_expr())
            self.reject_extra_operands("EquivalentClasses")
        elif keyword == "ObjectPropertyRange":
            axiom = ObjectPropertyRange(self.local_name("object property"), self.parse_expr())
        elif keyword == "DataPropertyDomain":
            axiom = DataPropertyDomain(self.local_name("data property"),
                                       self.parse_named("domain class"))
        else:  # DataPropertyRange
            prop = self.local_name("data property")
            datatype = self.tokens[self.pos]
            # a prefixed name such as xsd:decimal
            if not _is_prefixed_name(datatype):
                raise self.expected("a datatype")
            self.pos += 1
            axiom = DataPropertyRange(prop, datatype)
        self.expect(")")
        return axiom

    def unsupported(self, construct: str, expected: str) -> OwlSyntaxError:
        """The error for a current token outside the keywords read here:
        unsupported if it is a word, else a syntax error."""
        # a compound token reads as the word it starts with
        word = self.tokens[self.pos].partition("(")[0]
        if word[:1].isalpha() and ":" not in word:  # a word, not a prefixed name
            return self.error(self.pos, f"unsupported {construct} '{word}'",
                              UnsupportedConstructError)
        return self.expected(expected)

    def reject_extra_operands(self, construct: str) -> None:
        if self.tokens[self.pos] != ")":
            raise self.error(
                self.pos, f"n-ary {construct} is not supported (expected exactly 2 operands)",
                UnsupportedConstructError)

    def parse_named(self, what: str) -> NamedClass:
        return self.named[self.local_name(what)]

    def parse_expr(self) -> ClassExpression:
        tok = self.tokens[self.pos]
        if tok[:1] == ":" and tok != ":=":
            self.pos += 1
            return self.named[tok[1:]]
        if tok == "owl:Thing":
            self.pos += 1
            return THING
        if tok not in _EXPR_KEYWORDS:
            raise self.unsupported("construct", "a class expression")
        if self.depth == MAX_EXPR_DEPTH:
            raise self.error(self.pos,
                             f"class expression nested more than {MAX_EXPR_DEPTH} levels deep")
        self.depth += 1
        self.pos += 1
        self.expect("(")
        if tok == "ObjectComplementOf":
            expr: ClassExpression = ComplementOf(self.parse_expr())
        elif tok in ("ObjectIntersectionOf", "ObjectUnionOf"):
            operands = [self.parse_expr(), self.parse_expr()]
            while self.tokens[self.pos] != ")":
                operands.append(self.parse_expr())
            ctor = IntersectionOf if tok == "ObjectIntersectionOf" else UnionOf
            expr = ctor(operands)
        else:  # ObjectSomeValuesFrom / ObjectAllValuesFrom
            prop = self.local_name("object property")
            filler = self.parse_expr()
            ctor = SomeValuesFrom if tok == "ObjectSomeValuesFrom" else AllValuesFrom
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
    return parse_functional(read_source(path))
