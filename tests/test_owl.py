import copy
import dataclasses
import pickle
import random
import tracemalloc
from collections.abc import Sequence
from itertools import combinations, groupby

import pytest

import fmc.owl
from fmc.lexer import PositionedError
from fmc.owl import (
    MAX_EXPR_DEPTH,
    THING,
    AllValuesFrom,
    ComplementOf,
    DataPropertyDomain,
    DataPropertyRange,
    Declaration,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    IntersectionOf,
    NamedClass,
    ObjectPropertyRange,
    Ontology,
    OwlError,
    OwlSyntaxError,
    SomeValuesFrom,
    SubClassOf,
    UndeclaredNameError,
    UnionOf,
    UnsupportedConstructError,
    _ROW_CHUNK,
    _checked_axioms,
    _OwlParser,
    _render_axiom,
    parse_functional,
    parse_functional_file,
    serialize_functional,
    validate_ontology,
    write_functional,
)

from fmc.compiler import compile_model
from fmc.model import Feature, FeatureModel, GroupKind, Variability
from helpers import random_ontology, random_tree

IRI = "http://example.org/spl/T#"


A, X, Y = NamedClass("A"), NamedClass("X"), NamedClass("Y")


def declared(*entries):
    return tuple(Declaration(kind, name) for kind, name in entries)


def test_nary_operators_need_two_operands():
    for ctor, keyword in ((IntersectionOf, "ObjectIntersectionOf"), (UnionOf, "ObjectUnionOf")):
        for operands in ((), (NamedClass("A"),)):
            with pytest.raises(OwlError, match=f"^{keyword} needs at least 2 operands$"):
                ctor(operands)
            with pytest.raises(OwlError, match="needs at least 2 operands"):
                ctor(operands=operands)
            with pytest.raises(OwlError, match="needs at least 2 operands"):
                dataclasses.replace(ctor((A, X)), operands=operands)


@pytest.mark.parametrize("ctor", [IntersectionOf, UnionOf], ids=lambda ctor: ctor.__name__)
@pytest.mark.parametrize("operands", [lambda: [A, A], lambda: iter((A, THING, A))],
                         ids=["list", "iterator"])
def test_nary_operands_are_kept_as_a_tuple(ctor, operands):
    expr = ctor(operands())
    assert type(expr.operands) is tuple and len(expr.operands) >= 2
    ontology = Ontology(IRI, (Declaration(EntityKind.CLASS, "A"), SubClassOf(A, expr)))
    assert hash(ontology) == hash(Ontology(IRI, ontology.axioms))
    assert parse_functional(serialize_functional(ontology)) == ontology
    with pytest.raises(OwlError, match="needs at least 2 operands"):
        ctor([A])
    with pytest.raises(OwlError, match="needs at least 2 operands"):
        ctor(iter((A,)))


# one value of every OWL value class
VALUES = (
    THING,
    NamedClass("A"),
    ComplementOf(NamedClass("A")),
    IntersectionOf((NamedClass("A"), THING)),
    UnionOf((NamedClass("A"), NamedClass("B"), THING)),
    SomeValuesFrom("hasA", NamedClass("A")),
    AllValuesFrom("hasA", THING),
    Declaration(EntityKind.OBJECT_PROPERTY, "hasA"),
    SubClassOf(NamedClass("A"), ComplementOf(NamedClass("B"))),
    EquivalentClasses(NamedClass("ARule"), SomeValuesFrom("hasA", NamedClass("A"))),
    DisjointClasses(NamedClass("A"), NamedClass("B")),
    ObjectPropertyRange("hasA", NamedClass("A")),
    DataPropertyDomain("d", NamedClass("A")),
    DataPropertyRange("d", "xsd:decimal"),
    Ontology(IRI, (Declaration(EntityKind.CLASS, "A"), SubClassOf(NamedClass("A"), THING))),
)


def test_every_owl_value_class_has_a_sample():
    classes = {cls for cls in vars(fmc.owl).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    assert {type(value) for value in VALUES} == classes


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_owl_values_are_frozen_hashable_and_copyable(value):
    cls = type(value)
    params = dataclasses.fields(value)
    assert cls.__dataclass_params__.frozen and not hasattr(value, "__dict__")
    # a field, or any other name: THING.x = 1, del NamedClass("A").zz
    for name in [f.name for f in params] + ["x", "zz"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    args = [getattr(value, f.name) for f in params]
    shown = ", ".join(f"{f.name}={arg!r}" for f, arg in zip(params, args))
    assert repr(value) == f"{cls.__name__}({shown})"
    for fresh in (cls(*args), cls(**{f.name: arg for f, arg in zip(params, args)}),
                  copy.copy(value), pickle.loads(pickle.dumps(value)),
                  dataclasses.replace(value)):
        assert type(fresh) is cls
        assert fresh == value and hash(fresh) == hash(value) and repr(fresh) == repr(value)
    with pytest.raises(TypeError):
        cls(*args, None)


class _Named(NamedClass):
    """A NamedClass subclass: DisjointClasses checks it outside its
    inline test, as a named class."""

    __slots__ = ()


NOT_NAMED = "DisjointClasses operand must be a named class, got"


@pytest.mark.parametrize("a, b, outcome", [
    (A, NamedClass("B"), "DisjointClasses(:A :B)"),
    (ComplementOf(A), NamedClass("B"), (OwlError, f"{NOT_NAMED} ComplementOf")),
    (A, ComplementOf(X), (OwlError, f"{NOT_NAMED} ComplementOf")),
    (X, NamedClass("B"), (UndeclaredNameError, "Class 'X' used but not declared")),
    (A, Y, (UndeclaredNameError, "Class 'Y' used but not declared")),
    (X, Y, (UndeclaredNameError, "Class 'X' used but not declared")),
    (_Named("A"), NamedClass("B"), "DisjointClasses(:A :B)"),
    (A, _Named("X"), (UndeclaredNameError, "Class 'X' used but not declared")),
    (A, "B", (OwlError, f"{NOT_NAMED} str")),
])
def test_disjoint_classes_operands_check_and_render_as_elsewhere(a, b, outcome):
    decls = declared((EntityKind.CLASS, "A"), (EntityKind.CLASS, "B"))

    def result(axiom):
        """The rendered line if the axiom checks out, else the error."""
        try:
            list(_checked_axioms(IRI, [(*decls, axiom)]))
        except OwlError as exc:
            return type(exc), str(exc)
        text = serialize_functional(Ontology(IRI, (*decls, axiom)))
        line = text.splitlines()[-2]
        assert line == _render_axiom(axiom)
        return line

    assert result(DisjointClasses(a, b)) == outcome
    if isinstance(a, NamedClass) and isinstance(b, NamedClass):
        # named classes check and render as in any other slot
        general = result(EquivalentClasses(a, b))
        if isinstance(general, str):
            general = general.replace("EquivalentClasses(", "DisjointClasses(", 1)
        assert general == outcome
    if isinstance(outcome, tuple):
        assert first_error(*decls, DisjointClasses(a, b)) == outcome


@pytest.mark.parametrize("domain", [THING, ComplementOf(A), SomeValuesFrom("p", A), "A"],
                         ids=lambda domain: type(domain).__name__)
def test_a_data_property_domain_is_a_named_class(domain):
    decls = declared((EntityKind.CLASS, "A"), (EntityKind.OBJECT_PROPERTY, "p"),
                     (EntityKind.DATA_PROPERTY, "d"))
    assert first_error(*decls, DataPropertyDomain("d", domain)) == (
        OwlError, f"DataPropertyDomain domain must be a named class, got {type(domain).__name__}")


@pytest.mark.parametrize("iri, axioms, message", [
    (IRI, [Declaration("Class", "A")], "declaration kind must be an EntityKind, got str"),
    (IRI, [Declaration(EntityKind.CLASS, None)], "entity name must be a str, got NoneType"),
    (IRI, [SubClassOf(NamedClass(["A"]), THING)], "Class name must be a str, got list"),
    (IRI, [DisjointClasses(A, NamedClass(["A"]))], "Class name must be a str, got list"),
    (IRI, [DisjointClasses(NamedClass(b"A"), A)], "Class name must be a str, got bytes"),
    (IRI, [SubClassOf(A, SomeValuesFrom(5, A))], "ObjectProperty name must be a str, got int"),
    (IRI, [ObjectPropertyRange(("p",), A)], "ObjectProperty name must be a str, got tuple"),
    (IRI, [DataPropertyDomain(None, A)], "DataProperty name must be a str, got NoneType"),
    (IRI, [DataPropertyRange("d", b"xsd:string")], "datatype must be a str, got bytes"),
    (5, [], "ontology IRI must be a str, got int"),
    (("http://x#",), [], "ontology IRI must be a str, got tuple"),
])
def test_a_field_of_the_wrong_type_is_an_owl_error(iri, axioms, message):
    decls = declared((EntityKind.CLASS, "A"), (EntityKind.OBJECT_PROPERTY, "p"),
                     (EntityKind.DATA_PROPERTY, "d"))
    with pytest.raises(OwlError) as info:
        Ontology(iri, (*decls, *axioms))
    assert type(info.value) is OwlError and str(info.value) == message


def named_classes(value, found):
    """Append every NamedClass inside value to found, in order."""
    if isinstance(value, NamedClass):
        found.append(value)
    elif isinstance(value, (tuple, fmc.owl.Axioms)):
        for item in value:
            named_classes(item, found)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            named_classes(getattr(value, f.name), found)
    return found


def test_a_parse_shares_one_named_class_per_name():
    from conftest import GOLDEN_PATH

    text = GOLDEN_PATH.read_text(encoding="utf-8")
    first, second = parse_functional(text), parse_functional(text)
    uses = named_classes(first.axioms, [])
    by_name = {}
    for named in uses:
        by_name.setdefault(named.name, set()).add(id(named))
    assert len(uses) > len(by_name) > 1
    assert all(len(ids) == 1 for ids in by_name.values())
    assert not {id(named) for named in uses} & {
        id(named) for named in named_classes(second.axioms, [])}
    assert first == second


def test_serialize_single_declaration():
    text = serialize_functional(Ontology(IRI, declared((EntityKind.CLASS, "AISCO"))))
    assert "Declaration(Class(:AISCO))" in text
    assert text.startswith(f"Prefix(:=<{IRI}>)\nOntology(<{IRI}>\n")
    assert text.endswith("\n)\n")


def test_serialize_fragment_shapes():
    axioms = declared(
        (EntityKind.CLASS, "A"), (EntityKind.CLASS, "ARule"),
        (EntityKind.CLASS, "B"), (EntityKind.OBJECT_PROPERTY, "hasA"),
        (EntityKind.OBJECT_PROPERTY, "hasB"),
    ) + (
        SubClassOf(NamedClass("ARule"), SomeValuesFrom("hasB", NamedClass("B"))),
        EquivalentClasses(NamedClass("ARule"), SomeValuesFrom("hasA", NamedClass("A"))),
        SubClassOf(NamedClass("A"), ComplementOf(
            IntersectionOf((SomeValuesFrom("hasB", NamedClass("B")),
                            SomeValuesFrom("hasA", NamedClass("A")))))),
        SubClassOf(NamedClass("A"), UnionOf(
            (SomeValuesFrom("hasA", NamedClass("A")), SomeValuesFrom("hasB", NamedClass("B"))))),
        SubClassOf(THING, AllValuesFrom("hasA", NamedClass("A"))),
    )
    text = serialize_functional(Ontology(IRI, axioms))
    assert "SubClassOf(:ARule ObjectSomeValuesFrom(:hasB :B))" in text
    assert "EquivalentClasses(:ARule ObjectSomeValuesFrom(:hasA :A))" in text
    assert ("SubClassOf(:A ObjectComplementOf(ObjectIntersectionOf("
            "ObjectSomeValuesFrom(:hasB :B) ObjectSomeValuesFrom(:hasA :A))))") in text
    assert ("SubClassOf(:A ObjectUnionOf(ObjectSomeValuesFrom(:hasA :A) "
            "ObjectSomeValuesFrom(:hasB :B)))") in text
    assert "SubClassOf(owl:Thing ObjectAllValuesFrom(:hasA :A))" in text


def test_line_count_is_axioms_plus_overhead():
    for ontology in (Ontology(IRI, ()),
                     Ontology(IRI, declared((EntityKind.CLASS, "A"),
                                            (EntityKind.CLASS, "B")))):
        lines = serialize_functional(ontology).splitlines()
        assert len(lines) == len(ontology.axioms) + 3


def test_undeclared_names_rejected():
    with pytest.raises(UndeclaredNameError, match="Class 'B'"):
        validate_ontology(Ontology(IRI, declared((EntityKind.CLASS, "A")) + (
            SubClassOf(NamedClass("A"), NamedClass("B")),)))
    with pytest.raises(UndeclaredNameError, match="ObjectProperty 'hasB'"):
        validate_ontology(Ontology(IRI, declared((EntityKind.CLASS, "A")) + (
            SubClassOf(NamedClass("A"), SomeValuesFrom("hasB", NamedClass("A"))),)))
    with pytest.raises(UndeclaredNameError, match="DataProperty"):
        validate_ontology(Ontology(IRI, declared((EntityKind.CLASS, "A")) + (
            DataPropertyDomain("total", NamedClass("A")),)))


def test_duplicate_declaration_rejected():
    with pytest.raises(OwlError, match="duplicate Class declaration"):
        validate_ontology(Ontology(IRI, declared(
            (EntityKind.CLASS, "A"), (EntityKind.CLASS, "A"))))
    # same name under different kinds is allowed (punning)
    validate_ontology(Ontology(IRI, declared(
        (EntityKind.CLASS, "A"), (EntityKind.OBJECT_PROPERTY, "A"))))


@pytest.mark.parametrize("iri", ["", "has space", "x<y", "x>y", "http://x\t#", "http://x\r#",
                                 "http://x\x0b#", "http://x\x85#", "http://x\xa0#",
                                 "http://x\u2028#", "http://x\u3000#", "http://x\udcff#"])
def test_an_iri_the_reader_rejects_is_rejected(iri):
    with pytest.raises(OwlError, match="^invalid ontology IRI "):
        Ontology(iri, ())
    with pytest.raises(OwlError):
        parse_functional(f"Prefix(:=<{iri}>)\nOntology(<{iri}>\n)\n")


def test_an_iri_of_any_other_characters_reads_back():
    iri = "urn:x-\xe9\u4e2d\U0001f600/?a=b&c#%20'\"{}"
    ontology = Ontology(iri, ())
    assert parse_functional(serialize_functional(ontology)) == ontology


def test_bad_iri_and_bad_datatype_rejected():
    with pytest.raises(OwlError, match="invalid ontology IRI"):
        validate_ontology(Ontology("has space", ()))
    with pytest.raises(OwlError, match="unsupported datatype"):
        validate_ontology(Ontology(IRI, declared((EntityKind.DATA_PROPERTY, "d")) + (
            DataPropertyRange("d", "unprefixed"),)))


def first_error(*axioms):
    """The type and message of the error that building an ontology raises."""
    with pytest.raises(OwlError) as info:
        Ontology(IRI, axioms)
    return type(info.value), str(info.value)


def test_declaration_errors_come_before_use_errors():
    assert first_error(
        Declaration(EntityKind.CLASS, "A"), SubClassOf(A, X),
        Declaration(EntityKind.CLASS, "A"),
    ) == (OwlError, "duplicate Class declaration 'A'")


def test_first_undeclared_use_in_axiom_order_is_reported():
    assert first_error(
        Declaration(EntityKind.CLASS, "A"), SubClassOf(A, X), DisjointClasses(A, Y),
    ) == (UndeclaredNameError, "Class 'X' used but not declared")
    assert first_error(
        Declaration(EntityKind.CLASS, "A"), DisjointClasses(A, Y), SubClassOf(A, X),
    ) == (UndeclaredNameError, "Class 'Y' used but not declared")


def test_operands_are_checked_left_to_right():
    decl = Declaration(EntityKind.CLASS, "A")
    assert first_error(decl, SubClassOf(Y, X)) == (
        UndeclaredNameError, "Class 'Y' used but not declared")
    assert first_error(decl, EquivalentClasses(A, SomeValuesFrom("hasX", X))) == (
        UndeclaredNameError, "ObjectProperty 'hasX' used but not declared")
    assert first_error(decl, ObjectPropertyRange("hasX", X)) == (
        UndeclaredNameError, "ObjectProperty 'hasX' used but not declared")
    assert first_error(decl, DataPropertyDomain("d", X)) == (
        UndeclaredNameError, "DataProperty 'd' used but not declared")


def test_undeclared_data_property_beats_bad_datatype_on_the_same_axiom():
    assert first_error(DataPropertyRange("d", "unprefixed")) == (
        UndeclaredNameError, "DataProperty 'd' used but not declared")


def test_errors_on_different_axioms_come_in_axiom_order():
    decls = declared((EntityKind.CLASS, "A"), (EntityKind.DATA_PROPERTY, "d"))
    assert first_error(*decls, SubClassOf(A, X), DataPropertyRange("d", "unprefixed")) == (
        UndeclaredNameError, "Class 'X' used but not declared")
    assert first_error(*decls, DataPropertyRange("d", "unprefixed"), SubClassOf(A, X)) == (
        OwlError, "unsupported datatype 'unprefixed'")


def test_a_use_may_come_before_its_declaration():
    ontology = Ontology(IRI, (SubClassOf(A, SomeValuesFrom("hasX", X)),
                              *declared((EntityKind.OBJECT_PROPERTY, "hasX"),
                                        (EntityKind.CLASS, "X"), (EntityKind.CLASS, "A"))))
    assert parse_functional(serialize_functional(ontology)) == ontology


def deep_complement(depth):
    expr = A
    for _ in range(depth):
        expr = ComplementOf(expr)
    return expr


# one axiom of every kind of error the checker raises
ERRORS = [
    (Declaration(EntityKind.CLASS, "A"), OwlError, "duplicate Class declaration 'A'"),
    (Declaration(EntityKind.CLASS, "1A"), OwlError, "invalid entity name '1A'"),
    (Declaration("Class", "Q"), OwlError, "declaration kind must be an EntityKind, got str"),
    (SubClassOf(A, Y), UndeclaredNameError, "Class 'Y' used but not declared"),
    (DisjointClasses(A, Y), UndeclaredNameError, "Class 'Y' used but not declared"),
    (DisjointClasses(A, ComplementOf(X)), OwlError, f"{NOT_NAMED} ComplementOf"),
    (DataPropertyDomain("d", THING), OwlError,
     "DataPropertyDomain domain must be a named class, got Thing"),
    (DataPropertyRange("d", "unprefixed"), OwlError, "unsupported datatype 'unprefixed'"),
    (SubClassOf(A, SomeValuesFrom(5, A)), OwlError, "ObjectProperty name must be a str, got int"),
    (NamedClass("A"), OwlError, "unknown axiom NamedClass(name='A')"),
    (SubClassOf(A, Declaration(EntityKind.CLASS, "A")), OwlError,
     "unknown class expression Declaration(kind=<EntityKind.CLASS: 'Class'>, name='A')"),
    (SubClassOf(A, deep_complement(MAX_EXPR_DEPTH + 1)), OwlError,
     f"class expression nested more than {MAX_EXPR_DEPTH} levels deep"),
]


@pytest.mark.parametrize("bad, error, message", ERRORS,
                         ids=[f"{i}-{type(bad).__name__}" for i, (bad, _, _) in enumerate(ERRORS)])
@pytest.mark.parametrize("bad_first", [True, False], ids=["bad-first", "early-use-first"])
def test_an_early_use_of_a_name_does_not_change_the_first_error(bad, error, message, bad_first):
    # X and hasX are used before they are declared, which a valid ontology
    # may do; the error reported is the one the declarations-first order meets
    early = (SubClassOf(X, SomeValuesFrom("hasX", A)), DisjointClasses(X, A))
    body = (bad, *early) if bad_first else (*early, bad)
    decls = declared((EntityKind.CLASS, "A"), (EntityKind.DATA_PROPERTY, "d"))
    late = declared((EntityKind.CLASS, "X"), (EntityKind.OBJECT_PROPERTY, "hasX"))
    assert first_error(*decls, *body, *late) == (error, message)
    assert first_error(*decls, bad) == (error, message)
    valid = Ontology(IRI, (*decls, *early, *late))
    assert parse_functional(serialize_functional(valid)) == valid


def test_a_text_may_use_a_name_before_its_declaration():
    text = (HEADER + "SubClassOf(:A ObjectSomeValuesFrom(:hasB :B))\nDisjointClasses(:A :B)\n"
            "Declaration(Class(:A))\nDeclaration(Class(:B))\n"
            "Declaration(ObjectProperty(:hasB))\n)\n")
    ontology = parse_functional(text)
    assert serialize_functional(ontology) == text
    assert ontology.axioms[1] == DisjointClasses(A, NamedClass("B"))


def test_a_name_declared_after_its_use_does_not_hide_a_later_error():
    assert first_error(
        Declaration(EntityKind.DATA_PROPERTY, "d"), SubClassOf(A, X),
        DataPropertyRange("d", "unprefixed"),
        Declaration(EntityKind.CLASS, "A"), Declaration(EntityKind.CLASS, "X"),
    ) == (OwlError, "unsupported datatype 'unprefixed'")


def test_a_name_never_declared_comes_before_a_later_error():
    assert first_error(
        Declaration(EntityKind.DATA_PROPERTY, "d"), SubClassOf(A, X),
        DataPropertyRange("d", "unprefixed"), Declaration(EntityKind.CLASS, "A"),
    ) == (UndeclaredNameError, "Class 'X' used but not declared")


@pytest.mark.parametrize("axiom, message", [
    (NamedClass("A"), "unknown axiom NamedClass(name='A')"),
    (SubClassOf(A, Declaration(EntityKind.CLASS, "A")),
     "unknown class expression Declaration(kind=<EntityKind.CLASS: 'Class'>, name='A')"),
    (EquivalentClasses(ComplementOf(SubClassOf(A, A)), A),
     "unknown class expression SubClassOf(sub=NamedClass(name='A'), sup=NamedClass(name='A'))"),
], ids=["class-as-axiom", "axiom-as-expression", "axiom-as-operand"])
def test_a_value_out_of_place_is_an_owl_error(axiom, message):
    decl = Declaration(EntityKind.CLASS, "A")
    assert first_error(decl, axiom) == (OwlError, message)
    # the one-pass checker says the same when its batches declare first
    with pytest.raises(OwlError) as info:
        list(_checked_axioms(IRI, [(decl, axiom)]))
    assert type(info.value) is OwlError and str(info.value) == message


def test_axioms_from_an_iterator_are_all_checked_and_kept():
    axioms = (*declared((EntityKind.CLASS, "A")), SubClassOf(A, A))
    assert Ontology(IRI, iter(axioms)).axioms == axioms
    with pytest.raises(UndeclaredNameError, match="Class 'X'"):
        Ontology(IRI, iter((*axioms, SubClassOf(A, X))))


def test_round_trip_empty_ontology():
    ontology = Ontology(IRI, ())
    assert parse_functional(serialize_functional(ontology)) == ontology


def test_round_trip_all_constructs():
    axioms = declared(
        (EntityKind.CLASS, "A"), (EntityKind.CLASS, "B"),
        (EntityKind.OBJECT_PROPERTY, "p"), (EntityKind.DATA_PROPERTY, "d"),
    ) + (
        SubClassOf(NamedClass("A"), UnionOf((
            THING, ComplementOf(NamedClass("B")),
            IntersectionOf((NamedClass("A"), AllValuesFrom("p", NamedClass("B"))))))),
        EquivalentClasses(NamedClass("B"), SomeValuesFrom("p", THING)),
        DisjointClasses(NamedClass("A"), NamedClass("B")),
        ObjectPropertyRange("p", NamedClass("B")),
        DataPropertyDomain("d", NamedClass("A")),
        DataPropertyRange("d", "xsd:decimal"),
    )
    ontology = Ontology(IRI, axioms)
    assert parse_functional(serialize_functional(ontology)) == ontology


def test_round_trip_random_ontologies():
    rng = random.Random(4242)
    for _ in range(60):
        ontology = random_ontology(rng)
        assert parse_functional(serialize_functional(ontology)) == ontology


def test_parse_golden_file_matches_compile(aisco_ontology):
    from conftest import GOLDEN_PATH

    text = GOLDEN_PATH.read_text(encoding="utf-8")
    assert parse_functional(text) == aisco_ontology


def test_the_run_of_disjoint_classes_lines_of_the_golden_file_is_one_token():
    # a work count, not a timer: the golden file has 154 lines, 78 of them
    # DisjointClasses lines in one run; read as five tokens each they made
    # 917 tokens, and as one token each 605
    from conftest import GOLDEN_PATH

    text = GOLDEN_PATH.read_text(encoding="utf-8")
    assert len(_OwlParser(text).tokens) == 917 - 5 * 78 + 1 == 528


def test_a_run_of_disjoint_classes_lines_is_one_token_per_row_chunk():
    # the compiled DisjointClasses block of over 600 features is one run of
    # over 180,000 lines, whose first row alone is longer than a token holds
    ontology = compile_model(random_tree(random.Random("runs"), 601, 20))
    text = serialize_functional(ontology)
    runs = [len(list(lines)) for disjoint, lines in
            groupby(text.split("\n"), lambda line: line.startswith("DisjointClasses("))
            if disjoint]
    tokens = [tok for tok in _OwlParser(text).tokens if tok.startswith("DisjointClasses(")]
    assert max(runs) > _ROW_CHUNK
    assert len(tokens) == sum(-(-run // _ROW_CHUNK) for run in runs)
    assert max(tok.count("\n") + 1 for tok in tokens) == _ROW_CHUNK
    assert parse_functional(text) == ontology


def test_a_read_holds_the_unread_runs_or_their_axioms_not_both():
    # the block's run tokens are held until their check is done and then
    # dropped, and the block holds its classes, not an axiom per pair: for
    # this 1.35 MB text the read peaks at 2.18 MB and keeps 0.34 MB
    # (CPython 3.11), where building every pair's axiom peaked at 3.40 MB
    # and kept 2.85 MB. The bounds are those plus about 10%
    text = serialize_functional(compile_model(random_tree(random.Random("read"), 300, 10)))
    tracemalloc.start()
    try:
        ontology = parse_functional(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ontology.axioms) == text.count("\n") - 3
    assert peak < 1.8 * len(text), f"the read peaked at {peak / 1e6:.2f} MB"
    assert held < 0.28 * len(text), f"the read kept {held / 1e6:.2f} MB"


def blocks(ontology):
    """The number of DisjointClasses blocks, those whose rule is None."""
    return sum(fmc.owl._is_block(batch) and batch.rule is None
               for batch in ontology.axioms._batches)


def unbuilt_disjoint(monkeypatch):
    """Make iterating a DisjointClasses block fail; a group's still iterates."""
    iterate = fmc.owl._PairBlock.__iter__

    def unbuilt(block):
        if block.rule is None:
            raise AssertionError("the block's axioms were built")
        return iterate(block)

    monkeypatch.setattr(fmc.owl._PairBlock, "__iter__", unbuilt)


def test_a_compiled_text_reads_as_one_block_that_is_never_iterated(monkeypatch):
    # a work count: the read, len, the text and == against the compile take
    # the block's pairs, about 45,000, from its classes, and build none. The
    # compile's alternative groups are blocks too, which the read holds as
    # values: == compares those spans value by value
    model = random_tree(random.Random("work"), 300, 10)
    assert GroupKind.ALTERNATIVE in {g.kind for g in model.groups}
    text = serialize_functional(compile_model(model))
    unbuilt_disjoint(monkeypatch)
    ontology = parse_functional(text)
    assert blocks(ontology) == 1
    assert len(ontology.axioms) == text.count("\n") - 3
    assert serialize_functional(ontology) == text
    assert ontology == compile_model(model) and compile_model(model) == ontology


def test_a_late_declaration_leaves_the_block_unbuilt(monkeypatch):
    # a use before its declaration sends the read to the declarations-first
    # check, which passes the block whole: a block holds no declaration
    model = random_tree(random.Random("work"), 300, 10)
    lines = serialize_functional(compile_model(model)).split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith("Declaration("))
    lines.insert(-2, lines.pop(first))  # before the closing ")" and the final newline
    text = "\n".join(lines)
    expected = parse_functional(text)
    unbuilt_disjoint(monkeypatch)
    ontology = parse_functional(text)
    assert blocks(ontology) == 1 and ontology == expected
    assert serialize_functional(ontology) == text


def flat(n):
    return FeatureModel("R", (Feature("R", None, Variability.MANDATORY), *(
        Feature(f"C{i}", "R", Variability.OPTIONAL) for i in range(n - 1))))


@pytest.mark.parametrize("n", [1, 2, 3, _ROW_CHUNK, _ROW_CHUNK + 1, _ROW_CHUNK + 2,
                               2 * _ROW_CHUNK + 1])
def test_a_compiled_block_of_any_size_reads_as_one_block(n):
    # at n = 257 and 513 the first row ends where a run token ends
    model = flat(n)
    text = serialize_functional(compile_model(model))
    ontology = parse_functional(text)
    assert blocks(ontology) == (n > 1) and ontology == compile_model(model)
    assert len(ontology.axioms) == text.count("\n") - 3 and serialize_functional(ontology) == text


def general(text):
    """The text read with every DisjointClasses line as five tokens, by
    parse_axiom, the way a reader with no run tokens reads it."""
    return parse_functional(text.replace("DisjointClasses(:", "DisjointClasses( :"))


def read_as_general(text):
    """Read text, check it reads to the values and the text that the general
    path gives, and return what it read."""
    ontology, values = parse_functional(text), general(text)
    assert tuple(ontology.axioms) == tuple(values.axioms) and ontology == values
    assert serialize_functional(ontology) == serialize_functional(values)
    return ontology


BLOCK_TEXT = serialize_functional(compile_model(random_tree(random.Random("blocks"), 12, 2)))


def mutated(mutate):
    lines = BLOCK_TEXT.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith("DisjointClasses("))
    end = max(i for i, line in enumerate(lines) if line.startswith("DisjointClasses(")) + 1
    return "\n".join(mutate(lines, at, end))


def swap_lines(lines, at, end):
    lines[at + 3], lines[at + 4] = lines[at + 4], lines[at + 3]
    return lines


def swap_rows(lines, at, end):
    # a row of the block is its lines of one first class
    rows = [list(row) for _, row in groupby(lines[at:end], lambda line: line.split(" ")[0])]
    rows[1], rows[2] = rows[2], rows[1]
    lines[at:end] = [line for row in rows for line in row]
    return lines


def rename(lines, at, end):
    # the class F3 of every line becomes Nowhere, declared nowhere
    lines[at:end] = [line.replace(":F3 ", ":Nowhere ").replace(":F3)", ":Nowhere)")
                     for line in lines[at:end]]
    return lines


# a run of DisjointClasses lines that is exactly a block's reads as one
# _PairBlock, any other as a value per line: either way as the general
# path reads it, and back to the same text
@pytest.mark.parametrize("mutate,block", [
    (lambda lines, at, end: lines, 1),
    (swap_rows, 0),
    (swap_lines, 0),
    (lambda lines, at, end: lines[:at + 5] + lines[at + 6:], 0),
    (lambda lines, at, end: lines[:at + 6] + lines[at + 5:], 0),
    (lambda lines, at, end: lines[:end] + [lines[at]] + lines[end:], 0),
    (lambda lines, at, end: lines[:at + 7] + [""] + lines[at + 7:], 1),
    (lambda lines, at, end: "\r\n".join(lines).split("\n"), 1),
    (lambda lines, at, end: lines[:at + 1] + lines[end:], 1),
], ids=["as-written", "two-rows-swapped", "two-lines-swapped", "a-line-dropped", "a-line-duplicated",
        "an-extra-line-after", "a-blank-line-inside", "crlf", "one-pair"])
def test_a_run_that_is_not_exactly_a_block_reads_a_value_per_line(mutate, block):
    assert blocks(read_as_general(mutated(mutate))) == block


def test_a_block_with_an_undeclared_class_raises_the_error_of_its_axioms():
    text = mutated(rename)
    with pytest.raises(UndeclaredNameError) as info:
        parse_functional(text)
    with pytest.raises(UndeclaredNameError) as values:
        general(text)
    assert str(info.value) == str(values.value) == "Class 'Nowhere' used but not declared"


FIVE = ("Prefix(:=<http://x#>)\nOntology(<http://x#>\n"
        + "".join(f"Declaration(Class(:{name}))\n" for name in "ABCDE"))
PAIRS = [f"DisjointClasses(:{a} :{b})" for a, b in combinations("ABCDE", 2)]


@pytest.mark.parametrize("at", range(len(PAIRS) + 1))
def test_every_line_of_a_small_block_is_checked(at):
    # with a blank line at any boundary the run is still the block; with
    # any line dropped, repeated, or swapped with the next, it is not
    lines = PAIRS[:at] + [""] + PAIRS[at:]
    assert blocks(read_as_general(FIVE + "\n".join(lines) + "\n)\n")) == 1
    if at < len(PAIRS):
        for lines in (PAIRS[:at] + PAIRS[at + 1:], PAIRS[:at + 1] + PAIRS[at:],
                      PAIRS[:at] + PAIRS[at + 1:at + 2] + PAIRS[at:at + 1] + PAIRS[at + 2:]):
            ontology = read_as_general(FIVE + "\n".join(lines) + "\n)\n")
            assert blocks(ontology) == (lines == PAIRS)


@pytest.mark.parametrize("classes,block", [("ABA", 1), ("AAB", 0), ("AA", 1), ("AB", 1)])
def test_a_block_of_repeated_classes_reads_as_its_lines(classes, block):
    # the first row names the classes: from A, A, B it would name A, A, B, B
    lines = [f"DisjointClasses(:{a} :{b})" for a, b in combinations(classes, 2)]
    assert blocks(read_as_general(FIVE + "\n".join(lines) + "\n)\n")) == block


def test_two_blocks_read_as_two_blocks_with_the_values_between():
    rows = "\n".join(f"DisjointClasses(:{a} :{b})" for a, b in combinations("ABC", 2))
    text = FIVE + rows + "\nSubClassOf(:A :B)\n" + rows.replace("A", "D") + "\n)\n"
    ontology = read_as_general(text)
    assert [type(batch).__name__ for batch in ontology.axioms._batches] == [
        "tuple", "_PairBlock", "tuple", "_PairBlock"]


def test_the_axioms_are_a_sequence_that_acts_as_their_tuple():
    ontology = parse_functional(BLOCK_TEXT)
    axioms, values = ontology.axioms, tuple(ontology.axioms)
    assert type(axioms) is fmc.owl.Axioms and not isinstance(axioms, tuple)
    assert isinstance(axioms, Sequence) and blocks(ontology) == 1
    assert axioms == values and values == axioms and not axioms != values and not values != axioms
    for other in (values[:-1], values[1:], values[::-1], values[:-1] + (THING,), ()):
        assert axioms != other and other != axioms and not axioms == other
    assert hash(axioms) == hash(values) and repr(axioms) == repr(values)
    assert len(axioms) == len(values) == BLOCK_TEXT.count("\n") - 3
    assert [axioms[i] for i in range(-len(values), len(values))] == [*values, *values]
    for i in (len(values), -len(values) - 1):
        with pytest.raises(IndexError):
            axioms[i]
    for cut in (slice(None), slice(3, -3), slice(-5, None), slice(None, None, -7),
                slice(2, 400, 3), slice(10, 2), slice(0, 0)):
        assert type(axioms[cut]) is tuple and axioms[cut] == values[cut]
    # one batch of values, or a block; the same axioms either way
    built = Ontology(ontology.iri, values)
    assert blocks(built) == 0 and built.axioms == axioms and axioms == built.axioms
    assert built == ontology and hash(built) == hash(ontology)
    changed = Ontology(ontology.iri, values[:-1] + (values[-2],))
    assert changed.axioms != axioms and axioms != changed.axioms
    assert Ontology(ontology.iri, axioms).axioms is axioms


def test_blocks_over_the_same_axioms_compare_by_their_rules_and_terms(monkeypatch):
    a, b, c = map(NamedClass, "ABC")

    def axioms(*block):
        return fmc.owl.Axioms._of([(Declaration(EntityKind.CLASS, "A"),), fmc.owl._PairBlock(*block)])

    values = tuple(axioms((a, b, c)))

    def unbuilt(block):
        raise AssertionError("the block's axioms were built")

    monkeypatch.setattr(fmc.owl._PairBlock, "__iter__", unbuilt)
    assert axioms((a, b, c)) == axioms((a, b, c))
    assert axioms((a, b, c)) != axioms((a, c, b))
    assert axioms((a, b, c)) != axioms((a, b, c), a)
    monkeypatch.undo()
    # against values, or a block over other spans, the values compare
    assert axioms((a, b, c)) == values and values == axioms((a, b, c))
    assert axioms((a, b, c)) == fmc.owl.Axioms(values) == axioms((a, b, c))


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda value: pickle.loads(pickle.dumps(value))],
                         ids=["copy", "deepcopy", "pickle"])
def test_the_axioms_copy_with_their_block(copier):
    # a read block, and a compile's group block, which has a rule class
    group = compile_model(random_tree(random.Random("work"), 300, 10))
    assert any(fmc.owl._is_block(b) and b.rule is not None for b in group.axioms._batches)
    for ontology in (parse_functional(BLOCK_TEXT), group):
        for axioms in (copier(ontology.axioms), copier(ontology).axioms):
            assert type(axioms) is fmc.owl.Axioms and axioms == ontology.axioms
            assert [(type(batch), getattr(batch, "rule", None)) for batch in axioms._batches] == [
                (type(batch), getattr(batch, "rule", None)) for batch in ontology.axioms._batches]
        assert copier(ontology) == ontology


def test_parse_functional_file_skips_one_leading_byte_order_mark(tmp_path):
    from conftest import GOLDEN_PATH

    data = GOLDEN_PATH.read_bytes()
    path = tmp_path / "aisco.ofn"
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + data)
        assert parse_functional_file(path) == parse_functional(data.decode("utf-8"))
    path.write_bytes(b"\xef\xbb\xbf" * 2 + data)
    with pytest.raises(OwlSyntaxError, match="line 1, column 1: unexpected character"):
        parse_functional_file(path)


def test_write_functional_writes_the_golden_bytes(tmp_path, aisco_ontology):
    from conftest import GOLDEN_PATH

    path = tmp_path / "aisco.ofn"
    write_functional(aisco_ontology, path)
    assert path.read_bytes() == GOLDEN_PATH.read_bytes()


@pytest.mark.parametrize("text,fragment", [
    ("", "expected 'Prefix'"),
    ("Prefix(:=<http://x#>)", "expected 'Ontology'"),
    ("Prefix(:=<http://x#>)\nOntology(<http://x#>\nDeclaration(Class(:A)\n)",
     "unclosed 'Ontology"),
    ("Prefix(:=<http://x#>)\nOntology(<http://x#>\n) trailing", "unexpected 'trailing'"),
    ("Prefix(:=<http://x#>)\nOntology(<http://x#>\nSubClassOf(:A 5)\n)",
     "expected a class expression"),
    ("Prefix(:=<http://x#>)\nOntology(<http://x#>\nDataPropertyRange(:d :NotADatatype)\n)",
     "expected a datatype"),
])
def test_syntax_errors(text, fragment):
    with pytest.raises(OwlSyntaxError, match=fragment):
        parse_functional(text)


def test_a_default_prefix_other_than_the_ontology_iri_is_refused():
    # a :Name is read under the ontology IRI, and written back under it:
    # a text whose default prefix differs would move every entity
    text = ("Prefix(:=<http://a.example/x#>)\nOntology(<http://b.example/y#>\n"
            "Declaration(Class(:X))\n)")
    with pytest.raises(UnsupportedConstructError) as info:
        parse_functional(text)
    assert str(info.value) == ("line 2, column 10: default prefix 'http://a.example/x#' "
                               "is not the ontology IRI 'http://b.example/y#'")


def test_syntax_error_position():
    text = "Prefix(:=<http://x#>)\nOntology(<http://x#>\nDeclaration(Class(A))\n)"
    with pytest.raises(OwlSyntaxError) as info:
        parse_functional(text)
    assert info.value.line == 3 and info.value.column == 19


HEADER = "Prefix(:=<http://x#>)\nOntology(<http://x#>\n"


@pytest.mark.parametrize("text,message,line,column", [
    (HEADER + "Declaration(Class(:A))  \n\n", "unclosed 'Ontology('", 5, 1),
    ("Prefix(:=<http://x", "unexpected character '<'", 1, 10),
    (HEADER + "Declaration(Class(:=))\n)", "expected entity name (:Name), got ':='", 3, 19),
    (HEADER + "SubClassOf(<http://a> :B)\n)", "expected a class expression, got 'http://a'", 3, 12),
    (HEADER + "Declaration(Class(:A)) \xe9\n)", "unexpected character 'é'", 3, 24),
    # a header slot without an IRI
    ("Prefix(:=:A)\nOntology(<http://x#>\n)", "expected 'iri', got ':A'", 1, 10),
    ("Prefix(:=)\nOntology(<http://x#>\n)", "expected 'iri', got ')'", 1, 10),
    ("Prefix(:=<http://x#>)\nOntology(Foo\n)", "expected 'iri', got 'Foo'", 2, 10),
    ("Prefix(:=<http://x#>)\nOntology(", "expected 'iri', got end of input", 2, 10),
    # a DisjointClasses line, one token as the serializer writes it, reads
    # in the header as the word DisjointClasses
    ("Prefix(:=<http://x#>)\nOntology(DisjointClasses(:A :B)\n)",
     "expected 'iri', got 'DisjointClasses'", 2, 10),
    ("Prefix(:=DisjointClasses(:A :B))\nOntology(<http://x#>\n)",
     "expected 'iri', got 'DisjointClasses'", 1, 10),
    ("DisjointClasses(:A :B)\n" + HEADER + ")", "expected 'Prefix', got 'DisjointClasses'", 1, 1),
    ("Prefix(DisjointClasses(:A :B)", "expected ':=', got 'DisjointClasses'", 1, 8),
    ("Prefix(:=<http://x#>)DisjointClasses(:A :B)",
     "expected 'Ontology', got 'DisjointClasses'", 1, 22),
    # a run of DisjointClasses lines reads as its first line
    ("Prefix(DisjointClasses(:A :B)\nDisjointClasses(:A :B)",
     "expected ':=', got 'DisjointClasses'", 1, 8),
    ("Prefix(:=<http://x#>)DisjointClasses(:A :B)\nDisjointClasses(:A :B)",
     "expected 'Ontology', got 'DisjointClasses'", 1, 22),
    ("Prefix(:=<http://x#>)\nOntology(DisjointClasses(:A :B)\nDisjointClasses(:A :B)\n)",
     "expected 'iri', got 'DisjointClasses'", 2, 10),
])
def test_syntax_errors_carry_position(text, message, line, column):
    with pytest.raises(OwlSyntaxError) as info:
        parse_functional(text)
    assert type(info.value) is OwlSyntaxError
    assert message in str(info.value)
    assert (info.value.line, info.value.column) == (line, column)
    # the DSL's ParseError shares the base; an OwlSyntaxError is an OwlError
    assert isinstance(info.value, PositionedError) and isinstance(info.value, OwlError)


DECLARED = HEADER + "".join(f"Declaration(Class(:{name}))\n" for name in "ABC")
RUN = "DisjointClasses(:A :B)\n"


# where a DisjointClasses line is read in one look, anything unusual takes
# the general path: each case keeps the type, message, line and column it had
@pytest.mark.parametrize("axiom,error,message,line,column", [
    ("DisjointClasses(:A)\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got ')'", 6, 19),
    ("DisjointClasses()\n)", OwlSyntaxError, "expected disjoint class (:Name), got ')'", 6, 17),
    ("DisjointClasses(:A :B :C)\n)", UnsupportedConstructError,
     "n-ary DisjointClasses is not supported (expected exactly 2 operands)", 6, 23),
    ("DisjointClasses(:A :B :C\n)", UnsupportedConstructError,
     "n-ary DisjointClasses is not supported (expected exactly 2 operands)", 6, 23),
    ("DisjointClasses(:= :B)\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got ':='", 6, 17),
    ("DisjointClasses(:A :=)\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got ':='", 6, 20),
    ("DisjointClasses(owl:Thing :B)\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got 'owl:Thing'", 6, 17),
    ("DisjointClasses(:A owl:Thing)\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got 'owl:Thing'", 6, 20),
    ("DisjointClasses(:A ObjectComplementOf(:B))\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got 'ObjectComplementOf'", 6, 20),
    ("DisjointClasses(:A <http://b>)\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got 'http://b'", 6, 20),
    ("DisjointClasses :A :B)\n)", OwlSyntaxError, "expected '(', got ':A'", 6, 17),
    ("DisjointClasses(:A :B))\n)", OwlSyntaxError, "unexpected ')' after ontology", 7, 1),
    # cut off at the end of the text
    ("DisjointClasses", OwlSyntaxError, "expected '(', got end of input", 6, 16),
    ("DisjointClasses(", OwlSyntaxError,
     "expected disjoint class (:Name), got end of input", 6, 17),
    ("DisjointClasses(:A", OwlSyntaxError,
     "expected disjoint class (:Name), got end of input", 6, 19),
    ("DisjointClasses(:A :B", UnsupportedConstructError,
     "n-ary DisjointClasses is not supported (expected exactly 2 operands)", 6, 22),
    ("DisjointClasses(:A :B)", OwlSyntaxError, "unclosed 'Ontology(': expected ')'", 6, 23),
    ("DisjointClasses(:A :B)\n", OwlSyntaxError, "unclosed 'Ontology(': expected ')'", 7, 1),
    # the line as the serializer writes it is one token; where no axiom may
    # start it reads exactly as the word DisjointClasses, at its start
    ("SubClassOf(DisjointClasses(:A :B) :C)\n)", UnsupportedConstructError,
     "unsupported construct 'DisjointClasses'", 6, 12),
    ("SubClassOf(:C DisjointClasses(:A :B))\n)", UnsupportedConstructError,
     "unsupported construct 'DisjointClasses'", 6, 15),
    ("SubClassOf(:C ObjectComplementOf(DisjointClasses(:A :B)))\n)", UnsupportedConstructError,
     "unsupported construct 'DisjointClasses'", 6, 34),
    ("SubClassOf(:C ObjectIntersectionOf(:A :B DisjointClasses(:A :B)))\n)",
     UnsupportedConstructError, "unsupported construct 'DisjointClasses'", 6, 42),
    ("SubClassOf(:C ObjectSomeValuesFrom(DisjointClasses(:A :B) :A))\n)", OwlSyntaxError,
     "expected object property (:Name), got 'DisjointClasses'", 6, 36),
    ("SubClassOf(:A :B DisjointClasses(:A :B))\n)", OwlSyntaxError,
     "expected ')', got 'DisjointClasses'", 6, 18),
    ("EquivalentClasses(:A :B DisjointClasses(:A :B))\n)", UnsupportedConstructError,
     "n-ary EquivalentClasses is not supported (expected exactly 2 operands)", 6, 25),
    ("DisjointClasses(:A :B DisjointClasses(:A :B))\n)", UnsupportedConstructError,
     "n-ary DisjointClasses is not supported (expected exactly 2 operands)", 6, 23),
    ("DisjointClasses(DisjointClasses(:A :B) :C)\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got 'DisjointClasses'", 6, 17),
    ("Declaration(DisjointClasses(:A :B))\n)", UnsupportedConstructError,
     "unsupported declaration kind 'DisjointClasses'", 6, 13),
    ("Declaration(Class(DisjointClasses(:A :B)))\n)", OwlSyntaxError,
     "expected entity name (:Name), got 'DisjointClasses'", 6, 19),
    ("DataPropertyRange(:d DisjointClasses(:A :B))\n)", OwlSyntaxError,
     "expected a datatype, got 'DisjointClasses'", 6, 22),
    ("DataPropertyRange(DisjointClasses(:A :B) xsd:string)\n)", OwlSyntaxError,
     "expected data property (:Name), got 'DisjointClasses'", 6, 19),
    ("DataPropertyDomain(:d DisjointClasses(:A :B))\n)", OwlSyntaxError,
     "expected domain class (:Name), got 'DisjointClasses'", 6, 23),
    ("ObjectPropertyRange(DisjointClasses(:A :B) :A)\n)", OwlSyntaxError,
     "expected object property (:Name), got 'DisjointClasses'", 6, 21),
    # after the closing parenthesis
    (")\nDisjointClasses(:A :B)", OwlSyntaxError,
     "unexpected 'DisjointClasses' after ontology", 7, 1),
    (")\nDisjointClasses(:A :B)\n", OwlSyntaxError,
     "unexpected 'DisjointClasses' after ontology", 7, 1),
    (")DisjointClasses(:A :B)", OwlSyntaxError,
     "unexpected 'DisjointClasses' after ontology", 6, 2),
    # a run of such lines is one token, read where no axiom may start as
    # its first line is; a line of any other form ends the run
    ("SubClassOf(DisjointClasses(:A :B)\nDisjointClasses(:A :C) :C)\n)",
     UnsupportedConstructError, "unsupported construct 'DisjointClasses'", 6, 12),
    ("SubClassOf(:C DisjointClasses(:A :B)\nDisjointClasses(:A :C))\n)",
     UnsupportedConstructError, "unsupported construct 'DisjointClasses'", 6, 15),
    ("Declaration(DisjointClasses(:A :B)\nDisjointClasses(:B :C))\n)",
     UnsupportedConstructError, "unsupported declaration kind 'DisjointClasses'", 6, 13),
    (")\nDisjointClasses(:A :B)\nDisjointClasses(:B :C)\n", OwlSyntaxError,
     "unexpected 'DisjointClasses' after ontology", 7, 1),
    ("DisjointClasses(:A :B)\nDisjointClasses(:A :C)\nDisjointClasses(:A :B :C)\n)",
     UnsupportedConstructError,
     "n-ary DisjointClasses is not supported (expected exactly 2 operands)", 8, 23),
    ("DisjointClasses(:A :B)\r\nDisjointClasses(:A :C)\r\nDisjointClasses(:A)\n)",
     OwlSyntaxError, "expected disjoint class (:Name), got ')'", 8, 19),
    ("DisjointClasses(:A :B)\nDisjointClasses(:A  :C)\nDisjointClasses(:B :C)\n"
     "DisjointClasses(:A :=)\n)", OwlSyntaxError,
     "expected disjoint class (:Name), got ':='", 9, 20),
    # a token holds at most _ROW_CHUNK lines; the next line starts the next
    pytest.param(RUN * 256 + "DisjointClasses(:A)\n)", OwlSyntaxError,
                 "expected disjoint class (:Name), got ')'", 262, 19, id="after-256-lines"),
    pytest.param(RUN * 257 + "DisjointClasses(:A)\n)", OwlSyntaxError,
                 "expected disjoint class (:Name), got ')'", 263, 19, id="after-257-lines"),
    pytest.param(RUN * 256 + "))", OwlSyntaxError,
                 "unexpected ')' after ontology", 262, 2, id="256-lines-then-two-closings"),
    pytest.param(RUN * 257 + "))", OwlSyntaxError,
                 "unexpected ')' after ontology", 263, 2, id="257-lines-then-two-closings"),
    pytest.param("SubClassOf(" + RUN * 257 + ":C)\n)", UnsupportedConstructError,
                 "unsupported construct 'DisjointClasses'", 6, 12, id="257-lines-as-an-operand"),
    pytest.param(")\n" + RUN * 257, OwlSyntaxError,
                 "unexpected 'DisjointClasses' after ontology", 7, 1,
                 id="257-lines-after-the-ontology"),
])
def test_disjoint_classes_errors_keep_their_position(axiom, error, message, line, column):
    with pytest.raises(OwlSyntaxError) as info:
        parse_functional(DECLARED + axiom)
    assert type(info.value) is error
    assert str(info.value) == f"line {line}, column {column}: {message}"
    assert (info.value.line, info.value.column) == (line, column)


def test_disjoint_classes_of_an_undeclared_name_is_refused_after_reading():
    with pytest.raises(UndeclaredNameError) as info:
        parse_functional(DECLARED + "DisjointClasses(:A :Z)\n)")
    assert str(info.value) == "Class 'Z' used but not declared"


def test_trailing_white_space_after_the_ontology_parses():
    assert parse_functional(HEADER + ")\n   ") == Ontology("http://x#", ())


@pytest.mark.parametrize("axiom", [
    "SubObjectPropertyOf(ObjectPropertyChain(:p :q) :r)",
    "AnnotationAssertion(rdfs:label :A :B)",
    "Declaration(NamedIndividual(:bob))",
    "Declaration(Datatype(:D))",
    "SubClassOf(:A ObjectMinCardinality(2 :p :B))",
    "SubClassOf(:A DataSomeValuesFrom(:d xsd:string))",
    "DisjointClasses(:A :B :C)",
    "EquivalentClasses(:A :B :C)",
])
def test_unsupported_constructs_rejected(axiom):
    with pytest.raises(UnsupportedConstructError):
        parse_functional(HEADER + axiom + "\n)")


def nested_complements(depth):
    return (HEADER + "Declaration(Class(:A))\nSubClassOf(:A "
            + "ObjectComplementOf(" * depth + ":A" + ")" * depth + ")\n)")


def test_expression_nesting_is_limited():
    expr = NamedClass("A")
    for _ in range(MAX_EXPR_DEPTH):
        expr = ComplementOf(expr)
    assert parse_functional(nested_complements(MAX_EXPR_DEPTH)).axioms[1] == SubClassOf(
        NamedClass("A"), expr)
    for depth in (MAX_EXPR_DEPTH + 1, 2000):
        with pytest.raises(OwlSyntaxError, match="nested more than") as info:
            parse_functional(nested_complements(depth))
        # at the first keyword past the limit
        assert info.value.line == 4
        assert info.value.column == len("SubClassOf(:A ") + MAX_EXPR_DEPTH * len(
            "ObjectComplementOf(") + 1
        # an Ontology built in code is held to the same bound
        deep = NamedClass("A")
        for _ in range(depth):
            deep = ComplementOf(deep)
        with pytest.raises(OwlError, match="nested more than"):
            Ontology(IRI, declared((EntityKind.CLASS, "A")) + (SubClassOf(NamedClass("A"), deep),))
