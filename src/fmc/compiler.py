"""Feature model to OWL ontology transformation.

Every feature F contributes five base axioms: the class F, a rule class
FRule, an object property hasF with range F, and the defining equivalence
FRule ≡ ∃hasF.F. Tree relations and cross-tree constraints then become
subclass restrictions:

    mandatory child B of A   SubClassOf(ARule, ∃hasB.B)
    optional child           no extra axiom
    or group under A         SubClassOf(ARule, ∃hasB1.B1 ⊔ … ⊔ ∃hasBn.Bn)
    alternative group        the or axiom plus pairwise
                             SubClassOf(ARule, ¬(∃hasBi.Bi ⊓ ∃hasBj.Bj))
    A requires B             SubClassOf(A, ∃hasB.B)
    A excludes B             SubClassOf(A, ¬∃hasB.B)

All feature classes are pairwise disjoint, and each attribute becomes a
datatype property with the feature class as domain and an xsd range.

Axiom order: the base axioms of each feature (feature order); the relation
axioms of ``propositional._rules``, each at its first non-owner feature in
feature order (a group's at its first member); constraint axioms
(declaration order); DisjointClasses for every pair of feature names,
lexicographic; then the attribute axioms (feature order).

Every name is declared before its first use: a feature's classes and
property in its base axioms, a data property right before its domain
and range. ``_axioms`` yields the axioms in batches: each feature's base
axioms, each relation's or constraint's, each attribute's, and each row
of pairs, one class (or group member) against the later ones, in pieces
of at most ``_ROW_CHUNK``. So no batch holds more than 256 axioms, and a
compile error is raised between batches, where it was met.
``compile_model`` flattens the batches into an ``Ontology``;
``fmc compile`` instead streams them through the declare-before-use
checker into the output file a batch at a time, so no batch is kept
once it is written, and ``fmc scaffold`` skips the DisjointClasses
block, which is nearly all of the axioms and which the scaffold does
not read. A piece of a DisjointClasses row is a ``fmc.owl._DisjointRow``
of the features' shared ``NamedClass`` terms, which builds no axiom
value unless it is iterated: the streaming checker passes it in one
step and the renderer writes it with one join, and each batch reaches
the output's spool in one encoded write (``fmc.owl``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain, repeat

from .model import FeatureModel
from .owl import (
    Axiom,
    ComplementOf,
    Declaration,
    DataPropertyDomain,
    DataPropertyRange,
    EntityKind,
    EquivalentClasses,
    IntersectionOf,
    NamedClass,
    ObjectPropertyRange,
    Ontology,
    OwlError,
    SomeValuesFrom,
    SubClassOf,
    UnionOf,
    _ROW_CHUNK,
    _DisjointRow,
)
from .propositional import _rules, _variables


class CompileError(Exception):
    pass


def default_iri(root_name: str) -> str:
    return f"http://example.org/spl/{root_name}#"


# The class expressions one feature F contributes to many axioms: the
# NamedClass F, the NamedClass FRule and the SomeValuesFrom ∃hasF.F.
_Terms = namedtuple("_Terms", "cls rule exists")


def _rows(items: list) -> Iterator[tuple[object, list]]:
    """The pairs of ``combinations(items, 2)`` as (a, [b, ...]): each item
    with the items after it, at most ``_ROW_CHUNK`` of them at a time."""
    for i, a in enumerate(items[:-1], 1):
        for j in range(i, len(items), _ROW_CHUNK):
            yield a, items[j:j + _ROW_CHUNK]


def _axioms(model: FeatureModel, *, disjoint: bool = True) -> Iterator[Sequence[Axiom]]:
    """Yield the ontology's axioms in the order the module docstring
    states, in batches: each feature's five base axioms, each relation's
    or constraint's axioms, an alternative group's pairwise axioms a row
    at a time (``_rows``), and each attribute's three axioms, as lists;
    and the DisjointClasses block a row at a time, as ``_DisjointRow``s.

    Each feature's terms are built once; every axiom refers to these
    shared, immutable objects. With disjoint=False the DisjointClasses
    block, which only a reasoner reads, is left out.
    """
    var = _variables(model)
    terms = [None]  # terms[v]: the terms of variable v's feature
    for feature in model.features:
        name = feature.name
        cls = NamedClass(name)
        t = _Terms(cls, NamedClass(name + "Rule"), SomeValuesFrom("has" + name, cls))
        terms.append(t)
        yield [
            Declaration(EntityKind.CLASS, name),
            Declaration(EntityKind.CLASS, t.rule.name),
            Declaration(EntityKind.OBJECT_PROPERTY, t.exists.property),
            ObjectPropertyRange(t.exists.property, cls),
            EquivalentClasses(t.rule, t.exists),
        ]

    # each relation at its first non-owner feature (distinct features, so the
    # sort compares nothing else); constraints last, as declared. A rule
    # names the variables of its clause, the owner first
    _, _, mandatory, group, constraint = _rules(model, var)
    relations = sorted((min(map(abs, clause[1:])), kind, clause)
                       for batch in (mandatory, group)
                       for kind, clause in zip(batch.rules, batch.clauses()))
    relations += zip(repeat(None), constraint.rules, constraint.clauses())
    for _, kind, clause in relations:
        owner, *others = map(terms.__getitem__, map(abs, clause))
        exists = [t.exists for t in others]
        if kind == "mandatory":
            yield [SubClassOf(owner.rule, exists[0])]
        elif kind == "requires":  # a constraint restricts the feature class, not its rule class
            yield [SubClassOf(owner.cls, exists[0])]
        elif kind == "excludes":
            yield [SubClassOf(owner.cls, ComplementOf(exists[0]))]
        else:
            yield [SubClassOf(owner.rule, UnionOf(tuple(exists)))]
            if kind == "alternative":
                for a, row in _rows(exists):
                    yield [SubClassOf(owner.rule, ComplementOf(IntersectionOf((a, b))))
                           for b in row]

    if disjoint:
        for a, row in _rows([terms[var[name]].cls for name in sorted(var)]):
            yield _DisjointRow(a, row)

    # data-property names share one global namespace
    declared: set[str] = set()
    for feature in model.features:
        for attr in feature.attributes:
            if attr.name in declared:
                raise CompileError(
                    f"duplicate data property '{attr.name}' (attribute names are global)")
            declared.add(attr.name)
            cls = terms[var[feature.name]].cls
            yield [
                Declaration(EntityKind.DATA_PROPERTY, attr.name),
                DataPropertyDomain(attr.name, cls),
                DataPropertyRange(attr.name, "xsd:" + attr.datatype),
            ]


def compile_model(model: FeatureModel, iri: str | None = None) -> Ontology:
    """Transform a feature model into its OWL ontology.

    iri defaults to ``default_iri(model.root)``. An OwlError from the
    ontology's validation, e.g. for feature names A and ARule colliding
    on the rule class, becomes a CompileError.
    """
    try:
        return Ontology(default_iri(model.root) if iri is None else iri,
                        tuple(chain.from_iterable(_axioms(model))))
    except OwlError as exc:
        raise CompileError(str(exc)) from exc
