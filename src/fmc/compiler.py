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
"""

from __future__ import annotations

from .model import Feature, FeatureModel, Group, GroupKind, ConstraintKind, Variability
from .owl import (
    Axiom,
    ComplementOf,
    Declaration,
    DataPropertyDomain,
    DataPropertyRange,
    DisjointClasses,
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
)


class CompileError(Exception):
    pass


def rule_class_name(feature_name: str) -> str:
    return feature_name + "Rule"


def property_name(feature_name: str) -> str:
    return "has" + feature_name


def default_iri(root_name: str) -> str:
    return f"http://example.org/spl/{root_name}#"


def _exists(feature_name: str) -> SomeValuesFrom:
    return SomeValuesFrom(property_name(feature_name), NamedClass(feature_name))


def emit_feature_base(feature: Feature) -> list[Axiom]:
    """The five per-feature axioms, in fixed order."""
    name = feature.name
    return [
        Declaration(EntityKind.CLASS, name),
        Declaration(EntityKind.CLASS, rule_class_name(name)),
        Declaration(EntityKind.OBJECT_PROPERTY, property_name(name)),
        ObjectPropertyRange(property_name(name), NamedClass(name)),
        EquivalentClasses(NamedClass(rule_class_name(name)), _exists(name)),
    ]


def emit_mandatory(parent: Feature, child: Feature) -> Axiom:
    return SubClassOf(NamedClass(rule_class_name(parent.name)), _exists(child.name))


def emit_or(parent: Feature, group: Group) -> Axiom:
    union = UnionOf(tuple(_exists(m) for m in group.members))
    return SubClassOf(NamedClass(rule_class_name(parent.name)), union)


def emit_alternative(parent: Feature, group: Group) -> list[Axiom]:
    """At-least-one union axiom plus pairwise at-most-one exclusions."""
    rule = NamedClass(rule_class_name(parent.name))
    axioms: list[Axiom] = [emit_or(parent, group)]
    members = group.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            both = IntersectionOf((_exists(members[i]), _exists(members[j])))
            axioms.append(SubClassOf(rule, ComplementOf(both)))
    return axioms


def emit_requires(source: Feature, target: Feature) -> Axiom:
    # the restriction attaches to the feature class itself, not its rule class
    return SubClassOf(NamedClass(source.name), _exists(target.name))


def emit_excludes(source: Feature, target: Feature) -> Axiom:
    return SubClassOf(NamedClass(source.name), ComplementOf(_exists(target.name)))


def emit_disjointness(model: FeatureModel) -> list[Axiom]:
    """DisjointClasses(Fi, Fj) for every unordered pair, lexicographic."""
    names = sorted(model.feature_names)
    return [
        DisjointClasses(NamedClass(names[i]), NamedClass(names[j]))
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]


def emit_attributes(feature: Feature, seen_properties: set | None = None) -> list[Axiom]:
    """Datatype-property axioms for one feature's attributes.

    Data-property names share one global namespace; pass the same
    seen_properties set across features to reject collisions.
    """
    seen = seen_properties if seen_properties is not None else set()
    axioms: list[Axiom] = []
    for attr in feature.attributes:
        if attr.name in seen:
            raise CompileError(
                f"duplicate data property '{attr.name}' (attribute names are global)")
        seen.add(attr.name)
        axioms.append(Declaration(EntityKind.DATA_PROPERTY, attr.name))
        axioms.append(DataPropertyDomain(attr.name, NamedClass(feature.name)))
        axioms.append(DataPropertyRange(attr.name, "xsd:" + attr.datatype))
    return axioms


def compile_model(model: FeatureModel, iri: str | None = None) -> Ontology:
    """Transform a feature model into its OWL ontology.

    Axiom order: base axioms per feature (feature order), relation axioms
    (feature order: a mandatory child's axiom at the child's position, a
    group's axioms at its first member's position), cross-tree constraint
    axioms (declaration order), disjointness, then attribute axioms.
    """
    axioms: list[Axiom] = []
    for feature in model.features:
        axioms.extend(emit_feature_base(feature))

    emitted_groups: set[int] = set()
    for feature in model.features:
        if feature.parent is None:
            continue
        parent = model.feature(feature.parent)
        if feature.variability is Variability.MANDATORY:
            axioms.append(emit_mandatory(parent, feature))
        elif feature.variability is Variability.GROUP_MEMBER:
            if feature.group not in emitted_groups:
                emitted_groups.add(feature.group)
                group = model.group(feature.group)
                if group.kind is GroupKind.OR:
                    axioms.append(emit_or(parent, group))
                else:
                    axioms.extend(emit_alternative(parent, group))

    for constraint in model.constraints:
        source = model.feature(constraint.source)
        target = model.feature(constraint.target)
        if constraint.kind is ConstraintKind.REQUIRES:
            axioms.append(emit_requires(source, target))
        else:
            axioms.append(emit_excludes(source, target))

    axioms.extend(emit_disjointness(model))

    seen_properties: set[str] = set()
    for feature in model.features:
        axioms.extend(emit_attributes(feature, seen_properties))

    try:
        return Ontology(iri or default_iri(model.root), tuple(axioms))
    except OwlError as exc:
        # e.g. feature names A and ARule colliding on the rule class
        raise CompileError(str(exc)) from exc
