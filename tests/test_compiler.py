import random

import pytest

from fmc.compiler import (
    CompileError,
    compile_model,
    default_iri,
    emit_alternative,
    emit_attributes,
    emit_disjointness,
    emit_excludes,
    emit_feature_base,
    emit_mandatory,
    emit_or,
    emit_requires,
)
from fmc.dsl import parse
from fmc.model import Attribute, Feature, Variability
from fmc.owl import (
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
    SomeValuesFrom,
    SubClassOf,
    UnionOf,
    serialize_functional,
)

from helpers import random_model

A = Feature("A", None, Variability.MANDATORY)
B = Feature("B", "A", Variability.MANDATORY)


def exists(name):
    return SomeValuesFrom(f"has{name}", NamedClass(name))


def test_feature_base_is_five_axioms_in_order():
    assert emit_feature_base(Feature("X", None, Variability.MANDATORY)) == [
        Declaration(EntityKind.CLASS, "X"),
        Declaration(EntityKind.CLASS, "XRule"),
        Declaration(EntityKind.OBJECT_PROPERTY, "hasX"),
        ObjectPropertyRange("hasX", NamedClass("X")),
        EquivalentClasses(NamedClass("XRule"), exists("X")),
    ]


def test_mandatory_restricts_parent_rule_class():
    assert emit_mandatory(A, B) == SubClassOf(NamedClass("ARule"), exists("B"))


def test_requires_attaches_to_feature_class():
    source = Feature("MemberNotification", "R", Variability.OPTIONAL)
    target = Feature("Donor", "R", Variability.OPTIONAL)
    assert emit_requires(source, target) == SubClassOf(
        NamedClass("MemberNotification"), exists("Donor"))


def test_excludes_is_complemented_existential():
    assert emit_excludes(A, B) == SubClassOf(NamedClass("A"), ComplementOf(exists("B")))


def test_or_group_is_union_over_members():
    model = parse("feature A { or { B C D } }")
    axiom = emit_or(model.feature("A"), model.groups[0])
    assert axiom == SubClassOf(
        NamedClass("ARule"), UnionOf((exists("B"), exists("C"), exists("D"))))


def test_alternative_adds_pairwise_exclusions():
    model = parse("feature A { alternative { B C D } }")
    axioms = emit_alternative(model.feature("A"), model.groups[0])
    assert len(axioms) == 1 + 3  # union + n(n-1)/2 pairs
    assert axioms[0] == emit_or(model.feature("A"), model.groups[0])
    assert axioms[1] == SubClassOf(
        NamedClass("ARule"),
        ComplementOf(IntersectionOf((exists("B"), exists("C")))))
    pairs = {(x.sup.operand.operands[0].filler.name,
              x.sup.operand.operands[1].filler.name) for x in axioms[1:]}
    assert pairs == {("B", "C"), ("B", "D"), ("C", "D")}


def test_disjointness_covers_all_pairs_lexicographically():
    model = parse("feature M { optional Zeta optional Alpha }")
    axioms = emit_disjointness(model)
    assert axioms == [
        DisjointClasses(NamedClass("Alpha"), NamedClass("M")),
        DisjointClasses(NamedClass("Alpha"), NamedClass("Zeta")),
        DisjointClasses(NamedClass("M"), NamedClass("Zeta")),
    ]


def test_attributes_emit_domain_and_range():
    feature = Feature("DonationData", "A", Variability.OPTIONAL,
                      attributes=(Attribute("total", "decimal"),))
    assert emit_attributes(feature) == [
        Declaration(EntityKind.DATA_PROPERTY, "total"),
        DataPropertyDomain("total", NamedClass("DonationData")),
        DataPropertyRange("total", "xsd:decimal"),
    ]
    assert emit_attributes(Feature("X", "A", Variability.OPTIONAL)) == []


def test_duplicate_attribute_name_across_features_fails():
    model = parse("feature A { optional B { attribute total : decimal } "
                  "optional C { attribute total : integer } }")
    with pytest.raises(CompileError, match="duplicate data property 'total'"):
        compile_model(model)


def test_rule_class_name_collision_fails():
    model = parse("feature A { optional B optional BRule }")
    with pytest.raises(CompileError, match="duplicate Class declaration 'BRule'"):
        compile_model(model)


def test_single_feature_compiles_to_five_axioms():
    ontology = compile_model(parse("feature Only"))
    assert len(ontology.axioms) == 5
    assert ontology.iri == default_iri("Only") == "http://example.org/spl/Only#"


def test_custom_iri():
    assert compile_model(parse("feature A"), "http://acme.test/fm#").iri == \
        "http://acme.test/fm#"


def test_every_feature_gets_one_rule_equivalence():
    rng = random.Random(5)
    for _ in range(20):
        model = random_model(rng, allow_attributes=True)
        ontology = compile_model(model)
        for name in model.feature_names:
            matching = [a for a in ontology.axioms
                        if isinstance(a, EquivalentClasses)
                        and a.a == NamedClass(name + "Rule")]
            assert matching == [EquivalentClasses(NamedClass(name + "Rule"), exists(name))]


def test_optional_children_add_no_rule_restrictions():
    model = parse("feature A { optional B mandatory C }")
    ontology = compile_model(model)
    restrictions = [a for a in ontology.axioms
                    if isinstance(a, SubClassOf) and a.sub == NamedClass("ARule")]
    assert restrictions == [SubClassOf(NamedClass("ARule"), exists("C"))]


def test_axiom_count_formula_without_groups():
    rng = random.Random(11)
    for _ in range(40):
        model = random_model(rng, allow_groups=False)
        f = len(model.features)
        m = sum(1 for x in model.features
                if x.parent is not None and x.variability is Variability.MANDATORY)
        r = len(model.constraints)  # requires and excludes both emit one axiom
        ontology = compile_model(model)
        assert len(ontology.axioms) == 5 * f + m + r + f * (f - 1) // 2


def test_compile_is_deterministic(aisco_model):
    first = serialize_functional(compile_model(aisco_model))
    second = serialize_functional(compile_model(aisco_model))
    assert first == second


def test_relation_axioms_follow_feature_order():
    model = parse("feature A { optional B { mandatory D } mandatory C }")
    ontology = compile_model(model)
    rule_axioms = [a for a in ontology.axioms if isinstance(a, SubClassOf)]
    # D precedes C in feature (preorder) order, so its axiom comes first
    assert rule_axioms == [
        SubClassOf(NamedClass("BRule"), exists("D")),
        SubClassOf(NamedClass("ARule"), exists("C")),
    ]
