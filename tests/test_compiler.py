import dataclasses
import gc
import random
import tracemalloc
from itertools import chain, combinations

import pytest

from fmc import owl
from fmc.compiler import _ROW_CHUNK, CompileError, _axioms, compile_model, default_iri
from fmc.dsl import parse
from fmc.model import (
    Attribute,
    ConstraintKind,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    Group,
    GroupKind,
    Variability,
)
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
    Ontology,
    SomeValuesFrom,
    SubClassOf,
    UnionOf,
    serialize_functional,
)

from helpers import random_model, random_tree


def exists(name):
    return SomeValuesFrom(f"has{name}", NamedClass(name))


def axioms_of(source, kind):
    return [a for a in compile_model(parse(source)).axioms if isinstance(a, kind)]


def test_feature_base_is_five_axioms_in_order():
    assert compile_model(parse("feature X")).axioms == (
        Declaration(EntityKind.CLASS, "X"),
        Declaration(EntityKind.CLASS, "XRule"),
        Declaration(EntityKind.OBJECT_PROPERTY, "hasX"),
        ObjectPropertyRange("hasX", NamedClass("X")),
        EquivalentClasses(NamedClass("XRule"), exists("X")),
    )


def test_mandatory_restricts_parent_rule_class():
    assert axioms_of("feature A { mandatory B }", SubClassOf) == [
        SubClassOf(NamedClass("ARule"), exists("B"))]


def test_requires_attaches_to_feature_class():
    source = ("feature R { optional MemberNotification optional Donor } "
              "constraints { MemberNotification requires Donor }")
    assert axioms_of(source, SubClassOf) == [
        SubClassOf(NamedClass("MemberNotification"), exists("Donor"))]


def test_excludes_is_complemented_existential():
    assert axioms_of("feature A { optional B } constraints { A excludes B }", SubClassOf) == [
        SubClassOf(NamedClass("A"), ComplementOf(exists("B")))]


def test_or_group_is_union_over_members():
    assert axioms_of("feature A { or { B C D } }", SubClassOf) == [
        SubClassOf(NamedClass("ARule"), UnionOf((exists("B"), exists("C"), exists("D"))))]


def test_alternative_adds_pairwise_exclusions():
    axioms = axioms_of("feature A { alternative { B C D } }", SubClassOf)
    assert len(axioms) == 1 + 3  # union + n(n-1)/2 pairs
    assert axioms[0] == axioms_of("feature A { or { B C D } }", SubClassOf)[0]
    assert axioms[1] == SubClassOf(
        NamedClass("ARule"),
        ComplementOf(IntersectionOf((exists("B"), exists("C")))))
    pairs = {(x.sup.operand.operands[0].filler.name,
              x.sup.operand.operands[1].filler.name) for x in axioms[1:]}
    assert pairs == {("B", "C"), ("B", "D"), ("C", "D")}


def test_disjointness_covers_all_pairs_lexicographically():
    assert axioms_of("feature M { optional Zeta optional Alpha }", DisjointClasses) == [
        DisjointClasses(NamedClass("Alpha"), NamedClass("M")),
        DisjointClasses(NamedClass("Alpha"), NamedClass("Zeta")),
        DisjointClasses(NamedClass("M"), NamedClass("Zeta")),
    ]


def test_attributes_emit_domain_and_range():
    source = "feature A { optional DonationData { attribute total : decimal } optional X }"
    assert compile_model(parse(source)).axioms[-3:] == (
        Declaration(EntityKind.DATA_PROPERTY, "total"),
        DataPropertyDomain("total", NamedClass("DonationData")),
        DataPropertyRange("total", "xsd:decimal"),
    )
    assert axioms_of(source, DataPropertyDomain) == [
        DataPropertyDomain("total", NamedClass("DonationData"))]


def test_duplicate_attribute_name_across_features_fails():
    model = parse("feature A { optional B { attribute total : decimal } "
                  "optional C { attribute total : integer } }")
    with pytest.raises(CompileError, match="duplicate data property 'total'"):
        compile_model(model)


def test_rule_class_name_collision_fails():
    model = parse("feature A { optional B optional BRule }")
    with pytest.raises(CompileError, match="duplicate Class declaration 'BRule'"):
        compile_model(model)


def test_an_empty_iri_is_refused_not_replaced_by_the_default():
    with pytest.raises(CompileError, match="invalid ontology IRI ''"):
        compile_model(parse("feature Only"), "")


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


def test_group_axioms_sit_at_first_member_in_feature_order():
    model = parse("feature A { or { B { mandatory D } C } mandatory E }")
    group = model.groups[0]
    # a model built in code may list the members out of feature order
    shuffled = dataclasses.replace(
        model, groups=(dataclasses.replace(group, members=("C", "B")),))
    assert [a for a in compile_model(shuffled).axioms if isinstance(a, SubClassOf)] == [
        SubClassOf(NamedClass("ARule"), UnionOf((exists("C"), exists("B")))),
        SubClassOf(NamedClass("BRule"), exists("D")),
        SubClassOf(NamedClass("ARule"), exists("E")),
    ]
    # groups listed against their first-member order, their members
    # interleaved, a mandatory child between them, and two constraints whose
    # sources are out of feature order
    member = Variability.GROUP_MEMBER
    model = FeatureModel(
        root="R",
        features=(Feature("R", None, Variability.MANDATORY), Feature("A1", "R", member, 1),
                  Feature("M", "R", Variability.MANDATORY), Feature("B1", "R", member, 2),
                  Feature("A2", "R", member, 1), Feature("B2", "R", member, 2)),
        groups=(Group(2, "R", GroupKind.OR, ("B1", "B2")),
                Group(1, "R", GroupKind.ALTERNATIVE, ("A1", "A2"))),
        constraints=(CrossTreeConstraint(ConstraintKind.REQUIRES, "B2", "M"),
                     CrossTreeConstraint(ConstraintKind.EXCLUDES, "A1", "B1")))
    rule = NamedClass("RRule")
    assert [a for a in compile_model(model).axioms if isinstance(a, SubClassOf)] == [
        SubClassOf(rule, UnionOf((exists("A1"), exists("A2")))),
        SubClassOf(rule, ComplementOf(IntersectionOf((exists("A1"), exists("A2"))))),
        SubClassOf(rule, exists("M")),
        SubClassOf(rule, UnionOf((exists("B1"), exists("B2")))),
        SubClassOf(NamedClass("B2"), exists("M")),
        SubClassOf(NamedClass("A1"), ComplementOf(exists("B1"))),
    ]


EVERY_CONSTRUCT = """feature Shop {
  attribute name : string
  or { Card Cash }
  alternative { Small Medium Large }
  mandatory Cart { attribute total : decimal }
}
constraints {
  Card requires Cart
  Cash excludes Large
}
"""

EVERY_CONSTRUCT_OFN = """\
Prefix(:=<http://example.org/shop#>)
Ontology(<http://example.org/shop#>
Declaration(Class(:Shop))
Declaration(Class(:ShopRule))
Declaration(ObjectProperty(:hasShop))
ObjectPropertyRange(:hasShop :Shop)
EquivalentClasses(:ShopRule ObjectSomeValuesFrom(:hasShop :Shop))
Declaration(Class(:Card))
Declaration(Class(:CardRule))
Declaration(ObjectProperty(:hasCard))
ObjectPropertyRange(:hasCard :Card)
EquivalentClasses(:CardRule ObjectSomeValuesFrom(:hasCard :Card))
Declaration(Class(:Cash))
Declaration(Class(:CashRule))
Declaration(ObjectProperty(:hasCash))
ObjectPropertyRange(:hasCash :Cash)
EquivalentClasses(:CashRule ObjectSomeValuesFrom(:hasCash :Cash))
Declaration(Class(:Small))
Declaration(Class(:SmallRule))
Declaration(ObjectProperty(:hasSmall))
ObjectPropertyRange(:hasSmall :Small)
EquivalentClasses(:SmallRule ObjectSomeValuesFrom(:hasSmall :Small))
Declaration(Class(:Medium))
Declaration(Class(:MediumRule))
Declaration(ObjectProperty(:hasMedium))
ObjectPropertyRange(:hasMedium :Medium)
EquivalentClasses(:MediumRule ObjectSomeValuesFrom(:hasMedium :Medium))
Declaration(Class(:Large))
Declaration(Class(:LargeRule))
Declaration(ObjectProperty(:hasLarge))
ObjectPropertyRange(:hasLarge :Large)
EquivalentClasses(:LargeRule ObjectSomeValuesFrom(:hasLarge :Large))
Declaration(Class(:Cart))
Declaration(Class(:CartRule))
Declaration(ObjectProperty(:hasCart))
ObjectPropertyRange(:hasCart :Cart)
EquivalentClasses(:CartRule ObjectSomeValuesFrom(:hasCart :Cart))
SubClassOf(:ShopRule ObjectUnionOf(ObjectSomeValuesFrom(:hasCard :Card) ObjectSomeValuesFrom(:hasCash :Cash)))
SubClassOf(:ShopRule ObjectUnionOf(ObjectSomeValuesFrom(:hasSmall :Small) ObjectSomeValuesFrom(:hasMedium :Medium) ObjectSomeValuesFrom(:hasLarge :Large)))
SubClassOf(:ShopRule ObjectComplementOf(ObjectIntersectionOf(ObjectSomeValuesFrom(:hasSmall :Small) ObjectSomeValuesFrom(:hasMedium :Medium))))
SubClassOf(:ShopRule ObjectComplementOf(ObjectIntersectionOf(ObjectSomeValuesFrom(:hasSmall :Small) ObjectSomeValuesFrom(:hasLarge :Large))))
SubClassOf(:ShopRule ObjectComplementOf(ObjectIntersectionOf(ObjectSomeValuesFrom(:hasMedium :Medium) ObjectSomeValuesFrom(:hasLarge :Large))))
SubClassOf(:ShopRule ObjectSomeValuesFrom(:hasCart :Cart))
SubClassOf(:Card ObjectSomeValuesFrom(:hasCart :Cart))
SubClassOf(:Cash ObjectComplementOf(ObjectSomeValuesFrom(:hasLarge :Large)))
DisjointClasses(:Card :Cart)
DisjointClasses(:Card :Cash)
DisjointClasses(:Card :Large)
DisjointClasses(:Card :Medium)
DisjointClasses(:Card :Shop)
DisjointClasses(:Card :Small)
DisjointClasses(:Cart :Cash)
DisjointClasses(:Cart :Large)
DisjointClasses(:Cart :Medium)
DisjointClasses(:Cart :Shop)
DisjointClasses(:Cart :Small)
DisjointClasses(:Cash :Large)
DisjointClasses(:Cash :Medium)
DisjointClasses(:Cash :Shop)
DisjointClasses(:Cash :Small)
DisjointClasses(:Large :Medium)
DisjointClasses(:Large :Shop)
DisjointClasses(:Large :Small)
DisjointClasses(:Medium :Shop)
DisjointClasses(:Medium :Small)
DisjointClasses(:Shop :Small)
Declaration(DataProperty(:name))
DataPropertyDomain(:name :Shop)
DataPropertyRange(:name xsd:string)
Declaration(DataProperty(:total))
DataPropertyDomain(:total :Cart)
DataPropertyRange(:total xsd:decimal)
)
"""


def test_every_construct_serializes_to_pinned_text():
    ontology = compile_model(parse(EVERY_CONSTRUCT), "http://example.org/shop#")
    assert serialize_functional(ontology) == EVERY_CONSTRUCT_OFN


# --- axiom batches ---------------------------------------------------------

@pytest.fixture(scope="module")
def batched_model():
    """A seeded 300-feature tree with attributes, and alternative groups."""
    model = random_tree(random.Random("batches"), 300, 15)
    features = tuple(
        dataclasses.replace(f, attributes=(Attribute(f"a{i}", "decimal"),)) if i % 10 == 0 else f
        for i, f in enumerate(model.features))
    model = FeatureModel(model.root, features, model.groups, model.constraints)
    assert GroupKind.ALTERNATIVE in {g.kind for g in model.groups}
    return model


def test_the_batches_flatten_to_the_compiled_axioms(batched_model):
    assert tuple(chain.from_iterable(_axioms(batched_model))) == compile_model(batched_model).axioms


def _block_at(batches):
    """The index of the DisjointClasses block among the batches."""
    return next(i for i, b in enumerate(batches) if type(b) is owl._DisjointBlock)


def test_the_disjointness_block_comes_as_one_batch(batched_model):
    classes = sorted(f.name for f in batched_model.features)
    batches = list(_axioms(batched_model))
    at = _block_at(batches)
    block = batches.pop(at)
    assert not any(type(b) is owl._DisjointBlock for b in batches)
    assert len(block) == len(classes) * (len(classes) - 1) // 2
    assert [(x.a.name, x.b.name) for x in block] == list(combinations(classes, 2))
    assert all(type(x) is DisjointClasses for x in block)
    assert all(batches) and max(map(len, batches)) <= _ROW_CHUNK


def test_a_long_alternative_group_comes_a_row_piece_at_a_time():
    members = [f"M{i}" for i in range(_ROW_CHUNK + 44)]
    model = parse("feature Root {\n  alternative {\n" + "".join(f"    {m}\n" for m in members)
                  + "  }\n}\n")
    pieces = [b for b in _axioms(model, disjoint=False)
              if all(type(x) is SubClassOf and type(x.sup) is ComplementOf for x in b)]
    pairs = [tuple(x.sup.operand.operands) for x in chain.from_iterable(pieces)]
    assert pairs == list(combinations(map(exists, members), 2))
    # one member against later members that follow one another
    assert all(len({x.sup.operand.operands[0] for x in piece}) == 1 for piece in pieces)
    assert max(map(len, pieces)) == _ROW_CHUNK < len(members) - 1
    assert len(pieces) == sum(-(-k // _ROW_CHUNK) for k in range(1, len(members)))


def test_a_compile_lets_its_batches_die_young(tmp_path):
    # the batch being built and the one before it stay under the
    # collector's first threshold (700 new objects), so they die before any
    # collection, and the DisjointClasses block builds no axiom value: with
    # a batch of DisjointClasses values per whole row, this compile ran
    # about 100
    model = FeatureModel("Root", (Feature("Root", None, Variability.MANDATORY), *(
        Feature(f"F{i}", "Root", Variability.OPTIONAL) for i in range(800))))
    iri = default_iri("Root")
    before = gc.get_stats()[0]["collections"]
    owl._write_functional(iri, owl._checked_axioms(iri, _axioms(model)), tmp_path / "o.ofn")
    assert gc.get_stats()[0]["collections"] - before < 20


class _Special(NamedClass):
    """A NamedClass subclass: the per-axiom checker takes it as a name."""

    __slots__ = ()


def _check_fault(batched_model, fault, where):
    """Plant fault in the DisjointClasses block's classes: before the first
    one, in the middle or after the last."""
    iri = default_iri(batched_model.root)
    batches = list(_axioms(batched_model))
    at = _block_at(batches)
    classes = list(batches[at].classes)
    classes.insert({"first": 0, "middle": len(classes) // 2, "last": len(classes)}[where], fault)
    batches[at] = owl._DisjointBlock(classes)
    # the same error as a built ontology's, which checks an axiom at a time
    with pytest.raises(owl.OwlError) as built:
        owl.Ontology(iri, tuple(chain.from_iterable(batches)))
    pieces = []
    with pytest.raises(owl.OwlError) as streamed:
        for piece in owl._lines(iri, owl._checked_axioms(iri, batches)):
            pieces.append(piece)
    assert (type(streamed.value), str(streamed.value)) == (type(built.value), str(built.value))
    # the batches before the block are rendered, and no line of the block
    assert "".join(pieces) == owl._header(iri) + "\n" + "".join(
        owl._render_axiom(axiom) + "\n" for axiom in chain.from_iterable(batches[:at]))


# Faults planted first in the block's classes, as the first operand of its
# first row, or in the middle, among that row's others
ROW_FAULTS = {
    "undeclared": (NamedClass("Undeclared"), "middle"),
    "undeclared-as-a": (NamedClass("Undeclared"), "first"),
    "thing-as-a": (owl.THING, "first"),
    "thing-among-others": (owl.THING, "middle"),
    "subclass-as-a": (_Special("Undeclared"), "first"),
    "subclass-among-others": (_Special("Undeclared"), "middle"),
    "unhashable-name-as-a": (NamedClass(["A"]), "first"),
    "unhashable-name-among-others": (NamedClass(["B"]), "middle"),
}


@pytest.mark.parametrize("fault", ROW_FAULTS)
def test_an_error_inside_a_batch_stops_its_rendering(batched_model, fault):
    _check_fault(batched_model, *ROW_FAULTS[fault])


# Faults planted last in the block's classes, so that its first error is
# in its last pairs
BLOCK_FAULTS = {
    "undeclared": NamedClass("Undeclared"),
    "subclass": _Special("Undeclared"),
    "thing": owl.THING,
    "unhashable-name": NamedClass(["B"]),
}


@pytest.mark.parametrize("fault", BLOCK_FAULTS)
def test_a_fault_in_the_block_is_the_error_its_axioms_raise(batched_model, fault):
    _check_fault(batched_model, BLOCK_FAULTS[fault], "last")


def test_a_block_of_named_class_subclasses_is_checked_and_rendered_as_its_axioms(batched_model):
    # a subclass takes the per-axiom check, which passes it, and renders
    # as a NamedClass does
    iri = default_iri(batched_model.root)
    batches = list(_axioms(batched_model))
    at = _block_at(batches)
    batches[at] = owl._DisjointBlock(_Special(c.name) for c in batches[at].classes)
    ontology = owl.Ontology(iri, tuple(chain.from_iterable(batches)))
    assert "".join(owl._lines(iri, owl._checked_axioms(iri, batches))) == serialize_functional(ontology)


def test_the_block_is_checked_once_not_a_pair_at_a_time(monkeypatch):
    n = 300
    model = FeatureModel("Root", (Feature("Root", None, Variability.MANDATORY), *(
        Feature(f"F{i}", "Root", Variability.OPTIONAL) for i in range(n - 1))))
    name, reads = owl._name, []

    def counting(item):
        reads.append(item)
        return name(item)

    def unbuilt(block):
        raise AssertionError("the block's axioms were built")

    monkeypatch.setattr(owl, "_name", counting)
    monkeypatch.setattr(owl._DisjointBlock, "__iter__", unbuilt)
    iri = default_iri("Root")
    blocks = sum(type(b) is owl._DisjointBlock for b in owl._checked_axioms(iri, _axioms(model)))
    # each class's name is read once, where a check of every pair read the
    # n(n-1)/2 = 44,850 operands' names
    assert blocks == 1 and n <= len(reads) < 2 * n


def test_the_block_is_the_collection_of_its_axioms(batched_model):
    block = next(b for b in _axioms(batched_model) if type(b) is owl._DisjointBlock)
    axioms = [DisjointClasses(a, b) for a, b in combinations(block.classes, 2)]
    # it iterates again, as a flattening after a check would
    assert len(block) == len(axioms) and list(block) == axioms and list(block) == axioms
    assert axioms[5] in block and axioms[-1] in block


def test_a_checked_block_renders_as_its_axioms_do(batched_model):
    iri = default_iri(batched_model.root)
    batches = list(_axioms(batched_model))
    at, n = _block_at(batches), len(batched_model.features)
    # the header, one piece per other batch (none is empty) and one per row
    # of the block, the closing parenthesis
    pieces = list(owl._lines(iri, owl._checked_axioms(iri, batches)))[1:-1]
    assert len(pieces) == len(batches) - 1 + n - 1
    rows = pieces[at:at + n - 1]
    assert [row.count("\n") for row in rows] == list(range(n - 1, 0, -1))
    assert "".join(rows) == "".join(owl._render_axiom(axiom) + "\n" for axiom in batches[at])


def test_the_streamed_compile_writes_the_built_ontology(batched_model, tmp_path):
    iri = default_iri(batched_model.root)
    path = tmp_path / "o.ofn"
    owl._write_functional(iri, owl._checked_axioms(iri, _axioms(batched_model)), path)
    assert path.read_bytes() == serialize_functional(compile_model(batched_model)).encode("utf-8")


def test_serializing_holds_the_text_about_once(batched_model):
    ontology = compile_model(batched_model)
    size = len(serialize_functional(ontology))
    tracemalloc.start()
    try:
        serialize_functional(ontology)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the text is 1.36 MB. Joined from its pieces of _WRITE_SLICE axioms it
    # peaks at 2.72 MB (CPython 3.11): the pieces, then the text. The bound
    # is that plus 10%, which one join over the line of every axiom (5.37
    # MB) or one more copy of the text would break
    assert size == 1_358_340
    assert peak < 3_000_000, f"serialize_functional peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("count", [0, 1, owl._WRITE_SLICE, owl._WRITE_SLICE + 1])
def test_serializing_joins_the_line_of_every_axiom(batched_model, count):
    # any first axioms of a compile are an ontology: the compiler declares
    # every name before its first use
    compiled = compile_model(batched_model)
    ontology = Ontology(compiled.iri, compiled.axioms[:count])
    assert serialize_functional(ontology) == "\n".join(
        [owl._header(ontology.iri), *map(owl._render_axiom, ontology.axioms), ")", ""])
