import copy
import dataclasses
import pickle
import re
import time
from collections import namedtuple
from types import SimpleNamespace

import pytest

import fmc.model
from fmc.dsl import parse
from fmc.model import (
    KEYWORDS,
    Attribute,
    ConstraintKind,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    Group,
    GroupKind,
    ModelError,
    UnknownFeatureError,
    Variability,
    validate,
)

M = Variability.MANDATORY
O = Variability.OPTIONAL
G = Variability.GROUP_MEMBER
# a stand-in with a Feature's fields, which reads like one
FeatureTuple = namedtuple("FeatureTuple", [f.name for f in dataclasses.fields(Feature)])


def two_node():
    return FeatureModel("A", (Feature("A", None, M), Feature("B", "A", M)))


def test_lookup_and_children():
    model = two_node()
    assert model.feature("B").parent == "A"
    assert model.has_feature("A") and not model.has_feature("Z")
    assert [c.name for c in model.children("A")] == ["B"]
    assert model.children("B") == ()
    assert model.feature_names == ("A", "B")


def test_unknown_feature_error_lists_names():
    with pytest.raises(UnknownFeatureError) as info:
        two_node().feature("Zap")
    assert info.value.names == ("Zap",)
    assert "Zap" in str(info.value)


def test_validate_accepts_two_node():
    validate(two_node())


def test_duplicate_names_rejected():
    with pytest.raises(ModelError, match="duplicate feature name"):
        FeatureModel("A", (Feature("A", None, M), Feature("B", "A", M),
                           Feature("B", "A", O)))


def test_duplicate_names_in_a_large_model_are_named_in_sorted_order():
    # names are counted in one pass; a count per name takes minutes here
    features = [Feature("A", None, M)] + [Feature(f"F{i}", "A", O) for i in range(100_000)]
    features += [Feature("F7", "A", O), Feature("F12", "A", O)]
    started = time.perf_counter()
    with pytest.raises(ModelError, match=r"^duplicate feature name\(s\): F12, F7$"):
        FeatureModel("A", tuple(features))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"validate took {elapsed:.1f}s (limit 5s)"


def test_invalid_name_rejected():
    with pytest.raises(ModelError, match="invalid feature name"):
        FeatureModel("A", (Feature("A", None, M), Feature("9lives", "A", O)))


@pytest.mark.parametrize("name", ["A\nB", "B\n", "\nB", "", "A B", "B-1"])
def test_a_name_is_refused_by_its_own_text(name):
    # the names are matched in one call, joined by newlines: a name holding
    # a newline must not pass as two names
    with pytest.raises(ModelError) as info:
        FeatureModel("A", (Feature("A", None, M), Feature(name, "A", O)))
    assert str(info.value) == f"invalid feature name '{name}'"


def test_the_first_bad_name_in_feature_order_is_named():
    bad, keyword = Feature("A\nB", "A", O), Feature("or", "A", O)
    for features, message in (((bad, keyword), "invalid feature name 'A\nB'"),
                              ((keyword, bad), "feature name 'or' is a reserved keyword")):
        with pytest.raises(ModelError) as info:
            FeatureModel("A", (Feature("A", None, M), *features))
        assert str(info.value) == message


@pytest.mark.parametrize("keyword", sorted(KEYWORDS))
def test_a_reserved_keyword_names_no_feature_or_attribute(keyword):
    # the DSL printer would write it where the parser reads a keyword
    with pytest.raises(ModelError, match=f"^feature name '{keyword}' is a reserved keyword$"):
        FeatureModel("A", (Feature("A", None, M), Feature(keyword, "A", O)))
    with pytest.raises(ModelError, match=f"^feature name '{keyword}' is a reserved keyword$"):
        FeatureModel(keyword, (Feature(keyword, None, M),))
    with pytest.raises(ModelError, match=f"^attribute name '{keyword}' on feature 'A' "
                                         "is a reserved keyword$"):
        FeatureModel("A", (Feature("A", None, M, attributes=(Attribute(keyword, "string"),)),))


def test_single_root_required():
    with pytest.raises(ModelError, match="exactly one root"):
        FeatureModel("A", (Feature("A", "B", M), Feature("B", "A", M)))
    with pytest.raises(ModelError, match="exactly one root"):
        FeatureModel("A", (Feature("A", None, M), Feature("B", None, M)))


def test_root_field_must_match_parentless_feature():
    with pytest.raises(ModelError, match="root field"):
        FeatureModel("B", (Feature("A", None, M), Feature("B", "A", M)))


def test_root_must_be_mandatory():
    with pytest.raises(ModelError, match="root feature must be mandatory"):
        FeatureModel("A", (Feature("A", None, O),))


def test_unknown_parent_rejected():
    with pytest.raises(ModelError, match="unknown parent"):
        FeatureModel("A", (Feature("A", None, M), Feature("B", "Nope", O)))


def test_parent_cycle_rejected():
    with pytest.raises(ModelError, match="cycle"):
        FeatureModel("A", (Feature("A", None, M),
                           Feature("B", "C", O), Feature("C", "B", O)))
    with pytest.raises(ModelError, match="cycle in parent references involving 'C'"):
        FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O),
                           Feature("C", "C", O)))
    # D hangs below the B <-> C cycle; the walk up from D enters it at B
    with pytest.raises(ModelError, match="cycle in parent references involving 'B'"):
        FeatureModel("A", (Feature("A", None, M), Feature("D", "B", O),
                           Feature("B", "C", O), Feature("C", "B", O)))


def test_group_marker_consistency():
    with pytest.raises(ModelError, match="group id and group-member"):
        FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G)))
    with pytest.raises(ModelError, match="group id and group-member"):
        FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O, 0)))


def grouped(members=("B", "C"), group=None):
    features = [Feature("A", None, M)]
    features += [Feature(m, "A", G, 0) for m in members]
    groups = (group,) if group is not None else (Group(0, "A", GroupKind.OR, members),)
    return FeatureModel("A", tuple(features), groups)


def test_valid_group_accepted():
    validate(grouped())


def test_group_needs_two_members():
    with pytest.raises(ModelError, match="at least 2 members"):
        FeatureModel(
            "A", (Feature("A", None, M), Feature("B", "A", G, 0)),
            (Group(0, "A", GroupKind.OR, ("B",)),))


def test_group_members_must_match_children():
    wrong = Group(0, "A", GroupKind.ALTERNATIVE, ("B", "Z"))
    with pytest.raises(ModelError, match="unknown|members must be exactly"):
        validate(grouped(group=wrong))


def test_feature_referencing_unknown_group():
    with pytest.raises(ModelError, match="unknown group"):
        FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 7),
                           Feature("C", "A", G, 7)))


def test_duplicate_group_ids_rejected():
    features = (Feature("A", None, M), Feature("B", "A", G, 0), Feature("C", "A", G, 0))
    groups = (Group(0, "A", GroupKind.OR, ("B", "C")),
              Group(0, "A", GroupKind.OR, ("B", "C")))
    with pytest.raises(ModelError, match="duplicate group ids"):
        validate(FeatureModel("A", features, groups))


def test_attribute_validation():
    with pytest.raises(ModelError, match="duplicate attribute"):
        FeatureModel("A", (Feature("A", None, M, attributes=(
            Attribute("x", "string"), Attribute("x", "integer"))),))
    with pytest.raises(ModelError, match="unknown datatype"):
        FeatureModel("A", (Feature("A", None, M, attributes=(
            Attribute("x", "float"),)),))
    with pytest.raises(ModelError, match="invalid attribute name"):
        FeatureModel("A", (Feature("A", None, M, attributes=(
            Attribute("2x", "string"),)),))


def test_constraint_validation():
    base = (Feature("A", None, M), Feature("B", "A", O))
    with pytest.raises(ModelError, match="unknown feature 'Z'"):
        FeatureModel("A", base, constraints=(
            CrossTreeConstraint(ConstraintKind.REQUIRES, "B", "Z"),))
    with pytest.raises(ModelError, match="same feature"):
        FeatureModel("A", base, constraints=(
            CrossTreeConstraint(ConstraintKind.EXCLUDES, "B", "B"),))


@pytest.mark.parametrize("build, message", [
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature(5, "A", O))),
     "feature name must be a str, got int"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", "optional"))),
     "feature 'B' variability must be a Variability, got str"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)),
                          (Group(0, "A", "alternative", ("B", "C")),)),
     "group 0 kind must be a GroupKind, got str"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O),
                                Feature("C", "A", O)),
                          constraints=(CrossTreeConstraint("requires", "B", "C"),)),
     "constraint kind must be a ConstraintKind, got str"),
    (lambda: FeatureModel("A", (Feature("A", None, M, attributes=(Attribute(5, "string"),)),)),
     "attribute name on feature 'A' must be a str, got int"),
    # a list where a tuple is declared, and a str group id: such a model
    # would be unhashable, or unequal to the model its DSL text reads back as
    (lambda: FeatureModel("A", [Feature("A", None, M), Feature("B", "A", O)]),
     "model features must be a tuple, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)),
                          [Group(0, "A", GroupKind.OR, ("B", "C"))]),
     "model groups must be a tuple, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O),
                                Feature("C", "A", O)),
                          constraints=[CrossTreeConstraint(ConstraintKind.REQUIRES, "B", "C")]),
     "model constraints must be a tuple, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M, attributes=[Attribute("n", "string")]),)),
     "feature 'A' attributes must be a tuple, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O, attributes=[]))),
     "feature 'B' attributes must be a tuple, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)),
                          (Group(0, "A", GroupKind.OR, ["B", "C"]),)),
     "group 0 members must be a tuple, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, "0"),
                                Feature("C", "A", G, "0")),
                          (Group("0", "A", GroupKind.OR, ("B", "C")),)),
     "feature 'B' group must be an int, got str"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)),
                          (Group("0", "A", GroupKind.OR, ("B", "C")),)),
     "group id must be an int, got str"),
    # fields an index or a lookup would hash or read: an unhashable value,
    # a str where a model value belongs, or no tuple at all
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature(["B"], "A", O))),
     "feature name must be a str, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)),
                          (Group([0], "A", GroupKind.OR, ("B", "C")),)),
     "group id must be an int, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", ["A"], O))),
     "feature 'B' parent must be a str, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)),
                          (Group(0, ["A"], GroupKind.OR, ("B", "C")),)),
     "group 0 owner must be a str, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)),
                          (Group(0, "A", GroupKind.OR, (["B"], "C")),)),
     "group 0 members[0] must be a str, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O),
                                Feature("C", "A", O)),
                          constraints=(CrossTreeConstraint(ConstraintKind.REQUIRES, "B", ["C"]),)),
     "constraint target must be a str, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M, attributes=(Attribute(["n"], "string"),)),)),
     "attribute name on feature 'A' must be a str, got list"),
    (lambda: FeatureModel("A", (Feature("A", None, M), "B")),
     "model features[1] must be a Feature, got str"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)), ("or { B C }",)),
     "model groups[0] must be a Group, got str"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O),
                                Feature("C", "A", O)), constraints=("B requires C",)),
     "model constraints[0] must be a CrossTreeConstraint, got str"),
    (lambda: FeatureModel("A", (Feature("A", None, M, attributes=("size",)),)),
     "feature 'A' attributes[0] must be an Attribute, got str"),
    (lambda: FeatureModel("A", None),
     "model features must be a tuple, got NoneType"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O),
                                Feature("C", "A", O)),
                          constraints=(CrossTreeConstraint(ConstraintKind.REQUIRES, ["B"], "C"),)),
     "constraint source must be a str, got list"),
    # a value of another class with the same fields: equal to no value the
    # model's DSL text reads back as, and a SimpleNamespace is unhashable
    (lambda: FeatureModel("A", (Feature("A", None, M), FeatureTuple("B", "A", O, None, ()))),
     "model features[1] must be a Feature, got FeatureTuple"),
    (lambda: FeatureModel("A", (Feature("A", None, M, attributes=(
        SimpleNamespace(name="size", datatype="integer"),)),)),
     "feature 'A' attributes[0] must be an Attribute, got SimpleNamespace"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 0),
                                Feature("C", "A", G, 0)),
                          (SimpleNamespace(id=0, owner="A", kind=GroupKind.OR,
                                           members=("B", "C")),)),
     "model groups[0] must be a Group, got SimpleNamespace"),
    (lambda: FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O),
                                Feature("C", "A", O)), constraints=(SimpleNamespace(
                                    kind=ConstraintKind.REQUIRES, source="B", target="C"),)),
     "model constraints[0] must be a CrossTreeConstraint, got SimpleNamespace"),
])
def test_a_field_of_the_wrong_type_is_refused(build, message):
    # refused when built: analysis, compile_model and to_source read these
    # fields as their declared types
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        build()


def with_unknown_group_id(model):
    return dataclasses.replace(model, features=tuple(
        dataclasses.replace(f, group=7) if f.name == "B" else f for f in model.features))


def with_unknown_constraint_endpoint(model):
    return dataclasses.replace(model, constraints=(
        CrossTreeConstraint(ConstraintKind.REQUIRES, "B", "Z"),))


def with_unknown_group_member(model):
    group = dataclasses.replace(model.groups[0], members=("B", "Z"))
    return dataclasses.replace(model, groups=(group,))


def with_unknown_group_owner(model):
    group = dataclasses.replace(model.groups[0], owner="Ghost")
    return dataclasses.replace(model, groups=(group,))


@pytest.mark.parametrize("fault, message", [
    (with_unknown_group_id, "group 0 members must be exactly"),
    (with_unknown_group_owner, "group 0 has unknown owner 'Ghost'"),
    (with_unknown_constraint_endpoint, "unknown feature 'Z'"),
    (with_unknown_group_member, "group 0 members must be exactly"),
])
def test_model_built_in_code_is_checked_when_built(fault, message):
    # not first by a consumer such as compile_model
    with pytest.raises(ModelError, match=message):
        fault(parse("feature A { or { B C } }"))


# one value of every model value class, with the repr a frozen dataclass gives it
MODEL_VALUES = [
    (Attribute("size", "integer"), "Attribute(name='size', datatype='integer')"),
    (CrossTreeConstraint(ConstraintKind.REQUIRES, "B", "C"),
     "CrossTreeConstraint(kind=<ConstraintKind.REQUIRES: 'requires'>, source='B', target='C')"),
    (Group(0, "A", GroupKind.OR, ("B", "C")),
     "Group(id=0, owner='A', kind=<GroupKind.OR: 'or'>, members=('B', 'C'))"),
    (Feature("A", None, M),
     "Feature(name='A', parent=None, variability=<Variability.MANDATORY: 'mandatory'>, "
     "group=None, attributes=())"),
    (Feature("B", "A", G, 0, (Attribute("size", "integer"),)),
     "Feature(name='B', parent='A', variability=<Variability.GROUP_MEMBER: 'group-member'>, "
     "group=0, attributes=(Attribute(name='size', datatype='integer'),))"),
]


def test_every_model_value_class_has_a_sample():
    classes = {cls for cls in vars(fmc.model).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)}
    assert {type(value) for value, _ in MODEL_VALUES} == classes - {FeatureModel}


def test_every_field_of_a_model_value_class_has_a_type_row():
    # a field added later cannot skip the type check
    for cls in {type(value) for value, _ in MODEL_VALUES}:
        rows = [row[0] for row in fmc.model._FIELDS[cls]]
        assert sorted(rows) == sorted(f.name for f in dataclasses.fields(cls)), cls


@pytest.mark.parametrize("value, shown", MODEL_VALUES,
                         ids=[f"{type(v).__name__}-{i}" for i, (v, _) in enumerate(MODEL_VALUES)])
def test_model_values_are_frozen_slotted_hashable_and_copyable(value, shown):
    cls = type(value)
    params = dataclasses.fields(value)
    assert cls.__dataclass_params__.frozen and not hasattr(value, "__dict__")
    for name in [f.name for f in params] + ["x"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)
    assert repr(value) == shown
    args = tuple(getattr(value, f.name) for f in params)
    assert hash(value) == hash(args)  # a frozen dataclass's hash: its fields as a tuple
    for fresh in (cls(*args), cls(**{f.name: arg for f, arg in zip(params, args)}),
                  copy.copy(value), pickle.loads(pickle.dumps(value)),
                  dataclasses.replace(value)):
        assert type(fresh) is cls
        assert fresh == value and hash(fresh) == hash(value) and repr(fresh) == shown
    with pytest.raises(TypeError):
        cls(*args, None)


def test_feature_defaults_and_replace():
    feature = Feature("B", "A", O)
    assert (feature.group, feature.attributes) == (None, ())
    assert feature == Feature(name="B", parent="A", variability=O, group=None, attributes=())
    member = dataclasses.replace(feature, variability=G, group=3)
    assert member == Feature("B", "A", G, 3) and feature.group is None
    with pytest.raises(TypeError):
        Feature("B", "A")
    with pytest.raises(TypeError):
        Feature("B", "A", O, nickname="b")
    model = FeatureModel("A", (Feature("A", None, M), feature))
    assert pickle.loads(pickle.dumps(model)) == model
