import pytest

from fmc.model import (
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
    model = FeatureModel("A", (Feature("A", None, M), Feature("B", "A", M),
                               Feature("B", "A", O)))
    with pytest.raises(ModelError, match="duplicate feature name"):
        validate(model)


def test_invalid_name_rejected():
    model = FeatureModel("A", (Feature("A", None, M), Feature("9lives", "A", O)))
    with pytest.raises(ModelError, match="invalid feature name"):
        validate(model)


def test_single_root_required():
    no_root = FeatureModel("A", (Feature("A", "B", M), Feature("B", "A", M)))
    with pytest.raises(ModelError, match="exactly one root"):
        validate(no_root)
    two_roots = FeatureModel("A", (Feature("A", None, M), Feature("B", None, M)))
    with pytest.raises(ModelError, match="exactly one root"):
        validate(two_roots)


def test_root_field_must_match_parentless_feature():
    model = FeatureModel("B", (Feature("A", None, M), Feature("B", "A", M)))
    with pytest.raises(ModelError, match="root field"):
        validate(model)


def test_root_must_be_mandatory():
    model = FeatureModel("A", (Feature("A", None, O),))
    with pytest.raises(ModelError, match="root feature must be mandatory"):
        validate(model)


def test_unknown_parent_rejected():
    model = FeatureModel("A", (Feature("A", None, M), Feature("B", "Nope", O)))
    with pytest.raises(ModelError, match="unknown parent"):
        validate(model)


def test_parent_cycle_rejected():
    model = FeatureModel("A", (Feature("A", None, M),
                               Feature("B", "C", O), Feature("C", "B", O)))
    with pytest.raises(ModelError, match="cycle"):
        validate(model)
    self_parent = FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O),
                                     Feature("C", "C", O)))
    with pytest.raises(ModelError, match="cycle in parent references involving 'C'"):
        validate(self_parent)
    # D hangs below the B <-> C cycle; the walk up from D enters it at B
    tail = FeatureModel("A", (Feature("A", None, M), Feature("D", "B", O),
                              Feature("B", "C", O), Feature("C", "B", O)))
    with pytest.raises(ModelError, match="cycle in parent references involving 'B'"):
        validate(tail)


def test_group_marker_consistency():
    missing_gid = FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G)))
    with pytest.raises(ModelError, match="group id and group-member"):
        validate(missing_gid)
    spurious_gid = FeatureModel("A", (Feature("A", None, M), Feature("B", "A", O, 0)))
    with pytest.raises(ModelError, match="group id and group-member"):
        validate(spurious_gid)


def grouped(members=("B", "C"), group=None):
    features = [Feature("A", None, M)]
    features += [Feature(m, "A", G, 0) for m in members]
    groups = (group,) if group is not None else (Group(0, "A", GroupKind.OR, members),)
    return FeatureModel("A", tuple(features), groups)


def test_valid_group_accepted():
    validate(grouped())


def test_group_needs_two_members():
    model = FeatureModel(
        "A", (Feature("A", None, M), Feature("B", "A", G, 0)),
        (Group(0, "A", GroupKind.OR, ("B",)),))
    with pytest.raises(ModelError, match="at least 2 members"):
        validate(model)


def test_group_members_must_match_children():
    wrong = Group(0, "A", GroupKind.ALTERNATIVE, ("B", "Z"))
    with pytest.raises(ModelError, match="unknown|members must be exactly"):
        validate(grouped(group=wrong))


def test_feature_referencing_unknown_group():
    model = FeatureModel("A", (Feature("A", None, M), Feature("B", "A", G, 7),
                               Feature("C", "A", G, 7)))
    with pytest.raises(ModelError, match="unknown group"):
        validate(model)


def test_duplicate_group_ids_rejected():
    features = (Feature("A", None, M), Feature("B", "A", G, 0), Feature("C", "A", G, 0))
    groups = (Group(0, "A", GroupKind.OR, ("B", "C")),
              Group(0, "A", GroupKind.OR, ("B", "C")))
    with pytest.raises(ModelError, match="duplicate group ids"):
        validate(FeatureModel("A", features, groups))


def test_attribute_validation():
    dup = FeatureModel("A", (Feature("A", None, M, attributes=(
        Attribute("x", "string"), Attribute("x", "integer"))),))
    with pytest.raises(ModelError, match="duplicate attribute"):
        validate(dup)
    bad_type = FeatureModel("A", (Feature("A", None, M, attributes=(
        Attribute("x", "float"),)),))
    with pytest.raises(ModelError, match="unknown datatype"):
        validate(bad_type)
    bad_name = FeatureModel("A", (Feature("A", None, M, attributes=(
        Attribute("2x", "string"),)),))
    with pytest.raises(ModelError, match="invalid attribute name"):
        validate(bad_name)


def test_constraint_validation():
    base = (Feature("A", None, M), Feature("B", "A", O))
    unknown = FeatureModel("A", base, constraints=(
        CrossTreeConstraint(ConstraintKind.REQUIRES, "B", "Z"),))
    with pytest.raises(ModelError, match="unknown feature 'Z'"):
        validate(unknown)
    self_ref = FeatureModel("A", base, constraints=(
        CrossTreeConstraint(ConstraintKind.EXCLUDES, "B", "B"),))
    with pytest.raises(ModelError, match="same feature"):
        validate(self_ref)
