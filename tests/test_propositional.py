import itertools
import random
import tracemalloc

import pytest

from fmc.dsl import parse
from fmc.model import (
    ConstraintKind,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    Group,
    GroupKind,
    UnknownFeatureError,
    Variability,
)
from fmc.propositional import (
    PropositionalFormula,
    cnf,
    is_valid_configuration,
    satisfies,
    to_propositional,
)

from helpers import oracle_configurations, oracle_valid, oracle_violations, random_model, random_tree


def all_satisfying_subsets(model):
    formula = to_propositional(model)
    names = formula.variables
    found = set()
    for bits in itertools.product((False, True), repeat=formula.num_vars):
        assignment = {i + 1: b for i, b in enumerate(bits)}
        if satisfies(formula, assignment):
            found.add(frozenset(n for n, b in zip(names, bits) if b))
    return found


def test_formula_invariants_enforced():
    with pytest.raises(ValueError, match="at least one variable"):
        PropositionalFormula(0, (), ())
    with pytest.raises(ValueError, match="out of range"):
        PropositionalFormula(1, ((2,),), ("A",))
    with pytest.raises(ValueError, match="out of range"):
        PropositionalFormula(1, ((0,),), ("A",))
    with pytest.raises(ValueError, match="negation"):
        PropositionalFormula(1, ((1, -1),), ("A",))
    with pytest.raises(ValueError, match="empty clause"):
        PropositionalFormula(1, ((),), ("A",))
    with pytest.raises(ValueError, match="unique"):
        PropositionalFormula(2, (), ("A", "A"))
    with pytest.raises(ValueError, match="must cover exactly 1..num_vars"):
        PropositionalFormula(2, (), ("A",))


def formula_error(num_vars, clauses, variables=None) -> str:
    variables = variables or tuple(f"V{i}" for i in range(num_vars))
    with pytest.raises(ValueError) as info:
        PropositionalFormula(num_vars, clauses, variables)
    return str(info.value)


def test_formula_errors_are_worded_in_full():
    assert formula_error(3, (), ("A", "B", "A")) == "variable names must be unique"
    assert formula_error(2, ((1, 2), (2, -2))) == (
        "clause (2, -2) contains both a literal and its negation")
    assert formula_error(3, ((1, 2, 3), (2, 1, -2), (-1, 3))) == (
        "clause (2, 1, -2) contains both a literal and its negation")
    # a repeated literal is allowed; its negation beside it is not
    assert formula_error(2, ((2, 2), (1, 1, -1))) == (
        "clause (1, 1, -1) contains both a literal and its negation")


def test_formula_errors_name_the_first_fault_in_clause_order():
    # the first bad clause wins, and in it the first bad literal, whether
    # that literal is out of range or the negation of a later one
    assert formula_error(2, ((1, -1), (3,))) == (
        "clause (1, -1) contains both a literal and its negation")
    assert formula_error(2, ((3,), (1, -1))) == "literal 3 out of range 1..2"
    assert formula_error(2, ((1, -1, 3),)) == (
        "clause (1, -1, 3) contains both a literal and its negation")
    assert formula_error(2, ((-3, 1, -1),)) == "literal -3 out of range 1..2"
    assert formula_error(2, ((1, 2), (0, 1))) == "literal 0 out of range 1..2"
    assert formula_error(2, ((1, 2), (), (5,))) == "empty clause"
    assert formula_error(2, ((1, -1), ())) == (
        "clause (1, -1) contains both a literal and its negation")


def test_variable_map_is_bijective():
    model = parse("feature A { mandatory B optional C }")
    formula = to_propositional(model)
    assert formula.variables == ("A", "B", "C")
    assert [formula.variable(n) for n in formula.variables] == [1, 2, 3]
    assert [formula.feature(i) for i in (1, 2, 3)] == ["A", "B", "C"]


def test_two_node_mandatory_clauses():
    formula = to_propositional(parse("feature A { mandatory B }"))
    # A; B -> A; A -> B
    assert set(formula.clauses) == {(1,), (-2, 1), (-1, 2)}


def test_alternative_rejects_double_selection():
    model = parse("feature A { alternative { B C } }")
    assert frozenset({"A", "B", "C"}) not in all_satisfying_subsets(model)
    valid, violations = is_valid_configuration(model, {"A", "B", "C"})
    assert not valid
    assert [v.rule for v in violations] == ["alternative"]


def test_or_group_requires_a_member():
    model = parse("feature A { or { B C } }")
    valid, violations = is_valid_configuration(model, {"A"})
    assert not valid and violations[0].rule == "or"
    assert is_valid_configuration(model, {"A", "C"})[0]


def test_violation_reports_involved_features():
    model = parse("feature A { optional B optional C }\n"
                  "constraints { B requires C }")
    valid, violations = is_valid_configuration(model, {"A", "B"})
    assert not valid
    assert violations[0].rule == "requires"
    assert violations[0].features == ("B", "C")
    assert "'B' requires 'C'" in str(violations[0])


def test_excludes_and_missing_parent_violations():
    model = parse("feature A { optional B { optional D } optional C }\n"
                  "constraints { B excludes C }")
    valid, violations = is_valid_configuration(model, {"A", "B", "C"})
    assert [v.rule for v in violations] == ["excludes"]
    valid, violations = is_valid_configuration(model, {"A", "D"})
    assert [v.rule for v in violations] == ["parent"]


def test_empty_configuration_violates_root_rule():
    model = parse("feature A")
    valid, violations = is_valid_configuration(model, set())
    assert not valid
    assert [v.rule for v in violations] == ["root"]


def test_unknown_feature_in_configuration():
    model = parse("feature A")
    with pytest.raises(UnknownFeatureError):
        is_valid_configuration(model, {"A", "Ghost"})


def test_unknown_features_in_a_configuration_are_named_in_sorted_order():
    # a set's order follows the string hash, which changes per process
    model = parse("feature A")
    for config in (["Ghost", "A", "Boo"], ["Boo", "Ghost"], {"Ghost", "Boo", "A"}):
        with pytest.raises(UnknownFeatureError) as info:
            is_valid_configuration(model, config)
        assert info.value.names == ("Boo", "Ghost")
        assert str(info.value) == "unknown feature(s): 'Boo', 'Ghost'"


def test_formula_agrees_with_checker_exhaustively():
    rng = random.Random(99)
    for _ in range(40):
        model = random_model(rng, max_features=9)
        names = model.feature_names
        by_formula = all_satisfying_subsets(model)
        by_checker = set()
        for bits in itertools.product((False, True), repeat=len(names)):
            subset = frozenset(n for n, b in zip(names, bits) if b)
            if is_valid_configuration(model, subset)[0]:
                by_checker.add(subset)
        assert by_formula == by_checker == oracle_configurations(model)


def test_full_selection_valid_without_groups_or_excludes():
    from dataclasses import replace

    rng = random.Random(7)
    for _ in range(30):
        model = random_model(rng, allow_groups=False)
        requires_only = replace(model, constraints=tuple(
            c for c in model.constraints if c.kind is ConstraintKind.REQUIRES))
        assert is_valid_configuration(requires_only, set(model.feature_names))[0]


EVERY_RULE_KIND = (
    "feature A {\n"
    "  mandatory B\n"
    "  optional C { optional D }\n"
    "  or { E F }\n"
    "  alternative { G H I }\n"
    "}\n"
    "constraints {\n"
    "  C requires D\n"
    "  B excludes E\n"
    "}\n")


def test_cnf_clause_order_is_pinned():
    # A=1 B=2 C=3 D=4 E=5 F=6 G=7 H=8 I=9
    assert cnf(parse(EVERY_RULE_KIND)) == (
        (1,),
        (-2, 1), (-3, 1), (-4, 3), (-5, 1), (-6, 1), (-7, 1), (-8, 1), (-9, 1),
        (-1, 2),
        (-1, 5, 6),
        (-1, 7, 8, 9), (-7, -8), (-7, -9), (-8, -9),
        (-3, 4),
        (-2, -5),
    )
    # built in code, children listed before their parents and the root
    # last: clauses 1 to n-1 are still (-v, parent), in feature order, as
    # analysis.dead_features reads them. E=1 D=2 C=3 F=4 B=5 A=6
    M, O, G = Variability.MANDATORY, Variability.OPTIONAL, Variability.GROUP_MEMBER
    child_first = FeatureModel(
        "A",
        (Feature("E", "A", G, 0), Feature("D", "C", O), Feature("C", "A", O),
         Feature("F", "A", G, 0), Feature("B", "A", M), Feature("A", None, M)),
        (Group(0, "A", GroupKind.OR, ("E", "F")),),
        (CrossTreeConstraint(ConstraintKind.REQUIRES, "D", "B"),))
    assert cnf(child_first) == (
        (6,),
        (-1, 6), (-2, 3), (-3, 6), (-4, 6), (-5, 6),
        (-6, 5),
        (-6, 1, 4),
        (-2, 5),
    )


def test_violation_messages_are_pinned():
    model = parse(EVERY_RULE_KIND)

    def check(*selected):
        valid, violations = is_valid_configuration(model, selected)
        assert valid == (not violations)
        return [(v.rule, v.features, v.message) for v in violations]

    assert check() == [
        ("root", ("A",), "root feature 'A' must be selected")]
    assert check("A", "D") == [
        ("mandatory", ("A", "B"), "'A' is selected but its mandatory child 'B' is not"),
        ("parent", ("D", "C"), "'D' is selected but its parent 'C' is not"),
        ("or", ("A", "E", "F"), "or group under 'A' needs at least one of {E, F} selected"),
        ("alternative", ("A", "G", "H", "I"),
         "alternative group under 'A' needs exactly one of {G, H, I} selected "
         "(none selected)"),
    ]
    assert check("A", "B", "C", "E", "G", "H") == [
        ("alternative", ("A", "G", "H", "I"),
         "alternative group under 'A' needs exactly one of {G, H, I} selected "
         "(G, H all selected)"),
        ("requires", ("C", "D"), "'C' requires 'D', which is not selected"),
        ("excludes", ("B", "E"), "'B' excludes 'E', but both are selected"),
    ]
    # group rules apply only under a selected owner
    assert check("G", "H") == [
        ("root", ("A",), "root feature 'A' must be selected"),
        ("parent", ("G", "A"), "'G' is selected but its parent 'A' is not"),
        ("parent", ("H", "A"), "'H' is selected but its parent 'A' is not"),
    ]
    assert check("A", "B", "F", "I") == []


def tree_configuration(rng, model):
    """A selection that keeps the rules of the feature tree, though not
    always the constraints: the root, each mandatory child of a selected
    feature, some optional ones, and one or some members of each group."""
    groups = {}
    for g in model.groups:
        groups.setdefault(g.owner, []).append(g)
    selected, stack = {model.root}, [model.root]
    while stack:
        name = stack.pop()
        picked = [c.name for c in model.children(name)
                  if c.variability is Variability.MANDATORY
                  or (c.variability is Variability.OPTIONAL and rng.random() < 0.5)]
        for g in groups.get(name, ()):
            k = 1 if g.kind is GroupKind.ALTERNATIVE else rng.randint(1, len(g.members))
            picked += rng.sample(g.members, k)
        selected.update(picked)
        stack += picked
    return selected


def selections(rng, model):
    names = model.feature_names
    yield set()
    yield set(names)
    for p in (0.05, 0.5, 0.95):
        yield {name for name in names if rng.random() < p}
    for _ in range(4):
        config = tree_configuration(rng, model)
        yield config
        yield config ^ set(rng.sample(names, rng.randint(1, 3)))


def reordered(model, features):
    return FeatureModel(model.root, tuple(features), model.groups, model.constraints)


@pytest.mark.parametrize("n", [30, 100, 300, 2000])
def test_checker_matches_the_oracle_violation_by_violation(n):
    # seeded random trees as built, and the same trees with the features
    # listed child first (the root last) and shuffled (the root anywhere)
    rng = random.Random(f"violations:{n}")
    for seed in range(4 if n < 2000 else 1):
        model = random_tree(random.Random(f"{n}:{seed}"), n, n // 20)
        shuffled = list(model.features)
        rng.shuffle(shuffled)
        for m in (model, reordered(model, reversed(model.features)), reordered(model, shuffled)):
            for config in selections(rng, m):
                valid, violations = is_valid_configuration(m, config)
                expected = oracle_violations(m, config)
                assert [(v.rule, v.features) for v in violations] == expected
                assert valid == oracle_valid(m, frozenset(config)) == (not expected)


def test_an_alternative_group_is_checked_in_linear_size():
    # a check that built every pair clause of this group would build about
    # 12.5M of them; the check tests pairs only among selected members
    members = tuple(f"M{i}" for i in range(5000))
    model = FeatureModel(
        "Root",
        (Feature("Root", None, Variability.MANDATORY),
         *(Feature(m, "Root", Variability.GROUP_MEMBER, 0) for m in members)),
        (Group(0, "Root", GroupKind.ALTERNATIVE, members),))
    listed = ", ".join(members)
    tracemalloc.start()
    try:
        for chosen, detail in (((), "none selected"), (members[:1], None),
                               (members[:2], "M0, M1 all selected"),
                               (members, f"{listed} all selected")):
            valid, violations = is_valid_configuration(model, {"Root", *chosen})
            assert valid == (detail is None)
            assert [(v.rule, v.features, v.message) for v in violations] == (
                [] if detail is None else
                [("alternative", ("Root", *members),
                  f"alternative group under 'Root' needs exactly one of {{{listed}}} "
                  f"selected ({detail})")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 2.6 MB on CPython 3.11, most of it the sets and the message of the
    # all-selected case; the pair clauses alone would take about 1 GB
    assert peak < 4_000_000, f"the checks peaked at {peak / 1e6:.1f} MB"
