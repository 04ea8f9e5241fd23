"""Metamorphic relations between the analysis reports of related models.

The brute-force oracles in ``helpers`` stop at about 16 features. These
relations need no oracle: each one derives a second model from a seeded
``helpers.random_tree`` model of up to 4000 features and states how the
two reports must relate (Segura, Hierons, Benavides & Ruiz-Cortés,
"Automated metamorphic testing on the analyses of feature models",
Information and Software Technology, 2011). A "dead" answer is tied to
the public ``solve``'s void answer, and an "alive" one to a model that
forces the feature in.
"""

import random
from dataclasses import replace
from functools import lru_cache

import pytest

from fmc.analysis import VoidModelError, analyze, check_consistency, dead_features
from fmc.model import ConstraintKind, CrossTreeConstraint, Feature, FeatureModel, Variability

from helpers import random_tree

REQUIRES, EXCLUDES = ConstraintKind.REQUIRES, ConstraintKind.EXCLUDES

# (n, seed) of each model; n // 10 constraints leave most models
# consistent with some dead features, and a few void
CASES = [(n, seed) for n in (30, 100, 300, 1000, 2000, 4000) for seed in range(3)]
# models within the count cap, so the count is compared too
COUNTED = [(20, seed) for seed in range(4)]


@lru_cache(maxsize=None)
def drawn(n: int, seed: int) -> tuple[FeatureModel, frozenset | None]:
    """The seeded model, and its dead features (None if it is void)."""
    model = random_tree(random.Random(f"metamorphic:{n}:{seed}"), n, n // 10)
    return model, report(model)


def consistent(n: int, seed: int) -> tuple[FeatureModel, frozenset]:
    """The first consistent model drawn from (n, seed) on."""
    while True:
        model, dead = drawn(n, seed)
        if dead is not None:
            return model, dead
        seed += 1000


def report(model: FeatureModel) -> frozenset | None:
    try:
        return frozenset(dead_features(model))
    except VoidModelError:
        return None


def with_constraint(model: FeatureModel, kind: ConstraintKind, source: str,
                    target: str) -> FeatureModel:
    return replace(model, constraints=(*model.constraints,
                                       CrossTreeConstraint(kind, source, target)))


def renamed_and_reordered(model: FeatureModel,
                          rng: random.Random) -> tuple[FeatureModel, dict[str, str]]:
    """The model with its features and group ids renamed by a random
    bijection, its siblings, group members, groups and constraints
    shuffled, and its features listed in preorder; and the renaming."""
    names = model.feature_names
    rename = dict(zip(names, rng.sample([f"R{i}" for i in range(len(names))], len(names))))
    group_id = dict(zip([g.id for g in model.groups], rng.sample(range(len(model.groups)),
                                                                  len(model.groups))))
    children: dict[str, list[Feature]] = {}
    for f in model.features:
        children.setdefault(f.parent, []).append(f)
    order, stack = [], [model.feature(model.root)]
    while stack:
        f = stack.pop()
        order.append(f)
        kids = children.get(f.name, [])
        stack.extend(rng.sample(kids, len(kids)))
    features = tuple(replace(f, name=rename[f.name], parent=f.parent and rename[f.parent],
                             group=None if f.group is None else group_id[f.group])
                     for f in order)
    groups = [replace(g, id=group_id[g.id], owner=rename[g.owner],
                      members=tuple(rng.sample([rename[m] for m in g.members], len(g.members))))
              for g in model.groups]
    constraints = [replace(c, source=rename[c.source], target=rename[c.target])
                   for c in model.constraints]
    rng.shuffle(groups)
    rng.shuffle(constraints)
    return FeatureModel(rename[model.root], features, tuple(groups), tuple(constraints)), rename


def shuffled(model: FeatureModel, rng: random.Random) -> FeatureModel:
    """The model with its features listed in a random order: the root
    anywhere, and a child before or after its parent."""
    return replace(model, features=tuple(rng.sample(model.features, len(model.features))))


def sample(rng: random.Random, names, k: int) -> list[str]:
    names = sorted(names)
    return rng.sample(names, min(k, len(names)))


def test_the_cases_hold_void_models_and_dead_features():
    # the relations below are only as strong as the cases they run on
    reports = [drawn(n, seed)[1] for n, seed in CASES]
    assert None in reports
    assert sum(1 for dead in reports if dead) >= len(CASES) // 2
    assert any(drawn(n, seed)[1] for n, seed in COUNTED)


@pytest.mark.parametrize("n, seed", COUNTED + CASES)
def test_listing_the_features_in_any_order_keeps_the_report(n, seed):
    # variables follow the feature order, so this moves the root and puts
    # children before their parents in the CNF the analysis reads
    model, dead = drawn(n, seed)
    expected = analyze(model)
    assert (expected["configuration_count"] is not None) == (len(model.features) <= 24)
    rng = random.Random(f"order:{n}:{seed}")
    for _ in range(2):
        got = analyze(shuffled(model, rng))
        assert got["consistent"] == expected["consistent"]
        assert set(got["dead_features"]) == set(expected["dead_features"])
        assert got["configuration_count"] == expected["configuration_count"]


@pytest.mark.parametrize("n, seed", CASES)
def test_renaming_and_reordering_keep_consistency_and_the_dead_set(n, seed):
    model, dead = drawn(n, seed)
    rng = random.Random(f"rename:{n}:{seed}")
    for _ in range(2):
        other, rename = renamed_and_reordered(model, rng)
        assert check_consistency(other) == (dead is not None)
        expected = None if dead is None else frozenset(map(rename.__getitem__, dead))
        assert report(other) == expected


@pytest.mark.parametrize("n, seed", CASES)
def test_the_root_requiring_a_dead_feature_makes_the_model_void(n, seed):
    model, dead = consistent(n, seed)
    for name in sample(random.Random(f"dead:{n}:{seed}"), dead, 4):
        assert not check_consistency(with_constraint(model, REQUIRES, model.root, name)), name


@pytest.mark.parametrize("n, seed", CASES)
def test_the_root_requiring_an_alive_feature_keeps_every_dead_one_dead(n, seed):
    model, dead = consistent(n, seed)
    alive = set(model.feature_names) - dead - {model.root}
    for name in sample(random.Random(f"alive:{n}:{seed}"), alive, 3):
        forced = with_constraint(model, REQUIRES, model.root, name)
        assert check_consistency(forced), name
        assert dead_features(forced) >= dead, name


@pytest.mark.parametrize("n, seed", CASES)
def test_a_feature_excluding_a_dead_one_leaves_the_report_unchanged(n, seed):
    model, dead = consistent(n, seed)
    rng = random.Random(f"excludes:{n}:{seed}")
    expected = analyze(model)
    for name in sample(rng, dead, 3):
        other = rng.choice([f for f in model.feature_names if f != name])
        assert analyze(with_constraint(model, EXCLUDES, other, name)) == expected, (other, name)


@pytest.mark.parametrize("n, seed", CASES)
def test_a_feature_requiring_a_dead_one_is_dead_too(n, seed):
    model, dead = consistent(n, seed)
    rng = random.Random(f"requires:{n}:{seed}")
    for name in sample(rng, dead, 3):
        other = rng.choice([f for f in model.feature_names if f != name])
        after = report(with_constraint(model, REQUIRES, other, name))
        # no configuration is added, so every dead feature stays dead
        assert after is None or after >= dead | {other}, (other, name)


@pytest.mark.parametrize("n, seed", CASES)
def test_a_new_optional_leaf_is_alive_exactly_when_its_parent_is(n, seed):
    model, dead = consistent(n, seed)
    rng = random.Random(f"leaf:{n}:{seed}")
    parents = sample(rng, dead, 2) + sample(rng, set(model.feature_names) - dead, 2)
    for parent in parents:
        grown = replace(model, features=(*model.features,
                                         Feature("Leaf", parent, Variability.OPTIONAL)))
        assert dead_features(grown) == dead | ({"Leaf"} if parent in dead else set()), parent
