"""Shared test utilities: brute-force oracles and random generators.

The oracle functions re-implement configuration semantics directly and
enumerate subsets exhaustively; they never call the package's solver,
counter, or clause encoding, so agreement is meaningful evidence.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import namedtuple
from types import SimpleNamespace

from fmc.model import (
    Attribute,
    ConstraintKind,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    Group,
    GroupKind,
    Variability,
    validate,
)
from fmc import owl


# --- brute-force oracle ------------------------------------------------------

def oracle_valid(model: FeatureModel, subset: frozenset) -> bool:
    """Direct rule-by-rule validity check, written independently."""
    if model.root not in subset:
        return False
    for f in model.features:
        if f.parent is None:
            continue
        if f.name in subset and f.parent not in subset:
            return False
        if (f.variability is Variability.MANDATORY
                and f.parent in subset and f.name not in subset):
            return False
    for g in model.groups:
        if g.owner not in subset:
            continue
        chosen = sum(1 for m in g.members if m in subset)
        if g.kind is GroupKind.OR and chosen == 0:
            return False
        if g.kind is GroupKind.ALTERNATIVE and chosen != 1:
            return False
    for c in model.constraints:
        if c.kind is ConstraintKind.REQUIRES:
            if c.source in subset and c.target not in subset:
                return False
        else:
            if c.source in subset and c.target in subset:
                return False
    return True


def oracle_violations(model: FeatureModel, selected) -> list[tuple[str, tuple[str, ...]]]:
    """The (rule, features) of every rule the selection breaks, rule by rule
    from the model's fields, in the checker's documented order: root; per
    feature its parent rule, then its mandatory rule; groups; constraints."""
    selected = set(selected)
    found = []
    if model.root not in selected:
        found.append(("root", (model.root,)))
    for f in model.features:
        if f.parent is None:
            continue
        if f.name in selected and f.parent not in selected:
            found.append(("parent", (f.name, f.parent)))
        if (f.variability is Variability.MANDATORY
                and f.parent in selected and f.name not in selected):
            found.append(("mandatory", (f.parent, f.name)))
    for g in model.groups:
        if g.owner not in selected:
            continue
        chosen = sum(1 for m in g.members if m in selected)
        if chosen == 0 or (g.kind is GroupKind.ALTERNATIVE and chosen > 1):
            found.append((g.kind.value, (g.owner, *g.members)))
    for c in model.constraints:
        if c.source in selected and (c.target in selected) != (c.kind is ConstraintKind.REQUIRES):
            found.append((c.kind.value, (c.source, c.target)))
    return found


def oracle_configurations(model: FeatureModel) -> set[frozenset]:
    """All valid configurations, by enumerating every subset (2^n)."""
    names = model.feature_names
    result = set()
    for bits in itertools.product((False, True), repeat=len(names)):
        subset = frozenset(n for n, b in zip(names, bits) if b)
        if oracle_valid(model, subset):
            result.add(subset)
    return result


def oracle_consistent(model: FeatureModel) -> bool:
    return bool(oracle_configurations(model))


def oracle_count(model: FeatureModel) -> int:
    return len(oracle_configurations(model))


def oracle_dead(model: FeatureModel) -> set[str]:
    configs = oracle_configurations(model)
    assert configs, "dead-feature oracle needs a consistent model"
    alive = frozenset().union(*configs)
    return set(model.feature_names) - alive


def truth_table_models(num_vars: int, clauses):
    """Yield every satisfying assignment of the CNF, as its set of true variables."""
    for bits in itertools.product((False, True), repeat=num_vars):
        assignment = {i + 1: b for i, b in enumerate(bits)}
        if all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
               for clause in clauses):
            yield frozenset(v for v, b in assignment.items() if b)


def truth_table_satisfiable(num_vars: int, clauses) -> bool:
    return next(truth_table_models(num_vars, clauses), None) is not None


# --- random model generator --------------------------------------------------

def random_model(rng: random.Random, max_features: int = 12,
                 allow_groups: bool = True, allow_constraints: bool = True,
                 allow_attributes: bool = False) -> FeatureModel:
    """A random valid model with features in print order (preorder,

    group members contiguous among siblings), so DSL round-trips hold.
    """
    target = rng.randint(1, max_features)
    budget = [target - 1]
    counter = itertools.count()
    attr_counter = itertools.count()
    features: list[Feature] = []
    group_members: list[list[str]] = []
    group_meta: list[tuple[str, GroupKind]] = []

    def fresh_name() -> str:
        return f"F{next(counter)}"

    def maybe_attributes() -> tuple[Attribute, ...]:
        if not allow_attributes or rng.random() > 0.3:
            return ()
        return tuple(
            Attribute(f"a{next(attr_counter)}", rng.choice(
                ("string", "integer", "decimal", "boolean", "date")))
            for _ in range(rng.randint(1, 2)))

    def grow(parent: str, depth: int) -> None:
        while budget[0] > 0 and rng.random() < (0.7 if depth < 2 else 0.45):
            if allow_groups and budget[0] >= 2 and rng.random() < 0.3:
                kind = rng.choice((GroupKind.OR, GroupKind.ALTERNATIVE))
                size = rng.randint(2, min(3, budget[0]))
                budget[0] -= size
                gid = len(group_members)
                group_members.append([])
                group_meta.append((parent, kind))
                for _ in range(size):
                    name = fresh_name()
                    group_members[gid].append(name)
                    features.append(Feature(name, parent, Variability.GROUP_MEMBER,
                                            gid, maybe_attributes()))
                    grow(name, depth + 1)
            else:
                budget[0] -= 1
                name = fresh_name()
                variability = rng.choice((Variability.MANDATORY, Variability.OPTIONAL))
                features.append(Feature(name, parent, variability, None,
                                        maybe_attributes()))
                grow(name, depth + 1)

    root = fresh_name()
    features.append(Feature(root, None, Variability.MANDATORY, None, maybe_attributes()))
    grow(root, 0)

    groups = tuple(
        Group(gid, owner, kind, tuple(members))
        for gid, ((owner, kind), members) in enumerate(zip(group_meta, group_members)))

    constraints = []
    names = [f.name for f in features]
    if allow_constraints and len(names) >= 2:
        for _ in range(rng.randint(0, 3)):
            source, target_name = rng.sample(names, 2)
            kind = rng.choice((ConstraintKind.REQUIRES, ConstraintKind.EXCLUDES))
            constraints.append(CrossTreeConstraint(kind, source, target_name))

    model = FeatureModel(root, tuple(features), groups, tuple(constraints))
    validate(model)
    return model


def random_tree(rng: random.Random, n: int, constraints: int = 0) -> FeatureModel:
    """A random model of at least ``n`` features built in code: each new
    feature, or group of three, hangs under a feature drawn uniformly from
    those made so far, and ``constraints`` random requires/excludes follow.
    It may be void."""
    features = [Feature("F0", None, Variability.MANDATORY)]
    groups: list[Group] = []
    while len(features) < n:
        parent = rng.choice(features).name
        if rng.random() < 0.2:
            members = tuple(f"F{len(features) + i}" for i in range(3))
            groups.append(Group(len(groups), parent,
                                rng.choice((GroupKind.OR, GroupKind.ALTERNATIVE)), members))
            features.extend(Feature(name, parent, Variability.GROUP_MEMBER, len(groups) - 1)
                            for name in members)
        else:
            variability = rng.choice((Variability.MANDATORY, Variability.OPTIONAL))
            features.append(Feature(f"F{len(features)}", parent, variability))
    names = [f.name for f in features]
    kinds = (ConstraintKind.REQUIRES, ConstraintKind.EXCLUDES)
    cross = tuple(CrossTreeConstraint(rng.choice(kinds), *rng.sample(names, 2))
                  for _ in range(constraints))
    return FeatureModel("F0", tuple(features), tuple(groups), cross)


def optional_chain(length: int) -> FeatureModel:
    """F0 { optional F1 { optional F2 { ... } } }: nesting depth length - 1."""
    features = [Feature("F0", None, Variability.MANDATORY)] + [
        Feature(f"F{i}", f"F{i - 1}", Variability.OPTIONAL) for i in range(1, length)]
    return FeatureModel("F0", tuple(features))


def stand_in(value, namespace: bool):
    """A value of another class with the fields of the model value: a
    ``SimpleNamespace``, or a namedtuple. The model must refuse it."""
    fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    if namespace:
        return SimpleNamespace(**fields)
    return namedtuple(f"{type(value).__name__}Tuple", fields)(**fields)


def model_relation_kinds(model: FeatureModel) -> set[str]:
    """Which relation/constraint kinds a model exercises."""
    kinds = set()
    for f in model.features:
        if f.parent is None:
            continue
        if f.variability is Variability.MANDATORY:
            kinds.add("mandatory")
        elif f.variability is Variability.OPTIONAL:
            kinds.add("optional")
    for g in model.groups:
        kinds.add(g.kind.value)
    for c in model.constraints:
        kinds.add(c.kind.value)
    return kinds


# --- random ontology generator -------------------------------------------------

_XSD = ("xsd:string", "xsd:integer", "xsd:decimal", "xsd:boolean", "xsd:date")


def random_ontology(rng: random.Random, max_axioms: int = 15) -> owl.Ontology:
    """A random declaration-closed ontology over the supported constructs."""
    classes = [f"C{i}" for i in range(rng.randint(2, 5))]
    props = [f"p{i}" for i in range(rng.randint(1, 3))]
    data_props = [f"d{i}" for i in range(rng.randint(1, 3))]

    def expr(depth: int) -> owl.ClassExpression:
        roll = rng.random()
        if depth >= 2 or roll < 0.45:
            return owl.NamedClass(rng.choice(classes))
        if roll < 0.5:
            return owl.THING
        if roll < 0.62:
            return owl.ComplementOf(expr(depth + 1))
        if roll < 0.74:
            return owl.IntersectionOf(tuple(expr(depth + 1)
                                            for _ in range(rng.randint(2, 3))))
        if roll < 0.86:
            return owl.UnionOf(tuple(expr(depth + 1) for _ in range(rng.randint(2, 3))))
        ctor = rng.choice((owl.SomeValuesFrom, owl.AllValuesFrom))
        return ctor(rng.choice(props), expr(depth + 1))

    axioms: list[owl.Axiom] = []
    axioms.extend(owl.Declaration(owl.EntityKind.CLASS, c) for c in classes)
    axioms.extend(owl.Declaration(owl.EntityKind.OBJECT_PROPERTY, p) for p in props)
    axioms.extend(owl.Declaration(owl.EntityKind.DATA_PROPERTY, d) for d in data_props)
    for _ in range(rng.randint(0, max_axioms)):
        roll = rng.random()
        if roll < 0.35:
            axioms.append(owl.SubClassOf(expr(0), expr(0)))
        elif roll < 0.55:
            axioms.append(owl.EquivalentClasses(expr(0), expr(0)))
        elif roll < 0.7:
            a, b = rng.sample(classes, 2)
            axioms.append(owl.DisjointClasses(owl.NamedClass(a), owl.NamedClass(b)))
        elif roll < 0.8:
            axioms.append(owl.ObjectPropertyRange(rng.choice(props), expr(0)))
        elif roll < 0.9:
            axioms.append(owl.DataPropertyDomain(
                rng.choice(data_props), owl.NamedClass(rng.choice(classes))))
        else:
            axioms.append(owl.DataPropertyRange(rng.choice(data_props), rng.choice(_XSD)))
    return owl.Ontology(f"http://example.org/test/{rng.randint(0, 999)}#", tuple(axioms))
