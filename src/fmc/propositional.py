"""Propositional (CNF) semantics of feature models.

A configuration is valid iff: the root is selected; every selected feature's
parent is selected; every mandatory child of a selected parent is selected;
a selected or-group owner has at least one selected member; a selected
alternative-group owner has exactly one selected member; requires/excludes
constraints hold. Attributes never affect validity.

``to_propositional`` realizes these rules as CNF over 1-based variables,
where variable ``i`` stands for ``model.features[i - 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .model import ConstraintKind, FeatureModel, GroupKind, Variability


@dataclass(frozen=True)
class PropositionalFormula:
    """CNF formula: clauses of signed, 1-based variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    variables: tuple[str, ...]  # variables[i - 1] is the feature for var i

    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        if len(self.variables) != self.num_vars:
            raise ValueError("variable name list must cover exactly 1..num_vars")
        if len(set(self.variables)) != self.num_vars:
            raise ValueError("variable names must be unique")
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            lits = set(clause)
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")
                if -lit in lits:
                    raise ValueError(f"clause {clause} contains both a literal and its negation")
        object.__setattr__(self, "_index", {name: i + 1 for i, name in enumerate(self.variables)})

    def variable(self, feature_name: str) -> int:
        return self._index[feature_name]

    def feature(self, var: int) -> str:
        return self.variables[var - 1]


def to_propositional(model: FeatureModel) -> PropositionalFormula:
    """Encode the model's configuration semantics as CNF (see ``cnf``)."""
    return PropositionalFormula(len(model.features), cnf(model), model.feature_names)


def cnf(model: FeatureModel) -> tuple[tuple[int, ...], ...]:
    """The clauses of ``to_propositional(model)``, without building the formula.

    Clause order: root unit clause; child-implies-parent (feature order);
    parent-implies-mandatory-child (feature order); group clauses (group
    order: at-least-one, then pairwise at-most-one for alternatives);
    cross-tree constraints (declaration order).
    """
    var = {name: i + 1 for i, name in enumerate(model.feature_names)}
    clauses: list[tuple[int, ...]] = [(var[model.root],)]

    for f in model.features:
        if f.parent is not None:
            clauses.append((-var[f.name], var[f.parent]))
    for f in model.features:
        if f.parent is not None and f.variability is Variability.MANDATORY:
            clauses.append((-var[f.parent], var[f.name]))

    for group in model.groups:
        owner = var[group.owner]
        members = [var[m] for m in group.members]
        clauses.append((-owner, *members))
        if group.kind is GroupKind.ALTERNATIVE:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    # child-implies-parent already forces members off when the
                    # owner is off, so the pair clause needs no owner guard
                    clauses.append((-members[i], -members[j]))

    for c in model.constraints:
        if c.kind is ConstraintKind.REQUIRES:
            clauses.append((-var[c.source], var[c.target]))
        else:
            clauses.append((-var[c.source], -var[c.target]))

    return tuple(clauses)


def satisfies(formula: PropositionalFormula, assignment: Mapping[int, bool]) -> bool:
    """True iff the total assignment makes every clause true."""
    for clause in formula.clauses:
        for lit in clause:
            if assignment[abs(lit)] == (lit > 0):
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Violation:
    """One violated configuration rule and the features involved."""

    rule: str  # root | parent | mandatory | or | alternative | requires | excludes
    features: tuple[str, ...]
    message: str

    def __str__(self):
        return self.message


def is_valid_configuration(model: FeatureModel,
                           config: Iterable[str]) -> tuple[bool, tuple[Violation, ...]]:
    """Check a set of selected feature names against the model's rules.

    Returns (valid, violations); violations list every broken rule. Raises
    UnknownFeatureError if config names a feature not in the model.
    """
    selected = set()
    for name in config:
        model.feature(name)  # raises UnknownFeatureError
        selected.add(name)

    violations: list[Violation] = []
    if model.root not in selected:
        violations.append(Violation(
            "root", (model.root,), f"root feature '{model.root}' must be selected"))

    for f in model.features:
        if f.parent is None:
            continue
        if f.name in selected and f.parent not in selected:
            violations.append(Violation(
                "parent", (f.name, f.parent),
                f"'{f.name}' is selected but its parent '{f.parent}' is not"))
        if (f.variability is Variability.MANDATORY
                and f.parent in selected and f.name not in selected):
            violations.append(Violation(
                "mandatory", (f.parent, f.name),
                f"'{f.parent}' is selected but its mandatory child '{f.name}' is not"))

    for group in model.groups:
        if group.owner not in selected:
            continue
        chosen = tuple(m for m in group.members if m in selected)
        if group.kind is GroupKind.OR and not chosen:
            violations.append(Violation(
                "or", (group.owner, *group.members),
                f"or group under '{group.owner}' needs at least one of "
                f"{{{', '.join(group.members)}}} selected"))
        elif group.kind is GroupKind.ALTERNATIVE and len(chosen) != 1:
            detail = "none selected" if not chosen else f"{', '.join(chosen)} all selected"
            violations.append(Violation(
                "alternative", (group.owner, *group.members),
                f"alternative group under '{group.owner}' needs exactly one of "
                f"{{{', '.join(group.members)}}} selected ({detail})"))

    for c in model.constraints:
        if c.kind is ConstraintKind.REQUIRES:
            if c.source in selected and c.target not in selected:
                violations.append(Violation(
                    "requires", (c.source, c.target),
                    f"'{c.source}' requires '{c.target}', which is not selected"))
        else:
            if c.source in selected and c.target in selected:
                violations.append(Violation(
                    "excludes", (c.source, c.target),
                    f"'{c.source}' excludes '{c.target}', but both are selected"))

    return (not violations, tuple(violations))
