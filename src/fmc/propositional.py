"""Propositional (CNF) semantics of feature models.

A configuration is valid iff: the root is selected; every selected feature's
parent is selected; every mandatory child of a selected parent is selected;
a selected or-group owner has at least one selected member; a selected
alternative-group owner has exactly one selected member; requires/excludes
constraints hold. Attributes never affect validity.

These rules are stated once, as a list of clauses over 1-based variables
(variable ``i`` stands for ``model.features[i - 1]``). Three readers share
it: ``cnf`` joins the clauses into the CNF, ``is_valid_configuration``
evaluates them on a selection and reports each broken rule, and
``fmc.compiler`` turns each relation and constraint into OWL axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations
from operator import neg
from typing import Iterable, Mapping

from .model import ConstraintKind, FeatureModel, GroupKind, UnknownFeatureError, Variability


@dataclass(frozen=True)
class PropositionalFormula:
    """CNF formula: clauses of signed, 1-based variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    variables: tuple[str, ...]  # variables[i - 1] is the feature for var i

    # built on first use: the name -> variable map, and fmc.analysis's clause store
    _index: dict = field(init=False, repr=False, compare=False, default=None)
    _solver_store: object = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        n = self.num_vars
        if n < 1:
            raise ValueError("formula needs at least one variable")
        if len(self.variables) != n:
            raise ValueError("variable name list must cover exactly 1..num_vars")
        if len(set(self.variables)) != n:
            raise ValueError("variable names must be unique")
        # one pass in C over the literals; then a binary clause in range
        # needs only a look at its two literals
        literals = set(chain.from_iterable(self.clauses))
        in_range = 0 not in literals and -n <= min(literals, default=1) and max(literals, default=1) <= n
        for clause in self.clauses:
            if in_range and len(clause) == 2 and clause[0] != -clause[1]:
                continue
            error = _clause_error(clause, n)
            if error:
                raise ValueError(error)

    def variable(self, feature_name: str) -> int:
        if self._index is None:
            object.__setattr__(self, "_index", dict(zip(self.variables, range(1, self.num_vars + 1))))
        return self._index[feature_name]

    def feature(self, var: int) -> str:
        return self.variables[var - 1]


def _clause_error(clause: tuple[int, ...], num_vars: int) -> str | None:
    """What makes the clause invalid over variables 1..num_vars, or None."""
    if not clause:
        return "empty clause"
    lits = set(clause)
    for lit in clause:
        if lit == 0 or abs(lit) > num_vars:
            return f"literal {lit} out of range 1..{num_vars}"
        if -lit in lits:
            return f"clause {clause} contains both a literal and its negation"
    return None


def to_propositional(model: FeatureModel) -> PropositionalFormula:
    """Encode the model's configuration semantics as CNF (see ``cnf``)."""
    return PropositionalFormula(len(model.features), cnf(model), model.feature_names)


def _variables(model: FeatureModel) -> dict[str, int]:
    """Feature name -> its variable, 1-based in feature order."""
    return dict(zip(model.feature_names, range(1, len(model.features) + 1)))


def _rules(model: FeatureModel, var: dict[str, int]):
    """Yield (rule, features, clauses) for every configuration rule, over
    the variables ``var`` (``_variables(model)``).

    This is the one statement of the rules: ``cnf``,
    ``is_valid_configuration`` and the compiler (``compiler._axioms``) read
    it. The order is the order in which the checker reports violations:
    root; per feature (feature order) its parent rule, then its mandatory
    rule; groups (group order); cross-tree constraints (declaration order).
    """
    yield "root", (model.root,), ((var[model.root],),)
    for f in model.features:
        if f.parent is None:
            continue
        child, parent = var[f.name], var[f.parent]
        yield "parent", (f.name, f.parent), ((-child, parent),)
        if f.variability is Variability.MANDATORY:
            yield "mandatory", (f.parent, f.name), ((-parent, child),)
    for group in model.groups:
        members = [var[m] for m in group.members]
        clauses = [(-var[group.owner], *members)]
        if group.kind is GroupKind.ALTERNATIVE:
            # child-implies-parent already forces members off when the owner
            # is off, so the pair clauses need no owner guard
            clauses += [(-a, -b) for a, b in combinations(members, 2)]
        yield group.kind.value, (group.owner, *group.members), tuple(clauses)
    for c in model.constraints:
        target = var[c.target] if c.kind is ConstraintKind.REQUIRES else -var[c.target]
        yield c.kind.value, (c.source, c.target), ((-var[c.source], target),)


_CNF_ORDER = {"root": 0, "parent": 1, "mandatory": 2, "or": 3, "alternative": 3,
              "requires": 4, "excludes": 4}


def cnf(model: FeatureModel) -> tuple[tuple[int, ...], ...]:
    """The clauses of ``to_propositional(model)``, without building the formula.

    Clause order: root unit clause; child-implies-parent (feature order);
    parent-implies-mandatory-child (feature order); group clauses (group
    order: at-least-one, then pairwise at-most-one for alternatives);
    cross-tree constraints (declaration order).
    """
    parts: tuple[list, ...] = ([], [], [], [], [])
    for rule, _, clauses in _rules(model, _variables(model)):
        parts[_CNF_ORDER[rule]].extend(clauses)
    return tuple(chain.from_iterable(parts))


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


_MESSAGES = {
    "root": "root feature '{0}' must be selected",
    "parent": "'{0}' is selected but its parent '{1}' is not",
    "mandatory": "'{0}' is selected but its mandatory child '{1}' is not",
    "or": "or group under '{0}' needs at least one of {{{members}}} selected",
    "alternative": ("alternative group under '{0}' needs exactly one of "
                    "{{{members}}} selected ({detail})"),
    "requires": "'{0}' requires '{1}', which is not selected",
    "excludes": "'{0}' excludes '{1}', but both are selected",
}


def is_valid_configuration(model: FeatureModel,
                           config: Iterable[str]) -> tuple[bool, tuple[Violation, ...]]:
    """Check a set of selected feature names against the model's rules.

    Returns (valid, violations); violations list every broken rule. Raises
    UnknownFeatureError if config names features not in the model; it
    lists them all, sorted, so no set order shows in the message.
    """
    selected = set(config)
    var = _variables(model)
    unknown = sorted(selected.difference(var))
    if unknown:
        raise UnknownFeatureError(unknown)

    # the true literals: the selected variables, and the others negated
    chosen = set(map(var.__getitem__, selected))
    true = set(range(-len(var), 0)).difference(map(neg, chosen))
    true |= chosen
    violations: list[Violation] = []
    for rule, features, clauses in _rules(model, var):
        if rule in ("or", "alternative") and features[0] not in selected:
            continue  # a group constrains its members only under a selected owner
        if not any(map(true.isdisjoint, clauses)):
            continue  # every clause has a true literal
        chosen = [m for m in features[1:] if m in selected]
        detail = f"{', '.join(chosen)} all selected" if chosen else "none selected"
        message = _MESSAGES[rule].format(*features, members=", ".join(features[1:]),
                                         detail=detail)
        violations.append(Violation(rule, features, message))
    return (not violations, tuple(violations))
