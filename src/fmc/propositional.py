"""Propositional (CNF) semantics of feature models.

A configuration is valid iff: the root is selected; every selected feature's
parent is selected; every mandatory child of a selected parent is selected;
a selected or-group owner has at least one selected member; a selected
alternative-group owner has exactly one selected member; requires/excludes
constraints hold. Attributes never affect validity.

These rules are stated once, in ``_rules``, over 1-based variables
(variable ``i`` stands for ``model.features[i - 1]``): one batch per kind
of rule (root, parent, mandatory, group, constraint), each a few parallel
columns of variables read from the model's values with comprehensions
and ``compress``. Each kind's clause shape (``_implications``,
``_at_least_one``, ``_pairs``) is written once and turns the columns
into clauses as they are read. Three readers share the batches:
``cnf`` joins their clauses in its pinned order;
``is_valid_configuration`` tests each batch's clauses against the
selection's true literals with ``map(true.isdisjoint, ...)`` and reports
each broken rule; and ``fmc.compiler`` places an OWL axiom for each
relation and constraint. The checker applies an alternative group's
pairwise shape only to the group's selected members, so a check takes
time linear in the model and the selection, while the CNF, like the
paper's OWL encoding, holds every pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, combinations, compress
from operator import add, itemgetter, neg
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .model import FeatureModel, UnknownFeatureError, Variability


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


class _Batch:
    """The rules of one kind, as parallel columns: entry i of each is rule i's.

    The clauses come from the variable columns through the kind's clause
    shape, one clause per entry; they are built as they are read, so a
    reader that only tests them keeps none.
    """

    __slots__ = ("rules", "columns", "shape")

    def __init__(self, rules: Sequence[str], columns: tuple[Sequence, ...],
                 shape: Callable[..., Iterator[tuple[int, ...]]]):
        self.rules = rules  # the rule's name, as a Violation reports it
        self.columns = columns  # the variables the shape takes, one column each
        self.shape = shape

    def clauses(self) -> Iterator[tuple[int, ...]]:
        return self.shape(*self.columns)

    def clause(self, i: int) -> tuple[int, ...]:
        """Entry i's clause: the shape of entry i's columns alone."""
        return next(self.shape(*[column[i:i + 1] for column in self.columns]))


# Each kind's clause shape, from columns of variables.

def _selected(variables) -> Iterator[tuple[int]]:
    """The root rule: the variable is true."""
    return zip(variables)


def _implications(sources, targets) -> Iterator[tuple[int, int]]:
    """Parent, mandatory and constraint rules: each source variable implies
    its target literal."""
    return zip(map(neg, sources), targets)


def _at_least_one(owners, members) -> Iterator[tuple[int, ...]]:
    """Group rules: each owner implies one of its members (a tuple each)."""
    return map(add, zip(map(neg, owners)), members)


def _pairs(members) -> Iterator[tuple[int, int]]:
    """What an alternative group adds to its group rule: no two of the
    members together. Child-implies-parent already forces members off when
    the owner is off, so these clauses need no owner guard."""
    return combinations(map(neg, members), 2)


# a constraint's target literal is its target's variable times its sign
_SIGN = {"requires": 1, "excludes": -1}


def _rules(model: FeatureModel, var: dict[str, int]) -> tuple[_Batch, ...]:
    """Every configuration rule over the variables ``var``
    (``_variables(model)``), as the batches root, parent, mandatory, group
    and constraint.

    This is the one statement of the rules: ``cnf``,
    ``is_valid_configuration`` and the compiler (``compiler._axioms``) read
    it. The columns are (root,), (child, parent), (parent, child),
    (owner, members) and (source, target literal), and a rule names the
    variables of its clause in that order: (owner, *members) for a group.
    An alternative group's rule also holds the ``_pairs`` of its members.
    A batch lists its rules in feature order (a parent or mandatory rule
    by its child), group order or declaration order.
    """
    features, n = model.features, len(var)
    root = var[model.root]
    below = features[:root - 1] + features[root:]  # every feature but the root
    children = [*range(1, root), *range(root + 1, n + 1)]
    # each column read with a comprehension over the values' slots, about
    # half the cost of map(attrgetter(...)) on CPython 3.11
    parents = [var[f.parent] for f in below]
    mandatory = Variability.MANDATORY
    is_mandatory = [f.variability is mandatory for f in below]
    groups, constraints = model.groups, model.constraints
    # a group has at least two members, so its itemgetter returns a tuple
    members = [itemgetter(*g.members)(var) for g in groups]
    # a kind's ``_value_`` is its value, without the ``value`` property's getter
    constraint_kinds = [c.kind._value_ for c in constraints]
    return (
        _Batch(("root",), ((root,),), _selected),
        _Batch(("parent",) * (n - 1), (children, parents), _implications),
        _Batch(("mandatory",) * is_mandatory.count(True),
               (list(compress(parents, is_mandatory)), list(compress(children, is_mandatory))),
               _implications),
        _Batch([g.kind._value_ for g in groups], ([var[g.owner] for g in groups], members),
               _at_least_one),
        _Batch(constraint_kinds,
               ([var[c.source] for c in constraints],
                [_SIGN[kind] * var[c.target] for kind, c in zip(constraint_kinds, constraints)]),
               _implications),
    )


def cnf(model: FeatureModel) -> tuple[tuple[int, ...], ...]:
    """The clauses of ``to_propositional(model)``, without building the formula.

    Clause order: root unit clause; child-implies-parent (feature order);
    parent-implies-mandatory-child (feature order); group clauses (group
    order: at-least-one, then pairwise at-most-one for alternatives);
    cross-tree constraints (declaration order).
    """
    root, parent, mandatory, group, constraint = _rules(model, _variables(model))
    groups = (chain((clause,), _pairs(members) if rule == "alternative" else ())
              for rule, clause, members in zip(group.rules, group.clauses(), group.columns[1]))
    return tuple(chain(root.clauses(), parent.clauses(), mandatory.clauses(),
                       chain.from_iterable(groups), constraint.clauses()))


def satisfies(formula: PropositionalFormula,
              assignment: Mapping[int, bool] | Sequence[int]) -> bool:
    """True iff the total assignment, indexed by variable, makes every
    clause true. A sequence holds 1 for True and 0 for False."""
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
    root, parent, mandatory, group, constraint = _rules(model, var)
    # a group constrains its members only under a selected owner, where its
    # at-least-one clause has no true literal to spare; an alternative
    # group's pairs there can break only among its selected members
    groups = set(_broken(group, true))
    owners, members = group.columns
    for i in compress(range(len(owners)), map(chosen.__contains__, owners)):
        if group.rules[i] == "alternative" and any(
                map(true.isdisjoint, _pairs(filter(chosen.__contains__, members[i])))):
            groups.add(i)
    # per feature, its parent rule before its mandatory rule; the feature is
    # the child column of each, (child, parent) and (parent, child)
    tree = sorted([(parent.columns[0][i], 0, i) for i in _broken(parent, true)]
                  + [(mandatory.columns[1][i], 1, i) for i in _broken(mandatory, true)])
    found = [(root, i) for i in _broken(root, true)]
    found += [((parent, mandatory)[kind], i) for _, kind, i in tree]
    found += [(group, i) for i in sorted(groups)]
    found += [(constraint, i) for i in _broken(constraint, true)]
    if not found:
        return (True, ())
    names = ("", *var)  # names[v]: the feature of variable v
    return (False, tuple(
        _violation(batch.rules[i], tuple(map(names.__getitem__, map(abs, batch.clause(i)))), selected)
        for batch, i in found))


def _broken(batch: _Batch, true: set[int]) -> Iterator[int]:
    """The entries of the batch whose clause has no true literal."""
    return compress(range(len(batch.rules)), map(true.isdisjoint, batch.clauses()))


def _violation(rule: str, features: tuple[str, ...], selected: set[str]) -> Violation:
    chosen = [m for m in features[1:] if m in selected]
    detail = f"{', '.join(chosen)} all selected" if chosen else "none selected"
    message = _MESSAGES[rule].format(*features, members=", ".join(features[1:]), detail=detail)
    return Violation(rule, features, message)
