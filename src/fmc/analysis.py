"""Feature-model analyses: satisfiability, dead features, configuration count.

Consistency is decided on the propositional semantics with a built-in
DPLL solver. It is iterative: a trail of assigned literals, unit
propagation, and chronological backtracking to the last decision not yet
flipped. Its clauses sit in one store per formula, built once and only
read, so a solver holds nothing but its assignment. A binary clause, the
common kind in a feature-model CNF, is two entries in per-literal
implication lists. A clause of three or more literals is listed under
each of its literals; when a literal becomes false, each clause listing
it is scanned for a true literal or a last unassigned one.

Dead features come from a feature cover: witnesses that together select
every alive feature (1-wise coverage, as in product-line sampling; the
dead features are the negative literals of the backbone). They need no
feature names: the tree is read from the CNF's child-implies-parent
clauses. One solver per formula asks "can this feature be selected?" as
an assumption, only for features no earlier witness selected and whose
parent is not already found dead. Its preference is a counter per
variable, above 0 while the feature's subtree still holds a feature not
yet found alive or dead; its decisions take such a variable True first,
and its witness sets every variable left free True once all clauses are
satisfied, so each witness selects as many unseen features as it can;
the public ``solve`` still returns False for don't-cares. Every model the
solver returns, and every witness, is re-checked against the formula's
clauses by ``satisfies``, which shares no code with the store.

Counting works on the same CNF: unit propagation, a factor of two per free
variable, independent components counted once each and cached by their
clause sets, and branching on the most frequent variable. It is capped at
ENUMERATION_CAP features.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import compress

from .model import FeatureModel
from .propositional import PropositionalFormula, cnf, satisfies, to_propositional

ENUMERATION_CAP = 24


class VoidModelError(Exception):
    """Analysis that requires a consistent model was called on a void one."""


class EnumerationCapError(Exception):
    """Model too large for exhaustive configuration counting."""


class _Store:
    """The clauses of one formula as its solvers read them; built once.

    A binary clause ``(a ∨ b)`` is two implications, ``-a → b`` and
    ``-b → a``: ``implied[lit]`` lists the literals that ``lit`` being true
    makes true. It is indexed by literal; a negative literal ``-v`` uses
    Python's negative indexing, so both signs of every variable have their
    own slot. ``occurs[lit]`` lists the clauses of three or more literals
    that hold ``lit``; a literal in none has no key. ``units`` holds the
    literals of the unit clauses, and ``scan`` every clause of two or more
    literals in formula order, for the decision rule. A repeated literal
    counts once, so ``(1, 1)`` is a unit clause. Nothing writes to a store
    once it is built, so the solvers of one formula share it.
    """

    __slots__ = ("units", "implied", "occurs", "scan")

    def __init__(self, num_vars: int, clauses: tuple[tuple[int, ...], ...]):
        self.units: list[int] = []
        # a literal that implies nothing shares one empty tuple
        self.implied: list = [()] * (2 * num_vars + 1)
        self.occurs: dict[int, list[tuple[int, ...]]] = {}
        self.scan: list[tuple[int, ...]] = []
        units, implied, occurs, scan = self.units, self.implied, self.occurs, self.scan
        for clause in clauses:
            if len(clause) != 2 or clause[0] == clause[1]:
                # not two distinct literals: drop repeats, then file by size
                if len(set(clause)) < len(clause):
                    clause = tuple(dict.fromkeys(clause))
                if len(clause) == 1:
                    units.append(clause[0])
                    continue
                if len(clause) > 2:
                    for lit in clause:
                        occurs.setdefault(lit, []).append(clause)
                    scan.append(clause)
                    continue
            a, b = clause
            if implied[-a]:
                implied[-a].append(b)
            else:
                implied[-a] = [b]
            if implied[-b]:
                implied[-b].append(a)
            else:
                implied[-b] = [a]
            scan.append(clause)


def _store(formula: PropositionalFormula) -> _Store:
    """The formula's clause store, built on first use and kept on the formula."""
    store = formula._solver_store
    if store is None:
        store = _Store(formula.num_vars, formula.clauses)
        object.__setattr__(formula, "_solver_store", store)
    return store


class _Solver:
    """DPLL over one formula's clause store, queried under assumptions.

    The solver only reads the store's lists, and holds no clause of its
    own: its state is the assignment. ``value`` is indexed by literal as
    ``implied`` is; ``value[lit]`` is 1 when lit is true, -1 when false
    and 0 when unassigned. ``trail`` lists the assigned literals in order.
    The assignments forced by unit clauses stay on the trail between
    queries; everything else is undone after each one. Decisions take v
    True first while ``prefer[v]`` is true: every v by default, and in
    ``dead_features`` while its cover counter is above 0.
    """

    def __init__(self, formula: PropositionalFormula):
        store = _store(formula)
        self.num_vars = formula.num_vars
        self.implied = store.implied
        self.occurs = store.occurs
        self.scan = store.scan
        self.value = [0] * (2 * formula.num_vars + 1)
        self.trail: list[int] = []
        self.head = 0  # trail[:head] has been propagated
        self.prefer = bytearray([1]) * (formula.num_vars + 1)
        # once every clause is satisfied, report variables still unassigned
        # as True (any completion is then a model) rather than False
        self.complete = False
        self.void = False
        for lit in store.units:
            if self.value[lit] == -1:
                self.void = True
            elif self.value[lit] == 0:
                self._assign(lit)
        self.void = self.void or not self._propagate()
        self.base = len(self.trail)

    def _assign(self, lit: int) -> None:
        self.value[lit] = 1
        self.value[-lit] = -1
        self.trail.append(lit)

    def _undo(self, size: int) -> None:
        value = self.value
        for lit in self.trail[size:]:
            value[lit] = value[-lit] = 0
        del self.trail[size:]
        self.head = size

    def _propagate(self) -> bool:
        """Unit propagation to fixpoint; False on a conflict. On a conflict
        the caller backtracks, which also resets ``head``."""
        value, implied, occurs, trail = self.value, self.implied, self.occurs, self.trail
        head = self.head
        while head < len(trail):
            lit = trail[head]
            head += 1
            for other in implied[lit]:
                if value[other] == 0:
                    value[other] = 1
                    value[-other] = -1
                    trail.append(other)
                elif value[other] == -1:
                    return False
            if -lit not in occurs:
                continue
            for clause in occurs[-lit]:
                # the clause's one unassigned literal, if it has no true one
                unit = 0
                for other in clause:
                    state = value[other]
                    if state == -1:
                        continue
                    if state == 1 or unit:
                        break
                    unit = other
                else:
                    if unit == 0:
                        return False
                    value[unit] = 1
                    value[-unit] = -1
                    trail.append(unit)
        self.head = head
        return True

    def _decision(self, clause: tuple[int, ...]) -> int:
        """The literal to assign first on an open clause: a preferred
        variable set True, else the first negative literal, else the first
        unassigned literal."""
        value, prefer = self.value, self.prefer
        best = 0
        for lit in clause:
            if value[lit] == 0:
                if prefer[abs(lit)]:
                    return abs(lit)
                if best == 0 or best > 0 > lit:
                    best = lit
        return best

    def solve(self, assumptions: tuple[int, ...] = ()) -> bytearray | None:
        """A total assignment satisfying the formula and the assumption
        literals, or None. The assignment is indexed by variable, 1 for
        True and 0 for False, and its slot 0 is 0. Variables left
        unassigned once every clause is satisfied come out False, or True
        when ``complete`` is set."""
        if self.void:
            return None
        value, clauses, trail = self.value, self.scan, self.trail
        # decision levels: (trail size before, literal, clause index, flippable);
        # assumptions are levels that are never flipped
        levels: list[tuple[int, int, int, bool]] = []
        ok = True
        for lit in assumptions:
            if value[lit] == 1:
                continue
            if value[lit] == -1:
                ok = False
                break
            levels.append((len(trail), lit, 0, False))
            self._assign(lit)
            ok = self._propagate()
            if not ok:
                break
        count = len(clauses)
        pointer = 0  # clauses before it are satisfied on this branch
        result = None
        while True:
            if ok:
                while pointer < count:
                    for lit in clauses[pointer]:
                        if value[lit] == 1:
                            break
                    else:
                        break
                    pointer += 1
                if pointer == count:
                    # values above floor read True; unassigned (0) does only when completing
                    floor = -1 if self.complete else 0
                    result = bytearray(map(floor.__lt__, value[:self.num_vars + 1]))
                    result[0] = 0  # no variable
                    break
                lit = self._decision(clauses[pointer])
                levels.append((len(trail), lit, pointer, True))
            else:
                while levels:
                    size, lit, pointer, flippable = levels.pop()
                    self._undo(size)
                    if flippable:
                        lit = -lit
                        levels.append((size, lit, pointer, False))
                        break
                else:
                    break
            value[lit] = 1
            value[-lit] = -1
            trail.append(lit)
            ok = self._propagate()
        self._undo(self.base)
        return result


def _checked(formula: PropositionalFormula, assignment: bytearray | None) -> bytearray | None:
    """The assignment, after checking that it satisfies every clause."""
    if assignment is not None and not satisfies(formula, assignment):
        raise AssertionError("solver returned a non-satisfying assignment")
    return assignment


def solve(formula: PropositionalFormula) -> dict[int, bool] | None:
    """DPLL satisfiability: a satisfying total assignment, or None.

    Decisions are taken on a variable of the first clause not yet
    satisfied, trying True first. Don't-care variables default to False, so an
    empty formula yields all-false. The assignment is re-checked against
    every clause before returning.
    """
    witness = _checked(formula, _Solver(formula).solve())
    if witness is None:
        return None
    return dict(zip(range(1, formula.num_vars + 1), map(bool, witness[1:])))


def check_consistency(model: FeatureModel) -> bool:
    """True iff the model has at least one valid configuration."""
    return solve(to_propositional(model)) is not None


def dead_features(model: FeatureModel) -> set[str]:
    """Features that appear in no valid configuration.

    Raises VoidModelError if the model itself has no valid configuration,
    found by the one ``solve`` of the base formula. The witnesses then
    build a feature cover: configurations that together select every
    alive feature. One solver answers, for each feature no witness has
    selected yet, whether it can be selected; each witness marks every
    feature it selects alive. A feature is decided once it is found alive
    or dead. The tree is read from the formula: its clauses 1 to n-1 are
    ``(-v, parent)`` (see ``cnf``). The query solver's preference is a
    counter, above 0 while its feature's subtree still holds an undecided
    feature, and it completes its witnesses (once every clause is
    satisfied, each variable still free is set True). So a witness keeps
    open every subtree where an unseen feature may still be selected: a
    flat model takes one query, and a tree about one per configuration of
    its cover. A feature whose parent is already found dead is dead with
    no query (child implies parent); the features are taken in model
    order, so in a parsed model every parent is decided before its children.
    """
    formula = to_propositional(model)
    base = solve(formula)
    if base is None:
        raise VoidModelError("model has no valid configuration")
    n = formula.num_vars
    alive = bytearray(n + 1)
    for v in compress(base, base.values()):
        alive[v] = 1
    del base  # as large as the model, and not read again
    solver = _Solver(formula)
    solver.complete = True
    # parent[v] from the clauses (-v, parent), 0 for the root. pending[v]:
    # 1 while v is undecided, plus 1 for each child whose subtree still
    # holds an undecided feature. Deciding a feature walks up only while a
    # count reaches 0, and each count reaches 0 once, so all walks take O(n).
    parent = _ints(0, n + 1)
    pending = solver.prefer = _ints(1, n + 1)
    for child, p in formula.clauses[1:n]:
        parent[-child] = p
        pending[p] += 1

    def decide(features) -> None:
        for v in features:
            while v:
                pending[v] -= 1
                if pending[v]:
                    break
                v = parent[v]

    decide(compress(range(1, n + 1), alive[1:]))
    dead = bytearray(n + 1)
    for v in range(1, n + 1):
        if alive[v]:
            continue
        # under a dead parent, dead with no query: the child implies its parent
        witness = None if dead[parent[v]] else _checked(formula, solver.solve((v,)))
        if witness is None:
            dead[v] = 1
            decide((v,))
            continue
        fresh = [u for u in compress(range(n + 1), witness) if not alive[u]]
        for u in fresh:
            alive[u] = 1
        decide(fresh)
    return set(compress(formula.variables, dead[1:]))


def _ints(value: int, size: int) -> memoryview:
    """``size`` C ints, each ``value``, as a writable memoryview of a
    bytearray: as compact as an ``array.array``, whose extension module
    would add about 0.1 MB to every process that imports fmc."""
    return memoryview(bytearray(value.to_bytes(4, sys.byteorder)) * size).cast("i")


def count_configurations(model: FeatureModel) -> int:
    """Exact number of valid configurations: the models of the model's CNF.

    Models beyond ENUMERATION_CAP features raise EnumerationCapError
    before any clause is built, rather than approximating; the cap also
    bounds the branching depth.
    """
    n = len(model.features)
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"model has {n} features; counting is capped at {ENUMERATION_CAP}")
    clauses = cnf(model)
    cache: dict[frozenset, int] = {}

    def count(clauses: list[tuple[int, ...]], num_vars: int) -> int:
        # models over num_vars variables, a superset of those in the clauses
        while True:
            unit = next((c[0] for c in clauses if len(c) == 1), 0)
            if not unit:
                break
            clauses = _assign(clauses, unit)
            if clauses is None:
                return 0
            num_vars -= 1
        total = 1
        for component in _components(clauses):
            key = frozenset(component)
            if key not in cache:
                cache[key] = branch(component)
            total *= cache[key]
            if not total:
                return 0
        free = num_vars - len({abs(lit) for c in clauses for lit in c})
        return total << free

    def branch(component: list[tuple[int, ...]]) -> int:
        frequency = Counter(abs(lit) for c in component for lit in c)
        var = max(frequency, key=lambda v: (frequency[v], -v))
        total = 0
        for lit in (var, -var):
            rest = _assign(component, lit)
            if rest is not None:
                total += count(rest, len(frequency) - 1)
        return total

    return count(list(clauses), n)


def _assign(clauses: list[tuple[int, ...]], lit: int) -> list[tuple[int, ...]] | None:
    """The clauses with lit set True, or None if one becomes empty."""
    rest = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = tuple(x for x in clause if x != -lit)
            if not clause:
                return None
        rest.append(clause)
    return rest


def _components(clauses: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """The clauses split into groups that share no variable."""
    by_var: dict[int, list[int]] = {}
    for i, clause in enumerate(clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(i)
    seen = [False] * len(clauses)
    components = []
    for start in range(len(clauses)):
        if seen[start]:
            continue
        seen[start] = True
        stack, component = [start], []
        while stack:
            clause = clauses[stack.pop()]
            component.append(clause)
            for lit in clause:
                for j in by_var.pop(abs(lit), ()):
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
        components.append(component)
    return components


def analyze(model: FeatureModel) -> dict:
    """Full analysis report.

    Returns {"consistent": bool, "dead_features": [names in feature
    order], "configuration_count": int | None}; the count is None when
    the model exceeds the enumeration cap. The base formula is solved
    once, inside dead_features, which also decides consistency; the count
    builds its own clauses only for models within the cap.
    """
    try:
        dead = dead_features(model)
        consistent = True
    except VoidModelError:
        dead, consistent = set(), False
    try:
        count = count_configurations(model)
    except EnumerationCapError:
        count = None
    return {
        "consistent": consistent,
        "dead_features": [name for name in model.feature_names if name in dead],
        "configuration_count": count,
    }
