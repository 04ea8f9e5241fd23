import random
import subprocess
import sys
from dataclasses import replace

import pytest

from fmc import analysis
from fmc.analysis import (
    ENUMERATION_CAP,
    EnumerationCapError,
    VoidModelError,
    analyze,
    check_consistency,
    count_configurations,
    dead_features,
    solve,
)
from fmc.dsl import parse
from fmc.model import ConstraintKind, CrossTreeConstraint, Feature, FeatureModel, Variability
from fmc.propositional import PropositionalFormula, satisfies, to_propositional

from helpers import (
    oracle_configurations,
    oracle_consistent,
    oracle_count,
    oracle_dead,
    optional_chain,
    random_model,
    random_tree,
    truth_table_models,
    truth_table_satisfiable,
)


def test_empty_formula_is_all_false():
    assert solve(PropositionalFormula(3, (), ("A", "B", "C"))) == {
        1: False, 2: False, 3: False}


def test_contradiction_is_unsatisfiable():
    assert solve(PropositionalFormula(1, ((1,), (-1,)), ("A",))) is None


def test_pure_branching_formula():
    # no unit clauses at any point: (x1 v x2) & (-x1 v -x2)
    formula = PropositionalFormula(2, ((1, 2), (-1, -2)), ("A", "B"))
    assignment = solve(formula)
    assert assignment is not None and satisfies(formula, assignment)


def test_solver_matches_truth_table_on_random_cnf():
    rng = random.Random(314159)
    for trial in range(1000):
        n = rng.randint(11, 12) if trial % 50 == 0 else rng.randint(2, 10)
        num_clauses = rng.randint(1, 4 * n)
        clauses = []
        for _ in range(num_clauses):
            size = min(3, n)
            variables = rng.sample(range(1, n + 1), size)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        formula = PropositionalFormula(n, tuple(clauses),
                                       tuple(f"V{i}" for i in range(n)))
        assignment = solve(formula)
        expected = truth_table_satisfiable(n, clauses)
        if expected:
            assert assignment is not None and satisfies(formula, assignment)
        else:
            assert assignment is None


def test_repeated_literals_count_once():
    # (1, 1) is the unit clause (1), (-1, 2, 2) the binary clause (-1, 2),
    # and (2, -3, 2) the binary clause (2, -3)
    formula = PropositionalFormula(3, ((1, 1), (-1, 2, 2), (2, -3, 2)), ("A", "B", "C"))
    store = analysis._Store(formula.num_vars, formula.clauses)
    assert (store.units, store.occurs, store.scan) == ([1], {}, [(-1, 2), (2, -3)])
    assert solve(formula) == {1: True, 2: True, 3: False}
    formula = PropositionalFormula(3, ((1, 1), (-1, 2, 2), (-2, -1, -2)), ("A", "B", "C"))
    assert solve(formula) is None
    # (-1, 2, 3, 2) is the long clause (-1, 2, 3), listed once under each literal
    formula = PropositionalFormula(3, ((-1, 2, 3, 2), (1,)), ("A", "B", "C"))
    store = analysis._Store(formula.num_vars, formula.clauses)
    clause = (-1, 2, 3)
    assert (store.units, store.occurs, store.scan) == (
        [1], {-1: [clause], 2: [clause], 3: [clause]}, [clause])
    assert solve(formula) == {1: True, 2: True, 3: False}


def test_one_solver_answers_every_literal_over_long_clauses():
    # one solver per formula is asked for each literal in turn, as the
    # dead-feature queries ask; the store it reads is the same afterwards
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(1, 10)
        clauses = []
        for _ in range(rng.randint(1, 3 * n)):
            size = min(rng.choice((1, 2, 3, 3, 4, 5, 6)), n)
            clauses.append(tuple(v if rng.random() < 0.5 else -v
                                 for v in rng.sample(range(1, n + 1), size)))
        formula = PropositionalFormula(n, tuple(clauses), tuple(f"V{i}" for i in range(n)))
        models = list(truth_table_models(n, clauses))
        solver = analysis._Solver(formula)
        solver.complete = rng.random() < 0.5
        for lit in [s * v for v in range(1, n + 1) for s in (1, -1)]:
            witness = solver.solve((lit,))
            possible = any((abs(lit) in m) == (lit > 0) for m in models)
            assert (witness is not None) == possible, (clauses, lit)
            if witness is not None:
                assert witness[abs(lit)] == (lit > 0) and satisfies(formula, witness)
        fresh = analysis._Store(n, formula.clauses)
        store = analysis._store(formula)
        assert (store.implied, store.occurs, store.scan) == (
            fresh.implied, fresh.occurs, fresh.scan)


def repeated_literal_clauses(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """A few clauses over 1..n, each drawn with replacement from literals
    of distinct variables, so most repeat a literal and none holds a
    literal and its negation."""
    clauses = []
    for _ in range(rng.randint(1, 5)):
        pool = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 2)]
        clauses.append(tuple(rng.choices(pool, k=rng.randint(1, 4))))
    return clauses


def test_solve_and_dead_features_match_the_truth_table_with_repeated_literals(monkeypatch):
    # the model's clauses, so a child still implies its parent, plus
    # clauses with repeated literals that no model's CNF contains
    model = parse("feature R { optional A { optional B } optional C or { D E } }")
    own = to_propositional(model)
    n = own.num_vars
    rng = random.Random(1717)
    extras = [[(1, 1), (-2, 3, 3), (3, -4, 3)]]
    extras += [repeated_literal_clauses(rng, n) for _ in range(300)]
    for extra in extras:
        formula = PropositionalFormula(n, own.clauses + tuple(extra), own.variables)
        models = list(truth_table_models(n, formula.clauses))
        assignment = solve(formula)
        assert (assignment is None) == (not models), extra
        monkeypatch.setattr(analysis, "to_propositional", lambda model, formula=formula: formula)
        if not models:
            with pytest.raises(VoidModelError):
                dead_features(model)
            continue
        assert frozenset(v for v, value in assignment.items() if value) in models
        alive = frozenset().union(*models)
        assert dead_features(model) == {own.feature(v) for v in range(1, n + 1)
                                        if v not in alive}, extra


def test_consistency_examples():
    assert check_consistency(parse("feature Solo"))
    void = parse("feature A { mandatory B optional C }\n"
                 "constraints { B requires C B excludes C }")
    assert not check_consistency(void)


def test_aisco_is_consistent(aisco_model):
    assert check_consistency(aisco_model)
    assert dead_features(aisco_model) == set()


def test_dead_feature_from_alternative_plus_requires():
    model = parse("feature A { alternative { B C } }\nconstraints { A requires C }")
    assert dead_features(model) == {"B"}


def test_dead_features_requires_consistent_model():
    void = parse("feature A { mandatory B }\nconstraints { B excludes A }")
    with pytest.raises(VoidModelError):
        dead_features(void)


def test_no_constraints_no_dead_features():
    model = parse("feature A { optional B or { C D } }")
    assert dead_features(model) == set()


def test_count_examples():
    assert count_configurations(parse("feature A")) == 1
    assert count_configurations(parse("feature A { optional B }")) == 2
    assert count_configurations(parse("feature A { alternative { B C } }")) == 2
    assert count_configurations(parse("feature A { or { B C } }")) == 3
    void = parse("feature A { mandatory B }\nconstraints { B excludes A }")
    assert count_configurations(void) == 0


def test_count_respects_cap():
    children = " ".join(f"optional C{i}" for i in range(ENUMERATION_CAP))
    model = parse(f"feature Root {{ {children} }}")  # cap + 1 features in total
    with pytest.raises(EnumerationCapError, match="capped at 24"):
        count_configurations(model)


def test_analysis_matches_oracle_on_random_models():
    rng = random.Random(777)
    for _ in range(80):
        model = random_model(rng, max_features=10)
        configs = oracle_configurations(model)
        assert check_consistency(model) == bool(configs)
        assert count_configurations(model) == len(configs)
        if configs:
            alive = frozenset().union(*configs)
            assert dead_features(model) == set(model.feature_names) - alive


def test_removing_a_constraint_never_decreases_count():
    rng = random.Random(31337)
    checked = 0
    while checked < 30:
        model = random_model(rng, max_features=10)
        if not model.constraints:
            continue
        checked += 1
        full = count_configurations(model)
        for drop in range(len(model.constraints)):
            remaining = tuple(c for i, c in enumerate(model.constraints) if i != drop)
            assert count_configurations(replace(model, constraints=remaining)) >= full


def test_analyze_report_shape(aisco_model):
    report = analyze(aisco_model)
    assert report == {"consistent": True, "dead_features": [],
                      "configuration_count": 160}
    void = parse("feature A { mandatory B }\nconstraints { B excludes A }")
    assert analyze(void) == {"consistent": False, "dead_features": [],
                             "configuration_count": 0}


def test_analyze_reports_dead_features_in_feature_order():
    model = parse("feature A { alternative { Zed Alpha Mid } }\n"
                  "constraints { A requires Alpha }")
    report = analyze(model)
    assert report["consistent"]
    # feature order (Zed before Mid), not alphabetical
    assert report["dead_features"] == ["Zed", "Mid"]


def test_analyze_over_cap_count_is_null():
    children = " ".join(f"optional C{i}" for i in range(ENUMERATION_CAP))
    model = parse(f"feature Root {{ {children} }}")
    report = analyze(model)
    assert report["consistent"] and report["configuration_count"] is None
    assert report["dead_features"] == []


def test_check_many_alternative_groups_without_recursion_error(tmp_path):
    # 1 + 1500 * 3 features: the search depth grows with the group count
    groups = "\n".join(f"  optional G{i} {{ alternative {{ A{i} B{i} }} }}"
                       for i in range(1500))
    path = tmp_path / "groups.fm"
    path.write_text(f"feature Root {{\n{groups}\n}}\nconstraints {{ A0 requires B1 }}\n")
    result = subprocess.run([sys.executable, "-m", "fmc", "check", str(path)],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout.splitlines() == [
        "consistent: yes", "dead features: none",
        f"configurations: not counted (over {ENUMERATION_CAP} features)"]


def test_count_at_cap():
    children = " ".join(f"optional C{i}" for i in range(ENUMERATION_CAP - 1))
    model = parse(f"feature Root {{ {children} }}")  # exactly cap features
    assert count_configurations(model) == 2 ** 23


def test_analysis_matches_oracle_on_random_models_up_to_14_features():
    rng = random.Random(2024)
    for _ in range(60):
        model = random_model(rng, max_features=14)
        assert check_consistency(model) == oracle_consistent(model)
        assert count_configurations(model) == oracle_count(model)
        if oracle_consistent(model):
            assert dead_features(model) == oracle_dead(model)


def test_a_witness_that_breaks_a_clause_is_refused(monkeypatch, aisco_model):
    real_solve = analysis._Solver.solve

    def all_false(self, assumptions=()):
        # breaks the root's unit clause
        return bytearray(self.num_vars + 1)

    monkeypatch.setattr(analysis._Solver, "solve", all_false)
    with pytest.raises(AssertionError, match="non-satisfying assignment"):
        solve(to_propositional(aisco_model))
    with pytest.raises(AssertionError, match="non-satisfying assignment"):
        dead_features(aisco_model)  # its base solve
    # a sound base witness, then a broken one for a feature it left out
    monkeypatch.setattr(analysis._Solver, "solve", lambda self, assumptions=(): (
        all_false(self) if assumptions else real_solve(self, assumptions)))
    with pytest.raises(AssertionError, match="non-satisfying assignment"):
        dead_features(aisco_model)


def test_a_store_missing_a_clause_is_caught_by_the_recheck(monkeypatch):
    # the solvers read a store without B's child-implies-parent clause, so
    # they may select B without A; every witness is still checked against
    # the formula's own clauses, which refuse it
    model = parse("feature R { optional A { optional B } }\nconstraints { B excludes A }")
    assert dead_features(model) == {"B"}
    dropped = (-3, 2)  # R=1, A=2, B=3: B implies A
    assert dropped in to_propositional(model).clauses
    real_store = analysis._Store
    monkeypatch.setattr(analysis, "_Store", lambda num_vars, clauses: real_store(
        num_vars, tuple(clause for clause in clauses if clause != dropped)))
    with pytest.raises(AssertionError, match="^solver returned a non-satisfying assignment$"):
        dead_features(model)


def count_solver_calls(monkeypatch) -> list[int]:
    """Wrap ``_Solver.solve`` so every call, the base solve included, is
    counted in the returned one-item list."""
    real_solve = analysis._Solver.solve
    calls = [0]

    def counted(self, assumptions=()):
        calls[0] += 1
        return real_solve(self, assumptions)

    monkeypatch.setattr(analysis._Solver, "solve", counted)
    return calls


@pytest.mark.parametrize("n", [250, 500, 1000, 2000])
def test_dead_features_on_a_flat_model_takes_two_solver_calls(monkeypatch, n):
    # the base witness selects only the root; the first query's witness,
    # completed with True, selects every optional child at once
    model = parse("feature Root {\n" + "\n".join(f"  optional F{i}" for i in range(n)) + "\n}\n")
    calls = count_solver_calls(monkeypatch)
    assert dead_features(model) == set()
    assert calls[0] == 2


@pytest.mark.parametrize("n", [250, 500, 1000, 2000])
def test_dead_features_queries_on_trees_stay_under_a_twelfth_of_the_features(monkeypatch, n):
    # every dead feature costs one unsatisfiable query of its own; over ten
    # seeds per n, the queries that found a witness were at most 0.064 n
    # with a variable preferred while its subtree holds an undecided
    # feature, 0.132 n when preferred only while itself undecided, and
    # 0.21 n to 0.24 n without completed witnesses
    calls = count_solver_calls(monkeypatch)
    for seed in range(2):
        rng = random.Random(f"{n}:{seed}")
        while True:
            model = random_tree(rng, n, n // 20)
            if check_consistency(model):
                break
        calls[0] = 0
        dead = dead_features(model)
        assert calls[0] - 1 - len(dead) <= n // 12, (seed, calls[0], len(dead))


def test_dead_features_on_a_deep_chain_takes_two_solver_calls(monkeypatch):
    # the base witness selects every feature but the leaf, a don't-care it
    # leaves False, and one query selects the leaf; deciding the leaf walks
    # up the whole chain once, where a walk to the root from every feature
    # would be quadratic in the depth
    model = optional_chain(9600)
    calls = count_solver_calls(monkeypatch)
    assert dead_features(model) == set()
    assert calls[0] == 2


def dead_subtree(k: int, child_first: bool = False) -> FeatureModel:
    """Root R with a mandatory B and an optional A that excludes B, and k
    features D0..D(k-1) below A, each under D((i - 1) // 2) or A: A and
    its whole subtree are dead. With child_first, every feature but the
    root is listed after its children, as a model built in code may be."""
    others = [Feature("B", "R", Variability.MANDATORY), Feature("A", "R", Variability.OPTIONAL)]
    others += [Feature(f"D{i}", f"D{(i - 1) // 2}" if i else "A", Variability.OPTIONAL)
               for i in range(k)]
    if child_first:
        others.reverse()
    return FeatureModel("R", (Feature("R", None, Variability.MANDATORY), *others),
                        constraints=(CrossTreeConstraint(ConstraintKind.EXCLUDES, "A", "B"),))


@pytest.mark.parametrize("k", [1, 5, 10])
def test_a_dead_subtree_takes_one_query_whatever_its_size(monkeypatch, k):
    # the base solve, then one unsatisfiable query for A; every feature
    # below A has a parent already found dead
    model = dead_subtree(k)
    calls = count_solver_calls(monkeypatch)
    dead = dead_features(model)
    assert dead == {"A", *(f"D{i}" for i in range(k))} == oracle_dead(model)
    assert calls[0] == 2


@pytest.mark.parametrize("k", [1, 5, 10])
def test_a_dead_subtree_listed_child_first_is_still_found(k):
    model = dead_subtree(k, child_first=True)
    assert dead_features(model) == {"A", *(f"D{i}" for i in range(k))} == oracle_dead(model)
