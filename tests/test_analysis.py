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
    # dead-feature steps ask: a search, and a repair of a model where the
    # literal is false; the store it reads is the same afterwards
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
        for lit in [s * v for v in range(1, n + 1) for s in (1, -1)]:
            witness = solver.solve((lit,))
            possible = any((abs(lit) in m) == (lit > 0) for m in models)
            assert (witness is not None) == possible, (clauses, lit)
            if witness is not None:
                assert witness[abs(lit)] == (lit > 0) and satisfies(formula, witness)
            others = [m for m in models if (abs(lit) in m) != (lit > 0)]
            if not others:
                continue
            start = rng.choice(others)
            model = analysis._by_literal(bytes(v in start for v in range(1, n + 1)))
            before = model[:]
            changed = solver.repair(model, lit)
            if changed is None:
                assert model == before, (clauses, lit)
            else:
                # a model with lit true, changed in exactly the literals returned
                assert model[lit] and satisfies(formula, model), (clauses, lit)
                assert sorted(changed) == sorted(
                    x for x in range(-n, n + 1) if x and model[x] and not before[x])
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
    monkeypatch.undo()
    # the base model selects X; A's repair deselects X and selects Y, which
    # excludes A, so it is stuck and A takes a search, whose model selects
    # Z; Y is then one repair
    model = parse("feature R { optional A alternative { X Y Z } }\n"
                  "constraints { A excludes X Y excludes A }")
    steps = count_steps(monkeypatch)
    assert dead_features(model) == set()
    assert steps == dict(repairs=2, stuck=1, size=3, searches=1, found=1)
    # a sound base model, then a broken one from that search
    monkeypatch.setattr(analysis._Solver, "solve", lambda self, assumptions=(): (
        all_false(self) if assumptions else real_solve(self, assumptions)))
    with pytest.raises(AssertionError, match="^solver returned a non-satisfying assignment$"):
        dead_features(model)


# the base model selects R, C, D, X and Y; A's repair then sets A, -C, -D, -X
# and -Y, in that order
FIXES = parse("feature R { optional A optional C { optional D } optional X { optional Y } }\n"
              "constraints { A excludes C X requires C }")


@pytest.mark.parametrize("name", [
    "C",  # breaks (-A, -C), the last clause that holds -A, A the first literal set
    "D",  # breaks (-D, C), the first of the two clauses that hold C
    "X",  # breaks (-X, C), the last of those two
    "Y",  # breaks (-Y, X), the one clause that holds X
])
def test_a_repair_that_skips_a_fix_is_refused(monkeypatch, name):
    # the repair leaves the feature selected and out of the literals it
    # returns, so one clause is false; the re-check of the changed literals
    # finds it
    assert dead_features(FIXES) == set()
    forgotten = -to_propositional(FIXES).variable(name)
    real_repair = analysis._Solver.repair

    def skips_one_fix(self, model, lit):
        changed = real_repair(self, model, lit)
        assert changed is not None and changed[0] == lit
        if forgotten in changed:
            changed.remove(forgotten)
            model[forgotten], model[-forgotten] = 0, 1
        return changed

    monkeypatch.setattr(analysis._Solver, "repair", skips_one_fix)
    with pytest.raises(AssertionError, match="^repair returned a non-satisfying assignment$"):
        dead_features(FIXES)


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


def count_steps(monkeypatch) -> dict[str, int]:
    """Wrap the steps ``dead_features`` takes on ``_Solver`` and count them
    in the returned dict: ``repairs``, of which ``stuck`` returned None and
    the others set ``size`` literals in all; and ``searches``, the solves
    under an assumption, of which ``found`` returned a model."""
    steps = dict.fromkeys(("repairs", "stuck", "size", "searches", "found"), 0)
    real_repair, real_solve = analysis._Solver.repair, analysis._Solver.solve

    def repair(self, model, lit):
        changed = real_repair(self, model, lit)
        steps["repairs"] += 1
        steps["stuck"] += changed is None
        steps["size"] += len(changed or ())
        return changed

    def search(self, assumptions=()):
        witness = real_solve(self, assumptions)
        if assumptions:
            steps["searches"] += 1
            steps["found"] += witness is not None
        return witness

    monkeypatch.setattr(analysis._Solver, "repair", repair)
    monkeypatch.setattr(analysis._Solver, "solve", search)
    return steps


@pytest.mark.parametrize("n", [250, 500, 1000, 2000])
def test_dead_features_on_a_flat_model_takes_one_repair_per_child(monkeypatch, n):
    # the base model selects only the root; each optional child is one
    # repair that sets that child alone
    model = parse("feature Root {\n" + "\n".join(f"  optional F{i}" for i in range(n)) + "\n}\n")
    steps = count_steps(monkeypatch)
    assert dead_features(model) == set()
    assert steps == dict(repairs=n, stuck=0, size=n, searches=0, found=0)


@pytest.mark.parametrize("k", [100, 200, 400])
def test_an_alternative_group_takes_one_repair_per_member_and_no_search(monkeypatch, k):
    # the base model selects the first member; each other member is one
    # repair that selects it and deselects the one before
    model = parse("feature Root {\n  alternative {\n"
                  + "".join(f"    M{i}\n" for i in range(k)) + "  }\n}\n")
    steps = count_steps(monkeypatch)
    assert dead_features(model) == set()
    assert steps == dict(repairs=k - 1, stuck=0, size=2 * (k - 1), searches=0, found=0)


def test_dead_feature_work_grows_about_linearly_on_trees(monkeypatch):
    # totals over 20 seeded trees per rung; the bounds sit over what was
    # measured when the repair came in: repair sizes of 5888, 13643, 27007
    # and 68230 (2.32x, 1.98x and 2.53x per doubling, 11.6x over the three),
    # and, averaged per tree, searches at most n/109 and those that found a
    # model at most n/714
    steps = count_steps(monkeypatch)
    sizes = []
    for n in (250, 500, 1000, 2000):
        for key in steps:
            steps[key] = 0
        for seed in range(20):
            rng = random.Random(f"{n}:{seed}")
            while True:
                model = random_tree(rng, n, n // 20)
                if check_consistency(model):
                    break
            dead_features(model)
        sizes.append(steps["size"])
        assert steps["searches"] * 80 <= n * 20 and steps["found"] * 250 <= n * 20, (n, steps)
    assert all(later <= 2.6 * earlier for earlier, later in zip(sizes, sizes[1:])), sizes
    assert sizes[-1] <= 2.5 ** 3 * sizes[0], sizes


@pytest.mark.parametrize("n", [250, 500, 1000, 2000])
def test_dead_features_queries_on_trees_stay_under_a_twelfth_of_the_features(monkeypatch, n):
    # a search is taken only where a repair is stuck, dead features
    # included; on these trees that was at most 0.016 n per tree, where
    # searching once per feature no witness had selected made 0.064 n
    # searches that found one, plus one per dead feature
    steps = count_steps(monkeypatch)
    for seed in range(2):
        rng = random.Random(f"{n}:{seed}")
        while True:
            model = random_tree(rng, n, n // 20)
            if check_consistency(model):
                break
        steps["searches"] = 0
        dead_features(model)
        assert steps["searches"] <= n // 12, (seed, steps)


def test_dead_features_on_a_deep_chain_takes_one_repair(monkeypatch):
    # the base model selects every feature but the leaf (each decision
    # takes a clause's first unassigned variable True), and one repair sets
    # the leaf alone; the preorder walk visits the 9600 features once
    model = optional_chain(9600)
    steps = count_steps(monkeypatch)
    assert dead_features(model) == set()
    assert steps == dict(repairs=1, stuck=0, size=1, searches=0, found=0)


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
    # A's repair is stuck (deselecting the mandatory B deselects the root),
    # and one search proves A dead by propagation alone; every feature
    # below A has a dead parent
    model = dead_subtree(k)
    steps = count_steps(monkeypatch)
    dead = dead_features(model)
    assert dead == {"A", *(f"D{i}" for i in range(k))} == oracle_dead(model)
    assert steps == dict(repairs=1, stuck=1, size=0, searches=1, found=0)


@pytest.mark.parametrize("k", [1, 5, 10])
def test_a_dead_subtree_listed_child_first_is_still_found(k):
    model = dead_subtree(k, child_first=True)
    assert dead_features(model) == {"A", *(f"D{i}" for i in range(k))} == oracle_dead(model)
