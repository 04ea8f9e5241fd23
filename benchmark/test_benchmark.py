"""Tests of the benchmark itself: generator, oracle, tracer and failure counting.

Run from the repository root: python3 -m pytest -q benchmark
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

import fmc  # noqa: E402
import fmc.analysis  # noqa: E402
import fmc.cli  # noqa: E402
import fmc.dsl  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "aisco.ofn"


def random_model(seed: int, n: int, constraints: int) -> gen.Model:
    rng = random.Random(seed)
    model = gen.tree(rng, n)
    gen.add_constraints(rng, model, constraints)
    return model


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    texts = []
    for run in ("a", "b", "c"):
        work = tmp_path / run
        work.mkdir()
        seed = 7 if run != "c" else 8
        workloads.build(workload, seed, work)
        texts.append({p.name: p.read_text() for p in sorted(work.iterdir())})
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_generator_is_deterministic_and_follows_the_shape():
    a, b = gen.tree(random.Random(3), 300), gen.tree(random.Random(3), 300)
    assert gen.render(a) == gen.render(b)
    kinds = [a.kind[f] for f in a.parent if f != a.root]
    assert len(a) in (300, 301, 302)
    assert 0.1 < kinds.count("member") / len(kinds) < 0.6
    assert kinds.count("optional") > kinds.count("mandatory")


def test_rendered_models_parse_in_declared_order():
    for seed in range(20):
        model = random_model(seed, 40, 4)
        gen.add_attributes(random.Random(seed), model, 0.1)
        parsed = fmc.parse(gen.render(model))
        features, groups = model.order()
        assert list(parsed.feature_names) == features
        assert [g.members for g in parsed.groups] == [model.groups[g][2] for g in groups]


def test_oracle_gives_160_on_aisco_and_matches_the_golden_ontology():
    model = gen.aisco()
    assert oracle.report(model) == {"consistent": True, "dead_features": [], "configuration_count": 160}
    assert oracle.count(model) == 160
    assert oracle.ontology_text(model) == GOLDEN.read_text(encoding="utf-8")
    workloads.check_aisco(GOLDEN)


def test_void_model_is_void():
    assert oracle.report(gen.void()) == {"consistent": False, "dead_features": [],
                                         "configuration_count": 0}


def test_count_and_dpll_agree_with_brute_force():
    for seed in range(60):
        rng = random.Random(seed)
        model = gen.tree(rng, rng.randint(3, 12))
        gen.add_constraints(rng, model, rng.randint(0, 4))
        expected = oracle.report(model)
        assert oracle.analysis(model, with_count=True) == expected, seed
        assert oracle.count(model) == expected["configuration_count"], seed


def test_flat_count_is_fixed_by_its_size():
    for seed in range(5):
        model = gen.flat(random.Random(seed), 8, 2)
        assert oracle.count(model) == 3 * 2 ** 8 * 9 // 16
        assert oracle.count(model) == len(oracle.brute_force(model))


def test_scaffold_expectation_matches_fmc(tmp_path):
    model = random_model(4, 60, 6)
    gen.add_attributes(random.Random(4), model, 0.1)
    src = tmp_path / "m.fm"
    src.write_text(gen.render(model))
    assert fmc.cli.main(["scaffold", str(src), str(tmp_path / "site")]) == 0
    verify = workloads.expect_tree(tmp_path / "site", oracle.scaffold_files(model))
    assert verify((0, ""))


def test_violations_match_fmc_validate():
    model = random_model(9, 50, 8)
    parsed = fmc.parse(gen.render(model))
    order = model.order()
    for config in workloads.configurations(random.Random(1), model, 20, order):
        valid, found = fmc.is_valid_configuration(parsed, config)
        expected = oracle.violations(model, config, order)
        assert [(v.rule, v.features) for v in found] == expected
        assert valid == (not expected)


# --- tracer ----------------------------------------------------------------------

def test_wrappers_pass_results_and_exceptions_through_and_unwrap():
    before = {name: fn for name, fn in vars(fmc.analysis).items() if callable(fn)}
    model = fmc.parse(gen.render(gen.aisco()))
    tracer = tracing.Tracer()
    with tracer:
        assert fmc.analysis.solve is not before["solve"]
        assert fmc.analysis.count_configurations(model) == 160
        with pytest.raises(fmc.ParseError):
            fmc.dsl.parse("feature")
    assert {name: fn for name, fn in vars(fmc.analysis).items() if callable(fn)} == before
    assert fmc.cli.parse is fmc.dsl.parse is fmc.parse
    names = [s.name for s in tracer.spans]
    assert names == ["analysis.count_configurations", "dsl.parse"]
    assert tracer.spans[1].error == "ParseError"


def test_nested_calls_through_other_bindings_are_seen(tmp_path):
    src = tmp_path / "aisco.fm"
    src.write_text(gen.render(gen.aisco()))
    tracer = tracing.Tracer()
    with tracer:
        assert fmc.cli.main(["check", str(src), "--json"]) == 0
    spans = tracer.spans
    assert spans[0].name == "cli.main" and spans[0].parent == -1
    solve = [s for s in spans if s.name == "analysis.solve"]
    assert solve and all(spans[s.parent].name in ("analysis.check_consistency", "analysis.dead_features")
                         for s in solve)
    assert any(s.name == "model.validate" and spans[s.parent].name == "dsl.parse" for s in spans)
    own = tracing.self_times(spans)
    assert all(t >= 0 for t in own)
    assert sum(own) == pytest.approx(spans[0].end - spans[0].start)


@pytest.mark.parametrize("argv, forbidden", [
    (["check", "{src}", "--json"], metrics.CONTROL["analyze"]),
    (["compile", "{src}", "{out}"], metrics.CONTROL["ontology"]),
    (["scaffold", "{src}", "{site}"], metrics.CONTROL["ontology"]),
])
def test_control_layers_leave_no_spans(tmp_path, argv, forbidden):
    src = tmp_path / "aisco.fm"
    src.write_text(gen.render(gen.aisco()))
    paths = {"src": src, "out": tmp_path / "a.ofn", "site": tmp_path / "site"}
    tracer = tracing.Tracer()
    with tracer:
        assert fmc.cli.main([a.format(**paths) for a in argv]) == 0
    assert not [s.name for s in tracer.spans if s.name.split(".")[0] in forbidden]


# --- failure counting ------------------------------------------------------------------

def test_a_wrong_output_counts_as_failed_not_as_a_crash(tmp_path):
    ops = workloads.build("analyze", 1, tmp_path)
    good = ops[-2]  # the AISCO check
    wrong = workloads.Op("check", good.call, workloads.expect_json(
        0, {"consistent": True, "dead_features": [], "configuration_count": 161}))
    crash = workloads.Op("check", lambda: 1 / 0, good.verify)
    result = worker.run_pass([good, wrong, crash], None)
    assert len(result["seconds"]) == 3
    assert len(result["failures"]) == 2
    assert "ZeroDivisionError" in result["failures"][1]


def test_benchmark_json_lists_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: s[:2] for name, s in metrics.PER_LAYER.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = set(tracing.layer_metrics([]))
    assert layer_names | {"trace.overhead_s"} <= set(metrics.PER_LAYER)


def test_times_are_rescaled_by_the_speed_during_each_pass(monkeypatch):
    samples = iter([0.01, 0.02, 0.03])
    monkeypatch.setattr(speed, "loop_seconds", lambda: next(samples))
    meter = speed.Meter()
    meter.tick()
    assert meter.scale() == speed.REFERENCE_S / 0.02
    passes = [{"seconds": [1.0, 4.0], "scale": 0.5}, {"seconds": [3.0, 2.0], "scale": 1.0}]
    assert worker.typical_pass([None, None], passes) == [2.0, 3.0]
    assert worker.typical_pass([None, None], passes, rescale=True) == [1.75, 2.0]
