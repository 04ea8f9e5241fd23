"""Every metric the benchmark reports: unit, direction, and what it should move.

``END_TO_END`` are measured with tracing off and are the ones
``BENCHMARK.json`` bounds. Their times are in reference seconds: wall
time rescaled by the speed of a fixed loop timed next to it
(``speed.py``), because the host's own speed drifts too much for raw
wall time to be compared across runs. Raw ``wall_s`` is kept as a
per-layer metric.

``PER_LAYER`` come from a ``--trace 1`` run; ``moves`` names the end-to-end metric and workload a change in the
layer metric should show up in (on the other workloads the prediction
is no change). The per-operation-kind times are measured on the
untraced passes of that run; they are 0 on workloads that do not run
the operation.
"""

END_TO_END = {
    "wall_ref_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# name: (unit, better, moves)
PER_LAYER = {
    "wall_s": ("s", "lower", "none: wall_ref_s before rescaling"),
    "machine.loop_ms": ("ms", "lower", "none: the host's speed during the run"),
    "check_s": ("s", "lower", "wall_ref_s on analyze"),
    "count_s": ("s", "lower", "wall_ref_s on analyze"),
    "validate_s": ("s", "lower", "wall_ref_s on consume"),
    "compile_s": ("s", "lower", "wall_ref_s on ontology"),
    "scaffold_s": ("s", "lower", "wall_ref_s on ontology"),
    "read_s": ("s", "lower", "wall_ref_s on consume"),
    "validate_p50_ms": ("ms", "lower", "wall_ref_s on consume"),
    "validate_p95_ms": ("ms", "lower", "wall_ref_s on consume"),
    "failed_ratio": ("ratio", "lower", "none: must stay 0"),
    "analysis.dead_features.s": ("s", "lower", "check_s, wall_ref_s on analyze"),
    "analysis.solve.calls": ("count", "lower", "check_s, wall_ref_s on analyze"),
    "analysis.solve.self_s": ("s", "lower", "check_s, wall_ref_s on analyze"),
    "analysis.solve.unsat": ("count", "lower", "check_s, wall_ref_s on analyze"),
    "analysis.features_per_solve": ("features/call", "higher", "check_s, wall_ref_s on analyze"),
    "analysis.check_consistency.s": ("s", "lower", "check_s, wall_ref_s on analyze"),
    "analysis.count_configurations.s": ("s", "lower", "count_s on analyze"),
    "propositional.to_propositional.s": ("s", "lower", "check_s on analyze"),
    "propositional.clauses": ("count", "lower", "check_s on analyze"),
    "propositional.satisfies.calls": ("count", "lower", "check_s on analyze"),
    "propositional.is_valid_configuration.s": ("s", "lower", "validate_s on consume"),
    "dsl.parse.s": ("s", "lower", "validate_p50_ms on consume"),
    "dsl.parse.calls": ("count", "lower", "validate_p50_ms on consume"),
    "dsl.parse.mb_per_s": ("MB/s", "higher", "validate_p50_ms on consume"),
    "dsl.parse_configuration.s": ("s", "lower", "validate_p50_ms on consume"),
    "model.validate.s": ("s", "lower", "validate_p50_ms on consume"),
    "cli.main.self_s": ("s", "lower", "validate_p50_ms on consume"),
    "compiler.compile_model.self_s": ("s", "lower", "compile_s, scaffold_s, peak_rss_mb on ontology"),
    "compiler.axioms": ("count", "lower", "compile_s, scaffold_s, peak_rss_mb on ontology"),
    "owl.validate_ontology.calls": ("count", "lower", "compile_s, scaffold_s, peak_rss_mb on ontology"),
    "owl.validate_ontology.s": ("s", "lower", "compile_s, scaffold_s, peak_rss_mb on ontology"),
    "owl.serialize_functional.self_s": ("s", "lower", "compile_s, scaffold_s, peak_rss_mb on ontology"),
    "owl.serialize_functional.mb": ("MB", "lower", "compile_s, scaffold_s, peak_rss_mb on ontology"),
    "scaffold.generate.self_s": ("s", "lower", "scaffold_s on ontology"),
    "scaffold.write.s": ("s", "lower", "scaffold_s on ontology"),
    "scaffold.files": ("count", "lower", "scaffold_s on ontology"),
    "owl.parse_functional.s": ("s", "lower", "read_s on consume"),
    "owl.parse_functional.mb_per_s": ("MB/s", "higher", "read_s on consume"),
    "trace.overhead_s": ("s", "lower", "none"),  # reference seconds, like wall_ref_s
}

OPERATION_KINDS = ("check", "count", "validate", "compile", "scaffold", "read")

# Layers that must leave no span on a workload: each workload is the
# no-change control for changes to the other path.
CONTROL = {
    "analyze": ("compiler", "owl", "scaffold"),
    "ontology": ("analysis",),
}
