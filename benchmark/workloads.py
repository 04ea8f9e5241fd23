"""The three workloads: seeded inputs, the operations run on them, and output checks.

Every workload is a fixed list of operations built from the seed before
timing starts. An operation calls ``fmc.cli.main(argv)`` (or
``fmc.owl.parse_functional`` for reading back) and is then checked
against an expected output computed by ``oracle`` without ``fmc``. A
mismatch, an unexpected exit code or an exception fails the operation;
it never stops the run.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
import oracle

# Sizes. Many small check models rather than a few large ones: the cost
# of dead-feature analysis varies a lot from model to model, and only a
# sum over many models stays steady from seed to seed (over ten seeds, the
# IQR/median of the summed check time was 0.165 with 16 models of 100
# features, 0.134 with 36 of 80 and 0.069 with 48 of 70).
CHECK_MODELS, CHECK_FEATURES = 48, 70
COUNT_MODELS, COUNT_OPTIONAL, COUNT_CONSTRAINTS = 2, 18, 3
ONTOLOGY_FEATURES, ATTRIBUTE_SHARE = 600, 0.05
CONSUME_FEATURES, VALIDATE_MODEL_CONFIGS, VALIDATE_AISCO_CONFIGS = 300, 160, 40


@dataclass
class Op:
    kind: str                         # check | count | validate | compile | scaffold | read
    call: Callable[[], object]        # the timed call into fmc
    verify: Callable[[object], bool]  # checks the call's result after timing


@dataclass
class Outcome:
    seconds: float
    ok: bool
    detail: str = ""


def cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    """A call of ``fmc.cli.main(argv)`` returning (exit code, stdout)."""
    def call():
        import fmc.cli  # looked up per call so a traced binding is used
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = fmc.cli.main(argv)
        return code, out.getvalue()
    return call


def run_op(op: Op, tracer=None) -> Outcome:
    """Time the call (traced if a tracer is given), then check its result untraced."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = op.call()
    except (Exception, SystemExit):  # argparse exits on a usage error
        return Outcome(time.perf_counter() - start, False, traceback.format_exc(limit=3))
    finally:
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    try:
        ok = op.verify(result)
    except Exception:
        return Outcome(seconds, False, traceback.format_exc(limit=3))
    return Outcome(seconds, ok, "" if ok else f"{op.kind}: unexpected output {str(result)[:200]}")


# --- checks ------------------------------------------------------------------

def expect_json(code: int, payload) -> Callable[[tuple[int, str]], bool]:
    return lambda result: result[0] == code and json.loads(result[1]) == payload


def expect_violations(expected: list[tuple[str, tuple[str, ...]]]):
    def verify(result):
        code, stdout = result
        report = json.loads(stdout)
        got = [(v["rule"], tuple(v["features"])) for v in report["violations"]]
        return code == (4 if expected else 0) and report["valid"] == (not expected) and got == expected
    return verify


def expect_file(path: Path, digest: str):
    def verify(result):
        ok = result[0] == 0 and hashlib.sha256(path.read_bytes()).hexdigest() == digest
        path.unlink()
        return ok
    return verify


def expect_tree(outdir: Path, files: dict[str, str]):
    def verify(result):
        written = {p.relative_to(outdir).as_posix(): p for p in outdir.rglob("*") if p.is_file()}
        ok = (result[0] == 0 and written.keys() == files.keys()
              and all(written[k].read_text(encoding="utf-8") == text for k, text in files.items()))
        shutil.rmtree(outdir)
        return ok
    return verify


def expect_ontology(text: str, axioms: int):
    def verify(ontology):
        from fmc.owl import serialize_functional
        return len(ontology.axioms) == axioms and serialize_functional(ontology) == text
    return verify


# --- inputs --------------------------------------------------------------------

def check_aisco(golden: Path) -> None:
    """Gate on the benchmark's AISCO copy: golden bytes and the known analysis."""
    model = gen.aisco()
    if oracle.ontology_text(model) != golden.read_text(encoding="utf-8"):
        raise RuntimeError(f"AISCO copy does not compile to {golden}")
    report = oracle.report(model)
    if report != {"consistent": True, "dead_features": [], "configuration_count": 160}:
        raise RuntimeError(f"AISCO copy has the wrong analysis: {report}")


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _check_op(path: str, expected: dict) -> Op:
    return Op("check", cli(["check", path, "--json"]),
              expect_json(0 if expected["consistent"] else 3, expected))


def analyze(rng: random.Random, work: Path) -> list[Op]:
    ops = []
    for i in range(CHECK_MODELS):
        model = gen.tree(rng, CHECK_FEATURES, prefix=f"M{i}F")
        # about n/10 constraints so that some features are dead, but never
        # so many that the model is void: that would skip dead-feature analysis
        gen.add_constraints(rng, model, CHECK_FEATURES // 10, keep=oracle.consistent)
        ops.append(_check_op(_write(work / f"check{i}.fm", gen.render(model)),
                             oracle.analysis(model, with_count=False)))
    for i in range(COUNT_MODELS):
        model = gen.flat(rng, COUNT_OPTIONAL, COUNT_CONSTRAINTS, prefix=f"C{i}F")
        path = _write(work / f"count{i}.fm", gen.render(model))
        ops.append(Op("count", cli(["count", path, "--json"]),
                      expect_json(0, {"configuration_count": oracle.count(model)})))
    for name, model in (("aisco", gen.aisco()), ("void", gen.void())):
        ops.append(_check_op(_write(work / f"{name}.fm", gen.render(model)), oracle.report(model)))
    return ops


def ontology(rng: random.Random, work: Path) -> list[Op]:
    model = gen.tree(rng, ONTOLOGY_FEATURES)
    gen.add_constraints(rng, model, ONTOLOGY_FEATURES // 20)
    gen.add_attributes(rng, model, ATTRIBUTE_SHARE)
    ops = []
    for name, m in (("model", model), ("aisco", gen.aisco())):
        src = _write(work / f"{name}.fm", gen.render(m))
        out = work / f"{name}.ofn"
        digest = hashlib.sha256(oracle.ontology_text(m).encode("utf-8")).hexdigest()
        ops.append(Op("compile", cli(["compile", src, str(out)]), expect_file(out, digest)))
        if m is model:
            site = work / "site"
            ops.append(Op("scaffold", cli(["scaffold", src, str(site)]),
                          expect_tree(site, oracle.scaffold_files(m))))
    return ops


def consume(rng: random.Random, work: Path) -> list[Op]:
    model = gen.tree(rng, CONSUME_FEATURES)
    gen.add_constraints(rng, model, CONSUME_FEATURES // 30, keep=oracle.consistent)
    text = oracle.ontology_text(model)
    axioms = text.count("\n") - 3  # one axiom per line between header and footer

    def read():
        import fmc.owl
        return fmc.owl.parse_functional(text)

    ops = [Op("read", read, expect_ontology(text, axioms))]
    for name, m, n in (("model", model, VALIDATE_MODEL_CONFIGS), ("aisco", gen.aisco(), VALIDATE_AISCO_CONFIGS)):
        src = _write(work / f"{name}.fm", gen.render(m))
        order = m.order()
        for i, config in enumerate(configurations(rng, m, n, order)):
            path = _write(work / f"{name}-cfg{i}.txt", "".join(f"{f}\n" for f in sorted(config)))
            ops.append(Op("validate", cli(["validate", src, path, "--json"]),
                          expect_violations(oracle.violations(m, config, order))))
    return ops


def configurations(rng: random.Random, model: gen.Model, n: int, order) -> list[set[str]]:
    """Alternately a valid configuration and a perturbed, invalid one."""
    features = order[0]
    configs = []
    while len(configs) < n:
        config = gen.configuration(rng, model)
        if oracle.violations(model, config, order):
            continue  # violates a cross-tree constraint; draw again
        if len(configs) % 2:
            while not oracle.violations(model, config, order):
                config ^= {rng.choice(features)}
        configs.append(config)
    return configs


BUILDERS = {"analyze": analyze, "ontology": ontology, "consume": consume}
WORKLOADS = tuple(BUILDERS)


def build(workload: str, seed: int, work: Path) -> list[Op]:
    # string seeds hash the same in every process, unlike hash() of a tuple
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), work)
