"""The differential corpus: seeded inputs for both readers and the OWL
checker, with the outcome of each one pinned in ``corpus.json``.

Run from the repository root:

    PYTHONPATH=src python tests/data/corpus.py          # rewrite corpus.json
    PYTHONPATH=src python tests/data/corpus.py --check  # exit 1 if it differs

Every case comes from ``random.Random`` seeded with its category's name,
never from Hypothesis, whose draws change with its version. The cases:

- ``owl-text/*`` and ``dsl-text/*``: ``tests/data/aisco.ofn`` and
  compiled seeded models, or ``examples/aisco.fm`` and seeded model
  sources, with a token deleted, duplicated or swapped, a name changed,
  a character injected, or the text truncated; read by
  ``parse_functional`` or ``parse``;
- ``owl-built/*``: seeded ontologies built in code with one fault put
  in, checked by building an ``Ontology``;
- ``owl-stream/*``: the same kind of axioms fed in stream order to the
  declare-before-use checker that ``fmc compile`` runs;
- ``model-built/wrong-type/*``: seeded models built in code with one
  field replaced by a hashable value of the wrong type or an unhashable
  one, or with one value replaced by a stand-in of another class with
  equal fields (a namedtuple or a ``SimpleNamespace``); built as a
  ``FeatureModel``, hashed and printed by ``to_source``;
- ``config-text/*``: valid and invalid configuration files of AISCO and
  seeded models, with a line deleted or duplicated, a name changed, a
  comment, a blank line, white space or ``\r`` injected, or the text
  truncated; read by ``parse_configuration`` and checked by
  ``is_valid_configuration``.

An outcome is ``ok`` with a digest of what was read (rendered again), the
valid flag and each violation's rule and features for a configuration,
or the exception's type, message and, for a syntax error, line and
column.
``input`` is a digest of the case's input, so ``--check`` also fails
where ``random`` draws differently. A change to an outcome on purpose
regenerates the file, and its diff shows each case it touched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path.insert(0, str(DATA.parent))  # for helpers

from fmc import owl  # noqa: E402
from fmc.compiler import compile_model  # noqa: E402
from fmc.dsl import parse, parse_configuration, to_source  # noqa: E402
from fmc.model import KEYWORDS, FeatureModel  # noqa: E402
from fmc.owl import (  # noqa: E402
    THING,
    AllValuesFrom,
    ComplementOf,
    DataPropertyDomain,
    DataPropertyRange,
    Declaration,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    IntersectionOf,
    NamedClass,
    ObjectPropertyRange,
    Ontology,
    SomeValuesFrom,
    SubClassOf,
    UnionOf,
    parse_functional,
    serialize_functional,
)
from fmc.propositional import is_valid_configuration  # noqa: E402

from helpers import (  # noqa: E402
    oracle_configurations, random_model, random_ontology, stand_in)

CORPUS_PATH = DATA / "corpus.json"
AISCO_OFN = (DATA / "aisco.ofn").read_text(encoding="utf-8")
AISCO_FM = (DATA.parent.parent / "examples" / "aisco.fm").read_text(encoding="utf-8")
CASES_PER_CATEGORY = 40

MUTATIONS = ("delete", "duplicate", "swap", "rename", "inject", "truncate")
# names a rename may put in: keywords of both languages, datatypes, bad names
RENAMES = ("feature", "optional", "or", "attribute", "requires", "string", "decimal",
           "Class", "Declaration", "DisjointClasses", "ObjectComplementOf", "owl:Thing",
           "xsd:decimal", "Fresh", "F0", "C0", "p0", "_x", "9", "a-b")
INJECTED = ("\x00", " ", "\t", "\r", "\n", "\x0b", "\x85", "\xa0", "\u2028", "\xe9",
            "\udcff", "#", "<", ">", "(", ")", "{", "}", ":", "=", "9")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]


def _outcome(run) -> dict:
    """ok and the digest of the text run returns, the outcome it returns
    as a dict, or the error it raises."""
    try:
        result = run()
    except Exception as exc:  # every exception type is an outcome to pin
        outcome = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "line"):
            outcome.update(line=exc.line, column=exc.column)
        return outcome
    return result if isinstance(result, dict) else {"ok": _digest(result)}


# --- text mutations -----------------------------------------------------------

def _tokens(text: str) -> list[str]:
    """text cut into runs of white space, of name characters, and single
    other characters; joined, they give text back."""
    return re.findall(r"\s+|[A-Za-z0-9_]+|[^A-Za-z0-9_\s]", text)


def mutate(rng: random.Random, text: str, mutation: str) -> str:
    tokens = _tokens(text)
    solid = [i for i, t in enumerate(tokens) if not t.isspace()]
    i = rng.choice(solid)
    if mutation == "delete":
        tokens[i] = ""
    elif mutation == "duplicate":
        tokens[i] = f"{tokens[i]} {tokens[i]}"
    elif mutation == "swap":
        j = solid[min(solid.index(i) + rng.randint(1, 3), len(solid) - 1)]
        tokens[i], tokens[j] = tokens[j], tokens[i]
    elif mutation == "rename":
        names = [k for k in solid if tokens[k][0].isalpha()]
        tokens[rng.choice(names)] = rng.choice(
            [*RENAMES, *(tokens[k] for k in rng.sample(names, 3))])
    elif mutation == "inject":
        at = rng.randint(0, len(text))
        return text[:at] + rng.choice(INJECTED) + text[at:]
    else:  # truncate
        return text[:rng.randint(0, len(text) - 1)]
    return "".join(tokens)


def _owl_sources(rng: random.Random) -> list[str]:
    models = [random_model(rng, max_features=8, allow_attributes=True) for _ in range(3)]
    return [AISCO_OFN, *(serialize_functional(compile_model(m)) for m in models)]


def _dsl_sources(rng: random.Random) -> list[str]:
    models = [random_model(rng, max_features=12, allow_attributes=True) for _ in range(3)]
    return [AISCO_FM, *(to_source(m) for m in models)]


def _text_cases(language: str, sources, read, render):
    for mutation in MUTATIONS:
        category = f"{language}-text/{mutation}"
        rng = random.Random(category)
        texts = sources(rng)
        for n in range(CASES_PER_CATEGORY):
            text = mutate(rng, rng.choice(texts), mutation)
            yield f"{category}/{n}", text, lambda text=text: render(read(text))


# --- faulty ontologies built in code --------------------------------------------

BAD_NAMES = ("", "9a", "a b", "a-b", "_x", "a:b", "\xe9", "A\n", "A\u2028", "a.b")
BAD_DATATYPES = ("xsd:", "string", "xsd:a_b", "xsd:int eger", "owl:Thing", "rdf:x",
                 "xsd:9", "decimal:xsd", "")
BAD_IRIS = ("", "a b", "x<y", "x>y", "http://x\t#", "http://x\n#", "http://x\r#",
            "http://x\x0b#", "http://x\x85#", "http://x\xa0#", "http://x\x1f#",
            "http://x\udcff#", "http://x\u2028#", "http://x\u3000#", "http://x\x1c#")
WRONG_TYPES = (None, 5, 1.5, b"A", ("A",), ["A"])


def _base(rng: random.Random) -> tuple[list, list[str], list[str], list[str]]:
    """A seeded valid ontology's axioms and its declared names by kind."""
    axioms = list(random_ontology(rng, max_axioms=10).axioms)
    names = {kind: [a.name for a in axioms if isinstance(a, Declaration) and a.kind is kind]
             for kind in EntityKind}
    return (axioms, names[EntityKind.CLASS], names[EntityKind.OBJECT_PROPERTY],
            names[EntityKind.DATA_PROPERTY])


def _expr(rng: random.Random, classes, properties, depth: int):
    """A class expression about depth constructors deep, never plain named."""
    expr = NamedClass(rng.choice(classes))
    for _ in range(depth):
        roll = rng.randrange(5)
        if roll == 0:
            expr = ComplementOf(expr)
        elif roll == 1:
            expr = IntersectionOf((expr, NamedClass(rng.choice(classes))))
        elif roll == 2:
            expr = UnionOf((THING, expr))
        elif roll == 3:
            expr = SomeValuesFrom(rng.choice(properties), expr)
        else:
            expr = AllValuesFrom(rng.choice(properties), expr)
    return expr


def _insert(rng: random.Random, axioms: list, axiom) -> None:
    axioms.insert(rng.randint(0, len(axioms)), axiom)


def _fault(rng: random.Random, fault: str):
    """(iri, axioms) of a seeded ontology with the fault put in."""
    axioms, classes, properties, data = _base(rng)
    iri = f"http://example.org/corpus/{rng.randrange(1000)}#"
    if fault == "undeclared":
        fresh = rng.choice(["X", "Y", "hasX", "d9"])
        _insert(rng, axioms, rng.choice([
            SubClassOf(NamedClass(rng.choice(classes)), NamedClass(fresh)),
            EquivalentClasses(SomeValuesFrom(fresh, THING), NamedClass(rng.choice(classes))),
            DisjointClasses(NamedClass(fresh), NamedClass(rng.choice(classes))),
            ObjectPropertyRange(fresh, THING),
            DataPropertyDomain(fresh, NamedClass(rng.choice(classes))),
            DataPropertyRange(fresh, "xsd:string"),
        ]))
    elif fault == "duplicate":
        _insert(rng, axioms, rng.choice([a for a in axioms if isinstance(a, Declaration)]))
    elif fault == "invalid-name":
        _insert(rng, axioms, Declaration(rng.choice(list(EntityKind)), rng.choice(BAD_NAMES)))
    elif fault == "bad-datatype":
        _insert(rng, axioms, DataPropertyRange(rng.choice(data), rng.choice(BAD_DATATYPES)))
    elif fault == "deep-nesting":
        expr = _expr(rng, classes, properties, rng.randint(95, 110))
        _insert(rng, axioms, rng.choice([
            SubClassOf(NamedClass(rng.choice(classes)), expr), SubClassOf(expr, THING),
            EquivalentClasses(expr, NamedClass(rng.choice(classes))),
            ObjectPropertyRange(rng.choice(properties), expr)]))
    elif fault == "bad-iri":
        iri = rng.choice([rng.choice(BAD_IRIS), iri[:-1] + rng.choice(BAD_IRIS) + "#"])
    elif fault == "use-before-declaration":
        # every declaration after every use, in a shuffled order
        decls = [a for a in axioms if isinstance(a, Declaration)]
        rng.shuffle(decls)
        axioms = [a for a in axioms if not isinstance(a, Declaration)] + decls
    elif fault == "non-named-operand":
        expr = rng.choice([THING, _expr(rng, classes, properties, rng.randint(1, 3))])
        named = NamedClass(rng.choice(classes))
        _insert(rng, axioms, rng.choice([
            DisjointClasses(expr, named), DisjointClasses(named, expr),
            DataPropertyDomain(rng.choice(data), expr)]))
    elif fault == "wrong-type":
        wrong = rng.choice(WRONG_TYPES)
        if rng.randrange(6) == 0:
            iri = wrong
        else:
            _insert(rng, axioms, rng.choice([
                Declaration(rng.choice(["Class", "ObjectProperty", None]), "A"),
                Declaration(rng.choice(list(EntityKind)), wrong),
                SubClassOf(NamedClass(wrong), THING),
                DisjointClasses(NamedClass(rng.choice(classes)), NamedClass(wrong)),
                EquivalentClasses(SomeValuesFrom(wrong, THING), THING),
                ObjectPropertyRange(wrong, THING),
                DataPropertyDomain(wrong, NamedClass(rng.choice(classes))),
                DataPropertyRange(rng.choice(data), wrong),
            ]))
    else:
        raise ValueError(f"unknown fault {fault!r}")
    return iri, tuple(axioms)


BUILT_FAULTS = ("undeclared", "duplicate", "invalid-name", "bad-datatype", "deep-nesting",
                "bad-iri", "use-before-declaration", "non-named-operand", "wrong-type")


def _built_cases():
    for fault in BUILT_FAULTS:
        category = f"owl-built/{fault}"
        rng = random.Random(category)
        for n in range(CASES_PER_CATEGORY):
            iri, axioms = _fault(rng, fault)
            yield (f"{category}/{n}", (iri, axioms),
                   lambda iri=iri, axioms=axioms: serialize_functional(Ontology(iri, axioms)))
    # the stream checker takes no use before its declaration
    category = "owl-stream/use-before-declaration"
    rng = random.Random(category)
    for n in range(CASES_PER_CATEGORY):
        iri, axioms = _fault(rng, "use-before-declaration")
        yield (f"{category}/{n}", (iri, axioms),
               lambda iri=iri, axioms=axioms: "".join(owl._lines(
                   iri, owl._checked_axioms(iri, (axioms,)))))


# --- models built in code with a field of the wrong type ------------------------

# wrong for every model field; a set's repr would follow the string hash
HASHABLE = (1.5, 2j, True, b"A", frozenset({"A"}))
UNHASHABLE = (["A"], {"A": 1}, bytearray(b"A"))
WRONG_VALUES = ("hashable", "unhashable", "stand-in")


def _wrong_value(rng: random.Random, wrong: str, value):
    """A hashable value of another type, or an unhashable one: a tuple as a list."""
    if wrong == "hashable":
        return rng.choice(HASHABLE)
    return list(value) if type(value) is tuple else rng.choice(UNHASHABLE)


def _replaced(rng: random.Random, value, wrong: str):
    """A model value with one field of the wrong type, or a stand-in for it."""
    if wrong == "stand-in":
        return stand_in(value, rng.randrange(2))
    name = rng.choice([f.name for f in dataclasses.fields(value)])
    return dataclasses.replace(value, **{name: _wrong_value(rng, wrong, getattr(value, name))})


def _wrong_model(rng: random.Random, wrong: str) -> tuple:
    """(root, features, groups, constraints) of a seeded model with one
    field of the wrong type, a model field or one of a value's fields, or
    with one value, an attribute too, replaced by a stand-in."""
    model = random_model(rng, max_features=12, allow_attributes=True)
    parts = {"features": model.features, "groups": model.groups,
             "constraints": model.constraints}
    if wrong != "stand-in" and rng.randrange(8) == 0:
        name = rng.choice(list(parts))
        parts[name] = _wrong_value(rng, wrong, parts[name])
        return (model.root, *parts.values())
    # a value by its column and index, and an attribute by its feature's too
    places = [(name, i, None) for name, values in parts.items() for i in range(len(values))]
    places += [("features", i, j) for i, f in enumerate(model.features)
               for j in range(len(f.attributes))]
    name, i, j = rng.choice(places)
    values = list(parts[name])
    if j is None:
        values[i] = _replaced(rng, values[i], wrong)
    else:
        attributes = list(values[i].attributes)
        attributes[j] = _replaced(rng, attributes[j], wrong)
        values[i] = dataclasses.replace(values[i], attributes=tuple(attributes))
    parts[name] = tuple(values)
    return (model.root, *parts.values())


def _built_model(parts: tuple) -> str:
    model = FeatureModel(*parts)
    hash(model)  # a stand-in that validates may still leave it unhashable
    return to_source(model)


def _model_cases():
    for wrong in WRONG_VALUES:
        category = f"model-built/wrong-type/{wrong}"
        rng = random.Random(category)
        for n in range(CASES_PER_CATEGORY):
            parts = _wrong_model(rng, wrong)
            yield f"{category}/{n}", parts, lambda parts=parts: _built_model(parts)


# --- configuration files --------------------------------------------------------

CONFIG_MUTATIONS = ("delete", "duplicate", "rename", "inject", "truncate")
UNKNOWN_NAMES = ("Fresh", "X9", "_x", "a-b", "9", "A B", "\xe9")
# a comment or a blank line goes in at a line start, the rest anywhere
CONFIG_LINES = ("# a comment\n", "#\n", "\n", "  \n")
CONFIG_INJECTED = ("#", " ", "\t", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
                   "\u2028", "\ufeff")


def configuration_text(rng: random.Random, model) -> str:
    """A seeded configuration file of model, one name a line: a valid
    configuration, or one with a feature toggled."""
    valid = sorted(sorted(c) for c in oracle_configurations(model))
    chosen = set(rng.choice(valid)) if valid else {model.root}
    if rng.randrange(2):
        chosen = chosen ^ {rng.choice(model.feature_names)} or chosen
    names = sorted(chosen)
    rng.shuffle(names)
    return "".join(f"{name}\n" for name in names)


def mutate_configuration(rng: random.Random, text: str, model, mutation: str) -> str:
    lines = text.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    if mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "rename":
        name = lines[i].rstrip("\n")
        lines[i] = rng.choice([
            rng.choice(model.feature_names), rng.choice(UNKNOWN_NAMES),
            rng.choice(sorted(KEYWORDS)),
            rng.choice((str.upper, str.lower, str.swapcase))(name)]) + "\n"
    elif mutation == "inject":
        if rng.randrange(2):
            lines.insert(rng.randint(0, len(lines)), rng.choice(CONFIG_LINES))
        else:
            at = rng.randint(0, len(text))
            return text[:at] + rng.choice(CONFIG_INJECTED) + text[at:]
    else:  # truncate
        return text[:rng.randint(0, len(text) - 1)]
    return "".join(lines)


def _checked_configuration(model, text: str) -> dict:
    valid, violations = is_valid_configuration(model, parse_configuration(text))
    return {"valid": valid, "violations": [[v.rule, list(v.features)] for v in violations]}


def _config_cases():
    for mutation in CONFIG_MUTATIONS:
        category = f"config-text/{mutation}"
        rng = random.Random(category)
        models = [parse(AISCO_FM), *(random_model(rng, max_features=10) for _ in range(3))]
        for n in range(CASES_PER_CATEGORY):
            model = rng.choice(models)
            text = mutate_configuration(rng, configuration_text(rng, model), model, mutation)
            yield (f"{category}/{n}", (text, to_source(model)),
                   lambda model=model, text=text: _checked_configuration(model, text))


def cases():
    """(id, input, run) of every case, in corpus order."""
    yield from _text_cases("owl", _owl_sources, parse_functional, serialize_functional)
    yield from _text_cases("dsl", _dsl_sources, parse, to_source)
    yield from _built_cases()
    yield from _model_cases()
    yield from _config_cases()


def describe_input(value) -> str:
    return value if isinstance(value, str) else repr(value)


def record(case_id: str, value, run) -> dict:
    """The corpus entry of one case, as it comes out now."""
    return {"id": case_id, "input": _digest(describe_input(value)), **_outcome(run)}


def generate() -> list[dict]:
    return [record(*case) for case in cases()]


def dumps(records: list[dict]) -> str:
    """The corpus text: one case a line, so a diff shows each case changed."""
    lines = ",\n".join(json.dumps(record) for record in records)
    return f"[\n{lines}\n]\n"


def main(argv: list[str]) -> int:
    text = dumps(generate())
    if argv == ["--check"]:
        committed = CORPUS_PATH.read_text(encoding="utf-8")
        if committed == text:
            return 0
        new = text.splitlines()
        old = committed.splitlines()
        changed = [(o, n) for o, n in zip(old, new) if o != n]
        print(f"{CORPUS_PATH.name} differs from the regenerated corpus: "
              f"{len(changed)} lines changed, {len(old)} committed, {len(new)} regenerated",
              file=sys.stderr)
        for o, n in changed[:10]:
            print(f"- {o}\n+ {n}", file=sys.stderr)
        return 1
    if argv:
        print("usage: corpus.py [--check]", file=sys.stderr)
        return 2
    CORPUS_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
