"""Property tests for the two readers and the CLI on arbitrary and mutated text.

``parse`` returns a model or raises ``ParseError``; ``parse_functional``
returns an ``Ontology`` or raises ``OwlError``; a syntax error's line and
column point inside the text; ``fmc check`` exits with a documented code,
``fmc compile`` writes the ontology ``compile_model`` builds (or prints
its ``CompileError``), ``fmc scaffold`` writes the site ``generate``
derives from it, also under a fuzzed ``FMC_TRIGGERS`` registry, and
``fmc validate`` and ``fmc count`` report what the library computes.
Mutated inputs start from ``to_source`` and ``serialize_functional`` output
of the seeded generators in ``helpers``.

What validates reads back: an ``Ontology`` or ``FeatureModel`` built in
code, with any value in any field, either fails its own validation or
renders to text that its reader turns into an equal value.
"""

import dataclasses
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fmc.analysis import count_configurations
from fmc.cli import main
from fmc.compiler import CompileError, compile_model
from fmc.dsl import ParseError, _Parser, parse, parse_configuration, to_source
from fmc.lexer import Cursor
from fmc.model import DATATYPES, KEYWORDS, FeatureModel, ModelError
from fmc import owl
from fmc.owl import (
    Ontology,
    OwlError,
    OwlSyntaxError,
    _OwlParser,
    parse_functional,
    parse_functional_file,
    serialize_functional,
)
from fmc.propositional import is_valid_configuration
from fmc.scaffold import ScaffoldError, generate, write

from conftest import AISCO_PATH
from helpers import oracle_configurations, random_model, random_ontology, stand_in

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# deterministic runs, no example database written next to the tests
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# the pieces after "decimal" are cut apart by str.split() or hold a piece
# that is not one token: the DSL reads each by findall alone
DSL_PIECES = ["{", "}", ":", "#", " ", "\t", "\n", "\r\n", "F1", "Zed", "9", "*", "\xff",
              *sorted(KEYWORDS), "string", "decimal",
              "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "_x", "A{"]
# "DisjointClasses(:C0 :C0)", and a run of two such lines, is one token, put
# by mutation where no axiom may start
OWL_PIECES = ["(", ")", ":", ":=", "<", ">", "<http://x#>", " ", "\n", "5", "owl:Thing",
              "xsd:string", ":C0", ":p0", ":d0", "Declaration", "Class", "SubClassOf",
              "EquivalentClasses", "DisjointClasses", "DisjointClasses(:C0 :C0)",
              "DisjointClasses(:C0 :C0)\nDisjointClasses(:C0 :C0)",
              "ObjectComplementOf", "ObjectIntersectionOf", "ObjectSomeValuesFrom",
              "DataPropertyRange", "\xff"]


def pieces_text(pieces):
    return st.lists(st.sampled_from(pieces), max_size=40).map("".join)


@st.composite
def mutated(draw, render, pieces):
    """Generator output with 1-4 slices replaced by a piece or deleted."""
    text = render(random.Random(draw(st.integers(0, 2**32 - 1))))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(st.sampled_from(["", *pieces])) + text[end:]
    return text


def dsl_source(rng):
    return to_source(random_model(rng, max_features=10, allow_attributes=True))


def owl_text(rng):
    return serialize_functional(random_ontology(rng, max_axioms=8))


def assert_points_inside(error, text):
    lines = text.split("\n")
    assert 1 <= error.line <= len(lines)
    assert 1 <= error.column <= len(lines[error.line - 1]) + 1


DSL_INPUTS = st.one_of(st.text(max_size=60), pieces_text(DSL_PIECES),
                       mutated(dsl_source, DSL_PIECES))
OWL_INPUTS = st.one_of(st.text(max_size=60), pieces_text(OWL_PIECES),
                       mutated(owl_text, OWL_PIECES))


@PROPERTY
@given(DSL_INPUTS)
def test_dsl_parse_returns_model_or_parse_error(text):
    try:
        model = parse(text)
    except ParseError as error:
        assert_points_inside(error, text)
    else:
        assert isinstance(model, FeatureModel)
        assert parse(to_source(model)) == model


class _FindallParser(_Parser):
    _scan = Cursor._scan  # no str.split() shortcut


def read_by(parser_cls, text):
    """The tokens and the model, or the error's type, message, line and column."""
    try:
        parser = parser_cls(text)
        return parser.tokens, parser.parse_model()
    except ParseError as error:
        return type(error), str(error), error.line, error.column


@PROPERTY
@given(DSL_INPUTS)
def test_dsl_split_reads_what_findall_reads(text):
    assert read_by(_Parser, text) == read_by(_FindallParser, text)


@PROPERTY
@given(OWL_INPUTS)
def test_parse_functional_returns_ontology_or_owl_error(text):
    try:
        ontology = parse_functional(text)
    except OwlSyntaxError as error:
        assert_points_inside(error, text)
    except OwlError:
        pass
    else:
        assert isinstance(ontology, Ontology)
        assert parse_functional(serialize_functional(ontology)) == ontology


@PROPERTY
@given(st.one_of(DSL_INPUTS, OWL_INPUTS))
def test_the_scan_matches_at_every_position(text):
    # findall searches: where no alternative matched, it would skip ahead
    # silently, for example into a comment
    for lexicon in (_Parser.lexicon, _OwlParser.lexicon):
        end = 0
        for match in lexicon.scan_re.finditer(text):
            assert match.start() == end
            end = match.end()
        assert end == len(text)


def saved(tmp, text):
    path = os.path.join(tmp, "model.fm")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mutated(dsl_source, DSL_PIECES))
def test_cli_check_exits_with_documented_code(text):
    # an exception escaping main would be a traceback on the command line
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["check", saved(tmp, text)]) in (0, 1, 2, 3, 4)


def run_cli(argv):
    """main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


CLI_MODELS = st.one_of(st.integers(0, 2**32 - 1).map(lambda seed: dsl_source(random.Random(seed))),
                       mutated(dsl_source, DSL_PIECES))


# models that parse but do not compile: a rule class clash, a data
# property declared twice
COMPILE_ERRORS = ["feature A { optional ARule }\n",
                  "feature A { optional B { attribute t : string } optional C "
                  "{ attribute t : decimal } }\n"]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(CLI_MODELS)
@example(COMPILE_ERRORS[0])
@example(COMPILE_ERRORS[1])
def test_cli_compile_writes_the_compiled_ontology(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "model.ofn")
        path = saved(tmp, text)
        code, _, err = run_cli(["compile", path, out])
        assert code in (0, 1, 2)
        if code == 0:
            assert parse_functional_file(out) == compile_model(parse(text))
    if code == 2:
        assert_compile_error(err, path, text)


def assert_compile_error(err, path, text):
    """err is exactly what the CLI prints for the CompileError of the library."""
    with pytest.raises(CompileError) as raised:
        compile_model(parse(text))
    assert err == f"error: {path}: {raised.value}\n"


def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(CLI_MODELS)
@example(COMPILE_ERRORS[0])
@example(COMPILE_ERRORS[1])
def test_cli_scaffold_writes_the_generated_site(text):
    # the CLI leaves the DisjointClasses axioms out; the site must not change
    with tempfile.TemporaryDirectory() as tmp:
        site = os.path.join(tmp, "site")
        path = saved(tmp, text)
        code, _, err = run_cli(["scaffold", path, site])
        assert code in (0, 1, 2)
        if code == 0:
            expected = os.path.join(tmp, "expected")
            write(generate(compile_model(parse(text))), expected)
            assert files_under(site) == files_under(expected)
    if code == 2:
        assert_compile_error(err, path, text)


# trigger registries: patterns that attributes use (AISCO's total, the
# seeded models' a0, a1), the same patterns in other case, and others;
# valid and invalid kinds
TRIGGER_PATTERNS = ["total", "Total", "TOTAL", "a0", "A0", "a1", "count", "x y", ""]
REGISTRY_KINDS = ["Sum", "Count", "Average", "sum", "Max", "", 1, None, ["Sum"], {"Sum": 1}]
JSON_VALUES = st.recursive(st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=5)),
                           lambda inner: st.one_of(st.lists(inner, max_size=3),
                                                   st.dictionaries(st.text(max_size=3), inner,
                                                                   max_size=3)),
                           max_leaves=6)


@st.composite
def trigger_file(draw):
    """The bytes of an FMC_TRIGGERS file: a registry, any other JSON value,
    deep nesting, an integer over the digit limit, or cut, padded or
    non-UTF-8 variants of these."""
    registry = draw(st.dictionaries(st.sampled_from(TRIGGER_PATTERNS),
                                    st.sampled_from(REGISTRY_KINDS), max_size=4))
    depth = draw(st.sampled_from([3, 50, 5000]))
    text = draw(st.sampled_from([
        json.dumps(registry),
        json.dumps(draw(JSON_VALUES)),
        "[" * depth + "]" * depth,
        '{"total": ' * depth,
        "1" * 5000,
    ]))
    data = text.encode("utf-8")
    change = draw(st.sampled_from(["none", "cut", "pad", "bom", "latin-1", "xff"]))
    if change == "cut":
        data = data[:draw(st.integers(0, len(data)))]
    elif change == "pad":
        data = b" \n\t" + data + b"\n"
    elif change == "bom":
        data = b"\xef\xbb\xbf" + data
    elif change == "latin-1":
        data = text.replace('"', '"\xe9', 1).encode("latin-1", "replace")
    elif change == "xff":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


TRIGGER_MODELS = st.one_of(
    st.just(AISCO_PATH.read_text(encoding="utf-8")),
    st.integers(0, 2**32 - 1).map(lambda seed: dsl_source(random.Random(seed))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(TRIGGER_MODELS, trigger_file())
def test_cli_scaffold_with_fuzzed_triggers_writes_the_generated_site(text, triggers):
    with tempfile.TemporaryDirectory() as tmp:
        registry_path = os.path.join(tmp, "triggers.json")
        with open(registry_path, "wb") as fh:
            fh.write(triggers)
        site = os.path.join(tmp, "site")
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("FMC_TRIGGERS", registry_path)
            code, _, err = run_cli(["scaffold", saved(tmp, text), site])
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 0:
            expected = os.path.join(tmp, "expected")
            registry = json.loads(triggers.decode("utf-8"))
            write(generate(compile_model(parse(text)), registry), expected)
            assert files_under(site) == files_under(expected)
        else:
            assert err.startswith(f"error: {registry_path}: ")


# lines of a configuration file: names the seeded models use, names they
# do not, comments, blank lines, padding and bytes that are not UTF-8
NOISE_LINES = [b"# F2", b"#", b"", b"\r", b"  \t"]
CONFIG_LINES = [*(f"F{i}".encode() for i in range(12)), *NOISE_LINES, b"  F1\t", b"Zed",
                b"feature", b"F1 F2", b"\xc3\xa9", b"\xff"]


@st.composite
def model_and_config(draw):
    """A CLI model and a configuration file for it: lines drawn from
    CONFIG_LINES, or, for a model that parses, a valid configuration (by
    brute force), perhaps with one feature toggled, with noise lines and
    padding mixed in."""
    text = draw(CLI_MODELS)
    try:
        model = parse(text)
    except (ParseError, ModelError):
        model = None
    if model is None or draw(st.booleans()):
        lines = draw(st.lists(st.sampled_from(CONFIG_LINES), max_size=12))
    else:
        configs = sorted(map(sorted, oracle_configurations(model))) or [[]]  # [[]]: void
        chosen = set(draw(st.sampled_from(configs)))
        if draw(st.booleans()):
            chosen ^= {draw(st.sampled_from(model.feature_names))}
        pads = st.sampled_from([b"", b" ", b"\t"])
        lines = [draw(pads) + name.encode() + draw(pads) for name in sorted(chosen)]
        lines = draw(st.permutations(lines + draw(st.lists(st.sampled_from(NOISE_LINES),
                                                           max_size=3))))
    return text, draw(st.sampled_from([b"\n", b"\r\n"])).join(lines)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(model_and_config())
def test_cli_validate_reports_what_the_library_checks(case):
    text, config = case
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "config.txt")
        with open(config_path, "wb") as fh:
            fh.write(config)
        code, out, err = run_cli(["validate", saved(tmp, text), config_path, "--json"])
    assert code in (0, 1, 4)
    assert "Traceback" not in err
    if code != 1:
        valid, violations = is_valid_configuration(
            parse(text), parse_configuration(config.decode("utf-8")))
        assert code == (0 if valid else 4)
        assert out == json.dumps({
            "valid": valid,
            "violations": [{"rule": v.rule, "features": list(v.features), "message": v.message}
                           for v in violations]}, indent=2) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(CLI_MODELS)
def test_cli_count_prints_the_library_count(text):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_cli(["count", saved(tmp, text)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert out == f"{count_configurations(parse(text))}\n"


# --- what validates reads back ---------------------------------------------------

# bad names and values of the wrong type, listed once against many
# copies of the valid values, so that many drawn ontologies validate
BAD_FIELDS = ["Class", "9a", "a b", "", "\xe9", None, 5, b"A", ("A",), ["A"]]
# an IRI, mostly valid; else with a character the reader rejects (white
# space, a bracket, a lone surrogate), or a bad field
IRIS = st.sampled_from(
    ["http://example.org/t#"] * 60 + ["urn:x:\xe9?a=b&c#", ""]
    + [f"http://x{ch}#" for ch in " \t\r\n\x0b\x1c\x85\xa0\u2028\u3000\udcff<>"] + BAD_FIELDS)


def fields_of(*values):
    """One of values, or now and then one of BAD_FIELDS."""
    return st.sampled_from([*values] * (100 // len(values)) + BAD_FIELDS)


# every helpers.random_ontology declares C0, C1, p0 and d0; C9 is
# declared only by a drawn declaration
CLASS_NAMES = fields_of("C0", "C1", "C9")
OBJECT_PROPERTIES = fields_of("p0")
DATA_PROPERTIES = fields_of("d0")
CLASS_EXPRESSIONS = st.recursive(
    st.one_of(CLASS_NAMES.map(owl.NamedClass), st.sampled_from([owl.THING] * 9 + ["A"])),
    lambda inner: st.one_of(
        inner.map(owl.ComplementOf),
        st.lists(inner, min_size=2, max_size=3).map(lambda ops: owl.IntersectionOf(tuple(ops))),
        st.lists(inner, min_size=2, max_size=3).map(lambda ops: owl.UnionOf(tuple(ops))),
        st.builds(owl.SomeValuesFrom, OBJECT_PROPERTIES, inner),
        st.builds(owl.AllValuesFrom, OBJECT_PROPERTIES, inner)),
    max_leaves=5)
AXIOMS = st.one_of(
    st.builds(owl.Declaration, fields_of(*owl.EntityKind), fields_of("C9", "q9", "e9")),
    st.builds(owl.SubClassOf, CLASS_EXPRESSIONS, CLASS_EXPRESSIONS),
    st.builds(owl.EquivalentClasses, CLASS_EXPRESSIONS, CLASS_EXPRESSIONS),
    st.builds(owl.DisjointClasses, CLASS_EXPRESSIONS, CLASS_EXPRESSIONS),
    st.builds(owl.ObjectPropertyRange, OBJECT_PROPERTIES, CLASS_EXPRESSIONS),
    st.builds(owl.DataPropertyDomain, DATA_PROPERTIES, CLASS_EXPRESSIONS),
    st.builds(owl.DataPropertyRange, DATA_PROPERTIES,
              fields_of("xsd:decimal", "xsd:string", "xsd:a_b", "decimal")))


@st.composite
def built_ontologies(draw):
    """(iri, axioms): the axioms of a seeded helpers.random_ontology with
    drawn axioms put in anywhere, and a drawn IRI."""
    seed = draw(st.integers(0, 2**32 - 1))
    axioms = list(random_ontology(random.Random(seed), max_axioms=8).axioms)
    for axiom in draw(st.lists(AXIOMS, max_size=3)):
        axioms.insert(draw(st.integers(0, len(axioms))), axiom)
    return draw(IRIS), tuple(axioms)


@PROPERTY
@given(built_ontologies())
def test_an_ontology_that_validates_reads_back(case):
    iri, axioms = case
    try:
        ontology = Ontology(iri, axioms)
    except OwlError:
        return
    text = serialize_functional(ontology)
    text.encode("utf-8")  # a file holds it
    assert parse_functional(text) == ontology
    try:
        generate(ontology)
    except ScaffoldError:
        pass


# every DSL keyword and datatype, names of the seeded models, and bad
# names, one of them not a str
MODEL_NAMES = [*sorted(KEYWORDS), *DATATYPES, "F0", "F1", "a0", "Zed", "9", "a b", 9]


@st.composite
def renamed_models(draw):
    """A seeded model of ``helpers.random_model`` with some feature and
    attribute names replaced by names from MODEL_NAMES, some enum fields
    by their enum's string value, and in about one model in four one
    value by a stand-in with equal fields: (root, features, groups,
    constraints) to build a FeatureModel from."""
    model = random_model(random.Random(draw(st.integers(0, 2**32 - 1))), max_features=8,
                         allow_attributes=True)
    new = {}

    def name(old):
        if old not in new:
            new[old] = draw(st.one_of(st.just(old), st.sampled_from(MODEL_NAMES)))
        return new[old]

    def kind(member):
        return draw(st.sampled_from((member, member, member, member.value)))

    values = len(model.features) + len(model.groups) + len(model.constraints) + sum(
        len(f.attributes) for f in model.features)
    swapped, seen = draw(st.integers(0, 4 * values - 1)), iter(range(values))

    def value(built):
        return stand_in(built, draw(st.booleans())) if next(seen) == swapped else built

    features = tuple(value(dataclasses.replace(
        f, name=name(f.name), parent=f.parent and name(f.parent), variability=kind(f.variability),
        attributes=tuple(value(dataclasses.replace(a, name=name(a.name))) for a in f.attributes)))
        for f in model.features)
    groups = tuple(value(dataclasses.replace(
        g, owner=name(g.owner), members=tuple(map(name, g.members)), kind=kind(g.kind)))
        for g in model.groups)
    constraints = tuple(value(dataclasses.replace(
        c, source=name(c.source), target=name(c.target), kind=kind(c.kind)))
        for c in model.constraints)
    return name(model.root), features, groups, constraints


@PROPERTY
@given(renamed_models())
def test_a_model_that_validates_reads_back(parts):
    try:
        model = FeatureModel(*parts)
    except ModelError:
        return
    assert parse(to_source(model)) == model
