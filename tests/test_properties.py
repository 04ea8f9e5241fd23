"""Property tests for the two readers and the CLI on arbitrary and mutated text.

``parse`` returns a model or raises ``ParseError``; ``parse_functional``
returns an ``Ontology`` or raises ``OwlError``; a syntax error's line and
column point inside the text; ``fmc check`` exits with a documented code,
``fmc compile`` writes the ontology ``compile_model`` builds, and
``fmc scaffold`` writes the site ``generate`` derives from it.
Mutated inputs start from ``to_source`` and ``serialize_functional`` output
of the seeded generators in ``helpers``.
"""

import os
import random
import tempfile
from pathlib import Path

import pytest

from fmc.cli import main
from fmc.compiler import compile_model
from fmc.dsl import KEYWORDS, ParseError, parse, to_source
from fmc.model import FeatureModel
from fmc.owl import (
    Ontology,
    OwlError,
    OwlSyntaxError,
    parse_functional,
    parse_functional_file,
    serialize_functional,
)
from fmc.scaffold import generate, write

from helpers import random_model, random_ontology

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# deterministic runs, no example database written next to the tests
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

DSL_PIECES = ["{", "}", ":", "#", " ", "\t", "\n", "\r\n", "F1", "Zed", "9", "*", "\xff",
              *sorted(KEYWORDS), "string", "decimal"]
OWL_PIECES = ["(", ")", ":", ":=", "<", ">", "<http://x#>", " ", "\n", "5", "owl:Thing",
              "xsd:string", ":C0", ":p0", ":d0", "Declaration", "Class", "SubClassOf",
              "EquivalentClasses", "DisjointClasses", "ObjectComplementOf",
              "ObjectIntersectionOf", "ObjectSomeValuesFrom", "DataPropertyRange", "\xff"]


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


CLI_MODELS = st.one_of(st.integers(0, 2**32 - 1).map(lambda seed: dsl_source(random.Random(seed))),
                       mutated(dsl_source, DSL_PIECES))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(CLI_MODELS)
def test_cli_compile_writes_the_compiled_ontology(text):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "model.ofn")
        code = main(["compile", saved(tmp, text), out])
        assert code in (0, 1, 2)
        if code == 0:
            assert parse_functional_file(out) == compile_model(parse(text))


def files_under(root):
    return {p.relative_to(root): p.read_bytes() for p in Path(root).rglob("*") if p.is_file()}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(CLI_MODELS)
def test_cli_scaffold_writes_the_generated_site(text):
    # the CLI leaves the DisjointClasses axioms out; the site must not change
    with tempfile.TemporaryDirectory() as tmp:
        site = os.path.join(tmp, "site")
        code = main(["scaffold", saved(tmp, text), site])
        assert code in (0, 1, 2)
        if code == 0:
            expected = os.path.join(tmp, "expected")
            write(generate(compile_model(parse(text))), expected)
            assert files_under(site) == files_under(expected)
