import random
import subprocess
import sys

import pytest

from fmc.analysis import ENUMERATION_CAP
from fmc.dsl import ParseError, parse, parse_configuration, parse_file, to_source
from fmc.lexer import PositionedError
from fmc.model import (
    Attribute,
    ConstraintKind,
    Feature,
    FeatureModel,
    GroupKind,
    Variability,
)

from helpers import optional_chain, random_model


def test_minimal_two_node_model():
    model = parse("feature A { mandatory B }")
    assert model.root == "A"
    assert model.feature_names == ("A", "B")
    assert model.feature("B").variability is Variability.MANDATORY
    assert model.feature("B").parent == "A"


def test_single_feature_model():
    model = parse("feature Solo")
    assert model.feature_names == ("Solo",)
    assert model.groups == () and model.constraints == ()


def test_aisco_structure(aisco_model):
    assert aisco_model.root == "AISCO"
    top = {c.name: c.variability for c in aisco_model.children("AISCO")}
    assert top["ProgramData"] is Variability.MANDATORY
    assert top["PublicationSystem"] is Variability.MANDATORY
    assert top["FinancialReport"] is Variability.MANDATORY
    assert top["DonationData"] is Variability.OPTIONAL
    assert top["MemberNotification"] is Variability.OPTIONAL
    program = [c.name for c in aisco_model.children("ProgramData")]
    assert program == ["Periodic", "Eventual", "Continuous"]
    assert all(aisco_model.feature(n).variability is Variability.OPTIONAL
               for n in program)
    assert [(c.kind.value, c.source, c.target) for c in aisco_model.constraints] == [
        ("requires", "MemberNotification", "Donor"),
        ("requires", "AutomaticReport", "Summary"),
    ]
    donation = aisco_model.feature("DonationData")
    assert [(a.name, a.datatype) for a in donation.attributes] == [("total", "decimal")]


def test_groups_and_attributes():
    model = parse("""
    # storage backends
    feature App {
      attribute version : string
      alternative { Sqlite Postgres Mysql }
      or { Logging Metrics }
      optional Cache
    }
    constraints {
      Metrics requires Logging
      Cache excludes Sqlite
    }
    """)
    assert [g.kind for g in model.groups] == [GroupKind.ALTERNATIVE, GroupKind.OR]
    assert model.groups[0].members == ("Sqlite", "Postgres", "Mysql")
    assert model.groups[1].members == ("Logging", "Metrics")
    assert model.feature("Logging").group == 1
    assert model.constraints[1].kind is ConstraintKind.EXCLUDES
    assert model.feature("App").attributes[0].name == "version"


def test_nested_group_member_bodies():
    model = parse("feature A { or { B { mandatory D } C } }")
    assert model.feature_names == ("A", "B", "D", "C")
    assert model.feature("D").parent == "B"
    assert model.groups[0].members == ("B", "C")


def test_comments_ignored():
    model = parse("# top\nfeature A { # inline\n  optional B # trailing\n}\n")
    assert model.feature_names == ("A", "B")


@pytest.mark.parametrize("source,names", [
    ("feature A { # a } b\n}\n", ("A",)),
    ("feature A # end", ("A",)),
])
def test_comments_run_to_the_end_of_the_line(source, names):
    assert parse(source).feature_names == names


# Plain text is cut by one str.split(); each text here fails one of that
# shortcut's guards and is read by findall alone, to the same result.
A_WITH_B = FeatureModel("A", (Feature("A", None, Variability.MANDATORY),
                              Feature("B", "A", Variability.OPTIONAL)))


@pytest.mark.parametrize("source,model", [
    pytest.param("feature A{optional B}", A_WITH_B, id="brace-inside-a-piece"),
    pytest.param("feature A { attribute a:string }",
                 FeatureModel("A", (Feature("A", None, Variability.MANDATORY,
                                            attributes=(Attribute("a", "string"),)),)),
                 id="colon-inside-a-piece"),
    pytest.param("feature A { optional B } # end", A_WITH_B, id="comment-without-newline"),
])
def test_text_the_split_does_not_cut_parses_the_same(source, model):
    assert parse(source) == model


@pytest.mark.parametrize("source,message,line,col", [
    pytest.param("feature 9A", "unexpected character '9'", 1, 9, id="digit-first"),
    pytest.param("feature _A", "unexpected character '_'", 1, 9, id="underscore-first"),
    pytest.param("feature A {\x0coptional B }", "unexpected character '\\x0c'", 1, 12,
                 id="form-feed"),
    pytest.param("feature Caf\xe9", "unexpected character '\xe9'", 1, 12, id="non-ascii-name"),
    pytest.param("", "expected 'feature', got end of input", 1, 1, id="empty"),
    pytest.param(" \n\t ", "expected 'feature', got end of input", 2, 3, id="white-space-only"),
])
def test_text_the_split_does_not_cut_fails_the_same(source, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert str(info.value) == f"line {line}, column {col}: {message}"
    assert (info.value.line, info.value.column) == (line, col)


@pytest.mark.parametrize("source,fragment,line,col", [
    ("mandatory A", "expected 'feature'", 1, 1),
    ("feature A { mandatory }", "expected feature name", 1, 23),
    ("feature A { mandatory B", "unclosed '{'", 1, 24),
    ("feature A { weird B }", "expected 'mandatory'", 1, 13),
    ("feature A { attribute x decimal }", "expected ':'", 1, 25),
    ("feature A { attribute x : float }", "expected attribute datatype", 1, 27),
    ("feature A\nfeature B", "unexpected 'feature' after model", 2, 1),
    ("feature A { optional feature }", "reserved keyword", 1, 22),
    ("feature A*", "unexpected character '*'", 1, 10),
    ("feature A {\tweird B }", "expected 'mandatory'", 1, 13),
    ("feature A {\r\n  optional B\r\n  weird C\r\n}\r\n", "expected 'mandatory'", 3, 3),
    ("feature A {\n# a comment line\n  weird B\n}", "expected 'mandatory'", 3, 3),
    ("feature A { mandatory B\n", "unclosed '{'", 2, 1),
    ("feature A { # open", "unclosed '{'", 1, 13),
    ("feature A { mandatory B # c {\n   ", "unclosed '{'", 2, 4),
    ("feature A {\n# x / y\n", "unclosed '{'", 3, 1),
    ("feature A { optional B } \xe9", "unexpected character 'é'", 1, 26),
    ("feature A { optional B }\n#c\n*", "unexpected character '*'", 3, 1),
    ("# only a comment", "expected 'feature', got end of input", 1, 1),
    # where a child or group member is read in place, anything unusual
    # takes the general path, which words the error
    ("feature A { or { B optional } }",
     "'optional' is a reserved keyword and cannot be used as a group member name", 1, 20),
    ("feature A { or { optional B } }",
     "'optional' is a reserved keyword and cannot be used as a group member name", 1, 18),
    ("feature A { or { B B } }", "duplicate feature name 'B'", 1, 20),
    ("feature A { or { A B } }", "duplicate feature name 'A'", 1, 18),
    ("feature A { optional B or { C B } }", "duplicate feature name 'B'", 1, 31),
    ("feature A { optional B { optional B } }", "duplicate feature name 'B'", 1, 35),
    ("feature A { optional }", "expected feature name, got '}'", 1, 22),
    ("feature A { optional", "expected feature name, got end of input", 1, 21),
    ("feature A { mandatory", "expected feature name, got end of input", 1, 22),
    ("feature A { optional : }", "expected feature name, got ':'", 1, 22),
    ("feature A { optional { }", "expected feature name, got '{'", 1, 22),
    ("feature A { or { B C", "unclosed group: expected '}'", 1, 21),
    ("feature A { or { B C }", "unclosed '{': expected '}'", 1, 23),
    ("feature A { or { B { optional C } D", "unclosed group: expected '}'", 1, 36),
    ("feature A { or { B attribute x : string } }",
     "'attribute' is a reserved keyword and cannot be used as a group member name", 1, 20),
    ("feature A { or { B C attribute x : string } }",
     "'attribute' is a reserved keyword and cannot be used as a group member name", 1, 22),
    ("feature A { or { B { } : } }", "expected group member name, got ':'", 1, 24),
    ("feature A { or { { } }", "expected group member name, got '{'", 1, 18),
    ("feature A { or { B { } } }", "or group under 'A' needs at least 2 members, found 1", 1, 13),
])
def test_syntax_errors_carry_position(source, fragment, line, col):
    with pytest.raises(ParseError) as info:
        parse(source)
    assert fragment in str(info.value)
    assert info.value.line == line
    assert info.value.column == col
    assert isinstance(info.value, PositionedError)  # the base OwlSyntaxError shares


def test_duplicate_feature_name_rejected():
    with pytest.raises(ParseError, match="duplicate feature name 'B'"):
        parse("feature A { mandatory B mandatory B }")


def test_unknown_constraint_feature_rejected():
    with pytest.raises(ParseError, match="unknown feature 'Z'"):
        parse("feature A { optional B }\nconstraints { B requires Z }")


def test_self_constraint_rejected():
    with pytest.raises(ParseError, match="same feature"):
        parse("feature A { optional B }\nconstraints { B excludes B }")


def test_single_member_group_rejected():
    with pytest.raises(ParseError, match="at least 2 members"):
        parse("feature A { or { B } }")


def test_duplicate_attribute_rejected():
    with pytest.raises(ParseError, match="duplicate attribute 'x'"):
        parse("feature A { attribute x : string attribute x : date }")


def test_to_source_layout():
    source = ("feature A {\n"
              "  attribute size : integer\n"
              "  mandatory B\n"
              "  alternative {\n"
              "    C\n"
              "    D {\n"
              "      optional E\n"
              "    }\n"
              "  }\n"
              "}\n"
              "\n"
              "constraints {\n"
              "  E requires B\n"
              "}\n")
    assert to_source(parse(source)) == source


def test_round_trip_hand_models():
    for source in (
        "feature A",
        "feature A { optional B }",
        "feature A { or { B C } alternative { D E F } }",
        "feature R { mandatory S { attribute total : decimal } }",
    ):
        model = parse(source)
        assert parse(to_source(model)) == model


def test_round_trip_random_models():
    rng = random.Random(20260814)
    for _ in range(60):
        model = random_model(rng, max_features=14, allow_attributes=True)
        assert parse(to_source(model)) == model


def test_round_trip_deep_nesting():
    model = optional_chain(1200)
    assert parse(to_source(model)) == model


def test_check_deep_nesting_without_recursion_error(tmp_path):
    path = tmp_path / "deep.fm"
    path.write_text(to_source(optional_chain(1200)))
    result = subprocess.run([sys.executable, "-m", "fmc", "check", str(path)],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout.splitlines() == [
        "consistent: yes", "dead features: none",
        f"configurations: not counted (over {ENUMERATION_CAP} features)"]


def test_parse_configuration():
    text = "# chosen\nAISCO\n\n  ProgramData  \n# skip\nDonor\n"
    assert parse_configuration(text) == {"AISCO", "ProgramData", "Donor"}
    assert parse_configuration("") == set()


def test_parse_file_skips_one_leading_byte_order_mark(tmp_path, aisco_source):
    path = tmp_path / "model.fm"
    data = aisco_source.encode("utf-8")
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + data)
        assert parse_file(path) == parse(aisco_source)
    path.write_bytes(b"\xef\xbb\xbf" * 2 + data)
    with pytest.raises(ParseError, match="line 1, column 1: unexpected character"):
        parse_file(path)
    # the first bytes of a mark alone are not text
    path.write_bytes(b"\xef\xbb")
    with pytest.raises(UnicodeDecodeError):
        parse_file(path)
