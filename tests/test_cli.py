import itertools
import json
import os
import random
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import fmc
from fmc.cli import main
from fmc.compiler import compile_model
from fmc.dsl import parse, to_source
from fmc.owl import parse_functional, serialize_functional

import cli_checks
from conftest import AISCO_PATH, GOLDEN_PATH
from helpers import random_tree

AISCO = str(AISCO_PATH)


@pytest.fixture()
def void_fm(tmp_path):
    path = tmp_path / "void.fm"
    path.write_text("feature A { mandatory B }\nconstraints { B excludes A }\n")
    return str(path)


def write_config(tmp_path, *names):
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{n}\n" for n in names))
    return str(path)


def test_compile_writes_ontology(tmp_path, capsys):
    out = tmp_path / "aisco.ofn"
    assert main(["compile", AISCO, str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""  # logs belong on stderr
    assert f"wrote {out}" in captured.err
    ontology = parse_functional(out.read_text(encoding="utf-8"))
    assert ontology.iri == "http://example.org/spl/AISCO#"
    assert len(ontology.axioms) == 151


def test_compile_custom_iri(tmp_path):
    out = tmp_path / "x.ofn"
    assert main(["compile", AISCO, str(out), "--iri", "http://acme.test/v1#"]) == 0
    assert "Ontology(<http://acme.test/v1#>" in out.read_text()


def test_compile_writes_the_golden_bytes(tmp_path):
    out = tmp_path / "aisco.ofn"
    assert main(["compile", AISCO, str(out)]) == 0
    assert out.read_bytes() == GOLDEN_PATH.read_bytes()
    iri = "http://acme.test/v1#"
    assert main(["compile", AISCO, str(out), "--iri", iri]) == 0
    expected = serialize_functional(compile_model(parse(AISCO_PATH.read_text()), iri))
    assert out.read_bytes() == expected.encode("utf-8")


DUPLICATE_ATTRIBUTE = ("feature A { optional B { attribute total : decimal } "
                       "optional C { attribute total : decimal } }\n")
RULE_CLASS_CLASH = "feature A { optional ARule }\n"


def tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else p.stat().st_mode
            for p in root.rglob("*")}


@pytest.mark.parametrize("source, extra, message", [
    # raised by the compiler after the last DisjointClasses axiom
    pytest.param(DUPLICATE_ATTRIBUTE, [],
                 "{src}: duplicate data property 'total' (attribute names are global)",
                 id="duplicate-attribute"),
    # raised by the validator at the second declaration of ARule
    pytest.param(RULE_CLASS_CLASH, [], "{src}: duplicate Class declaration 'ARule'",
                 id="rule-class-clash"),
    pytest.param(None, ["--iri", "has space"], "{src}: invalid ontology IRI 'has space'",
                 id="invalid-iri"),
    # white space the reader does not take in an IRI, and a byte of argv
    # that is not UTF-8, decoded to a lone surrogate
    *(pytest.param(None, ["--iri", iri], f"{{src}}: invalid ontology IRI {iri!r}", id=name)
      for name, iri in [("nbsp-iri", "http://x\xa0#"), ("cr-iri", "http://x\r#"),
                        ("line-separator-iri", "http://x\u2028#"),
                        ("surrogate-iri", "http://x\udcff#")]),
    # the model compiles, but the target is a directory
    pytest.param(None, [], "{out}: Is a directory", id="directory-target"),
])
@pytest.mark.parametrize("existing", [None, b"keep me\n"], ids=["new", "existing"])
def test_failed_compile_leaves_nothing_behind(tmp_path, capsys, source, extra, message, existing):
    src = AISCO
    if source is not None:
        src = str(tmp_path / "model.fm")
        (tmp_path / "model.fm").write_text(source)
    out = tmp_path / "out.ofn"
    if message.startswith("{out}"):
        out.mkdir()
        if existing is not None:
            (out / "kept.ofn").write_bytes(existing)
    elif existing is not None:
        out.write_bytes(existing)
    before = tree(tmp_path)
    assert main(["compile", src, str(out), *extra]) == 2
    assert capsys.readouterr().err == f"error: {message.format(src=src, out=out)}\n"
    assert tree(tmp_path) == before


def test_compile_error_outranks_an_unwritable_output(tmp_path, capsys):
    src = tmp_path / "model.fm"
    src.write_text(DUPLICATE_ATTRIBUTE)
    assert main(["compile", str(src), str(tmp_path / "missing" / "o.ofn")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {src}: duplicate data property")


def test_compile_rewrites_an_existing_output_in_place(tmp_path):
    target = tmp_path / "real.ofn"
    target.write_text("old\n")
    target.chmod(0o600)
    link = tmp_path / "link.ofn"
    link.symlink_to(target)
    hard = tmp_path / "hard.ofn"
    os.link(target, hard)
    inode = target.stat().st_ino
    assert main(["compile", AISCO, str(link)]) == 0
    assert link.is_symlink()
    assert target.stat().st_ino == inode
    assert target.read_bytes() == hard.read_bytes() == GOLDEN_PATH.read_bytes()
    assert target.stat().st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.ofn", "link.ofn", "real.ofn"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_compile_writes_into_a_named_pipe(tmp_path):
    fifo = tmp_path / "pipe.ofn"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert main(["compile", AISCO, str(fifo)]) == 0
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [GOLDEN_PATH.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_compile_missing_input_exits_1(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "nope.fm"), str(tmp_path / "o.ofn")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "nope.fm" in err


def test_parse_error_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.fm"
    bad.write_text("feature A {\n  mandatory optional\n}\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "bad.fm" in err and "line 2, column 13" in err


def test_compile_error_exits_2(tmp_path, capsys):
    clash = tmp_path / "clash.fm"
    clash.write_text("feature A { optional B { attribute total : decimal } "
                     "optional C { attribute total : decimal } }\n")
    assert main(["compile", str(clash), str(tmp_path / "o.ofn")]) == 2
    assert "duplicate data property" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    assert main(["compile", AISCO, str(tmp_path)]) == 2  # directory as target
    assert "error:" in capsys.readouterr().err


def test_check_human_output(capsys):
    assert main(["check", AISCO]) == 0
    out = capsys.readouterr().out
    assert "consistent: yes" in out
    assert "dead features: none" in out
    assert "configurations: 160" in out


def test_check_json_report(capsys):
    assert main(["check", AISCO, "--json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "consistent": true,\n  "dead_features": [],\n  "configuration_count": 160\n}\n')


def test_check_void_exits_3(void_fm, capsys):
    assert main(["check", void_fm]) == 3
    assert "consistent: no (void model)" in capsys.readouterr().out


def test_check_over_the_count_cap_reports_it_and_exits_0(tmp_path, capsys):
    flat = tmp_path / "flat.fm"
    flat.write_text("feature R {\n" + "".join(f"  optional F{i}\n" for i in range(25)) + "}\n")
    assert main(["check", str(flat)]) == 0
    assert capsys.readouterr().out == (
        "consistent: yes\ndead features: none\nconfigurations: not counted (over 24 features)\n")


def test_validate_valid_configuration(tmp_path, capsys):
    config = write_config(tmp_path, "AISCO", "ProgramData", "PublicationSystem",
                          "FinancialReport")
    assert main(["validate", AISCO, config]) == 0
    assert "configuration is valid" in capsys.readouterr().out


def test_validate_requires_violation(tmp_path, capsys):
    config = write_config(tmp_path, "AISCO", "ProgramData", "PublicationSystem",
                          "FinancialReport", "MemberNotification")
    assert main(["validate", AISCO, config]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["'MemberNotification' requires 'Donor', which is not selected"]


def test_validate_lists_every_violation(tmp_path, capsys):
    config = write_config(tmp_path, "ProgramData", "MemberNotification")
    assert main(["validate", AISCO, config]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # root missing, orphan parents x2, requires
    assert main(["validate", AISCO, config, "--json"]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is False
    assert [v["rule"] for v in report["violations"]] == [
        "root", "parent", "parent", "requires"]


def test_validate_unknown_feature_exits_1(tmp_path, capsys):
    config = write_config(tmp_path, "AISCO", "Mystery")
    assert main(["validate", AISCO, config]) == 1
    assert "unknown feature(s): 'Mystery'" in capsys.readouterr().err


def test_count_outputs(capsys):
    assert main(["count", AISCO]) == 0
    assert capsys.readouterr().out.strip() == "160"
    assert main(["count", AISCO, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"configuration_count": 160}


def test_count_over_cap_exits_2(tmp_path, capsys):
    big = tmp_path / "big.fm"
    children = " ".join(f"optional C{i}" for i in range(24))
    big.write_text(f"feature Root {{ {children} }}\n")
    assert main(["count", str(big)]) == 2
    assert "capped at 24" in capsys.readouterr().err


def test_scaffold_writes_files(tmp_path, capsys):
    outdir = tmp_path / "site"
    assert main(["scaffold", AISCO, str(outdir)]) == 0
    assert (outdir / "install_data.json").is_file()
    templates = sorted(p.name for p in (outdir / "templates").iterdir())
    assert len(templates) == 26
    assert "DonationData_form.tpl.txt" in templates
    err = capsys.readouterr().err
    assert err.count("wrote ") == 27
    # one line per file, install_data.json first
    lines = err.split("\n")
    assert lines[0] == f"wrote {outdir / 'install_data.json'}" and lines[-1] == ""
    assert sorted(lines[1:-1]) == [f"wrote {outdir / 'templates' / name}" for name in templates]


def test_scaffold_refuses_overwrite_then_allows(tmp_path, capsys):
    outdir = tmp_path / "site"
    assert main(["scaffold", AISCO, str(outdir)]) == 0
    capsys.readouterr()
    assert main(["scaffold", AISCO, str(outdir)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(["scaffold", AISCO, str(outdir), "--overwrite"]) == 0


def test_scaffold_refusal_writes_nothing(tmp_path, capsys):
    # a clash in phase 2 must not leave phase 1's file behind
    outdir = tmp_path / "site"
    (outdir / "templates").mkdir(parents=True)
    (outdir / "templates" / "AISCO_form.tpl.txt").touch()
    for _ in range(2):
        assert main(["scaffold", AISCO, str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "AISCO_form.tpl.txt" in err and "install_data.json" not in err
        assert not (outdir / "install_data.json").exists()
    assert main(["scaffold", AISCO, str(outdir), "--overwrite"]) == 0


def test_scaffold_never_replaces_a_file_made_after_its_check(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "site"
    target = outdir / "templates" / "Donor_form.tpl.txt"
    target.parent.mkdir(parents=True)
    target.write_text("kept")
    # the listing misses the file, as it would one made just after it
    monkeypatch.setattr(os, "listdir", lambda path: [])
    assert main(["scaffold", AISCO, str(outdir)]) == 2
    assert capsys.readouterr().err == f"error: {target}: File exists\n"
    assert target.read_text() == "kept"


def test_scaffold_names_the_template_it_could_not_open(tmp_path, capsys):
    # the error names the whole path, not the name in the templates directory
    outdir = tmp_path / "site"
    blocked = outdir / "templates" / "Donor_form.tpl.txt"
    blocked.mkdir(parents=True)
    assert main(["scaffold", AISCO, str(outdir), "--overwrite"]) == 2
    assert capsys.readouterr().err == f"error: {blocked}: Is a directory\n"


@pytest.mark.parametrize("link", ["templates/AISCO_form.tpl.txt", "install_data.json"])
def test_scaffold_refuses_a_dangling_link(tmp_path, capsys, link):
    # a link to a missing file is an existing entry: a write through it
    # would create the link's target, outside the output directory
    outdir = tmp_path / "site"
    (outdir / "templates").mkdir(parents=True)
    target = tmp_path / "outside.txt"
    (outdir / link).symlink_to(target)
    assert main(["scaffold", AISCO, str(outdir)]) == 2
    assert capsys.readouterr().err == (f"error: refusing to overwrite 1 existing file(s): "
                                       f"{outdir / link} (pass overwrite to replace)\n")
    assert not os.path.lexists(target)
    assert not (outdir / "install_data.json").is_file()


def test_scaffold_skip_rule_classes(tmp_path):
    outdir = tmp_path / "site"
    assert main(["scaffold", AISCO, str(outdir), "--skip-rule-classes"]) == 0
    data = json.loads((outdir / "install_data.json").read_text())
    assert len(data["categories"]) == 13
    assert all(not c["is_rule_class"] for c in data["categories"])


def test_scaffold_zotonic_notes_flavor(tmp_path):
    outdir = tmp_path / "site"
    assert main(["scaffold", AISCO, str(outdir), "--flavor", "zotonic-notes"]) == 0
    data = json.loads((outdir / "install_data.json").read_text())
    assert "Zotonic" in data["_note"]
    template = (outdir / "templates" / "AISCO_form.tpl.txt").read_text()
    assert template.startswith("# mirrors a Zotonic")


def test_scaffold_triggers_env_override(tmp_path, monkeypatch):
    registry = tmp_path / "triggers.json"
    registry.write_text('{"total": "Count"}')
    monkeypatch.setenv("FMC_TRIGGERS", str(registry))
    outdir = tmp_path / "site"
    assert main(["scaffold", AISCO, str(outdir)]) == 0
    template = (outdir / "templates" / "DonationData_form.tpl.txt").read_text()
    assert "field: total (decimal) [read-only, computed: Count]" in template


def test_scaffold_bad_triggers_env_exits_2(tmp_path, monkeypatch, capsys):
    expected = "(expected one of Sum, Count, Average)"
    registry = tmp_path / "triggers.json"
    registry.write_text('{"total": "Max"}')
    monkeypatch.setenv("FMC_TRIGGERS", str(registry))
    assert main(["scaffold", AISCO, str(tmp_path / "site")]) == 2
    err = capsys.readouterr().err
    assert "unknown trigger kind" in err
    assert err.count(str(registry)) == 1
    for bad, message in (('[]', "trigger registry must be a JSON object"),
                         ('{nope', "invalid JSON"),
                         ("[" * 5000, "invalid JSON"),
                         ("1" * 5000, "invalid JSON"),
                         # a long kind or pattern is clipped in the message
                         ('{"total": ' + "[" * 200 + "]" * 200 + "}",
                          f"unknown trigger kind {'[' * 40}... for 'total' {expected}\n"),
                         ('{"' + "x" * 100 + '": "Max"}',
                          f"unknown trigger kind 'Max' for '{'x' * 40}...' {expected}\n")):
        registry.write_text(bad)
        assert main(["scaffold", AISCO, str(tmp_path / "site")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {registry}: {message}")
    monkeypatch.setenv("FMC_TRIGGERS", str(tmp_path))
    assert main(["scaffold", AISCO, str(tmp_path / "site")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}: ") and err.count(str(tmp_path)) == 1


def test_scaffold_non_utf8_triggers_env_exits_2(tmp_path, monkeypatch, capsys):
    registry = tmp_path / "triggers.json"
    registry.write_bytes(b'{"total": "Sum"\xff}')
    monkeypatch.setenv("FMC_TRIGGERS", str(registry))
    assert main(["scaffold", AISCO, str(tmp_path / "site")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {registry}: ") and "can't decode byte 0xff" in err
    assert "Traceback" not in err
    assert not (tmp_path / "site").exists()


@pytest.mark.parametrize("command", ["compile", "scaffold"])
@pytest.mark.parametrize("iri", [b"http://x\xff#", b"http://x\xc2\xa0#", b"http://x\r#", b""],
                         ids=["not-utf8", "nbsp", "cr", "empty"])
def test_a_bad_iri_on_the_command_line_exits_2(tmp_path, command, iri):
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "fmc", command, AISCO, str(out), "--iri", iri],
        capture_output=True, check=False)
    shown = repr(os.fsdecode(iri)).encode()
    assert result.returncode == 2
    assert result.stderr == b"error: " + AISCO.encode() + b": invalid ontology IRI " + shown + b"\n"
    assert not out.exists()


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "fmc", "count", AISCO],
        capture_output=True, text=True, check=False)
    assert result.returncode == 0
    assert result.stdout.strip() == "160"


def test_non_utf8_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.fm"
    bad.write_bytes(b"feature A\xff\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "can't decode byte 0xff" in err


def with_bom(tmp_path, path, marks=1):
    marked = tmp_path / f"bom{marks}-{os.path.basename(path)}"
    with open(path, "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" * marks + fh.read())
    return str(marked)


@pytest.mark.parametrize("names", [
    ("AISCO", "FinancialReport", "ProgramData", "PublicationSystem"),  # valid
    ("AISCO", "ProgramData"),  # two mandatory children missing
])
def test_validate_skips_one_leading_byte_order_mark(tmp_path, capsys, names):
    config = write_config(tmp_path, *names)
    runs = []
    for path in (config, with_bom(tmp_path, config)):
        code = main(["validate", AISCO, path])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert main(["validate", AISCO, with_bom(tmp_path, config, marks=2)]) == 1
    assert "unknown feature(s): '\ufeffAISCO'" in capsys.readouterr().err


def test_check_skips_one_leading_byte_order_mark(tmp_path, capsys):
    runs = []
    for path in (AISCO, with_bom(tmp_path, AISCO)):
        code = main(["check", path])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert main(["check", with_bom(tmp_path, AISCO, marks=2)]) == 1
    assert "line 1, column 1: unexpected character" in capsys.readouterr().err


def test_non_utf8_config_exits_1(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_bytes(b"AISCO\n\xff\n")
    assert main(["validate", AISCO, str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ") and "can't decode byte 0xff" in err


@pytest.mark.parametrize("blocked", [
    pytest.param("site", id="outdir-is-a-file"),
    pytest.param("site/templates", id="templates-is-a-file"),
])
def test_scaffold_write_error_names_the_path(tmp_path, capsys, blocked):
    blocked = tmp_path / blocked
    blocked.parent.mkdir(exist_ok=True)
    blocked.touch()
    assert main(["scaffold", AISCO, str(tmp_path / "site")]) == 2
    assert capsys.readouterr().err == f"error: {blocked}: File exists\n"
    # a refusal writes nothing beside the file that blocks it
    assert list(blocked.parent.iterdir()) == [blocked]


def fresh(argv):
    """(exit code, stdout, stderr) of ``python -m fmc`` in a new process."""
    result = subprocess.run([sys.executable, "-m", "fmc", *argv],
                            capture_output=True, text=True, check=False)
    return result.returncode, result.stdout, result.stderr


def test_one_process_answers_each_command_as_a_fresh_one(tmp_path, capsys):
    # main builds its argument parser once per process; no call may see
    # what an earlier one left, usage errors included
    config = write_config(tmp_path, "AISCO", "ProgramData")
    calls = [["check", AISCO, "--json"], ["check", AISCO], ["validate", AISCO, config],
             ["check", AISCO, "--bogus"], ["validate", AISCO], ["check", AISCO]]
    runs = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        runs.append((code, *capsys.readouterr()))
    assert runs == [fresh(argv) for argv in calls]
    assert [code for code, _, _ in runs] == [0, 0, 4, 2, 2, 0]
    assert all(err.startswith("usage: fmc ") for _, _, err in runs[3:5])


OWL_SIDE = ("fmc.compiler", "fmc.owl", "fmc.scaffold")


def run_python(script, *args):
    result = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                            capture_output=True, text=True, check=False)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    return result.stdout


def run_bare_python(script, *args):
    """Run script in a fresh python -S -X dev -W error: without site-packages
    no .pth file loads a module first, and any warning fails."""
    env = {**os.environ, "PYTHONPATH": str(Path(fmc.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-S", "-X", "dev", "-W", "error", "-c", script,
                             *map(str, args)],
                            capture_output=True, text=True, check=False, env=env)
    assert result.returncode == 0 and result.stderr == "", result.stderr
    return result.stdout


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    script = f"""
import contextlib, io, sys
import fmc
print(*sorted(name for name in sys.modules if name.startswith("fmc.")))
from fmc.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *[name in sys.modules for name in ("fmc.analysis", "json", "_json", "typing",
                                               "dataclasses", "inspect", *{OWL_SIDE!r})])
"""
    valid = write_config(tmp_path, "AISCO", "FinancialReport", "ProgramData", "PublicationSystem")
    invalid = tmp_path / "invalid.txt"
    invalid.write_text("AISCO\n")
    out = tmp_path / "out"
    # each command in a fresh process: columns fmc.analysis, json, _json,
    # typing, dataclasses, inspect, fmc.compiler, fmc.owl, fmc.scaffold
    expected = [
        (["validate", AISCO, valid], "0 False False False False False False False False False"),
        (["validate", AISCO, invalid], "4 False False False False False False False False False"),
        (["validate", AISCO, valid, "--json"],
         "0 False True True False False False False False False"),
        (["check", AISCO], "0 True False False False False False False False False"),
        (["check", AISCO, "--json"], "0 True True True False False False False False False"),
        (["count", AISCO], "0 True False False False False False False False False"),
        (["count", AISCO, "--json"], "0 True True True False False False False False False"),
        (["compile", AISCO, f"{out}.ofn"], "0 False False False False False False True True False"),
        (["scaffold", AISCO, out], "0 False True True False False False True True True")]
    assert [run_bare_python(script, *argv).splitlines() for argv, _ in expected] == [
        ["", row] for _, row in expected]


def test_value_classes_load_dataclasses_only_for_its_api():
    script = """
import sys
import fmc.model, fmc.propositional, fmc.owl, fmc.scaffold
from fmc.model import Feature, Variability
print("dataclasses" in sys.modules, "inspect" in sys.modules)
import dataclasses
feature = Feature("B", "A", Variability.OPTIONAL)
print(*[f.name for f in dataclasses.fields(Feature)])
print(dataclasses.replace(feature, group=3) == Feature("B", "A", Variability.OPTIONAL, 3))
print(dataclasses.is_dataclass(fmc.owl.Ontology), dataclasses.asdict(fmc.owl.NamedClass("A")))
"""
    assert run_bare_python(script).splitlines() == [
        "False False", "name parent variability group attributes", "True", "True {'name': 'A'}"]


def test_every_export_resolves_on_first_use():
    script = f"""
import sys
import fmc
names = set(fmc.__all__) | {{name.split(".")[1] for name in {OWL_SIDE!r}}}
assert names <= set(dir(fmc)), names - set(dir(fmc))
assert not any(name in sys.modules for name in {OWL_SIDE!r})
assert fmc.owl is sys.modules["fmc.owl"]
star = {{}}
exec("from fmc import *", star)
assert all(star[name] is getattr(fmc, name) for name in fmc.__all__)
assert fmc.compiler.compile_model is fmc.compile_model
assert fmc.scaffold.generate is fmc.generate
try:
    fmc.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert run_python(script) == "module 'fmc' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["check", AISCO], id="short-report"),
    # longer than stdout's buffer, so print itself fails, not the flush
    pytest.param(["validate", "{wide}", "{config}", "--json"], id="long-report"),
])
def test_a_closed_stdout_exits_2_without_a_traceback(tmp_path, argv):
    wide = tmp_path / "wide.fm"
    wide.write_text("feature R {\n" + "".join(f"  mandatory F{i}\n" for i in range(600)) + "}\n")
    paths = {"wide": wide, "config": write_config(tmp_path, "R")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "fmc", *(a.format(**paths) for a in argv)],
                                stdout=write_end, stderr=subprocess.PIPE, check=False)
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (2, b"")


def test_an_interrupted_command_exits_130_with_one_line(monkeypatch, capsys):
    from fmc import analysis

    def interrupted(model):
        raise KeyboardInterrupt

    monkeypatch.setattr(analysis, "analyze", interrupted)
    assert main(["check", AISCO, "--json"]) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


def test_an_interrupted_compile_leaves_its_output_as_it_was(tmp_path, monkeypatch, capsys):
    from fmc import compiler
    real_axioms = compiler._axioms

    def interrupted(model, **options):
        yield from itertools.islice(real_axioms(model, **options), 3)
        raise KeyboardInterrupt

    monkeypatch.setattr(compiler, "_axioms", interrupted)
    out = tmp_path / "aisco.ofn"
    out.write_text("before\n")
    assert main(["compile", AISCO, str(out)]) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert out.read_text() == "before\n"


def test_the_fresh_process_checks_build_the_inputs_their_bounds_were_measured_on():
    assert cli_checks.flat(2) == "feature Root {\n  optional F0\n  optional F1\n}\n"
    assert cli_checks.chain(3) == "feature F0 {\noptional F1 {\noptional F2 {\n}\n}\n}\n"
    assert cli_checks.group(2) == "feature Root {\n  alternative {\n    M0\n    M1\n  }\n}\n"
    assert cli_checks.tree(40, 5) == to_source(random_tree(random.Random("40:1"), 40, 5))
