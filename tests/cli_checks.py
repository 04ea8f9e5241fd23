"""Command-line checks in fresh processes, on large inputs built here. Each
compares a command's exit code, stdout and stderr, and where a bound applies
its peak RSS. From the repository root: ``PYTHONPATH=src python
tests/cli_checks.py``. It prints one line per check, runs every check even
after a failure, and exits 1 if any failed. The bounds were measured on
exactly these inputs."""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from fmc.dsl import to_source
from helpers import random_tree

AISCO = "examples/aisco.fm"
# -S leaves site-packages out, so a third-party import fails. Under -X dev
# -W error an unclosed file is reported on stderr and an open() without an
# encoding raises. No -X dev where a peak is measured: its debug allocator
# inflates it
FMC = [sys.executable, "-S", "-m", "fmc"]
DEV = [sys.executable, "-S", "-X", "dev", "-W", "error", "-m", "fmc"]
STRICT = [sys.executable, "-S", "-X", "dev", "-X", "warn_default_encoding", "-W", "error",
          "-m", "fmc"]
CONSISTENT = ("consistent: yes\ndead features: none\n"
              "configurations: not counted (over 24 features)\n")

# Every command is spawned by this small fresh probe, not by the script: the
# ru_maxrss that os.wait4 reports for a child starts at the high-water mark
# of the process that spawned it, and the inputs built here would raise it.
PROBE = """
import os, subprocess, sys
out, err, *argv = sys.argv[1:]
with open(out, "wb") as stdout, open(err, "wb") as stderr:
    _, status, usage = os.wait4(subprocess.Popen(argv, stdout=stdout, stderr=stderr).pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""
# prints the axiom count, and on stderr the peak RSS (VmHWM, in kB) after
# the read and after serialize_functional, before its text is written
READ = """
import sys
from fmc.owl import parse_functional_file, serialize_functional, write_functional
def peak():
    with open("/proc/self/status", encoding="ascii") as status:
        return next(line.split()[1] for line in status if line.startswith("VmHWM:"))
ontology = parse_functional_file(sys.argv[1])
read_peak = peak()
print(len(ontology.axioms))
write_functional(ontology, sys.argv[2])
text = serialize_functional(ontology)
print(read_peak, peak(), file=sys.stderr)
with open(sys.argv[3], "w", encoding="utf-8", newline="\\n") as fh:
    fh.write(text)
"""
# write_functional renders every axiom on its own, unlike the streamed compile
BUILD = ("import sys; from fmc.compiler import compile_model; from fmc.dsl import parse_file; "
         "from fmc.owl import write_functional; "
         "write_functional(compile_model(parse_file(sys.argv[1])), sys.argv[2])")


def flat(n: int) -> str:
    return "feature Root {\n" + "".join(f"  optional F{i}\n" for i in range(n)) + "}\n"


def chain(n: int) -> str:
    """F0 { optional F1 { ... } } without indentation: to_source would indent
    it n levels deep."""
    return "feature F0 {\n" + "".join(f"optional F{i} {{\n" for i in range(1, n)) + "}\n" * n


def group(n: int) -> str:
    members = "".join(f"    M{i}\n" for i in range(n))
    return "feature Root {\n  alternative {\n" + members + "  }\n}\n"


def tree(n: int, constraints: int) -> str:
    return to_source(random_tree(random.Random(f"{n}:1"), n, constraints))


class Failed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Failed(message)


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def run(tmp: Path, want: int, *argv, stdout: "str | None" = "", stderr: "str | None" = ""):
    """Run argv under the probe. Fail unless it exits with want and, where
    not None, writes exactly stdout and stderr. Returns (stdout, stderr,
    peak RSS in MiB)."""
    out, err = tmp / "stdout", tmp / "stderr"
    probe = subprocess.run([sys.executable, "-S", "-c", PROBE, out, err, *argv],
                           capture_output=True, text=True, check=True)
    code, peak = map(int, probe.stdout.split())
    got = out.read_text(encoding="utf-8"), err.read_text(encoding="utf-8")
    command = " ".join({READ: "READ", BUILD: "BUILD"}.get(arg, str(arg)) for arg in argv)
    expect(code == want and stdout in (None, got[0]) and stderr in (None, got[1]),
           f"{command}: exit {code}, expected {want}\nstdout: {got[0][:300]!r}\n{got[1][:2000]}")
    return (*got, peak / 1024)


def bounded(name: str, peak: float, bound: int) -> str:
    expect(peak < bound, f"{name}: peak RSS {peak:.1f} MiB over the {bound} MiB bound")
    return f"{name} {peak:.1f} MiB (bound {bound})"


def golden_ontology(tmp):
    out = tmp / "aisco.ofn"
    run(tmp, 0, *STRICT, "compile", AISCO, out, stderr=f"wrote {out}\n")
    expect(out.read_bytes() == Path("tests/data/aisco.ofn").read_bytes(), "not the golden bytes")


def every_other_command(tmp):
    """validate reads the configuration with and without a byte order mark;
    a scaffold refused because site2/templates is a file writes no file."""
    run(tmp, 0, *STRICT, "check", AISCO,
        stdout="consistent: yes\ndead features: none\nconfigurations: 160\n")
    run(tmp, 0, *STRICT, "count", AISCO, stdout="160\n")
    for name, bom in ("config.txt", ""), ("config-bom.txt", "\ufeff"):
        config = write(tmp / name, bom + "AISCO\nFinancialReport\nProgramData\nPublicationSystem\n")
        run(tmp, 0, *STRICT, "validate", AISCO, config, stdout="configuration is valid\n")
    site, site2 = tmp / "site", tmp / "site2"
    _, err, _ = run(tmp, 0, *STRICT, "scaffold", AISCO, site, stderr=None)
    files = [os.path.join(d, name) for d, _, names in os.walk(site) for name in names]
    expect(sorted(err.splitlines()) == sorted(f"wrote {f}" for f in files) and len(files) == 27,
           f"scaffold wrote {len(files)} files, reported:\n{err}")
    site2.mkdir()
    (site2 / "templates").touch()
    run(tmp, 2, *STRICT, "scaffold", AISCO, site2,
        stderr=f"error: {site2 / 'templates'}: File exists\n")
    expect([p for p in site2.rglob("*") if p.is_file()] == [site2 / "templates"], "site2 written")


def flat_20000(tmp):
    """One witness selects every child; one query per feature took minutes."""
    run(tmp, 0, "timeout", "60", *DEV, "check", write(tmp / "flat.fm", flat(20000)),
        stdout=CONSISTENT)


def chain_40000(tmp):
    """One walk up the chain; one walk to the root per feature took minutes."""
    run(tmp, 0, "timeout", "60", *DEV, "check", write(tmp / "chain.fm", chain(40000)),
        stdout=CONSISTENT)


def tree_4000(tmp):
    out, _, _ = run(tmp, 0, "timeout", "60", *DEV, "check", "--json",
                    write(tmp / "tree.fm", tree(4000, 200)), stdout=None)
    report = json.loads(out)
    expect((report["consistent"], len(report["dead_features"])) == (True, 81), "not True 81")


def million_features(tmp):
    """19 MB of DSL with no size limit; the bound is 5% over the 520.5 MiB
    measured on Python 3.11."""
    model = write(tmp / "million.fm", flat(1000000))
    _, _, peak = run(tmp, 0, "timeout", "120", *FMC, "check", model, stdout=CONSISTENT)
    return bounded("check", peak, 547)


def validate_200000(tmp):
    """The parse, the model's validation and the configuration check are
    each linear in the model."""
    model = write(tmp / "large.fm", flat(200000))
    config = write(tmp / "large.txt", "Root\nF0\nF99999\nF199999\n")
    run(tmp, 0, "timeout", "60", *DEV, "validate", model, config, stdout="configuration is valid\n")


def alternative_200000(tmp):
    """The group's pair clauses are tested only among its selected members,
    where building all of them would take about 2e10."""
    model = write(tmp / "group.fm", group(200000))
    config = write(tmp / "group.txt", "Root\nM0\nM199999\n")
    out, _, _ = run(tmp, 4, "timeout", "60", *DEV, "validate", model, config, "--json", stdout=None)
    members = [f"M{i}" for i in range(200000)]
    message = (f"alternative group under 'Root' needs exactly one of {{{', '.join(members)}}} "
               "selected (M0, M199999 all selected)")
    violation = {"rule": "alternative", "features": ["Root", *members], "message": message}
    expect(json.loads(out) == {"valid": False, "violations": [violation]}, "unexpected report")


def half_million_axioms(tmp):
    """506,188 axioms (14.7 MB), read back, serialized and built with
    compile_model to the same bytes. Peaks measured on Python 3.11: the
    compile 15.8 MiB (building every value took about 98 MiB), the read
    66.9 MiB (74.2 MiB while every token was kept to the end of the read),
    with serialize 71.8 MiB (one join over every axiom's line took 111.6)."""
    model, ontology = write(tmp / "tree1000.fm", tree(1000, 50)), tmp / "tree1000.ofn"
    read, serialized, built = (tmp / f"tree1000-{name}.ofn" for name in ("read", "serial", "built"))
    compiled = run(tmp, 0, "timeout", "60", *FMC, "compile", model, ontology, stderr=None)[2]
    peaks = [bounded("compile", compiled, 30)]
    out, err, _ = run(tmp, 0, "timeout", "120", sys.executable, "-S", "-c", READ, ontology, read,
                      serialized, stdout=None, stderr=None)
    lines = ontology.read_bytes().count(b"\n")
    expect(int(out) == lines - 3, f"{out.strip()} axioms read from {lines} lines")
    read_peak, peak = (int(kb) / 1024 for kb in err.split())
    peaks += [bounded("read", read_peak, 75), bounded("read with serialize", peak, 85)]
    run(tmp, 0, sys.executable, "-S", "-c", BUILD, model, built)
    for path in read, serialized, built:
        expect(path.read_bytes() == ontology.read_bytes(), f"{path.name} differs from the compile")
    return ", ".join(peaks)


CHECKS = [golden_ontology, every_other_command, flat_20000, chain_40000, tree_4000,
          million_features, validate_200000, alternative_200000, half_million_axioms]


def main() -> int:
    os.chdir(Path(__file__).resolve().parent.parent)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for check in CHECKS:
            start, peaks, problem = time.perf_counter(), None, None
            try:
                peaks = check(Path(tmp))
            except Failed as exc:
                problem = str(exc)
            except Exception:  # reported; the other checks still run
                problem = traceback.format_exc()
            failed += problem is not None
            seconds = time.perf_counter() - start
            print(f"{'FAIL' if problem else 'ok':4} {check.__name__:20} {seconds:5.1f} s",
                  peaks or "", flush=True)
            if problem:
                print("    " + problem.rstrip().replace("\n", "\n    "), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
