"""Command-line driver: parse, compile, analyze, validate, scaffold.

Exit codes: 0 success; 1 input/parse errors (missing file, DSL syntax,
unknown feature in a configuration); 2 compile, write, or cap errors,
and a stdout closed before the report is written;
3 void model from `check`; 4 invalid configuration from `validate`;
130 interrupted (Ctrl-C), with one `error: interrupted` line and no traceback.
Reports go to stdout (JSON with --json), logs and errors to stderr.

Each command imports only what it runs: every command the DSL reader
(`dsl`, `lexer`, `model`) and `propositional`; `check` and `count` add
`analysis`; `compile` and `scaffold` add the OWL side (`compiler`, `owl`,
and for `scaffold` also `scaffold`). `json` writes every JSON report and
is imported only by `check --json`, `validate --json`, `count --json` and
`scaffold`, and `typing`, `dataclasses` and `inspect` by none.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .dsl import ParseError, parse, parse_configuration
from .lexer import read_source
from .model import FeatureModel, ModelError, UnknownFeatureError
from .propositional import is_valid_configuration

TRIGGERS_ENV = "FMC_TRIGGERS"


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read(path: str) -> str:
    try:
        return read_source(path)
    except OSError as exc:
        raise _Failure(1, f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise _Failure(1, f"{path}: {exc}") from exc


def _load_model(path: str) -> FeatureModel:
    source = _read(path)
    try:
        return parse(source)
    except (ParseError, ModelError) as exc:
        raise _Failure(1, f"{path}: {exc}") from exc


def _compile(args):
    """The ontology of the input model; a compile error exits 2."""
    from . import compiler
    model = _load_model(args.input)
    try:
        return compiler.compile_model(model, args.iri)
    except compiler.CompileError as exc:
        raise _Failure(2, f"{args.input}: {exc}") from exc


def cmd_compile(args) -> int:
    from . import owl
    ontology = _compile(args)
    try:
        owl.write_functional(ontology, args.output)
    except OSError as exc:
        raise _Failure(2, f"{args.output}: {exc.strerror or exc}") from exc
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    from . import analysis
    model = _load_model(args.input)
    report = analysis.analyze(model)
    if args.json:
        import json
        print(json.dumps(report, indent=2))
    else:
        print("consistent: " + ("yes" if report["consistent"] else "no (void model)"))
        dead = report["dead_features"]
        print("dead features: " + (", ".join(dead) if dead else "none"))
        count = report["configuration_count"]
        print("configurations: " + (str(count) if count is not None
                                    else f"not counted (over {analysis.ENUMERATION_CAP} features)"))
    return 0 if report["consistent"] else 3


def cmd_validate(args) -> int:
    model = _load_model(args.input)
    selected = parse_configuration(_read(args.config))
    try:
        valid, violations = is_valid_configuration(model, selected)
    except UnknownFeatureError as exc:
        raise _Failure(1, f"{args.config}: {exc}") from exc
    if args.json:
        import json
        print(json.dumps({
            "valid": valid,
            "violations": [
                {"rule": v.rule, "features": list(v.features), "message": v.message}
                for v in violations],
        }, indent=2))
    else:
        if valid:
            print("configuration is valid")
        else:
            for v in violations:
                print(v.message)
    return 0 if valid else 4


def cmd_count(args) -> int:
    from . import analysis
    model = _load_model(args.input)
    try:
        count = analysis.count_configurations(model)
    except analysis.EnumerationCapError as exc:
        raise _Failure(2, f"{args.input}: {exc}") from exc
    if args.json:
        import json
        print(json.dumps({"configuration_count": count}))
    else:
        print(count)
    return 0


def cmd_scaffold(args) -> int:
    from . import scaffold
    ontology = _compile(args)
    registry = None
    triggers_path = os.environ.get(TRIGGERS_ENV)
    if triggers_path:
        try:
            registry = scaffold.load_triggers(triggers_path)
        except OSError as exc:
            raise _Failure(2, f"{triggers_path}: {exc.strerror or exc}") from exc
        except scaffold.ScaffoldError as exc:
            raise _Failure(2, f"{triggers_path}: {exc}") from exc
    zotonic_notes = args.flavor == "zotonic-notes"
    try:
        site = scaffold.generate(ontology, registry,
                                 include_rule_classes=not args.skip_rule_classes)
        written = scaffold.write(site, args.outdir, args.overwrite, zotonic_notes)
    except OSError as exc:
        raise _Failure(2, f"{exc.filename or args.outdir}: {exc.strerror or exc}") from exc
    except scaffold.ScaffoldError as exc:
        raise _Failure(2, str(exc)) from exc
    # one write, where a print per line is one system call each on a
    # line-buffered stderr
    sys.stderr.write("".join(f"wrote {path}\n" for path in written))
    return 0


@functools.cache  # built once per process, however many commands main runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmc",
        description="Feature-model compiler: OWL 2 ontologies, consistency "
                    "analysis, and web-app scaffolds from textual feature models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a feature model to an OWL ontology")
    p.add_argument("input", help="feature model (.fm)")
    p.add_argument("output", help="ontology output path (.ofn)")
    p.add_argument("--iri", help="ontology IRI (default http://example.org/spl/<root>#)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("check", help="consistency, dead features, configuration count")
    p.add_argument("input", help="feature model (.fm)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("validate", help="validate a configuration against a model")
    p.add_argument("input", help="feature model (.fm)")
    p.add_argument("config", help="configuration file, one feature name per line")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("count", help="count valid configurations")
    p.add_argument("input", help="feature model (.fm)")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("scaffold", help="generate a web-app scaffold from a model")
    p.add_argument("input", help="feature model (.fm)")
    p.add_argument("outdir", help="output directory")
    p.add_argument("--iri", help="ontology IRI (default http://example.org/spl/<root>#)")
    p.add_argument("--skip-rule-classes", action="store_true",
                   help="omit rule classes from the generated categories")
    p.add_argument("--flavor", choices=["zotonic-notes"],
                   help="annotate outputs with framework-mapping notes")
    p.add_argument("--overwrite", action="store_true",
                   help="replace existing output files")
    p.set_defaults(func=cmd_scaffold)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return code
    except _Failure as failure:
        print(f"error: {failure.message}", file=sys.stderr)
        return failure.code
    except BrokenPipeError:
        # the reader left early (`fmc ... | head`): what is still buffered
        # goes to the null device, so the flush at exit raises nothing more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    except KeyboardInterrupt:
        # the shell's code for SIGINT; a compile's output path is opened
        # only once its whole text is rendered, so an interrupt before
        # then leaves it as it was
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
