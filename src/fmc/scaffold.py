"""Ontology to web-application scaffold mapping.

Phase 1 maps each declared OWL class to a site category and each object
property to a typed predicate (valid_from/valid_to rules); phase 2 maps
datatype properties to form fields on their domain category's template.
Field names matching the trigger registry (exact, case-insensitive) get a
business-logic annotation such as Sum.

The output is framework-neutral JSON plus template stubs; the
zotonic_notes flag adds header notes naming the framework artifact each
file mirrors.
"""

from __future__ import annotations

import json
import os
from itertools import chain
from pathlib import Path

from .model import _value
from .owl import (
    DataPropertyDomain,
    DataPropertyRange,
    Declaration,
    EntityKind,
    EquivalentClasses,
    NamedClass,
    ObjectPropertyRange,
    Ontology,
    SomeValuesFrom,
    SubClassOf,
    _is_block,
)

TRIGGER_KINDS = ("Sum", "Count", "Average")
DEFAULT_TRIGGERS = {"total": "Sum", "count": "Count", "average": "Average"}


class ScaffoldError(Exception):
    pass


@_value
class Category:
    name: str
    is_rule_class: bool


@_value
class Predicate:
    name: str
    valid_from: tuple[str, ...]  # empty = unrestricted
    valid_to: tuple[str, ...]


@_value
class FormField:
    name: str
    datatype: str
    business_logic: str | None = None


@_value
class FormSpec:
    category: str
    fields: tuple[FormField, ...]


@_value
class SiteScaffold:
    site: str
    categories: tuple[Category, ...]
    predicates: tuple[Predicate, ...]
    forms: tuple[FormSpec, ...]

    def __post_init__(self):
        names = [c.name for c in self.categories]
        if len(set(names)) != len(names):
            raise ScaffoldError("duplicate category names")
        known = set(names)
        seen_predicates = set()
        for p in self.predicates:
            if p.name in seen_predicates:
                raise ScaffoldError(f"duplicate predicate '{p.name}'")
            seen_predicates.add(p.name)
            for cat in (*p.valid_from, *p.valid_to):
                if cat not in known:
                    raise ScaffoldError(
                        f"predicate '{p.name}' references unknown category '{cat}'")
        for form in self.forms:
            if form.category not in known:
                raise ScaffoldError(f"form for unknown category '{form.category}'")
            field_names = [f.name for f in form.fields]
            if len(set(field_names)) != len(field_names):
                raise ScaffoldError(f"duplicate form fields on '{form.category}'")


# a pattern or kind quoted in an error is cut to this many characters
_QUOTE_LIMIT = 40


def _clip(text: str) -> str:
    return text if len(text) <= _QUOTE_LIMIT else text[:_QUOTE_LIMIT] + "..."


def normalize_triggers(registry: dict) -> dict[str, str]:
    """Lowercase the patterns and check the logic kinds."""
    normalized: dict[str, str] = {}
    for pattern, kind in registry.items():
        key = str(pattern).lower()
        if key in normalized:
            raise ScaffoldError(f"duplicate trigger pattern '{_clip(key)}' (case-insensitive)")
        if kind not in TRIGGER_KINDS:
            raise ScaffoldError(
                f"unknown trigger kind {_clip(repr(kind))} for '{_clip(str(pattern))}' "
                f"(expected one of {', '.join(TRIGGER_KINDS)})")
        normalized[key] = kind
    return normalized


def load_triggers(path) -> dict[str, str]:
    """Read a JSON trigger registry: {"pattern": "Sum" | "Count" | "Average"}.

    Errors (OSError, ScaffoldError) leave naming the path to the caller.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ScaffoldError(str(exc)) from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed text, or an integer over the digit limit;
        # RecursionError: arrays or objects nested too deeply
        raise ScaffoldError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScaffoldError("trigger registry must be a JSON object")
    return normalize_triggers(raw)


def generate(ontology: Ontology, registry: dict[str, str] | None = None,
             include_rule_classes: bool = True) -> SiteScaffold:
    """Map an ontology in the compiler's output shape to a SiteScaffold.

    One category per declared class; one predicate per object property
    with valid_to from its range axiom and valid_from from direct
    SubClassOf(C, someValuesFrom(P, _)) restrictions, where a rule class C
    is resolved to its feature class via the C ≡ ∃hasF.F equivalence.
    One form per category with a field per datatype property on it.

    DisjointClasses axioms and an alternative group's pairwise exclusions
    are never read, so an ontology without them gives the same scaffold.
    A compiled ontology holds both as blocks (``fmc.owl._PairBlock``), and
    a read one its DisjointClasses block. A block is skipped whole, without
    building its axioms, so ``fmc scaffold`` maps the ontology that ``fmc
    compile`` writes and builds the pairs of neither block.
    """
    triggers = normalize_triggers(DEFAULT_TRIGGERS if registry is None else registry)

    declared: dict[EntityKind, list[str]] = {kind: [] for kind in EntityKind}
    feature_of: dict[str, str] = {}  # C ≡ ∃P.F marks C as the rule class for F
    ranges: dict[str, str] = {}
    uses: list[tuple[str, str]] = []  # (C, P) per SubClassOf(C, ∃P.X)
    field_domain: dict[str, str] = {}
    field_type: dict[str, str] = {}
    values = (batch for batch in ontology.axioms._batches if not _is_block(batch))
    for axiom in chain.from_iterable(values):
        if isinstance(axiom, Declaration):
            declared[axiom.kind].append(axiom.name)
        elif isinstance(axiom, SubClassOf):
            # unions/complements never pin a domain, only direct existentials
            if isinstance(axiom.sub, NamedClass) and isinstance(axiom.sup, SomeValuesFrom):
                uses.append((axiom.sub.name, axiom.sup.property))
        elif isinstance(axiom, EquivalentClasses):
            for named, expr in ((axiom.a, axiom.b), (axiom.b, axiom.a)):
                if (isinstance(named, NamedClass) and isinstance(expr, SomeValuesFrom)
                        and isinstance(expr.filler, NamedClass)):
                    feature_of.setdefault(named.name, expr.filler.name)
        elif isinstance(axiom, ObjectPropertyRange):
            if not isinstance(axiom.range, NamedClass):
                raise ScaffoldError(
                    f"range of '{axiom.property}' must be a named class")
            ranges.setdefault(axiom.property, axiom.range.name)
        elif isinstance(axiom, DataPropertyDomain):
            field_domain.setdefault(axiom.property, axiom.domain.name)
        elif isinstance(axiom, DataPropertyRange):
            field_type.setdefault(axiom.property, axiom.datatype.removeprefix("xsd:"))

    classes = declared[EntityKind.CLASS]
    properties = declared[EntityKind.OBJECT_PROPERTY]
    # dicts as ordered sets: axiom order, no duplicates
    domains: dict[str, dict[str, None]] = {p: {} for p in properties}
    for cls, prop in uses:
        domains[prop][feature_of.get(cls, cls)] = None

    categories = tuple(
        Category(name, name in feature_of)
        for name in classes
        if include_rule_classes or name not in feature_of)
    predicates = tuple(
        Predicate(p, tuple(domains[p]),
                  (ranges[p],) if p in ranges else ())
        for p in properties)

    fields_of: dict[str | None, list[FormField]] = {}
    for name in declared[EntityKind.DATA_PROPERTY]:
        fields_of.setdefault(field_domain.get(name), []).append(
            FormField(name, field_type.get(name, "string"), triggers.get(name.lower())))
    forms = tuple(FormSpec(c.name, tuple(fields_of.get(c.name, ()))) for c in categories)

    site = classes[0] if classes else "site"
    return SiteScaffold(site, categories, predicates, forms)


# a refusal names at most this many of the existing files, and counts the rest
_NAMED_FILES = 3


def _refusal(existing: list[str]) -> ScaffoldError:
    named = ", ".join(existing[:_NAMED_FILES])
    if len(existing) > _NAMED_FILES:
        named += f" and {len(existing) - _NAMED_FILES} more"
    return ScaffoldError(
        f"refusing to overwrite {len(existing)} existing file(s): {named} "
        "(pass overwrite to replace)")


def _prepare(paths: list[Path]) -> None:
    # lexists: a dangling symbolic link exists too, and a write
    # through it would create its target, wherever that is
    existing = [str(p) for p in paths if os.path.lexists(p)]
    if existing:
        raise _refusal(existing)


def _create(path, text: str, overwrite: bool, dir_fd: int | None = None) -> None:
    """Write text to path in three system calls: open, write (again only
    after a short write), close. Without overwrite the file must be new
    (``O_EXCL``, which also refuses a dangling link), so an existing file
    raises FileExistsError and is never replaced."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if overwrite else os.O_EXCL),
                 0o666, dir_fd=dir_fd)
    try:
        data = text.encode("utf-8")
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _phase1_target(outdir) -> Path:
    return Path(outdir) / "install_data.json"


def _phase2_targets(scaffold: SiteScaffold, outdir) -> list[Path]:
    templates = Path(outdir) / "templates"
    return [templates / f"{c.name}_form.tpl.txt" for c in scaffold.categories]


def write(scaffold: SiteScaffold, outdir, overwrite: bool = False,
          zotonic_notes: bool = False) -> list[Path]:
    """Write both phases. Every target is checked, and both directories
    made, before any file is written, so a refusal writes no file.

    Phase 2 is written first: it checks all its targets before it writes
    any, so they are built once, there. Phase 1's one target is checked
    here; a refusal counts the existing targets of both phases. Without
    overwrite every file is created new, so one that appears after the
    check is not replaced either.
    """
    install = _phase1_target(outdir)
    if not overwrite and os.path.lexists(install):
        _prepare([install, *_phase2_targets(scaffold, outdir)])
    for directory in (Path(outdir), Path(outdir) / "templates"):
        directory.mkdir(parents=True, exist_ok=True)
    templates = write_phase2(scaffold, outdir, overwrite, zotonic_notes)
    return write_phase1(scaffold, outdir, overwrite, zotonic_notes) + templates


def write_phase1(scaffold: SiteScaffold, outdir, overwrite: bool = False,
                 zotonic_notes: bool = False) -> list[Path]:
    """Write install_data.json: categories, predicates, and their rules."""
    Path(outdir).mkdir(parents=True, exist_ok=True)
    target = _phase1_target(outdir)
    document: dict = {}
    if zotonic_notes:
        document["_note"] = ("mirrors a Zotonic site's priv/install_data: "
                             "categories and predicates with valid_from/valid_to rules")
    document["site"] = scaffold.site
    document["categories"] = [
        {"name": c.name, "is_rule_class": c.is_rule_class} for c in scaffold.categories]
    document["predicates"] = [
        {"name": p.name, "valid_from": list(p.valid_from), "valid_to": list(p.valid_to)}
        for p in scaffold.predicates]
    try:
        _create(target, json.dumps(document, indent=2) + "\n", overwrite)
    except FileExistsError:
        raise _refusal([str(target)]) from None
    return [target]


def write_phase2(scaffold: SiteScaffold, outdir, overwrite: bool = False,
                 zotonic_notes: bool = False) -> list[Path]:
    """Write one templates/<category>_form.tpl.txt stub per category.

    The files are created in the directory opened once, by name. Without
    overwrite, an empty directory is checked with one listing; any other
    is checked a target at a time, which also finds a dangling link or,
    on a case-insensitive file system, a name that differs in case."""
    templates = Path(outdir) / "templates"
    templates.mkdir(parents=True, exist_ok=True)
    fields_by_category = {form.category: form.fields for form in scaffold.forms}
    targets = _phase2_targets(scaffold, outdir)
    directory = os.open(templates, os.O_RDONLY | os.O_DIRECTORY)
    try:
        if not overwrite and os.listdir(directory):
            _prepare(targets)
        for category, target in zip(scaffold.categories, targets):
            lines = []
            if zotonic_notes:
                lines.append(f"# mirrors a Zotonic admin edit template for {category.name}")
            lines.append(f"# form for category: {category.name}")
            for f in fields_by_category.get(category.name, ()):
                line = f"field: {f.name} ({f.datatype})"
                if f.business_logic is not None:
                    line += f" [read-only, computed: {f.business_logic}]"
                lines.append(line)
            try:
                _create(target.name, "\n".join(lines) + "\n", overwrite, directory)
            except OSError as exc:
                exc.filename = str(target)  # not the name relative to the directory
                raise
    finally:
        os.close(directory)
    return targets
