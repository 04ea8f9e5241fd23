import json
import os
import random

import pytest

from fmc.compiler import compile_model
from fmc.dsl import parse
from fmc.model import GroupKind
from fmc import owl
from fmc.owl import Declaration, DisjointClasses, EntityKind, Ontology, parse_functional, serialize_functional
from fmc.scaffold import (
    DEFAULT_TRIGGERS,
    Category,
    FormField,
    FormSpec,
    Predicate,
    ScaffoldError,
    SiteScaffold,
    generate,
    load_triggers,
    normalize_triggers,
    write,
    write_phase1,
    write_phase2,
)

from helpers import random_model, random_tree


def scaffold_for(source, **kwargs):
    return generate(compile_model(parse(source)), **kwargs)


def by_name(items):
    return {item.name: item for item in items}


def test_aisco_categories_and_predicates(aisco_ontology):
    scaffold = generate(aisco_ontology)
    declared_classes = sum(1 for a in aisco_ontology.axioms
                           if isinstance(a, Declaration) and a.kind is EntityKind.CLASS)
    declared_props = sum(1 for a in aisco_ontology.axioms
                         if isinstance(a, Declaration)
                         and a.kind is EntityKind.OBJECT_PROPERTY)
    assert len(scaffold.categories) == declared_classes == 26
    assert len(scaffold.predicates) == declared_props == 13
    assert scaffold.site == "AISCO"

    categories = by_name(scaffold.categories)
    assert not categories["ProgramData"].is_rule_class
    assert categories["ProgramDataRule"].is_rule_class

    predicates = by_name(scaffold.predicates)
    assert predicates["hasDonor"] == Predicate("hasDonor", ("MemberNotification",), ("Donor",))
    assert predicates["hasProgramData"] == Predicate(
        "hasProgramData", ("AISCO",), ("ProgramData",))
    assert predicates["hasAISCO"] == Predicate("hasAISCO", (), ("AISCO",))


def test_skip_rule_classes(aisco_ontology):
    scaffold = generate(aisco_ontology, include_rule_classes=False)
    assert len(scaffold.categories) == 13
    assert all(not c.is_rule_class for c in scaffold.categories)
    assert len(scaffold.predicates) == 13  # predicates are kept
    assert {f.category for f in scaffold.forms} == {c.name for c in scaffold.categories}


def test_rule_detection_is_structural_not_name_based():
    # 'DataRule' is an ordinary feature here, so its class must not be
    # treated as a rule class; the actual rule classes are XRule/DataRuleRule.
    scaffold = scaffold_for("feature X { optional DataRule }")
    categories = by_name(scaffold.categories)
    assert not categories["DataRule"].is_rule_class
    assert categories["XRule"].is_rule_class
    assert categories["DataRuleRule"].is_rule_class


def test_or_group_pins_no_domain():
    scaffold = scaffold_for("feature A { or { B C } }")
    predicates = by_name(scaffold.predicates)
    assert predicates["hasB"].valid_from == ()
    assert predicates["hasC"].valid_from == ()


def test_total_field_gets_sum_trigger(aisco_ontology):
    scaffold = generate(aisco_ontology)
    forms = {f.category: f for f in scaffold.forms}
    donation = forms["DonationData"]
    assert [(f.name, f.datatype, f.business_logic) for f in donation.fields] == [
        ("total", "decimal", "Sum")]
    assert forms["AISCO"].fields == ()


def test_trigger_matching_is_exact_and_case_insensitive():
    scaffold = scaffold_for(
        "feature A { attribute ToTaL : decimal attribute notes : string "
        "attribute totals : integer attribute Average : decimal }")
    fields = {f.name: f for form in scaffold.forms for f in form.fields}
    assert fields["ToTaL"].business_logic == "Sum"
    assert fields["notes"].business_logic is None
    assert fields["totals"].business_logic is None  # exact match only
    assert fields["Average"].business_logic == "Average"


def test_custom_registry():
    scaffold = scaffold_for("feature A { attribute amount : decimal }",
                            registry={"amount": "Count"})
    field = scaffold.forms[0].fields[0]
    assert field.business_logic == "Count"


def test_registry_validation():
    with pytest.raises(ScaffoldError, match="unknown trigger kind"):
        normalize_triggers({"total": "Max"})
    with pytest.raises(ScaffoldError, match="duplicate trigger pattern"):
        normalize_triggers({"Total": "Sum", "total": "Count"})
    assert normalize_triggers(DEFAULT_TRIGGERS) == DEFAULT_TRIGGERS


def test_registry_errors_clip_long_kinds_and_patterns():
    expected = "(expected one of Sum, Count, Average)"
    nested = []
    for _ in range(200):
        nested = [nested]
    with pytest.raises(ScaffoldError) as exc:
        normalize_triggers({"total": nested})
    assert str(exc.value) == f"unknown trigger kind {'[' * 40}... for 'total' {expected}"
    with pytest.raises(ScaffoldError) as exc:
        normalize_triggers({"total": "Max" * 50})
    assert str(exc.value) == f"unknown trigger kind '{'Max' * 13}... for 'total' {expected}"
    pattern = "Total" * 20
    with pytest.raises(ScaffoldError) as exc:
        normalize_triggers({pattern: "Max"})
    assert str(exc.value) == f"unknown trigger kind 'Max' for '{pattern[:40]}...' {expected}"
    with pytest.raises(ScaffoldError) as exc:
        normalize_triggers({pattern: "Sum", pattern.upper(): "Sum"})
    assert str(exc.value) == (f"duplicate trigger pattern '{pattern.lower()[:40]}...' "
                              "(case-insensitive)")


def test_load_triggers(tmp_path):
    path = tmp_path / "triggers.json"
    path.write_text('{"Amount": "Sum"}', encoding="utf-8")
    assert load_triggers(path) == {"amount": "Sum"}
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ScaffoldError, match="JSON object"):
        load_triggers(path)
    path.write_text("{nope", encoding="utf-8")
    with pytest.raises(ScaffoldError, match="invalid JSON"):
        load_triggers(path)


def test_empty_ontology_yields_empty_scaffold():
    scaffold = generate(Ontology("http://example.org/x#", ()))
    assert scaffold == SiteScaffold("site", (), (), ())


def test_form_fields_keep_declaration_order_across_categories():
    from fmc.owl import DataPropertyDomain, DataPropertyRange, NamedClass

    # the data properties of A and B alternate in declaration order
    props = (("a1", "A"), ("b1", "B"), ("a2", "A"), ("b2", "B"), ("total", "A"))
    axioms = (Declaration(EntityKind.CLASS, "A"), Declaration(EntityKind.CLASS, "B"))
    for name, domain in props:
        axioms += (Declaration(EntityKind.DATA_PROPERTY, name),
                   DataPropertyDomain(name, NamedClass(domain)),
                   DataPropertyRange(name, "xsd:integer"))
    forms = generate(Ontology("http://example.org/x#", axioms)).forms
    assert forms == (
        FormSpec("A", (FormField("a1", "integer"), FormField("a2", "integer"),
                       FormField("total", "integer", "Sum"))),
        FormSpec("B", (FormField("b1", "integer"), FormField("b2", "integer"))),
    )


def test_generate_rejects_invalid_ontology():
    from fmc.owl import NamedClass, SubClassOf, UndeclaredNameError

    with pytest.raises(UndeclaredNameError, match="not declared"):
        broken = Ontology("http://example.org/x#",
                          (SubClassOf(NamedClass("A"), NamedClass("B")),))
        generate(broken)


def test_counts_match_declarations_on_random_models():
    rng = random.Random(2024)
    for _ in range(30):
        model = random_model(rng, allow_attributes=True)
        ontology = compile_model(model)
        scaffold = generate(ontology)
        classes = [a for a in ontology.axioms if isinstance(a, Declaration)
                   and a.kind is EntityKind.CLASS]
        props = [a for a in ontology.axioms if isinstance(a, Declaration)
                 and a.kind is EntityKind.OBJECT_PROPERTY]
        assert len(scaffold.categories) == len(classes)
        assert len(scaffold.predicates) == len(props)
        assert [c.name for c in scaffold.categories] == [a.name for a in classes]


def test_disjointness_axioms_do_not_change_the_site(aisco_ontology):
    rng = random.Random(8)
    models = [random_model(rng, allow_attributes=True) for _ in range(30)]
    for ontology in [aisco_ontology, *map(compile_model, models)]:
        without = Ontology(ontology.iri, tuple(
            a for a in ontology.axioms if not isinstance(a, DisjointClasses)))
        assert generate(without) == generate(ontology)


def test_scaffold_invariants_enforced():
    with pytest.raises(ScaffoldError, match="duplicate category"):
        SiteScaffold("s", (Category("A", False), Category("A", True)), (), ())
    with pytest.raises(ScaffoldError, match="unknown category"):
        SiteScaffold("s", (Category("A", False),),
                     (Predicate("p", ("Ghost",), ("A",)),), ())
    with pytest.raises(ScaffoldError, match="duplicate predicate"):
        SiteScaffold("s", (Category("A", False),),
                     (Predicate("p", (), ()), Predicate("p", (), ())), ())
    with pytest.raises(ScaffoldError, match="form for unknown category"):
        SiteScaffold("s", (), (), (FormSpec("Ghost", ()),))
    with pytest.raises(ScaffoldError, match="duplicate form fields on 'A'"):
        SiteScaffold("s", (Category("A", False),), (), (FormSpec(
            "A", (FormField("x", "string"), FormField("x", "integer"))),))


def test_write_phase1_schema(tmp_path, aisco_ontology):
    scaffold = generate(aisco_ontology)
    (written,) = write_phase1(scaffold, tmp_path)
    text = written.read_text(encoding="utf-8")
    data = json.loads(text)
    assert text == json.dumps(data, indent=2) + "\n"
    assert list(data) == ["site", "categories", "predicates"]
    assert data["site"] == "AISCO"
    assert {"name": "AISCORule", "is_rule_class": True} in data["categories"]
    assert {"name": "hasDonor", "valid_from": ["MemberNotification"],
            "valid_to": ["Donor"]} in data["predicates"]


def test_write_phase2_templates(tmp_path, aisco_ontology):
    scaffold = generate(aisco_ontology)
    written = write_phase2(scaffold, tmp_path)
    assert len(written) == len(scaffold.categories)
    donation = (tmp_path / "templates" / "DonationData_form.tpl.txt").read_text()
    assert donation == ("# form for category: DonationData\n"
                        "field: total (decimal) [read-only, computed: Sum]\n")
    empty = (tmp_path / "templates" / "Donor_form.tpl.txt").read_text()
    assert empty == "# form for category: Donor\n"


def test_write_refuses_overwrite_without_flag(tmp_path, aisco_ontology):
    scaffold = generate(aisco_ontology)
    write_phase1(scaffold, tmp_path)
    with pytest.raises(ScaffoldError, match="refusing to overwrite"):
        write_phase1(scaffold, tmp_path)
    write_phase1(scaffold, tmp_path, overwrite=True)
    write_phase2(scaffold, tmp_path)
    with pytest.raises(ScaffoldError, match="refusing to overwrite"):
        write_phase2(scaffold, tmp_path)
    write_phase2(scaffold, tmp_path, overwrite=True)


def test_a_refusal_names_three_files_and_counts_the_rest(tmp_path, aisco_ontology):
    scaffold = generate(aisco_ontology)
    written = write(scaffold, tmp_path)
    assert len(written) == 27
    shown = ", ".join(map(str, written[:3]))
    with pytest.raises(ScaffoldError) as info:
        write(scaffold, tmp_path)
    assert str(info.value) == (f"refusing to overwrite 27 existing file(s): {shown} and 24 more "
                               "(pass overwrite to replace)")
    with pytest.raises(ScaffoldError) as info:
        write_phase1(scaffold, tmp_path)
    assert str(info.value) == (f"refusing to overwrite 1 existing file(s): {written[0]} "
                               "(pass overwrite to replace)")


@pytest.mark.parametrize("clash", [0, 1, 26], ids=["install-data", "first-template", "last-template"])
def test_a_refused_write_writes_nothing(tmp_path, aisco_ontology, clash):
    scaffold = generate(aisco_ontology)
    target = write(scaffold, tmp_path / "model")[clash].relative_to(tmp_path / "model")
    site = tmp_path / "site"
    (site / target).parent.mkdir(parents=True, exist_ok=True)
    (site / target).write_text("kept")
    with pytest.raises(ScaffoldError) as info:
        write(scaffold, site)
    assert str(info.value) == (f"refusing to overwrite 1 existing file(s): {site / target} "
                               "(pass overwrite to replace)")
    assert [p for p in site.rglob("*") if p.is_file()] == [site / target]
    assert (site / target).read_text() == "kept"
    assert len(write(scaffold, site, overwrite=True)) == 27


def test_an_unrelated_file_in_templates_is_left_as_it_is(tmp_path, aisco_ontology):
    scaffold = generate(aisco_ontology)
    other = tmp_path / "templates" / "notes.txt"
    other.parent.mkdir()
    other.write_text("kept")
    written = write(scaffold, tmp_path)
    assert len(written) == 27
    assert sorted(p for p in tmp_path.rglob("*") if p.is_file()) == sorted([*written, other])
    assert other.read_text() == "kept"


def test_a_dangling_link_named_like_a_template_is_refused(tmp_path, aisco_ontology):
    # a write through it would create the link's target, outside the site
    scaffold = generate(aisco_ontology)
    site, outside = tmp_path / "site", tmp_path / "outside.txt"
    link = site / "templates" / "Donor_form.tpl.txt"
    link.parent.mkdir(parents=True)
    link.symlink_to(outside)
    with pytest.raises(ScaffoldError) as info:
        write(scaffold, site)
    assert str(info.value) == (f"refusing to overwrite 1 existing file(s): {link} "
                               "(pass overwrite to replace)")
    assert sorted(site.rglob("*")) == [link.parent, link]
    assert not os.path.lexists(outside)


def test_a_template_made_after_the_check_is_not_replaced(tmp_path, aisco_ontology, monkeypatch):
    scaffold = generate(aisco_ontology)
    target = write(scaffold, tmp_path / "model")[-1].relative_to(tmp_path / "model")
    site = tmp_path / "site"
    (site / target).parent.mkdir(parents=True)
    (site / target).write_text("kept")
    # the listing misses the file, as it would one made just after it
    monkeypatch.setattr(os, "listdir", lambda path: [])
    with pytest.raises(FileExistsError) as info:
        write(scaffold, site)
    assert info.value.filename == str(site / target)
    assert (site / target).read_text() == "kept"


def test_an_install_file_made_after_the_check_is_not_replaced(tmp_path, aisco_ontology,
                                                              monkeypatch):
    scaffold = generate(aisco_ontology)
    install = tmp_path / "install_data.json"
    install.write_text("kept")
    monkeypatch.setattr(os.path, "lexists", lambda path: False)  # the check misses it
    with pytest.raises(ScaffoldError) as info:
        write(scaffold, tmp_path)
    assert str(info.value) == (f"refusing to overwrite 1 existing file(s): {install} "
                               "(pass overwrite to replace)")
    assert install.read_text() == "kept"


def test_a_write_into_a_fresh_directory_looks_up_no_template(tmp_path, monkeypatch):
    # 600 features: 1200 categories, each target looked up on its own
    # took 1201 lookups
    model = parse("feature Root {" + "".join(f" optional F{i}" for i in range(599)) + " }")
    scaffold = generate(compile_model(model))
    lexists, lookups = os.path.lexists, []
    monkeypatch.setattr(os.path, "lexists", lambda path: lookups.append(path) or lexists(path))
    assert len(write(scaffold, tmp_path / "site")) == 1201
    assert len(lookups) <= 1


def test_writes_are_deterministic(tmp_path, aisco_ontology):
    scaffold = generate(aisco_ontology)
    write_phase1(scaffold, tmp_path / "one")
    write_phase2(scaffold, tmp_path / "one")
    write_phase1(scaffold, tmp_path / "two")
    write_phase2(scaffold, tmp_path / "two")
    first = (tmp_path / "one" / "install_data.json").read_bytes()
    assert first == (tmp_path / "two" / "install_data.json").read_bytes()
    for path in sorted((tmp_path / "one" / "templates").iterdir()):
        twin = tmp_path / "two" / "templates" / path.name
        assert path.read_bytes() == twin.read_bytes()


def test_zotonic_notes_flavor(tmp_path, aisco_ontology):
    scaffold = generate(aisco_ontology)
    (install,) = write_phase1(scaffold, tmp_path, zotonic_notes=True)
    data = json.loads(install.read_text(encoding="utf-8"))
    assert list(data)[0] == "_note" and "Zotonic" in data["_note"]
    write_phase2(scaffold, tmp_path, zotonic_notes=True)
    text = (tmp_path / "templates" / "AISCO_form.tpl.txt").read_text()
    assert text.splitlines()[0] == "# mirrors a Zotonic admin edit template for AISCO"


def test_a_read_ontology_is_scaffolded_without_building_its_block(monkeypatch):
    # the block of a read ontology, 44,850 pairs of 300 classes, is skipped
    # whole: no DisjointClasses is built. So are the compile's blocks, its
    # alternative groups' too
    model = random_tree(random.Random("scaffold"), 300, 10)
    assert GroupKind.ALTERNATIVE in {g.kind for g in model.groups}
    text = serialize_functional(compile_model(model))

    def unbuilt(block):
        raise AssertionError("the block's axioms were built")

    monkeypatch.setattr(owl._PairBlock, "__iter__", unbuilt)
    expected = generate(compile_model(model))
    assert generate(parse_functional(text)) == expected
