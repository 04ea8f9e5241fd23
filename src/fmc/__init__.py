"""Feature-model compiler.

Parse textual feature models, emit OWL 2 ontologies, analyze consistency
with a built-in satisfiability procedure, and generate framework-neutral
web-application scaffolds.

``import fmc`` loads no submodule: each one, the OWL side (``compiler``,
``owl``, ``scaffold``) as well as ``analysis``, ``dsl``, ``model`` and
``propositional``, loads on first use of one of its names, so a command
pays only for what it runs (see ``fmc.cli``).
"""

from importlib import import_module

__version__ = "0.1.0"

# Submodule -> the names it exports (``__all__``), resolved by __getattr__ (PEP 562).
_LAZY = {
    "analysis": (
        "ENUMERATION_CAP",
        "EnumerationCapError",
        "VoidModelError",
        "analyze",
        "check_consistency",
        "count_configurations",
        "dead_features",
        "solve",
    ),
    "dsl": ("ParseError", "parse", "parse_configuration", "parse_file", "to_source"),
    "lexer": (),  # the readers' shared lexer: a submodule, no name of its own here
    "model": (
        "Attribute",
        "CrossTreeConstraint",
        "Feature",
        "FeatureModel",
        "Group",
        "ModelError",
        "UnknownFeatureError",
        "validate",
    ),
    "propositional": (
        "PropositionalFormula",
        "Violation",
        "is_valid_configuration",
        "satisfies",
        "to_propositional",
    ),
    "compiler": ("CompileError", "compile_model", "default_iri"),
    "owl": (
        "Ontology",
        "OwlError",
        "OwlSyntaxError",
        "UndeclaredNameError",
        "UnsupportedConstructError",
        "parse_functional",
        "parse_functional_file",
        "serialize_functional",
        "validate_ontology",
        "write_functional",
    ),
    "scaffold": (
        "DEFAULT_TRIGGERS",
        "Category",
        "FormField",
        "FormSpec",
        "Predicate",
        "ScaffoldError",
        "SiteScaffold",
        "generate",
        "load_triggers",
        "write_phase1",
        "write_phase2",
    ),
}
_LAZY_SOURCE = {name: module for module, names in _LAZY.items() for name in names}
__all__ = list(_LAZY_SOURCE)


def __getattr__(name):
    if name in _LAZY:
        value = import_module(f"{__name__}.{name}")
    elif name in _LAZY_SOURCE:
        value = getattr(import_module(f"{__name__}.{_LAZY_SOURCE[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY_SOURCE})
