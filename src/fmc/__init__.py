"""Feature-model compiler.

Parse textual feature models, emit OWL 2 ontologies, analyze consistency
with a built-in satisfiability procedure, and generate framework-neutral
web-application scaffolds.

The OWL side (``compiler``, ``owl``, ``scaffold``) loads on first use of
one of its names, so analysis alone does not pay for importing it.
"""

from importlib import import_module

from .analysis import (
    ENUMERATION_CAP,
    EnumerationCapError,
    VoidModelError,
    analyze,
    check_consistency,
    count_configurations,
    dead_features,
    solve,
)
from .dsl import ParseError, parse, parse_configuration, parse_file, to_source
from .model import (
    Attribute,
    CrossTreeConstraint,
    Feature,
    FeatureModel,
    Group,
    ModelError,
    UnknownFeatureError,
    validate,
)
from .propositional import (
    PropositionalFormula,
    Violation,
    is_valid_configuration,
    satisfies,
    to_propositional,
)

__version__ = "0.1.0"

# Submodule -> the names it exports, resolved by __getattr__ (PEP 562).
_LAZY = {
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


__all__ = [
    "ENUMERATION_CAP",
    "Attribute",
    "Category",
    "CompileError",
    "CrossTreeConstraint",
    "DEFAULT_TRIGGERS",
    "EnumerationCapError",
    "Feature",
    "FeatureModel",
    "FormField",
    "FormSpec",
    "Group",
    "ModelError",
    "Ontology",
    "OwlError",
    "OwlSyntaxError",
    "ParseError",
    "Predicate",
    "PropositionalFormula",
    "ScaffoldError",
    "SiteScaffold",
    "UndeclaredNameError",
    "UnknownFeatureError",
    "UnsupportedConstructError",
    "Violation",
    "VoidModelError",
    "analyze",
    "check_consistency",
    "compile_model",
    "count_configurations",
    "dead_features",
    "default_iri",
    "generate",
    "is_valid_configuration",
    "load_triggers",
    "parse",
    "parse_configuration",
    "parse_file",
    "parse_functional",
    "parse_functional_file",
    "satisfies",
    "serialize_functional",
    "solve",
    "to_propositional",
    "to_source",
    "validate",
    "validate_ontology",
    "write_functional",
    "write_phase1",
    "write_phase2",
]
