"""Feature-model data structures and structural validation.

A feature model is a tree of named features plus cross-tree constraints.
A child feature is mandatory, optional, or a member of an or/alternative
group owned by its parent. Attributes attach typed data fields to a
feature; they never influence which configurations are valid.

A ``FeatureModel`` validates itself when it is built (``validate``). All
values are immutable after construction and safe to share.

``Feature``, ``Attribute``, ``Group`` and ``CrossTreeConstraint`` are
frozen slotted dataclasses built by ``_value``, as the OWL values are
(``fmc.owl``): a parse builds one ``Feature`` per feature. ``validate``
first compares the types of the names and enum fields for all values at
once, then checks every feature in one pass; a list where a tuple is
declared, or a group id that is not an int, is refused. A field that
building the indexes or a lookup cannot hash or read (a list as a name,
a str where a ``Feature`` belongs) is named by a walk over every field,
run only once that has raised, so it too ends in ``ModelError``. A
parent listed before its child, as every parsed model lists it, links
the child to the root with one set lookup; a feature listed before its
parent falls back to a walk up its parent links after that pass, which
also finds a cycle. The children of each feature are indexed only when
first asked for.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from enum import Enum
from operator import attrgetter

from .lexer import is_name, is_name_lines


def _value(cls):
    """Make cls a frozen slotted dataclass whose ``__init__`` stores each
    field through its slot descriptor (``cls.field.__set__``).

    That skips the ``object.__setattr__`` call a frozen dataclass's own
    ``__init__`` makes per field, about a third of the cost of building a
    two-field value; a parse builds one ``Feature`` per feature, and an
    OWL compile several hundred thousand values. A field may have a
    default value, not a default factory. Fields, defaults, ``repr``,
    equality, hashing and pickling stay the dataclass's own, and
    ``__post_init__`` still runs. Assigning or deleting any attribute
    raises ``FrozenInstanceError``: the dataclass's own ``__setattr__``
    and ``__delattr__`` name the class from before ``slots=True`` rebuilt
    it, and raise ``TypeError`` for a name that is not a field (seen on
    CPython 3.11).
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    params, body, scope = [], [], {}
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a default factory is not supported")
        # the parameters are the field names, so keywords and
        # dataclasses.replace work as before
        if f.default is MISSING:
            params.append(f.name)
        else:
            params.append(f"{f.name}=default_{f.name}")
            scope[f"default_{f.name}"] = f.default
        body.append(f"set_{f.name}(self, {f.name})")
        scope[f"set_{f.name}"] = getattr(cls, f.name).__set__
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    "
         + "\n    ".join(body or ["pass"]), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    cls.__setattr__ = _refuse_assign
    cls.__delattr__ = _refuse_delete
    return cls


def _refuse_assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class Variability(Enum):
    MANDATORY = "mandatory"
    OPTIONAL = "optional"
    GROUP_MEMBER = "group-member"


class GroupKind(Enum):
    OR = "or"
    ALTERNATIVE = "alternative"


class ConstraintKind(Enum):
    REQUIRES = "requires"
    EXCLUDES = "excludes"


# Attribute datatypes; they map one-to-one onto xsd datatypes.
DATATYPES = ("string", "integer", "decimal", "boolean", "date")

# The DSL's reserved words. Feature and attribute names are names
# (``fmc.lexer.NAME``) and none of these, so every model prints as DSL
# that reads back.
KEYWORDS = frozenset({
    "feature", "mandatory", "optional", "or", "alternative",
    "attribute", "constraints", "requires", "excludes",
})


class ModelError(ValueError):
    """A feature model violates a structural invariant."""


class UnknownFeatureError(ModelError):
    """A configuration references features that are not in the model."""

    def __init__(self, names):
        self.names = tuple(names)
        listed = ", ".join(f"'{n}'" for n in self.names)
        super().__init__(f"unknown feature(s): {listed}")


@_value
class Attribute:
    name: str
    datatype: str


@_value
class CrossTreeConstraint:
    kind: ConstraintKind
    source: str
    target: str


@_value
class Group:
    """An or/alternative group; members are children of the owner feature."""

    id: int
    owner: str
    kind: GroupKind
    members: tuple[str, ...]


@_value
class Feature:
    name: str
    parent: str | None
    variability: Variability
    group: int | None = None
    attributes: tuple[Attribute, ...] = ()


@dataclass(frozen=True)
class FeatureModel:
    """A feature model: built only if it validates.

    ``features`` preserves declaration order (parents before their
    children); that order drives every deterministic downstream output.
    """

    root: str
    features: tuple[Feature, ...]
    groups: tuple[Group, ...] = ()
    constraints: tuple[CrossTreeConstraint, ...] = ()

    _by_name: dict = field(init=False, repr=False, compare=False, default=None)
    _children: dict = field(init=False, repr=False, compare=False, default=None)
    _groups_by_id: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        try:
            object.__setattr__(self, "_by_name", {f.name: f for f in self.features})
            object.__setattr__(self, "_groups_by_id", {g.id: g for g in self.groups})
            validate(self)
        except (TypeError, AttributeError):
            # an index or a lookup met a field of the wrong type: name it
            error = _wrong_field(self)
            if error is None:
                raise
            raise error from None

    def feature(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownFeatureError([name]) from None

    def has_feature(self, name: str) -> bool:
        return name in self._by_name

    def children(self, name: str) -> tuple[Feature, ...]:
        children = self._children
        if children is None:  # indexed on first use: validation and analysis need none
            lists: dict[str, list[Feature]] = {}
            for f in self.features:
                if f.parent is not None:
                    lists.setdefault(f.parent, []).append(f)
            children = {parent: tuple(kids) for parent, kids in lists.items()}
            object.__setattr__(self, "_children", children)
        return children.get(name, ())

    def group(self, group_id: int) -> Group:
        return self._groups_by_id[group_id]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(self._by_name)  # in feature order: the names are unique


def validate(model: FeatureModel) -> None:
    """Check every structural invariant; raise ModelError on the first failure.

    This runs when a ``FeatureModel`` is built, so every model, parsed or
    built in code, has passed it.
    """
    features, by_name = model.features, model._by_name
    # a list where a tuple is declared would leave the model unhashable,
    # and unequal to the model its DSL text reads back as
    for name in ("features", "groups", "constraints"):
        value = getattr(model, name)
        if type(value) is not tuple:
            raise _wrong_type(f"model {name}", "a tuple", value)
    # each field's types are compared for all values at once, as the names
    # below are; a loop runs only to name the first value of a wrong type.
    # Joining the names, for the name check below, is their str check
    try:
        lines = "\n".join(by_name)
    except TypeError:
        for name in by_name:
            if not isinstance(name, str):
                raise _wrong_type("feature name", "a str", name) from None
        raise
    if len(by_name) != len(features):
        names = Counter(f.name for f in features)
        dupes = sorted(n for n, count in names.items() if count > 1)
        raise ModelError(f"duplicate feature name(s): {', '.join(dupes)}")
    # all names in one match; the loop runs only to name the first bad one.
    # A name holding the separator adds one, so it never passes as two
    if not (lines.count("\n") == len(by_name) - 1 and is_name_lines(lines)
            and KEYWORDS.isdisjoint(by_name)):
        for name in by_name:
            if not is_name(name):
                raise ModelError(f"invalid feature name '{name}'")
            if name in KEYWORDS:
                raise ModelError(f"feature name '{name}' is a reserved keyword")
    if set(map(type, map(attrgetter("variability"), features))) - {Variability}:
        f = next(f for f in features if type(f.variability) is not Variability)
        raise _wrong_type(f"feature '{f.name}' variability", "a Variability", f.variability)
    if set(map(type, map(attrgetter("kind"), model.groups))) - {GroupKind}:
        g = next(g for g in model.groups if type(g.kind) is not GroupKind)
        raise _wrong_type(f"group {g.id} kind", "a GroupKind", g.kind)
    if set(map(type, map(attrgetter("kind"), model.constraints))) - {ConstraintKind}:
        c = next(c for c in model.constraints if type(c.kind) is not ConstraintKind)
        raise _wrong_type("constraint kind", "a ConstraintKind", c.kind)

    parents = list(map(attrgetter("parent"), features))
    if parents.count(None) != 1:
        raise ModelError(f"expected exactly one root feature, found {parents.count(None)}")
    root = features[parents.index(None)]
    if root.name != model.root:
        raise ModelError(f"root field is '{model.root}' but the parentless feature is '{root.name}'")
    if root.variability is not Variability.MANDATORY:
        raise ModelError("the root feature must be mandatory")

    # One pass over the features. Parent links must form a tree rooted at
    # the root: a feature whose parent is already reached is reached too;
    # the others are decided after the pass, in feature order.
    group_member = Variability.GROUP_MEMBER  # one enum lookup, not one per feature
    groups_by_id = model._groups_by_id
    reached = {root.name}
    later: list[Feature] = []
    members_by_group: dict[tuple[str, int], set[str]] = {}
    unknown_group = None  # the first feature naming a group id no group has
    for f in features:
        parent, group = f.parent, f.group
        if parent in reached:
            reached.add(f.name)
        elif parent is not None:
            if parent not in by_name:
                raise ModelError(f"feature '{f.name}' has unknown parent '{parent}'")
            later.append(f)
        if (f.variability is group_member) != (group is not None):
            raise ModelError(f"feature '{f.name}': group id and group-member variability "
                             "must occur together")
        if group is not None:
            if type(group) is not int:
                raise _wrong_type(f"feature '{f.name}' group", "an int", group)
            members_by_group.setdefault((parent, group), set()).add(f.name)
            if unknown_group is None and group not in groups_by_id:
                unknown_group = f
        if f.attributes != ():  # a list, even an empty one, is refused there
            _validate_attributes(f)

    # A feature listed before its parent: walk up until a reached feature.
    # The first one that never gets there lies on or below a cycle, and the
    # walk up from it names the cycle's entry.
    for f in later:
        path, cur = {}, f  # the names walked, in order
        while cur.name not in reached:
            if cur.name in path:
                raise ModelError(f"cycle in parent references involving '{cur.name}'")
            path[cur.name] = None
            cur = by_name[cur.parent]
        reached.update(path)

    group_ids = [g.id for g in model.groups]
    if len(group_ids) != len(set(group_ids)):
        raise ModelError("duplicate group ids")
    for g in model.groups:
        if type(g.id) is not int:
            raise _wrong_type("group id", "an int", g.id)
        if type(g.members) is not tuple:
            raise _wrong_type(f"group {g.id} members", "a tuple", g.members)
        if g.owner not in by_name:
            raise ModelError(f"group {g.id} has unknown owner '{g.owner}'")
        if len(g.members) < 2:
            raise ModelError(f"group {g.id} under '{g.owner}' needs at least 2 members")
        expected = members_by_group.get((g.owner, g.id), set())
        members = set(g.members)
        if members != expected or len(members) != len(g.members):
            raise ModelError(
                f"group {g.id} members must be exactly the group-member children of '{g.owner}'")
    if unknown_group is not None:
        raise ModelError(
            f"feature '{unknown_group.name}' references unknown group {unknown_group.group}")

    for c in model.constraints:
        for endpoint in (c.source, c.target):
            if endpoint not in by_name:
                raise ModelError(f"constraint references unknown feature '{endpoint}'")
        if c.source == c.target:
            raise ModelError(f"constraint source and target are the same feature '{c.source}'")


def _wrong_type(field: str, expected: str, value) -> ModelError:
    return ModelError(f"{field} must be {expected}, got {type(value).__name__}")


def _wrong_field(model: FeatureModel) -> ModelError | None:
    """The error naming the model's first field of the wrong type, or None.

    A walk over every field, run only once building the model's indexes or
    ``validate`` has raised TypeError or AttributeError, so a valid model
    never pays for it.
    """
    for name, cls, expected in (("features", Feature, "a Feature"),
                                ("groups", Group, "a Group"),
                                ("constraints", CrossTreeConstraint, "a CrossTreeConstraint")):
        values = getattr(model, name)
        if type(values) is not tuple:
            return _wrong_type(f"model {name}", "a tuple", values)
        for i, value in enumerate(values):
            if not isinstance(value, cls):
                return _wrong_type(f"model {name}[{i}]", expected, value)
    for f in model.features:
        if not isinstance(f.name, str):
            return _wrong_type("feature name", "a str", f.name)
        if not isinstance(f.parent, (str, type(None))):
            return _wrong_type(f"feature '{f.name}' parent", "a str", f.parent)
        if type(f.attributes) is not tuple:
            return _wrong_type(f"feature '{f.name}' attributes", "a tuple", f.attributes)
        for i, a in enumerate(f.attributes):
            if not isinstance(a, Attribute):
                return _wrong_type(f"feature '{f.name}' attributes[{i}]", "an Attribute", a)
            if not isinstance(a.name, str):
                return _wrong_type(f"attribute name on feature '{f.name}'", "a str", a.name)
    for g in model.groups:
        if type(g.id) is not int:
            return _wrong_type("group id", "an int", g.id)
        if not isinstance(g.owner, str):
            return _wrong_type(f"group {g.id} owner", "a str", g.owner)
        if type(g.members) is not tuple:
            return _wrong_type(f"group {g.id} members", "a tuple", g.members)
        for i, member in enumerate(g.members):
            if not isinstance(member, str):
                return _wrong_type(f"group {g.id} members[{i}]", "a str", member)
    for c in model.constraints:
        for end, value in (("source", c.source), ("target", c.target)):
            if not isinstance(value, str):
                return _wrong_type(f"constraint {end}", "a str", value)
    return None


def _validate_attributes(f: Feature) -> None:
    if type(f.attributes) is not tuple:
        raise _wrong_type(f"feature '{f.name}' attributes", "a tuple", f.attributes)
    attr_names = [a.name for a in f.attributes]
    if len(attr_names) != len(set(attr_names)):
        raise ModelError(f"feature '{f.name}' declares duplicate attribute names")
    for a in f.attributes:
        if not isinstance(a.name, str):
            raise _wrong_type(f"attribute name on feature '{f.name}'", "a str", a.name)
        if not is_name(a.name):
            raise ModelError(f"invalid attribute name '{a.name}' on feature '{f.name}'")
        if a.name in KEYWORDS:
            raise ModelError(
                f"attribute name '{a.name}' on feature '{f.name}' is a reserved keyword")
        if a.datatype not in DATATYPES:
            raise ModelError(f"attribute '{a.name}' has unknown datatype '{a.datatype}'")
