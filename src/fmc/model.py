"""Feature-model data structures and structural validation.

A feature model is a tree of named features plus cross-tree constraints.
A child feature is mandatory, optional, or a member of an or/alternative
group owned by its parent. Attributes attach typed data fields to a
feature; they never influence which configurations are valid.

A ``FeatureModel`` validates itself when it is built (``validate``). All
values are immutable after construction and safe to share.

Every fmc value class, the model's, ``FeatureModel`` and the OWL and
scaffold values too, is a frozen class with ``__slots__`` built by
``_value``, which writes its methods as ``dataclass(frozen=True,
slots=True)`` would. No command imports ``dataclasses``, nor the
``inspect`` it imports in turn. The type of every field, and how an
error names it, is one row of ``_FIELDS``.

A model holds its features as parallel columns: one name index (each
name's 1-based position, which is also its variable in the model's CNF)
and a column each of parents, variabilities, group ids and attributes.
The DSL parser fills the columns and builds no ``Feature``
(``FeatureModel._of``); a model built in code reads them from its
``features``. ``validate``, the analyses and the compiler read only the
columns, and a parsed model builds its ``features`` the first time they
are read, once: ``feature``, ``children``, ``==``, ``hash``, ``repr``,
``pickle``, ``copy`` and ``dataclasses.replace`` all read that tuple.

``validate`` only detects a value of the wrong type: the class of every
value in a model column, and the types of the names and enum fields,
are compared for all values at once; a list where a tuple is declared,
a group id that is not an int, and a field that building the indexes or
a lookup cannot hash or read (a list as a name) are hits too. Only on a
hit does ``_wrong_field`` walk the table, to name the first field of the
wrong type in a ``ModelError``. Features are checked in one pass: a
parent listed before its child, as every parsed model lists it, links
the child to the root with one set lookup; a feature listed before its
parent falls back to a walk up its parent links after that pass, which
also finds a cycle. The children of each feature are indexed only when
first asked for.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import islice
from types import NoneType

from .lexer import is_name, is_name_lines


def _value(cls):
    """Rebuild cls as a frozen value class with ``__slots__``, as
    ``dataclass(frozen=True, slots=True)`` would, without importing
    ``dataclasses``.

    The annotated names are the fields, in order; a class attribute of the
    same name is a field's default. Names in the body's own ``__slots__``
    hold cached state: ``__init__`` sets them to None, and ``repr``, ``==``
    and ``hash`` leave them out, while ``copy`` and ``pickle`` keep them.
    One ``exec`` defines ``__init__``, which stores each field through its
    slot descriptor (an OWL compile builds hundreds of thousands of values)
    and runs ``__post_init__`` last, and ``__repr__``, ``__eq__``,
    ``__hash__``, ``__getstate__`` and ``__setstate__``, which act as a
    frozen dataclass's do. They read each field as an attribute, so a slot
    left unset is filled by the class's ``__getattr__``
    (``FeatureModel.features``). Assigning or deleting any attribute raises
    ``FrozenInstanceError``.
    """
    body = vars(cls)
    names = tuple(body.get("__annotations__", ()))
    cached = body.get("__slots__", ())
    slots = names + tuple(cached)
    defaults = {name: body[name] for name in names if name in body}
    cls = type(cls)(cls.__name__, cls.__bases__, {
        **{k: v for k, v in body.items() if k not in {*slots, "__dict__", "__weakref__"}},
        "__qualname__": cls.__qualname__, "__slots__": slots, "__match_args__": names,
        "__setattr__": _refuse_assign, "__delattr__": _refuse_delete, "__replace__": _replace,
        "__dataclass_fields__": _Dataclass(defaults), "__dataclass_params__": _Dataclass(defaults)})
    setters = [getattr(cls, name).__set__ for name in slots]
    scope = {"setters": setters, **{f"set_{n}": s for n, s in zip(slots, setters)},
             **{f"default_{n}": value for n, value in defaults.items()}}
    params = "".join(f", {n}=default_{n}" if n in defaults else f", {n}" for n in names)
    init = [f"set_{n}(self, {n})" for n in names] + [f"set_{n}(self, None)" for n in cached]
    if hasattr(cls, "__post_init__"):
        init.append("self.__post_init__()")
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    own = "".join(f"self.{n}, " for n in names)
    exec(f"""\
def __init__(self{params}):
    {"; ".join(init) or "pass"}
def __repr__(self):
    return f"{{self.__class__.__qualname__}}({shown})"
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({own}) == ({own.replace("self.", "other.")})
    return NotImplemented
def __hash__(self):
    return hash(({own}))
def __getstate__(self):
    return ({"".join(f"self.{n}, " for n in slots)})
def __setstate__(self, state):
    for set_slot, value in zip(setters, state):
        set_slot(self, value)
""", scope)
    for name in ("__init__", "__repr__", "__eq__", "__hash__", "__getstate__", "__setstate__"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, scope[name])
    return cls


class _Dataclass:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a ``_value``
    class, made on first access by ``dataclasses`` itself: it decorates a
    plain twin with the same fields and defaults, and the cached slots as
    ``init=False`` fields, and both attributes are copied from the twin.
    So ``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass``
    work with the stdlib's own ``Field`` objects, and only a process that
    uses them imports ``dataclasses``."""

    def __init__(self, defaults):
        self.defaults = defaults

    def __set_name__(self, cls, name):
        self.cls, self.name = cls, name

    def __get__(self, value, owner):
        from dataclasses import dataclass, field
        cls = self.cls
        cached = cls.__slots__[len(cls.__match_args__):]
        twin = dataclass(frozen=True)(type(cls.__name__, (), {
            "__module__": cls.__module__, "__qualname__": cls.__qualname__,
            "__annotations__": {**vars(cls).get("__annotations__", {}),
                                **dict.fromkeys(cached, "object")},
            **self.defaults,
            **{n: field(init=False, repr=False, compare=False, default=None) for n in cached}}))
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        return vars(twin)[self.name]


def _replace(self, /, **changes):
    """``copy.replace`` (Python 3.13+), as on a dataclass."""
    from dataclasses import replace
    return replace(self, **changes)


def _refuse_assign(self, name, value):
    from dataclasses import FrozenInstanceError  # loaded only by a refused assignment
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    from dataclasses import FrozenInstanceError
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


@_value
class FeatureModel:
    """A feature model: built only if it validates.

    ``features`` preserves declaration order (parents before their
    children); that order drives every deterministic downstream output.
    The model keeps its features as columns (``_COLUMNS``); a model read by
    the DSL parser builds its ``features`` from them on first read.
    """

    root: str
    features: tuple[Feature, ...]
    groups: tuple[Group, ...] = ()
    constraints: tuple[CrossTreeConstraint, ...] = ()

    # the columns (see _COLUMNS), and indexes: _groups_by_id built with the
    # columns, _children on first use. Nothing writes to them once built
    __slots__ = ("_index", "_parents", "_variabilities", "_group_ids", "_attributes",
                 "_groups_by_id", "_children")

    def __post_init__(self):
        try:
            features = self.features
            # a list where a tuple is declared, or a value of another class
            # (a namedtuple for a Feature), would leave the model unhashable,
            # or unequal to the model its DSL text reads back as
            if type(features) is not tuple or set(map(type, features)) - {Feature}:
                raise _wrong_field(self)
            self._hold(dict(zip([f.name for f in features], range(1, len(features) + 1))),
                       [f.parent for f in features], [f.variability for f in features],
                       [f.group for f in features], [f.attributes for f in features])
        except (TypeError, AttributeError):
            # an index or a lookup met a field of the wrong type: name it
            error = _wrong_field(self)
            if error is None:
                raise
            raise error from None

    @classmethod
    def _of(cls, root: str, groups: tuple[Group, ...],
            constraints: tuple[CrossTreeConstraint, ...], *columns) -> FeatureModel:
        """The model of the columns, in ``_COLUMNS`` order, as the DSL parser
        reads them: validated, with ``features`` left to its first read."""
        model = cls.__new__(cls)
        for name, value in (("root", root), ("groups", groups), ("constraints", constraints),
                            ("_children", None)):
            object.__setattr__(model, name, value)
        model._hold(*columns)
        return model

    def _hold(self, *columns) -> None:
        for name, column in zip(_COLUMNS, columns):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_groups_by_id", {g.id: g for g in self.groups})
        validate(self)

    def __getattr__(self, name: str):
        # called only for a slot not set: a parsed model's features, built once
        if name != "features":
            raise AttributeError(f"'FeatureModel' object has no attribute '{name}'",
                                 name=name, obj=self)
        features = tuple(map(Feature, self._index, self._parents, self._variabilities,
                             self._group_ids, self._attributes))
        object.__setattr__(self, "features", features)
        return features

    def feature(self, name: str) -> Feature:
        try:
            at = self._index[name]
        except KeyError:
            raise UnknownFeatureError([name]) from None
        return self.features[at - 1]

    def has_feature(self, name: str) -> bool:
        return name in self._index

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
        return tuple(self._index)  # in feature order


# A model's columns, entry i of each for features[i]: the name index (name
# -> i + 1, in feature order), then the Feature fields after the name, in
# field order. A parser fills them; nothing writes to them once built.
_COLUMNS = ("_index", "_parents", "_variabilities", "_group_ids", "_attributes")


# The type of every field of the model values, one row a field in the
# order ``_wrong_field`` looks at them: the field, its allowed exact types,
# how an error names it, and for a tuple, the class of its items. The
# wording reads the value as ``v`` and the value holding it as ``owner``;
# a field it reads comes earlier, so it is already a str or an int.
_FIELDS = {
    FeatureModel: (("features", (tuple,), "model features", Feature),
                   ("groups", (tuple,), "model groups", Group),
                   ("constraints", (tuple,), "model constraints", CrossTreeConstraint)),
    Feature: (("name", (str,), "feature name", None),
              ("parent", (str, NoneType), "feature '{v.name}' parent", None),
              ("variability", (Variability,), "feature '{v.name}' variability", None),
              ("group", (int, NoneType), "feature '{v.name}' group", None),
              ("attributes", (tuple,), "feature '{v.name}' attributes", Attribute)),
    Attribute: (("name", (str,), "attribute name on feature '{owner.name}'", None),
                ("datatype", (str,), "attribute datatype on feature '{owner.name}'", None)),
    Group: (("id", (int,), "group id", None),
            ("owner", (str,), "group {v.id} owner", None),
            ("kind", (GroupKind,), "group {v.id} kind", None),
            ("members", (tuple,), "group {v.id} members", str)),
    CrossTreeConstraint: (("kind", (ConstraintKind,), "constraint kind", None),
                          ("source", (str,), "constraint source", None),
                          ("target", (str,), "constraint target", None)),
}


def validate(model: FeatureModel) -> None:
    """Check every structural invariant; raise ModelError on the first failure.

    This runs when a ``FeatureModel`` is built, so every model, parsed or
    built in code, has passed it. It reads the model's columns. A field of
    the wrong type is only detected here, or for ``features`` given in code
    by ``FeatureModel.__post_init__``; ``_wrong_field`` names it.
    """
    index, parents, variabilities = model._index, model._parents, model._variabilities
    groups, constraints = model.groups, model.constraints
    for values, cls in ((groups, Group), (constraints, CrossTreeConstraint)):
        if type(values) is not tuple or set(map(type, values)) - {cls}:
            raise _wrong_field(model)
    # Joining the names, for the name check below, is their str check
    try:
        lines = "\n".join(index)
    except TypeError:
        raise _wrong_field(model) from None
    if len(index) != len(parents):
        # only features given in code can repeat a name: a parser's index
        # is the names it read
        names = Counter(f.name for f in model.features)
        dupes = sorted(n for n, count in names.items() if count > 1)
        raise ModelError(f"duplicate feature name(s): {', '.join(dupes)}")
    # all names in one match; the loop runs only to name the first bad one.
    # A name holding the separator adds one, so it never passes as two
    if not (lines.count("\n") == len(index) - 1 and is_name_lines(lines)
            and KEYWORDS.isdisjoint(index)):
        for name in index:
            if not is_name(name):
                raise ModelError(f"invalid feature name '{name}'")
            if name in KEYWORDS:
                raise ModelError(f"feature name '{name}' is a reserved keyword")
    # a comprehension reads a slot at about half the cost of an attrgetter
    if (set(map(type, variabilities)) - {Variability}
            or {type(g.kind) for g in groups} - {GroupKind}
            or {type(c.kind) for c in constraints} - {ConstraintKind}):
        raise _wrong_field(model)

    roots = parents.count(None)
    if roots != 1:
        raise ModelError(f"expected exactly one root feature, found {roots}")
    at = parents.index(None)
    root = next(islice(index, at, None))
    if root != model.root:
        raise ModelError(f"root field is '{model.root}' but the parentless feature is '{root}'")
    if variabilities[at] is not Variability.MANDATORY:
        raise ModelError("the root feature must be mandatory")

    # One pass over the features. Parent links must form a tree rooted at
    # the root: a feature whose parent is already reached is reached too;
    # the others are decided after the pass, in feature order.
    group_member = Variability.GROUP_MEMBER  # one enum lookup, not one per feature
    groups_by_id = model._groups_by_id
    reached = {root}
    later: list[str] = []
    members_by_group: dict[tuple[str, int], set[str]] = {}
    unknown_group = None  # the first feature naming a group id no group has, and the id
    for name, parent, variability, group, attributes in zip(
            index, parents, variabilities, model._group_ids, model._attributes):
        if parent in reached:
            reached.add(name)
        elif parent is not None:
            if parent not in index:
                raise ModelError(f"feature '{name}' has unknown parent '{parent}'")
            later.append(name)
        if (variability is group_member) != (group is not None):
            raise ModelError(f"feature '{name}': group id and group-member variability "
                             "must occur together")
        if group is not None:
            if type(group) is not int:
                raise _wrong_field(model)
            members_by_group.setdefault((parent, group), set()).add(name)
            if unknown_group is None and group not in groups_by_id:
                unknown_group = name, group
        if attributes != ():  # a list, even an empty one, is refused there
            _validate_attributes(model, name, attributes)

    # A feature listed before its parent: walk up until a reached feature.
    # The first one that never gets there lies on or below a cycle, and the
    # walk up from it names the cycle's entry.
    for name in later:
        path, cur = {}, name  # the names walked, in order
        while cur not in reached:
            if cur in path:
                raise ModelError(f"cycle in parent references involving '{cur}'")
            path[cur] = None
            cur = parents[index[cur] - 1]
        reached.update(path)

    group_ids = [g.id for g in groups]
    if len(group_ids) != len(set(group_ids)):
        raise ModelError("duplicate group ids")
    for g in groups:
        if type(g.id) is not int or type(g.members) is not tuple:
            raise _wrong_field(model)
        if g.owner not in index:
            raise ModelError(f"group {g.id} has unknown owner '{g.owner}'")
        if len(g.members) < 2:
            raise ModelError(f"group {g.id} under '{g.owner}' needs at least 2 members")
        expected = members_by_group.get((g.owner, g.id), set())
        members = set(g.members)
        if members != expected or len(members) != len(g.members):
            raise ModelError(
                f"group {g.id} members must be exactly the group-member children of '{g.owner}'")
    if unknown_group is not None:
        raise ModelError("feature '{}' references unknown group {}".format(*unknown_group))

    for c in constraints:
        for endpoint in (c.source, c.target):
            if endpoint not in index:
                raise ModelError(f"constraint references unknown feature '{endpoint}'")
        if c.source == c.target:
            raise ModelError(f"constraint source and target are the same feature '{c.source}'")


def _validate_attributes(model: FeatureModel, name: str, attributes) -> None:
    if type(attributes) is not tuple or set(map(type, attributes)) - {Attribute}:
        raise _wrong_field(model)
    attr_names = [a.name for a in attributes]
    if len(attr_names) != len(set(attr_names)):
        raise ModelError(f"feature '{name}' declares duplicate attribute names")
    for a in attributes:
        if not is_name(a.name):  # a TypeError on a non-str name: __post_init__ names it
            raise ModelError(f"invalid attribute name '{a.name}' on feature '{name}'")
        if a.name in KEYWORDS:
            raise ModelError(
                f"attribute name '{a.name}' on feature '{name}' is a reserved keyword")
        if a.datatype not in DATATYPES:
            raise ModelError(f"attribute '{a.name}' has unknown datatype '{a.datatype}'")


def _wrong_field(value, owner=None) -> ModelError | None:
    """The error naming the first field of the wrong type, in ``_FIELDS``
    order, of value (a ``FeatureModel``) or of a value it holds; or None.

    Run only once ``validate`` has detected a value of the wrong type, or
    building the model's indexes or ``validate`` has raised TypeError or
    AttributeError, so a valid model never pays for it.
    """
    for name, types, subject, item in _FIELDS[type(value)]:
        got = getattr(value, name)
        if type(got) not in types:
            return _wrong_type(subject.format(v=value, owner=owner), types[0], got)
        if item is None:
            continue
        for i, each in enumerate(got):
            if type(each) is not item:
                return _wrong_type(f"{subject}[{i}]".format(v=value, owner=owner), item, each)
            error = item in _FIELDS and _wrong_field(each, value)
            if error:
                return error
    return None


def _wrong_type(subject: str, cls: type, value) -> ModelError:
    article = "an" if cls.__name__[0] in "AEIOUaeiou" else "a"
    return ModelError(f"{subject} must be {article} {cls.__name__}, got {type(value).__name__}")
