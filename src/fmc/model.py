"""Feature-model data structures and structural validation.

A feature model is a tree of named features plus cross-tree constraints.
A child feature is mandatory, optional, or a member of an or/alternative
group owned by its parent. Attributes attach typed data fields to a
feature; they never influence which configurations are valid.

A ``FeatureModel`` validates itself when it is built (``validate``). All
values are immutable after construction and safe to share.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .lexer import is_name


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


@dataclass(frozen=True)
class Attribute:
    name: str
    datatype: str


@dataclass(frozen=True)
class CrossTreeConstraint:
    kind: ConstraintKind
    source: str
    target: str


@dataclass(frozen=True)
class Group:
    """An or/alternative group; members are children of the owner feature."""

    id: int
    owner: str
    kind: GroupKind
    members: tuple[str, ...]


@dataclass(frozen=True)
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
        by_name = {f.name: f for f in self.features}
        children: dict[str, list[Feature]] = {f.name: [] for f in self.features}
        for f in self.features:
            if f.parent is not None and f.parent in children:
                children[f.parent].append(f)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in children.items()})
        object.__setattr__(self, "_groups_by_id", {g.id: g for g in self.groups})
        validate(self)

    def feature(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownFeatureError([name]) from None

    def has_feature(self, name: str) -> bool:
        return name in self._by_name

    def children(self, name: str) -> tuple[Feature, ...]:
        return self._children.get(name, ())

    def group(self, group_id: int) -> Group:
        return self._groups_by_id[group_id]

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)


def validate(model: FeatureModel) -> None:
    """Check every structural invariant; raise ModelError on the first failure.

    This runs when a ``FeatureModel`` is built, so every model, parsed or
    built in code, has passed it.
    """
    by_name = model._by_name
    group_member = Variability.GROUP_MEMBER  # one enum lookup, not one per feature
    names = [f.name for f in model.features]
    if len(names) != len(by_name):
        dupes = sorted(n for n, count in Counter(names).items() if count > 1)
        raise ModelError(f"duplicate feature name(s): {', '.join(dupes)}")
    # all names at once; the loop runs only to name the first bad one
    if not (all(map(is_name, names)) and KEYWORDS.isdisjoint(names)):
        for name in names:
            if not is_name(name):
                raise ModelError(f"invalid feature name '{name}'")
            if name in KEYWORDS:
                raise ModelError(f"feature name '{name}' is a reserved keyword")

    roots = [f for f in model.features if f.parent is None]
    if len(roots) != 1:
        raise ModelError(f"expected exactly one root feature, found {len(roots)}")
    root = roots[0]
    if root.name != model.root:
        raise ModelError(f"root field is '{model.root}' but the parentless feature is '{root.name}'")
    if root.variability is not Variability.MANDATORY:
        raise ModelError("the root feature must be mandatory")

    for f in model.features:
        if f.parent is not None and f.parent not in by_name:
            raise ModelError(f"feature '{f.name}' has unknown parent '{f.parent}'")
        if (f.variability is group_member) != (f.group is not None):
            raise ModelError(f"feature '{f.name}': group id and group-member variability must occur together")
        if not f.attributes:
            continue
        attr_names = [a.name for a in f.attributes]
        if len(attr_names) != len(set(attr_names)):
            raise ModelError(f"feature '{f.name}' declares duplicate attribute names")
        for a in f.attributes:
            if not is_name(a.name):
                raise ModelError(f"invalid attribute name '{a.name}' on feature '{f.name}'")
            if a.name in KEYWORDS:
                raise ModelError(
                    f"attribute name '{a.name}' on feature '{f.name}' is a reserved keyword")
            if a.datatype not in DATATYPES:
                raise ModelError(f"attribute '{a.name}' has unknown datatype '{a.datatype}'")

    # Parent links must form a tree rooted at the single root: one walk
    # down from the root reaches every feature unless some lie on or below
    # a cycle. The walk up from the first one left names the cycle's entry.
    children = model._children
    reached = {root.name}
    stack = [root.name]
    while stack:
        for child in children[stack.pop()]:
            reached.add(child.name)
            stack.append(child.name)
    if len(reached) != len(names):
        cur = next(f for f in model.features if f.name not in reached)
        seen = set()
        while cur.name not in seen:
            seen.add(cur.name)
            cur = by_name[cur.parent]
        raise ModelError(f"cycle in parent references involving '{cur.name}'")

    group_ids = [g.id for g in model.groups]
    if len(group_ids) != len(set(group_ids)):
        raise ModelError("duplicate group ids")
    members_by_group: dict[tuple[str, int], set[str]] = {}
    for f in model.features:
        if f.variability is group_member:
            members_by_group.setdefault((f.parent, f.group), set()).add(f.name)
    for g in model.groups:
        if g.owner not in by_name:
            raise ModelError(f"group {g.id} has unknown owner '{g.owner}'")
        if len(g.members) < 2:
            raise ModelError(f"group {g.id} under '{g.owner}' needs at least 2 members")
        expected = members_by_group.get((g.owner, g.id), set())
        members = set(g.members)
        if members != expected or len(members) != len(g.members):
            raise ModelError(
                f"group {g.id} members must be exactly the group-member children of '{g.owner}'")
    for f in model.features:
        if f.group is not None and f.group not in model._groups_by_id:
            raise ModelError(f"feature '{f.name}' references unknown group {f.group}")

    for c in model.constraints:
        for endpoint in (c.source, c.target):
            if endpoint not in by_name:
                raise ModelError(f"constraint references unknown feature '{endpoint}'")
        if c.source == c.target:
            raise ModelError(f"constraint source and target are the same feature '{c.source}'")
