"""Seeded feature-model generator and the benchmark's copy of AISCO.

Models are built in the benchmark's own representation, independent of
``fmc``, and rendered to DSL text. The oracle reads the same
representation, so ``fmc`` only ever sees the text.

Shape: each new feature gets a uniformly random existing parent. 20% of
additions are 3-member or/alternative groups; other children are
optional with probability 2/3 and mandatory otherwise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

TRIGGER_NAMES = ("total", "count", "average")


@dataclass
class Model:
    """A feature tree plus cross-tree constraints.

    ``items[name]`` lists the feature's children in declaration order:
    ``("feature", child, "mandatory" | "optional")`` or ``("group", gid)``.
    """

    root: str
    parent: dict[str, str | None] = field(default_factory=dict)
    kind: dict[str, str] = field(default_factory=dict)  # mandatory | optional | member
    items: dict[str, list] = field(default_factory=dict)
    groups: list[tuple[str, str, tuple[str, ...]]] = field(default_factory=list)  # owner, kind, members
    constraints: list[tuple[str, str, str]] = field(default_factory=list)  # kind, source, target
    attributes: dict[str, list[tuple[str, str]]] = field(default_factory=dict)

    def add(self, name: str, parent: str | None, kind: str) -> None:
        self.parent[name] = parent
        self.kind[name] = kind
        self.items[name] = []
        self.attributes[name] = []

    def add_child(self, parent: str, name: str, kind: str) -> None:
        self.add(name, parent, kind)
        self.items[parent].append(("feature", name, kind))

    def add_group(self, owner: str, kind: str, members: tuple[str, ...]) -> None:
        gid = len(self.groups)
        self.groups.append((owner, kind, members))
        for m in members:
            self.add(m, owner, "member")
        self.items[owner].append(("group", gid))

    def order(self) -> tuple[list[str], list[int]]:
        """Features and group ids in DSL declaration (preorder) order."""
        features: list[str] = []
        groups: list[int] = []
        stack = [self.root]
        while stack:
            name = stack.pop()
            features.append(name)
            pending: list[str] = []
            for item in self.items[name]:
                if item[0] == "feature":
                    pending.append(item[1])
                else:
                    groups.append(item[1])
                    pending.extend(self.groups[item[1]][2])
            stack.extend(reversed(pending))
        # the parser numbers groups by where their opening brace appears, which
        # is just before the first member, not when the owner is visited
        first = {name: i for i, name in enumerate(features)}
        groups.sort(key=lambda g: first[self.groups[g][2][0]])
        return features, groups

    def __len__(self) -> int:
        return len(self.parent)


def render(model: Model) -> str:
    """DSL source for the model; its feature order is ``model.order()[0]``."""
    lines: list[str] = []

    def body(name: str, depth: int, head: str) -> None:
        pad = "  " * depth
        if not model.items[name] and not model.attributes[name]:
            lines.append(pad + head)
            return
        lines.append(pad + head + " {")
        for attr, datatype in model.attributes[name]:
            lines.append(f"{pad}  attribute {attr} : {datatype}")
        for item in model.items[name]:
            if item[0] == "feature":
                body(item[1], depth + 1, f"{item[2]} {item[1]}")
            else:
                _, kind, members = model.groups[item[1]]
                lines.append(f"{pad}  {kind} {{")
                for m in members:
                    body(m, depth + 2, m)
                lines.append(f"{pad}  }}")
        lines.append(pad + "}")

    body(model.root, 0, f"feature {model.root}")
    if model.constraints:
        lines.append("constraints {")
        lines.extend(f"  {src} {kind} {tgt}" for kind, src, tgt in model.constraints)
        lines.append("}")
    return "\n".join(lines) + "\n"


def tree(rng: random.Random, n: int, prefix: str = "F") -> Model:
    """A random tree of at least ``n`` features (a final group may add two more)."""
    model = Model(prefix + "0")
    model.add(model.root, None, "mandatory")
    names = [model.root]
    while len(names) < n:
        parent = rng.choice(names)
        if rng.random() < 0.2:
            members = tuple(f"{prefix}{len(names) + i}" for i in range(3))
            model.add_group(parent, rng.choice(("or", "alternative")), members)
            names.extend(members)
        else:
            name = f"{prefix}{len(names)}"
            model.add_child(parent, name, "optional" if rng.random() < 2 / 3 else "mandatory")
            names.append(name)
    return model


def flat(rng: random.Random, n_optional: int, n_constraints: int, prefix: str = "C") -> Model:
    """An optional-heavy model for counting.

    The root has one alternative group of three, then ``n_optional``
    optional leaves. Each constraint joins two leaves not used by another
    constraint, so the count is 3 * 2^n * (3/4)^c for every seed. The
    endpoints are drawn from the first few leaves: a counter that checks a
    rule once all its features are decided prunes at the same depth for
    every seed, so the seed changes the model but not the work.
    """
    model = Model(prefix + "0")
    model.add(model.root, None, "mandatory")
    model.add_group(model.root, "alternative", tuple(f"{prefix}{j}" for j in range(1, 4)))
    leaves = [f"{prefix}{i}" for i in range(4, n_optional + 4)]
    for name in leaves:
        model.add_child(model.root, name, "optional")
    ends = rng.sample(leaves[:2 * n_constraints + 2], 2 * n_constraints)
    for src, tgt in zip(ends[::2], ends[1::2]):
        model.constraints.append((rng.choice(("requires", "excludes")), src, tgt))
    return model


def add_constraints(rng: random.Random, model: Model, count: int, keep=None) -> None:
    """Add ``count`` random requires/excludes constraints between distinct features.

    ``keep(model)`` may veto a candidate (it is removed again and another
    is drawn); the benchmark uses it to keep models consistent.
    """
    names = list(model.parent)
    seen = set()
    while count:
        if len(seen) == len(names) * (len(names) - 1):
            raise ValueError("no candidate constraint left")
        src, tgt = rng.sample(names, 2)
        if (src, tgt) in seen:
            continue
        seen.add((src, tgt))
        model.constraints.append((rng.choice(("requires", "excludes")), src, tgt))
        if keep is not None and not keep(model):
            model.constraints.pop()
            continue
        count -= 1


def add_attributes(rng: random.Random, model: Model, share: float) -> None:
    """Attach one attribute to about ``share`` of the features.

    Data-property names are global in the ontology, so every name is
    distinct; the first ones are the scaffold's trigger names in several
    letter cases, so its business-logic triggers fire.
    """
    names = sorted(model.parent, key=lambda s: (len(s), s))
    chosen = rng.sample(names, max(len(TRIGGER_NAMES), round(share * len(names))))
    datatypes = ("string", "integer", "decimal", "boolean", "date")
    for i, name in enumerate(chosen):
        base = TRIGGER_NAMES[i % len(TRIGGER_NAMES)]
        variant = i // len(TRIGGER_NAMES)
        if variant < 3:
            attr = (base, base.capitalize(), base.upper())[variant]
        else:
            attr = f"{base}_{variant}"
        model.attributes[name].append((attr, rng.choice(datatypes)))


def configuration(rng: random.Random, model: Model) -> set[str]:
    """A random configuration that satisfies the tree and group rules.

    Cross-tree constraints are not considered, so it may violate them.
    """
    selected = set()
    stack = [model.root]
    while stack:
        name = stack.pop()
        selected.add(name)
        for item in model.items[name]:
            if item[0] == "feature":
                if item[2] == "mandatory" or rng.random() < 0.5:
                    stack.append(item[1])
            else:
                _, kind, members = model.groups[item[1]]
                if kind == "alternative":
                    stack.append(rng.choice(members))
                else:
                    picked = [m for m in members if rng.random() < 0.5]
                    stack.extend(picked or [rng.choice(members)])
    return selected


def aisco() -> Model:
    """The AISCO charity-website product line (13 features, 160 configurations)."""
    m = Model("AISCO")
    m.add("AISCO", None, "mandatory")
    for name, kind in (("ProgramData", "mandatory"), ("PublicationSystem", "mandatory"),
                       ("FinancialReport", "mandatory"), ("DonationData", "optional"),
                       ("ObjectiveData", "optional"), ("MemberNotification", "optional")):
        m.add_child("AISCO", name, kind)
    for name in ("Periodic", "Eventual", "Continuous"):
        m.add_child("ProgramData", name, "optional")
    m.add_child("FinancialReport", "AutomaticReport", "optional")
    m.attributes["DonationData"].append(("total", "decimal"))
    m.add_child("DonationData", "Summary", "optional")
    m.add_child("DonationData", "Donor", "optional")
    m.constraints += [("requires", "MemberNotification", "Donor"),
                      ("requires", "AutomaticReport", "Summary")]
    return m


def void() -> Model:
    """A small model with no valid configuration: the root requires an excluded pair."""
    m = Model("Shop")
    m.add("Shop", None, "mandatory")
    m.add_child("Shop", "Payment", "mandatory")
    m.add_group("Payment", "alternative", ("Card", "Invoice", "Cash"))
    m.add_child("Shop", "Delivery", "optional")
    m.constraints += [("requires", "Shop", "Card"), ("requires", "Shop", "Cash")]
    return m
