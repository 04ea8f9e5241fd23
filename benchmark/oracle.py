"""Expected outputs of ``fmc``, computed without ``fmc``.

Everything here reads the generator's ``Model`` and restates the
documented semantics directly: the configuration rules, a brute-force
enumeration for small models, a tree count conditioned on the constraint
endpoints, a small clause-branching DPLL for larger models, and the
compiler's and scaffold's output formats.
"""

from __future__ import annotations

import itertools
import json

from gen import Model

BRUTE_FORCE_MAX = 16
TRIGGERS = {"total": "Sum", "count": "Count", "average": "Average"}


def violations(model: Model, selected: set[str], order=None) -> list[tuple[str, tuple[str, ...]]]:
    """Broken rules as (rule, features), in the order ``fmc validate`` lists them.

    ``order`` is ``model.order()``, passed in by callers that check many
    configurations of one model.
    """
    features, group_order = order or model.order()
    out = []
    if model.root not in selected:
        out.append(("root", (model.root,)))
    for f in features[1:]:
        parent = model.parent[f]
        if f in selected and parent not in selected:
            out.append(("parent", (f, parent)))
        if model.kind[f] == "mandatory" and parent in selected and f not in selected:
            out.append(("mandatory", (parent, f)))
    for gid in group_order:
        owner, kind, members = model.groups[gid]
        if owner not in selected:
            continue
        chosen = sum(m in selected for m in members)
        if (kind == "or" and chosen == 0) or (kind == "alternative" and chosen != 1):
            out.append((kind, (owner, *members)))
    for kind, src, tgt in model.constraints:
        if kind == "requires" and src in selected and tgt not in selected:
            out.append(("requires", (src, tgt)))
        if kind == "excludes" and src in selected and tgt in selected:
            out.append(("excludes", (src, tgt)))
    return out


def brute_force(model: Model) -> list[frozenset[str]]:
    """Every valid configuration, by testing all 2^n subsets."""
    order = model.order()
    features = order[0]
    if len(features) > BRUTE_FORCE_MAX:
        raise ValueError(f"brute force is limited to {BRUTE_FORCE_MAX} features")
    configs = []
    for bits in itertools.product((False, True), repeat=len(features)):
        selected = {f for f, on in zip(features, bits) if on}
        if not violations(model, selected, order):
            configs.append(frozenset(selected))
    return configs


def report(model: Model) -> dict:
    """The ``fmc check --json`` report, by brute force (small models only)."""
    configs = brute_force(model)
    features = model.order()[0]
    alive = set().union(*configs)
    return {
        "consistent": bool(configs),
        "dead_features": [f for f in features if f not in alive] if configs else [],
        "configuration_count": len(configs),
    }


def count(model: Model) -> int:
    """Number of valid configurations.

    Enumerates the values of the constraint endpoints; for each assignment
    that satisfies the constraints, multiplies out the tree with those
    features fixed.
    """
    endpoints = sorted({f for _, src, tgt in model.constraints for f in (src, tgt)})
    total = 0
    for bits in itertools.product((False, True), repeat=len(endpoints)):
        fixed = dict(zip(endpoints, bits))
        if all(not (fixed[s] and (not fixed[t] if k == "requires" else fixed[t]))
               for k, s, t in model.constraints):
            total += _tree_count(model, fixed)
    return total


def _tree_count(model: Model, fixed: dict[str, bool]) -> int:
    on: dict[str, int] = {}   # configurations of the subtree with the feature selected
    off: dict[str, int] = {}  # 1 if the subtree may be entirely unselected
    features = model.order()[0]
    for name in reversed(features):
        ways = 0 if fixed.get(name) is False else 1
        can_be_off = fixed.get(name) is not True
        for item in model.items[name]:
            if item[0] == "feature":
                child = item[1]
                can_be_off = can_be_off and bool(off[child])
                ways *= on[child] if item[2] == "mandatory" else on[child] + off[child]
            else:
                _, kind, members = model.groups[item[1]]
                can_be_off = can_be_off and all(off[m] for m in members)
                if kind == "or":
                    ways *= _prod(on[m] + off[m] for m in members) - _prod(off[m] for m in members)
                else:
                    ways *= sum(on[m] * _prod(off[o] for o in members if o != m) for m in members)
        on[name] = ways
        off[name] = int(can_be_off)
    return on[model.root]


def _prod(values) -> int:
    result = 1
    for v in values:
        result *= v
    return result


def clauses(model: Model) -> tuple[list[str], list[tuple[int, ...]]]:
    """The configuration rules as CNF over 1-based variables in feature order."""
    features, _ = model.order()
    var = {f: i + 1 for i, f in enumerate(features)}
    cnf: list[tuple[int, ...]] = [(var[model.root],)]
    for f in features[1:]:
        cnf.append((-var[f], var[model.parent[f]]))
        if model.kind[f] == "mandatory":
            cnf.append((-var[model.parent[f]], var[f]))
    for owner, kind, members in model.groups:
        cnf.append((-var[owner], *(var[m] for m in members)))
        if kind == "alternative":
            cnf.extend((-var[a], -var[b]) for a, b in itertools.combinations(members, 2))
    for kind, src, tgt in model.constraints:
        cnf.append((-var[src], var[tgt] if kind == "requires" else -var[tgt]))
    return features, cnf


class Sat:
    """Clause-branching DPLL: branch on the literals of the first unsatisfied clause."""

    def __init__(self, num_vars: int, cnf: list[tuple[int, ...]]):
        self.n = num_vars
        self.cnf = cnf
        self.occ: dict[int, list[int]] = {lit: [] for v in range(1, num_vars + 1) for lit in (v, -v)}
        for i, clause in enumerate(cnf):
            for lit in clause:
                self.occ[lit].append(i)

    def solve(self, assumptions=()) -> set[int] | None:
        """Variables set true in a satisfying assignment, or None."""
        value = [0] * (self.n + 1)
        sat = [0] * len(self.cnf)
        trail: list[int] = []

        def assign(lits) -> bool:
            queue = list(lits)
            while queue:
                lit = queue.pop()
                v = abs(lit)
                if value[v]:
                    if (value[v] > 0) != (lit > 0):
                        return False
                    continue
                value[v] = 1 if lit > 0 else -1
                trail.append(lit)
                for i in self.occ[lit]:
                    sat[i] += 1
                for i in self.occ[-lit]:
                    if sat[i]:
                        continue
                    free = [x for x in self.cnf[i] if not value[abs(x)]]
                    if not free:
                        return False
                    if len(free) == 1:
                        queue.append(free[0])
            return True

        def undo(mark: int) -> None:
            while len(trail) > mark:
                lit = trail.pop()
                value[abs(lit)] = 0
                for i in self.occ[lit]:
                    sat[i] -= 1

        def search(start: int) -> bool:
            i = start
            while i < len(sat) and sat[i]:
                i += 1
            if i == len(sat):
                return True
            mark = len(trail)
            for lit in [x for x in self.cnf[i] if not value[abs(x)]]:
                inner = len(trail)
                if assign([lit]) and search(i):
                    return True
                undo(inner)
                if not assign([-lit]):
                    break
            undo(mark)
            return False

        if not assign(assumptions) or not search(0):
            return None
        return {lit for lit in trail if lit > 0}


def analysis(model: Model, with_count: bool) -> dict:
    """The ``fmc check --json`` report, by DPLL with witness reuse."""
    features, cnf = clauses(model)
    solver = Sat(len(features), cnf)
    base = solver.solve()
    if base is None:
        return {"consistent": False, "dead_features": [],
                "configuration_count": count(model) if with_count else None}
    alive = set(base)
    dead = []
    for v in range(1, len(features) + 1):
        if v in alive:
            continue
        witness = solver.solve([v])
        if witness is None:
            dead.append(features[v - 1])
        else:
            alive |= witness
    return {"consistent": True, "dead_features": dead,
            "configuration_count": count(model) if with_count else None}


def consistent(model: Model) -> bool:
    features, cnf = clauses(model)
    return Sat(len(features), cnf).solve() is not None


# --- compiler and scaffold output -------------------------------------------

def _some(f: str) -> str:
    return f"ObjectSomeValuesFrom(:has{f} :{f})"


def ontology_text(model: Model, iri: str | None = None) -> str:
    """The functional-syntax text ``fmc compile`` writes for the model."""
    iri = iri or f"http://example.org/spl/{model.root}#"
    features, _ = model.order()
    lines = [f"Prefix(:=<{iri}>)", f"Ontology(<{iri}>"]
    for f in features:
        lines += [f"Declaration(Class(:{f}))", f"Declaration(Class(:{f}Rule))",
                  f"Declaration(ObjectProperty(:has{f}))", f"ObjectPropertyRange(:has{f} :{f})",
                  f"EquivalentClasses(:{f}Rule {_some(f)})"]
    # relation axioms follow feature order; a group's sit at its first member
    group_at = {members[0]: (owner, kind, members) for owner, kind, members in model.groups}
    for f in features[1:]:
        if model.kind[f] == "mandatory":
            lines.append(f"SubClassOf(:{model.parent[f]}Rule {_some(f)})")
        elif f in group_at:
            owner, kind, members = group_at[f]
            lines.append(f"SubClassOf(:{owner}Rule ObjectUnionOf({' '.join(map(_some, members))}))")
            if kind == "alternative":
                lines += [f"SubClassOf(:{owner}Rule ObjectComplementOf("
                          f"ObjectIntersectionOf({_some(a)} {_some(b)})))"
                          for a, b in itertools.combinations(members, 2)]
    for kind, src, tgt in model.constraints:
        sup = _some(tgt) if kind == "requires" else f"ObjectComplementOf({_some(tgt)})"
        lines.append(f"SubClassOf(:{src} {sup})")
    lines += [f"DisjointClasses(:{a} :{b})" for a, b in itertools.combinations(sorted(features), 2)]
    for f in features:
        for attr, datatype in model.attributes[f]:
            lines += [f"Declaration(DataProperty(:{attr}))", f"DataPropertyDomain(:{attr} :{f})",
                      f"DataPropertyRange(:{attr} xsd:{datatype})"]
    lines.append(")")
    return "\n".join(lines) + "\n"


def scaffold_files(model: Model) -> dict[str, str]:
    """Relative path -> text of every file ``fmc scaffold`` writes for the model."""
    features, _ = model.order()
    categories = [(c, rule) for f in features for c, rule in ((f, False), (f + "Rule", True))]
    domains: dict[str, list[str]] = {f: [] for f in features}
    for f in features[1:]:
        if model.kind[f] == "mandatory":
            domains[f].append(model.parent[f])
    for kind, src, tgt in model.constraints:
        if kind == "requires" and src not in domains[tgt]:
            domains[tgt].append(src)
    document = {
        "site": model.root,
        "categories": [{"name": c, "is_rule_class": rule} for c, rule in categories],
        "predicates": [{"name": "has" + f, "valid_from": domains[f], "valid_to": [f]}
                       for f in features],
    }
    files = {"install_data.json": json.dumps(document, indent=2) + "\n"}
    for c, rule in categories:
        lines = [f"# form for category: {c}"]
        for attr, datatype in ([] if rule else model.attributes[c]):
            line = f"field: {attr} ({datatype})"
            if attr.lower() in TRIGGERS:
                line += f" [read-only, computed: {TRIGGERS[attr.lower()]}]"
            lines.append(line)
        files[f"templates/{c}_form.tpl.txt"] = "\n".join(lines) + "\n"
    return files
