"""Spans around fmc's public functions, and the per-layer metrics drawn from them.

``Tracer.install()`` replaces every module attribute in the ``fmc``
package that binds a traced function with one wrapper per function, so
calls are seen whichever binding they go through (``fmc.analysis.solve``
called from ``dead_features``, ``fmc.dsl.validate`` called from ``parse``).
``uninstall()`` puts the original objects back.

Traced functions are those ``fmc.__all__`` exports plus ``fmc.cli.main``.
A span's name is ``<module>.<function>``, e.g. ``owl.validate_ontology``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a top-level span
    op: int = -1      # operation id within the pass
    info: dict = field(default_factory=dict)
    error: str | None = None


# Counters read from a call's arguments or result: span name -> (args, result) -> info.
ANNOTATE = {
    "analysis.solve": lambda args, result: {"unsat": result is None},
    "analysis.dead_features": lambda args, result: {"features": len(args[0].features)},
    "propositional.to_propositional": lambda args, result: {"clauses": len(result.clauses)},
    "compiler.compile_model": lambda args, result: {"axioms": len(result.axioms)},
    # the emitted text is ASCII, so characters are bytes
    "owl.serialize_functional": lambda args, result: {"bytes": len(result)},
    "owl.parse_functional": lambda args, result: {"bytes": len(args[0])},
    "dsl.parse": lambda args, result: {"bytes": len(args[0].encode("utf-8"))},
    "scaffold.write_phase1": lambda args, result: {"files": len(result)},
    "scaffold.write_phase2": lambda args, result: {"files": len(result)},
}


def traced_functions() -> dict[str, object]:
    """Span name -> function object for everything the tracer wraps."""
    import fmc
    import fmc.cli
    found = {}
    for fn in [getattr(fmc, name) for name in fmc.__all__] + [fmc.cli.main]:
        if inspect.isfunction(fn):
            found[f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"] = fn
    return found


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1, op=self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if annotate is not None:
                span.info = annotate(args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = {id(fn): self.wrap(name, fn) for name, fn in traced_functions().items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "fmc" and not mod_name.startswith("fmc."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets and inspect.isfunction(value):
                    self._saved.append((module, attr, value))
                    setattr(module, attr, targets[id(value)])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Calls are sequential on one thread, so sibling spans never overlap.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _within(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (0 where a layer did not run)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, float] = {}
    for s, t in zip(spans, own):
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        self_total[s.name] = self_total.get(s.name, 0.0) + t
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.info.items():
            info[f"{s.name}.{key}"] = info.get(f"{s.name}.{key}", 0) + value

    def rate(mb: float, seconds: float) -> float:
        return mb / seconds if seconds > 0 else 0.0

    solves_in_dead = sum(1 for i, s in enumerate(spans)
                         if s.name == "analysis.solve" and _within(spans, i, "analysis.dead_features"))
    features_decided = info.get("analysis.dead_features.features", 0)
    return {
        "analysis.dead_features.s": total.get("analysis.dead_features", 0.0),
        "analysis.solve.calls": calls.get("analysis.solve", 0),
        "analysis.solve.self_s": self_total.get("analysis.solve", 0.0),
        "analysis.solve.unsat": int(info.get("analysis.solve.unsat", 0)),
        "analysis.features_per_solve": features_decided / solves_in_dead if solves_in_dead else 0.0,
        "analysis.check_consistency.s": total.get("analysis.check_consistency", 0.0),
        "analysis.count_configurations.s": total.get("analysis.count_configurations", 0.0),
        "propositional.to_propositional.s": total.get("propositional.to_propositional", 0.0),
        "propositional.clauses": int(info.get("propositional.to_propositional.clauses", 0)),
        "propositional.satisfies.calls": calls.get("propositional.satisfies", 0),
        "propositional.is_valid_configuration.s": total.get("propositional.is_valid_configuration", 0.0),
        "dsl.parse.s": total.get("dsl.parse", 0.0),
        "dsl.parse.calls": calls.get("dsl.parse", 0),
        "dsl.parse.mb_per_s": rate(info.get("dsl.parse.bytes", 0) / 1e6, total.get("dsl.parse", 0.0)),
        "dsl.parse_configuration.s": total.get("dsl.parse_configuration", 0.0),
        "model.validate.s": total.get("model.validate", 0.0),
        "cli.main.self_s": self_total.get("cli.main", 0.0),
        "compiler.compile_model.self_s": self_total.get("compiler.compile_model", 0.0),
        "compiler.axioms": int(info.get("compiler.compile_model.axioms", 0)),
        "owl.validate_ontology.calls": calls.get("owl.validate_ontology", 0),
        "owl.validate_ontology.s": total.get("owl.validate_ontology", 0.0),
        "owl.serialize_functional.self_s": self_total.get("owl.serialize_functional", 0.0),
        "owl.serialize_functional.mb": info.get("owl.serialize_functional.bytes", 0) / 1e6,
        "scaffold.generate.self_s": self_total.get("scaffold.generate", 0.0),
        "scaffold.write.s": total.get("scaffold.write_phase1", 0.0) + total.get("scaffold.write_phase2", 0.0),
        "scaffold.files": int(info.get("scaffold.write_phase1.files", 0)
                              + info.get("scaffold.write_phase2.files", 0)),
        "owl.parse_functional.s": total.get("owl.parse_functional", 0.0),
        "owl.parse_functional.mb_per_s": rate(info.get("owl.parse_functional.bytes", 0) / 1e6,
                                              total.get("owl.parse_functional", 0.0)),
    }
