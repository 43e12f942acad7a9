"""Span tracing from outside the program: timing wrappers around layer entry points.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each traced entry point (a module-level function, a method, or a property)
with a wrapper that records a span while an op is open, and :func:`uninstall`
restores the originals.  Module-level functions are patched in every
``repro`` module that imported them by name, so calls through
``from x import f`` bindings are seen too.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (or -1) and ``op`` the id of the op that caused it.  Spans are
kept in memory and written out once, at exit (:meth:`Tracer.dump`).
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (module, attribute, span name): attribute is "function" or "Class.member".
TRACED: tuple[tuple[str, str, str], ...] = (
    ("repro.data.io", "load_tid", "data.io.load"),
    ("repro.data.tid", "ProbabilisticInstance.__init__", "data.tid.build"),
    ("repro.data.tid", "ProbabilisticInstance.fingerprint", "data.tid.build"),
    ("repro.data.instance", "Instance.fingerprint", "data.instance.fingerprint"),
    ("repro.queries.parser", "parse_ucq", "queries.parser.parse"),
    ("repro.data.gaifman", "gaifman_graph", "data.gaifman.graph"),
    ("repro.structure.elimination", "best_heuristic_sweep", "structure.tree_decomposition"),
    (
        "repro.structure.tree_decomposition",
        "decomposition_from_sweep",
        "structure.tree_decomposition",
    ),
    ("repro.structure.path_decomposition", "path_decomposition", "structure.path_decomposition"),
    (
        "repro.provenance.variable_orders",
        "fact_order_from_path_decomposition",
        "provenance.variable_orders.fact_order",
    ),
    (
        "repro.provenance.variable_orders",
        "fact_order_from_tree_decomposition",
        "provenance.variable_orders.fact_order",
    ),
    (
        "repro.provenance.variable_orders",
        "default_fact_order",
        "provenance.variable_orders.fact_order",
    ),
    ("repro.provenance.lineage", "lineage_of", "provenance.lineage.lineage"),
    ("repro.provenance.compile_obdd", "compile_lineage_to_obdd", "provenance.compile_obdd.build"),
    ("repro.booleans.obdd", "OBDD.sweep", "booleans.obdd.sweep"),
    ("repro.booleans.obdd", "OBDD.to_columnar", "booleans.columnar.flatten"),
    ("repro.booleans.columnar", "ColumnarOBDD.to_obdd", "booleans.columnar.rehydrate"),
    ("repro.booleans.columnar", "ColumnarOBDD.sweep", "booleans.columnar.sweep"),
    ("repro.probability.lifted.plan", "try_lifted_plan", "probability.lifted.plan"),
    ("repro.probability.lifted.executor", "execute_plan", "probability.lifted.execute"),
    ("repro.engine.session", "CompilationEngine.__init__", "engine.session.init"),
    ("repro.engine.session", "CompilationEngine.probability", "engine.session.probability"),
    ("repro.engine.session", "CompilationEngine.choose_route", "engine.router.choose_route"),
    ("repro.store.store", "ArtifactStore.__init__", "store.open"),
    ("repro.store.store", "ArtifactStore.get_columnar", "store.get"),
    ("repro.store.store", "ArtifactStore.get_object", "store.get"),
    ("repro.store.store", "ArtifactStore.put_columnar", "store.put"),
    ("repro.store.store", "ArtifactStore.put_object", "store.put"),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder; records only while an op is open."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op: Any = None
        self._stack: list[int] = []
        # (span name, arguments, result) of each traced call while an op is
        # open (decompositions, lineages, compiled OBDDs, store reads); read
        # after the op ends.
        self.results: list[tuple[str, tuple[Any, ...], Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    def begin_op(self, op: Any) -> int:
        self.op = op
        return self.open("op")

    def end_op(self, index: int) -> None:
        self.close(index)
        self.op = None

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.op is None:
                return function(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            tracer.results.append((name, args, result))
            return result

        return traced

    # -- installing the wrappers --------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`TRACED` (idempotent per tracer)."""
        if self._patches:
            return
        for module_name, attribute, name in TRACED:
            module = sys.modules[module_name]
            if "." in attribute:
                owner_name, member = attribute.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[member]
                if isinstance(original, property):
                    replacement: Any = property(self.wrap(name, original.fget))
                else:
                    replacement = self.wrap(name, original)
                self._patches.append((owner, member, original))
                setattr(owner, member, replacement)
                continue
            original = getattr(module, attribute)
            replacement = self.wrap(name, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if (
                    namespace is not None
                    and getattr(loaded, "__name__", "").startswith("repro")
                    and namespace.get(attribute) is original
                ):
                    self._patches.append((loaded, attribute, original))
                    setattr(loaded, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every original entry point."""
        for owner, member, original in reversed(self._patches):
            setattr(owner, member, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own
