"""The :class:`CompilationEngine` session object (see the package docstring).

The engine is deliberately a plain in-process object: it owns ordinary
dictionaries behind content fingerprints, so a web worker, a benchmark, or a
CLI invocation can hold one engine per process (or one per tenant) and get
memoization without any global state.  A module-level :func:`default_engine`
is provided for the common single-session case.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable, Sequence

from repro.booleans.columnar import ColumnarOBDD
from repro.data.gaifman import gaifman_graph
from repro.data.instance import Fact, Instance
from repro.data.tid import ProbabilisticInstance
from repro.engine.router import (
    CIRCUIT_ROUTES,
    ROUTES,
    RouteAttempt,
    RouteCostModel,
    RouteDecision,
    check_method,
)
from repro.errors import (
    CompilationError,
    DeadlineExceeded,
    ReproError,
    UnsafeQueryError,
)
from repro.probability.lifted import LiftedPlan, execute_plan, try_lifted_plan
from repro.provenance.compile_obdd import CompiledOBDD, compile_lineage_to_obdd
from repro.provenance.lineage import MonotoneDNFLineage, lineage_of
from repro.provenance.tree_encoding import TreeEncoding, fused_tree_encoding
from repro.provenance.ucq_automaton import ucq_probability_via_automaton
from repro.provenance.variable_orders import (
    default_fact_order,
    fact_order_from_path_decomposition,
    fact_order_from_tree_decomposition,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries, as_ucq
from repro.resilience import (
    DEGRADED_ROUTE,
    ProbabilityBounds,
    ResourceBudget,
    activate,
    active_budget,
    degraded_probability_bounds,
)
from repro.store import (
    ArtifactStore,
    canonical_query_text,
    columnar_key,
    encoding_key,
    plan_key,
)
from repro.structure.elimination import EliminationSweep, best_heuristic_sweep
from repro.structure.graph import Graph
from repro.structure.path_decomposition import PathDecomposition, path_decomposition
from repro.structure.tree_decomposition import TreeDecomposition, decomposition_from_sweep

Query = UnionOfConjunctiveQueries | ConjunctiveQuery

_ORDER_KINDS = ("default", "path", "tree")


@dataclass
class CacheStats:
    """Hit/miss counters for one engine cache.

    ``quarantines`` is only ever non-zero on the ``"store"`` cache: it
    counts persistent-store entries that failed integrity verification and
    were moved aside during this engine's lookups (each such lookup also
    counts as a miss — the artifact was recompiled).
    """

    hits: int = 0
    misses: int = 0
    quarantines: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def record(self, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def reset(self) -> None:
        """Zero every counter, quarantines included."""
        self.hits = self.misses = self.quarantines = 0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        if not isinstance(other, CacheStats):
            return NotImplemented
        return CacheStats(
            self.hits + other.hits,
            self.misses + other.misses,
            self.quarantines + other.quarantines,
        )

    def copy(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.quarantines)

    def __str__(self) -> str:
        text = f"{self.hits} hits / {self.misses} misses"
        if self.quarantines:
            text += f" / {self.quarantines} quarantined"
        return text


def merge_cache_stats(
    per_worker: Iterable[dict[str, CacheStats]],
) -> dict[str, CacheStats]:
    """Pointwise sum of several engines' ``stats`` dictionaries.

    Used by :class:`repro.engine.parallel.ParallelEngine` to aggregate the
    per-worker statistics into one report; the merged counters are exactly the
    sums of the worker counters, cache by cache.
    """
    merged: dict[str, CacheStats] = {}
    for stats in per_worker:
        for name, value in stats.items():
            if name in merged:
                merged[name] = merged[name] + value
            else:
                merged[name] = value.copy()
    return merged


@dataclass
class _InstanceArtifacts:
    """Everything the engine has derived from one instance (by fingerprint).

    The per-query maps are LRU-trimmed by the engine (``max_queries_per_instance``)
    so a long-lived session evaluating many distinct queries against one hot
    instance cannot accumulate lineages and OBDDs without bound.
    """

    graph: Graph | None = None
    sweep: EliminationSweep | None = None
    tree: TreeDecomposition | None = None
    path: PathDecomposition | None = None
    encoding: TreeEncoding | None = None
    orders: dict[str, tuple[Fact, ...]] = field(default_factory=dict)
    lineages: OrderedDict[UnionOfConjunctiveQueries, MonotoneDNFLineage] = field(
        default_factory=OrderedDict
    )
    compiled: OrderedDict[tuple[UnionOfConjunctiveQueries, bool], CompiledOBDD] = field(
        default_factory=OrderedDict
    )


class CompilationEngine:
    """A memoizing session for lineage compilation and probability evaluation.

    Per instance, the engine caches structural artifacts and, per (query,
    fact order), one lineage and one compiled OBDD.  The compiled OBDD is
    the only OBDD artifact: the ``obdd`` route sweeps it and
    :meth:`columnar` hands out its columnar form, which the artifact
    computes once and keeps (see :class:`~repro.provenance.compile_obdd.
    CompiledOBDD`).

    Parameters
    ----------
    max_instances:
        How many distinct instances (by fingerprint) to keep artifacts for;
        the least recently used instance is evicted beyond this bound.
    max_queries_per_instance:
        How many distinct (query, options) lineages/OBDDs to keep per
        instance; least recently used entries are evicted beyond this bound.
    max_probability_entries:
        Bound on the (query, TID fingerprint, method) -> probability cache.
    circuit_fact_limit:
        Instance size (fact count) beyond which the dichotomy router
        (:meth:`choose_route`) treats the circuit-building routes as
        infeasible for ``method="auto"`` unless their artifact is already
        cached; the lifted plan route has no such limit.
    degradation:
        ``None`` (the default) keeps the engine strictly exact: when every
        route in the ``method="auto"`` failover chain fails, the last typed
        error is raised.  ``"karp_luby"`` opts into graceful degradation:
        the engine then returns a labelled
        :class:`~repro.resilience.ProbabilityBounds` (guaranteed
        dissociation interval plus a seeded point estimate) instead of
        raising — never a bare float masquerading as exact, and never
        entered into the exact probability cache.
    store:
        A persistent tier below the in-memory LRU caches: an opened
        :class:`~repro.store.ArtifactStore`, or a directory path (string or
        ``Path``) to open one at.  Compiled OBDDs (in their columnar form),
        lifted plans, and tree encodings are then *read through* the store
        on a memory miss (every lookup counted in ``stats["store"]``) and
        *written behind* on a fresh build, so they survive process restarts
        and are shared by every engine pointed at the same directory.  A
        store entry that fails integrity verification is quarantined and
        recompiled (counted in ``stats["store"].quarantines``) — the store
        can never change an answer, only the time to produce it.
    """

    def __init__(
        self,
        max_instances: int = 256,
        max_queries_per_instance: int = 1024,
        max_probability_entries: int = 65536,
        circuit_fact_limit: int = 20000,
        degradation: str | None = None,
        store: "ArtifactStore | str | Path | None" = None,
    ) -> None:
        if max_instances < 1:
            raise CompilationError("max_instances must be at least 1")
        if max_queries_per_instance < 1:
            raise CompilationError("max_queries_per_instance must be at least 1")
        if max_probability_entries < 1:
            raise CompilationError("max_probability_entries must be at least 1")
        if circuit_fact_limit < 1:
            raise CompilationError("circuit_fact_limit must be at least 1")
        if degradation not in (None, DEGRADED_ROUTE):
            raise CompilationError(
                f"unknown degradation tier {degradation!r}; use None or {DEGRADED_ROUTE!r}"
            )
        self._max_instances = max_instances
        self._max_queries_per_instance = max_queries_per_instance
        self._max_probability_entries = max_probability_entries
        self.circuit_fact_limit = circuit_fact_limit
        self.degradation = degradation
        #: The most recent ``method="auto"`` decision, re-published after the
        #: evaluation with the failover ``attempts`` chain filled in (what
        #: the CLI's ``--explain`` reports).
        self.last_decision: RouteDecision | None = None
        self._artifacts: OrderedDict[str, _InstanceArtifacts] = OrderedDict()
        self._probabilities: OrderedDict[tuple, Fraction] = OrderedDict()
        # Safe plans are instance-independent, so the plan cache is keyed by
        # the (frozen, content-hashed) query alone; None records "unsafe" so
        # repeated routing of an unsafe query never re-runs minimization.
        self._lifted_plans: OrderedDict[UnionOfConjunctiveQueries, LiftedPlan | None] = (
            OrderedDict()
        )
        self.route_costs = RouteCostModel()
        self.route_counts: dict[str, int] = {}
        if isinstance(store, (str, Path)):
            store = ArtifactStore(store)
        self.store: ArtifactStore | None = store
        self._store_quarantines_seen = store.counters.quarantines if store else 0
        self.stats: dict[str, CacheStats] = {
            "structure": CacheStats(),
            "lineage": CacheStats(),
            "obdd": CacheStats(),
            "lifted_plan": CacheStats(),
            "probability": CacheStats(),
            "store": CacheStats(),
        }

    # -- cache plumbing -------------------------------------------------------

    def _slot(self, instance: Instance) -> _InstanceArtifacts:
        key = instance.fingerprint
        slot = self._artifacts.get(key)
        if slot is None:
            slot = _InstanceArtifacts()
            self._artifacts[key] = slot
            while len(self._artifacts) > self._max_instances:
                self._artifacts.popitem(last=False)
        else:
            self._artifacts.move_to_end(key)
        return slot

    def clear(self) -> None:
        """Drop every cached artifact and reset the statistics."""
        self._artifacts.clear()
        self._probabilities.clear()
        self._lifted_plans.clear()
        self.route_counts.clear()
        self.last_decision = None
        for stats in self.stats.values():
            stats.reset()
        if self.store is not None:
            self._store_quarantines_seen = self.store.counters.quarantines

    def cache_info(self) -> dict[str, CacheStats]:
        """The per-cache hit/miss statistics (live objects, not copies)."""
        return dict(self.stats)

    def route_mix(self) -> dict[str, int]:
        """How often each route served a ``method="auto"`` evaluation.

        Counts actual evaluations (probability-cache hits short-circuit
        before routing and are visible in the ``probability`` stats).
        """
        return dict(self.route_counts)

    # -- the persistent tier ---------------------------------------------------
    #
    # Read-through/write-behind around the same content-fingerprint keys the
    # in-memory caches use.  Every store lookup is counted in stats["store"];
    # quarantines the store performed during this engine's traffic are folded
    # into the same entry, so ``cache_info()`` surfaces disk damage without a
    # separate reporting channel.  All store traffic is best-effort by
    # construction: a miss (including a quarantined hit) falls through to
    # recompilation, a failed write leaves the in-memory artifact in charge.

    def _sync_store_quarantines(self) -> None:
        assert self.store is not None
        delta = self.store.counters.quarantines - self._store_quarantines_seen
        if delta > 0:
            self.stats["store"].quarantines += delta
            self._store_quarantines_seen = self.store.counters.quarantines

    def _store_get(self, key: str, columnar: bool = False) -> tuple[bool, Any]:
        """``(found, value)`` for ``key`` from the store (a columnar entry
        when ``columnar``, else a pickled one); ``(False, None)`` without
        a store."""
        if self.store is None:
            return False, None
        if columnar:
            value: Any = self.store.get_columnar(key)
            found = value is not None
        else:
            found, value = self.store.get_object(key)
        self.stats["store"].record(found)
        self._sync_store_quarantines()
        return found, value

    def _store_put(self, key: str, value: Any, meta: dict[str, object]) -> None:
        """Write a fresh artifact behind; a compiled OBDD is stored (and so
        flattened) in its columnar form.  A no-op without a store."""
        if self.store is None:
            return
        if isinstance(value, CompiledOBDD):
            self.store.put_columnar(key, value.to_columnar(), meta)
        else:
            self.store.put_object(key, value, meta)
        self._sync_store_quarantines()

    # -- structural artifacts -------------------------------------------------

    def gaifman(self, instance: Instance) -> Graph:
        """The (cached) Gaifman graph of the instance."""
        slot = self._slot(instance)
        self.stats["structure"].record(slot.graph is not None)
        if slot.graph is None:
            slot.graph = gaifman_graph(instance)
        return slot.graph

    def _sweep_of(self, instance: Instance) -> EliminationSweep:
        """The (cached) best-heuristic elimination sweep: the one structural
        computation both the tree decomposition and the fused tree encoding
        derive from, so a session runs it at most once per instance."""
        slot = self._slot(instance)
        if slot.sweep is None:
            slot.sweep = best_heuristic_sweep(self.gaifman(instance))
        return slot.sweep

    def tree_decomposition_of(self, instance: Instance) -> TreeDecomposition:
        """A (cached) tree decomposition of the instance's Gaifman graph."""
        slot = self._slot(instance)
        self.stats["structure"].record(slot.tree is not None)
        if slot.tree is None:
            slot.tree = decomposition_from_sweep(self._sweep_of(instance))
        return slot.tree

    def path_decomposition_of(self, instance: Instance) -> PathDecomposition:
        """A (cached) path decomposition of the instance's Gaifman graph."""
        slot = self._slot(instance)
        self.stats["structure"].record(slot.path is not None)
        if slot.path is None:
            slot.path = path_decomposition(self.gaifman(instance))
        return slot.path

    def tree_encoding_of(self, instance: Instance) -> TreeEncoding:
        """A (cached) tree encoding of the instance, built by the fused
        single-sweep pipeline (:func:`repro.provenance.tree_encoding.
        fused_tree_encoding`), reusing the cached Gaifman graph."""
        slot = self._slot(instance)
        self.stats["structure"].record(slot.encoding is not None)
        if slot.encoding is None:
            key = encoding_key(instance.fingerprint)
            found, value = self._store_get(key)
            if found:
                nodes, root = value
                slot.encoding = TreeEncoding(instance, nodes, root)
            else:
                slot.encoding = fused_tree_encoding(instance, sweep=self._sweep_of(instance))
                # Persist only the instance-independent node table: the
                # loading engine reattaches its own Instance object.
                self._store_put(
                    key,
                    (slot.encoding.nodes, slot.encoding.root),
                    {"kind": "tree_encoding", "instance": instance.fingerprint},
                )
        return slot.encoding

    def fact_order(self, instance: Instance, kind: str = "default") -> tuple[Fact, ...]:
        """A (cached) fact order: ``"default"``, ``"path"``, or ``"tree"``."""
        if kind not in _ORDER_KINDS:
            raise CompilationError(f"unknown fact order kind {kind!r}; use one of {_ORDER_KINDS}")
        slot = self._slot(instance)
        self.stats["structure"].record(kind in slot.orders)
        if kind not in slot.orders:
            if kind == "path":
                order = fact_order_from_path_decomposition(
                    instance, self.path_decomposition_of(instance)
                )
            elif kind == "tree":
                order = fact_order_from_tree_decomposition(
                    instance, self.tree_decomposition_of(instance)
                )
            else:
                order = default_fact_order(
                    instance,
                    path=self.path_decomposition_of(instance),
                    tree=self.tree_decomposition_of(instance),
                )
            slot.orders[kind] = tuple(order)
        return slot.orders[kind]

    # -- lineages and OBDDs ---------------------------------------------------

    def lineage(self, query: Query, instance: Instance) -> MonotoneDNFLineage:
        """The (cached) minimal-match DNF lineage of the query on the instance."""
        key = as_ucq(query)
        slot = self._slot(instance)
        hit = key in slot.lineages
        self.stats["lineage"].record(hit)
        if hit:
            slot.lineages.move_to_end(key)
        else:
            slot.lineages[key] = lineage_of(key, instance)
            while len(slot.lineages) > self._max_queries_per_instance:
                slot.lineages.popitem(last=False)
        return slot.lineages[key]

    def compile(
        self, query: Query, instance: Instance, use_path_decomposition: bool = False
    ) -> CompiledOBDD:
        """The (cached) OBDD compilation of the query's lineage on the instance.

        This is the engine's one OBDD artifact, keyed by (query, fact order):
        :meth:`columnar` and the ``obdd`` route serve from it.  With a
        persistent :attr:`store`, a memory miss first tries the stored
        columnar form, which the artifact adopts as its own (no lineage
        enumeration, no OBDD construction; the object diagram is rebuilt
        only when an object kernel first needs it).  A fresh build is
        flattened only to be written behind to the store.  ``stats["obdd"]``
        counts memory hits and fresh builds; a store hit is counted in
        ``stats["store"]`` alone.
        """
        use_path = bool(use_path_decomposition)
        compiled = self._cached_compile(query, instance, use_path)
        if compiled is None:
            compiled = self._build(query, instance, use_path)
        return compiled

    def _cached_compile(
        self, query: Query, instance: Instance, use_path: bool
    ) -> CompiledOBDD | None:
        """The compiled OBDD from memory, else from the store; None when
        neither holds it.  Never enumerates lineage."""
        key = (as_ucq(query), use_path)
        slot = self._slot(instance)
        compiled = slot.compiled.get(key)
        if compiled is not None:
            self.stats["obdd"].record(True)
            slot.compiled.move_to_end(key)
            return compiled
        found, stored = self._store_get(
            columnar_key(instance.fingerprint, query, use_path), columnar=True
        )
        if not found:
            return None
        return self._keep_compiled(query, instance, use_path, CompiledOBDD.from_columnar(stored))

    def _build(self, query: Query, instance: Instance, use_path: bool) -> CompiledOBDD:
        """Enumerate the lineage, compile it, cache it, and write it behind."""
        self.stats["obdd"].record(False)
        lineage = self.lineage(query, instance)
        order = self.fact_order(instance, "path" if use_path else "default")
        compiled = self._keep_compiled(
            query, instance, use_path, compile_lineage_to_obdd(lineage, order)
        )
        # The query's canonical text round-trips through parse_ucq, which is
        # what lets ``store verify --repair`` re-derive the artifact from
        # the entry's metadata plus the source instance alone.
        self._store_put(
            columnar_key(instance.fingerprint, query, use_path),
            compiled,
            {
                "kind": "columnar",
                "query": canonical_query_text(query),
                "use_path": use_path,
                "instance": instance.fingerprint,
            },
        )
        return compiled

    def _keep_compiled(
        self, query: Query, instance: Instance, use_path: bool, compiled: CompiledOBDD
    ) -> CompiledOBDD:
        """Cache a freshly built or stored OBDD."""
        slot = self._slot(instance)
        slot.compiled[(as_ucq(query), use_path)] = compiled
        while len(slot.compiled) > self._max_queries_per_instance:
            slot.compiled.popitem(last=False)
        return compiled

    def compile_many(
        self,
        queries: Iterable[Query],
        instance: Instance,
        use_path_decomposition: bool = False,
    ) -> list[CompiledOBDD]:
        """Compile a batch of queries against one instance in one session.

        The structural artifacts (Gaifman graph, decompositions, fact order)
        are computed once and shared by the whole batch.
        """
        return [self.compile(q, instance, use_path_decomposition) for q in queries]

    def columnar(
        self, query: Query, instance: Instance, use_path_decomposition: bool = False
    ) -> ColumnarOBDD:
        """The columnar form of the (cached) compiled OBDD.

        ``compile(...).to_columnar()``: the same cached artifact, counted in
        ``stats["obdd"]``, flattened once on first request and kept on it.
        A store hit hands back the stored columns themselves, with no
        rehydration and no re-flattening.  This is the artifact the parallel
        tier ships through shared memory and the vectorized sweeps run on.
        """
        return self.compile(query, instance, use_path_decomposition).to_columnar()

    # -- lifted plans and the dichotomy router --------------------------------

    def lifted_plan(self, query: Query) -> LiftedPlan | None:
        """The (cached) lifted plan of the query, or None when unsafe.

        Plans are instance-independent, so the cache is keyed by the query
        alone; the None verdict for unsafe queries is cached too, so routing
        an unsafe query repeatedly never re-runs minimization.
        """
        key = as_ucq(query)
        hit = key in self._lifted_plans
        self.stats["lifted_plan"].record(hit)
        if hit:
            self._lifted_plans.move_to_end(key)
        else:
            # The pickle codec round-trips the None verdict for unsafe
            # queries too, so minimization never re-runs after a restart.
            found, plan = self._store_get(plan_key(key))
            if not found:
                plan = try_lifted_plan(key)
                self._store_put(
                    plan_key(key),
                    plan,
                    {"kind": "lifted_plan", "query": canonical_query_text(key)},
                )
            self._lifted_plans[key] = plan
            while len(self._lifted_plans) > self._max_probability_entries:
                self._lifted_plans.popitem(last=False)
        return self._lifted_plans[key]

    def _compiled_order(self, query: Query, instance: Instance) -> bool | None:
        """The ``use_path`` flag of an in-memory OBDD for (query, instance),
        the default fact order preferred; None when neither is cached.

        A peek, not a touch: no LRU reordering, no stats, no construction.
        """
        slot = self._artifacts.get(instance.fingerprint)
        if slot is None:
            return None
        key = as_ucq(query)
        for use_path in (False, True):
            if (key, use_path) in slot.compiled:
                return use_path
        return None

    def _has_circuit_artifact(self, route: str, query: Query, instance: Instance) -> bool:
        """Whether the route's artifact is already cached for (query, instance)
        (a peek, like :meth:`_compiled_order`)."""
        if route == "obdd":
            return self._compiled_order(query, instance) is not None
        slot = self._artifacts.get(instance.fingerprint)
        return slot is not None and slot.encoding is not None

    def choose_route(self, query: Query, tid: ProbabilisticInstance) -> RouteDecision:
        """The dichotomy router: pick the ``method="auto"`` evaluation route.

        The query side of the dichotomy first: if the query admits a lifted
        plan, the safe-plan route is a candidate at its measured cost.  The
        instance side next: each circuit route is a candidate unless the
        instance exceeds ``circuit_fact_limit`` and the route's artifact is
        not already cached.  Among the candidates, the cost model's cheapest
        prediction wins (ties broken by the order of :data:`ROUTES`).
        """
        plan = self.lifted_plan(query)
        facts = len(tid.instance)
        estimates: list[tuple[str, float]] = []
        infeasible: list[str] = []
        if plan is not None:
            estimates.append(("safe_plan", self.route_costs.predict("safe_plan", facts)))
        for route in CIRCUIT_ROUTES:
            if facts > self.circuit_fact_limit and not self._has_circuit_artifact(
                route, query, tid.instance
            ):
                infeasible.append(route)
            else:
                estimates.append((route, self.route_costs.predict(route, facts)))
        estimates.sort(key=lambda e: (e[1], ROUTES.index(e[0])))
        if estimates:
            method = estimates[0][0]
            reason = (
                f"cheapest predicted route at {facts} facts"
                if len(estimates) > 1
                else "only feasible route"
            )
        else:
            # Nothing feasible (unsafe query on a huge instance): fall back to
            # the OBDD route best-effort rather than refusing to answer.
            method = "obdd"
            reason = "no feasible route; best-effort OBDD fallback"
        return RouteDecision(
            method=method,
            liftable=plan is not None,
            instance_facts=facts,
            estimates=tuple(estimates),
            infeasible=tuple(infeasible),
            reason=reason,
        )

    # -- probability evaluation -----------------------------------------------

    def probability(
        self,
        query: Query,
        tid: ProbabilisticInstance,
        method: str = "auto",
        budget: ResourceBudget | None = None,
    ) -> Fraction | ProbabilityBounds:
        """The (cached) probability of the query on a TID instance.

        ``method`` is one of :data:`~repro.engine.router.METHOD_NAMES`:
        ``auto`` consults the dichotomy router (:meth:`choose_route`), fails
        over along :data:`~repro.engine.router.ROUTES`, and records the
        serving route in :meth:`route_mix`; a route name runs that route
        alone.  ``safe_plan`` executes the engine's cached lifted plan
        (:meth:`lifted_plan`); ``obdd`` evaluates the cached compiled OBDD
        with the exact fused sweep (:meth:`repro.booleans.obdd.OBDD.sweep`),
        from memory or the store when present, and otherwise enumerates the
        lineage, evaluating a read-once-shaped one directly;
        ``automaton`` runs the state dynamic programming over the engine's
        cached fused tree encoding (:meth:`tree_encoding_of`).  Every route
        is exact.  Any other string raises
        :class:`~repro.errors.ProbabilityError` naming the valid ones.

        ``budget`` activates a :class:`~repro.resilience.ResourceBudget`
        around the evaluation: the kernels then checkpoint against its node
        and row caps and its wall-clock deadline, raising
        :class:`~repro.errors.BudgetExceeded` /
        :class:`~repro.errors.DeadlineExceeded` (``method="auto"`` fails
        over between routes on the former).  A cache hit answers without
        consulting the budget.  Degraded answers
        (:class:`~repro.resilience.ProbabilityBounds`) are never
        cached: the next call gets a fresh chance at an exact route.
        """
        check_method(method)
        query = as_ucq(query)
        key = (query, tid.fingerprint, method)
        cached = self._probabilities.get(key)
        self.stats["probability"].record(cached is not None)
        if cached is not None:
            self._probabilities.move_to_end(key)
            return cached
        if budget is not None:
            with activate(budget):
                value = self._evaluate(query, tid, method)
        else:
            value = self._evaluate(query, tid, method)
        if isinstance(value, ProbabilityBounds):
            return value
        self._probabilities[key] = value
        while len(self._probabilities) > self._max_probability_entries:
            self._probabilities.popitem(last=False)
        return value

    def probability_many(
        self,
        queries: Sequence[Query],
        tid: ProbabilisticInstance,
        method: str = "auto",
        budget: ResourceBudget | None = None,
    ) -> list[Fraction | ProbabilityBounds]:
        """Probabilities of a batch of queries on one TID instance.

        A shared ``budget`` spans the whole batch: its node/row caps bound
        each attempt (the failover chain resets the usage counters between
        routes) while its deadline is global to the batch.
        """
        return [self.probability(q, tid, method, budget=budget) for q in queries]

    def _evaluate(
        self, query: UnionOfConjunctiveQueries, tid: ProbabilisticInstance, method: str
    ) -> Fraction | ProbabilityBounds:
        """One route, or for ``method="auto"`` the routed chain with failover.

        The router's pick runs first; on a budget blowout or a
        route-specific failure the engine advances through the remaining
        feasible routes in :data:`~repro.engine.router.ROUTES`,
        resetting the active budget's usage counters between attempts
        (caps are per-attempt) and recording each failure as a cost-model
        penalty.  A :class:`~repro.errors.DeadlineExceeded` is terminal:
        no remaining route can finish inside an already-elapsed wall-clock
        deadline, so it re-raises instead of failing over.  When every
        exact route fails, the opt-in ``karp_luby`` degradation tier
        returns labelled bounds; without it, the last typed error is
        re-raised.  The walked chain is re-published on
        :attr:`last_decision` as :class:`~repro.engine.router.RouteAttempt`
        records.
        """
        if method != "auto":
            return self._evaluate_route(method, query, tid)
        decision = self.choose_route(query, tid)
        feasible = {route for route, _ in decision.estimates}
        chain = [decision.method] + [
            route for route in ROUTES if route in feasible and route != decision.method
        ]
        budget = active_budget()
        facts = len(tid.instance)
        attempts: list[RouteAttempt] = []
        last_error: BaseException | None = None
        for route in chain:
            started = perf_counter()
            try:
                if budget is not None:
                    # Never start a route after the deadline has passed; the
                    # kernels' own checkpoints only fire once work is underway.
                    budget.checkpoint()
                value = self._evaluate_route(route, query, tid)
            except DeadlineExceeded as error:
                self.route_costs.record_failure(route)
                attempts.append(
                    RouteAttempt(route, _describe_failure(error), perf_counter() - started)
                )
                self.last_decision = replace(decision, attempts=tuple(attempts))
                raise
            except (ReproError, MemoryError) as error:
                self.route_costs.record_failure(route)
                attempts.append(
                    RouteAttempt(route, _describe_failure(error), perf_counter() - started)
                )
                last_error = error
                if budget is not None:
                    # Caps are per-attempt: the next route starts fresh
                    # (the deadline, deliberately, keeps running).
                    budget.reset_usage()
                continue
            elapsed = perf_counter() - started
            self.route_counts[route] = self.route_counts.get(route, 0) + 1
            self.route_costs.observe(route, facts, elapsed)
            attempts.append(RouteAttempt(route, "", elapsed))
            self.last_decision = replace(
                decision, method=route, attempts=tuple(attempts)
            )
            return value
        if self.degradation == DEGRADED_ROUTE:
            bounds = degraded_probability_bounds(query, tid)
            self.route_counts[DEGRADED_ROUTE] = (
                self.route_counts.get(DEGRADED_ROUTE, 0) + 1
            )
            self.last_decision = replace(
                decision,
                method=DEGRADED_ROUTE,
                attempts=tuple(attempts),
                degraded=True,
            )
            return bounds
        self.last_decision = replace(decision, attempts=tuple(attempts))
        assert last_error is not None  # the chain is never empty
        raise last_error

    def _evaluate_route(
        self, route: str, query: UnionOfConjunctiveQueries, tid: ProbabilisticInstance
    ) -> Fraction:
        """Run one route of :data:`~repro.engine.router.ROUTES` (always exact)."""
        if route == "safe_plan":
            plan = self.lifted_plan(query)
            if plan is None:
                raise UnsafeQueryError(
                    "query admits no lifted plan: use a circuit method or auto"
                )
            return execute_plan(plan, tid)
        if route == "obdd":
            return self._obdd_probability(query, tid)
        return ucq_probability_via_automaton(
            query, tid, encoding=self.tree_encoding_of(tid.instance)
        )

    def _obdd_probability(
        self, query: UnionOfConjunctiveQueries, tid: ProbabilisticInstance
    ) -> Fraction:
        """The ``obdd`` route.

        The artifact that made the route feasible is the one evaluated: an
        in-memory OBDD in either fact order (what the circuit gate accepts),
        else the stored one.  Only a miss enumerates the lineage; a
        read-once-shaped lineage is then evaluated directly, with no OBDD.
        """
        instance = tid.instance
        compiled = self._cached_compile(
            query, instance, bool(self._compiled_order(query, instance))
        )
        if compiled is None:
            lineage = self.lineage(query, instance)
            if lineage.is_read_once_shaped():
                return _read_once_probability(lineage, tid)
            compiled = self._build(query, instance, False)
        return compiled.probability(tid.valuation())


def _read_once_probability(
    lineage: MonotoneDNFLineage, tid: ProbabilisticInstance
) -> Fraction:
    """P(OR of independent ANDs) = 1 - prod(1 - prod(p(fact)))."""
    complement = Fraction(1)
    for clause in lineage.clauses:
        clause_probability = Fraction(1)
        for fact in clause:
            clause_probability *= tid.probability_of(fact)
        complement *= 1 - clause_probability
    return 1 - complement


def _describe_failure(error: BaseException) -> str:
    """One-line attempt label: ``ErrorType: message`` (message truncated)."""
    message = str(error)
    if len(message) > 200:
        message = message[:197] + "..."
    return f"{type(error).__name__}: {message}" if message else type(error).__name__


_DEFAULT_ENGINE: CompilationEngine | None = None


def default_engine() -> CompilationEngine:
    """The process-wide default engine (created lazily on first use)."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = CompilationEngine()
    return _DEFAULT_ENGINE
