"""The three workloads: seeded inputs, resident set-up, the timed op, its check.

Each workload is closed-loop with one client: the runner sends the next
request only after the previous answer arrived.  An op runs from the request
(a file path plus a query text) to a rendered answer; the runner times it and
checks the answer afterwards, outside the timed region.  Every op stands for
a new process (a CLI call, a restart): a fresh engine, on a collected heap.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from repro.data import io as data_io
from repro.engine import session
from repro.queries import parser
from repro.store import ArtifactStore

from inputs import (
    LIFTED_QUERY,
    UNSAFE_QUERIES,
    AutomatonOracle,
    InputFile,
    ktree_file,
    ktree_name,
    lifted_closed_form,
    lifted_family,
    lifted_name,
)


@dataclass
class OpSpec:
    """One request: which input, which query."""

    source: InputFile
    query: str


@dataclass
class OpOutcome:
    """What an op returned, plus the engine the runner inspects."""

    value: Any
    engine: Any
    invariant_error: str = ""


def cold_op(spec: OpSpec, budget: Any) -> OpOutcome:
    """What one CLI invocation does: ingest, parse, a fresh engine, ``auto``."""
    tid = data_io.load_tid(spec.source.path)
    query = parser.parse_ucq(spec.query)
    engine = session.CompilationEngine()
    value = engine.probability(query, tid, "auto", budget=budget)
    return OpOutcome(value, engine)


class Workload:
    """Base class: subclasses define inputs, set-up, ops and the check."""

    name = ""
    # Input sizes of the full run and of ``--smoke``.
    sizes: tuple[int, ...] = ()
    smoke_sizes: tuple[int, ...] = ()
    writes_store = False

    def __init__(self, directory: Path, seed: int, smoke: bool) -> None:
        self.directory = directory
        self.seed = seed
        self.files = [InputFile(directory / name) for name in self.file_names(smoke)]
        self.base: list[OpSpec] = []

    @classmethod
    def size_list(cls, smoke: bool) -> tuple[int, ...]:
        return cls.smoke_sizes if smoke else cls.sizes

    @classmethod
    def file_names(cls, smoke: bool) -> list[str]:
        """The input files, in generation order."""
        raise NotImplementedError

    @classmethod
    def generate(cls, directory: Path, seed: int, smoke: bool) -> None:
        """Write the seeded input files (run in a child process)."""
        raise NotImplementedError

    def setup(self) -> None:
        """The resident set-up a user pays before the first op (may be empty)."""

    def resident(self) -> str:
        """What another process needs to run ops on this set-up ("" for nothing)."""
        return ""

    def attach(self, resident: str) -> None:
        """Run ops on the set-up another process made (see :meth:`resident`)."""

    def cycle(self, number: int) -> list[OpSpec]:
        """Every (input, query) pair once, in a seeded order.

        An even number of pairs gets the first (smallest) pair a second time:
        with an odd cycle the median op is one pair's, not the midpoint of
        the two pairs that straddle it.
        """
        specs = list(self.base)
        if len(specs) % 2 == 0:
            specs.append(specs[0])
        random.Random(f"{self.name}:{self.seed}:{number}").shuffle(specs)
        return specs

    def run(self, spec: OpSpec, budget: Any) -> OpOutcome:
        return cold_op(spec, budget)

    def after(self, outcome: OpOutcome) -> None:
        """Untimed per-op teardown and invariant check."""

    def expected(self, spec: OpSpec) -> Fraction:
        raise NotImplementedError

    def close(self) -> None:
        """Release resident state."""


class LiftedFile(Workload):
    """Safe query on hierarchical TID files too large for circuits."""

    name = "lifted-file"
    # Values of k, with m = 300: k * (m + 1) facts, 21,070 and 30,100, both
    # above the engine's 20,000-fact circuit gate.
    sizes = (70, 100)
    smoke_sizes = (3, 5)

    @staticmethod
    def width(smoke: bool) -> int:
        return 4 if smoke else 300

    def __init__(self, directory: Path, seed: int, smoke: bool) -> None:
        super().__init__(directory, seed, smoke)
        self.base = [OpSpec(source, LIFTED_QUERY) for source in self.files]
        self._closed_forms: dict[Path, Fraction] = {}

    @classmethod
    def file_names(cls, smoke: bool) -> list[str]:
        return [lifted_name(k, cls.width(smoke)) for k in cls.size_list(smoke)]

    @classmethod
    def generate(cls, directory: Path, seed: int, smoke: bool) -> None:
        rng = random.Random(f"{cls.name}:{seed}")
        for k in cls.size_list(smoke):
            lifted_family(directory, rng, k, cls.width(smoke))

    def after(self, outcome: OpOutcome) -> None:
        if outcome.engine.route_mix() != {"safe_plan": 1}:
            outcome.invariant_error = f"routes {outcome.engine.route_mix()}, expected safe_plan"

    def expected(self, spec: OpSpec) -> Fraction:
        path = spec.source.path
        if path not in self._closed_forms:
            self._closed_forms[path] = lifted_closed_form(spec.source)
        return self._closed_forms[path]


class CircuitWorkload(Workload):
    """Shared parts of the two workloads on labelled partial 2-trees."""

    # Vertex counts.  The automaton check of every (file, query) pair costs
    # about 6s per run at these sizes; at n = 120 one pair alone takes 17s.
    sizes = (40, 60, 80, 100)
    smoke_sizes = (10, 14)

    def __init__(self, directory: Path, seed: int, smoke: bool) -> None:
        super().__init__(directory, seed, smoke)
        self.base = [OpSpec(source, query) for source in self.files for query in UNSAFE_QUERIES]
        self.oracle = AutomatonOracle()

    @classmethod
    def file_names(cls, smoke: bool) -> list[str]:
        return [ktree_name(n, cls.name) for n in cls.size_list(smoke)]

    @classmethod
    def generate(cls, directory: Path, seed: int, smoke: bool) -> None:
        rng = random.Random(f"{cls.name}:{seed}")
        for n in cls.size_list(smoke):
            ktree_file(directory, rng, n, cls.name)

    def expected(self, spec: OpSpec) -> Fraction:
        return self.oracle.expected(spec.source, spec.query)


class CircuitCold(CircuitWorkload):
    """One CLI invocation's worth of work per op: ingest, structure, OBDD."""

    name = "circuit-cold"

    def after(self, outcome: OpOutcome) -> None:
        if outcome.engine.route_mix() != {"obdd": 1}:
            outcome.invariant_error = f"routes {outcome.engine.route_mix()}, expected obdd"


class StoreRestart(CircuitWorkload):
    """Process restarts on a populated artifact store."""

    name = "store-restart"
    writes_store = True

    def __init__(self, directory: Path, seed: int, smoke: bool) -> None:
        super().__init__(directory, seed, smoke)
        self.store_dir: Path | None = None
        self._setups = 0

    def setup(self) -> None:
        self.close()
        self._setups += 1
        self.store_dir = self.directory / f"store-{self._setups}"
        # One fresh engine per pair, as circuit-cold runs them: a shared
        # engine's router would learn from wall times and may pick a route
        # that writes no columnar artifact.
        for source in self.files:
            for query in UNSAFE_QUERIES:
                engine = session.CompilationEngine(store=self.store_dir)
                try:
                    tid = data_io.load_tid(source.path)
                    engine.probability(parser.parse_ucq(query), tid, "auto")
                finally:
                    engine.store.close()

    def resident(self) -> str:
        return str(self.store_dir)

    def attach(self, resident: str) -> None:
        self.store_dir = Path(resident)

    def stored_bytes(self) -> int:
        """Bytes the last set-up wrote, from ``ArtifactStore.stats()``."""
        with ArtifactStore(self.store_dir) as store:
            return store.stats().total_bytes

    def entry_bytes(self) -> dict[str, int]:
        """Size on disk of each entry the last set-up wrote, by key."""
        return {path.stem: path.stat().st_size for path in self.store_dir.rglob("*.entry")}

    def run(self, spec: OpSpec, budget: Any) -> OpOutcome:
        engine = session.CompilationEngine(store=self.store_dir)
        tid = data_io.load_tid(spec.source.path)
        value = engine.probability(parser.parse_ucq(spec.query), tid, "auto", budget=budget)
        return OpOutcome(value, engine)

    def after(self, outcome: OpOutcome) -> None:
        engine = outcome.engine
        engine.store.close()
        if engine.cache_info()["store"].hits < 1:
            outcome.invariant_error = "no store hit after a restart"
        elif engine.store.counters.writes:
            # Every fresh OBDD build is written behind, so a write means a build.
            outcome.invariant_error = "the op compiled and wrote an artifact"

    def close(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (LiftedFile, CircuitCold, StoreRestart)
}
