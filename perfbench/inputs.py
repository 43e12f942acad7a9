"""Seeded input files and the independent answer checks.

The program sees only what this module writes: JSON TID files in the
format ``repro.data.io.load_tid`` reads, plus the query texts.  Everything
here runs outside the timed region.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Any

from repro.data.instance import Fact, Instance
from repro.data.tid import ProbabilisticInstance
from repro.generators import labelled_partial_ktree_instance
from repro.provenance.tree_encoding import tree_encoding
from repro.provenance.ucq_automaton import ucq_probability_via_automaton
from repro.queries.parser import parse_ucq

# Four unsafe UCQs (no lifted plan: the circuit side of the dichotomy).
UNSAFE_QUERIES = (
    "R(x), S(x, y), T(y)",
    "S(x, y), S(y, z)",
    "R(x), S(x, y), T(y) | S(x, y), S(y, z)",
    "R(x), S(x, y), S(y, z), T(z)",
)
LIFTED_QUERY = "R(x), S(x, y)"


def dyadic(rng: random.Random) -> Fraction:
    """A probability ``a / 8`` with odd ``a``.

    A fixed denominator keeps the exact arithmetic's operand sizes, and so the
    op costs, the same from seed to seed.
    """
    return Fraction(rng.randrange(1, 8, 2), 8)


def write_tid(path: Path, facts: list[Fact], probabilities: list[Fraction]) -> None:
    """Write facts and probabilities as a ``load_tid`` JSON file."""
    signature: dict[str, int] = {}
    for f in facts:
        signature.setdefault(f.relation, len(f.arguments))
    payload = {
        "signature": signature,
        "facts": [{"relation": f.relation, "arguments": list(f.arguments)} for f in facts],
        "probabilities": [
            {"relation": f.relation, "arguments": list(f.arguments), "probability": str(p)}
            for f, p in zip(facts, probabilities)
        ],
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))


class InputFile:
    """One generated TID file.

    The files are written by a child process (see ``run.py``), so the
    benchmark's own copies of the facts are not part of the measured
    process's memory until something outside the timed loop asks for them;
    :attr:`facts` and :attr:`probabilities` are then read back from the file
    with :mod:`json`, not with the program's loader.
    """

    def __init__(self, path: Path):
        self.path = path
        self.bytes = path.stat().st_size
        self._content: tuple[list[Fact], list[Fraction]] | None = None

    def _load(self) -> tuple[list[Fact], list[Fraction]]:
        if self._content is None:
            payload = json.loads(self.path.read_text())
            self._content = (
                [Fact(f["relation"], tuple(f["arguments"])) for f in payload["facts"]],
                [Fraction(f["probability"]) for f in payload["probabilities"]],
            )
        return self._content

    @property
    def facts(self) -> list[Fact]:
        return self._load()[0]

    @property
    def probabilities(self) -> list[Fraction]:
        return self._load()[1]

    @property
    def fact_count(self) -> int:
        return len(self.facts)

    def valuation(self) -> dict[Fact, Fraction]:
        return dict(zip(self.facts, self.probabilities))


# -- the hierarchical family R(a_i), S(a_i, b_j) ---------------------------------


def lifted_name(k: int, m: int) -> str:
    return f"lifted-k{k}-m{m}.json"


def lifted_family(directory: Path, rng: random.Random, k: int, m: int) -> None:
    facts: list[Fact] = []
    for i in range(k):
        facts.append(Fact("R", (f"a{i}",)))
        facts.extend(Fact("S", (f"a{i}", f"b{j}")) for j in range(m))
    probabilities = [dyadic(rng) for _ in facts]
    write_tid(directory / lifted_name(k, m), facts, probabilities)


def lifted_closed_form(source: InputFile) -> Fraction:
    """``1 - prod_i (1 - p(R a_i) * (1 - prod_j (1 - p(S a_i b_j))))``.

    Computed from the generated probabilities, without the lifted executor.
    """
    r_prob: dict[str, Fraction] = {}
    s_miss: dict[str, Fraction] = {}
    for f, p in zip(source.facts, source.probabilities):
        root = f.arguments[0]
        if f.relation == "R":
            r_prob[root] = p
        else:
            s_miss[root] = s_miss.get(root, Fraction(1)) * (1 - p)
    none = Fraction(1)
    for root, p in r_prob.items():
        none *= 1 - p * (1 - s_miss.get(root, Fraction(1)))
    return 1 - none


# -- labelled partial 2-trees ---------------------------------------------------


def ktree_name(n: int, tag: str) -> str:
    return f"{tag}-ktree-n{n}.json"


def ktree_file(directory: Path, rng: random.Random, n: int, tag: str) -> None:
    """A labelled partial 2-tree on ``n`` vertices with seeded probabilities.

    The graph and its labels are fixed per size: OBDD sizes grow
    exponentially with the pathwidth a random 2-tree happens to get, so a
    seeded structure would make op costs swing several-fold between seeds.
    The seed draws the probabilities (and, in the workloads, the op order).
    """
    instance = labelled_partial_ktree_instance(n, 2, seed=n)
    facts = list(instance.facts)
    probabilities = [dyadic(rng) for _ in facts]
    write_tid(directory / ktree_name(n, tag), facts, probabilities)


class AutomatonOracle:
    """Expected answers for the circuit workloads: the tree-automaton route.

    :func:`ucq_probability_via_automaton` runs the state dynamic programming
    of Theorem 4.2 over a tree encoding of the instance.  It shares neither
    lineage enumeration, decompositions nor OBDDs with the ``obdd`` route the
    workloads time.  Answers are memoized per (file, query).
    """

    def __init__(self) -> None:
        self._encodings: dict[Path, Any] = {}
        self._answers: dict[tuple[Path, str], Fraction] = {}

    def expected(self, source: InputFile, query: str) -> Fraction:
        key = (source.path, query)
        if key not in self._answers:
            if source.path not in self._encodings:
                self._encodings[source.path] = tree_encoding(Instance(source.facts))
            encoding = self._encodings[source.path]
            tid = ProbabilisticInstance(encoding.instance, source.valuation())
            self._answers[key] = ucq_probability_via_automaton(
                parse_ucq(query), tid, encoding=encoding
            )
        return self._answers[key]
