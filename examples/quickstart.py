"""Quickstart: lineages and probabilities of a query on a treelike instance.

Run with::

    python examples/quickstart.py

This walks through the main public API:

1. build a relational instance and a tuple-independent database (TID);
2. write a conjunctive query;
3. compute its lineage, compile it to an OBDD and a d-DNNF;
4. evaluate its probability by several independent methods and check they agree.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import Fact, Instance, ProbabilisticInstance, instance_treewidth
from repro.probability import brute_force_probability, probability
from repro.provenance import compile_query_to_obdd, lineage_of, ucq_lineage_dnnf
from repro.queries import parse_cq


def main() -> None:
    # A small movie-rental style database: users, rentals, and flagged films.
    facts = [
        Fact("R", ("alice",)),
        Fact("R", ("bob",)),
        Fact("S", ("alice", "film1")),
        Fact("S", ("alice", "film2")),
        Fact("S", ("bob", "film2")),
        Fact("T", ("film1",)),
        Fact("T", ("film2",)),
    ]
    instance = Instance(facts)
    print(f"instance: {instance}")
    print(f"treewidth of the instance: {instance_treewidth(instance)}")

    # The classic query: is there an active user who rented a flagged film?
    query = parse_cq("R(x), S(x, y), T(y)")
    print(f"query: {query}")

    # Lineage: the Boolean function over facts describing how the query holds.
    lineage = lineage_of(query, instance)
    print(f"lineage has {lineage.clause_count} minimal matches:")
    for clause in lineage.clauses:
        print("   ", " AND ".join(sorted(map(str, clause))))

    # Knowledge compilation: OBDD and d-DNNF representations.
    compiled = compile_query_to_obdd(query, instance)
    print(f"OBDD size {compiled.size}, width {compiled.width}")
    dnnf = ucq_lineage_dnnf(query, instance)
    print(f"d-DNNF size {dnnf.size} (deterministic: {dnnf.check_determinism()})")

    # Probabilities: each fact is present independently with probability 1/2.
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    for method in ("obdd", "automaton", "auto"):
        print(f"P(query) via {method:>11}: {probability(query, tid, method=method)}")
    dnnf_valuation = {fact: tid.probability_of(fact) for fact in dnnf.variables()}
    print(f"P(query) via      d-DNNF: {dnnf.probability(dnnf_valuation)}")
    print(f"P(query) via brute force: {brute_force_probability(query, tid)}")


if __name__ == "__main__":
    main()
