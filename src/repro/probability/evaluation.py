"""Top-level probability evaluation for UCQ≠ queries on TID instances.

This is the user-facing entry point of the paper's dichotomy, with one
route per tractable regime: ``safe_plan`` runs the compiled lifted plan of a
safe query (Section 9, :mod:`repro.probability.lifted`); on treelike
instances (Theorem 4.2) ``obdd`` compiles the lineage to an OBDD and
``automaton`` runs the tree-automaton dynamic program over a tree encoding;
``auto`` picks among them and fails over (:mod:`repro.engine.router`).
Every route returns an exact :class:`fractions.Fraction`.

The evaluation itself lives in :class:`repro.engine.CompilationEngine`;
this function is its one-shot front.  Independent reference algorithms
(brute-force world enumeration, the recursive safe-plan reference, d-DNNF
and columnar evaluation of the compiled lineage) are oracles, cross-checked
against these routes by :class:`repro.testing.ProbabilityOracle`; float
kernels stay on the artifacts themselves
(:meth:`repro.provenance.compile_obdd.CompiledOBDD.probability` and
:meth:`repro.booleans.columnar.ColumnarOBDD.probability` with
``exact=False``).
"""

from __future__ import annotations

from fractions import Fraction

from repro.data.tid import ProbabilisticInstance
from repro.engine.router import METHOD_NAMES
from repro.queries.cq import ConjunctiveQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.resilience import ProbabilityBounds

__all__ = ["METHOD_NAMES", "probability"]


def probability(
    query: UnionOfConjunctiveQueries | ConjunctiveQuery,
    probabilistic_instance: ProbabilisticInstance,
    method: str = "auto",
    engine=None,
    budget=None,
) -> Fraction | ProbabilityBounds:
    """The probability that the TID instance satisfies the UCQ≠ (Definition 3.1).

    ``method`` is one of :data:`METHOD_NAMES`; any other string raises
    :class:`~repro.errors.ProbabilityError` naming the valid ones.  The
    evaluation runs on ``engine`` — a :class:`repro.engine.CompilationEngine`
    whose caches (lineages, OBDDs, tree encodings, lifted plans, and
    probability results, keyed by content fingerprint) then serve later
    calls — or on a fresh engine that is dropped afterwards.

    Passing a :class:`repro.resilience.ResourceBudget` activates its node/row
    caps and wall-clock deadline around the evaluation (the kernels
    checkpoint cooperatively and raise :class:`~repro.errors.BudgetExceeded`
    / :class:`~repro.errors.DeadlineExceeded`); ``method="auto"`` then fails
    over between routes on a blowout, and an engine constructed with
    ``degradation="karp_luby"`` returns labelled
    :class:`~repro.resilience.ProbabilityBounds` when every route fails.
    """
    if engine is None:
        from repro.engine import CompilationEngine

        engine = CompilationEngine()
    return engine.probability(query, probabilistic_instance, method, budget=budget)
