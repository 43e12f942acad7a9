"""Differential tests for the iterative compilation kernels (tier-1).

Three layers of cross-checking for the PR-4 rewrite:

* **property-based** (hypothesis): on random monotone DNFs, the trie-driven
  construction and the seed apply-fold produce the *same reduced root id* in
  the same manager, and the fused sweep agrees with the seed recursive walks
  (probability, model count, width) on random dyadic probabilities;
* **workload-based**: the same equivalences on real lineages from the seeded
  ``random_workload`` families, plus a full :class:`ProbabilityOracle` sweep
  (brute force / OBDD / d-DNNF / auto / safe plans / bounds) running on the
  new kernels;
* **unit**: the manager-level restrict cache, the balanced n-ary combine,
  and the float fast path with its exact fallback.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.obdd import FALSE_NODE, TRUE_NODE, OBDD
from repro.booleans.reference import (
    build_from_clauses_fold,
    model_count_recursive,
    probability_recursive,
    width_by_cuts,
)
from repro.engine import CompilationEngine
from repro.errors import ProbabilityError
from repro.probability.evaluation import probability
from repro.testing import ProbabilityOracle, random_workload

VARIABLES = [f"v{i}" for i in range(8)]

clauses_strategy = st.lists(
    st.sets(st.sampled_from(VARIABLES), min_size=1, max_size=4).map(lambda s: tuple(sorted(s))),
    min_size=0,
    max_size=8,
)
probabilities_strategy = st.fixed_dictionaries(
    {v: st.integers(min_value=0, max_value=8).map(lambda k: Fraction(k, 8)) for v in VARIABLES}
)


@settings(max_examples=80, deadline=None)
@given(clauses=clauses_strategy)
def test_trie_and_fold_build_the_same_reduced_root(clauses):
    manager = OBDD(VARIABLES)
    fold_root = build_from_clauses_fold(manager, clauses)
    trie_root = manager.build_from_clauses(clauses)
    # Reduced OBDDs are canonical per (function, order); with hash-consing in
    # one shared manager the two constructions must intern the same node.
    assert trie_root == fold_root


@settings(max_examples=60, deadline=None)
@given(clauses=clauses_strategy, probabilities=probabilities_strategy)
def test_sweep_agrees_with_seed_recursive_walks(clauses, probabilities):
    manager = OBDD(VARIABLES)
    root = manager.build_from_clauses(clauses)
    result = manager.sweep(root, probabilities, model_count=True, width=True)
    if root > TRUE_NODE:
        assert result.probability == probability_recursive(manager, root, probabilities)
    else:
        assert result.probability == Fraction(1 if root == TRUE_NODE else 0)
    assert result.model_count == model_count_recursive(manager, root)
    assert result.width == width_by_cuts(manager, root)
    assert result.size == len(manager.reachable_nodes(root))


@settings(max_examples=40, deadline=None)
@given(clauses=clauses_strategy, probabilities=probabilities_strategy)
def test_float_fast_path_tracks_the_exact_kernel(clauses, probabilities):
    manager = OBDD(VARIABLES)
    root = manager.build_from_clauses(clauses)
    exact = manager.sweep(root, probabilities).probability
    fast = manager.sweep(root, probabilities, exact=False).probability
    assert isinstance(fast, float)
    assert abs(fast - float(exact)) < 1e-9


def test_trie_matches_fold_on_workload_lineages():
    engine = CompilationEngine()
    for case in random_workload(25, seed=20260727):
        lineage = engine.lineage(case.query, case.tid.instance)
        order = engine.fact_order(case.tid.instance)
        manager = OBDD(list(order))
        fold_root = build_from_clauses_fold(
            manager, [sorted(c, key=str) for c in lineage.clauses]
        )
        trie_root = manager.build_from_clauses(lineage.clauses)
        assert trie_root == fold_root
        valuation = case.tid.valuation()
        result = manager.sweep(trie_root, valuation, model_count=True, width=True)
        if trie_root > TRUE_NODE:
            assert result.probability == probability_recursive(manager, trie_root, valuation)
        assert result.model_count == model_count_recursive(manager, trie_root)
        assert result.width == width_by_cuts(manager, trie_root)


def test_probability_oracle_passes_on_the_new_kernels():
    oracle = ProbabilityOracle()
    reports = oracle.check_many(random_workload(15, seed=424242))
    assert len(reports) == 15
    for report in reports:
        assert not report.disagreements()


def test_restrict_uses_a_manager_level_cache():
    manager = OBDD(["a", "b", "c"])
    root = manager.build_from_clauses([("a", "b"), ("b", "c")])
    assert not manager._restrict_cache
    restricted = manager.restrict(root, "b", True)
    assert manager._restrict_cache
    entries = dict(manager._restrict_cache)
    assert manager.restrict(root, "b", True) == restricted
    assert manager._restrict_cache == entries  # served from cache, no growth
    # Semantics: the cofactor agrees with evaluation under the fixed value.
    for mask in range(4):
        valuation = {"a": bool(mask & 1), "c": bool(mask & 2), "b": True}
        assert manager.evaluate(restricted, valuation) == manager.evaluate(root, valuation)


def test_balanced_nary_combine_is_equivalent_to_folding():
    manager = OBDD([f"x{i}" for i in range(7)])
    literals = [manager.literal(f"x{i}") for i in range(7)]
    conj = manager.conjunction(literals)
    disj = manager.disjunction(literals)
    fold_and = TRUE_NODE
    fold_or = FALSE_NODE
    for literal in literals:
        fold_and = manager.apply_and(fold_and, literal)
        fold_or = manager.apply_or(fold_or, literal)
    assert conj == fold_and
    assert disj == fold_or
    assert manager.conjunction([]) == TRUE_NODE
    assert manager.disjunction([]) == FALSE_NODE


def test_dnnf_evaluate_short_circuits_partial_valuations():
    from repro.booleans.dnnf import DNNF

    dnnf = DNNF()
    x = dnnf.literal("x")
    y = dnnf.literal("y")
    either = dnnf.disjunction([x, y])
    dnnf.set_output(either)
    # The outcome never depends on y, so y may be absent from the valuation
    # (demand-driven left-to-right evaluation, as in the recursive original).
    assert dnnf.evaluate({"x": True})
    both = dnnf.conjunction([dnnf.literal("x"), dnnf.literal("y")])
    assert not dnnf.evaluate({"x": False}, both)
    with pytest.raises(KeyError):
        dnnf.evaluate({"y": False})  # here x is genuinely needed


def test_obdd_float_sweep_is_wired_end_to_end():
    # The float kernels are reached on the compiled artifacts, not through a
    # method name: every probability() route stays exact.
    case = random_workload(1, seed=99)[0]
    exact = probability(case.query, case.tid, method="obdd")
    engine = CompilationEngine()
    compiled = engine.compile(case.query, case.tid.instance)
    fast = compiled.probability(case.tid.valuation(), exact=False)
    assert isinstance(fast, float)
    assert abs(fast - float(exact)) < 1e-9
    columnar = engine.columnar(case.query, case.tid.instance)
    assert columnar.probability(case.tid.valuation(), exact=False) == pytest.approx(fast)
    with pytest.raises(ProbabilityError):
        probability(case.query, case.tid, method="obdd_float")
