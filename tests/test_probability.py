"""Tests for probability evaluation: all methods agree with brute force."""

from fractions import Fraction

import pytest

from repro.data.instance import Instance, fact
from repro.data.tid import ProbabilisticInstance
from repro.errors import ProbabilityError
from repro.generators import (
    random_probabilities,
    random_rst_instance,
    rst_bipartite_instance,
    rst_chain_instance,
)
from repro.probability import (
    brute_force_model_count,
    brute_force_probability,
    model_count_via_probability,
    probability,
    property_model_count,
)
from repro.provenance.lineage import lineage_of
from repro.queries import parse_cq, parse_ucq, qp, threshold_two_query, unsafe_rst
from repro.generators import grid_instance
from repro.probability.evaluation import METHOD_NAMES
from repro.testing import oracle_probability

# Product routes plus the d-DNNF oracle (no longer a route, still checked).
METHODS = ("obdd", "dnnf", "automaton", "auto")


def evaluate(query, tid, method):
    if method in METHOD_NAMES:
        return probability(query, tid, method=method)
    return oracle_probability(query, tid, method)


@pytest.mark.parametrize("method", METHODS)
def test_methods_agree_on_rst_chain(method):
    instance = rst_chain_instance(2)
    tid = random_probabilities(instance, seed=1)
    assert evaluate(unsafe_rst(), tid, method) == brute_force_probability(
        unsafe_rst(), tid
    )


@pytest.mark.parametrize("method", METHODS)
def test_methods_agree_on_rst_bipartite(method):
    instance = rst_bipartite_instance(2)
    tid = random_probabilities(instance, seed=2)
    assert evaluate(unsafe_rst(), tid, method) == brute_force_probability(
        unsafe_rst(), tid
    )


@pytest.mark.parametrize("method", ("obdd", "dnnf", "auto"))
def test_methods_agree_on_qp_grid(method):
    instance = grid_instance(2, 2)
    tid = ProbabilisticInstance.uniform(instance, Fraction(2, 5))
    assert evaluate(qp(), tid, method) == brute_force_probability(qp(), tid)


def test_probability_with_disequality_query():
    instance = Instance([fact("R", "a"), fact("R", "b"), fact("R", "c")])
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    expected = brute_force_probability(threshold_two_query(), tid)
    assert probability(threshold_two_query(), tid) == expected
    assert expected == Fraction(1, 2)


def test_read_once_method():
    # The obdd route evaluates a read-once-shaped lineage directly.
    instance = rst_chain_instance(3)
    tid = random_probabilities(instance, seed=4)
    assert lineage_of(unsafe_rst(), instance).is_read_once_shaped()
    assert probability(unsafe_rst(), tid, method="obdd") == brute_force_probability(
        unsafe_rst(), tid
    )


def test_read_once_method_rejects_shared_facts():
    # Shared facts make the shortcut inapplicable; the route compiles instead.
    instance = rst_bipartite_instance(2)
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    assert not lineage_of(unsafe_rst(), instance).is_read_once_shaped()
    assert probability(unsafe_rst(), tid, method="obdd") == brute_force_probability(
        unsafe_rst(), tid
    )


def test_unknown_method_rejected():
    instance = rst_chain_instance(1)
    tid = ProbabilisticInstance.uniform(instance)
    with pytest.raises(ProbabilityError):
        probability(unsafe_rst(), tid, method="nonsense")


@pytest.mark.parametrize(
    "removed",
    [
        "obdd_float",
        "columnar",
        "columnar_float",
        "dnnf",
        "automaton_columnar",
        "brute_force",
        "safe_plan_reference",
        "read_once",
    ],
)
def test_removed_method_names_rejected(removed):
    tid = ProbabilisticInstance.uniform(rst_chain_instance(1))
    with pytest.raises(ProbabilityError) as error:
        probability(unsafe_rst(), tid, method=removed)
    assert repr(removed) in str(error.value)
    assert ", ".join(METHOD_NAMES) in str(error.value)


def test_method_names_are_one_route_per_regime():
    assert METHOD_NAMES == ("auto", "safe_plan", "obdd", "automaton")


def test_certain_facts_give_deterministic_answer():
    instance = rst_chain_instance(2)
    tid = ProbabilisticInstance(instance)  # all probabilities 1
    assert probability(unsafe_rst(), tid) == 1
    empty = tid.condition(kept=[], removed=list(instance.facts))
    assert probability(unsafe_rst(), empty) == 0


def test_union_query_probability():
    query = parse_ucq("R(x), S(x, y) | S(x, y), T(y)")
    instance = random_rst_instance(3, 6, seed=6)
    tid = random_probabilities(instance, seed=6)
    assert probability(query, tid) == brute_force_probability(query, tid)


def test_model_count_via_probability():
    instance = rst_chain_instance(2)
    assert model_count_via_probability(unsafe_rst(), instance) == brute_force_model_count(
        unsafe_rst(), instance
    )


def test_property_model_count_matches_enumeration():
    from repro.provenance.mso_properties import threshold_automaton

    instance = rst_chain_instance(1)
    count = property_model_count(threshold_automaton(2), instance)
    expected = sum(
        1 for world in instance.all_subinstances() if len(world) >= 2
    )
    assert count == expected


def test_probability_of_query_with_no_match_is_zero():
    instance = Instance([fact("R", "a")])
    tid = ProbabilisticInstance.uniform(instance, Fraction(1, 2))
    assert probability(unsafe_rst(), tid) == 0
