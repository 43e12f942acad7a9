"""Tests for decomposition-derived fact orders."""

import pytest

from repro.data.gaifman import gaifman_graph
from repro.data.instance import Instance, fact
from repro.errors import CompilationError
from repro.generators import (
    caterpillar_instance,
    directed_path_instance,
    grid_instance,
    labelled_line_instance,
    labelled_partial_ktree_instance,
    rst_chain_instance,
)
from repro.provenance.variable_orders import (
    default_fact_order,
    element_major_order,
    fact_order_from_path_decomposition,
    fact_order_from_tree_decomposition,
)
from repro.structure.path_decomposition import PathDecomposition, path_decomposition
from repro.structure.tree_decomposition import tree_decomposition


def test_orders_are_permutations_of_facts():
    for instance in (rst_chain_instance(3), grid_instance(3, 3), directed_path_instance(5)):
        for order in (
            fact_order_from_tree_decomposition(instance),
            fact_order_from_path_decomposition(instance),
            default_fact_order(instance),
        ):
            assert sorted(map(str, order)) == sorted(map(str, instance.facts))


def test_path_order_follows_the_path():
    instance = directed_path_instance(6)
    order = fact_order_from_path_decomposition(instance)
    # Facts along a path should be enumerated monotonically along the path
    # (up to the direction of the traversal).
    positions = [int(f.arguments[0][1:]) for f in order]
    assert positions == sorted(positions) or positions == sorted(positions, reverse=True)


def test_element_major_order():
    instance = Instance([fact("S", "a", "b"), fact("S", "b", "c"), fact("R", "a")])
    order = element_major_order(instance, ["a", "b", "c"])
    assert order[0] == fact("R", "a")
    assert order[-1] == fact("S", "b", "c")
    with pytest.raises(CompilationError):
        element_major_order(instance, ["a"])


def test_rst_chain_order_groups_chain_links():
    instance = rst_chain_instance(3)
    order = default_fact_order(instance)
    # Facts of the same chain link (a_i, b_i) should be close to each other:
    # the maximum spread of a link's three facts must be small.
    index = {f: i for i, f in enumerate(order)}
    for i in range(3):
        link = [fact("R", (f"a{i}")), fact("S", f"a{i}", f"b{i}"), fact("T", f"b{i}")]
        positions = [index[f] for f in link]
        assert max(positions) - min(positions) <= 4


def _first_covering_bag_scan(instance, bags):
    """Reference placement: scan every bag for every fact."""
    placement = {}
    for f in instance:
        elements = set(f.elements())
        placement[f] = min(i for i, bag in enumerate(bags) if elements <= bag)
    return sorted(
        instance.facts,
        key=lambda f: (placement[f], f.relation, tuple(map(repr, f.arguments))),
    )


@pytest.mark.parametrize(
    "instance",
    [
        labelled_line_instance(30),
        rst_chain_instance(25),
        labelled_partial_ktree_instance(30, 2, seed=4),
        grid_instance(4, 5),
        caterpillar_instance(8, 3),
    ],
    ids=["line", "rst-chain", "ktree", "grid", "caterpillar"],
)
def test_indexed_placement_matches_the_bag_scan(instance):
    graph = gaifman_graph(instance)
    tree = tree_decomposition(graph)
    tree_bags = [tree.bags[node] for node in tree.topological_order()]
    assert fact_order_from_tree_decomposition(instance, tree) == _first_covering_bag_scan(
        instance, tree_bags
    )
    path = path_decomposition(graph)
    assert fact_order_from_path_decomposition(instance, path) == _first_covering_bag_scan(
        instance, path.bags
    )


def test_uncovered_fact_is_rejected():
    instance = Instance([fact("S", "a", "b"), fact("S", "b", "c")])
    with pytest.raises(CompilationError):
        fact_order_from_path_decomposition(
            instance, PathDecomposition([frozenset({"a", "b"}), frozenset({"c"})])
        )
