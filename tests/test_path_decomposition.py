"""Tests for path decompositions and pathwidth."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.gaifman import gaifman_graph
from repro.errors import DecompositionError
from repro.generators import (
    caterpillar_instance,
    grid_instance,
    labelled_line_instance,
    labelled_partial_ktree_instance,
    rst_chain_instance,
)
from repro.structure.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
)
from repro.structure.path_decomposition import (
    PathDecomposition,
    greedy_path_order,
    path_decomposition,
    path_decomposition_from_order,
    path_decomposition_from_tree,
    pathwidth,
)
from repro.structure.reference import (
    greedy_path_order_seed,
    path_decomposition_from_order_seed,
    path_decomposition_from_tree_seed,
    validate_path_decomposition_seed,
)
from repro.structure.tree_decomposition import tree_decomposition
from repro.testing import is_valid_decomposition


def test_pathwidth_of_path_is_one():
    assert pathwidth(path_graph(10)) == 1


def test_pathwidth_of_cycle_is_two():
    assert pathwidth(cycle_graph(6)) == 2


def test_pathwidth_of_clique():
    assert pathwidth(complete_graph(5)) == 4


def test_pathwidth_exact_small():
    assert pathwidth(path_graph(6), exact=True) == 1
    assert pathwidth(cycle_graph(5), exact=True) == 2


def test_pathwidth_at_least_treewidth():
    for graph in (path_graph(6), cycle_graph(7), grid_graph(3, 3), complete_graph(4)):
        assert pathwidth(graph) >= tree_decomposition(graph).width - 1  # heuristics both ways
        assert pathwidth(graph) >= 1 or len(graph) <= 1


def test_path_decomposition_validates():
    for graph in (path_graph(7), grid_graph(3, 3), cycle_graph(6)):
        decomposition = path_decomposition(graph)
        decomposition.validate(graph)


def test_path_decomposition_from_order_width():
    graph = path_graph(5)
    decomposition = path_decomposition_from_order(graph, list(range(5)))
    assert decomposition.width == 1


def test_path_decomposition_from_order_requires_full_order():
    with pytest.raises(DecompositionError):
        path_decomposition_from_order(path_graph(4), [0, 1])


def test_vertex_order_covers_vertices():
    graph = grid_graph(2, 4)
    decomposition = path_decomposition(graph)
    assert set(decomposition.vertex_order()) == set(graph.vertices)


def test_greedy_path_order_is_permutation():
    graph = grid_graph(3, 3)
    order = greedy_path_order(graph)
    assert sorted(map(repr, order)) == sorted(map(repr, graph.vertices))


def test_to_tree_decomposition():
    graph = cycle_graph(5)
    decomposition = path_decomposition(graph)
    tree = decomposition.to_tree_decomposition()
    tree.validate(graph)
    assert tree.is_path_decomposition()


def test_path_decomposition_from_tree_is_valid():
    graph = grid_graph(3, 3)
    tree = tree_decomposition(graph)
    path = path_decomposition_from_tree(tree)
    path.validate(graph)


def test_invalid_path_decomposition_detected():
    graph = path_graph(3)
    bad = PathDecomposition([frozenset({0, 1}), frozenset({2}), frozenset({1, 2})])
    with pytest.raises(DecompositionError):
        bad.validate(graph)
    assert not bad.is_valid_for(graph)


def test_empty_graph_pathwidth():
    assert pathwidth(Graph()) == -1 or pathwidth(Graph()) == 0


# -- the indexed front-end against the seed oracles ----------------------------

FAMILIES = {
    "line": lambda: labelled_line_instance(40),
    "rst-chain": lambda: rst_chain_instance(30),
    "1-tree": lambda: labelled_partial_ktree_instance(40, 1, seed=1),
    "2-tree": lambda: labelled_partial_ktree_instance(40, 2, seed=2),
    "3-tree": lambda: labelled_partial_ktree_instance(40, 3, seed=3),
    "grid": lambda: grid_instance(4, 6),
    "caterpillar": lambda: caterpillar_instance(8, 3),
}

edges_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=13), st.integers(min_value=0, max_value=13)),
    max_size=30,
)


def graph_from_edges(n, edges):
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v)  # vertices no edge touches stay isolated
    for u, v in edges:
        graph.add_edge(u % n, v % n)
    return graph


def assert_matches_seed(graph):
    order = greedy_path_order(graph)
    assert order == greedy_path_order_seed(graph)
    assert path_decomposition(graph).bags == path_decomposition_from_order_seed(graph, order).bags


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_greedy_order_and_bags_match_the_seed_on_families(family):
    assert_matches_seed(gaifman_graph(FAMILIES[family]()))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(min_value=1, max_value=14), edges=edges_strategy)
def test_greedy_order_and_bags_match_the_seed_on_random_graphs(n, edges):
    assert_matches_seed(graph_from_edges(n, edges))


def test_stable_key_ties_break_by_dense_id():
    # Two vertices with one repr: the seed's choice between them depends on
    # set order; the indexed order breaks the tie by graph insertion order
    # and never compares the vertices themselves.
    class Twin:
        def __init__(self, tag):
            self.tag = tag

        def __repr__(self):
            return "twin"

    first, second = Twin(1), Twin(2)
    graph = Graph()
    graph.add_vertex(first)
    graph.add_vertex(second)
    assert greedy_path_order(graph) == [first, second]


def _seed_error(decomposition, graph):
    try:
        validate_path_decomposition_seed(decomposition, graph)
    except DecompositionError as error:
        return str(error)
    return None


def _indexed_error(decomposition, graph):
    try:
        decomposition.validate(graph)
    except DecompositionError as error:
        return str(error)
    return None


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    edges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
        max_size=14,
    ),
    bags=st.lists(st.frozensets(st.integers(min_value=0, max_value=8), max_size=5), max_size=7),
)
def test_validate_raises_the_seed_error_on_random_bag_sequences(n, edges, bags):
    graph = graph_from_edges(n, edges)
    decomposition = PathDecomposition(bags)
    assert _indexed_error(decomposition, graph) == _seed_error(decomposition, graph)


@pytest.mark.parametrize(
    "bags, message",
    [
        # Coverage, edge cover and contiguity all broken: coverage wins.
        ([{0, 1}, {3}, {0}], "path decomposition does not cover all vertices"),
        # Edge (1, 2) uncovered and 0 non-contiguous: the edge wins.
        ([{0, 1}, {2, 3}, {0}], "edge (1, 2) not covered"),
        # Both ends non-contiguous, their intervals overlap, no common bag.
        ([{1}, {2}, {1, 0}, {2, 3}], "edge (1, 2) not covered"),
        ([{0, 1}, {1, 2}, {3}, {2, 3}], "occurrences of 2 are not contiguous"),
    ],
)
def test_validate_reports_the_first_seed_error(bags, message):
    graph = path_graph(4)
    decomposition = PathDecomposition([frozenset(bag) for bag in bags])
    assert _seed_error(decomposition, graph) == message
    assert _indexed_error(decomposition, graph) == message


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tree_flattening_matches_the_seed(family):
    tree = tree_decomposition(gaifman_graph(FAMILIES[family]()))
    assert path_decomposition_from_tree(tree).bags == path_decomposition_from_tree_seed(tree).bags


def test_large_ktree_path_decomposition_scales():
    # The seed greedy order took 2.5s at n=400 and 27s at n=1000; the
    # per-test timeout catches a quadratic regression at n=2000.
    graph = gaifman_graph(labelled_partial_ktree_instance(2000, 2, seed=2000))
    decomposition = path_decomposition(graph)
    decomposition.validate(graph)
    assert is_valid_decomposition(decomposition.to_tree_decomposition(), graph)
    assert (
        decomposition.width
        == path_decomposition_from_order(graph, greedy_path_order(graph)).width
    )
