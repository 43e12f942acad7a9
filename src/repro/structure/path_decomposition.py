"""Path decompositions and pathwidth (Section 2 of the paper).

A path decomposition is a tree decomposition whose tree is a path.  The
pathwidth of a graph is the minimum width of a path decomposition.  Constant-
width OBDDs on bounded-pathwidth instances (Theorem 6.7) rely on a variable
order following a path decomposition.

We compute path decompositions with a greedy vertex-separation heuristic and
an exact search for small graphs, and can also flatten a tree decomposition
into a path decomposition (width at most (w+1)*depth - 1, used only as a
fallback).

The heuristic front-end is near-linear: :func:`greedy_path_order` keeps
per-vertex counters and a lazily invalidated heap, so placing a vertex
re-scores only the vertices whose key it changed;
:func:`path_decomposition_from_order` expires active vertices from a
last-needed bucket index; :meth:`PathDecomposition.validate` is one pass over
an element→bag-index occurrence index.  The seed quadratic versions survive
as differential oracles in :mod:`repro.structure.reference`.
"""

from __future__ import annotations

import heapq
from typing import Any, Sequence

from repro.errors import DecompositionError
from repro.structure.graph import Graph, Vertex
from repro.structure.tree_decomposition import TreeDecomposition


class PathDecomposition:
    """A path decomposition: an ordered list of bags."""

    __slots__ = ("_bags",)

    def __init__(self, bags: Sequence[frozenset]) -> None:
        self._bags: tuple[frozenset, ...] = tuple(frozenset(b) for b in bags)

    @property
    def bags(self) -> tuple[frozenset, ...]:
        return self._bags

    @property
    def width(self) -> int:
        if not self._bags:
            return -1
        return max(len(bag) for bag in self._bags) - 1

    def __len__(self) -> int:
        return len(self._bags)

    def vertex_order(self) -> list:
        """Graph vertices by first appearance along the path (for OBDD orders)."""
        seen: dict[Any, None] = {}
        for bag in self._bags:
            for vertex in sorted(bag, key=_stable_key):
                seen.setdefault(vertex, None)
        return list(seen)

    def validate(self, graph: Graph) -> None:
        """Raise :class:`DecompositionError` unless this is a path
        decomposition of ``graph``: coverage, then edges, then contiguity.

        One pass builds an element→bag-index occurrence index; an edge
        between two contiguous vertices is then an interval-intersection
        test, and any other edge scans the shorter occurrence list (interval
        intersection alone would accept a gap on non-contiguous input).
        """
        bags = self._bags
        occurrences: dict[Any, list[int]] = {}
        for i, bag in enumerate(bags):
            for element in bag:
                occurrences.setdefault(element, []).append(i)
        if any(vertex not in occurrences for vertex in graph.vertices):
            raise DecompositionError("path decomposition does not cover all vertices")
        for u, v in graph.edges():
            u_indices, v_indices = occurrences[u], occurrences[v]
            if _is_contiguous(u_indices) and _is_contiguous(v_indices):
                covered = max(u_indices[0], v_indices[0]) <= min(u_indices[-1], v_indices[-1])
            elif len(u_indices) <= len(v_indices):
                covered = any(v in bags[i] for i in u_indices)
            else:
                covered = any(u in bags[i] for i in v_indices)
            if not covered:
                raise DecompositionError(f"edge ({u!r}, {v!r}) not covered")
        for vertex in graph.vertices:
            if not _is_contiguous(occurrences[vertex]):
                raise DecompositionError(f"occurrences of {vertex!r} are not contiguous")

    def to_tree_decomposition(self) -> TreeDecomposition:
        """View the path as a (rooted, left-to-right) tree decomposition."""
        if not self._bags:
            return TreeDecomposition(bags={0: frozenset()}, children={0: []}, root=0)
        bags = {i: bag for i, bag in enumerate(self._bags)}
        children = {i: ([i + 1] if i + 1 < len(self._bags) else []) for i in range(len(self._bags))}
        return TreeDecomposition(bags=bags, children=children, root=0)

    def is_valid_for(self, graph: Graph) -> bool:
        try:
            self.validate(graph)
        except DecompositionError:
            return False
        return True


def path_decomposition_from_order(graph: Graph, order: Sequence[Vertex]) -> PathDecomposition:
    """The path decomposition induced by a linear vertex order.

    Bag ``i`` contains vertex ``order[i]`` together with every earlier vertex
    that still has a neighbor at position >= i (the "active" vertices).  Its
    width is the vertex separation number of the order.  Each vertex is
    filed under the last position that needs it and expires from the active
    set there, so the construction costs O(m) plus the size of the bags.
    """
    if set(order) != set(graph.vertices):
        raise DecompositionError("order must contain every vertex exactly once")
    position = {v: i for i, v in enumerate(order)}
    expiring: list[list[Vertex]] = [[] for _ in order]
    for v, i in position.items():
        expiring[max([i] + [position[u] for u in graph.neighbors(v)])].append(v)
    bags: list[frozenset] = []
    active: set[Vertex] = set()
    for i, v in enumerate(order):
        active.add(v)
        bags.append(frozenset(active))
        active.difference_update(expiring[i])
    decomposition = PathDecomposition(bags)
    decomposition.validate(graph)
    return decomposition


def greedy_path_order(graph: Graph) -> list[Vertex]:
    """A greedy linear order minimizing the number of active vertices.

    At each step, pick the vertex that minimizes the resulting active-set
    size, breaking ties by number of not-yet-placed neighbors, then by
    stable key.  With ``active`` the placed vertices that still have an
    unplaced neighbor, that size is ``|active| + [v has an unplaced
    neighbor] - #{active neighbors of v whose last unplaced neighbor is v}``,
    so placing ``p`` changes the key only of ``p``'s unplaced neighbors and
    of the one unplaced neighbor left to an active vertex.  Those are pushed
    again on a heap of dense ids (stable-key order, so the seed's tie-break
    is an integer comparison); stale entries are discarded on pop.  Total
    cost O(m log n).
    """
    vertices = sorted(graph.vertices, key=_stable_key)
    index = {v: i for i, v in enumerate(vertices)}
    adjacency = [[index[u] for u in graph.neighbors(v)] for v in vertices]
    placed = [False] * len(vertices)
    unplaced_degree = [len(neighbors) for neighbors in adjacency]
    # critical[v]: active neighbors of v whose only unplaced neighbor is v.
    critical = [0] * len(vertices)

    def score(v: int) -> tuple[int, int, int]:
        degree = unplaced_degree[v]
        return ((degree > 0) - critical[v], degree, v)

    def last_unplaced_neighbor(u: int) -> int:
        return next(w for w in adjacency[u] if not placed[w])

    heap = [score(v) for v in range(len(vertices))]
    heapq.heapify(heap)
    order: list[Vertex] = []
    while heap:
        entry = heapq.heappop(heap)
        p = entry[2]
        if placed[p] or entry != score(p):
            continue
        placed[p] = True
        order.append(vertices[p])
        touched: list[int] = []
        # Active vertices (p included) left with one unplaced neighbor.
        lone = [p] if unplaced_degree[p] == 1 else []
        for w in adjacency[p]:
            unplaced_degree[w] -= 1
            if not placed[w]:
                touched.append(w)
            elif unplaced_degree[w] == 1:
                lone.append(w)
        for u in lone:
            v = last_unplaced_neighbor(u)
            critical[v] += 1
            touched.append(v)
        for v in touched:
            heapq.heappush(heap, score(v))
    return order


def path_decomposition(graph: Graph, exact: bool = False) -> PathDecomposition:
    """A path decomposition of ``graph`` (heuristic; exact for small graphs)."""
    if len(graph) == 0:
        return PathDecomposition([frozenset()])
    if exact and len(graph) <= 12:
        order = _exact_path_order(graph)
    else:
        order = greedy_path_order(graph)
    return path_decomposition_from_order(graph, order)


def pathwidth(graph: Graph, exact: bool = False) -> int:
    """The pathwidth of ``graph`` (upper bound unless ``exact=True`` and small)."""
    return path_decomposition(graph, exact=exact).width


def _exact_path_order(graph: Graph) -> list[Vertex]:
    """Exact minimum vertex-separation order by DP over vertex subsets."""
    vertices = sorted(graph.vertices, key=_stable_key)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    neighbor_masks = [0] * n
    for v in vertices:
        mask = 0
        for u in graph.neighbors(v):
            mask |= 1 << index[u]
        neighbor_masks[index[v]] = mask

    def boundary_size(placed_mask: int) -> int:
        remaining_mask = ((1 << n) - 1) ^ placed_mask
        count = 0
        for i in range(n):
            if placed_mask >> i & 1 and neighbor_masks[i] & remaining_mask:
                count += 1
        return count

    # DP over subsets: best achievable max boundary when the subset is placed.
    best: dict[int, tuple[int, int]] = {0: (0, -1)}  # mask -> (cost, last vertex)
    for mask in range(1, 1 << n):
        candidates: list[tuple[int, int]] = []
        for i in range(n):
            if mask >> i & 1:
                prev = mask ^ (1 << i)
                if prev in best:
                    cost = max(best[prev][0], boundary_size(prev | (1 << i)))
                    candidates.append((cost, i))
        if candidates:
            best[mask] = min(candidates)
    order_indices: list[int] = []
    mask = (1 << n) - 1
    while mask:
        _, last = best[mask]
        order_indices.append(last)
        mask ^= 1 << last
    order_indices.reverse()
    return [vertices[i] for i in order_indices]


def path_decomposition_from_tree(decomposition: TreeDecomposition) -> PathDecomposition:
    """Flatten a tree decomposition into a path decomposition.

    Bags are taken in pre-order; to preserve the connectedness condition, each
    bag is augmented with the vertices of all bags on the tree path between it
    and previously visited bags that reappear later.  The width can grow; this
    is a fallback for callers that insist on a path shape.
    """
    order = decomposition.topological_order()
    bags = [decomposition.bags[node] for node in order]
    # Fix contiguity: every vertex stays open from its first to its last
    # occurrence, so each bag is the set of vertices open at its index (a
    # superset of the bag itself).
    opening: list[list[Any]] = [[] for _ in bags]
    closing: list[list[Any]] = [[] for _ in bags]
    last: dict[Any, int] = {}
    for i, bag in enumerate(bags):
        for vertex in bag:
            if vertex not in last:
                opening[i].append(vertex)
            last[vertex] = i
    for vertex, i in last.items():
        closing[i].append(vertex)
    fixed = []
    open_vertices: set[Any] = set()
    for i in range(len(bags)):
        open_vertices.update(opening[i])
        fixed.append(frozenset(open_vertices))
        open_vertices.difference_update(closing[i])
    return PathDecomposition(fixed)


def _is_contiguous(indices: list[int]) -> bool:
    """Whether strictly increasing bag indices form one unbroken run."""
    return indices[-1] - indices[0] + 1 == len(indices)


def _stable_key(vertex: Any) -> tuple[str, str]:
    return (type(vertex).__name__, repr(vertex))
