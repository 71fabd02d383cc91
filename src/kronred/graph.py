"""Directed graphs, incidence algebra, and Laplacian reconstruction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GraphStructureError


@dataclass(frozen=True)
class DirectedGraph:
    """Node names plus ordered (tail, head) edge pairs.

    Parallel edges are allowed; self-loops are not.
    """

    node_ids: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    _index: dict = field(init=False, repr=False, compare=False)
    _roots: int | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if len(set(self.node_ids)) != len(self.node_ids):
            raise GraphStructureError("duplicate node name")
        index = {name: i for i, name in enumerate(self.node_ids)}
        for tail, head in self.edges:
            if tail == head:
                raise GraphStructureError(f"self-loop at node {tail!r}")
            if tail not in index or head not in index:
                raise GraphStructureError(f"edge ({tail!r}, {head!r}) references undeclared node")
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def m(self) -> int:
        return len(self.edges)

    def index(self, name: str) -> int:
        return self._index[name]

    def edge_indices(self) -> list[tuple[int, int]]:
        """(tail index, head index) per edge."""
        return [(self._index[t], self._index[h]) for t, h in self.edges]


def build_incidence(g: DirectedGraph) -> np.ndarray:
    """n x m float incidence matrix: +1 at each edge's head, -1 at its tail."""
    d = np.zeros((g.n, g.m))
    for j, (ti, hi) in enumerate(g.edge_indices()):
        d[ti, j] = -1
        d[hi, j] = +1
    return d


def _spanning_forest(g: DirectedGraph) -> tuple[list, int]:
    """A spanning forest of the undirected support, and its number of roots.

    Each node not yet reached roots a new tree, one per connected component.
    Per node, the tree edge that reached it is (parent, edge, direction),
    with direction +1 where the edge runs parent -> node, or None at a root.
    """
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]  # (nbr, edge, dir)
    for j, (ti, hi) in enumerate(g.edge_indices()):
        adj[ti].append((hi, j, +1))
        adj[hi].append((ti, j, -1))
    parent_edge: list[tuple[int, int, int] | None] = [None] * g.n
    seen = [False] * g.n
    roots = 0
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        roots += 1
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for nbr, j, direction in adj[node]:
                if not seen[nbr]:
                    seen[nbr] = True
                    parent_edge[nbr] = (node, j, direction)
                    frontier.append(nbr)
    return parent_edge, roots


def _component_count(g: DirectedGraph) -> int:
    """Connected components of the undirected support; one forest walk per graph."""
    if g._roots is None:
        object.__setattr__(g, "_roots", _spanning_forest(g)[1])
    return g._roots


def is_connected(g: DirectedGraph) -> bool:
    return g.n == 0 or _component_count(g) == 1


def is_acyclic(g: DirectedGraph) -> bool:
    """True iff the undirected support is a forest (ker D = 0): every edge is a tree edge."""
    return g.m == g.n - _component_count(g)


def _support(lap: np.ndarray) -> frozenset:
    """Index pairs i < k with |lap[i, k]| > 1e-10 + 1e-9 max|diag lap|: the edges lap shows."""
    n = len(lap)
    tol = 1e-10 + 1e-9 * np.abs(np.diag(lap)).max(initial=0.0)
    return frozenset((i, k) for i in range(n) for k in range(i + 1, n) if abs(lap[i, k]) > tol)


def graph_from_laplacian(
    laplacian: np.ndarray,
    node_ids: tuple[str, ...] | list[str],
) -> tuple[DirectedGraph, np.ndarray]:
    """Recover a simple weighted graph from a Laplacian sign pattern.

    One edge per pair i < k in the ``_support`` of (L + L^T) / 2, weight
    -(L[i, k] + L[k, i]) / 2, oriented lowest-index-node = tail.  Validates
    symmetry, zero row sums, and nonpositive off-diagonals; checks the
    reconstruction D W D^T reproduces L within 1e-8 * (1 + max|L|).
    """
    L = np.asarray(laplacian, dtype=float)
    n = L.shape[0]
    if L.shape != (n, n) or n != len(node_ids):
        raise GraphStructureError("laplacian shape does not match node list")
    scale = 1.0 + (np.abs(L).max() if n else 0.0)
    tol = 1e-8 * scale
    if not np.allclose(L, L.T, atol=tol, rtol=0.0):
        raise GraphStructureError("matrix is not symmetric")
    row_sums = L.sum(axis=1)
    if np.abs(row_sums).max(initial=0.0) > tol:
        i = int(np.argmax(np.abs(row_sums)))
        raise GraphStructureError(f"row {i} sums to {row_sums[i]!r}, not 0")
    sym = 0.5 * (L + L.T)
    edges = []
    weights = []
    for i, k in sorted(_support(sym)):
        if sym[i, k] > 0.0:
            raise GraphStructureError(f"positive off-diagonal entry L[{i},{k}] = {sym[i, k]!r}")
        edges.append((node_ids[i], node_ids[k]))
        weights.append(-sym[i, k])
    graph = DirectedGraph(tuple(node_ids), tuple(edges))
    w = np.asarray(weights, dtype=float)
    d = build_incidence(graph)
    recon = (d * w) @ d.T
    if n and np.abs(recon - L).max() > tol:
        raise GraphStructureError("reconstruction D W D^T does not match the input Laplacian")
    return graph, w


def fundamental_cycles(g: DirectedGraph) -> np.ndarray:
    """m x c matrix whose columns span ker D, one per non-tree edge.

    Built from ``_spanning_forest``; each chord closes exactly one cycle.
    Signs are +1 where the cycle traverses an edge along its orientation.
    """
    d = build_incidence(g)
    parent_edge, _ = _spanning_forest(g)
    in_tree = {step[1] for step in parent_edge if step is not None}

    def path_to_root(node):
        steps = []
        while parent_edge[node] is not None:
            parent, j, direction = parent_edge[node]
            steps.append((j, direction))
            node = parent
        return steps

    columns = []
    for j, (ti, hi) in enumerate(g.edge_indices()):
        if j in in_tree:
            continue
        col = np.zeros(g.m)
        col[j] = 1.0
        # close the cycle with the tree walk head -> root -> tail; a step up
        # from child to parent runs against the stored direction
        for e, direction in path_to_root(hi):
            col[e] -= direction
        for e, direction in path_to_root(ti):
            col[e] += direction
        columns.append(col)
    cycles = np.column_stack(columns) if columns else np.zeros((g.m, 0))
    if cycles.size and np.abs(d @ cycles).max() > 1e-12:
        raise GraphStructureError("cycle basis construction failed")
    return cycles
