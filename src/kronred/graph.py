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


def _component_count(g: DirectedGraph) -> int:
    # union-find on the undirected support
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for ti, hi in g.edge_indices():
        ra, rb = find(ti), find(hi)
        if ra != rb:
            parent[ra] = rb
    return len({find(i) for i in range(g.n)})


def is_connected(g: DirectedGraph) -> bool:
    if g.n == 0:
        return True
    return _component_count(g) == 1


def is_acyclic(g: DirectedGraph) -> bool:
    """True iff the undirected support is a forest (ker D = 0)."""
    return g.m == g.n - _component_count(g)


def graph_from_laplacian(
    laplacian: np.ndarray,
    node_ids: tuple[str, ...] | list[str],
    edge_tol: float | None = None,
) -> tuple[DirectedGraph, np.ndarray]:
    """Recover a simple weighted graph from a Laplacian sign pattern.

    One edge per strictly negative off-diagonal entry, weight -L[i, k],
    oriented lowest-index-node = tail.  Validates symmetry, zero row sums,
    and nonpositive off-diagonals; checks the reconstruction D W D^T
    reproduces L within 1e-8 * (1 + max|L|).
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
    if edge_tol is None:
        edge_tol = 1e-10 + 1e-9 * (np.abs(np.diag(L)).max() if n else 0.0)
    edges = []
    weights = []
    for i in range(n):
        for k in range(i + 1, n):
            entry = 0.5 * (L[i, k] + L[k, i])
            if entry > edge_tol:
                raise GraphStructureError(f"positive off-diagonal entry L[{i},{k}] = {entry!r}")
            if entry < -edge_tol:
                edges.append((node_ids[i], node_ids[k]))
                weights.append(-entry)
    graph = DirectedGraph(tuple(node_ids), tuple(edges))
    w = np.asarray(weights, dtype=float)
    d = build_incidence(graph)
    recon = d @ np.diag(w) @ d.T if graph.m else np.zeros((n, n))
    if n and np.abs(recon - L).max() > tol:
        raise GraphStructureError("reconstruction D W D^T does not match the input Laplacian")
    return graph, w


def fundamental_cycles(g: DirectedGraph) -> np.ndarray:
    """m x c matrix whose columns span ker D, one per non-tree edge.

    Built from a BFS spanning forest; each chord closes exactly one cycle.
    Signs are +1 where the cycle traverses an edge along its orientation.
    """
    d = build_incidence(g)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]  # (nbr, edge, dir)
    for j, (ti, hi) in enumerate(g.edge_indices()):
        adj[ti].append((hi, j, +1))
        adj[hi].append((ti, j, -1))
    in_tree = [False] * g.m
    parent_edge: list[tuple[int, int, int] | None] = [None] * g.n  # (parent, edge, dir)
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for nbr, j, direction in adj[node]:
                if not seen[nbr] and not in_tree[j]:
                    seen[nbr] = True
                    in_tree[j] = True
                    parent_edge[nbr] = (node, j, direction)
                    frontier.append(nbr)

    def path_to_root(node):
        steps = []
        while parent_edge[node] is not None:
            parent, j, direction = parent_edge[node]
            steps.append((j, direction))
            node = parent
        return node, steps

    columns = []
    for j, (ti, hi) in enumerate(g.edge_indices()):
        if in_tree[j]:
            continue
        col = np.zeros(g.m)
        col[j] = 1.0
        # close the cycle with the tree walk head -> root -> tail; a step up
        # from child to parent runs against the stored direction
        _, steps_h = path_to_root(hi)
        _, steps_t = path_to_root(ti)
        for e, direction in steps_h:
            col[e] -= direction
        for e, direction in steps_t:
            col[e] += direction
        columns.append(col)
    cycles = np.column_stack(columns) if columns else np.zeros((g.m, 0))
    if cycles.size and np.abs(d @ cycles).max() > 1e-12:
        raise GraphStructureError("cycle basis construction failed")
    return cycles
