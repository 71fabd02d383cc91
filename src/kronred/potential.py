"""Network potential: total co-content, nodal currents, weighted Laplacian.

The potential of a network is K(z) = sum_j G_j((D^T z)_j).  Its gradient is
the vector of nodal currents D g(D^T z) and its Hessian is the weighted
Laplacian D diag(g'(D^T z)) D^T, so K is convex and shift invariant.

None of these products uses the dense n x m incidence matrix D, which
``Network.incidence`` builds for callers on first read.  Each network
caches its edge list: D^T z is a gather z[head] - z[tail], and D g is a
scatter-add of g at the heads minus the tails, both over nodal vectors in
node-list order.  D diag(w) D^T is one scatter-add of the four entries
+w, +w, -w, -w per edge into n x n in partition order (boundary nodes
first, then central), so its boundary and central blocks are plain
slices; nodal vectors never take that order.  That is O(m + n^2) work
instead of the O(n^2 m) of a dense product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphStructureError, IntervalError
from .graph import DirectedGraph, build_incidence, is_connected


@dataclass(frozen=True)
class NodePartition:
    """Boundary (kept) and central (eliminated) node index sets."""

    boundary: tuple[int, ...]
    central: tuple[int, ...]

    def __post_init__(self):
        b, c = set(self.boundary), set(self.central)
        if b & c:
            raise ValueError("boundary and central sets overlap")
        if len(self.boundary) < 1:
            raise ValueError("at least one boundary node is required")


@dataclass(frozen=True)
class _LawIndex:
    """Edge laws arranged for array evaluation.

    ``groups`` holds one (law, edge indices) pair per distinct law, in the
    order of each group's first edge, so all edges sharing a law are
    evaluated by one call.  Laws are told apart by equality: equal parsed
    laws share a group, and each table object is its own.  ``lo``/``hi``
    are the validity interval ends per edge.
    """

    groups: tuple
    lo: np.ndarray
    hi: np.ndarray


# signs of an edge's Laplacian entries at (t, t), (h, h), (t, h), (h, t)
_LAPLACIAN_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True)
class _EdgeList:
    """Edges as index arrays, and the Laplacian's partition-ordered scatter.

    ``tail``/``head`` are the node indices of each edge's ends.  ``order[p]``
    is the node at partition position p (boundary, then central), so
    ``order[:n_B]`` and ``order[n_B:]`` index the boundary and central
    entries of a nodal vector; row j of ``entries`` holds the flat positions
    in the n x n partition-ordered Laplacian of edge j's four entries, in
    the order of ``_LAPLACIAN_SIGNS``.
    """

    order: np.ndarray
    tail: np.ndarray
    head: np.ndarray
    entries: np.ndarray


@dataclass(frozen=True, eq=False)
class Network:
    """Connected directed graph with one certified monotone law per edge."""

    graph: DirectedGraph
    laws: tuple
    partition: NodePartition

    @cached_property
    def incidence(self) -> np.ndarray:
        """Dense n x m incidence matrix, built on first read; no product here uses it."""
        return build_incidence(self.graph)

    @cached_property
    def _law_index(self) -> _LawIndex:
        # hashing an EdgeLaw walks its tree: hash each distinct object once
        by_object: dict = {}
        for j, law in enumerate(self.laws):
            by_object.setdefault(id(law), (law, []))[1].append(j)
        groups: dict = {}
        for law, idx in by_object.values():
            groups.setdefault(law, []).extend(idx)
        bounds = np.array([law.validity_interval for law in self.laws], dtype=float)
        lo, hi = bounds.reshape(-1, 2).T
        return _LawIndex(tuple((law, np.sort(idx)) for law, idx in groups.items()), lo, hi)

    @cached_property
    def _edge_list(self) -> _EdgeList:
        n = self.graph.n
        order = np.array(self.partition.boundary + self.partition.central, dtype=np.intp)
        position = np.empty(n, dtype=np.intp)
        position[order] = np.arange(n)
        ends = np.array(self.graph.edge_indices(), dtype=np.intp).reshape(-1, 2)
        t, h = position[ends].T
        entries = np.stack([t * n + t, h * n + h, t * n + h, h * n + t], 1)
        tail, head = ends.T
        return _EdgeList(order, tail, head, entries)


def build_network(graph: DirectedGraph, laws, boundary_ids) -> Network:
    """Assemble and validate a Network.

    ``boundary_ids`` fixes the boundary node order; remaining nodes become
    central in node-list order.
    """
    laws = tuple(laws)
    if len(laws) != graph.m:
        raise ValueError(f"{graph.m} edges but {len(laws)} laws")
    if not is_connected(graph):
        raise GraphStructureError("graph is not connected")
    boundary = tuple(graph.index(name) for name in boundary_ids)
    if len(set(boundary)) != len(boundary):
        raise ValueError("duplicate boundary node")
    central = tuple(i for i in range(graph.n) if i not in set(boundary))
    partition = NodePartition(boundary, central)
    return Network(graph, laws, partition)


def edge_label(net: Network, j: int) -> str:
    tail, head = net.graph.edges[j]
    return f"{j} ({tail}->{head})"


def _first_violation(net: Network, y: np.ndarray) -> int:
    """Index of the first edge whose value leaves its validity interval, or -1."""
    index = net._law_index
    inside = (index.lo <= y) & (y <= index.hi)  # NaN counts as outside
    return -1 if inside.all() else int(np.argmin(inside))


def _edge_values(net: Network, z: np.ndarray) -> np.ndarray:
    """D^T z for z in node-list order: z[head] - z[tail] per edge."""
    edges = net._edge_list
    return z[edges.head] - z[edges.tail]


def _nodal_sums(net: Network, g: np.ndarray) -> np.ndarray:
    """D g in node-list order: per node, g summed over in-edges minus out-edges."""
    edges = net._edge_list
    n = net.graph.n
    return np.bincount(edges.head, g, n) - np.bincount(edges.tail, g, n)


def _laplacian(net: Network, w: np.ndarray) -> np.ndarray:
    """D diag(w) D^T in partition order, scattered from the edge list."""
    edges = net._edge_list
    n = len(edges.order)
    lap = np.bincount(edges.entries.ravel(), (w[:, None] * _LAPLACIAN_SIGNS).ravel(), n * n)
    return lap.reshape(n, n)


def edge_voltages(net: Network, z: np.ndarray) -> np.ndarray:
    """y = D^T z; raises IntervalError when a value leaves its law's validity interval."""
    z = np.asarray(z, dtype=float)
    if len(z) != net.graph.n:
        raise ValueError(f"expected {net.graph.n} node values, got {len(z)}")
    y = _edge_values(net, z)
    j = _first_violation(net, y)
    if j >= 0:
        raise IntervalError(float(y[j]), net.laws[j].validity_interval, edge_label(net, j))
    return y


def _g_vec(net: Network, y: np.ndarray) -> np.ndarray:
    out = np.empty(len(y))
    for law, idx in net._law_index.groups:
        out[idx] = law.g_at(y[idx])
    return out


def _gp_vec(net: Network, y: np.ndarray) -> np.ndarray:
    out = np.empty(len(y))
    for law, idx in net._law_index.groups:
        out[idx] = law.gp_at(y[idx])
    return out


def k_value(net: Network, z: np.ndarray) -> float:
    """Total co-content K(z), anchored so K vanishes when all edge values do.

    The edges of each law group are integrated by one ``cocontent`` call.
    """
    y = edge_voltages(net, z)
    return float(sum(float(law.cocontent(y[idx]).sum()) for law, idx in net._law_index.groups))


def nodal_currents(net: Network, z: np.ndarray) -> np.ndarray:
    """Gradient of K: the nodal current vector D g(D^T z); sums to zero."""
    y = edge_voltages(net, z)
    return _nodal_sums(net, _g_vec(net, y))


def weighted_laplacian(net: Network, z: np.ndarray) -> np.ndarray:
    """Hessian of K: D diag(g'(D^T z)) D^T, a weighted Laplacian."""
    y = edge_voltages(net, z)
    order = net._edge_list.order
    lap = np.empty((len(order), len(order)))
    lap[np.ix_(order, order)] = _laplacian(net, _gp_vec(net, y))
    return lap


def dissipated_power(net: Network, z: np.ndarray) -> float:
    """z . (D g(D^T z)): total power drawn through the nodes."""
    z = np.asarray(z, dtype=float)
    return float(z @ nodal_currents(net, z))


@dataclass(frozen=True)
class PowerBalance:
    edge_power: float  # V . I summed over edges
    nodal_power: float  # potentials . nodal currents
    difference: float


def power_balance_check(net: Network, z: np.ndarray) -> PowerBalance:
    """Compute edge power and nodal power independently and compare."""
    z = np.asarray(z, dtype=float)
    y = edge_voltages(net, z)
    currents = _g_vec(net, y)
    edge_power = float(y @ currents)
    nodal_power = float(z @ _nodal_sums(net, currents))
    return PowerBalance(edge_power, nodal_power, abs(edge_power - nodal_power))
