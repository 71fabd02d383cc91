"""Network potential: total co-content, nodal currents, weighted Laplacian.

The potential of a network is K(z) = sum_j G_j((D^T z)_j).  Its gradient is
the vector of nodal currents D g(D^T z) and its Hessian is the weighted
Laplacian D diag(g'(D^T z)) D^T, so K is convex and shift invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GraphStructureError, IntervalError
from .exprlaw import EdgeLaw, evaluate
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

    ``exprs`` holds one (g, g', edge indices) entry per distinct parsed law,
    so all edges sharing a law are evaluated by one call; ``others`` holds
    (edge index, law) for laws evaluated on their own, such as tables.
    ``lo``/``hi`` are the validity interval ends per edge.
    """

    exprs: tuple
    others: tuple
    lo: np.ndarray
    hi: np.ndarray


@dataclass(frozen=True, eq=False)
class Network:
    """Connected directed graph with one certified monotone law per edge."""

    graph: DirectedGraph
    incidence: np.ndarray
    laws: tuple
    partition: NodePartition

    @cached_property
    def _law_index(self) -> _LawIndex:
        groups: dict = {}
        others = []
        for j, law in enumerate(self.laws):
            if isinstance(law, EdgeLaw):
                groups.setdefault((law.g, law.g_prime), []).append(j)
            else:
                others.append((j, law))
        exprs = tuple((g, gp, np.array(idx)) for (g, gp), idx in groups.items())
        bounds = np.array([law.validity_interval for law in self.laws], dtype=float)
        lo, hi = bounds.reshape(-1, 2).T
        return _LawIndex(exprs, tuple(others), lo, hi)


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
    return Network(graph, build_incidence(graph), laws, partition)


def edge_label(net: Network, j: int) -> str:
    tail, head = net.graph.edges[j]
    return f"{j} ({tail}->{head})"


def _first_violation(net: Network, y: np.ndarray) -> int:
    """Index of the first edge whose value leaves its validity interval, or -1."""
    index = net._law_index
    inside = (index.lo <= y) & (y <= index.hi)  # NaN counts as outside
    return -1 if inside.all() else int(np.argmin(inside))


def edge_voltages(net: Network, z: np.ndarray, check: bool = True) -> np.ndarray:
    """y = D^T z, validated against each law's validity interval."""
    z = np.asarray(z, dtype=float)
    y = net.incidence.T @ z
    if check:
        j = _first_violation(net, y)
        if j >= 0:
            raise IntervalError(float(y[j]), net.laws[j].validity_interval, edge_label(net, j))
    return y


def _g_vec(net: Network, y: np.ndarray) -> np.ndarray:
    index = net._law_index
    out = np.empty(len(y))
    for g, _, idx in index.exprs:
        out[idx] = evaluate(g, y[idx])
    for j, law in index.others:
        out[j] = law.g_at(y[j])
    return out


def _gp_vec(net: Network, y: np.ndarray) -> np.ndarray:
    index = net._law_index
    out = np.empty(len(y))
    for _, gp, idx in index.exprs:
        out[idx] = evaluate(gp, y[idx])
    for j, law in index.others:
        out[j] = law.gp_at(y[j])
    return out


def k_value(net: Network, z: np.ndarray) -> float:
    """Total co-content K(z), anchored so K vanishes when all edge values do."""
    y = edge_voltages(net, z)
    return float(sum(law.cocontent(float(y[j])) for j, law in enumerate(net.laws)))


def nodal_currents(net: Network, z: np.ndarray) -> np.ndarray:
    """Gradient of K: the nodal current vector D g(D^T z); sums to zero."""
    y = edge_voltages(net, z)
    return net.incidence @ _g_vec(net, y)


def weighted_laplacian(net: Network, z: np.ndarray) -> np.ndarray:
    """Hessian of K: D diag(g'(D^T z)) D^T, a weighted Laplacian."""
    y = edge_voltages(net, z)
    w = _gp_vec(net, y)
    d = net.incidence
    return (d * w) @ d.T


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
    nodal_power = float(z @ (net.incidence @ currents))
    return PowerBalance(edge_power, nodal_power, abs(edge_power - nodal_power))
