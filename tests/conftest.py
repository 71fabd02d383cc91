"""Shared builders, oracles, and hypothesis config for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import kronred as kr

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

NETWORKS_DIR = Path(__file__).resolve().parent.parent / "networks"
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"

# strictly monotone on the default interval, all vanish at 0
LAW_POOL = (
    "2*y",
    "0.5*y",
    "exp(y) - 1",
    "y + tanh(y)",
    "sinh(y)",
    "y + 0.25*y^3",
    "0.5*y + 0.1*sinh(y)",
    "exp(y) - 1 + 0.5*y",
    "y + sqrt(1 + y^2) - 1",
)


def load_perfbench(name: str):
    """A module of the benchmark harness, run from its file (the harness is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def diode_opposite_net() -> kr.Network:
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    laws = [kr.edge_law("exp(y) - 1"), kr.edge_law("exp(y) - 1")]
    return kr.build_network(g, laws, ("1", "2"))


def diode_same_net() -> kr.Network:
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("0", "2")))
    laws = [kr.edge_law("exp(y) - 1"), kr.edge_law("exp(y) - 1")]
    return kr.build_network(g, laws, ("1", "2"))


def linear_series_net(g1: float = 1.0, g2: float = 1.0) -> kr.Network:
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("0", "2")))
    laws = [kr.edge_law(f"{g1}*y"), kr.edge_law(f"{g2}*y")]
    return kr.build_network(g, laws, ("1", "2"))


def linear_star_net(leaves: int = 3) -> kr.Network:
    names = tuple(str(i) for i in range(leaves + 1))
    edges = tuple(("0", str(i)) for i in range(1, leaves + 1))
    laws = [kr.edge_law("y") for _ in edges]
    return kr.build_network(kr.DirectedGraph(names, edges), laws, names[1:])


def triangle_center_net() -> kr.Network:
    g = kr.DirectedGraph(
        ("0", "1", "2", "3"),
        (("1", "2"), ("2", "3"), ("1", "3"), ("0", "1"), ("0", "2"), ("0", "3")),
    )
    texts = ("y", "2*y", "0.5*y", "y", "1.5*y", "0.5*y")
    return kr.build_network(g, [kr.edge_law(t) for t in texts], ("1", "2", "3"))


def diode_ring_net() -> kr.Network:
    g = kr.DirectedGraph(
        ("0", "1", "2", "3"),
        (("1", "2"), ("2", "3"), ("1", "3"), ("0", "1"), ("0", "2"), ("0", "3")),
    )
    texts = ("exp(y) - 1", "y + tanh(y)", "sinh(y)", "y", "exp(y) - 1", "y + 0.25*y^3")
    return kr.build_network(g, [kr.edge_law(t) for t in texts], ("1", "2", "3"))


SHIPPED_ACYCLIC = {
    "diode_opposite": diode_opposite_net,
    "diode_same": diode_same_net,
    "linear_series": linear_series_net,
}


def random_connected_graph(rng, n_min=2, n_max=7, extra_max=3, allow_parallel=True):
    n = int(rng.integers(n_min, n_max + 1))
    names = tuple(str(i) for i in range(n))
    edges = []
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        pair = (names[parent], names[i])
        if rng.random() < 0.5:
            pair = (pair[1], pair[0])
        edges.append(pair)
    for _ in range(int(rng.integers(0, extra_max + 1))):
        i, k = rng.choice(n, size=2, replace=False)
        pair = (names[int(i)], names[int(k)])
        if not allow_parallel and (pair in edges or (pair[1], pair[0]) in edges):
            continue
        edges.append(pair)
    return kr.DirectedGraph(names, tuple(edges))


def random_network(rng, n_min=2, n_max=7, boundary_min=1, law_pool=LAW_POOL, **kw):
    graph = random_connected_graph(rng, n_min, n_max, **kw)
    laws = [kr.edge_law(law_pool[int(rng.integers(0, len(law_pool)))]) for _ in range(graph.m)]
    n_b = int(rng.integers(boundary_min, graph.n + 1))
    boundary = [graph.node_ids[i] for i in rng.choice(graph.n, size=n_b, replace=False)]
    return kr.build_network(graph, laws, boundary)


def grid_network(k: int, law: str) -> kr.Network:
    """k x k grid with one shared law, nodes row by row, the four corners as boundary."""
    names = tuple(str(i) for i in range(k * k))
    edges = []
    for i in range(k * k):
        if i % k + 1 < k:
            edges.append((names[i], names[i + 1]))
        if i + k < k * k:
            edges.append((names[i], names[i + k]))
    corners = (names[0], names[k - 1], names[k * (k - 1)], names[k * k - 1])
    shared = kr.edge_law(law)
    return kr.build_network(kr.DirectedGraph(names, tuple(edges)), [shared] * len(edges), corners)


def simpson_integral(f, a: float, b: float, panels: int = 4096) -> float:
    """Composite Simpson quadrature, independent of the library's routines."""
    x = np.linspace(a, b, 2 * panels + 1)
    fx = np.array([f(v) for v in x])
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-1:2].sum()))


def finite_difference_gradient(f, z: np.ndarray, h: float = 1e-4) -> np.ndarray:
    grad = np.zeros_like(z, dtype=float)
    for i in range(len(z)):
        step = np.zeros_like(grad)
        step[i] = h
        grad[i] = (f(z + step) - f(z - step)) / (2.0 * h)
    return grad


def finite_difference_jacobian(f, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    cols = []
    for i in range(len(z)):
        step = np.zeros_like(z, dtype=float)
        step[i] = h
        cols.append((np.asarray(f(z + step)) - np.asarray(f(z - step))) / (2.0 * h))
    return np.column_stack(cols)


@pytest.fixture
def diode_opposite():
    return diode_opposite_net()


@pytest.fixture
def diode_same():
    return diode_same_net()


@pytest.fixture
def linear_series():
    return linear_series_net()


@pytest.fixture
def linear_star():
    return linear_star_net()


@pytest.fixture
def triangle_center():
    return triangle_center_net()
