"""Incidence algebra, connectivity, acyclicity, Laplacian reconstruction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kronred as kr
from kronred.errors import GraphStructureError
from kronred.graph import (
    DirectedGraph,
    build_incidence,
    fundamental_cycles,
    graph_from_laplacian,
    is_acyclic,
    is_connected,
)

from conftest import random_connected_graph


def test_incidence_single_edge():
    g = DirectedGraph(("a", "b"), (("a", "b"),))
    d = build_incidence(g)
    np.testing.assert_array_equal(d, [[-1], [1]])


def test_incidence_two_edges_into_center():
    g = DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    d = build_incidence(g)
    np.testing.assert_array_equal(d, [[1, 1], [-1, 0], [0, -1]])


def test_incidence_empty_edges_disconnected():
    g = DirectedGraph(("a", "b"), ())
    assert build_incidence(g).shape == (2, 0)
    assert not is_connected(g)


def test_self_loop_rejected():
    with pytest.raises(GraphStructureError):
        DirectedGraph(("a",), (("a", "a"),))


def test_duplicate_node_rejected():
    with pytest.raises(GraphStructureError):
        DirectedGraph(("a", "a"), ())


def test_undeclared_endpoint_rejected():
    with pytest.raises(GraphStructureError):
        DirectedGraph(("a", "b"), (("a", "c"),))


def test_connectivity_path():
    g = DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    assert is_connected(g)


def test_connectivity_isolated():
    assert not is_connected(DirectedGraph(("a", "b"), ()))


def test_connectivity_single_node():
    assert is_connected(DirectedGraph(("a",), ()))


def test_acyclic_path():
    assert is_acyclic(DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0"))))


def test_acyclic_triangle():
    g = DirectedGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
    assert not is_acyclic(g)


def test_acyclic_single_edge():
    assert is_acyclic(DirectedGraph(("a", "b"), (("a", "b"),)))


def test_acyclic_parallel_edges():
    g = DirectedGraph(("a", "b"), (("a", "b"), ("b", "a")))
    assert not is_acyclic(g)


def test_laplacian_two_node_unit():
    g, w = graph_from_laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]), ("a", "b"))
    assert g.edges == (("a", "b"),)
    np.testing.assert_allclose(w, [1.0])


def test_laplacian_two_node_half():
    # weight from the series reduction of two unit conductances
    g, w = graph_from_laplacian(np.array([[0.5, -0.5], [-0.5, 0.5]]), ("a", "b"))
    assert g.edges == (("a", "b"),)
    np.testing.assert_allclose(w, [0.5])


def test_laplacian_triangle():
    L = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
    g, w = graph_from_laplacian(L, ("a", "b", "c"))
    assert g.edges == (("a", "b"), ("a", "c"), ("b", "c"))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])


def test_laplacian_positive_offdiagonal_rejected():
    L = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(GraphStructureError):
        graph_from_laplacian(L, ("a", "b"))


def test_laplacian_nonzero_row_sum_rejected():
    L = np.array([[2.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(GraphStructureError):
        graph_from_laplacian(L, ("a", "b"))


def test_laplacian_asymmetric_rejected():
    L = np.array([[1.0, -1.0], [-0.5, 0.5]])
    with pytest.raises(GraphStructureError):
        graph_from_laplacian(L, ("a", "b"))


def test_laplacian_without_edges():
    g, w = graph_from_laplacian(np.zeros((2, 2)), ("a", "b"))
    assert g.edges == () and w.shape == (0,)


def test_laplacian_of_complete_graph_stays_small():
    # 4950 edges; a dense m x m diag(w) in the reconstruction check alone is 196 MB
    n = 100
    L = n * np.eye(n) - np.ones((n, n))
    tracemalloc.start()
    try:
        g, w = graph_from_laplacian(L, tuple(str(i) for i in range(n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6
    assert g.m == n * (n - 1) // 2 and (w == 1.0).all()


@given(st.integers(0, 10_000))
def test_column_sums_zero(seed):
    g = random_connected_graph(np.random.default_rng(seed))
    d = build_incidence(g)
    assert (d.sum(axis=0) == 0).all()


@given(st.integers(0, 10_000))
def test_connected_rank_is_n_minus_one(seed):
    g = random_connected_graph(np.random.default_rng(seed))
    d = build_incidence(g).astype(float)
    assert np.linalg.matrix_rank(d, tol=1e-10) == g.n - 1


@given(st.integers(1, 7), st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)), max_size=9))
def test_connectivity_and_acyclicity_match_incidence_rank(n, pairs):
    # arbitrary graphs: disconnected ones, isolated nodes and parallel edges
    names = tuple(str(i) for i in range(n))
    edges = tuple((names[t % n], names[(t + k) % n]) for t, k in pairs if k % n)
    g = DirectedGraph(names, edges)
    rank = np.linalg.matrix_rank(build_incidence(g)) if g.m else 0
    assert is_connected(g) == (rank == n - 1)
    assert is_acyclic(g) == (rank == g.m)


@given(st.integers(0, 10_000))
def test_laplacian_round_trip_on_simple_graphs(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, allow_parallel=False)
    w = rng.uniform(0.1, 3.0, g.m)
    d = build_incidence(g)
    L = (d * w) @ d.T
    recovered, rw = graph_from_laplacian(L, g.node_ids)
    want = {tuple(sorted(e)) for e in g.edges}
    got = {tuple(sorted(e)) for e in recovered.edges}
    assert want == got
    recon = (build_incidence(recovered) * rw) @ build_incidence(recovered).T
    assert np.abs(recon - L).max() <= 1e-8 * (1.0 + np.abs(L).max())


@given(st.integers(0, 10_000))
def test_fundamental_cycles_span_kernel(seed):
    g = random_connected_graph(np.random.default_rng(seed), n_max=6, extra_max=4)
    d = build_incidence(g)
    f = fundamental_cycles(g)
    assert f.shape == (g.m, g.m - g.n + 1)
    if f.size:
        assert np.abs(d @ f).max() < 1e-12
        assert np.linalg.matrix_rank(f) == f.shape[1]


def test_fundamental_cycles_tree_is_empty():
    g = DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    assert fundamental_cycles(g).shape == (2, 0)
