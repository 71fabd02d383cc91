"""Potential assembly: K, nodal currents, weighted Laplacian, power."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kronred as kr
from kronred.errors import IntervalError, SolveError
from kronred.potential import (
    _edge_values,
    _g_vec,
    _gp_vec,
    _nodal_sums,
    _packed_laplacian,
    edge_label,
    edge_voltages,
)
from kronred.reduction import TableLaw

from conftest import (
    diode_opposite_net,
    finite_difference_gradient,
    finite_difference_jacobian,
    linear_series_net,
    random_connected_graph,
    random_network,
    simpson_integral,
)


def test_k_zero_at_equal_potentials(diode_opposite):
    assert kr.k_value(diode_opposite, np.zeros(3)) == 0.0
    assert kr.k_value(diode_opposite, np.full(3, 1.7)) == pytest.approx(0.0, abs=1e-12)


def test_k_value_matches_scalar_quadrature_oracle(diode_opposite):
    # z = (0, 1, 0) gives edge values (-1, 0); sum the per-edge integrals
    g = diode_opposite.laws[0].g
    oracle = simpson_integral(lambda v: kr.evaluate(g, v), 0.0, -1.0)
    assert kr.k_value(diode_opposite, np.array([0.0, 1.0, 0.0])) == pytest.approx(oracle, abs=1e-9)


def test_k_value_single_linear_edge():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    net = kr.build_network(g, [kr.edge_law("2*y")], ("a", "b"))
    assert kr.k_value(net, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)


def test_k_value_names_offending_edge():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    net = kr.build_network(g, [kr.edge_law("y", interval=(-1.0, 1.0))], ("a", "b"))
    with pytest.raises(IntervalError) as info:
        kr.k_value(net, np.array([0.0, 2.0]))
    assert "a->b" in str(info.value)


def test_nodal_currents_vanish_at_constant_potential(diode_opposite):
    j = kr.nodal_currents(diode_opposite, np.full(3, 0.4))
    np.testing.assert_allclose(j, 0.0, atol=1e-14)


def test_nodal_currents_two_node_edge():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    net = kr.build_network(g, [kr.edge_law("y")], ("a", "b"))
    j = kr.nodal_currents(net, np.array([0.0, 1.0]))
    np.testing.assert_allclose(j, [-1.0, 1.0], atol=1e-14)


def test_nodal_currents_diode_pair(diode_opposite):
    j = kr.nodal_currents(diode_opposite, np.array([0.0, 1.0, 0.0]))
    expected = np.array([math.exp(-1) - 1.0, 1.0 - math.exp(-1), 0.0])
    np.testing.assert_allclose(j, expected, atol=1e-14)
    assert abs(j.sum()) < 1e-14


def test_weighted_laplacian_unit_edge():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    net = kr.build_network(g, [kr.edge_law("y")], ("a", "b"))
    lap = kr.weighted_laplacian(net, np.array([0.3, -0.2]))
    np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-14)


def test_weighted_laplacian_diode_pair_at_zero(diode_opposite):
    lap = kr.weighted_laplacian(diode_opposite, np.zeros(3))
    expected = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(lap, expected, atol=1e-14)


def test_weighted_laplacian_star_degree(linear_star):
    lap = kr.weighted_laplacian(linear_star, np.zeros(4))
    assert lap[0, 0] == pytest.approx(3.0)


def _assert_edge_list_matches_incidence(net, rng):
    order = list(net.partition.boundary + net.partition.central)
    assert net._edge_list.order.tolist() == order
    d = net.incidence  # dense oracle, rows in node-list order
    w = rng.uniform(0.1, 3.0, net.graph.m)
    dense = (d[order] * w) @ d[order].T  # only the packed scatter is partition-ordered
    n_b, kd = len(net.partition.boundary), net._edge_list.kd
    cc = dense[n_b:, n_b:]
    i, k = np.triu_indices(len(cc))
    stored = k - i <= kd
    assert not cc[i[~stored], k[~stored]].any()  # the band holds every entry of H_CC
    assert kd == max((k - i)[cc[i, k] != 0], default=0)  # and is no wider
    want = np.zeros((kd + 1, len(cc)))
    want[k[stored] - i[stored], i[stored]] = cc[k[stored], i[stored]]  # lower band storage
    band, rows = _packed_laplacian(net, w)
    tol = 1e-14 * np.abs(dense).max()
    assert band.flags.f_contiguous and np.abs(band - want).max(initial=0.0) <= tol
    assert np.abs(rows - dense[:n_b]).max() <= tol
    z = rng.uniform(-2.0, 2.0, net.graph.n)
    assert np.abs(_edge_values(net, z) - d.T @ z).max() <= 1e-14 * np.abs(z).max()
    g = rng.uniform(-2.0, 2.0, net.graph.m)
    assert np.abs(_nodal_sums(net, g) - d @ g).max() <= 1e-14 * np.abs(g).sum()


@given(st.integers(0, 2**32 - 1))
def test_edge_list_matches_dense_incidence(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, allow_parallel=True)
    _assert_edge_list_matches_incidence(net, rng)
    # a replaced partition (as effective_curve makes) gets its own view
    perm = [int(i) for i in rng.permutation(net.graph.n)]
    n_b = int(rng.integers(1, net.graph.n + 1))
    moved = replace(net, partition=kr.NodePartition(tuple(perm[:n_b]), tuple(perm[n_b:])))
    _assert_edge_list_matches_incidence(moved, rng)
    # the public node-order products agree with the dense incidence too
    d = moved.incidence
    z = rng.uniform(-0.5, 0.5, moved.graph.n)
    y = d.T @ z
    np.testing.assert_allclose(edge_voltages(moved, z), y, rtol=0.0, atol=1e-15)
    currents = _g_vec(moved, y)
    j = kr.nodal_currents(moved, z)
    assert np.abs(j - d @ currents).max() <= 1e-14 * np.abs(currents).sum()
    dense_h = (d * _gp_vec(moved, y)) @ d.T
    h = kr.weighted_laplacian(moved, z)
    assert np.abs(h - dense_h).max() <= 1e-14 * np.abs(dense_h).max()


def test_edge_voltages_checks_length(diode_opposite):
    with pytest.raises(ValueError, match="expected 3 node values, got 4"):
        edge_voltages(diode_opposite, np.zeros(4))


def test_dissipated_power_linear_edge():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    net = kr.build_network(g, [kr.edge_law("y")], ("a", "b"))
    assert kr.dissipated_power(net, np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_dissipated_power_shift(diode_opposite):
    assert kr.dissipated_power(diode_opposite, np.full(3, 2.2)) == pytest.approx(0.0, abs=1e-13)


def test_dissipated_power_diode_pair(diode_opposite):
    p = kr.dissipated_power(diode_opposite, np.array([0.0, 1.0, 0.0]))
    assert p == pytest.approx(1.0 - math.exp(-1), abs=1e-13)


def test_power_balance_random_networks():
    rng = np.random.default_rng(11)
    for _ in range(100):
        net = random_network(rng)
        z = rng.uniform(-2.0, 2.0, net.graph.n)
        report = kr.power_balance_check(net, z)
        assert report.difference <= 1e-12 * (1.0 + abs(report.edge_power))


def test_power_balance_zero(diode_opposite):
    report = kr.power_balance_check(diode_opposite, np.zeros(3))
    assert report.edge_power == 0.0 and report.nodal_power == 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(100):
        net = random_network(rng)
        z = rng.uniform(-2.0, 2.0, net.graph.n)
        grad = kr.nodal_currents(net, z)
        fd = finite_difference_gradient(lambda v: kr.k_value(net, v), z, h=1e-4)
        scale = 1.0 + np.abs(grad).max()
        assert np.abs(grad - fd).max() <= 1e-6 * scale


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(29)
    for _ in range(100):
        net = random_network(rng)
        z = rng.uniform(-2.0, 2.0, net.graph.n)
        hess = kr.weighted_laplacian(net, z)
        fd = finite_difference_jacobian(lambda v: kr.nodal_currents(net, v), z)
        scale = 1.0 + np.abs(hess).max()
        assert np.abs(hess - fd).max() <= 1e-5 * scale


def test_laplacian_structure_random_networks():
    rng = np.random.default_rng(31)
    for _ in range(50):
        net = random_network(rng)
        z = rng.uniform(-2.0, 2.0, net.graph.n)
        lap = kr.weighted_laplacian(net, z)
        n = net.graph.n
        assert np.abs(lap - lap.T).max() == 0.0
        assert np.abs(lap.sum(axis=1)).max() <= 1e-10 * (1.0 + np.abs(lap).max())
        off = lap - np.diag(np.diag(lap))
        assert off.max(initial=0.0) <= 1e-12
        eigs = np.linalg.eigvalsh(lap)
        assert eigs[0] >= -1e-9
        assert np.abs(lap @ np.ones(n)).max() <= 1e-10 * (1.0 + np.abs(lap).max())
        if n >= 2:  # connected: kernel is exactly the constants
            assert eigs[1] > 0.0


def test_k_shift_invariance():
    rng = np.random.default_rng(37)
    for _ in range(25):
        net = random_network(rng)
        z = rng.uniform(-2.0, 2.0, net.graph.n)
        c = rng.uniform(-10.0, 10.0)
        k0 = kr.k_value(net, z)
        k1 = kr.k_value(net, z + c)
        assert abs(k1 - k0) <= 1e-10 * (1.0 + abs(k0))


def test_orientation_changes_k_for_diode_law():
    flipped = kr.DirectedGraph(("0", "1", "2"), (("0", "1"), ("2", "0")))
    laws = [kr.edge_law("exp(y) - 1"), kr.edge_law("exp(y) - 1")]
    net_flipped = kr.build_network(flipped, laws, ("1", "2"))
    z = np.array([0.3, 1.1, -0.5])
    k_orig = kr.k_value(diode_opposite_net(), z)
    k_flip = kr.k_value(net_flipped, z)
    assert abs(k_orig - k_flip) > 1e-3


def test_orientation_irrelevant_for_quadratic_law():
    z = np.array([0.3, 1.1, -0.5])
    net = linear_series_net()
    flipped_graph = kr.DirectedGraph(("0", "1", "2"), (("0", "1"), ("0", "2")))
    laws = [kr.edge_law("y"), kr.edge_law("y")]
    net_flipped = kr.build_network(flipped_graph, laws, ("1", "2"))
    assert kr.k_value(net, z) == pytest.approx(kr.k_value(net_flipped, z), abs=1e-12)


def test_potential_pieces_are_consistent(diode_opposite):
    # K, its gradient and its Hessian at one point agree with each other
    z = np.array([0.2, 0.9, -0.3])
    grad = kr.nodal_currents(diode_opposite, z)
    fd_grad = finite_difference_gradient(lambda v: kr.k_value(diode_opposite, v), z)
    np.testing.assert_allclose(grad, fd_grad, atol=1e-7)
    fd_hess = finite_difference_jacobian(lambda v: kr.nodal_currents(diode_opposite, v), z)
    np.testing.assert_allclose(kr.weighted_laplacian(diode_opposite, z), fd_hess, atol=1e-7)
    np.testing.assert_allclose(edge_voltages(diode_opposite, z), diode_opposite.incidence.T @ z)


def test_law_count_mismatch_rejected():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    with pytest.raises(ValueError):
        kr.build_network(g, [], ("a",))


def test_disconnected_network_rejected():
    g = kr.DirectedGraph(("a", "b", "c"), (("a", "b"),))
    with pytest.raises(kr.GraphStructureError):
        kr.build_network(g, [kr.edge_law("y")], ("a",))


# Grouped law evaluation against a per-edge scalar loop.  Each text is parsed
# twice, so equal laws arrive as distinct objects with equal ASTs; the linear
# laws have a constant g' that must broadcast over their edges.  One table
# object is shared by several edges, the other stands alone.
_TEXTS = ("y", "2*y", "exp(y) - 1", "y + tanh(y)", "sinh(y)")
_Y = np.linspace(-3.0, 3.0, 9)
_SHARED_TABLE = TableLaw(_Y, _Y + 0.3 * np.tanh(_Y))
_MIXED_LAWS = (
    tuple(kr.edge_law(t) for t in _TEXTS)
    + tuple(kr.edge_law(t, interval=(-4.0, 5.0)) for t in _TEXTS)
    + (_SHARED_TABLE, _SHARED_TABLE, TableLaw(_Y, np.sinh(_Y)))
)


def _mixed_network(seed):
    rng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, n_max=6)
    laws = [_MIXED_LAWS[int(i)] for i in rng.integers(0, len(_MIXED_LAWS), graph.m)]
    n_b = int(rng.integers(1, graph.n + 1))
    boundary = [graph.node_ids[i] for i in rng.choice(graph.n, size=n_b, replace=False)]
    return kr.build_network(graph, laws, boundary), rng


def _first_violation_loop(net, y):
    for j, law in enumerate(net.laws):
        if not law.contains(y[j]):
            return j
    return -1


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_grouped_law_values_match_scalar_loop(seed):
    net, rng = _mixed_network(seed)
    y = rng.uniform(-3.0, 3.0, net.graph.m)
    want_g = [float(law.g_at(y[j])) for j, law in enumerate(net.laws)]
    want_gp = [float(law.gp_at(y[j])) for j, law in enumerate(net.laws)]
    np.testing.assert_allclose(_g_vec(net, y), want_g, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(_gp_vec(net, y), want_gp, rtol=1e-14, atol=0.0)
    # |edge value| <= 3 keeps every edge inside its law's interval
    z = rng.uniform(-1.5, 1.5, net.graph.n)
    y = edge_voltages(net, z)
    want_k = sum(float(law.cocontent(y[j:j + 1])[0]) for j, law in enumerate(net.laws))
    assert kr.k_value(net, z) == pytest.approx(want_k, rel=1e-13, abs=1e-15)


@settings(max_examples=40)
@given(st.integers(0, 10_000))
def test_interval_checks_name_first_offending_edge(seed):
    net, rng = _mixed_network(seed)
    z = rng.uniform(-4.0, 4.0, net.graph.n)
    bad = _first_violation_loop(net, net.incidence.T @ z)
    if bad < 0:
        edge_voltages(net, z)
        return
    with pytest.raises(IntervalError) as info:
        edge_voltages(net, z)
    assert info.value.edge == edge_label(net, bad)
    boundary = list(net.partition.boundary)
    central = list(net.partition.central)
    with pytest.raises(SolveError) as info:
        kr.solve_interior(net, z[boundary], init=z[central])
    assert info.value.edge == edge_label(net, bad)
