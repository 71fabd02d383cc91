"""Interior solves: Newton convergence, sensitivity, boundary potential."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import kronred as kr
from kronred._lapack import dpbtrf
from kronred.errors import HomogeneityError, SolveError
from kronred.netfile import load_network
from kronred.potential import _gp_vec
from kronred.solver import DEFAULT_TOL, _factor_central, _schur, cho_factor, cho_solve

from conftest import (
    LAW_POOL,
    NETWORKS_DIR,
    SHIPPED_ACYCLIC,
    diode_opposite_net,
    diode_same_net,
    finite_difference_jacobian,
    grid_network,
    linear_series_net,
    linear_star_net,
    random_network,
)


def closed_form_center(z1: float, z2: float) -> float:
    return -math.log(math.exp(-z1) + math.exp(-z2)) + math.log(2.0)


def test_diode_opposite_matches_closed_form(diode_opposite):
    res = kr.solve_interior(diode_opposite, np.array([1.0, 0.0]))
    assert res.converged
    assert res.z_c[0] == pytest.approx(closed_form_center(1.0, 0.0), abs=1e-12)


def test_linear_series_symmetric(linear_series):
    res = kr.solve_interior(linear_series, np.array([1.0, 0.0]))
    assert res.z_c[0] == pytest.approx(0.5, abs=1e-12)


def test_diode_same_orientation_midpoint(diode_same):
    res = kr.solve_interior(diode_same, np.array([1.0, 0.0]))
    assert res.z_c[0] == pytest.approx(0.5, abs=1e-12)
    # cross-check against direct 1-d minimization of K over the center value
    brute = minimize_scalar(
        lambda z0: kr.k_value(diode_same, np.array([z0, 1.0, 0.0])),
        bounds=(-2.0, 2.0), method="bounded", options={"xatol": 1e-12},
    )
    assert res.z_c[0] == pytest.approx(brute.x, abs=1e-7)


def test_no_central_nodes_is_trivial():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    net = kr.build_network(g, [kr.edge_law("y")], ("a", "b"))
    res = kr.solve_interior(net, np.array([1.0, 0.0]))
    assert res.converged and res.iterations == 0 and res.z_c.size == 0
    np.testing.assert_allclose(res.j_b, [1.0, -1.0])


LINEAR_POOL = ("y", "2*y", "0.5*y", "1.5*y")


def _dense_interior(net: kr.Network, z_b: np.ndarray) -> np.ndarray:
    """z_C = -H_CC^{-1} H_CB z_B of a network of lines, from the dense incidence."""
    _, h_cb, h_cc = _dense_blocks(net, _gp_vec(net, np.zeros(net.graph.m)))
    return np.linalg.solve(h_cc, -h_cb @ z_b)


@given(st.integers(0, 2**32 - 1))
def test_linear_network_starts_at_its_solution(seed):
    # the default start is the linearized network's Kron interior, which on
    # a network of lines is the solution itself
    rng = np.random.default_rng(seed)
    net = random_network(rng, law_pool=LINEAR_POOL)
    z_b = rng.uniform(-1.5, 1.5, len(net.partition.boundary))
    res = kr.solve_interior(net, z_b)
    assert res.converged and res.iterations == 0
    np.testing.assert_allclose(res.z_c, _dense_interior(net, z_b), rtol=0.0, atol=1e-12)


def test_triangle_center_starts_at_its_solution(triangle_center):
    rng = np.random.default_rng(3)
    for _ in range(10):
        z_b = rng.uniform(-1.5, 1.5, 3)
        res = kr.solve_interior(triangle_center, z_b)
        assert res.iterations == 0
        np.testing.assert_allclose(res.z_c, _dense_interior(triangle_center, z_b),
                                   rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n_b", [1, 3])
def test_constant_boundary_returns_the_constant(n_b):
    # the start applies S_0 to deviations from the mean, which vanish here:
    # S_0 z_B itself would be z_B (1 +- eps), and its currents rounding noise
    rng = np.random.default_rng(n_b)
    for _ in range(20):
        net = random_network(rng, n_min=n_b + 1, boundary_min=n_b)
        net = replace(net, partition=kr.NodePartition(
            net.partition.boundary[:n_b],
            tuple(sorted(net.partition.central + net.partition.boundary[n_b:]))))
        res = kr.solve_interior(net, np.full(n_b, -0.375))
        assert res.iterations == 0
        np.testing.assert_array_equal(res.z_c, -0.375)


@given(st.integers(0, 2**32 - 1))
def test_interior_solve_is_shift_invariant(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    z_b = rng.uniform(-1.5, 1.5, len(net.partition.boundary))
    c = rng.uniform(-2.0, 2.0)
    np.testing.assert_allclose(kr.solve_interior(net, z_b + c).z_c,
                               kr.solve_interior(net, z_b).z_c + c, rtol=0.0, atol=1e-12)


def test_start_outside_validity_falls_back_to_the_mean():
    # the linearized chain predicts z_C = (1/3, -1/3), whose middle edge
    # value -2/3 leaves [-0.25, 0.25]; the solve starts from the mean instead
    g = kr.DirectedGraph(("a", "c1", "c2", "b"), (("a", "c1"), ("c1", "c2"), ("c2", "b")))
    laws = [kr.edge_law("y"), kr.edge_law("y + 100*y^3", interval=(-0.25, 0.25)),
            kr.edge_law("y")]
    net = kr.build_network(g, laws, ("a", "b"))
    res = kr.solve_interior(net, [1.0, -1.0])
    assert res.converged and res.iterations == 5
    np.testing.assert_allclose(res.z_c, [0.0961674, -0.0961674], rtol=0.0, atol=1e-7)


def test_grid_solve_iteration_count():
    # seeded counter gate: from the mean of z_B these solves take 2.99 Newton
    # iterations each; from the linearized network's interior, 200 draws
    # average 1.46-1.55 across seeds (40 draws spread 1.35-1.68, too close
    # to the bound)
    net = grid_network(32, "y + 0.1*sinh(y)")
    rng = np.random.default_rng(0)
    iterations = [kr.solve_interior(net, rng.uniform(-1.0, 1.0, 4)).iterations
                  for _ in range(200)]
    assert np.mean(iterations) <= 1.6


@pytest.mark.parametrize("z_b", [[math.nan, 1.0], [math.inf, 0.0], [math.inf, -math.inf]],
                         ids=["nan", "inf", "both_infinities"])
def test_boundary_values_must_be_finite(diode_opposite, z_b):
    with pytest.raises(ValueError, match="boundary values must be finite"):
        kr.solve_interior(diode_opposite, z_b)


@pytest.mark.parametrize("name", sorted(SHIPPED_ACYCLIC))
def test_newton_iteration_budget(name):
    net = SHIPPED_ACYCLIC[name]()
    rng = np.random.default_rng(5)
    for _ in range(20):
        z_b = rng.uniform(-2.0, 2.0, 2)
        res = kr.solve_interior(net, z_b)
        assert res.converged and res.iterations <= 30


def test_boundary_currents_sum_to_zero():
    rng = np.random.default_rng(13)
    for _ in range(30):
        net = random_network(rng)
        z_b = rng.uniform(-1.5, 1.5, len(net.partition.boundary))
        res = kr.solve_interior(net, z_b)
        assert abs(res.j_b.sum()) <= 1e-10


@given(st.integers(0, 2**32 - 1))
def test_solution_fills_node_order_slots(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    perm = [int(i) for i in rng.permutation(net.graph.n)]
    n_b = int(rng.integers(1, net.graph.n + 1))
    net = replace(net, partition=kr.NodePartition(tuple(perm[:n_b]), tuple(perm[n_b:])))
    boundary, central = perm[:n_b], perm[n_b:]
    z_b = rng.uniform(-1.0, 1.0, n_b)
    res = kr.solve_interior(net, z_b)
    np.testing.assert_array_equal(res.z_full[boundary], z_b)
    np.testing.assert_array_equal(res.z_full[central], res.z_c)
    j = kr.nodal_currents(net, res.z_full)
    assert np.abs(j[central]).max(initial=0.0) <= DEFAULT_TOL
    np.testing.assert_array_equal(j[boundary], res.j_b)


def _clustered_network(rng, n_c, parts):
    """Random network whose n_c central nodes form ``parts`` components.

    Each component is a random tree plus extra edges, joined to the
    boundary by one or two edges; the boundary nodes form a random tree.
    Node numbering is shuffled, so the central block's band is up to
    n_c - 1 wide and holds zeros between components.
    """
    n_b = int(rng.integers(2 if n_c == 0 else 1, 4))
    boundary = [f"b{i}" for i in range(n_b)]
    central = [f"c{i}" for i in range(n_c)]
    edges = [(boundary[int(rng.integers(0, i))], boundary[i]) for i in range(1, n_b)]
    for part in np.array_split(np.arange(n_c), min(parts, n_c)) if n_c else []:
        nodes = [central[i] for i in part]
        edges += [(nodes[int(rng.integers(0, i))], nodes[i]) for i in range(1, len(nodes))]
        for _ in range(int(rng.integers(0, len(nodes)))):
            a, b = rng.choice(len(nodes), size=2)
            if a != b:
                edges.append((nodes[a], nodes[b]))
        for _ in range(int(rng.integers(1, 3))):
            edges.append((nodes[int(rng.integers(0, len(nodes)))],
                          boundary[int(rng.integers(0, n_b))]))
    edges = [pair[::-1] if rng.random() < 0.5 else pair for pair in edges]
    names = boundary + central
    names = tuple(names[i] for i in rng.permutation(len(names)))
    laws = [kr.edge_law(LAW_POOL[int(rng.integers(0, len(LAW_POOL)))]) for _ in edges]
    return kr.build_network(kr.DirectedGraph(names, tuple(edges)), laws,
                            [boundary[i] for i in rng.permutation(n_b)])


def _dense_blocks(net, w):
    """H_BB, H_CB and H_CC of D diag(w) D^T in partition order, from the dense incidence."""
    order = list(net.partition.boundary + net.partition.central)
    d = net.incidence[order]
    lap = (d * w) @ d.T
    n_b = len(net.partition.boundary)
    return lap[:n_b, :n_b], lap[n_b:, :n_b], lap[n_b:, n_b:]


@given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(1, 3))
@example(seed=0, n_c=0, parts=1)
@example(seed=1, n_c=1, parts=1)
@example(seed=2, n_c=7, parts=3)
def test_banded_elimination_matches_dense_oracle(seed, n_c, parts):
    rng = np.random.default_rng(seed)
    net = _clustered_network(rng, n_c, parts)
    assert len(net.partition.central) == n_c
    # _schur at random weights
    w = rng.uniform(0.1, 3.0, net.graph.m)
    h_bb, h_cb, h_cc = _dense_blocks(net, w)
    x = -np.linalg.solve(h_cc, h_cb) if n_c else np.zeros((0, len(h_bb)))
    reduced, sens = _schur(net, w)
    scale = max(np.abs(h_bb).max(), np.abs(h_cc).max(initial=0.0))
    assert np.abs(reduced - (h_bb + h_cb.T @ x)).max() <= 1e-12 * scale
    assert sens.shape == x.shape
    assert np.abs(sens - x).max(initial=0.0) <= 1e-12  # entries in [0, 1], rows sum to 1
    # a Newton step: one solve of H_CC against a central residual
    if n_c:
        r = rng.uniform(-1.0, 1.0, n_c)
        step = cho_solve(_factor_central(net, w)[1], r)
        want = np.linalg.solve(h_cc, r)
        assert np.abs(step - want).max() <= 1e-12 * np.abs(want).max()
    # the sensitivity at a solved point, from the laws' slopes there
    z_b = rng.uniform(-1.0, 1.0, len(net.partition.boundary))
    z = kr.solve_interior(net, z_b).z_full
    _, h_cb, h_cc = _dense_blocks(net, _gp_vec(net, net.incidence.T @ z))
    want = -np.linalg.solve(h_cc, h_cb) if n_c else np.zeros((0, len(z_b)))
    assert np.abs(kr.sensitivity(net, z_b) - want).max(initial=0.0) <= 1e-12


def test_band_with_gaps_matches_dense_oracle():
    # central order c0, c1, c2 with only c0 - c2 joined: kd = n_c - 1 = 2,
    # and the band entries (c0, c1) and (c1, c2) are zero
    g = kr.DirectedGraph(("b0", "c0", "c1", "c2", "b1"),
                         (("b0", "c0"), ("c0", "c2"), ("c2", "b1"), ("b0", "c1"), ("c1", "b1")))
    net = kr.build_network(g, [kr.edge_law("y")] * 5, ("b0", "b1"))
    assert net._edge_list.kd == 2
    w = np.array([1.0, 2.0, 3.0, 0.5, 0.25])
    h_bb, h_cb, h_cc = _dense_blocks(net, w)
    assert h_cc[0, 1] == h_cc[1, 2] == 0.0
    x = -np.linalg.solve(h_cc, h_cb)
    reduced, sens = _schur(net, w)
    np.testing.assert_allclose(sens, x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(reduced, h_bb + h_cb.T @ x, rtol=0.0, atol=1e-14)


def test_boundary_assignment_outside_validity_names_edge():
    g = kr.DirectedGraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    laws = [kr.edge_law("y", interval=(-1.0, 1.0))] * 2
    net = kr.build_network(g, laws, ("a", "b", "c"))
    with pytest.raises(SolveError, match="boundary assignment leaves") as info:
        kr.solve_interior(net, np.array([0.0, 0.5, 2.0]))
    assert info.value.edge == "1 (b->c)"


def test_initial_iterate_outside_validity_names_edge():
    g = kr.DirectedGraph(("a", "c", "b"), (("a", "c"), ("c", "b")))
    laws = [kr.edge_law("y", interval=(-1.0, 1.0))] * 2
    net = kr.build_network(g, laws, ("a", "b"))
    with pytest.raises(SolveError, match="initial iterate outside") as info:
        kr.solve_interior(net, np.array([0.5, -1.5]), init=[0.0])
    assert info.value.edge == "1 (c->b)"


def test_solver_is_deterministic(diode_opposite):
    a = kr.solve_interior(diode_opposite, np.array([0.7, -0.4]))
    b = kr.solve_interior(diode_opposite, np.array([0.7, -0.4]))
    assert a.z_c[0] == b.z_c[0] and a.iterations == b.iterations


def test_infeasible_interior_problem_reports_failure():
    # both edges carry exp(y): currents into the center cannot cancel
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    laws = [kr.edge_law("exp(y)"), kr.edge_law("exp(y)")]
    net = kr.build_network(g, laws, ("1", "2"))
    with pytest.raises(SolveError):
        kr.solve_interior(net, np.array([0.0, 0.0]))


def test_step_outside_validity_names_edge():
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    laws = [kr.edge_law("exp(y)", interval=(-1.0, 1.0)),
            kr.edge_law("exp(y)", interval=(-1.0, 1.0))]
    net = kr.build_network(g, laws, ("1", "2"))
    with pytest.raises(SolveError) as info:
        kr.solve_interior(net, np.array([0.5, -0.5]))
    assert info.value.result is not None


def test_interior_hessian_check_examples(diode_opposite, linear_series):
    assert kr.interior_hessian_check(diode_opposite, np.zeros(3)) == pytest.approx(2.0)
    assert kr.interior_hessian_check(linear_series, np.zeros(3)) == pytest.approx(2.0)
    for k in (2, 3, 5):
        star = linear_star_net(k)
        assert kr.interior_hessian_check(
            star, np.zeros(k + 1)) == pytest.approx(float(k))


def test_sensitivity_linear_series(linear_series):
    s = kr.sensitivity(linear_series, np.array([1.0, 0.0]))
    np.testing.assert_allclose(s, [[0.5, 0.5]], atol=1e-12)


def test_sensitivity_diode_at_origin(diode_opposite):
    s = kr.sensitivity(diode_opposite, np.array([0.0, 0.0]))
    np.testing.assert_allclose(s, [[0.5, 0.5]], atol=1e-12)


def test_sensitivity_rows_sum_to_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        net = random_network(rng, boundary_min=1)
        if not net.partition.central:
            continue
        z_b = rng.uniform(-1.5, 1.5, len(net.partition.boundary))
        s = kr.sensitivity(net, z_b)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-9)


def test_sensitivity_matches_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(10):
        net = random_network(rng, boundary_min=2)
        if not net.partition.central:
            continue
        z_b = rng.uniform(-1.5, 1.5, len(net.partition.boundary))
        s = kr.sensitivity(net, z_b)
        fd = finite_difference_jacobian(
            lambda v: kr.solve_interior(net, v).z_c, z_b, h=1e-4)
        scale = 1.0 + np.abs(s).max()
        assert np.abs(s - fd).max() <= 1e-5 * scale


def test_reduced_potential_diode_closed_form(diode_opposite):
    z1, z2 = 1.0, 0.0
    got = kr.reduced_potential(diode_opposite, np.array([z1, z2]))
    # anchored co-content shifts the closed-form boundary potential by a
    # constant 2 (one unit per edge)
    formula = 2.0 * math.log(math.exp(-z1) + math.exp(-z2)) + z1 + z2 + 2.0 - 2.0 * math.log(2.0)
    assert got == pytest.approx(formula - 2.0, abs=1e-10)


def test_reduced_potential_constant_on_gauge_orbit(diode_opposite):
    base = kr.reduced_potential(diode_opposite, np.array([0.0, 0.0]))
    for c in (-3.0, 0.7, 2.5):
        shifted = kr.reduced_potential(diode_opposite, np.array([c, c]))
        assert shifted == pytest.approx(base, abs=1e-10)


def test_reduced_potential_linear_series(linear_series):
    got = kr.reduced_potential(linear_series, np.array([1.0, 0.0]))
    # brute force: minimize K(z0) = (z0-1)^2/2 + z0^2/2 on a refined grid
    zs = np.linspace(-1.0, 2.0, 300001)
    brute = (0.5 * (zs - 1.0) ** 2 + 0.5 * zs**2).min()
    assert got == pytest.approx(brute, abs=1e-9)
    assert got == pytest.approx(0.25, abs=1e-10)


def test_boundary_potential_convex(diode_opposite):
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0, 2)
        b = rng.uniform(-2.0, 2.0, 2)
        t = rng.uniform()
        lhs = kr.reduced_potential(diode_opposite, t * a + (1 - t) * b)
        rhs = (t * kr.reduced_potential(diode_opposite, a)
               + (1 - t) * kr.reduced_potential(diode_opposite, b))
        assert lhs <= rhs + 1e-9


def test_boundary_potential_shift_invariant():
    rng = np.random.default_rng(29)
    for name, make in SHIPPED_ACYCLIC.items():
        net = make()
        for _ in range(10):
            z_b = rng.uniform(-2.0, 2.0, 2)
            c = rng.uniform(-2.0, 2.0)
            k0 = kr.reduced_potential(net, z_b)
            k1 = kr.reduced_potential(net, z_b + c)
            assert abs(k1 - k0) <= 1e-9 * (1.0 + abs(k0)), name


def test_envelope_identity():
    # boundary currents are the gradient of the boundary potential
    rng = np.random.default_rng(31)
    for name, make in SHIPPED_ACYCLIC.items():
        net = make()
        for _ in range(10):
            z_b = rng.uniform(-1.5, 1.5, 2)
            j_b = kr.solve_interior(net, z_b).j_b
            fd = finite_difference_jacobian(
                lambda v: np.array([kr.reduced_potential(net, v)]), z_b, h=1e-4)[0]
            scale = 1.0 + np.abs(j_b).max()
            assert np.abs(fd - j_b).max() <= 1e-5 * scale, name


def test_min_heat_quadratic_series(linear_series):
    report = kr.min_heat_check(linear_series, np.array([1.0, 0.0]), k=2.0)
    assert report.max_abs_difference <= 1e-8


def _weighted_grid(k: int) -> kr.Network:
    """conftest's k x k grid with corner terminals, linear laws of weights U(0.5, 2), seed 1."""
    shape = grid_network(k, "y")
    boundary = [shape.graph.node_ids[i] for i in shape.partition.boundary]
    weights = np.random.default_rng(1).uniform(0.5, 2.0, shape.graph.m)
    return kr.build_network(shape.graph, [kr.edge_law(f"{float(w)!r}*y") for w in weights], boundary)


@pytest.mark.parametrize("name, bound", [
    ("linear_series", 1e-8), ("linear_star", 1e-8), ("triangle_center", 1e-8),
    ("grid3", 5e-7), ("grid4", 5e-7), ("grid5", 5e-7),
])
def test_min_heat_search_accuracy(name, bound):
    # one derivative-free search for every number of central nodes (1 to 21 here)
    if name.startswith("grid"):
        net = _weighted_grid(int(name[4:]))
    else:
        net = load_network(NETWORKS_DIR / f"{name}.json").network
    rng = np.random.default_rng(0)
    for _ in range(10):
        z_b = rng.uniform(-2.0, 2.0, len(net.partition.boundary))
        assert kr.min_heat_check(net, z_b, k=2.0).max_abs_difference <= bound


def test_min_heat_refuses_diode(diode_opposite):
    with pytest.raises(HomogeneityError) as info:
        kr.min_heat_check(diode_opposite, np.array([1.0, 0.0]), k=2.0)
    assert info.value.t in (0.5, 2.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_min_heat_rejects_non_finite_degree(linear_series, k):
    # every comparison with NaN is false, so the homogeneity test cannot refuse it
    with pytest.raises(ValueError, match="finite"):
        kr.min_heat_check(linear_series, np.array([1.0, 0.0]), k=k)


def test_min_heat_single_boundary_node():
    # 3-node quadratic chain with one boundary node; grid-search oracle
    g = kr.DirectedGraph(("b", "c1", "c2"), (("b", "c1"), ("c1", "c2")))
    net = kr.build_network(g, [kr.edge_law("y"), kr.edge_law("2*y")], ("b",))
    report = kr.min_heat_check(net, np.array([0.8]), k=2.0)
    grid = np.linspace(0.5, 1.1, 241)
    best = None
    for a in grid:
        for b in grid:
            p = kr.dissipated_power(net, np.array([0.8, a, b]))
            if best is None or p < best[0]:
                best = (p, a, b)
    np.testing.assert_allclose(report.z_c_constraint, [best[1], best[2]], atol=5e-3)
    assert report.max_abs_difference <= 1e-6


@pytest.mark.parametrize("init", [[], [0.1, 0.2]], ids=["too_short", "too_long"])
def test_init_length_is_checked(diode_opposite, init):
    with pytest.raises(ValueError, match=f"expected 1 central values, got {len(init)}"):
        kr.solve_interior(diode_opposite, np.array([0.0, 1.0]), init=init)


def test_non_finite_interior_hessian_is_solve_error():
    # g' of y + 0.5*sqrt(y^2) is 0/0 at y = 0, a point the certification grid
    # on (-8, 8.5) misses; the start z_0 = mean(z_B) = 0 lands on it
    g = kr.DirectedGraph(("0", "1", "2", "3"), (("1", "0"), ("2", "0"), ("3", "0")))
    laws = [kr.edge_law("y + 0.5*sqrt(y^2)", interval=(-8.0, 8.5)),
            kr.edge_law("exp(y) - 1"), kr.edge_law("y")]
    net = kr.build_network(g, laws, ("1", "2", "3"))
    with pytest.raises(SolveError, match="not finite") as info:
        kr.solve_interior(net, [0.0, -1.0, 1.0])
    assert info.value.edge.startswith("0 (1->0)")
    assert not info.value.result.converged
    assert info.value.result.iterations == 0
    # at z_B = 0 the start already solves the interior, so no factorization
    # runs; the reduced Hessian and the sensitivity meet the 0/0 weight
    for derived in (kr.reduced_hessian, kr.sensitivity):
        with pytest.raises(SolveError, match="not finite") as info:
            derived(net, [0.0, 0.0, 0.0])
        assert info.value.edge.startswith("0 (1->0)")


def test_non_finite_last_diagonal_fails_the_factorization():
    # lower band storage puts the diagonal in row 0; the last row ends in
    # padding, and pbtrf returns info 0 with a NaN on the last diagonal
    ab = np.zeros((2, 4), order="F")
    ab[0], ab[1, :3] = 4.0, -1.0
    ab[0, -1] = np.nan
    assert dpbtrf(ab.copy(order="F"), lower=1)[1] == 0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        cho_factor(ab)


def test_non_finite_weight_on_a_banded_interior_is_solve_error():
    # central chain c0 - c1 (kd = 1); the 0/0 slope of y + 0.5*sqrt(y^2) at
    # the start z_C = mean(z_B) = 0 sits on edge z -> c1, so it reaches only
    # the last diagonal entry of H_CC
    g = kr.DirectedGraph(("a", "c0", "c1", "b", "z"),
                         (("a", "c0"), ("c0", "c1"), ("c1", "b"), ("z", "c1")))
    laws = [kr.edge_law("y")] * 3 + [kr.edge_law("y + 0.5*sqrt(y^2)", interval=(-8.0, 8.5))]
    net = kr.build_network(g, laws, ("a", "b", "z"))
    assert net._edge_list.kd == 1
    with pytest.raises(SolveError, match="not finite") as info:
        kr.solve_interior(net, [-1.0, 1.0, 0.0])
    assert info.value.edge.startswith("3 (z->c1)")
    assert info.value.result.iterations == 0
    for derived in (kr.reduced_hessian, kr.sensitivity):
        with pytest.raises(SolveError, match="not finite") as info:
            derived(net, [0.0, 0.0, 0.0])
        assert info.value.edge.startswith("3 (z->c1)")


def test_indefinite_interior_hessian_is_solve_error():
    # certified (margin 0.033 on the scan grid), yet g'(+-0.00097) = -0.187;
    # at z_B = (0.00097, -0.00097) the start solves the interior, and H_CC
    # = -0.374 is not positive definite: its Schur complement is no Laplacian
    law = kr.edge_law("y - 0.0011*tanh(1000*(y - 0.00097)) - 0.0011*tanh(1000*(y + 0.00097))")
    assert law.convexity_margin > 0.0
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    net = kr.build_network(g, [law, law], ("1", "2"))
    z_b = [0.00097, -0.00097]
    assert kr.solve_interior(net, z_b).iterations == 0
    for derived in (kr.reduced_hessian, kr.sensitivity):
        with pytest.raises(SolveError, match="factorization failed"):
            derived(net, z_b)
