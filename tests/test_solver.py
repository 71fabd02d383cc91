"""Interior solves: Newton convergence, sensitivity, boundary potential."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import kronred as kr
from kronred.errors import HomogeneityError, SolveError

from conftest import (
    SHIPPED_ACYCLIC,
    diode_opposite_net,
    diode_same_net,
    finite_difference_jacobian,
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
