"""Acceptance suite: one test per shipped guarantee, at fixed tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them all).
"""

import math
import time

import numpy as np

import kronred as kr
from kronred.errors import HomogeneityError
from kronred.reduction import SamplingPlan

from conftest import (
    diode_opposite_net,
    diode_same_net,
    finite_difference_jacobian,
    linear_series_net,
    random_network,
    triangle_center_net,
)


def report(num: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


def test_criterion_01_effective_curve_opposite_orientation():
    net = diode_opposite_net()
    grid = np.linspace(-3.0, 3.0, 41)
    start = time.perf_counter()
    points = kr.effective_curve(net, "1", "2", grid)
    elapsed = time.perf_counter() - start
    err = max(abs(p.current - math.tanh(p.v / 2.0)) for p in points)
    ok = err <= 1e-8 and elapsed < 1.0
    report(1, "two-terminal curve, opposing diodes", ok,
           f"max |I - tanh(V/2)| = {err:.3e}, runtime {elapsed:.3f}s")


def test_criterion_02_effective_curve_same_orientation():
    net = diode_same_net()
    grid = np.linspace(-3.0, 3.0, 41)
    points = kr.effective_curve(net, "2", "1", grid)
    err = max(abs(p.current - (math.exp(p.v / 2.0) - 1.0)) for p in points)
    report(2, "two-terminal curve, aligned diodes", err <= 1e-8,
           f"max |I - (e^(V/2) - 1)| = {err:.3e}")


def test_criterion_03_interior_closed_form():
    net = diode_opposite_net()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        z1, z2 = rng.uniform(-2.0, 2.0, 2)
        got = kr.solve_interior(net, np.array([z1, z2])).z_c[0]
        want = -math.log(math.exp(-z1) + math.exp(-z2)) + math.log(2.0)
        worst = max(worst, abs(got - want))
    report(3, "interior solve matches closed form", worst <= 1e-9,
           f"max error over 100 points = {worst:.3e}")


def test_criterion_04_reduced_potential_closed_form():
    net = diode_opposite_net()
    rng = np.random.default_rng(43)
    offsets = []
    worst = 0.0
    for _ in range(100):
        z1, z2 = rng.uniform(-2.0, 2.0, 2)
        got = kr.reduced_potential(net, np.array([z1, z2]))
        formula = (2.0 * math.log(math.exp(-z1) + math.exp(-z2))
                   + z1 + z2 + 2.0 - 2.0 * math.log(2.0))
        offsets.append(formula - got)
        worst = max(worst, abs(got - (formula - 2.0)))
    spread = max(offsets) - min(offsets)
    ok = worst <= 1e-9 and spread <= 1e-9 and abs(np.mean(offsets) - 2.0) <= 1e-9
    report(4, "boundary potential matches closed form minus anchor constant", ok,
           f"max error = {worst:.3e}, offset = {np.mean(offsets):.12f} (spread {spread:.1e})")


def test_criterion_05_linear_oracle_equivalence():
    rng = np.random.default_rng(44)
    start = time.perf_counter()
    worst_weight = 0.0
    worst_structure = 0.0
    from conftest import random_connected_graph

    checked = 0
    while checked < 50:
        graph = random_connected_graph(rng, n_min=3, n_max=12, extra_max=6,
                                       allow_parallel=False)
        n_b = int(rng.integers(2, graph.n))
        boundary = [graph.node_ids[i]
                    for i in sorted(rng.choice(graph.n, size=n_b, replace=False))]
        laws = [kr.edge_law(f"{rng.uniform(0.2, 3.0):.6f}*y") for _ in range(graph.m)]
        net = kr.build_network(graph, laws, boundary)
        exact = kr.reduce_linear(net)
        sampled_graph, cert = kr.infer_reduced_graph(net, SamplingPlan(count=4, seed=checked))
        if set(sampled_graph.edges) != set(exact.graph.edges) or not cert.support_stable:
            report(5, "linear oracle equivalence", False,
                   f"support mismatch on instance {checked}")
        exact_w = {tuple(sorted(e)): t.current[-1] / t.y[-1]
                   for e, t in zip(exact.graph.edges, exact.edge_tables)}
        for z_b in SamplingPlan(count=3, seed=1000 + checked).boundary_samples(n_b):
            h = kr.reduced_hessian(net, z_b)
            scale = 1.0 + np.abs(h).max()
            worst_structure = max(
                worst_structure,
                np.abs(h - h.T).max() / scale,
                np.abs(h.sum(axis=1)).max() / scale,
                max(0.0, (h - np.diag(np.diag(h))).max()) / scale,
                max(0.0, -np.linalg.eigvalsh(h).min()) / scale,
            )
            for (i, k) in cert.supports[0]:
                a, b = sampled_graph.node_ids[i], sampled_graph.node_ids[k]
                worst_weight = max(worst_weight,
                                   abs(-h[i, k] - exact_w[tuple(sorted((a, b)))]))
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst_weight <= 1e-7 and worst_structure <= 1e-9 and elapsed < 30.0
    report(5, "linear oracle equivalence on 50 random graphs", ok,
           f"max weight gap = {worst_weight:.3e}, structure residual = "
           f"{worst_structure:.3e}, runtime {elapsed:.1f}s")


def test_criterion_06_gradient_hessian_numerics():
    rng = np.random.default_rng(45)
    worst_grad = 0.0
    worst_hess = 0.0
    for _ in range(100):
        net = random_network(rng)
        z = rng.uniform(-2.0, 2.0, net.graph.n)
        grad = kr.nodal_currents(net, z)
        h = 1e-4
        fd_grad = np.array([
            (kr.k_value(net, z + h * e) - kr.k_value(net, z - h * e)) / (2 * h)
            for e in np.eye(net.graph.n)
        ])
        worst_grad = max(worst_grad,
                         np.abs(grad - fd_grad).max() / (1.0 + np.abs(grad).max()))
        hess = kr.weighted_laplacian(net, z)
        fd_hess = finite_difference_jacobian(lambda v: kr.nodal_currents(net, v), z)
        worst_hess = max(worst_hess,
                         np.abs(hess - fd_hess).max() / (1.0 + np.abs(hess).max()))
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-5
    report(6, "gradient and Hessian match finite differences", ok,
           f"gradient rel err = {worst_grad:.3e}, Hessian rel err = {worst_hess:.3e}")


def test_criterion_07_shift_invariance_and_envelope():
    rng = np.random.default_rng(46)
    worst_shift = 0.0
    worst_env = 0.0
    for make in (diode_opposite_net, diode_same_net, linear_series_net):
        net = make()
        for _ in range(20):
            z_b = rng.uniform(-1.5, 1.5, 2)
            c = rng.uniform(-2.0, 2.0)
            k0 = kr.reduced_potential(net, z_b)
            k1 = kr.reduced_potential(net, z_b + c)
            worst_shift = max(worst_shift, abs(k1 - k0) / (1.0 + abs(k0)))
            j_b = kr.solve_interior(net, z_b).j_b
            fd = finite_difference_jacobian(
                lambda v: np.array([kr.reduced_potential(net, v)]), z_b, h=1e-4)[0]
            worst_env = max(worst_env,
                            np.abs(fd - j_b).max() / (1.0 + np.abs(j_b).max()))
    ok = worst_shift <= 1e-9 and worst_env <= 1e-5
    report(7, "boundary-potential shift invariance and envelope identity", ok,
           f"shift residual = {worst_shift:.3e}, envelope rel err = {worst_env:.3e}")


def test_criterion_08_input_output_equivalence():
    plan = SamplingPlan(count=400, seed=3)
    worst = 0.0
    for make in (diode_opposite_net, diode_same_net, linear_series_net):
        net = make()
        rn = kr.reduce_network(net, plan)
        rel = kr.holdout_residual(net, rn, plan).max_rel
        worst = max(worst, rel)
    triangle = triangle_center_net()
    graph, cert = kr.infer_reduced_graph(triangle, SamplingPlan(count=16, seed=1))
    fitted = kr.recover_edge_laws_cyclic(triangle, graph, SamplingPlan(count=64, seed=1), cert)
    cyc = fitted.certificate.consistency_residual
    ok = worst <= 1e-6 and cyc <= 1e-8
    report(8, "held-out input-output equivalence of accepted reductions", ok,
           f"acyclic rel residual = {worst:.3e}, cyclic triangle residual = {cyc:.3e}")


def test_criterion_09_minimum_heat():
    series = linear_series_net()
    rep = kr.min_heat_check(series, np.array([1.0, 0.0]), k=2.0)
    refused = False
    try:
        kr.min_heat_check(diode_opposite_net(), np.array([1.0, 0.0]), k=2.0)
    except HomogeneityError:
        refused = True
    ok = rep.max_abs_difference <= 1e-8 and refused
    report(9, "minimum-heat equivalence for quadratic nets, refusal otherwise", ok,
           f"minimizer gap = {rep.max_abs_difference:.3e}, diode refused = {refused}")


def test_criterion_10_sensitivity():
    rng = np.random.default_rng(47)
    worst_fd = 0.0
    worst_rows = 0.0
    nets = [diode_opposite_net(), diode_same_net(), linear_series_net()]
    for _ in range(15):
        nets.append(random_network(rng, n_min=3, n_max=6, boundary_min=2))
    for net in nets:
        if not net.partition.central:
            continue
        z_b = rng.uniform(-1.2, 1.2, len(net.partition.boundary))
        s = kr.sensitivity(net, z_b)
        fd = finite_difference_jacobian(
            lambda v: kr.solve_interior(net, v).z_c, z_b, h=1e-4)
        worst_fd = max(worst_fd, np.abs(s - fd).max() / (1.0 + np.abs(s).max()))
        worst_rows = max(worst_rows, np.abs(s.sum(axis=1) - 1.0).max())
    ok = worst_fd <= 1e-5 and worst_rows <= 1e-9
    report(10, "sensitivity matrix vs finite differences, rows sum to one", ok,
           f"fd rel err = {worst_fd:.3e}, row-sum residual = {worst_rows:.3e}")
