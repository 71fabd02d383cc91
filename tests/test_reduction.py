"""Reduction engine: Schur complements, support inference, law recovery."""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kronred as kr
from kronred import reduction, solver
from kronred.cli import main
from kronred.errors import AssumptionError, NonQuadraticLawError
from kronred.graph import build_incidence
from kronred.netfile import load_network
from kronred.reduction import SamplingPlan, _pool_edge_samples, monotone_cubic
from kronred.solver import _schur, solve_interior

from conftest import (
    NETWORKS_DIR,
    SHIPPED_ACYCLIC,
    diode_opposite_net,
    diode_ring_net,
    diode_same_net,
    finite_difference_jacobian,
    grid_network,
    linear_series_net,
    load_perfbench,
    linear_star_net,
    random_connected_graph,
    random_network,
    triangle_center_net,
)

PLAN = SamplingPlan(count=400, seed=3)

# the benchmark's op lists and solve-count pin; its workloads module imports
# its sibling as ``tracer``
with mock.patch.dict(sys.modules, {"tracer": load_perfbench("tracer")}):
    workloads = load_perfbench("workloads")


def test_reduced_hessian_diode_at_origin(diode_opposite):
    h = kr.reduced_hessian(diode_opposite, np.zeros(2))
    np.testing.assert_allclose(h, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_reduced_hessian_linear_series_everywhere(linear_series):
    rng = np.random.default_rng(0)
    for _ in range(5):
        z_b = rng.uniform(-2, 2, 2)
        h = kr.reduced_hessian(linear_series, z_b)
        np.testing.assert_allclose(h, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_reduced_hessian_no_central_nodes():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    net = kr.build_network(g, [kr.edge_law("2*y")], ("a", "b"))
    h = kr.reduced_hessian(net, np.array([0.3, 0.0]))
    np.testing.assert_allclose(h, kr.weighted_laplacian(net, np.array([0.3, 0.0])))


def test_reduced_hessian_matches_current_jacobian(diode_opposite):
    rng = np.random.default_rng(1)
    for _ in range(5):
        z_b = rng.uniform(-1.5, 1.5, 2)
        h = kr.reduced_hessian(diode_opposite, z_b)
        fd = finite_difference_jacobian(
            lambda v: kr.solve_interior(diode_opposite, v).j_b, z_b, h=1e-4)
        assert np.abs(h - fd).max() <= 1e-5 * (1.0 + np.abs(h).max())


def test_infer_support_path(diode_opposite):
    graph, cert = kr.infer_reduced_graph(diode_opposite, SamplingPlan(count=8))
    assert graph.edges == (("1", "2"),)
    assert cert.support_stable and cert.acyclic


def test_infer_support_star_triangle(linear_star):
    graph, cert = kr.infer_reduced_graph(linear_star, SamplingPlan(count=8))
    assert graph.edges == (("1", "2"), ("1", "3"), ("2", "3"))
    assert cert.support_stable and not cert.acyclic


def test_infer_support_interior_paths_only():
    # b1 - c - b2 - b3: b1 and b3 connect only through boundary node b2,
    # so no reduced edge appears between them
    g = kr.DirectedGraph(("b1", "c", "b2", "b3"),
                         (("b1", "c"), ("c", "b2"), ("b2", "b3")))
    laws = [kr.edge_law("y + tanh(y)") for _ in range(3)]
    net = kr.build_network(g, laws, ("b1", "b2", "b3"))
    graph, cert = kr.infer_reduced_graph(net, SamplingPlan(count=8))
    assert set(graph.edges) == {("b1", "b2"), ("b2", "b3")}
    assert cert.support_stable


def test_support_matches_interior_path_oracle():
    # reduced edges exactly where boundary nodes share an interior component
    rng = np.random.default_rng(5)
    for _ in range(5):
        graph = random_connected_graph(rng, n_min=3, n_max=6, allow_parallel=False)
        laws = [kr.edge_law("y + 0.25*y^3") for _ in range(graph.m)]
        n_b = int(rng.integers(2, graph.n))
        boundary = sorted(rng.choice(graph.n, size=n_b, replace=False))
        names = [graph.node_ids[i] for i in boundary]
        net = kr.build_network(graph, laws, names)
        inferred, _ = kr.infer_reduced_graph(net, SamplingPlan(count=4))
        central = set(graph.node_ids) - set(names)
        # oracle: union-find over central nodes, then adjacency of boundary
        comp = {c: c for c in central}

        def find(x):
            while comp[x] != x:
                comp[x] = comp[comp[x]]
                x = comp[x]
            return x

        for t, h in graph.edges:
            if t in central and h in central:
                comp[find(t)] = find(h)
        expected = set()
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                direct = any({t, h} == {a, b} for t, h in graph.edges)
                comps_a = {find(c) for t, h in graph.edges
                           for c in (t, h) if c in central and a in (t, h)}
                comps_b = {find(c) for t, h in graph.edges
                           for c in (t, h) if c in central and b in (t, h)}
                if direct or (comps_a & comps_b):
                    expected.add((a, b))
        got = {tuple(sorted(e)) for e in inferred.edges}
        assert got == {tuple(sorted(e)) for e in expected}


def test_acyclic_recovery_diode_opposite_tanh(diode_opposite):
    rn = kr.recover_edge_laws_acyclic(
        diode_opposite, kr.infer_reduced_graph(diode_opposite, SamplingPlan(count=8))[0], PLAN)
    assert rn.graph.edges == (("1", "2"),)
    table = rn.edge_tables[0]
    assert np.abs(table.current - np.tanh(table.y / 2.0)).max() <= 1e-8
    assert (np.diff(table.y) > 0).all() and (np.diff(table.current) > 0).all()


def test_acyclic_recovery_diode_same_exponential(diode_same):
    graph, _ = kr.infer_reduced_graph(diode_same, SamplingPlan(count=8))
    rn = kr.recover_edge_laws_acyclic(diode_same, graph, PLAN)
    table = rn.edge_tables[0]
    # reduced edge oriented 1 -> 2, so the table value is z2 - z1
    assert np.abs(table.current - (np.exp(table.y / 2.0) - 1.0)).max() <= 1e-8


def test_acyclic_recovery_linear_series(linear_series):
    graph, _ = kr.infer_reduced_graph(linear_series, SamplingPlan(count=8))
    rn = kr.recover_edge_laws_acyclic(linear_series, graph, PLAN)
    table = rn.edge_tables[0]
    np.testing.assert_allclose(table.current, 0.5 * table.y, atol=1e-10)


def test_acyclic_recovery_cocontent_anchored(diode_opposite):
    graph, _ = kr.infer_reduced_graph(diode_opposite, SamplingPlan(count=8))
    rn = kr.recover_edge_laws_acyclic(diode_opposite, graph, PLAN)
    law = rn.edge_tables[0].law()
    assert law.cocontent(0.0) == pytest.approx(0.0, abs=1e-14)
    # analytic reduced co-content for the tanh law
    for v in (-2.0, 1.0, 3.0):
        want = 2.0 * math.log((math.exp(-v / 2) + math.exp(v / 2)) / 2.0)
        assert law.cocontent(v) == pytest.approx(want, abs=1e-7)


def test_cyclic_recovery_quadratic_triangle(triangle_center):
    rn = kr.reduce_network(triangle_center, SamplingPlan(count=64, seed=1))
    # all-quadratic input takes the exact path; force the sampled one too
    graph, cert = kr.infer_reduced_graph(triangle_center, SamplingPlan(count=16, seed=1))
    fitted = kr.recover_edge_laws_cyclic(triangle_center, graph,
                                         SamplingPlan(count=64, seed=1), cert)
    assert fitted.certificate.consistency_residual <= 1e-8
    assert fitted.certificate.accepted
    exact = {tuple(sorted(e)): t for e, t in zip(rn.graph.edges, rn.edge_tables)}
    for edge, table in zip(fitted.graph.edges, fitted.edge_tables):
        want = exact[tuple(sorted(edge))]
        w = want.current[-1] / want.y[-1]
        slope = np.polyfit(table.y, table.current, 1)[0]
        assert slope == pytest.approx(w, abs=1e-7)
        # no circulating current: the laws vanish at 0 like the input laws
        assert abs(table.law().g_at(0.0)) <= 1e-12


def test_cyclic_path_on_acyclic_support_matches_exact(diode_opposite):
    graph, cert = kr.infer_reduced_graph(diode_opposite, SamplingPlan(count=8))
    a = kr.recover_edge_laws_acyclic(diode_opposite, graph, PLAN)
    c = kr.recover_edge_laws_cyclic(diode_opposite, graph, PLAN)
    for ta, tc in zip(a.edge_tables, c.edge_tables):
        np.testing.assert_allclose(ta.y, tc.y, atol=1e-12)
        np.testing.assert_allclose(ta.current, tc.current, atol=1e-8)


def test_integrability_zero_for_acyclic(diode_opposite):
    graph, _ = kr.infer_reduced_graph(diode_opposite, SamplingPlan(count=8))
    rn = kr.recover_edge_laws_acyclic(diode_opposite, graph, PLAN)
    value = kr.integrability_diagnostic(diode_opposite, graph, PLAN, rn)
    assert value == 0.0


def test_integrability_small_for_quadratic_cycle(triangle_center):
    plan = SamplingPlan(count=64, seed=1)
    graph, cert = kr.infer_reduced_graph(triangle_center, SamplingPlan(count=8, seed=1))
    rn = kr.recover_edge_laws_cyclic(triangle_center, graph, plan, cert)
    value = kr.integrability_diagnostic(triangle_center, graph, plan, rn)
    assert value <= 1e-6


def test_integrability_reports_finite_value_for_nonlinear_cycle():
    net = diode_ring_net()
    plan = SamplingPlan(count=96, seed=2, scale=1.0)
    graph, cert = kr.infer_reduced_graph(net, SamplingPlan(count=8, seed=2, scale=1.0))
    rn = kr.recover_edge_laws_cyclic(net, graph, plan, cert)
    value = kr.integrability_diagnostic(net, graph, plan, rn)
    assert np.isfinite(value)


def test_effective_curve_diode_opposite(diode_opposite):
    pts = kr.effective_curve(diode_opposite, "1", "2", [0.0, 2.0])
    assert pts[0].current == pytest.approx(0.0, abs=1e-12)
    assert pts[0].cocontent == pytest.approx(0.0, abs=1e-12)
    assert pts[1].current == pytest.approx(math.tanh(1.0), abs=1e-9)


def test_effective_curve_diode_same_reversed_pair(diode_same):
    pts = kr.effective_curve(diode_same, "2", "1", [2.0])
    assert pts[0].current == pytest.approx(math.e - 1.0, abs=1e-9)


def test_effective_curve_strictly_increasing(diode_opposite):
    grid = np.linspace(-3, 3, 21)
    pts = kr.effective_curve(diode_opposite, "1", "2", grid)
    currents = [p.current for p in pts]
    assert all(b > a for a, b in zip(currents, currents[1:]))


def test_effective_curve_odd_symmetry(diode_opposite):
    for v in (0.5, 1.5, 3.0):
        plus, minus = kr.effective_curve(diode_opposite, "1", "2", [v, -v])
        assert plus.current == pytest.approx(-minus.current, abs=1e-9)


def test_effective_curve_orientation_asymmetry(diode_same):
    plus, minus = kr.effective_curve(diode_same, "2", "1", [2.0, -2.0])
    assert abs(plus.current + minus.current) > 0.5  # e - 1 vs 1/e - 1


def test_effective_curve_ignores_boundary_partition(linear_star):
    # all other nodes become central for the curve regardless of partition
    pts = kr.effective_curve(linear_star, "1", "2", [1.0])
    # 1 -- 0 -- 2 with unit laws, leaf 3 dangling: conductance 0.5
    assert pts[0].current == pytest.approx(0.5, abs=1e-10)


def test_reduce_linear_series(linear_series):
    rn = kr.reduce_linear(linear_series)
    assert rn.graph.edges == (("1", "2"),)
    table = rn.edge_tables[0]
    np.testing.assert_allclose(table.current, 0.5 * table.y, atol=1e-12)
    assert rn.certificate.exact_linear


def test_reduce_linear_star(linear_star):
    rn = kr.reduce_linear(linear_star)
    assert rn.graph.edges == (("1", "2"), ("1", "3"), ("2", "3"))
    for table in rn.edge_tables:
        np.testing.assert_allclose(table.current, table.y / 3.0, atol=1e-12)


def test_reduce_linear_no_central_nodes():
    g = kr.DirectedGraph(("a", "b"), (("a", "b"),))
    net = kr.build_network(g, [kr.edge_law("2*y")], ("a", "b"))
    rn = kr.reduce_linear(net)
    assert rn.graph.edges == (("a", "b"),)
    np.testing.assert_allclose(rn.edge_tables[0].current, 2.0 * rn.edge_tables[0].y)


def test_reduce_linear_no_central_nodes_merges_parallel_edges():
    # boundary order (2, 1): the reduced edge runs from the lower boundary index
    g = kr.DirectedGraph(("1", "2"), (("2", "1"), ("1", "2")))
    net = kr.build_network(g, [kr.edge_law("2*y"), kr.edge_law("y")], ("2", "1"))
    rn = kr.reduce_linear(net)
    assert rn.graph.edges == (("2", "1"),)
    assert rn.certificate.acyclic is True
    table = rn.edge_tables[0]
    np.testing.assert_allclose(table.current, 3.0 * table.y, atol=1e-12)
    sampled, _ = kr.infer_reduced_graph(net, SamplingPlan(count=4))
    assert rn.graph == sampled


def test_reduce_linear_rejects_nonquadratic(diode_opposite):
    with pytest.raises(NonQuadraticLawError):
        kr.reduce_linear(diode_opposite)
    # the error names the first non-linear edge, whichever law it carries
    g = kr.DirectedGraph(
        ("0", "1", "2", "3"),
        (("1", "2"), ("2", "3"), ("1", "3"), ("0", "1"), ("0", "2"), ("0", "3")),
    )
    texts = ("y", "2*y", "exp(y) - 1", "y", "sinh(y)", "exp(y) - 1")
    net = kr.build_network(g, [kr.edge_law(t) for t in texts], ("1", "2", "3"))
    with pytest.raises(NonQuadraticLawError) as info:
        kr.reduce_linear(net)
    assert info.value.edge == "2 (1->3)"


@pytest.mark.parametrize("text, exact", [
    *((text, True) for text in ("y", "2*y", "y*2", "y/3", "3*y - y", "0.5*(y+y)", "-(-y)",
                                "2*(y+1)-2", "y+0*sinh(y)")),
    ("1e-13*(y + tanh(y))", False),
    ("y + 1e-16*y^3", False),
])
def test_linearity_is_read_off_the_law_tree(text, exact):
    # each line's g'' folds to Num(0.0); a curve keeps a term, however small
    # its values, and takes the sampled path
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("0", "2")))
    net = kr.build_network(g, [kr.edge_law(text)] * 2, ("1", "2"))
    reduced = kr.reduce_network(net, SamplingPlan(count=16, seed=0))
    assert reduced.certificate.exact_linear is exact
    assert reduced.graph.edges == (("1", "2"),) and reduced.certificate.accepted


def _reduced_laplacian(graph, w, boundary_ids):
    net = kr.build_network(graph, [kr.edge_law("y")] * graph.m, boundary_ids)
    return _schur(net, w)[0]


def test_one_by_one_elimination_matches_block():
    rng = np.random.default_rng(7)
    for _ in range(20):
        graph = random_connected_graph(rng, n_min=3, n_max=8)
        w = rng.uniform(0.2, 3.0, graph.m)
        n_b = int(rng.integers(1, graph.n))
        keep = [graph.node_ids[i] for i in sorted(rng.choice(graph.n, size=n_b, replace=False))]
        block = _reduced_laplacian(graph, w, keep)
        # eliminate central nodes one at a time, re-reading each reduced
        # Laplacian as a weighted graph on the nodes left
        current_graph, current_w = graph, w
        for node in [v for v in graph.node_ids if v not in keep]:
            remaining = tuple(v for v in current_graph.node_ids if v != node)
            lap = _reduced_laplacian(current_graph, current_w, remaining)
            current_graph, current_w = kr.graph_from_laplacian(lap, remaining)
        assert current_graph.node_ids == tuple(keep)
        d = build_incidence(current_graph)
        lap = (d * current_w) @ d.T
        assert np.abs(lap - block).max() <= 1e-10 * (1.0 + np.abs(block).max())


@given(st.integers(0, 2**32 - 1))
def test_reduced_hessian_is_dense_schur_complement(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    z_b = rng.uniform(-1.5, 1.5, len(net.partition.boundary))
    h = kr.reduced_hessian(net, z_b)
    boundary, central = list(net.partition.boundary), list(net.partition.central)
    lap = kr.weighted_laplacian(net, kr.solve_interior(net, z_b).z_full)
    h_bb = lap[np.ix_(boundary, boundary)]
    h_bc = lap[np.ix_(boundary, central)]
    h_cc = lap[np.ix_(central, central)]
    scale = np.abs(lap).max()  # h can vanish (one boundary node); lap cannot
    via_sensitivity = h_bb + h_bc @ kr.sensitivity(net, z_b)
    assert np.abs(h - via_sensitivity).max() <= 1e-12 * scale
    dense = h_bb - h_bc @ np.linalg.inv(h_cc) @ h_bc.T if central else h_bb
    assert np.abs(h - dense).max() <= 1e-12 * scale


def test_reduced_hessian_on_large_grid_stays_small():
    # the central block is eliminated from its band (kd = 64 here), so no
    # n x n array is made; a dense 4096 x 4096 Laplacian alone is 134 MB
    net = grid_network(64, "y + 0.1*sinh(y)")
    tracemalloc.start()
    try:
        h = kr.reduced_hessian(net, np.array([0.5, -0.25, 0.75, -1.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    scale = np.abs(h).max()
    assert np.abs(h - h.T).max() <= 1e-12 * scale
    assert np.abs(h.sum(axis=1)).max() <= 1e-12 * scale
    assert (h[~np.eye(4, dtype=bool)] <= 0.0).all()


def test_weight_locality_under_gauge_shift(diode_opposite):
    rng = np.random.default_rng(9)
    for _ in range(10):
        z_b = rng.uniform(-1.5, 1.5, 2)
        c = rng.uniform(-2.0, 2.0)
        h0 = kr.reduced_hessian(diode_opposite, z_b)
        h1 = kr.reduced_hessian(diode_opposite, z_b + c)
        assert np.abs(h1 - h0).max() <= 1e-9


@pytest.mark.parametrize("name", sorted(SHIPPED_ACYCLIC))
def test_input_output_equivalence_shipped(name):
    net = SHIPPED_ACYCLIC[name]()
    rn = kr.reduce_network(net, PLAN)
    report = kr.holdout_residual(net, rn, PLAN)
    assert report.max_rel <= 1e-6, (name, report)


@pytest.mark.parametrize("name", sorted(SHIPPED_ACYCLIC))
def test_reduced_hessian_consistency_shipped(name):
    net = SHIPPED_ACYCLIC[name]()
    rn = kr.reduce_network(net, PLAN)
    dhat = build_incidence(rn.graph).astype(float)
    laws = rn.laws()
    for z_b in PLAN.holdout_samples(2):
        h = kr.reduced_hessian(net, z_b)
        yh = dhat.T @ z_b
        w = np.array([laws[j].gp_at(yh[j]) for j in range(rn.graph.m)])
        model = (dhat * w) @ dhat.T
        assert np.abs(model - h).max() <= 1e-4 * (1.0 + np.abs(h).max()), name


def test_reduction_is_deterministic(diode_opposite):
    plan = SamplingPlan(count=32, seed=5)
    a = kr.reduce_network(diode_opposite, plan)
    b = kr.reduce_network(diode_opposite, plan)
    np.testing.assert_array_equal(a.edge_tables[0].y, b.edge_tables[0].y)
    np.testing.assert_array_equal(a.edge_tables[0].current, b.edge_tables[0].current)


def test_cyclic_recovery_with_two_samples(triangle_center):
    plan = SamplingPlan(count=2, seed=1)
    graph, cert = kr.infer_reduced_graph(triangle_center, plan)
    rn = kr.recover_edge_laws_cyclic(triangle_center, graph, plan, cert)
    linear = kr.reduce_linear(triangle_center)
    exact = dict(zip(linear.graph.edges, linear.edge_tables))
    for edge, table in zip(rn.graph.edges, rn.edge_tables):
        w = exact[edge].current[-1] / exact[edge].y[-1]
        np.testing.assert_allclose(table.current, w * table.y, rtol=0, atol=1e-12)
    # one sample leaves each edge a single distinct value: no table
    with pytest.raises(AssumptionError, match="not enough distinct samples"):
        kr.recover_edge_laws_cyclic(triangle_center, graph, SamplingPlan(count=1, seed=1), cert)


SERIES_TRIANGLE_FORMS = {  # reduced edge -> closed-form law of y = z_head - z_tail
    ("1", "2"): lambda y: np.tanh(y / 2.0),  # two opposing diodes through node 0
    ("2", "3"): lambda y: y + np.tanh(y),
    ("1", "3"): np.sinh,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cyclic_recovery_series_triangle_closed_forms(seed):
    net = load_network(NETWORKS_DIR / "series_triangle.json").network
    rn = kr.reduce_network(net, SamplingPlan(count=256, seed=seed))
    assert set(rn.graph.edges) == set(SERIES_TRIANGLE_FORMS)
    assert rn.certificate.consistency_residual <= 5e-5
    for edge, table in zip(rn.graph.edges, rn.edge_tables):
        law = SERIES_TRIANGLE_FORMS[edge]
        assert np.abs(table.current - law(table.y)).max() <= 2e-4, edge


@pytest.mark.parametrize("count", [64, 128, 256])
def test_cyclic_recovery_ring_never_raises(count):
    net = diode_ring_net()
    for seed in range(4):
        rn = kr.reduce_network(net, SamplingPlan(count=count, seed=seed))
        assert rn.certificate.accepted is False, seed
        for table in rn.edge_tables:
            assert (np.diff(table.y) > 0).all() and (np.diff(table.current) > 0).all()


@pytest.fixture
def solve_calls(monkeypatch):
    """One entry per interior solve the reduction layer makes, as the benchmark counts them."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return solve_interior(*args, **kwargs)

    monkeypatch.setattr(reduction, "solve_interior", counting)
    return calls


@pytest.mark.parametrize("make, extra", [(diode_opposite_net, 50), (diode_ring_net, 74)])
def test_reduce_solve_count(solve_calls, make, extra):
    # S to infer the support, S to recover, 50 held out, and on a cycle 24
    # for the integrability diagnostic; the benchmark pins the same counts
    kr.reduce_network(make(), SamplingPlan(count=16, seed=0))
    name = make.__name__.removesuffix("_net")
    pinned = workloads.expected_solves({"kind": f"{name}@16", "net": name, "samples": 16})
    assert len(solve_calls) == 2 * 16 + extra == pinned


@pytest.mark.parametrize("workload, kind", [
    ("cli-verbs", "reduce-out"), ("cli-verbs", "reduce-ring"), ("grid-32", "reduced_hessian"),
])
def test_benchmark_op_solve_count(solve_calls, monkeypatch, tmp_path, workload, kind):
    # the benchmark's first op of the kind, run in-process from the repository root
    monkeypatch.chdir(NETWORKS_DIR.parent)
    op = next(op for op in workloads.make_ops(workload, 0, 1, str(tmp_path)) if op["kind"] == kind)
    if kind == "reduced_hessian":
        kr.reduced_hessian(load_network(tmp_path / "grid32.json").network, np.asarray(op["z_b"]))
    else:
        # the benchmark accepts a flagged reduction (exit 4) of the ring only
        assert main(op["argv"]) in ((0, 4) if kind == "reduce-ring" else (0,))
    assert len(solve_calls) == workloads.expected_solves(op)


@pytest.mark.parametrize("make", [diode_opposite_net, diode_ring_net])
def test_reduce_factors_once_per_elimination(monkeypatch, make):
    # every Newton iteration and every Schur complement factors H_CC once,
    # and nothing else does
    counts = {"factor": 0, "schur": 0, "iterations": 0}
    factor, schur, solve = solver.cho_factor, solver._schur, solver.solve_interior

    def counting_factor(*args):
        counts["factor"] += 1
        return factor(*args)

    def counting_schur(*args):
        counts["schur"] += 1
        return schur(*args)

    def counting_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        counts["iterations"] += result.iterations
        return result

    monkeypatch.setattr(solver, "cho_factor", counting_factor)
    for module in (solver, reduction):
        monkeypatch.setattr(module, "_schur", counting_schur)
        monkeypatch.setattr(module, "solve_interior", counting_solve)
    net = make()
    kr.reduce_network(net, SamplingPlan(count=16, seed=0))
    assert counts["schur"] > 0 and counts["iterations"] > 0
    assert counts["factor"] == counts["iterations"] + counts["schur"]
    # the Newton start's linearized sensitivity is formed once per Network
    first = dict(counts)
    kr.reduce_network(net, SamplingPlan(count=16, seed=0))
    second = {key: counts[key] - first[key] for key in counts}
    assert second["schur"] == first["schur"] - 1
    assert second["factor"] == second["iterations"] + second["schur"]


def test_pooling_rejects_inconsistent_pairs():
    ys = np.array([0.0, 1e-10, 1.0])
    cs = np.array([0.0, 1e-3, 2.0])
    with pytest.raises(AssumptionError):
        _pool_edge_samples(ys, cs, "edge test")


def test_pooling_rejects_nonmonotone_currents():
    ys = np.array([0.0, 0.5, 1.0])
    cs = np.array([0.0, 0.4, 0.3])
    with pytest.raises(AssumptionError):
        _pool_edge_samples(ys, cs, "edge test")


def test_acyclic_recovery_requires_forest(triangle_center):
    graph, _ = kr.infer_reduced_graph(triangle_center, SamplingPlan(count=4, seed=1))
    with pytest.raises(AssumptionError):
        kr.recover_edge_laws_acyclic(triangle_center, graph, SamplingPlan(count=8, seed=1))


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=30, unique=True),
       st.integers(0, 2**31))
def test_monotone_cubic_is_monotone(xs, seed):
    x = np.sort(np.asarray(xs))
    if np.diff(x).min() < 1e-9:
        return
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.uniform(1e-6, 2.0, len(x)))
    f = monotone_cubic(x, y)
    grid = np.linspace(x[0], x[-1], 801)
    vals = f(grid)
    assert (np.diff(vals) >= -1e-12 * (1.0 + np.abs(vals).max())).all()


def test_reduced_network_view_evaluates(diode_opposite):
    rn = kr.reduce_network(diode_opposite, PLAN)
    net = rn.as_network()
    z_b = np.array([0.8, -0.3])
    j_direct = kr.nodal_currents(net, z_b)
    j_orig = kr.solve_interior(diode_opposite, z_b).j_b
    assert np.abs(j_direct - j_orig).max() <= 1e-7


def grid_network(k, law):
    """k x k grid, edges right then down from each node, corners as terminals."""
    names = tuple(str(i) for i in range(k * k))
    edges = []
    for r in range(k):
        for c in range(k):
            i = r * k + c
            if c + 1 < k:
                edges.append((names[i], names[i + 1]))
            if r + 1 < k:
                edges.append((names[i], names[i + k]))
    corners = [names[i] for i in (0, k - 1, k * (k - 1), k * k - 1)]
    laws = [kr.edge_law(law)] * len(edges)
    return kr.build_network(kr.DirectedGraph(names, tuple(edges)), laws, corners)


def test_grid_reduced_hessian_matches_finite_differences():
    net = grid_network(10, "y + 0.1*sinh(y)")
    z_b = np.array([0.7, -0.4, 0.2, -0.9])
    h = kr.reduced_hessian(net, z_b)
    scale = np.abs(h).max()
    assert np.abs(h - h.T).max() <= 1e-12 * scale
    assert np.abs(h.sum(axis=1)).max() <= 1e-12 * scale
    assert (h - np.diag(np.diag(h))).max() <= 0.0
    fd = finite_difference_jacobian(lambda v: kr.solve_interior(net, v).j_b, z_b, h=1e-4)
    assert np.abs(fd - h).max() <= 1e-7
