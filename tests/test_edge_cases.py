"""Cross-cutting edge cases: determinism, failure propagation, file options."""

import json

import numpy as np
import pytest

import kronred as kr
from kronred.cli import main
from kronred.errors import SolveError
from kronred.netfile import load_network
from kronred.reduction import SamplingPlan


def test_two_boundary_nodes_joined_through_central_path():
    g = kr.DirectedGraph(("b1", "c1", "c2", "b2"),
                         (("b1", "c1"), ("c1", "c2"), ("c2", "b2")))
    laws = [kr.edge_law("exp(y) - 1") for _ in range(3)]
    net = kr.build_network(g, laws, ("b1", "b2"))
    graph, cert = kr.infer_reduced_graph(net, SamplingPlan(count=8))
    assert graph.edges == (("b1", "b2"),)
    assert cert.support_stable and cert.acyclic


def test_sampling_propagates_solve_failure():
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    laws = [kr.edge_law("exp(y) - 1", interval=(-2.5, 2.5)) for _ in range(2)]
    net = kr.build_network(g, laws, ("1", "2"))
    # gauge-fixed samples reach boundary gaps near 4, outside the box
    with pytest.raises(SolveError):
        kr.infer_reduced_graph(net, SamplingPlan(count=64, scale=2.0))


def test_same_plan_gives_equal_results(diode_opposite):
    plan = SamplingPlan(count=48, seed=9)
    first = kr.reduce_network(diode_opposite, plan)
    second = kr.reduce_network(diode_opposite, plan)
    assert first.graph == second.graph
    assert first.certificate == second.certificate
    for a, b in zip(first.edge_tables, second.edge_tables, strict=True):
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.current, b.current)
        np.testing.assert_array_equal(a.cocontent, b.cocontent)


def test_curve_failures_marked_and_exit_3(tmp_path, capsys):
    doc = {
        "nodes": ["0", "1", "2"],
        "boundary": ["1", "2"],
        "edges": [
            {"from": "1", "to": "0", "law": "exp(y) - 1", "interval": [-2.0, 2.0]},
            {"from": "2", "to": "0", "law": "exp(y) - 1", "interval": [-2.0, 2.0]},
        ],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["curve", str(path), "--pair", "1,2", "--vmin", "-6", "--vmax", "6",
                 "--points", "7"])
    captured = capsys.readouterr()
    assert code == 3
    assert "failed" in captured.out
    assert "solves failed" in captured.err
    # the feasible center rows are still produced
    middle = [line for line in captured.out.splitlines()[1:] if "failed" not in line]
    assert middle


def test_network_file_cocontent_kind_and_interval(tmp_path):
    doc = {
        "nodes": ["a", "b"],
        "boundary": ["a", "b"],
        "edges": [
            {"from": "a", "to": "b", "law": "exp(y) - y", "kind": "cocontent",
             "interval": [-4.0, 4.0]},
        ],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    net = load_network(path).network
    law = net.laws[0]
    assert law.kind == "cocontent"
    assert law.validity_interval == (-4.0, 4.0)
    assert float(law.g_at(0.0)) == pytest.approx(0.0)
    assert float(law.gp_at(0.0)) == pytest.approx(1.0)


def test_single_boundary_node_reduction():
    g = kr.DirectedGraph(("b", "c"), (("b", "c"),))
    net = kr.build_network(g, [kr.edge_law("y + tanh(y)")], ("b",))
    graph, cert = kr.infer_reduced_graph(net, SamplingPlan(count=4))
    assert graph.n == 1 and graph.m == 0
    assert cert.acyclic


def test_parallel_edges_accepted_in_input():
    g = kr.DirectedGraph(("0", "1", "2"),
                         (("1", "0"), ("1", "0"), ("0", "2")))
    laws = [kr.edge_law("y"), kr.edge_law("y"), kr.edge_law("y")]
    net = kr.build_network(g, laws, ("1", "2"))
    rn = kr.reduce_linear(net)
    # two parallel unit edges in series with one unit edge: 2*1/(2+1)
    table = rn.edge_tables[0]
    np.testing.assert_allclose(table.current, table.y * (2.0 / 3.0), atol=1e-12)
