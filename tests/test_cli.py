"""File format and command-line behavior, including exit codes."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kronred as kr
import kronred.cli
import kronred.graph
import kronred.netfile
from kronred.cli import main
from kronred.errors import NetworkFileError
from kronred.exprlaw import EdgeLaw, differentiate, parse_law
from kronred.netfile import dump_reduced, load_network, parse_document
from kronred.potential import _inside_intervals
from kronred.reduction import SamplingPlan

from conftest import NETWORKS_DIR, diode_opposite_net, random_network


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


DIODE = {
    "nodes": ["0", "1", "2"],
    "boundary": ["1", "2"],
    "edges": [
        {"from": "1", "to": "0", "law": "exp(y) - 1"},
        {"from": "2", "to": "0", "law": "exp(y) - 1"},
    ],
}


def test_load_shipped_files():
    for name in ("diode_opposite", "diode_same", "linear_series", "linear_star",
                  "triangle_center", "diode_ring", "series_triangle", "memristor_pair"):
        loaded = load_network(NETWORKS_DIR / f"{name}.json")
        assert loaded.network.graph.n >= 2


def test_parse_document_reports_location():
    bad = dict(DIODE, edges=[{"from": "1", "to": "0", "law": "exp(q)"}])
    with pytest.raises(NetworkFileError) as info:
        parse_document(bad, location="test")
    assert "edges[0]" in str(info.value)


def test_parse_document_requires_boundary():
    with pytest.raises(NetworkFileError):
        parse_document(dict(DIODE, boundary=[]), location="test")


def test_parse_document_rejects_unknown_boundary():
    with pytest.raises(NetworkFileError):
        parse_document(dict(DIODE, boundary=["9"]), location="test")


def test_check_passes_on_diode(tmp_path, capsys):
    code = main(["check", write(tmp_path, "net.json", DIODE)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    # 2 laws, connectivity, then 5 trials of 3 items
    assert len(lines) == 18 and all(line.startswith("PASS") for line in lines)
    assert sum("min edge weight=" in line for line in lines) == 5


def test_check_passes_a_network_of_tiny_slopes(tmp_path, capsys):
    # every slope is 1e-15: still a connected graph's Laplacian, whatever its scale
    tiny = dict(DIODE, edges=[dict(edge, law="1e-15*y") for edge in DIODE["edges"]])
    assert main(["check", write(tmp_path, "net.json", tiny)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_reduced_flag_must_be_boolean(flag, tmp_path, capsys):
    path = write(tmp_path, "net.json", dict(DIODE, reduced=flag))
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "net.json.reduced" in err and "table" not in err


@pytest.mark.parametrize("interval", [[-math.inf, math.inf], [-math.inf, 8.0], [-1e308, 1e308]],
                         ids=["both_infinite", "lo_infinite", "width_overflows"])
@pytest.mark.parametrize("law", ["y", "y + tanh(y)"])
def test_interval_must_be_finite(interval, law, tmp_path, capsys):
    # json writes and reads the literals Infinity and -Infinity; a certificate
    # on such an interval would scan a NaN grid, with numpy warnings on stderr
    doc = dict(DIODE, edges=[dict(DIODE["edges"][0], law=law, interval=interval),
                             DIODE["edges"][1]])
    assert main(["check", write(tmp_path, "net.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edges[0]" in err and "interval" in err
    assert "Warning" not in err


def test_interval_must_not_hold_a_boolean(tmp_path, capsys):
    doc = dict(DIODE, edges=[dict(DIODE["edges"][0], interval=[-1, True]), DIODE["edges"][1]])
    assert main(["check", write(tmp_path, "net.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edges[0]" in err and "interval" in err


def test_check_flags_convexity_failure(tmp_path, capsys):
    bad = dict(DIODE, edges=[
        {"from": "1", "to": "0", "law": "tanh(y) - y"},
        {"from": "2", "to": "0", "law": "exp(y) - 1"},
    ])
    code = main(["check", write(tmp_path, "net.json", bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "convexity" in out


def test_syntax_error_wins_over_earlier_refused_law(tmp_path, capsys):
    # edge 0 is refused (decreasing), edge 1 does not parse: the parse error is reported
    doc = dict(DIODE, edges=[
        {"from": "1", "to": "0", "law": "-y"},
        {"from": "2", "to": "0", "law": "exp(q)"},
    ])
    path = write(tmp_path, "net.json", doc)
    with pytest.raises(NetworkFileError, match=r"edges\[1\]") as info:
        load_network(path)
    assert "does not parse" in str(info.value)
    for verb in (["check"], ["solve", "1=1", "2=0"]):
        assert main([verb[0], path, *verb[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "edges[1]" in err and "edges[0]" not in err


DISCONNECTED = {
    "nodes": ["0", "1", "2", "3"],
    "boundary": ["1", "2"],
    "edges": [{"from": "1", "to": "0", "law": "y"},
              {"from": "2", "to": "0", "law": "y"}],
}


def test_check_flags_disconnected_graph(tmp_path, capsys):
    code = main(["check", write(tmp_path, "net.json", DISCONNECTED)])
    out = capsys.readouterr().out
    assert code == 1
    assert "disconnected" in out


@pytest.mark.parametrize("doc, code", [(DIODE, 0), (DISCONNECTED, 1)])
def test_check_walks_the_spanning_forest_once(doc, code, tmp_path, capsys):
    forest = mock.patch.object(kronred.graph, "_spanning_forest",
                               wraps=kronred.graph._spanning_forest)
    with forest as walk:
        assert main(["check", write(tmp_path, "net.json", doc)]) == code
    assert walk.call_count == 1


def test_check_one_node_network(tmp_path, capsys):
    one = {"nodes": ["a"], "boundary": ["a"], "edges": []}
    code = main(["check", write(tmp_path, "one.json", one)])
    out = capsys.readouterr().out
    assert code == 0 and "FAIL" not in out
    assert out.count("min edge weight=inf") == 5  # the minimum over no edges


# laws whose slope is zero, negative or infinite everywhere: edge_law refuses
# them, so they are built uncertified, as no network file can carry them
BAD_SLOPES = ("0*y", "-0.5*y", "-2*y", "exp(1000)*y")


def _uncertified(text):
    g = parse_law(text)
    return EdgeLaw(g, differentiate(g), "conductance", (-8.0, 8.0), 0.0, text)


def _dense_structure_ok(net, z):
    """The dense reference: asymmetry, row sums, sign pattern and spectrum of the Laplacian."""
    lap = kr.weighted_laplacian(net, z)
    n = net.graph.n
    scale = 1.0 + np.abs(lap).max()
    off = lap[~np.eye(n, dtype=bool)].max() if n > 1 else 0.0
    eigs = np.linalg.eigvalsh(lap)
    return bool(np.abs(lap - lap.T).max() <= 1e-10 * scale
                and np.abs(lap.sum(axis=1)).max() <= 1e-10 * scale
                and off <= 1e-12 * scale and eigs[0] >= -1e-9 * scale
                and (n < 2 or eigs[1] > 1e-12))


def _structure_trials(net, seed):
    """``check``'s five structure verdicts on ``net`` and the points they were taken at."""
    points = []

    def recording(net, z):
        points.append(_inside_intervals(net, z))
        return points[-1]

    # the co-content and power of an infinite-slope law are NaN
    with mock.patch.object(kronred.cli, "_inside_intervals", recording), \
            np.errstate(invalid="ignore", over="ignore"):
        items = kronred.cli._structure_items(net, np.random.default_rng(seed))
    trials = items[::3]
    assert [item.name for item in trials] == [f"laplacian structure (trial {k})" for k in range(5)]
    return trials, points


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.2, 1.0]))
def test_structure_trial_never_passes_where_dense_reference_fails(seed, bad_share):
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    laws = [_uncertified(BAD_SLOPES[int(rng.integers(len(BAD_SLOPES)))])
            if rng.random() < bad_share else law for law in net.laws]
    net = kr.Network(net.graph, tuple(laws), net.partition)
    trials, points = _structure_trials(net, seed)
    for item, z in zip(trials, points):
        slopes = [float(law.gp_at(z[net.graph.index(h)] - z[net.graph.index(t)]))
                  for law, (t, h) in zip(net.laws, net.graph.edges)]
        assert item.passed == all(0.0 < w < math.inf for w in slopes)
        assert not item.passed or _dense_structure_ok(net, z)


TRIANGLE = (("a", "b"), ("b", "c"), ("c", "a"))


@pytest.mark.parametrize("edges, bad, reference_passes", [
    (TRIANGLE, "0*y", True),  # the cycle keeps the graph connected: the spectrum hides it
    (TRIANGLE[:2], "0*y", False),
    (TRIANGLE, "-0.5*y", False),
], ids=["zero-on-cycle", "zero-on-path", "negative-on-cycle"])
def test_structure_trial_fails_a_nonpositive_slope(edges, bad, reference_passes):
    graph = kr.DirectedGraph(("a", "b", "c"), edges)
    laws = [_uncertified(bad)] + [kr.edge_law("exp(y) - 1")] * (len(edges) - 1)
    net = kr.build_network(graph, laws, ("a",))
    trials, points = _structure_trials(net, 0)
    slope = float(laws[0].gp_at(0.0))
    assert all(not item.passed and item.measured == f"min edge weight={slope:.2e}"
               for item in trials)
    assert all(_dense_structure_ok(net, z) == reference_passes for z in points)


def test_check_rejects_malformed_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check", str(path)]) == 2


def test_solve_prints_closed_form_center(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "net.json", DIODE), "1=1", "2=0"])
    out = capsys.readouterr().out
    assert code == 0
    z0 = -math.log(math.exp(-1.0) + 1.0) + math.log(2.0)
    assert f"{z0:.12f}"[:12] in out or format(z0, ".17g")[:14] in out


def test_solve_zero_currents_at_constant_boundary(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "net.json", DIODE), "1=1.5", "2=1.5"])
    out = capsys.readouterr().out
    assert code == 0
    for line in out.splitlines():
        if line.startswith("nodal current"):
            assert abs(float(line.split("=")[1])) < 1e-12


def test_solve_non_finite_hessian_exits_3(tmp_path, capsys):
    # g' of the first law is 0/0 at y = 0, where the first Newton step starts
    doc = {
        "nodes": ["0", "1", "2", "3"],
        "boundary": ["1", "2", "3"],
        "edges": [
            {"from": "1", "to": "0", "law": "y + 0.5*sqrt(y^2)", "interval": [-8.0, 8.5]},
            {"from": "2", "to": "0", "law": "exp(y) - 1"},
            {"from": "3", "to": "0", "law": "y"},
        ],
    }
    code = main(["solve", write(tmp_path, "net.json", doc), "1=0", "2=-1", "3=1"])
    assert code == 3
    assert "edge weight is not finite (edge 0 (1->0))" in capsys.readouterr().err


def test_solve_missing_assignment_is_usage_error(tmp_path, capsys):
    code = main(["solve", write(tmp_path, "net.json", DIODE), "1=1"])
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_reduce_writes_deterministic_output(tmp_path, capsys):
    src = write(tmp_path, "net.json", DIODE)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["reduce", src, "--samples", "64", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["reduce", src, "--samples", "64", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_reduce_round_trip_reproduces_currents(tmp_path):
    src = write(tmp_path, "net.json", DIODE)
    out = tmp_path / "reduced.json"
    assert main(["reduce", src, "--samples", "400", "--seed", "3", "--out", str(out)]) == 0
    original = diode_opposite_net()
    reloaded = load_network(out)
    assert reloaded.reduced
    net2 = reloaded.network
    rng = np.random.default_rng(1)
    for _ in range(10):
        z_b = rng.uniform(-1.5, 1.5, 2)
        j_orig = kr.solve_interior(original, z_b).j_b
        j_red = kr.nodal_currents(net2, z_b)
        assert np.abs(j_red - j_orig).max() <= 1e-6 * (1.0 + np.abs(j_orig).max())


def test_reduce_reports_certificate_fields(tmp_path):
    src = write(tmp_path, "net.json", DIODE)
    out = tmp_path / "reduced.json"
    main(["reduce", src, "--samples", "32", "--out", str(out)])
    data = json.loads(out.read_text())
    cert = data["certificate"]
    assert cert["acyclic"] is True
    assert cert["support_stable"] is True
    assert len(cert["support_samples"]) == 32
    assert data["sampling"] == {"count": 32, "scale": 2.0, "seed": 0}


def test_reduce_linear_star_exact_weights(tmp_path):
    out = tmp_path / "reduced.json"
    assert main(["reduce", str(NETWORKS_DIR / "linear_star.json"), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["certificate"]["exact_linear"] is True
    assert len(data["edges"]) == 3
    for edge in data["edges"]:
        y = np.array(edge["table"]["y"])
        i = np.array(edge["table"]["current"])
        np.testing.assert_allclose(i, y / 3.0, atol=1e-12)


def test_reduce_flags_unaccepted_cyclic_fit(tmp_path, capsys):
    out = tmp_path / "reduced.json"
    code = main(["reduce", str(NETWORKS_DIR / "diode_ring.json"),
                 "--samples", "96", "--range", "1.0", "--seed", "2",
                 "--out", str(out)])
    assert code == 4  # certificate flagged, output still written
    data = json.loads(out.read_text())
    assert data["certificate"]["accepted"] is False
    assert data["certificate"]["consistency_residual"] > 1e-6


@pytest.mark.parametrize("argv", [
    ["reduce", "diode_opposite", "--samples", "1"],
    ["reduce", "diode_opposite", "--samples", "0"],
    ["reduce", "diode_opposite", "--samples", "-3"],
    ["reduce", "diode_opposite", "--range", "-1"],
    ["reduce", "diode_opposite", "--range", "0"],
    ["curve", "diode_opposite", "--pair", "1,1"],
    ["curve", "diode_opposite", "--pair", "1,9"],
    ["curve", "diode_opposite", "--pair", "1,2", "--vmax", "inf"],
    ["curve", "diode_opposite", "--pair", "1,2", "--vmin=-inf"],
    ["curve", "diode_opposite", "--pair", "1,2", "--vmin", "nan"],
    ["reduce", "diode_opposite", "--seed", "-1"],
    ["solve", "diode_opposite", "1=inf", "2=0"],
    ["solve", "diode_opposite", "1=nan", "2=0"],
    ["solve", "diode_opposite", "1=1", "2=0", "1=2"],
    ["power", "linear_series", "1=1", "2=0", "--min-heat", "--degree", "nan"],
])
def test_bad_option_values_are_usage_errors(argv, capsys):
    verb, name, *options = argv
    code = main([verb, str(NETWORKS_DIR / f"{name}.json"), *options])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["reduce", "diode_opposite"],
    ["curve", "diode_opposite", "--pair", "1,2"],
])
def test_out_in_missing_directory_is_usage_error(argv, tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the work ran before the --out path was opened")

    monkeypatch.setattr(kronred.cli, "reduce_network", must_not_run)
    monkeypatch.setattr(kronred.cli, "effective_curve", must_not_run)
    verb, name, *options = argv
    out = tmp_path / "missing" / "out.txt"
    code = main([verb, str(NETWORKS_DIR / f"{name}.json"), *options, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.parent.exists()


def grid_document(k, law):
    """k x k grid, every edge carrying ``law``, with the four corners as boundary."""
    edges = []
    for i in range(k * k):
        if i % k + 1 < k:
            edges.append({"from": str(i), "to": str(i + 1), "law": law})
        if i + k < k * k:
            edges.append({"from": str(i), "to": str(i + k), "law": law})
    corners = [0, k - 1, k * (k - 1), k * k - 1]
    return {"nodes": [str(i) for i in range(k * k)],
            "boundary": [str(i) for i in corners], "edges": edges}


def test_load_certifies_each_distinct_law_once(tmp_path, monkeypatch):
    doc = grid_document(3, "y + 0.1*sinh(y)")
    doc["edges"][-1]["interval"] = [-4.0, 4.0]
    calls = []
    real = kronred.netfile.edge_law

    def counting(text, **options):
        calls.append((text, options["kind"], options["interval"]))
        return real(text, **options)

    monkeypatch.setattr(kronred.netfile, "edge_law", counting)
    net = load_network(write(tmp_path, "grid.json", doc)).network
    assert sorted(calls) == [("y + 0.1*sinh(y)", "conductance", (-8.0, 8.0)),
                             ("y + 0.1*sinh(y)", "conductance", (-4.0, 4.0))]
    assert net.graph.m == 12
    assert all(law is net.laws[0] for law in net.laws[:-1])
    assert net.laws[-1].validity_interval == (-4.0, 4.0)


def test_check_reports_every_edge_of_a_shared_law(tmp_path, capsys):
    code = main(["check", write(tmp_path, "grid.json", grid_document(3, "y + 0.1*sinh(y)"))])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    margins = [line for line in lines if "convexity margin" in line]
    assert len(margins) == 12 and all(line.startswith("PASS") for line in margins)


def test_check_fails_every_edge_of_a_shared_bad_law(tmp_path, capsys):
    code = main(["check", write(tmp_path, "grid.json", grid_document(3, "tanh(y) - y"))])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert sum(line.startswith("FAIL  convexity margin") for line in lines) == 12
    assert "PASS  connectivity: connected" in lines


def test_curve_csv_values(tmp_path, capsys):
    src = write(tmp_path, "net.json", DIODE)
    code = main(["curve", src, "--pair", "1,2", "--vmin", "-2", "--vmax", "2",
                 "--points", "5"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "V,I,Ghat"
    rows = [line.split(",") for line in lines[1:]]
    vs = [float(r[0]) for r in rows]
    assert vs == sorted(vs) and len(vs) == 5
    mid = rows[2]
    assert float(mid[0]) == 0.0
    assert abs(float(mid[1])) < 1e-12
    assert abs(float(mid[2])) < 1e-12
    assert float(rows[-1][1]) == pytest.approx(math.tanh(1.0), abs=1e-9)


def test_curve_same_orientation_pair_reversed(tmp_path, capsys):
    code = main(["curve", str(NETWORKS_DIR / "diode_same.json"),
                 "--pair", "2,1", "--vmin", "2", "--vmax", "2.0001", "--points", "2"])
    out = capsys.readouterr().out
    assert code == 0
    first = out.strip().splitlines()[1].split(",")
    assert float(first[1]) == pytest.approx(math.e - 1.0, abs=1e-8)


def test_power_balance_report(tmp_path, capsys):
    src = write(tmp_path, "net.json", DIODE)
    code = main(["power", src, "0=0", "1=1", "2=0"])
    out = capsys.readouterr().out
    assert code == 0
    values = {line.split("=")[0].strip(): float(line.split("=")[1])
              for line in out.strip().splitlines()}
    assert values["dissipated power"] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert values["|difference|"] <= 1e-14


def test_power_min_heat_quadratic(capsys):
    code = main(["power", str(NETWORKS_DIR / "linear_series.json"),
                 "1=1", "2=0", "--min-heat"])
    out = capsys.readouterr().out
    assert code == 0
    assert "max |difference|" in out


@pytest.mark.parametrize("options", [["--min-heat"], ["--min-heat", "--degree", "2"]])
def test_min_heat_assignments_in_any_order(options, capsys):
    path = str(NETWORKS_DIR / "linear_series.json")
    outputs = []
    for argv in (["power", path, "1=1", "2=0", *options], ["power", path, *options, "1=1", "2=0"],
                 ["power", path, "1=1", *options, "2=0"]):
        assert main(argv) == 0
        outputs.append(capsys.readouterr())
    assert "max |difference|" in outputs[0].out
    assert all(out == outputs[0] for out in outputs)


@pytest.mark.parametrize("extra", [["--bogus"], ["--bogus", "2=0"], ["stray"]])
def test_unknown_arguments_still_exit_2(extra, capsys):
    argv = ["power", str(NETWORKS_DIR / "linear_series.json"), "1=1", "--min-heat", *extra]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {extra[0]}" in err and "2=0" not in err


@pytest.mark.parametrize("error, code, prefix", [
    (kr.SolveError("no convergence"), 3, "solver failure: "),
    (kr.AssumptionError("support is not connected"), 4, "assumption failure: "),
])
def test_reduce_failure_writes_document_and_exits(error, code, prefix, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(kronred.cli, "reduce_network", fail)
    out = tmp_path / "failed.json"
    argv = ["reduce", str(NETWORKS_DIR / "diode_same.json"), "--seed", "3", "--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err == f"{prefix}{error}\n"
    document = json.loads(out.read_text(encoding="utf-8"))
    assert document["error"] == str(error)
    assert document["certificate"] == {"failed": True, "reason": str(error)}
    assert document["sampling"] == {"count": 64, "scale": 2.0, "seed": 3}


def test_power_min_heat_refuses_diode(tmp_path, capsys):
    src = write(tmp_path, "net.json", DIODE)
    code = main(["power", src, "1=1", "2=0", "--min-heat"])
    assert code == 1
    assert "refused" in capsys.readouterr().err


def test_power_min_heat_on_reduced_linear_series(tmp_path, capsys):
    # the reduced tables live on [-4.16, 4.16]; a homogeneity probe at t = 2
    # once left that interval and the verb exited 2
    out = tmp_path / "lin.json"
    assert main(["reduce", str(NETWORKS_DIR / "linear_series.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["power", str(out), "1=0", "2=0.1", "--min-heat"])
    captured = capsys.readouterr()
    assert "outside validity interval" not in captured.err
    assert code == 0
    assert "homogeneity degree = 2" in captured.out


def test_memristor_labels_only(tmp_path, capsys):
    resistor = dict(DIODE, domain="resistor")
    memristor = dict(DIODE, domain="memristor")
    code_r = main(["solve", write(tmp_path, "r.json", resistor), "1=1", "2=0"])
    out_r = capsys.readouterr().out
    code_m = main(["solve", write(tmp_path, "m.json", memristor), "1=1", "2=0"])
    out_m = capsys.readouterr().out
    assert code_r == code_m == 0
    assert "nodal charge" in out_m and "nodal current" in out_r
    nums_r = [line.split("=")[-1] for line in out_r.splitlines() if "=" in line]
    nums_m = [line.split("=")[-1] for line in out_m.splitlines() if "=" in line]
    assert nums_r == nums_m


def test_dump_reduced_round_trips_tables():
    net = diode_opposite_net()
    rn = kr.reduce_network(net, SamplingPlan(count=64, seed=5))
    text = dump_reduced(rn, "resistor", SamplingPlan(count=64, seed=5))
    data = json.loads(text)
    y = np.array(data["edges"][0]["table"]["y"])
    np.testing.assert_array_equal(y, rn.edge_tables[0].y)


# A two-node reduced file whose one table holds one bad entry.
def _reduced_two_node(column, value):
    table = {"y": [-1.0, 0.0, 1.0, 2.0], "current": [-1.0, 0.0, 1.0, 2.0],
             "cocontent": [0.5, 0.0, 0.5, 2.0]}
    table[column] = list(table[column])
    table[column][1] = value
    return {"reduced": True, "nodes": ["a", "b"], "boundary": ["a", "b"],
            "edges": [{"from": "a", "to": "b", "table": table}]}


@pytest.mark.parametrize("column", ["y", "current", "cocontent"])
@pytest.mark.parametrize("value", [math.nan, math.inf, "1.0"])
@pytest.mark.parametrize("verb", [
    ["check"], ["solve", "a=0.5", "b=0"], ["curve", "--pair", "a,b", "--vmin", "-0.5", "--vmax", "0.5"],
    ["power", "a=0.5", "b=0"],
], ids=["check", "solve", "curve", "power"])
def test_bad_table_entry_is_usage_error(column, value, verb, tmp_path, capsys):
    path = write(tmp_path, "reduced.json", _reduced_two_node(column, value))
    assert main([verb[0], path, *verb[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edges[0]" in err and repr(column) in err


def test_table_must_not_hold_booleans(tmp_path, capsys):
    # bool subclasses int, so [false, true] once loaded as the table [0, 1]
    doc = {"reduced": True, "nodes": ["a", "b"], "boundary": ["a", "b"],
           "edges": [{"from": "a", "to": "b", "table": {"y": [False, True], "current": [False, True]}}]}
    assert main(["check", write(tmp_path, "reduced.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "edges[0]" in err and "'y'" in err


def test_table_with_nan_margin_is_not_certified():
    y = np.array([-1.0, 0.0, 1.0, 2.0])
    with pytest.raises(kr.ConvexityError):
        kronred.netfile.certify_table(y, np.array([-1.0, np.nan, 1.0, 2.0]), "edges[0]")


def test_check_passes_on_narrow_reduced_tables(tmp_path, capsys):
    # the tables cover about [-0.5, 0.5], far less than the trials' [-1, 1] potentials
    narrow = tmp_path / "narrow.json"
    source = str(NETWORKS_DIR / "diode_opposite.json")
    assert main(["reduce", source, "--range", "0.3", "--samples", "32", "--out", str(narrow)]) == 0
    capsys.readouterr()
    assert main(["check", str(narrow)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS") == 17
