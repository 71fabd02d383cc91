"""File format and command-line behavior, including exit codes."""

import json
import math

import numpy as np
import pytest

import kronred as kr
from kronred.cli import main
from kronred.errors import NetworkFileError
from kronred.netfile import dump_reduced, load_network, parse_document
from kronred.reduction import SamplingPlan

from conftest import NETWORKS_DIR, diode_opposite_net


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
                  "triangle_center", "diode_ring", "memristor_pair"):
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
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_check_flags_convexity_failure(tmp_path, capsys):
    bad = dict(DIODE, edges=[
        {"from": "1", "to": "0", "law": "tanh(y) - y"},
        {"from": "2", "to": "0", "law": "exp(y) - 1"},
    ])
    code = main(["check", write(tmp_path, "net.json", bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out and "convexity" in out


def test_check_flags_disconnected_graph(tmp_path, capsys):
    bad = {
        "nodes": ["0", "1", "2", "3"],
        "boundary": ["1", "2"],
        "edges": [{"from": "1", "to": "0", "law": "y"},
                  {"from": "2", "to": "0", "law": "y"}],
    }
    code = main(["check", write(tmp_path, "net.json", bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "disconnected" in out


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
    assert "factorization failed" in capsys.readouterr().err


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


def test_power_min_heat_refuses_diode(tmp_path, capsys):
    src = write(tmp_path, "net.json", DIODE)
    code = main(["power", src, "1=1", "2=0", "--min-heat"])
    assert code == 1
    assert "refused" in capsys.readouterr().err


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
