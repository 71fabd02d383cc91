"""Scale invariance: multiplying every law by c keeps z_C and scales every current by c.

The solver's stopping test, the support test, linearity, acceptance and the
co-content quadrature are all judged against the network's own scale, so a
network in SI units (currents near 1 pA) reduces as its 1 A twin does.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kronred as kr
from kronred.cli import main
from kronred.errors import HomogeneityError, SolveError
from kronred.reduction import boundary_ids

from conftest import LAW_POOL, SI_SATURATION, SI_THERMAL, diode_ring_net, random_network

SCALES = (1e-15, 1e-9, 1e6, 1e9)
RTOL = 1e-9


def _document(net: kr.Network) -> dict:
    return {
        "nodes": list(net.graph.node_ids),
        "boundary": list(boundary_ids(net)),
        "edges": [{"from": tail, "to": head, "law": law.source}
                  for (tail, head), law in zip(net.graph.edges, net.laws)],
    }


def _solve(net: kr.Network, z_b: np.ndarray):
    """(z_C, J_B, K) at z_b, or None when the solve fails."""
    try:
        result = kr.solve_interior(net, z_b)
    except SolveError:
        return None
    return result.z_c, result.j_b, kr.k_value(net, result.z_full)


def _reduce(net: kr.Network, directory: Path):
    """Exit code and output document of ``kronred reduce`` on ``net``'s file."""
    path, out = directory / "net.json", directory / "reduced.json"
    path.write_text(json.dumps(_document(net)), encoding="utf-8")
    code = main(["reduce", str(path), "--samples", "16", "--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


def _gap(a, b, scale: float) -> float:
    """Largest |a - b| in units of ``scale``."""
    gap = float(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).max(initial=0.0))
    return gap and gap / scale


def scaling_gaps(seed: int, c: float) -> dict:
    """Relative gaps between a random network and its copy with every law times c.

    Raises AssertionError where the two differ in kind: a solve or exit code,
    the reduced graph or a certificate flag.  Potentials are compared in units
    of max |z_B|, which bounds them; currents of the copy, divided by c, in
    units of their largest value; co-content in units of that current times
    the largest edge value, which bounds it.
    """
    base = random_network(np.random.default_rng(seed))
    pool = tuple(f"{c!r}*({text})" for text in LAW_POOL)
    scaled = random_network(np.random.default_rng(seed), law_pool=pool)
    z_b = np.random.default_rng(seed + 1).uniform(-1.5, 1.5, len(base.partition.boundary))
    gaps = {}
    solved, solved_c = _solve(base, z_b), _solve(scaled, z_b)
    assert (solved is None) == (solved_c is None)
    if solved is not None:
        (z_c, j_b, k), (z_c_c, j_b_c, k_c) = solved, solved_c
        gaps["z_C"] = _gap(z_c, z_c_c, np.abs(z_b).max())
        gaps["J_B"] = _gap(j_b, j_b_c / c, np.abs(j_b).max())
        gaps["K"] = _gap(k, k_c / c, abs(k))
    with tempfile.TemporaryDirectory() as tmp:
        code, doc = _reduce(base, Path(tmp))
        code_c, doc_c = _reduce(scaled, Path(tmp))
    assert code == code_c
    if "edges" in doc:
        pairs = [(e["from"], e["to"]) for e in doc["edges"]]
        assert pairs == [(e["from"], e["to"]) for e in doc_c["edges"]]
        for key in ("support_stable", "acyclic", "accepted", "exact_linear"):
            assert doc["certificate"][key] == doc_c["certificate"][key], key
        tables = [e["table"] for e in doc["edges"]]
        tables_c = [e["table"] for e in doc_c["edges"]]
        y_max = max((np.abs(t["y"]).max() for t in tables), default=1.0)
        i_max = max((np.abs(t["current"]).max() for t in tables), default=1.0)
        gaps["y"] = max((_gap(t["y"], u["y"], y_max) for t, u in zip(tables, tables_c)),
                        default=0.0)
        for key, scale in (("current", i_max), ("cocontent", i_max * y_max)):
            gaps[key] = max((_gap(t[key], np.divide(u[key], c), scale)
                             for t, u in zip(tables, tables_c)), default=0.0)
    return gaps


@given(st.integers(0, 2**32 - 1), st.sampled_from(SCALES))
def test_scaling_every_law_keeps_z_c_and_scales_currents(seed, c):
    gaps = scaling_gaps(seed, c)
    assert all(gap <= RTOL for gap in gaps.values()), gaps


def _bisect_pair(v: float) -> float:
    """Central potential of the SI diode pair at z_B = (v, 0), by bisection on its current."""

    def current(z0):  # into the central node, through both diodes
        return sum(SI_SATURATION * math.expm1((z0 - zb) / SI_THERMAL) for zb in (v, 0.0))

    lo, hi = 0.0, v
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if current(mid) < 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_si_diode_pair_solve_matches_bisection(si_diode_pair, capsys):
    assert main(["solve", si_diode_pair, "1=0.6", "2=0"]) == 0
    printed = dict(re.findall(r"(z_C\[0\]|J_B\[1\]|J_B\[2\]) = (\S+)", capsys.readouterr().out))
    z0 = _bisect_pair(0.6)
    expected = {
        "z_C[0]": z0,
        "J_B[1]": -SI_SATURATION * math.expm1((z0 - 0.6) / SI_THERMAL),
        "J_B[2]": -SI_SATURATION * math.expm1(z0 / SI_THERMAL),
    }
    assert printed.keys() == expected.keys()
    for name, value in expected.items():
        assert abs(float(printed[name]) - value) <= RTOL * abs(value), (name, printed[name], value)


def test_si_diode_pair_reduces_to_its_closed_form(si_diode_pair, tmp_path):
    out = tmp_path / "reduced.json"
    assert main(["reduce", si_diode_pair, "--range", "0.3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    (edge,) = doc["edges"]
    assert (edge["from"], edge["to"]) == ("1", "2") and doc["certificate"]["accepted"]
    y, current = np.array(edge["table"]["y"]), np.array(edge["table"]["current"])
    # two diodes in opposition pass I_s tanh(y / 2 V_t) along the reduced edge
    exact = SI_SATURATION * np.tanh(y / (2.0 * SI_THERMAL))
    assert np.abs(current - exact).max() <= 1e-6 * SI_SATURATION


@pytest.mark.parametrize("c", SCALES)
def test_min_heat_judges_homogeneity_at_any_scale(c):
    g = kr.DirectedGraph(("0", "1", "2"), (("1", "0"), ("2", "0")))
    z_b = np.array([1.0, 0.0])
    diodes = kr.build_network(g, [kr.edge_law(f"{c!r}*(exp(y) - 1)")] * 2, ("1", "2"))
    with pytest.raises(HomogeneityError):
        kr.min_heat_check(diodes, z_b, k=2.0)
    lines = kr.build_network(g, [kr.edge_law(f"{c!r}*y")] * 2, ("1", "2"))
    assert kr.min_heat_check(lines, z_b, k=2.0).max_abs_difference <= 1e-8


@pytest.mark.parametrize("c", SCALES)
def test_linear_pair_reduces_onto_one_node_at_any_scale(c):
    # eliminating node 0 leaves a 1 x 1 Laplacian of rounding noise at the
    # laws' own scale, which must not read as a row sum that is not 0
    g = kr.DirectedGraph(("0", "1"), (("0", "1"), ("0", "1")))
    net = kr.build_network(g, [kr.edge_law(f"{c!r}*(0.5*y)")] * 2, ("1",))
    reduced = kr.reduce_network(net)
    assert reduced.graph.edges == () and reduced.certificate.exact_linear


@pytest.mark.parametrize("c", (1e-12, 1e6))
def test_ring_consistency_residual_keeps_its_value_at_any_scale(c):
    # the residual is the held-out gap over the largest held-out current, the
    # number the ring's acceptance reads, so scaling every law keeps it
    ring = diode_ring_net()
    laws = [kr.edge_law(f"{c!r}*({law.source})") for law in ring.laws]
    scaled = kr.build_network(ring.graph, laws, boundary_ids(ring))
    want = kr.reduce_network(ring).certificate.consistency_residual
    got = kr.reduce_network(scaled).certificate.consistency_residual
    assert abs(got - want) <= 1e-8 * want
