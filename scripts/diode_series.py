#!/usr/bin/env python3
"""Two diodes in series: closed forms, effective curves, and full reduction.

Reproduces the worked three-node example end to end: the interior potential
against its closed form, the effective conductance for both edge
orientations (tanh(V/2) and e^(V/2) - 1), and the sampled reduction with
its certificate.
"""

import math

import numpy as np

import kronred as kr


def build(opposite: bool) -> kr.Network:
    edges = (("1", "0"), ("2", "0")) if opposite else (("1", "0"), ("0", "2"))
    g = kr.DirectedGraph(("0", "1", "2"), edges)
    laws = [kr.edge_law("exp(y) - 1"), kr.edge_law("exp(y) - 1")]
    return kr.build_network(g, laws, ("1", "2"))


def main():
    opposite = build(opposite=True)
    aligned = build(opposite=False)

    print("interior potential vs closed form (opposite orientation)")
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        z1, z2 = rng.uniform(-2, 2, 2)
        got = kr.solve_interior(opposite, np.array([z1, z2])).z_c[0]
        want = -math.log(math.exp(-z1) + math.exp(-z2)) + math.log(2.0)
        worst = max(worst, abs(got - want))
    print(f"  max |z0 - formula| over 1000 draws: {worst:.3e}")

    print("\neffective conductance, opposite orientation (expect tanh(V/2))")
    print(f"  {'V':>6} {'I':>22} {'tanh(V/2)':>22}")
    for p in kr.effective_curve(opposite, "1", "2", np.linspace(-3, 3, 7)):
        print(f"  {p.v:6.2f} {p.current:22.15f} {math.tanh(p.v / 2):22.15f}")

    print("\neffective conductance, aligned orientation (expect e^(V/2) - 1)")
    print(f"  {'V':>6} {'I':>22} {'e^(V/2)-1':>22}")
    for p in kr.effective_curve(aligned, "2", "1", np.linspace(-3, 3, 7)):
        print(f"  {p.v:6.2f} {p.current:22.15f} {math.exp(p.v / 2) - 1:22.15f}")

    print("\nsampled reduction (opposite orientation)")
    plan = kr.SamplingPlan(count=400, seed=3)
    rn = kr.reduce_network(opposite, plan)
    cert = rn.certificate
    table = rn.edge_tables[0]
    err = np.abs(table.current - np.tanh(table.y / 2)).max()
    print(f"  reduced edges: {rn.graph.edges}")
    print(f"  support stable: {cert.support_stable}, acyclic: {cert.acyclic}")
    print(f"  table vs tanh(y/2), max abs error: {err:.3e}")
    print(f"  held-out relative residual: {cert.consistency_residual:.3e}")


if __name__ == "__main__":
    main()
