#!/usr/bin/env python3
"""Time and memory of ``reduced_hessian`` on k x k grid networks.

Each grid carries ``y + 0.1*sinh(y)`` on every edge, lists its nodes row by
row and keeps its four corners as boundary nodes.  For k in 32, 64 and 100
(or the sizes given as arguments) this prints, as CSV, the median wall time
of REPEATS ``reduced_hessian`` calls at seeded random corner potentials,
the mean Newton iterations of the one interior solve in each of those calls
(counted by solving again at the same potentials, outside the timing), and
the tracemalloc peak of one more call.  The network is built, and its
cached edge list and Newton start map filled, before anything is measured.

    python scripts/grid_scaling.py [k ...]
"""

import sys
import time
import tracemalloc

import numpy as np

import kronred as kr

REPEATS = 7


def grid_network(k: int) -> kr.Network:
    names = tuple(str(i) for i in range(k * k))
    edges = []
    for r in range(k):
        for c in range(k):
            i = r * k + c
            if c + 1 < k:
                edges.append((names[i], names[i + 1]))
            if r + 1 < k:
                edges.append((names[i], names[i + k]))
    law = kr.edge_law("y + 0.1*sinh(y)")
    corners = (names[0], names[k - 1], names[k * (k - 1)], names[k * k - 1])
    return kr.build_network(kr.DirectedGraph(names, tuple(edges)), [law] * len(edges), corners)


def main():
    sizes = [int(arg) for arg in sys.argv[1:]] or [32, 64, 100]
    rng = np.random.default_rng(0)
    print("k,nodes,edges,median_ms,newton_iters,peak_mb")
    for k in sizes:
        net = grid_network(k)
        kr.reduced_hessian(net, rng.uniform(-1.0, 1.0, 4))  # fills the per-network caches
        times, iterations = [], []
        for _ in range(REPEATS):
            z_b = rng.uniform(-1.0, 1.0, 4)
            start = time.perf_counter()
            kr.reduced_hessian(net, z_b)
            times.append(time.perf_counter() - start)
            iterations.append(kr.solve_interior(net, z_b).iterations)
        tracemalloc.start()
        kr.reduced_hessian(net, rng.uniform(-1.0, 1.0, 4))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{k},{net.graph.n},{net.graph.m},{1e3 * float(np.median(times)):.1f},"
              f"{float(np.mean(iterations)):.2f},{peak / 1e6:.1f}")


if __name__ == "__main__":
    main()
