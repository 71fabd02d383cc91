"""Command-line front end.

Verbs: check | solve | reduce | curve | power.  Exit codes: 0 ok,
1 check failures, 2 usage or parse errors, 3 solver failures,
4 assumption-certificate failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionError,
    ConvexityError,
    HomogeneityError,
    KronredError,
    NetworkFileError,
    SolveError,
)
from .graph import DirectedGraph, is_connected
from .netfile import (
    build_edge_law,
    dump_reduced,
    load_document,
    load_network,
    parse_document,
)
from .potential import (
    build_network,
    dissipated_power,
    k_value,
    power_balance_check,
    weighted_laplacian,
)
from .reduction import SamplingPlan, effective_curve, reduce_network
from .solver import min_heat_check, solve_interior

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_ASSUMPTION = 4

LABELS = {
    "resistor": {
        "potential": "potential",
        "across": "voltage",
        "through": "current",
        "nodal": "nodal current",
        "k": "co-content",
        "power": "dissipated power",
        "law": "conductance",
    },
    "memristor": {
        "potential": "nodal flux",
        "across": "flux",
        "through": "charge",
        "nodal": "nodal charge",
        "k": "action",
        "power": "flux-charge rate",
        "law": "memductance",
    },
}


def fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# check


@dataclass
class CheckItem:
    name: str
    passed: bool
    measured: str


@dataclass
class DiagnosticReport:
    items: list

    @property
    def all_passed(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self):
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            yield f"{status}  {item.name}: {item.measured}"


def _structure_items(net, rng) -> list[CheckItem]:
    items = []
    n = net.graph.n
    for trial in range(5):
        z = rng.uniform(-1.0, 1.0, n)
        lap = weighted_laplacian(net, z)
        scale = 1.0 + np.abs(lap).max()
        sym = float(np.abs(lap - lap.T).max())
        rows = float(np.abs(lap.sum(axis=1)).max())
        off = float(max((lap[i, k] for i in range(n) for k in range(n) if i != k), default=0.0))
        eigs = np.linalg.eigvalsh(lap)
        ok = (sym <= 1e-10 * scale and rows <= 1e-10 * scale and off <= 1e-12 * scale
              and eigs[0] >= -1e-9 * scale and (n < 2 or eigs[1] > 1e-12))
        items.append(CheckItem(
            f"laplacian structure (trial {trial})", ok,
            f"asym={sym:.2e} rowsum={rows:.2e} offdiag_max={off:.2e} "
            f"eig_min={eigs[0]:.2e}" + (f" eig_2={eigs[1]:.2e}" if n >= 2 else ""),
        ))
        k0 = k_value(net, z)
        c = rng.uniform(-10.0, 10.0)
        shift = abs(k_value(net, z + c) - k0)
        ok = shift <= 1e-10 * (1.0 + abs(k0))
        items.append(CheckItem(f"shift invariance (trial {trial})", ok,
                               f"|K(z+c)-K(z)|={shift:.2e} at c={c:.3f}"))
        balance = power_balance_check(net, z)
        ok = balance.difference <= 1e-12 * (1.0 + abs(balance.edge_power))
        items.append(CheckItem(f"power balance (trial {trial})", ok,
                               f"V.I={balance.edge_power:.6e} psi.J={balance.nodal_power:.6e} "
                               f"|diff|={balance.difference:.2e}"))
    return items


def cmd_check(args) -> int:
    try:
        document = parse_document(load_document(args.file), location=args.file)
    except NetworkFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    items = []
    laws = []
    laws_ok = True
    for edge in document.edges:
        label = f"{edge.tail}->{edge.head}"
        try:
            law = build_edge_law(edge)
            laws.append(law)
            items.append(CheckItem(f"convexity margin {label}", True,
                                   f"min g' = {law.convexity_margin:.6e}"))
        except (ConvexityError, NetworkFileError) as exc:
            laws_ok = False
            items.append(CheckItem(f"convexity margin {label}", False, str(exc)))
    graph = DirectedGraph(document.nodes, tuple((e.tail, e.head) for e in document.edges))
    connected = is_connected(graph)
    items.append(CheckItem("connectivity", connected,
                           "connected" if connected else "graph is disconnected"))
    if laws_ok and connected:
        net = build_network(graph, laws, document.boundary)
        items.extend(_structure_items(net, np.random.default_rng(0)))
    report = DiagnosticReport(items)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# solve


def _parse_assignments(pairs, expected_names, what) -> np.ndarray:
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise NetworkFileError(f"malformed assignment {pair!r} (want name=value)")
        name, _, text = pair.partition("=")
        try:
            values[name] = float(text)
        except ValueError as exc:
            raise NetworkFileError(f"bad value in assignment {pair!r}") from exc
    missing = [name for name in expected_names if name not in values]
    if missing:
        raise NetworkFileError(f"missing {what} assignment for: {', '.join(missing)}")
    extra = [name for name in values if name not in expected_names]
    if extra:
        raise NetworkFileError(f"unknown {what} node in assignments: {', '.join(extra)}")
    return np.array([values[name] for name in expected_names])


def cmd_solve(args) -> int:
    loaded = load_network(args.file)
    net = loaded.network
    labels = LABELS[loaded.domain]
    names = [net.graph.node_ids[i] for i in net.partition.boundary]
    z_b = _parse_assignments(args.assignments, names, "boundary")
    try:
        result = solve_interior(net, z_b)
    except SolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for idx, node in enumerate(net.partition.central):
        print(f"{labels['potential']} z_C[{net.graph.node_ids[node]}] = {fmt(result.z_c[idx])}")
    for idx, name in enumerate(names):
        print(f"{labels['nodal']} J_B[{name}] = {fmt(result.j_b[idx])}")
    print(f"iterations = {result.iterations}, residual = {fmt(result.final_residual)}")
    print(f"reduced {labels['k']} = {fmt(k_value(net, result.z_full))}")
    balance = power_balance_check(net, result.z_full)
    print(f"{labels['power']}: edges = {fmt(balance.edge_power)}, "
          f"nodes = {fmt(balance.nodal_power)}, |difference| = {fmt(balance.difference)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    loaded = load_network(args.file)
    plan = SamplingPlan(count=args.samples, scale=args.range, seed=args.seed)

    def emit(text: str):
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)

    try:
        reduced = reduce_network(loaded.network, plan)
    except (SolveError, AssumptionError) as exc:
        failure = {
            "domain": loaded.domain,
            "reduced": True,
            "error": str(exc),
            "certificate": {"failed": True, "reason": str(exc)},
            "sampling": {"count": plan.count, "scale": plan.scale, "seed": plan.seed},
        }
        emit(json.dumps(failure, indent=2) + "\n")
        print(f"reduction failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER if isinstance(exc, SolveError) else EXIT_ASSUMPTION
    emit(dump_reduced(reduced, loaded.domain, plan))
    cert = reduced.certificate
    if not cert.support_stable or cert.accepted is False:
        print("assumption certificate flagged "
              f"(support_stable={cert.support_stable}, accepted={cert.accepted})",
              file=sys.stderr)
        return EXIT_ASSUMPTION
    return EXIT_OK


# ---------------------------------------------------------------------------
# curve


def cmd_curve(args) -> int:
    loaded = load_network(args.file)
    try:
        a, b = (part.strip() for part in args.pair.split(","))
    except ValueError as exc:
        raise NetworkFileError("--pair wants two comma-separated node names") from exc
    if args.points < 2 or not args.vmin < args.vmax:
        raise NetworkFileError("need points >= 2 and vmin < vmax")
    grid = np.linspace(args.vmin, args.vmax, args.points)
    points = effective_curve(loaded.network, a, b, grid)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write("V,I,Ghat\n")
        failures = 0
        for p in points:
            if p.converged:
                out.write(f"{fmt(p.v)},{fmt(p.current)},{fmt(p.cocontent)}\n")
            else:
                failures += 1
                out.write(f"{fmt(p.v)},failed,failed\n")
    finally:
        if args.out:
            out.close()
    if failures:
        print(f"{failures} of {len(points)} solves failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# power


def cmd_power(args) -> int:
    loaded = load_network(args.file)
    net = loaded.network
    labels = LABELS[loaded.domain]
    if args.min_heat:
        names = [net.graph.node_ids[i] for i in net.partition.boundary]
        z_b = _parse_assignments(args.assignments, names, "boundary")
        try:
            report = min_heat_check(net, z_b, args.degree)
        except HomogeneityError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        except SolveError as exc:
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        print(f"homogeneity degree = {fmt(report.degree)} (verified by sampling)")
        for idx, node in enumerate(net.partition.central):
            name = net.graph.node_ids[node]
            print(f"constraint z_C[{name}] = {fmt(report.z_c_constraint[idx])}, "
                  f"{labels['power']} minimizer = {fmt(report.z_c_power_min[idx])}")
        print(f"max |difference| = {fmt(report.max_abs_difference)}")
        return EXIT_OK
    names = list(net.graph.node_ids)
    z = _parse_assignments(args.assignments, names, "node")
    balance = power_balance_check(net, z)
    print(f"{labels['power']} = {fmt(dissipated_power(net, z))}")
    print(f"edge total (V.I) = {fmt(balance.edge_power)}")
    print(f"node total (psi.J) = {fmt(balance.nodal_power)}")
    print(f"|difference| = {fmt(balance.difference)}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronred",
        description="Kron reduction of nonlinear resistor and memristor networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a network file and run structure checks")
    p.add_argument("file")
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("solve", help="solve interior potentials for boundary assignments")
    p.add_argument("file")
    p.add_argument("assignments", nargs="*", metavar="node=value")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("reduce", help="eliminate central nodes and recover edge laws")
    p.add_argument("file")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--range", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("curve", help="effective two-terminal curve as CSV")
    p.add_argument("file")
    p.add_argument("--pair", required=True, metavar="a,b")
    p.add_argument("--vmin", type=float, default=-3.0)
    p.add_argument("--vmax", type=float, default=3.0)
    p.add_argument("--points", type=int, default=41)
    p.add_argument("--out", default="")
    p.set_defaults(handler=cmd_curve)

    p = sub.add_parser("power", help="power report at a full assignment, or minimum-heat check")
    p.add_argument("file")
    p.add_argument("assignments", nargs="*", metavar="node=value")
    p.add_argument("--min-heat", action="store_true", dest="min_heat",
                   help="treat assignments as boundary values and compare the "
                        "constraint solve against direct power minimization")
    p.add_argument("--degree", type=float, default=2.0,
                   help="homogeneity degree for --min-heat")
    p.set_defaults(handler=cmd_power)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NetworkFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolveError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AssumptionError as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except KronredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
