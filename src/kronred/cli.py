"""Command-line front end.

Verbs: check | solve | reduce | curve | power.  Exit codes: 0 ok,
1 check failures, 2 usage or parse errors, 3 solver failures,
4 assumption-certificate failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
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
from .graph import is_connected
from .netfile import assemble, dump_reduced, load_document, load_network, parse_document
from .potential import (
    _edge_values,
    dissipated_power,
    k_value,
    power_balance_check,
    weighted_laplacian,
)
from .reduction import SamplingPlan, boundary_ids, effective_curve, reduce_network
from .solver import min_heat_check, solve_interior

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_ASSUMPTION = 4

LABELS = {
    "resistor": {
        "potential": "potential",
        "nodal": "nodal current",
        "k": "co-content",
        "power": "dissipated power",
    },
    "memristor": {
        "potential": "nodal flux",
        "nodal": "nodal charge",
        "k": "action",
        "power": "flux-charge rate",
    },
}


def fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _output(path: str):
    """The ``--out`` file, opened for writing before any work is done, or stdout if empty."""
    if not path:
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise NetworkFileError(f"cannot write --out: {exc.strerror}", path) from exc
    with handle:
        yield handle


# ---------------------------------------------------------------------------
# check


@dataclass
class CheckItem:
    name: str
    passed: bool
    measured: str


def _inside_intervals(net, z: np.ndarray) -> np.ndarray:
    """``z`` itself when every edge value lies in its validity interval.

    Otherwise ``z`` scaled toward 0 until every edge value lies within half
    its interval; the half leaves room for rounding in the scaled values.
    """
    index = net._law_index
    y = _edge_values(net, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.maximum(y / index.hi, y / index.lo).max(initial=0.0)
    return z / (2.0 * reach) if reach > 1.0 else z


def _structure_items(net, rng) -> list[CheckItem]:
    items = []
    n = net.graph.n
    for trial in range(5):
        z = _inside_intervals(net, rng.uniform(-1.0, 1.0, n))
        lap = weighted_laplacian(net, z)
        scale = 1.0 + np.abs(lap).max()
        sym = float(np.abs(lap - lap.T).max())
        rows = float(np.abs(lap.sum(axis=1)).max())
        off = float(lap[~np.eye(n, dtype=bool)].max()) if n > 1 else 0.0
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
    document = parse_document(load_document(args.file), location=args.file)
    items = []
    for edge in document.edges:
        name = f"convexity margin {edge.tail}->{edge.head}"
        if isinstance(edge.law, ConvexityError):
            items.append(CheckItem(name, False, str(edge.law)))
        else:
            items.append(CheckItem(name, True, f"min g' = {edge.law.convexity_margin:.6e}"))
    connected = is_connected(document.graph)
    items.append(CheckItem("connectivity", connected,
                           "connected" if connected else "graph is disconnected"))
    if all(item.passed for item in items):
        items.extend(_structure_items(assemble(document).network, np.random.default_rng(0)))
    for item in items:
        print(f"{'PASS' if item.passed else 'FAIL'}  {item.name}: {item.measured}")
    return EXIT_OK if all(item.passed for item in items) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# solve


def _parse_assignments(pairs, expected_names, what) -> np.ndarray:
    """Values of ``name=value`` pairs in ``expected_names`` order; each name once, finite."""
    values = {}
    for pair in pairs:
        if "=" not in pair:
            raise NetworkFileError(f"malformed assignment {pair!r} (want name=value)")
        name, _, text = pair.partition("=")
        try:
            value = float(text)
        except ValueError as exc:
            raise NetworkFileError(f"bad value in assignment {pair!r}") from exc
        if not np.isfinite(value):
            raise NetworkFileError(f"non-finite value in assignment {pair!r}")
        if name in values:
            raise NetworkFileError(f"node {name!r} is assigned twice")
        values[name] = value
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
    names = boundary_ids(net)
    z_b = _parse_assignments(args.assignments, names, "boundary")
    result = solve_interior(net, z_b)
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
    if args.samples < 2:
        raise NetworkFileError("--samples must be at least 2")
    if not 0.0 < args.range < float("inf"):
        raise NetworkFileError("--range must be positive and finite")
    if args.seed < 0:
        raise NetworkFileError("--seed must be non-negative")
    loaded = load_network(args.file)
    plan = SamplingPlan(count=args.samples, scale=args.range, seed=args.seed)
    with _output(args.out) as out:
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
            out.write(json.dumps(failure, indent=2) + "\n")
            raise
        out.write(dump_reduced(reduced, loaded.domain, plan))
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
    if a == b:
        raise NetworkFileError("--pair wants two different nodes")
    unknown = [name for name in (a, b) if name not in loaded.network.graph.node_ids]
    if unknown:
        raise NetworkFileError(f"unknown node in --pair: {', '.join(unknown)}")
    if not (np.isfinite(args.vmin) and np.isfinite(args.vmax)):
        raise NetworkFileError("--vmin and --vmax must be finite")
    if args.points < 2 or not args.vmin < args.vmax:
        raise NetworkFileError("need points >= 2 and vmin < vmax")
    grid = np.linspace(args.vmin, args.vmax, args.points)
    with _output(args.out) as out:
        points = effective_curve(loaded.network, a, b, grid)
        out.write("V,I,Ghat\n")
        failures = 0
        for p in points:
            if p.converged:
                out.write(f"{fmt(p.v)},{fmt(p.current)},{fmt(p.cocontent)}\n")
            else:
                failures += 1
                out.write(f"{fmt(p.v)},failed,failed\n")
    if failures:
        print(f"{failures} of {len(points)} solves failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# power


def cmd_power(args) -> int:
    if args.min_heat and not np.isfinite(args.degree):
        raise NetworkFileError("--degree must be finite")
    loaded = load_network(args.file)
    net = loaded.network
    labels = LABELS[loaded.domain]
    if args.min_heat:
        z_b = _parse_assignments(args.assignments, boundary_ids(net), "boundary")
        try:
            report = min_heat_check(net, z_b, args.degree)
        except HomogeneityError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
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
    # argparse fills a verb's (empty) assignments before it reads the verb's
    # options, so name=value tokens after an option come back unparsed
    args, extra = parser.parse_known_args(argv)
    rest = []
    for token in extra:
        takes = hasattr(args, "assignments") and "=" in token and not token.startswith("-")
        (args.assignments if takes else rest).append(token)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
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
