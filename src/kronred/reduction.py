"""Kron reduction: reduced Hessians, support inference, law recovery.

The reduced Hessian at a boundary assignment is the Schur complement of the
weighted Laplacian over the central block, evaluated at the solved interior
point (``solver._schur``, shared with the sensitivity and the exact linear
path).  Its off-diagonal support defines the reduced graph.  On acyclic
reduced graphs the boundary currents determine the per-edge currents
exactly, so per-edge laws are recovered as monotone sample tables.  On
cyclic reduced graphs the currents are determined only up to the cycle
space, so each edge's law is integrated from its slopes, the reduced
Hessian's off-diagonal weights, and anchored by the minimum-norm constant;
the result is certified by held-out residuals and an integrability
diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cubic import HermiteCubic, spline
from .errors import AssumptionError, NonQuadraticLawError, SolveError
from .exprlaw import EdgeLaw, differentiate, evaluate
from .graph import (
    DirectedGraph,
    _support,
    build_incidence,
    fundamental_cycles,
    graph_from_laplacian,
    is_acyclic,
    is_connected,
)
from .potential import (
    Network,
    NodePartition,
    build_network,
    edge_label,
    k_value,
)
from .solver import _schur, _schur_at, solve_interior

CONSISTENCY_DY = 1e-9
CONSISTENCY_DI = 1e-7
MERGE_WINDOW = 1e-7
ACCEPT_RESIDUAL = 1e-6
LINEAR_TABLE_SPAN = 4.0  # exact linear tables cover [-span, span]
LINEAR_TABLE_POINTS = 33
TABLE_PAD = 0.02  # table validity extends this fraction of its span past each end
HOLDOUT_SHRINK = 0.8  # held-out box, relative to the sampling box
HOLDOUT_COUNT = 50  # held-out samples per residual
INTEGRABILITY_STEP = 1e-3
INTEGRABILITY_POINTS = 4


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic boundary sampling: uniform box, gauge-fixed.

    Samples are drawn uniformly in [-scale, scale]^{n_B} and the last
    component is subtracted (shift invariance makes one representative per
    gauge orbit sufficient).  HOLDOUT_COUNT held-out samples come from a
    disjoint seed and a box HOLDOUT_SHRINK times as large, so they stay
    inside the recovered tables.
    """

    count: int = 64
    scale: float = 2.0
    seed: int = 0

    def boundary_samples(self, n_boundary: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        u = rng.uniform(-self.scale, self.scale, (self.count, n_boundary))
        return u - u[:, -1:]

    def holdout_samples(self, n_boundary: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 9973)
        half = HOLDOUT_SHRINK * self.scale
        u = rng.uniform(-half, half, (HOLDOUT_COUNT, n_boundary))
        return u - u[:, -1:]


# ---------------------------------------------------------------------------
# Monotone tables


def monotone_cubic(x: np.ndarray, y: np.ndarray) -> HermiteCubic:
    """Monotone piecewise-cubic Hermite interpolant of increasing data.

    Slopes are the derivative of the C2 not-a-knot cubic spline at the
    knots, limited to the Fritsch-Carlson box [0, 3 min(adjacent secants)],
    which guarantees the interpolant is monotone while keeping near-spline
    accuracy wherever the limiter does not bind.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two samples to interpolate")
    secants = np.diff(y) / np.diff(x)
    slopes = spline(x, y).derivative(x)
    limit = np.empty_like(slopes)
    limit[0] = 3.0 * secants[0]
    limit[-1] = 3.0 * secants[-1]
    limit[1:-1] = 3.0 * np.minimum(secants[:-1], secants[1:])
    slopes = np.clip(slopes, 0.0, limit)
    return HermiteCubic(x, y, slopes)


class TableLaw:
    """Edge law backed by a monotone sample table.

    Provides the same evaluation protocol as a parsed law: g_at, gp_at and
    cocontent (anchored at 0) on arrays of edge values, contains,
    validity_interval and a sampled convexity margin.  The three evaluations
    are the ``monotone_cubic`` interpolant, its exact derivative and its
    exact antiderivative.  An extrapolation pad of TABLE_PAD times the
    sampled range at each end keeps held-out evaluation robust.
    """

    def __init__(self, y: np.ndarray, current: np.ndarray):
        self.y = np.asarray(y, dtype=float)
        self.current = np.asarray(current, dtype=float)
        self._f = monotone_cubic(self.y, self.current)
        self._anchor = float(self._f.antiderivative(0.0))
        pad = TABLE_PAD * (self.y[-1] - self.y[0])
        self.validity_interval = (float(self.y[0] - pad), float(self.y[-1] + pad))
        grid = np.linspace(self.y[0], self.y[-1], 513)
        self.convexity_margin = float(np.min(self._f.derivative(grid)))

    def contains(self, y: float) -> bool:
        lo, hi = self.validity_interval
        return lo <= y <= hi

    def g_at(self, y):
        return self._f(y)

    def gp_at(self, y):
        return self._f.derivative(y)

    def cocontent(self, y: np.ndarray) -> np.ndarray:
        return self._f.antiderivative(y) - self._anchor


@dataclass
class EdgeTable:
    """Strictly increasing (value, current) samples, anchored co-content and their law."""

    y: np.ndarray
    current: np.ndarray
    cocontent: np.ndarray
    _law: TableLaw = field(repr=False)

    def law(self) -> TableLaw:
        return self._law


def _make_table(y: np.ndarray, current: np.ndarray) -> EdgeTable:
    law = TableLaw(y, current)
    return EdgeTable(law.y, law.current, law.cocontent(law.y), law)


# ---------------------------------------------------------------------------
# Certificates and results


@dataclass
class AssumptionCertificate:
    samples_used: int
    support_stable: bool
    supports: tuple  # per-sample frozensets of boundary index pairs
    acyclic: bool | None = None
    consistency_residual: float | None = None
    integrability_max_asymmetry: float | None = None
    accepted: bool | None = None
    exact_linear: bool = False


@dataclass
class ReducedNetwork:
    """Reduced graph on the boundary nodes with recovered edge tables."""

    graph: DirectedGraph
    edge_tables: tuple
    certificate: AssumptionCertificate

    def laws(self) -> list[TableLaw]:
        return [t.law() for t in self.edge_tables]

    def as_network(self) -> Network:
        """View the reduction as an ordinary network (all nodes boundary)."""
        return build_network(self.graph, self.laws(), self.graph.node_ids)


# ---------------------------------------------------------------------------
# Reduced Hessian and support inference


def reduced_hessian(net: Network, z_b) -> np.ndarray:
    """Schur complement of the Hessian over the central block at z_C(z_B)."""
    return _schur_at(net, solve_interior(net, z_b))[0]


def boundary_ids(net: Network) -> tuple[str, ...]:
    return tuple(net.graph.node_ids[i] for i in net.partition.boundary)


def infer_reduced_graph(net: Network, plan: SamplingPlan) -> tuple[DirectedGraph, AssumptionCertificate]:
    """Sample reduced Hessians and read the edge support off their pattern.

    The returned graph uses the union support over all samples, oriented
    lower boundary index = tail; the certificate records whether the
    support was identical at every sample.
    """
    if plan.count < 2:
        raise ValueError("need at least 2 samples to certify the support")
    ids = boundary_ids(net)
    samples = plan.boundary_samples(len(ids))
    hessians = [reduced_hessian(net, zb) for zb in samples]
    supports = tuple(_support(h) for h in hessians)
    union = sorted(set().union(*supports))
    stable = all(s == supports[0] for s in supports)
    graph = DirectedGraph(ids, tuple((ids[i], ids[k]) for i, k in union))
    if len(ids) > 1 and not is_connected(graph):
        raise AssumptionError("inferred reduced support is not connected")
    certificate = AssumptionCertificate(
        samples_used=len(samples),
        support_stable=stable,
        supports=supports,
        acyclic=is_acyclic(graph),
    )
    return graph, certificate


# ---------------------------------------------------------------------------
# Law recovery


def _pool_edge_samples(ys: np.ndarray, currents: np.ndarray, context: str):
    """Sort, consistency-check, and merge near-duplicate sample pairs."""
    order = np.argsort(ys, kind="stable")
    y = ys[order]
    i = currents[order]
    close = np.diff(y) <= CONSISTENCY_DY
    if close.any():
        bad = np.abs(np.diff(i)[close]) > CONSISTENCY_DI
        if bad.any():
            raise AssumptionError(
                f"{context}: recovered currents are not single-valued in the edge value "
                "(per-edge diagonal structure violated)"
            )
    my, mi = _merge_runs(y, i)
    if len(my) < 2:
        raise AssumptionError(f"{context}: not enough distinct samples to build a table")
    if not (np.diff(mi) > 0).all():
        raise AssumptionError(f"{context}: pooled edge currents are not strictly increasing")
    return my, mi


def _merge_runs(y: np.ndarray, v: np.ndarray):
    """Average each run of sorted ``y`` within MERGE_WINDOW of the run's first value."""
    merged_y = []
    merged_v = []
    start = 0
    while start < len(y):
        stop = start + 1
        while stop < len(y) and y[stop] - y[start] <= MERGE_WINDOW:
            stop += 1
        merged_y.append(float(np.mean(y[start:stop])))
        merged_v.append(float(np.mean(v[start:stop])))
        start = stop
    return np.asarray(merged_y), np.asarray(merged_v)


def _solve_samples(net: Network, reduced_graph: DirectedGraph, samples: np.ndarray):
    """Solve every boundary sample (one per row of ``samples``) on ``net``.

    Returns the reduced incidence ``dhat``, the solves, and one row per
    sample of edge values ``dhat.T @ z_B`` and of boundary currents J_B.
    """
    dhat = build_incidence(reduced_graph)
    results = [solve_interior(net, zb) for zb in samples]
    return dhat, results, samples @ dhat, np.array([res.j_b for res in results])


def _exact_edge_currents(dhat: np.ndarray, j_b: np.ndarray) -> np.ndarray:
    """Per-edge currents of every sample (one row of ``j_b`` each) on a forest."""
    ihat, *_ = np.linalg.lstsq(dhat, j_b.T, rcond=None)
    residual = np.abs(dhat @ ihat - j_b.T).max(axis=0, initial=0.0)
    bad = residual > 1e-8 * (1.0 + np.abs(j_b).max(axis=1, initial=0.0))
    if bad.any():
        raise AssumptionError(
            f"boundary currents are inconsistent with the reduced incidence "
            f"(residual {residual[np.argmax(bad)]:.3e})"
        )
    return ihat.T


def _integrate_slopes(ys: np.ndarray, ws: np.ndarray, context: str):
    """Table nodes of one edge and its law's integral from 0 to each node.

    The sampled (value, slope) pairs are sorted and merged as pooled
    currents are, interpolated by the C2 not-a-knot cubic spline
    (``cubic.spline``) and integrated exactly between nodes.  Each
    increment is floored at the smallest positive sampled slope times the
    gap, so the integral is strictly increasing even where the spline dips.  The value 0 becomes a node unless a
    merged sample lies within MERGE_WINDOW of it; the integral is 0 there.
    """
    order = np.argsort(ys, kind="stable")
    y, w = _merge_runs(ys[order], ws[order])
    if len(y) < 2:
        raise AssumptionError(f"{context}: not enough distinct samples to build a table")
    positive = ws[ws > 0]
    if not positive.size:
        raise AssumptionError(f"{context}: no sampled weight is positive")
    antiderivative = spline(y, w).antiderivative
    zero = int(np.argmin(np.abs(y)))
    if abs(y[zero]) > MERGE_WINDOW:
        zero = int(np.searchsorted(y, 0.0))
        y = np.insert(y, zero, 0.0)
    rise = np.maximum(np.diff(antiderivative(y)), positive.min() * np.diff(y))
    integral = np.concatenate([[0.0], np.cumsum(rise)])
    return y, integral - integral[zero]


def _recover(
    net: Network,
    reduced_graph: DirectedGraph,
    plan: SamplingPlan,
    certificate: AssumptionCertificate | None,
    acyclic: bool,
) -> ReducedNetwork:
    """Both recoveries: solve the samples, build one table per edge, certify.

    Only the tables differ.  On a forest they pool each edge's exact
    currents; on a cyclic graph they integrate each edge's reduced-Hessian
    weights and add the minimum-norm constants.  Every reduction gets the
    held-out residual, and only a cyclic one can be left unaccepted by it.
    """
    samples = plan.boundary_samples(len(reduced_graph.node_ids))
    dhat, results, ys, j_b = _solve_samples(net, reduced_graph, samples)
    labels = [f"edge {tail}->{head}" for tail, head in reduced_graph.edges]
    if acyclic:
        cs = _exact_edge_currents(dhat, j_b)
        tables = [_make_table(*_pool_edge_samples(ys[:, j], cs[:, j], label))
                  for j, label in enumerate(labels)]
    else:
        tails, heads = np.array(reduced_graph.edge_indices()).T
        weights = np.array([-_schur_at(net, res)[0][tails, heads] for res in results])
        nodes, integrals = zip(*(_integrate_slopes(ys[:, j], weights[:, j], label)
                                 for j, label in enumerate(labels)))
        # every sample lies on (or within MERGE_WINDOW of) a node of its edge
        at_samples = np.column_stack([np.interp(ys[:, j], nodes[j], integrals[j])
                                      for j in range(reduced_graph.m)])
        base, *_ = np.linalg.lstsq(dhat, (j_b - at_samples @ dhat.T).mean(axis=0), rcond=None)
        tables = [_make_table(y, integral + c) for y, integral, c in zip(nodes, integrals, base)]
    if certificate is None:
        certificate = AssumptionCertificate(len(samples), True, ())
    certificate = replace(certificate, acyclic=acyclic)
    reduced = ReducedNetwork(reduced_graph, tuple(tables), certificate)
    report = holdout_residual(net, reduced, plan)
    certificate.consistency_residual = report.max_abs
    certificate.accepted = acyclic or report.max_abs <= ACCEPT_RESIDUAL
    return reduced


def recover_edge_laws_acyclic(
    net: Network,
    reduced_graph: DirectedGraph,
    plan: SamplingPlan,
    certificate: AssumptionCertificate | None = None,
) -> ReducedNetwork:
    """Recover per-edge laws exactly on an acyclic reduced graph.

    With ker of the reduced incidence trivial, each sampled boundary
    current vector determines the per-edge currents uniquely; pooled
    (value, current) pairs per edge are tabulated and interpolated.  The
    per-sample currents are exact, so the recovery is accepted
    unconditionally; the held-out residual reports interpolation quality.
    """
    if not is_acyclic(reduced_graph):
        raise AssumptionError("reduced graph has cycles; acyclic recovery does not apply")
    return _recover(net, reduced_graph, plan, certificate, acyclic=True)


def recover_edge_laws_cyclic(
    net: Network,
    reduced_graph: DirectedGraph,
    plan: SamplingPlan,
    certificate: AssumptionCertificate | None = None,
) -> ReducedNetwork:
    """Best-effort recovery when the reduced graph has cycles.

    Per sample the edge currents are determined only up to the cycle
    space, but the negated off-diagonal entries of each sample's reduced
    Hessian give every edge's slope g_j'(y_j) directly.  Each law is the
    integral of its slopes from y = 0 plus a constant g_j(0); the constants
    are the minimum-norm least-squares solution of
    dhat @ g(0) = mean over samples of (J_B - dhat @ integral), so they add
    no circulating current along the cycle space.  The certificate records
    the held-out consistency residual; the reduction is accepted when it is
    small and returned flagged otherwise.  When the graph is actually
    acyclic the exact recovery runs instead.
    """
    if is_acyclic(reduced_graph):
        return recover_edge_laws_acyclic(net, reduced_graph, plan, certificate)
    return _recover(net, reduced_graph, plan, certificate, acyclic=False)


@dataclass(frozen=True)
class HoldoutReport:
    max_abs: float
    max_rel: float  # residual / (1 + max |J_B|), worst over samples
    count: int


def holdout_residual(net: Network, reduced: ReducedNetwork, plan: SamplingPlan) -> HoldoutReport:
    """Input-output mismatch of the recovered tables on the plan's held-out samples."""
    samples = plan.holdout_samples(len(reduced.graph.node_ids))
    dhat, _, ys, j_b = _solve_samples(net, reduced.graph, samples)
    currents = np.empty_like(ys)
    for j, law in enumerate(reduced.laws()):
        currents[:, j] = law.g_at(ys[:, j])
    gaps = np.abs(currents @ dhat.T - j_b).max(axis=1, initial=0.0)
    scales = 1.0 + np.abs(j_b).max(axis=1, initial=0.0)
    return HoldoutReport(float(gaps.max(initial=0.0)), float((gaps / scales).max(initial=0.0)),
                         len(samples))


# ---------------------------------------------------------------------------
# Integrability diagnostic


def integrability_diagnostic(
    net: Network,
    reduced_graph: DirectedGraph,
    plan: SamplingPlan,
    candidate: ReducedNetwork,
) -> float:
    """Cross-derivative asymmetry of the cycle-space correction.

    The gap between the sampled reduced-Hessian weights and the fitted
    per-edge slopes is projected onto the cycle space; if that correction
    field were the Hessian of some function its directional derivatives
    would commute.  Returns the maximum observed asymmetry (0 for acyclic
    reductions) over the first INTEGRABILITY_POINTS samples, by central
    differences of step INTEGRABILITY_STEP.  Edge-coordinate perturbations
    are realized through boundary perturbations, i.e. projected onto the
    realizable subspace.  The reduced graph must be oriented lower boundary
    index = tail, as ``infer_reduced_graph`` returns it.
    """
    f = fundamental_cycles(reduced_graph)
    if f.shape[1] == 0:
        return 0.0
    dhat = build_incidence(reduced_graph)
    ids = reduced_graph.node_ids
    laws = candidate.laws()
    m_hat = reduced_graph.m
    pairs = reduced_graph.edge_indices()
    tails, heads = np.array(pairs).T
    pinv_dt = np.linalg.pinv(dhat.T)
    pinv_f = np.linalg.pinv(f)

    def correction(zb: np.ndarray) -> np.ndarray:
        h = reduced_hessian(net, zb)
        extra = sorted(_support(h).difference(pairs))
        if extra:
            i, k = extra[0]
            raise AssumptionError(
                f"support changed under perturbation: unexpected edge {ids[i]}->{ids[k]}"
            )
        w = -h[tails, heads]
        yh = dhat.T @ zb
        r = np.diag(w - np.array([laws[j].gp_at(yh[j]) for j in range(m_hat)]))
        s = pinv_f @ r @ pinv_f.T
        return f @ s @ f.T

    worst = 0.0
    for zb in plan.boundary_samples(len(ids))[:INTEGRABILITY_POINTS]:
        grads = []
        for k in range(m_hat):
            delta = INTEGRABILITY_STEP * (pinv_dt @ np.eye(m_hat)[k])
            grads.append((correction(zb + delta) - correction(zb - delta))
                         / (2.0 * INTEGRABILITY_STEP))
        for k in range(m_hat):
            for i in range(m_hat):
                gap = float(np.abs(grads[k][i, :] - grads[i][k, :]).max())
                worst = max(worst, gap)
    return worst


# ---------------------------------------------------------------------------
# Effective two-terminal curves


@dataclass(frozen=True)
class CurvePoint:
    v: float
    current: float
    cocontent: float
    converged: bool
    message: str = ""


def effective_curve(net: Network, a: str, b: str, v_grid) -> list[CurvePoint]:
    """Two-terminal response: current into ``a`` and anchored co-content.

    Keeps only ``a`` and ``b`` as boundary (everything else is eliminated),
    sets the potential at ``a`` to V and at ``b`` to 0, and records the
    nodal current at ``a``.  Failed solves are marked, not raised.
    """
    if a == b:
        raise ValueError("terminals must differ")
    ia = net.graph.index(a)
    ib = net.graph.index(b)
    central = tuple(i for i in range(net.graph.n) if i not in (ia, ib))
    two_terminal = replace(net, partition=NodePartition((ia, ib), central))

    try:
        anchor = k_value(two_terminal, solve_interior(two_terminal, np.zeros(2)).z_full)
    except SolveError:  # anchor failure poisons only the co-content column
        anchor = None

    points = []
    for v in np.asarray(v_grid, dtype=float):
        try:
            res = solve_interior(two_terminal, np.array([v, 0.0]))
        except SolveError as exc:
            points.append(CurvePoint(float(v), float("nan"), float("nan"), False, str(exc)))
            continue
        current = float(res.j_b[0])
        if anchor is None:
            points.append(CurvePoint(float(v), current, float("nan"), True,
                                     "no co-content anchor (solve at 0 failed)"))
        else:
            g = k_value(two_terminal, res.z_full) - anchor
            points.append(CurvePoint(float(v), current, float(g), True))
    return points


# ---------------------------------------------------------------------------
# Exact linear fast path


def _is_quadratic(law) -> bool:
    if not isinstance(law, EdgeLaw):
        return False
    second = differentiate(law.g_prime)
    probes = np.linspace(law.validity_interval[0], law.validity_interval[1], 7)
    if np.abs(np.asarray(evaluate(second, probes), dtype=float)).max() > 1e-12:
        return False
    return abs(float(law.g_at(0.0))) <= 1e-12


def is_all_quadratic(net: Network) -> bool:
    return all(_is_quadratic(law) for law in net.laws)


def _line_table(weight: float) -> EdgeTable:
    y = np.linspace(-LINEAR_TABLE_SPAN, LINEAR_TABLE_SPAN, LINEAR_TABLE_POINTS)
    return _make_table(y, weight * y)


def reduce_linear(net: Network) -> ReducedNetwork:
    """One-shot exact reduction for networks of laws g(y) = w y.

    Takes the Schur complement of the constant Laplacian over the central
    block and reads the reduced graph and weights straight off it; no
    sampling and no interior solves.  Tables are exact lines.  As on the
    sampled path, parallel edges merge into one, oriented lower boundary
    index = tail, also when no node is central.
    """
    weights = []
    for j, law in enumerate(net.laws):
        if not _is_quadratic(law):
            raise NonQuadraticLawError(edge_label(net, j))
        weights.append(float(law.gp_at(0.0)))
    ids = boundary_ids(net)
    certificate = AssumptionCertificate(
        samples_used=0, support_stable=True, supports=(),
        consistency_residual=0.0, integrability_max_asymmetry=0.0,
        accepted=True, exact_linear=True,
    )
    graph, reduced_weights = graph_from_laplacian(_schur(net, np.asarray(weights))[0], ids)
    certificate.acyclic = is_acyclic(graph)
    tables = tuple(_line_table(w) for w in reduced_weights)
    return ReducedNetwork(graph, tables, certificate)


# ---------------------------------------------------------------------------
# Orchestration


def reduce_network(net: Network, plan: SamplingPlan | None = None) -> ReducedNetwork:
    """Full reduction pipeline with certificates.

    All-quadratic networks take the exact linear path.  Otherwise the
    reduced support is inferred by sampling, laws are recovered (exactly
    for acyclic supports, by integrating the reduced Hessian's edge weights
    otherwise), and the certificate is completed with held-out residuals
    and the integrability diagnostic, which is 0 on acyclic supports.
    """
    plan = plan or SamplingPlan()
    if is_all_quadratic(net):
        return reduce_linear(net)
    graph, certificate = infer_reduced_graph(net, plan)
    # the cyclic recovery hands an acyclic support to the exact one
    reduced = recover_edge_laws_cyclic(net, graph, plan, certificate)
    reduced.certificate.integrability_max_asymmetry = integrability_diagnostic(
        net, graph, plan, reduced
    )
    return reduced
