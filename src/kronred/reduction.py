"""Kron reduction: reduced Hessians, support inference, law recovery.

The reduced Hessian at a boundary assignment is the Schur complement of the
weighted Laplacian over the central block, evaluated at the solved interior
point.  Its off-diagonal support defines the reduced graph.  On acyclic
reduced graphs the boundary currents determine the per-edge currents
exactly, so per-edge laws are recovered as monotone sample tables.  On
cyclic reduced graphs the currents are determined only up to the cycle
space and the recovery is a least-squares fit, certified by held-out
residuals and an integrability diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.interpolate import BSpline, CubicHermiteSpline, CubicSpline, PchipInterpolator
from scipy.linalg import block_diag
from scipy.optimize import lsq_linear

from .errors import AssumptionError, NonQuadraticLawError, SolveError
from .exprlaw import differentiate, evaluate
from .graph import (
    DirectedGraph,
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
    weighted_laplacian,
)
from .solver import solve_interior

SUPPORT_ABS_TOL = 1e-10
SUPPORT_REL_TOL = 1e-9
CONSISTENCY_DY = 1e-9
CONSISTENCY_DI = 1e-7
MERGE_WINDOW = 1e-7
ACCEPT_RESIDUAL = 1e-6
LINEAR_TABLE_SPAN = 4.0


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SamplingPlan:
    """Deterministic boundary sampling: uniform box, gauge-fixed.

    Samples are drawn uniformly in [-scale, scale]^{n_B} and the last
    component is subtracted (shift invariance makes one representative per
    gauge orbit sufficient).  Held-out samples come from a disjoint seed
    and a slightly smaller box so they stay inside the recovered tables.
    """

    count: int = 64
    scale: float = 2.0
    seed: int = 0

    def boundary_samples(self, n_boundary: int) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        u = rng.uniform(-self.scale, self.scale, (self.count, n_boundary))
        return u - u[:, -1:]

    def holdout_samples(self, n_boundary: int, count: int = 50, factor: float = 0.8) -> np.ndarray:
        rng = np.random.default_rng(self.seed + 9973)
        u = rng.uniform(-factor * self.scale, factor * self.scale, (count, n_boundary))
        return u - u[:, -1:]


# ---------------------------------------------------------------------------
# Monotone tables


def monotone_cubic(x: np.ndarray, y: np.ndarray):
    """Monotone piecewise-cubic Hermite interpolant of increasing data.

    Slopes come from a C2 cubic spline and are then limited to the
    Fritsch-Carlson box [0, 3 min(adjacent secants)], which guarantees the
    interpolant is monotone while keeping near-spline accuracy wherever the
    limiter does not bind.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least two samples to interpolate")
    if len(x) < 4:
        return PchipInterpolator(x, y)
    secants = np.diff(y) / np.diff(x)
    slopes = CubicSpline(x, y).derivative()(x)
    limit = np.empty_like(slopes)
    limit[0] = 3.0 * secants[0]
    limit[-1] = 3.0 * secants[-1]
    limit[1:-1] = 3.0 * np.minimum(secants[:-1], secants[1:])
    slopes = np.clip(slopes, 0.0, limit)
    return CubicHermiteSpline(x, y, slopes)


class TableLaw:
    """Edge law backed by a monotone sample table.

    Provides the same evaluation protocol as a parsed law: g_at, gp_at,
    cocontent (anchored at 0), contains, validity_interval and a sampled
    convexity margin.  A small extrapolation pad beyond the sampled range
    keeps held-out evaluation robust.
    """

    kind = "table"

    def __init__(self, y: np.ndarray, current: np.ndarray, pad_fraction: float = 0.02):
        self.y = np.asarray(y, dtype=float)
        self.current = np.asarray(current, dtype=float)
        self._f = monotone_cubic(self.y, self.current)
        self._fp = self._f.derivative()
        self._anti = self._f.antiderivative()
        self._anchor = float(self._anti(0.0))
        pad = pad_fraction * (self.y[-1] - self.y[0])
        self.validity_interval = (float(self.y[0] - pad), float(self.y[-1] + pad))
        grid = np.linspace(self.y[0], self.y[-1], 513)
        self.convexity_margin = float(np.min(self._fp(grid)))
        self.source = f"table[{len(self.y)}]"

    def contains(self, y: float) -> bool:
        lo, hi = self.validity_interval
        return lo <= y <= hi

    def g_at(self, y):
        return self._f(y)

    def gp_at(self, y):
        return self._fp(y)

    def cocontent(self, y: float) -> float:
        return float(self._anti(y) - self._anchor)


@dataclass
class EdgeTable:
    """Strictly increasing (value, current) samples plus anchored co-content."""

    y: np.ndarray
    current: np.ndarray
    cocontent: np.ndarray
    _law: TableLaw | None = field(default=None, repr=False)

    def law(self) -> TableLaw:
        if self._law is None:
            self._law = TableLaw(self.y, self.current)
        return self._law


def _make_table(y: np.ndarray, current: np.ndarray) -> EdgeTable:
    law = TableLaw(y, current)
    g = law._anti(y) - law._anchor
    return EdgeTable(np.asarray(y, float), np.asarray(current, float), g, law)


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
    interpolation: str = "monotone-cubic"

    def laws(self) -> list[TableLaw]:
        return [t.law() for t in self.edge_tables]

    def as_network(self) -> Network:
        """View the reduction as an ordinary network (all nodes boundary)."""
        return build_network(self.graph, self.laws(), self.graph.node_ids)


@dataclass(frozen=True)
class CycleSpace:
    """Columns span ker of the reduced incidence matrix."""

    matrix: np.ndarray


def cycle_space(graph: DirectedGraph) -> CycleSpace:
    return CycleSpace(fundamental_cycles(graph))


# ---------------------------------------------------------------------------
# Reduced Hessian and support inference


def schur_complement(matrix: np.ndarray, keep, elim) -> np.ndarray:
    keep = list(keep)
    elim = list(elim)
    if not elim:
        return matrix[np.ix_(keep, keep)]
    a = matrix[np.ix_(keep, keep)]
    b = matrix[np.ix_(keep, elim)]
    c = matrix[np.ix_(elim, elim)]
    return a - b @ np.linalg.solve(c, b.T)


def reduced_hessian(net: Network, z_b) -> np.ndarray:
    """Schur complement of the Hessian over the central block at z_C(z_B)."""
    result = solve_interior(net, z_b)
    h = weighted_laplacian(net, result.z_full)
    return schur_complement(h, net.partition.boundary, net.partition.central)


def boundary_ids(net: Network) -> tuple[str, ...]:
    return tuple(net.graph.node_ids[i] for i in net.partition.boundary)


def _support_of(h: np.ndarray) -> frozenset:
    n = h.shape[0]
    tau = SUPPORT_ABS_TOL + SUPPORT_REL_TOL * (np.abs(np.diag(h)).max() if n else 0.0)
    return frozenset(
        (i, k) for i in range(n) for k in range(i + 1, n) if abs(h[i, k]) > tau
    )


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
    supports = tuple(_support_of(h) for h in hessians)
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
    merged_y = []
    merged_i = []
    start = 0
    while start < len(y):
        stop = start + 1
        while stop < len(y) and y[stop] - y[start] <= MERGE_WINDOW:
            stop += 1
        merged_y.append(float(np.mean(y[start:stop])))
        merged_i.append(float(np.mean(i[start:stop])))
        start = stop
    my = np.asarray(merged_y)
    mi = np.asarray(merged_i)
    if len(my) < 2:
        raise AssumptionError(f"{context}: not enough distinct samples to build a table")
    if not (np.diff(mi) > 0).all():
        raise AssumptionError(f"{context}: pooled edge currents are not strictly increasing")
    return my, mi


def _solved_samples(net: Network, samples: np.ndarray):
    return [solve_interior(net, zb) for zb in samples]


def _exact_edge_currents(dhat: np.ndarray, j_b: np.ndarray) -> np.ndarray:
    ihat, *_ = np.linalg.lstsq(dhat, j_b, rcond=None)
    residual = np.abs(dhat @ ihat - j_b).max(initial=0.0)
    if residual > 1e-8 * (1.0 + np.abs(j_b).max(initial=0.0)):
        raise AssumptionError(
            f"boundary currents are inconsistent with the reduced incidence "
            f"(residual {residual:.3e})"
        )
    return ihat


def recover_edge_laws_acyclic(
    net: Network,
    reduced_graph: DirectedGraph,
    plan: SamplingPlan,
    certificate: AssumptionCertificate | None = None,
) -> ReducedNetwork:
    """Recover per-edge laws exactly on an acyclic reduced graph.

    With ker of the reduced incidence trivial, each sampled boundary
    current vector determines the per-edge currents uniquely; pooled
    (value, current) pairs per edge are tabulated and interpolated.
    """
    if not is_acyclic(reduced_graph):
        raise AssumptionError("reduced graph has cycles; acyclic recovery does not apply")
    dhat = build_incidence(reduced_graph)
    samples = plan.boundary_samples(len(reduced_graph.node_ids))
    results = _solved_samples(net, samples)
    m_hat = reduced_graph.m
    ys = np.empty((len(samples), m_hat))
    cs = np.empty((len(samples), m_hat))
    for s, (zb, res) in enumerate(zip(samples, results)):
        ys[s] = dhat.T @ zb
        cs[s] = _exact_edge_currents(dhat, res.j_b)
    tables = []
    for j in range(m_hat):
        tail, head = reduced_graph.edges[j]
        y, i = _pool_edge_samples(ys[:, j], cs[:, j], f"edge {tail}->{head}")
        tables.append(_make_table(y, i))
    if certificate is None:
        certificate = AssumptionCertificate(len(samples), True, ())
    certificate = replace(certificate, acyclic=True)
    reduced = ReducedNetwork(reduced_graph, tuple(tables), certificate)
    # per-sample currents are exact here, so the recovery is accepted
    # unconditionally; the held-out residual reports interpolation quality
    report = holdout_residual(net, reduced, plan)
    certificate.consistency_residual = report.max_abs
    certificate.accepted = True
    return reduced


def _spline_knots(lo: float, hi: float, interior: int) -> np.ndarray:
    inner = np.linspace(lo, hi, interior + 2)[1:-1]
    return np.concatenate([[lo] * 4, inner, [hi] * 4])


def recover_edge_laws_cyclic(
    net: Network,
    reduced_graph: DirectedGraph,
    plan: SamplingPlan,
    certificate: AssumptionCertificate | None = None,
) -> ReducedNetwork:
    """Best-effort recovery when the reduced graph has cycles.

    Per sample the edge currents are determined only up to the cycle
    space, so per-edge functions are fitted jointly by least squares in a
    monotone cubic spline basis; constant shifts along the cycle space are
    an unavoidable gauge, pinned by a tiny ridge on the base values.  The
    certificate records the held-out consistency residual; the reduction
    is accepted when it is small and returned flagged otherwise.  When the
    graph is actually acyclic the fit degenerates to the exact recovery.
    """
    dhat = build_incidence(reduced_graph)
    ids = reduced_graph.node_ids
    if is_acyclic(reduced_graph):
        return recover_edge_laws_acyclic(net, reduced_graph, plan, certificate)

    samples = plan.boundary_samples(len(ids))
    results = _solved_samples(net, samples)
    m_hat = reduced_graph.m
    ys = samples @ dhat  # (count, m_hat); row s is dhat.T @ samples[s]
    kernel_dim = fundamental_cycles(reduced_graph).shape[1]

    interior = int(np.clip(plan.count // 8, 4, 16))
    knots = []
    offsets = [0]
    for j in range(m_hat):
        lo = float(ys[:, j].min()) - 1e-9
        hi = float(ys[:, j].max()) + 1e-9
        t = _spline_knots(lo, hi, interior)
        knots.append(t)
        offsets.append(offsets[-1] + len(t) - 4)
    total = offsets[-1]

    rows = []
    rhs = []
    for s, res in enumerate(results):
        x = np.zeros((m_hat, total))
        for j in range(m_hat):
            cols = BSpline.design_matrix(np.array([ys[s, j]]), knots[j], 3).toarray()[0]
            x[j, offsets[j]:offsets[j + 1]] = cols
        rows.append(dhat @ x)
        rhs.append(results[s].j_b)
    a = np.vstack(rows)
    b = np.concatenate(rhs)
    rank = np.linalg.matrix_rank(a)
    if rank < total - kernel_dim:
        raise AssumptionError(
            f"least-squares rank deficiency ({rank} < {total - kernel_dim}): too few samples"
        )
    # monotone spline parameterization: per edge, coefficients are a free
    # base value plus cumulative nonnegative increments, so every candidate
    # is a nondecreasing spline by construction
    tmat = block_diag(*(np.tril(np.ones((offsets[j + 1] - offsets[j],) * 2))
                        for j in range(m_hat)))
    lower = np.zeros(total)
    for j in range(m_hat):
        lower[offsets[j]] = -np.inf
    # tiny ridge on the base values pins the unobservable constant shifts
    # along the cycle space without touching any slope
    ridge = np.zeros((m_hat, total))
    for j in range(m_hat):
        ridge[j, offsets[j]] = 1e-6
    design = np.vstack([a @ tmat, ridge])
    target = np.concatenate([b, np.zeros(m_hat)])
    fit = lsq_linear(design, target, bounds=(lower, np.full(total, np.inf)), method="bvls")
    coeffs = tmat @ fit.x

    fitted = []
    for j in range(m_hat):
        increments = np.diff(coeffs[offsets[j]:offsets[j + 1]])
        if increments.min(initial=0.0) < -1e-12:  # cannot happen with the bounds
            tail, head = reduced_graph.edges[j]
            raise AssumptionError(f"fitted law on edge {tail}->{head} is not monotone")
        fitted.append(BSpline(knots[j], coeffs[offsets[j]:offsets[j + 1]], 3))

    # strict monotonicity is enforced where the tables sample the fit; a fit
    # clamped flat across samples surfaces here as a pooling failure
    tables = []
    for j in range(m_hat):
        tail, head = reduced_graph.edges[j]
        y, i = _pool_edge_samples(ys[:, j], fitted[j](ys[:, j]), f"edge {tail}->{head}")
        tables.append(_make_table(y, i))
    if certificate is None:
        certificate = AssumptionCertificate(len(samples), True, ())
    certificate = replace(certificate, acyclic=False)
    reduced = ReducedNetwork(reduced_graph, tuple(tables), certificate)
    report = holdout_residual(net, reduced, plan)
    certificate.consistency_residual = report.max_abs
    certificate.accepted = report.max_abs <= ACCEPT_RESIDUAL
    return reduced


@dataclass(frozen=True)
class HoldoutReport:
    max_abs: float
    max_rel: float  # residual / (1 + max |J_B|), worst over samples
    count: int


def holdout_residual(net: Network, reduced: ReducedNetwork, plan: SamplingPlan,
                     count: int = 50) -> HoldoutReport:
    """Input-output mismatch of the recovered tables on held-out samples."""
    dhat = build_incidence(reduced.graph)
    laws = reduced.laws()
    samples = plan.holdout_samples(len(reduced.graph.node_ids), count)
    results = _solved_samples(net, samples)
    ys = samples @ dhat  # (count, m_hat); row s is dhat.T @ samples[s]
    currents = np.empty_like(ys)
    for j, law in enumerate(laws):
        currents[:, j] = law.g_at(ys[:, j])
    worst_abs = 0.0
    worst_rel = 0.0
    for current, res in zip(currents, results):
        pred = dhat @ current
        gap = float(np.abs(pred - res.j_b).max(initial=0.0))
        scale = 1.0 + float(np.abs(res.j_b).max(initial=0.0))
        worst_abs = max(worst_abs, gap)
        worst_rel = max(worst_rel, gap / scale)
    return HoldoutReport(worst_abs, worst_rel, len(samples))


# ---------------------------------------------------------------------------
# Integrability diagnostic


def integrability_diagnostic(
    net: Network,
    reduced_graph: DirectedGraph,
    cycles: CycleSpace,
    plan: SamplingPlan,
    candidate: ReducedNetwork,
    step: float = 1e-3,
    max_points: int = 4,
) -> float:
    """Cross-derivative asymmetry of the cycle-space correction.

    The gap between the sampled reduced-Hessian weights and the fitted
    per-edge slopes is projected onto the cycle space; if that correction
    field were the Hessian of some function its directional derivatives
    would commute.  Returns the maximum observed asymmetry (0 for acyclic
    reductions).  Edge-coordinate perturbations are realized through
    boundary perturbations, i.e. projected onto the realizable subspace.
    """
    f = cycles.matrix
    if f.shape[1] == 0:
        return 0.0
    dhat = build_incidence(reduced_graph)
    ids = reduced_graph.node_ids
    laws = candidate.laws()
    m_hat = reduced_graph.m
    slot = {edge: j for j, edge in enumerate(reduced_graph.edges)}
    pinv_dt = np.linalg.pinv(dhat.T)
    pinv_f = np.linalg.pinv(f)

    def correction(zb: np.ndarray) -> np.ndarray:
        h = reduced_hessian(net, zb)
        support_graph, weights = graph_from_laplacian(h, ids)
        w = np.zeros(m_hat)
        for edge, weight in zip(support_graph.edges, weights):
            if edge not in slot:
                raise AssumptionError(
                    f"support changed under perturbation: unexpected edge {edge[0]}->{edge[1]}"
                )
            w[slot[edge]] = weight
        yh = dhat.T @ zb
        r = np.diag(w - np.array([laws[j].gp_at(yh[j]) for j in range(m_hat)]))
        s = pinv_f @ r @ pinv_f.T
        return f @ s @ f.T

    worst = 0.0
    for zb in plan.boundary_samples(len(ids))[:max_points]:
        grads = []
        for k in range(m_hat):
            delta = pinv_dt @ np.eye(m_hat)[k]
            plus = correction(zb + step * delta)
            minus = correction(zb - step * delta)
            grads.append((plus - minus) / (2.0 * step))
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
    if not hasattr(law, "g"):
        return False
    second = differentiate(law.g_prime)
    probes = np.linspace(law.validity_interval[0], law.validity_interval[1], 7)
    if np.abs(np.asarray(evaluate(second, probes), dtype=float)).max() > 1e-12:
        return False
    return abs(float(law.g_at(0.0))) <= 1e-12


def is_all_quadratic(net: Network) -> bool:
    return all(_is_quadratic(law) for law in net.laws)


def _line_table(weight: float, span: float = LINEAR_TABLE_SPAN, points: int = 33) -> EdgeTable:
    y = np.linspace(-span, span, points)
    return _make_table(y, weight * y)


def reduce_linear(net: Network) -> ReducedNetwork:
    """One-shot exact reduction for networks of laws g(y) = w y.

    Takes the Schur complement of the constant Laplacian over the central
    block and reads the reduced graph and weights straight off it; no
    sampling and no interior solves.  Tables are exact lines.
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
    if not net.partition.central:
        graph = DirectedGraph(ids, net.graph.edges)
        certificate.acyclic = is_acyclic(graph)
        tables = tuple(_line_table(w) for w in weights)
        return ReducedNetwork(graph, tables, certificate)
    laplacian = (net.incidence * np.asarray(weights)) @ net.incidence.T
    schur = schur_complement(laplacian, net.partition.boundary, net.partition.central)
    graph, reduced_weights = graph_from_laplacian(schur, ids)
    certificate.acyclic = is_acyclic(graph)
    tables = tuple(_line_table(w) for w in reduced_weights)
    return ReducedNetwork(graph, tables, certificate)


# ---------------------------------------------------------------------------
# Orchestration


def reduce_network(net: Network, plan: SamplingPlan | None = None,
                   run_integrability: bool = True) -> ReducedNetwork:
    """Full reduction pipeline with certificates.

    All-quadratic networks take the exact linear path.  Otherwise the
    reduced support is inferred by sampling, laws are recovered (exactly
    for acyclic supports, by monotone least squares otherwise), and the
    certificate is completed with held-out residuals and, for cyclic
    supports, the integrability diagnostic.
    """
    plan = plan or SamplingPlan()
    if is_all_quadratic(net):
        return reduce_linear(net)
    graph, certificate = infer_reduced_graph(net, plan)
    if certificate.acyclic:
        reduced = recover_edge_laws_acyclic(net, graph, plan, certificate)
        reduced.certificate.integrability_max_asymmetry = 0.0
        return reduced
    reduced = recover_edge_laws_cyclic(net, graph, plan, certificate)
    if run_integrability:
        reduced.certificate.integrability_max_asymmetry = integrability_diagnostic(
            net, graph, cycle_space(graph), plan, reduced
        )
    return reduced
