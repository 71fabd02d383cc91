"""Interior elimination: chord and damped Newton steps on the zero-current constraint.

Setting the nodal currents at the central nodes to zero determines the
central potentials as a function z_C(z_B) of the boundary potentials.  The
interior Hessian block is positive definite on connected graphs with
strictly monotone laws, so damped Newton with a residual-decrease line
search converges from any feasible start inside the validity box.  The
start is the interior of the linearized network: every edge weighted by its
slope w_0 at y_0 = 0, as in linear Kron reduction, with that network's
sensitivity and the banded factor of its H_CC formed once per Network
(``_linearization``).  It is exact on a network of lines and takes about
half the Newton iterations of the mean boundary value on mildly nonlinear
ones.

Before any Newton step, chord (simplified-Newton) steps reuse that factor.
H_CC(y) = sum_j g'_j(y_j) d_j d_j^T has the shape of H_CC(y_0), so a chord
step contracts the residual by at most max_j |1 - g'_j(y_j) / w_0j|.  They
run when H_CC is banded (kd >= 1: a diagonal one factors in n_c divisions,
so reusing it saves nothing) and every slope at the start lies within
CHORD_RATE of w_0; each must cut the largest interior current by
CHORD_RATE and stay in the validity box, and the first that does not is
discarded and Newton goes on from there.  On the 32 x 32 grid read row by
row they replace every Newton step, so a reduced Hessian factors H_CC once.

Eliminating the central block of the weighted Laplacian H = D diag(w) D^T
gives the reduced Laplacian H_BB - H_BC H_CC^{-1} H_CB (the Kron reduction
of the network weighted by w) and the sensitivity dz_C/dz_B =
-H_CC^{-1} H_CB; ``_schur`` forms both from one solve against H_CC.

H_CC is symmetric positive definite for strictly increasing laws, so a
Newton step and ``_schur`` eliminate it through one banded Cholesky factor
(``_factor_central``, LAPACK ``dpbtrf``/``dpbtrs`` from scipy's compiled
``_flapack`` module, loaded by ``kronred._lapack``).  H_CC is never
formed: one scatter of the edge list fills its lower band, with the
bandwidth kd that the file's node order gives, and the boundary rows
[H_BB | H_BC] (``potential._packed_laplacian``).  An elimination costs
O(m + n_c kd^2) time and O(m + n_c kd + n_B n) memory, not O(m + n^2) and
O(n_c^3); on a grid read row by row kd is the row length.  No dense n x n
array is made on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dpbtrf, dpbtrs
from .errors import HomogeneityError, IntervalError, SolveError
from .potential import (
    Network,
    _edge_values,
    _first_violation,
    _g_vec,
    _gp_vec,
    _inside_intervals,
    _nodal_sums,
    _packed_laplacian,
    dissipated_power,
    edge_label,
    edge_voltages,
    k_value,
    weighted_laplacian,
)

DEFAULT_TOL = 1e-10  # interior-current tolerance, times the largest edge current when below 1
ROUNDING_TOL = 1024 * float(np.finfo(float).eps)  # its floor, per unit of that current
DEFAULT_MAX_ITER = 100
ARMIJO_C = 1e-4
CHORD_RATE = 0.1  # slopes within this fraction of w_0, and the residual cut each chord step makes
MIN_STEP = 2.0**-60
HOMOGENEITY_PROBES = 20  # random points of the homogeneity test in min_heat_check
HOMOGENEITY_RTOL = 1e-8
MIN_HEAT_STEP = 1e-12  # min_heat_check's search stops once its step is below this
MIN_HEAT_MAX_EVALS = 50_000  # ... or after this many evaluations of the power


@dataclass(frozen=True)
class SolveResult:
    z_c: np.ndarray  # central potentials, in partition.central order: z_full[central]
    j_b: np.ndarray  # boundary nodal currents, in partition.boundary order
    iterations: int
    final_residual: float
    converged: bool
    z_full: np.ndarray  # all node potentials in node-list order, z_B and z_C in their slots


def cho_factor(ab: np.ndarray) -> np.ndarray:
    """Lower banded Cholesky factor of a symmetric positive definite band matrix.

    ``ab`` is the lower band in LAPACK storage, (kd + 1) x n in Fortran
    order, with the diagonal in row 0; the factor L (a = L L^T) comes back
    in the same storage, in place.  Raises LinAlgError when the matrix is
    not positive definite or the factor's diagonal is not finite (pbtrf
    lets NaN through).
    """
    # lower storage: the factorization updates along contiguous columns
    factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0 or not np.isfinite(factor[0]).all():
        raise LinAlgError("matrix is not positive definite")
    return factor


def cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from the banded factor L returned by cho_factor."""
    x, _ = dpbtrs(factor, b, lower=1)
    return x


def _require_finite(net: Network, w: np.ndarray) -> None:
    """Raise SolveError naming the first edge whose weight is not finite."""
    finite = np.isfinite(w)
    if not finite.all():
        raise SolveError("edge weight is not finite", edge=edge_label(net, int(np.argmin(finite))))


def _factor_central(net: Network, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boundary rows [H_BB | H_BC] of the edge weights w, and the banded Cholesky factor of H_CC.

    Both come from one scatter (``_packed_laplacian``).  Raises SolveError
    when H_CC is not positive definite; only then are the weights looked
    at, to name an edge whose weight is not finite.
    """
    band, rows = _packed_laplacian(net, w)
    try:
        return rows, cho_factor(band)
    except LinAlgError as exc:
        _require_finite(net, w)
        raise SolveError("interior Hessian factorization failed") from exc


def solve_interior(net: Network, z_b) -> SolveResult:
    """Solve the zero interior-current constraint for z_C at fixed z_B.

    Iteration starts from z_mean + S_0 (z_B - z_mean), with z_mean the mean
    boundary value and S_0 the sensitivity of the network linearized at
    edge value y_0 (``_linearization``), or from z_mean when that start
    leaves the validity box.  Chord steps z_C -= F_0^{-1} j_C on the
    linearization's banded factor F_0 come first, when H_CC is banded and
    every edge slope w at the start has |w - w_0| <= CHORD_RATE w_0, with
    w_0 its slope at y_0; each must stay inside the box and cut the largest interior current
    by CHORD_RATE, and the first that fails is discarded.  Newton steps on
    the interior block of the weighted Laplacian then go on from the last
    accepted iterate, reusing the slopes the chord test evaluated; a
    halving line search accepts a step once the interior residual norm has
    decreased sufficiently and all edge values stay inside their validity
    intervals.  ``iterations`` counts Newton steps only, one factorization
    each.  Both phases stop once the largest interior current is at most
    max(DEFAULT_TOL min(1, s), ROUNDING_TOL s), where s is the largest edge
    current |g_j(y_j)| at the iterate.  The test is relative to the
    network's own current scale, so multiplying every law by a constant
    leaves z_C the same.  It is never looser than DEFAULT_TOL in absolute
    terms until rounding sets the floor, at currents above ~440
    (ROUNDING_TOL = 1024 eps).  Raises SolveError after DEFAULT_MAX_ITER
    Newton iterations (suspected global solvability failure) or when steps
    cannot stay inside the box.  Raises ValueError on a boundary value that
    is not finite.
    """
    z_b = np.asarray(z_b, dtype=float)
    order = net._edge_list.order
    n_b = len(net.partition.boundary)
    boundary, central = order[:n_b], order[n_b:]
    if len(z_b) != n_b:
        raise ValueError(f"expected {n_b} boundary values, got {len(z_b)}")
    # on the few boundary values of a typical network, a Python pass is
    # several times faster than np.isfinite, and this runs on every solve
    if not all(map(math.isfinite, z_b.tolist())):
        raise ValueError("boundary values must be finite")
    z = np.empty(net.graph.n)  # the iterate, in node-list order
    z[boundary] = z_b
    # the linearized network's interior, applied to deviations from the
    # mean, so that a constant z_B starts exactly at that constant
    mean = z_b.sum() / n_b
    linear = _linearization(net)
    z[central] = mean if linear.start is None else mean + linear.start @ (z_b - mean)

    def currents(yv):  # nodal currents, and the stopping tolerance at their scale
        g = _g_vec(net, yv)
        s = float(np.abs(g).max(initial=0.0))
        return _nodal_sums(net, g), max(DEFAULT_TOL * min(1.0, s), ROUNDING_TOL * s)

    y = _edge_values(net, z)
    bad = _first_violation(net, y)
    if bad >= 0:  # the linearized start leaves the box: start from the mean
        z[central] = mean
        y = _edge_values(net, z)
        bad = _first_violation(net, y)
    if bad >= 0:
        message = ("initial iterate outside the validity interval" if len(central)
                   else "boundary assignment leaves the validity interval")
        raise SolveError(message, edge=edge_label(net, bad))

    def partial():
        return SolveResult(z[central], np.full(n_b, np.nan), iterations, res_norm, False, z)

    j, tol = currents(y)
    res_norm = float(np.abs(j[central]).max(initial=0.0))
    iterations = 0
    converged = res_norm <= tol
    w = None  # edge slopes at the iterate, once evaluated

    if not converged and linear.factor is not None:
        w = _gp_vec(net, y)
        # compared without dividing by w_0, so a zero slope raises no warning
        if (np.abs(w - linear.slopes) <= CHORD_RATE * linear.slopes).all():
            while not converged:
                trial = z.copy()
                trial[central] -= cho_solve(linear.factor, j[central])
                y_trial = _edge_values(net, trial)
                if _first_violation(net, y_trial) >= 0:
                    break
                j_trial, tol_trial = currents(y_trial)
                trial_norm = float(np.abs(j_trial[central]).max())
                if not trial_norm <= CHORD_RATE * res_norm:
                    break
                z, y, j, res_norm, tol, w = trial, y_trial, j_trial, trial_norm, tol_trial, None
                converged = res_norm <= tol

    while not converged and iterations < DEFAULT_MAX_ITER:
        try:
            factor = _factor_central(net, _gp_vec(net, y) if w is None else w)[1]
        except SolveError as exc:
            exc.result = partial()
            raise
        step = -cho_solve(factor, j[central])
        t = 1.0
        last_bad = -1
        while True:
            trial = z.copy()
            trial[central] += t * step
            y_trial = _edge_values(net, trial)
            bad = _first_violation(net, y_trial)
            if bad < 0:
                j_trial, tol_trial = currents(y_trial)
                trial_norm = float(np.abs(j_trial[central]).max())
                if trial_norm <= (1.0 - ARMIJO_C * t) * res_norm:
                    break
            else:
                last_bad = bad
            t *= 0.5
            if t < MIN_STEP:
                if last_bad >= 0:
                    raise SolveError(
                        "step cannot stay inside the validity interval",
                        result=partial(),
                        edge=edge_label(net, last_bad),
                    )
                raise SolveError("line search failed to reduce the residual", result=partial())
        z, y, j, res_norm, tol, w = trial, y_trial, j_trial, trial_norm, tol_trial, None
        iterations += 1
        converged = res_norm <= tol

    if not converged:
        raise SolveError(
            f"no convergence after {DEFAULT_MAX_ITER} iterations "
            "(global solvability or validity-interval failure suspected)",
            result=partial(),
        )
    return SolveResult(z[central], j[boundary], iterations, res_norm, True, z)


def _schur(net: Network, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Reduced Laplacian and sensitivity of the network weighted by edge weights w.

    Returns (H_BB - H_BC H_CC^{-1} H_CB, -H_CC^{-1} H_CB) in partition order
    from the banded Cholesky factor of H_CC (``_factor_central``, as a
    Newton step does) and the boundary rows, with H_CB = H_BC^T, and that
    factor, or None when there is no central node.  Raises SolveError when
    a weight is not finite, even one that enters only H_BB, or when H_CC is
    not positive definite.
    """
    _require_finite(net, w)
    n_b = len(net.partition.boundary)
    if n_b == net.graph.n:
        return _packed_laplacian(net, w)[1], np.zeros((0, n_b)), None
    rows, factor = _factor_central(net, w)
    h_bc = rows[:, n_b:]
    x = cho_solve(factor, h_bc.T)
    return rows[:, :n_b] - h_bc @ x, -x, factor


@dataclass(frozen=True)
class _Linearization:
    """The network linearized at y_0, as ``solve_interior`` starts from it.

    ``start`` is its sensitivity S_0, or None for the mean boundary value;
    ``factor`` the banded Cholesky factor of its H_CC when that is banded
    (kd >= 1), else None, and then no chord step is taken; ``slopes`` its
    edge slopes w_0 = g'(y_0).
    """

    start: np.ndarray | None
    factor: np.ndarray | None
    slopes: np.ndarray


def _linearization(net: Network) -> _Linearization:
    """The network linearized at y_0, from one ``_schur``, formed once per Network.

    y_0 is 0 on each edge whose validity interval holds 0, else that
    interval's midpoint; S_0 = -H_CC(y_0)^{-1} H_CB(y_0) is the linear Kron
    reduction's map from z_B to the interior.  The start is None, the
    uniform average whose start is the mean boundary value, when every
    entry of S_0 is 1/n_B to within ROUNDING_TOL (a symmetric network, or
    no central node).  Start and factor are None when ``_schur`` raises at
    y_0 (a slope that is not finite, or H_CC not positive definite).  Kept
    in the Network's ``__dict__``, as ``functools.cached_property`` keeps
    its values on the frozen dataclass.
    """
    cache = vars(net)
    if "_linearization" not in cache:
        index = net._law_index
        y0 = np.where((index.lo <= 0.0) & (0.0 <= index.hi), 0.0, 0.5 * (index.lo + index.hi))
        w0 = _gp_vec(net, y0)
        try:
            _, s0, factor = _schur(net, w0)
        except SolveError:
            s0 = factor = None
        else:
            uniform = 1.0 / len(net.partition.boundary)
            if np.abs(s0 - uniform).max(initial=0.0) <= ROUNDING_TOL:
                s0 = None
            if net._edge_list.kd == 0:
                factor = None
        cache["_linearization"] = _Linearization(s0, factor, w0)
    return cache["_linearization"]


def _schur_at(net: Network,
              result: SolveResult) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``_schur`` of the network weighted by its edge slopes at a solved point."""
    return _schur(net, _gp_vec(net, _edge_values(net, result.z_full)))


def interior_hessian_check(net: Network, z) -> float:
    """Smallest eigenvalue of the interior Hessian block at z."""
    central = list(net.partition.central)
    if not central:
        return float("inf")
    h_cc = weighted_laplacian(net, z)[np.ix_(central, central)]
    return float(np.linalg.eigvalsh(h_cc).min())


def sensitivity(net: Network, z_b) -> np.ndarray:
    """d z_C / d z_B at the solved interior point.

    Equals -[interior Hessian]^{-1} [central-boundary Hessian block]; its
    rows sum to one because shifting all boundary potentials shifts the
    interior solution by the same constant.
    """
    return _schur_at(net, solve_interior(net, z_b))[1]


def reduced_potential(net: Network, z_b) -> float:
    """K evaluated at the interior solution: the boundary potential."""
    result = solve_interior(net, z_b)
    return k_value(net, result.z_full)


@dataclass(frozen=True)
class MinHeatReport:
    degree: float
    z_c_constraint: np.ndarray
    z_c_power_min: np.ndarray
    max_abs_difference: float


def min_heat_check(net: Network, z_b, k: float) -> MinHeatReport:
    """Compare the constraint solve against direct power minimization.

    Only meaningful when K is homogeneous of degree k; that is verified
    first on HOMOGENEITY_PROBES seeded random points with t in {0.5, 2},
    and the check refuses (HomogeneityError) on the first violation beyond
    HOMOGENEITY_RTOL |t^k K(z)|, a bound that scales with the laws.  Each
    point is drawn as its t = 2 image, which is scaled into the validity box
    when it leaves it (``_inside_intervals``), so both probes stay inside.
    A non-finite k raises ValueError (with k = NaN no comparison could
    fail).  The power minimizer comes from a
    derivative-free search on values of P alone (+inf outside the validity
    box), independent of the solve: from mean(z_B), sweeps of steps along
    each coordinate to the vertex of the parabola through P(x - h e_i), P(x)
    and P(x + h e_i); h = max(ptp(z_B), 1e-6) halves after a sweep that moves
    x no farther than h, until h < MIN_HEAT_STEP or MIN_HEAT_MAX_EVALS values.
    """
    if not np.isfinite(k):
        raise ValueError(f"homogeneity degree must be finite, got {k!r}")
    z_b = np.asarray(z_b, dtype=float)
    rng = np.random.default_rng(0)
    for _ in range(HOMOGENEITY_PROBES):
        z = _inside_intervals(net, 2.0 * rng.uniform(-1.5, 1.5, net.graph.n)) / 2.0
        kz = k_value(net, z)
        for t in (0.5, 2.0):
            lhs = k_value(net, t * z)
            rhs = t**k * kz
            if abs(lhs - rhs) > HOMOGENEITY_RTOL * abs(rhs):
                raise HomogeneityError(z, t, lhs, rhs)

    result = solve_interior(net, z_b)
    central = list(net.partition.central)

    def power_of(z_c_vec: np.ndarray) -> float:
        z = result.z_full.copy()
        z[central] = z_c_vec
        try:
            return dissipated_power(net, z)
        except IntervalError:
            return float("inf")

    x, index = np.full(len(central), float(np.mean(z_b))), np.arange(len(central))
    p_x, evals, h = power_of(x), 1, max(float(np.ptp(z_b)), 1e-6)
    while h >= MIN_HEAT_STEP and evals < MIN_HEAT_MAX_EVALS:
        start = x
        for i in index:
            p_lo, p_hi = (power_of(np.where(index == i, x[i] + d, x)) for d in (-h, h))
            curvature, evals = p_lo - 2.0 * p_x + p_hi, evals + 2
            if np.isfinite(curvature) and curvature > 0.0:
                trial = np.where(index == i, x[i] + 0.5 * h * (p_lo - p_hi) / curvature, x)
                p_trial, evals = power_of(trial), evals + 1
                if p_trial < p_x:
                    x, p_x = trial, p_trial
        if np.abs(x - start).max(initial=0.0) <= h:
            h *= 0.5
    return MinHeatReport(k, result.z_c, x, float(np.abs(result.z_c - x).max(initial=0.0)))
