"""Interior elimination: damped Newton on the zero-current constraint.

Setting the nodal currents at the central nodes to zero determines the
central potentials as a function z_C(z_B) of the boundary potentials.  The
interior Hessian block is positive definite on connected graphs with
strictly monotone laws, so damped Newton with a residual-decrease line
search converges from any feasible start inside the validity box.

Eliminating the central block of the weighted Laplacian H = D diag(w) D^T
gives the reduced Laplacian H_BB - H_BC H_CC^{-1} H_CB (the Kron reduction
of the network weighted by w) and the sensitivity dz_C/dz_B =
-H_CC^{-1} H_CB; ``_schur`` forms both from one solve against H_CC.

H_CC is symmetric positive definite for strictly increasing laws, so a
Newton step and ``_schur`` eliminate it through one Cholesky factor
(``_factor_central``) in scipy's LAPACK: numpy links a separate OpenBLAS
build, and switching between the two on a large block costs more than the
factorization.  ``scipy.optimize`` is imported only by ``min_heat_check``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import HomogeneityError, IntervalError, SolveError
from .potential import (
    Network,
    _edge_values,
    _first_violation,
    _g_vec,
    _gp_vec,
    _laplacian,
    _nodal_sums,
    dissipated_power,
    edge_label,
    edge_voltages,
    k_value,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
ARMIJO_C = 1e-4
MIN_STEP = 2.0**-60
HOMOGENEITY_PROBES = 20  # random points of the homogeneity test in min_heat_check
HOMOGENEITY_RTOL = 1e-8


@dataclass(frozen=True)
class SolveResult:
    z_c: np.ndarray  # central potentials, in partition.central order: z_full[central]
    j_b: np.ndarray  # boundary nodal currents, in partition.boundary order
    iterations: int
    final_residual: float
    converged: bool
    z_full: np.ndarray  # all node potentials in node-list order, z_B and z_C in their slots


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor U (a = U^T U) of a symmetric positive definite matrix.

    Calls LAPACK directly and factors in place, so ``a`` may be overwritten.  Raises
    LinAlgError when ``a`` is not positive definite or the factor is not
    finite (potrf lets NaN through).
    """
    u, info = dpotrf(a.T, lower=0, clean=0, overwrite_a=1)  # a.T: a's storage, Fortran order
    if info > 0 or not np.isfinite(u.diagonal()).all():
        raise LinAlgError("matrix is not positive definite")
    return u


def cho_solve(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b from the factor U returned by cho_factor."""
    x, _ = dpotrs(u, b, lower=0)
    return x


def _require_finite(net: Network, w: np.ndarray) -> None:
    """Raise SolveError naming the first edge whose weight is not finite."""
    finite = np.isfinite(w)
    if not finite.all():
        raise SolveError("edge weight is not finite", edge=edge_label(net, int(np.argmin(finite))))


def _factor_central(net: Network, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Partition-ordered Laplacian of the edge weights w, and the Cholesky factor of H_CC.

    Raises SolveError when H_CC is not positive definite; only then are the
    weights looked at, to name an edge whose weight is not finite.
    """
    n_b = len(net.partition.boundary)
    lap = _laplacian(net, w)
    try:
        return lap, cho_factor(lap[n_b:, n_b:])
    except LinAlgError as exc:
        _require_finite(net, w)
        raise SolveError("interior Hessian factorization failed") from exc


def solve_interior(net: Network, z_b, init=None) -> SolveResult:
    """Solve the zero interior-current constraint for z_C at fixed z_B.

    Newton steps use the interior block of the weighted Laplacian; a
    halving line search accepts a step once the interior residual norm has
    decreased sufficiently and all edge values stay inside their validity
    intervals.  Iteration starts from ``init`` (the mean boundary value when
    omitted) and stops once the largest interior current is at most
    DEFAULT_TOL.  Raises SolveError after DEFAULT_MAX_ITER iterations
    (suspected global solvability failure) or when steps cannot stay inside
    the box.
    """
    z_b = np.asarray(z_b, dtype=float)
    order = net._edge_list.order
    n_b = len(net.partition.boundary)
    boundary, central = order[:n_b], order[n_b:]
    if len(z_b) != n_b:
        raise ValueError(f"expected {n_b} boundary values, got {len(z_b)}")
    z = np.empty(net.graph.n)  # the iterate, in node-list order
    z[boundary] = z_b
    if init is None:
        z[central] = z_b.sum() / n_b
    else:
        init = np.asarray(init, dtype=float)
        if len(init) != len(central):
            raise ValueError(f"expected {len(central)} central values, got {len(init)}")
        z[central] = init

    def currents(yv):
        return _nodal_sums(net, _g_vec(net, yv))

    y = _edge_values(net, z)
    bad = _first_violation(net, y)
    if bad >= 0:
        message = ("initial iterate outside the validity interval" if len(central)
                   else "boundary assignment leaves the validity interval")
        raise SolveError(message, edge=edge_label(net, bad))

    def partial():
        return SolveResult(z[central], np.full(n_b, np.nan), iterations, res_norm, False, z)

    j = currents(y)
    res_norm = float(np.abs(j[central]).max(initial=0.0))
    iterations = 0
    converged = res_norm <= DEFAULT_TOL

    while not converged and iterations < DEFAULT_MAX_ITER:
        try:
            factor = _factor_central(net, _gp_vec(net, y))[1]
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
                j_trial = currents(y_trial)
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
        z, y, j, res_norm = trial, y_trial, j_trial, trial_norm
        iterations += 1
        converged = res_norm <= DEFAULT_TOL

    if not converged:
        raise SolveError(
            f"no convergence after {DEFAULT_MAX_ITER} iterations "
            "(global solvability or validity-interval failure suspected)",
            result=partial(),
        )
    return SolveResult(z[central], j[boundary], iterations, res_norm, True, z)


def _schur(net: Network, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced Laplacian and sensitivity of the network weighted by edge weights w.

    Returns (H_BB - H_BC H_CC^{-1} H_CB, -H_CC^{-1} H_CB) in partition order
    from the Cholesky factor of H_CC (``_factor_central``, as a Newton step
    does).  Raises SolveError when a weight is not finite, even one that
    enters only H_BB, or when H_CC is not positive definite.
    """
    _require_finite(net, w)
    n_b = len(net.partition.boundary)
    if n_b == net.graph.n:
        return _laplacian(net, w), np.zeros((0, n_b))
    lap, factor = _factor_central(net, w)
    h_cb = lap[n_b:, :n_b]
    x = cho_solve(factor, h_cb)
    return lap[:n_b, :n_b] - h_cb.T @ x, -x


def _schur_at(net: Network, result: SolveResult) -> tuple[np.ndarray, np.ndarray]:
    """``_schur`` of the network weighted by its edge slopes at a solved point."""
    return _schur(net, _gp_vec(net, _edge_values(net, result.z_full)))


def interior_hessian_check(net: Network, z) -> float:
    """Smallest eigenvalue of the interior Hessian block at z."""
    n_b = len(net.partition.boundary)
    if n_b == net.graph.n:
        return float("inf")
    w = _gp_vec(net, edge_voltages(net, z))
    return float(np.linalg.eigvalsh(_laplacian(net, w)[n_b:, n_b:]).min())


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
    HOMOGENEITY_RTOL.  A non-finite k raises ValueError (with k = NaN no
    comparison could fail).  The power minimizer is found independently by
    derivative-free search.  Only this check needs ``scipy.optimize``, so
    it is imported here.
    """
    if not np.isfinite(k):
        raise ValueError(f"homogeneity degree must be finite, got {k!r}")
    from scipy.optimize import minimize, minimize_scalar

    z_b = np.asarray(z_b, dtype=float)
    rng = np.random.default_rng(0)
    for _ in range(HOMOGENEITY_PROBES):
        z = rng.uniform(-1.5, 1.5, net.graph.n)
        kz = k_value(net, z)
        for t in (0.5, 2.0):
            lhs = k_value(net, t * z)
            rhs = t**k * kz
            if abs(lhs - rhs) > HOMOGENEITY_RTOL * (1.0 + abs(rhs)):
                raise HomogeneityError(z, t, lhs, rhs)

    result = solve_interior(net, z_b)
    central = list(net.partition.central)
    if not central:
        return MinHeatReport(k, np.empty(0), np.empty(0), 0.0)

    def power_of(z_c_vec: np.ndarray) -> float:
        z = result.z_full.copy()
        z[central] = z_c_vec
        try:
            return dissipated_power(net, z)
        except IntervalError:
            return float("inf")

    x0 = np.full(len(central), float(np.mean(z_b)))
    if len(central) == 1:
        lo = float(min(z_b.min(), x0[0]) - 1e-6)
        hi = float(max(z_b.max(), x0[0]) + 1e-6)
        scalar = minimize_scalar(lambda v: power_of(np.array([v])), bounds=(lo, hi),
                                 method="bounded", options={"xatol": 1e-12})
        z_c_min = np.array([scalar.x])
    else:
        opt = minimize(power_of, x0, method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-15,
                                "maxiter": 50000, "maxfev": 50000})
        z_c_min = np.asarray(opt.x, dtype=float)

    diff = float(np.abs(result.z_c - z_c_min).max())
    return MinHeatReport(k, result.z_c, z_c_min, diff)
