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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize, minimize_scalar

from .errors import HomogeneityError, IntervalError, SolveError
from .potential import (
    Network,
    _first_violation,
    _g_vec,
    _gp_vec,
    dissipated_power,
    edge_label,
    edge_voltages,
    k_value,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100
ARMIJO_C = 1e-4
MIN_STEP = 2.0**-60


@dataclass(frozen=True)
class SolveResult:
    z_c: np.ndarray  # central potentials, in partition.central order
    j_b: np.ndarray  # boundary nodal currents, in partition.boundary order
    iterations: int
    final_residual: float
    converged: bool
    z_full: np.ndarray  # all node potentials, node-list order


def _assemble(net: Network, z_c: np.ndarray, z_b: np.ndarray) -> np.ndarray:
    z = np.empty(net.graph.n)
    z[list(net.partition.boundary)] = z_b
    if len(net.partition.central):
        z[list(net.partition.central)] = z_c
    return z


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


def solve_interior(
    net: Network,
    z_b,
    init=None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolveResult:
    """Solve the zero interior-current constraint for z_C at fixed z_B.

    Newton steps use the interior block of the weighted Laplacian; a
    halving line search accepts a step once the interior residual norm has
    decreased sufficiently and all edge values stay inside their validity
    intervals.  Raises SolveError on non-convergence (suspected global
    solvability failure) or when steps cannot stay inside the box.
    """
    z_b = np.asarray(z_b, dtype=float)
    boundary = list(net.partition.boundary)
    central = list(net.partition.central)
    if len(z_b) != len(boundary):
        raise ValueError(f"expected {len(boundary)} boundary values, got {len(z_b)}")
    d = net.incidence

    if not central:
        z = _assemble(net, np.empty(0), z_b)
        y = d.T @ z
        bad = _first_violation(net, y)
        if bad >= 0:
            raise SolveError("boundary assignment leaves the validity interval",
                             edge=edge_label(net, bad))
        j_full = d @ _g_vec(net, y)
        return SolveResult(np.empty(0), j_full[boundary], 0, 0.0, True, z)

    z_c = np.full(len(central), z_b.sum() / len(z_b)) if init is None else np.asarray(init, dtype=float)
    y = d.T @ _assemble(net, z_c, z_b)
    bad = _first_violation(net, y)
    if bad >= 0:
        raise SolveError("initial iterate outside the validity interval",
                         edge=edge_label(net, bad))

    d_c = d[central, :]
    y_b = d[boundary, :].T @ z_b  # boundary share of the edge values, fixed

    def residual(yv):
        return d_c @ _g_vec(net, yv)

    def partial():
        return SolveResult(z_c, np.full(len(boundary), np.nan), iterations, res_norm, False,
                           _assemble(net, z_c, z_b))

    r = residual(y)
    res_norm = float(np.abs(r).max())
    iterations = 0
    converged = res_norm <= tol

    while not converged and iterations < max_iter:
        w = _gp_vec(net, y)
        h_cc = (d_c * w) @ d_c.T
        try:
            factor = cho_factor(h_cc)
        except LinAlgError as exc:
            raise SolveError("interior Hessian factorization failed", result=partial()) from exc
        step = -cho_solve(factor, r)
        t = 1.0
        last_bad = -1
        while True:
            trial = z_c + t * step
            y_trial = y_b + d_c.T @ trial
            bad = _first_violation(net, y_trial)
            if bad < 0:
                r_trial = residual(y_trial)
                trial_norm = float(np.abs(r_trial).max())
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
        z_c, y, r, res_norm = trial, y_trial, r_trial, trial_norm
        iterations += 1
        converged = res_norm <= tol

    if not converged:
        raise SolveError(
            f"no convergence after {max_iter} iterations "
            "(global solvability or validity-interval failure suspected)",
            result=partial(),
        )
    j_full = d @ _g_vec(net, y)
    return SolveResult(z_c, j_full[boundary], iterations, res_norm, True,
                       _assemble(net, z_c, z_b))


def _schur(net: Network, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced Laplacian and sensitivity of the network weighted by edge weights w.

    From the boundary and central incidence rows, returns
    (H_BB - H_BC H_CC^{-1} H_CB, -H_CC^{-1} H_CB), both in partition order,
    from a single LU solve against H_CC.  The solve is numpy's, not scipy's:
    on large interiors, handing the numpy-built block to scipy's separately
    linked OpenBLAS costs more than the factorization itself.  Raises
    SolveError when a weight is not finite or H_CC is singular.
    """
    finite = np.isfinite(w)
    if not finite.all():
        raise SolveError("edge weight is not finite", edge=edge_label(net, int(np.argmin(finite))))
    d_b = net.incidence[list(net.partition.boundary)]
    d_c = net.incidence[list(net.partition.central)]
    h_bb = (d_b * w) @ d_b.T
    if not len(d_c):
        return h_bb, np.zeros((0, len(d_b)))
    wd_c = d_c * w
    h_cb = wd_c @ d_b.T
    try:
        s = -np.linalg.solve(wd_c @ d_c.T, h_cb)
    except np.linalg.LinAlgError as exc:
        raise SolveError("interior Hessian is singular") from exc
    return h_bb + h_cb.T @ s, s


def interior_hessian_check(net: Network, z) -> float:
    """Smallest eigenvalue of the interior Hessian block at z."""
    d_c = net.incidence[list(net.partition.central)]
    if not len(d_c):
        return float("inf")
    w = _gp_vec(net, edge_voltages(net, z))
    return float(np.linalg.eigvalsh((d_c * w) @ d_c.T).min())


def sensitivity(net: Network, z_b) -> np.ndarray:
    """d z_C / d z_B at the solved interior point.

    Equals -[interior Hessian]^{-1} [central-boundary Hessian block]; its
    rows sum to one because shifting all boundary potentials shifts the
    interior solution by the same constant.
    """
    result = solve_interior(net, z_b)
    return _schur(net, _gp_vec(net, net.incidence.T @ result.z_full))[1]


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
    power_at_constraint: float
    power_at_minimum: float


def min_heat_check(
    net: Network,
    z_b,
    k: float,
    probes: int = 20,
    seed: int = 0,
    homogeneity_rtol: float = 1e-8,
) -> MinHeatReport:
    """Compare the constraint solve against direct power minimization.

    Only meaningful when K is homogeneous of degree k; that is verified
    first on random points with t in {0.5, 2} and the check refuses
    (HomogeneityError) on the first violation.  The power minimizer is
    found independently by derivative-free search.
    """
    z_b = np.asarray(z_b, dtype=float)
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        z = rng.uniform(-1.5, 1.5, net.graph.n)
        kz = k_value(net, z)
        for t in (0.5, 2.0):
            lhs = k_value(net, t * z)
            rhs = t**k * kz
            if abs(lhs - rhs) > homogeneity_rtol * (1.0 + abs(rhs)):
                raise HomogeneityError(z, t, lhs, rhs)

    result = solve_interior(net, z_b)
    central = list(net.partition.central)
    if not central:
        return MinHeatReport(k, np.empty(0), np.empty(0), 0.0,
                             dissipated_power(net, result.z_full),
                             dissipated_power(net, result.z_full))

    def power_of(z_c_vec: np.ndarray) -> float:
        z = _assemble(net, np.atleast_1d(z_c_vec), z_b)
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
    return MinHeatReport(k, result.z_c, z_c_min, diff,
                         power_of(result.z_c), power_of(z_c_min))
