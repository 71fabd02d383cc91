"""Piecewise-cubic Hermite interpolation on numpy and LAPACK ``dgtsv`` alone.

``HermiteCubic`` is the cubic through (x[i], y[i]) with prescribed slopes at
the knots.  It evaluates the interpolant, its exact derivative and its exact
antiderivative (zero at x[0]) with one ``searchsorted`` per call, and
extrapolates the end pieces.  ``spline`` gives it the slopes of the C2
not-a-knot cubic spline.

The arithmetic follows scipy's ``CubicSpline``/``CubicHermiteSpline`` and
``PPoly`` step for step: the same slope systems, the same coefficients, and
power sums accumulated in the same order.  With scipy 1.17 the values,
derivatives and antiderivatives of tables of four or more points came out bit
for bit as scipy's on random tables, so recovered tables keep their bytes.
Three-point tables solve their parabola's system with the banded solver,
where scipy uses a dense LU solve; they agree with scipy to rounding.
``dgtsv`` comes from scipy's compiled ``_flapack`` module (``kronred._lapack``),
called as scipy's ``solve_banded((1, 1), ...)`` calls it, so ``scipy.linalg``
is never imported.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from ._lapack import dgtsv


class HermiteCubic:
    """Piecewise cubic with values ``y`` and slopes ``slopes`` at increasing knots ``x``."""

    def __init__(self, x, y, slopes):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        dx = np.diff(x)
        secant = np.diff(y) / dx
        t = (slopes[:-1] + slopes[1:] - 2.0 * secant) / dx
        self.x = x
        # per piece, in powers of s = v - x[i]: c3 s^3 + c2 s^2 + c1 s + c0
        self._c3 = t / dx
        self._c2 = (secant - slopes[:-1]) / dx - t
        self._c1 = slopes[:-1]
        self._c0 = y[:-1]
        # antiderivative terms per piece at s = dx; each piece's constant is the
        # previous piece's value at its right end, summed left to right
        s2 = dx * dx
        s3 = s2 * dx
        terms = np.column_stack([self._c0 * dx, self._c1 / 2.0 * s2,
                                 self._c2 / 3.0 * s3, self._c3 / 4.0 * (s3 * dx)])
        running = np.add.accumulate(np.concatenate([[0.0], terms.ravel()]))
        self._k = running[:-1:4]

    def _piece(self, v):
        v = np.asarray(v, dtype=float)
        i = np.clip(np.searchsorted(self.x, v, side="right") - 1, 0, len(self.x) - 2)
        return i, v - self.x[i]

    def __call__(self, v):
        i, s = self._piece(v)
        s2 = s * s
        return ((self._c0[i] + self._c1[i] * s) + self._c2[i] * s2) + self._c3[i] * (s2 * s)

    def derivative(self, v):
        i, s = self._piece(v)
        return (self._c1[i] + (2.0 * self._c2[i]) * s) + (3.0 * self._c3[i]) * (s * s)

    def antiderivative(self, v):
        """Integral of the interpolant from x[0] to v."""
        i, s = self._piece(v)
        s2 = s * s
        s3 = s2 * s
        return ((((self._k[i] + self._c0[i] * s) + self._c1[i] / 2.0 * s2)
                 + self._c2[i] / 3.0 * s3) + self._c3[i] / 4.0 * (s3 * s))


def _not_a_knot_system(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slope system of the not-a-knot spline through three or more points.

    Returns the (1, 1) bands in ``solve_banded`` layout and the right side.
    Three points give the parabola's system, which differs only in its end
    rows.
    """
    dx = np.diff(x)
    secant = np.diff(y) / dx
    n = len(x)
    bands = np.zeros((3, n))  # rows: upper, main and lower diagonal
    b = np.empty(n)
    bands[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    bands[0, 2:] = dx[:-1]
    bands[2, :-2] = dx[1:]
    b[1:-1] = 3.0 * (dx[1:] * secant[:-1] + dx[:-1] * secant[1:])
    if n == 3:  # slope sums fixed by the parabola's two secants
        bands[1, 0] = bands[0, 1] = bands[1, -1] = bands[2, -2] = 1.0
        b[0] = 2.0 * secant[0]
        b[-1] = 2.0 * secant[1]
    else:
        d = x[2] - x[0]
        bands[1, 0] = dx[1]
        bands[0, 1] = d
        b[0] = ((dx[0] + 2.0 * d) * dx[1] * secant[0] + dx[0] ** 2 * secant[1]) / d
        d = x[-1] - x[-3]
        bands[1, -1] = dx[-2]
        bands[2, -2] = d
        b[-1] = (dx[-1] ** 2 * secant[-2] + (2.0 * d + dx[-1]) * dx[-2] * secant[-1]) / d
    return bands, b


def _not_a_knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the C2 cubic spline with not-a-knot ends.

    Two points give the line and three the parabola through them, as in
    scipy's ``CubicSpline``; more points solve its tridiagonal system.
    """
    if len(x) == 2:
        secant = np.diff(y) / np.diff(x)
        return np.array([secant[0], secant[0]])
    bands, b = _not_a_knot_system(x, y)
    # the call scipy's solve_banded((1, 1), bands, b) makes
    *_, slopes, info = dgtsv(bands[2, :-1], bands[1], bands[0, 1:], b, 1, 1, 1, 1)
    if info > 0:
        raise LinAlgError("singular matrix")
    return slopes


def spline(x, y) -> HermiteCubic:
    """The C2 not-a-knot cubic spline through (x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return HermiteCubic(x, y, _not_a_knot_slopes(x, y))
