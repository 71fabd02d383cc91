"""Piecewise-cubic Hermite tables against scipy's CubicSpline and CubicHermiteSpline."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from kronred.cubic import HermiteCubic, spline
from kronred.reduction import monotone_cubic


def _table(n, seed):
    """Random increasing knots and values, with a few points past each end to evaluate."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, n)) - rng.uniform(0.0, 3.0)
    y = np.cumsum(rng.uniform(1e-6, 2.0, n)) - rng.uniform(0.0, 3.0)
    span = x[-1] - x[0]
    points = np.concatenate([x, rng.uniform(x[0] - 0.1 * span, x[-1] + 0.1 * span, 64)])
    return x, y, points


def _assert_same(ours: HermiteCubic, scipy_spline, points):
    for got, want in ((ours(points), scipy_spline(points)),
                      (ours.derivative(points), scipy_spline.derivative()(points)),
                      (ours.antiderivative(points), scipy_spline.antiderivative()(points))):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@given(st.integers(2, 40), st.integers(0, 2**31))
def test_spline_matches_cubic_spline(n, seed):
    x, y, points = _table(n, seed)
    _assert_same(spline(x, y), CubicSpline(x, y), points)


@given(st.integers(2, 40), st.integers(0, 2**31))
def test_hermite_matches_cubic_hermite_spline(n, seed):
    x, y, points = _table(n, seed)
    slopes = np.random.default_rng(seed + 1).uniform(-1.0, 3.0, n)
    _assert_same(HermiteCubic(x, y, slopes), CubicHermiteSpline(x, y, slopes), points)


def test_short_tables_match():
    for n in (2, 3):
        for seed in range(50):
            x, y, points = _table(n, seed)
            _assert_same(spline(x, y), CubicSpline(x, y), points)


@given(st.integers(2, 40), st.integers(0, 2**31))
def test_monotone_cubic_clips_spline_slopes(n, seed):
    x, y, points = _table(n, seed)
    slopes = CubicSpline(x, y).derivative()(x)
    secants = np.diff(y) / np.diff(x)
    limit = 3.0 * np.minimum(np.append(secants, np.inf), np.insert(secants, 0, np.inf))
    expected = CubicHermiteSpline(x, y, np.clip(slopes, 0.0, limit))
    _assert_same(monotone_cubic(x, y), expected, points)
