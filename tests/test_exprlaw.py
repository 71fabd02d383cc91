"""Law DSL: parsing, differentiation, co-content, convexity certification."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import kronred as kr
from kronred.errors import ConvexityError, ExprSyntaxError, IntervalError
from kronred.exprlaw import (
    EdgeLaw,
    Num,
    cocontent,
    differentiate,
    edge_law,
    evaluate,
    parse_law,
    scan_convexity,
    to_text,
)

from conftest import LAW_POOL, NETWORKS_DIR, simpson_integral


def test_parse_and_eval_exp_law():
    e = parse_law("exp(y) - 1")
    assert evaluate(e, 1.0) == pytest.approx(math.e - 1.0, abs=1e-12)


def test_parse_and_eval_linear():
    assert evaluate(parse_law("2*y"), 3.0) == 6.0


def test_unknown_identifier_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse_law("exp(z)")
    assert "unknown identifier" in str(info.value)
    assert info.value.offset == 4


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse_law("2 * (y + ")
    assert info.value.offset == 9


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError) as info:
        parse_law("y^2.5")
    assert "non-integer" in str(info.value)


def test_unknown_function_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_law("foo(y)")


def test_implicit_multiplication_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_law("2y")


def test_negative_exponent_allowed():
    e = parse_law("(1 + y^2)^-1")
    assert evaluate(e, 2.0) == pytest.approx(0.2)


@pytest.mark.parametrize("text", LAW_POOL + ("-(y + 1)^3 / (2 + cosh(y))", "ln(cosh(y)) + 1.5*y"))
def test_print_parse_round_trip(text):
    e = parse_law(text)
    assert parse_law(to_text(e)) == e


def test_derivative_of_exp_law():
    d = differentiate(parse_law("exp(y) - y"))
    for y in (-2.0, 0.0, 0.7, 3.0):
        assert evaluate(d, y) == pytest.approx(math.exp(y) - 1.0, rel=1e-12)


def test_derivative_of_linear():
    d = differentiate(parse_law("2*y"))
    assert evaluate(d, 1.23) == 2.0


def test_derivative_of_tanh_at_zero():
    d = differentiate(parse_law("tanh(y)"))
    assert evaluate(d, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_derivative_matches_finite_differences_on_pool():
    # 1000 points per law, central differences with h = 1e-5
    rng = np.random.default_rng(7)
    h = 1e-5
    for text in LAW_POOL:
        e = parse_law(text)
        d = differentiate(e)
        ys = rng.uniform(-7.5, 7.5, 1000)
        for y in ys:
            fd = (evaluate(e, y + h) - evaluate(e, y - h)) / (2 * h)
            val = evaluate(d, y)
            assert abs(val - fd) <= 1e-6 * (1.0 + abs(val)), text


# small random ASTs; division and ln excluded to keep evaluation total,
# literals nonnegative as the parser produces (minus signs become Neg nodes)
_atoms = st.one_of(
    st.builds(Num, st.floats(0, 3, allow_nan=False)),
    st.just(kr.parse_law("y")),
)


def _combine(children):
    return st.one_of(
        st.builds(lambda a, b: kr.parse_law(f"({to_text(a)}) + ({to_text(b)})"), children, children),
        st.builds(lambda a, b: kr.parse_law(f"({to_text(a)}) * ({to_text(b)})"), children, children),
        st.builds(lambda a: kr.parse_law(f"-({to_text(a)})"), children),
        st.builds(lambda a, n: kr.parse_law(f"({to_text(a)})^{n}"), children, st.integers(0, 3)),
        st.builds(lambda a: kr.parse_law(f"tanh({to_text(a)})"), children),
        st.builds(lambda a: kr.parse_law(f"sinh({to_text(a)})"), children),
    )


@given(st.recursive(_atoms, _combine, max_leaves=8))
def test_round_trip_random_ast(e):
    assert parse_law(to_text(e)) == e


@given(st.recursive(_atoms, _combine, max_leaves=6), st.floats(-1.5, 1.5))
def test_random_ast_derivative_matches_fd(e, y):
    d = differentiate(e)
    h = 1e-5
    fd = (evaluate(e, y + h) - evaluate(e, y - h)) / (2 * h)
    val = evaluate(d, y)
    if np.isfinite(fd) and np.isfinite(val) and abs(val) < 1e6:
        assert abs(val - fd) <= 1e-5 * (1.0 + abs(val))


def test_cocontent_linear():
    law = edge_law("2*y")
    assert cocontent(law, 1.0) == pytest.approx(1.0, abs=1e-10)


def test_cocontent_exp():
    law = edge_law("exp(y) - 1")
    assert cocontent(law, 1.0) == pytest.approx(math.e - 2.0, abs=1e-10)


def test_cocontent_anchor():
    for text in LAW_POOL:
        assert cocontent(edge_law(text), 0.0) == 0.0


def test_cocontent_outside_interval():
    law = edge_law("y", interval=(-1.0, 1.0))
    with pytest.raises(IntervalError):
        cocontent(law, 2.0)


def test_cocontent_matches_simpson_oracle():
    for text in ("exp(y) - 1", "y + tanh(y)", "sinh(y)"):
        law = edge_law(text)
        g = law.g
        for y in (-3.0, -0.4, 0.9, 2.5):
            oracle = simpson_integral(lambda v: evaluate(g, v), 0.0, y)
            assert cocontent(law, y) == pytest.approx(oracle, abs=1e-9)


@given(
    st.sampled_from(("exp(y) - 1", "2*y", "y + 0.25*y^3")),
    st.floats(-7.0, 7.0),
    st.floats(-7.0, 7.0),
    st.floats(0.0, 1.0),
)
def test_cocontent_is_convex(text, y1, y2, t):
    law = edge_law(text)
    mid = t * y1 + (1 - t) * y2
    lhs = cocontent(law, mid)
    rhs = t * cocontent(law, y1) + (1 - t) * cocontent(law, y2)
    assert lhs <= rhs + 1e-9


def _quad_cocontent(g, y: float):
    """scipy's adaptive quadrature of g from 0 to y: the co-content oracle."""
    return quad(lambda v: float(evaluate(g, v)), 0.0, y, epsabs=1e-13, epsrel=1e-13, limit=500)


def _shipped_laws():
    laws = set()
    for path in NETWORKS_DIR.glob("*.json"):
        for edge in json.loads(path.read_text(encoding="utf-8"))["edges"]:
            laws.add((edge["law"], edge.get("kind", "conductance"), tuple(edge.get("interval", (-8, 8)))))
    return sorted(laws)


@pytest.mark.parametrize("key", _shipped_laws(), ids=lambda key: f"{key[0]} {key[1]} {key[2]}")
def test_cocontent_matches_quad_on_shipped_laws(key):
    text, kind, interval = key
    law = edge_law(text, kind=kind, interval=interval)
    for y in np.linspace(*law.validity_interval, 200):  # ends included
        oracle, _ = _quad_cocontent(law.g, float(y))
        assert abs(cocontent(law, float(y)) - oracle) <= 1e-10 * (1.0 + abs(oracle)), (text, y)


@given(st.recursive(_atoms, _combine, max_leaves=6), st.floats(-1.5, 1.5))
def test_cocontent_matches_quad_on_random_laws(e, y):
    # uncertified on purpose: the integral does not need a monotone law
    law = EdgeLaw(e, differentiate(e), "conductance", (-1.5, 1.5), 0.0)
    with warnings.catch_warnings():
        # quad warns on a subnormal y even where its value is exact; its
        # error estimate below decides whether the value can be trusted
        warnings.simplefilter("ignore", IntegrationWarning)
        oracle, abserr = _quad_cocontent(e, y)
    if not (np.isfinite(oracle) and abserr <= 1e-12 * (1.0 + abs(oracle))):
        return  # quad itself is not sure of the value
    assert abs(cocontent(law, y) - oracle) <= 1e-10 * (1.0 + abs(oracle))


def test_cocontent_derivative_is_g():
    h = 1e-4
    for text in LAW_POOL:
        law = edge_law(text)
        for y in (-2.3, 0.4, 1.9):
            fd = (cocontent(law, y + h) - cocontent(law, y - h)) / (2 * h)
            g = float(law.g_at(y))
            assert abs(fd - g) <= 1e-6 * (1.0 + abs(g))


def test_convexity_margin_exp():
    law = edge_law("exp(y) - 1", interval=(-3.0, 3.0))
    assert law.convexity_margin == pytest.approx(math.exp(-3.0), rel=1e-12)


def test_convexity_margin_linear():
    assert edge_law("2*y").convexity_margin == 2.0


def test_convexity_violation_reports_point():
    with pytest.raises(ConvexityError) as info:
        edge_law("tanh(y) - y")
    assert info.value.y != 0.0  # g' = sech^2 - 1 vanishes only at 0


def test_convexity_violation_constant_derivative():
    with pytest.raises(ConvexityError) as info:
        edge_law("-2*y")
    assert info.value.value == -2.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_convexity_certificate_catches_narrow_dip():
    # g'(0.00097) = 1 - 1.1 = -0.1, in a dip about 0.002 wide that the
    # sampled certificate steps over (it reports a margin of 0.517)
    with pytest.raises(ConvexityError):
        edge_law("y - 0.0011*tanh(1000*(y - 0.00097))")


def test_scan_convexity_locates_first_violation():
    gp = differentiate(parse_law("tanh(y) - y"))
    value, violation = scan_convexity(gp, (-3.0, 3.0))
    assert violation == -3.0  # first grid point already violates


def test_cocontent_given_kind():
    # same family as the conductance form: G = exp(y) - y gives g = exp(y) - 1
    law = edge_law("exp(y) - y", kind="cocontent")
    assert float(law.g_at(1.0)) == pytest.approx(math.e - 1.0)
    assert float(law.gp_at(0.0)) == pytest.approx(1.0)


def test_interval_must_straddle_zero():
    with pytest.raises(ValueError):
        edge_law("y", interval=(1.0, 2.0))


@pytest.mark.parametrize("interval", [(-math.inf, math.inf), (-math.inf, 8.0), (-1e308, 1e308),
                                      (-1.0, math.nan)])
def test_interval_must_be_finite(interval):
    with pytest.raises(ValueError, match="finite"):
        edge_law("y", interval=interval)


def test_law_evaluation_vectorized():
    law = edge_law("exp(y) - 1")
    ys = np.array([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(law.g_at(ys), np.exp(ys) - 1.0, rtol=1e-14)
