import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rfhnet import numerics
from rfhnet.core import NumericPolicy
from rfhnet.fit import FitResult
from rfhnet.numerics import (QuadratureError, QuadResult,
                             integrate_semi_infinite, poisson_cdf_upper)

POLICY = NumericPolicy()


# ---------------------------------------------------------------------------
# semi-infinite quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("f,exact,scale", [
    (np.vectorize(lambda r: math.exp(-r)), 1.0, 1.0),
    (np.vectorize(lambda r: r * math.exp(-r * r / 2.0)), 1.0, 1.0),
    (np.vectorize(lambda r: math.exp(-r * r)), math.sqrt(math.pi) / 2.0, 1.0),
    (np.vectorize(lambda r: r ** 3 * math.exp(-r)), 6.0, 3.0),
])
def test_quadrature_known_integrals(f, exact, scale):
    res = integrate_semi_infinite(f, POLICY, scale=scale)
    assert res.value == pytest.approx(exact, rel=1e-9)
    assert res.abs_error_estimate < 1e-6
    assert res.evaluations > 0


def test_quadrature_scale_invariance():
    """The half-line substitution must not change the answer, only the
    node placement."""
    f = np.vectorize(lambda r: r * math.exp(-0.03 * r * r))
    a = integrate_semi_infinite(f, POLICY, scale=0.1).value
    b = integrate_semi_infinite(f, POLICY, scale=10.0).value
    assert a == pytest.approx(b, rel=1e-9)
    assert a == pytest.approx(1.0 / 0.06, rel=1e-9)


def test_quadrature_zero_integrand():
    res = integrate_semi_infinite(lambda r: 0.0, POLICY)
    assert res.value == 0.0


def test_quadrature_rejects_bad_scale():
    for scale in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError):
            integrate_semi_infinite(lambda r: math.exp(-r), POLICY, scale=scale)


def test_quadrature_divergent_raises_with_partial():
    with pytest.raises(QuadratureError) as info:
        integrate_semi_infinite(np.vectorize(lambda x: x * math.sin(x)),
                                POLICY)
    assert math.isfinite(info.value.partial_value)
    assert info.value.error_estimate > 0


def test_quad_result_frozen():
    res = integrate_semi_infinite(np.vectorize(lambda r: math.exp(-r)),
                                  POLICY)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.value = 0.0


def test_quadrature_batches_its_nodes():
    """Each refinement round hands all of its nodes to f as one 1-D array,
    so f runs a handful of times, not once per node."""
    calls = []

    def f(r):
        calls.append(r)
        return np.exp(-r)

    res = integrate_semi_infinite(f, POLICY)
    assert res.value == pytest.approx(1.0, rel=1e-9)
    assert 1 <= len(calls) <= 15
    assert all(isinstance(r, np.ndarray) and r.ndim == 1 for r in calls)
    assert sum(len(r) for r in calls) == res.evaluations


def test_gauss_kronrod_rule_degrees():
    """The 21-point Kronrod rule integrates x^p over [-1, 1] exactly up to
    p = 31, and its embedded rule is the 10-point Gauss-Legendre one, exact
    up to p = 19."""
    x = numerics._GK_NODES
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(10)
    in_gauss = numerics._G_WEIGHTS > 0
    np.testing.assert_allclose(x[in_gauss], gauss_x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(numerics._G_WEIGHTS[in_gauss], gauss_w,
                               rtol=0, atol=1e-15)
    for p in range(32):
        exact = (1.0 - (-1.0) ** (p + 1)) / (p + 1)
        assert numerics._GK_WEIGHTS @ x ** p == pytest.approx(exact, abs=1e-15)
        if p < 20:
            assert numerics._G_WEIGHTS @ x ** p == pytest.approx(exact,
                                                                 abs=1e-15)


# ---------------------------------------------------------------------------
# truncated Poisson sum
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,th", [(1, 0.5), (3, 2.5), (50, 40.0),
                                  (200, 180.0), (7, 30.0)])
def test_poisson_sum_against_high_precision(m, th):
    """Independent route: the literal partial sum in 50-digit arithmetic."""
    mpmath.mp.dps = 50
    exact = float(sum(mpmath.e ** (-mpmath.mpf(th)) * mpmath.mpf(th) ** j
                      / mpmath.factorial(j) for j in range(m)))
    assert poisson_cdf_upper(m, th) == pytest.approx(exact, rel=1e-12,
                                                     abs=1e-300)


def test_poisson_sum_equals_erlang_tail_by_quadrature():
    """Dual route for the Erlang identity: integrate the Gamma(m, 1)
    density over [theta, inf) by substitution and compare."""
    m, th = 4, 3.7
    tail = integrate_semi_infinite(
        np.vectorize(lambda u: (th + u) ** (m - 1) * math.exp(-(th + u))
                     / math.factorial(m - 1)),
        POLICY, scale=float(m)).value
    assert poisson_cdf_upper(m, th) == pytest.approx(tail, rel=1e-10)


def test_poisson_sum_boundary_cases():
    assert poisson_cdf_upper(3, 0.0) == 1.0
    assert poisson_cdf_upper(3, -5.0) == 1.0
    assert poisson_cdf_upper(1, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    # far tails neither overflow nor go negative
    assert poisson_cdf_upper(2000, 1.0) == pytest.approx(1.0)
    assert 0.0 <= poisson_cdf_upper(1, 700.0) < 1e-200


def test_poisson_sum_rejects_bad_shape():
    with pytest.raises(ValueError):
        poisson_cdf_upper(0, 1.0)
    with pytest.raises(ValueError):
        poisson_cdf_upper(1.5, 1.0)


@settings(deadline=None, max_examples=200)
@given(m=st.integers(min_value=1, max_value=500),
       th=st.floats(min_value=1e-3, max_value=500.0),
       bump=st.floats(min_value=1e-3, max_value=50.0))
def test_poisson_sum_monotonicity(m, th, bump):
    base = poisson_cdf_upper(m, th)
    assert 0.0 <= base <= 1.0
    # more accumulation slots help, a higher demand hurts
    assert poisson_cdf_upper(m + 1, th) >= base
    assert poisson_cdf_upper(m, th + bump) <= base + 1e-15


# ---------------------------------------------------------------------------
# fit record
# ---------------------------------------------------------------------------

def test_fit_result_frozen():
    fit = FitResult(coefficients=(1.0, 2.0), residual=0.5, iterations=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fit.residual = 0.0
