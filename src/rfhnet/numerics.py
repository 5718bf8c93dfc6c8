"""Numerical kernels: half-line quadrature and Poisson tail sums.

These are pinned down by contracts the rest of the package relies on (see
tests).  Nothing in here knows about the network model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

# Absolute floor handed to the adaptive integrator so that integrals whose
# true value is exactly zero can still converge.
_QUAD_ABS_FLOOR = 1e-14
_MAX_SUBDIVISIONS = 200
# An interval narrower than this fraction of its upper end is not bisected:
# near u = 1 its nodes would stop being distinct from each other and from 1
_MIN_REL_WIDTH = 1e-12

# QUADPACK's qk21 rule on [-1, 1]: the positive Kronrod abscissae in
# descending order, then 0; their weights; and the weights of the embedded
# 10-point Gauss rule, whose nodes are the 2nd, 4th, ... 10th abscissae.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208844373801, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# the same rule as 21 ascending nodes; the Gauss weights are 0 at the
# Kronrod-only nodes
_GK_NODES = np.concatenate((np.negative(_XGK[:-1]), _XGK[::-1]))
_GK_WEIGHTS = np.concatenate((_WGK[:-1], _WGK[::-1]))
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _WG
_G_WEIGHTS[19:10:-2] = _WG
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Adaptive subdivision ran out of budget before reaching tolerance.

    Carries the partial value and the integrator's own error estimate so a
    caller can decide whether the partial answer is usable.
    """

    def __init__(self, message: str, partial_value: float, error_estimate: float):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate


def _kronrod(g, lo: np.ndarray, hi: np.ndarray):
    """The qk21 rule on each interval [lo, hi]: its value and QUADPACK's
    error estimate, from one call of g on every node of every interval."""
    half = 0.5 * (hi - lo)
    u = (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES
    fv = g(u.ravel()).reshape(u.shape)
    kronrod = (fv * _GK_WEIGHTS).sum(axis=1)
    gauss = (fv * _G_WEIGHTS).sum(axis=1)
    mean = 0.5 * kronrod
    res_abs = (np.abs(fv) * _GK_WEIGHTS).sum(axis=1) * half
    res_asc = (np.abs(fv - mean[:, None]) * _GK_WEIGHTS).sum(axis=1) * half
    err = np.abs((kronrod - gauss) * half)
    # QUADPACK scales the Kronrod-Gauss difference by the integrand's
    # variation over the interval, and floors it at the rounding level
    scaled = (res_asc > 0) & (err > 0)
    err[scaled] = res_asc[scaled] * np.minimum(
        1.0, (200.0 * err[scaled] / res_asc[scaled]) ** 1.5)
    rounding = res_abs > _TINY / (50.0 * _EPS)
    err[rounding] = np.maximum(50.0 * _EPS * res_abs[rounding], err[rounding])
    return kronrod * half, err


def integrate_semi_infinite(f: Callable[[np.ndarray], np.ndarray],
                            policy,
                            scale: float = 1.0) -> QuadResult:
    """Integrate f over [0, inf).  f takes a 1-D array of points and returns
    its values there (or a scalar that broadcasts to them).

    The substitution r = scale * u / (1 - u) maps the half line onto the
    finite interval [0, 1), where QUADPACK's 21-point Gauss-Kronrod rule
    runs adaptively.  Each round bisects the intervals with the largest
    error estimates, as many as it takes for the others to hold at most
    the tolerance, and hands all of their nodes to f in one call.  It
    stops once the summed error estimate is within max(_QUAD_ABS_FLOOR,
    policy.quad_rel_tol * |value|).  `scale` should sit near the bulk of the
    integrand's mass so the transformed peak stays well clear of u = 1;
    integrands decaying exponentially (or any power faster than 1/r^2 in the
    tail) are handled routinely.  Past _MAX_SUBDIVISIONS intervals, or
    where an interval is too narrow to bisect, a result whose error estimate
    is not comfortably inside the tolerance raises QuadratureError.
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    evaluations = 0

    def transformed(u):
        nonlocal evaluations
        evaluations += len(u)
        w = 1.0 - u
        return f(scale * u / w) * (scale / (w * w))

    lo, hi = np.array([0.0]), np.array([1.0])
    res, err = _kronrod(transformed, lo, hi)
    while True:
        value, abs_err = float(res.sum()), float(err.sum())
        tol = max(_QUAD_ABS_FLOOR, policy.quad_rel_tol * abs(value))
        if abs_err <= tol:
            return QuadResult(value, abs_err, evaluations)
        order = np.argsort(-err, kind="stable")
        left = abs_err - np.cumsum(err[order])
        count = int(np.argmax(left <= tol)) + 1
        pick = order[:min(count, _MAX_SUBDIVISIONS - len(lo))]
        if (len(pick) == 0
                or np.any(hi[pick] - lo[pick] <= _MIN_REL_WIDTH * hi[pick])):
            break
        mid = 0.5 * (lo[pick] + hi[pick])
        new_lo = np.concatenate((lo[pick], mid))
        new_hi = np.concatenate((mid, hi[pick]))
        new_res, new_err = _kronrod(transformed, new_lo, new_hi)
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        res = np.concatenate((res[keep], new_res))
        err = np.concatenate((err[keep], new_err))
    # out of intervals or of resolution: accept only if the error estimate
    # is comfortably inside tolerance anyway
    if abs_err > max(10 * policy.quad_rel_tol * abs(value), 10 * _QUAD_ABS_FLOOR):
        raise QuadratureError(
            f"semi-infinite quadrature failed to converge: error estimate "
            f"{abs_err:.3g} after {len(lo)} intervals",
            partial_value=value, error_estimate=abs_err)
    return QuadResult(value, abs_err, evaluations)


def poisson_cdf_upper(m: int, theta: float) -> float:
    """Sum of the first m Poisson(theta) masses, sum_{j=0}^{m-1} e^-theta theta^j / j!.

    Equivalently the probability that a unit-rate Erlang(m) sum exceeds
    theta.  Evaluated through the regularized upper incomplete gamma
    function, which computes the same quantity without overflow for large
    (m, theta).  theta <= 0 returns exactly 1.
    """
    if m < 1 or int(m) != m:
        raise ValueError("m must be an integer >= 1")
    if theta <= 0:
        return 1.0
    return float(special.gammaincc(m, theta))

