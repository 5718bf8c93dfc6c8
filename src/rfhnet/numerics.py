"""Numerical kernels: half-line quadrature, Poisson tail sums, and the
record a least-squares fit returns.

These are deliberately thin wrappers over scipy routines, pinned down by
contracts the rest of the package relies on (see tests).  Nothing in here
knows about the network model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy import integrate, special

# Absolute floor handed to the adaptive integrator so that integrals whose
# true value is exactly zero can still converge.
_QUAD_ABS_FLOOR = 1e-14
_MAX_SUBDIVISIONS = 200


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


def integrate_semi_infinite(f: Callable[[float], float],
                            policy,
                            scale: float = 1.0) -> QuadResult:
    """Integrate f over [0, inf).

    The substitution r = scale * u / (1 - u) maps the half line onto the
    finite interval [0, 1); adaptive Gauss-Kronrod subdivision then handles
    the transformed integrand.  `scale` should sit near the bulk of the
    integrand's mass so the transformed peak stays well clear of u = 1;
    integrands decaying exponentially (or any power faster than 1/r^2 in the
    tail) are handled routinely.
    """
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    evaluations = [0]

    def transformed(u):
        evaluations[0] += 1
        w = 1.0 - u
        return f(scale * u / w) * scale / (w * w)

    out = integrate.quad(transformed, 0.0, 1.0,
                         epsabs=_QUAD_ABS_FLOOR,
                         epsrel=policy.quad_rel_tol,
                         limit=_MAX_SUBDIVISIONS,
                         full_output=1)
    value, abs_err = out[0], out[1]
    if len(out) > 3:
        # QUADPACK flagged non-convergence; accept only if its own error
        # estimate is comfortably inside tolerance anyway.
        if abs_err > max(10 * policy.quad_rel_tol * abs(value), 10 * _QUAD_ABS_FLOOR):
            raise QuadratureError(
                f"semi-infinite quadrature failed to converge: {out[3]}",
                partial_value=value, error_estimate=abs_err)
    return QuadResult(float(value), float(abs_err), evaluations[0])


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


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit.

    coefficients  the best point found (tuple, one entry per parameter)
    residual      sum of squared residuals at that point
    iterations    objective evaluations spent
    """

    coefficients: tuple
    residual: float
    iterations: int
