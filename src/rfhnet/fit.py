"""Least-squares fit of the unit-cell distance profile, behind `rfhnet fit`;
only that command imports it, which keeps scipy.optimize out of every other
command's start-up."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .analytic import (Coeffs, conditional_distance_pdf,
                       reconstructed_distance_pdf, unit_distance_pdf)
from .core import NumericPolicy
from .numerics import integrate_semi_infinite

# normalized serving distances (unit station density) the fit matches
R_GRID = np.linspace(0.025, 2.0, 80)


@dataclass(frozen=True)
class FitResult:
    """Best coefficients, their sum of squared residuals, evaluations spent."""
    coefficients: tuple
    residual: float
    iterations: int


def profile_table(coefficients: Coeffs):
    """R_GRID, the serving-distance density there, and its reconstruction."""
    return (R_GRID, unit_distance_pdf(R_GRID),
            reconstructed_distance_pdf(R_GRID, coefficients))


def fit_conditional_distance_pdf(policy: NumericPolicy) -> FitResult:
    """Recover the unit-cell distance profile coefficients by bounded least
    squares: (c1, c3, c4), with c2 pinned at 1, such that the profile mixed
    over the cell area reproduces the exact serving-distance density on
    R_GRID.  The iteration count is the residual evaluations, not counting
    the finite-difference Jacobian's.  A fitted profile that is badly
    non-normalized raises RuntimeError."""
    target = unit_distance_pdf(R_GRID)

    def residual(v):
        c1, c3, c4 = v
        return reconstructed_distance_pdf(R_GRID, (c1, 1.0, c3, c4)) - target

    fit = optimize.least_squares(residual, x0=(4.0, 3.0, 2.0),
                                 bounds=((0.5, 0.5, 1.2), (30.0, 30.0, 6.0)))
    c1, c3, c4 = (float(v) for v in fit.x)
    coeffs = (c1, 1.0, c3, c4)

    norm = integrate_semi_infinite(
        lambda u: conditional_distance_pdf(u, coeffs), policy, scale=0.5)
    if abs(norm.value - 1.0) > 0.05:
        raise RuntimeError(
            f"fitted profile integrates to {norm.value:.4f}, expected ~1")
    return FitResult(coefficients=coeffs, residual=2.0 * float(fit.cost),
                     iterations=int(fit.nfev))
