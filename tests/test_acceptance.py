"""End-to-end acceptance checks.

Eight checks covering the closed forms, the field-sampling oracle, the
slot-level simulator, the coefficient fit, and the CLI-level invariants.
Each prints a PASS line with its headline numbers so `pytest -v -s` doubles
as a results table.  Simulation checks use frozen seeds; tolerances combine
a fixed floor with three standard errors where sampling noise is involved.
"""
import math
import time

import numpy as np
import pytest

from oracle_harvest import mc_ready
from rfhnet import analytic
from rfhnet.core import (NetworkParams, NumericPolicy, per_km2_to_per_m2)
from rfhnet.fit import fit_conditional_distance_pdf, profile_table
from rfhnet.mcsim import SimConfig, estimate
from rfhnet.numerics import integrate_semi_infinite

POLICY = NumericPolicy()
SIM_SEED = 20260822


def params_at(lambda_b_km2, lambda_u_km2, e_th, alpha=3.0):
    return NetworkParams(lambda_b=per_km2_to_per_m2(lambda_b_km2),
                         lambda_u=per_km2_to_per_m2(lambda_u_km2),
                         p_s=1.0, alpha=alpha, a_eff=0.5, e_th=e_th,
                         sigma2=0.0)


# ---------------------------------------------------------------------------
# 1. distance-averaged rate tail collapses to 1/(1+rho)
# ---------------------------------------------------------------------------

def test_rate_tail_identity_interference_limited():
    """Integrating the conditional rate CCDF against the serving-distance
    density must reproduce the closed form 1/(1+rho(2^t-1)) in the
    noise-free regime, across path-loss exponents and densities."""
    worst = 0.0
    for alpha in (3.0, 4.0):
        for lb in (10.0, 100.0, 1000.0):
            p = params_at(lb, 0.0, 1e-5, alpha=alpha)
            for t in (0.5, 1.0, 2.0, 4.0):
                lhs = integrate_semi_infinite(
                    np.vectorize(lambda r: analytic.capacity_ccdf(t, r, p)
                                 * analytic.nearest_distance_pdf(r, p)),
                    POLICY, scale=0.5 / math.sqrt(p.lambda_b)).value
                rhs = 1.0 / (1.0 + analytic.rho(2.0 ** t - 1.0, alpha))
                rel = abs(lhs - rhs) / rhs
                worst = max(worst, rel)
                assert rel <= 1e-6, (alpha, lb, t)
    print(f"\nPASS rate-tail identity: 24 points, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. interference scaling closed form at alpha = 4
# ---------------------------------------------------------------------------

def test_interference_scaling_closed_form():
    worst = 0.0
    for x in (0.1, 1.0, 10.0):
        exact = math.sqrt(x) * math.atan(math.sqrt(x))
        rel = abs(analytic.rho(x, 4.0) - exact) / exact
        worst = max(worst, rel)
        assert rel <= 1e-9, x
    print(f"\nPASS quartic-path-loss scaling: worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. readiness probability against a field-sampling oracle
# ---------------------------------------------------------------------------

# (n, k, r1): spans empty through crowded cells, single and multi round,
# near and far serving distances, both activation energies
ORACLE_POINTS = [
    (0, 1, 20.0, 7e-5),
    (2, 1, 20.0, 1e-5),
    (9, 1, 20.0, 7e-5),
    (2, 3, 60.0, 1e-5),
    (0, 3, 60.0, 7e-5),
]


def test_readiness_against_field_oracle():
    """The closed-form readiness against direct sampling of the harvest
    field (serving link + exact Poisson annulus + far-field mean), 1e5
    draws per point, tolerance max(3 standard errors, 0.03)."""
    t0 = time.time()
    gaps = []
    for (n, k, r1, e_th) in ORACLE_POINTS:
        p = params_at(100.0, 150.0, e_th)
        ana = analytic.energy_ready_prob(k, n, r1, p, POLICY)
        mc, se = mc_ready(p, n, k, r1, n_draws=100_000, seed=SIM_SEED)
        gap = abs(ana - mc)
        gaps.append(gap)
        assert gap <= max(3.0 * se, 0.03), (n, k, r1, e_th, ana, mc)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\nPASS readiness oracle: 5 points, max gap {max(gaps):.5f}, "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. delivery probability, closed form vs slot-level simulation
# ---------------------------------------------------------------------------

LAMBDA_B_GRID = (100.0, 250.0, 400.0, 550.0, 775.0, 1000.0)


def test_delivery_curves_against_simulation():
    """Both operating curves over the station-density grid: closed form vs
    the slot-level simulator, tolerance max(0.05, 3 standard errors)."""
    t0 = time.time()
    cfg = SimConfig(n_slots=600, n_replications=24, seed=SIM_SEED)
    worst = 0.0
    high_density_high_eth = None
    for (e_th, lambda_u) in ((1e-5, 450.0), (7e-5, 150.0)):
        for lb in LAMBDA_B_GRID:
            p = params_at(lb, lambda_u, e_th)
            ana = analytic.delivery_prob(p, POLICY).p_tr
            sim = estimate(p, cfg)
            gap = abs(ana - sim.p_tr_hat)
            tol = max(0.05, 3.0 * sim.p_tr_stderr)
            assert gap <= tol, (e_th, lb, ana, sim.p_tr_hat, sim.p_tr_stderr)
            worst = max(worst, gap)
            if e_th == 7e-5 and lb == LAMBDA_B_GRID[-1]:
                high_density_high_eth = sim.p_tr_hat
    # the high-energy curve flattens near one half at high station density
    assert 0.40 <= high_density_high_eth <= 0.60
    elapsed = time.time() - t0
    print(f"\nPASS delivery curves: 12 points, worst |gap| {worst:.4f}, "
          f"dense high-energy point {high_density_high_eth:.3f}, "
          f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. unit-cell distance profile fit
# ---------------------------------------------------------------------------

REFERENCE_COEFFS = (6.029, 1.0, 3.891, 2.7)


def test_profile_fit_recovers_reference():
    fit = fit_conditional_distance_pdf(POLICY)
    c1, c2, c3, c4 = fit.coefficients
    assert c2 == 1.0
    assert abs(c1 - REFERENCE_COEFFS[0]) / REFERENCE_COEFFS[0] <= 0.10
    assert abs(c3 - REFERENCE_COEFFS[2]) / REFERENCE_COEFFS[2] <= 0.10
    assert abs(c4 - REFERENCE_COEFFS[3]) / REFERENCE_COEFFS[3] <= 0.10
    _, target, rec = profile_table(fit.coefficients)
    gap = float(np.max(np.abs(rec - target)))
    assert gap <= 0.05 * float(target.max())
    print(f"\nPASS profile fit: c=({c1:.3f}, {c2:.0f}, {c3:.3f}, {c4:.3f}), "
          f"reconstruction gap {gap / target.max():.3%} of peak")


# ---------------------------------------------------------------------------
# 6. area throughput saturates in the user density
# ---------------------------------------------------------------------------

LAMBDA_U_GRID = (150.0, 300.0, 600.0, 1500.0, 3600.0, 7500.0)


def saturation_index(vals, eps=0.02):
    for i in range(len(vals) - 1):
        if (vals[i + 1] - vals[i]) / vals[i + 1] < eps:
            return i
    return len(vals) - 1


def test_throughput_saturates_with_user_density():
    sat = {}
    for lb in (100.0, 300.0):
        vals = [analytic.total_throughput(params_at(lb, lu, 7e-5),
                                          POLICY).t_total
                for lu in LAMBDA_U_GRID]
        assert all(b >= a for a, b in zip(vals, vals[1:])), lb
        assert (vals[-1] - vals[-2]) / vals[-1] < 0.02, lb
        sat[lb] = saturation_index(vals)
    # a denser deployment keeps absorbing users before flattening out
    assert LAMBDA_U_GRID[sat[300.0]] > LAMBDA_U_GRID[sat[100.0]]
    print(f"\nPASS throughput saturation: flattens at "
          f"{LAMBDA_U_GRID[sat[100.0]]:.0f}/km2 (100/km2 stations) vs "
          f"{LAMBDA_U_GRID[sat[300.0]]:.0f}/km2 (300/km2 stations)")


# ---------------------------------------------------------------------------
# 7. sustainable user load falls with station density
# ---------------------------------------------------------------------------

def test_sustainable_ratio_decreases_with_density():
    template = params_at(100.0, 450.0, 7e-5)
    ratios = [analytic.sustainable_ratio(per_km2_to_per_m2(lb), template,
                                         POLICY)
              for lb in (100.0, 300.0, 600.0)]
    assert ratios[0] > ratios[1] > ratios[2]
    print(f"\nPASS sustainable ratio: "
          + " > ".join(f"{r:.2f}" for r in ratios))


# ---------------------------------------------------------------------------
# 8. structural properties: bounds, normalization, limits, determinism
# ---------------------------------------------------------------------------

def test_probabilities_stay_in_unit_interval():
    """1000 seeded operating points spanning three decades of density,
    five of activation energy, and the full cell-population range: every
    probability the model emits stays inside [0, 1]."""
    rng = np.random.default_rng(SIM_SEED)
    for _ in range(1000):
        lb = 10.0 ** rng.uniform(0.0, 3.5)
        r1 = 10.0 ** rng.uniform(-0.3, 2.6)
        e_th = 10.0 ** rng.uniform(-8.0, -3.0)
        n = int(rng.integers(0, 51))
        k = int(rng.integers(1, 31))
        p = params_at(lb, 450.0, e_th)
        f = analytic.energy_ready_prob(k, n, r1, p, POLICY)
        assert 0.0 <= f <= 1.0, (lb, r1, e_th, n, k)
        d = analytic.delivery_prob_given_n_r1(n, r1, p, POLICY)
        assert 0.0 <= d <= 1.0, (lb, r1, e_th, n)
    print("\nPASS unit-interval property: 1000 seeded operating points")


def test_population_pmf_normalizations():
    eps = POLICY.series_tail_eps
    worst = 0.0
    for lb, lu in ((100.0, 450.0), (300.0, 150.0), (1000.0, 3000.0)):
        p = params_at(lb, lu, 1e-5)
        for r1 in (10.0, 40.0, 120.0):
            mu = (p.lambda_u / p.lambda_b) * 3.0 * max(
                1.0, r1 * math.sqrt(p.lambda_b)) ** 2
            top = int(mu + 30.0 * math.sqrt(mu + 1.0)) + 40
            s = sum(analytic.users_pmf_given_r1(n, r1, p, POLICY)
                    for n in range(top))
            worst = max(worst, abs(s - 1.0))
            assert abs(s - 1.0) <= max(10.0 * eps, 1e-7), (lb, lu, r1)
    print(f"\nPASS population normalization: worst |sum-1| = {worst:.2e}")


def test_rounds_pmf_normalization():
    worst = 0.0
    for (n, r1, e_th) in ((0, 50.0, 1e-5), (2, 80.0, 7e-5), (5, 30.0, 1e-5)):
        p = params_at(100.0, 450.0, e_th)
        ks = range(1, 80)
        total = sum(analytic.rounds_pmf(k, n, r1, p, POLICY) for k in ks)
        worst = max(worst, abs(total - 1.0))
        assert total == pytest.approx(1.0, abs=10.0 * POLICY.series_tail_eps)
    print(f"\nPASS charge-rounds normalization: worst |sum-1| = {worst:.2e}")


def test_active_density_limits():
    for lb in (1e-5, 1e-4, 1e-3):
        crowded = analytic.active_station_density(lb, 1e4 * lb)
        assert abs(crowded - lb) / lb <= 1e-3
        assert analytic.active_station_density(lb, 0.0) == 0.0
        sparse = analytic.active_station_density(lb, 1e-3 * lb)
        assert sparse < 1e-3 * lb
    print("\nPASS active-density limits: crowded -> lambda_b within 0.1%")


def test_simulation_is_bit_reproducible():
    p = params_at(150.0, 300.0, 1e-5)
    cfg = SimConfig(n_slots=60, n_replications=3, seed=SIM_SEED)
    assert estimate(p, cfg) == estimate(p, cfg)
    print("\nPASS simulator determinism: identical outcomes, identical bits")
