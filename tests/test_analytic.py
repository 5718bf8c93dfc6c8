import dataclasses
import logging
import math
import re
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from oracle_harvest import mc_ready
from rfhnet import analytic
from rfhnet.core import (ErlangIndexMode, NetworkParams, NumericPolicy,
                         per_km2_to_per_m2)
from rfhnet.numerics import integrate_semi_infinite


def params_at(lambda_b_km2=100.0, lambda_u_km2=450.0, e_th=1e-5, alpha=3.0,
              sigma2=0.0):
    return NetworkParams(lambda_b=per_km2_to_per_m2(lambda_b_km2),
                         lambda_u=per_km2_to_per_m2(lambda_u_km2),
                         p_s=1.0, alpha=alpha, a_eff=0.5, e_th=e_th,
                         sigma2=sigma2)


# ---------------------------------------------------------------------------
# residual demand and readiness
# ---------------------------------------------------------------------------

def test_theta_reference_value(baseline_params):
    """Hand arithmetic at (k=1, n=9, r1=30): demand referred to the serving
    link is e_th * r1^3 / (a * p_s) = 0.54; nine slots of mean far field
    remove 2*pi*9*lambda_b*r1^2."""
    th = analytic.theta(1, 9, 30.0, baseline_params)
    demand = 1e-5 * 30.0 ** 3 / 0.5
    far = 2.0 * math.pi * 9.0 * 1e-4 * 900.0
    assert demand == pytest.approx(0.54)
    assert th == pytest.approx(demand - far, rel=1e-12)
    assert th < 0


def test_negative_theta_means_certain_readiness(baseline_params, policy):
    assert analytic.energy_ready_prob(1, 9, 30.0, baseline_params,
                                      policy) == 1.0


def test_zero_slot_degenerate_cases(policy):
    """k=1 in an empty cell spans zero harvest slots: nothing accumulated,
    so readiness is the indicator of zero residual demand."""
    p = params_at(e_th=1e-5)
    assert analytic.energy_ready_prob(1, 0, 30.0, p, policy) == 0.0
    # mean far field over zero slots is zero, so only e_th <= 0 could make
    # theta non-positive; instead shrink r1 until demand ~ 0 still > 0
    assert analytic.theta(1, 0, 30.0, p) > 0


def test_readiness_matches_independent_series(policy):
    """Dual route at (k=2, n=1, r1=50): residual demand by hand, tail sum
    in 50-digit arithmetic."""
    p = params_at(e_th=4e-5)
    m = 2 * (1 + 1) - 1          # three harvest slots
    demand = 4e-5 * 50.0 ** 3 / 0.5
    th = demand - 2.0 * math.pi * m * 1e-4 * 50.0 ** 2
    assert th > 0
    mpmath.mp.dps = 50
    exact = float(sum(mpmath.e ** (-mpmath.mpf(th)) * mpmath.mpf(th) ** j
                      / mpmath.factorial(j) for j in range(m)))
    got = analytic.energy_ready_prob(2, 1, 50.0, p, policy)
    assert got == pytest.approx(exact, rel=1e-10)


def test_index_mode_split():
    """First-round readiness in an empty cell separates the two index
    conventions exactly: zero slots have accumulated, so the slot-count
    reading gives 0, while the round-count reading keeps one fading draw
    and gives exp(-theta)."""
    p = params_at(lambda_b_km2=1e-6, e_th=4e-6)
    th = analytic.theta(1, 0, 50.0, p)
    assert th == pytest.approx(1.0, rel=1e-4)
    slot = NumericPolicy(erlang_index_mode=ErlangIndexMode.SLOT_COUNT)
    rnd = NumericPolicy(erlang_index_mode=ErlangIndexMode.ROUND_COUNT)
    assert analytic.energy_ready_prob(1, 0, 50.0, p, slot) == 0.0
    assert analytic.energy_ready_prob(1, 0, 50.0, p, rnd) == pytest.approx(
        math.exp(-th), rel=1e-12)


def test_readiness_monotone_in_rounds(baseline_params, policy):
    vals = [analytic.energy_ready_prob(k, 2, 60.0, baseline_params, policy)
            for k in range(1, 12)]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_rounds_pmf_telescopes(baseline_params, policy):
    n, r1 = 2, 60.0
    pmf = [analytic.rounds_pmf(k, n, r1, baseline_params, policy)
           for k in range(1, 40)]
    assert all(0.0 <= v <= 1.0 for v in pmf)
    total = sum(pmf)
    top = analytic.energy_ready_prob(39, n, r1, baseline_params, policy)
    assert total == pytest.approx(top, abs=1e-12)
    assert total == pytest.approx(1.0, abs=policy.series_tail_eps * 10)


def test_exact_two_round_charge_gives_half(policy):
    """Single user at r1=30 with lambda_b=100/km2 and e_th=1e-5: the first
    scheduled slot always misses (nothing accumulated), one slot of mean
    far field already covers the demand, so every delivery takes exactly
    two rounds and the delivered fraction is exactly 1/2."""
    p = params_at(lambda_u_km2=0.0)
    demand = 1e-5 * 30.0 ** 3 / 0.5
    per_slot = 2.0 * math.pi * 1e-4 * 900.0
    assert demand < per_slot
    assert analytic.delivery_prob_given_n_r1(0, 30.0, p, policy) == 0.5


def _inverse_rounds_by_scalar(n, r1, params, policy):
    """E[1/K] summed from scalar rounds_pmf, round by round, until the
    readiness is within 1e-12 of 1 or k_max_cap is reached."""
    value = mass = 0.0
    for k in range(1, policy.k_max_cap + 1):
        pmf = analytic.rounds_pmf(k, n, r1, params, policy)
        value += pmf / k
        mass += pmf
        if mass >= 1.0 - 1e-12:
            break
    return value


@pytest.mark.parametrize("block", [1000, analytic._BLOCK_ENTRIES])
@pytest.mark.parametrize("mode", list(ErlangIndexMode))
@pytest.mark.parametrize("alpha", [2.2, 3.0, 4.0])
def test_delivery_kernel_matches_scalar_rounds(alpha, mode, block,
                                               monkeypatch):
    """The vectorised kernel's E[1/K] for every n < n_ready against the
    round-by-round sum over rounds_pmf, which reaches the readiness through
    energy_ready_prob and poisson_cdf_upper.  The two differ only by the
    kernel's series_tail_eps cut, hence abs 1e-8.  At r1 = 70 m, alpha = 4,
    e_th = 70 uJ and 100 stations/km^2, n_ready hits n_max_cap.  Blocks of
    1000 entries, shorter than one k_max_cap segment, make the larger
    cases span many kernel blocks."""
    monkeypatch.setattr(analytic, "_BLOCK_ENTRIES", block)
    policy = NumericPolicy(erlang_index_mode=mode)
    hit_cap = False
    for e_th in (1e-5, 7e-5):
        for lambda_b_km2 in (100.0, 1000.0):
            p = params_at(lambda_b_km2=lambda_b_km2, e_th=e_th, alpha=alpha)
            for r1 in (20.0, 45.0, 70.0):
                demand = e_th * r1 ** alpha / 0.5
                per_slot = 2.0 * math.pi * p.lambda_b * r1 ** 2 / (alpha - 2)
                n_ready = min(math.ceil(demand / per_slot), policy.n_max_cap)
                hit_cap |= n_ready == policy.n_max_cap
                ns = np.arange(n_ready)
                got = analytic._mean_inverse_rounds(ns, r1, p, policy)
                want = [_inverse_rounds_by_scalar(int(n), r1, p, policy)
                        for n in ns]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-8,
                                           err_msg=str((e_th, lambda_b_km2,
                                                        r1)))
    assert hit_cap == (alpha == 4.0)


def test_large_population_delivers_first_try(policy):
    p = params_at(lambda_u_km2=0.0)
    assert analytic.delivery_prob_given_n_r1(1, 30.0, p, policy) == 1.0
    assert analytic.delivery_prob_given_n_r1(40, 30.0, p, policy) == 1.0


def test_argument_validation(baseline_params, policy):
    with pytest.raises(ValueError):
        analytic.theta(0, 1, 30.0, baseline_params)
    with pytest.raises(ValueError):
        analytic.theta(1, -1, 30.0, baseline_params)
    with pytest.raises(ValueError):
        analytic.theta(1, 1, 0.0, baseline_params)
    with pytest.raises(ValueError):
        analytic.energy_ready_prob(1, 2.5, 30.0, baseline_params, policy)
    with pytest.raises(ValueError):
        analytic.delivery_prob_given_r1(-1.0, baseline_params, policy)


# ---------------------------------------------------------------------------
# cell geometry
# ---------------------------------------------------------------------------

def test_nearest_distance_pdf_is_normalized(baseline_params, policy):
    total = integrate_semi_infinite(
        lambda r: analytic.nearest_distance_pdf(r, baseline_params),
        policy, scale=50.0).value
    assert total == pytest.approx(1.0, rel=1e-9)


def test_nearest_distance_pdf_peak_location(baseline_params):
    # mode of the Rayleigh density sits at 1/sqrt(2*pi*lambda_b)
    mode = 1.0 / math.sqrt(2.0 * math.pi * baseline_params.lambda_b)
    r = np.linspace(1.0, 200.0, 4000)
    pdf = analytic.nearest_distance_pdf(r, baseline_params)
    assert r[np.argmax(pdf)] == pytest.approx(mode, rel=2e-3)


def test_cell_area_pdf_matches_gamma(policy):
    xs = np.linspace(0.01, 8.0, 200)
    ref = stats.gamma.pdf(xs, a=analytic.CELL_AREA_SHAPE,
                          scale=1.0 / analytic.CELL_AREA_RATE)
    np.testing.assert_allclose(analytic.cell_area_pdf(xs), ref, rtol=1e-10)
    assert analytic.cell_area_pdf(0.0) == 0.0
    assert analytic.cell_area_pdf(-1.0) == 0.0
    total = integrate_semi_infinite(analytic.cell_area_pdf, policy,
                                    scale=1.0).value
    assert total == pytest.approx(1.0, rel=1e-9)
    mean = integrate_semi_infinite(lambda x: x * analytic.cell_area_pdf(x),
                                   policy, scale=1.0).value
    assert mean == pytest.approx(analytic.CELL_AREA_SHAPE
                                 / analytic.CELL_AREA_RATE, rel=1e-9)


def test_reference_profile_is_normalized(policy):
    total = integrate_semi_infinite(
        lambda u: analytic.conditional_distance_pdf(u), policy,
        scale=0.5).value
    assert total == pytest.approx(1.0, abs=0.02)


def test_users_pmf_normalized(baseline_params, policy):
    s = sum(analytic.users_pmf_given_r1(n, 40.0, baseline_params, policy)
            for n in range(400))
    assert s == pytest.approx(1.0, abs=1e-8)


def test_users_pmf_degenerate_without_users(policy):
    p = params_at(lambda_u_km2=0.0)
    assert analytic.users_pmf_given_r1(0, 40.0, p, policy) == 1.0
    assert analytic.users_pmf_given_r1(3, 40.0, p, policy) == 0.0


# ---------------------------------------------------------------------------
# interference scaling and capacity
# ---------------------------------------------------------------------------

def test_rho_closed_form_alpha_four():
    for x in (0.1, 1.0, 10.0):
        exact = math.sqrt(x) * math.atan(math.sqrt(x))
        assert analytic.rho(x, 4.0) == pytest.approx(exact, rel=1e-11)


def test_rho_hypergeometric_oracle():
    """Independent route through the Gauss hypergeometric representation
    2x/(alpha-2) * 2F1(1, 1-2/alpha; 2-2/alpha; -x), in 30-digit
    arithmetic, down to alpha near 2 where the tail decays slowest."""
    mpmath.mp.dps = 30
    for alpha in (2.05, 2.2, 2.5, 3.0, 4.0, 5.5):
        for x in np.logspace(-8, 12, 21):
            ref = float(2 * x / (alpha - 2)
                        * mpmath.hyp2f1(1, 1 - 2 / alpha, 2 - 2 / alpha, -x))
            assert analytic.rho(x, alpha) == pytest.approx(ref, rel=1e-9)


def test_rho_matches_its_integral_definition():
    """x^(2/alpha) * integral_{x^(-2/alpha)}^inf du / (1 + u^(alpha/2)),
    integrated in 30-digit arithmetic after u = w^(-2/(alpha-2)), which
    maps the slowly decaying tail onto the finite range [0, x^(1-2/alpha)]
    with a bounded integrand."""
    mpmath.mp.dps = 30
    for alpha in (2.05, 2.2, 3.0, 5.5):
        a = mpmath.mpf(alpha)
        for x in (1e-8, 1e-2, 1.0, 1e4, 1e12):
            top = mpmath.mpf(x) ** (1 - 2 / a)
            nodes = [0, top] if top <= 1 else [0, 1, top]
            ref = float(mpmath.mpf(x) ** (2 / a) * 2 / (a - 2)
                        * mpmath.quad(lambda w: 1 / (1 + w ** (a / (a - 2))),
                                      nodes))
            assert analytic.rho(x, alpha) == pytest.approx(ref, rel=1e-9)


def test_rho_finite_and_increasing_up_to_huge_thresholds():
    xs = np.logspace(-8, 300, 309)
    for alpha in (2.05, 2.2, 3.0, 8.0):
        vals = [analytic.rho(x, alpha) for x in xs]
        assert all(math.isfinite(v) and v > 0 for v in vals), alpha
        assert all(b > a for a, b in zip(vals, vals[1:])), alpha


def test_rho_validation():
    with pytest.raises(ValueError):
        analytic.rho(0.0, 3.0)
    with pytest.raises(ValueError):
        analytic.rho(1.0, 2.0)


def test_capacity_ccdf_basics(baseline_params):
    assert analytic.capacity_ccdf(0.0, 40.0, baseline_params) == 1.0
    ts = np.linspace(0.01, 12.0, 60)
    vals = [analytic.capacity_ccdf(t, 40.0, baseline_params) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert analytic.capacity_ccdf(4000.0, 40.0, baseline_params) == 0.0


def test_capacity_ccdf_interference_free_overflow_window(baseline_params):
    """Regression: with sigma2 = 0 the noise term used to be assembled as
    (huge finite) * r1^alpha * 0.0 = inf * 0 = nan in a narrow window of t
    just below the exp overflow cutoff, poisoning whole rate integrals."""
    v = analytic.capacity_ccdf(1017.4281557183168, 23.618791010902264,
                               baseline_params)
    assert math.isfinite(v)
    assert 0.0 <= v <= 1.0


def test_capacity_ccdf_noise_reduces_tail(baseline_params):
    noisy = dataclasses.replace(baseline_params, sigma2=1e-9)
    for t in (0.5, 2.0, 6.0):
        assert (analytic.capacity_ccdf(t, 60.0, noisy)
                < analytic.capacity_ccdf(t, 60.0, baseline_params))


def test_coverage_identity_spot_check(baseline_params, policy):
    """Distance-averaged rate CCDF in the interference-limited regime:
    integrating exp(-pi*lambda*r^2*rho) against the Rayleigh serving
    distance collapses to 1/(1+rho)."""
    t = 1.0
    lhs = integrate_semi_infinite(
        lambda r: analytic.capacity_ccdf(t, r, baseline_params)
        * analytic.nearest_distance_pdf(r, baseline_params),
        policy, scale=0.5 / math.sqrt(baseline_params.lambda_b)).value
    rho = analytic.rho(2.0 ** t - 1.0, baseline_params.alpha)
    assert lhs == pytest.approx(1.0 / (1.0 + rho), rel=1e-8)


def test_expected_capacity_scale_invariance(baseline_params, policy):
    """With sigma2 = 0 the SIR field is scale-free: quartering the station
    density while doubling the serving distance changes nothing."""
    a = analytic.expected_capacity_given_r1(40.0, baseline_params, policy)
    quarter = dataclasses.replace(baseline_params,
                                  lambda_b=baseline_params.lambda_b / 4.0)
    b = analytic.expected_capacity_given_r1(80.0, quarter, policy)
    assert a == pytest.approx(b, rel=1e-9)
    assert a > 0


# where 2^t - 1 overflows; capacity_ccdf is 0 past it
RATE_T_CUT = math.log(sys.float_info.max) / math.log(2.0)


def adaptive_mean_rate(r1, params):
    """E[C|r1] by adaptive quadrature of the scalar capacity_ccdf.  It runs
    on [0, RATE_T_CUT] with a breakpoint at every power of two from 2^-40,
    so that it finds the mass at any rate scale, and so that the CCDF's
    drop to 0 at the cut is an end point: with alpha = 60 and q = 1e-10 it
    is still 0.15 there, and the half-line map of integrate_semi_infinite
    then converges to a value 2e-9 off while estimating 1e-11."""
    value, _ = integrate.quad(
        lambda t: analytic.capacity_ccdf(t, r1, params), 0.0, RATE_T_CUT,
        points=[2.0 ** k for k in range(-40, 11)], epsabs=1e-16,
        epsrel=1e-12, limit=2000)
    return value


@pytest.mark.parametrize("alpha", [2.01, 2.05, 2.2, 3.0, 4.0, 5.5, 60.0])
def test_rate_lattice_matches_adaptive_reference(alpha, policy):
    """The fixed-lattice E[C|r1] against the adaptive integral of the
    scalar rate CCDF, with and without noise: over interference weights
    q = pi*lambda_b*r1^2 from 1e-13 to 1e2, and at r1 = 0.1 mm and 100 km,
    where the rate reaches its float limits.  No RuntimeWarning either."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sigma2 in (0.0, 1e-12, 1e-9):
            p = params_at(alpha=alpha, sigma2=sigma2)
            r1s = [math.sqrt(q / (math.pi * p.lambda_b))
                   for q in np.logspace(-13, 2, 16)]
            for r1 in r1s + [1e-4, 1e5]:
                got = analytic.expected_capacity_given_r1(r1, p, policy)
                ref = adaptive_mean_rate(r1, p)
                assert abs(got - ref) <= max(1e-9 * ref, 1e-14), (sigma2, r1)


def test_rho_overflows_quietly_near_alpha_two():
    """Within 0.01 of alpha = 2, rho of the largest float exceeds the float
    range: +inf, without an overflow warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert analytic.rho(sys.float_info.max, 2.01) == math.inf
        assert math.isfinite(analytic.rho(1e300, 2.01))


def test_avg_cell_throughput_logs_diagnostics_at_debug(baseline_params,
                                                        policy, caplog,
                                                        capsys):
    """One debug line per call reports the distance quadrature's
    evaluations and error estimate and the rate lattice's largest embedded
    error estimate; nothing reaches stdout."""
    with caplog.at_level(logging.DEBUG, logger="rfhnet.analytic"):
        analytic.avg_cell_throughput(baseline_params, policy)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "rfhnet.analytic"]
    assert len(lines) == 1
    m = re.fullmatch(r"avg_cell_throughput: distance quadrature (\d+) "
                     r"evaluations, abs error estimate (\S+); rate lattice "
                     r"largest h vs 2h error estimate (\S+) bits/slot",
                     lines[0])
    assert m and int(m.group(1)) > 0
    assert 0.0 <= float(m.group(2)) < 1e-6
    assert 0.0 <= float(m.group(3)) < 1e-6
    assert capsys.readouterr().out == ""


def test_active_station_density_closed_form():
    lam = 1e-4
    assert analytic.active_station_density(lam, 3.5 * lam) == pytest.approx(
        lam * (1.0 - 2.0 ** -3.5), rel=1e-12)
    assert analytic.active_station_density(lam, 0.0) == 0.0
    assert analytic.active_station_density(lam, 1e4 * lam) == pytest.approx(
        lam, rel=1e-3)
    assert analytic.active_station_density(lam, 5.0 * lam) < lam
    with pytest.raises(ValueError):
        analytic.active_station_density(0.0, 1.0)
    with pytest.raises(ValueError):
        analytic.active_station_density(lam, -1.0)


# ---------------------------------------------------------------------------
# delivery probability, frozen operating curves
# ---------------------------------------------------------------------------

# lambda_b [km^-2] -> p_tr; first curve e_th = 10 uJ with 450 users/km2,
# second e_th = 70 uJ with 150 users/km2.  Frozen from this implementation.
CURVE_LOW_ETH = {100.0: 0.9740, 250.0: 0.9218, 400.0: 0.8562,
                 550.0: 0.8045, 775.0: 0.7481, 1000.0: 0.7087}
CURVE_HIGH_ETH = {100.0: 0.3985, 250.0: 0.5107, 400.0: 0.5632,
                  550.0: 0.5910, 775.0: 0.5998, 1000.0: 0.5851}


@pytest.mark.parametrize("e_th,lambda_u_km2,table", [
    (1e-5, 450.0, CURVE_LOW_ETH),
    (7e-5, 150.0, CURVE_HIGH_ETH),
])
def test_delivery_prob_frozen_curves(policy, e_th, lambda_u_km2, table):
    for lb, expected in table.items():
        p = params_at(lambda_b_km2=lb, lambda_u_km2=lambda_u_km2, e_th=e_th)
        got = analytic.delivery_prob(p, policy).p_tr
        assert got == pytest.approx(expected, abs=1e-4), (lb, e_th)


def test_delivery_breakdown_consistency(baseline_params, policy):
    br = analytic.delivery_prob(baseline_params, policy)
    assert 0.0 <= br.p_tr <= 1.0
    assert br.p_tr_given_r1(40.0) == analytic.delivery_prob_given_r1(
        40.0, baseline_params, policy)
    assert br.expected_users_typical_cell == pytest.approx(5.7336, abs=0.01)
    # the typical user's cell is size-biased, so its population must exceed
    # lambda_u/lambda_b, and stay near the biased-area prediction
    ratio = baseline_params.lambda_u / baseline_params.lambda_b
    biased = ratio * analytic.CELL_AREA_SHAPE / analytic.CELL_AREA_RATE
    assert br.expected_users_typical_cell > ratio
    assert br.expected_users_typical_cell == pytest.approx(biased, rel=0.02)


@pytest.mark.parametrize("lambda_b_km2", [10.0, 100.0, 1000.0])
def test_mean_users_matches_distance_integral(lambda_b_km2, policy):
    """The typical cell's mean population, as the serving-distance integral
    of lambda_u/lambda_b times the area mixture's mean."""
    p = params_at(lambda_b_km2=lambda_b_km2)
    ratio = p.lambda_u / p.lambda_b

    def users_at(r):
        xi, wt = analytic._area_mixture(r * math.sqrt(p.lambda_b),
                                        analytic.UNIT_CELL_COEFFS)
        return ratio * float(np.dot(wt, xi)) \
            * analytic.nearest_distance_pdf(r, p)

    exact = integrate_semi_infinite(users_at, policy,
                                    scale=0.5 / math.sqrt(p.lambda_b)).value
    got = analytic.delivery_prob(p, policy).expected_users_typical_cell
    assert got == pytest.approx(exact, rel=1e-12)


def test_delivery_prob_with_demand_beyond_float_range(policy):
    """At alpha = 60, r1^alpha overflows at 200 km: the demand is then
    infinite, every population below n_max_cap waits forever, and p_tr is
    still a probability."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p_tr = analytic.delivery_prob_given_r1(2e5, params_at(alpha=60.0),
                                               policy)
    assert 0.0 <= p_tr <= 1.0


def test_delivery_prob_validates_params(policy):
    bad = NetworkParams(lambda_b=1e-4, lambda_u=1e-4, p_s=1.0, alpha=2.0,
                        a_eff=0.5, e_th=1e-5)
    with pytest.raises(ValueError, match="alpha"):
        analytic.delivery_prob(bad, policy)


def test_mean_field_error_is_bounded_and_visible(policy):
    """The closed form replaces the far-field harvest by its mean; against
    a direct field-sampling oracle that costs a few hundredths at
    mid-curve operating points.  Keep the error measured, not hidden."""
    p = params_at(lambda_u_km2=150.0, e_th=7e-5)
    for (n, k, r1) in [(2, 1, 20.0), (9, 1, 60.0)]:
        ana = analytic.energy_ready_prob(k, n, r1, p, policy)
        mc, se = mc_ready(p, n, k, r1, n_draws=100_000, seed=5)
        gap = abs(ana - mc)
        assert 0.01 <= gap <= 0.08, (n, k, r1, ana, mc)


# ---------------------------------------------------------------------------
# throughput assembly
# ---------------------------------------------------------------------------

def test_total_throughput_near_alpha_two(policy):
    """alpha = 2.2 passes validation, so the rate chain must give a number:
    the value recorded with rho in closed form at 100 stations and 450
    users per km^2, e_th = 10 uJ."""
    rep = analytic.total_throughput(params_at(alpha=2.2), policy)
    assert rep.t_total == pytest.approx(3.575853909693542e-05, rel=1e-4)


def test_total_throughput_combines_factors(baseline_params, policy):
    rep = analytic.total_throughput(baseline_params, policy)
    assert rep.t_total == pytest.approx(rep.t_avg * rep.lambda_b_active,
                                        rel=1e-12)
    assert rep.lambda_b_active == pytest.approx(
        analytic.active_station_density(baseline_params.lambda_b,
                                        baseline_params.lambda_u), rel=1e-12)
    assert rep.t_avg > 0


def test_sustainable_ratio_grid_validation(baseline_params, policy):
    with pytest.raises(ValueError):
        analytic.sustainable_ratio(0.0, baseline_params, policy)
    for grid in ((), (2.0, 1.0), (-1.0, 2.0), (1.0, 60.0)):
        with pytest.raises(ValueError):
            analytic.sustainable_ratio(1e-4, baseline_params, policy,
                                       ratio_grid=grid)


def test_sustainable_ratio_unreachable_plateau(baseline_params, policy):
    with pytest.raises(RuntimeError, match="plateau"):
        analytic.sustainable_ratio(1e-4, baseline_params, policy,
                                   ratio_grid=(0.001, 0.002))


# ---------------------------------------------------------------------------
# distance-profile fit
# ---------------------------------------------------------------------------

def test_reconstruction_at_reference_coefficients():
    grid = analytic._FIT_R_GRID
    target = analytic._unit_distance_pdf(grid)
    rec = analytic.reconstructed_distance_pdf(grid, None)
    assert float(np.max(np.abs(rec - target))) <= 0.03 * float(target.max())


def test_reconstruction_takes_scalars():
    grid = analytic._FIT_R_GRID[::7]
    on_grid = analytic.reconstructed_distance_pdf(grid, None)
    for r, expected in zip(grid, on_grid):
        value = analytic.reconstructed_distance_pdf(float(r), None)
        assert isinstance(value, float)
        assert value == pytest.approx(float(expected), rel=1e-12)
    with pytest.raises(ValueError):
        analytic.reconstructed_distance_pdf(-0.5, None)


def test_fit_recovers_reference_profile(policy):
    fit = analytic.fit_conditional_distance_pdf(policy)
    c1, c2, c3, c4 = fit.coefficients
    ref = analytic.UNIT_CELL_COEFFS
    assert c2 == 1.0
    assert abs(c1 - ref[0]) / ref[0] <= 0.10
    assert abs(c3 - ref[2]) / ref[2] <= 0.10
    assert abs(c4 - ref[3]) / ref[3] <= 0.10
    assert fit.residual < 0.05
    # the least-squares minimum itself
    assert fit.coefficients == pytest.approx(
        (5.877017853855505, 1.0, 4.0306582286615456, 2.851343725284502),
        rel=1e-6)
    assert fit.residual == pytest.approx(0.013642740318157178, rel=1e-9)
    assert fit.iterations > 0
    grid = analytic._FIT_R_GRID
    target = analytic._unit_distance_pdf(grid)
    rec = analytic.reconstructed_distance_pdf(grid, fit)
    assert float(np.max(np.abs(rec - target))) <= 0.05 * float(target.max())


def test_coefficient_container_handling():
    assert analytic._as_coeffs(None) == analytic.UNIT_CELL_COEFFS
    assert analytic._as_coeffs((1, 2, 3, 4)) == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        analytic._as_coeffs((1.0, 2.0))
    with pytest.raises(ValueError):
        analytic.conditional_distance_pdf(-0.5)
