"""Closed-form layer: delivery probability, cell geometry, link capacity,
and network throughput for a Poisson cellular deployment whose users power
their receive circuitry purely from harvested downlink RF energy.

Model in one paragraph: stations and users are independent homogeneous
Poisson fields; each user attaches to its nearest station, so cells are
Voronoi regions.  Stations serve their users round-robin, one slot each.  A
scheduled user whose harvested energy store has reached e_th receives and
resets its store; otherwise it keeps harvesting, including during its own
slot.  Between two of its scheduled slots a user in a cell with n other
users harvests n+1 slots, so after k rounds it has accumulated k*(n+1)-1
slots of Rayleigh-faded downlink energy.  Treating the far-field part of
each slot's harvest as its spatial mean leaves a unit-rate Erlang sum for
the serving link, which gives the readiness probability below as a
truncated Poisson series.
"""
from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy import optimize, special

from .core import ErlangIndexMode, NetworkParams, NumericPolicy, validate
from .numerics import FitResult, integrate_semi_infinite, poisson_cdf_upper

# Size-biased normalized Voronoi cell area: Gamma(shape 4.5, rate 3.5).
# The same 3.5 constant parameterizes the active-station thinning below.
CELL_AREA_SHAPE = 4.5
CELL_AREA_RATE = 3.5

# Nearest-station distance profile of a unit-area cell, c1*u^c2*exp(-c3*u^c4).
# These coefficients are what fit_conditional_distance_pdf reproduces.
UNIT_CELL_COEFFS = (6.029, 1.0, 3.891, 2.7)

_MIX_NODES = 192
# (n, k) entries per block of the delivery kernel, which bounds its arrays
# at this plus one k_max_cap segment (a few MB)
_BLOCK_ENTRIES = 1 << 15
_LN2 = math.log(2.0)

# Rate lattice of _rate_lattice: the step of its uniform grid in y, where
# t = log(1 + e^y), and the y its lowest node reaches (the integrand there
# is below e^y, so the cut-off tail is under 5e-18)
_RATE_STEP = 0.15
_RATE_Y_MIN = -40.0
# log2 of the largest float: past it 2^t - 1 overflows and the rate CCDF is
# taken as 0, by capacity_ccdf and the lattice alike
_RATE_T_MAX = math.log(sys.float_info.max) / _LN2
# Gregory's end weights, in units of the step: with them the trapezoid rule
# is exact for cubics
_GREGORY_ENDS = (3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0)
# exp(-x) rounds to exactly 0.0 for every x above this
_EXP_ZERO = 746.0

logger = logging.getLogger(__name__)

Coeffs = Union[FitResult, Sequence[float], None]


# ---------------------------------------------------------------------------
# cell geometry
# ---------------------------------------------------------------------------

def nearest_distance_pdf(r1, params: NetworkParams):
    """Density of the user-to-serving-station distance: Rayleigh with scale
    set by the station density, 2*pi*lambda_b*r1*exp(-lambda_b*pi*r1^2)."""
    lam = params.lambda_b
    r = np.asarray(r1, dtype=float)
    if np.any(r < 0):
        raise ValueError("r1 must be non-negative")
    out = 2.0 * math.pi * lam * r * np.exp(-lam * math.pi * r * r)
    return float(out) if np.isscalar(r1) else out


def cell_area_pdf(x):
    """Density of the normalized area of the cell containing a random user
    (size-biased), Gamma(4.5, rate 3.5)."""
    xs = np.asarray(x, dtype=float)
    norm = math.exp(CELL_AREA_SHAPE * math.log(CELL_AREA_RATE)
                    - math.lgamma(CELL_AREA_SHAPE))
    out = np.where(xs > 0,
                   norm * np.power(np.maximum(xs, 1e-300), CELL_AREA_SHAPE - 1.0)
                   * np.exp(-CELL_AREA_RATE * np.maximum(xs, 0.0)),
                   0.0)
    return float(out) if np.isscalar(x) else out


def conditional_distance_pdf(r1_norm, coeffs: Coeffs = None):
    """Nearest-station distance density inside a unit-area cell,
    c1 * u^c2 * exp(-c3 * u^c4).  Defaults to UNIT_CELL_COEFFS."""
    c1, c2, c3, c4 = _as_coeffs(coeffs)
    u = np.asarray(r1_norm, dtype=float)
    if np.any(u < 0):
        raise ValueError("r1_norm must be non-negative")
    out = c1 * np.power(u, c2) * np.exp(-c3 * np.power(u, c4))
    return float(out) if np.isscalar(r1_norm) else out


def _as_coeffs(coeffs: Coeffs) -> tuple:
    if coeffs is None:
        return UNIT_CELL_COEFFS
    if isinstance(coeffs, FitResult):
        coeffs = coeffs.coefficients
    c = tuple(float(v) for v in coeffs)
    if len(c) != 4:
        raise ValueError("expected 4 shape coefficients")
    return c


@lru_cache(maxsize=8)
def _gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=4096)
def _area_mixture(s: float, coeffs: tuple):
    """Quadrature nodes and normalized weights of the cell-area distribution
    seen from normalized serving distance s = r1*sqrt(lambda_b).

    The weight of area xi is proportional to the scaled unit-cell distance
    profile g(s/sqrt(xi))/sqrt(xi) times the size-biased area density; the
    normalization makes the weights a proper conditional distribution, so
    user-count mixtures built on top of them sum to one.
    """
    c1, c2, c3, c4 = coeffs
    xi_hi = max(15.0, 3.0 * s * s)
    x, w = _gauss_legendre(_MIX_NODES)
    xi = 0.5 * (x + 1.0) * xi_hi
    base = 0.5 * xi_hi * w
    log_xi = np.log(xi)
    u = s / np.sqrt(xi)
    logw = ((CELL_AREA_SHAPE - 1.0) * log_xi - CELL_AREA_RATE * xi
            - 0.5 * (c2 + 1.0) * log_xi - c3 * np.power(u, c4))
    peak = logw.max()
    if not math.isfinite(peak):
        # s so extreme the profile underflows everywhere; any proper weight
        # works because every caller multiplies by a vanishing density in r1
        logw = (CELL_AREA_SHAPE - 1.0) * log_xi - CELL_AREA_RATE * xi
        peak = logw.max()
    wt = base * np.exp(logw - peak)
    wt /= wt.sum()
    return xi, wt


def _unit_distance_pdf(s):
    """Serving-distance density at unit station density."""
    return 2.0 * math.pi * s * np.exp(-math.pi * s * s)


@lru_cache(maxsize=8)
def _mean_cell_area(rel_tol: float) -> float:
    """Mean normalized area of the typical user's cell, the area mixture's
    mean averaged over the serving distance s = r1*sqrt(lambda_b).  It
    depends on no density, so a cell holds lambda_u/lambda_b times this
    many other users on average."""
    def mean_area(s):
        xi, wt = _area_mixture(s, UNIT_CELL_COEFFS)
        return float(np.dot(wt, xi)) * _unit_distance_pdf(s)

    return integrate_semi_infinite(
        mean_area, NumericPolicy(quad_rel_tol=rel_tol), scale=0.5).value


# ---------------------------------------------------------------------------
# energy readiness
# ---------------------------------------------------------------------------

def _path_loss(r1: float, alpha: float) -> float:
    """r1^alpha, +inf where that exceeds the float range."""
    try:
        return math.pow(r1, alpha)
    except OverflowError:
        return math.inf


def _link_budget(r1: float, params: NetworkParams):
    """(demand, per_slot) at serving distance r1: the e_th requirement
    referred to the serving link's path gain, and the mean far-field
    harvest of one slot on the same scale.  The demand is +inf where the
    path loss exceeds the float range."""
    demand = (params.e_th * _path_loss(r1, params.alpha)
              / (params.a_eff * params.p_s))
    per_slot = (2.0 * math.pi * params.lambda_b * r1 * r1
                / (params.alpha - 2.0))
    return demand, per_slot


def theta(k: int, n: int, r1: float, params: NetworkParams) -> float:
    """Residual energy demand on the serving link after k rounds with n
    other users in the cell: the e_th requirement referred to the serving
    link's path gain, minus the mean far-field harvest over the
    k*(n+1)-1 elapsed slots."""
    _check_kn(k, n, r1)
    demand, per_slot = _link_budget(r1, params)
    return demand - per_slot * (k * (n + 1) - 1)


def energy_ready_prob(k: int, n: int, r1: float, params: NetworkParams,
                      policy: NumericPolicy) -> float:
    """Probability the store holds at least e_th by the user's k-th
    scheduled slot, given n other users in the cell.

    The accumulated serving-link fading over k*(n+1)-1 slots is a unit-rate
    Erlang sum; its tail against the mean-field-reduced demand theta() is
    the truncated Poisson series evaluated here.  theta <= 0 means the mean
    far field alone covers the demand, so the probability is 1.  The
    degenerate zero-slot case (k=1 with an empty cell, slot-count mode) has
    nothing accumulated and collapses to the 0/1 indicator of theta <= 0.
    """
    _check_kn(k, n, r1)
    th = theta(k, n, r1, params)
    if policy.erlang_index_mode is ErlangIndexMode.SLOT_COUNT:
        m = k * (n + 1) - 1
    else:
        m = k
    if m == 0:
        return 1.0 if th <= 0 else 0.0
    return poisson_cdf_upper(m, th)


def rounds_pmf(k: int, n: int, r1: float, params: NetworkParams,
               policy: NumericPolicy) -> float:
    """Probability that the k-th round is the first whose scheduled slot
    finds the store full: difference of consecutive readiness values,
    clamped into [0, 1]."""
    f_k = energy_ready_prob(k, n, r1, params, policy)
    f_prev = 0.0 if k == 1 else energy_ready_prob(k - 1, n, r1, params, policy)
    return min(max(f_k - f_prev, 0.0), 1.0)


def _check_kn(k, n, r1):
    if k < 1 or int(k) != k:
        raise ValueError("k must be an integer >= 1")
    if n < 0 or int(n) != n:
        raise ValueError("n must be an integer >= 0")
    if not r1 > 0:
        raise ValueError("r1 must be positive")


def _mean_inverse_rounds(ns: np.ndarray, r1: float, params: NetworkParams,
                         policy: NumericPolicy) -> np.ndarray:
    """E[1/K] for each cell population in ns at serving distance r1, where
    K is the first round whose scheduled slot finds the store full.

    Each n's readiness curve over rounds k = 1..k_top is one segment of a
    ragged array, so a block of populations takes one gammaincc call.  A
    segment ends exactly at k_star, the first round whose mean far field
    alone covers the demand (readiness 1, no later mass), is hard capped at
    k_max_cap, and is cut early at the first readiness within
    series_tail_eps of 1.  Truncated tail mass is simply dropped; it
    contributes at most its own mass since 1/k <= 1.  A clamped
    distribution exceeding unit mass is renormalized.  Whole segments are
    taken about _BLOCK_ENTRIES entries at a time, because at large r1
    every segment runs to k_max_cap.
    """
    demand, per_slot = _link_budget(r1, params)
    ns = np.asarray(ns, dtype=np.int64)
    k_star = np.maximum(1.0, np.ceil((demand / per_slot + 1.0) / (ns + 1)))
    lengths = np.minimum(k_star, policy.k_max_cap).astype(np.int64)
    block_of = (np.cumsum(lengths) - 1) // _BLOCK_ENTRIES
    cuts = [0, *(np.flatnonzero(np.diff(block_of)) + 1), len(ns)]
    round_count = policy.erlang_index_mode is ErlangIndexMode.ROUND_COUNT
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        block, seg_len = ns[lo:hi], lengths[lo:hi]
        ends = np.cumsum(seg_len)
        starts = ends - seg_len
        seg = np.repeat(np.arange(len(block)), seg_len)
        pos = np.arange(ends[-1])
        ks = pos - starts[seg] + 1
        slots = ks * (block[seg] + 1) - 1
        th = demand - per_slot * slots
        m = ks if round_count else slots
        F = np.ones(len(pos))
        F[(m == 0) & (th > 0)] = 0.0
        live = (m > 0) & (th > 0)
        F[live] = special.gammaincc(m[live], th[live])

        # rounds after each segment's first readiness within
        # series_tail_eps of 1 are dropped; len(pos) marks "none"
        done = np.where(F >= 1.0 - policy.series_tail_eps, pos, len(pos))
        stop = np.minimum(np.minimum.reduceat(done, starts) + 1, ends)
        # readiness one round earlier, 0 before each segment's first round
        prev = np.concatenate(([0.0], F[:-1]))
        prev[starts] = 0.0
        pmf = np.where(pos < stop[seg], np.clip(F - prev, 0.0, None), 0.0)
        mass = np.add.reduceat(pmf, starts)
        value = np.add.reduceat(pmf / ks, starts)
        out.append(np.clip(value / np.maximum(mass, 1.0), 0.0, 1.0))
    return np.concatenate(out)


def delivery_prob_given_n_r1(n: int, r1: float, params: NetworkParams,
                             policy: NumericPolicy) -> float:
    """Long-run fraction of a user's scheduled slots that deliver, with n
    other users in the cell at serving distance r1: a user needing K rounds
    to charge succeeds once per K, so this is E[1/K]."""
    _check_kn(1, n, r1)
    return float(_mean_inverse_rounds(np.array([n]), r1, params, policy)[0])


# ---------------------------------------------------------------------------
# cell population and delivery probability
# ---------------------------------------------------------------------------

def _users_pmf(ns: np.ndarray, xi: np.ndarray, wt: np.ndarray,
               params: NetworkParams) -> np.ndarray:
    """Probability of each cell population in ns: a Poisson count with mean
    (lambda_u/lambda_b)*xi, mixed over the area nodes xi with weights wt
    from _area_mixture.  Needs lambda_u > 0."""
    mu = (params.lambda_u / params.lambda_b) * xi
    logp = (ns[:, None] * np.log(mu)[None, :] - mu[None, :]
            - special.gammaln(ns + 1.0)[:, None])
    return np.exp(logp) @ wt


def users_pmf_given_r1(n: int, r1: float, params: NetworkParams,
                       policy: NumericPolicy) -> float:
    """Probability of n other users sharing the cell, given serving
    distance r1: a Poisson count mixed over the conditional cell area."""
    if n < 0 or int(n) != n:
        raise ValueError("n must be an integer >= 0")
    if not r1 > 0:
        raise ValueError("r1 must be positive")
    if params.lambda_u == 0:
        return 1.0 if n == 0 else 0.0
    xi, wt = _area_mixture(r1 * math.sqrt(params.lambda_b), UNIT_CELL_COEFFS)
    p = _users_pmf(np.array([int(n)]), xi, wt, params)[0]
    return float(min(max(p, 0.0), 1.0))


@lru_cache(maxsize=100_000)
def _per_distance(r1: float, params: NetworkParams,
                  policy: NumericPolicy) -> float:
    """Delivery probability at distance r1.

    Any cell population n large enough that the mean far field covers the
    demand within one round delivers immediately; only the finitely many
    smaller n need the rounds series, so the user-count mixture is never
    truncated, merely split at that threshold (capped at n_max_cap, which
    an infinite demand reaches).
    """
    demand, per_slot = _link_budget(r1, params)
    ratio = demand / per_slot
    n_ready = (policy.n_max_cap if ratio >= policy.n_max_cap
               else math.ceil(ratio))

    if n_ready == 0:
        return 1.0
    if params.lambda_u == 0:
        return delivery_prob_given_n_r1(0, r1, params, policy)

    xi, wt = _area_mixture(r1 * math.sqrt(params.lambda_b), UNIT_CELL_COEFFS)
    ns = np.arange(n_ready)
    p_small = _users_pmf(ns, xi, wt, params)
    t_small = _mean_inverse_rounds(ns, r1, params, policy)
    covered = float(p_small.sum())
    p_tr = float(np.dot(p_small, t_small)) + max(0.0, 1.0 - covered)
    return min(max(p_tr, 0.0), 1.0)


def delivery_prob_given_r1(r1: float, params: NetworkParams,
                           policy: NumericPolicy) -> float:
    """Delivery probability at serving distance r1, averaged over the cell
    population."""
    if not r1 > 0:
        raise ValueError("r1 must be positive")
    return _per_distance(float(r1), params, policy)


@dataclass(frozen=True)
class DeliveryBreakdown:
    """p_tr plus the pieces sweeps and plots want alongside it."""
    p_tr: float
    p_tr_given_r1: Callable[[float], float]
    expected_users_typical_cell: float


def delivery_prob(params: NetworkParams,
                  policy: NumericPolicy) -> DeliveryBreakdown:
    """Unconditional delivery probability of the typical user, integrating
    the conditional probability against the serving-distance density; also
    reports the expected number of other users in the typical user's cell."""
    validate(params)
    p_tr = integrate_semi_infinite(
        lambda r: _per_distance(r, params, policy)
        * nearest_distance_pdf(r, params),
        policy, scale=0.5 / math.sqrt(params.lambda_b)).value
    users = (params.lambda_u / params.lambda_b) \
        * _mean_cell_area(policy.quad_rel_tol)

    return DeliveryBreakdown(
        p_tr=min(max(p_tr, 0.0), 1.0),
        p_tr_given_r1=lambda r1: delivery_prob_given_r1(r1, params, policy),
        expected_users_typical_cell=users)


# ---------------------------------------------------------------------------
# link capacity and throughput
# ---------------------------------------------------------------------------

def rho(x: float, alpha: float) -> float:
    """Interference scaling exponent of the SIR tail,
    x^(2/alpha) * integral_{x^(-2/alpha)}^inf du / (1 + u^(alpha/2)),
    in its closed form 2x/(alpha-2) * 2F1(1, 1-2/alpha; 2-2/alpha; -x)
    (Andrews, Baccelli and Ganti, IEEE TCOM 2011).  A scalar view on _rho.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    if not alpha > 2:
        raise ValueError("alpha must exceed 2")
    return float(_rho(x, alpha))


def _rho(x, alpha: float):
    """rho on a float or an array of x.  x * 2F1 is formed first: it grows
    like x^(2/alpha), so it stays finite up to the largest float, except
    with alpha within about 0.01 of 2, where the value itself exceeds the
    float range near there and is +inf, without an overflow warning."""
    a = 2.0 / alpha
    with np.errstate(over="ignore"):
        return (x * special.hyp2f1(1.0, 1.0 - a, 2.0 - a, -x)
                * (2.0 / (alpha - 2.0)))


def capacity_ccdf(t: float, r1: float, params: NetworkParams) -> float:
    """Probability the instantaneous link rate exceeds t bits per slot at
    serving distance r1, under Rayleigh fading with full interference.
    Past _RATE_T_MAX, where 2^t - 1 overflows, it is 0.  Evaluated one t at
    a time, this is the reference the rate lattice is tested against."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if not r1 > 0:
        raise ValueError("r1 must be positive")
    if t == 0:
        return 1.0
    try:
        snr_th = math.expm1(t * _LN2)
    except OverflowError:
        return 0.0
    if params.sigma2 > 0:
        # sigma2 first, so a huge threshold overflows to +inf (ccdf 0)
        # instead of forming inf*0 when noise is switched off
        noise = (snr_th * params.sigma2 / params.p_s
                 * _path_loss(r1, params.alpha))
    else:
        noise = 0.0
    interf = math.pi * params.lambda_b * r1 * r1 * rho(snr_th, params.alpha)
    total = noise + interf
    if math.isinf(total):
        return 0.0
    return math.exp(-total)


def _gregory(steps: int, h: float) -> np.ndarray:
    """Weights of the composite trapezoid rule with step h on steps + 1
    nodes, with Gregory's end corrections."""
    w = np.full(steps + 1, h)
    ends = h * np.array(_GREGORY_ENDS)
    w[:3] = ends
    w[-3:] = ends[::-1]
    return w


@lru_cache(maxsize=16)
def _rate_lattice(alpha: float):
    """The fixed nodes of E[C] = integral_0^inf P(C > t) dt at path-loss
    exponent alpha, as arrays (w, dw, s, rho_s) ascending in t.

    t = log(1 + e^y) on a uniform grid in y of step _RATE_STEP, running
    down from _RATE_T_MAX (where t = y to double precision) past
    _RATE_Y_MIN, an even number of steps.  w are the Gregory-corrected
    trapezoid weights times dt/dy, and dw is w minus the same weights of
    the step-2h sub-lattice (every other node), so that |dw . f| is an
    embedded error estimate.  s = 2^t - 1 is the SINR threshold and rho_s
    is rho(s), capped at the largest float so that q * rho_s is never
    inf * 0.  The arrays are read-only: every caller shares them.
    """
    steps = 2 * math.ceil((_RATE_T_MAX - _RATE_Y_MIN) / (2.0 * _RATE_STEP))
    y = _RATE_T_MAX - _RATE_STEP * np.arange(steps, -1, -1)
    dt_dy = special.expit(y)
    w = _gregory(steps, _RATE_STEP) * dt_dy
    coarse = np.zeros(steps + 1)
    coarse[::2] = _gregory(steps // 2, 2.0 * _RATE_STEP)
    dw = w - coarse * dt_dy
    s = np.expm1(np.logaddexp(0.0, y) * _LN2)
    rho_s = np.minimum(_rho(s, alpha), sys.float_info.max)
    for a in (w, dw, s, rho_s):
        a.flags.writeable = False
    return w, dw, s, rho_s


def _mean_rate(r1: float, params: NetworkParams):
    """E[C|r1] and its embedded error estimate, in bits per slot: the
    rate-lattice sum of w * exp(-q * rho(s) - c * s), with q the
    interference weight pi * lambda_b * r1^2 and c the noise weight
    sigma2 * r1^alpha / p_s (0 without noise).  The nodes from the first
    at which either term reaches _EXP_ZERO on hold exact zeros and are
    skipped."""
    w, dw, s, rho_s = _rate_lattice(params.alpha)
    q = math.pi * params.lambda_b * r1 * r1
    n = np.searchsorted(rho_s, _EXP_ZERO / q) if q > 0 else len(s)
    if params.sigma2 > 0:
        c = params.sigma2 / params.p_s * _path_loss(r1, params.alpha)
        if c > 0:
            n = min(n, np.searchsorted(s, _EXP_ZERO / c))
        f = np.exp(-q * rho_s[:n] - c * s[:n])
    else:
        f = np.exp(-q * rho_s[:n])
    return float(w[:n] @ f), abs(float(dw[:n] @ f))


def expected_capacity_given_r1(r1: float, params: NetworkParams,
                               policy: NumericPolicy) -> float:
    """Mean link rate at serving distance r1, the rate CCDF integrated on
    the fixed lattice of _rate_lattice, which is built once per alpha and
    agrees with an adaptive integral of capacity_ccdf to about 1e-12
    relative.  policy does not enter: the lattice has no tolerance."""
    if not r1 > 0:
        raise ValueError("r1 must be positive")
    return _mean_rate(float(r1), params)[0]


def avg_cell_throughput(params: NetworkParams, policy: NumericPolicy) -> float:
    """Mean delivered rate per scheduled slot of the typical user's cell:
    capacity weighted by delivery probability, averaged over distance.
    Logs at debug level the distance quadrature's evaluations and error
    estimate, and the rate lattice's largest embedded error estimate."""
    validate(params)
    rate_error = 0.0

    def integrand(r):
        nonlocal rate_error
        rate, error = _mean_rate(r, params)
        rate_error = max(rate_error, error)
        return (rate * _per_distance(r, params, policy)
                * nearest_distance_pdf(r, params))

    res = integrate_semi_infinite(integrand, policy,
                                  scale=0.5 / math.sqrt(params.lambda_b))
    logger.debug("avg_cell_throughput: distance quadrature %d evaluations, "
                 "abs error estimate %.3g; rate lattice largest h vs 2h "
                 "error estimate %.3g bits/slot",
                 res.evaluations, res.abs_error_estimate, rate_error)
    return res.value


def active_station_density(lambda_b: float, lambda_u: float) -> float:
    """Density of stations whose cell holds at least one user, via the
    Gamma-mixture void probability of Voronoi cells."""
    if not lambda_b > 0:
        raise ValueError("lambda_b must be positive")
    if lambda_u < 0:
        raise ValueError("lambda_u must be non-negative")
    ratio = lambda_u / (CELL_AREA_RATE * lambda_b)
    return lambda_b * (1.0 - (1.0 + ratio) ** (-CELL_AREA_RATE))


@dataclass(frozen=True)
class ThroughputReport:
    t_avg: float
    lambda_b_active: float
    t_total: float


def total_throughput(params: NetworkParams,
                     policy: NumericPolicy) -> ThroughputReport:
    """Area throughput: per-cell throughput times the active-station
    density.  t_total is bits per slot per square meter."""
    t_avg = avg_cell_throughput(params, policy)
    lam_active = active_station_density(params.lambda_b, params.lambda_u)
    return ThroughputReport(t_avg=t_avg, lambda_b_active=lam_active,
                            t_total=lam_active * t_avg)


_DEFAULT_RATIO_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0,
                       10.0, 13.0, 16.0, 20.0, 26.0, 32.0, 40.0)
_RATIO_REFINE_REL = 5e-3


def sustainable_ratio(lambda_b: float, params_template: NetworkParams,
                      policy: NumericPolicy,
                      ratio_grid: Optional[Sequence[float]] = None) -> float:
    """Smallest lambda_u/lambda_b at which area throughput reaches
    (1 - eps_sat) of its large-population plateau.

    Sweeps the ratio grid upward; once a bracket is found the boundary is
    refined by bisection.  If even the largest swept ratio falls short, the
    plateau is declared unreachable and an error names the bound.
    """
    if not lambda_b > 0:
        raise ValueError("lambda_b must be positive")
    grid = tuple(_DEFAULT_RATIO_GRID if ratio_grid is None else ratio_grid)
    if len(grid) == 0:
        raise ValueError("ratio grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("ratio grid must be strictly increasing")
    if grid[0] <= 0:
        raise ValueError("ratio grid must be positive")
    if grid[-1] >= policy.plateau_multiple:
        raise ValueError("ratio grid must stay below plateau_multiple")

    def throughput_at(ratio: float) -> float:
        params = replace(params_template, lambda_b=lambda_b,
                         lambda_u=ratio * lambda_b)
        return total_throughput(params, policy).t_total

    plateau = throughput_at(policy.plateau_multiple)
    threshold = (1.0 - policy.eps_sat) * plateau

    previous = None
    for ratio in grid:
        if throughput_at(ratio) >= threshold:
            if previous is None:
                return float(ratio)
            lo, hi = previous, ratio
            while hi - lo > _RATIO_REFINE_REL * hi:
                mid = 0.5 * (lo + hi)
                if throughput_at(mid) >= threshold:
                    hi = mid
                else:
                    lo = mid
            return float(hi)
        previous = ratio
    raise RuntimeError(
        "throughput did not reach (1 - eps_sat) of its plateau within the "
        f"swept ratio bound {grid[-1]}")


# ---------------------------------------------------------------------------
# distance-profile fit
# ---------------------------------------------------------------------------

_FIT_R_GRID = np.linspace(0.025, 2.0, 80)
_FIT_XI_NODES = 160
_FIT_XI_HI = 14.0


def reconstructed_distance_pdf(r_norm, coefficients):
    """Serving-distance density (unit station density) implied by a
    unit-cell profile, evaluated on normalized distances r_norm: the
    profile at the given coefficients, scaled to each cell area and mixed
    over the area distribution.  A scalar r_norm gives a float."""
    x, w = _gauss_legendre(_FIT_XI_NODES)
    xi = 0.5 * (x + 1.0) * _FIT_XI_HI
    root = np.sqrt(xi)
    g = conditional_distance_pdf(np.asarray(r_norm, dtype=float)[..., None]
                                 / root, coefficients)
    out = (g / root * cell_area_pdf(xi)) @ (0.5 * _FIT_XI_HI * w)
    return float(out) if np.isscalar(r_norm) else out


def fit_conditional_distance_pdf(policy: NumericPolicy) -> FitResult:
    """Recover the unit-cell distance profile coefficients by bounded least
    squares.

    Fits (c1, c3, c4) with c2 pinned at 1 so that the area-mixture of the
    profile reproduces the exact serving-distance density on a normalized
    grid (unit station density).  The residual is the sum of squares and
    the iteration count the number of residual evaluations, not counting
    those of the finite-difference Jacobian.  A post-hoc check rejects a
    fit whose profile is badly non-normalized.
    """
    target = _unit_distance_pdf(_FIT_R_GRID)

    def residual(v):
        c1, c3, c4 = v
        return reconstructed_distance_pdf(_FIT_R_GRID,
                                          (c1, 1.0, c3, c4)) - target

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
