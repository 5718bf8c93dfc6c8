"""Slot-level Monte Carlo simulator of the harvest-then-receive downlink.

One replication samples a station field and a user field over a square
window, attaches users to nearest stations, then plays the round-robin
schedule slot by slot.  Scheduled users receive when their store covers
e_th (scoring log2(1+SINR) and resetting the store); everyone else,
including a scheduled user caught short, banks the conversion-scaled sum of
received powers.

Fading is near/far.  Each user's _NEAR_STATIONS nearest stations, its
serving station among them, get a fresh Rayleigh (unit-mean exponential)
power gain every slot.  The rest of the field is one Gamma draw per user
per slot with the far sum's exact mean sum(P_b) and variance sum(P_b^2);
it is non-negative, and it stands in for the far field in both the harvest
and the interference.  With at most _NEAR_STATIONS stations every link is
drawn exactly, so a larger constant gives the exact dense model through
the same code.

The slot loop keeps only what must run in slot order: the fading draws,
the interference sums, the ready test against the scheduled users' stores,
the record of their signal and interference, and the store update.  The
round-robin schedule, the counted-slot mask, the per-user counts and the
scored rates run once per _SLOT_CHUNK slots, on a (slots, cells) table of
scheduled users.  Each user's rates are still added in slot order, so the
chunk length changes no bit of any result.

Estimates are averaged across independent replications whose RNG streams
are spawned from one master seed, so results are bit-reproducible and do
not depend on execution order.

The simulator's knobs, SimConfig with its edge modes EDGE_TORUS and
EDGE_GUARD, live in core and are re-exported here.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .core import EDGE_GUARD, EDGE_TORUS, NetworkParams, SimConfig, validate

logger = logging.getLogger(__name__)

_MAX_FIELD_RESAMPLES = 100

# stations per user whose fading is drawn exactly in every slot; the rest
# of the field is one moment-matched Gamma draw per user and slot
_NEAR_STATIONS = 32

# slots whose schedule, counts and scores are handled as one block; it sets
# only how often that bookkeeping runs, never a result bit
_SLOT_CHUNK = 64


@dataclass
class FieldRealization:
    """One sampled deployment: positions, association, per-cell rosters."""

    bs_xy: np.ndarray          # (B, 2)
    user_xy: np.ndarray        # (U, 2)
    association: np.ndarray    # (U,) index into bs_xy
    rosters: tuple             # per-station arrays of user indices


@dataclass(frozen=True)
class SimOutcome:
    p_tr_hat: float
    t_avg_hat: float
    t_total_hat: float
    mean_users_per_nonempty_cell: float
    p_tr_stderr: float
    t_avg_stderr: float
    t_total_stderr: float
    mean_users_stderr: float
    n_events: int
    n_replications: int


@dataclass(frozen=True)
class ReplicationOutcome:
    """Estimates from one sampled field; estimate() averages them into a
    SimOutcome."""
    p_tr_hat: float
    t_avg_hat: float
    t_total_hat: float
    mean_users_per_nonempty_cell: float
    n_events: int


def _pair_distances(user_xy: np.ndarray, bs_xy: np.ndarray,
                    config: SimConfig) -> np.ndarray:
    """(U, B) distance matrix under the configured edge metric."""
    dx = np.abs(user_xy[:, 0, None] - bs_xy[None, :, 0])
    dy = np.abs(user_xy[:, 1, None] - bs_xy[None, :, 1])
    if config.edge_mode == EDGE_TORUS:
        np.minimum(dx, config.region_side - dx, out=dx)
        np.minimum(dy, config.region_side - dy, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def sample_field(params: NetworkParams, config: SimConfig,
                 rng: np.random.Generator) -> FieldRealization:
    """Draw one Poisson deployment and its nearest-station association.

    A draw with zero stations is thrown away and redrawn (logged); the
    configured densities put that far out in the tail anyway.
    """
    side = config.region_side
    if config.edge_mode == EDGE_GUARD:
        lo, hi = -config.guard_width, side + config.guard_width
    else:
        lo, hi = 0.0, side
    area = (hi - lo) ** 2

    n_bs = 0
    for _ in range(_MAX_FIELD_RESAMPLES):
        n_bs = rng.poisson(params.lambda_b * area)
        if n_bs > 0:
            break
        logger.warning("resampling field: zero stations drawn")
    if n_bs == 0:
        raise RuntimeError("could not draw a non-empty station field")
    bs_xy = rng.uniform(lo, hi, size=(n_bs, 2))
    n_users = rng.poisson(params.lambda_u * area)
    user_xy = rng.uniform(lo, hi, size=(n_users, 2))

    if n_users:
        if config.edge_mode == EDGE_TORUS:
            # the periodic tree wants data in [0, side); the modulo only
            # folds a coordinate that rounded up to side back to 0
            tree = cKDTree(bs_xy % side, boxsize=side)
        else:
            tree = cKDTree(bs_xy)
        association = tree.query(user_xy)[1]
    else:
        association = np.zeros(0, dtype=int)
    # user indices grouped by station, ascending within each roster
    by_station = np.argsort(association, kind="stable")
    cuts = np.cumsum(np.bincount(association, minlength=n_bs))[:-1]
    rosters = tuple(np.split(by_station, cuts))
    return FieldRealization(bs_xy=bs_xy, user_xy=user_xy,
                            association=association, rosters=rosters)


def _measure_masks(field: FieldRealization, config: SimConfig):
    """Boolean masks of users and stations inside the statistics region."""
    if config.edge_mode == EDGE_TORUS:
        return (np.ones(len(field.user_xy), dtype=bool),
                np.ones(len(field.bs_xy), dtype=bool))
    side = config.region_side
    half = 0.5 * config.measure_ring * side
    lo, hi = 0.5 * side - half, 0.5 * side + half

    def inside(xy):
        return ((xy[:, 0] >= lo) & (xy[:, 0] <= hi)
                & (xy[:, 1] >= lo) & (xy[:, 1] <= hi))

    return inside(field.user_xy), inside(field.bs_xy)


def _measure_area(config: SimConfig) -> float:
    if config.edge_mode == EDGE_TORUS:
        return config.region_side ** 2
    return (config.measure_ring * config.region_side) ** 2


def _log_replication(near_power: np.ndarray, far_mean: np.ndarray,
                     far_var: np.ndarray, n_drawn: int, n_slots: int,
                     loop_s: float) -> None:
    """One debug line per replication: how much of each user's field the
    far draw carries (its share of the mean received power, and of the
    variance), the random variates drawn per slot, and the user-slots the
    slot loop ran per second."""
    if not len(far_mean):
        return
    mean_share = far_mean / (far_mean + near_power.sum(axis=1))
    var_share = far_var / (far_var + np.square(near_power).sum(axis=1))
    logger.debug("near/far fading: near set %d stations, far mean share "
                 "median %.3g, far variance share median %.3g max %.3g, "
                 "variates per slot %d, user-slots per second %.4g",
                 near_power.shape[1], float(np.median(mean_share)),
                 float(np.median(var_share)), float(var_share.max()),
                 near_power.size + n_drawn, len(far_mean) * n_slots / loop_s)


def run_replication(field: FieldRealization, params: NetworkParams,
                    config: SimConfig, rng: np.random.Generator,
                    trace: Optional[dict] = None) -> ReplicationOutcome:
    """Play the schedule over one sampled field and return its estimates.

    A scheduled slot is counted once the cell has completed its warmup
    rounds and the scheduled user lies inside the measurement region.
    p_tr_hat averages each user's ready fraction of its own scheduled
    slots with equal weight per user, matching the typical-user quantity
    the closed form targets; t_avg_hat averages per-cell delivered rate
    per scheduled slot with equal weight per cell; t_total_hat sums the
    per-cell rates over the measurement area, so delivered bits per slot
    per unit area.
    """
    n_users = len(field.user_xy)
    n_bs = len(field.bs_xy)
    user_measured, bs_measured = _measure_masks(field, config)

    roster_len = np.array([len(r) for r in field.rosters], dtype=int)
    nonempty = np.nonzero(roster_len > 0)[0]
    if nonempty.size and bs_measured[nonempty].any():
        mean_users = float(np.mean(roster_len[nonempty[bs_measured[nonempty]]]))
    else:
        mean_users = 0.0

    dist = _pair_distances(field.user_xy, field.bs_xy, config)
    if not np.all(dist > 0):
        raise RuntimeError("degenerate zero-length link in sampled field")
    if config.force_all_bs_transmit:
        active = np.ones(n_bs)
    else:
        active = (roster_len > 0).astype(float)
    link_power = params.p_s * dist ** (-params.alpha) * active   # (U, B)

    # near set: each user's n_near nearest stations, its serving station in
    # column 0 (a zeroed distance is the unique minimum); far set: the rest
    n_near = min(_NEAR_STATIONS, n_bs)
    dist[np.arange(n_users), field.association] = 0.0
    order = np.argpartition(dist, (0, n_near - 1), axis=1)
    near_power = np.take_along_axis(link_power, order[:, :n_near], axis=1)
    far_power = np.take_along_axis(link_power, order[:, n_near:], axis=1)
    # Exp(1) has unit variance, so the far sum has mean sum(P) and variance
    # sum(P^2); where the variance underflows (or every far station is
    # silent) the mean is added as a constant
    far_mean = far_power.sum(axis=1)
    far_var = np.square(far_power).sum(axis=1)
    drawn = np.nonzero(far_var > 0)[0]
    far_fixed = far_mean.copy()
    far_fixed[drawn] = 0.0
    gamma_shape = far_mean[drawn] ** 2 / far_var[drawn]
    gamma_scale = far_var[drawn] / far_mean[drawn]

    # flatten rosters so a chunk's scheduled users come from one gather;
    # with no users every slot schedules nobody and n_events stays 0
    flat = np.concatenate(field.rosters)
    offsets = np.concatenate(([0], np.cumsum(roster_len[nonempty])))[:-1]
    lens = roster_len[nonempty]
    warmup_until = config.warmup_rounds * lens

    stored = np.zeros(n_users)
    sched_count = np.zeros(n_users, dtype=int)    # counted scheduled slots
    ready_count = np.zeros(n_users, dtype=int)
    score_sum = np.zeros(n_users)
    received = np.empty((n_users, n_near))

    if trace is not None:
        trace["stored_series"] = []
        trace["scheduled"] = []
        trace["ready"] = []
    debug = logger.isEnabledFor(logging.DEBUG)
    if debug:
        loop_start = time.perf_counter()

    for start in range(0, config.n_slots, _SLOT_CHUNK):
        slots = np.arange(start, min(start + _SLOT_CHUNK, config.n_slots))
        heads = flat[offsets + slots[:, None] % lens]      # (C, S) schedule
        ready = np.empty(heads.shape, dtype=bool)
        signal = np.empty(heads.shape)
        head_interf = np.empty(heads.shape)

        for i, heads_t in enumerate(heads):
            rng.standard_exponential(out=received)
            received *= near_power                  # (U, K) near-link powers
            # interference summed apart from the signal, so a dominant
            # serving link cannot cancel it to zero
            interf = received[:, 1:].sum(axis=1) + far_fixed
            if drawn.size:
                interf[drawn] += rng.standard_gamma(gamma_shape) * gamma_scale
            ready_t = ready[i] = stored[heads_t] >= params.e_th
            signal[i] = received[heads_t, 0]
            head_interf[i] = interf[heads_t]
            # a head that delivers banks nothing: its store is reset below
            stored += params.a_eff * (interf + received[:, 0])
            stored[heads_t[ready_t]] = 0.0
            if trace is not None:
                trace["stored_series"].append(stored.copy())
                trace["scheduled"].append(heads_t.copy())
                trace["ready"].append(ready_t)

        counted = (slots[:, None] >= warmup_until) & user_measured[heads]
        sched_count += np.bincount(heads[counted], minlength=n_users)
        hit = ready & counted
        who = heads[hit]                            # slot-major order
        ready_count += np.bincount(who, minlength=n_users)
        # add.at accumulates each user's rates in slot order, as one add
        # per slot would; an isolated transmitter with zero noise has
        # unbounded rate, kept as inf rather than masking the degenerate
        # geometry
        with np.errstate(divide="ignore"):
            rate = np.log2(1.0 + signal[hit] / (params.sigma2
                                                + head_interf[hit]))
        np.add.at(score_sum, who, rate)

    if debug:
        _log_replication(near_power, far_mean, far_var, drawn.size,
                         config.n_slots, time.perf_counter() - loop_start)

    observed = sched_count > 0
    n_events = int(sched_count.sum())
    if n_events == 0:
        return ReplicationOutcome(0.0, 0.0, 0.0, mean_users, 0)
    # the typical user's chance of being served at its own scheduled slot:
    # per-user ready fractions averaged with equal weight per user
    p_tr = float(np.mean(ready_count[observed] / sched_count[observed]))
    # per-cell delivered rate per scheduled slot, averaged over cells
    cell_events = np.bincount(field.association, weights=sched_count,
                              minlength=n_bs)
    cell_score = np.bincount(field.association, weights=score_sum,
                             minlength=n_bs)
    with_events = cell_events > 0
    cell_rate = cell_score[with_events] / cell_events[with_events]
    t_avg = float(np.mean(cell_rate))
    t_total = float(np.sum(cell_rate) / _measure_area(config))
    return ReplicationOutcome(p_tr, t_avg, t_total, mean_users, n_events)


def estimate(params: NetworkParams, config: SimConfig) -> SimOutcome:
    """Run n_replications independent fields and aggregate.

    Standard errors are the across-replication sample deviations divided by
    sqrt(n_replications).  Identical (params, config) reproduce the result
    bit for bit.
    """
    validate(params)
    streams = np.random.SeedSequence(config.seed).spawn(config.n_replications)
    outcomes = []
    for child in streams:
        rng = np.random.default_rng(child)
        field = sample_field(params, config, rng)
        outcomes.append(run_replication(field, params, config, rng))

    def agg(values):
        arr = np.array(values, dtype=float)
        mean = float(arr.mean())
        if len(arr) > 1:
            err = float(arr.std(ddof=1) / math.sqrt(len(arr)))
        else:
            err = 0.0
        return mean, err

    p_tr, p_se = agg([o.p_tr_hat for o in outcomes])
    t_avg, t_se = agg([o.t_avg_hat for o in outcomes])
    t_tot, tt_se = agg([o.t_total_hat for o in outcomes])
    users, u_se = agg([o.mean_users_per_nonempty_cell for o in outcomes])
    return SimOutcome(p_tr, t_avg, t_tot, users, p_se, t_se, tt_se, u_se,
                      sum(o.n_events for o in outcomes),
                      config.n_replications)
