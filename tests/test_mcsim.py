import dataclasses
import logging
import math
import re
import warnings

import numpy as np
import pytest
from scipy import stats

from rfhnet import mcsim
from rfhnet.core import NetworkParams, per_km2_to_per_m2
from rfhnet.mcsim import (EDGE_GUARD, FieldRealization, ReplicationOutcome,
                          SimConfig, _measure_area, _measure_masks,
                          _pair_distances, estimate, run_replication,
                          sample_field)


def params_at(lambda_b_km2, lambda_u_km2, e_th=1e-5, sigma2=0.0, alpha=3.0):
    return NetworkParams(lambda_b=per_km2_to_per_m2(lambda_b_km2),
                         lambda_u=per_km2_to_per_m2(lambda_u_km2),
                         p_s=1.0, alpha=alpha, a_eff=0.5, e_th=e_th,
                         sigma2=sigma2)


def single_user_field(r=30.0):
    return FieldRealization(bs_xy=np.array([[500.0, 500.0]]),
                            user_xy=np.array([[500.0, 500.0 + r]]),
                            association=np.array([0]),
                            rosters=(np.array([0]),))


def two_user_field():
    """One populated cell plus a far empty station so interference keeps
    every rate finite."""
    return FieldRealization(
        bs_xy=np.array([[500.0, 500.0], [100.0, 100.0]]),
        user_xy=np.array([[500.0, 530.0], [470.0, 500.0]]),
        association=np.array([0, 0]),
        rosters=(np.array([0, 1]), np.array([], dtype=int)))


TINY = NetworkParams(lambda_b=1e-6, lambda_u=1e-6, p_s=1.0, alpha=3.0,
                     a_eff=0.5, e_th=1e-300, sigma2=0.0)
ONE_CELL_CFG = SimConfig(n_slots=401, n_replications=1, seed=5,
                         warmup_rounds=5)


# ---------------------------------------------------------------------------
# handcrafted fields with known behavior
# ---------------------------------------------------------------------------

def test_single_user_alternates_exactly():
    """A lone user with a vanishing threshold charges in one slot and so
    delivers on exactly every second scheduled slot: an empty store misses,
    that same slot's harvest refills it, the next one delivers."""
    out = run_replication(single_user_field(), TINY, ONE_CELL_CFG,
                          np.random.default_rng(1))
    assert out.p_tr_hat == 0.5
    assert out.n_events == 401 - 5


def test_single_user_unreachable_threshold():
    p = dataclasses.replace(TINY, e_th=1e9)
    out = run_replication(single_user_field(), p, ONE_CELL_CFG,
                          np.random.default_rng(1))
    assert out.p_tr_hat == 0.0
    assert out.t_avg_hat == 0.0


def test_two_users_charge_in_each_others_slots():
    """With two users sharing the cell and a vanishing threshold, each
    harvests during the other's slot, so every scheduled slot delivers."""
    out = run_replication(two_user_field(), TINY, ONE_CELL_CFG,
                          np.random.default_rng(1))
    assert out.p_tr_hat == 1.0
    assert math.isfinite(out.t_avg_hat) and out.t_avg_hat > 0
    # a single counted cell makes the area identity exact
    assert out.t_total_hat == pytest.approx(out.t_avg_hat / 1e6, rel=1e-12)
    assert out.mean_users_per_nonempty_cell == 2.0


def test_empty_cells_can_stay_silent():
    """force_all_bs_transmit=False silences the empty station, removing
    its interference: identical draws, strictly higher delivered rate."""
    p = dataclasses.replace(TINY, sigma2=1e-9)
    on = run_replication(two_user_field(), p, ONE_CELL_CFG,
                         np.random.default_rng(3))
    off_cfg = dataclasses.replace(ONE_CELL_CFG, force_all_bs_transmit=False)
    off = run_replication(two_user_field(), p, off_cfg,
                          np.random.default_rng(3))
    assert on.p_tr_hat == off.p_tr_hat == 1.0
    assert off.t_avg_hat > on.t_avg_hat


def test_zero_user_field_reports_zeros():
    field = FieldRealization(bs_xy=np.array([[500.0, 500.0]]),
                             user_xy=np.zeros((0, 2)),
                             association=np.zeros(0, dtype=int),
                             rosters=(np.zeros(0, dtype=int),))
    out = run_replication(field, TINY, ONE_CELL_CFG, np.random.default_rng(1))
    assert out == ReplicationOutcome(p_tr_hat=0.0, t_avg_hat=0.0,
                                     t_total_hat=0.0,
                                     mean_users_per_nonempty_cell=0.0,
                                     n_events=0)


# ---------------------------------------------------------------------------
# schedule and energy bookkeeping via traces
# ---------------------------------------------------------------------------

def test_round_robin_schedule_period():
    field = two_user_field()
    trace = {}
    run_replication(field, TINY, ONE_CELL_CFG, np.random.default_rng(1),
                    trace=trace)
    sched = np.array(trace["scheduled"]).ravel()
    roster = field.rosters[0]
    for t, head in enumerate(sched):
        assert head == roster[t % 2]


def test_store_grows_until_reset():
    """Stores only move two ways: up by that slot's harvest, or to zero
    when the owner's scheduled slot delivers."""
    rng = np.random.default_rng(8)
    field = FieldRealization(
        bs_xy=np.array([[200.0, 200.0], [700.0, 650.0]]),
        user_xy=np.array([[210.0, 230.0], [160.0, 180.0], [690.0, 640.0],
                          [720.0, 700.0], [700.0, 600.0]]),
        association=np.array([0, 0, 1, 1, 1]),
        rosters=(np.array([0, 1]), np.array([2, 3, 4])))
    p = params_at(2.0, 5.0, e_th=2e-7)
    trace = {}
    run_replication(field, p, SimConfig(n_slots=120, n_replications=1,
                                        seed=0, warmup_rounds=0),
                    rng, trace=trace)
    stored = np.array(trace["stored_series"])     # (T, U)
    sched = trace["scheduled"]
    ready = trace["ready"]
    n_resets = 0
    for t in range(1, len(stored)):
        reset = np.zeros(stored.shape[1], dtype=bool)
        for head, ok in zip(sched[t], ready[t]):
            if ok:
                reset[head] = True
        assert np.all(stored[t][reset] == 0.0)
        grew = ~reset
        assert np.all(stored[t][grew] >= stored[t - 1][grew])
        n_resets += int(reset.sum())
    assert n_resets > 0


# ---------------------------------------------------------------------------
# sampled geometry
# ---------------------------------------------------------------------------

def test_association_is_nearest_station():
    rng = np.random.default_rng(42)
    cfg = SimConfig()
    field = sample_field(params_at(30.0, 80.0), cfg, rng)
    d = _pair_distances(field.user_xy, field.bs_xy, cfg)
    for u in range(len(field.user_xy)):
        assert field.association[u] == int(np.argmin(d[u]))
    # rosters partition the users
    gathered = np.sort(np.concatenate(field.rosters))
    np.testing.assert_array_equal(gathered, np.arange(len(field.user_xy)))


def test_torus_distance_wraps():
    cfg = SimConfig(region_side=1000.0)
    d = _pair_distances(np.array([[10.0, 500.0]]),
                        np.array([[990.0, 500.0]]), cfg)
    assert d[0, 0] == pytest.approx(20.0)
    guard = SimConfig(edge_mode=EDGE_GUARD)
    d2 = _pair_distances(np.array([[10.0, 500.0]]),
                         np.array([[990.0, 500.0]]), guard)
    assert d2[0, 0] == pytest.approx(980.0)


def test_serving_distance_matches_rayleigh_profile():
    """One probe per independent field keeps the draws iid, so the exact
    distribution test is honest: nearest-station distance on the torus is
    Rayleigh with rate pi*lambda_b."""
    lam = per_km2_to_per_m2(200.0)
    p = params_at(200.0, 0.0)
    cfg = SimConfig()
    rng = np.random.default_rng(2024)
    probe = np.array([[500.0, 500.0]])
    dists = [float(_pair_distances(probe, sample_field(p, cfg, rng).bs_xy,
                                   cfg).min())
             for _ in range(300)]
    ks = stats.kstest(dists,
                      lambda r: 1.0 - np.exp(-math.pi * lam
                                             * np.asarray(r) ** 2))
    assert ks.pvalue > 0.01


def test_zero_station_draw_exhausts_resamples(caplog):
    p = params_at(1e-6, 1.0)
    with pytest.raises(RuntimeError, match="non-empty station field"):
        sample_field(p, SimConfig(), np.random.default_rng(0))
    assert any("resampling" in rec.message for rec in caplog.records)


def test_measure_masks_and_area():
    field = FieldRealization(
        bs_xy=np.array([[100.0, 100.0], [500.0, 500.0]]),
        user_xy=np.array([[100.0, 500.0], [160.0, 500.0], [840.0, 840.0]]),
        association=np.array([0, 1, 1]),
        rosters=(np.array([0]), np.array([1, 2])))
    torus_users, torus_bs = _measure_masks(field, SimConfig())
    assert torus_users.all() and torus_bs.all()
    guard = SimConfig(edge_mode=EDGE_GUARD, measure_ring=0.7)
    users, bs = _measure_masks(field, guard)
    # central square is [150, 850]^2
    np.testing.assert_array_equal(users, [False, True, True])
    np.testing.assert_array_equal(bs, [False, True])
    assert _measure_area(SimConfig()) == 1e6
    assert _measure_area(guard) == pytest.approx(700.0 ** 2)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"region_side": 0.0},
    {"n_slots": 0},
    {"n_replications": 0},
    {"seed": -1},
    {"edge_mode": "mirror"},
    {"guard_width": -1.0},
    {"guard_width": 600.0},
    {"measure_ring": 0.0},
    {"measure_ring": 1.5},
    {"warmup_rounds": -1},
    {"n_slots": 10, "warmup_rounds": 100},
    {"n_slots": 5, "warmup_rounds": 5},
])
def test_sim_config_rejects(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


# ---------------------------------------------------------------------------
# aggregation and reproducibility
# ---------------------------------------------------------------------------

def test_estimate_matches_manual_replications():
    """estimate() is exactly the mean and ddof-1 standard error of the
    per-replication outcomes produced by the spawned seed streams."""
    p = params_at(150.0, 300.0)
    cfg = SimConfig(n_slots=80, n_replications=4, seed=99)
    agg = estimate(p, cfg)
    vals = {"p": [], "t": []}
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_replications):
        rng = np.random.default_rng(child)
        field = sample_field(p, cfg, rng)
        one = run_replication(field, p, cfg, rng)
        vals["p"].append(one.p_tr_hat)
        vals["t"].append(one.t_avg_hat)
    assert agg.p_tr_hat == float(np.mean(vals["p"]))
    assert agg.p_tr_stderr == float(np.std(vals["p"], ddof=1) / 2.0)
    assert agg.t_avg_hat == float(np.mean(vals["t"]))
    assert agg.t_avg_stderr == float(np.std(vals["t"], ddof=1) / 2.0)
    assert agg.n_replications == 4


def test_estimate_is_bit_deterministic():
    p = params_at(100.0, 200.0)
    cfg = SimConfig(n_slots=60, n_replications=3, seed=11)
    a = estimate(p, cfg)
    b = estimate(p, cfg)
    assert a == b
    c = estimate(p, dataclasses.replace(cfg, seed=12))
    assert c.p_tr_hat != a.p_tr_hat or c.t_avg_hat != a.t_avg_hat


def test_estimate_validates_params():
    bad = NetworkParams(lambda_b=1e-4, lambda_u=1e-4, p_s=1.0, alpha=1.5,
                        a_eff=0.5, e_th=1e-5)
    with pytest.raises(ValueError, match="alpha"):
        estimate(bad, SimConfig(n_slots=10))


# ---------------------------------------------------------------------------
# physical agreement
# ---------------------------------------------------------------------------

def test_edge_handling_modes_agree():
    """Torus wrap and guard-ring clipping answer the same physical
    question; their estimates must agree within combined uncertainty."""
    p = params_at(300.0, 450.0)
    tor = estimate(p, SimConfig(n_slots=400, n_replications=12, seed=31))
    gua = estimate(p, SimConfig(n_slots=400, n_replications=12, seed=31,
                                edge_mode=EDGE_GUARD, guard_width=150.0,
                                measure_ring=0.7))
    comb = math.hypot(tor.p_tr_stderr, gua.p_tr_stderr)
    assert abs(tor.p_tr_hat - gua.p_tr_hat) <= 3.0 * comb


def test_mean_users_matches_occupied_cell_thinning():
    """Users per occupied cell against the Gamma-area void model:
    (lambda_u/lambda_b) / (1 - (1 + ratio/3.5)^-3.5)."""
    p = params_at(300.0, 450.0)
    out = estimate(p, SimConfig(n_slots=60, n_replications=12, seed=31))
    ratio = p.lambda_u / p.lambda_b
    pred = ratio / (1.0 - (1.0 + ratio / 3.5) ** -3.5)
    assert out.mean_users_per_nonempty_cell == pytest.approx(pred, rel=0.05)


def test_baseline_delivery_stays_high():
    """At the reference point (100 stations, 450 users per km2, 10 uJ) the
    delivered fraction sits near one."""
    p = params_at(100.0, 450.0)
    out = estimate(p, SimConfig(n_slots=400, n_replications=6, seed=7))
    assert out.p_tr_hat >= 0.95
    assert out.p_tr_stderr < 0.02


# ---------------------------------------------------------------------------
# near/far fading kernel
# ---------------------------------------------------------------------------

class GammaCountingRng:
    """A Generator stand-in that counts the Gamma variates drawn."""

    def __init__(self, rng):
        self._rng = rng
        self.gamma_draws = 0

    def gamma(self, shape, scale):
        self.gamma_draws += np.size(shape)
        return self._rng.gamma(shape, scale)

    def standard_gamma(self, shape):
        self.gamma_draws += np.size(shape)
        return self._rng.standard_gamma(shape)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def replication_outcomes(p, cfg):
    """(p_tr, t_avg, t_total) of each replication estimate() would run."""
    rows = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.n_replications):
        rng = np.random.default_rng(child)
        out = run_replication(sample_field(p, cfg, rng), p, cfg, rng)
        rows.append((out.p_tr_hat, out.t_avg_hat, out.t_total_hat))
    return np.array(rows)


@pytest.mark.parametrize("alpha", [2.2, 3.0, 4.0])
@pytest.mark.parametrize("e_th,lambda_u", [(1e-5, 450.0), (7e-5, 150.0)])
def test_near_far_matches_exact_fading(alpha, e_th, lambda_u, monkeypatch):
    """Near/far against exact fading on every link (all stations in the
    near set) on the same seeded fields of 250 stations/km^2: the mean
    paired difference of p_tr, t_avg and t_total lies within 3 standard
    errors of the paired differences."""
    p = params_at(250.0, lambda_u, e_th=e_th, alpha=alpha)
    cfg = SimConfig(n_slots=300, n_replications=8, seed=6)
    near_far = replication_outcomes(p, cfg)
    monkeypatch.setattr(mcsim, "_NEAR_STATIONS", 10 ** 9)
    exact = replication_outcomes(p, cfg)
    diff = near_far - exact
    stderr = diff.std(axis=0, ddof=1) / math.sqrt(cfg.n_replications)
    assert np.all(np.abs(diff.mean(axis=0)) <= 3.0 * stderr), (
        diff.mean(axis=0), stderr)


def test_small_field_draws_every_link_exactly(monkeypatch):
    """With no more stations than _NEAR_STATIONS there is no far set: no
    Gamma variate is drawn, and raising the constant changes no bit.  A
    larger field does draw them."""
    p = params_at(20.0, 100.0)
    cfg = SimConfig(n_slots=50, n_replications=1, seed=4)
    field = sample_field(p, cfg, np.random.default_rng(4))
    assert 1 < len(field.bs_xy) <= mcsim._NEAR_STATIONS
    rng = GammaCountingRng(np.random.default_rng(5))
    out = run_replication(field, p, cfg, rng)
    assert rng.gamma_draws == 0
    monkeypatch.setattr(mcsim, "_NEAR_STATIONS", 10 ** 9)
    assert run_replication(field, p, cfg, np.random.default_rng(5)) == out
    monkeypatch.undo()

    dense = sample_field(params_at(200.0, 100.0), cfg,
                         np.random.default_rng(4))
    assert len(dense.bs_xy) > mcsim._NEAR_STATIONS
    rng = GammaCountingRng(np.random.default_rng(5))
    run_replication(dense, params_at(200.0, 100.0), cfg, rng)
    assert rng.gamma_draws == len(dense.user_xy) * cfg.n_slots


def test_extreme_path_loss_stays_finite():
    """At alpha = 60 the serving link outweighs its interference by more
    than the float64 precision; summing the interference apart keeps every
    rate finite, and no step warns."""
    p = params_at(1000.0, 450.0, alpha=60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = estimate(p, SimConfig(n_slots=60, n_replications=2, seed=3))
    assert out.n_events > 0
    for value in (out.p_tr_hat, out.t_avg_hat, out.t_total_hat,
                  out.p_tr_stderr, out.t_avg_stderr, out.t_total_stderr):
        assert math.isfinite(value)


def test_far_field_shares_logged_at_debug(caplog, capsys):
    """One debug line per replication reports the near/far split, the
    variates drawn per slot (an exponential per near link and a Gamma per
    user, as every user here has a far set) and the slot loop's speed;
    nothing reaches stdout."""
    p = params_at(200.0, 100.0)
    cfg = SimConfig(n_slots=20, n_replications=3, seed=2)
    with caplog.at_level(logging.DEBUG, logger="rfhnet.mcsim"):
        estimate(p, cfg)
    lines = [r.getMessage() for r in caplog.records
             if r.name == "rfhnet.mcsim"]
    assert len(lines) == 3
    assert all(line.startswith("near/far fading: near set 32 stations")
               and "far variance share median" in line for line in lines)
    users = [len(sample_field(p, cfg, np.random.default_rng(child)).user_xy)
             for child in np.random.SeedSequence(cfg.seed).spawn(3)]
    for line, n_users in zip(lines, users):
        found = re.search(r"variates per slot (\d+), "
                          r"user-slots per second (\S+)$", line)
        assert found, line
        assert int(found.group(1)) == n_users * (mcsim._NEAR_STATIONS + 1)
        assert float(found.group(2)) > 0
    assert capsys.readouterr().out == ""


def test_slot_chunk_changes_no_bit(monkeypatch):
    """The slot loop does the schedule, counts and scores once per
    _SLOT_CHUNK slots.  Any chunk length gives the same outcome and the
    same per-slot trace, here on a guard-ring field whose warm-up ends
    inside a chunk."""
    p = params_at(300.0, 450.0)
    cfg = SimConfig(n_slots=150, n_replications=1, edge_mode=EDGE_GUARD,
                    guard_width=150.0, measure_ring=0.7, warmup_rounds=3)
    field = sample_field(p, cfg, np.random.default_rng(21))
    warmup_ends = [cfg.warmup_rounds * len(r) for r in field.rosters]
    assert any(end % mcsim._SLOT_CHUNK for end in warmup_ends)

    def run():
        trace = {}
        out = run_replication(field, p, cfg, np.random.default_rng(5),
                              trace=trace)
        return out, trace

    reference, reference_trace = run()
    for chunk in (1, 7, 10 ** 6):
        monkeypatch.setattr(mcsim, "_SLOT_CHUNK", chunk)
        out, trace = run()
        assert out == reference
        assert trace.keys() == reference_trace.keys()
        for key, series in reference_trace.items():
            assert len(trace[key]) == len(series) == cfg.n_slots
            for got, want in zip(trace[key], series):
                np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# frozen outcomes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,cfg,seed,gamma_per_slot,expected", [
    pytest.param(
        params_at(300.0, 450.0),
        SimConfig(n_slots=150, n_replications=1, edge_mode=EDGE_GUARD,
                  guard_width=150.0, measure_ring=0.7, warmup_rounds=3),
        21, 783,
        ReplicationOutcome(p_tr_hat=0.8955049167102739,
                           t_avg_hat=0.940491101065534,
                           t_total_hat=0.00020153380737118588,
                           mean_users_per_nonempty_cell=2.037037037037037,
                           n_events=14563),
        id="guard-warmup"),
    pytest.param(
        params_at(250.0, 150.0, sigma2=1e-9),
        SimConfig(n_slots=150, n_replications=1, force_all_bs_transmit=False),
        21, 144,
        ReplicationOutcome(p_tr_hat=0.6477950343611263,
                           t_avg_hat=1.2175368817244148,
                           t_total_hat=0.00013027644634451237,
                           mean_users_per_nonempty_cell=1.3457943925233644,
                           n_events=15330),
        id="silent-stations-noise"),
    # 212 of the field's 448 users keep a far variance that does not
    # underflow, so only they draw a Gamma variate
    pytest.param(
        params_at(45.0, 450.0, e_th=1e-120, alpha=60.0),
        SimConfig(n_slots=150, n_replications=1),
        22, 212,
        ReplicationOutcome(p_tr_hat=0.7993910398332134,
                           t_avg_hat=40.54573947694096,
                           t_total_hat=0.0016218295790776383,
                           mean_users_per_nonempty_cell=10.666666666666666,
                           n_events=4130),
        id="alpha60-partial-far-draws"),
])
def test_replication_outcomes_are_frozen(p, cfg, seed, gamma_per_slot,
                                         expected):
    """Replications recorded with repr from seeded fields: every bit of
    the outcome, and the number of Gamma variates per slot, stay put."""
    rng = GammaCountingRng(np.random.default_rng(seed))
    field = sample_field(p, cfg, rng)
    assert run_replication(field, p, cfg, rng) == expected
    assert rng.gamma_draws == gamma_per_slot * cfg.n_slots
