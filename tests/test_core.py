import dataclasses
import math

import pytest

from rfhnet.core import (ErlangIndexMode, M2_PER_KM2, NetworkParams,
                         NumericPolicy, per_km2_to_per_m2, per_m2_to_per_km2,
                         validate)


def test_density_conversions():
    assert per_km2_to_per_m2(100.0) == 1e-4
    assert per_m2_to_per_km2(1e-4) == 100.0
    assert M2_PER_KM2 == 1e6
    for v in (0.0, 1.0, 37.5, 1e4):
        assert per_m2_to_per_km2(per_km2_to_per_m2(v)) == pytest.approx(v)


def test_validate_accepts_and_returns_params(baseline_params):
    assert validate(baseline_params) is baseline_params


def test_validate_allows_zero_user_density(baseline_params):
    p = dataclasses.replace(baseline_params, lambda_u=0.0)
    validate(p)


@pytest.mark.parametrize("field,value,message", [
    ("lambda_b", 0.0, "lambda_b"),
    ("lambda_b", -1e-4, "lambda_b"),
    ("lambda_b", math.inf, "lambda_b"),
    ("lambda_u", -1.0, "lambda_u"),
    ("lambda_u", math.nan, "lambda_u"),
    ("p_s", 0.0, "p_s"),
    ("alpha", 2.0, "alpha must exceed 2"),
    ("alpha", 1.5, "alpha must exceed 2"),
    ("a_eff", 0.0, "a_eff"),
    ("a_eff", 1.2, "a_eff"),
    ("e_th", 0.0, "e_th"),
    ("e_th", -1e-6, "e_th"),
    ("sigma2", -1e-12, "sigma2"),
])
def test_validate_rejects(baseline_params, field, value, message):
    bad = dataclasses.replace(baseline_params, **{field: value})
    with pytest.raises(ValueError, match=message):
        validate(bad)


def test_params_are_frozen(baseline_params):
    with pytest.raises(dataclasses.FrozenInstanceError):
        baseline_params.alpha = 4.0


def test_policy_defaults():
    pol = NumericPolicy()
    assert pol.erlang_index_mode is ErlangIndexMode.SLOT_COUNT
    assert 0 < pol.quad_rel_tol < 1
    assert 0 < pol.series_tail_eps < 1
    assert pol.n_max_cap >= 1 and pol.k_max_cap >= 1
    assert 0 < pol.eps_sat < 1
    assert pol.plateau_multiple > 0


@pytest.mark.parametrize("kwargs", [
    {"quad_rel_tol": 0.0},
    {"quad_rel_tol": 1.0},
    {"series_tail_eps": -1e-9},
    {"n_max_cap": 0},
    {"k_max_cap": -5},
    {"erlang_index_mode": "slot_count"},   # raw string, not the enum
    {"eps_sat": 0.0},
    {"eps_sat": 1.0},
    {"plateau_multiple": 0.0},
    {"plateau_multiple": math.inf},
    {"plateau_multiple": math.nan},
])
def test_policy_rejects(kwargs):
    with pytest.raises(ValueError):
        NumericPolicy(**kwargs)


def test_policy_is_frozen():
    pol = NumericPolicy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        pol.eps_sat = 0.5


def test_index_mode_round_trip():
    assert ErlangIndexMode("slot_count") is ErlangIndexMode.SLOT_COUNT
    assert ErlangIndexMode("round_count") is ErlangIndexMode.ROUND_COUNT
    with pytest.raises(ValueError):
        ErlangIndexMode("rounds")


def test_params_hashable_for_caching(baseline_params):
    # the closed-form layer memoizes on (r1, params, policy)
    assert hash(baseline_params) == hash(dataclasses.replace(baseline_params))
    assert {baseline_params: 1}[baseline_params] == 1
    assert hash(NumericPolicy()) == hash(NumericPolicy())
