import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

from rfhnet import analytic, cli
from rfhnet.config import (ConfigError, SweepSpec, load_config, parse_text,
                           resolved_lines)
from rfhnet.core import NumericPolicy, per_km2_to_per_m2
from rfhnet.mcsim import SimConfig

REPO = Path(__file__).resolve().parents[1]

BASE_NETWORK = """\
network.lambda_b_per_km2 = 100
network.lambda_u_per_km2 = 450
network.p_s = 1.0
network.alpha = 3.0
network.a_eff = 0.5
network.e_th = 1e-5
"""

SMALL_SIM = """\
sim.region_side = 1000
sim.n_slots = 40
sim.n_replications = 2
sim.seed = 3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_text_happy_path():
    raw = parse_text(BASE_NETWORK + "# comment\n\npolicy.n_max_cap = 500\n",
                     path="x.cfg")
    assert raw["network"]["lambda_b_per_km2"] == 100.0
    assert raw["policy"]["n_max_cap"] == 500
    assert raw["sweep"] == {}


@pytest.mark.parametrize("line,fragment", [
    ("just words", "expected 'section.key = value'"),
    ("lambda_b_per_km2 = 3", "lacks a section prefix"),
    ("planet.mass = 3", "unknown section"),
    ("network.bandwidth = 3", "unknown key"),
    ("network.sigma2 = tall", "expected number"),
    ("policy.n_max_cap = 1.5", "expected integer"),
    ("sim.force_all_bs_transmit = yes", "expected true/false"),
    ("policy.erlang_index_mode = rounds", "expected one of"),
    ("sweep.values = 100, many", "expected number"),
])
def test_parse_text_errors_carry_line_numbers(line, fragment):
    text = BASE_NETWORK + line + "\n"
    lineno = text.splitlines().index(line) + 1
    with pytest.raises(ConfigError) as info:
        parse_text(text, path="bad.cfg")
    assert fragment in str(info.value)
    assert f"bad.cfg:{lineno}" in str(info.value)


def test_parse_text_rejects_duplicates():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_text(BASE_NETWORK + "network.alpha = 4\n", path="x.cfg")


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

def test_load_config_converts_units_and_defaults(tmp_path):
    path = write_cfg(tmp_path, BASE_NETWORK)
    params, policy, sim, sweep = load_config(path)
    assert params.lambda_b == per_km2_to_per_m2(100.0)
    assert params.lambda_u == per_km2_to_per_m2(450.0)
    assert params.sigma2 == 0.0
    assert policy == NumericPolicy()
    assert sim.n_slots == 600 and sim.edge_mode == "torus"
    assert sweep is None


def test_load_config_overrides_beat_file(tmp_path):
    path = write_cfg(tmp_path, BASE_NETWORK)
    params, _, sim, _ = load_config(path,
                                    {"network.lambda_b_per_km2": "250",
                                     "sim.seed": "77"})
    assert params.lambda_b == per_km2_to_per_m2(250.0)
    assert sim.seed == 77
    with pytest.raises(ConfigError, match="unknown override"):
        load_config(path, {"network.nope": "1"})


def test_load_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "absent.cfg"))


def test_load_config_missing_required_key(tmp_path):
    path = write_cfg(tmp_path, "network.alpha = 3\n")
    with pytest.raises(ConfigError, match="missing required key"):
        load_config(path)


def test_load_config_surfaces_domain_validation(tmp_path):
    path = write_cfg(tmp_path,
                     BASE_NETWORK.replace("alpha = 3.0", "alpha = 2.0"))
    with pytest.raises(ConfigError, match="alpha must exceed 2"):
        load_config(path)


def test_load_config_bad_index_mode(tmp_path):
    path = write_cfg(tmp_path,
                     BASE_NETWORK + "policy.erlang_index_mode = rounds\n")
    with pytest.raises(ConfigError, match="erlang_index_mode"):
        load_config(path)


def test_load_config_sweep_template_and_conflict(tmp_path):
    sweep_cfg = BASE_NETWORK.replace(
        "network.lambda_b_per_km2 = 100\n", "")
    sweep_cfg += ("sweep.parameter = lambda_b\n"
                  "sweep.values = 100, 200\n"
                  "sweep.metrics = p_tr\n"
                  "sweep.mode = analytic\n")
    params, _, _, sweep = load_config(write_cfg(tmp_path, sweep_cfg))
    assert sweep == SweepSpec("lambda_b", (100.0, 200.0), ("p_tr",),
                              "analytic")
    # the template carries the first swept value
    assert params.lambda_b == per_km2_to_per_m2(100.0)

    conflicted = BASE_NETWORK + ("sweep.parameter = lambda_b\n"
                                 "sweep.values = 100, 200\n"
                                 "sweep.metrics = p_tr\n")
    with pytest.raises(ConfigError, match="conflicts with sweep.parameter"):
        load_config(write_cfg(tmp_path, conflicted, name="c.cfg"))


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(parameter="alpha", values=(3.0,), metrics=("p_tr",)),
     "sweep.parameter"),
    (dict(parameter="lambda_b", values=(), metrics=("p_tr",)), "non-empty"),
    (dict(parameter="lambda_b", values=(2.0, 1.0), metrics=("p_tr",)),
     "strictly increasing"),
    (dict(parameter="lambda_b", values=(1.0,), metrics=("speed",)),
     "unknown sweep metric"),
    (dict(parameter="lambda_b", values=(1.0,), metrics=("p_tr",),
          mode="fast"), "sweep.mode"),
    (dict(parameter="lambda_u", values=(1.0,),
          metrics=("sustainable_ratio",), mode="analytic"),
     "lambda_b only"),
    (dict(parameter="lambda_b", values=(1.0,),
          metrics=("sustainable_ratio",), mode="both"),
     "no simulated estimator"),
])
def test_sweep_spec_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        SweepSpec(**kwargs)


def test_resolved_lines_round_trip(tmp_path):
    params, policy, sim, sweep = load_config(write_cfg(tmp_path,
                                                       BASE_NETWORK))
    lines = resolved_lines(params, policy, sim, sweep)
    assert lines == sorted(lines)
    as_dict = dict(line.split("=", 1) for line in lines)
    assert as_dict["network.lambda_b_per_km2"] == "100.0"
    assert as_dict["policy.erlang_index_mode"] == "slot_count"
    assert as_dict["sim.force_all_bs_transmit"] == "true"

    # a density is written as the shortest text that loads back to it:
    # 123/km2 is 123.00000000000001 after the round trip through per-m2
    odd = write_cfg(tmp_path, BASE_NETWORK.replace("= 100", "= 123"),
                    name="odd.cfg")
    assert "network.lambda_b_per_km2=123.0" in resolved_lines(
        *load_config(odd))
    for km2 in range(1, 20001):
        p = dataclasses.replace(params, lambda_b=per_km2_to_per_m2(km2))
        assert f"network.lambda_b_per_km2={float(km2)!r}" in resolved_lines(
            p, policy, sim, sweep), km2


def test_resolved_lines_round_trip_every_key(tmp_path):
    """A config setting every key away from its default survives
    resolved_lines and loads back equal."""
    text = ("network.lambda_u_per_km2 = 300\n"
            "network.p_s = 2.5\n"
            "network.alpha = 3.5\n"
            "network.a_eff = 0.75\n"
            "network.e_th = 3e-5\n"
            "network.sigma2 = 1e-12\n"
            "policy.quad_rel_tol = 1e-6\n"
            "policy.series_tail_eps = 1e-7\n"
            "policy.n_max_cap = 900\n"
            "policy.k_max_cap = 800\n"
            "policy.erlang_index_mode = round_count\n"
            "policy.eps_sat = 0.05\n"
            "policy.plateau_multiple = 40\n"
            "sim.region_side = 800\n"
            "sim.n_slots = 50\n"
            "sim.n_replications = 3\n"
            "sim.seed = 11\n"
            "sim.edge_mode = guard\n"
            "sim.guard_width = 100\n"
            "sim.measure_ring = 0.5\n"
            "sim.force_all_bs_transmit = false\n"
            "sim.warmup_rounds = 2\n"
            "sweep.parameter = lambda_b\n"
            "sweep.values = 150, 700\n"
            "sweep.metrics = p_tr,t_avg\n"
            "sweep.mode = simulate\n")
    loaded = load_config(write_cfg(tmp_path, text))
    params, policy, sim, sweep = loaded
    for obj, default in ((policy, NumericPolicy()), (sim, SimConfig())):
        for f in dataclasses.fields(obj):
            assert getattr(obj, f.name) != getattr(default, f.name), f.name
    assert sweep.mode != "both"

    lines = resolved_lines(*loaded)
    assert {line.split("=", 1)[0] for line in lines} == {
        line.split("=", 1)[0].strip() for line in text.splitlines()} | {
        "network.lambda_b_per_km2"}
    # the preamble records the template's first swept value, which a
    # config may not set next to sweep.parameter
    back = [line for line in lines
            if not line.startswith("network.lambda_b_per_km2=")]
    path = write_cfg(tmp_path, "\n".join(back) + "\n", name="back.cfg")
    assert load_config(path) == loaded


def test_shipped_preamble_matches_committed_results():
    cfg = load_config(str(REPO / "configs" / "delivery_vs_bs_density.cfg"))
    committed = [line[len("# cfg "):].rstrip("\n") for line in open(
        REPO / "results" / "delivery_vs_bs_density.csv", encoding="utf-8")
        if line.startswith("# cfg ")]
    assert len(committed) == 27
    assert resolved_lines(*cfg) == committed


def test_committed_saturation_sweep_reproduces(tmp_path):
    """results/throughput_saturation_lb100.csv is what
    scripts/throughput_saturation.py writes at 100 stations/km^2: the same
    preamble and rows, with t_total within 1e-10 relative."""
    out = tmp_path / "lb100.csv"
    assert cli.main(["sweep", "--config",
                     str(REPO / "configs" / "throughput_vs_user_density.cfg"),
                     "--lambda-b", "100.0", "--output", str(out)]) == 0
    cfg, rows = cli.read_sweep_csv(str(out))
    committed_cfg, committed = cli.read_sweep_csv(
        str(REPO / "results" / "throughput_saturation_lb100.csv"))
    assert cfg == committed_cfg
    assert len(rows) == len(committed) == 6
    for a, b in zip(rows, committed):
        assert a.metric == "t_total"
        assert (a.value, a.metric, a.mode, a.error) == (
            b.value, b.metric, b.mode, b.error)
        assert a.result == pytest.approx(b.result, rel=1e-10)


def test_committed_simulation_row_reproduces():
    """The simulate rows of results/delivery_vs_bs_density.csv at 1000
    stations/km^2 (sweep index 5) are what estimate() returns on that
    point's seed, bit for bit."""
    from rfhnet.mcsim import estimate
    params, _, sim, sweep = load_config(
        str(REPO / "configs" / "delivery_vs_bs_density.cfg"))
    index = 5
    value = sweep.values[index]
    assert value == 1000.0
    out = estimate(cli._apply_value(params, sweep.parameter, value),
                   dataclasses.replace(
                       sim, seed=cli._point_seed(sim.seed, index)))
    _, rows = cli.read_sweep_csv(
        str(REPO / "results" / "delivery_vs_bs_density.csv"))
    committed = {r.metric: (r.result, r.stderr) for r in rows
                 if r.value == value and r.mode == "simulate"}
    assert committed == {
        "p_tr": (7.06992150815466069e-01, 4.50625553261500660e-03),
        "mean_users": (1.29630276710152259e+00, 9.16490207929173545e-03)}
    assert (out.p_tr_hat, out.p_tr_stderr) == committed["p_tr"]
    assert ((out.mean_users_per_nonempty_cell, out.mean_users_stderr)
            == committed["mean_users"])


def test_readme_config_table_lists_every_key():
    cfg = load_config(str(REPO / "configs" / "delivery_vs_bs_density.cfg"))
    keys = {line.split("=", 1)[0] for line in resolved_lines(*cfg)}
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    table = {}
    for section, cell in re.findall(r"^\| `(\w+)` +\| (.*) \|$", readme,
                                    flags=re.M):
        names = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", cell))
        table.update({f"{section}.{name}": None for name in names})
    assert set(table) == keys


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------

SWEEP_ANALYTIC = BASE_NETWORK.replace(
    "network.lambda_b_per_km2 = 100\n", "") + (
    "sweep.parameter = lambda_b\n"
    "sweep.values = 100, 200\n"
    "sweep.metrics = p_tr,mean_users\n"
    "sweep.mode = analytic\n")

SWEEP_BOTH = ("network.lambda_b_per_km2 = 50\n"
              "network.p_s = 1.0\n"
              "network.alpha = 3.0\n"
              "network.a_eff = 0.5\n"
              "network.e_th = 1e-5\n"
              + SMALL_SIM +
              "sweep.parameter = lambda_u\n"
              "sweep.values = 150, 250\n"
              "sweep.metrics = p_tr\n"
              "sweep.mode = both\n")


def test_run_sweep_matches_direct_calls(tmp_path):
    params, policy, sim, sweep = load_config(write_cfg(tmp_path,
                                                       SWEEP_ANALYTIC))
    records = cli.run_sweep(params, policy, sim, sweep)
    assert [(r.value, r.metric, r.mode) for r in records] == [
        (100.0, "mean_users", "analytic"), (100.0, "p_tr", "analytic"),
        (200.0, "mean_users", "analytic"), (200.0, "p_tr", "analytic")]
    for r in records:
        assert r.error == ""
        direct = analytic.delivery_prob(
            cli._apply_value(params, "lambda_b", r.value), policy)
        want = (direct.p_tr if r.metric == "p_tr"
                else direct.expected_users_typical_cell)
        assert r.result == pytest.approx(want, rel=1e-12)
        assert r.stderr is None


def test_run_sweep_isolates_point_failures(tmp_path, monkeypatch, capsys):
    """One value blowing up must cost exactly its own rows, exit code 1,
    and leave the others intact."""
    real = analytic.delivery_prob

    def sometimes(params, policy):
        if math.isclose(params.lambda_b, per_km2_to_per_m2(200.0)):
            raise RuntimeError("synthetic failure")
        return real(params, policy)

    monkeypatch.setattr(analytic, "delivery_prob", sometimes)
    monkeypatch.delenv("RFH_THREADS", raising=False)
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--config",
                     write_cfg(tmp_path, SWEEP_ANALYTIC),
                     "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "synthetic failure" in err
    _, records = cli.read_sweep_csv(str(out))
    bad = [r for r in records if r.error]
    good = [r for r in records if not r.error]
    assert len(bad) == 2 and all(r.value == 200.0 for r in bad)
    assert all(r.result is None for r in bad)
    assert len(good) == 2 and all(r.result is not None for r in good)


def test_run_sweep_evaluates_each_stage_once(tmp_path, monkeypatch):
    """p_tr and mean_users come from one delivery_prob call per value, and
    a failing throughput stage marks only its own rows."""
    calls = []
    real = analytic.delivery_prob

    def counted(params, policy):
        calls.append(params.lambda_b)
        return real(params, policy)

    def broken(params, policy):
        raise RuntimeError("synthetic throughput failure")

    monkeypatch.setattr(analytic, "delivery_prob", counted)
    monkeypatch.setattr(analytic, "total_throughput", broken)
    params, policy, sim, sweep = load_config(
        write_cfg(tmp_path, SWEEP_ANALYTIC),
        {"sweep.metrics": "p_tr,mean_users,t_total"})
    records = cli.run_sweep(params, policy, sim, sweep)
    assert calls == [per_km2_to_per_m2(v) for v in sweep.values]
    for r in records:
        failed = r.metric == "t_total"
        assert bool(r.error) == failed
        assert (r.result is None) == failed
    assert len(records) == 3 * len(sweep.values)


def test_sweep_csv_round_trip(tmp_path):
    params, policy, sim, sweep = load_config(write_cfg(tmp_path,
                                                       SWEEP_ANALYTIC))
    records = cli.run_sweep(params, policy, sim, sweep)
    path = tmp_path / "out.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cli.write_sweep_csv(fh, records,
                            resolved_lines(params, policy, sim, sweep))
    cfg, back = cli.read_sweep_csv(str(path))
    assert cfg["network.e_th"] == "1e-05"
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert (a.value, a.metric, a.mode, a.error) == (b.value, b.metric,
                                                        b.mode, b.error)
        assert a.result == b.result
        assert a.stderr == b.stderr
        assert b.wall_time_ms == pytest.approx(a.wall_time_ms, abs=1e-3)


def test_read_sweep_csv_rejects_foreign_files(tmp_path):
    path = tmp_path / "noise.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad header"):
        cli.read_sweep_csv(str(path))


def body_without_walls(path):
    with open(path, "r", encoding="utf-8") as fh:
        return "".join(line for line in fh
                       if not line.startswith("# wall "))


def test_sweep_output_is_reproducible(tmp_path, monkeypatch):
    """The CSV body (everything but wall-time comments) is byte-identical
    across reruns and across serial/parallel execution."""
    cfg_path = write_cfg(tmp_path, SWEEP_BOTH)
    monkeypatch.delenv("RFH_THREADS", raising=False)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["sweep", "--config", cfg_path,
                     "--output", str(a)]) == 0
    assert cli.main(["sweep", "--config", cfg_path,
                     "--output", str(b)]) == 0
    assert body_without_walls(a) == body_without_walls(b)

    monkeypatch.setenv("RFH_THREADS", "2")
    c = tmp_path / "c.csv"
    assert cli.main(["sweep", "--config", cfg_path,
                     "--output", str(c)]) == 0
    assert body_without_walls(c) == body_without_walls(a)


def test_point_seed_is_stable():
    assert cli._point_seed(20260822, 3) == cli._point_seed(20260822, 3)
    seeds = {cli._point_seed(20260822, i) for i in range(6)}
    assert len(seeds) == 6


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("RFH_THREADS", raising=False)
    assert cli._worker_count(8) == 1
    monkeypatch.setenv("RFH_THREADS", "4")
    assert cli._worker_count(8) == 4
    assert cli._worker_count(2) == 2
    monkeypatch.setenv("RFH_THREADS", "abc")
    assert cli._worker_count(8) == 1


# ---------------------------------------------------------------------------
# commands and exit codes
# ---------------------------------------------------------------------------

def test_analytic_command_matches_library(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE_NETWORK)
    assert cli.main(["analytic", "--config", cfg_path,
                     "--metrics", "p_tr"]) == 0
    line = capsys.readouterr().out.strip()
    params, policy, _, _ = load_config(cfg_path)
    want = analytic.delivery_prob(params, policy).p_tr
    assert line.startswith("p_tr=")
    assert float(line.split("=", 1)[1]) == want


def test_analytic_command_override(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE_NETWORK)
    assert cli.main(["analytic", "--config", cfg_path, "--lambda-b", "250",
                     "--metrics", "mean_users"]) == 0
    got = float(capsys.readouterr().out.split("=", 1)[1])
    params, policy, _, _ = load_config(
        cfg_path, {"network.lambda_b_per_km2": "250"})
    assert got == analytic.delivery_prob(params,
                                         policy).expected_users_typical_cell


def test_analytic_command_near_alpha_two(tmp_path, capsys):
    """alpha = 2.2 passes validation, so every default metric must come
    out finite, the rate chain's t_avg and t_total included."""
    cfg_path = write_cfg(tmp_path, BASE_NETWORK.replace(
        "alpha = 3.0", "alpha = 2.2"))
    assert cli.main(["analytic", "--config", cfg_path]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    assert set(out) == {"p_tr", "t_avg", "t_total", "mean_users"}
    assert all(math.isfinite(float(v)) for v in out.values())


def test_analytic_command_unknown_metric(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE_NETWORK)
    assert cli.main(["analytic", "--config", cfg_path,
                     "--metrics", "latency"]) == 2
    # a known metric in the list is not computed or printed either
    assert cli.main(["analytic", "--config", cfg_path,
                     "--metrics", "p_tr,latency"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "latency" in captured.err


def test_simulate_command_reports_all_fields(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, BASE_NETWORK.replace(
        "450", "150") + SMALL_SIM)
    assert cli.main(["simulate", "--config", cfg_path]) == 0
    out = dict(line.split("=", 1)
               for line in capsys.readouterr().out.splitlines())
    for key in ("p_tr", "p_tr_stderr", "t_avg", "t_total", "mean_users",
                "n_events", "n_replications"):
        assert key in out
    assert 0.0 <= float(out["p_tr"]) <= 1.0
    assert int(out["n_replications"]) == 2


def test_exit_codes_for_config_errors(tmp_path, capsys):
    assert cli.main(["analytic", "--config",
                     str(tmp_path / "missing.cfg")]) == 2
    bad = write_cfg(tmp_path, BASE_NETWORK.replace("3.0", "2.0"),
                    name="bad.cfg")
    assert cli.main(["analytic", "--config", bad]) == 2
    no_sweep = write_cfg(tmp_path, BASE_NETWORK, name="nosweep.cfg")
    assert cli.main(["sweep", "--config", no_sweep,
                     "--output", str(tmp_path / "x.csv")]) == 2
    for bad_value in ("policy.plateau_multiple = inf\n", "sim.seed = -1\n",
                      "sim.n_slots = 10\nsim.warmup_rounds = 100\n"):
        cfg_path = write_cfg(tmp_path, BASE_NETWORK + bad_value,
                             name="value.cfg")
        assert cli.main(["analytic", "--config", cfg_path]) == 2
    capsys.readouterr()


def test_fit_command_writes_profile(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    assert cli.main(["fit", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "coefficients:" in text
    rows = [line.split(",") for line in out.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows[0] == ["r_norm", "target_pdf", "fitted_pdf"]
    r = np.array([float(v[0]) for v in rows[1:]])
    target = np.array([float(v[1]) for v in rows[1:]])
    fitted = np.array([float(v[2]) for v in rows[1:]])
    # the tabulated target is the exact serving-distance density, so its
    # grid mass is ~1 (the grid misses only ~0.2% below r=0.025)
    assert trapezoid(target, r) == pytest.approx(1.0, abs=0.01)
    assert np.max(np.abs(fitted - target)) <= 0.05 * target.max()


def _fresh_python(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_out_the_optimizer():
    """A fresh `import rfhnet.cli` loads the closed-form model, but not
    scipy.optimize, which only `rfhnet fit` needs, nor the simulator and
    the process pool, which only simulations and parallel sweeps need."""
    loaded = set(json.loads(_fresh_python(
        "import json, sys, rfhnet.cli; "
        "print(json.dumps(sorted(sys.modules)))")))
    for name in ("scipy.optimize", "scipy.spatial", "rfhnet.mcsim",
                 "rfhnet.fit", "concurrent.futures.process"):
        assert name not in loaded, name
    for name in ("analytic", "config", "numerics", "core"):
        assert f"rfhnet.{name}" in loaded, name


def test_submodules_load_on_first_access():
    """Reading a config does not import the simulator; `rfhnet.mcsim`
    still resolves after `import rfhnet.cli`, on first access; a name that
    is no submodule is an AttributeError."""
    out = _fresh_python(
        "import sys, rfhnet.config\n"
        "print('rfhnet.mcsim' in sys.modules)\n"
        "import rfhnet.cli\n"
        "print(rfhnet.mcsim.estimate.__name__)\n"
        "try:\n"
        "    rfhnet.no_such_module\n"
        "except AttributeError:\n"
        "    print('AttributeError')\n")
    assert out.split() == ["False", "estimate", "AttributeError"]


def test_fit_command_gap_threshold(tmp_path, capsys):
    out = tmp_path / "fit.csv"
    assert cli.main(["fit", "--output", str(out),
                     "--max-gap", "0.001"]) == 1
    assert "exceeds" in capsys.readouterr().err
