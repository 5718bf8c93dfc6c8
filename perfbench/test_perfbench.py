"""Tests of the benchmark harness itself, at tiny workload sizes.

    python3 -m pytest -q perfbench

They live outside the package's `testpaths`, so the package's own test
run does not collect them.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import steady  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
rfhnet = worker.import_rfhnet()


def bench_run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args,
         "--scale", "tiny", "--seconds", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_name_and_unit_present(workload):
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        res = result_line(bench_run("--workload", workload, "--seed", "1",
                                    "--trace", str(trace)))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
        for m in res["metrics"].values():
            assert isinstance(m["value"], (int, float))
        if trace:
            calls = {k: v["value"] for k, v in res["metrics"].items()}
            if workload != "throughput-sweep":
                assert calls["analytic.rho.calls"] == 0
            if workload != "sim-field":
                assert calls["mcsim.run_replication.calls"] == 0
        else:
            assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_time_fits_in_wall(workload, tmp_path):
    path = tmp_path / "spans.npz"
    rec = worker.run_pass(workload, 1, "tiny", trace=True, spans_path=path)
    spans = np.load(path)
    parent, start, end = spans["parent"], spans["start"], spans["end"]
    assert len(start) == rec["spans"] > 0
    assert np.all(start <= end)
    child = parent >= 0
    assert np.all(start[parent[child]] <= start[child])
    assert np.all(end[child] <= end[parent[child]])
    self_s = sum(v for k, v in rec["layers"].items()
                 if k.endswith(".self_s") and not k.startswith("config."))
    assert 0 < self_s <= rec["wall_s"]
    assert rec["layers"]["config.load_config.self_s"] <= rec["setup_s"]


def _shift(module, attr, change):
    original = getattr(module, attr)

    def shifted(*args, **kwargs):
        return change(original(*args, **kwargs))
    return shifted


INJECTIONS = {
    "delivery-curves": (rfhnet.analytic, "delivery_prob",
                        lambda br: dataclasses.replace(br, p_tr=br.p_tr
                                                       + 2e-4)),
    "throughput-sweep": (rfhnet.analytic, "total_throughput",
                         lambda rep: dataclasses.replace(
                             rep, t_total=rep.t_total * (1 + 2e-4))),
    "sim-field": (rfhnet.mcsim, "estimate",
                  lambda out: dataclasses.replace(out, p_tr_hat=0.5)),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_off_reference_output_raises_fail_ratio(workload, monkeypatch):
    clean = worker.run_pass(workload, 1, "tiny")
    module, attr, change = INJECTIONS[workload]
    monkeypatch.setattr(module, attr, _shift(module, attr, change))
    bad = worker.run_pass(workload, 1, "tiny")

    def fail_ratio(rec):
        return sum(not o["ok"] for o in rec["ops"]) / len(rec["ops"])
    assert fail_ratio(bad) > fail_ratio(clean)
    assert all(not o["ok"] for o in bad["ops"])


def test_alpha_22_op_is_counted_as_failed():
    rec = worker.run_pass("throughput-sweep", 1, "tiny")
    *rest, low_alpha = rec["ops"]
    assert low_alpha["label"].startswith("alpha=2.2")
    assert not low_alpha["ok"] and "QuadratureError" in low_alpha["error"]
    assert all(o["ok"] for o in rest)


def test_same_seed_gives_bit_identical_sim_field():
    first = worker.run_pass("sim-field", 7, "tiny")
    again = worker.run_pass("sim-field", 7, "tiny")
    other = worker.run_pass("sim-field", 8, "tiny")

    def outputs(rec):
        return [o["output"] for o in rec["ops"]]
    assert outputs(first) == outputs(again)
    assert outputs(first) != outputs(other)
    assert first["user_slots"] == again["user_slots"]


def test_fails_without_result_when_only_the_benchmark_is_present(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench_run("--workload", "sim-field", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_spread_is_interquartile_range_over_median():
    q1, q3, sp = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q1, q3) == (1.5, 4.5)
    assert sp == pytest.approx(1.0)


def test_pass_metrics_count_only_successful_ops():
    rec = {"wall_s": 3.0, "wall_ref_s": 4.0, "peak_rss_mb": 100.0,
           "kernel": {"median_s": 0.01},
           "ops": [{"seconds": 0.8, "ref_s": 1.0, "ok": True},
                   {"seconds": 2.2, "ref_s": 3.0, "ok": False}]}
    m = run.pass_metrics(rec)
    assert m["ops_per_s"] == 0.25 and m["first_op_s"] == 1.0
    assert m["wall_s"] == 4.0 and m["wall_raw_s"] == 3.0


def test_reference_seconds_scale_by_the_kernel_around_the_op():
    calib = calibrate.Calibrator("quad")
    nominal = calib.nominal_s
    # the kernel ran at twice its nominal time around t=10, once outside
    calib.samples = [(9.0 + 0.1 * i, 2.0 * nominal) for i in range(20)]
    calib.samples.append((30.0, 100.0 * nominal))
    assert calib.kernel_s(9.5, 10.5) == pytest.approx(2.0 * nominal)
    assert calib.ref_seconds(3.0, 9.5, 10.5) == pytest.approx(1.5)
    # an op with no sample near it takes the nearest ones
    assert calib.kernel_s(50.0, 50.1) > 2.0 * nominal
    calib.interrupts = [(10.0, 10.25), (20.0, 20.5)]
    assert calib.spent_in(9.5, 10.5) == pytest.approx(0.25)


def test_calibrated_pass_leaves_kernel_time_out_of_the_ops():
    rec = worker.run_pass("sim-field", 1, "tiny")
    assert rec["kernel"]["name"] == "numpy" and rec["kernel"]["samples"] > 0
    for o in rec["ops"]:
        assert o["seconds"] > 0 and o["ref_s"] > 0
    assert rec["wall_ref_s"] == pytest.approx(sum(o["ref_s"]
                                                  for o in rec["ops"]))
    traced = worker.run_pass("sim-field", 1, "tiny", trace=True)
    assert "kernel" not in traced
    assert all("ref_s" not in o for o in traced["ops"])
