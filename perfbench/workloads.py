"""The benchmark's workloads: their inputs, their ops, and the reference
each op's output is checked against.

An op is one unit of work a user waits for: one sweep value through
`cli.run_sweep` on the analytic workloads, one replication through
`mcsim.estimate` on `sim-field`.  The ops of a workload run in order in one
process, so caches carry over as they do in a serial sweep.

The references are this file's own copy: the frozen delivery curves of the
test suite, and values recorded with the seed version of rfhnet.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

DELIVERY_CFG = "configs/delivery_vs_bs_density.cfg"
THROUGHPUT_CFG = "configs/throughput_vs_user_density.cfg"
BASELINE_CFG = "configs/baseline.cfg"

WORKLOADS = ("delivery-curves", "throughput-sweep", "sim-field")

# delivery-curves: (e_th, lambda_u, alpha) -> {lambda_b: (p_tr, mean_users)}.
# p_tr at alpha=3 is the frozen CURVE_LOW_ETH / CURVE_HIGH_ETH pair of the
# test suite; the alpha=3.5 and alpha=4 points and every mean_users value
# were recorded with the seed version.
DELIVERY_REF = {
    ("1e-5", "450", "3"): {
        100.0: (0.9740, 5.7336), 250.0: (0.9218, 2.2934),
        400.0: (0.8562, 1.4334), 550.0: (0.8045, 1.0425),
        775.0: (0.7481, 0.7398), 1000.0: (0.7087, 0.5734)},
    ("7e-5", "150", "3"): {
        100.0: (0.3985, 1.9112), 250.0: (0.5107, 0.7645),
        400.0: (0.5632, 0.4778), 550.0: (0.5910, 0.3475),
        775.0: (0.5998, 0.2466), 1000.0: (0.5851, 0.1911)},
    ("1e-5", "450", "3.5"): {100.0: (0.58555, 5.7336)},
    ("1e-5", "450", "4"): {1000.0: (0.56607, 0.5734)},
}
P_TR_ABS_TOL = 1e-4
MEAN_USERS_ABS_TOL = 0.01

# throughput-sweep: t_total [bits/slot/m^2] recorded with the seed version.
# The seed version raises QuadratureError at alpha=2.2; that reference was
# computed with rho replaced by its hypergeometric closed form, which agrees
# with the seed's quadrature to 1e-14 at alpha=3.
T_TOTAL_REF = {
    150.0: 5.338918766549301e-05, 300.0: 8.19466198991115e-05,
    600.0: 1.066040783764764e-04, 1500.0: 1.2334682537727576e-04,
    3600.0: 1.2563583054353168e-04, 7500.0: 1.2569332932191147e-04,
}
T_TOTAL_ALPHA_22_REF = 3.575853909693542e-05
T_TOTAL_REL_TOL = 1e-4

# sim-field: closed-form p_tr of each deployment, from CURVE_LOW_ETH
SIM_P_TR_REF = {100.0: 0.9740, 1000.0: 0.7087}
SIM_ABS_TOL = 0.05       # tolerance is max(0.05, 3 standard errors)
# The first op's replication seed, the same in every pass and run, so that
# first_op_s times the same field each time instead of following its
# Poisson size (users x stations varies by about 6% between fields).  The
# other ops draw their seeds from --seed.
SIM_FIRST_OP_SEED = 1806

Output = Dict[str, float]


@dataclass
class Plan:
    """ops: (label, callable) pairs run in order; check(outputs) gives one
    verdict per op, where a None output stands for an op that raised;
    kernel names the calibration kernel whose work is most like the ops'
    (calibrate.KERNELS); user_slots(), if set, counts the users x slots
    the ops simulated."""
    ops: List[Tuple[str, Callable[[], Output]]]
    check: Callable[[List[Optional[Output]]], List[bool]]
    kernel: str
    user_slots: Optional[Callable[[], int]] = None


def build(name: str, rfhnet, root: Path, seed: int,
          scale: str = "full") -> Plan:
    """Load the workload's configs and return its ops.  `scale="tiny"` is
    a few-second version of each workload for the harness's own tests."""
    builders = {"delivery-curves": _delivery_curves,
                "throughput-sweep": _throughput_sweep,
                "sim-field": _sim_field}
    return builders[name](rfhnet, root, seed, scale == "tiny")


def _sweep_op(rfhnet, loaded, value: float) -> Callable[[], Output]:
    """One sweep value through cli.run_sweep; an error row fails the op."""
    params, policy, sim, sweep = loaded
    spec = dataclasses.replace(sweep, values=(value,))

    def op():
        records = rfhnet.cli.run_sweep(params, policy, sim, spec)
        for r in records:
            if r.error:
                raise RuntimeError(r.error)
        return {r.metric: r.result for r in records}
    return op


def _within(output: Optional[Output], refs: Dict[str, Tuple[float, float]]):
    return output is not None and all(
        key in output and abs(output[key] - ref) <= tol
        for key, (ref, tol) in refs.items())


def _reference_check(refs: List[Dict[str, Tuple[float, float]]]):
    def check(outputs):
        return [_within(out, ref) for out, ref in zip(outputs, refs)]
    return check


def _delivery_curves(rfhnet, root, seed, tiny):
    groups = list(DELIVERY_REF.items())
    if tiny:
        groups = [(key, {1000.0: table[1000.0]}) for key, table in groups[:2]]
    ops, refs = [], []
    for (e_th, lambda_u, alpha), table in groups:
        loaded = rfhnet.config.load_config(str(root / DELIVERY_CFG), {
            "network.e_th": e_th, "network.lambda_u_per_km2": lambda_u,
            "network.alpha": alpha, "sweep.mode": "analytic",
            "sweep.values": ", ".join(str(v) for v in table)})
        for lambda_b, (p_tr, users) in table.items():
            ops.append((f"e_th={e_th} lambda_u={lambda_u} alpha={alpha} "
                        f"lambda_b={lambda_b:g}",
                        _sweep_op(rfhnet, loaded, lambda_b)))
            refs.append({"p_tr": (p_tr, P_TR_ABS_TOL),
                         "mean_users": (users, MEAN_USERS_ABS_TOL)})
    return Plan(ops, _reference_check(refs), "quad")


def _throughput_sweep(rfhnet, root, seed, tiny):
    # tiny: one cheap value at a loose tolerance, which still lands within
    # T_TOTAL_REL_TOL of the reference, and the alpha=2.2 op
    overrides = {"policy.quad_rel_tol": "1e-2"} if tiny else {}
    loaded = rfhnet.config.load_config(str(root / THROUGHPUT_CFG), overrides)
    values = (7500.0,) if tiny else loaded[3].values
    low_alpha = rfhnet.config.load_config(str(root / THROUGHPUT_CFG), {
        **overrides, "network.alpha": "2.2", "network.e_th": "1e-5",
        "sweep.values": "450"})
    ops = [(f"lambda_u={v:g}", _sweep_op(rfhnet, loaded, v)) for v in values]
    refs = [{"t_total": (T_TOTAL_REF[v], T_TOTAL_REL_TOL * T_TOTAL_REF[v])}
            for v in values]
    ops.append(("alpha=2.2 e_th=1e-5 lambda_u=450",
                _sweep_op(rfhnet, low_alpha, 450.0)))
    refs.append({"t_total": (T_TOTAL_ALPHA_22_REF,
                             T_TOTAL_REL_TOL * T_TOTAL_ALPHA_22_REF)})
    return Plan(ops, _reference_check(refs), "quad")


def _sim_field(rfhnet, root, seed, tiny):
    import numpy as np  # here, so that run.py stays standard-library only
    mcsim = rfhnet.mcsim
    # (lambda_b, replications): station-heavy first, then the baseline
    deployments = ((1000.0, 2 if tiny else 4), (100.0, 2 if tiny else 8))
    ops, groups, runs = [], [], []
    for index, (lambda_b, n_reps) in enumerate(deployments):
        params, _, sim, _ = rfhnet.config.load_config(
            str(root / BASELINE_CFG),
            {"network.lambda_b_per_km2": repr(lambda_b)})
        if tiny:
            sim = dataclasses.replace(sim, n_slots=120)
        rep_seeds = np.random.SeedSequence((seed, index)).generate_state(
            n_reps)
        if index == 0:
            rep_seeds[0] = SIM_FIRST_OP_SEED
        first = len(ops)
        for rep, rep_seed in enumerate(rep_seeds):
            cfg = dataclasses.replace(sim, seed=int(rep_seed),
                                      n_replications=1)
            ops.append((f"lambda_b={lambda_b:g} rep={rep}",
                        _estimate_op(mcsim, params, cfg)))
            runs.append((params, cfg))
        groups.append((range(first, len(ops)), SIM_P_TR_REF[lambda_b]))

    def check(outputs):
        verdicts = [out is not None for out in outputs]
        for members, ref in groups:
            p = [outputs[i]["p_tr"] for i in members if verdicts[i]]
            se = float(np.std(p, ddof=1) / math.sqrt(len(p))) \
                if len(p) > 1 else 0.0
            if not p or abs(float(np.mean(p)) - ref) > max(SIM_ABS_TOL,
                                                           3.0 * se):
                for i in members:
                    verdicts[i] = False
        return verdicts

    def user_slots():
        # estimate() with one replication draws its field from the first
        # stream spawned from the config seed; draw that field again
        total = 0
        for params, cfg in runs:
            stream = np.random.SeedSequence(cfg.seed).spawn(1)[0]
            field = mcsim.sample_field(params, cfg,
                                       np.random.default_rng(stream))
            total += len(field.user_xy) * cfg.n_slots
        return total

    return Plan(ops, check, "numpy", user_slots)


def _estimate_op(mcsim, params, cfg) -> Callable[[], Output]:
    def op():
        out = mcsim.estimate(params, cfg)
        return {"p_tr": out.p_tr_hat, "t_avg": out.t_avg_hat,
                "t_total": out.t_total_hat,
                "mean_users": out.mean_users_per_nonempty_cell,
                "events": out.n_events}
    return op
