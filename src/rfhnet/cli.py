"""Command-line front end: single-point evaluation, parameter sweeps with
CSV emission, and the distance-profile coefficient fit.

Subcommands: analytic, simulate, sweep, fit.  All take --config; targeted
overrides (--lambda-b, --lambda-u, --e-th, --seed) beat file values.  Sweep
CSVs open with a `# cfg key=value` preamble capturing the fully resolved
configuration, then a fixed header row; per-row wall times land in trailing
`# wall` comment lines so re-running an identical config yields a
byte-identical CSV body.  Exit codes: 0 success, 1 any point failed,
2 configuration error.  RFH_THREADS caps sweep-point parallelism.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import analytic
from .config import (METRICS, PER_KM2_KEYS, SWEEPABLE, ConfigError,
                     SweepSpec, load_config, resolved_lines, to_field)
from .core import NetworkParams, NumericPolicy, SimConfig

_DEFAULT_POINT_METRICS = ("p_tr", "t_avg", "t_total", "mean_users")


@dataclass
class SweepRecord:
    value: float                 # swept value in config units
    metric: str
    mode: str                    # analytic | simulate
    result: Optional[float]      # None on error
    stderr: Optional[float]      # None for analytic rows
    error: str = ""
    wall_time_ms: float = 0.0


def _fmt(x: Optional[float]) -> str:
    return "" if x is None else f"{x:.17e}"


def _apply_value(params: NetworkParams, parameter: str,
                 value: float) -> NetworkParams:
    if parameter not in SWEEPABLE:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    return dataclasses.replace(params, **{parameter: to_field(parameter,
                                                              value)})


def _delivery(params, policy):
    br = analytic.delivery_prob(params, policy)
    return {"p_tr": br.p_tr, "mean_users": br.expected_users_typical_cell}


def _throughput(params, policy):
    rep = analytic.total_throughput(params, policy)
    return {"t_avg": rep.t_avg, "t_total": rep.t_total}


def _sustainable(params, policy):
    return {"sustainable_ratio": analytic.sustainable_ratio(
        params.lambda_b, params, policy)}


# analytic stages: the metrics one call of each yields
_ANALYTIC_STAGES = ((("p_tr", "mean_users"), _delivery),
                    (("t_avg", "t_total"), _throughput),
                    (("sustainable_ratio",), _sustainable))

# simulated metric -> (estimate, standard error) attributes of SimOutcome
_SIM_ATTRS = {
    "p_tr": ("p_tr_hat", "p_tr_stderr"),
    "t_avg": ("t_avg_hat", "t_avg_stderr"),
    "t_total": ("t_total_hat", "t_total_stderr"),
    "mean_users": ("mean_users_per_nonempty_cell", "mean_users_stderr"),
}


def _point_seed(base_seed: int, index: int) -> int:
    # stable per-point stream regardless of execution order
    return int(np.random.SeedSequence((base_seed, index)).generate_state(1)[0])


def _stage_records(value: float, mode: str, wanted: Tuple[str, ...],
                   compute) -> List[SweepRecord]:
    """One row per wanted metric from a single compute() call, which
    returns {metric: (result, stderr)}.  Its wall time is split across the
    rows, and its error marks every one of them."""
    t0 = time.perf_counter()
    try:
        got, error = compute(), ""
    except Exception as exc:
        got, error = {}, f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1e3 / len(wanted)
    return [SweepRecord(value, m, mode, *got.get(m, (None, None)),
                        error=error, wall_time_ms=ms) for m in wanted]


def _run_point(task) -> List[SweepRecord]:
    (index, value, parameter, params, policy, sim_cfg, metrics, mode) = task
    try:
        point_params = _apply_value(params, parameter, value)
    except Exception as exc:      # bad swept value: every row errors
        return [SweepRecord(value, m, md, None, None,
                            f"{type(exc).__name__}: {exc}")
                for m in metrics for md in _modes_for(m, mode)]

    records: List[SweepRecord] = []
    for stage_metrics, stage in _ANALYTIC_STAGES:
        wanted = tuple(m for m in stage_metrics if m in metrics
                       and "analytic" in _modes_for(m, mode))
        if wanted:
            records += _stage_records(
                value, "analytic", wanted,
                lambda: {m: (v, None) for m, v
                         in stage(point_params, policy).items()})

    sim_wanted = tuple(m for m in metrics if "simulate" in _modes_for(m, mode))
    if sim_wanted:
        from .mcsim import estimate   # see cmd_simulate
        cfg = dataclasses.replace(sim_cfg,
                                  seed=_point_seed(sim_cfg.seed, index))

        def simulated():
            outcome = estimate(point_params, cfg)
            return {m: (getattr(outcome, mean), getattr(outcome, err))
                    for m, (mean, err) in _SIM_ATTRS.items()}
        records += _stage_records(value, "simulate", sim_wanted, simulated)
    return records


def _modes_for(metric: str, mode: str) -> Tuple[str, ...]:
    if metric == "sustainable_ratio":
        return ("analytic",)
    if mode == "both":
        return ("analytic", "simulate")
    return (mode,)


def _worker_count(n_points: int) -> int:
    raw = os.environ.get("RFH_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    return max(1, min(n, n_points)) if raw else 1


def run_sweep(params: NetworkParams, policy: NumericPolicy,
              sim_cfg: SimConfig, sweep: SweepSpec) -> List[SweepRecord]:
    """Evaluate every (value, metric, mode) cell; failures become error
    rows rather than aborting the sweep.  Output order is (value, metric,
    mode) regardless of execution order or parallelism."""
    tasks = [(i, v, sweep.parameter, params, policy, sim_cfg,
              sweep.metrics, sweep.mode) for i, v in enumerate(sweep.values)]
    workers = _worker_count(len(tasks))
    if workers > 1:
        # imported here: the process pool machinery is a start-up cost that
        # a serial sweep does not need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_point, tasks))
    else:
        chunks = [_run_point(t) for t in tasks]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.value, r.metric, r.mode))
    return records


SWEEP_HEADER = ["value", "metric", "mode", "result", "stderr", "error"]


def write_sweep_csv(fh, records: List[SweepRecord], cfg_lines: List[str]):
    fh.write("# rfhnet sweep\n")
    for line in cfg_lines:
        fh.write(f"# cfg {line}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for r in records:
        writer.writerow([_fmt(r.value), r.metric, r.mode, _fmt(r.result),
                         _fmt(r.stderr), r.error])
    for i, r in enumerate(records):
        fh.write(f"# wall {i} {r.wall_time_ms:.3f}\n")


def read_sweep_csv(path: str):
    """Recover (cfg dict, records) from an emitted sweep CSV."""
    cfg: Dict[str, str] = {}
    walls: Dict[int, float] = {}
    body: List[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# cfg "):
                key, _, val = line[len("# cfg "):].partition("=")
                cfg[key] = val
            elif line.startswith("# wall "):
                _, idx, ms = line[2:].split()
                walls[int(idx)] = float(ms)
            elif line.startswith("#") or not line:
                continue
            else:
                body.append(line)
    records: List[SweepRecord] = []
    rows = list(csv.reader(body))
    if not rows or rows[0] != SWEEP_HEADER:
        raise ValueError(f"{path}: not a sweep CSV (bad header)")
    for i, row in enumerate(rows[1:]):
        value, metric, mode, result, stderr, error = row
        records.append(SweepRecord(
            float(value), metric, mode,
            float(result) if result else None,
            float(stderr) if stderr else None,
            error, walls.get(i, 0.0)))
    return cfg, records


def _overrides_from(args) -> Dict[str, str]:
    out = {f"network.{PER_KM2_KEYS.get(name, name)}":
           repr(getattr(args, name))
           for name in SWEEPABLE if getattr(args, name) is not None}
    if getattr(args, "seed", None) is not None:
        out["sim.seed"] = str(args.seed)
    return out


def cmd_analytic(args) -> int:
    params, policy, _, _ = load_config(args.config, _overrides_from(args))
    metrics = tuple(args.metrics.split(",")) if args.metrics \
        else _DEFAULT_POINT_METRICS
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        print(f"error: unknown metric {unknown[0]!r}", file=sys.stderr)
        return 2
    vals: Dict[str, float] = {}
    for stage_metrics, stage in _ANALYTIC_STAGES:
        if set(stage_metrics) & set(metrics):
            vals.update(stage(params, policy))
    for m in metrics:
        print(f"{m}={vals[m]:.17e}")
    return 0


def cmd_simulate(args) -> int:
    # imported where it runs, so that the closed-form commands do not load
    # the simulator and scipy.spatial
    from .mcsim import estimate
    params, _, sim_cfg, _ = load_config(args.config, _overrides_from(args))
    outcome = estimate(params, sim_cfg)
    for m, (mean, err) in _SIM_ATTRS.items():
        print(f"{m}={getattr(outcome, mean):.17e}")
        print(f"{m}_stderr={getattr(outcome, err):.17e}")
    print(f"n_events={outcome.n_events}")
    print(f"n_replications={outcome.n_replications}")
    return 0


def cmd_sweep(args) -> int:
    params, policy, sim_cfg, sweep = load_config(args.config,
                                                 _overrides_from(args))
    if sweep is None:
        raise ConfigError("sweep section required for the sweep command",
                          args.config)
    records = run_sweep(params, policy, sim_cfg, sweep)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(fh, records,
                        resolved_lines(params, policy, sim_cfg, sweep))
    failures = [r for r in records if r.error]
    for r in failures:
        print(f"error at {sweep.parameter}={r.value} {r.metric}/{r.mode}: "
              f"{r.error}", file=sys.stderr)
    print(f"wrote {len(records)} rows to {args.output}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return 1 if failures else 0


def cmd_fit(args) -> int:
    # imported here so that scipy.optimize, which only the fit needs, does
    # not slow the start-up of every other command (by about a fifth)
    from .fit import fit_conditional_distance_pdf, profile_table
    policy = (load_config(args.config, {})[1] if args.config
              else NumericPolicy())
    fit = fit_conditional_distance_pdf(policy)
    c1, c2, c3, c4 = fit.coefficients
    grid, target, fitted = profile_table(fit.coefficients)
    gap = float(np.max(np.abs(fitted - target)))
    peak = float(np.max(target))
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write("# rfhnet fit\n")
        fh.write(f"# coeff c1={c1:.17e} c2={c2:.17e} c3={c3:.17e} "
                 f"c4={c4:.17e}\n")
        fh.write("# reference " + " ".join(
            f"c{i}={c!r}" for i, c in enumerate(analytic.UNIT_CELL_COEFFS, 1))
            + "\n")
        fh.write(f"# residual {fit.residual:.17e}\n")
        fh.write(f"# max_gap {gap:.17e} peak {peak:.17e}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["r_norm", "target_pdf", "fitted_pdf"])
        for r, tv, fv in zip(grid, target, fitted):
            writer.writerow([f"{r:.17e}", f"{tv:.17e}", f"{fv:.17e}"])
    print(f"coefficients: c1={c1:.6g} c2={c2:.6g} c3={c3:.6g} c4={c4:.6g}")
    print(f"max pointwise gap {gap:.4e} ({gap / peak:.2%} of peak); "
          f"wrote {args.output}")
    if gap > args.max_gap * peak:
        print(f"error: gap exceeds --max-gap {args.max_gap:.3g} of peak",
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfhnet",
        description="Harvest-then-receive cellular network experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--lambda-b", type=float, default=None,
                       help="override station density [per km2]")
        p.add_argument("--lambda-u", type=float, default=None,
                       help="override user density [per km2]")
        p.add_argument("--e-th", type=float, default=None,
                       help="override activation energy [J]")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override simulator seed")

    p = sub.add_parser("analytic", help="closed-form metrics at one point")
    common(p, seed=False)
    p.add_argument("--metrics", default="",
                   help="comma list (default p_tr,t_avg,t_total,mean_users)")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="slot-level simulation at one point")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the configured sweep, emit CSV")
    common(p)
    p.add_argument("--output", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="fit the unit-cell distance profile")
    p.add_argument("--config", default="", help="config file (policy only)")
    p.add_argument("--output", required=True, help="CSV output path")
    p.add_argument("--max-gap", type=float, default=0.05,
                   help="fail if max error exceeds this fraction of peak")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
