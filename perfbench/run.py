"""rfhnet benchmark: runs one workload (or all) and reports its metrics.

    python3 perfbench/run.py --workload delivery-curves|throughput-sweep|
                                        sim-field|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each pass runs the workload's ops once in a fresh process (worker.py), so
every pass starts with cold caches, as a new `rfhnet` invocation does.  A
run makes one pass, then more while another pass still fits in --seconds
(counted in reference seconds, see below),
and takes the set-up time of at least SETUP_SAMPLES fresh processes.
Every metric is the median over the run's passes (set-up: over its
samples).  Passes are serial, with RFH_THREADS unset and one BLAS thread.
Op times are reported in reference seconds (calibrate.py): each op's time
scaled by how fast a fixed kernel ran around it, which takes out most of
the drift of a shared host's CPU speed.  Set-up time is in plain seconds.

With --trace 1 the run makes one untraced pass and one traced pass and
reports the per-layer metrics of the traced one; trace.overhead_s is the
traced wall_s minus the untraced wall_s.  Spans are written to
.bench_out/ in the checkout.  worker.py imports rfhnet from src/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
pass ran, whatever the ops' verdicts; it is 2, with no JSON line, when a
pass could not run (for instance when src/ is missing).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0   # stay inside the 180 s a run may take

# end-to-end metric -> (unit, description).  Op times are in reference
# seconds (ref_s): seconds at the nominal speed of a fixed calibration
# kernel timed next to each op (calibrate.py), which takes out the drift of
# the shared host's CPU speed.
END_TO_END = {
    "setup_s": ("s", "import rfhnet and load configs, fresh process"),
    "wall_s": ("ref_s", "all ops of one pass"),
    "first_op_s": ("ref_s", "first op, cold caches"),
    "op_s_p50": ("ref_s", "median op"),
    "ops_per_s": ("1/ref_s", "successful ops per reference second of "
                             "wall_s"),
    "peak_rss_mb": ("MB", "peak resident memory of the pass process"),
}
# printed, not part of the JSON metrics: zero on some workloads, or the
# raw timings the reference seconds come from
EXTRA = {
    "fail_ratio": ("-", "failed ops / attempted ops"),
    "user_slots_per_s": ("1/ref_s", "users x slots simulated per "
                                    "reference second (sim-field)"),
    "wall_raw_s": ("s", "wall_s as timed, before calibration"),
    "kernel_s": ("s", "calibration kernel, median over the run"),
}


class PassError(RuntimeError):
    pass


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """The caller's environment with RFH_THREADS unset (serial sweeps) and
    one BLAS thread.  With the default, OpenBLAS's idle workers spin on the
    box's other core, which made the simulator's ops both slower and far
    noisier on the 2-core VM of README.md."""
    env = {k: v for k, v in os.environ.items() if k != "RFH_THREADS"}
    env.update({k: "1" for k in BLAS_THREADS})
    return env


def one_pass(workload: str, seed: int, deadline: float, *, trace=False,
             setup_only=False, scale="full", spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--scale", scale]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("out of time before the pass started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError(f"pass exceeded the run limit of {RUN_LIMIT_S} s") \
            from None
    if proc.returncode != 0:
        raise PassError(f"pass exited {proc.returncode}:\n"
                        f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_metrics(rec: dict) -> dict:
    """The metrics one pass measures on its own."""
    ops = rec["ops"]
    n_ok = sum(o["ok"] for o in ops)
    out = {"wall_s": rec["wall_ref_s"], "first_op_s": ops[0]["ref_s"],
           "ops_per_s": n_ok / rec["wall_ref_s"],
           "peak_rss_mb": rec["peak_rss_mb"], "wall_raw_s": rec["wall_s"],
           "kernel_s": rec["kernel"]["median_s"]}
    if "user_slots" in rec:
        out["user_slots_per_s"] = rec["user_slots"] / rec["wall_ref_s"]
    return out


def measure(workload: str, seed: int, seconds: float, scale: str = "full"):
    """Untraced run: passes until --seconds is used, set-up samples."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes, setups = [], []
    ref_used = 0.0
    while True:
        begun = time.monotonic()
        rec = one_pass(workload, seed * 1000 + len(passes), deadline,
                       scale=scale)
        passes.append(rec)
        setups.append(rec["setup_s"])
        # whether another pass fits is judged in reference seconds, so
        # that the number of passes does not follow the host's speed
        ref_used += rec["wall_ref_s"]
        now = time.monotonic()
        if (ref_used * (len(passes) + 1) / len(passes) > seconds
                or now + (now - begun) > deadline):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(one_pass(workload, seed, deadline, setup_only=True,
                               scale=scale)["setup_s"])
    per_pass = [pass_metrics(r) for r in passes]
    values = {m: statistics.median(p[m] for p in per_pass)
              for m in per_pass[0]}
    values["op_s_p50"] = statistics.median(
        o["ref_s"] for r in passes for o in r["ops"])
    values["setup_s"] = statistics.median(setups)
    attempted = sum(len(r["ops"]) for r in passes)
    failed = sum(not o["ok"] for r in passes for o in r["ops"])
    values["fail_ratio"] = failed / attempted
    return passes, values, attempted, failed


def traced(workload: str, seed: int, scale: str = "full"):
    """Traced run: one untraced and one traced pass of the same inputs."""
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = one_pass(workload, seed * 1000, deadline, scale=scale)
    spans = OUT_DIR / f"{workload}-seed{seed}-spans.npz"
    rec = one_pass(workload, seed * 1000, deadline, trace=True, scale=scale,
                   spans=spans)
    values = dict(rec["layers"])
    values["trace.spans"] = rec["spans"]
    values["trace.overhead_s"] = rec["wall_s"] - plain["wall_s"]
    attempted = len(rec["ops"])
    failed = sum(not o["ok"] for o in rec["ops"])
    return [plain, rec], values, attempted, failed


PER_LAYER = {**LAYER_METRICS, "trace.spans": "count",
             "trace.overhead_s": "s"}
# The JSON carries the counts and the overhead; self_s is printed only,
# because it reads exactly 0 on every run of a workload that never calls
# the layer, and a time that never changes is refused as not measured.
PER_LAYER_JSON = {k: u for k, u in PER_LAYER.items()
                  if u == "count" or k == "trace.overhead_s"}
MOVES = {layer: moves for layer, _, moves in LAYERS}


def report(workload: str, seed: int, trace: bool, passes, values,
           attempted: int, failed: int) -> dict:
    """Print the human-readable tables; return the result object."""
    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"passes={len(passes)}")
    print("machine: " + " ".join(f"{k}={v}"
                                 for k, v in passes[0]["machine"].items()))
    for o in passes[-1]["ops"]:
        verdict = "ok" if o["ok"] else "FAIL " + (
            o["error"].splitlines()[0] if o["error"] else "off reference")
        shown = {k: v for k, v in (o["output"] or {}).items()
                 if k in ("p_tr", "mean_users", "t_total")}
        ref = f"{o['ref_s']:9.4f} ref_s" if "ref_s" in o else ""
        print(f"  op {o['label']:<44} {o['seconds']:9.4f} s {ref}  {verdict}  "
              + " ".join(f"{k}={v:.6g}" for k, v in shown.items()))
    if trace:
        units = PER_LAYER
        print(f"  wall_s untraced {passes[0]['wall_s']:.4f} s, traced "
              f"{passes[1]['wall_s']:.4f} s; spans in "
              f"{passes[1]['spans_file']}")
        notes = {name: MOVES.get(name.rsplit(".", 1)[0], "")
                 for name in units}
        print(f"  {'per-layer metric':<46} {'value':>14} {'unit':<6}"
              "should move")
    else:
        table = {**END_TO_END, **EXTRA}
        units = {k: unit for k, (unit, _) in table.items()}
        notes = {k: meaning for k, (_, meaning) in table.items()}
        notes["op_s_p50"] += f" (n={attempted} ops)"
        notes["fail_ratio"] += f" ({failed}/{attempted})"
        print(f"  {'end-to-end metric':<46} {'value':>14} {'unit':<6}")
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<46} {values[name]:>14.6g} {unit:<6}"
                  f"{notes[name]}")
    keep = PER_LAYER_JSON if trace else END_TO_END
    correct = all(o["ok"] or o["output"] is None
                  for r in passes for o in r["ops"])
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in keep}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="rfhnet benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: few-second workloads for the harness "
                             "tests")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            if args.trace:
                out = traced(name, args.seed, args.scale)
            else:
                out = measure(name, args.seed, args.seconds, args.scale)
            results.append(report(name, args.seed, bool(args.trace), *out))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[0]
    else:
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {f"{n}.{k}": v for n, r in zip(names, results)
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
