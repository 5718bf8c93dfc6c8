"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1]
                                [--setup-only] [--scale full|tiny]

Imports rfhnet from the checkout's `src/`, loads the workload's configs,
runs its ops in order and prints one JSON object on its last line:
set-up time, per-op times, outputs and reference verdicts, peak resident
memory, and with --trace 1 the per-layer counts.  run.py starts this
script; it is not meant to be run by hand except to debug a workload.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_rfhnet():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import rfhnet
    import rfhnet.cli  # noqa: F401  (not imported by the package itself)
    return rfhnet


def run_pass(workload: str, seed: int, scale: str = "full",
             trace: bool = False, setup_only: bool = False,
             t0: float = None, spans_path: Path = None) -> dict:
    """Run the workload's ops once and return the pass record.  `t0` is
    when set-up began (the process start, for a fresh process).

    An untraced pass is calibrated (calibrate.py): each op also gets its
    time in reference seconds, `ref_s`.  A traced pass is not, so that its
    spans hold no kernel runs."""
    t0 = time.perf_counter() if t0 is None else t0
    rfhnet = import_rfhnet()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install_layers(tracer, rfhnet)
    try:
        plan = workloads.build(workload, rfhnet, ROOT, seed, scale)
        setup_s = time.perf_counter() - t0
        if setup_only:
            return {"setup_s": setup_s}
        calib = None if trace else calibrate.Calibrator(plan.kernel)
        ops = run_ops(plan, calib)
    finally:
        if tracer is not None:
            tracer.uninstall()

    verdicts = plan.check([o["output"] for o in ops])
    for o, ok in zip(ops, verdicts):
        o["ok"] = bool(ok)
    record = {"setup_s": setup_s, "wall_s": sum(o["seconds"] for o in ops),
              "ops": ops,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "machine": machine()}
    if calib is not None:
        record["wall_ref_s"] = sum(o["ref_s"] for o in ops)
        record["kernel"] = {
            "name": plan.kernel, "samples": len(calib.samples),
            "median_s": statistics.median(s for _, s in calib.samples)}
    if plan.user_slots is not None:
        record["user_slots"] = plan.user_slots()
    if tracer is not None:
        record["layers"] = tracing.layer_values(tracer)
        record["spans"] = tracer.n_spans
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(spans_path)
            record["spans_file"] = os.path.relpath(spans_path, ROOT)
    return record


def run_ops(plan, calib=None) -> list:
    """Time each op; with a Calibrator, leave out the kernel runs that
    interrupted an op and add its time in reference seconds."""
    ops, windows = [], []
    if calib is not None:
        calib.start()
    try:
        for label, op in plan.ops:
            start = time.perf_counter()
            try:
                output, error = op(), ""
            except Exception as exc:  # a failed op is a measured outcome
                output, error = None, f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            windows.append((start, end))
            ops.append({"label": label, "seconds": end - start,
                        "output": output, "error": error})
    finally:
        if calib is not None:
            calib.stop()
    if calib is not None:
        for o, (start, end) in zip(ops, windows):
            o["seconds"] -= calib.spent_in(start, end)
            o["ref_s"] = calib.ref_seconds(o["seconds"], start, end)
    return ops


def machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{k: os.environ.get(k, "unset") for k in BLAS_ENV},
            "RFH_THREADS": os.environ.get("RFH_THREADS", "unset")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", type=Path, default=None,
                        help="where a traced pass writes its spans")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.scale, bool(args.trace),
                      args.setup_only, _T0, args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
