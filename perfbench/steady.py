"""Steadiness of the benchmark's end-to-end metrics.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--sets 1]
                                [--first-seed 1] [--seconds S]

Runs `run.py` on one workload --runs times per set, each run with its own
seed, and prints for every end-to-end metric of BENCHMARK.json the median,
the quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound.  With --sets 2 or more it also prints how far each later set's
median moved from the first set's, in the metric's worse direction, as a
share of the first median.  A spread of at most a third of the bound and
a move within the bound are marked ok.  Every run's result line is
appended to .bench_out/steady-<workload>.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py --seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    log = ROOT / ".bench_out" / f"steady-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    sets = []
    for s in range(args.sets):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            res = run_once(args.workload, seed, args.seconds)
            with log.open("a") as fh:
                fh.write(json.dumps({"seed": seed, **res}) + "\n")
            print(f"set {s + 1} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
            results.append(res)
        sets.append(results)

    print(f"\n{args.workload}: {args.runs} runs x {args.sets} set(s), "
          f"--seconds {args.seconds}")
    print(f"{'metric':<14}{'unit':<6}{'set':>4}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        first = None
        for s, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, q3, sp = spread(values)
            verdict = "ok" if sp <= bound / 3 else (
                "wide" if sp <= bound else "TOO WIDE")
            if name == "setup_s":
                verdict = "(not gated)"
            if first is None:
                first = median
            else:
                worse = (median - first if metric["better"] == "lower"
                         else first - median) / first
                verdict += (f"; moved {worse:+.3f} "
                            + ("ok" if worse <= bound else "TOO FAR"))
            print(f"{name:<14}{metric['unit']:<6}{s + 1:>4}{median:>12.5g}"
                  f"{q1:>12.5g}{q3:>12.5g}{sp:>9.4f}{bound:>7}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
