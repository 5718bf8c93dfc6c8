"""Delivery probability against station density, closed form vs simulation.

Runs the dual-path sweep in configs/delivery_vs_bs_density.cfg (24
replications per point, about 20 s of wall time), then prints the two
estimates side by side with the residual gap.  Point --config at the
high-threshold variant to reproduce the harder regime.
"""

import argparse
from collections import defaultdict
from pathlib import Path

from rfhnet.cli import main as rfhnet_main, read_sweep_csv

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config",
                    default=str(ROOT / "configs" / "delivery_vs_bs_density.cfg"))
    ap.add_argument("--output",
                    default=str(ROOT / "results" / "delivery_vs_bs_density.csv"))
    ap.add_argument("--seed", type=int, default=None,
                    help="override the simulation seed")
    args = ap.parse_args()

    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    argv = ["sweep", "--config", args.config, "--output", args.output]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    rc = rfhnet_main(argv)
    if rc:
        return rc

    _, records = read_sweep_csv(args.output)
    by_value = defaultdict(dict)
    for r in records:
        if r.metric == "p_tr" and r.result is not None:
            by_value[r.value][r.mode] = r

    print()
    print(f"{'lambda_b/km2':>12} {'analytic':>9} {'simulated':>10} "
          f"{'stderr':>8} {'gap':>8}")
    for value in sorted(by_value):
        ana = by_value[value].get("analytic")
        sim = by_value[value].get("simulate")
        if ana is None or sim is None:
            continue
        print(f"{value:12g} {ana.result:9.4f} {sim.result:10.4f} "
              f"{sim.stderr:8.4f} {sim.result - ana.result:+8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
