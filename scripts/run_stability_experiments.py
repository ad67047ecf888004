#!/usr/bin/env python3
"""Run both coupled-run stability experiments at the report settings.

Produces the gap-versus-n slope table and the gap-versus-T growth curve
on the standard synthetic pool (600 records, 64 features, unit class
separation, master seed 23), writing one CSV per experiment plus a
combined JSON summary.  Both experiments together take about half a
second at the full 25 trials; use --trials to trim while prototyping.
"""

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from stabcert.data import effective_sector, synthetic_dataset
from stabcert.simulate import ExperimentConfig, stability_vs_n, stability_vs_t


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    base = synthetic_dataset(600, 64, separation=1.0, seed=args.seed)
    config = ExperimentConfig(trials=args.trials, master_seed=args.seed)
    sector = effective_sector(base, config.lambda_reg)
    print(f"pool n={base.n} d={base.dim}, sector [{sector.gamma:g}, {sector.beta:g}]")

    t0 = time.time()
    vsn = stability_vs_n(base, config)
    print(f"\nvs-n ({time.time() - t0:.1f}s)")
    print(f"{'n':>6}{'mean ParamDiff':>16}{'max ParamDiff':>16}")
    for i, n in enumerate(vsn.sizes):
        print(f"{n:>6}{vsn.mean_param_diff[i]:>16.6g}"
              f"{vsn.trial_param_diff[i].max():>16.6g}")
    print(f"log-log slope {vsn.fit.slope:.4f} (r2={vsn.fit.r2:.4f}); "
          f"a 1/sqrt(n) law would give -0.5")
    with open(args.outdir / "vs_n.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "mean_param_diff", "max_param_diff", "mean_loss_gap"])
        for i, n in enumerate(vsn.sizes):
            w.writerow([n, f"{vsn.mean_param_diff[i]:.10g}",
                        f"{vsn.trial_param_diff[i].max():.10g}",
                        f"{vsn.trial_loss_gap[i].mean():.10g}"])

    t0 = time.time()
    vst = stability_vs_t(base, config)
    print(f"\nvs-t at n={vst.size} ({time.time() - t0:.1f}s)")
    print(f"{'T':>6}{'mean ParamDiff':>16}")
    for i, c in enumerate(vst.checkpoints):
        print(f"{c:>6}{vst.mean_curve[i]:>16.6g}")
    print(f"envelope rho {vst.rho:.6g}, half-life T={vst.t_half:.0f}, "
          f"fit region {vst.fit_region}")
    print(f"log-log slope {vst.loglog.slope:.4f} (sqrt growth would give 0.5), "
          f"saturating-envelope r2 {vst.sat_r2:.4f}")
    with open(args.outdir / "vs_t.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["T", "mean_param_diff"])
        for i, c in enumerate(vst.checkpoints):
            w.writerow([c, f"{vst.mean_curve[i]:.10g}"])

    summary = {
        "seed": args.seed,
        "trials": args.trials,
        "vs_n": {
            "sizes": list(vsn.sizes),
            "mean_param_diff": [float(v) for v in vsn.mean_param_diff],
            "slope": vsn.fit.slope,
            "r2": vsn.fit.r2,
        },
        "vs_t": {
            "size": vst.size,
            "checkpoints": list(vst.checkpoints),
            "mean_param_diff": [float(v) for v in vst.mean_curve],
            "rho": vst.rho,
            "t_half": vst.t_half,
            "loglog_slope": vst.loglog.slope,
            "sat_coeff": vst.sat_coeff,
            "sat_r2": vst.sat_r2,
        },
    }
    with open(args.outdir / "experiments.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"\nwrote {args.outdir}/vs_n.csv, vs_t.csv, experiments.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
