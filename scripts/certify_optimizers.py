#!/usr/bin/env python3
"""Sweep condition numbers and tabulate LMI certificate outcomes.

For each kappa the script decides the certificate LMI for the
sector-tuned Nesterov method and SGD at eta = 1/beta (both with
beta = 1, gamma = 1/kappa) and prints the verdict, the margin t* of the
barrier solve (positive exactly when a certificate exists) and, for
negative verdicts, the dual bound of the witness.  SGD certifies at
every kappa.  With all three sector multipliers (strong monotonicity,
co-coercivity and the sector product form) the tuned Nesterov method
is Feasible through kappa = 10 (t* = +3.8e-3) and Infeasible, with a
verified dual witness, from kappa = 12 on (t* = -6.9e-4 at 12,
-7.2e-3 at 16, -1.6e-2 at 25): the one-step sector LMI ends near
kappa = 11.66, even though the method itself converges on quadratics
at every kappa.  Strong monotonicity and co-coercivity alone certified
only up to about kappa = 5.
"""

import argparse
import sys
import time

from stabcert.optimizers import NagSmoothQuadratic, SectorBounds, Sgd, lure_of
from stabcert.sdp import SolverOptions, solve_feasibility, verify_infeasibility

DEFAULT_KAPPAS = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 25.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappas", default=",".join(str(k) for k in DEFAULT_KAPPAS),
                    help="comma-separated condition numbers")
    ap.add_argument("--seed", type=int, default=0, help="seed of the sampling check")
    args = ap.parse_args()
    kappas = [float(k) for k in args.kappas.split(",")]
    opts = SolverOptions(seed=args.seed)

    print(f"{'kappa':>7}  {'optimizer':<8}  {'status':<13}{'margin t*':>12}{'dual bound':>12}"
          f"{'time':>8}")
    for kappa in kappas:
        bounds = SectorBounds(gamma=1.0 / kappa, beta=1.0)
        for name, spec in (
            ("nag-sq", NagSmoothQuadratic(bounds=bounds)),
            ("sgd", Sgd(eta=1.0)),
        ):
            t0 = time.time()
            system = lure_of(spec, bounds)
            res = solve_feasibility(system, bounds, name, options=opts)
            bound = "-"
            if res.witness is not None:
                bound = f"{verify_infeasibility(res.witness, system, bounds, opts).bound:.3e}"
            print(f"{kappa:>7g}  {name:<8}  {res.status:<13}{-res.best_violation:>12.3e}"
                  f"{bound:>12}{time.time() - t0:>7.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
