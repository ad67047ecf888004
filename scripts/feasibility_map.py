#!/usr/bin/env python3
"""Map the direct quadratic-certificate region in the (eps, rho) plane.

For small condition numbers the completed-square certificate admits a
band of valid (eps, rho) pairs.  Each pair is decided at the worst
direction alpha_bar = 1 - 1/kappa, where it needs det M_alpha_bar >= 0,
with q = 1 - rho and s = 1 + theta:

    eps q^2 - [theta^2 + alpha_bar^2 eps (s^2 + eps)] q
        + alpha_bar^2 eps theta^2 >= 0.

As kappa grows no pair meets this any more: the band ends near
kappa = 2.914 (at kappa = 2.9 the best rho is about 0.0069), so it is
empty from kappa = 3 on.  From kappa = 4 on there is also a plainer
witness: alpha_bar (1 + theta) reaches 1 (it is only 0.845 at
kappa = 3), so the state (1 + theta, 1) gains energy under the
difference map.  The map is printed as ASCII rows (rho down, eps
across, '#' feasible).
"""

import argparse
import sys

import numpy as np

from stabcert.lyapunov import contraction_rate, find_feasible_region
from stabcert.optimizers import theta_of


def render(kappa: float, eps_points: int, rho_points: int) -> None:
    theta = theta_of(kappa)
    eps_lo = theta**2 if theta > 0.0 else 1e-9
    eps_grid = np.linspace(eps_lo, 4.0 * (1.0 + theta) ** 2, eps_points)
    rho_grid = np.linspace(1e-4, 0.5 / np.sqrt(kappa), rho_points)
    region = find_feasible_region(theta, eps_grid, rho_grid)
    valid = {(c.eps, c.rho) for c in region.feasible}

    print(f"kappa={kappa:g}  theta={theta:.4g}  feasible "
          f"{len(region.feasible)}/{len(region.certificates)}  "
          f"(ideal rate {contraction_rate(kappa).rho:.4g})")
    print(f"  eps in [{eps_grid[0]:.3g}, {eps_grid[-1]:.3g}], "
          f"rho in [{rho_grid[0]:.3g}, {rho_grid[-1]:.3g}]; rho grows downward")
    for rho in rho_grid:
        row = "".join(
            "#" if (float(eps), float(rho)) in valid else "." for eps in eps_grid
        )
        print(f"  {row}")
    if region.best is not None:
        b = region.best
        print(f"  best: eps={b.eps:.4g} rho={b.rho:.4g} margin={-b.worst_eig:.2e}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappas", default="1,1.5,2,2.5,3,4",
                    help="comma-separated condition numbers")
    ap.add_argument("--eps-points", type=int, default=48)
    ap.add_argument("--rho-points", type=int, default=12)
    args = ap.parse_args()
    for kappa in (float(k) for k in args.kappas.split(",")):
        render(kappa, args.eps_points, args.rho_points)
    return 0


if __name__ == "__main__":
    sys.exit(main())
