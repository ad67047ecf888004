"""Command-line front end.

Subcommands: certify (LMI feasibility for an optimizer/sector), lyapunov
(direct certificate region for the sector-tuned method, printed as a
'#'/'.' map), bound (closed form stability bounds), simulate vs-n / vs-t
(coupled-run experiments with CSV/JSON reports).  One table, _OPTIMIZERS,
gives each --optimizer its constructor and the flags it reads.

Exit codes: 0 success, 2 certification negative (Infeasible,
Inconclusive, or an empty region), 64 usage errors, 66 unreadable or
malformed input data, 73 an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .data import NEIGHBOR_MODES, effective_sector, gradient_bound, ingest_csv, synthetic_dataset
from .iqc import certificate_to_json
from .lyapunov import (
    build_p_eps,
    cjy_bound,
    cjy_limit,
    envelope_rate,
    find_feasible_region,
    nag_stability_bound,
    nag_stability_limit,
    sgd_stability_bound,
    verify_contraction,
)
from .optimizers import (
    HeavyBall, NagSmoothQuadratic, NagStandard, SectorBounds, Sgd, lure_of, theta_of, tuned_step)
from .sdp import CERTIFIED, FEASIBLE, SolverOptions, certify_rate, solve_feasibility
from .simulate import ExperimentConfig, stability_vs_n, stability_vs_t

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73
# simulate's defaults: the coupled-run protocol that ExperimentConfig holds.
_PROTOCOL = ExperimentConfig()


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message: str) -> None:  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of every main call, built at the first."""
    parser = _Parser(prog="stabcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"stabcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", parents=[], help="solve the certificate LMI")
    cert.add_argument("--optimizer", choices=("sgd", "heavyball", "nag-sq"), required=True)
    cert.add_argument("--gamma", type=float, required=True)
    cert.add_argument("--beta", type=float, required=True)
    cert.add_argument("--eta", type=float, help="step size (sgd/heavyball; default 1/beta)")
    cert.add_argument("--mu", type=float, help="momentum (heavyball; default 0)")
    cert.add_argument("--rate", action="store_true", help="search for the largest certifiable rho")
    cert.add_argument("--seed", type=int, default=SolverOptions.seed,
                      help="seed of the sampling check")
    cert.add_argument("--out", help="write the certificate JSON here")
    cert.set_defaults(run=_cmd_certify)

    lyap = sub.add_parser("lyapunov", help="direct certificate region for the tuned method")
    lyap.add_argument("--kappa", type=float, required=True)
    lyap.add_argument("--eps", type=float, help="check one (eps, rho) pair instead of sweeping")
    lyap.add_argument("--rho", type=float, help="check one (eps, rho) pair instead of sweeping")
    lyap.add_argument("--eps-points", type=int, default=24)
    lyap.add_argument("--rho-points", type=int, default=16)
    lyap.set_defaults(run=_cmd_lyapunov)

    bound = sub.add_parser("bound", help="closed-form stability bounds")
    bound.add_argument("--lipschitz", "-G", dest="g", type=float, required=True)
    bound.add_argument("--gamma", type=float, required=True)
    bound.add_argument("--beta", type=float, required=True)
    bound.add_argument("--samples", "-n", dest="n", type=int, required=True)
    bound.add_argument("--horizon", "-T", dest="t", type=int, required=True)
    bound.add_argument("--rho", type=float, help="override the contraction rate")
    bound.set_defaults(run=_cmd_bound)

    sim = sub.add_parser("simulate", help="coupled-run stability experiments")
    sim.add_argument("mode", choices=("vs-n", "vs-t"))
    sim.add_argument("--data", help="CSV dataset (header row, label last)")
    sim.add_argument("--n-base", type=int, default=600, help="synthetic pool size")
    sim.add_argument("--dim", type=int, default=64)
    sim.add_argument("--separation", type=float, default=1.0)
    sim.add_argument("--optimizer", choices=("nag", "sgd"), default="nag")
    sim.add_argument("--eta", type=float, help=f"step size (default {_PROTOCOL.optimizer.eta})")
    sim.add_argument("--mu", type=float, help=f"momentum (nag; default {_PROTOCOL.optimizer.mu})")
    sim.add_argument("--lambda-reg", type=float, default=_PROTOCOL.lambda_reg)
    sim.add_argument("--horizon", type=int, default=_PROTOCOL.horizon)
    sim.add_argument("--trials", type=int, default=_PROTOCOL.trials)
    sim.add_argument("--sizes", default=",".join(map(str, _PROTOCOL.subset_sizes)),
                     help="comma-separated subset sizes")
    sim.add_argument("--checkpoints", default=",".join(map(str, _PROTOCOL.checkpoints)))
    sim.add_argument("--neighbor", choices=NEIGHBOR_MODES, default=_PROTOCOL.neighbor_mode)
    sim.add_argument("--probes", type=int, default=_PROTOCOL.probes)
    sim.add_argument("--seed", type=int, default=_PROTOCOL.master_seed)
    sim.add_argument("--out", help="write the per-point CSV here")
    sim.add_argument("--json", dest="json_out", help="write the full report JSON here")
    sim.set_defaults(run=_cmd_simulate)
    return parser


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


# Each --optimizer name: its constructor and the keywords it takes.
_OPTIMIZERS = {
    "sgd": (Sgd, ("eta",)),
    "heavyball": (HeavyBall, ("eta", "mu")),
    "nag": (NagStandard, ("eta", "mu")),
    "nag-sq": (NagSmoothQuadratic, ("bounds",)),
}


def _spec(args, **defaults):
    """args.optimizer's spec: given flags override defaults; a flag it does not take raises."""
    make, takes = _OPTIMIZERS[args.optimizer]
    for flag in ("eta", "mu"):
        if getattr(args, flag) is not None:
            if flag not in takes:
                raise ValueError(f"--{flag} does not apply to {args.optimizer}")
            defaults[flag] = getattr(args, flag)
    return make(**{name: defaults[name] for name in takes})


def _cmd_certify(args) -> int:
    bounds = SectorBounds(gamma=args.gamma, beta=args.beta)
    # The default step is formed only where no --eta replaces it.
    eta = tuned_step(bounds) if args.eta is None else args.eta
    system = lure_of(_spec(args, bounds=bounds, eta=eta, mu=0.0), bounds)
    solve = certify_rate if args.rate else solve_feasibility
    result = solve(system, bounds, args.optimizer, options=SolverOptions(seed=args.seed))
    print(f"optimizer      {args.optimizer}")
    print(f"sector         [{bounds.gamma:g}, {bounds.beta:g}]  (kappa={bounds.kappa:g})")
    print(f"status         {result.status}")
    if args.rate:
        certified = result.status == CERTIFIED
        print(f"rho_star       {result.rho_star:.6g}" if certified else "rho_star       none")
        if result.reference is None:
            print("reference      none")
        else:
            print(f"reference      {result.reference:.6g}  (one-step, exact)")
        print(f"probes         {len(result.tested)}")
        if result.bracket_hi is not None:
            print(f"bracket        [{result.rho_star:.6g}, {result.bracket_hi:.6g}]")
    else:
        print(f"newton steps   {result.traces[0].iterations}")
        if result.traces[0].stop != "centered":
            print(f"stopped        {result.traces[0].stop}")
        print(f"margin t*      {-result.best_violation:.3e}")
        if result.witness_check is not None:
            print(f"dual bound     {result.witness_check.bound:.3e}")
            print(f"witness        {'verified' if result.witness_check else 'not verified'}")
        if result.certificate is not None:
            cert = result.certificate
            print(f"lmi max eig    {cert.lmi_max_eig:.3e}")
            print(f"p min eig      {cert.p_min_eig:.3e}")
            print(f"lambda         {cert.lam:.3e}")
            print(f"sampled slack  {result.sampled['max_violation']:.3e}")
    # Both result types hold a certificate only when Feasible or Certified.
    if args.out and result.certificate is not None:
        _write(args.out, certificate_to_json(result.certificate) + "\n")
    return EXIT_OK if result.status in (FEASIBLE, CERTIFIED) else EXIT_NEGATIVE


def _print_p_eps(theta: float, eps: float) -> None:
    p = build_p_eps(theta, eps)
    print(f"P_eps          [{p[0, 0]:.6g}, {p[0, 1]:.6g}; {p[1, 0]:.6g}, {p[1, 1]:.6g}]")


def _cmd_lyapunov(args) -> int:
    if (args.eps is None) != (args.rho is None):
        print("give both --eps and --rho, or neither", file=sys.stderr)
        return EXIT_USAGE
    theta = theta_of(args.kappa)
    # Everything that can reject the input runs before the first print.
    if args.eps is None:
        for flag, count in (("--eps-points", args.eps_points), ("--rho-points", args.rho_points)):
            if count < 1:
                raise ValueError(f"{flag} must be >= 1, got {count}: the eps and rho grids "
                                 "must be non-empty")
        eps_lo = theta**2 if theta > 0.0 else 1e-9
        eps_grid = np.linspace(eps_lo, 4.0 * (1.0 + theta) ** 2, args.eps_points)
        rho_grid = np.linspace(1e-4, 0.5 / np.sqrt(args.kappa), args.rho_points)
        region = find_feasible_region(theta, eps_grid, rho_grid)
    else:
        cert = verify_contraction(theta, args.eps, args.rho)
    unit = SectorBounds(1.0, args.kappa)
    rho = envelope_rate(NagSmoothQuadratic(unit), unit)
    print(f"kappa          {args.kappa:g}  (theta={theta:.6g})")
    print(f"ideal rate     rho={rho:.6g}  (spectral radius {np.sqrt(1.0 - rho):.6g}; "
          "single curvature, not certified)")

    if args.eps is not None:
        _print_p_eps(theta, args.eps)
        print(f"pair           eps={cert.eps:.6g} rho={cert.rho:.6g}")
        print(f"worst eig      {cert.worst_eig:.6e} at alpha={cert.worst_alpha:.6g}")
        if cert.valid:
            print("certified: contraction holds over the whole alpha interval")
            return EXIT_OK
        print(f"not certified: contraction fails at alpha={cert.worst_alpha:.6g}")
        return EXIT_NEGATIVE

    feasible = region.worst_eig <= 0.0
    print(f"pairs swept    {feasible.size}")
    print(f"feasible pairs {int(feasible.sum())}")
    print(f"eps columns    [{eps_grid[0]:.3g}, {eps_grid[-1]:.3g}]")
    print(f"rho rows       [{rho_grid[0]:.3g}, {rho_grid[-1]:.3g}], growing downward")
    for row in feasible.T:
        print("  " + "".join("#" if ok else "." for ok in row))
    if region.best is not None:
        best = region.best
        print(f"best           eps={best.eps:.6g} rho={best.rho:.6g} "
              f"worst_eig={best.worst_eig:.3e} at alpha={best.worst_alpha:.6g}")
        _print_p_eps(theta, best.eps)
        return EXIT_OK
    print("region empty: no (eps, rho) pair certifies the contraction")
    return EXIT_NEGATIVE


def _cmd_bound(args) -> int:
    bounds = SectorBounds(gamma=args.gamma, beta=args.beta)
    rho, source = args.rho, "--rho (given)"
    if rho is None:
        rho = envelope_rate(NagSmoothQuadratic(bounds), bounds)
        source = "fixed_curvature_rate (single curvature, not certified)"
    nag_t = nag_stability_bound(args.g, bounds, args.n, args.t, rho=rho)
    nag_inf = nag_stability_limit(args.g, bounds, args.n)
    sgd = sgd_stability_bound(args.g, bounds, args.n)
    rows = [
        ("nag-param", nag_t.param, nag_inf.param),
        ("nag-loss", nag_t.loss, nag_inf.loss),
        ("sgd-loss", sgd, sgd),
        ("cjy-comparison", cjy_bound(bounds, args.n, args.t), cjy_limit(bounds, args.n)),
    ]
    print(f"sector [{bounds.gamma:g}, {bounds.beta:g}]  kappa={bounds.kappa:g}  "
          f"G={args.g:g}  n={args.n}  T={args.t}  rho={rho:.6g}")
    print(f"rho source     {source}")
    print(f"{'bound':<16}{'at T':>14}{'T -> inf':>14}")
    for name, at_t, limit in rows:
        print(f"{name:<16}{at_t:>14.6g}{limit:>14.6g}")
    return EXIT_OK


class _Failure(Exception):
    """A failure that main reports in one line; args are (message, exit code)."""


def _load_dataset(args):
    if not args.data:
        return synthetic_dataset(args.n_base, args.dim, args.separation, seed=args.seed)
    try:
        return ingest_csv(args.data)
    except OSError as exc:
        raise _Failure(f"cannot read input: {exc}", EXIT_NOINPUT) from exc
    except ValueError as exc:
        raise _Failure(f"bad input data: {exc}", EXIT_NOINPUT) from exc


def _sim_config(args) -> ExperimentConfig:
    # The lists parse first, so a bad list is reported before a bad flag.
    return ExperimentConfig(
        subset_sizes=_int_list(args.sizes),
        checkpoints=_int_list(args.checkpoints),
        optimizer=_spec(args, eta=_PROTOCOL.optimizer.eta, mu=_PROTOCOL.optimizer.mu),
        lambda_reg=args.lambda_reg,
        horizon=args.horizon,
        trials=args.trials,
        neighbor_mode=args.neighbor,
        probes=args.probes,
        master_seed=args.seed,
    )


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _Failure(f"cannot write output: {exc}", EXIT_CANTCREAT) from exc


def _finite_or_null(value):
    """value with every non-finite float written as None, so that the
    JSON it dumps to is RFC 8259 JSON (no NaN or Infinity token)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not np.isfinite(value) else value


def _cmd_simulate(args) -> int:
    config = _sim_config(args)
    base = _load_dataset(args)
    sector = effective_sector(base, config.lambda_reg)
    vs_n = args.mode == "vs-n"
    t0 = time.perf_counter()
    result = (stability_vs_n if vs_n else stability_vs_t)(base, config)
    seconds = time.perf_counter() - t0
    print(f"dataset        {base.name}  (n={base.n}, d={base.dim})")
    if vs_n:
        print(f"sizes          {result.sizes}")
        print("mean ParamDiff " + "  ".join(f"{v:.5g}" for v in result.mean_param_diff))
        fit = result.fit
        if fit is not None:
            print(f"log-log slope  {fit.slope:.4f}  (r2={fit.r2:.4f})")
        else:
            print(f"log-log slope  n/a ({result.no_fit})")
        header = ["n", "mean_param_diff", "max_param_diff", "mean_loss_gap"]
        rows = [
            [n, f"{result.mean_param_diff[i]:.10g}",
             f"{result.trial_param_diff[i].max():.10g}",
             f"{result.trial_loss_gap[i].mean():.10g}" if result.trial_loss_gap is not None else ""]
            for i, n in enumerate(result.sizes)
        ]
        fields = {
            "sizes": list(result.sizes),
            "mean_param_diff": [float(v) for v in result.mean_param_diff],
            "slope": fit.slope if fit is not None else None,
            "intercept": fit.intercept if fit is not None else None,
            "r2": fit.r2 if fit is not None else None,
            "trials": config.trials,
            "horizon": config.horizon,
        }
    else:
        print(f"subset size    {result.size}")
        print(f"checkpoints    {result.checkpoints}")
        print("mean ParamDiff " + "  ".join(f"{v:.5g}" for v in result.mean_curve))
        print(f"envelope rho   {result.rho:.6g}  (T_half={result.t_half:.0f}, "
              f"sector [{sector.gamma:g}, {sector.beta:g}]; single curvature, not certified)")
        print(f"fit region     {result.fit_region}")
        print(f"log-log slope  {result.loglog.slope:.4f}")
        print(f"saturating fit c={result.sat_coeff:.5g}  r2={result.sat_r2:.4f}")
        header = ["T", "mean_param_diff"]
        rows = [[c, f"{result.mean_curve[i]:.10g}"] for i, c in enumerate(result.checkpoints)]
        fields = {
            "size": result.size,
            "checkpoints": list(result.checkpoints),
            "mean_param_diff": [float(v) for v in result.mean_curve],
            "rho": result.rho,
            "t_half": result.t_half,
            "fit_region": list(result.fit_region),
            "loglog_slope": result.loglog.slope,
            "sat_coeff": result.sat_coeff,
            "sat_r2": result.sat_r2,
        }
    steps_per_s = result.coupled_steps / seconds
    print(f"run time       {seconds:.3g} s  ({result.coupled_steps} coupled steps, "
          f"{1e6 / steps_per_s:.3g} us each)")
    if args.out:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        _write(args.out, buf.getvalue())
    if args.json_out:
        payload = {
            "experiment": args.mode.replace("-", "_"),
            "dataset": base.name,
            "sector": {"gamma": sector.gamma, "beta": sector.beta,
                       "grad_bound": gradient_bound(base, config.lambda_reg)},
            "master_seed": config.master_seed,
            "seconds": seconds,
            "coupled_steps": result.coupled_steps,
            "steps_per_s": steps_per_s,
            **fields,
        }
        text = json.dumps(_finite_or_null(payload), sort_keys=True, indent=2)
        _write(args.json_out, text + "\n")
    return EXIT_OK


def main(argv: list | None = None) -> int:
    """Run one subcommand; return its exit code.

    Each subparser sets its handler as args.run (the _cmd_* functions),
    and main calls it once, mapping a _Failure or ValueError it raises to
    one stderr line and an exit code.  certify and simulate compute their
    result first, then print its lines, write any --out/--json file and
    return their exit code, each once.  (The module docstring is the
    --help description, so this note lives here.)
    """
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _Failure as exc:
        message, code = exc.args
        print(f"stabcert: {message}", file=sys.stderr)
        return code
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"stabcert: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
