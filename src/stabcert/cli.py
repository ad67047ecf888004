"""Command-line front end.

Subcommands: certify (LMI feasibility for an optimizer/sector), lyapunov
(direct certificate region for the sector-tuned method, printed as a
'#'/'.' map), bound (closed form stability bounds), simulate vs-n / vs-t
(coupled-run experiments with CSV/JSON reports).

Exit codes: 0 success, 2 certification negative (Infeasible,
Inconclusive, or an empty region), 64 usage errors, 66 unreadable or
malformed input data, 73 an output file that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .data import effective_sector, ingest_csv, synthetic_dataset
from .iqc import certificate_to_json
from .lyapunov import (
    build_p_eps,
    cjy_bound,
    cjy_limit,
    find_feasible_region,
    fixed_curvature_rate,
    nag_stability_bound,
    nag_stability_limit,
    sgd_stability_bound,
    verify_contraction,
)
from .optimizers import HeavyBall, NagSmoothQuadratic, NagStandard, SectorBounds, Sgd, lure_of, theta_of
from .sdp import FEASIBLE, SolverOptions, certify_rate, solve_feasibility
from .simulate import ExperimentConfig, stability_vs_n, stability_vs_t

EXIT_OK = 0
EXIT_NEGATIVE = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 64."""

    def error(self, message: str) -> None:  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stabcert", description=__doc__)
    parser.add_argument("--version", action="version", version=f"stabcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", parents=[], help="solve the certificate LMI")
    cert.add_argument("--optimizer", choices=("sgd", "heavyball", "nag-sq"), required=True)
    cert.add_argument("--gamma", type=float, required=True)
    cert.add_argument("--beta", type=float, required=True)
    cert.add_argument("--eta", type=float, help="step size (sgd/heavyball; default 1/beta)")
    cert.add_argument("--mu", type=float, default=0.0, help="momentum (heavyball)")
    cert.add_argument("--rate", action="store_true", help="search for the largest certifiable rho")
    cert.add_argument("--seed", type=int, default=0, help="seed of the sampling check")
    cert.add_argument("--out", help="write the certificate JSON here")

    lyap = sub.add_parser("lyapunov", help="direct certificate region for the tuned method")
    lyap.add_argument("--kappa", type=float, required=True)
    lyap.add_argument("--eps", type=float, help="check one (eps, rho) pair instead of sweeping")
    lyap.add_argument("--rho", type=float, help="check one (eps, rho) pair instead of sweeping")
    lyap.add_argument("--eps-points", type=int, default=24)
    lyap.add_argument("--rho-points", type=int, default=16)

    bound = sub.add_parser("bound", help="closed-form stability bounds")
    bound.add_argument("--lipschitz", "-G", dest="g", type=float, required=True)
    bound.add_argument("--gamma", type=float, required=True)
    bound.add_argument("--beta", type=float, required=True)
    bound.add_argument("--samples", "-n", dest="n", type=int, required=True)
    bound.add_argument("--horizon", "-T", dest="t", type=int, required=True)
    bound.add_argument("--rho", type=float, help="override the contraction rate")

    sim = sub.add_parser("simulate", help="coupled-run stability experiments")
    sim.add_argument("mode", choices=("vs-n", "vs-t"))
    sim.add_argument("--data", help="CSV dataset (header row, label last)")
    sim.add_argument("--n-base", type=int, default=600, help="synthetic pool size")
    sim.add_argument("--dim", type=int, default=64)
    sim.add_argument("--separation", type=float, default=1.0)
    sim.add_argument("--optimizer", choices=("nag", "sgd"), default="nag")
    sim.add_argument("--eta", type=float, default=0.01)
    sim.add_argument("--mu", type=float, default=0.9)
    sim.add_argument("--lambda-reg", type=float, default=1e-3)
    sim.add_argument("--horizon", type=int, default=2000)
    sim.add_argument("--trials", type=int, default=25)
    sim.add_argument("--sizes", default="50,100,200,400", help="comma-separated subset sizes")
    sim.add_argument("--checkpoints", default="10,50,250,1250")
    sim.add_argument("--neighbor", choices=("resample", "flip"), default="resample")
    sim.add_argument("--probes", type=int, default=32)
    sim.add_argument("--seed", type=int, default=23)
    sim.add_argument("--out", help="write the per-point CSV here")
    sim.add_argument("--json", dest="json_out", help="write the full report JSON here")
    return parser


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _cmd_certify(args) -> int:
    bounds = SectorBounds(gamma=args.gamma, beta=args.beta)
    eta = args.eta if args.eta is not None else 1.0 / args.beta
    if args.optimizer == "sgd":
        spec = Sgd(eta=eta)
    elif args.optimizer == "heavyball":
        spec = HeavyBall(eta=eta, mu=args.mu)
    else:
        spec = NagSmoothQuadratic(bounds=bounds)
    system = lure_of(spec, bounds)
    opts = SolverOptions(seed=args.seed)
    if args.rate:
        rate = certify_rate(system, bounds, args.optimizer, options=opts)
        print(f"optimizer      {args.optimizer}")
        print(f"sector         [{bounds.gamma:g}, {bounds.beta:g}]  (kappa={bounds.kappa:g})")
        print(f"status         {rate.status}")
        certified = rate.status == "Certified"
        print(f"rho_star       {rate.rho_star:.6g}" if certified else "rho_star       none")
        if rate.reference is None:
            print("reference      none")
        else:
            print(f"reference      {rate.reference:.6g}  (one-step, exact)")
        print(f"probes         {len(rate.tested)}")
        if certified:
            above = [rho for rho, status in rate.tested
                     if status != FEASIBLE and rho > rate.rho_star]
            if above:
                print(f"bracket        [{rate.rho_star:.6g}, {min(above):.6g}]")
        if rate.certificate is not None and args.out:
            _write(args.out, certificate_to_json(rate.certificate) + "\n")
        return EXIT_OK if certified else EXIT_NEGATIVE

    result = solve_feasibility(system, bounds, args.optimizer, options=opts)
    print(f"optimizer      {args.optimizer}")
    print(f"sector         [{bounds.gamma:g}, {bounds.beta:g}]  (kappa={bounds.kappa:g})")
    print(f"status         {result.status}")
    print(f"newton steps   {result.traces[0].iterations}")
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
        if args.out:
            _write(args.out, certificate_to_json(cert) + "\n")
    return EXIT_OK if result.status == FEASIBLE else EXIT_NEGATIVE


def _print_p_eps(theta: float, eps: float) -> None:
    p = build_p_eps(theta, eps)
    print(f"P_eps          [{p[0, 0]:.6g}, {p[0, 1]:.6g}; {p[1, 0]:.6g}, {p[1, 1]:.6g}]")


def _cmd_lyapunov(args) -> int:
    if (args.eps is None) != (args.rho is None):
        print("give both --eps and --rho, or neither", file=sys.stderr)
        return EXIT_USAGE
    theta = theta_of(args.kappa)
    cert = None if args.eps is None else verify_contraction(theta, args.eps, args.rho)
    unit = SectorBounds(1.0, args.kappa)
    rho = fixed_curvature_rate(lure_of(NagSmoothQuadratic(unit), unit), unit)
    print(f"kappa          {args.kappa:g}  (theta={theta:.6g})")
    print(f"ideal rate     rho={rho:.6g}  (spectral radius {np.sqrt(1.0 - rho):.6g})")

    if cert is not None:
        _print_p_eps(theta, args.eps)
        print(f"pair           eps={cert.eps:.6g} rho={cert.rho:.6g}")
        print(f"worst eig      {cert.worst_eig:.6e} at alpha={cert.worst_alpha:.6g}")
        if cert.valid:
            print("certified: contraction holds over the whole alpha interval")
            return EXIT_OK
        print(f"not certified: contraction fails at alpha={cert.worst_alpha:.6g}")
        return EXIT_NEGATIVE

    eps_lo = theta**2 if theta > 0.0 else 1e-9
    eps_grid = np.linspace(eps_lo, 4.0 * (1.0 + theta) ** 2, args.eps_points)
    rho_grid = np.linspace(1e-4, 0.5 / np.sqrt(args.kappa), args.rho_points)
    region = find_feasible_region(theta, eps_grid, rho_grid)
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
    bounds = SectorBounds(gamma=args.gamma, beta=args.beta, grad_bound=args.g)
    rho, source = args.rho, "--rho (given)"
    if rho is None:
        rho = fixed_curvature_rate(lure_of(NagSmoothQuadratic(bounds), bounds), bounds)
        source = "fixed_curvature_rate (single curvature, not certified)"
    nag_t = nag_stability_bound(args.g, bounds, args.n, args.t, rho=rho)
    nag_inf = nag_stability_limit(args.g, bounds, args.n)
    sgd = sgd_stability_bound(bounds, args.n)
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
    sizes = _int_list(args.sizes)
    checkpoints = _int_list(args.checkpoints)
    if args.optimizer == "nag":
        spec = NagStandard(eta=args.eta, mu=args.mu)
    else:
        spec = Sgd(eta=args.eta)
    return ExperimentConfig(
        optimizer=spec,
        lambda_reg=args.lambda_reg,
        horizon=args.horizon,
        trials=args.trials,
        subset_sizes=sizes,
        checkpoints=checkpoints,
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


def _write_csv(path: str, header: list, rows: list) -> None:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    _write(path, buf.getvalue())


def _write_json(path: str, payload: dict) -> None:
    _write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _timed_experiment(run, base, config: ExperimentConfig, sizes: int) -> tuple:
    """Run one experiment driver; return its result and a timing record."""
    t0 = time.perf_counter()
    result = run(base, config)
    seconds = time.perf_counter() - t0
    steps = config.trials * config.horizon * sizes
    return result, {"seconds": seconds, "coupled_steps": steps, "steps_per_s": steps / seconds}


def _print_timing(timing: dict) -> None:
    print(f"run time       {timing['seconds']:.3g} s  ({timing['coupled_steps']} coupled steps, "
          f"{1e6 / timing['steps_per_s']:.3g} us each)")


def _cmd_simulate(args) -> int:
    config = _sim_config(args)
    base = _load_dataset(args)
    sector = effective_sector(base, config.lambda_reg)
    sector_info = {
        "gamma": sector.gamma,
        "beta": sector.beta,
        "grad_bound": sector.grad_bound,
    }
    if args.mode == "vs-n":
        result, timing = _timed_experiment(
            stability_vs_n, base, config, len(config.subset_sizes))
        print(f"dataset        {base.name}  (n={base.n}, d={base.dim})")
        print(f"sizes          {result.sizes}")
        print("mean ParamDiff " + "  ".join(f"{v:.5g}" for v in result.mean_param_diff))
        if result.fit is not None:
            print(f"log-log slope  {result.fit.slope:.4f}  (r2={result.fit.r2:.4f})")
        else:
            why = "need at least 3 subset sizes" if len(result.sizes) < 3 else "a mean gap is 0"
            print(f"log-log slope  n/a ({why})")
        _print_timing(timing)
        rows = [
            [n, f"{result.mean_param_diff[i]:.10g}",
             f"{result.trial_param_diff[i].max():.10g}",
             f"{result.trial_loss_gap[i].mean():.10g}" if result.trial_loss_gap is not None else ""]
            for i, n in enumerate(result.sizes)
        ]
        if args.out:
            _write_csv(args.out, ["n", "mean_param_diff", "max_param_diff", "mean_loss_gap"], rows)
        if args.json_out:
            payload = {
                "experiment": "vs_n",
                "dataset": base.name,
                "sector": sector_info,
                "sizes": list(result.sizes),
                "mean_param_diff": [float(v) for v in result.mean_param_diff],
                "slope": result.fit.slope if result.fit is not None else None,
                "intercept": result.fit.intercept if result.fit is not None else None,
                "r2": result.fit.r2 if result.fit is not None else None,
                "master_seed": config.master_seed,
                "trials": config.trials,
                "horizon": config.horizon,
                **timing,
            }
            _write_json(args.json_out, payload)
        return EXIT_OK

    result, timing = _timed_experiment(stability_vs_t, base, config, 1)
    print(f"dataset        {base.name}  (n={base.n}, d={base.dim})")
    print(f"subset size    {result.size}")
    print(f"checkpoints    {result.checkpoints}")
    print("mean ParamDiff " + "  ".join(f"{v:.5g}" for v in result.mean_curve))
    print(f"envelope rho   {result.rho:.6g}  (T_half={result.t_half:.0f}, "
          f"sector [{sector.gamma:g}, {sector.beta:g}])")
    print(f"fit region     {result.fit_region}")
    print(f"log-log slope  {result.loglog.slope:.4f}")
    print(f"saturating fit c={result.sat_coeff:.5g}  r2={result.sat_r2:.4f}")
    _print_timing(timing)
    if args.out:
        rows = [
            [c, f"{result.mean_curve[i]:.10g}"]
            for i, c in enumerate(result.checkpoints)
        ]
        _write_csv(args.out, ["T", "mean_param_diff"], rows)
    if args.json_out:
        payload = {
            "experiment": "vs_t",
            "dataset": base.name,
            "sector": sector_info,
            "size": result.size,
            "checkpoints": list(result.checkpoints),
            "mean_param_diff": [float(v) for v in result.mean_curve],
            "rho": result.rho,
            "t_half": result.t_half,
            "fit_region": list(result.fit_region),
            "loglog_slope": result.loglog.slope,
            "sat_coeff": result.sat_coeff,
            "sat_r2": result.sat_r2,
            "master_seed": config.master_seed,
            **timing,
        }
        _write_json(args.json_out, payload)
    return EXIT_OK


def main(argv: list | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "lyapunov":
            return _cmd_lyapunov(args)
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
    except _Failure as exc:
        message, code = exc.args
        print(f"stabcert: {message}", file=sys.stderr)
        return code
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"stabcert: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
