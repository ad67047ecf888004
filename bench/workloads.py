"""The three benchmark workloads: seeded inputs, job lists and output checks.

Each workload is a closed loop in one process and one thread: a job
starts only after the previous one has returned.  Jobs call stabcert
through its public entry points only, looked up as module attributes at
call time so that the traced run (see layers.py) sees every call.

The workload seed is turned into the program's inputs here, once, in
set-up: a solver seed, a coupled-run master seed, a dataset seed, a seed
for the benchmark's own sampling re-checks (never one the solver used),
and the sampled trials the coupled check replays.
"""

from __future__ import annotations

import contextlib
import io
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from stabcert import cli, data, lyapunov, sdp, simulate
from stabcert.iqc import certificate_from_json
from stabcert.losses import reg_logistic_grad
from stabcert.optimizers import (
    HeavyBall,
    NagSmoothQuadratic,
    OptimizerState,
    SectorBounds,
    Sgd,
    lure_of,
    nag_step,
    theta_of,
)

KAPPAS = (2.0, 4.0, 10.0)
# The lyapunov CLI's default sweep: 24 x 16 (eps, rho) pairs, 256 alpha points.
EPS_POINTS, RHO_POINTS, ALPHA_POINTS = 24, 16, 256
FINE_ALPHA_POINTS = 10 * ALPHA_POINTS
# certify_rate's own default options; only the seed is the workload's.
RATE_OPTIONS = dict(restarts=6, max_iters=20_000, patience=1200)
RATE_KAPPA = 10.0
REL_TOL = 1e-12

# Summary metrics of one untraced pass.  Each workload reports its own;
# summary() fills in 0 for the other workloads' names.
SUMMARY_UNITS = {
    "feasible_verdicts_ms": "ms",
    "negative_verdicts_s": "s",
    "direct_region_ms": "ms",
    "verified_feasible": "count",
    "direct_feasible_pairs": "count",
    "rho_star": "rate",
    "coupled_steps_per_s": "steps/s",
}


@dataclass
class Job:
    """One unit of work: run() is timed, check(output) lists failures,
    verdict(output) says in a few words what came out."""

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    verdict: Callable[[object], str]


@dataclass
class Record:
    """A job's output, or the exception its run() raised, and its time."""

    job: Job
    output: object
    seconds: float
    errors: list

    @property
    def raised(self) -> bool:
        return isinstance(self.output, Exception)

    def verdict(self) -> str:
        if self.raised:
            return f"raised {type(self.output).__name__}"
        return self.job.verdict(self.output)


@dataclass
class Pass:
    records: list
    wall: float


def derive_inputs(seed: int) -> dict:
    """Program inputs and check seeds generated from the workload seed."""
    solver, master, dataset, check, pick = (
        int(x) for x in np.random.SeedSequence(seed).generate_state(5) % 2**31
    )
    if check == solver:
        check += 1
    return {"solver": solver, "master": master, "dataset": dataset, "check": check, "pick": pick}


def _quiet(fn):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fn()
    return code, buf.getvalue()


def _status_line(text: str) -> str:
    for line in text.splitlines():
        if line.startswith("status"):
            return line.split()[-1]
    return ""


class Workload:
    """Base: a job list run in order, plus per-pass summary metrics."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.inputs = derive_inputs(seed)
        self.workdir = workdir
        self.jobs: list = []
        self.setup_seconds: dict = {}

    def run_pass(self, tracer=None) -> Pass:
        span = tracer.span if tracer is not None else _no_span
        records = []
        t0 = perf_counter()
        with span("bench.pass", "bench"):
            for k, job in enumerate(self.jobs):
                with span("bench.job", "bench", job=k):
                    j0 = perf_counter()
                    try:
                        out = job.run()
                    except Exception as exc:  # a failed job, not a failed benchmark
                        traceback.print_exc(file=sys.stderr)
                        out = exc
                    dt = perf_counter() - j0
                records.append(Record(job, out, dt, []))
        wall = perf_counter() - t0
        for rec in records:
            rec.errors = [f"raised {rec.output!r}"] if rec.raised else rec.job.check(rec.output)
        return Pass(records, wall)

    def pass_metrics(self, p: Pass) -> dict:
        """This workload's entries of SUMMARY_UNITS for one pass: name -> value."""
        raise NotImplementedError

    def summary(self, p: Pass) -> dict:
        """Every SUMMARY_UNITS entry for one pass: name -> (value, unit)."""
        own = self.pass_metrics(p)
        return {name: (own.get(name, 0), unit) for name, unit in SUMMARY_UNITS.items()}


def _no_span(*_args, **_kwargs):
    return contextlib.nullcontext()


class CertifySweep(Workload):
    """stabcert certify for four optimizers at three kappas, plus direct sweeps."""

    name = "certify-sweep"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        for kappa in KAPPAS:
            bounds = SectorBounds(gamma=1.0 / kappa, beta=1.0)
            for label, spec, flags in (
                ("sgd-eta1", Sgd(eta=1.0), ["--optimizer", "sgd", "--eta", "1"]),
                ("sgd-eta3", Sgd(eta=3.0), ["--optimizer", "sgd", "--eta", "3"]),
                ("heavyball-mu0.1", HeavyBall(eta=1.0, mu=0.1),
                 ["--optimizer", "heavyball", "--mu", "0.1"]),
                ("nag-sq", NagSmoothQuadratic(bounds=bounds), ["--optimizer", "nag-sq"]),
            ):
                self.jobs.append(self._certify_job(label, kappa, bounds, lure_of(spec, bounds),
                                                   flags))
            self.jobs.append(self._region_job(kappa))

    def _certify_job(self, label, kappa, bounds, system, flags) -> Job:
        out = self.workdir / f"{label}-kappa{kappa:g}.json"
        argv = ["certify", *flags, "--gamma", repr(bounds.gamma), "--beta", repr(bounds.beta),
                "--seed", str(self.inputs["solver"]), "--out", str(out)]
        check_seed = self.inputs["check"]

        def run():
            return _quiet(lambda: cli.main(argv))

        def check(output) -> list:
            code, text = output
            status = _status_line(text)
            errors = []
            if code == cli.EXIT_OK:
                if status != sdp.FEASIBLE:
                    errors.append(f"exit 0 but status {status!r}")
                if label == "sgd-eta3":
                    errors.append("divergent control eta=3/beta certified Feasible")
                if not out.is_file():
                    return errors + ["Feasible verdict wrote no certificate"]
                cert = certificate_from_json(out.read_text(encoding="utf-8"))
                out.unlink()
                if (cert.gamma, cert.beta) != (bounds.gamma, bounds.beta):
                    errors.append("certificate sector differs from the request")
                if not sdp.verify_certificate(cert, system, bounds):
                    errors.append("certificate fails verify_certificate")
                sampled = sdp.s_lemma_cross_check(cert, system, bounds, seed=check_seed)
                if not sampled["ok"]:
                    errors.append(f"sampled decrement {sampled['max_violation']:.3e} > 0")
            elif code == cli.EXIT_NEGATIVE:
                if status not in (sdp.INFEASIBLE, sdp.INCONCLUSIVE):
                    errors.append(f"exit 2 but status {status!r}")
                if out.exists():
                    errors.append("negative verdict wrote a certificate")
                if label == "sgd-eta1":
                    errors.append(f"ground truth: sgd at eta=1/beta must be Feasible, got {status}")
            else:
                errors.append(f"unexpected exit code {code}")
            return errors

        def verdict(output) -> str:
            return _status_line(output[1]) or f"exit {output[0]}"

        return Job(f"certify {label} kappa={kappa:g}", "certify", run, check, verdict)

    def _region_job(self, kappa) -> Job:
        theta = theta_of(kappa)
        eps_lo = theta**2 if theta > 0.0 else 1e-9
        eps_grid = np.linspace(eps_lo, 4.0 * (1.0 + theta) ** 2, EPS_POINTS)
        rho_grid = np.linspace(1e-4, 0.5 / np.sqrt(kappa), RHO_POINTS)

        def run():
            return lyapunov.find_feasible_region(theta, eps_grid, rho_grid,
                                                 grid_points=ALPHA_POINTS)

        def check(region) -> list:
            errors = []
            if len(region.certificates) != EPS_POINTS * RHO_POINTS:
                errors.append(f"swept {len(region.certificates)} pairs")
            for c in region.feasible:
                fine = lyapunov.verify_contraction(theta, c.eps, c.rho,
                                                   grid_points=FINE_ALPHA_POINTS)
                if not fine.valid:
                    errors.append(f"pair eps={c.eps:g} rho={c.rho:g} fails the 10x finer grid")
            return errors

        def verdict(region) -> str:
            return f"{len(region.feasible)} of {len(region.certificates)} pairs feasible"

        return Job(f"direct region kappa={kappa:g}", "direct", run, check, verdict)

    def pass_metrics(self, p: Pass) -> dict:
        spent = {"feasible": 0.0, "negative": 0.0, "direct": 0.0}
        verified = pairs = 0
        for rec in p.records:
            phase = rec.job.kind
            if phase == "certify":
                phase = "feasible" if rec.verdict() == sdp.FEASIBLE else "negative"
            spent[phase] += rec.seconds
            if phase == "feasible" and not rec.errors:
                verified += 1
            if phase == "direct" and not rec.raised:
                pairs += len(rec.output.feasible)
        return {
            "feasible_verdicts_ms": 1e3 * spent["feasible"],
            "negative_verdicts_s": spent["negative"],
            "direct_region_ms": 1e3 * spent["direct"],
            "verified_feasible": verified,
            "direct_feasible_pairs": pairs,
        }


class RateBisect(Workload):
    """sdp.certify_rate for sgd at kappa=10 with explicit solver options.

    Called directly rather than through `stabcert certify --rate`, which
    drops --seed and --restarts, so the workload seed would not reach the
    solver.
    """

    name = "rate-bisect"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        bounds = SectorBounds(gamma=1.0 / RATE_KAPPA, beta=1.0)
        system = lure_of(Sgd(eta=1.0 / bounds.beta), bounds)
        opts = sdp.SolverOptions(seed=self.inputs["solver"], **RATE_OPTIONS)
        # Squared-norm contraction of sgd at eta=1/beta is 1 - (1 - 1/kappa)^2.
        rho_cap = 1.0 - (1.0 - 1.0 / RATE_KAPPA) ** 2
        check_seed = self.inputs["check"]

        def run():
            return sdp.certify_rate(system, bounds, "sgd", options=opts)

        def check(res) -> list:
            errors = []
            if res.status != "Certified":
                errors.append(f"status {res.status}")
            if not (0.0 < res.rho_star <= rho_cap):
                errors.append(f"rho_star {res.rho_star} outside (0, {rho_cap:.4g}]")
            cert = res.certificate
            if cert is None:
                return errors + ["no certificate for rho_star"]
            if cert.rho != res.rho_star:
                errors.append(f"certificate rho {cert.rho} != rho_star {res.rho_star}")
            if not sdp.verify_certificate(cert, system, bounds, opts):
                errors.append("certificate fails verify_certificate")
            sampled = sdp.s_lemma_cross_check(cert, system, bounds,
                                              samples=opts.check_samples, seed=check_seed)
            if not sampled["ok"]:
                errors.append(f"sampled decrement {sampled['max_violation']:.3e} > 0")
            return errors

        def verdict(res) -> str:
            return f"{res.status} rho*={res.rho_star:.6g} after {len(res.tested)} probes"

        self.jobs.append(Job("certify_rate sgd kappa=10", "rate", run, check, verdict))

    def pass_metrics(self, p: Pass) -> dict:
        rec = p.records[0]
        return {"rho_star": 0.0 if rec.raised else rec.output.rho_star}


class CoupledExperiments(Workload):
    """simulate.stability_vs_n and stability_vs_t at the default config."""

    name = "coupled-experiments"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        t0 = perf_counter()
        self.base = data.synthetic_dataset(600, 64, seed=self.inputs["dataset"])
        t1 = perf_counter()
        self.config = simulate.ExperimentConfig(master_seed=self.inputs["master"])
        self.sector = data.effective_sector(self.base, self.config.lambda_reg)
        t2 = perf_counter()
        self.setup_seconds = {"synthetic": t1 - t0, "effective_sector": t2 - t1}
        cfg = self.config
        self.steps = cfg.trials * cfg.horizon * (len(cfg.subset_sizes) + 1)
        pick = np.random.default_rng(self.inputs["pick"])
        self.sampled = {int(n): int(pick.integers(0, cfg.trials)) for n in cfg.subset_sizes}
        self._reference: dict = {}
        base, config = self.base, self.config
        self.jobs = [
            Job("stability_vs_n", "experiment", lambda: simulate.stability_vs_n(base, config),
                self._check_vs_n, lambda res: f"log-log slope {res.fit.slope:.4f}"),
            Job("stability_vs_t", "experiment", lambda: simulate.stability_vs_t(base, config),
                self._check_vs_t,
                lambda res: f"log-log slope {res.loglog.slope:.4f}, envelope rho {res.rho:.4g}"),
        ]

    def reference(self, n: int) -> np.ndarray:
        """||w - w'|| after every step of the sampled trial at size n.

        Rebuilt from the seed roles documented in stabcert.simulate, with
        optimizers.nag_step and losses.reg_logistic_grad in place of
        coupled_run.
        """
        if n in self._reference:
            return self._reference[n]
        cfg, k, m = self.config, self.sampled[n], self.config.master_seed

        def rng(*role):
            return np.random.default_rng(np.random.SeedSequence((m, n, k, *role)))

        sub = data.subsample(self.base, n, rng(3)) if n < self.base.n else self.base
        j = int(rng().integers(0, n))
        nb = data.make_neighbor(sub, j, cfg.neighbor_mode, rng(1))
        idx = rng(2).integers(0, n, size=cfg.horizon)
        eta, mu, lam = cfg.optimizer.eta, cfg.optimizer.mu, cfg.lambda_reg
        a = OptimizerState.zeros(self.base.dim)
        b = OptimizerState.zeros(self.base.dim)
        diffs = np.zeros(cfg.horizon)
        for t, i in enumerate(idx):
            a = nag_step(a, lambda w: reg_logistic_grad(w, sub.x[i], sub.y[i], lam)[1], eta, mu)
            b = nag_step(b, lambda w: reg_logistic_grad(w, nb.x[i], nb.y[i], lam)[1], eta, mu)
            diffs[t] = np.linalg.norm(a.w - b.w)
        self._reference[n] = diffs
        return diffs

    @staticmethod
    def _mismatch(got: float, want: float) -> bool:
        return not abs(got - want) <= REL_TOL * abs(want)

    def _check_vs_n(self, res) -> list:
        errors = []
        # A gap of exactly 0 is legitimate: the trial never drew the replaced index.
        if not np.all(np.isfinite(res.trial_param_diff)) or np.any(res.trial_param_diff < 0.0):
            errors.append("non-finite or negative final parameter gap")
        if res.fit is None:
            errors.append("no log-log fit")
        for a, n in enumerate(res.sizes):
            k = self.sampled[int(n)]
            got, want = float(res.trial_param_diff[a, k]), float(self.reference(int(n))[-1])
            if self._mismatch(got, want):
                errors.append(f"n={n} trial {k}: gap {got!r} != reference {want!r}")
        return errors

    def _check_vs_t(self, res) -> list:
        errors = []
        want_rho = simulate.envelope_rate(self.config.optimizer, self.sector)
        if res.rho != want_rho:
            errors.append(f"envelope rho {res.rho} != {want_rho} from the set-up sector")
        k = self.sampled[res.size]
        ref = self.reference(res.size)
        for c, got in zip(res.checkpoints, res.trial_curves[k]):
            if self._mismatch(float(got), float(ref[c - 1])):
                errors.append(f"trial {k} at T={c}: gap {float(got)!r} != reference "
                              f"{float(ref[c - 1])!r}")
        return errors

    def pass_metrics(self, p: Pass) -> dict:
        spent = sum(rec.seconds for rec in p.records)
        return {"coupled_steps_per_s": self.steps / spent}


WORKLOADS = {w.name: w for w in (CertifySweep, RateBisect, CoupledExperiments)}
