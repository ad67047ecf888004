"""Where the traced run wraps stabcert, and the per-layer metrics it yields.

Every wrapper sits on the name the caller looks up: cli.solve_feasibility
for `stabcert certify`, sdp.solve_feasibility for certify_rate's probes,
sdp.extreme_eig_sym and sdp.assemble_lmi for the solver's inner loop,
iqc.assemble_lmi and iqc.eigvals_sym for verify_certificate, and so on.
cli.s_lemma_cross_check is deliberately left unwrapped: the CLI's second
sampling check is part of cli's self time.
"""

from __future__ import annotations

from stabcert import cli, iqc, losses, lyapunov, sdp, simulate

from tracing import Tracer


def _record_solve(sp, _args, _kwargs, res) -> None:
    iters = [t.iterations for t in res.traces]
    # The restart whose result is returned: the verified Feasible one, or
    # the best stalled one behind a negative verdict.
    returned = min(res.traces, key=lambda t: t.best_violation).iterations if iters else 0
    sp.info.update(status=res.status, iterations=sum(iters), restarts=len(iters),
                   wasted=sum(iters) - returned)


def _record_region(sp, _args, _kwargs, region) -> None:
    sp.info["alpha_evals"] = sum(c.grid_points for c in region.certificates)


def _record_coupled(sp, _args, _kwargs, trace) -> None:
    sp.info["steps"] = len(trace.param_diff)


def _eig_key(args) -> str:
    n = args[0].shape[0]
    return f"linalg.extreme_eig.{n}x{n}"


def instrument(tracer: Tracer) -> list:
    """(owner, attribute, wrapper) triples for tracing.patched.

    A name that a later version of the package drops is skipped, and its
    metrics read 0, so the traced run keeps working across refactors.
    """
    task = losses.LogisticTask
    spans = [
        (cli, "main", "cli.main", "cli", None),
        (cli, "solve_feasibility", "sdp.solve", "sdp", _record_solve),
        (sdp, "certify_rate", "sdp.rate", "sdp", None),
        (sdp, "solve_feasibility", "sdp.solve", "sdp", _record_solve),
        (sdp, "verify_certificate", "sdp.verify", "sdp", None),
        (sdp, "s_lemma_cross_check", "sdp.verify", "sdp", None),
        (lyapunov, "find_feasible_region", "lyapunov.region", "lyapunov", _record_region),
        (simulate, "stability_vs_n", "simulate.experiment", "simulate", None),
        (simulate, "stability_vs_t", "simulate.experiment", "simulate", None),
        (simulate, "coupled_run", "simulate.coupled_run", "simulate", _record_coupled),
    ]
    leaves = [
        (cli, "certificate_to_json", "iqc.cert_json", "iqc"),
        (sdp, "extreme_eig_sym", _eig_key, "linalg"),
        (sdp, "sym_eigen", "linalg.jacobi", "linalg"),
        (sdp, "assemble_lmi", "iqc.assemble_lmi", "iqc"),
        (iqc, "assemble_lmi", "iqc.assemble_lmi", "iqc"),
        (iqc, "eigvals_sym", "linalg.jacobi", "linalg"),
        (lyapunov, "verify_contraction", "lyapunov.pair", "lyapunov"),
        (simulate, "fit_loglog_slope", "simulate.fit", "simulate"),
        (simulate, "saturating_fit", "simulate.fit", "simulate"),
        (simulate, "subsample", "data.subsample", "data"),
        (simulate, "make_neighbor", "data.make_neighbor", "data"),
        (simulate, "effective_sector", "data.effective_sector", "data"),
        (task, "grad", "losses.grad", "losses"),
        (task, "losses_at", "losses.probe_eval", "losses"),
    ]
    return [
        (owner, attr, tracer.spanned(getattr(owner, attr), name, layer, on_result))
        for owner, attr, name, layer, on_result in spans if hasattr(owner, attr)
    ] + [
        (owner, attr, tracer.leaf(getattr(owner, attr), key, layer))
        for owner, attr, key, layer in leaves if hasattr(owner, attr)
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer, setup_seconds: dict) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    A layer the workload never calls reads 0, and so does what a wrapped
    call that raised would have recorded.  setup_seconds holds the
    workload's timed input-generation steps.
    """
    out = {f"{layer}.self_s": (s, "s") for layer, s in tracer.layer_self_seconds().items()}

    for n in (1, 2, 3):
        calls, secs = tracer.leaf_totals(f"linalg.extreme_eig.{n}x{n}")
        out[f"linalg.extreme_eig.{n}x{n}.calls"] = (calls, "count")
        out[f"linalg.extreme_eig.{n}x{n}.us"] = (1e6 * _ratio(secs, calls), "us/call")
    calls, secs = tracer.leaf_totals("linalg.jacobi")
    out["linalg.jacobi.calls"] = (calls, "count")
    out["linalg.jacobi.us"] = (1e6 * _ratio(secs, calls), "us/call")

    calls, secs = tracer.leaf_totals("iqc.assemble_lmi")
    out["iqc.assemble_lmi.calls"] = (calls, "count")
    out["iqc.assemble_lmi.us"] = (1e6 * _ratio(secs, calls), "us/call")
    calls, secs = tracer.leaf_totals("iqc.cert_json")
    out["iqc.cert_json.us"] = (1e6 * _ratio(secs, calls), "us/call")

    solves = tracer.named("sdp.solve")
    verifies = tracer.named("sdp.verify")
    iterations = sum(sp.info.get("iterations", 0) for sp in solves)
    verify_s = sum(sp.seconds for sp in verifies)  # all of them run inside a solve
    probes = [sp for sp in solves if sp.parent is not None and sp.parent.name == "sdp.rate"]
    out["sdp.solves"] = (len(solves), "count")
    out["sdp.restarts"] = (sum(sp.info.get("restarts", 0) for sp in solves), "count")
    out["sdp.iterations"] = (iterations, "count")
    out["sdp.us_per_iter"] = (
        1e6 * _ratio(sum(sp.seconds for sp in solves) - verify_s, iterations), "us/iter")
    out["sdp.solve.self_s"] = (sum(tracer.self_seconds(sp) for sp in solves), "s")
    out["sdp.verify.calls"] = (len(verifies), "count")
    out["sdp.verify.s"] = (verify_s, "s")
    out["sdp.feasible_yield"] = (
        _ratio(sum(sp.info.get("status") == sdp.FEASIBLE for sp in solves), len(solves)),
        "ratio")
    out["sdp.wasted_iter_ratio"] = (
        _ratio(sum(sp.info.get("wasted", 0) for sp in solves), iterations), "ratio")
    out["sdp.rate.probes"] = (len(probes), "count")
    out["sdp.rate.negative_probe_s"] = (
        sum(sp.seconds for sp in probes if sp.info.get("status") != sdp.FEASIBLE), "s")

    pairs, secs = tracer.leaf_totals("lyapunov.pair")
    out["lyapunov.pairs"] = (pairs, "count")
    out["lyapunov.alpha_evals"] = (
        sum(sp.info.get("alpha_evals", 0) for sp in tracer.named("lyapunov.region")), "count")
    out["lyapunov.us_per_pair"] = (1e6 * _ratio(secs, pairs), "us/pair")

    runs = tracer.named("simulate.coupled_run")
    steps = sum(sp.info.get("steps", 0) for sp in runs)
    run_s = sum(sp.seconds for sp in runs)
    _, fit_s = tracer.leaf_totals("simulate.fit")
    _, sector_s = tracer.leaf_totals("data.effective_sector")
    experiment_s = sum(sp.seconds for sp in tracer.named("simulate.experiment"))
    out["simulate.coupled_runs"] = (len(runs), "count")
    out["simulate.coupled_steps"] = (steps, "count")
    out["simulate.us_per_coupled_step"] = (1e6 * _ratio(run_s, steps), "us/step")
    out["simulate.trial_setup.s"] = (experiment_s - run_s - fit_s - sector_s, "s")
    out["simulate.fit.s"] = (fit_s, "s")

    calls, secs = tracer.leaf_totals("losses.grad")
    out["losses.grad.calls"] = (calls, "count")
    out["losses.grad.us"] = (1e6 * _ratio(secs, calls), "us/call")
    out["losses.probe_eval.calls"] = (tracer.leaf_totals("losses.probe_eval")[0], "count")

    out["data.synthetic.s"] = (setup_seconds.get("synthetic", 0.0), "s")
    out["data.effective_sector.s"] = (setup_seconds.get("effective_sector", 0.0) + sector_s, "s")
    out["data.subsample.calls"] = (tracer.leaf_totals("data.subsample")[0], "count")
    out["data.make_neighbor.calls"] = (tracer.leaf_totals("data.make_neighbor")[0], "count")
    return out
