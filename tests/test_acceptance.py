"""End-to-end acceptance checks, one test per criterion.

Each test computes its verdict, records a summary line for the terminal
table, then asserts.  Criterion 4 documents a genuine negative result:
the direct-Lyapunov region is empty for kappa >= 3, so its strongest
sub-assertion fails by design and the remaining sub-checks are still
exercised first.  Criterion 5 once failed the same way, but only because
the LMI lacked the sector product multiplier; with it the accelerated
method certifies at kappa = 10.
"""

import time

import numpy as np

import _report
from stabcert.data import effective_sector, synthetic_dataset
from stabcert.linalg import eig2_radius
from stabcert.losses import random_sector_quadratics, reg_logistic_grad, reg_logistic_loss
from stabcert.lyapunov import (
    assemble_m_alpha,
    cjy_bound,
    cjy_limit,
    find_feasible_region,
    nag_stability_bound,
    nag_stability_limit,
    sgd_stability_bound,
    verify_contraction,
)
from stabcert.optimizers import (
    NagSmoothQuadratic,
    OptimizerState,
    SectorBounds,
    Sgd,
    a_alpha,
    lure_of,
    step_rule,
    theta_of,
)
from stabcert.sdp import FEASIBLE, SolverOptions, s_lemma_cross_check, solve_feasibility, verify_certificate
from stabcert.simulate import ExperimentConfig, coupled_run, stability_vs_n, stability_vs_t


def test_criterion_1_sgd_per_step_contraction():
    t0 = time.time()
    bounds = SectorBounds(gamma=0.1, beta=1.0)
    eta = 1.0 / bounds.beta
    horizon, n, dim, trials = 400, 20, 6, 25
    factor = 1.0 - eta * bounds.gamma
    worst_slack = -np.inf
    for trial in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((404, trial)))
        task_a = random_sector_quadratics(n, dim, bounds, rng)
        j = int(rng.integers(0, n))
        fresh = random_sector_quadratics(1, dim, bounds, rng)
        task_b = task_a.replaced(j, fresh.hessians[0], fresh.centers[0])
        idx_rng = np.random.default_rng(np.random.SeedSequence((404, trial, 2)))
        trace = coupled_run(task_a, task_b, j, Sgd(eta), horizon, idx_rng)
        # Measured bound on the two replaced-sample gradients at the
        # points the coupled argument needs them.
        g_meas = 0.0
        for _, _, w2_pre in trace.hit_snapshots:
            g_meas = max(
                g_meas,
                float(np.linalg.norm(task_a.grad(w2_pre, j))),
                float(np.linalg.norm(task_b.grad(w2_pre, j))),
            )
        prev = 0.0
        for t in range(horizon):
            allowed = factor * prev + (2.0 * eta * g_meas if trace.hits[t] else 0.0)
            worst_slack = max(worst_slack, trace.param_diff[t] - allowed)
            assert trace.param_diff[t] <= allowed + 1e-12
            prev = trace.param_diff[t]
    elapsed = time.time() - t0
    ok = worst_slack <= 1e-12 and elapsed < 10.0
    _report.record(1, ok, f"sgd contraction, 25 trials, worst slack {worst_slack:.2e}", elapsed)
    assert elapsed < 10.0


def test_criterion_2_sgd_bound_envelope():
    t0 = time.time()
    base = synthetic_dataset(600, 64, 1.0, seed=23)
    config = ExperimentConfig(
        optimizer=Sgd(eta=0.01),
        subset_sizes=(50, 100, 200),
        checkpoints=(2000,),
        master_seed=23,
    )
    result = stability_vs_n(base, config)
    gamma = config.lambda_reg
    sector = effective_sector(base, gamma)
    margin = np.inf
    for i, n in enumerate(result.sizes):
        g_meas = float(result.trial_max_grad[i].max())
        bound = sgd_stability_bound(g_meas, SectorBounds(gamma, sector.beta), int(n))
        worst = float(result.trial_loss_gap[i].max())
        margin = min(margin, bound - worst)
        assert worst <= bound, (n, worst, bound)
    elapsed = time.time() - t0
    ok = margin > 0 and elapsed < 120.0
    _report.record(2, ok, f"loss gap under 2G^2/(gamma n), min headroom {margin:.3g}", elapsed)
    assert elapsed < 120.0


def test_criterion_3_nag_contraction_rate():
    t0 = time.time()
    worst_radius_err = 0.0
    worst_gap = 0.0
    for kappa in (4.0, 25.0, 100.0, 1e4):
        theta = theta_of(kappa)
        alpha = 1.0 - 1.0 / kappa
        mat = a_alpha(theta, alpha)
        tr = float(mat[0, 0] + mat[1, 1])
        cross = float(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0])
        radius = eig2_radius(tr, cross)
        det = theta * alpha
        worst_radius_err = max(worst_radius_err, abs(radius - np.sqrt(det)))
        assert abs(radius - np.sqrt(det)) <= 1e-10
        gap = abs(radius**2 - (1.0 - 2.0 / np.sqrt(kappa)))
        worst_gap = max(worst_gap, gap * kappa / 5.0)
        assert gap <= 5.0 / kappa
    elapsed = time.time() - t0
    ok = elapsed < 1.0
    _report.record(
        3, ok, f"radius vs sqrt(det) err {worst_radius_err:.1e}, gap ratio {worst_gap:.2f}", elapsed
    )
    assert elapsed < 1.0


def test_criterion_4_direct_lyapunov_region():
    t0 = time.time()
    region_sizes = {}
    reverify_ok = True
    exclusion_ok = True
    for kappa in (1.0, 4.0, 25.0):
        theta = theta_of(kappa)
        eps_lo = theta**2 if theta > 0.0 else 1e-9
        eps_grid = np.linspace(eps_lo, 4.0 * (1.0 + theta) ** 2, 24)
        rho_hi = 0.5 / np.sqrt(kappa)
        rho_grid = np.linspace(rho_hi / 16.0, rho_hi, 16)
        region = find_feasible_region(theta, eps_grid, rho_grid, grid_points=256)
        region_sizes[kappa] = len(region.feasible)
        for cert in region.feasible:
            finer = verify_contraction(theta, cert.eps, cert.rho, grid_points=2560)
            if not (finer.valid and finer.worst_eig <= 1e-8):
                reverify_ok = False
        for cert in region.certificates:
            if cert.eps < theta**2 / (1.0 - cert.rho) and cert.valid:
                exclusion_ok = False
    elapsed = time.time() - t0
    nonempty_ok = all(size > 0 for size in region_sizes.values())
    ok = nonempty_ok and reverify_ok and exclusion_ok and elapsed < 30.0
    _report.record(
        4,
        ok,
        "region sizes {1: %d, 4: %d, 25: %d}, reverify %s, exclusion %s"
        % (region_sizes[1.0], region_sizes[4.0], region_sizes[25.0],
           "ok" if reverify_ok else "BAD", "ok" if exclusion_ok else "BAD"),
        elapsed,
    )
    assert reverify_ok
    assert exclusion_ok
    assert elapsed < 30.0
    # Empty at kappa in {4, 25}: the quadratic-Lyapunov family cannot
    # certify uniform contraction there (see notes on the alpha-bar
    # counterexample), so this is the criterion's honest failure.
    assert nonempty_ok, (
        f"feasible region empty: {region_sizes}; witness: at alpha_bar = 1 - 1/kappa "
        "the state (1+theta, 1) has V = eps and V+ = theta^2 + eps*(alpha_bar*(1+theta))^2, "
        "with alpha_bar*(1+theta) = "
        + ", ".join(f"{(1.0 - 1.0 / k) * (1.0 + theta_of(k)):.3g} at kappa={k:g}"
                    for k in (4.0, 25.0))
    )


def test_criterion_5_sdp_certificates():
    t0 = time.time()
    bounds = SectorBounds(gamma=0.1, beta=1.0)
    opts = SolverOptions()

    sgd_sys = lure_of(Sgd(1.0), bounds)
    sgd_res = solve_feasibility(sgd_sys, bounds, "sgd", options=opts)
    sgd_ok = sgd_res.status == FEASIBLE
    sgd_margins_ok = False
    slemma_worst = np.nan
    if sgd_ok:
        cert = sgd_res.certificate
        ver = verify_certificate(cert, sgd_sys, bounds, opts)
        sampled = s_lemma_cross_check(cert, sgd_sys, bounds, samples=100_000, seed=5)
        slemma_worst = sampled["max_violation"]
        sgd_margins_ok = (
            cert.lam >= 1e-6
            and ver.lmi_max_eig <= -1e-8
            and ver.ok
            and slemma_worst <= 1e-9
        )

    neg_sys = lure_of(Sgd(3.0), bounds)
    neg_res = solve_feasibility(neg_sys, bounds, "sgd", options=opts)
    neg_ok = neg_res.status != FEASIBLE

    nag_sys = lure_of(NagSmoothQuadratic(bounds), bounds)
    nag_res = solve_feasibility(nag_sys, bounds, "nag-sq", options=opts)
    nag_ok = nag_res.status == FEASIBLE

    elapsed = time.time() - t0
    ok = sgd_ok and sgd_margins_ok and neg_ok and nag_ok and elapsed < 120.0
    _report.record(
        5,
        ok,
        f"sgd {sgd_res.status} (s-lemma {slemma_worst:.1e}), "
        f"eta=3/beta {neg_res.status}, nag-sq {nag_res.status} "
        f"(best violation {nag_res.best_violation:+.2e})",
        elapsed,
    )
    assert sgd_ok and sgd_margins_ok
    assert neg_ok
    assert elapsed < 120.0
    # Strong monotonicity and co-coercivity alone lose the NAG case at
    # kappa = 10 (feasible only up to kappa ~5); the sector product
    # multiplier recovers it (feasible through kappa = 10, Infeasible
    # with a verified dual witness from 12 up).
    assert nag_ok, f"nag-sq at kappa=10: {nag_res.status}"


def test_criterion_6_slope_vs_n():
    t0 = time.time()
    base = synthetic_dataset(600, 64, 1.0, seed=23)
    result = stability_vs_n(base, ExperimentConfig())
    slope = result.fit.slope
    elapsed = time.time() - t0
    ok = -0.75 <= slope <= -0.25 and elapsed < 300.0
    _report.record(6, ok, f"log-log slope vs n = {slope:.3f} (target [-0.75, -0.25])", elapsed)
    assert -0.75 <= slope <= -0.25
    assert elapsed < 300.0


def test_criterion_7_growth_vs_t():
    t0 = time.time()
    base = synthetic_dataset(600, 64, 1.0, seed=23)
    result = stability_vs_t(base, ExperimentConfig())
    elapsed = time.time() - t0
    pre_plateau = result.fit_region == result.checkpoints and result.t_half > max(result.checkpoints)
    ok = (
        0.3 <= result.loglog.slope <= 0.7
        and result.sat_r2 >= 0.9
        and pre_plateau
        and elapsed < 300.0
    )
    _report.record(
        7,
        ok,
        f"slope {result.loglog.slope:.3f} in [0.3, 0.7], saturating fit r2 {result.sat_r2:.3f}, "
        f"T_half {result.t_half:.0f}",
        elapsed,
    )
    assert pre_plateau
    assert 0.3 <= result.loglog.slope <= 0.7
    assert result.sat_r2 >= 0.9
    assert elapsed < 300.0


def test_criterion_8_bound_limits():
    t0 = time.time()
    rng = np.random.default_rng(88)
    worst = 0.0
    big_t = 10**9
    for _ in range(5):
        g = rng.uniform(0.5, 5.0)
        gamma = rng.uniform(0.01, 1.0)
        kappa = rng.uniform(1.5, 100.0)
        beta = gamma * kappa
        n = int(rng.integers(10, 100_000))
        rho = rng.uniform(0.05, 0.9)
        bounds = SectorBounds(gamma=gamma, beta=beta)

        got = nag_stability_bound(g, bounds, n, big_t, rho=rho).param
        want = 4.0 * g * kappa**0.25 / (beta * np.sqrt(n))
        worst = max(worst, abs(got - want) / want)

        got = sgd_stability_bound(g, SectorBounds(gamma=gamma, beta=beta), n)
        want = 2.0 * g * g / (gamma * n)
        worst = max(worst, abs(got - want) / want)

        got = cjy_bound(bounds, n, big_t)
        want = 4.0 * beta**2 / (gamma * n)
        worst = max(worst, abs(got - want) / want)

        limit = nag_stability_limit(g, bounds, n).param
        assert abs(limit - 4.0 * g * kappa**0.25 / (beta * np.sqrt(n))) <= 1e-12 * want
        assert abs(cjy_limit(bounds, n) - 4.0 * beta**2 / (gamma * n)) <= 1e-12 * want
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report.record(8, ok, f"three T->inf limits, worst rel err {worst:.2e}", elapsed)
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_9_oracle_equivalences():
    t0 = time.time()
    bounds = SectorBounds(gamma=0.1, beta=1.0)
    spec = NagSmoothQuadratic(bounds)
    theta = theta_of(bounds.kappa)
    system = lure_of(spec, bounds)
    step = step_rule(spec)
    rng = np.random.default_rng(99)
    worst_traj = 0.0
    for _ in range(100):
        h = rng.uniform(bounds.gamma, bounds.beta)
        x = rng.normal(size=2)
        # Feedback state is (xi_t, xi_{t-1}); the step state is
        # w = x[0] and v = x[0] - x[1], and its query point
        # w + theta v is C x.
        state = OptimizerState(w=np.array([x[0]]), v=np.array([x[0] - x[1]]))
        for _ in range(100):
            u = h * float(system.c[0] @ x)
            x = system.a @ x + system.b[:, 0] * u
            state = step(state, lambda p: h * p)
            worst_traj = max(
                worst_traj,
                abs(float(system.c[0] @ x) - (state.w[0] + theta * state.v[0])),
                abs(x[0] - state.w[0]),
            )
    assert worst_traj <= 1e-10

    worst_fd = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 8))
        w = rng.normal(size=dim)
        xs = rng.normal(size=dim)
        y = 1.0 if rng.random() < 0.5 else -1.0
        lam = 10 ** rng.uniform(-4, -1)
        g = reg_logistic_grad(w, xs, y, lam)[1]
        h = 1e-6
        fd = np.zeros(dim)
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            fd[k] = (reg_logistic_loss(w + e, xs, y, lam) - reg_logistic_loss(w - e, xs, y, lam)) / (2 * h)
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - g))))
    assert worst_fd <= 1e-6

    worst_m = 0.0
    for _ in range(200):
        theta = rng.uniform(0.0, 0.95)
        rho = rng.uniform(1e-4, 0.5)
        alpha = rng.uniform(0.0, 1.0)
        a_ = rng.uniform(0.1, 4.0)
        b_ = rng.uniform(0.1, 4.0)
        c_ = rng.uniform(-2.0, 2.0)
        p = np.array([[a_, c_], [c_, b_]])
        m = assemble_m_alpha(p, theta, rho, alpha)
        s = a_ * (1.0 + theta) ** 2 + 2.0 * c_ * (1.0 + theta) + b_
        d1 = alpha * alpha * s - (1.0 - rho) * a_
        d2 = a_ * theta * theta - (1.0 - rho) * b_
        worst_m = max(worst_m, abs(m[0, 0] - d1), abs(m[1, 1] - d2))
    assert worst_m <= 1e-12

    elapsed = time.time() - t0
    ok = worst_traj <= 1e-10 and worst_fd <= 1e-6 and worst_m <= 1e-12 and elapsed < 30.0
    _report.record(
        9,
        ok,
        f"lure-vs-step {worst_traj:.1e}, grad FD {worst_fd:.1e}, m-alpha {worst_m:.1e}",
        elapsed,
    )
    assert elapsed < 30.0
