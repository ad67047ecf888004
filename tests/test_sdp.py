import dataclasses
import warnings

import numpy as np
import pytest

from stabcert.iqc import (
    IqcCertificate,
    assemble_lmi,
    sector_lift,
    sector_multipliers,
    sector_product_multiplier,
)
from stabcert.optimizers import (
    HeavyBall,
    NagSmoothQuadratic,
    SectorBounds,
    Sgd,
    lure_of,
)
from stabcert.sdp import (
    FEASIBLE,
    INFEASIBLE,
    SolverOptions,
    _lockstep,
    _phi_and_grad,
    _Problem,
    certify_rate,
    s_lemma_cross_check,
    solve_feasibility,
    verify_certificate,
)

FAST = SolverOptions(restarts=4, max_iters=8000, patience=800)


def test_sgd_unit_step_is_feasible():
    sb = SectorBounds(0.1, 1.0)
    res = solve_feasibility(lure_of(Sgd(1.0), sb), sb, "sgd", options=FAST)
    assert res.status == FEASIBLE
    cert = res.certificate
    assert cert is not None
    assert cert.lmi_max_eig <= -1e-8
    assert cert.p_min_eig >= 1e-8
    assert cert.lam >= 1e-6
    assert cert.tau1 >= 0.0 and cert.tau2 >= 0.0


def test_sgd_triple_step_is_not_feasible():
    # eta = 3/beta leaves the sector's upper edge expanding; no P exists.
    sb = SectorBounds(0.1, 1.0)
    res = solve_feasibility(lure_of(Sgd(3.0), sb), sb, "sgd", options=FAST)
    assert res.status != FEASIBLE
    assert res.certificate is None
    assert res.best_violation > 0.0


def test_nag_gentle_conditioning_feasible():
    for kappa in (2.0, 4.0):
        sb = SectorBounds(1.0 / kappa, 1.0)
        system = lure_of(NagSmoothQuadratic(sb), sb)
        res = solve_feasibility(system, sb, "nag-sq", options=FAST)
        assert res.status == FEASIBLE, f"kappa={kappa}: {res.status}"
        # the returned certificate must survive both independent checks
        report = verify_certificate(res.certificate, system, sb)
        assert report.ok
        sampled = s_lemma_cross_check(res.certificate, system, sb, samples=20_000)
        assert sampled["ok"]


def test_solver_is_deterministic():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    a = solve_feasibility(system, sb, "sgd", options=FAST)
    b = solve_feasibility(system, sb, "sgd", options=FAST)
    assert a.status == b.status
    np.testing.assert_array_equal(a.certificate.p, b.certificate.p)
    assert a.certificate.lam == b.certificate.lam
    assert a.certificate.tau1 == b.certificate.tau1
    assert a.certificate.tau2 == b.certificate.tau2


@pytest.mark.parametrize(
    "spec, rho",
    [
        (Sgd(3.0), 0.0),
        (HeavyBall(eta=1.0, mu=0.1), 0.5),
        (NagSmoothQuadratic(SectorBounds(0.1, 1.0)), 0.3),
        (NagSmoothQuadratic(SectorBounds(0.1, 1.0)), 0.0),
    ],
    ids=["sgd", "heavyball", "nag-sq", "nag-sq-first-wins"],
)
def test_lockstep_equals_one_restart_at_a_time(spec, rho):
    # Every row of the lockstep search must follow, bitwise, the path its
    # restart follows alone.  The first three cases sit above what the
    # LMI certifies, so all six restarts run to their own ends; in the
    # last one a later restart turns feasible first and the lower ones
    # still run on, as they would one at a time.
    sb = SectorBounds(0.1, 1.0)
    prob = _Problem(lure_of(spec, sb), sb, rho, with_lam=rho == 0.0)
    opts = SolverOptions(restarts=6, max_iters=3000, patience=300)
    batch = _lockstep(prob, range(6), opts)
    assert list(batch) == list(range(len(batch)))
    winners = [r for r, res in batch.items() if res[1] < 0.0]
    assert winners == [max(batch)] or (winners == [] and len(batch) == 6)
    assert len({res[2] for res in batch.values()}) > 1
    for r, (v, phi, iters, stalled) in batch.items():
        v_alone, phi_alone, iters_alone, stalled_alone = _lockstep(prob, [r], opts)[r]
        np.testing.assert_array_equal(v, v_alone)
        assert (phi, iters, stalled) == (phi_alone, iters_alone, stalled_alone)


@pytest.mark.parametrize(
    "spec",
    [Sgd(0.7), HeavyBall(eta=0.5, mu=0.3), NagSmoothQuadratic(SectorBounds(0.1, 1.0))],
    ids=["sgd", "heavyball", "nag-sq"],
)
def test_subgradient_matches_entrywise_formula(spec):
    # Reference: the entrywise subgradient of the extreme eigenvalues,
    # on the LMI built by assemble_lmi.  For the LMI branch, with
    # x = q[:s] and u = F q, d/dP_ij is u_i u_j - (1 - rho) x_i x_j
    # (twice that off the diagonal), d/dlam is |x|^2 and d/dtau_m is
    # q^T J^T Pi_m J q; for the P branch, d/dP_ij is -w_i w_j (twice
    # that off the diagonal).  The last two rows have a negative definite
    # P and no multipliers, so P's bound binds there.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    rho = 0.05
    prob = _Problem(system, sb, rho, with_lam=True)
    opts = SolverOptions()
    s = system.state_dim
    rng = np.random.default_rng(5)
    v = rng.uniform(0.1, 2.0, size=(6, prob.n_p + 4))
    for row in v[4:]:
        raw = rng.normal(size=(s, s))
        row[: prob.n_p] = -(raw @ raw.T + 0.5 * np.eye(s))[prob.vech]
        row[prob.n_p :] = 0.0
    phi, grad = _phi_and_grad(prob, v, opts)
    f = np.hstack([system.a, system.b])
    j = sector_lift(system)
    pis = (*sector_multipliers(sb), sector_product_multiplier(sb))
    for row, g in zip(v, grad):
        p = row[prob.p_index]
        lam, tau1, tau2, tau3 = row[prob.n_p :]
        vals, vecs = np.linalg.eigh(assemble_lmi(system, sb, p, lam, tau1, tau2, rho, tau3))
        p_vals, p_vecs = np.linalg.eigh(p)
        want = np.zeros_like(row)
        if vals[-1] + opts.feas_margin >= opts.p_tol - p_vals[0]:
            q = vecs[:, -1]
            x, u = q[:s], f @ q
            outer = np.outer(u, u) - (1.0 - rho) * np.outer(x, x)
            want[-4] = x @ x
            want[-3:] = [q @ j.T @ pi @ j @ q for pi in pis]
        else:
            w = p_vecs[:, 0]
            outer = -np.outer(w, w)
        for k, (a, b) in enumerate(zip(*prob.vech)):
            want[k] = outer[a, b] * (1.0 if a == b else 2.0)
        np.testing.assert_allclose(g, want, rtol=1e-10, atol=1e-12)
    assert np.all(grad[4:, prob.n_p :] == 0.0) and np.any(grad[:4, prob.n_p :] != 0.0)


@pytest.mark.parametrize(
    "name, value",
    [
        ("restarts", 0),
        ("max_iters", 0),
        ("patience", 0),
        ("check_samples", 0),
        ("feas_margin", -1e-9),
        ("stall_tol", -1.0),
        ("infeasible_margin", float("nan")),
        ("step_cap", 0.0),
    ],
)
def test_solver_options_validates_fields(name, value):
    with pytest.raises(ValueError, match=f"SolverOptions.{name} "):
        SolverOptions(**{name: value})


def test_verify_certificate_rejects_corruption():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    res = solve_feasibility(system, sb, "sgd", options=FAST)
    good = res.certificate
    assert verify_certificate(good, system, sb)  # truthy on pass
    bad = IqcCertificate(
        optimizer=good.optimizer,
        gamma=good.gamma,
        beta=good.beta,
        p=-good.p,  # sign flip destroys positive definiteness
        lam=good.lam,
        tau1=good.tau1,
        tau2=good.tau2,
        rho=good.rho,
        lmi_max_eig=good.lmi_max_eig,
        p_min_eig=good.p_min_eig,
        status=good.status,
        solver_seed=good.solver_seed,
    )
    check = verify_certificate(bad, system, sb)
    assert not check  # falsy on failure
    assert check.p_min_eig < 0.0


def test_certificate_scale_invariance():
    # The LMI is jointly homogeneous in (P, lambda, tau1, tau2, tau3):
    # scaling a valid certificate by 10 must still verify.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    good = solve_feasibility(system, sb, "sgd", options=FAST).certificate
    scaled = IqcCertificate(
        optimizer=good.optimizer,
        gamma=good.gamma,
        beta=good.beta,
        p=10.0 * good.p,
        lam=10.0 * good.lam,
        tau1=10.0 * good.tau1,
        tau2=10.0 * good.tau2,
        rho=good.rho,
        lmi_max_eig=10.0 * good.lmi_max_eig,
        p_min_eig=10.0 * good.p_min_eig,
        status=good.status,
        solver_seed=good.solver_seed,
        tau3=10.0 * good.tau3,
    )
    check = verify_certificate(scaled, system, sb)
    assert check.ok
    assert check.lmi_max_eig == pytest.approx(10.0 * good.lmi_max_eig, rel=1e-9)
    assert s_lemma_cross_check(scaled, system, sb)["ok"]


def test_sampling_check_detects_out_of_sector_responses():
    # A certificate sound on [gamma, beta] must fail once the sampled
    # curvatures are drawn from far above the sector.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    cert = solve_feasibility(system, sb, "sgd", options=FAST).certificate
    inside = s_lemma_cross_check(cert, system, sb)
    assert inside["ok"]
    outside = s_lemma_cross_check(
        cert, system, sb, h_low=2.0 * sb.beta, h_high=3.0 * sb.beta
    )
    assert not outside["ok"]
    assert outside["max_violation"] > 0.0


def test_solve_feasibility_validates_rho():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    with pytest.raises(ValueError):
        solve_feasibility(system, sb, rho=1.0)
    with pytest.raises(ValueError):
        solve_feasibility(system, sb, rho=-0.1)


def test_certify_rate_sgd_matches_sector_geometry():
    # With the lambda term dropped, rho in the LMI multiplies V directly.
    # For eta = 1/beta the update is x+ = (1 - h/beta) x, so V shrinks by
    # (1 - h/beta)^2 and the slow edge h = gamma sets the supremum
    # 1 - (1 - gamma/beta)^2 = 2/kappa - 1/kappa^2 (0.19 for this
    # sector).  The sector product multiplier makes the scalar
    # S-procedure lossless, so the LMI reaches it.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    res = certify_rate(system, sb, "sgd", tol=5e-4)
    assert res.status == "Certified"
    assert res.rho_star == pytest.approx(1 - (1 - 0.1) ** 2, abs=5e-3)
    assert res.certificate is not None
    assert res.certificate.rho == pytest.approx(res.rho_star)
    # every probe at or below rho_star must have been Feasible
    for rho, status in res.tested:
        if rho <= res.rho_star:
            assert status == FEASIBLE


def test_certify_rate_range_errors():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    with pytest.raises(ValueError):
        certify_rate(system, sb, rho_low=0.0)
    with pytest.raises(ValueError):
        certify_rate(system, sb, rho_low=0.5, rho_high=0.4)


def test_infeasible_status_for_stalled_positive_residual():
    # eta = 3/beta stalls clearly positive; with a budget generous enough
    # to stall everywhere, the verdict is the operational Infeasible.
    sb = SectorBounds(0.1, 1.0)
    res = solve_feasibility(
        lure_of(Sgd(3.0), sb),
        sb,
        "sgd",
        options=SolverOptions(restarts=4, max_iters=12_000, patience=900),
    )
    assert res.status == INFEASIBLE
    assert res.best_violation > 1e-4
    assert all(t.stalled for t in res.traces)


@pytest.mark.parametrize(
    "spec",
    [Sgd(0.7), HeavyBall(eta=0.5, mu=0.3), NagSmoothQuadratic(SectorBounds(0.1, 1.0))],
    ids=["sgd", "heavyball", "nag-sq"],
)
@pytest.mark.parametrize("rho", [0.0, 0.05])
def test_problem_lmi_matches_assemble_lmi(spec, rho):
    # The solver's precomputed affine map must build the reference LMI.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    prob = _Problem(system, sb, rho, with_lam=True)
    rng = np.random.default_rng(11)
    s = system.state_dim
    for _ in range(20):
        raw = rng.normal(size=(s, s))
        p = raw @ raw.T + 0.1 * np.eye(s)
        lam, tau1, tau2, tau3 = rng.uniform(0.0, 2.0, size=4)
        want = assemble_lmi(system, sb, p, lam, tau1, tau2, rho, tau3)
        np.testing.assert_allclose(prob.lmi(p, lam, tau1, tau2, tau3), want,
                                   rtol=1e-13, atol=1e-13)


def test_projection_bounds_multiplier_drift():
    # The LMI is homogeneous in the whole tuple; rescaling on trace(P)
    # alone lets the multipliers run off until the matrix products
    # overflow, here on certify_rate's rho = 0.999 probe and on the
    # eta = 3/beta control.
    sb = SectorBounds(0.1, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rate = certify_rate(
            lure_of(Sgd(1.0), sb),
            sb,
            "sgd",
            options=SolverOptions(seed=7, restarts=6, max_iters=20_000, patience=1200),
        )
        neg = solve_feasibility(lure_of(Sgd(3.0), sb), sb, "sgd")
    assert rate.status == "Certified"
    assert rate.rho_star == pytest.approx(1 - (1 - 0.1) ** 2, abs=5e-3)
    assert neg.status != FEASIBLE
    assert np.isfinite(neg.best_violation)


def test_nag_product_multiplier_certifies_kappa_10():
    # Without the sector product multiplier this LMI is infeasible at
    # kappa = 10; with it a certificate exists and tau3 carries it.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(NagSmoothQuadratic(sb), sb)
    res = solve_feasibility(system, sb, "nag-sq")
    assert res.status == FEASIBLE
    cert = res.certificate
    assert cert.tau3 > 0.0
    check = verify_certificate(cert, system, sb)
    assert check.ok and check.tau3 == cert.tau3
    without = dataclasses.replace(cert, tau3=0.0)
    assert not verify_certificate(without, system, sb)


def test_verify_certificate_rejects_negative_tau3():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    good = solve_feasibility(system, sb, "sgd", options=FAST).certificate
    assert verify_certificate(good, system, sb)
    bad = dataclasses.replace(good, tau3=-1e-3)
    check = verify_certificate(bad, system, sb)
    assert not check
    assert check.tau3 == -1e-3
