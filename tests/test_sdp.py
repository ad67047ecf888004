import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from stabcert.iqc import (
    IqcCertificate,
    assemble_lmi,
    sector_lift,
    sector_product_multiplier,
)
from stabcert.lyapunov import fixed_curvature_rate, one_step_rate
from stabcert.optimizers import (
    HeavyBall,
    LureSystem,
    NagSmoothQuadratic,
    NagStandard,
    SectorBounds,
    Sgd,
    TripleMomentum,
    TwoStep,
    lure_of,
)
from stabcert import sdp
from stabcert.sdp import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    FeasibilityResult,
    SolverOptions,
    _Problem,
    certify_rate,
    s_lemma_cross_check,
    solve_feasibility,
    verify_certificate,
    verify_infeasibility,
)

FAST = SolverOptions(max_iters=8000)


def test_sgd_unit_step_is_feasible():
    sb = SectorBounds(0.1, 1.0)
    res = solve_feasibility(lure_of(Sgd(1.0), sb), sb, "sgd", options=FAST)
    assert res.status == FEASIBLE
    cert = res.certificate
    assert cert is not None
    assert cert.lmi_max_eig <= -1e-8
    assert cert.p_min_eig >= 1e-8
    assert cert.lam >= 1e-6
    assert cert.tau >= 0.0


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
    assert a.certificate.tau == b.certificate.tau


@pytest.mark.parametrize(
    "spec",
    [Sgd(0.7), HeavyBall(eta=0.5, mu=0.3), NagSmoothQuadratic(SectorBounds(0.1, 1.0))],
    ids=["sgd", "heavyball", "nag-sq"],
)
def test_subgradient_matches_entrywise_formula(spec):
    # The affine map the barrier differentiates: at the top eigenvector q
    # of the LMI built by assemble_lmi, the subgradient of lambda_max is
    # q^T L_k q = basis @ vec(q q^T).  Entrywise, with x = q[:s] and
    # u = F q, d/dP_ij is u_i u_j - (1 - rho) x_i x_j (twice that off the
    # diagonal) and d/dtau is q^T J^T Pi3 J q; for
    # lambda_min(P) at its bottom eigenvector w, d/dP_ij is w_i w_j.
    # The barrier blocks hold -LMI and P on the diagonal of F(v, t).
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    rho = 0.05
    prob = _Problem(system, sb, rho)
    s, d = system.state_dim, prob.d
    f = np.hstack([system.a, system.b])
    j = sector_lift(system)
    pi = sector_product_multiplier(sb)
    rng = np.random.default_rng(5)
    for row in rng.uniform(0.1, 2.0, size=(4, prob.n_p + 1)):
        p, tau = row[prob.p_index], row[-1]
        lmi = assemble_lmi(system, sb, p, 0.0, tau, rho)
        np.testing.assert_allclose((row @ prob.basis).reshape(d, d), lmi, rtol=1e-12, atol=1e-12)
        q = np.linalg.eigh(lmi)[1][:, -1]
        x, u = q[:s], f @ q
        outer = np.outer(u, u) - (1.0 - rho) * np.outer(x, x)
        want = np.zeros_like(row)
        for k, (a, b) in enumerate(zip(*prob.vech)):
            want[k] = outer[a, b] * (1.0 if a == b else 2.0)
        want[-1] = q @ j.T @ pi @ j @ q
        np.testing.assert_allclose(prob.basis @ np.outer(q, q).ravel(), want,
                                   rtol=1e-10, atol=1e-12)
        w = np.linalg.eigh(p)[1][:, 0]
        want_p = [np.outer(w, w)[a, b] * (1.0 if a == b else 2.0) for a, b in zip(*prob.vech)]
        np.testing.assert_allclose(prob.p_basis @ np.outer(w, w).ravel(), want_p,
                                   rtol=1e-10, atol=1e-12)
        t = -0.25
        big = np.tensordot(np.r_[row, t], prob.blocks, 1)
        np.testing.assert_allclose(big[:d, :d], -lmi - t * np.eye(d), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(big[d : d + s, d : d + s], p - t * np.eye(s), atol=1e-12)
        np.testing.assert_allclose(np.diag(big)[d + s :], [tau], atol=1e-12)


@pytest.mark.parametrize(
    "name, value",
    [
        ("restarts", 0),
        ("max_iters", 0),
        ("patience", 0),
        ("seed", -1),
    ],
)
def test_solver_options_validates_fields(name, value):
    with pytest.raises(ValueError, match=f"SolverOptions.{name} "):
        SolverOptions(**{name: value})


@pytest.mark.parametrize(
    "name, value",
    [("feas_margin", 0.0), ("p_tol", 0.0), ("lambda_min", 0.0), ("infeasible_margin", 0.0),
     ("check_samples", 10)],
)
def test_solver_options_cannot_loosen_the_verdict_rules(name, value):
    # The margins a verdict must clear and the sampling check's size are
    # fixed, not options.
    with pytest.raises(TypeError):
        SolverOptions(**{name: value})
    assert SolverOptions().check_samples == 10_000


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
        tau=good.tau,
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
    # The LMI is jointly homogeneous in (P, lambda, tau):
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
        tau=10.0 * good.tau,
        rho=good.rho,
        lmi_max_eig=10.0 * good.lmi_max_eig,
        p_min_eig=10.0 * good.p_min_eig,
        status=good.status,
        solver_seed=good.solver_seed,
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
    outside = s_lemma_cross_check(cert, system, SectorBounds(2.0 * sb.beta, 3.0 * sb.beta))
    assert not outside["ok"]
    assert outside["max_violation"] > 0.0


def test_sampled_slack_is_a_margin_at_most_lmi_max_eig():
    # Per unit ||x||^2 the sampled decrement is z^T LMI z minus nonnegative
    # sector terms, and ||z||^2 >= ||x||^2, so it cannot exceed the LMI's
    # top eigenvalue; solve_feasibility carries the check it ran.
    sb = SectorBounds(0.1, 1.0)
    for name, spec in (("sgd", Sgd(1.0)), ("heavyball", HeavyBall(eta=1.0, mu=0.3)),
                       ("nag-sq", NagSmoothQuadratic(sb))):
        system = lure_of(spec, sb)
        res = solve_feasibility(system, sb, name)
        assert res.status == FEASIBLE, name
        sampled = s_lemma_cross_check(res.certificate, system, sb)
        assert sampled["max_violation"] <= res.certificate.lmi_max_eig, name
        assert res.sampled == sampled


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


@pytest.mark.parametrize("tol", [0.0, -1e-4, math.nan, math.inf])
def test_certify_rate_rejects_a_tol_that_is_not_positive_and_finite(monkeypatch, tol):
    # tol <= 0 never closed the bracket once its ends were adjacent
    # floats, nan was blamed on rho and inf certified rho_low.  Each is
    # refused before any solve.
    sb = SectorBounds(0.1, 1.0)
    monkeypatch.setattr(sdp, "solve_feasibility", None)
    with pytest.raises(ValueError, match=rf"^tol must be positive and finite, got {tol}$"):
        certify_rate(lure_of(Sgd(1.0), sb), sb, tol=tol)


def test_newton_systems_own_their_arrays():
    # A Newton system built at a second iterate leaves the first intact.
    sb = SectorBounds(0.1, 1.0)
    prob = _Problem(lure_of(HeavyBall(1.0, 0.3), sb), sb, 0.0)
    x = prob.eq / (prob.s + 1)
    x[-1] = np.linalg.eigvalsh((x @ prob.flat).reshape(prob.dim, prob.dim))[0] - prob.dim
    first = sdp._newton_system(prob, *sdp._barrier(prob, x))
    kept = [a.copy() for a in first]
    step = sdp._newton_solve(first, 1.0)
    x = x + 0.5 * step[0]
    second = sdp._newton_system(prob, *sdp._barrier(prob, x))
    assert not any(np.shares_memory(a, b) for a in first for b in second)
    for a, b in zip(first, kept):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(sdp._newton_solve(first, 1.0), step):
        np.testing.assert_array_equal(a, b)


def test_infeasible_status_for_stalled_positive_residual():
    # eta = 3/beta ends with a clearly positive residual -t*; the verdict
    # is Infeasible because the dual point of that same solve verifies,
    # and the one trace carries the residual and a closed duality gap.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(3.0), sb)
    res = solve_feasibility(
        system,
        sb,
        "sgd",
        options=SolverOptions(max_iters=12_000),
    )
    assert res.status == INFEASIBLE
    assert res.best_violation > 1e-4
    assert [t.best_violation for t in res.traces] == [res.best_violation]
    assert all(0 < t.iterations <= 12_000 and t.gap <= 1e-6 for t in res.traces)
    assert verify_infeasibility(res.witness, system, sb)


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
    prob = _Problem(system, sb, rho)
    rng = np.random.default_rng(11)
    s, d = system.state_dim, prob.d
    for _ in range(20):
        raw = rng.normal(size=(s, s))
        p = raw @ raw.T + 0.1 * np.eye(s)
        tau = rng.uniform(0.0, 2.0)
        want = assemble_lmi(system, sb, p, 0.0, tau, rho)
        v = np.concatenate([p[prob.vech], [tau]])
        np.testing.assert_allclose((v @ prob.basis).reshape(d, d), want, rtol=1e-13, atol=1e-13)


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
            options=SolverOptions(seed=7, max_iters=20_000),
        )
        neg = solve_feasibility(lure_of(Sgd(3.0), sb), sb, "sgd")
    assert rate.status == "Certified"
    assert rate.rho_star == pytest.approx(1 - (1 - 0.1) ** 2, abs=5e-3)
    assert neg.status != FEASIBLE
    assert np.isfinite(neg.best_violation)


def test_nag_product_multiplier_certifies_kappa_10():
    # Without the sector product multiplier this LMI is infeasible at
    # kappa = 10; with it a certificate exists and tau carries it.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(NagSmoothQuadratic(sb), sb)
    res = solve_feasibility(system, sb, "nag-sq")
    assert res.status == FEASIBLE
    cert = res.certificate
    assert cert.tau > 0.0
    check = verify_certificate(cert, system, sb)
    assert check.ok
    without = dataclasses.replace(cert, tau=0.0)
    assert not verify_certificate(without, system, sb)


# Plain solve_feasibility verdicts on gamma = 0.1 at kappa 1, 2, 4, 10, 12
# and 25, as the three-multiplier LMI (strong monotonicity, co-coercivity
# and the sector product form) decided them.  F: Feasible, I: Infeasible,
# ?: Inconclusive (sgd at eta = 3/beta on gamma = beta).
_VERDICT_KAPPAS = (1, 2, 4, 10, 12, 25)
_VERDICTS = {
    "sgd": (lambda sb: Sgd(1.0 / sb.beta), "FFFFFF"),
    "sgd-3": (lambda sb: Sgd(3.0 / sb.beta), "?IIIII"),
    "heavyball": (lambda sb: HeavyBall(1.0 / sb.beta, 0.3), "FFFFFF"),
    "nag": (lambda sb: NagStandard(1.0 / sb.beta, 0.5), "FFFFFI"),
    "nag-sq": (NagSmoothQuadratic, "FFFFII"),
    "tmm": (TripleMomentum, "FFFIII"),
}


@pytest.mark.parametrize("name", _VERDICTS)
def test_one_multiplier_keeps_the_verdict_table(name):
    make, want = _VERDICTS[name]
    got = ""
    for kappa in _VERDICT_KAPPAS:
        sb = SectorBounds(0.1, 0.1 * kappa)
        status = solve_feasibility(lure_of(make(sb), sb), sb, name).status
        got += {FEASIBLE: "F", INFEASIBLE: "I", INCONCLUSIVE: "?"}[status]
    assert got == want


@pytest.mark.parametrize("gamma, beta", [(0.01, 0.1), (0.1, 1.0), (1.0, 10.0), (100.0, 1000.0)])
@pytest.mark.parametrize("name", ["sgd", "heavyball", "nag-sq"])
def test_plain_lambda_is_half_the_margin_in_any_units(name, gamma, beta):
    # Plain solves and rate probes share one LMI; a plain certificate then
    # takes lambda = t/2 in the caller's units, which keeps its LMI below
    # -t/2 (sdp's module docstring), and a rate certificate none.
    sb = SectorBounds(gamma, beta)
    system = lure_of(_VERDICTS[name][0](sb), sb)
    res = solve_feasibility(system, sb, name)
    assert res.status == FEASIBLE
    cert, margin = res.certificate, -res.best_violation
    assert cert.lam == 0.5 * margin * max(1.0, beta * beta)
    assert cert.lmi_max_eig <= -margin / 2
    assert cert.lam >= 1e-6
    rate = solve_feasibility(system, sb, name, rho=1e-3)
    assert rate.status == FEASIBLE and rate.certificate.lam == 0.0


def test_verify_certificate_rejects_negative_tau3():
    # The id keeps tau3, the earlier name of tau, so test ids stay stable.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    good = solve_feasibility(system, sb, "sgd", options=FAST).certificate
    assert verify_certificate(good, system, sb)
    bad = dataclasses.replace(good, tau=-1e-3)
    check = verify_certificate(bad, system, sb)
    assert not check


@pytest.mark.parametrize("kappa", [2.0, 4.0, 10.0])
def test_sgd_triple_step_has_a_verified_witness(kappa):
    # eta = 3/beta: x+ = (1 - 3h/beta) x leaves [-1, 1] at h = beta, so
    # no certificate exists and the dual point must prove it.
    sb = SectorBounds(1.0 / kappa, 1.0)
    system = lure_of(Sgd(3.0), sb)
    res = solve_feasibility(system, sb, "sgd")
    assert res.status == INFEASIBLE
    assert res.certificate is None
    check = verify_infeasibility(res.witness, system, sb)
    assert check.ok
    assert check.bound < 0.0 and check.z1_min_eig >= 0.0 and check.z2_min_eig >= 0.0


def test_corrupted_witness_fails_the_check():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(3.0), sb)
    witness = solve_feasibility(system, sb, "sgd").witness
    assert verify_infeasibility(witness, system, sb)
    negated = verify_infeasibility(dataclasses.replace(witness, z1=-witness.z1), system, sb)
    assert not negated and negated.z1_min_eig < 0.0
    # Still PSD, but off the stationarity equations: the residuals must count.
    shifted = dataclasses.replace(witness, z2=witness.z2 + np.eye(len(witness.z2)))
    assert not verify_infeasibility(shifted, system, sb)


@pytest.mark.parametrize("kappa", [12.0, 16.0, 25.0])
def test_nag_beyond_the_sector_lmi_is_infeasible_with_a_witness(kappa):
    # The pointwise sector LMI for nag-sq ends near kappa = 11.66.
    sb = SectorBounds(1.0 / kappa, 1.0)
    system = lure_of(NagSmoothQuadratic(sb), sb)
    res = solve_feasibility(system, sb, "nag-sq")
    assert res.status == INFEASIBLE
    assert verify_infeasibility(res.witness, system, sb)


def test_feasible_result_carries_no_witness():
    sb = SectorBounds(0.1, 1.0)
    res = solve_feasibility(lure_of(Sgd(1.0), sb), sb, "sgd")
    assert res.status == FEASIBLE and res.witness is None
    assert res.certificate.newton_steps == res.traces[0].iterations > 0


@pytest.mark.parametrize("spec", [Sgd(1.0), NagSmoothQuadratic(SectorBounds(1.0, 1.0))],
                         ids=["sgd", "nag-sq"])
def test_degenerate_sector_is_feasible(spec):
    # At gamma = beta the multiplier terms have a direction along which the
    # LMI only improves; normalizing them with P keeps the solve bounded.
    sb = SectorBounds(1.0, 1.0)
    assert solve_feasibility(lure_of(spec, sb), sb).status == FEASIBLE


def _scaled_specs(name, bounds):
    if name == "sgd":
        return Sgd(1.0 / bounds.beta)
    if name == "heavyball":
        return HeavyBall(eta=1.0 / bounds.beta, mu=0.3)
    return NagSmoothQuadratic(bounds)


@pytest.mark.parametrize("name", ["sgd", "heavyball", "nag-sq"])
def test_verdicts_do_not_depend_on_sector_units(name):
    # (gamma, beta) -> (c gamma, c beta) with eta * beta fixed is the same
    # optimizer in other units, so it must get the same verdict and rate.
    tol = 1e-4
    for kappa in (10.0, 12.0, 25.0):
        verdicts, rates = set(), []
        for c in (0.04, 1.0, 25.0):
            sb = SectorBounds(c / kappa, c)
            system = lure_of(_scaled_specs(name, sb), sb)
            verdicts.add(solve_feasibility(system, sb, name).status)
            rates.append(certify_rate(system, sb, name, tol=tol).rho_star)
        assert len(verdicts) == 1, f"kappa={kappa}: {verdicts}"
        if None in rates:  # Infeasible-at-range in one unit, so in every unit
            assert rates == [None] * 3, f"kappa={kappa}: {rates}"
        else:
            assert max(rates) - min(rates) <= tol, f"kappa={kappa}: {rates}"


def test_certify_rate_sgd_is_exact():
    # The exact supremum is 1 - (1 - 1/kappa)^2 = 0.19; a probe above it
    # cannot verify, and the search ends within twice its tol.
    sb = SectorBounds(0.1, 1.0)
    res = certify_rate(lure_of(Sgd(1.0), sb), sb, "sgd")
    assert 0.19 - 2e-4 <= res.rho_star <= 0.19


@pytest.mark.parametrize(
    "spec, floor",
    [(HeavyBall(eta=1.0, mu=0.3), 0.120878),
     (NagSmoothQuadratic(SectorBounds(0.1, 1.0)), 0.0644822)],
    ids=["heavyball", "nag-sq"],
)
def test_certify_rate_loses_nothing(spec, floor):
    # The rates the projected-subgradient search certified on [0.1, 1].
    sb = SectorBounds(0.1, 1.0)
    res = certify_rate(lure_of(spec, sb), sb)
    assert res.status == "Certified"
    assert res.rho_star >= floor


_RATE_SPECS = [Sgd(1.0), HeavyBall(eta=1.0, mu=0.3), NagSmoothQuadratic(SectorBounds(0.1, 1.0))]
_RATE_IDS = ["sgd", "heavyball", "nag-sq"]


def _bisect_rate(system, sb, rho_low=1e-4, rho_high=0.999, tol=1e-4):
    # Plain bisection that never reads the reference, kept as an oracle.
    def feasible(rho):
        return solve_feasibility(system, sb, rho=rho).status == FEASIBLE

    assert feasible(rho_low) and not feasible(rho_high)
    lo, hi = rho_low, rho_high
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("spec", _RATE_SPECS, ids=_RATE_IDS)
def test_rate_search_brackets_rho_star_in_few_probes(spec):
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    tol = 1e-4
    res = certify_rate(system, sb, tol=tol)
    assert res.status == "Certified"
    assert res.certificate.rho == res.rho_star
    assert all(status == FEASIBLE for rho, status in res.tested if rho <= res.rho_star)
    assert any(status != FEASIBLE and res.rho_star < rho <= res.rho_star + tol
               for rho, status in res.tested)
    assert abs(res.rho_star - _bisect_rate(system, sb, tol=tol)) <= tol
    assert len(res.tested) <= 10  # bisection takes 16


@pytest.mark.parametrize(
    "spec, fixed",
    list(zip(_RATE_SPECS, (0.19, 0.286061, 0.532456))),
    ids=_RATE_IDS,
)
def test_certified_rate_never_beats_a_fixed_curvature(spec, fixed):
    # A certificate covers every curvature sequence, the fixed ones too,
    # so rho* cannot exceed the single-curvature rate beyond the search's
    # tol.  sgd meets it: its LMI rate is exact.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    tol = 1e-4
    rate = fixed_curvature_rate(system, sb)
    assert rate == pytest.approx(fixed, abs=1e-6)
    assert certify_rate(system, sb, tol=tol).rho_star <= rate + tol


def _monotone_margins(root, below, above, band):
    # A stand-in for solve_feasibility whose margin is t = below * (root -
    # rho) up to root and above * (root - rho) past it: Feasible up to root,
    # then Inconclusive with a positive margin for band more, then
    # Infeasible.  The certificate is the probed rho.  A search that
    # stops shrinking fails here instead of running on.
    probes = []

    def solve(system, bounds, name, rho, options):
        probes.append(rho)
        assert len(probes) <= 1000, "the rate search does not converge"
        if rho <= root:
            return FeasibilityResult(FEASIBLE, rho, -below * (root - rho))
        if rho <= root + band:
            return FeasibilityResult(INCONCLUSIVE, None, -1e-3)
        return FeasibilityResult(INFEASIBLE, None, -above * (root - rho))

    return solve


@pytest.mark.parametrize("root", [3e-4, 0.3, 0.998])
@pytest.mark.parametrize(
    "below, above, band",
    [(1.0, 1.0, 0.0), (1.0, 1e6, 0.0), (1e6, 1e-9, 0.0), (1e-9, 1e6, 0.0),
     (1.0, 1.0, 0.05), (1e6, 1e-9, 0.3)],
    ids=["linear", "kinked", "skewed-high", "skewed-low", "inconclusive", "skewed-inconclusive"],
)
@pytest.mark.parametrize("tol", [1e-4, 1e-7])
def test_rate_search_survives_pathological_margins(monkeypatch, root, below, above, band, tol):
    monkeypatch.setattr(sdp, "solve_feasibility", _monotone_margins(root, below, above, band))
    sb = SectorBounds(0.1, 1.0)
    rho_low, rho_high = 1e-4, 0.999
    res = certify_rate(lure_of(Sgd(1.0), sb), sb, rho_low=rho_low, rho_high=rho_high, tol=tol)
    assert res.status == "Certified"
    assert res.rho_star <= root and res.certificate == res.rho_star
    rejected = [rho for rho, status in res.tested if status != FEASIBLE]
    assert min(rejected) - res.rho_star <= tol
    assert all(rho > root for rho in rejected)
    # the count without a reference, stated in certify_rate's docstring:
    # sgd's reference 0.19, wrong for these margins, leaves a bracket too
    # narrow to need the one probe more it may cost
    assert len(res.tested) <= 2 + math.ceil(math.log2((rho_high - rho_low) / tol))


@pytest.mark.parametrize("status, margin", [(INFEASIBLE, -1.0), (INCONCLUSIVE, 1.0)])
def test_rate_search_step_margin_halves_like_bisection(monkeypatch, status, margin):
    # The search reads only the statuses, so a margin that only has a sign,
    # or an Inconclusive hi with the same margin as lo, still bisects.
    def solve(system, bounds, name, rho, options):
        return (FeasibilityResult(FEASIBLE, rho, -1.0) if rho <= 0.3
                else FeasibilityResult(status, None, -margin))

    monkeypatch.setattr(sdp, "solve_feasibility", solve)
    sb = SectorBounds(0.1, 1.0)
    res = certify_rate(lure_of(Sgd(1.0), sb), sb)
    assert 0.3 - 1e-4 <= res.rho_star <= 0.3
    assert len(res.tested) <= 2 + math.ceil(math.log2((0.999 - 1e-4) / 1e-4))


_REFERENCE_CASES = {
    # name: (spec for a sector, the sector at unit scale)
    "sgd": (lambda sb: Sgd(1.0 / sb.beta), (0.1, 1.0)),
    "heavyball-1-0.3": (lambda sb: HeavyBall(1.0 / sb.beta, 0.3), (0.1, 1.0)),
    "heavyball-0.5-0.5": (lambda sb: HeavyBall(0.5 / sb.beta, 0.5), (0.1, 1.0)),
    "nag-standard": (lambda sb: NagStandard(1.0 / sb.beta, 0.5), (0.1, 1.0)),
    "nag-sq-10": (NagSmoothQuadratic, (0.1, 1.0)),
    "nag-sq-4": (NagSmoothQuadratic, (0.25, 1.0)),
    "nag-sq-2": (NagSmoothQuadratic, (0.5, 1.0)),
}


@pytest.mark.parametrize("scale", [0.04, 1.0, 25.0])
@pytest.mark.parametrize("name", list(_REFERENCE_CASES))
def test_rate_search_closes_at_the_reference_in_two_probes(name, scale):
    # The SDP rejects ref + 0.4 tol and certifies ref - 0.4 tol, in any
    # units of the sector, so rho* lies in [ref - tol, ref] after 2 probes.
    make, (gamma, beta) = _REFERENCE_CASES[name]
    sb = SectorBounds(scale * gamma, scale * beta)
    system = lure_of(make(sb), sb)
    tol = 1e-4
    ref = one_step_rate(system, sb)
    res = certify_rate(system, sb, tol=tol)
    assert res.reference == ref
    assert [status for rho, status in res.tested] == [INFEASIBLE, FEASIBLE]
    assert [rho for rho, status in res.tested] == [ref + 0.4 * tol, ref - 0.4 * tol]
    assert res.status == "Certified" and res.certificate.rho == res.rho_star
    assert ref - tol <= res.rho_star <= ref


@pytest.mark.parametrize("spec, sector", [
    (Sgd(1.0), (0.1, 1.0)),
    (HeavyBall(eta=1.0, mu=0.3), (0.1, 1.0)),
    (NagSmoothQuadratic(SectorBounds(0.1, 1.0)), (0.1, 1.0)),
    (HeavyBall(eta=1.0, mu=0.3), (1.0, 1.0)),
], ids=["sgd", "heavyball", "nag-sq", "heavyball-gamma-equals-beta"])
def test_rate_bracket_end_is_the_smallest_rejected_probe_above_rho_star(spec, sector):
    # bracket_hi is the rule `certify --rate` applied to the probes before
    # the result carried it.  At gamma = beta both reference probes come
    # back Inconclusive, and the search bisects.
    sb = SectorBounds(*sector)
    res = certify_rate(lure_of(spec, sb), sb)
    assert res.status == "Certified"
    above = [rho for rho, status in res.tested if status != FEASIBLE and rho > res.rho_star]
    assert res.bracket_hi == min(above)
    assert 0.0 < res.bracket_hi - res.rho_star <= 1e-4
    assert (len(res.tested) > 2) == (sector == (1.0, 1.0))


def test_rate_bracket_end_is_none_without_a_rejected_probe():
    # sgd's rho* on [0.1, 1] is 0.19, so rho_high = 0.1 is certified and
    # no probe is rejected; nag-sq at [1, 12] certifies nothing.
    sb = SectorBounds(0.1, 1.0)
    res = certify_rate(lure_of(Sgd(1.0), sb), sb, rho_high=0.1)
    assert res.status == "Certified" and res.rho_star == 0.1
    assert res.bracket_hi is None
    sb = SectorBounds(1.0, 12.0)
    res = certify_rate(lure_of(NagSmoothQuadratic(sb), sb), sb)
    assert res.status == "Infeasible-at-range" and res.bracket_hi is None


@pytest.mark.parametrize("kappa, reference", [
    (2.0, 0.863266), (4.0, 0.491801), (10.0, None), (25.0, None),
])
def test_triple_momentum_fast_at_a_fixed_curvature_unstable_when_it_switches(kappa, reference):
    # Triple momentum's fixed-curvature rate is 1 - (1 - 1/sqrt kappa)^2,
    # the fastest of the family, yet the one-step LMI certifies a rate
    # only up to kappa 4: from kappa 10 on no rate in the range is
    # certified.
    sb = SectorBounds(1.0, kappa)
    system = lure_of(TripleMomentum(sb), sb)
    exact = 1.0 - (1.0 - 1.0 / math.sqrt(kappa)) ** 2
    assert fixed_curvature_rate(system, sb) == pytest.approx(exact, rel=1e-12)
    tol = 1e-4
    res = certify_rate(system, sb, tol=tol)
    if reference is None:
        assert res.status == "Infeasible-at-range" and res.rho_star is None
        return
    ref = one_step_rate(system, sb)
    assert ref == pytest.approx(reference, abs=1e-6)
    assert res.status == "Certified" and len(res.tested) == 2
    assert ref - tol <= res.rho_star <= ref


@pytest.mark.parametrize("gamma, beta, first", [
    (1.0, 15000.0, INFEASIBLE),  # ref 1.3e-4: ref - 0.4 tol lies below rho_low
    (0.9681, 1.0, INFEASIBLE),   # ref 0.99898: ref + 0.4 tol lies above rho_high
    (0.9685, 1.0, FEASIBLE),     # ref 0.99901: past rho_high, which is certified
], ids=["near-rho-low", "near-rho-high", "past-rho-high"])
def test_rate_search_clamps_the_reference_probes_into_the_range(gamma, beta, first):
    # A reference within 0.4 tol of an end still closes the bracket at
    # once: the opening probes are clamped into [rho_low, rho_high].
    sb = SectorBounds(gamma, beta)
    system = lure_of(Sgd(1.0 / beta), sb)
    tol, rho_low, rho_high = 1e-4, 1e-4, 0.999
    ref = one_step_rate(system, sb)
    res = certify_rate(system, sb, rho_low=rho_low, rho_high=rho_high, tol=tol)
    clamp = lambda rho: min(max(rho, rho_low), rho_high)
    assert res.status == "Certified" and res.certificate.rho == res.rho_star
    if first == FEASIBLE:
        assert res.tested == [(rho_high, FEASIBLE)] and res.rho_star == rho_high
    else:
        assert res.tested == [(clamp(ref + 0.4 * tol), INFEASIBLE),
                              (clamp(ref - 0.4 * tol), FEASIBLE)]
        assert ref - tol <= res.rho_star <= ref


def test_rate_search_infeasible_at_range_has_no_rate():
    # kappa 12 lies past nag-sq's kappa*: the lowest probe already fails,
    # rho = 0 was never probed, so no rate is reported.
    sb = SectorBounds(1.0, 12.0)
    res = certify_rate(lure_of(NagSmoothQuadratic(sb), sb), sb, "nag-sq")
    assert res.status == "Infeasible-at-range"
    assert res.rho_star is None and res.certificate is None
    assert [rho for rho, status in res.tested] == [1e-4]


def test_rate_search_at_gamma_equals_beta_keeps_a_verified_bracket():
    # At gamma = beta the product form is -(u - gamma y)^2, nowhere
    # positive, so probes near the exact rate 0.7 come back Inconclusive
    # and rho* can lie more than tol below it (certify_rate's docstring).
    # It is still a verified rate within tol of a non-Feasible probe.
    sb = SectorBounds(1.0, 1.0)
    system = lure_of(HeavyBall(eta=1.0, mu=0.3), sb)
    tol = 1e-4
    res = certify_rate(system, sb, tol=tol)
    assert res.status == "Certified" and res.rho_star <= res.reference
    assert verify_certificate(res.certificate, system, sb)
    above = min(rho for rho, status in res.tested if status != FEASIBLE and rho > res.rho_star)
    assert above - res.rho_star <= tol


@pytest.mark.parametrize("spec", _RATE_SPECS[:2], ids=_RATE_IDS[:2])
@pytest.mark.parametrize("wrong", [
    lambda ref: ref + 0.05, lambda ref: ref - 0.05, lambda ref: 0.0, lambda ref: None,
], ids=["above", "below", "zero", "none"])
def test_rate_search_survives_a_wrong_reference(monkeypatch, spec, wrong):
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    ref = one_step_rate(system, sb)
    monkeypatch.setattr(sdp, "one_step_rate", lambda system, bounds: wrong(ref))
    tol, rho_low, rho_high = 1e-4, 1e-4, 0.999
    res = certify_rate(system, sb, tol=tol)
    assert res.reference == wrong(ref)
    assert res.status == "Certified" and res.certificate.rho == res.rho_star
    assert ref - tol <= res.rho_star <= ref
    assert all(status == FEASIBLE for rho, status in res.tested if rho <= res.rho_star)
    assert any(status != FEASIBLE and res.rho_star < rho <= res.rho_star + tol
               for rho, status in res.tested)
    # the worst case with a wrong reference, stated in certify_rate's docstring
    assert len(res.tested) <= 3 + math.ceil(math.log2((rho_high - rho_low) / tol))


@pytest.mark.parametrize("spec", _RATE_SPECS, ids=_RATE_IDS)
def test_rate_search_without_a_reference_bisects(monkeypatch, spec):
    # No reference: the end probes, then only midpoints of the bracket,
    # 2 + ceil(log2(w / tol)) probes in all, as certify_rate states.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    ref = one_step_rate(system, sb)
    monkeypatch.setattr(sdp, "one_step_rate", lambda system, bounds: None)
    tol, rho_low, rho_high = 1e-4, 1e-4, 0.999
    res = certify_rate(system, sb, tol=tol)
    assert res.reference is None
    assert res.status == "Certified" and res.certificate.rho == res.rho_star
    assert [rho for rho, status in res.tested[:2]] == [rho_low, rho_high]
    lo, hi = rho_low, rho_high
    for rho, status in res.tested[2:]:
        assert rho == 0.5 * (lo + hi)
        lo, hi = (rho, hi) if status == FEASIBLE else (lo, rho)
    assert res.rho_star == lo and hi - lo <= tol
    assert len(res.tested) == 2 + math.ceil(math.log2((rho_high - rho_low) / tol)) == 16
    assert ref - tol <= res.rho_star <= ref


def test_feasible_solve_runs_jacobi_once(monkeypatch):
    # The certificate's eigenvalues are the ones verify_certificate measured.
    recompute = IqcCertificate.recompute_eigs
    calls = []

    def counted(cert, system, bounds):
        calls.append(cert.rho)
        return recompute(cert, system, bounds)

    monkeypatch.setattr(IqcCertificate, "recompute_eigs", counted)
    sb = SectorBounds(0.1, 1.0)
    for spec in _RATE_SPECS:
        system = lure_of(spec, sb)
        calls.clear()
        cert = solve_feasibility(system, sb).certificate
        assert len(calls) == 1
        assert (cert.lmi_max_eig, cert.p_min_eig) == recompute(cert, system, sb)


def _sampled_three_operand(cert, system, sb, samples=10_000, seed=0):
    # s_lemma_cross_check as first written, with three-operand einsums
    # and np.outer on the same draws.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, system.state_dim))
    h = rng.uniform(sb.gamma, sb.beta, size=samples)
    u = h * (x @ system.c[0])
    x_next = x @ system.a.T + np.outer(u, system.b[:, 0])
    v_next = np.einsum("ij,jk,ik->i", x_next, cert.p, x_next)
    v_now = np.einsum("ij,jk,ik->i", x, cert.p, x)
    sq = np.einsum("ij,ij->i", x, x)
    return float(((v_next - (1.0 - cert.rho) * v_now + cert.lam * sq) / sq).max())


@pytest.mark.parametrize("spec", _RATE_SPECS, ids=_RATE_IDS)
@pytest.mark.parametrize("rho, plain", [(0.0, True), (0.05, False)])
def test_sampling_check_matches_the_three_operand_forms(spec, rho, plain):
    # A plain certificate (rho = 0) carries the lambda term, a rate one not.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    cert = solve_feasibility(system, sb, rho=rho).certificate
    assert (cert.lam > 0.0) == plain
    for seed in (0, 7):
        got = s_lemma_cross_check(cert, system, sb, seed=seed)["max_violation"]
        assert got == pytest.approx(_sampled_three_operand(cert, system, sb, seed=seed),
                                    rel=1e-12, abs=1e-15)


def _parent_newton_step(prob, vals, vecs, mu):
    # The Newton step as first written, with tensordot, einsum, outer and
    # r_; every _newton_solve must reproduce it bit for bit.
    n = prob.blocks.shape[0]
    kkt = np.zeros((n + 1, n + 1))
    inv = (vecs / vals) @ vecs.T
    w = inv @ prob.blocks
    grad = np.einsum("kaa->k", w)
    grad[-1] += 1.0 / mu
    hess = np.einsum("kab,lba->kl", w, w)
    scale = 1.0 / np.sqrt(np.diag(hess))
    kkt[:n, :n] = hess * np.outer(scale, scale)
    kkt[:n, n] = kkt[n, :n] = prob.eq * scale
    dx = scale * np.linalg.solve(kkt, np.r_[grad * scale, 0.0])[:n]
    return dx, grad @ dx, inv


@pytest.mark.parametrize("spec", _RATE_SPECS, ids=_RATE_IDS)
@pytest.mark.parametrize("rho, plain", [(0.0, True), (0.1, False), (0.3, False)])
def test_newton_step_is_bitwise_the_reference(monkeypatch, spec, rho, plain):
    # At every iterate of a solve, F(x), and for every Newton system
    # solved, the re-solves at a new stage's mu included, the step, the
    # decrement and F^-1 equal the reference formulas exactly.  Plain
    # solves and rate probes share one LMI shape; only the plain
    # certificate carries a lambda.
    sb = SectorBounds(0.1, 1.0)
    prob = sdp._Problem(lure_of(spec, sb), sb, rho)
    barrier, newton_system, newton_solve = sdp._barrier, sdp._newton_system, sdp._newton_solve
    seen = {"points": 0, "systems": 0, "steps": 0}
    built = []  # the newest system with the eigenpairs it was built from

    def checked_barrier(prob, x):
        np.testing.assert_array_equal((x @ prob.flat).reshape(prob.dim, prob.dim),
                                      np.tensordot(x, prob.blocks, 1))
        seen["points"] += 1
        return barrier(prob, x)

    def checked_system(prob, vals, vecs):
        system = newton_system(prob, vals, vecs)
        built[:] = [system, vals, vecs]
        seen["systems"] += 1
        return system

    def checked_solve(system, mu):
        got = newton_solve(system, mu)
        newest, vals, vecs = built
        assert system is newest
        for a, b in zip((*got, system[0]), _parent_newton_step(prob, vals, vecs, mu)):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal((got[0] @ prob.flat).reshape(prob.dim, prob.dim),
                                      np.tensordot(got[0], prob.blocks, 1))
        seen["steps"] += 1
        return got

    monkeypatch.setattr(sdp, "_barrier", checked_barrier)
    monkeypatch.setattr(sdp, "_newton_system", checked_system)
    monkeypatch.setattr(sdp, "_newton_solve", checked_solve)
    x, mu, z, steps, stop = sdp._maximize_margin(prob, 500)
    # One Newton solve per step and one more per stage, whose step is not
    # taken, in three stages; each stage after the first re-solves the
    # system it starts from.
    assert seen["steps"] == steps + 3 and seen["points"] >= steps
    assert seen["systems"] == steps + 1 and stop == "centered"
    assert (sdp._make_cert(sb, prob, x, "", steps, FAST).lam > 0.0) == plain


def _fully_centered_maximize_margin(prob, max_steps):
    # _maximize_margin as first written, centering every stage, not only
    # the last, to a squared Newton decrement of 1e-14, dividing mu by 10
    # per stage until the duality gap dim(F) mu is at most 1e-7, and
    # building a new Newton system for every solve.  Its tolerances are
    # its own, so that changing the solver's cannot move the reference.
    dim = prob.dim
    x = prob.eq / (prob.s + 1)
    x[-1] = np.linalg.eigvalsh((x @ prob.flat).reshape(dim, dim))[0] - 1.0
    vals, vecs = sdp._barrier(prob, x)
    mu, steps, centered = 1.0, 0, None
    while True:
        while True:
            dx, dec, inv = _parent_newton_step(prob, vals, vecs, mu)
            if dec <= 1e-14 or steps >= max_steps:
                break
            step = 1.0 if dec < 0.0625 else 1.0 / (1.0 + np.sqrt(dec))
            while (eig := sdp._barrier(prob, x + step * dx)) is None and step > 1e-12:
                step *= 0.5
            if eig is None:
                break
            x, (vals, vecs) = x + step * dx, eig
            steps += 1
        z = mu * (inv - inv @ (dx @ prob.flat).reshape(dim, dim) @ inv)
        here = (x, mu, 0.5 * (z + z.T))
        if not abs(dec) <= 1e-14:
            stop = "step cap" if steps >= max_steps else "step halving"
            return (*(centered or here), steps, stop)
        if prob.dim * mu <= 1e-7:
            return (*here, steps, "centered")
        centered = here
        mu *= 0.1


def _recorded(monkeypatch, maximize, run):
    # run() with sdp._maximize_margin replaced by maximize; also returns
    # (prob, x, mu, steps) of every solve in order.
    ends = []

    def recording(prob, max_steps):
        x, mu, z, steps, stop = maximize(prob, max_steps)
        ends.append((prob, x, mu, steps))
        return x, mu, z, steps, stop

    monkeypatch.setattr(sdp, "_maximize_margin", recording)
    return run(), ends


def _verdict_cases():
    for name, (make, _) in _VERDICTS.items():
        for kappa in _VERDICT_KAPPAS:
            sb = SectorBounds(0.1, 0.1 * kappa)
            yield name, lure_of(make(sb), sb), sb


def _assert_same_central_point(monkeypatch, run):
    # run() with the barrier as it is and fully centered: the same
    # statuses and certificates, the same central points in no more
    # Newton steps, and each returned point centered to _CENTERED at its
    # mu.  Returns both runs' results.
    got, ends = _recorded(monkeypatch, sdp._maximize_margin, run)
    want, ref_ends = _recorded(monkeypatch, _fully_centered_maximize_margin, run)
    assert len(ends) == len(ref_ends) > 0
    for (prob, x, mu, steps), (_, ref_x, ref_mu, ref_steps) in zip(ends, ref_ends):
        assert mu == ref_mu and steps <= ref_steps
        assert x[-1] == pytest.approx(ref_x[-1], rel=1e-8)
        system = sdp._newton_system(prob, *sdp._barrier(prob, x))
        assert sdp._newton_solve(system, mu)[1] <= sdp._CENTERED
    for a, b in zip(got, want):
        assert a.status == b.status
        if b.certificate is not None:
            p, ref_p = a.certificate.p, b.certificate.p
            assert np.abs(p - ref_p).max() <= 1e-12 * np.abs(ref_p).max()
    return got, want


@pytest.mark.parametrize("name", _VERDICTS)
def test_loose_early_stages_keep_the_verdict_table(monkeypatch, name):
    cases = [(system, sb) for case, system, sb in _verdict_cases() if case == name]
    _assert_same_central_point(monkeypatch, lambda: [
        solve_feasibility(system, sb, name) for system, sb in cases])


@pytest.mark.parametrize("spec", _RATE_SPECS, ids=_RATE_IDS)
def test_loose_early_stages_keep_the_rate_search(monkeypatch, spec):
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(spec, sb)
    (got,), (want,) = _assert_same_central_point(monkeypatch, lambda: [certify_rate(system, sb)])
    assert (got.rho_star, got.tested) == (want.rho_star, want.tested)


def _random_two_step_cases(seed, count):
    # (system, bounds, rho): kappa in [1, 50], beta log-uniform in
    # [1e-3, 1e3], a step up to 3/beta, momentum in 3 of 4 cases, and
    # rho 0 or in (0, 0.5).
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kappa, beta = rng.uniform(1.0, 50.0), 10.0 ** rng.uniform(-3.0, 3.0)
        sb = SectorBounds(beta / kappa, beta)
        mu = rng.uniform(0.0, 0.95) if rng.random() < 0.75 else 0.0
        spec = TwoStep(rng.uniform(0.05, 3.0) / beta, mu, rng.choice([0.0, mu]))
        yield lure_of(spec, sb), sb, (0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5))


def test_long_stages_keep_the_central_point_of_random_systems(monkeypatch):
    # The reference centers each of its 9 stages to a squared decrement
    # of 1e-14.  Where rounding stops it short of that (1 case in these
    # 80), it is no reference, and the long-step path must center that
    # case itself.
    cases = []
    for system, sb, rho in _random_two_step_cases(0, 80):
        prob = sdp._Problem(system, sb, rho)
        if _fully_centered_maximize_margin(prob, 500)[-1] == "centered":
            cases.append((system, sb, rho))
        else:
            assert sdp._maximize_margin(prob, 500)[-1] == "centered"
    assert len(cases) >= 78
    got, _ = _assert_same_central_point(monkeypatch, lambda: [
        solve_feasibility(system, sb, rho=rho) for system, sb, rho in cases])
    assert {FEASIBLE, INFEASIBLE} <= {res.status for res in got}


@pytest.mark.parametrize("spec, dim", [(Sgd(1.0), 4), (HeavyBall(1.0, 0.3), 6), (None, 8)],
                         ids=["sgd", "heavyball", "3x3"])
def test_stages_run_at_mu_1_1e4_1e8_as_products_of_a_tenth(monkeypatch, spec, dim):
    # The last mu is bitwise that of a path dividing mu by 10 per stage.
    sb = SectorBounds(0.1, 1.0)
    if spec is None:  # heavy ball's state and a third entry, the mean of its two
        system = LureSystem(np.array([[1.3, -0.3, 0.0], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
                            np.array([[-1.0], [0.0], [0.0]]), np.array([[1.0, 0.0, 0.0]]))
    else:
        system = lure_of(spec, sb)
    prob = sdp._Problem(system, sb, 0.0)
    newton_solve, mus = sdp._newton_solve, []

    def recording(system, mu):
        if not mus or mus[-1] != mu:
            mus.append(mu)
        return newton_solve(system, mu)

    monkeypatch.setattr(sdp, "_newton_solve", recording)
    x, mu, z, steps, stop = sdp._maximize_margin(prob, 500)
    tenth = [1.0]
    for _ in range(8):
        tenth.append(tenth[-1] * 0.1)
    assert prob.dim == dim and stop == "centered"
    assert mus == [1.0, tenth[4], tenth[8]] and mu == tenth[8]


def test_problems_of_one_state_size_share_a_read_only_layout():
    sb = SectorBounds(0.1, 1.0)
    a, b, c = (_Problem(lure_of(spec, sb), sb, rho) for spec, rho in
               [(HeavyBall(1.0, 0.3), 0.0), (NagSmoothQuadratic(sb), 0.2), (Sgd(1.0), 0.0)])
    arrays = [(*p.vech, p.trace_mask, p.p_index, p.p_basis, p.eq) for p in (a, b, c)]
    assert all(x is y for x, y in zip(arrays[0], arrays[1]))
    assert not any(x is y for x, y in zip(arrays[0], arrays[2]))
    for array in arrays[0] + arrays[2]:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 2.0


def test_verdict_table_takes_at_most_1004_newton_steps():
    # 956 steps and 5% headroom; the count repeats exactly.  Dividing mu
    # by 10 per stage took 1,236, centering every stage to _CENTERED
    # 2,482 and a lambda variable in plain solves 1,670, so a return to
    # any of them fails here.
    steps = sum(solve_feasibility(system, sb, name).traces[0].iterations
                for name, system, sb in _verdict_cases())
    assert steps <= 1004


def _assert_earned(res, system, sb):
    # Feasible only with a certificate both checks pass, Infeasible only
    # with a verified witness, anything else Inconclusive.
    if res.status == FEASIBLE:
        assert verify_certificate(res.certificate, system, sb)
        assert s_lemma_cross_check(res.certificate, system, sb)["ok"]
    elif res.status == INFEASIBLE:
        assert verify_infeasibility(res.witness, system, sb)
    else:
        assert res.status == INCONCLUSIVE and res.certificate is None


@pytest.mark.parametrize("k", [1, 5, 13, 21])
@pytest.mark.parametrize("name", ["sgd", "nag-sq"])
def test_step_cap_ends_the_path_with_an_earned_verdict(name, k):
    # The cap ends a stage before its tolerance; the path then ends at the
    # last centered stage, or at the capped iterate before any, and says
    # so: sgd centers in 14 steps, nag-sq in 33.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(_VERDICTS[name][0](sb), sb)
    res = solve_feasibility(system, sb, name, options=SolverOptions(max_iters=k))
    assert res.traces[0].iterations <= k
    uncapped = solve_feasibility(system, sb, name).traces[0]
    assert uncapped.stop == "centered"
    assert res.traces[0].stop == ("step cap" if k < uncapped.iterations else "centered")
    _assert_earned(res, system, sb)


@pytest.mark.parametrize("period", [0, 2], ids=["every", "every-other"])
@pytest.mark.parametrize("name, want", [("sgd", FEASIBLE), ("sgd-3", INFEASIBLE),
                                        ("nag-sq", FEASIBLE)])
def test_refused_trial_points_halve_the_step(monkeypatch, name, want, period):
    # Only rounding makes _barrier refuse a damped Newton point.  Refusing
    # every other trial point halves each step once and keeps the verdict;
    # refusing all of them shrinks the first step below 1e-12, which ends
    # the path at its start with no verdict earned.  Each point accepted
    # after a refusal is exactly x + (s/2) dx, s the damped step.
    barrier, newton_solve, calls, solves = sdp._barrier, sdp._newton_solve, [], []

    def refusing(prob, x):
        calls.append(x)
        if period and len(calls) > 1 and len(calls) % period:
            dx, dec = solves[-1]
            s = 1.0 if dec < sdp._QUADRATIC else 1.0 / (1.0 + np.sqrt(dec))
            np.testing.assert_array_equal(calls[-2], calls[-3] + s * dx)
            np.testing.assert_array_equal(x, calls[-3] + (0.5 * s) * dx)
        if len(calls) > 1 and (period == 0 or len(calls) % period == 0):
            return None
        return barrier(prob, x)

    def recording_solve(system, mu):
        solves.append(newton_solve(system, mu))
        return solves[-1]

    monkeypatch.setattr(sdp, "_barrier", refusing)
    monkeypatch.setattr(sdp, "_newton_solve", recording_solve)
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(_VERDICTS[name][0](sb), sb)
    res = solve_feasibility(system, sb, name)
    _assert_earned(res, system, sb)
    if period:
        assert res.status == want and res.traces[0].stop == "centered"
        assert len(calls) == 2 * res.traces[0].iterations + 1
    else:
        assert res.status == INCONCLUSIVE and res.traces[0].iterations == 0
        assert res.traces[0].stop == "step halving"


@pytest.mark.parametrize("beta", [1e-300, 2.0**-500 * 0.999, 2.0**500 * 1.001, 1e200])
@pytest.mark.parametrize("solve", [solve_feasibility, certify_rate], ids=["plain", "rate"])
def test_a_certificate_outside_the_float_range_raises_naming_beta(beta, solve):
    # The certificate scales by beta^2 or 1/beta^2 on its way back from
    # the units u/beta: past 2^+-500 that overflows or divides by 0.
    sb = SectorBounds(beta, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"certificate for beta={beta:g} in floats")):
            solve(lure_of(NagSmoothQuadratic(sb), sb), sb)


@pytest.mark.parametrize("beta", [1e-150, 2.0**-500, 2.0**500, 1e150])
@pytest.mark.parametrize("solve", [solve_feasibility, certify_rate], ids=["plain", "rate"])
def test_a_certificate_at_the_ends_of_the_float_range_is_verified(beta, solve):
    sb = SectorBounds(beta / 10.0, beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(lure_of(Sgd(1.0 / beta), sb), sb)
    assert res.certificate is not None and res.status in (FEASIBLE, sdp.CERTIFIED)


@pytest.mark.parametrize("beta", [1e14, 1e20, 1e75, 1e150, 1e-30, 1e-150])
def test_lmi_max_eig_far_from_unit_beta_is_lapacks(beta):
    # The caller-unit LMI has entries of order beta^2, beta and 1.  A
    # Jacobi stopping rule measured against the whole matrix would return
    # its unrotated diagonal here, -0.308 (beta >= 1e14) or -0.590 (beta
    # <= 1e-30), where the top eigenvalue is -0.147 or -0.282.
    sb = SectorBounds(beta, beta)
    system = lure_of(Sgd(1.0 / beta), sb)
    cert = solve_feasibility(system, sb).certificate
    lmi = assemble_lmi(system, sb, cert.p, cert.lam, cert.tau, cert.rho)
    assert cert.lmi_max_eig == pytest.approx(np.linalg.eigvalsh(lmi)[-1], rel=1e-12)


@pytest.mark.parametrize("eta", [1e39, 1e100, 1e300])
@pytest.mark.parametrize("solve", [solve_feasibility, certify_rate], ids=["plain", "rate"])
def test_a_step_past_2_to_the_128_raises_before_any_overflow(eta, solve):
    # The LMI grows as the square of eta beta and the Newton system as its
    # square again, so past 2^128 it would overflow.
    sb = SectorBounds(0.1, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"is {eta:g}, above 2^128")):
            solve(lure_of(Sgd(eta), sb), sb)
