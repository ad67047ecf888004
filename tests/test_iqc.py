import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert.iqc import (
    IqcCertificate,
    assemble_lmi,
    certificate_from_json,
    certificate_to_json,
    sector_multipliers,
    sector_product_multiplier,
)
from stabcert.optimizers import SectorBounds, Sgd, lure_of


def test_sector_multiplier_entries():
    pi1, pi2 = sector_multipliers(SectorBounds(0.25, 2.0))
    np.testing.assert_allclose(pi1, [[-0.25, 0.5], [0.5, 0.0]])
    np.testing.assert_allclose(pi2, [[0.0, 0.5], [0.5, -0.5]])


def test_multipliers_encode_the_sector_inequalities():
    # For u = h*y with h in [gamma, beta] both forms [y u] Pi [y u]^T
    # must be nonnegative, with equality exactly at the endpoints.
    sb = SectorBounds(0.3, 1.7)
    pi1, pi2 = sector_multipliers(sb)
    for h in np.linspace(sb.gamma, sb.beta, 9):
        z = np.array([1.0, h])
        v1 = float(z @ pi1 @ z)
        v2 = float(z @ pi2 @ z)
        assert v1 >= -1e-12 and v2 >= -1e-12
    z_lo = np.array([1.0, sb.gamma])
    assert float(z_lo @ pi1 @ z_lo) == pytest.approx(0.0, abs=1e-15)
    z_hi = np.array([1.0, sb.beta])
    assert float(z_hi @ pi2 @ z_hi) == pytest.approx(0.0, abs=1e-15)


def test_product_multiplier_encodes_the_sector():
    # [y u] Pi3 [y u]^T = (u - gamma y)(beta y - u): nonnegative for
    # u = h*y with h in [gamma, beta], zero at both edges, negative
    # outside.
    sb = SectorBounds(0.3, 1.7)
    pi3 = sector_product_multiplier(sb)
    np.testing.assert_allclose(pi3, [[-0.51, 1.0], [1.0, -1.0]])
    for h in np.linspace(sb.gamma, sb.beta, 9):
        z = np.array([1.0, h])
        assert float(z @ pi3 @ z) == pytest.approx((h - sb.gamma) * (sb.beta - h), abs=1e-14)
    for h in (sb.gamma, sb.beta):
        z = np.array([1.0, h])
        assert float(z @ pi3 @ z) == pytest.approx(0.0, abs=1e-15)
    for h in (0.5 * sb.gamma, 2.0 * sb.beta):
        z = np.array([1.0, h])
        assert float(z @ pi3 @ z) < 0.0


def test_product_multiplier_is_not_in_the_cone_of_pi1_pi2():
    # Pi1 only reaches the (y, y) entry and Pi2 only the (u, u) entry,
    # so matching Pi3's diagonal fixes tau1 = tau2 = beta; their cross
    # term is then beta, not (gamma + beta)/2.
    sb = SectorBounds(0.1, 1.0)
    pi1, pi2 = sector_multipliers(sb)
    pi3 = sector_product_multiplier(sb)
    tau1 = pi3[0, 0] / pi1[0, 0]
    tau2 = pi3[1, 1] / pi2[1, 1]
    assert tau1 == pytest.approx(sb.beta) and tau2 == pytest.approx(sb.beta)
    mix = tau1 * pi1 + tau2 * pi2
    np.testing.assert_allclose(np.diag(mix), np.diag(pi3), atol=1e-15)
    assert mix[0, 1] - pi3[0, 1] == pytest.approx(0.5 * (sb.beta - sb.gamma))


def test_iqc_holds_for_quadratic_gradients():
    # For a matrix Hessian H with spectrum in [gamma, beta] and u = H y,
    # every multiplier's form pi00 y.y + 2 pi01 u.y + pi11 u.u (Pi (x) I
    # on the pair (y, u)) is nonnegative, the product form Pi3 included.
    sb = SectorBounds(0.2, 1.0)
    pis = (*sector_multipliers(sb), sector_product_multiplier(sb))
    rng = np.random.default_rng(2)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        h = (q * rng.uniform(sb.gamma, sb.beta, size=4)) @ q.T
        y = rng.normal(size=4)
        u = h @ y
        for pi in pis:
            value = pi[0, 0] * (y @ y) + 2.0 * pi[0, 1] * (u @ y) + pi[1, 1] * (u @ u)
            assert value >= -1e-10


def test_lmi_hand_built_sgd_oracle():
    # SGD has A=[1], B=[-eta], C=[1], D=[0].  The 2x2 LMI is then
    #   [[p - (1-rho) p + lam - tau1*gamma,  -eta p + (tau1+tau2)/2],
    #    [-eta p + (tau1+tau2)/2,            eta^2 p - tau2/beta]]
    sb = SectorBounds(0.1, 1.0)
    eta, p, lam, t1, t2, rho = 0.7, 1.3, 0.01, 0.2, 0.4, 0.05
    got = assemble_lmi(lure_of(Sgd(eta), sb), sb, np.array([[p]]), lam, t1, t2, rho)
    want = np.array(
        [
            [p - (1 - rho) * p + lam - t1 * sb.gamma, -eta * p + 0.5 * (t1 + t2)],
            [-eta * p + 0.5 * (t1 + t2), eta * eta * p - t2 / sb.beta],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_lmi_tau3_term_is_the_lifted_product_form():
    # For SGD, J = [[1, 0], [0, 1]], so tau3 adds tau3 * Pi3 unchanged.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(0.7), sb)
    p = np.array([[1.3]])
    base = assemble_lmi(system, sb, p, 0.01, 0.2, 0.4, 0.05)
    got = assemble_lmi(system, sb, p, 0.01, 0.2, 0.4, 0.05, tau3=0.3)
    np.testing.assert_allclose(got - base, 0.3 * sector_product_multiplier(sb), atol=1e-14)


@given(
    st.floats(0.1, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 0.5),
    st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_lmi_is_affine_in_the_variables(p_val, lam, tau1, tau2, w):
    # convex combination of variable tuples maps to the same combination
    # of LMI matrices (rho and data held fixed)
    sb = SectorBounds(0.2, 1.0)
    system = lure_of(Sgd(0.5), sb)
    pa, pb = np.array([[p_val]]), np.array([[2.0 * p_val + 0.3]])
    la, lb = lam, 0.7 * lam + 0.1
    t1a, t1b = tau1, 0.5 * tau1 + 0.2
    t2a, t2b = tau2, tau2 + 0.4
    ma = assemble_lmi(system, sb, pa, la, t1a, t2a, rho=0.1)
    mb = assemble_lmi(system, sb, pb, lb, t1b, t2b, rho=0.1)
    mix = assemble_lmi(
        system,
        sb,
        w * pa + (1 - w) * pb,
        w * la + (1 - w) * lb,
        w * t1a + (1 - w) * t1b,
        w * t2a + (1 - w) * t2b,
        rho=0.1,
    )
    np.testing.assert_allclose(mix, w * ma + (1 - w) * mb, atol=1e-10)


def test_lmi_shape_validation():
    sb = SectorBounds(0.2, 1.0)
    system = lure_of(Sgd(0.5), sb)
    with pytest.raises(ValueError, match="P must be"):
        assemble_lmi(system, sb, np.eye(2), 0.0, 0.0, 0.0)


def test_certificate_json_round_trip(tmp_path):
    cert = IqcCertificate(
        optimizer="nag-sq",
        gamma=0.1,
        beta=1.0,
        p=np.array([[1.0, -0.45], [-0.45, 0.3]]),
        lam=1e-6,
        tau1=0.2,
        tau2=0.8,
        rho=0.0,
        lmi_max_eig=-1.3e-4,
        p_min_eig=0.09,
        status="Feasible",
        solver_seed=7,
    )
    text = certificate_to_json(cert)
    path = tmp_path / "cert.json"
    path.write_text(text)
    back = certificate_from_json(path.read_text())
    assert back.optimizer == cert.optimizer
    assert back.status == cert.status
    assert back.solver_seed == cert.solver_seed
    np.testing.assert_allclose(back.p, cert.p)
    for name in ("gamma", "beta", "lam", "tau1", "tau2", "rho", "lmi_max_eig", "p_min_eig"):
        assert getattr(back, name) == getattr(cert, name)
    # serialized form is stable: sorted keys, lambda spelled out
    assert '"lambda"' in text
    assert text == certificate_to_json(back)


def test_certificate_json_round_trip_keeps_tau3():
    cert = IqcCertificate(
        optimizer="nag-sq",
        gamma=0.1,
        beta=1.0,
        p=np.array([[1.0, -0.45], [-0.45, 0.3]]),
        lam=1e-6,
        tau1=6e-5,
        tau2=0.39,
        rho=0.0,
        lmi_max_eig=-6.2e-7,
        p_min_eig=0.09,
        status="Feasible",
        solver_seed=0,
        tau3=0.92,
    )
    text = certificate_to_json(cert)
    assert '"tau3": 0.92' in text
    back = certificate_from_json(text)
    assert back.tau3 == cert.tau3
    assert text == certificate_to_json(back)


def test_certificate_json_without_tau3_reads_zero():
    # Documents written before the product multiplier carry no tau3;
    # they certified the two-multiplier LMI, i.e. tau3 = 0.
    text = certificate_to_json(
        IqcCertificate(
            optimizer="sgd",
            gamma=0.1,
            beta=1.0,
            p=np.array([[0.8]]),
            lam=1e-4,
            tau1=0.05,
            tau2=0.6,
            rho=0.0,
            lmi_max_eig=-0.01,
            p_min_eig=0.8,
            status="Feasible",
            solver_seed=0,
            tau3=0.5,
        )
    )
    import json

    raw = json.loads(text)
    del raw["tau3"]
    back = certificate_from_json(json.dumps(raw))
    assert back.tau3 == 0.0
    assert back.tau2 == 0.6


def test_certificate_json_newton_steps_round_trip_and_default():
    # Documents written before the barrier solver carry no newton_steps.
    import json

    cert = IqcCertificate(
        optimizer="sgd", gamma=0.1, beta=1.0, p=np.array([[1.0]]), lam=0.09, tau1=0.0,
        tau2=0.0, rho=0.0, lmi_max_eig=-0.09, p_min_eig=1.0, status="Feasible",
        solver_seed=0, tau3=0.5, newton_steps=73,
    )
    text = certificate_to_json(cert)
    assert certificate_from_json(text).newton_steps == 73
    raw = json.loads(text)
    del raw["newton_steps"]
    assert certificate_from_json(json.dumps(raw)).newton_steps == 0


def test_certificate_json_rejects_non_square_p():
    cert_text = certificate_to_json(
        IqcCertificate(
            optimizer="sgd",
            gamma=0.1,
            beta=1.0,
            p=np.array([[1.0]]),
            lam=0.0,
            tau1=0.0,
            tau2=0.0,
            rho=0.0,
            lmi_max_eig=0.0,
            p_min_eig=1.0,
            status="Inconclusive",
            solver_seed=0,
        )
    )
    import json

    raw = json.loads(cert_text)
    raw["P"] = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="not square"):
        certificate_from_json(json.dumps(raw))


def test_recompute_eigs_matches_stored():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    p = np.array([[0.8]])
    lam, t1, t2 = 1e-4, 0.05, 0.6
    lmi = assemble_lmi(system, sb, p, lam, t1, t2)
    cert = IqcCertificate(
        optimizer="sgd",
        gamma=sb.gamma,
        beta=sb.beta,
        p=p,
        lam=lam,
        tau1=t1,
        tau2=t2,
        rho=0.0,
        lmi_max_eig=float(np.linalg.eigvalsh(lmi)[-1]),
        p_min_eig=0.8,
        status="Feasible",
        solver_seed=0,
    )
    top, bottom = cert.recompute_eigs(system, sb)
    assert top == pytest.approx(cert.lmi_max_eig, abs=1e-10)
    assert bottom == pytest.approx(0.8, abs=1e-12)
