import json
import pickle
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert.iqc import (
    IqcCertificate,
    assemble_lmi,
    certificate_from_json,
    certificate_to_json,
    sector_lift,
    sector_product_multiplier,
)
from stabcert.optimizers import HeavyBall, SectorBounds, Sgd, lure_of


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


def test_product_form_implies_monotonicity_and_cocoercivity():
    # On a scalar channel (u - gamma y)(beta y - u) >= 0 gives
    # u y >= gamma y^2 and u y >= u^2 / beta, the two inequalities a
    # multiplier of their own would add; and for gamma < beta the form
    # is strictly positive at u = (gamma + beta) y / 2.
    sb = SectorBounds(0.3, 1.7)
    pi = sector_product_multiplier(sb)
    rng = np.random.default_rng(4)
    y, u = rng.normal(size=(2, 20_000))
    inside = pi[0, 0] * y * y + 2.0 * pi[0, 1] * u * y + pi[1, 1] * u * u >= 0.0
    assert 1000 < inside.sum() < y.size
    y, u = y[inside], u[inside]
    assert np.all(u * y - sb.gamma * y * y >= -1e-12)
    assert np.all(u * y - u * u / sb.beta >= -1e-12)
    z = np.array([1.0, 0.5 * (sb.gamma + sb.beta)])
    assert z @ pi @ z == pytest.approx(0.25 * (sb.beta - sb.gamma) ** 2)


def test_iqc_holds_for_quadratic_gradients():
    # For a matrix Hessian H with spectrum in [gamma, beta] and u = H y,
    # the product form pi00 y.y + 2 pi01 u.y + pi11 u.u (Pi3 (x) I on the
    # pair (y, u)) is nonnegative.
    sb = SectorBounds(0.2, 1.0)
    pi = sector_product_multiplier(sb)
    rng = np.random.default_rng(2)
    for _ in range(50):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        h = (q * rng.uniform(sb.gamma, sb.beta, size=4)) @ q.T
        y = rng.normal(size=4)
        u = h @ y
        value = pi[0, 0] * (y @ y) + 2.0 * pi[0, 1] * (u @ y) + pi[1, 1] * (u @ u)
        assert value >= -1e-10


def test_lmi_hand_built_sgd_oracle():
    # SGD has A=[1], B=[-eta], C=[1], so J = I and the 2x2 LMI is
    #   [[p - (1-rho) p + lam - tau*gamma*beta,  -eta p + tau (gamma+beta)/2],
    #    [-eta p + tau (gamma+beta)/2,           eta^2 p - tau]]
    sb = SectorBounds(0.1, 1.0)
    eta, p, lam, tau, rho = 0.7, 1.3, 0.01, 0.3, 0.05
    system = lure_of(Sgd(eta), sb)
    np.testing.assert_array_equal(sector_lift(system), np.eye(2))
    got = assemble_lmi(system, sb, np.array([[p]]), lam, tau, rho)
    mid = 0.5 * (sb.gamma + sb.beta)
    want = np.array(
        [
            [p - (1 - rho) * p + lam - tau * sb.gamma * sb.beta, -eta * p + tau * mid],
            [-eta * p + tau * mid, eta * eta * p - tau],
        ]
    )
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_lmi_tau3_term_is_the_lifted_product_form():
    # The id keeps tau3, the earlier name of tau, so test ids stay stable.
    # For SGD, J = [[1, 0], [0, 1]], so tau adds tau * Pi3 unchanged.
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(0.7), sb)
    p = np.array([[1.3]])
    base = assemble_lmi(system, sb, p, 0.01, 0.0, 0.05)
    got = assemble_lmi(system, sb, p, 0.01, 0.3, 0.05)
    np.testing.assert_allclose(got - base, 0.3 * sector_product_multiplier(sb), atol=1e-14)


@given(
    st.floats(0.1, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_lmi_is_affine_in_the_variables(p_val, lam, tau, w):
    # convex combination of variable tuples maps to the same combination
    # of LMI matrices (rho and data held fixed)
    sb = SectorBounds(0.2, 1.0)
    system = lure_of(Sgd(0.5), sb)
    pa, pb = np.array([[p_val]]), np.array([[2.0 * p_val + 0.3]])
    la, lb = lam, 0.7 * lam + 0.1
    ta, tb = tau, 0.5 * tau + 0.2
    ma = assemble_lmi(system, sb, pa, la, ta, rho=0.1)
    mb = assemble_lmi(system, sb, pb, lb, tb, rho=0.1)
    mix = assemble_lmi(
        system,
        sb,
        w * pa + (1 - w) * pb,
        w * la + (1 - w) * lb,
        w * ta + (1 - w) * tb,
        rho=0.1,
    )
    np.testing.assert_allclose(mix, w * ma + (1 - w) * mb, atol=1e-10)


def test_lmi_shape_validation():
    sb = SectorBounds(0.2, 1.0)
    system = lure_of(Sgd(0.5), sb)
    with pytest.raises(ValueError, match="P must be"):
        assemble_lmi(system, sb, np.eye(2), 0.0, 0.0)


def test_certificate_json_round_trip(tmp_path):
    cert = IqcCertificate(
        optimizer="nag-sq",
        gamma=0.1,
        beta=1.0,
        p=np.array([[1.0, -0.45], [-0.45, 0.3]]),
        lam=1e-6,
        tau=0.8,
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
    for name in ("gamma", "beta", "lam", "tau", "rho", "lmi_max_eig", "p_min_eig"):
        assert getattr(back, name) == getattr(cert, name)
    # serialized form is stable: sorted keys, lambda spelled out
    assert '"lambda"' in text
    assert text == certificate_to_json(back)


def test_certificate_json_round_trip_keeps_tau3():
    # The id keeps tau3, the earlier name of tau, so test ids stay stable.
    cert = IqcCertificate(
        optimizer="nag-sq",
        gamma=0.1,
        beta=1.0,
        p=np.array([[1.0, -0.45], [-0.45, 0.3]]),
        lam=1e-6,
        tau=0.92,
        rho=0.0,
        lmi_max_eig=-6.2e-7,
        p_min_eig=0.09,
        status="Feasible",
        solver_seed=0,
    )
    text = certificate_to_json(cert)
    assert '"tau": 0.92' in text
    back = certificate_from_json(text)
    assert back.tau == cert.tau
    assert text == certificate_to_json(back)


# Every key of the certificate document, and a certificate whose every
# field differs from its default.
_CERT_KEYS = ("optimizer", "gamma", "beta", "P", "lambda", "tau", "rho", "lmi_max_eig",
              "p_min_eig", "status", "solver_seed", "newton_steps")
_EVERY_FIELD = IqcCertificate(
    optimizer="heavyball", gamma=0.1, beta=2.5, p=np.array([[1.5, -0.25], [-0.25, 0.75]]),
    lam=1e-6, tau=0.8, rho=0.05, lmi_max_eig=-1.3e-4, p_min_eig=0.09, status="Feasible",
    solver_seed=7, newton_steps=73,
)


def test_certificate_json_round_trips_every_field():
    text = certificate_to_json(_EVERY_FIELD)
    assert sorted(json.loads(text)) == sorted(_CERT_KEYS)
    back = certificate_from_json(text)
    np.testing.assert_array_equal(back.p, _EVERY_FIELD.p)
    for f in fields(IqcCertificate):
        if f.name != "p":
            got, want = getattr(back, f.name), getattr(_EVERY_FIELD, f.name)
            assert got == want and type(got) is type(want), f.name
    assert certificate_to_json(back) == text


def test_slotted_certificate_pickles_every_field():
    # A certificate holds its fields in slots, with no per-instance dict.
    assert not hasattr(_EVERY_FIELD, "__dict__")
    back = pickle.loads(pickle.dumps(_EVERY_FIELD))
    np.testing.assert_array_equal(back.p, _EVERY_FIELD.p)
    for f in fields(IqcCertificate):
        if f.name != "p":
            assert getattr(back, f.name) == getattr(_EVERY_FIELD, f.name), f.name
    assert certificate_to_json(back) == certificate_to_json(_EVERY_FIELD)


@pytest.mark.parametrize("key", _CERT_KEYS)
def test_certificate_json_requires_every_key(key):
    raw = json.loads(certificate_to_json(_EVERY_FIELD))
    del raw[key]
    with pytest.raises(ValueError, match=f"no '{key}' key"):
        certificate_from_json(json.dumps(raw))


def test_certificate_json_rejects_non_square_p():
    cert_text = certificate_to_json(
        IqcCertificate(
            optimizer="sgd",
            gamma=0.1,
            beta=1.0,
            p=np.array([[1.0]]),
            lam=0.0,
            tau=0.0,
            rho=0.0,
            lmi_max_eig=0.0,
            p_min_eig=1.0,
            status="Inconclusive",
            solver_seed=0,
        )
    )
    raw = json.loads(cert_text)
    raw["P"] = [1.0, 2.0, 3.0]
    with pytest.raises(ValueError, match="not square"):
        certificate_from_json(json.dumps(raw))


def test_certificate_json_of_the_three_multiplier_format_names_the_missing_key():
    # Documents written before the one-multiplier LMI hold tau1, tau2, tau3.
    raw = {
        "optimizer": "sgd", "gamma": 0.1, "beta": 1.0, "P": [1.0], "lambda": 0.09,
        "tau1": 0.1, "tau2": 0.2, "tau3": 0.5, "rho": 0.0, "lmi_max_eig": -0.09,
        "p_min_eig": 1.0, "status": "Feasible", "solver_seed": 0,
    }
    with pytest.raises(ValueError, match="no 'tau' key"):
        certificate_from_json(json.dumps(raw))


def test_assemble_lmi_of_a_stack_is_the_stack_of_lmis():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(HeavyBall(eta=0.5, mu=0.3), sb)
    rng = np.random.default_rng(3)
    p = rng.normal(size=(4, 2, 2))
    lam, tau = rng.uniform(0.0, 2.0, size=(2, 4, 1, 1))
    stack = assemble_lmi(system, sb, p, lam, tau, 0.05)
    for k in range(4):
        want = assemble_lmi(system, sb, p[k], lam[k, 0, 0], tau[k, 0, 0], 0.05)
        np.testing.assert_allclose(stack[k], want, rtol=1e-14, atol=1e-14)


def test_recompute_eigs_matches_stored():
    sb = SectorBounds(0.1, 1.0)
    system = lure_of(Sgd(1.0), sb)
    p = np.array([[0.8]])
    lam, tau = 1e-4, 0.6
    lmi = assemble_lmi(system, sb, p, lam, tau)
    cert = IqcCertificate(
        optimizer="sgd",
        gamma=sb.gamma,
        beta=sb.beta,
        p=p,
        lam=lam,
        tau=tau,
        rho=0.0,
        lmi_max_eig=float(np.linalg.eigvalsh(lmi)[-1]),
        p_min_eig=0.8,
        status="Feasible",
        solver_seed=0,
    )
    top, bottom = cert.recompute_eigs(system, sb)
    assert top == pytest.approx(cert.lmi_max_eig, abs=1e-10)
    assert bottom == pytest.approx(0.8, abs=1e-12)
