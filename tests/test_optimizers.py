import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert.optimizers import (
    HeavyBall,
    NagSmoothQuadratic,
    NagStandard,
    OptimizerState,
    SectorBounds,
    Sgd,
    a_alpha,
    lure_of,
    nag_sq_step,
    nag_step,
    sgd_step,
    theta_of,
)
from stabcert.simulate import update_rule

kappas = st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False)


def test_sector_bounds_validation():
    sb = SectorBounds(0.1, 1.0)
    assert sb.kappa == pytest.approx(10.0)
    assert sb.grad_bound is None
    assert SectorBounds(0.1, 1.0, grad_bound=2.5).grad_bound == 2.5
    with pytest.raises(ValueError):
        SectorBounds(0.0, 1.0)
    with pytest.raises(ValueError):
        SectorBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        SectorBounds(-1.0, 1.0)
    with pytest.raises(ValueError):
        SectorBounds(0.1, 1.0, grad_bound=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SectorBounds(0.1, bad)
        with pytest.raises(ValueError, match="finite"):
            SectorBounds(bad, 1.0)
        with pytest.raises(ValueError, match="gradient bound"):
            SectorBounds(0.1, 1.0, grad_bound=bad)
        for make in (Sgd, lambda eta: HeavyBall(eta, 0.5), lambda eta: NagStandard(eta, 0.5)):
            with pytest.raises(ValueError, match="step size"):
                make(bad)


def test_theta_endpoints():
    assert theta_of(1.0) == 0.0
    assert theta_of(4.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        theta_of(0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="condition number"):
            theta_of(bad)


@given(kappas)
@settings(max_examples=200, deadline=None)
def test_theta_in_unit_interval(kappa):
    th = theta_of(kappa)
    assert 0.0 <= th < 1.0


@given(kappas, kappas)
@settings(max_examples=200, deadline=None)
def test_theta_monotone(k1, k2):
    lo, hi = sorted((k1, k2))
    assert theta_of(lo) <= theta_of(hi) + 1e-15


@given(kappas)
@settings(max_examples=200, deadline=None)
def test_theta_identity(kappa):
    # (1 + theta)^2 (1 - 1/kappa) == 4 theta, exact algebra of the
    # momentum parameter; holds to roundoff for every kappa >= 1.
    th = theta_of(kappa)
    lhs = (1.0 + th) ** 2 * (1.0 - 1.0 / kappa)
    assert abs(lhs - 4.0 * th) <= 1e-12 * max(1.0, lhs)


def test_step_rules_quadratic():
    # 1-d quadratic f = 0.5 w^2: gradient is w itself.
    st0 = OptimizerState(w=np.array([2.0]), v=np.array([0.0]), t=0)
    out = sgd_step(st0, st0.w, eta=0.1)
    assert out.w[0] == pytest.approx(1.8)
    assert out.t == 1
    out = nag_sq_step(st0, st0.w, SectorBounds(0.5, 1.0))
    # v+ = w - grad/beta = 0, w+ = (1+theta) v+ - theta v = 0
    assert out.t == 1 and out.v.shape == (1,)
    assert out.v[0] == pytest.approx(0.0)
    assert out.w[0] == pytest.approx(0.0)


@given(st.floats(0.01, 1.0), st.lists(st.floats(-3, 3), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_nag_with_zero_momentum_is_sgd(eta, coords):
    w = np.array(coords)
    grad = lambda v: 2.0 * v + 1.0
    s = OptimizerState(w=w.copy(), v=np.zeros_like(w), t=0)
    a = sgd_step(s, grad(s.w), eta)
    b = nag_step(s, grad, eta, mu=0.0)
    np.testing.assert_allclose(a.w, b.w, atol=1e-14)


def test_state_zeros():
    s = OptimizerState.zeros(4)
    assert s.w.shape == (4,) and s.v.shape == (4,) and s.t == 0


def test_a_alpha_structure():
    th = theta_of(10.0)
    for alpha in (0.0, 0.3, 1.0):
        m = a_alpha(th, alpha)
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert tr == pytest.approx((1.0 + th) * alpha)
        assert det == pytest.approx(th * alpha)
    with pytest.raises(ValueError):
        a_alpha(th, -0.1)
    with pytest.raises(ValueError):
        a_alpha(th, 1.1)


def test_lure_realizations():
    sb = SectorBounds(0.1, 1.0)
    sys_sgd = lure_of(Sgd(eta=0.2), sb)
    assert sys_sgd.a.shape == (1, 1) and sys_sgd.b[0, 0] == pytest.approx(-0.2)

    hb = lure_of(HeavyBall(eta=0.2, mu=0.5), sb)
    assert hb.a[0, 0] == pytest.approx(1.5) and hb.a[0, 1] == pytest.approx(-0.5)
    assert hb.c[0, 0] == 1.0 and hb.c[0, 1] == 0.0

    nag = lure_of(NagSmoothQuadratic(sb), sb)
    th = theta_of(sb.kappa)
    np.testing.assert_allclose(nag.a, [[1.0 + th, -th], [1.0, 0.0]])
    np.testing.assert_allclose(nag.b, [[-1.0 / sb.beta], [0.0]])
    np.testing.assert_allclose(nag.c, [[1.0 + th, -th]])
    # d term is absent for all three realizations
    assert np.all(nag.d == 0.0)

    # worked case kappa=4, beta=1: theta = 1/3
    sb4 = SectorBounds(0.25, 1.0)
    nag4 = lure_of(NagSmoothQuadratic(sb4), sb4)
    np.testing.assert_allclose(nag4.a, [[4.0 / 3.0, -1.0 / 3.0], [1.0, 0.0]])
    np.testing.assert_allclose(nag4.b, [[-1.0], [0.0]])
    np.testing.assert_allclose(nag4.c, [[4.0 / 3.0, -1.0 / 3.0]])

    std = lure_of(NagStandard(eta=0.01, mu=0.9), sb)
    np.testing.assert_allclose(std.a, [[1.0, 0.9], [0.0, 0.9]])
    np.testing.assert_allclose(std.b, [[-0.01], [-0.01]])
    np.testing.assert_allclose(std.c, [[1.0, 0.9]])
    assert np.all(std.d == 0.0)

    with pytest.raises(TypeError):
        lure_of(object(), sb)


def test_lure_matches_step_dynamics():
    # Iterating z+ = A z + B u with u = grad(C z) must reproduce the
    # step-rule trajectory of w on a quadratic direction.  The feedback
    # state is (v_t, v_{t-1}); a start at rest maps to z0 = (c, c).
    sb = SectorBounds(0.2, 1.0)
    spec = NagSmoothQuadratic(sb)
    sys_ = lure_of(spec, sb)
    h = 0.6  # curvature inside the sector
    c0 = 1.7
    z = np.array([c0, c0])
    state = OptimizerState(w=np.array([c0]), v=np.array([c0]), t=0)
    for _ in range(40):
        y = float(sys_.c[0] @ z)
        assert y == pytest.approx(state.w[0], abs=1e-12)
        z = sys_.a @ z + sys_.b[:, 0] * (h * y)
        state = nag_sq_step(state, h * state.w, sb)
    assert float(sys_.c[0] @ z) == pytest.approx(state.w[0], abs=1e-12)


# Feedback state -> the step state (w, v) that update_rule steps.  The
# NagSmoothQuadratic map (v_t, v_{t-1}) -> (C x, x[0]) is criterion 9's.
_STEP_STATE = {
    "sgd": (Sgd(0.7), lambda system, x: (x[0], 0.0)),
    "nag": (NagStandard(0.4, 0.8), lambda system, x: (x[0], x[1])),
    "nag-sq": (NagSmoothQuadratic(SectorBounds(0.2, 1.0)),
               lambda system, x: (float(system.c[0] @ x), x[0])),
}


@pytest.mark.parametrize("name", list(_STEP_STATE))
def test_lure_matches_update_rule(name):
    # The feedback form x+ = A x + B (h C x) and simulate.update_rule's
    # (query, update) are one optimizer: stepped side by side on a
    # quadratic direction of curvature h they stay on the mapped state.
    spec, step_state = _STEP_STATE[name]
    sb = SectorBounds(0.2, 1.0)
    system = lure_of(spec, sb)
    query, update = update_rule(spec)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        h = rng.uniform(sb.gamma, sb.beta)
        x = rng.normal(size=system.state_dim)
        w, v = (np.array([[z]]) for z in step_state(system, x))
        for _ in range(100):
            x = system.a @ x + system.b[:, 0] * (h * float(system.c[0] @ x))
            w, v = update(w, v, h * query(w, v))
            want_w, want_v = step_state(system, x)
            worst = max(worst, abs(want_w - w[0, 0]), abs(want_v - v[0, 0]))
    assert worst <= 1e-10
