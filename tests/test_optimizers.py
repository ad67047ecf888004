import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert.lyapunov import fixed_curvature_rate, one_step_rate
from stabcert.optimizers import (
    HeavyBall,
    LureSystem,
    NagSmoothQuadratic,
    NagStandard,
    OptimizerState,
    SectorBounds,
    Sgd,
    TripleMomentum,
    TwoStep,
    a_alpha,
    lure_of,
    nag_step,
    sgd_step,
    step_rule,
    theta_of,
)

kappas = st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False)


def test_sector_bounds_validation():
    sb = SectorBounds(0.1, 1.0)
    assert sb.kappa == pytest.approx(10.0)
    assert [f.name for f in dataclasses.fields(SectorBounds)] == ["gamma", "beta"]
    with pytest.raises(ValueError):
        SectorBounds(0.0, 1.0)
    with pytest.raises(ValueError):
        SectorBounds(2.0, 1.0)
    with pytest.raises(ValueError):
        SectorBounds(-1.0, 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            SectorBounds(0.1, bad)
        with pytest.raises(ValueError, match="finite"):
            SectorBounds(bad, 1.0)
        for make in (Sgd, lambda eta: HeavyBall(eta, 0.5), lambda eta: NagStandard(eta, 0.5)):
            with pytest.raises(ValueError, match="step size"):
                make(bad)
    # kappa overflows: the message names the bounds as given, not rescaled.
    with pytest.raises(ValueError, match=r"finite kappa .* gamma=1e-200, beta=1e\+200"):
        SectorBounds(1e-200, 1e200)


def test_theta_endpoints():
    assert theta_of(1.0) == 0.0
    assert theta_of(4.0) == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        theta_of(0.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="condition number"):
            theta_of(bad)


def test_tuned_momentum_that_rounds_to_1_names_the_condition_number():
    # sqrt(kappa) +- 1 round to sqrt(kappa) from about kappa = 1e32 on.
    assert theta_of(1e31) < 1.0
    assert TripleMomentum(SectorBounds(1.0, 1e31)).mu < 1.0
    for make in (theta_of, lambda k: NagSmoothQuadratic(SectorBounds(1.0, k)),
                 lambda k: TripleMomentum(SectorBounds(1.0, k))):
        with pytest.raises(ValueError, match=r"condition number 1e\+40 is too large"):
            make(1e40)
    with pytest.raises(ValueError, match=r"condition number 1e\+32 is too large"):
        theta_of(1e32)


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
    st0 = OptimizerState(w=np.array([2.0]), v=np.array([0.0]))
    out = sgd_step(st0, st0.w, eta=0.1)
    assert out.w[0] == pytest.approx(1.8)


@given(st.floats(0.01, 1.0), st.lists(st.floats(-3, 3), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_nag_with_zero_momentum_is_sgd(eta, coords):
    w = np.array(coords)
    grad = lambda v: 2.0 * v + 1.0
    s = OptimizerState(w=w.copy(), v=np.zeros_like(w))
    a = sgd_step(s, grad(s.w), eta)
    b = nag_step(s, grad, eta, mu=0.0)
    np.testing.assert_allclose(a.w, b.w, atol=1e-14)


def test_state_zeros():
    s = OptimizerState.zeros(4)
    assert s.w.shape == (4,) and s.v.shape == (4,)


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


@pytest.mark.parametrize("kappa", [1.5, 2.0, 4.0, 10.0, 25.0, 1e4])
def test_a_alpha_is_the_closed_loop_of_lure_of(kappa):
    # The direct route's map a_alpha acts on (query point, xi); lure_of's
    # closed loop A + lam B C acts on (xi_t, xi_{t-1}), and
    # T = [[1 + theta, -theta], [1, 0]] maps the second pair to the first.
    sb = SectorBounds(1.0, kappa)
    theta = theta_of(kappa)
    system = lure_of(NagSmoothQuadratic(sb), sb)
    t = np.array([[1.0 + theta, -theta], [1.0, 0.0]])
    t_inv = np.linalg.inv(t)
    for lam in np.linspace(sb.gamma, sb.beta, 7):
        loop = system.a + lam * system.b @ system.c
        err = np.abs(a_alpha(theta, 1.0 - lam / sb.beta) - t @ loop @ t_inv).max()
        assert err <= 1e-14


def test_a_alpha_at_kappa_1_is_the_scalar_loop():
    # theta = 0 at kappa = 1, where lure_of's form is 1x1.
    sb = SectorBounds(1.0, 1.0)
    system = lure_of(NagSmoothQuadratic(sb), sb)
    assert theta_of(1.0) == 0.0 and system.state_dim == 1
    for lam in np.linspace(sb.gamma, sb.beta, 7):
        loop = system.a + lam * system.b @ system.c
        assert a_alpha(0.0, 1.0 - lam / sb.beta)[0, 0] == loop[0, 0]


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

    # worked case kappa=4, beta=1: theta = 1/3
    sb4 = SectorBounds(0.25, 1.0)
    nag4 = lure_of(NagSmoothQuadratic(sb4), sb4)
    np.testing.assert_allclose(nag4.a, [[4.0 / 3.0, -1.0 / 3.0], [1.0, 0.0]])
    np.testing.assert_allclose(nag4.b, [[-1.0], [0.0]])
    np.testing.assert_allclose(nag4.c, [[4.0 / 3.0, -1.0 / 3.0]])

    std = lure_of(NagStandard(eta=0.01, mu=0.9), sb)
    np.testing.assert_allclose(std.a, [[1.9, -0.9], [1.0, 0.0]])
    np.testing.assert_allclose(std.b, [[-0.01], [0.0]])
    np.testing.assert_allclose(std.c, [[1.9, -0.9]])

    with pytest.raises(TypeError):
        lure_of(object(), sb)


def _paper_nag_sq_step(w, v, grad, bounds):
    # The sector-tuned Nesterov step as the paper writes it, on its own
    # pair: w is the query point and v the auxiliary sequence.
    #   v+ = w - grad(w)/beta,  w+ = (1 + theta) v+ - theta v
    theta = theta_of(bounds.kappa)
    v_next = w - grad / bounds.beta
    return (1.0 + theta) * v_next - theta * v, v_next


def test_lure_matches_step_dynamics():
    # Iterating z+ = A z + B u with u = grad(C z), the paper's recursion
    # and step_rule(NagSmoothQuadratic) are one trajectory on a quadratic
    # direction.  The feedback state is (v_t, v_{t-1}) of the paper's
    # pair, and the step state (w, v) reads its query point as
    # w + theta v and its v as w; a start at rest maps to z0 = (c, c).
    sb = SectorBounds(0.2, 1.0)
    spec = NagSmoothQuadratic(sb)
    theta = theta_of(sb.kappa)
    sys_ = lure_of(spec, sb)
    step = step_rule(spec)
    h = 0.6  # curvature inside the sector
    c0 = 1.7
    z = np.array([c0, c0])
    w, v = c0, c0
    state = OptimizerState(w=np.array([c0]), v=np.array([0.0]))
    for _ in range(40):
        y = float(sys_.c[0] @ z)
        assert y == pytest.approx(w, abs=1e-12)
        z = sys_.a @ z + sys_.b[:, 0] * (h * y)
        w, v = _paper_nag_sq_step(w, v, h * w, sb)
        state = step(state, lambda p: h * p)
        assert state.w[0] + theta * state.v[0] == pytest.approx(w, abs=1e-12)
        assert state.w[0] == pytest.approx(v, abs=1e-12)
    assert float(sys_.c[0] @ z) == pytest.approx(w, abs=1e-12)


# Feedback state -> the step state (w, v) that step_rule steps.  A
# two-step state (w_t, w_{t-1}) has the velocity v = w_t - w_{t-1}; sgd's
# 1x1 form holds no velocity, so only its w is compared (v is None).
_STEP_STATE = {
    "sgd": (Sgd(0.7), lambda system, x: (x[0], None)),
    "heavyball": (HeavyBall(0.4, 0.8), lambda system, x: (x[0], x[0] - x[1])),
    "nag": (NagStandard(0.4, 0.8), lambda system, x: (x[0], x[0] - x[1])),
    "nag-sq": (NagSmoothQuadratic(SectorBounds(0.2, 1.0)),
               lambda system, x: (x[0], x[0] - x[1])),
    "tmm": (TripleMomentum(SectorBounds(0.2, 1.0)), lambda system, x: (x[0], x[0] - x[1])),
}


@pytest.mark.parametrize("name", list(_STEP_STATE))
def test_lure_matches_step_functions(name):
    # The feedback form x+ = A x + B (h C x) and the step function that
    # step_rule picks are one optimizer: stepped side by side on a
    # quadratic direction of curvature h they stay on the mapped state.
    spec, step_state = _STEP_STATE[name]
    sb = SectorBounds(0.2, 1.0)
    system = lure_of(spec, sb)
    step = step_rule(spec)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(20):
        h = rng.uniform(sb.gamma, sb.beta)
        x = rng.normal(size=system.state_dim)
        w, v = step_state(system, x)
        state = OptimizerState(w=np.array([[w]]), v=np.array([[0.0 if v is None else v]]))
        for _ in range(100):
            x = system.a @ x + system.b[:, 0] * (h * float(system.c[0] @ x))
            state = step(state, lambda p: h * p)
            want_w, want_v = step_state(system, x)
            worst = max(worst, abs(want_w - state.w[0, 0]))
            if want_v is not None:
                worst = max(worst, abs(want_v - state.v[0, 0]))
    assert worst <= 1e-10


def _explicit_form(a, b, c):
    return LureSystem(np.array(a), np.array(b), np.array(c))


def test_lure_system_checks_its_shapes():
    # A is s x s, B is s x 1 and C is 1 x s: one scalar gradient channel.
    _explicit_form([[1.0, 0.5], [1.0, 0.0]], [[-1.0], [0.0]], [[1.0, 0.5]])
    for a, b, c in [
        ([[1.0, 0.5]], [[-1.0]], [[1.0, 0.5]]),
        ([[1.0]], [[-1.0, 0.0]], [[1.0]]),
        ([[1.0]], [[-1.0]], [[1.0], [0.0]]),
        ([[1.0, 0.0], [0.0, 1.0]], [[-1.0]], [[1.0, 0.0]]),
    ]:
        with pytest.raises(ValueError, match="need A s x s"):
            _explicit_form(a, b, c)


def test_lure_of_keeps_the_explicit_forms():
    # Every member's feedback form is the one each optimizer had written
    # out on its own: sgd 1x1, heavy ball on (w_t, w_{t-1}), and nag-sq on
    # (v_t, v_{t-1}).
    rng = np.random.default_rng(5)
    for _ in range(50):
        sb = SectorBounds(*sorted(10.0 ** rng.uniform(-3.0, 2.0, size=2)))
        eta, mu = 10.0 ** rng.uniform(-3.0, 1.0), rng.uniform(0.0, 1.0)
        th, beta = theta_of(sb.kappa), sb.beta
        cases = [
            (Sgd(eta), _explicit_form([[1.0]], [[-eta]], [[1.0]])),
            (HeavyBall(eta, mu),
             _explicit_form([[1.0 + mu, -mu], [1.0, 0.0]], [[-eta], [0.0]], [[1.0, 0.0]])),
            (NagSmoothQuadratic(sb),
             _explicit_form([[1.0 + th, -th], [1.0, 0.0]], [[-1.0 / beta], [0.0]],
                            [[1.0 + th, -th]])),
        ]
        for spec, want in cases:
            got = lure_of(spec, sb)
            for name in ("a", "b", "c"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_nag_standard_rates_match_the_velocity_form():
    # NagStandard's form moved from (w, v) to (w_t, w_{t-1}); the rates do
    # not depend on the state's coordinates.  They agree to roundoff, which
    # the radius amplifies near a double eigenvalue, where it takes a square
    # root of a vanishing discriminant: 5.3e-14 was the largest difference
    # over 2000 draws, and 1e-14 fails on some seeds.
    rng = np.random.default_rng(17)
    for _ in range(400):
        gamma = 10.0 ** rng.uniform(-3.0, 0.0)
        sb = SectorBounds(gamma, 1.0)
        eta, mu = 10.0 ** rng.uniform(-2.0, 0.5), rng.uniform(0.0, 0.99)
        old = _explicit_form([[1.0, mu], [0.0, mu]], [[-eta], [-eta]], [[1.0, mu]])
        new = lure_of(NagStandard(eta, mu), sb)
        assert fixed_curvature_rate(new, sb) == pytest.approx(
            fixed_curvature_rate(old, sb), abs=1e-13, rel=0.0)
        assert one_step_rate(new, sb) == pytest.approx(one_step_rate(old, sb), abs=1e-13, rel=0.0)


def test_two_step_validates_once():
    assert Sgd(0.5) == TwoStep(0.5, 0.0, 0.0)
    assert HeavyBall(0.5, 0.3) == TwoStep(0.5, 0.3, 0.0)
    assert NagStandard(0.5, 0.3) == TwoStep(0.5, 0.3, 0.3)
    for gamma, beta in ((0.1, 1.0), (1.0, 25.0), (0.5, 0.5), (2.0, 3.0)):
        sb = SectorBounds(gamma, beta)
        th = theta_of(sb.kappa)
        assert NagSmoothQuadratic(sb) == TwoStep(1.0 / beta, th, th)
        assert NagSmoothQuadratic(bounds=sb) == NagSmoothQuadratic(sb)
    for bad in (-0.1, 1.0, np.nan):
        with pytest.raises(ValueError, match="momentum"):
            TwoStep(0.5, bad)
        with pytest.raises(ValueError, match="lookahead"):
            TwoStep(0.5, 0.3, bad)


def test_nag_step_at_zero_momentum_is_bitwise_sgd_step():
    # Both call the gradient at w itself, so every state stays bitwise equal.
    rng = np.random.default_rng(3)
    grad = lambda p: np.tanh(p) + 0.3 * p - 0.1
    a = b = OptimizerState(w=rng.normal(size=(5, 4)), v=np.zeros((5, 4)))
    for _ in range(200):
        a = sgd_step(a, grad(a.w), 0.37)
        b = nag_step(b, grad, 0.37, 0.0, 0.0)
        np.testing.assert_array_equal(a.w, b.w)


@pytest.mark.parametrize("spec", [Sgd(0.37), HeavyBall(0.2, 0.7), NagStandard(0.2, 0.7)],
                         ids=["sgd", "heavyball", "nag"])
def test_nag_step_in_place_equals_functional_step(spec):
    # out=state writes the next state into the one passed in, bitwise
    # equal to the functional step and to the update written out in
    # its order: q = w + nu v, v+ = mu v - eta g(q), w+ = w + v+.  The
    # array grad_at returned is left as it was.
    rng = np.random.default_rng(5)
    returned = []

    def grad(p):
        g = np.tanh(p) + 0.3 * p - 0.1
        returned.append((g, g.copy()))
        return g

    w0, v0 = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
    ref = OptimizerState(w=w0.copy(), v=v0.copy())
    functional = OptimizerState(w=w0.copy(), v=v0.copy())
    state = OptimizerState(w=w0.copy(), v=v0.copy())
    w_buf, v_buf = state.w, state.v
    for _ in range(50):
        q = ref.w + spec.nu * ref.v
        v = spec.mu * ref.v - spec.eta * (np.tanh(q) + 0.3 * q - 0.1)
        ref = OptimizerState(w=ref.w + v, v=v)
        functional = nag_step(functional, grad, spec.eta, spec.mu, spec.nu)
        assert nag_step(state, grad, spec.eta, spec.mu, spec.nu, out=state) is state
        assert state.w is w_buf and state.v is v_buf
        for got in (functional, state):
            np.testing.assert_array_equal(got.w, ref.w)
            np.testing.assert_array_equal(got.v, ref.v)
    assert len(returned) == 100
    for g, kept in returned:
        np.testing.assert_array_equal(g, kept)


def test_nag_step_never_writes_a_gradient_that_aliases_its_query():
    # A grad_at that hands back its argument (here f = 1/2 ||w||^2)
    # still gets that array back unchanged.
    returned = []

    def grad(p):
        returned.append((p, p.copy()))
        return p

    state = OptimizerState(w=np.array([[1.5, -2.0]]), v=np.array([[0.25, 0.5]]))
    nag_step(state, grad, 0.5, 0.4, out=state)
    (g, kept), = returned
    np.testing.assert_array_equal(g, kept)
    np.testing.assert_array_equal(state.v, 0.4 * np.array([[0.25, 0.5]]) - 0.5 * kept)
