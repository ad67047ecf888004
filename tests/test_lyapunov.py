import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import lyapunov
from stabcert.linalg import eig2_radius
from stabcert.lyapunov import (
    assemble_m_alpha,
    build_p_eps,
    cjy_bound,
    cjy_limit,
    find_feasible_region,
    fixed_curvature_rate,
    kappa_of_theta,
    nag_stability_bound,
    nag_stability_limit,
    one_step_rate,
    sgd_stability_bound,
    verify_contraction,
)
from stabcert.optimizers import (
    HeavyBall,
    LureSystem,
    NagSmoothQuadratic,
    NagStandard,
    OptimizerState,
    SectorBounds,
    Sgd,
    TwoStep,
    lure_of,
    step_rule,
    theta_of,
)

thetas = st.floats(0.0, 0.95)
eps_vals = st.floats(1e-6, 10.0)


def test_kappa_theta_round_trip():
    for kappa in (1.0, 2.0, 10.0, 123.4):
        assert kappa_of_theta(theta_of(kappa)) == pytest.approx(kappa, rel=1e-12)
    with pytest.raises(ValueError):
        kappa_of_theta(1.0)
    with pytest.raises(ValueError):
        kappa_of_theta(-0.1)


@given(thetas, eps_vals)
@settings(max_examples=200, deadline=None)
def test_p_eps_determinant_and_positivity(theta, eps):
    p = build_p_eps(theta, eps)
    det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    assert det == pytest.approx(eps, rel=1e-9)
    assert p[0, 0] > 0.0 and det > 0.0  # Sylvester: PD


def test_p_eps_rejects_nonpositive_eps():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            build_p_eps(0.5, bad)


def test_m_alpha_closed_form_diagonal():
    # With the completed-square P the slack matrix has the exact closed
    # form: (1,1) entry alpha^2 eps - (1-rho), (2,2) entry theta^2 -
    # (1-rho) p22, off-diagonal independent of alpha.
    rng = np.random.default_rng(5)
    for _ in range(200):
        theta = rng.uniform(0.0, 0.9)
        eps = rng.uniform(1e-4, 5.0)
        rho = rng.uniform(1e-4, 0.5)
        alpha = rng.uniform(0.0, 1.0)
        p = build_p_eps(theta, eps)
        m = assemble_m_alpha(p, theta, rho, alpha)
        want00 = alpha * alpha * eps - (1.0 - rho) * p[0, 0]
        want11 = theta * theta - (1.0 - rho) * p[1, 1]
        want01 = -(1.0 - rho) * p[0, 1]
        assert m[0, 0] == pytest.approx(want00, abs=1e-12, rel=1e-9)
        assert m[1, 1] == pytest.approx(want11, abs=1e-12, rel=1e-9)
        assert m[0, 1] == pytest.approx(want01, abs=1e-12, rel=1e-9)
        assert m[0, 1] == pytest.approx(m[1, 0], abs=1e-15)
    with pytest.raises(ValueError):
        assemble_m_alpha(np.eye(3), 0.5, 0.1, 0.5)


@given(
    st.floats(0.0, 0.95),
    st.floats(1e-3, 0.5),
    st.floats(0.0, 1.0),
    st.floats(0.1, 4.0),
    st.floats(0.1, 4.0),
    st.floats(-2.0, 2.0),
)
@settings(max_examples=300, deadline=None)
def test_m_alpha_diagonals_for_general_p(theta, rho, alpha, a, b, c):
    # For any symmetric P = [[a, c], [c, b]] the diagonal of the slack
    # matrix is alpha^2 S - (1-rho) a and a theta^2 - (1-rho) b, with
    # S = a (1+theta)^2 + 2 c (1+theta) + b.
    p = np.array([[a, c], [c, b]])
    m = assemble_m_alpha(p, theta, rho, alpha)
    s = a * (1.0 + theta) ** 2 + 2.0 * c * (1.0 + theta) + b
    want00 = alpha * alpha * s - (1.0 - rho) * a
    want11 = a * theta * theta - (1.0 - rho) * b
    assert m[0, 0] == pytest.approx(want00, abs=1e-10, rel=1e-9)
    assert m[1, 1] == pytest.approx(want11, abs=1e-10, rel=1e-9)


def test_verify_contraction_argument_errors():
    with pytest.raises(ValueError):
        verify_contraction(0.5, -1.0, 0.1)
    with pytest.raises(ValueError):
        verify_contraction(0.5, 1.0, 0.0)
    with pytest.raises(ValueError):
        verify_contraction(0.5, 1.0, 1.0)


def test_region_nonempty_for_mild_conditioning():
    # kappa = 1: theta = 0, the map is pure damping, every modest pair works.
    region = find_feasible_region(
        theta_of(1.0), np.linspace(1e-9, 1.0, 8), np.linspace(1e-4, 0.3, 8)
    )
    assert region.feasible
    assert region.best is not None
    assert region.best.rho == pytest.approx(0.3)

    # kappa = 2 still admits certificates in a thin band.
    th2 = theta_of(2.0)
    region2 = find_feasible_region(
        th2,
        np.linspace(th2**2, 4 * (1 + th2) ** 2, 24),
        np.linspace(1e-4, 0.5 / np.sqrt(2.0), 16),
    )
    assert region2.feasible


def test_region_empty_once_conditioning_grows():
    # Frozen fact: for kappa >= 3 the worst alpha defeats every (eps, rho)
    # pair: no pair meets det M_alpha_bar >= 0 (the band ends near
    # kappa = 2.914).  From kappa = 4 on there is also a plainer witness:
    # alpha_bar*(1+theta) >= 1 (it is only 0.845 at kappa = 3), so the
    # state (1 + theta, 1) gains energy.
    for kappa in (3.0, 4.0, 25.0):
        th = theta_of(kappa)
        region = find_feasible_region(
            th,
            np.linspace(max(th**2, 1e-9), 4 * (1 + th) ** 2, 24),
            np.linspace(1e-4, 0.5 / np.sqrt(kappa), 16),
        )
        assert not region.feasible
        assert region.best is None


def test_exclusion_small_eps_never_valid():
    # eps < theta^2/(1-rho) forces the (1,1) slack entry positive at the
    # alpha = 0 endpoint already.
    th = theta_of(4.0)
    for rho in (1e-4, 0.1, 0.3):
        eps = 0.9 * th * th / (1.0 - rho)
        cert = verify_contraction(th, eps, rho)
        assert not cert.valid


def test_worst_alpha_sits_at_the_slow_edge():
    # Only the (1,1) slack entry moves with alpha and it grows like
    # alpha^2 eps, so the binding direction is always the upper endpoint
    # alpha = 1 - 1/kappa.
    for kappa in (2.0, 4.0, 25.0):
        cert = verify_contraction(theta_of(kappa), 0.5, 0.01)
        assert cert.worst_alpha == pytest.approx(1.0 - 1.0 / kappa, rel=1e-12)


def _max_eig_on_alpha_grid(theta, eps, rho, points):
    # Reference: lambda_max of assemble_m_alpha over a uniform alpha grid.
    # A_alpha is affine in alpha, so M_alpha is quadratic in it; the stack
    # is interpolated exactly from assemble_m_alpha at alpha = 0, 1/2, 1
    # instead of calling it once per grid point.
    p = build_p_eps(theta, eps)
    m0, mh, m1 = (assemble_m_alpha(p, theta, rho, a) for a in (0.0, 0.5, 1.0))
    c2 = 2.0 * m1 - 4.0 * mh + 2.0 * m0
    c1 = 4.0 * mh - m1 - 3.0 * m0
    alphas = np.linspace(0.0, 1.0 - 1.0 / kappa_of_theta(theta), points)[:, None, None]
    stack = alphas * alphas * c2 + alphas * c1 + m0
    probe = float(alphas[points // 3, 0, 0])
    np.testing.assert_allclose(
        stack[points // 3], assemble_m_alpha(p, theta, rho, probe), rtol=0, atol=1e-12
    )
    return float(np.linalg.eigvalsh(stack)[:, -1].max())


def test_verify_contraction_matches_dense_alpha_grid():
    # The exact test at alpha_bar is the supremum of the dense grid sweep.
    rng = np.random.default_rng(11)
    for _ in range(500):
        theta = rng.uniform(0.0, 0.95)
        eps = rng.uniform(1e-4, 10.0)
        rho = rng.uniform(1e-4, 0.9)
        cert = verify_contraction(theta, eps, rho)
        want = _max_eig_on_alpha_grid(theta, eps, rho, 4097)
        assert cert.worst_eig == pytest.approx(want, abs=1e-12, rel=0)
        assert cert.valid == (cert.worst_eig <= 0.0)
        assert cert.grid_points == 1
        assert cert.worst_alpha == 1.0 - 1.0 / kappa_of_theta(theta)


def test_coupled_steps_obey_certificate():
    # Any certified (eps, rho) pair must be honored by the actual step
    # rule: along each curvature in the sector, the difference of two
    # runs sheds at least a (1 - rho) factor of V_eps per step.
    kappa = 2.0
    sb = SectorBounds(0.5, 1.0)
    th = theta_of(kappa)
    region = find_feasible_region(
        th,
        np.linspace(th**2, 4.0 * (1.0 + th) ** 2, 16),
        np.linspace(1e-4, 0.5 / np.sqrt(kappa), 8),
    )
    cert = region.best
    assert cert is not None
    p = build_p_eps(th, cert.eps)
    step = step_rule(NagSmoothQuadratic(sb))

    def pair(s):
        # V_eps is written on the paper's pair (query point, xi), which
        # is (w + theta v, w) of the step state.
        return np.r_[s.w + th * s.v, s.w]

    for lam in np.linspace(sb.gamma, sb.beta, 7):
        # Paper pairs (1.3, 0.4) and (-0.2, 0.9) as step states.
        s1 = OptimizerState(w=np.array([0.4]), v=np.array([(1.3 - 0.4) / th]))
        s2 = OptimizerState(w=np.array([0.9]), v=np.array([(-0.2 - 0.9) / th]))
        for _ in range(25):
            x = pair(s1) - pair(s2)
            v_now = float(x @ p @ x)
            s1 = step(s1, lambda q: lam * q)
            s2 = step(s2, lambda q: lam * q)
            x = pair(s1) - pair(s2)
            v_next = float(x @ p @ x)
            assert v_next <= (1.0 - cert.rho) * v_now + 1e-12


def test_region_equals_the_per_pair_loop():
    # The one-expression sweep must give, certificate for certificate and
    # bitwise, what verify_contraction gives pair by pair: on the 24 x 16
    # grids of `stabcert lyapunov` and on 200 random pairs per kappa.
    rng = np.random.default_rng(17)
    for kappa in (1.0, 2.0, 4.0, 10.0):
        theta = theta_of(kappa)
        eps_lo = theta**2 if theta > 0.0 else 1e-9
        grids = [
            (np.linspace(eps_lo, 4.0 * (1.0 + theta) ** 2, 24),
             np.linspace(1e-4, 0.5 / np.sqrt(kappa), 16)),
            (rng.uniform(1e-3, 10.0, size=20), rng.uniform(1e-4, 0.9, size=10)),
        ]
        for eps_grid, rho_grid in grids:
            region = find_feasible_region(theta, eps_grid, rho_grid)
            assert region.eps_grid is eps_grid and region.rho_grid is rho_grid
            want = [verify_contraction(theta, e, r)
                    for e in eps_grid.tolist() for r in rho_grid.tolist()]
            assert region.certificates == want
            assert region.feasible == [c for c in want if c.valid]
            if region.feasible:
                assert region.best == max(region.feasible, key=lambda c: (c.rho, -c.worst_eig))


def test_find_feasible_region_rejects_empty_grids():
    with pytest.raises(ValueError):
        find_feasible_region(0.3, np.array([]), np.array([0.1]))
    with pytest.raises(ValueError):
        find_feasible_region(0.3, np.array([0.1]), np.array([]))


@pytest.mark.parametrize("eps", [np.inf, np.nan, 0.0, -1.0])
def test_sweep_rejects_the_eps_a_single_pair_rejects(eps):
    # The sweep and the single pair share one range check, with one message.
    message = f"eps must be positive and finite, got {eps}"
    with pytest.raises(ValueError, match=message):
        verify_contraction(0.3, eps, 0.05)
    with pytest.raises(ValueError, match=message):
        find_feasible_region(0.3, np.array([1.0, eps]), np.array([0.05]))


def _tuned_rate(kappa):
    unit = SectorBounds(1.0, kappa)
    return fixed_curvature_rate(lure_of(NagSmoothQuadratic(unit), unit), unit)


def test_contraction_rate_values():
    assert _tuned_rate(1.0) == pytest.approx(1.0)
    assert np.sqrt(1.0 - _tuned_rate(1.0)) == 0.0
    # radius = 1 - 1/sqrt(kappa) (the eigenvalues collide: zero
    # discriminant for every kappa), so rho = (2*sqrt(kappa) - 1)/kappa.
    for kappa in (2.0, 10.0, 100.0, 1e6):
        rho = _tuned_rate(kappa)
        assert np.sqrt(1.0 - rho) == pytest.approx(1.0 - 1.0 / np.sqrt(kappa), rel=1e-12)
        want = (2.0 * np.sqrt(kappa) - 1.0) / kappa
        assert rho == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        SectorBounds(1.0, 0.9)


def test_momentum_rate_frozen_value():
    # Logistic experiment envelope: eta=0.01, mu=0.9 over the sector
    # [1e-3, 1e-3 + 0.25 * max row norm^2] observed in the synthetic set.
    sector = SectorBounds(1e-3, 17.23549271455961)
    rho = fixed_curvature_rate(lure_of(NagStandard(0.01, 0.9), sector), sector)
    assert rho == pytest.approx(2.0015227765168842e-4, rel=1e-9)


def _rate_on_grid(system, bounds, grid=600):
    # Reference: worst spectral radius of the closed loop A + lam B C
    # over a geometric curvature grid.
    lam = np.geomspace(bounds.gamma, bounds.beta, grid)[:, None, None]
    m = system.a + lam * (system.b @ system.c)
    tr = m[:, 0, 0] + m[:, 1, 1]
    det = m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]
    worst = max(eig2_radius(t, d) for t, d in zip(tr.tolist(), det.tolist()))
    return 0.0 if worst >= 1.0 else float(1.0 - worst * worst)


def test_momentum_rate_matches_curvature_grid():
    # The radius of A + lam B C is quasiconvex in lam, so the sector's
    # two endpoints give the same worst case as a dense scan.
    rng = np.random.default_rng(12)
    unstable = 0
    for _ in range(300):
        gamma = 10.0 ** rng.uniform(-4.0, 0.0)
        sector = SectorBounds(gamma, gamma * 10.0 ** rng.uniform(0.0, 4.0))
        eta = 10.0 ** rng.uniform(-3.0, 0.5) / sector.beta
        mu = rng.uniform(0.0, 0.99)
        specs = (NagStandard(eta, mu), HeavyBall(eta, mu), NagSmoothQuadratic(sector))
        for pos, spec in enumerate(specs):
            system = lure_of(spec, sector)
            got = fixed_curvature_rate(system, sector)
            want = _rate_on_grid(system, sector)
            assert got == pytest.approx(want, abs=1e-15, rel=1e-12), spec
            unstable += pos == 0 and got == 0.0
    assert 0 < unstable < 300


def test_momentum_rate_zero_when_unstable():
    # huge step blows past the sector: no contraction to certify
    sector = SectorBounds(0.5, 1.0)
    assert fixed_curvature_rate(lure_of(NagStandard(3.0, 0.9), sector), sector) == 0.0
    with pytest.raises(ValueError):
        NagStandard(-0.1, 0.9)
    with pytest.raises(ValueError):
        NagStandard(0.1, 1.0)


def test_sgd_rate_closed_form():
    sb = SectorBounds(0.1, 1.0)
    # eta = 1/beta: radius max(|1 - 0.1|, 0) = 0.9
    assert fixed_curvature_rate(lure_of(Sgd(1.0), sb), sb) == pytest.approx(1.0 - 0.81, rel=1e-12)
    assert fixed_curvature_rate(lure_of(Sgd(3.0), sb), sb) == 0.0  # |1 - 3| = 2 >= 1
    with pytest.raises(ValueError):
        Sgd(0.0)


def test_fixed_curvature_rate_rejects_unsupported_forms():
    sb = SectorBounds(0.1, 1.0)
    with pytest.raises(ValueError, match="state"):
        fixed_curvature_rate(LureSystem(np.eye(3), np.ones((3, 1)), np.ones((1, 3))), sb)
    # A vector channel is no LureSystem at all.
    with pytest.raises(ValueError, match="B s x 1"):
        LureSystem(np.eye(2), np.ones((2, 2)), np.ones((2, 2)))


def test_nag_bound_monotonicity_and_limit():
    sb = SectorBounds(0.1, 1.0)
    g = 2.0
    vals = [nag_stability_bound(g, sb, 100, t).param for t in (0, 10, 100, 10_000)]
    assert vals[0] == 0.0
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    limit = nag_stability_limit(g, sb, 100)
    assert vals[-1] <= limit.param
    assert nag_stability_bound(g, sb, 100, 10**9).param == pytest.approx(
        limit.param, rel=1e-9
    )
    # halving n scales by sqrt(2)
    assert nag_stability_limit(g, sb, 50).param == pytest.approx(
        limit.param * np.sqrt(2.0), rel=1e-12
    )
    # the loss figure is always G times the parameter figure
    at_t = nag_stability_bound(g, sb, 100, 100)
    assert at_t.loss == pytest.approx(g * at_t.param, rel=1e-15)
    assert limit.loss == pytest.approx(g * limit.param, rel=1e-15)


def test_nag_bound_formula_spot_value():
    # G=1, kappa=16 (so kappa^(1/4)=2), beta=2, n=4: 4*1*2/(2*2) = 2
    sb = SectorBounds(0.125, 2.0)
    assert nag_stability_limit(1.0, sb, 4).param == pytest.approx(2.0, rel=1e-12)


def test_sgd_bound_values_and_errors():
    sb = SectorBounds(0.1, 1.0)
    assert sgd_stability_bound(2.0, sb, 100) == pytest.approx(0.8, rel=1e-12)
    with pytest.raises(ValueError):
        sgd_stability_bound(2.0, sb, 0)
    # G = 0 is a valid bound and gives 0; a non-finite G is rejected by
    # every bound, where nag_stability_bound once returned inf.
    assert sgd_stability_bound(0.0, sb, 100) == 0.0
    assert nag_stability_bound(0.0, sb, 100, 10) == (0.0, 0.0)
    for bad in (np.inf, np.nan):
        for call in (lambda g: sgd_stability_bound(g, sb, 100),
                     lambda g: nag_stability_limit(g, sb, 100),
                     lambda g: nag_stability_bound(g, sb, 100, 10)):
            with pytest.raises(ValueError, match=f"Lipschitz constant must be finite, got {bad}"):
                call(bad)
    with pytest.raises(ValueError, match="Lipschitz constant must be >= 0, got -1.0"):
        nag_stability_limit(-1.0, sb, 100)
    with pytest.raises(ValueError, match="iteration count must be >= 0, got -1"):
        nag_stability_bound(2.0, sb, 100, -1)


def test_cjy_bound_and_limit():
    sb = SectorBounds(0.01, 1.0)  # kappa = 100
    lim = cjy_limit(sb, 50)
    assert lim == pytest.approx(4.0 / (0.01 * 50), rel=1e-12)
    assert cjy_bound(sb, 50, 0) == 0.0
    # decay factor 1 - 1/sqrt(100) = 0.9
    assert cjy_bound(sb, 50, 1) == pytest.approx(lim * 0.1, rel=1e-12)
    assert cjy_bound(sb, 50, 10**6) == pytest.approx(lim, rel=1e-12)


@pytest.mark.parametrize("beta, want", [(1e200, 4e199), (1e-300, 4e-301)])
def test_cjy_limit_where_beta_squared_leaves_the_float_range(beta, want):
    # 4 beta^2 / (gamma n) is finite at both ends although beta^2 is not.
    sb = SectorBounds(beta, beta)
    assert cjy_limit(sb, 10) == pytest.approx(want, rel=1e-12)
    assert cjy_bound(sb, 10, 10) == pytest.approx(want, rel=1e-12)


_UNIT = SectorBounds(0.1, 1.0)


def _nag_sq(kappa):
    sb = SectorBounds(1.0, kappa)
    return lure_of(NagSmoothQuadratic(sb), sb), sb


@pytest.mark.parametrize("system, sb, exact", [
    (lure_of(Sgd(1.0), _UNIT), _UNIT, 0.19),
    (lure_of(HeavyBall(eta=1.0, mu=0.3), _UNIT), _UNIT, 0.121240647),
    (lure_of(HeavyBall(eta=0.5, mu=0.5), _UNIT), _UNIT, 0.0644766639),
    (lure_of(NagStandard(eta=1.0, mu=0.5), _UNIT), _UNIT, 7.0 / 79.0),
    (*_nag_sq(10.0), 0.4 * (np.sqrt(10.0) - 3.0)),
    (*_nag_sq(4.0), 0.5),
    (*_nag_sq(2.0), 2.0 * (np.sqrt(2.0) - 1.0)),
], ids=["sgd", "heavyball-1-0.3", "heavyball-0.5-0.5", "nag-standard", "nag-sq-10", "nag-sq-4",
        "nag-sq-2"])
def test_one_step_rate_values(system, sb, exact):
    # sgd and nag-sq have closed forms, and NagStandard(1, 0.5) lands on
    # 7/79.  The heavyball pins are frozen values; test_sdp checks that
    # the SDP certifies every pin 0.4 tol below it and not 0.4 tol above.
    assert one_step_rate(system, sb) == pytest.approx(exact, abs=1e-9)


def test_one_step_rate_nag_sq_region_ends_at_kappa_star():
    kappa_star = 6.0 + 4.0 * np.sqrt(2.0)
    assert one_step_rate(*_nag_sq(kappa_star - 1e-6)) > 0.0
    assert one_step_rate(*_nag_sq(kappa_star + 1e-6)) == 0.0
    assert one_step_rate(*_nag_sq(12.0)) == 0.0


@given(eta=st.floats(0.05, 3.0), mu=st.floats(0.0, 0.95), gamma=st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_one_step_rate_never_beats_a_fixed_curvature(eta, mu, gamma):
    # A common Lyapunov function makes both endpoint loops contract, so
    # the one-step rate is at most the fixed-curvature one; for a 1x1
    # state they are equal.
    sb = SectorBounds(gamma, 1.0)
    for spec in (HeavyBall(eta, mu), NagStandard(eta, mu)):
        system = lure_of(spec, sb)
        rate = one_step_rate(system, sb)
        assert 0.0 <= rate <= fixed_curvature_rate(system, sb) + 1e-12
    system = lure_of(Sgd(eta), sb)
    assert one_step_rate(system, sb) == fixed_curvature_rate(system, sb)


def test_one_step_rate_is_none_for_unsupported_forms():
    assert one_step_rate(LureSystem(np.eye(3), np.ones((3, 1)), np.ones((1, 3))), _UNIT) is None
    # A vector output is no LureSystem at all.
    with pytest.raises(ValueError, match="C 1 x s"):
        LureSystem(0.5 * np.eye(2), np.ones((2, 1)), np.ones((2, 2)))


def _grid_decrement(m1, m2):
    # The smallest, over a grid of P > 0 (every orientation, eigenvalue
    # ratios 1e-4 to 1e4), of the largest eigenvalue of M^T P M - P per
    # unit trace P, worst of the two matrices.  Negative means that grid
    # point is a common quadratic Lyapunov function.
    theta = np.linspace(0.0, np.pi, 180, endpoint=False)[:, None]
    ratio = np.exp(np.linspace(np.log(1e-4), np.log(1e4), 161))[None, :]
    c, s = np.cos(theta), np.sin(theta)
    p00, p01, p11 = c * c + ratio * s * s, c * s * (1.0 - ratio), s * s + ratio * c * c
    worst = np.full(p00.shape, -np.inf)
    for (a, b), (g, d) in (m1, m2):
        q00 = a * a * p00 + 2.0 * a * g * p01 + g * g * p11 - p00
        q01 = a * b * p00 + (a * d + b * g) * p01 + g * d * p11 - p01
        q11 = b * b * p00 + 2.0 * b * d * p01 + d * d * p11 - p11
        top = 0.5 * (q00 + q11) + np.sqrt(0.25 * (q00 - q11) ** 2 + q01 * q01)
        worst = np.maximum(worst, top / (p00 + p11))
    return float(worst.min())


def _endpoint_loops(rng):
    # The two sector-endpoint loops A + gamma B C and A + beta B C of a
    # random LureSystem or TwoStep: pairs with a rank-one difference.
    gamma = float(rng.uniform(0.05, 1.0))
    sb = SectorBounds(gamma, gamma * float(rng.uniform(1.0, 20.0)))
    if rng.random() < 0.5:
        system = LureSystem(0.6 * rng.normal(size=(2, 2)), rng.normal(size=(2, 1)) / sb.beta,
                            rng.normal(size=(1, 2)))
    else:
        mu = float(rng.uniform(0.0, 0.95))
        spec = TwoStep(float(rng.uniform(0.05, 2.0)) / sb.beta, mu, float(rng.choice([0.0, mu])))
        system = lure_of(spec, sb)
    bc = system.b @ system.c
    return [(system.a + lam * bc).tolist() for lam in (sb.gamma, sb.beta)]


def test_common_lyapunov_test_agrees_with_a_search_over_p():
    # Rank-one pairs, as on a scalar channel: a grid point that contracts
    # both proves a common P exists, and a pair accepted with room to
    # spare (at q = 0.98) has one on the grid.  Shorten & Narendra's
    # H1 H2^-1 condition, which _common_lyapunov no longer computes,
    # never rejects a Schur pair that the H1 H2 condition passes.
    rng = np.random.default_rng(1)
    passed = failed = 0
    for _ in range(300):
        m1, m2 = _endpoint_loops(rng)
        found = _grid_decrement(m1, m2) < -1e-9
        if found:
            assert lyapunov._common_lyapunov(m1, m2, 1.0)
        if lyapunov._common_lyapunov(m1, m2, 0.98):
            assert found
        if not all(max(abs(np.linalg.eigvals(m))) < 1.0 for m in (m1, m2)):
            continue
        a11, a12, a21, a22 = lyapunov._cayley(m1, 1.0)
        b11, b12, b21, b22 = lyapunov._cayley(m2, 1.0)
        det = (a11 * a22 - a12 * a21) * (b11 * b22 - b12 * b21)
        quotient = a11 * b22 - a12 * b21 - a21 * b12 + a22 * b11
        if lyapunov._common_lyapunov(m1, m2, 1.0):
            passed += 1
            assert not lyapunov._has_negative_real_eig(quotient, det)
        else:
            failed += 1
    assert passed > 50 and failed > 10
