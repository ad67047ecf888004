import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabcert import linalg
from stabcert.linalg import (
    eig2_radius,
    eigvals_sym,
)


def _random_sym(rng, dim):
    m = rng.uniform(-10.0, 10.0, size=(dim, dim))
    return 0.5 * (m + m.T)


def test_jacobi_against_lapack_bulk():
    # Module invariant: ascending values that match LAPACK, across 10^4
    # random symmetric matrices of dim <= 8.
    rng = np.random.default_rng(12345)
    for _ in range(10_000):
        dim = int(rng.integers(1, 9))
        m = _random_sym(rng, dim)
        vals = eigvals_sym(m)
        assert np.all(np.diff(vals) >= -1e-12)
        np.testing.assert_allclose(vals, np.linalg.eigvalsh(m), atol=1e-9)


@pytest.mark.parametrize("k", [600, 900, -600, -1000])
def test_eigvals_sym_far_from_unit_scale_is_the_scaled_spectrum(k):
    # The norms square the entries: at 2^600 or 2^-600 they overflow or
    # underflow, and the sweep once stopped before its first rotation.
    m = np.array([[2.0, 1.0, 0.3], [1.0, -1.0, 0.2], [0.3, 0.2, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(eigvals_sym(np.ldexp(m, k)), np.ldexp(eigvals_sym(m), k))
        big = eigvals_sym(np.full((2, 2), 1e300))
    assert big[0] == 0.0 and big[1] == pytest.approx(2e300, rel=1e-15)


@pytest.mark.parametrize("m", [[[1.0, 3.0], [3.0, -1.0]], [[3.5, 0.5], [0.5, -3.5]]])
def test_eigvals_sym_near_the_float_maximum_is_the_scaled_spectrum(m):
    # At 2^1022 these entries are finite, but twice the off-diagonal or
    # the difference of the diagonal is not: a rotation formed from
    # either one is wrong.
    m = np.array(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(eigvals_sym(np.ldexp(m, 1022)), np.ldexp(eigvals_sym(m), 1022))


def test_eigvals_sym_keeps_the_inertia_of_graded_matrices():
    # Sylvester's law of inertia: D A D has as many positive eigenvalues
    # as A.  With D = diag(2^k) the product is exact, so the count read
    # from eigvals_sym must be A's, however widely D grades the entries.
    # A stopping rule measured against the whole matrix leaves the small
    # diagonal entries unrotated and miscounts.
    rng = np.random.default_rng(32)
    for _ in range(500):
        dim = int(rng.integers(2, 7))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam = rng.uniform(1.0, 2.0, dim) * rng.choice([-1.0, 1.0], dim)
        a = q @ np.diag(lam) @ q.T
        d = np.ldexp(1.0, rng.integers(-60, 61, dim))
        m = d[:, None] * (0.5 * (a + a.T)) * d
        assert np.sum(eigvals_sym(m) > 0.0) == np.sum(lam > 0.0)


def test_eigvals_sym_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        eigvals_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigvals_sym(np.zeros((2, 3)))


def test_eigvals_sym_raises_when_the_sweeps_run_out(monkeypatch):
    # One sweep rotates the pair of a dense 2x2, and only a second,
    # rotating nothing, would show convergence.  A diagonal matrix needs
    # no rotation, so one sweep settles it.
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="^Jacobi iteration failed to converge$"):
        eigvals_sym(np.array([[2.0, 1.0], [1.0, 3.0]]))
    np.testing.assert_array_equal(eigvals_sym(np.diag([3.0, -1.0])), [-1.0, 3.0])


def test_eigvals_sym_zero_and_scalar():
    assert np.all(eigvals_sym(np.zeros((3, 3))) == 0.0)
    assert eigvals_sym(np.array([[4.5]]))[0] == 4.5
    assert eigvals_sym(np.array([[-2.5]]))[0] == -2.5
    assert eigvals_sym(np.array([[0.0]]))[0] == 0.0


def test_eig2_radius_real_and_complex():
    # rotation: tr 0, det 1 -> +-i; companion of (z+3)(z-2): tr -1, det -6
    assert eig2_radius(0.0, 1.0) == pytest.approx(1.0)
    assert eig2_radius(-1.0, -6.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        eig2_radius(np.nan, 1.0)
    with pytest.raises(ValueError):
        eig2_radius(1.0, np.inf)


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=200, deadline=None)
def test_eig2_radius_matches_np_roots(tr, det):
    # The largest root modulus of z^2 - tr z + det.  Near a double root
    # the roots split by sqrt(roundoff), so the comparison allows 1e-7.
    want = max(abs(z) for z in np.roots([1.0, -tr, det]))
    assert eig2_radius(tr, det) == pytest.approx(want, rel=1e-7, abs=1e-7)


def test_eig2_radius_matches_dense_eig():
    rng = np.random.default_rng(7)
    for _ in range(500):
        m = rng.uniform(-3, 3, size=(2, 2))
        tr = m[0, 0] + m[1, 1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        want = max(abs(v) for v in np.linalg.eigvals(m))
        assert abs(eig2_radius(tr, det) - want) <= 1e-10


def test_eig2_double_root_clamp():
    # (tr, det) pairs a few ulps off a perfect square land on the double
    # root instead of picking up a sqrt(eps)-sized spurious splitting.
    for root in (0.5, -1.25, 3.0):
        tr = 2.0 * root
        det = root * root * (1.0 + np.finfo(float).eps)
        assert eig2_radius(tr, det) == abs(root)


def test_eigvals_sym_sorted():
    vals = eigvals_sym(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(vals, [-1.0, 2.0, 3.0])
