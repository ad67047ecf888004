import warnings

import numpy as np
import pytest

from stabcert.losses import (
    LogisticTask,
    QuadraticTask,
    random_sector_quadratics,
    reg_logistic_grad,
    reg_logistic_grad_rows,
    reg_logistic_loss,
    row_dots,
    sigmoid,
)
from stabcert.optimizers import SectorBounds


def test_sigmoid_stability_and_values():
    assert sigmoid(0.0) == pytest.approx(0.5)
    assert sigmoid(800.0) == pytest.approx(1.0)
    assert sigmoid(-800.0) == pytest.approx(0.0)  # no overflow
    assert sigmoid(2.0) + sigmoid(-2.0) == pytest.approx(1.0, abs=1e-15)


def _central_diff(f, w, h=1e-6):
    g = np.zeros_like(w)
    for k in range(w.size):
        e = np.zeros_like(w)
        e[k] = h
        g[k] = (f(w + e) - f(w - e)) / (2.0 * h)
    return g


def test_logistic_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        w = rng.normal(size=dim)
        x = rng.normal(size=dim)
        y = 1.0 if rng.random() < 0.5 else -1.0
        lam = float(rng.uniform(1e-4, 0.1))
        loss, grad = reg_logistic_grad(w, x, y, lam)
        assert loss == pytest.approx(reg_logistic_loss(w, x, y, lam), rel=1e-12)
        want = _central_diff(lambda v: reg_logistic_loss(v, x, y, lam), w)
        np.testing.assert_allclose(grad, want, atol=1e-6)


def test_logistic_loss_overflow_safe():
    w = np.array([1000.0])
    x = np.array([1.0])
    val = reg_logistic_loss(w, x, -1.0, 0.0)
    assert np.isfinite(val) and val == pytest.approx(1000.0, rel=1e-9)


def test_logistic_task_accessors():
    x = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    y = np.array([1.0, -1.0, 1.0])
    task = LogisticTask(x=x, y=y, lam=0.01)
    assert task.n_samples == 3 and task.dim == 2
    w = np.array([0.3, -0.2])
    np.testing.assert_array_equal(task.grad(w, 1), reg_logistic_grad(w, x[1], y[1], 0.01)[1])


def test_logistic_replaced_touches_one_record():
    task = LogisticTask(
        x=np.ones((4, 2)), y=np.array([1.0, 1.0, -1.0, -1.0]), lam=0.1
    )
    other = task.replaced(2, np.array([5.0, 5.0]), 1.0)
    assert other.y[2] == 1.0
    np.testing.assert_array_equal(other.x[2], [5.0, 5.0])
    mask = np.arange(4) != 2
    np.testing.assert_array_equal(other.x[mask], task.x[mask])
    np.testing.assert_array_equal(other.y[mask], task.y[mask])
    # original untouched
    assert task.y[2] == -1.0


def test_quadratic_task_grad_and_loss():
    h = np.stack([np.diag([1.0, 2.0]), np.diag([0.5, 0.5])])
    c = np.array([[1.0, 0.0], [0.0, -1.0]])
    task = QuadraticTask(hessians=h, centers=c)
    assert task.n_samples == 2 and task.dim == 2
    w = np.array([2.0, 2.0])
    np.testing.assert_allclose(task.grad(w, 0), [1.0, 4.0])
    assert task.loss(w, 0) == pytest.approx(0.5 * (1.0 + 2.0 * 4.0))
    # gradient is the derivative of the loss
    got = task.grad(w, 1)
    want = _central_diff(lambda v: task.loss(v, 1), w)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_quadratic_replaced():
    rng = np.random.default_rng(0)
    task = random_sector_quadratics(3, 2, SectorBounds(0.5, 1.0), rng)
    other = task.replaced(1, np.eye(2), np.zeros(2))
    np.testing.assert_array_equal(other.hessians[1], np.eye(2))
    np.testing.assert_array_equal(other.centers[1], np.zeros(2))
    np.testing.assert_array_equal(other.hessians[0], task.hessians[0])


def test_random_sector_quadratics_spectra():
    sb = SectorBounds(0.2, 0.9)
    task = random_sector_quadratics(20, 5, sb, np.random.default_rng(8))
    assert task.hessians.shape == (20, 5, 5)
    for h in task.hessians:
        np.testing.assert_allclose(h, h.T, atol=1e-12)
        vals = np.linalg.eigvalsh(h)
        assert vals[0] >= sb.gamma - 1e-10
        assert vals[-1] <= sb.beta + 1e-10


def test_row_dots_bitwise_equal_np_dot():
    # Small shapes, and the lockstep's own shape (200 rows of 64) with
    # rows scaled from 1e-3 to 1e3.
    rng = np.random.default_rng(17)
    scale = np.logspace(-3, 3, 200)[:, None]
    cases = [(rng.normal(size=(9, dim)), rng.normal(size=(9, dim)))
             for dim in (1, 3, 16, 64, 65)]
    cases.append((rng.normal(size=(200, 64)) * scale, rng.normal(size=(200, 64))))
    for a, b in cases:
        got = row_dots(a, b)
        for k in range(a.shape[0]):
            assert got[k] == np.dot(a[k].copy(), b[k].copy())


def test_grad_rows_bitwise_equal_scalar_grad():
    # Seeded draws over a wide margin range, plus margins of exactly 0
    # (both signs of zero) and +/-800, where exp over- or underflows:
    # every row must equal the scalar gradient bit for bit.
    rng = np.random.default_rng(5)
    rows, dim, lam = 400, 6, 0.03
    w = rng.normal(size=(rows, dim)) * rng.choice([0.01, 1.0, 30.0, 300.0], size=(rows, 1))
    x = rng.normal(size=(rows, dim))
    y = np.where(rng.random(rows) < 0.5, 1.0, -1.0)
    e0 = np.eye(dim)[0]
    w[:4] = 0.0  # margin +/-0
    w[4:8] = 800.0 * e0
    x[4:8] = e0
    y[4:8] = [1.0, -1.0, 1.0, -1.0]  # margins +800, -800
    margins = y * np.array([np.dot(w[k], x[k]) for k in range(rows)])
    assert {0.0, 800.0, -800.0} <= set(margins)
    assert (margins > 40.0).any() and (margins < -40.0).any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = reg_logistic_grad_rows(w, x, y, lam)
    for k in range(rows):
        want = reg_logistic_grad(w[k].copy(), x[k].copy(), y[k], lam)[1]
        np.testing.assert_array_equal(got[k], want)
    # saturation: the data term vanishes at +800 and is -y x at -800
    np.testing.assert_array_equal(got[4], lam * w[4])
    np.testing.assert_array_equal(got[5], -y[5] * x[5] + lam * w[5])
