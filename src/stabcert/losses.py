"""Per-sample loss models used by the coupled-run simulator.

A loss model exposes index-aware gradients so a simulation can run two
models that differ in exactly one sample while sharing the index
sequence.  The logistic model is the experiment workhorse; the quadratic
model gives exact sector members for contraction checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .optimizers import SectorBounds

__all__ = [
    "sigmoid",
    "reg_logistic_grad",
    "reg_logistic_loss",
    "reg_logistic_losses",
    "row_dots",
    "reg_logistic_grad_rows",
    "LogisticTask",
    "QuadraticTask",
    "random_sector_quadratics",
]


def sigmoid(z: float) -> float:
    """Numerically stable scalar logistic function."""
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    ez = np.exp(z)
    return ez / (1.0 + ez)


def reg_logistic_grad(
    w: np.ndarray, x: np.ndarray, y: float, lam: float
) -> tuple[float, np.ndarray]:
    """Loss and gradient of log(1 + exp(-y w.x)) + lam/2 ||w||^2.

    Overflow-safe at any margin: logaddexp handles the loss and the
    sigmoid saturates cleanly, so for strongly positive margins the data
    terms vanish and only the regularizer remains.
    """
    return reg_logistic_loss(w, x, y, lam), _reg_logistic_gradient(w, x, y, lam)


def _reg_logistic_gradient(w: np.ndarray, x: np.ndarray, y: float, lam: float) -> np.ndarray:
    """The gradient of reg_logistic_grad, without its loss."""
    return -y * sigmoid(-(y * np.dot(w, x))) * x + lam * w


def reg_logistic_loss(w: np.ndarray, x: np.ndarray, y: float, lam: float) -> float:
    """Regularized logistic loss at one sample, overflow-safe."""
    m = y * np.dot(w, x)
    return float(np.logaddexp(0.0, -m) + 0.5 * lam * np.dot(w, w))


def reg_logistic_losses(w: np.ndarray, x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Regularized logistic loss of one w at every row of x."""
    margins = y * (x @ w)
    return np.logaddexp(0.0, -margins) + 0.5 * lam * float(np.dot(w, w))


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair, a[k] . b[k].

    np.vecdot makes one BLAS dot per row, so for C-contiguous rows entry
    k is bitwise equal to np.dot(a[k], b[k]); einsum and (a * b).sum(1)
    add in another order and are not.  Strided rows carry no such
    guarantee: np.dot itself can differ between a strided row and its
    contiguous copy.
    """
    return np.vecdot(a, b)


def reg_logistic_grad_rows(
    w: np.ndarray, x: np.ndarray, y: np.ndarray, lam: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Row k is reg_logistic_grad(w[k], x[k], y[k], lam)[1], bitwise.

    The arithmetic is the scalar form's, operation for operation: the
    margin y (w.x), the two-branch stable sigmoid and -y s x + lam w.
    y is negated once: -(y m) is exactly (-y) m, since negation is exact
    and rounding to nearest is symmetric.  exp(-|z|) is exp(-z) on the
    z >= 0 branch and exp(z) on the other, so neither branch can
    overflow, and one division by 1 + exp(-|z|) serves both branches.
    The gradients are written into out and returned (a new array
    without it); out must share no memory with w or x.
    """
    ny = -y
    z = ny * row_dots(w, x)
    e = np.exp(-np.abs(z))
    s = np.divide(np.where(z >= 0, 1.0, e), 1.0 + e)
    g = np.multiply((ny * s)[:, None], x, out=out)
    g += lam * w
    return g


@dataclass
class LogisticTask:
    """Regularized logistic regression over a fixed sample matrix."""

    x: np.ndarray
    y: np.ndarray
    lam: float

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def grad(self, w: np.ndarray, i: int) -> np.ndarray:
        return _reg_logistic_gradient(w, self.x[i], self.y[i], self.lam)

    def replaced(self, j: int, x_new: np.ndarray, y_new: float) -> "LogisticTask":
        x = self.x.copy()
        y = self.y.copy()
        x[j] = x_new
        y[j] = y_new
        return LogisticTask(x=x, y=y, lam=self.lam)


@dataclass
class QuadraticTask:
    """Per-sample quadratics l_i(w) = 1/2 (w - c_i)^T H_i (w - c_i)."""

    hessians: np.ndarray
    centers: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def grad(self, w: np.ndarray, i: int) -> np.ndarray:
        return self.hessians[i] @ (w - self.centers[i])

    def loss(self, w: np.ndarray, i: int) -> float:
        r = w - self.centers[i]
        return 0.5 * float(r @ self.hessians[i] @ r)

    def replaced(self, j: int, hessian: np.ndarray, center: np.ndarray) -> "QuadraticTask":
        h = self.hessians.copy()
        c = self.centers.copy()
        h[j] = hessian
        c[j] = center
        return QuadraticTask(hessians=h, centers=c)


def random_sector_quadratics(
    n: int, dim: int, bounds: SectorBounds, rng: np.random.Generator
) -> QuadraticTask:
    """Draw a task of quadratics whose Hessian spectra lie in the sector."""
    hs = np.zeros((n, dim, dim))
    cs = rng.normal(size=(n, dim))
    for i in range(n):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        lam = rng.uniform(bounds.gamma, bounds.beta, size=dim)
        hs[i] = (q * lam) @ q.T
    return QuadraticTask(hessians=hs, centers=cs)
