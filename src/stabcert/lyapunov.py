"""Direct quadratic-Lyapunov certificates and stability bound formulas.

For the sector-tuned Nesterov method the coupled-run difference evolves,
per curvature direction, as x+ = A_alpha x with alpha = 1 - lam/beta in
[0, 1 - 1/kappa].  A certificate is a pair (eps, rho) such that

    A_alpha^T P_eps A_alpha <= (1 - rho) P_eps   for every such alpha,

with P_eps the completed-square form below.  This module builds those
matrices, tests each pair exactly at the worst direction alpha_bar =
1 - 1/kappa, maps the feasible (eps, rho) region, and evaluates the
closed-form stability bounds that such certificates imply.

With q = 1 - rho and s = 1 + theta, a pair needs det M_alpha_bar >= 0:

    eps q^2 - [theta^2 + alpha_bar^2 eps (s^2 + eps)] q
        + alpha_bar^2 eps theta^2 >= 0.

The band of valid pairs ends near kappa = 2.914 (at kappa = 2.9 the
best rho is about 0.0069), so the region is empty from kappa = 3 on.
From kappa = 4 on there is a plainer witness: alpha_bar (1 + theta)
reaches 1 (it is 0.845 at kappa = 3), so the state (1 + theta, 1) has
V+ >= V for every eps > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import eig2_general
from .optimizers import SectorBounds, a_alpha, theta_of

__all__ = [
    "LyapunovCertificate",
    "FeasibleRegion",
    "ContractionRate",
    "StabilityBound",
    "kappa_of_theta",
    "build_p_eps",
    "bound_c_eps",
    "lyapunov_value",
    "assemble_m_alpha",
    "verify_contraction",
    "find_feasible_region",
    "contraction_rate",
    "momentum_rate",
    "sgd_rate",
    "total_expectation_recurrence",
    "nag_stability_bound",
    "nag_stability_limit",
    "sgd_stability_bound",
    "cjy_bound",
    "cjy_limit",
]


def kappa_of_theta(theta: float) -> float:
    """Inverse of theta_of: kappa = ((1 + theta)/(1 - theta))^2."""
    if not (0.0 <= theta < 1.0):
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    return float(((1.0 + theta) / (1.0 - theta)) ** 2)


def build_p_eps(theta: float, eps: float) -> np.ndarray:
    """Lyapunov matrix [[1, -(1+theta)], [-(1+theta), (1+theta)^2 + eps]].

    Positive definite for eps > 0 with det = eps exactly.

    Raises:
        ValueError: if eps <= 0.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    s = 1.0 + theta
    return np.array([[1.0, -s], [-s, s * s + eps]])


def bound_c_eps(theta: float, eps: float) -> float:
    """Smallest C with ||dw||^2 <= C * V_eps(dw, dv) for all states.

    Equals the (1,1) entry of P_eps^{-1}: 1 + (1 + theta)^2 / eps.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    return 1.0 + (1.0 + theta) ** 2 / eps


def lyapunov_value(theta: float, eps: float, dw: float, dv: float) -> float:
    """V_eps = (dw - (1+theta) dv)^2 + eps * dv^2."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    resid = dw - (1.0 + theta) * dv
    return float(resid * resid + eps * dv * dv)


def assemble_m_alpha(p: np.ndarray, theta: float, rho: float, alpha: float) -> np.ndarray:
    """Contraction matrix M_alpha = A_alpha^T P A_alpha - (1-rho) P.

    Built from explicit matrix products, for any symmetric 2x2 P (the
    completed-square build_p_eps matrix being the usual choice).  The
    pair (P, rho) certifies contraction at alpha iff this is negative
    semidefinite.
    """
    p = np.asarray(p, dtype=float)
    if p.shape != (2, 2):
        raise ValueError(f"P must be 2x2, got shape {p.shape}")
    a = a_alpha(theta, alpha)
    return a.T @ p @ a - (1.0 - rho) * p


# Slotted: a region keeps one of these for every (eps, rho) pair it sweeps.
@dataclass(frozen=True, slots=True)
class LyapunovCertificate:
    """Result of testing one (eps, rho) pair over the alpha interval.

    worst_eig is the largest eigenvalue of M_alpha over the interval,
    attained at worst_alpha = alpha_bar, and grid_points the number of
    alpha values evaluated (always 1); the pair is valid iff
    worst_eig <= 0.
    """

    theta: float
    eps: float
    rho: float
    grid_points: int
    worst_eig: float
    worst_alpha: float
    valid: bool


def _worst_eig(theta: float, eps, rho):
    """lambda_max of M_alpha_bar for P_eps: floats in, float out; arrays broadcast.

    With q = 1 - rho and s = 1 + theta, for P = P_eps exactly

        M_alpha = [[alpha^2 eps - q, q s], [q s, theta^2 - q (s^2 + eps)]],

    so only its (1,1) entry moves with alpha.  lambda_max is nondecreasing
    in that entry, so the interval's worst case is alpha_bar = 1 - 1/kappa.
    One expression serves scalars and grids, so both give bitwise the
    same eigenvalue.

    Returns:
        (worst eigenvalue, alpha_bar).
    """
    bar = 1.0 - 1.0 / kappa_of_theta(theta)
    q = 1.0 - rho
    s = 1.0 + theta
    m00 = bar * bar * eps - q
    m01 = q * s
    m11 = theta * theta - q * (s * s + eps)
    mean = 0.5 * (m00 + m11)
    gap = 0.5 * (m00 - m11)
    return mean + np.sqrt(gap * gap + m01 * m01), bar


def verify_contraction(
    theta: float,
    eps: float,
    rho: float,
    grid_points: int | None = None,
) -> LyapunovCertificate:
    """Check A_alpha^T P A_alpha <= (1-rho) P over alpha in [0, alpha_bar].

    One symmetric 2x2 eigenvalue at the worst direction
    alpha_bar = 1 - 1/kappa settles the pair exactly (see _worst_eig).
    grid_points is accepted for older callers and ignored.

    Raises:
        ValueError: on eps <= 0 or rho outside (0, 1).
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not (0.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    worst, bar = _worst_eig(theta, eps, rho)
    return LyapunovCertificate(
        theta=theta,
        eps=eps,
        rho=rho,
        grid_points=1,
        worst_eig=float(worst),
        worst_alpha=bar,
        valid=bool(worst <= 0.0),
    )


@dataclass(frozen=True)
class FeasibleRegion:
    """Outcome of a sweep over an (eps, rho) grid, stored compactly.

    worst_eig[i, j] is the worst eigenvalue of the pair
    (eps_grid[i], rho_grid[j]).  The certificate lists are built on each
    access, eps-major like a loop over eps_grid then rho_grid, and equal
    what verify_contraction returns pair by pair.
    """

    theta: float
    eps_grid: np.ndarray
    rho_grid: np.ndarray
    worst_eig: np.ndarray

    def _certificates(self, mask: np.ndarray) -> list:
        i, j = np.nonzero(mask)
        bar = 1.0 - 1.0 / kappa_of_theta(self.theta)
        return [
            LyapunovCertificate(self.theta, eps, rho, 1, worst, bar, worst <= 0.0)
            for eps, rho, worst in zip(self.eps_grid[i].tolist(), self.rho_grid[j].tolist(),
                                       self.worst_eig[i, j].tolist())
        ]

    @property
    def certificates(self) -> list:
        """Every swept pair's certificate."""
        return self._certificates(np.ones(self.worst_eig.shape, dtype=bool))

    @property
    def feasible(self) -> list:
        """The valid certificates."""
        return self._certificates(self.worst_eig <= 0.0)

    @property
    def empty(self) -> bool:
        return not np.any(self.worst_eig <= 0.0)

    @property
    def best(self) -> LyapunovCertificate | None:
        """Feasible certificate with the largest rho (ties: most negative worst_eig)."""
        feasible = self.feasible
        if not feasible:
            return None
        return max(feasible, key=lambda c: (c.rho, -c.worst_eig))


def find_feasible_region(
    theta: float,
    eps_grid: np.ndarray,
    rho_grid: np.ndarray,
    grid_points: int | None = None,
) -> FeasibleRegion:
    """Decide every (eps, rho) candidate pair in one array expression.

    Args:
        theta: momentum weight in [0, 1).
        eps_grid: positive eps candidates (error on any eps <= 0).
        rho_grid: rho candidates in (0, 1).
        grid_points: accepted for older callers and ignored.

    Returns:
        FeasibleRegion over the two grids.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    rho_grid = np.asarray(rho_grid, dtype=float)
    if eps_grid.size == 0 or rho_grid.size == 0:
        raise ValueError("eps and rho grids must be non-empty")
    if not np.all(eps_grid > 0.0):
        raise ValueError(f"eps must be positive, got {eps_grid.min()}")
    if not np.all((rho_grid > 0.0) & (rho_grid < 1.0)):
        raise ValueError(f"rho must lie in (0, 1), got {rho_grid}")
    worst, _ = _worst_eig(theta, eps_grid[:, None], rho_grid[None, :])
    return FeasibleRegion(theta=theta, eps_grid=eps_grid, rho_grid=rho_grid, worst_eig=worst)


class ContractionRate(NamedTuple):
    """Per-step decay certificate for the slowest difference direction.

    rho is the squared-norm decay 1 - radius^2, gamma the 2x2 transition
    matrix at the slow edge alpha = 1 - 1/kappa, radius its spectral
    radius (equal to 1 - 1/sqrt(kappa): the eigenvalues collide there),
    and rho_asymptotic the large-kappa approximation 2/sqrt(kappa).
    """

    rho: float
    gamma: np.ndarray
    radius: float
    rho_asymptotic: float


def contraction_rate(kappa: float) -> ContractionRate:
    """Decay rate of the coupled difference at the slow curvature edge.

    The admissible range of the direction parameter is [0, 1 - 1/kappa],
    and the difference map is least contractive at the upper endpoint.
    Its trace and determinant there give the spectral radius through the
    quadratic closed form, and no norm beats rho = 1 - radius^2 per step
    asymptotically.

    Raises:
        ValueError: if kappa < 1.
    """
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    theta = theta_of(kappa)
    alpha = 1.0 - 1.0 / kappa
    gamma = np.array([[0.0, -theta], [alpha, (1.0 + theta) * alpha]])
    radius = eig2_general((1.0 + theta) * alpha, theta * alpha).radius
    return ContractionRate(
        rho=float(1.0 - radius * radius),
        gamma=gamma,
        radius=float(radius),
        rho_asymptotic=float(2.0 / np.sqrt(kappa)),
    )


def momentum_rate(eta: float, mu: float, bounds: SectorBounds) -> float:
    """Squared-norm decay rate for the (eta, mu) lookahead-momentum loop.

    On a quadratic direction with curvature lam the coupled difference
    map has trace (1+mu) b and determinant mu b, with b = 1 - eta*lam.
    Its spectral radius is nondecreasing in |b| (sqrt(mu b) for a complex
    pair, and increasing in |b| on either side of 0 for a real pair), so
    the worst curvature is an endpoint of the sector and the rate is
    1 - r^2 with r the larger radius at lam = gamma and lam = beta.
    Returns 0 if the loop does not contract.
    """
    if eta <= 0.0:
        raise ValueError(f"step size must be positive, got {eta}")
    if not (0.0 <= mu < 1.0):
        raise ValueError(f"momentum must lie in [0, 1), got {mu}")
    worst = 0.0
    for lam in (bounds.gamma, bounds.beta):
        base = 1.0 - eta * float(lam)
        worst = max(worst, eig2_general((1.0 + mu) * base, mu * base).radius)
    if worst >= 1.0:
        return 0.0
    return float(1.0 - worst * worst)


def sgd_rate(eta: float, bounds: SectorBounds) -> float:
    """Squared-norm decay rate for plain gradient steps over the sector."""
    if eta <= 0.0:
        raise ValueError(f"step size must be positive, got {eta}")
    r = max(abs(1.0 - eta * bounds.gamma), abs(1.0 - eta * bounds.beta))
    if r >= 1.0:
        return 0.0
    return float(1.0 - r * r)


def total_expectation_recurrence(rho: float, c: float, t: int) -> float:
    """Closed form of a_t = (1-rho) a_{t-1} + c with a_0 = 0.

    Returns c * (1 - (1-rho)^t) / rho, the value after t steps.

    Raises:
        ValueError: on rho outside (0, 1], negative c, or negative t.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if c < 0.0:
        raise ValueError(f"per-step increment must be >= 0, got {c}")
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    return float(c * (1.0 - (1.0 - rho) ** t) / rho)


def _check_bound_args(g: float, n: int, t: int | None = None) -> None:
    if g < 0.0:
        raise ValueError(f"Lipschitz constant must be >= 0, got {g}")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if t is not None and t < 0:
        raise ValueError(f"iteration count must be >= 0, got {t}")


class StabilityBound(NamedTuple):
    """Parameter-difference bound and its Lipschitz loss consequence.

    loss is always grad_bound times param: a G-Lipschitz loss turns a
    final-iterate gap into a per-example loss gap at the cost of one
    factor of G.
    """

    param: float
    loss: float


def nag_stability_bound(
    g: float, bounds: SectorBounds, n: int, t: int, rho: float | None = None
) -> StabilityBound:
    """Lyapunov-route stability bound for sector-tuned Nesterov.

        param = (4 G kappa^{1/4} / (beta sqrt(n))) * sqrt(1 - (1-rho)^T)
        loss  = G * param

    rho defaults to contraction_rate(kappa).rho, the rate at one fixed
    curvature; no certificate backs it, since switching curvature from
    step to step can decay more slowly.  Monotone increasing in
    T, decreasing in n, saturating at nag_stability_limit as T grows.
    """
    _check_bound_args(g, n, t)
    if rho is None:
        rho = contraction_rate(bounds.kappa).rho
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    sat = 1.0 - (1.0 - rho) ** t
    param = nag_stability_limit(g, bounds, n).param * float(np.sqrt(sat))
    return StabilityBound(param=param, loss=g * param)


def nag_stability_limit(g: float, bounds: SectorBounds, n: int) -> StabilityBound:
    """T -> infinity value of nag_stability_bound: 4 G kappa^{1/4} / (beta sqrt(n))."""
    _check_bound_args(g, n)
    param = float(4.0 * g * bounds.kappa**0.25 / (bounds.beta * np.sqrt(n)))
    return StabilityBound(param=param, loss=g * param)


def sgd_stability_bound(bounds: SectorBounds, n: int) -> float:
    """Uniform stability of SGD with eta <= 1/beta: 2 G^2 / (gamma n).

    Needs a sector that carries a gradient bound.
    """
    if bounds.grad_bound is None:
        raise ValueError("sector carries no gradient bound; set grad_bound")
    g = bounds.grad_bound
    _check_bound_args(g, n)
    return float(2.0 * g * g / (bounds.gamma * n))


def cjy_bound(bounds: SectorBounds, n: int, t: int) -> float:
    """Comparison bound (4 beta^2 / (gamma n)) * (1 - (1 - 1/sqrt(kappa))^T)."""
    _check_bound_args(0.0, n, t)
    decay = 1.0 - 1.0 / np.sqrt(bounds.kappa)
    return cjy_limit(bounds, n) * float(1.0 - decay**t)


def cjy_limit(bounds: SectorBounds, n: int) -> float:
    """T -> infinity value of cjy_bound: 4 beta^2 / (gamma n)."""
    _check_bound_args(0.0, n)
    return float(4.0 * bounds.beta**2 / (bounds.gamma * n))
