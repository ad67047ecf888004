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

fixed_curvature_rate gives the decay of any feedback form
(optimizers.lure_of) at the slowest curvature in [gamma, beta] held
fixed over all steps: the length-1 product lower bound on the joint
spectral radius of the switching model (Jungers, The Joint Spectral
Radius, 2009).  Its docstring proves that the two endpoints of the
sector suffice: the radius of A + lam B C is quasiconvex in lam.

one_step_rate gives the exact supremum of the one-step rate-mode sector
LMI for the same forms: the largest rho at which the two endpoint
closed loops, divided by sqrt(1 - rho), share a quadratic Lyapunov
function, decided in closed form by the test of Shorten & Narendra
(Int. J. Adaptive Control and Signal Processing, 2002).  sdp.certify_rate
opens its search there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import eig2_radius
from .optimizers import LureSystem, NagSmoothQuadratic, SectorBounds, a_alpha, lure_of

__all__ = [
    "LyapunovCertificate",
    "FeasibleRegion",
    "StabilityBound",
    "kappa_of_theta",
    "build_p_eps",
    "assemble_m_alpha",
    "verify_contraction",
    "find_feasible_region",
    "fixed_curvature_rate",
    "one_step_rate",
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
        ValueError: unless 0 < eps < inf.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    s = 1.0 + theta
    return np.array([[1.0, -s], [-s, s * s + eps]])


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
    worst_eig <= 0.  Only FeasibleRegion builds these, so a single pair
    and a sweep give equal certificates.
    """

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


def _check_pairs(eps, rho) -> None:
    """Raise ValueError unless every eps lies in (0, inf) and every rho in (0, 1)."""
    eps_arr = np.asarray(eps, dtype=float)
    bad = eps_arr[~((eps_arr > 0.0) & (eps_arr < np.inf))]
    if bad.size:
        raise ValueError(f"eps must be positive and finite, got {bad[0]}")
    rho_arr = np.asarray(rho, dtype=float)
    if not np.all((rho_arr > 0.0) & (rho_arr < 1.0)):
        raise ValueError(f"rho must lie in (0, 1), got {rho}")


def verify_contraction(
    theta: float,
    eps: float,
    rho: float,
    grid_points: int | None = None,
) -> LyapunovCertificate:
    """Check A_alpha^T P A_alpha <= (1-rho) P over alpha in [0, alpha_bar].

    One symmetric 2x2 eigenvalue at the worst direction
    alpha_bar = 1 - 1/kappa settles the pair exactly (see _worst_eig);
    the result is the certificate of the one-pair sweep.  grid_points is
    accepted for older callers and ignored.

    Raises:
        ValueError: on eps outside (0, inf) or rho outside (0, 1).
    """
    _check_pairs(eps, rho)
    return find_feasible_region(theta, [eps], [rho]).certificates[0]


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
            LyapunovCertificate(eps, rho, 1, worst, bar, worst <= 0.0)
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
        eps_grid: eps candidates in (0, inf).
        rho_grid: rho candidates in (0, 1).
        grid_points: accepted for older callers and ignored.

    Returns:
        FeasibleRegion over the two grids.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    rho_grid = np.asarray(rho_grid, dtype=float)
    if eps_grid.size == 0 or rho_grid.size == 0:
        raise ValueError("eps and rho grids must be non-empty")
    _check_pairs(eps_grid, rho_grid)
    worst, _ = _worst_eig(theta, eps_grid[:, None], rho_grid[None, :])
    return FeasibleRegion(theta=theta, eps_grid=eps_grid, rho_grid=rho_grid, worst_eig=worst)


def fixed_curvature_rate(system: LureSystem, bounds: SectorBounds) -> float:
    """Squared-norm decay 1 - r^2 of a feedback form at its slowest fixed curvature.

    On a curvature lam held fixed over all steps the coupled difference
    moves by A + lam B C; r is the larger spectral radius at lam = gamma
    and lam = beta, from |.| for a 1x1 state and linalg.eig2_radius for
    a 2x2 one.  Returns 0 when r >= 1.  The rate is not certified: a
    curvature that switches from step to step can decay more slowly.

    The two endpoints suffice.  B C has rank one, so by the matrix
    determinant lemma

        det(zI - A - lam B C) = det(zI - A) - lam C adj(zI - A) B,

    and the trace and determinant of A + lam B C are affine in lam.  For
    r > 0 the set {(tr, det) : radius <= r} is the Schur-Cohn triangle
    |det| <= r^2, r |tr| <= r^2 + det, which is convex (for r = 0 it is
    the point (0, 0)).  So every sublevel set {lam : radius <= r} is an
    interval: the radius is quasiconvex in lam, and its maximum over
    [gamma, beta] lies at an endpoint.  A 1x1 state is the same argument
    on |a + lam b c|.

    Raises:
        ValueError: for a state larger than 2x2.
    """
    if system.state_dim > 2:
        raise ValueError(f"need a 1x1 or 2x2 state, got {system.state_dim}")
    bc = system.b @ system.c
    worst = 0.0
    for lam in (bounds.gamma, bounds.beta):
        m = system.a + lam * bc
        if system.state_dim == 1:
            radius = abs(float(m[0, 0]))
        else:
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            radius = eig2_radius(m[0, 0] + m[1, 1], det)
        worst = max(worst, radius)
    if worst >= 1.0:
        return 0.0
    return float(1.0 - worst * worst)


def _cayley(m: list, q: float) -> tuple:
    """(M - qI) adj(M + qI), row-major, for a 2x2 M given as nested lists.

    When M/q is Schur, det(M + qI) > 0 and this is a positive multiple
    of the Cayley transform (M/q - I)(M/q + I)^-1, which is Hurwitz and
    has the same quadratic Lyapunov functions as M/q.
    """
    (a, b), (c, d) = m
    return (a - q) * (d + q) - b * c, 2.0 * q * b, 2.0 * q * c, (d - q) * (a + q) - b * c


def _has_negative_real_eig(tr: float, det: float) -> bool:
    """Whether a real 2x2 matrix with this trace and det has a negative real eigenvalue."""
    return det < 0.0 or (tr < 0.0 and tr * tr >= 4.0 * det)


def _common_lyapunov(m1: list, m2: list, q: float) -> bool:
    """Whether M1/q and M2/q share a P > 0 with (M/q)^T P (M/q) < P.

    Both must be Schur (the Schur-Cohn triangle |det| < q^2,
    q |tr| < q^2 + det).  Their Cayley transforms H1, H2 are then
    Hurwitz, with det > 0, and by Shorten & Narendra they share a P
    exactly when neither H1 H2 nor H1 H2^-1 has a negative real
    eigenvalue.  H1 adj(H2) is a positive multiple of H1 H2^-1, and
    both products have det H1 det H2.
    """
    qq = q * q
    for (a, b), (c, d) in (m1, m2):
        det = a * d - b * c
        if not (abs(det) < qq and q * abs(a + d) < qq + det):
            return False
    a11, a12, a21, a22 = _cayley(m1, q)
    b11, b12, b21, b22 = _cayley(m2, q)
    det = (a11 * a22 - a12 * a21) * (b11 * b22 - b12 * b21)
    product = a11 * b11 + a12 * b21 + a21 * b12 + a22 * b22
    quotient = a11 * b22 - a12 * b21 - a21 * b12 + a22 * b11
    return not (_has_negative_real_eig(product, det) or _has_negative_real_eig(quotient, det))


def one_step_rate(system: LureSystem, bounds: SectorBounds) -> float | None:
    """Exact supremum of the one-step rate-mode sector LMI, or None.

    Covers 1x1 and 2x2 states and returns None for larger ones.  On the
    scalar gradient channel of every LureSystem the sector product
    multiplier makes the S-procedure lossless, and A -> A^T P A
    is convex, so the rate-mode LMI at rho is feasible exactly when the
    endpoint closed loops A + gamma B C and A + beta B C, divided by
    q = sqrt(1 - rho), share a quadratic Lyapunov function (CQLF).
    Feasibility only grows with q, so the supremum is 1 - q*^2 for the
    smallest such q*.

    For a 1x1 state any P > 0 serves, and the rate is
    fixed_curvature_rate.  For a 2x2 state q* is bisected to the last
    bit on the closed-form Shorten-Narendra test (see _common_lyapunov),
    whose negative-real-eigenvalue decisions come from trace and det
    (det < 0, or tr < 0 and tr^2 >= 4 det), so no eigenvalue tolerance
    enters.  Returns 0 when no rho > 0 has a CQLF.

    The equivalence holds for the supremum, not at it.  The LMI is
    strict, and a strict inequality that holds at some q still holds a
    little below it, so at rho* itself the LMI fails: every rate below
    the returned value is certifiable, and it is not.
    """
    if system.state_dim > 2:
        return None
    if system.state_dim == 1:
        return fixed_curvature_rate(system, bounds)
    bc = system.b @ system.c
    m1, m2 = ((system.a + lam * bc).tolist() for lam in (bounds.gamma, bounds.beta))
    if not _common_lyapunov(m1, m2, 1.0):
        return 0.0
    lo, hi = 0.0, 1.0  # q* lies in (lo, hi]
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _common_lyapunov(m1, m2, mid):
            hi = mid
        else:
            lo = mid
    return 1.0 - hi * hi


def _check_bound_args(g: float, n: int, t: int | None = None) -> None:
    """The one check of a gradient bound G: finite and >= 0; and of n and T."""
    if not np.isfinite(g):
        raise ValueError(f"Lipschitz constant must be finite, got {g}")
    if g < 0.0:
        raise ValueError(f"Lipschitz constant must be >= 0, got {g}")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    if t is not None and t < 0:
        raise ValueError(f"iteration count must be >= 0, got {t}")


class StabilityBound(NamedTuple):
    """Parameter-difference bound and its Lipschitz loss consequence.

    loss is always G times param, for the gradient bound G the bound was
    given: a G-Lipschitz loss turns a final-iterate gap into a
    per-example loss gap at the cost of one factor of G.
    """

    param: float
    loss: float


def nag_stability_bound(
    g: float, bounds: SectorBounds, n: int, t: int, rho: float | None = None
) -> StabilityBound:
    """Lyapunov-route stability bound for sector-tuned Nesterov.

        param = (4 G kappa^{1/4} / (beta sqrt(n))) * sqrt(1 - (1-rho)^T)
        loss  = G * param

    rho defaults to the tuned method's fixed_curvature_rate over bounds;
    no certificate backs it, since switching curvature from step to step
    can decay more slowly.  Monotone increasing in T, decreasing in n,
    saturating at nag_stability_limit as T grows.
    """
    _check_bound_args(g, n, t)
    if rho is None:
        rho = fixed_curvature_rate(lure_of(NagSmoothQuadratic(bounds), bounds), bounds)
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


def sgd_stability_bound(g: float, bounds: SectorBounds, n: int) -> float:
    """Uniform stability of SGD with eta <= 1/beta: 2 G^2 / (gamma n)."""
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
