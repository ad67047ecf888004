"""First-order optimizer models and their feedback-system forms.

Gradient descent, heavy ball, standard Nesterov, triple momentum and the
sector-tuned Nesterov method of the smooth-quadratic analysis are one
two-step family (Lessard, Recht & Packard 2016), TwoStep:
xi+ = xi + mu (xi - xi_prev) - eta grad(xi + nu (xi - xi_prev)).  Each
method is a constructor of a TwoStep.  step_rule gives a spec's step,
which the coupled runs of simulate take on (rows, dim) states, and
lure_of its linear system in feedback with the gradient, which the
Lyapunov rate and the IQC layers consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SectorBounds",
    "TwoStep",
    "Sgd",
    "HeavyBall",
    "NagStandard",
    "TripleMomentum",
    "NagSmoothQuadratic",
    "OptimizerState",
    "LureSystem",
    "theta_of",
    "tuned_step",
    "sgd_step",
    "nag_step",
    "a_alpha",
    "lure_of",
    "step_rule",
]

GradFn = Callable[[np.ndarray], np.ndarray]
StepFn = Callable[["OptimizerState", GradFn], "OptimizerState"]


@dataclass(frozen=True)
class SectorBounds:
    """Curvature interval [gamma, beta] for the gradient nonlinearity.

    gamma is the strong-convexity modulus, beta the smoothness constant.
    A gradient-norm bound G is no part of the sector: only the
    closed-form stability bounds of lyapunov read one, and each takes G
    as its first argument.
    """

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= self.beta < np.inf):
            raise ValueError(
                f"need finite 0 < gamma <= beta, got gamma={self.gamma}, beta={self.beta}"
            )
        if self.kappa == np.inf:
            raise ValueError(f"need a finite kappa = beta/gamma, got gamma={self.gamma}, "
                             f"beta={self.beta}")

    @property
    def kappa(self) -> float:
        return self.beta / self.gamma


@dataclass(frozen=True)
class TwoStep:
    """The two-step family with step size eta, momentum mu and lookahead nu.

        xi+ = xi + mu (xi - xi_prev) - eta grad(xi + nu (xi - xi_prev))
    """

    eta: float
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < np.inf):
            raise ValueError(f"step size must be positive and finite, got {self.eta}")
        for name, value in (("momentum", self.mu), ("lookahead", self.nu)):
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {value}")


def Sgd(eta: float) -> TwoStep:
    """Plain stochastic gradient descent: w+ = w - eta*grad(w)."""
    return TwoStep(eta)


def HeavyBall(eta: float, mu: float) -> TwoStep:
    """Polyak momentum: w+ = w - eta*grad(w) + mu*(w - w_prev)."""
    return TwoStep(eta, mu, 0.0)


def NagStandard(eta: float, mu: float) -> TwoStep:
    """Nesterov acceleration with lookahead gradient.

    v+ = mu*v - eta*grad(w + mu*v); w+ = w + v+.
    """
    return TwoStep(eta, mu, mu)


def TripleMomentum(bounds: SectorBounds) -> TwoStep:
    """Van Scoy, Freeman & Lynch (2018), tuned for a [gamma, beta] sector.

    With r = 1 - 1/sqrt(kappa); its fixed-curvature rate is 1 - r^2.

    Raises:
        ValueError: if kappa is so large that the momentum rounds to 1.
    """
    r = 1.0 - 1.0 / math.sqrt(bounds.kappa)
    mu = r * r / (2.0 - r)
    if mu >= 1.0:
        raise ValueError(_momentum_rounds_to_1(bounds.kappa))
    return TwoStep((1.0 + r) / bounds.beta, mu, r * r / ((1.0 + r) * (2.0 - r)))


def NagSmoothQuadratic(bounds: SectorBounds) -> TwoStep:
    """Nesterov tuned for a [gamma, beta] sector.

    The step is 1/beta and the lookahead equals the momentum
    theta = (sqrt(kappa) - 1)/(sqrt(kappa) + 1).  The paper writes it as
    v+ = w - grad(w)/beta, w+ = (1 + theta) v+ - theta v, whose v is xi
    and whose w is the query point xi + theta (xi - xi_prev): the pair
    (w + theta v, w) of an OptimizerState.
    """
    theta = theta_of(bounds.kappa)
    return TwoStep(tuned_step(bounds), theta, theta)


@dataclass
class OptimizerState:
    """Mutable iterate pair (w_t, v_t = w_t - w_{t-1}): the point and its velocity."""

    w: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, dim: int | tuple) -> "OptimizerState":
        """The state at the origin; dim is a length or an array shape."""
        return cls(w=np.zeros(dim), v=np.zeros(dim))


@dataclass(frozen=True)
class LureSystem:
    """Linear system x+ = A x + B u, y = C x in feedback with a gradient u.

    The gradient channel is scalar: A is s x s, B is s x 1 and C is 1 x s.
    Every optimizer here has this form, and the sector product multiplier
    of iqc is exact on it.

    Raises:
        ValueError: when the shapes do not fit together.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        s = self.state_dim
        shapes = (self.a.shape, self.b.shape, self.c.shape)
        if shapes != ((s, s), (s, 1), (1, s)):
            raise ValueError(f"need A s x s, B s x 1 and C 1 x s, got shapes {shapes}")

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]


def tuned_step(bounds: SectorBounds) -> float:
    """The step 1/beta that a method tuned to the sector takes.

    Raises:
        ValueError: naming beta when 1/beta overflows (beta below about 5.6e-309).
    """
    eta = 1.0 / bounds.beta
    if eta == math.inf:
        raise ValueError(f"the default step 1/beta overflows for beta={bounds.beta:g}")
    return eta


def theta_of(kappa: float) -> float:
    """Momentum weight (sqrt(kappa) - 1)/(sqrt(kappa) + 1).

    Zero at kappa = 1, strictly increasing, approaches 1 from below.

    Raises:
        ValueError: if kappa < 1, is not finite, or is so large that the
            weight rounds to 1 (from about kappa = 1e32).
    """
    if not (1.0 <= kappa < np.inf):
        raise ValueError(f"condition number must be finite and >= 1, got {kappa}")
    rt = np.sqrt(kappa)
    theta = float((rt - 1.0) / (rt + 1.0))
    if theta >= 1.0:
        raise ValueError(_momentum_rounds_to_1(kappa))
    return theta


def _momentum_rounds_to_1(kappa: float) -> str:
    return f"condition number {kappa:g} is too large: the tuned momentum rounds to 1"


def sgd_step(state: OptimizerState, grad: np.ndarray, eta: float) -> OptimizerState:
    """One gradient step w+ = w - eta*grad; v is carried unchanged.

    grad is the gradient already evaluated at state.w.
    """
    w = state.w - eta * np.asarray(grad, dtype=float)
    return OptimizerState(w=w, v=state.v)


def nag_step(
    state: OptimizerState,
    grad_at: GradFn,
    eta: float,
    mu: float,
    nu: float | None = None,
    out: OptimizerState | None = None,
) -> OptimizerState:
    """One step of the two-step family on the state (w_t, v_t = w_t - w_{t-1}).

    v+ = mu*v - eta*grad_at(w + nu*v); w+ = w + v+.  The lookahead nu
    defaults to mu, the standard Nesterov step; mu = nu = 0 is sgd_step.

    The next state is written into out and returned; out=state steps in
    place, and without out a new state is made.  Either way the result is
    bitwise the same.  grad_at gets a fresh query array that nag_step
    reuses for eta*grad once grad_at returns, so grad_at must not keep
    it; the array grad_at returns is never written.
    """
    if nu is None:
        nu = mu
    q = np.multiply(nu, state.v)
    q += state.w  # w + nu*v: float addition commutes, so bitwise the same
    g = grad_at(q)
    if out is None:
        out = OptimizerState(w=np.empty_like(q), v=np.empty_like(q))
    eta_g = np.multiply(eta, g, out=None if np.may_share_memory(g, q) else q)
    np.subtract(np.multiply(mu, state.v, out=out.v), eta_g, out=out.v)
    np.add(state.w, out.v, out=out.w)
    return out


def a_alpha(theta: float, alpha: float) -> np.ndarray:
    """Closed-loop difference map for the sector-tuned Nesterov method.

    On a quadratic direction with curvature lam, the coupled difference
    of the paper's pair (query point, xi), which is (w + theta v, w) of
    an OptimizerState, evolves linearly with alpha = 1 - lam/beta:

        [[(1 + theta)*alpha, -theta],
         [alpha,              0    ]]

    Raises:
        ValueError: if alpha is outside [0, 1].
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return np.array([[(1.0 + theta) * alpha, -theta], [alpha, 0.0]])


def lure_of(spec: TwoStep, bounds: SectorBounds) -> LureSystem:
    """Feedback-form matrices (A, B, C) for a TwoStep.

    The gradient enters as u = grad(y) with y = C x, so on a fixed
    curvature lam the coupled difference moves by the closed loop
    A + lam B C.  The state is x = (xi_t, xi_{t-1}), with
    A = [[1+mu, -mu], [1, 0]], B = [[-eta], [0]] and C = [[1+nu, -nu]];
    at mu = nu = 0, where xi_{t-1} neither moves nor is read, it is the
    1x1 form x = (w).  In the 2x2 form the step state (w, v) of
    step_rule is (x[0], x[0] - x[1]).  bounds is not read: the spec
    already holds its step and momentum.

    Raises:
        TypeError: for an optimizer that is not a TwoStep.
    """
    if not isinstance(spec, TwoStep):
        raise TypeError(f"no feedback form for optimizer {type(spec).__name__}")
    eta, mu, nu = spec.eta, spec.mu, spec.nu
    if mu == nu == 0.0:
        a, b, c = [[1.0]], [[-eta]], [[1.0]]
    else:
        a, b, c = [[1.0 + mu, -mu], [1.0, 0.0]], [[-eta], [0.0]], [[1.0 + nu, -nu]]
    return LureSystem(a=np.array(a), b=np.array(b), c=np.array(c))


def step_rule(spec: TwoStep) -> StepFn:
    """The spec's step as step(state, grad_at) -> the next state.

    grad_at maps a query point to the gradient there.  The step goes in
    place through nag_step(out=state), so the state passed in is the one
    returned.  A state of (rows, dim) arrays steps every row as that row
    stepped alone.

    Raises:
        TypeError: for an optimizer that is not a TwoStep.
    """
    if not isinstance(spec, TwoStep):
        raise TypeError(f"unsupported optimizer {type(spec).__name__}")
    eta, mu, nu = spec.eta, spec.mu, spec.nu
    return lambda state, grad_at: nag_step(state, grad_at, eta, mu, nu, out=state)
