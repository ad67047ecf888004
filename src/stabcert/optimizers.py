"""First-order optimizer models and their feedback-system forms.

Covers plain SGD, heavy ball, Nesterov acceleration in its standard
(eta, mu) form, and the smooth-quadratic Nesterov variant whose momentum
weight theta is pinned by the condition number.  SGD and both Nesterov
forms have a step rule here, and step_rule picks a spec's, which the
coupled runs of simulate step on (rows, dim) states.  All four are
exposed as a linear system in feedback with the gradient (lure_of),
which is what the Lyapunov rate and the IQC certification layers
consume; heavy ball has no step rule because nothing simulates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "SectorBounds",
    "Sgd",
    "HeavyBall",
    "NagStandard",
    "NagSmoothQuadratic",
    "OptimizerSpec",
    "OptimizerState",
    "LureSystem",
    "theta_of",
    "sgd_step",
    "nag_step",
    "nag_sq_step",
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
    grad_bound optionally carries a gradient-norm bound G for the loss
    class; the certification machinery never needs it, only the
    closed-form stability bounds do.
    """

    gamma: float
    beta: float
    grad_bound: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.gamma <= self.beta < np.inf):
            raise ValueError(
                f"need finite 0 < gamma <= beta, got gamma={self.gamma}, beta={self.beta}"
            )
        if self.grad_bound is not None and not (0.0 < self.grad_bound < np.inf):
            raise ValueError(
                f"gradient bound must be positive and finite, got {self.grad_bound}"
            )

    @property
    def kappa(self) -> float:
        return self.beta / self.gamma


@dataclass(frozen=True)
class Sgd:
    """Plain stochastic gradient descent with step size eta."""

    eta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < np.inf):
            raise ValueError(f"step size must be positive and finite, got {self.eta}")


@dataclass(frozen=True)
class HeavyBall:
    """Polyak momentum: w+ = w - eta*grad(w) + mu*(w - w_prev)."""

    eta: float
    mu: float

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < np.inf):
            raise ValueError(f"step size must be positive and finite, got {self.eta}")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.mu}")


@dataclass(frozen=True)
class NagStandard:
    """Nesterov acceleration with lookahead gradient.

    v+ = mu*v - eta*grad(w + mu*v); w+ = w + v+.
    """

    eta: float
    mu: float

    def __post_init__(self) -> None:
        if not (0.0 < self.eta < np.inf):
            raise ValueError(f"step size must be positive and finite, got {self.eta}")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.mu}")


@dataclass(frozen=True)
class NagSmoothQuadratic:
    """Nesterov tuned for a [gamma, beta] sector.

    The step is 1/beta and the momentum weight is
    theta = (sqrt(kappa) - 1)/(sqrt(kappa) + 1):

        v+ = w - (1/beta) * grad(w)
        w+ = (1 + theta) * v+ - theta * v
    """

    bounds: SectorBounds

    @property
    def theta(self) -> float:
        return theta_of(self.bounds.kappa)


OptimizerSpec = Union[Sgd, HeavyBall, NagStandard, NagSmoothQuadratic]


@dataclass
class OptimizerState:
    """Mutable iterate pair; v doubles as momentum or auxiliary sequence."""

    w: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "OptimizerState":
        return cls(w=np.zeros(dim), v=np.zeros(dim), t=0)


@dataclass(frozen=True)
class LureSystem:
    """Linear system x+ = A x + B u, y = C x + D u in feedback with a gradient."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]


def theta_of(kappa: float) -> float:
    """Momentum weight (sqrt(kappa) - 1)/(sqrt(kappa) + 1).

    Zero at kappa = 1, strictly increasing, approaches 1 from below.

    Raises:
        ValueError: if kappa < 1 or is not finite.
    """
    if not (1.0 <= kappa < np.inf):
        raise ValueError(f"condition number must be finite and >= 1, got {kappa}")
    rt = np.sqrt(kappa)
    return float((rt - 1.0) / (rt + 1.0))


def sgd_step(state: OptimizerState, grad: np.ndarray, eta: float) -> OptimizerState:
    """One gradient step w+ = w - eta*grad; v is carried unchanged.

    grad is the gradient already evaluated at state.w.
    """
    w = state.w - eta * np.asarray(grad, dtype=float)
    return OptimizerState(w=w, v=state.v, t=state.t + 1)


def nag_step(state: OptimizerState, grad_at: GradFn, eta: float, mu: float) -> OptimizerState:
    """Standard Nesterov step; grad_at is called at the lookahead w + mu*v."""
    v = mu * state.v - eta * grad_at(state.w + mu * state.v)
    return OptimizerState(w=state.w + v, v=v, t=state.t + 1)


def nag_sq_step(
    state: OptimizerState, grad: np.ndarray, bounds: SectorBounds
) -> OptimizerState:
    """Sector-tuned Nesterov step; state.v is the auxiliary sequence.

    grad is the gradient already evaluated at state.w; the step size is
    1/beta and theta follows from the sector's condition number.
    """
    theta = theta_of(bounds.kappa)
    v_next = state.w - np.asarray(grad, dtype=float) / bounds.beta
    w_next = (1.0 + theta) * v_next - theta * state.v
    return OptimizerState(w=w_next, v=v_next, t=state.t + 1)


def a_alpha(theta: float, alpha: float) -> np.ndarray:
    """Closed-loop difference map for the sector-tuned Nesterov method.

    On a quadratic direction with curvature lam, the coupled difference
    (dw, dv) evolves linearly with alpha = 1 - lam/beta:

        [[(1 + theta)*alpha, -theta],
         [alpha,              0    ]]

    Raises:
        ValueError: if alpha is outside [0, 1].
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return np.array([[(1.0 + theta) * alpha, -theta], [alpha, 0.0]])


def lure_of(spec: OptimizerSpec, bounds: SectorBounds) -> LureSystem:
    """Feedback-form matrices (A, B, C, D) for a supported optimizer.

    The gradient enters as u = grad(y) with y = C x + D u, and D = 0 for
    all four specs.  On a fixed curvature lam the coupled difference
    therefore moves by the closed loop A + lam B C.  The state of each
    form maps onto the step rule's (w, v): Sgd x = (w), NagStandard
    x = (w, v), HeavyBall x = (w_t, w_{t-1}), and NagSmoothQuadratic
    x = (v_t, v_{t-1}) with w_t = C x.

    Raises:
        TypeError: for an unknown optimizer type.
    """
    if isinstance(spec, Sgd):
        return LureSystem(
            a=np.array([[1.0]]),
            b=np.array([[-spec.eta]]),
            c=np.array([[1.0]]),
            d=np.array([[0.0]]),
        )
    if isinstance(spec, HeavyBall):
        # State (w_t, w_{t-1}); u = grad(w_t).
        return LureSystem(
            a=np.array([[1.0 + spec.mu, -spec.mu], [1.0, 0.0]]),
            b=np.array([[-spec.eta], [0.0]]),
            c=np.array([[1.0, 0.0]]),
            d=np.array([[0.0]]),
        )
    if isinstance(spec, NagStandard):
        # State (w, v); the query y = w + mu v, v+ = mu v - eta u, w+ = w + v+.
        return LureSystem(
            a=np.array([[1.0, spec.mu], [0.0, spec.mu]]),
            b=np.array([[-spec.eta], [-spec.eta]]),
            c=np.array([[1.0, spec.mu]]),
            d=np.array([[0.0]]),
        )
    if isinstance(spec, NagSmoothQuadratic):
        # State (v_t, v_{t-1}); the query point is w_t = (1+theta) v_t - theta v_{t-1},
        # so y = C x recovers w and v+ = w - grad(w)/beta drives the first coordinate.
        theta = spec.theta
        beta = spec.bounds.beta
        return LureSystem(
            a=np.array([[1.0 + theta, -theta], [1.0, 0.0]]),
            b=np.array([[-1.0 / beta], [0.0]]),
            c=np.array([[1.0 + theta, -theta]]),
            d=np.array([[0.0]]),
        )
    raise TypeError(f"no feedback form for optimizer {type(spec).__name__}")


def step_rule(spec: OptimizerSpec) -> StepFn:
    """The spec's step as step(state, grad_at) -> the next state.

    grad_at maps a query point to the gradient there.  Each branch calls
    nag_step, sgd_step or nag_sq_step, so a state of (rows, dim) arrays
    steps every row as that row stepped alone.

    Raises:
        TypeError: for an optimizer without a step rule.
    """
    if isinstance(spec, NagStandard):
        eta, mu = spec.eta, spec.mu
        return lambda state, grad_at: nag_step(state, grad_at, eta, mu)
    if isinstance(spec, Sgd):
        eta = spec.eta
        return lambda state, grad_at: sgd_step(state, grad_at(state.w), eta)
    if isinstance(spec, NagSmoothQuadratic):
        bounds = spec.bounds
        return lambda state, grad_at: nag_sq_step(state, grad_at(state.w), bounds)
    raise TypeError(f"unsupported optimizer {type(spec).__name__}")
