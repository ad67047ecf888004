"""Sector quadratic constraints and the certificate LMI.

A gradient of a [gamma, beta]-sector function, acting on differences
y = w - w' and u = grad(w) - grad(w'), satisfies three pointwise
quadratic inequalities: strong monotonicity (u^T y >= gamma ||y||^2),
inverse smoothness (u^T y >= ||u||^2 / beta), and the sector product
form (u - gamma y)^T (beta y - u) >= 0 of Lessard, Recht & Packard
(SIAM J. Optim. 2016).  The product form is not a nonnegative
combination of the first two; on a scalar channel it alone makes the
S-procedure lossless.  Folding nonnegative multiples of all three into
the Lyapunov decrement condition for a feedback system gives one linear
matrix inequality in (P, lambda, tau1, tau2, tau3); a negative
semidefinite solution is a machine-checkable stability certificate.
sdp.s_lemma_cross_check samples in-sector responses to check a solved
certificate's decrement directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import eigvals_sym
from .optimizers import LureSystem, SectorBounds

__all__ = [
    "IqcCertificate",
    "sector_multipliers",
    "sector_product_multiplier",
    "sector_lift",
    "assemble_lmi",
    "certificate_to_json",
    "certificate_from_json",
]


def sector_multipliers(bounds: SectorBounds) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier matrices for strong monotonicity and co-coercivity on (y, u).

    Pi1 encodes u^T y - gamma ||y||^2 >= 0 and Pi2 encodes
    u^T y - ||u||^2 / beta >= 0, both as [y u] quadratic forms.
    """
    pi1 = np.array([[-bounds.gamma, 0.5], [0.5, 0.0]])
    pi2 = np.array([[0.0, 0.5], [0.5, -1.0 / bounds.beta]])
    return pi1, pi2


def sector_product_multiplier(bounds: SectorBounds) -> np.ndarray:
    """Multiplier matrix Pi3 for the sector product form on (y, u).

    Pi3 encodes (u - gamma y)^T (beta y - u) >= 0, i.e.
    (gamma + beta) u^T y - gamma beta ||y||^2 - ||u||^2 >= 0.
    """
    mid = 0.5 * (bounds.gamma + bounds.beta)
    return np.array([[-bounds.gamma * bounds.beta, mid], [mid, -1.0]])


def sector_lift(system: LureSystem) -> np.ndarray:
    """The map J = [[C, D], [0, I]] from z = (x, u) to the pair (y, u)."""
    s = system.state_dim
    m = system.input_dim
    j = np.zeros((2 * m, s + m))
    j[:m, :s] = system.c
    j[:m, s:] = system.d
    j[m:, s:] = np.eye(m)
    return j


def assemble_lmi(
    system: LureSystem,
    bounds: SectorBounds,
    p: np.ndarray,
    lam: float,
    tau1: float,
    tau2: float,
    rho: float = 0.0,
    tau3: float = 0.0,
) -> np.ndarray:
    """Certificate LMI in the joint variable z = (x, u).

    Returns the symmetric (s+m) x (s+m) matrix

        [F^T P F - (1-rho) blkdiag(P, 0)] + lam * blkdiag(I, 0)
            + J^T (tau1 Pi1 + tau2 Pi2 + tau3 Pi3) J,

    with F = [A B] and J = [[C, D], [0, I]].  Negative semidefiniteness
    certifies V(x+) <= (1-rho) V(x) - lam ||x||^2 whenever u is a sector
    gradient response to y = C x + D u.  Affine in
    (p, lam, tau1, tau2, tau3); tau3 follows rho so that positional
    callers of the two-multiplier form keep working.
    """
    p = np.asarray(p, dtype=float)
    s = system.state_dim
    m = system.input_dim
    if p.shape != (s, s):
        raise ValueError(f"P must be {s}x{s}, got {p.shape}")
    f = np.hstack([system.a, system.b])
    lifted = np.zeros((s + m, s + m))
    lifted[:s, :s] = (1.0 - rho) * p - lam * np.eye(s)
    j = sector_lift(system)
    pi1, pi2 = sector_multipliers(bounds)
    pi3 = sector_product_multiplier(bounds)
    return f.T @ p @ f - lifted + j.T @ (tau1 * pi1 + tau2 * pi2 + tau3 * pi3) @ j


@dataclass(frozen=True)
class IqcCertificate:
    """A solved (or attempted) LMI certificate for one optimizer/sector."""

    optimizer: str
    gamma: float
    beta: float
    p: np.ndarray
    lam: float
    tau1: float
    tau2: float
    rho: float
    lmi_max_eig: float
    p_min_eig: float
    status: str
    solver_seed: int
    tau3: float = 0.0
    newton_steps: int = 0

    def recompute_eigs(self, system: LureSystem, bounds: SectorBounds) -> tuple[float, float]:
        """Re-derive (lmi_max_eig, p_min_eig) from the stored variables."""
        lmi = assemble_lmi(
            system, bounds, self.p, self.lam, self.tau1, self.tau2, self.rho, self.tau3
        )
        return float(eigvals_sym(lmi)[-1]), float(eigvals_sym(self.p)[0])


def certificate_to_json(cert: IqcCertificate) -> str:
    """Serialize a certificate to a stable, key-sorted JSON document."""
    payload = {
        "optimizer": cert.optimizer,
        "gamma": cert.gamma,
        "beta": cert.beta,
        "P": [float(x) for x in np.asarray(cert.p).reshape(-1)],
        "lambda": cert.lam,
        "tau1": cert.tau1,
        "tau2": cert.tau2,
        "tau3": cert.tau3,
        "rho": cert.rho,
        "lmi_max_eig": cert.lmi_max_eig,
        "p_min_eig": cert.p_min_eig,
        "status": cert.status,
        "solver_seed": cert.solver_seed,
        "newton_steps": cert.newton_steps,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def certificate_from_json(text: str) -> IqcCertificate:
    """Inverse of certificate_to_json.

    A document without "tau3" (written before the sector product
    multiplier existed) reads as tau3 = 0.0, which is the LMI it
    certified; one without "newton_steps" (written before the barrier
    solver) reads as 0 steps.
    """
    raw = json.loads(text)
    flat = np.asarray(raw["P"], dtype=float)
    side = int(round(np.sqrt(flat.size)))
    if side * side != flat.size:
        raise ValueError(f"P payload of length {flat.size} is not square")
    return IqcCertificate(
        optimizer=raw["optimizer"],
        gamma=float(raw["gamma"]),
        beta=float(raw["beta"]),
        p=flat.reshape(side, side),
        lam=float(raw["lambda"]),
        tau1=float(raw["tau1"]),
        tau2=float(raw["tau2"]),
        rho=float(raw.get("rho", 0.0)),
        lmi_max_eig=float(raw["lmi_max_eig"]),
        p_min_eig=float(raw["p_min_eig"]),
        status=str(raw["status"]),
        solver_seed=int(raw["solver_seed"]),
        tau3=float(raw.get("tau3", 0.0)),
        newton_steps=int(raw.get("newton_steps", 0)),
    )
