"""The sector quadratic constraint and the certificate LMI.

A gradient of a [gamma, beta]-sector function, acting on differences
y = w - w' and u = grad(w) - grad(w'), satisfies the sector product form
(u - gamma y)^T (beta y - u) >= 0 of Lessard, Recht & Packard (SIAM J.
Optim. 2016).  Folding a nonnegative multiple tau of it into the
Lyapunov decrement condition of a feedback system gives one linear
matrix inequality in (P, lambda, tau); a negative semidefinite solution
is a machine-checkable stability certificate.

One multiplier loses nothing on the scalar channel of a LureSystem.
Strong monotonicity (u y >= gamma y^2) and co-coercivity
(u y >= u^2 / beta) follow from the product form there, since for
y != 0 it says u / y lies in [gamma, beta].  For gamma < beta the product
form is strictly positive at u = (gamma + beta) y / 2, so by the strict
S-lemma (Polik & Terlaky, SIAM Review 2007) the decrement holds on every
in-sector pair exactly when some tau >= 0 certifies it.  So a certificate
that also weighs the two implied inequalities exists exactly when one
with tau alone does.  At gamma = beta
the product form is -(u - gamma y)^2, which is nowhere positive, and
the lemma does not apply.  sdp.s_lemma_cross_check samples in-sector
responses to check a solved certificate's decrement directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .linalg import eigvals_sym
from .optimizers import LureSystem, SectorBounds

__all__ = [
    "IqcCertificate",
    "sector_product_multiplier",
    "sector_lift",
    "assemble_lmi",
    "certificate_to_json",
    "certificate_from_json",
]


def sector_product_multiplier(bounds: SectorBounds) -> np.ndarray:
    """Multiplier matrix Pi3 for the sector product form on (y, u).

    Pi3 encodes (u - gamma y)^T (beta y - u) >= 0, i.e.
    (gamma + beta) u^T y - gamma beta ||y||^2 - ||u||^2 >= 0.
    """
    mid = 0.5 * (bounds.gamma + bounds.beta)
    return np.array([[-bounds.gamma * bounds.beta, mid], [mid, -1.0]])


def sector_lift(system: LureSystem) -> np.ndarray:
    """The map J = [[C, 0], [0, 1]] from z = (x, u) to the pair (y, u)."""
    s = system.state_dim
    j = np.zeros((2, s + 1))
    j[0, :s] = system.c
    j[1, s] = 1.0
    return j


def assemble_lmi(
    system: LureSystem,
    bounds: SectorBounds,
    p: np.ndarray,
    lam: float,
    tau: float,
    rho: float = 0.0,
) -> np.ndarray:
    """Certificate LMI in the joint variable z = (x, u).

    Returns the symmetric (s+1) x (s+1) matrix

        [F^T P F - (1-rho) blkdiag(P, 0)] + lam * blkdiag(I, 0) + tau J^T Pi3 J,

    with F = [A B] and J = [[C, 0], [0, 1]].  Negative semidefiniteness
    certifies V(x+) <= (1-rho) V(x) - lam ||x||^2 whenever u is a sector
    gradient response to y = C x.  Affine in (p, lam, tau).  A stack of
    P (leading axes) gives a stack of LMIs, with lam and tau broadcast
    against it as arrays of shape (..., 1, 1).
    """
    p = np.asarray(p, dtype=float)
    s = system.state_dim
    if p.shape[-2:] != (s, s):
        raise ValueError(f"P must be {s}x{s}, got {p.shape}")
    f = np.hstack([system.a, system.b])
    lifted = np.zeros((*p.shape[:-2], s + 1, s + 1))
    lifted[..., :s, :s] = (1.0 - rho) * p - lam * np.eye(s)
    j = sector_lift(system)
    return f.T @ p @ f - lifted + tau * (j.T @ sector_product_multiplier(bounds) @ j)


@dataclass(frozen=True)
class IqcCertificate:
    """A solved (or attempted) LMI certificate for one optimizer/sector."""

    optimizer: str
    gamma: float
    beta: float
    p: np.ndarray
    lam: float
    tau: float
    rho: float
    lmi_max_eig: float
    p_min_eig: float
    status: str
    solver_seed: int
    newton_steps: int = 0

    def recompute_eigs(self, system: LureSystem, bounds: SectorBounds) -> tuple[float, float]:
        """Re-derive (lmi_max_eig, p_min_eig) from the stored variables."""
        lmi = assemble_lmi(system, bounds, self.p, self.lam, self.tau, self.rho)
        return float(eigvals_sym(lmi)[-1]), float(eigvals_sym(self.p)[0])


def _flat(p: np.ndarray) -> list:
    return [float(x) for x in np.asarray(p).reshape(-1)]


def _square(flat) -> np.ndarray:
    flat = np.asarray(flat, dtype=float)
    side = int(round(np.sqrt(flat.size)))
    if side * side != flat.size:
        raise ValueError(f"P payload of length {flat.size} is not square")
    return flat.reshape(side, side)


# Field name -> (JSON key, writer, reader) for every IqcCertificate field.
# P is stored flat; the scalars are cast by their declared type both ways.
_CASTS = {"str": str, "float": float, "int": int}
_KEYS = {
    f.name: ("P", _flat, _square) if f.name == "p"
    else ("lambda" if f.name == "lam" else f.name, _CASTS[f.type], _CASTS[f.type])
    for f in fields(IqcCertificate)
}


def certificate_to_json(cert: IqcCertificate) -> str:
    """Serialize a certificate to a stable, key-sorted JSON document."""
    payload = {key: write(getattr(cert, name)) for name, (key, write, _) in _KEYS.items()}
    return json.dumps(payload, sort_keys=True, indent=2)


def certificate_from_json(text: str) -> IqcCertificate:
    """Inverse of certificate_to_json.

    Every key that certificate_to_json writes is required.

    Raises:
        ValueError: on a P that is not square, or a missing key (as in a
            document of the earlier three-multiplier format, which holds
            tau1, tau2 and tau3 where this one holds tau).
    """
    raw = json.loads(text)
    try:
        return IqcCertificate(**{name: read(raw[key]) for name, (key, _, read) in _KEYS.items()})
    except KeyError as exc:
        raise ValueError(f"certificate JSON has no {exc.args[0]!r} key") from exc
