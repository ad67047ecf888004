"""Small dense symmetric eigenvalues and closed-form 2x2 eigenvalues.

Everything downstream that claims a certificate valid must be able to
check it without trusting LAPACK, so eigvals_sym is a plain cyclic
Jacobi iteration written against numpy arrays only.  It returns the
eigenvalues alone, not an eigendecomposition: every check reads only
extreme eigenvalues.  Matrices in this project are tiny (dimension
<= 8), where Jacobi is both accurate and fast enough.  eig2_general
solves a general 2x2 characteristic quadratic from its trace and
determinant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Eig2",
    "eigvals_sym",
    "eig2_general",
]

# Relative off-diagonal mass at which the Jacobi sweep stops.
_JACOBI_RTOL = 1e-14
_MAX_SWEEPS = 60


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    if not np.all(np.abs(m - m.T) <= 1e-10 * scale):
        raise ValueError("matrix is not symmetric")
    return 0.5 * (m + m.T)


def eigvals_sym(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix by cyclic Jacobi.

    Rotations are applied in row-cyclic order until the off-diagonal
    Frobenius mass drops below 1e-14 times the matrix norm; the rotated
    diagonal, sorted, is the spectrum.  No eigenvectors are accumulated.

    Args:
        m: real symmetric array, shape (n, n).

    Returns:
        The eigenvalues in ascending order, shape (n,).

    Raises:
        ValueError: if m is not square symmetric.
    """
    a = _check_symmetric(m)
    n = a.shape[0]
    if n == 1:
        return a[0].copy()

    norm = np.linalg.norm(a)
    if norm == 0.0:
        return np.zeros(n)
    tol = _JACOBI_RTOL * norm

    for _ in range(_MAX_SWEEPS):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # Classic 2x2 annihilation; t is the stable root.
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                a[p, q] = a[q, p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration failed to converge")

    return np.sort(np.diag(a), kind="stable")


class Eig2(NamedTuple):
    """Root pair of z^2 - tr z + det and its largest modulus."""

    values: np.ndarray
    radius: float


def eig2_general(tr: float, det: float) -> Eig2:
    """Eigenvalues of a general 2x2 real matrix from trace and determinant.

    Solves the characteristic quadratic directly.  Returns a complex
    conjugate pair when the discriminant is negative (radius sqrt(det),
    exact), real values otherwise, sorted by real part then imaginary
    part.  A discriminant within roundoff of zero is collapsed to a
    double root at tr/2, which keeps the radius stable for defective
    matrices where the naive sqrt would wobble at the 1e-8 level.
    """
    tr = float(tr)
    det = float(det)
    if not (np.isfinite(tr) and np.isfinite(det)):
        raise ValueError(f"trace and determinant must be finite, got {tr}, {det}")
    disc = tr * tr / 4.0 - det
    fuzz = 8.0 * np.finfo(float).eps * max(tr * tr / 4.0, abs(det))
    if abs(disc) <= fuzz:
        half = tr / 2.0
        return Eig2(values=np.array([half, half]), radius=abs(half))
    if disc > 0.0:
        root = np.sqrt(disc)
        vals = np.array([tr / 2.0 - root, tr / 2.0 + root])
        return Eig2(values=vals, radius=float(max(abs(vals[0]), abs(vals[1]))))
    root = np.sqrt(-disc)
    vals = np.array([tr / 2.0 - 1j * root, tr / 2.0 + 1j * root])
    return Eig2(values=vals, radius=float(np.sqrt(det)))
