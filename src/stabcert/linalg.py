"""Small dense symmetric eigenvalues and the closed-form 2x2 spectral radius.

Everything downstream that claims a certificate valid must be able to
check it without trusting LAPACK, so eigvals_sym is a plain cyclic
Jacobi iteration, its rotations written out on Python floats.  It
returns the eigenvalues alone, not an eigendecomposition: every check
reads only extreme eigenvalues.  Matrices in this project are tiny
(dimension <= 8), where Jacobi is both accurate and fast enough.
eig2_radius gives the spectral radius of a general 2x2 matrix from its
trace and determinant.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "eigvals_sym",
    "eig2_radius",
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
    tol = _JACOBI_RTOL * np.linalg.norm(a)

    # The rotations run on Python floats: at n <= 8 a numpy row slice
    # costs more than the arithmetic it carries.
    rows = a.tolist()
    for _ in range(_MAX_SWEEPS):
        a = np.array(rows)
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= tol:
            break
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                row_q = rows[q]
                apq = row_p[q]
                if abs(apq) <= 1e-300:
                    continue
                # Classic 2x2 annihilation; t is the stable root.
                tau = (row_q[q] - row_p[p]) / (2.0 * apq)
                t = 1.0
                if tau:
                    t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for row in rows:
                    ap, aq = row[p], row[q]
                    row[p], row[q] = c * ap - s * aq, s * ap + c * aq
                for k in range(n):
                    ap, aq = row_p[k], row_q[k]
                    row_p[k], row_q[k] = c * ap - s * aq, s * ap + c * aq
                row_p[q] = row_q[p] = 0.0
    else:
        raise RuntimeError("Jacobi iteration failed to converge")

    return np.sort(np.diag(a), kind="stable")


def eig2_radius(tr: float, det: float) -> float:
    """Spectral radius of a general 2x2 real matrix from trace and determinant.

    Solves the characteristic quadratic z^2 - tr z + det directly.  A
    complex conjugate pair has radius sqrt(det), exactly; real roots
    tr/2 -+ sqrt(disc) have radius |tr|/2 + sqrt(disc).  A discriminant
    within roundoff of zero is collapsed to a double root at tr/2, which
    keeps the radius stable for defective matrices where the naive sqrt
    would wobble at the 1e-8 level.

    Raises:
        ValueError: unless tr and det are finite.
    """
    tr = float(tr)
    det = float(det)
    if not (np.isfinite(tr) and np.isfinite(det)):
        raise ValueError(f"trace and determinant must be finite, got {tr}, {det}")
    disc = tr * tr / 4.0 - det
    fuzz = 8.0 * np.finfo(float).eps * max(tr * tr / 4.0, abs(det))
    if abs(disc) <= fuzz:
        return abs(tr / 2.0)
    if disc > 0.0:
        return abs(tr) / 2.0 + float(np.sqrt(disc))
    return float(np.sqrt(det))
