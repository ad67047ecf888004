"""Small dense symmetric eigenvalues and the closed-form 2x2 spectral radius.

Everything downstream that claims a certificate valid must be able to
check it without trusting LAPACK, so eigvals_sym is a plain cyclic
Jacobi iteration, its rotations written out on Python floats.  It
returns the eigenvalues alone, not an eigendecomposition: every check
reads only extreme eigenvalues.  Matrices in this project are tiny
(dimension <= 8), where Jacobi is both accurate and fast enough.

The iteration stops on the per-pair relative test of Demmel & Veselic
("Jacobi's method is more accurate than QR", SIAM J. Matrix Anal. Appl.
13(4), 1992): an entry is negligible once it is tiny next to the
geometric mean of its own two diagonal entries.  No test reads a norm,
so the rule is scale-free: a matrix scaled by a power of two runs the
same rotations, and a graded one, whose entries span many orders of
magnitude, is still rotated until each small eigenvalue is accurate
relative to itself.  (A matrix whose entries are all subnormal, below
2^-1022, carries too few bits for that and is only roughly solved.)

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

# A Jacobi pair (p, q) is rotated only while |a_pq| exceeds this times
# sqrt(|a_pp|) sqrt(|a_qq|).
_JACOBI_RTOL = 1e-14
_MAX_SWEEPS = 60


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    """The symmetric part of m, halved before the sum so that it cannot overflow."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    big = float(np.abs(m).max()) if m.size else 0.0
    if not np.all(np.abs(m - m.T) <= 1e-10 * max(1.0, big)):
        raise ValueError("matrix is not symmetric")
    return 0.5 * m + 0.5 * m.T


def eigvals_sym(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix by cyclic Jacobi.

    Sweeps rotate the pairs in row-cyclic order, skipping (p, q) while
    |a_pq| <= _JACOBI_RTOL sqrt(|a_pp|) sqrt(|a_qq|) (Demmel & Veselic
    1992), and stop at the first sweep that rotates nothing; the
    diagonal, sorted, is then the spectrum.  Each test compares an entry
    with its own diagonal only, so the rule is scale-free: a matrix
    scaled by a power of two runs the same rotations and returns the
    scaled spectrum exactly, as long as its entries stay normal floats,
    and a graded one is not stopped by a tiny ratio to its largest
    entries.  No eigenvectors are accumulated.

    Args:
        m: real symmetric array, shape (n, n).

    Returns:
        The eigenvalues in ascending order, shape (n,).

    Raises:
        ValueError: if m is not square symmetric.
        RuntimeError: if _MAX_SWEEPS sweeps all rotate.
    """
    # The rotations run on Python floats: at n <= 8 a numpy row slice
    # costs more than the arithmetic it carries.
    rows = _check_symmetric(m).tolist()
    n = len(rows)
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                row_q = rows[q]
                apq = row_p[q]
                if abs(apq) <= _JACOBI_RTOL * math.sqrt(abs(row_p[p])) * math.sqrt(abs(row_q[q])):
                    continue
                rotated = True
                # Classic 2x2 annihilation; t is the stable root.  Halving
                # the diagonal first keeps tau's numerator from
                # overflowing, and hypot keeps t and c finite for any tau.
                tau = (0.5 * row_q[q] - 0.5 * row_p[p]) / apq
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau)) if tau else 1.0
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                for row in rows:
                    ap, aq = row[p], row[q]
                    row[p], row[q] = c * ap - s * aq, s * ap + c * aq
                for k in range(n):
                    ap, aq = row_p[k], row_q[k]
                    row_p[k], row_q[k] = c * ap - s * aq, s * ap + c * aq
                row_p[q] = row_q[p] = 0.0
        if not rotated:
            break
    else:
        raise RuntimeError("Jacobi iteration failed to converge")

    return np.sort([row[k] for k, row in enumerate(rows)], kind="stable")


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
