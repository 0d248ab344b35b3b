"""Spectral and matrix-function primitives.

Spectral radius and bound, the check that a radius is below one,
Neumann-series solves, local spectral radius sequences, the matrix
exponential, and dominant (Perron-Frobenius) eigenpairs of nonnegative
matrices.  All routines operate on square real matrices given as 2-d
numpy arrays.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .errors import ConvergenceError, SpectralRadiusError

# Slack used when classifying a computed radius as "< 1".  Borderline
# values raise rather than proceed.
RADIUS_SLACK = 1e-12

# Above this order, eigenvalue-based routines switch from dense
# eigendecomposition to power iteration.
DENSE_EIG_LIMIT = 512


class EigenpairResult(NamedTuple):
    """Dominant eigenvalue with right/left eigenvectors.

    The right eigenvector sums to one; the left eigenvector is scaled so
    that ``left @ right == 1``.
    """

    value: float
    right: np.ndarray
    left: np.ndarray
    normalized: bool


def require_square(a, name="matrix"):
    """Validate and return ``a`` as a finite square 2-d float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def spectral_radius(a):
    """Return the largest eigenvalue modulus of a square matrix.

    Uses a dense eigendecomposition for orders up to ``DENSE_EIG_LIMIT``
    and power iteration on ``|a|`` above that.
    """
    a = require_square(a)
    n = a.shape[0]
    if n <= DENSE_EIG_LIMIT:
        return float(np.max(np.abs(np.linalg.eigvals(a))))
    # Power-iteration fallback: rho(|A|) bounds rho(A) from above and the
    # two coincide for the nonnegative matrices used at this scale.
    return _power_radius(np.abs(a))


def _power_radius(a, tol=1e-13, max_iter=10_000):
    n = a.shape[0]
    h = np.ones(n)
    value = 0.0
    for _ in range(max_iter):
        ah = a @ h
        new_value = np.linalg.norm(ah, np.inf)
        if new_value == 0.0:
            return 0.0
        h = ah / new_value
        if abs(new_value - value) <= tol * max(1.0, new_value):
            return float(new_value)
        value = new_value
    raise ConvergenceError("power iteration did not converge", last=value)


def spectral_radius_bounds(a):
    """Row/column-sum bracket for the spectral radius of a nonnegative matrix.

    Returns ``(lower, upper)`` where the bracket is the intersection of
    the row-sum and column-sum brackets, so it is the tighter of the two.
    Requires ``a >= 0`` elementwise.
    """
    a = require_square(a)
    if np.any(a < 0):
        raise ValueError("matrix must be nonnegative elementwise")
    row = a.sum(axis=1)
    col = a.sum(axis=0)
    lower = max(row.min(), col.min())
    upper = min(row.max(), col.max())
    return float(lower), float(upper)


def check_radius_below_one(a, what="matrix", policy=None):
    """Return rho(a), raising SpectralRadiusError unless rho(a) < 1.

    Comparison against one uses strict inequality with slack
    ``RADIUS_SLACK``; borderline radii raise rather than proceed.  When
    ``a`` is the discount operator of a policy, pass it as ``policy`` and
    the error carries it.
    """
    rho = spectral_radius(a)
    if rho >= 1.0 - RADIUS_SLACK:
        raise SpectralRadiusError(
            f"spectral radius of {what} is {rho:.12g}, expected < 1",
            spectral_radius=rho,
            policy=policy,
        )
    return rho


def neumann_solve(a, b):
    """Solve ``u = a @ u + b`` for ``u``; requires ``rho(a) < 1``.

    Equivalent to ``inv(I - a) @ b``, the limit of the power series
    ``sum_k a^k b``.
    """
    a = require_square(a)
    b = np.asarray(b, dtype=float)
    check_radius_below_one(a, what="coefficient matrix")
    eye = np.eye(a.shape[0])
    return np.linalg.solve(eye - a, b)


def local_spectral_radius_seq(a, h, kmax):
    """Sequence ``||a^k h||_inf ** (1/k)`` for k = 1..kmax.

    For nonnegative ``a`` and strictly positive ``h`` the sequence
    converges to the spectral radius of ``a``.
    """
    a = require_square(a)
    h = np.asarray(h, dtype=float)
    if np.any(a < 0):
        raise ValueError("matrix must be nonnegative elementwise")
    if np.any(h <= 0):
        raise ValueError("h must be strictly positive")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    return _local_radius_seq(a, h, kmax)[0]


def _local_radius_seq(a, h, kmax):
    """``||a^k h||_inf ** (1/k)`` for k = 1..kmax, and the first k at which it is below one.

    Rescaled at every step, with the norms summed in logs; the first k is
    read off the sign of that sum, since ``exp`` can round it to one.
    """
    out = np.zeros(kmax)
    first = None
    v = np.asarray(h, dtype=float)
    log_scale = 0.0
    for k in range(1, kmax + 1):
        v = a @ v
        norm = np.linalg.norm(v, np.inf)
        if norm == 0.0:
            return out, first or k
        log_scale += np.log(norm)
        out[k - 1] = np.exp(log_scale / k)
        if first is None and log_scale < 0:
            first = k
        v = v / norm
    return out, first


def spectral_bound(a):
    """Return ``s(a)``, the largest real part over eigenvalues of ``a``."""
    a = require_square(a)
    return float(np.max(np.linalg.eigvals(a).real))


def matrix_exponential(a):
    """Matrix exponential of a square matrix (``scipy.linalg.expm``)."""
    return expm(require_square(a))


def dominant_eigenpair(a, assume_irreducible=False, tol=1e-12, max_iter=50_000):
    """Dominant eigenpair of a nonnegative matrix.

    Returns an :class:`EigenpairResult` with ``a @ right = value * right``
    and ``left @ a = value * left``.  The right eigenvector is normalized
    to sum to one and the left eigenvector is scaled so that
    ``left @ right = 1``.  With ``assume_irreducible=True`` the routine
    additionally verifies that both eigenvectors are strictly positive.
    """
    a = require_square(a)
    if np.any(a < 0):
        raise ValueError("matrix must be nonnegative elementwise")
    n = a.shape[0]
    if n <= DENSE_EIG_LIMIT:
        value, right = _dense_dominant(a)
        _, left = _dense_dominant(a.T)
    else:
        value, right = _power_eigvec(a, tol, max_iter)
        _, left = _power_eigvec(a.T, tol, max_iter)
    right = _fix_sign(right)
    left = _fix_sign(left)
    if assume_irreducible and (np.any(right <= 0) or np.any(left <= 0)):
        raise ValueError("eigenvectors are not strictly positive; matrix may be reducible")
    # Clip tiny negative round-off before normalizing.
    right = np.clip(right, 0.0, None)
    left = np.clip(left, 0.0, None)
    right_sum = right.sum()
    if right_sum <= 0:
        raise ConvergenceError("dominant right eigenvector degenerated to zero")
    right = right / right_sum
    inner = left @ right
    if inner <= 0:
        raise ConvergenceError("left/right eigenvectors are orthogonal; cannot normalize")
    left = left / inner
    return EigenpairResult(value=float(value), right=right, left=left, normalized=True)


def _dense_dominant(a):
    values, vectors = np.linalg.eig(a)
    idx = int(np.argmax(np.abs(values)))
    value = values[idx].real
    vector = vectors[:, idx].real
    return value, vector


def _fix_sign(v):
    return -v if v.sum() < 0 else v


def _power_eigvec(a, tol, max_iter):
    n = a.shape[0]
    v = np.ones(n) / n
    value = 0.0
    for _ in range(max_iter):
        av = a @ v
        new_value = np.linalg.norm(av, np.inf)
        if new_value == 0.0:
            return 0.0, v
        new_v = av / new_value
        if np.linalg.norm(new_v - v, np.inf) <= tol:
            return new_value, new_v
        v, value = new_v, new_value
    raise ConvergenceError("power iteration did not converge", last=value)
