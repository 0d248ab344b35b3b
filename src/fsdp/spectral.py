"""Spectral and matrix-function primitives.

Spectral radius and bound, the check that a radius is below one,
Neumann-series solves, local spectral radius sequences, the matrix
exponential, and dominant (Perron-Frobenius) eigenpairs of nonnegative
matrices.  All routines operate on square real matrices given as 2-d
numpy arrays.  :func:`bounding_pair` decides ``rho < 1`` for nonnegative
input; eigenvalues decide signed input and report rejections.
"""

import sys
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, SpectralRadiusError

# Slack used when classifying a computed radius as "< 1".  Borderline
# values raise rather than proceed.
RADIUS_SLACK = 1e-12


class EigenpairResult(NamedTuple):
    """Dominant eigenvalue with right/left eigenvectors.

    The right eigenvector sums to one; the left eigenvector is scaled so
    that ``left @ right == 1``.
    """

    value: float
    right: np.ndarray
    left: np.ndarray
    normalized: bool


def issparse(x):
    """True iff ``x`` is scipy sparse, without importing scipy: no sparse object exists before scipy.sparse."""
    return "scipy.sparse" in sys.modules and sys.modules["scipy.sparse"].issparse(x)


def require_square(a, name="matrix"):
    """Validate and return ``a`` as a finite square 2-d float array."""
    if issparse(a):
        raise ValueError(f"{name} is a scipy sparse matrix; the spectral routines take dense arrays")
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def spectral_radius(a):
    """Return the largest eigenvalue modulus of a square matrix.

    A dense eigendecomposition at every order, so the cost grows as
    ``n**3``.
    """
    return float(np.max(np.abs(np.linalg.eigvals(require_square(a)))))


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


def shifted(apply):
    """``v -> v - L v``, the product with ``I - L``, given ``apply = v -> L v``."""
    return lambda v: v - apply(v)


def bicgstab(matvec, b, x0=None, *, rtol):
    """Solve ``A x = b`` by BiCGSTAB (van der Vorst 1992), given ``matvec = v -> A v``.

    scipy 1.17's unpreconditioned loop at ``atol=0``, update for update (its ``s`` is ``r``), to the bit.
    ``info``: 0 on convergence, ``10 n`` once that many iterations run out, -10 or -11 on breakdown.
    """
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        return b.copy(), 0
    atol, breakdown, maxiter = rtol * bnrm2, np.finfo(float).eps ** 2, 10 * b.size
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float).ravel()
    r = b - matvec(x) if x.any() else b.copy()
    rtilde = r.copy()
    for iteration in range(maxiter):
        if np.linalg.norm(r) < atol:
            return x, 0
        rho = np.dot(rtilde, r)
        if np.abs(rho) < breakdown:
            return x, -10
        if iteration == 0:
            p = r.copy()
        elif np.abs(omega) < breakdown:
            return x, -11
        else:
            p -= omega * v
            p *= (rho / rho_prev) * (alpha / omega)
            p += r
        v = matvec(p)
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        if np.linalg.norm(r) < atol:
            return x + alpha * p, 0
        t = matvec(r)
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * p
        x += omega * r
        r -= omega * t
        rho_prev = rho
    return x, maxiter


def bounding_pair(apply, n):
    """``(h, lam)`` with ``h > 0``, ``L h <= lam h`` and ``lam < 1 - RADIUS_SLACK``, or None.

    ``apply`` is ``v -> L v`` for a nonnegative ``L`` of order ``n``; the
    pair proves ``rho(L) <= lam``.  Tries ``h = 1`` (one product: ``lam``
    is the largest row sum), then ``h`` solving ``(I - L) h = 1`` by
    BiCGSTAB; ``lam`` is read off ``L h``, so it holds however inexact ``h`` is.
    """
    h = np.ones(n)
    lam = float(np.max(apply(h)))
    if not lam < 1.0 - RADIUS_SLACK:
        h = bicgstab(shifted(apply), h, rtol=1e-10)[0]
        lam = float(np.max(apply(h) / h)) if np.all((h > 0) & (h < np.inf)) else np.inf
    return (h, lam) if lam < 1.0 - RADIUS_SLACK else None


def check_radius_below_one(a, what="matrix", policy=None):
    """Raise SpectralRadiusError unless ``rho(a) < 1``; return a bounding pair or None.

    A nonnegative ``a`` is accepted by its :func:`bounding_pair`, which is
    returned; otherwise the eigenvalues decide, borderline radii within
    ``RADIUS_SLACK`` of one raise, and an accepted radius returns None.
    When ``a`` is the discount operator of a policy, pass it as ``policy``
    and the error carries it.
    """
    a = require_square(a)
    pair = None if np.any(a < 0) else bounding_pair(a.__matmul__, a.shape[0])
    if pair is None:
        rho = spectral_radius(a)
        if rho >= 1.0 - RADIUS_SLACK:
            raise SpectralRadiusError(
                f"spectral radius of {what} is {rho:.12g}, expected < 1",
                spectral_radius=rho,
                policy=policy,
            )
    return pair


def neumann_solve(a, b):
    """Solve ``u = a @ u + b`` for ``u``; requires ``rho(a) < 1``.

    Equivalent to ``inv(I - a) @ b``, the limit of the power series
    ``sum_k a^k b``.  Stability is decided by :func:`check_radius_below_one`.
    """
    a = require_square(a)
    check_radius_below_one(a, what="coefficient matrix")
    return np.linalg.solve(np.eye(a.shape[0]) - a, np.asarray(b, dtype=float))


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
    """Matrix exponential of a square matrix (``scipy.linalg.expm``, imported on first use)."""
    from scipy.linalg import expm

    return expm(require_square(a))


def eig(*args, **kwargs):
    """``scipy.linalg.eig``, imported on first use: no solve, simulation or bench loads it."""
    from scipy.linalg import eig

    return eig(*args, **kwargs)


def dominant_eigenpair(a, assume_irreducible=False):
    """Dominant (Perron) eigenpair of a nonnegative matrix.

    Returns an :class:`EigenpairResult` with ``a @ right = value * right``
    and ``left @ a = value * left``.  The right eigenvector is normalized
    to sum to one and the left eigenvector is scaled so that
    ``left @ right = 1``.  With ``assume_irreducible=True`` the routine
    additionally verifies that both eigenvectors are strictly positive.

    One dense eigendecomposition gives both eigenvectors.  The eigenvalue
    taken is the one with the largest real part: for a nonnegative matrix
    that is the Perron root ``rho(a)``, also when ``-rho(a)`` or other
    eigenvalues of modulus ``rho(a)`` exist (periodic matrices).
    """
    a = require_square(a)
    if np.any(a < 0):
        raise ValueError("matrix must be nonnegative elementwise")
    return _perron_pair(*eig(a, left=True, right=True), assume_irreducible)


def spectral_summary(a):
    """``(radius, bound, pair)`` of a square matrix from one decomposition.

    ``pair`` is the :func:`dominant_eigenpair` of a nonnegative ``a``,
    taken with the radius and bound from one ``eig`` call; a signed ``a``
    gets ``None`` and one ``eigvals`` call.
    """
    a = require_square(a)
    if np.any(a < 0):
        values, pair = np.linalg.eigvals(a), None
    else:
        values, lefts, rights = eig(a, left=True, right=True)
        pair = _perron_pair(values, lefts, rights)
    return float(np.max(np.abs(values))), float(np.max(values.real)), pair


def _perron_pair(values, lefts, rights, assume_irreducible=False):
    idx = int(np.argmax(values.real))
    value = values[idx].real
    right = _fix_sign(rights[:, idx].real)
    left = _fix_sign(lefts[:, idx].real)
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


def _fix_sign(v):
    return -v if v.sum() < 0 else v
