"""Output checks computed apart from the program.

Every function takes plain arrays and returns a list of error strings;
an empty list means the output passed.  Nothing here calls ``fsdp``:
residuals are recomputed from the model's own arrays with this file's
formulas.
"""

import numpy as np
import scipy.sparse as sp


def _scale(v):
    return max(1.0, float(np.max(np.abs(v))))


def q_table(reward, feasible, kernel, v, beta=None, weights=None):
    """``r(x, a) + sum_y b(x, a, y) P(x, a, y) v(y)``, infeasible pairs at -inf.

    ``kernel`` and ``weights`` are flat ``(n * m, n)`` arrays, dense or
    sparse; ``beta`` is the constant discount factor when ``weights`` is
    None.
    """
    n, m = feasible.shape
    v = np.asarray(v, dtype=float)
    if weights is None:
        ev = beta * np.asarray(kernel @ v).reshape(-1)
    elif sp.issparse(kernel) or sp.issparse(weights):
        ev = np.asarray(sp.csr_matrix(kernel).multiply(weights) @ v).reshape(-1)
    else:
        ev = np.einsum("ij,ij,j->i", kernel, weights, v)
    return np.where(feasible, reward + ev.reshape(n, m), -np.inf)


def check_solution(reward, feasible, kernel, v, sigma, tol, beta=None, weights=None):
    """Bellman residual ``||Tv - v||`` and greedy attainment of the policy."""
    errors = []
    v = np.asarray(v, dtype=float)
    sigma = np.asarray(sigma, dtype=np.int64)
    n = feasible.shape[0]
    if v.shape != (n,) or sigma.shape != (n,):
        return [f"solution has shape {v.shape}/{sigma.shape}, expected ({n},)"]
    if not np.all(np.isfinite(v)):
        return ["value has non-finite entries"]
    if np.any(sigma < 0) or np.any(sigma >= feasible.shape[1]):
        return ["policy holds out-of-range actions"]
    q = q_table(reward, feasible, kernel, v, beta, weights)
    tv = q.max(axis=1)
    bound = tol * _scale(v)
    residual = float(np.max(np.abs(tv - v)))
    if residual > bound:
        errors.append(f"Bellman residual {residual:.3e} exceeds {bound:.3e}")
    rows = np.arange(n)
    if not feasible[rows, sigma].all():
        errors.append("policy selects infeasible actions")
    else:
        gap = float(np.max(tv - q[rows, sigma]))
        if gap > bound:
            errors.append(f"policy misses the maximum by {gap:.3e} (bound {bound:.3e})")
    return errors


def check_close(a, b, tol, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return [f"{what}: shapes {a.shape} and {b.shape} differ"]
    gap = float(np.max(np.abs(a - b)))
    bound = tol * _scale(b)
    return [] if gap <= bound else [f"{what}: gap {gap:.3e} exceeds {bound:.3e}"]


def check_transitions(prob, path, min_departures=400, z=5.0, what="path"):
    """Every step has positive probability, and busy rows match their law.

    ``prob(x)`` returns the transition row of state ``x``.  For each state
    left at least ``min_departures`` times, the empirical frequency of
    every successor must lie within a Bernstein bound of its expected
    count ``e = N p``: ``z sqrt(e (1 - p)) + z^2 / 3``.  The second term
    keeps rare successors (``e`` well below one) from failing on a few
    draws.
    """
    path = np.asarray(path, dtype=np.int64)
    if path.size < 2:
        return [f"{what}: fewer than two states"]
    src, dst = path[:-1], path[1:]
    states, counts = np.unique(src, return_counts=True)
    errors = []
    for x, count in zip(states, counts):
        row = np.asarray(prob(int(x)), dtype=float)
        if dst.max() >= row.size or dst.min() < 0:
            return [f"{what}: state index out of range"]
        succ = dst[src == x]
        impossible = succ[row[succ] <= 0]
        if impossible.size:
            t = int(np.flatnonzero((src == x) & (row[dst] <= 0))[0])
            return [f"{what}: impossible transition {x} -> {int(impossible[0])} at step {t}"]
        if count >= min_departures:
            observed = np.bincount(succ, minlength=row.size)
            expected = count * row
            excess = np.abs(observed - expected) - (
                z * np.sqrt(expected * (1 - row)) + z * z / 3
            )
            if np.max(excess) > 0:
                j = int(np.argmax(excess))
                errors.append(
                    f"{what}: from state {x} ({count} departures) {j} came {observed[j]} "
                    f"times, kernel expects {expected[j]:.1f}"
                )
    return errors


def check_holding_times(rates, times, states, min_visits=400, z=5.0, what="jump path"):
    """Mean holding time in each busy state lies near ``1 / rate``."""
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=np.int64)
    holds = np.diff(times)
    if np.any(holds <= 0):
        return [f"{what}: jump times are not increasing"]
    errors = []
    occupied = states[:-1]
    for x in np.unique(occupied):
        h = holds[occupied == x]
        if h.size >= min_visits:
            mean = 1.0 / rates[x]
            # Exponential holding times: standard error of the mean is mean / sqrt(N).
            if abs(h.mean() - mean) > z * mean / np.sqrt(h.size):
                errors.append(
                    f"{what}: mean holding time in state {x} is {h.mean():.4f}, expected {mean:.4f}"
                )
    return errors


def check_stationary(psi, p, tol=1e-10):
    psi = np.asarray(psi, dtype=float)
    errors = []
    if np.any(psi < 0) or abs(psi.sum() - 1.0) > tol:
        errors.append("stationary distribution is not a distribution")
    gap = float(np.max(np.abs(psi @ p - psi)))
    if gap > tol:
        errors.append(f"psi P - psi is {gap:.3e}, above {tol:.1e}")
    return errors


def weighted_logsumexp(p, x):
    """``log(P exp(x))`` row by row, shifted per row for stability."""
    shift = np.max(np.where(p > 0, x[None, :], -np.inf), axis=1)
    return shift + np.log(np.sum(p * np.exp(x[None, :] - shift[:, None]), axis=1))


def entropic_residual(v, r, beta, theta, p):
    """``||r + beta (1/theta) log P exp(theta v) - v||``."""
    image = r + beta * weighted_logsumexp(p, theta * v) / theta
    return float(np.max(np.abs(image - v)))


def epstein_zin_residual(v, h, beta, alpha, gamma, p):
    """Relative residual of ``v = (h + beta (P v^gamma)^(alpha/gamma))^(1/alpha)``."""
    ce = np.exp(weighted_logsumexp(p, gamma * np.log(v)) / gamma)
    image = (h + beta * ce**alpha) ** (1 / alpha)
    return float(np.max(np.abs(image - v) / np.abs(v)))


def check_residual(residual, tol, scale, what):
    bound = tol * max(1.0, scale)
    return [] if residual <= bound else [f"{what}: residual {residual:.3e} exceeds {bound:.3e}"]


def eig_radius(matrix):
    return float(np.max(np.abs(np.linalg.eigvals(matrix))))


def check_radius(reported, true, rtol=1e-8):
    """Reported spectral radius against ``eig_radius`` (numpy.linalg.eigvals)."""
    if not np.isfinite(reported) or abs(reported - true) > rtol * max(1.0, true):
        return [f"reported spectral radius {reported:.12g}, numpy.linalg.eigvals gives {true:.12g}"]
    return []
