"""Generic fixed-point machinery.

Successive approximation with optional damping, Newton fixed-point
iteration, and convergence-rate diagnostics.  Maps act on 1-d numpy
arrays (scalars are promoted to length-one vectors).

Also the value function iteration, Howard policy iteration and
optimistic policy iteration loops shared by the MDP, RDP and
continuous-time solvers.  They take the model's operators as callables,
so one loop serves every family of monotone policy operators.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, SingularJacobianError

# Iterates above this sup-norm abort with a divergence diagnostic.
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class IterationConfig:
    """Tolerance and iteration controls for fixed-point loops.

    ``tolerance`` is measured in the sup norm between successive
    iterates; ``damping`` is the relaxation weight on the operator
    image (1.0 recovers plain successive approximation).
    """

    tolerance: float = 1e-6
    max_iter: int = 10_000
    damping: float = 1.0

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must lie in (0, 1]")


@dataclass
class IterationTrace:
    """Record of a fixed-point run: iterates, sup-norm steps, outcome."""

    iterates: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0

    @property
    def final(self):
        return self.iterates[-1]


def _as_vector(u):
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    return np.atleast_1d(u), scalar


def successive_approx(op, u0, cfg=None):
    """Iterate ``u <- (1 - damping) * u + damping * op(u)`` to a fixed point.

    Stops when the sup-norm step falls to ``cfg.tolerance`` or the
    iteration cap is hit; the returned :class:`IterationTrace` records
    iterates, step sizes, and whether the run converged.  Non-finite or
    exploding iterates raise :class:`ConvergenceError` with the last
    finite iterate attached.
    """
    cfg = cfg or IterationConfig()
    u, scalar = _as_vector(u0)
    trace = IterationTrace(iterates=[u0 if scalar else u.copy()])
    alpha = cfg.damping
    for k in range(1, cfg.max_iter + 1):
        image = np.atleast_1d(np.asarray(op(u if not scalar else u[0]), dtype=float))
        u_new = (1 - alpha) * u + alpha * image
        if not np.all(np.isfinite(u_new)) or np.linalg.norm(u_new, np.inf) > DIVERGENCE_LIMIT:
            raise ConvergenceError(
                f"divergence detected at iteration {k}",
                last=u[0] if scalar else u,
            )
        step = float(np.linalg.norm(u_new - u, np.inf))
        trace.errors.append(step)
        trace.iterates.append(float(u_new[0]) if scalar else u_new.copy())
        trace.iterations = k
        u = u_new
        if step <= cfg.tolerance:
            trace.converged = True
            break
    return trace


def value_iteration(bellman, v, tolerance, max_iter, history=None):
    """Iterate ``v <- bellman(v)`` until the sup-norm step is at most ``tolerance``.

    Returns ``(v, k, last_step)`` with ``k`` the number of sweeps.  Each
    iterate is appended to ``history`` when a list is given.  Raises
    :class:`ConvergenceError` carrying the last iterate at ``max_iter``.
    """
    for k in range(1, max_iter + 1):
        v_new = bellman(v)
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if history is not None:
            history.append(v.copy())
        if step <= tolerance:
            return v, k, step
    raise ConvergenceError("value function iteration hit the iteration cap", last=v)


def policy_iteration(greedy, evaluate, sigma, max_iter):
    """Howard policy iteration from ``sigma``: exact evaluation, greedy improvement.

    ``evaluate(sigma)`` returns the lifetime value of a policy and
    ``greedy(v)`` a policy greedy at ``v``.  Stops when the greedy policy
    repeats, or when a new policy's value moves by at most 1e-12 (a tie
    between equally good policies), so each distinct policy is evaluated
    once.  Returns ``(v, k)``; the iteration cap is defensive only.
    """
    v = evaluate(sigma)
    for k in range(1, max_iter + 1):
        sigma_new = greedy(v)
        if np.array_equal(sigma_new, sigma):
            return v, k
        v_new = evaluate(sigma_new)
        if np.max(np.abs(v_new - v)) <= 1e-12:
            return v_new, k
        sigma, v = sigma_new, v_new
    raise ConvergenceError("policy iteration cycled past the defensive cap", last=v)


def optimistic_policy_iteration(greedy, policy_operator, v, m, tolerance, max_iter, history=None):
    """Optimistic policy iteration: ``v <- T_sigma^m v`` with ``sigma`` greedy at ``v``.

    ``policy_operator(sigma)`` returns the map ``v -> T_sigma v``.  Stops
    when the sup-norm step of an outer iteration is at most ``tolerance``
    and returns ``(v, k)``; ``m = 1`` reproduces value function iteration.
    Each iterate is appended to ``history`` when a list is given.
    """
    for k in range(1, max_iter + 1):
        apply = policy_operator(greedy(v))
        v_new = v
        for _ in range(m):
            v_new = apply(v_new)
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if history is not None:
            history.append(v.copy())
        if step <= tolerance:
            return v, k
    raise ConvergenceError("optimistic policy iteration hit the iteration cap", last=v)


def finite_difference_jacobian(op, u):
    """Central-difference Jacobian of ``op`` at ``u``.

    Step per coordinate is ``1e-7 * (1 + |u_i|)``.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = u.size
    jac = np.empty((n, n))
    for i in range(n):
        h = 1e-7 * (1.0 + abs(u[i]))
        up, down = u.copy(), u.copy()
        up[i] += h
        down[i] -= h
        jac[:, i] = (np.atleast_1d(op(up)) - np.atleast_1d(op(down))) / (2 * h)
    return jac


def newton_fixed_point(op, u0, cfg=None, jacobian=None):
    """Newton iteration for the fixed point of ``op``.

    Updates via ``u' = inv(I - J(u)) @ (op(u) - J(u) @ u)`` where ``J``
    is the Jacobian of ``op``, supplied as a callback or computed by
    central differences.  Scalar problems may pass scalar callables.
    """
    cfg = cfg or IterationConfig()
    u, scalar = _as_vector(u0)

    def vec_op(v):
        return np.atleast_1d(np.asarray(op(v[0] if scalar else v), dtype=float))

    if jacobian is None:
        jac_fn = lambda v: finite_difference_jacobian(vec_op, v)
    else:
        jac_fn = lambda v: np.atleast_2d(np.asarray(jacobian(v[0] if scalar else v), dtype=float))

    trace = IterationTrace(iterates=[u0 if scalar else u.copy()])
    eye = np.eye(u.size)
    for k in range(1, cfg.max_iter + 1):
        jac = jac_fn(u)
        try:
            u_new = np.linalg.solve(eye - jac, vec_op(u) - jac @ u)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"I - J is singular at iteration {k}") from exc
        if not np.all(np.isfinite(u_new)) or np.linalg.norm(u_new, np.inf) > DIVERGENCE_LIMIT:
            raise ConvergenceError(
                f"divergence detected at iteration {k}",
                last=u[0] if scalar else u,
            )
        step = float(np.linalg.norm(u_new - u, np.inf))
        trace.errors.append(step)
        trace.iterates.append(float(u_new[0]) if scalar else u_new.copy())
        trace.iterations = k
        u = u_new
        if step <= cfg.tolerance:
            trace.converged = True
            break
    return trace


def convergence_order(errors):
    """Fit the order of convergence of a positive decreasing error tail.

    Least-squares fit of ``log e_{k+1} = q * log e_k + log beta`` over
    the usable tail; returns ``(q, beta)``.  Requires at least four
    strictly positive, strictly decreasing entries.
    """
    errors = np.asarray(errors, dtype=float)
    mask = errors > 0
    errors = errors[mask]
    # Trim to the longest strictly decreasing tail.
    start = 0
    for i in range(1, errors.size):
        if errors[i] >= errors[i - 1]:
            start = i
    tail = errors[start:]
    if tail.size < 4:
        raise ValueError("need at least 4 strictly positive, decreasing tail entries")
    x = np.log(tail[:-1])
    y = np.log(tail[1:])
    q, log_beta = np.polyfit(x, y, 1)
    return float(q), float(np.exp(log_beta))
