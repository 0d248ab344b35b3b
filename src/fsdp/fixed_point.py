"""Generic fixed-point machinery.

Every object in the library is the fixed point of an order-preserving
operator, found by iterating it.  :func:`iterate` is the one loop that
does so; its stop rule is data, ``error(new, old) <= tolerance``.  On it
sit value function iteration (``iterate`` itself), optimistic policy
iteration, two-sided iteration over an order interval (:func:`squeeze`),
and traced successive approximation and Newton iteration, which promote
scalars to length-one vectors.  Also Howard policy iteration and
convergence-rate diagnostics.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, SingularJacobianError

# Iterates above this sup-norm abort with a divergence diagnostic.
DIVERGENCE_LIMIT = 1e12

# A ConvergenceError raised at the cap carries this many of the last errors.
STEPS_KEPT = 8


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


def sup_step(new, old):
    """Sup-norm step ``max |new - old|``, the default stop rule."""
    return float(np.max(np.abs(new - old)))


def relative_step(new, old):
    """Relative step ``max(|new - old| / |old|)``."""
    return float(np.max(np.abs(new - old) / np.abs(old)))


def within(step, threshold):
    """Zero exactly when ``step <= threshold``: a moving threshold, run at tolerance 0."""
    return 0.0 if step <= threshold else step or np.inf


def _diverged(u):
    return not np.all(np.isfinite(u)) or np.max(np.abs(u)) > DIVERGENCE_LIMIT


def bounded_step(new, old):
    """:func:`sup_step`; a non-finite ``new`` or one above ``DIVERGENCE_LIMIT`` raises."""
    if _diverged(new):
        raise ConvergenceError("iteration diverged", last=old)
    return sup_step(new, old)


def iterate(op, x, tolerance, max_iter, history=None, error=sup_step):
    """Apply ``x <- op(x)`` until ``error(new, old) <= tolerance``; return ``(x, k, err)``.

    Each iterate is appended to ``history`` when a list is given.  After
    ``max_iter`` steps raises :class:`ConvergenceError` with the last
    iterate and, as ``steps``, the last ``STEPS_KEPT`` errors, oldest first.
    """
    steps = deque(maxlen=STEPS_KEPT)
    for k in range(1, max_iter + 1):
        new = op(x)
        err = error(new, x)
        x = new
        if history is not None:
            history.append(x.copy())
        if err <= tolerance:
            return x, k, err
        steps.append(err)
    raise ConvergenceError(f"iteration hit its cap of {max_iter}", last=x, steps=list(steps))


# Value function iteration: ``v <- bellman(v)`` to a sup-norm step of ``tolerance``.
value_iteration = iterate


def squeeze(op, lo, hi, tolerance, max_iter, gap, last=lambda lo, hi: hi):
    """Iterate ``op`` from both ends of an invariant order interval.

    Stops when ``gap(lo, hi) <= tolerance`` and returns ``(lo, hi, k)``;
    at the cap the :class:`ConvergenceError` carries ``last(lo, hi)``.
    """
    try:
        (lo, hi), k, _ = iterate(
            lambda pair: tuple(map(op, pair)), (lo, hi), tolerance, max_iter,
            error=lambda new, old: gap(*new),
        )
    except ConvergenceError as exc:
        if isinstance(exc.last, tuple):
            exc.last = last(*exc.last)
        raise
    return lo, hi, k


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


def optimistic_policy_iteration(
    greedy, policy_operator, v, m, tolerance, max_iter, history=None, error=sup_step
):
    """Optimistic policy iteration: ``v <- T_sigma^m v`` with ``sigma`` greedy at ``v``.

    ``policy_operator(sigma)`` returns the map ``v -> T_sigma v``.  Each
    sweep is one step of :func:`iterate` under the stop rule ``error``;
    returns ``(v, k)``.  ``m = 1`` reproduces value function iteration.
    """

    def sweep(v):
        apply = policy_operator(greedy(v))
        for _ in range(m):
            v = apply(v)
        return v

    v, k, _ = iterate(sweep, v, tolerance, max_iter, history, error)
    return v, k


def _vectorized(op, scalar):
    """``op`` as a map of 1-d float vectors; a scalar problem's map gets the one entry."""
    return lambda u: np.atleast_1d(np.asarray(op(u[0] if scalar else u), dtype=float))


def _traced(step, u0, cfg):
    """Run ``u <- step(u, k)`` through :func:`iterate`, recording an :class:`IterationTrace`.

    A scalar ``u0`` runs as a length-one vector.  A diverging iterate
    raises with the last finite one; the cap ends the trace unconverged.
    """
    u, scalar = np.atleast_1d(np.asarray(u0, dtype=float)), np.ndim(u0) == 0
    trace = IterationTrace(iterates=[u0 if scalar else u.copy()])

    def record(new, old):
        if _diverged(new):
            k, last = len(trace.errors) + 1, old[0] if scalar else old
            raise ConvergenceError(f"divergence detected at iteration {k}", last=last)
        trace.errors.append(sup_step(new, old))
        trace.iterates.append(float(new[0]) if scalar else new.copy())
        return trace.errors[-1]

    next_step = lambda u: step(u, len(trace.errors) + 1)
    try:
        iterate(next_step, u, cfg.tolerance, cfg.max_iter, error=record)
        trace.converged = True
    except ConvergenceError:
        if len(trace.errors) < cfg.max_iter:
            raise
    trace.iterations = len(trace.errors)
    return trace


def successive_approx(op, u0, cfg=None):
    """Iterate ``u <- (1 - damping) * u + damping * op(u)`` to a fixed point.

    Stops when the sup-norm step falls to ``cfg.tolerance`` or the
    iteration cap is hit; the returned :class:`IterationTrace` records
    iterates, step sizes, and whether the run converged.  Non-finite or
    exploding iterates raise :class:`ConvergenceError` with the last
    finite iterate attached.
    """
    cfg = cfg or IterationConfig()
    vec_op = _vectorized(op, np.ndim(u0) == 0)
    alpha = cfg.damping
    return _traced(lambda u, k: (1 - alpha) * u + alpha * vec_op(u), u0, cfg)


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
    Returns the :class:`IterationTrace` of :func:`successive_approx`.
    """
    cfg = cfg or IterationConfig()
    scalar = np.ndim(u0) == 0
    vec_op = _vectorized(op, scalar)
    if jacobian is None:
        jac_fn = lambda v: finite_difference_jacobian(vec_op, v)
    else:
        jac_fn = lambda v: np.atleast_2d(np.asarray(jacobian(v[0] if scalar else v), dtype=float))

    def step(u, k):
        jac = jac_fn(u)
        try:
            return np.linalg.solve(np.eye(u.size) - jac, vec_op(u) - jac @ u)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"I - J is singular at iteration {k}") from exc

    return _traced(step, u0, cfg)


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
