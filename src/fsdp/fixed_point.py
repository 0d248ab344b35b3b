"""Generic fixed-point machinery.

Every object in the library is the fixed point of an order-preserving
operator, found by iterating it.  :func:`iterate` is the one loop that
does so; its stop rule is data, ``error(new, old) <= tolerance``.  On it
sit value function iteration (``iterate`` itself), optimistic policy
iteration, two-sided iteration over an order interval (:func:`squeeze`),
traced successive approximation and Newton iteration, which promote
scalars to length-one vectors, and :func:`newton_krylov`.

:func:`certified_solve` solves ``(I - L) x = b`` by BiCGSTAB and
certifies the answer with a bounding pair ``L h <= lam h`` (see
:func:`fsdp.spectral.bounding_pair`); policy evaluation uses it, and
:func:`newton_krylov` solves each Newton step of a contraction with it,
stopping on a certified bound on the distance to the fixed point.
Also Howard policy iteration and convergence-rate diagnostics.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, SingularJacobianError
from .spectral import bicgstab, shifted

# Iterates above this sup-norm abort with a divergence diagnostic.
DIVERGENCE_LIMIT = 1e12

# A ConvergenceError raised at the cap carries this many of the last errors.
STEPS_KEPT = 8

# BiCGSTAB passes per certified solve, each restarted from the last
# iterate with a tighter tolerance, before the solve gives up.
SOLVE_PASSES = 8


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


def error_bound(res, h, lam):
    """``max(h) * max(|res_i| / h_i) / (1 - lam)``, which bounds ``||x - x*||_inf``.

    Here ``res`` is the residual of ``x`` in ``x = L x + b`` (or in a
    fixed point ``x = T x``) and ``(h, lam)`` a bounding pair of ``L``
    (or a contraction modulus of ``T`` in the ``h``-weighted sup norm).
    """
    return float(np.max(h) * np.max(np.abs(res) / h) / (1 - lam))


def certified_solve(apply, b, h, lam, tolerance=None, x0=None):
    """Solve ``(I - L) x = b`` by BiCGSTAB until the certified bound meets its target.

    ``apply`` is ``x -> L x`` and ``(h, lam)`` its bounding pair.  Works
    on ``b`` scaled to unit sup norm, so the stopping rule does not
    depend on its units.  The target is ``tolerance * max(1,
    ||x||_inf)``, with ``tolerance`` at least, and by default, ``max(1e-12,
    64 eps / (1 - lam))``.  BiCGSTAB starts at ``x0``, by default zero.
    Returns ``(x, bound)``, and raises :class:`ConvergenceError`, with the bound
    attached, if :data:`SOLVE_PASSES` passes do not get there.
    """
    scale = float(np.max(np.abs(b), initial=0.0))
    if scale == 0:
        return np.zeros_like(b, dtype=float), 0.0
    system = shifted(apply)
    b = b / scale
    floor = max(1e-12, 64 * np.finfo(float).eps / (1 - lam))
    tolerance = floor if tolerance is None else max(tolerance, floor)
    y = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float) / scale
    rtol = tolerance * (1 - lam)
    for _ in range(SOLVE_PASSES):
        y, _ = bicgstab(system, b, x0=y, rtol=rtol)
        res = b - system(y)
        bound = error_bound(res, h, lam)
        target = tolerance * max(1.0 / scale, np.max(np.abs(y)))
        if bound <= target:
            return scale * y, scale * bound
        if not np.isfinite(bound):
            bound = np.inf
            break
        rtol = np.linalg.norm(res) / np.linalg.norm(b) * min(0.1, 0.5 * target / bound)
    raise ConvergenceError(
        f"certified solve did not reach its bound ({scale * bound:.3e})",
        last=scale * y,
        bound=scale * bound,
    )


def newton_krylov(op, v0, jvp, h, lam, tolerance, max_iter):
    """Newton's method for ``v = op(v)``, each step a :func:`certified_solve`.

    ``op`` contracts with modulus ``lam`` in the sup norm weighted by
    ``h > 0``, and ``jvp(v)`` returns ``d -> J(v) d`` for its Jacobian (a
    generalized one at a kink), which ``(h, lam)`` bounds too.  ``lam``
    may instead be a function ``lam(v, b)``: a modulus
    of ``op`` on the box ``|u - v| <= b h``, with ``lam(v, 0)`` bounding
    ``J(v)``; it is read at each iterate.  A step solves ``(I - J(v)) d =
    op(v) - v`` and is kept only if it lowers ``||op(v) - v||_inf``;
    otherwise the step is ``v <- op(v)``.  The first step is solved to
    :func:`certified_solve`'s default target; each later one only to the
    last ratio of residuals ``||op(v) - v||_inf``, at most 1e-2 (the
    forcing terms of Eisenstat and Walker), since the next step corrects it.

    With ``r = max(|op(v) - v| / h)``, ``b = 2 r / (1 - lam(v, 0))`` and
    ``lam_b = lam(v, b)``, ``r / (1 - lam_b) <= b`` means ``op`` maps the
    box ``v +- b h`` into itself, so its fixed point lies there, within
    ``max(h) r / (1 - lam_b)`` of ``v``; for a constant ``lam`` that is
    :func:`error_bound`.  Stops when this certified bound is at most
    ``tolerance``, or ``max(h) r`` is at most the rounding floor ``64 eps
    max(1, ||v||_inf)`` and no lower than at the last iterate, and
    returns ``(v, k, bound)``.  After
    ``max_iter`` steps raises :class:`ConvergenceError` with the last
    iterate as ``last`` and its last ``STEPS_KEPT`` weighted residuals
    ``max(h) r`` as ``steps``, with ``measure`` set to ``"residuals"``.
    """
    eps = np.finfo(float).eps
    modulus = lam if callable(lam) else lambda v, b: lam
    previous = [None]

    def step(state):
        v, tv = state
        r, r_prev = sup_step(tv, v), previous[0]
        previous[0] = r
        forcing = None if r_prev is None else min(1e-2, r / r_prev)
        try:
            d = certified_solve(jvp(v), tv - v, h, modulus(v, 0.0), forcing)[0]
        except ConvergenceError as exc:
            d = exc.last  # an inexact step; the residual test decides
        w = v + d
        tw = op(w)
        if sup_step(tw, w) < sup_step(tv, v):
            return w, tw
        return tv, image(tv)

    def image(v):
        tv = op(v)
        if not np.all(np.isfinite(tv)):
            raise ConvergenceError("iteration diverged", last=v)
        return tv

    def certified(v, tv):
        r, lam_v = float(np.max(np.abs(tv - v) / h)), modulus(v, 0.0)
        if not lam_v < 1:
            return np.inf
        b = 2 * r / (1 - lam_v)
        lam_b = modulus(v, b)
        if not (lam_b < 1 and r <= b * (1 - lam_b)):
            return np.inf
        return float(np.max(h)) * r / (1 - lam_b)

    def weighted(state, old):
        v, tv = state
        residual = error_bound(tv - v, h, 0.0)
        floor = 64 * eps * max(1.0, float(np.max(np.abs(v))))
        # At the rounding floor, stop once a step no longer lowers the residual.
        stalled = residual <= floor and residual >= error_bound(old[1] - old[0], h, 0.0)
        done = stalled or residual <= tolerance and certified(v, tv) <= tolerance
        return 0.0 if done else residual

    v0 = np.asarray(v0, dtype=float)
    try:
        (v, tv), k, _ = iterate(step, (v0, image(v0)), 0.0, max_iter, error=weighted)
    except ConvergenceError as exc:
        if isinstance(exc.last, tuple):
            exc.last = exc.last[0]
            exc.measure = "residuals"
        raise
    return v, k, certified(v, tv)


def policy_iteration(greedy, evaluate, sigma, max_iter, refine=None):
    """Howard policy iteration from ``sigma``: evaluation, greedy improvement.

    ``evaluate(sigma)`` returns the lifetime value of a policy and
    ``greedy(v)`` a policy greedy at ``v``.  Stops when the greedy policy
    repeats, or when a new policy's value moves by at most 1e-12 (a tie
    between equally good policies), so each distinct policy is evaluated
    once.  Without ``refine`` each evaluation is exact.  With it, an
    evaluation may stop short, and ``refine(sigma, v)`` takes ``v``, the
    last one, of ``sigma``, to full accuracy: the loop refines before it
    accepts a repeat or a tie, and a repeat stands only if the greedy
    policy at the refined value is still ``sigma``.  Returns ``(v, k)``;
    the iteration cap is defensive only.
    """
    v = evaluate(sigma)
    for k in range(1, max_iter + 1):
        sigma_new = greedy(v)
        if refine is not None and np.array_equal(sigma_new, sigma):
            v = refine(sigma, v)
            sigma_new = greedy(v)
        if np.array_equal(sigma_new, sigma):
            return v, k
        v_new = evaluate(sigma_new)
        if np.max(np.abs(v_new - v)) <= 1e-12:
            return (v_new if refine is None else refine(sigma_new, v_new)), k
        sigma, v = sigma_new, v_new
    raise ConvergenceError("policy iteration cycled past the defensive cap", last=v)


def optimistic_policy_iteration(
    greedy, policy_operator, v, m, tolerance, max_iter, history=None, error=sup_step
):
    """Optimistic policy iteration: ``v <- T_sigma^m v`` with ``sigma`` greedy at ``v``.

    ``policy_operator(sigma)`` returns the map ``v -> T_sigma v``, a pure
    function of ``sigma``: it is built again only when the greedy policy
    changes.  Each sweep is one step of :func:`iterate` under the stop
    rule ``error``; returns ``(v, k)``.  ``m = 1`` reproduces value
    function iteration.
    """
    last, apply = None, None

    def sweep(v):
        nonlocal last, apply
        sigma = greedy(v)
        if not np.array_equal(sigma, last):
            last, apply = sigma, policy_operator(sigma)
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


def forward_difference(op, v, tv):
    """Forward-difference Jacobian-vector product of ``op`` at ``v``, given ``tv = op(v)``.

    Returns ``d -> (op(v + e d) - tv) / e``, where ``e ||d||_inf =
    sqrt(eps) max(1, ||v||_inf)`` balances truncation against rounding.
    """
    size = np.sqrt(np.finfo(float).eps) * max(1.0, float(np.max(np.abs(v))))

    def jvp(d):
        norm = float(np.max(np.abs(d)))
        if norm == 0:
            return np.zeros_like(d)
        return (op(v + (size / norm) * d) - tv) * (norm / size)

    return jvp


def newton_fixed_point(op, u0, cfg=None, jacobian=None):
    """Newton iteration for the fixed point of ``op``.

    Each step solves ``(I - J(u)) d = op(u) - u`` by BiCGSTAB and moves to
    ``u + d``.  ``J(u) d`` is the product with ``jacobian(u)``, when
    given, or a forward difference of ``op`` (:func:`forward_difference`).
    Scalar problems may pass scalar callables.  A solve that breaks down
    or stops short, or one with the user's Jacobian that leaves a residual
    above 1e-8 on its unit right-hand side, raises
    :class:`SingularJacobianError`.  Returns the
    :class:`IterationTrace` of :func:`successive_approx`.
    """
    cfg = cfg or IterationConfig()
    scalar = np.ndim(u0) == 0
    vec_op = _vectorized(op, scalar)

    def step(u, k):
        tu = vec_op(u)
        if jacobian is None:
            jvp = forward_difference(vec_op, u, tu)
        else:
            jvp = np.atleast_2d(np.asarray(jacobian(u[0] if scalar else u), dtype=float)).__matmul__
        # A unit right-hand side keeps BiCGSTAB's breakdown tests off a
        # residual that is merely small.
        scale = float(np.max(np.abs(tu - u)))
        if not 0 < scale < np.inf:
            return tu
        system, rhs = shifted(jvp), (tu - u) / scale
        d, info = bicgstab(system, rhs, rtol=1e-12)
        # BiCGSTAB's recurrence can report success after drifting from the
        # true residual; a user Jacobian is exact, so its residual is checked.
        drifted = jacobian is not None and not np.max(np.abs(rhs - system(d))) <= 1e-8
        if info != 0 or drifted or not np.all(np.isfinite(d)):
            raise SingularJacobianError(f"I - J is singular or ill-conditioned at iteration {k}")
        return u + scale * d

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
