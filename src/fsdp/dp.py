"""Markov decision processes with constant or state-dependent discounting.

The model stores the transition kernel in flat ``(n_states * n_actions,
n_states)`` form, one row per state-action pair, either dense or
scipy-sparse (row-compressed slices keep large structured models cheap).
Solvers: value function iteration, Howard policy iteration, optimistic
policy iteration (their loops live in :mod:`fsdp.fixed_point`), plus the
expected-value / Q-factor operator factorization, a refactored OPI in
expected-value space, and the log-sum-exp closed form for Gumbel taste
shocks.

Policy evaluation is a sparse LU solve of ``I - L_sigma`` built from the
policy's rows of the discounted kernel, whether the kernel is dense or
sparse.  Under state-dependent discounting every solver checks the
stability certificate once, before it iterates; the model records a
successful check, and evaluation then skips the per-policy radius check.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.special import logsumexp

from . import fixed_point, spectral
from .errors import ConvergenceError, StabilityError

ROW_SUM_TOL = 1e-10

# Exhaustive per-policy stability checks are combinatorial; above this
# many policies a uniform dominating operator must be supplied.
POLICY_ENUMERATION_LIMIT = 10_000


def _flatten_kernel(kernel, n, m):
    if sp.issparse(kernel):
        if kernel.shape != (n * m, n):
            raise ValueError("sparse kernel must have shape (n_states * n_actions, n_states)")
        return kernel.tocsr()
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim == 3:
        if kernel.shape != (n, m, n):
            raise ValueError("kernel must have shape (n_states, n_actions, n_states)")
        return kernel.reshape(n * m, n)
    if kernel.shape == (n * m, n):
        return kernel
    raise ValueError("kernel must be (n, m, n) or flat (n * m, n)")


@dataclass
class MDPModel:
    """Finite MDP: feasibility mask, rewards, kernel, and discounting.

    ``feasible`` is an ``(n, m)`` boolean mask with at least one action
    per state; ``reward`` is ``(n, m)`` and must be finite on feasible
    pairs; ``kernel`` holds the transition distribution of each
    state-action pair.  Discounting is either a constant ``beta`` in
    (0, 1) or transition-dependent ``discount_weights`` aligned with the
    kernel (state-dependent case).  A successful
    :func:`certify_stability` is recorded on the model and covers every
    policy.
    """

    feasible: np.ndarray
    reward: np.ndarray
    kernel: object
    beta: float | None = None
    discount_weights: object = None

    def __post_init__(self):
        self.feasible = np.asarray(self.feasible, dtype=bool)
        if self.feasible.ndim != 2:
            raise ValueError("feasible mask must be 2-d (states by actions)")
        if not self.feasible.any(axis=1).all():
            raise ValueError("every state needs at least one feasible action")
        n, m = self.feasible.shape
        self.reward = np.asarray(self.reward, dtype=float)
        if self.reward.shape != (n, m):
            raise ValueError("reward must be shaped like the feasibility mask")
        if not np.all(np.isfinite(self.reward[self.feasible])):
            raise ValueError("rewards must be finite on feasible pairs")
        self.kernel = _flatten_kernel(self.kernel, n, m)
        flat_mask = self.feasible.reshape(-1)
        sums = np.asarray(self.kernel.sum(axis=1)).reshape(-1)
        bad = np.abs(sums[flat_mask] - 1.0) > ROW_SUM_TOL
        if bad.any():
            raise ValueError(
                f"{int(bad.sum())} feasible kernel rows do not sum to 1 (tol {ROW_SUM_TOL})"
            )
        if self.discount_weights is None:
            if self.beta is None or not 0 < self.beta < 1:
                raise ValueError("constant discount beta must lie in (0, 1)")
        else:
            if self.beta is not None:
                raise ValueError("give either beta or discount_weights, not both")
            if sp.issparse(self.discount_weights):
                self.discount_weights = self.discount_weights.tocsr()
                if self.discount_weights.shape != self.kernel.shape:
                    raise ValueError("discount weights must align with the kernel")
                if np.any(self.discount_weights.data < 0):
                    raise ValueError("discount weights must be nonnegative")
            else:
                self.discount_weights = np.asarray(self.discount_weights, dtype=float)
                if self.discount_weights.ndim == 3:
                    self.discount_weights = self.discount_weights.reshape(n * m, n)
                if self.discount_weights.shape != self.kernel.shape:
                    raise ValueError("discount weights must align with the kernel")
                if np.any(self.discount_weights < 0):
                    raise ValueError("discount weights must be nonnegative")
        self._discounted = None
        self._certified = False

    @property
    def n_states(self):
        return self.feasible.shape[0]

    @property
    def n_actions(self):
        return self.feasible.shape[1]

    @property
    def state_dependent(self):
        return self.discount_weights is not None

    def discounted_kernel(self):
        """Flat ``(n*m, n)`` matrix of discounted transition weights."""
        if self._discounted is None:
            if self.state_dependent:
                if sp.issparse(self.kernel) or sp.issparse(self.discount_weights):
                    self._discounted = sp.csr_matrix(self.kernel).multiply(
                        self.discount_weights
                    ).tocsr()
                else:
                    self._discounted = self.discount_weights * self.kernel
            else:
                self._discounted = self.beta * self.kernel
        return self._discounted

    def policy_count(self):
        """log10 of the number of feasible policies."""
        return float(np.sum(np.log10(self.feasible.sum(axis=1))))


def policy_indices(model, sigma):
    sigma = np.asarray(sigma, dtype=np.int64)
    n, m = model.feasible.shape
    if sigma.shape != (n,):
        raise ValueError("policy must assign one action per state")
    if not model.feasible[np.arange(n), sigma].all():
        raise ValueError("policy selects infeasible actions")
    return np.arange(n) * m + sigma


def policy_matrix(model, sigma, discounted=False):
    """Transition (or discounted transition) matrix under a policy."""
    rows = policy_indices(model, sigma)
    source = model.discounted_kernel() if discounted else model.kernel
    out = source[rows]
    return np.asarray(out.todense()) if sp.issparse(out) else np.array(out)


def policy_reward(model, sigma):
    sigma = np.asarray(sigma, dtype=np.int64)
    return model.reward[np.arange(model.n_states), sigma]


def expected_values(model, v, discounted=True):
    """Per state-action pair expectation of ``v``, shaped ``(n, m)``.

    With ``discounted=True`` the expectation embeds the discount factor,
    which is the form used by the Bellman operator.
    """
    source = model.discounted_kernel() if discounted else model.kernel
    ev = source @ np.asarray(v, dtype=float)
    return np.asarray(ev).reshape(model.feasible.shape)


def q_factors(model, v):
    """Action values ``r(x, a) + E[discounted v]`` on feasible pairs."""
    return model.reward + expected_values(model, v)


def _masked(model, q, mode):
    fill = -np.inf if mode == "max" else np.inf
    return np.where(model.feasible, q, fill)


def bellman(model, v, mode="max"):
    """One Bellman sweep: per-state max (or min) of the action values."""
    q = _masked(model, q_factors(model, v), mode)
    return q.max(axis=1) if mode == "max" else q.min(axis=1)


def greedy(model, v, mode="max"):
    """Greedy policy at ``v``; exact ties go to the lowest action index."""
    q = _masked(model, q_factors(model, v), mode)
    return q.argmax(axis=1) if mode == "max" else q.argmin(axis=1)


def greedy_min(model, v):
    return greedy(model, v, mode="min")


def _policy_operator(model, sigma):
    """Discounted kernel rows ``L_sigma`` and rewards ``r_sigma`` of a policy."""
    rows = policy_indices(model, sigma)
    return model.discounted_kernel()[rows], model.reward.reshape(-1)[rows]


def policy_apply(model, sigma, v):
    """One application of the policy operator ``r_sigma + L_sigma v``."""
    l_sigma, r_sigma = _policy_operator(model, sigma)
    return r_sigma + l_sigma @ np.asarray(v, dtype=float)


def policy_value(model, sigma):
    """Exact lifetime value of a policy via the linear system.

    Solves ``(I - L_sigma) v = r_sigma`` by sparse LU (SuperLU with
    COLAMD ordering) on a CSC matrix, for dense and sparse kernels alike.
    A state-dependent model that :func:`certify_stability` has not
    certified gets the per-policy radius check ``rho(L_sigma) < 1``
    first, and a violation raises with the offending policy attached.
    """
    if model.state_dependent and not model._certified:
        spectral.check_radius_below_one(
            policy_matrix(model, sigma, discounted=True), "policy discount operator", policy=sigma
        )
    l_sigma, r_sigma = _policy_operator(model, sigma)
    system = sp.identity(model.n_states, format="csc") - sp.csc_matrix(l_sigma)
    return spsolve(system, r_sigma)


def certify_stability(model, dominating=None):
    """Check the stability certificate before iterating on an SDD model.

    Constant-discount models are always certified.  For state-dependent
    discounting, a user-supplied uniform dominating matrix ``L`` (with
    entrywise ``beta * P <= L`` and ``rho(L) < 1``) certifies every
    policy at once; without one, per-policy radii are enumerated when
    the policy space is small enough.  Passing the string ``"certified"``
    records that the caller has verified stability through model
    structure (for example, discounting driven by an action-independent
    exogenous block whose discount operator has radius below one).
    Success is recorded on the model, so later policy evaluations skip
    their per-policy radius check.
    """
    if not model.state_dependent:
        return
    if isinstance(dominating, str):
        if dominating != "certified":
            raise ValueError(f"unknown certificate {dominating!r}")
    elif dominating is not None:
        dominating = np.asarray(dominating, dtype=float)
        discounted = model.discounted_kernel()
        if sp.issparse(discounted):
            # Row x*m + a of the flat kernel must be dominated by row x of L.
            rows = np.repeat(np.arange(model.n_states), model.n_actions)
            coo = discounted.tocoo()
            if np.any(coo.data > dominating[rows[coo.row], coo.col] + 1e-12):
                raise StabilityError("dominating matrix does not bound the discounted kernel")
        else:
            rows = np.repeat(np.arange(model.n_states), model.n_actions)
            if np.any(discounted > dominating[rows] + 1e-12):
                raise StabilityError("dominating matrix does not bound the discounted kernel")
        spectral.check_radius_below_one(dominating, "dominating matrix")
    else:
        _check_every_policy(model, lambda sigma: policy_matrix(model, sigma, discounted=True))
    model._certified = True


def _check_every_policy(model, discount_operator):
    """Check ``rho < 1`` for the discount operator of every feasible policy.

    ``discount_operator`` maps a policy to its matrix.  A violation raises
    :class:`SpectralRadiusError` with the policy attached.  Above
    ``POLICY_ENUMERATION_LIMIT`` policies the enumeration is refused.
    """
    if model.policy_count() > math.log10(POLICY_ENUMERATION_LIMIT):
        raise StabilityError(
            "the policy space is too large for exhaustive per-policy radius checks: "
            "a dominating matrix is needed"
        )
    for sigma in enumerate_policies(model):
        spectral.check_radius_below_one(
            discount_operator(sigma), "policy discount operator", policy=sigma
        )


def enumerate_policies(model):
    """Yield every feasible policy (small models only), last state fastest."""
    for sigma in itertools.product(*(np.flatnonzero(row) for row in model.feasible)):
        yield np.array(sigma, dtype=np.int64)


@dataclass
class SolveResult:
    """Solver output: value function, greedy policy, and diagnostics."""

    value: np.ndarray
    policy: np.ndarray
    iterations: int
    method: str
    residual: float
    error_bound: float | None = None
    history: list = field(default_factory=list)


def _finish(v, sigma, tv, iterations, method, error_bound=None, history=None):
    """Solve result at ``v``, with greedy policy ``sigma`` and Bellman image ``tv``."""
    return SolveResult(
        value=v,
        policy=sigma,
        iterations=iterations,
        method=method,
        residual=float(np.max(np.abs(tv - v))),
        error_bound=error_bound,
        history=history or [],
    )


def _start_policy(model, sigma0, mode):
    """``sigma0`` as an index array, or the myopic (best-reward) policy if None."""
    if sigma0 is None:
        fill = _masked(model, model.reward, mode)
        return fill.argmax(axis=1) if mode == "max" else fill.argmin(axis=1)
    return np.asarray(sigma0, dtype=np.int64)


def solve_vfi(
    model,
    v0=None,
    tolerance=1e-8,
    max_iter=100_000,
    mode="max",
    dominating=None,
    record_history=False,
):
    """Value function iteration.

    Iterates the Bellman operator until the sup-norm step falls below
    ``tolerance`` and returns the greedy policy of the final iterate.
    For constant discounting the result carries the a-posteriori policy
    bound ``2 beta / (1 - beta) * last_step`` on ``||v* - v_sigma||``.
    """
    certify_stability(model, dominating)
    v = np.zeros(model.n_states) if v0 is None else np.asarray(v0, dtype=float).copy()
    history = [v.copy()] if record_history else None
    v, k, step = fixed_point.value_iteration(
        lambda v: bellman(model, v, mode), v, tolerance, max_iter, history
    )
    bound = None if model.state_dependent else 2 * model.beta / (1 - model.beta) * step
    return _finish(v, greedy(model, v, mode), bellman(model, v, mode), k, "vfi", bound, history)


def solve_hpi(model, sigma0=None, mode="max", max_iter=10_000, dominating=None):
    """Howard policy iteration: exact policy evaluation plus improvement.

    Each distinct policy is evaluated once, by a sparse LU solve of
    ``I - L_sigma`` (see :func:`policy_value`); the stability certificate
    is checked once, before the first evaluation.  Terminates when the
    policy repeats, which happens in finitely many steps; the returned
    policy is exactly optimal.  The iteration cap is defensive only.
    """
    certify_stability(model, dominating)
    v, k = fixed_point.policy_iteration(
        lambda v: greedy(model, v, mode),
        lambda sigma: policy_value(model, sigma),
        _start_policy(model, sigma0, mode),
        max_iter,
    )
    return _finish(v, greedy(model, v, mode), bellman(model, v, mode), k, "hpi")


def solve_opi(
    model,
    sigma0=None,
    m=50,
    tolerance=1e-8,
    max_iter=100_000,
    mode="max",
    dominating=None,
    record_history=False,
):
    """Optimistic policy iteration with ``m`` partial evaluation steps.

    Starts from the exact value of ``sigma0`` and alternates a greedy
    improvement with ``m`` applications of the policy operator; ``m = 1``
    reproduces the VFI value sequence.
    """
    certify_stability(model, dominating)
    v = policy_value(model, _start_policy(model, sigma0, mode))
    history = [v.copy()] if record_history else None

    def policy_operator(sigma):
        l_sigma, r_sigma = _policy_operator(model, sigma)
        return lambda v: r_sigma + l_sigma @ v

    v, k = fixed_point.optimistic_policy_iteration(
        lambda v: greedy(model, v, mode), policy_operator, v, m, tolerance, max_iter, history
    )
    return _finish(
        v, greedy(model, v, mode), bellman(model, v, mode), k, f"opi(m={m})", history=history
    )


# ---------------------------------------------------------------------------
# Operator factorizations over state-action space


class FactorizedOperators:
    """Expected-value / Q-factor factorization of the Bellman operator.

    Exposes the three primitive maps (conditional expectation ``E``,
    discount-and-add-rewards ``D``, feasible maximization ``M``) plus
    the three round trips built from them: the expected-value operator
    ``R = E o M o D``, the Q-factor operator ``S = D o E o M``, and the
    Bellman operator ``T = M o D o E``, with policy variants replacing
    ``M`` by evaluation at a fixed policy.  Constant discounting only.
    """

    def __init__(self, model):
        if model.state_dependent:
            raise ValueError("factorized operators require a constant discount factor")
        self.model = model

    def E(self, v):
        return expected_values(self.model, v, discounted=False)

    def D(self, g):
        return self.model.reward + self.model.beta * np.asarray(g, dtype=float)

    def M(self, q):
        return _masked(self.model, q, "max").max(axis=1)

    def M_sigma(self, q, sigma):
        return np.asarray(q)[np.arange(self.model.n_states), sigma]

    def T(self, v):
        return self.M(self.D(self.E(v)))

    def R(self, g):
        return self.E(self.M(self.D(g)))

    def S(self, q):
        return self.D(self.E(self.M(q)))

    def T_sigma(self, v, sigma):
        return self.M_sigma(self.D(self.E(v)), sigma)

    def R_sigma(self, g, sigma):
        return self.E(self.M_sigma(self.D(g), sigma))

    def S_sigma(self, q, sigma):
        return self.D(self.E(self.M_sigma(q, sigma)))

    def greedy_from_g(self, g):
        return greedy_from_expected(self.model, g)

    def greedy_from_q(self, q):
        return np.where(self.model.feasible, q, -np.inf).argmax(axis=1)

    def fixed_point(self, operator, start, tolerance=1e-13, max_iter=200_000):
        """Iterate a contraction on G-space or state space to its fixed point."""
        current = np.asarray(start, dtype=float)
        mask = self.model.feasible
        for _ in range(max_iter):
            nxt = operator(current)
            if nxt.shape == mask.shape:
                gap = np.max(np.abs(nxt[mask] - current[mask]))
            else:
                gap = np.max(np.abs(nxt - current))
            current = nxt
            if gap <= tolerance:
                return current
        raise ConvergenceError("factorized fixed-point iteration hit the cap", last=current)


def factorized_ops(model):
    return FactorizedOperators(model)


def greedy_from_expected(model, g):
    """Greedy policy from an expected-value function on state-action pairs."""
    q = model.reward + model.beta * np.asarray(g, dtype=float)
    return np.where(model.feasible, q, -np.inf).argmax(axis=1)


def solve_refactored_opi(model, g0=None, m=50, tolerance=1e-8, max_iter=100_000):
    """Optimistic policy iteration in expected-value space.

    Iterates ``g <- R_sigma^m g`` with ``sigma`` the g-greedy policy.
    Initialized at ``g0`` (default: the expectation of the zero value
    function, i.e. zeros), mirroring regular OPI started at ``v0`` with
    ``g0 = E v0``.
    """
    ops = FactorizedOperators(model)
    g = (
        np.zeros(model.feasible.shape)
        if g0 is None
        else np.asarray(g0, dtype=float).copy()
    )
    mask = model.feasible
    history = [g.copy()]
    for k in range(1, max_iter + 1):
        sigma = greedy_from_expected(model, g)
        g_new = g
        for _ in range(m):
            g_new = ops.R_sigma(g_new, sigma)
        step = float(np.max(np.abs(g_new[mask] - g[mask])))
        g = g_new
        history.append(g.copy())
        if step <= tolerance:
            sigma = greedy_from_expected(model, g)
            v = ops.M(ops.D(g))
            residual = float(np.max(np.abs(ops.R(g)[mask] - g[mask])))
            return SolveResult(
                value=v,
                policy=sigma,
                iterations=k,
                method=f"refactored-opi(m={m})",
                residual=residual,
                history=history,
            )
    raise ConvergenceError("refactored OPI hit the iteration cap", last=g)


def gumbel_ev_operator(model):
    """Expected-value Bellman operator under additive Gumbel taste shocks.

    Requires every action to be feasible in every state.  Returns a
    callable mapping ``g`` on state-action pairs to
    ``sum_x' log(sum_a' exp(r(x', a') + beta g(x', a'))) P(x, a, x')``,
    a contraction of modulus ``beta``.
    """
    if model.state_dependent:
        raise ValueError("the closed form requires a constant discount factor")
    if not model.feasible.all():
        raise ValueError("unsupported structure: the closed form needs all actions feasible")

    def operator(g):
        inner = logsumexp(model.reward + model.beta * np.asarray(g, dtype=float), axis=1)
        out = model.kernel @ inner
        return np.asarray(out).reshape(model.feasible.shape)

    return operator
