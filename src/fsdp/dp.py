"""Markov decision processes with constant or state-dependent discounting.

Transitions sit behind one kernel protocol: ``expect(v, discounted, out)``
gives the ``(n, m)`` expectations, ``grid(v)`` the discounted ones as a
flat array in which ``pair_index(states, actions)`` finds each pair,
``policy_operator(sigma)`` gives the map ``v -> L_sigma v`` and
``policy_matrix(sigma, discounted)`` gives a policy's rows.  :class:`Flat`
stores one row per state-action pair, dense or sparse; :class:`Factored`
keeps an exogenous matrix ``Q`` that no action touches beside an
endogenous choice or small kernel, so a Bellman sweep costs one product
``V Q^T`` on the ``(n_e, n_z)`` value grid.  Solvers use the protocol,
but for VFI's sweep (:class:`_Sweep`), which slices a sparse
:class:`Flat` kernel's rows; ``MDPModel.kernel``, ``discount_weights`` and
``discounted_kernel()`` are read-only flat views, built on first read.

Solvers: value function iteration, Howard policy iteration, optimistic
policy iteration (their loops live in :mod:`fsdp.fixed_point`), plus the
expected-value / Q-factor operator factorization, a refactored OPI in
expected-value space, and the log-sum-exp closed form for Gumbel taste
shocks.  Value function iteration, and OPI with ``m = 1``, sweep only the
pairs that can still be maximal (MacQueen's test), with the dense sweep's
iterates to the bit.

Policy evaluation solves ``(I - L_sigma) v = r_sigma`` by BiCGSTAB on
the policy operator (:func:`fsdp.fixed_point.certified_solve`), so
``I - L_sigma`` is never assembled or factored,
and certifies the answer: a positive ``h`` with ``L_sigma h <= lam h``,
``lam < 1``, bounds the error by the weighted residual (see
:func:`policy_value`); :func:`fsdp.spectral.bounding_pair` finds it.
HPI starts each new policy's solve at the last value and stops it at a
forcing term, and refines only the final one to the full target (see
:func:`solve_hpi`).
The kernel certifies the model when it is built, but for a flat
state-dependent one: every solver first calls :func:`certify_stability`,
which certifies such a model once.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import fixed_point, markov, spectral
from .errors import ConvergenceError, StabilityError

# Exhaustive per-policy stability checks are combinatorial; above this
# many policies a uniform dominating operator must be supplied.
POLICY_ENUMERATION_LIMIT = 10_000

def _flatten_kernel(kernel, n, m):
    if spectral.issparse(kernel):
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


def _check_entries(entries, what):
    if not np.all(np.isfinite(entries)):
        raise ValueError(f"{what} has non-finite entries")
    if np.any(entries < 0):
        raise ValueError(f"{what} has negative entries")


def _check_rows(sums, what):
    bad = markov.rows_off(sums)
    if bad:
        raise ValueError(f"{bad} {what} rows do not sum to 1 (tol {markov.ROW_SUM_TOL})")


class Flat:
    """A kernel stored flat: row ``x * m + a`` is the law of ``x'`` given ``(x, a)``.

    ``kernel`` is dense or CSR.  The discount is a constant ``beta`` or
    ``weights`` aligned with the kernel.  Expectations are products with
    the (cached) discounted kernel, and a policy's rows keep the kernel's
    storage.
    """

    def __init__(self, kernel, n, m, beta=None, weights=None):
        if weights is None:
            markov.require_discount(beta)
        elif beta is not None:
            raise ValueError("give either beta or discount_weights, not both")
        self.kernel = _flatten_kernel(kernel, n, m)
        self.shape = (n, m)
        self.beta = beta
        self.weights = None if weights is None else self._aligned(weights)
        self._discounted = None

    def _aligned(self, weights):
        if spectral.issparse(weights):
            weights = weights.tocsr()
            values = weights.data
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.ndim == 3:
                weights = weights.reshape(self.kernel.shape)
            values = weights
        if weights.shape != self.kernel.shape:
            raise ValueError("discount weights must align with the kernel")
        _check_entries(values, "discount weights")
        return weights

    def check(self, feasible):
        """Check entries and feasible rows; return ``(certified, pair)``, set by a constant ``beta``."""
        _check_entries(self.kernel.data if spectral.issparse(self.kernel) else self.kernel, "kernel")
        sums = np.asarray(self.kernel.sum(axis=1)).reshape(-1)
        _check_rows(sums[feasible.reshape(-1)], "feasible kernel")
        return (False, None) if self.beta is None else (True, (np.ones(feasible.shape[0]), self.beta))

    def flatten(self):
        return self

    def discounted(self):
        """Flat ``(n*m, n)`` matrix of discounted transition weights (cached; ``beta`` times CSR shares its index arrays)."""
        if self._discounted is None:
            if self.weights is None and spectral.issparse(self.kernel):
                k = self.kernel
                self._discounted = type(k)((self.beta * k.data, k.indices, k.indptr), shape=k.shape)
            elif self.weights is None:
                self._discounted = self.beta * self.kernel
            elif spectral.issparse(self.kernel) or spectral.issparse(self.weights):
                import scipy.sparse as sp
                self._discounted = sp.csr_matrix(self.kernel).multiply(self.weights).tocsr()
            else:
                self._discounted = self.weights * self.kernel
        return self._discounted

    def _source(self, discounted):
        return self.discounted() if discounted else self.kernel

    def grid(self, v, discounted=True):
        """The expectations of every pair, flat: pair ``(x, a)`` sits at :meth:`pair_index`."""
        return np.asarray(self._source(discounted) @ v).reshape(-1)

    def pair_index(self, states, actions):
        return states * self.shape[1] + actions

    def expect(self, v, discounted, out=None):
        source = self._source(discounted)
        if out is None or spectral.issparse(source):  # a sparse product has no ``out``
            return self.grid(v, discounted).reshape(self.shape)
        return np.matmul(source, v, out=out.reshape(-1)).reshape(self.shape)

    def policy_matrix(self, sigma, discounted):
        return self._source(discounted)[self.pair_index(np.arange(self.shape[0]), sigma)]

    def policy_operator(self, sigma):
        return self.policy_matrix(sigma, True).__matmul__


class Factored:
    """A kernel kept in factors: state ``e * n_z + z`` pairs endogenous ``e`` and exogenous ``z``.

    ``z`` moves by the row-stochastic ``q`` whatever the action.  The
    action is the next endogenous index (``endogenous=None``, so the
    number of actions is ``n_e``), or ``endogenous[e, a, e']`` is a small
    endogenous kernel.  ``discount`` is a constant in (0, 1) or one factor
    per exogenous state, applied at the current state.  A policy's rows
    come out as CSR, or as its three arrays from :meth:`policy_rows`.  The
    flat view (:meth:`flatten`) is CSR with rows for feasible pairs only,
    or dense with an endogenous kernel.  With discounts ``d``,
    :meth:`check` raises :class:`SpectralRadiusError` unless ``rho(diag(d)
    Q) < 1``; the bounding vector of ``diag(d) Q``, constant in the
    endogenous index, then bounds every ``L_sigma``, as no action moves ``z``.
    """

    def __init__(self, q, discount, endogenous=None):
        self.q = np.asarray(q, dtype=float)
        self.endogenous = None if endogenous is None else np.asarray(endogenous, dtype=float)
        if np.ndim(discount) == 0:
            self.discount = self.beta = float(discount)
            markov.require_discount(self.beta)
        else:
            self.discount, self.beta = np.asarray(discount, dtype=float), None

    def check(self, feasible):
        n, m = feasible.shape
        n_z = self.q.shape[0]
        n_e = m if self.endogenous is None else self.endogenous.shape[0]
        if self.q.shape != (n_z, n_z):
            raise ValueError("exogenous matrix must be square")
        if self.endogenous is not None and self.endogenous.shape != (n_e, m, n_e):
            raise ValueError("endogenous kernel must have shape (n_e, n_actions, n_e)")
        if n != n_e * n_z:
            raise ValueError("states must be the endogenous-by-exogenous grid")
        if self.beta is None:
            if self.discount.shape != (n_z,):
                raise ValueError("discount vector needs one factor per exogenous state")
            _check_entries(self.discount, "discount vector")
        _check_entries(self.q, "exogenous matrix")
        _check_rows(self.q.sum(axis=1), "exogenous")
        if self.endogenous is not None:
            _check_entries(self.endogenous, "endogenous kernel")
            used = feasible.reshape(n_e, n_z, m).any(axis=1)
            _check_rows(self.endogenous.sum(axis=2)[used], "feasible endogenous")
        self.shape = (n_e, n_z, m)
        self.feasible = feasible
        if self.beta is not None:
            return True, (np.ones(n), self.beta)
        pair = spectral.check_radius_below_one(self.discount[:, None] * self.q, "exogenous discount operator")
        return True, None if pair is None else (np.tile(pair[0], n_e), pair[1])

    def _grid(self, v, discounted):
        """``W[e', z] = E[v(e', z') | z]`` on the ``(n_e, n_z)`` grid, discounted at ``z``."""
        w = np.asarray(v, dtype=float).reshape(self.shape[:2]) @ self.q.T
        return w * self.discount if discounted else w

    def grid(self, v, discounted=True):
        """Every pair's expectation on a small flat grid (see :meth:`pair_index`).

        That is ``W``, whose row ``a`` is the next endogenous index, or
        ``K W`` over the endogenous rows ``K[e, a]`` with a kernel.
        """
        w = self._grid(v, discounted)
        if self.endogenous is not None:
            n_e, _, m = self.shape
            w = self.endogenous.reshape(n_e * m, n_e) @ w
        return w.reshape(-1)

    def pair_index(self, states, actions):
        _, n_z, m = self.shape
        e, z = np.divmod(states, n_z)
        return (actions if self.endogenous is None else e * m + actions) * n_z + z

    def expect(self, v, discounted, out=None):
        n_e, n_z, m = self.shape
        w = self.grid(v, discounted)
        out = np.empty((n_e * n_z, m)) if out is None else out
        # Without a kernel every endogenous state sees the same (z, a) table.
        rows = w.reshape(m, n_z).T if self.endogenous is None else w.reshape(n_e, m, n_z).transpose(0, 2, 1)
        out.reshape(n_e, n_z, m)[...] = rows
        return out

    def policy_operator(self, sigma):
        n_e, n_z, _ = self.shape
        if self.endogenous is None:
            index = self.pair_index(np.arange(n_e * n_z), sigma)
            return lambda v: self.grid(v)[index]
        sigma = sigma.reshape(n_e, n_z)
        k = self.endogenous[np.arange(n_e)[:, None], sigma]  # (n_e, n_z, n_e')
        return lambda v: np.einsum("ezf,fz->ez", k, self._grid(v, True)).reshape(-1)

    def _row_discount(self, z):
        """Discount of states with exogenous index ``z``, as a column."""
        return self.discount if self.beta is not None else self.discount[z][:, None]

    def policy_rows(self, sigma, discounted):
        """A policy's rows as the ``(data, indices, indptr)`` of canonical CSR, built without scipy."""
        n_e, n_z, _ = self.shape
        n = n_e * n_z
        z = np.tile(np.arange(n_z), n_e)
        # Each stored block is one next endogenous index times the row q[z].
        if self.endogenous is None:
            states, nxt, data = np.arange(n), sigma, self.q[z]
        else:
            k = self.endogenous[np.repeat(np.arange(n_e), n_z), sigma]
            states, nxt = np.nonzero(k)
            data = k[states, nxt][:, None] * self.q[z[states]]
        if discounted:
            data = self._row_discount(z[states]) * data
        indices = nxt[:, None] * n_z + np.arange(n_z)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(states, minlength=n) * n_z)))
        return data.reshape(-1), indices.reshape(-1), indptr

    def policy_matrix(self, sigma, discounted):
        import scipy.sparse as sp
        n = self.shape[0] * self.shape[1]
        return sp.csr_matrix(self.policy_rows(sigma, discounted), shape=(n, n))

    def flatten(self):
        """The flat view: kernel and weights with one row per state-action pair."""
        n_e, n_z, m = self.shape
        n = n_e * n_z
        if self.endogenous is None:
            import scipy.sparse as sp
            s, a = np.nonzero(self.feasible)
            z = s % n_z
            rows = np.repeat(s * m + a, n_z)
            cols = np.repeat(a * n_z, n_z) + np.tile(np.arange(n_z), s.size)
            kernel = sp.csr_matrix((self.q[z].reshape(-1), (rows, cols)), shape=(n * m, n))
            weights = None
            if self.beta is None:
                data = np.repeat(self.discount[z], n_z)
                weights = sp.csr_matrix((data, (rows, cols)), shape=(n * m, n))
        else:
            kernel = self.endogenous[:, None, :, :, None] * self.q[None, :, None, None, :]
            kernel = kernel.reshape(n * m, n)
            weights = None
            if self.beta is None:
                per_row = np.where(self.feasible, np.tile(self.discount, n_e)[:, None], 0.0)
                weights = np.broadcast_to(per_row.reshape(-1, 1), (n * m, n))
        return Flat(kernel, n, m, self.beta, weights)


class _StateActions:
    """The state-action contract of every decision process: MDPs, RDPs and CT-MDPs.

    ``feasible`` is an ``(n, m)`` boolean mask with at least one state
    and at least one action per state; ``reward``, where the model has one, is ``(n, m)`` and
    finite on feasible pairs.
    """

    def _check_state_actions(self, reward=True):
        self.feasible = np.asarray(self.feasible, dtype=bool)
        if self.feasible.ndim != 2:
            raise ValueError("feasible mask must be 2-d (states by actions)")
        if not self.feasible.any(axis=1).all():
            raise ValueError("every state needs at least one feasible action")
        if self.feasible.shape[0] == 0:
            raise ValueError("a model needs at least one state")
        if reward:
            self.reward = np.asarray(self.reward, dtype=float)
            if self.reward.shape != self.feasible.shape:
                raise ValueError("reward must be shaped like the feasibility mask")
            finite = np.ones(self.feasible.shape, dtype=bool)  # a mask, not a copy of the rewards
            if not np.isfinite(self.reward, out=finite, where=self.feasible).all():
                raise ValueError("rewards must be finite on feasible pairs")

    @property
    def n_states(self):
        return self.feasible.shape[0]

    @property
    def n_actions(self):
        return self.feasible.shape[1]

    def policy_count(self):
        """log10 of the number of feasible policies."""
        return float(np.sum(np.log10(self.feasible.sum(axis=1))))


class MDPModel(_StateActions):
    """Finite MDP: feasibility mask, rewards, transition kernel, and discounting.

    ``feasible`` and ``reward`` follow :class:`_StateActions`.
    ``kernel`` is a :class:`Factored` kernel, which carries its
    own discount, or a flat ``(n, m, n)`` / ``(n*m, n)`` array (dense or
    sparse), wrapped in a :class:`Flat` kernel with a constant ``beta``
    in (0, 1) or transition-aligned ``discount_weights`` (state-dependent
    case).  The solvers use ``model.transitions``; ``kernel``,
    ``discount_weights`` and :meth:`discounted_kernel` are read-only flat
    views, built on first read for a factored kernel.  The kernel's
    ``check`` certifies the model here (``_bounding`` is its uniform pair
    ``(h, lam)``, ``L_{x,a} h <= lam h(x)`` on feasible rows, or None), or
    leaves a flat state-dependent one to :func:`certify_stability`.
    """

    def __init__(self, feasible, reward, kernel, beta=None, discount_weights=None):
        self.feasible, self.reward = feasible, reward
        self._check_state_actions()
        if not isinstance(kernel, Factored):
            kernel = Flat(kernel, *self.feasible.shape, beta, discount_weights)
        elif beta is not None or discount_weights is not None:
            raise ValueError("a factored kernel carries its own discount")
        self._certified, self._bounding = kernel.check(self.feasible)
        self.transitions = kernel
        self._flat = None

    @property
    def beta(self):
        return self.transitions.beta

    @property
    def state_dependent(self):
        return self.beta is None

    def _flat_view(self):
        if self._flat is None:
            self._flat = self.transitions.flatten()
        return self._flat

    @property
    def kernel(self):
        """Flat ``(n*m, n)`` transition kernel (read-only view)."""
        return self._flat_view().kernel

    @property
    def discount_weights(self):
        """Flat discount weights aligned with :attr:`kernel`, or None for a constant beta."""
        return self._flat_view().weights

    def discounted_kernel(self):
        """Flat ``(n*m, n)`` matrix of discounted transition weights."""
        return self._flat_view().discounted()


def _checked_policy(model, sigma):
    """``sigma`` as an index array, or ValueError unless it picks one feasible action per state."""
    sigma = np.asarray(sigma, dtype=np.int64)
    n = model.n_states
    if sigma.shape != (n,):
        raise ValueError("policy must assign one action per state")
    in_range = ((sigma >= 0) & (sigma < model.n_actions)).all()
    if not (in_range and model.feasible[np.arange(n), sigma].all()):
        raise ValueError("policy selects infeasible actions")
    return sigma


def policy_matrix(model, sigma, discounted=False):
    """Dense transition (or discounted transition) matrix under a policy."""
    out = model.transitions.policy_matrix(_checked_policy(model, sigma), discounted)
    return out.toarray() if spectral.issparse(out) else np.array(out)


def policy_reward(model, sigma):
    sigma = np.asarray(sigma, dtype=np.int64)
    return model.reward[np.arange(model.n_states), sigma]


def expected_values(model, v, discounted=True, out=None):
    """Per state-action pair expectation of ``v``, shaped ``(n, m)``.

    With ``discounted=True`` the expectation embeds the discount factor,
    which is the form used by the Bellman operator.  A dense or factored
    kernel writes it into ``out`` when given; use the returned array.
    """
    return model.transitions.expect(np.asarray(v, dtype=float), discounted, out)


def q_factors(model, v, out=None):
    """Action values ``r(x, a) + E[discounted v]`` on feasible pairs, as a fresh ``(n, m)`` array (or ``out``)."""
    q = expected_values(model, v, out=out)
    q += model.reward
    return q


def _select(q, feasible, mode):
    """``(sigma, values)``: the greedy step over an ``(n, m)`` table ``q`` of action values.

    Pairs outside the mask ``feasible`` are set to -inf (max) or +inf
    (min) in place, so ``q`` must be the caller's own array; exact ties
    go to the lowest action index.  Every greedy policy and Bellman image
    of an MDP, an RDP or a CT-MDP comes from here, except the pair-wise
    sweeps of :class:`_Sweep`.
    """
    np.copyto(q, -np.inf if mode == "max" else np.inf, where=~feasible)
    sigma = q.argmax(axis=1) if mode == "max" else q.argmin(axis=1)
    return sigma, q[np.arange(sigma.size), sigma]


def bellman(model, v, mode="max"):
    """One Bellman sweep: per-state max (or min) of the action values."""
    return _improve(model, v, mode)[1]


def greedy(model, v, mode="max"):
    """Greedy policy at ``v``; exact ties go to the lowest action index."""
    return _improve(model, v, mode)[0]


def _improve(model, v, mode, out=None):
    """``(greedy(model, v, mode), bellman(model, v, mode))`` from one sweep.

    One ``(n, m)`` array per sweep, fresh or the caller's ``out``: a second
    one alive at the same time makes the allocator return and refault its
    pages on every sweep.
    """
    return _select(q_factors(model, v, out), model.feasible, mode)


def policy_apply(model, sigma, v):
    """One application of the policy operator ``r_sigma + L_sigma v``."""
    return _policy_map(model, sigma)(np.asarray(v, dtype=float))


def _policy_map(model, sigma):
    """The policy operator ``v -> r_sigma + L_sigma v`` of a checked ``sigma``."""
    sigma = _checked_policy(model, sigma)
    apply, r_sigma = model.transitions.policy_operator(sigma), policy_reward(model, sigma)
    return lambda v: r_sigma + apply(v)


def policy_value(model, sigma):
    """Lifetime value of a policy, certified to a fixed accuracy.

    Solves ``(I - L_sigma) v = r_sigma`` by BiCGSTAB, started from zero
    (:func:`solve_hpi` starts each policy at the last value instead),
    on the operator ``v -> v - L_sigma v``; each product goes through the
    kernel's ``policy_operator``, so ``I - L_sigma`` is never assembled.
    The answer ``x`` is certified with a positive ``h`` and ``lam < 1``
    such that ``L_sigma h <= lam h``: with ``res = r_sigma - (x - L_sigma
    x)``, ``||x - v_sigma||_inf <= max(h) * max(|res_i| / h_i) / (1 -
    lam)``.  The solve restarts with a tighter tolerance until that bound
    is at most ``max(1e-12, 64 eps / (1 - lam)) * max(1, ||x||_inf)``,
    and raises :class:`ConvergenceError`, with the bound attached, if
    :data:`fixed_point.SOLVE_PASSES` passes do not get there.

    A state-dependent ``L_sigma`` with no bounding pair raises, with the
    policy attached if the model is uncertified and ``rho(L_sigma) >= 1``,
    else with an infinite bound.
    """
    return _certified_policy_value(model, sigma)[0]


def _certified_policy_value(model, sigma, x0=None, tolerance=None, system=None):
    """``(v, bound)``: :func:`policy_value` and its certified bound on ``||v - v_sigma||_inf``.

    ``x0`` and ``tolerance`` go to :func:`fixed_point.certified_solve`;
    ``system``, the :func:`_policy_system` of ``sigma``, is built if not given.
    """
    apply, reward, pair = system or _policy_system(model, sigma)
    return fixed_point.certified_solve(apply, reward, *pair, tolerance, x0)


def _policy_system(model, sigma, tally=None):
    """``(apply, r_sigma, (h, lam))``: a policy's operator, rewards and bounding pair.

    Each product of ``apply``, the bounding pair's included, adds one to
    ``tally[0]``.  Raises as :func:`policy_value` does if no pair exists.
    """
    sigma = _checked_policy(model, sigma)
    operator, tally = model.transitions.policy_operator(sigma), tally or [0]

    def apply(x):
        tally[0] += 1
        return operator(x)

    pair = _bounding_pair(model, apply)
    if pair is None:
        if not model._certified:
            l_sigma = policy_matrix(model, sigma, discounted=True)
            spectral.check_radius_below_one(l_sigma, "policy discount operator", policy=sigma)
        raise ConvergenceError("no bounding vector certifies the policy operator", bound=np.inf)
    return apply, policy_reward(model, sigma), pair


def _bounding_pair(model, apply):
    """``(h, lam)`` with ``h > 0``, ``lam < 1`` and ``L_sigma h <= lam h``, or None.

    The model's uniform pair ``model._bounding`` if it has one, else
    :func:`spectral.bounding_pair` of ``L_sigma``.
    """
    return model._bounding or spectral.bounding_pair(apply, model.n_states)


def certify_stability(model, dominating=None):
    """Check the stability certificate of a flat state-dependent model, once.

    A model whose kernel certified it at build (a constant discount, or a
    :class:`Factored` kernel) returns at once, as does any model this
    has certified before; an unknown certificate string is refused
    first.  Otherwise a user-supplied uniform dominating matrix ``L``,
    nonnegative and ``(n, n)``, with entrywise ``beta * P <= L`` and
    ``rho(L) < 1``, certifies every policy at once; without one,
    per-policy radii are enumerated when the policy space is small
    enough.  Passing the string ``"certified"`` records that the caller
    has verified stability through model structure.  Success is recorded
    on the model, so later certificates return at once and policy
    evaluations skip their radius checks.
    """
    if isinstance(dominating, str) and dominating != "certified":
        raise ValueError(f"unknown certificate {dominating!r}")
    if model._certified:
        return
    if dominating is None:
        _check_every_policy(model, lambda sigma: policy_matrix(model, sigma, discounted=True))
    elif not isinstance(dominating, str):
        dominating = dominating_matrix(dominating, model.n_states)
        discounted = model.transitions.discounted()
        # Row x*m + a of the flat kernel must be dominated by row x of L.
        n, m = model.n_states, model.n_actions
        if spectral.issparse(discounted):
            coo = discounted.tocoo()
            if np.any(coo.data > dominating[coo.row // m, coo.col] + 1e-12):
                raise StabilityError("dominating matrix does not bound the discounted kernel")
        elif np.any(discounted.reshape(n, m, n) > dominating[:, None, :] + 1e-12):
            raise StabilityError("dominating matrix does not bound the discounted kernel")
    model._certified = True


def dominating_matrix(dominating, n):
    """``dominating`` as a float array once it certifies: ``(n, n)``, nonnegative, ``rho < 1``."""
    dominating = spectral.require_nonnegative(dominating, "dominating matrix")
    if dominating.shape != (n, n):
        raise ValueError(f"dominating matrix must be nonnegative and ({n}, {n})")
    spectral.check_radius_below_one(dominating, "dominating matrix")
    return dominating


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
    """Solver output: value function, greedy policy, and diagnostics.

    ``products`` counts the policy-operator products spent evaluating
    policies, their bounding pairs included: 0 for VFI, and None where
    they are not counted (the RDP solvers).
    """

    value: np.ndarray
    policy: np.ndarray
    iterations: int
    method: str
    residual: float
    error_bound: float | None = None
    history: list = field(default_factory=list)
    products: int | None = None


def _finish(v, sigma, tv, iterations, method, error_bound=None, history=None, products=None):
    """Solve result at ``v``, with greedy policy ``sigma`` and Bellman image ``tv``."""
    return SolveResult(
        value=v,
        policy=sigma,
        iterations=iterations,
        method=method,
        residual=float(np.max(np.abs(tv - v))),
        error_bound=error_bound,
        history=history or [],
        products=products,
    )


def _start_policy(model, sigma0, mode, out=None):
    """``sigma0`` as an index array, or the myopic (best-reward) policy, greedy at zero, if None."""
    if sigma0 is None:
        return _improve(model, np.zeros(model.n_states), mode, out)[0]
    return np.asarray(sigma0, dtype=np.int64)


# Slack of VFI's action-elimination test relative to the values' scale:
# it covers the rounding of q-values summing up to about 10^5 products.
ELIMINATION_SLACK = 1e-10


class _Sweep:
    """Bellman sweeps over the pairs that can still be maximal (VFI, and OPI with ``m = 1``).

    A sweep gathers the kept pairs from the kernel's ``grid``, adds their
    rewards and reduces by state: the float operations of :func:`bellman`,
    so its bytes while every maximizing pair is kept.  Once the kept pairs
    of a sparse :class:`Flat` kernel shrink, a sweep multiplies only their
    rows, sliced once per shrink: a CSR product sums each row in stored
    order, so each kept q-value keeps its bytes (a dense kernel keeps the
    gather, since BLAS may block a row subset differently).  MacQueen's test
    drops the others.  ``pair = (h, lam)`` bounds every feasible row, so
    with ``D = ||v_{k+1} - v_k||_h / (1 - lam)`` every later iterate lies
    within ``D`` of ``v_k`` and every later q-value within ``lam h(x) D``
    of ``q_k(x, a)``: a pair with ``q_k(x, a) < v_{k+1}(x) - 2 lam h(x) D``
    stays below the best pair of sweep ``k`` for good.  ``lam`` is widened
    by the row-sum tolerance and the margin by :data:`ELIMINATION_SLACK`
    times the values' scale over ``1 - lam``, far above rounding.  The
    test runs when the step has halved since it last ran; the kept pairs
    shrink when fewer than 3/4 pass.  With ``pair=None`` nothing is
    eliminated; else ``step`` is the last ``||v_{k+1} - v_k||_h``.
    """

    def __init__(self, model, mode, pair):
        kernel, (states, actions) = model.transitions, np.nonzero(model.feasible)
        self.grid, self.rows = kernel.grid, None
        discounted = kernel.discounted() if isinstance(kernel, Flat) else None
        self.discounted = discounted if spectral.issparse(discounted) else None
        self.reduce = (np.maximum if mode == "max" else np.minimum).reduceat
        self.sign = 1.0 if mode == "max" else -1.0
        self._keep(states, kernel.pair_index(states, actions), model.reward[states, actions])
        self.h, lam = pair or (None, 1.0)
        # A feasible row sums to 1 within the tolerance; a factored row is
        # the product of two such rows.
        self.lam = lam * (1 + 3 * markov.ROW_SUM_TOL)
        self.step, self.next_test = None, np.inf if self.lam < 1 else -np.inf

    def _keep(self, states, index, reward):
        self.states, self.index, self.reward = states, index, reward
        self.starts = np.flatnonzero(np.diff(states, prepend=-1))

    def __call__(self, v):
        q = self.grid(v).take(self.index) if self.rows is None else self.rows @ v
        q += self.reward
        new = self.reduce(q, self.starts)
        if self.h is not None:
            self.step = (abs(new - v) / self.h).max()
            if self.step <= self.next_test:
                self._eliminate(q, new)
        return new

    def _eliminate(self, q, new):
        h, lam = self.h, self.lam
        self.next_test = self.step / 2
        scale = (1 + abs(new).max()) * h.max() / h.min()
        floor = self.sign * new - 2 * lam * h * self.step / (1 - lam)
        keep = self.sign * q >= (floor - ELIMINATION_SLACK * scale / (1 - lam))[self.states]
        if np.count_nonzero(keep) < 0.75 * keep.size:
            self._keep(self.states[keep], self.index[keep], self.reward[keep])
            if self.discounted is not None:
                self.rows = None  # at most one slice alive
                self.rows = self.discounted[self.index]


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
    Sweeps skip the pairs that can never be maximal again (see
    :class:`_Sweep`); the iterates are :func:`bellman`'s to the bit.
    Where the model's uniform pair ``(h, lam)`` bounds every feasible row,
    the result carries the a-posteriori policy bound ``max(h) * 2 lam /
    (1 - lam) * ||v_k - v_{k-1}||_h`` on ``||v* - v_sigma||_inf``, which
    is ``2 beta / (1 - beta) * last_step`` for a constant discount.
    """
    certify_stability(model, dominating)
    v = np.zeros(model.n_states) if v0 is None else np.asarray(v0, dtype=float).copy()
    history = [v.copy()] if record_history else None
    pair = model._bounding
    sweep = _Sweep(model, mode, pair)
    v, k, _ = fixed_point.value_iteration(sweep, v, tolerance, max_iter, history)
    bound = _greedy_bound(pair, sweep.step)
    return _finish(v, *_improve(model, v, mode), k, "vfi", bound, history, products=0)


def _greedy_bound(pair, step):
    """``max(h) * 2 lam / (1 - lam) * step``, or None without a pair ``(h, lam)``.

    It bounds ``||v* - v_sigma||_inf`` for ``sigma`` greedy at ``v`` when
    ``step`` is ``||T v - v||_h``, or ``||v - u||_h`` with ``v = T u``.
    """
    if pair is None:
        return None
    h, lam = pair
    return float(np.max(h) * 2 * lam / (1 - lam) * step)


# Forcing constant of HPI's inexact evaluations (Eisenstat and Walker).
ETA = 1e-3


def solve_hpi(model, sigma0=None, mode="max", max_iter=10_000, dominating=None):
    """Howard policy iteration: certified policy evaluation plus improvement.

    HPI is Newton's method on the Bellman equation, so each evaluation is
    solved only as far as the next greedy step needs: the policy greedy at
    ``v_k`` is evaluated from ``v_k`` to the relative accuracy ``ETA *
    ||T v_k - v_k||_inf / max(1, ||T v_k||_inf)`` (the forcing term of
    Eisenstat and Walker), the start policy from zero to the target of
    :func:`policy_value`.  Before :func:`fixed_point.policy_iteration`
    accepts a repeat or a tie, that evaluation is refined to the full
    target with the same operator and bounding pair, and a repeat is
    tested again, so the stop, the value and its ``error_bound`` (the
    certified bound on ``||v - v_sigma||_inf``) are exact evaluation's.
    The stability certificate is checked once, before the first
    evaluation; the iteration cap is defensive only.  Every improvement
    writes its action values into one ``(n, m)`` table, whose pages are
    faulted in once, whatever the allocator did before the solve.
    """
    certify_stability(model, dominating)
    tally, x0, forcing, system, bound = [0], None, None, None, None
    table = np.empty(model.feasible.shape)

    def improve(v):
        nonlocal x0, forcing
        sigma, tv = _improve(model, v, mode, table)
        x0, forcing = v, ETA * np.max(np.abs(tv - v)) / max(1.0, np.max(np.abs(tv)))
        return sigma

    def evaluate(sigma):
        nonlocal system, bound
        system = _policy_system(model, sigma, tally)
        v, bound = _certified_policy_value(model, sigma, x0=x0, tolerance=forcing, system=system)
        return v

    def refine(sigma, v):
        nonlocal bound
        v, bound = _certified_policy_value(model, sigma, x0=v, system=system)
        return v

    v, k = fixed_point.policy_iteration(
        improve, evaluate, _start_policy(model, sigma0, mode, table), max_iter, refine
    )
    return _finish(v, *_improve(model, v, mode, table), k, "hpi", bound, products=tally[0])


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

    Starts from the certified value of ``sigma0`` and alternates a greedy
    improvement with ``m`` applications of the policy operator, which
    :func:`fixed_point.optimistic_policy_iteration` builds once per
    greedy policy.  ``m = 1`` is value function iteration from that
    start, so it runs VFI's sweep (:class:`_Sweep`), which eliminates
    actions and needs no policy until the end; its iterates are
    :func:`bellman`'s.  Where the model's uniform pair ``(h, lam)`` bounds
    every feasible row, the result carries ``error_bound``, ``max(h)
    * 2 lam / (1 - lam) * ||T v - v||_h`` on ``||v* - v_sigma||_inf``
    for the policy ``sigma`` greedy at the final ``v``.
    """
    certify_stability(model, dominating)
    sigma, tally = _start_policy(model, sigma0, mode), [0]
    v = _certified_policy_value(model, sigma, system=_policy_system(model, sigma, tally))[0]
    history = [v.copy()] if record_history else None
    pair = model._bounding
    if m == 1:
        sweep = _Sweep(model, mode, pair)
        v, k, _ = fixed_point.value_iteration(sweep, v, tolerance, max_iter, history)
    else:
        v, k = fixed_point.optimistic_policy_iteration(
            lambda v: greedy(model, v, mode), partial(_policy_map, model), v, m, tolerance, max_iter, history
        )
    sigma, tv = _improve(model, v, mode)
    step = None if pair is None else np.max(np.abs(tv - v) / pair[0])
    bound = _greedy_bound(pair, step)
    return _finish(v, sigma, tv, k, f"opi(m={m})", bound, history, products=tally[0])


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
        return _select(np.array(q, dtype=float), self.model.feasible, "max")[1]

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
        return _select(np.array(q, dtype=float), self.model.feasible, "max")[0]

    def fixed_point(self, operator, start, tolerance=1e-13, max_iter=200_000):
        """Iterate a contraction on G-space or state space to its fixed point."""
        start = np.asarray(start, dtype=float)
        return fixed_point.iterate(operator, start, tolerance, max_iter, error=self._step)[0]

    def _step(self, new, old):
        """Sup-norm step, over feasible pairs only when the iterates live on them."""
        mask = self.model.feasible
        if new.shape == mask.shape:
            new, old = new[mask], old[mask]
        return fixed_point.sup_step(new, old)


def greedy_from_expected(model, g):
    """Greedy policy from an expected-value function on state-action pairs."""
    return _select(model.reward + model.beta * np.asarray(g, dtype=float), model.feasible, "max")[0]


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
    history = [g.copy()]
    g, k = fixed_point.optimistic_policy_iteration(
        partial(greedy_from_expected, model), lambda sigma: partial(ops.R_sigma, sigma=sigma),
        g, m, tolerance, max_iter, history, error=ops._step,
    )
    return SolveResult(
        value=ops.M(ops.D(g)),
        policy=greedy_from_expected(model, g),
        iterations=k,
        method=f"refactored-opi(m={m})",
        residual=ops._step(ops.R(g), g),
        history=history,
    )


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

    from scipy.special import logsumexp

    def operator(g):
        inner = logsumexp(model.reward + model.beta * np.asarray(g, dtype=float), axis=1)
        return model.transitions.expect(inner, discounted=False)

    return operator
