"""Continuous-time Markov chains and decision processes.

Intensity matrices, transition semigroups via the matrix exponential,
jump-chain simulation, and continuous-time MDPs solved by policy
iteration on the Hamilton-Jacobi-Bellman equation.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dp, fixed_point, markov, spectral

ROW_SUM_TOL = 1e-10


def require_intensity_matrix(q, tol=ROW_SUM_TOL, repair=False):
    """Validate an intensity matrix: nonnegative off-diagonal, zero row sums.

    Row-sum repair (subtracting the excess from the diagonal) is only
    done behind the explicit ``repair`` flag.
    """
    q = spectral.require_square(q, name="intensity matrix")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < 0):
        raise ValueError("off-diagonal intensities must be nonnegative")
    sums = q.sum(axis=1)
    if np.any(np.abs(sums) > tol):
        if not repair:
            raise ValueError(
                f"row sums deviate from 0 by up to {np.max(np.abs(sums)):.3g}"
            )
        q = q - np.diag(sums)
    return q


def transition_semigroup(q, t):
    """Transition matrix over a horizon of length ``t``: ``exp(t Q)``."""
    q = require_intensity_matrix(q)
    if t < 0:
        raise ValueError("t must be nonnegative")
    p_t = spectral.matrix_exponential(t * q)
    # exp(tQ) is stochastic in exact arithmetic; clip rounding dust.
    p_t = np.clip(p_t, 0.0, None)
    return markov.require_stochastic_matrix(p_t, repair=True)


class JumpChainSpec(NamedTuple):
    """Holding-rate function and embedded jump matrix."""

    rates: np.ndarray
    jump_matrix: np.ndarray


def jump_to_intensity(spec):
    """Intensity matrix ``Q = diag(rates) (Pi - I)`` of a jump chain."""
    rates = np.asarray(spec.rates, dtype=float)
    pi = markov.require_stochastic_matrix(spec.jump_matrix)
    if np.any(rates <= 0):
        raise ValueError("jump rates must be strictly positive")
    if rates.shape[0] != pi.shape[0]:
        raise ValueError("rates and jump matrix dimensions disagree")
    return rates[:, None] * (pi - np.eye(pi.shape[0]))


def intensity_to_jump(q):
    """Recover a jump-chain representation from an intensity matrix.

    Requires strictly negative diagonal entries (no absorbing states);
    sets ``rates = -diag(Q)`` and ``Pi = I + Q / rates``.
    """
    q = require_intensity_matrix(q)
    rates = -np.diag(q)
    if np.any(rates <= 0):
        raise ValueError("absorbing state: zero outflow has no jump-chain rate")
    pi = np.eye(q.shape[0]) + q / rates[:, None]
    return JumpChainSpec(rates=rates, jump_matrix=markov.require_stochastic_matrix(pi))


@dataclass
class JumpChainPath:
    """Piecewise-constant sample path: jump times and post-jump states."""

    jump_times: np.ndarray
    states: np.ndarray

    def __call__(self, t):
        """Right-continuous evaluation of the path at time(s) ``t``."""
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.jump_times, t, side="right") - 1
        return self.states[np.clip(idx, 0, self.states.size - 1)]


# Jumps drawn in the first block of uniforms; each later block doubles.
JUMP_BLOCK = 1024


def simulate_jump_chain(spec, psi0, horizon, rng):
    """Simulate a jump chain until the first jump past ``horizon``.

    Holding times are sampled as ``-log(U) / rate`` and jump targets by
    inverse CDF over the jump matrix's rows; the returned path evaluates
    right-continuously via binary search over the jump times.  The
    uniforms alternate holding time, jump target, as one scalar draw
    each would; they are drawn in blocks, and the generator is left where
    those scalar draws leave it: its state is restored and only the used
    part of the last block is drawn again.
    """
    rates = np.asarray(spec.rates, dtype=float).tolist()
    pi = markov.require_stochastic_matrix(spec.jump_matrix)
    psi0 = markov.require_distribution(psi0)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    step = markov._row_sampler(pi)
    state = markov._row_sampler(psi0[None, :])(0, rng.random())
    times, states = [0.0], [state]
    t, block = 0.0, JUMP_BLOCK
    while True:
        saved = rng.bit_generator.state
        draws = rng.random(2 * block)
        holds = (-np.log(draws[0::2])).tolist()
        for used, (hold, u) in enumerate(zip(holds, draws[1::2].tolist()), start=1):
            t += hold / rates[state]
            state = step(state, u)
            times.append(t)
            states.append(state)
            if t > horizon:
                rng.bit_generator.state = saved
                rng.random(2 * used)
                return JumpChainPath(
                    jump_times=np.array(times), states=np.array(states, dtype=np.int64)
                )
        block *= 2


@dataclass
class CTMDPModel:
    """Continuous-time MDP: mask, discount rate, rewards, intensity kernel.

    ``kernel[x, a]`` is the intensity row of state ``x`` under action
    ``a``: nonnegative off the diagonal with zero row sum.
    """

    feasible: np.ndarray
    discount_rate: float
    reward: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        self.feasible = np.asarray(self.feasible, dtype=bool)
        if not self.feasible.any(axis=1).all():
            raise ValueError("every state needs at least one feasible action")
        n, m = self.feasible.shape
        if self.discount_rate <= 0:
            raise ValueError("discount rate must be positive")
        self.reward = np.asarray(self.reward, dtype=float)
        self.kernel = np.asarray(self.kernel, dtype=float)
        if self.kernel.shape != (n, m, n):
            raise ValueError("intensity kernel must be (n_states, n_actions, n_states)")
        mask = self.feasible
        sums = self.kernel.sum(axis=2)
        if np.any(np.abs(sums[mask]) > ROW_SUM_TOL):
            raise ValueError("feasible intensity rows must sum to zero")
        off = self.kernel.copy()
        idx = np.arange(n)
        off[idx, :, idx] = 0.0
        if np.any(off[mask] < -1e-12):
            raise ValueError("off-diagonal intensities must be nonnegative")

    @property
    def n_states(self):
        return self.feasible.shape[0]


def ct_policy_matrix(model, sigma):
    sigma = np.asarray(sigma, dtype=np.int64)
    n = model.n_states
    if not model.feasible[np.arange(n), sigma].all():
        raise ValueError("policy selects infeasible actions")
    return model.kernel[np.arange(n), sigma]


def ct_policy_value(model, sigma):
    """Lifetime flow value ``(delta I - Q_sigma)^{-1} r_sigma``."""
    n = model.n_states
    q_sigma = ct_policy_matrix(model, sigma)
    r_sigma = model.reward[np.arange(n), np.asarray(sigma, dtype=np.int64)]
    return np.linalg.solve(model.discount_rate * np.eye(n) - q_sigma, r_sigma)


def ct_greedy(model, v):
    """Greedy policy for the flow trade-off ``r(x,a) + sum_x' v Q(x,a,.)``.

    The discount rate drops out of the instantaneous comparison; ties go
    to the lowest action index.
    """
    v = np.asarray(v, dtype=float)
    objective = model.reward + np.einsum("xay,y->xa", model.kernel, v)
    return np.where(model.feasible, objective, -np.inf).argmax(axis=1)


def hjb_residual(model, v):
    """Sup-norm residual of the Hamilton-Jacobi-Bellman equation at ``v``."""
    v = np.asarray(v, dtype=float)
    objective = model.reward + np.einsum("xay,y->xa", model.kernel, v)
    best = np.where(model.feasible, objective, -np.inf).max(axis=1)
    return float(np.max(np.abs(model.discount_rate * v - best)))


def ct_hpi(model, sigma0=None, max_iter=10_000):
    """Continuous-time Howard policy iteration.

    Alternates exact policy evaluation with greedy improvement and stops
    when the policy repeats; finite termination is guaranteed and the
    returned policy is exactly optimal.  Same loop and tie rule as
    :func:`fsdp.dp.solve_hpi`, with the continuous-time evaluator.
    """
    v, k = fixed_point.policy_iteration(
        lambda v: ct_greedy(model, v),
        lambda sigma: ct_policy_value(model, sigma),
        dp._start_policy(model, sigma0, "max"),
        max_iter,
    )
    return dp.SolveResult(
        value=v,
        policy=ct_greedy(model, v),
        iterations=k,
        method="ct-hpi",
        residual=hjb_residual(model, v),
    )


def uniformized_mdp(model, rate=None):
    """Discrete-time MDP sharing the continuous model's optimal policies.

    With uniformization rate ``theta``, the embedded chain is
    ``P = I + Q / theta`` and the discrete discount factor is
    ``theta / (theta + delta)``; rewards are rescaled by
    ``1 / (theta + delta)`` so lifetime values coincide.
    """
    n, m = model.feasible.shape
    diag = model.kernel[np.arange(n), :, np.arange(n)]  # (n, m)
    theta = rate if rate is not None else float(np.max(-diag)) * 1.05 + 1e-9
    if theta <= 0 or np.any(-diag > theta):
        raise ValueError("uniformization rate must dominate every exit rate")
    delta = model.discount_rate
    kernel = model.kernel / theta
    idx = np.arange(n)
    kernel = kernel.copy()
    kernel[idx, :, idx] += 1.0
    # Infeasible rows still need to be distributions for validation.
    bad = ~model.feasible
    if bad.any():
        kernel[bad] = 0.0
        kernel[bad.nonzero()[0], bad.nonzero()[1], bad.nonzero()[0]] = 1.0
    reward = model.reward / (theta + delta)
    beta = theta / (theta + delta)
    return dp.MDPModel(
        feasible=model.feasible, reward=reward, kernel=kernel, beta=beta
    )
