"""Continuous-time Markov chains and decision processes.

Intensity matrices, transition semigroups via the matrix exponential,
jump-chain simulation, and continuous-time MDPs, solved as the discrete
MDP of :func:`uniformized_mdp` by :mod:`fsdp.dp`'s certified solvers.
"""

import dataclasses
from typing import NamedTuple

import numpy as np

from . import dp, markov, spectral


def require_intensity_matrix(q, repair=False):
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
    if markov.rows_off(sums, 0.0):
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


def _require_rates(rates):
    rates = np.asarray(rates, dtype=float)
    if not np.all(np.isfinite(rates) & (rates > 0)):
        raise ValueError("jump rates must be finite and strictly positive")
    return rates


def jump_to_intensity(spec):
    """Intensity matrix ``Q = diag(rates) (Pi - I)`` of a jump chain."""
    pi = markov.require_stochastic_matrix(spec.jump_matrix)
    rates = _require_rates(spec.rates)
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


@dataclasses.dataclass
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
JUMP_BLOCK = 16


def simulate_jump_chain(spec, psi0, horizon, rng):
    """Simulate a jump chain until the first jump past ``horizon``.

    Holding times are sampled as ``-log(U) / rate`` and jump targets by
    inverse CDF over the jump matrix's rows; the returned path evaluates
    right-continuously via binary search over the jump times.  The
    uniforms alternate holding time, jump target, as one scalar draw
    each would; they are drawn in blocks, and the generator is left where
    those scalar draws leave it: its state is restored and only the used
    part of the last block is drawn again.  Rates must be finite and
    positive; they are checked before anything is drawn.
    """
    rates = _require_rates(spec.rates).tolist()
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


@dataclasses.dataclass
class CTMDPModel(dp._StateActions):
    """Continuous-time MDP: mask, discount rate, rewards, intensity kernel.

    ``feasible`` and ``reward`` follow :class:`fsdp.dp._StateActions`.
    ``kernel[x, a]`` is the intensity row of state ``x`` under action
    ``a``: finite, and on feasible pairs nonnegative off the diagonal
    with zero row sum.  ``discount_rate`` is finite and positive.
    """

    feasible: np.ndarray
    discount_rate: float
    reward: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        self._check_state_actions()
        n, m = self.feasible.shape
        if not (np.isfinite(self.discount_rate) and self.discount_rate > 0):
            raise ValueError("discount rate must be positive and finite")
        self.kernel = np.asarray(self.kernel, dtype=float)
        if self.kernel.shape != (n, m, n):
            raise ValueError("intensity kernel must be (n_states, n_actions, n_states)")
        if not np.all(np.isfinite(self.kernel)):
            raise ValueError("intensity kernel has non-finite entries")
        states = self.feasible.nonzero()[0]
        rows = self.kernel[self.feasible]
        if markov.rows_off(rows.sum(axis=1), 0.0):
            raise ValueError("feasible intensity rows must sum to zero")
        rows[np.arange(states.size), states] = 0.0
        if np.any(rows < -1e-12):
            raise ValueError("off-diagonal intensities must be nonnegative")


def ct_policy_value(model, sigma):
    """Lifetime flow value ``(delta I - Q_sigma)^{-1} r_sigma``, by the certified dp solve."""
    return dp.policy_value(uniformized_mdp(model), sigma)


def ct_greedy(model, v):
    """Greedy policy for ``r(x,a) + sum_x' v Q(x,a,.)``: :func:`fsdp.dp.greedy`, uniformized."""
    return dp.greedy(uniformized_mdp(model), v)


def hjb_residual(model, v):
    """HJB residual ``max |delta v - max_a (r + Q v)| = (theta + delta) max |T v - v|``.

    ``T`` is the Bellman operator of the model uniformized at rate ``theta``.
    """
    mdp, theta = _uniformized(model)
    v = np.asarray(v, dtype=float)
    step = dp.bellman(mdp, v) - v
    return (theta + model.discount_rate) * float(np.max(np.abs(step)))


def ct_hpi(model, sigma0=None, max_iter=10_000):
    """Continuous-time Howard policy iteration: :func:`fsdp.dp.solve_hpi` on the uniformized model.

    Policies are evaluated by the certified solve with ``h = 1`` and
    ``lam = beta``, which gives ``error_bound``; ``residual`` is the HJB
    residual (:func:`hjb_residual`).
    """
    mdp, theta = _uniformized(model)
    result = dp.solve_hpi(mdp, sigma0, max_iter=max_iter)
    return dataclasses.replace(
        result, method="ct-hpi", residual=(theta + model.discount_rate) * result.residual
    )


def uniformized_mdp(model, rate=None):
    """Discrete-time MDP sharing the continuous model's optimal policies.

    With uniformization rate ``theta``, the embedded chain is
    ``P = I + Q / theta`` and the discrete discount factor is
    ``theta / (theta + delta)``; rewards are rescaled by
    ``1 / (theta + delta)`` so lifetime values coincide.  Off-diagonal
    intensities are clipped at 0 and each feasible diagonal is one minus
    its row's off-diagonals, so feasible rows of ``P`` sum to one up to
    rounding.  The default ``theta`` is 5% above the largest feasible
    exit rate (the clipped off-diagonal row sums).
    """
    return _uniformized(model, rate)[0]


def _uniformized(model, rate=None):
    """:func:`uniformized_mdp` and its rate ``theta``."""
    idx = np.arange(model.n_states)
    kernel = np.clip(model.kernel, 0.0, None)
    kernel[idx, :, idx] = 0.0
    exits = kernel.sum(axis=2)
    if rate is None:
        rate = float(np.max(exits[model.feasible])) * 1.05 + 1e-9
    elif not (rate > 0 and np.all(exits[model.feasible] <= rate)):
        raise ValueError("uniformization rate must dominate every exit rate")
    kernel /= rate
    kernel[idx, :, idx] = 1.0 - exits / rate
    states, actions = (~model.feasible).nonzero()
    kernel[states, actions] = 0.0
    kernel[states, actions, states] = 1.0
    scale = rate + model.discount_rate
    return dp.MDPModel(model.feasible, model.reward / scale, kernel, beta=rate / scale), rate
