"""State-dependent discounting and asset-pricing solvers.

Discount operators combine a transition-dependent discount factor with
a stochastic matrix; lifetime values and asset prices are Neumann-series
solves guarded by spectral-radius checks.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fixed_point, markov, spectral
from .errors import ConvergenceError


@dataclass(frozen=True)
class DiscountOperator:
    """Entrywise product ``L(x, x') = b(x, x') * P(x, x')``.

    ``matrix`` is the product; ``factors`` and ``transition`` record the
    inputs it was built from.
    """

    matrix: np.ndarray
    factors: np.ndarray
    transition: np.ndarray

    @property
    def spectral_radius(self):
        return spectral.spectral_radius(self.matrix)


class LucasSDFSpec(NamedTuple):
    """Lucas stochastic-discount-factor growth parameters."""

    beta: float
    gamma: float
    mu_c: float
    sigma_c: float
    mu_d: float
    sigma_d: float


class SpectralTestResult(NamedTuple):
    """Sequence ``l_t**(1/t)`` plus the first t with ``l_t < 1``, if any."""

    values: np.ndarray
    first_contraction_time: int | None


def _factor_array(b, p):
    """Expand a scalar, per-state vector, callable, or matrix into (n, n)."""
    n = p.shape[0]
    if callable(b):
        out = np.array([[b(i, j) for j in range(n)] for i in range(n)], dtype=float)
    else:
        arr = np.asarray(b, dtype=float)
        if arr.ndim == 0:
            out = np.full((n, n), float(arr))
        elif arr.ndim == 1:
            if arr.size != n:
                raise ValueError("per-state discount vector has wrong length")
            out = np.repeat(arr[:, None], n, axis=1)
        elif arr.shape == (n, n):
            out = arr.copy()
        else:
            raise ValueError("discount factors must be scalar, length-n, or n-by-n")
    return out


def build_discount_operator(b, p):
    """Build ``L = b * P`` entrywise from discount factors and a transition matrix.

    ``b`` may be a scalar, a per-current-state vector, an ``(n, n)``
    array, or a callable on index pairs; it must be strictly positive on
    the support of ``p``.
    """
    p = markov.require_stochastic_matrix(p)
    factors = _factor_array(b, p)
    if np.any(factors[p > 0] <= 0):
        raise ValueError("discount factors must be positive on the support of P")
    return DiscountOperator(matrix=factors * p, factors=factors, transition=p)


def _discount_matrix(op):
    return op.matrix if isinstance(op, DiscountOperator) else np.asarray(op, dtype=float)


def sdd_lifetime_value(op, h):
    """Lifetime value ``v = inv(I - L) h`` of the reward flow ``h``.

    Requires ``rho(L) < 1``; otherwise raises
    :class:`~fsdp.errors.SpectralRadiusError` carrying the measured radius.
    """
    return spectral.neumann_solve(_discount_matrix(op), np.asarray(h, dtype=float))


def spectral_test_sequence(op, tmax):
    """Diagnostic sequence ``||L^t 1||_inf ** (1/t)`` for t = 1..tmax.

    The sequence converges to ``rho(L)``.  Any single term below one
    already certifies ``rho(L) < 1``; the first such t is reported.
    """
    matrix = _discount_matrix(op)
    if tmax < 1:
        raise ValueError("tmax must be >= 1")
    values, first = spectral._local_radius_seq(matrix, np.ones(matrix.shape[0]), tmax)
    return SpectralTestResult(values=values, first_contraction_time=first)


def arrow_debreu_operator(m, p):
    """Arrow-Debreu discounting ``A = m * P`` from an SDF on state pairs."""
    p = markov.require_stochastic_matrix(p)
    factors = _factor_array(m, p)
    if np.any(factors < 0):
        raise ValueError("stochastic discount factor must be nonnegative")
    return factors * p


def price_ex_dividend(m, d, p):
    """Equilibrium ex-dividend price of a stationary dividend stream.

    Solves ``pi = A pi + A d`` with ``A = m * P``; requires ``rho(A) < 1``.
    """
    a = arrow_debreu_operator(m, p)
    d = np.asarray(d, dtype=float)
    return spectral.neumann_solve(a, a @ d)


def price_cum_dividend(m, d, p):
    """Cum-dividend price: solves ``pi = d + A pi``."""
    a = arrow_debreu_operator(m, p)
    return spectral.neumann_solve(a, np.asarray(d, dtype=float))


def growth_adjusted_operator(spec, grid, p):
    """Growth-adjusted Arrow-Debreu operator for the Lucas-SDF model.

    ``A(x, x') = beta * exp(-gamma mu_c + mu_d + (1 - gamma) x
    + (gamma^2 sigma_c^2 + sigma_d^2) / 2) * P(x, x')``, assembled in
    log space so large grid values cannot overflow.
    """
    p = markov.require_stochastic_matrix(p)
    grid = np.asarray(grid, dtype=float)
    log_common = (
        np.log(spec.beta)
        - spec.gamma * spec.mu_c
        + spec.mu_d
        + 0.5 * (spec.gamma**2 * spec.sigma_c**2 + spec.sigma_d**2)
    )
    log_state = (1.0 - spec.gamma) * grid
    with np.errstate(divide="ignore"):
        log_a = log_common + log_state[:, None] + np.log(p)
    return np.exp(log_a)


def price_dividend_ratio(spec, grid, p):
    """Price-dividend ratio ``v = inv(I - A) A 1`` under Markov growth.

    Raises :class:`~fsdp.errors.SpectralRadiusError` when the
    growth-adjusted operator fails ``rho(A) < 1``.
    """
    a = growth_adjusted_operator(spec, grid, p)
    ones = np.ones(a.shape[0])
    return spectral.neumann_solve(a, a @ ones)


def harrison_kreps_price(p1, p2, beta, d, cfg=None, return_trace=False):
    """Price under heterogeneous beliefs: the marginal buyer is the optimist.

    Computes the unique nonnegative fixed point of
    ``T pi = max_i beta * P_i @ (pi + d)`` by successive approximation
    from ``pi = 0``.  ``T`` is a sup-norm contraction of modulus ``beta``.
    Raises :class:`~fsdp.errors.ConvergenceError`, carrying the last
    iterate, when the iteration cap is hit.
    """
    markov.require_discount(beta)
    p1 = markov.require_stochastic_matrix(p1)
    p2 = markov.require_stochastic_matrix(p2)
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("dividends must be nonnegative")

    def op(pi):
        payout = pi + d
        return np.maximum(beta * (p1 @ payout), beta * (p2 @ payout))

    cfg = cfg or fixed_point.IterationConfig(tolerance=1e-8)
    trace = fixed_point.successive_approx(op, np.zeros(d.size), cfg)
    if not trace.converged:
        raise ConvergenceError("price iteration hit the iteration cap", last=trace.final)
    return (trace.final, trace) if return_trace else trace.final
