"""Recursive-preference valuation.

Certainty-equivalent operators, aggregators, Koopmans operators (their
composition), and stability-aware solvers for the lifetime values they
define: Blackwell contractions, the power-transformed-affine conjugacy
used for Epstein-Zin preferences, Uzawa linear reduction, and
order-interval bracketing.  Each certainty equivalent declares its
(generalized) Jacobian and each aggregator its slope once, here; a
Koopmans operator's Jacobian composes the two.  Every Blackwell
contraction and the Uzawa reduction are solved by Newton steps on it,
with a certified error bound (:func:`fsdp.fixed_point.newton_krylov`);
so is the power-affine conjugate, in log space, stopping on a box
certificate.
The entropic and power certainty equivalents cost one matrix-vector
product under one global shift; only rows whose sum underflows are
recomputed with a shift of their own.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fixed_point, markov, spectral
from .errors import ConvergenceError, SpectralRadiusError, StabilityError


@dataclass(frozen=True)
class _LinearMap:
    """A linear map given by ``apply = d -> J d``; ``J @ d`` takes a vector, or a matrix column by column."""

    apply: object

    def __matmul__(self, d):
        return self.apply(d) if np.ndim(d) == 1 else np.column_stack([self.apply(c) for c in d.T])


def _row_shifted(vals, weights):
    """``(shift, weights * exp(vals - shift))`` per row of ``weights``.

    Each row is shifted by the max of ``vals`` over its support, so large
    values off the support cannot poison the result.
    """
    terms = np.where(weights > 0, vals[None, :], -np.inf)
    shift = terms.max(axis=1)
    terms -= shift[:, None]
    np.exp(terms, out=terms)
    terms *= weights
    return shift, terms


# A row sum of ``weights @ exp(vals - max(vals))`` below this has lost
# digits to underflow; the row is recomputed with a shift of its own.
RESCUE_BELOW = np.sqrt(np.finfo(float).tiny)


def _global_shift(vals, weights):
    """``(e, r, low)``: ``e = exp(vals - max(vals))``, ``r = weights @ e``, and the rows to rescue."""
    e = np.exp(vals - vals.max())
    r = weights @ e
    return e, r, r < RESCUE_BELOW


def _weighted_logsumexp_rows(vals, weights):
    """Stable ``log(weights @ exp(vals))`` per row of ``weights``.

    One matrix-vector product under one global shift; only rows whose
    sum underflows go through the row-shifted sum of :func:`_row_shifted`.
    """
    _, r, low = _global_shift(vals, weights)
    out = vals.max() + np.log(np.where(low, 1.0, r))
    if low.any():
        shift, terms = _row_shifted(vals, weights[low])
        out[low] = shift + np.log(terms.sum(axis=1))
    return out


# ---------------------------------------------------------------------------
# Certainty equivalents


class _CertaintyEquivalent:
    """Order-preserving, constant-fixing generalization of conditional
    expectation under a fixed stochastic matrix."""

    constant_subadditive = False
    requires_positive = False

    def __init__(self, p):
        self.p = markov.require_stochastic_matrix(p)

    def __call__(self, v):
        raise NotImplementedError


class Expectation(_CertaintyEquivalent):
    """Plain conditional expectation ``v -> P v``."""

    constant_subadditive = True

    def __call__(self, v):
        return self.p @ np.asarray(v, dtype=float)

    def jacobian(self, v):
        return self.p


class Entropic(_CertaintyEquivalent):
    """Entropic risk adjustment ``(1/theta) log P exp(theta v)``.

    Negative ``theta`` penalizes dispersion in continuation values,
    positive ``theta`` rewards it.
    """

    constant_subadditive = True

    def __init__(self, theta, p):
        if theta == 0:
            raise ValueError("theta must be nonzero; use Expectation for the neutral case")
        super().__init__(p)
        self.theta = float(theta)

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        # Log-space evaluation keeps exp(theta v) from overflowing.
        return _weighted_logsumexp_rows(self.theta * v, self.p) / self.theta

    def jacobian(self, v):
        """``W(v)``, the row-stochastic ``P * exp(theta v)`` with rows normalized.

        Returned as a linear map, ``W @ d = P (e * d) / (P e)`` with ``e =
        exp(theta v - max(theta v))``, one product per application; rows
        rescued by :func:`_weighted_logsumexp_rows` are kept as dense rows.
        """
        vals = self.theta * np.asarray(v, dtype=float)
        e, r, low = _global_shift(vals, self.p)
        r[low] = 1.0
        rescued = None
        if low.any():
            rescued = _row_shifted(vals, self.p[low])[1]
            rescued /= rescued.sum(axis=1, keepdims=True)

        def apply(d):
            out = self.p @ (e * d) / r
            if rescued is not None:
                out[low] = rescued @ d
            return out

        return _LinearMap(apply)


class KrepsPorteus(_CertaintyEquivalent):
    """Power certainty equivalent ``(P v^gamma)^(1/gamma)`` on positive v."""

    requires_positive = True

    def __init__(self, gamma, p):
        if gamma == 0:
            raise ValueError("gamma must be nonzero")
        super().__init__(p)
        self.gamma = float(gamma)

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise ValueError("power certainty equivalent requires strictly positive values")
        log_mean = _weighted_logsumexp_rows(self.gamma * np.log(v), self.p)
        return np.exp(log_mean / self.gamma)


class QuantileCE(_CertaintyEquivalent):
    """Conditional tau-th quantile of continuation values.

    The rows' quantile indices at the last ``v`` are kept, keyed on its
    bytes, so :meth:`jacobian` at the point just valued reuses them.
    """

    constant_subadditive = True

    def __init__(self, tau, p):
        if not 0 <= tau <= 1:
            raise ValueError("tau must lie in [0, 1]")
        super().__init__(p)
        self.tau = float(tau)
        self._last = None

    def _index(self, v):
        key = v.tobytes()
        if self._last is None or self._last[0] != key:
            self._last = key, markov._quantile_index(self.tau, v, self.p)
        return self._last[1]

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if v.shape != self.p.shape[1:]:
            raise ValueError("values and weights must align")
        return v[self._index(v)]

    def jacobian(self, v):
        """The selection ``J @ d = d[j(v)]`` of each row's quantile: a generalized Jacobian."""
        j = self._index(np.asarray(v, dtype=float))
        return _LinearMap(lambda d: d[j])


# ---------------------------------------------------------------------------
# Aggregators


class _Aggregator:
    """Pointwise map combining current-state rewards with an adjusted
    continuation value; increasing in the continuation argument.

    ``derivative(ce, v)``, where declared, is the pointwise slope in the
    continuation argument at ``ce(v)``; only a slope that depends on it
    computes ``ce(v)``."""

    blackwell_modulus = None

    def __call__(self, rv):
        raise NotImplementedError


class _ScalarDiscount(_Aggregator):
    """Rewards ``r`` and a constant weight ``beta``, Blackwell-contracting with modulus ``beta`` below one."""

    def __init__(self, r, beta):
        self.r = np.asarray(r, dtype=float)
        self.beta = float(beta)
        if self.beta < 1:
            self.blackwell_modulus = self.beta


class Additive(_ScalarDiscount):
    def __call__(self, rv):
        return self.r + self.beta * rv

    def derivative(self, ce, v):
        return self.beta


class Leontief(_ScalarDiscount):
    def __call__(self, rv):
        return np.minimum(self.r, self.beta * rv)

    def derivative(self, ce, v):
        # The min passes through only its active argument.
        return np.where(self.beta * ce(v) < self.r, self.beta, 0.0)


class Uzawa(_Aggregator):
    """State-dependent discounting ``r(x) + b(x) y``."""

    def __init__(self, r, b):
        self.r = np.asarray(r, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if np.any(self.b < 0):
            raise ValueError("discount factors must be nonnegative")

    def __call__(self, rv):
        return self.r + self.b * rv

    def derivative(self, ce, v):
        return self.b


class CESUzawa(_Aggregator):
    """CES aggregation with a state-dependent discount weight."""

    def __init__(self, r, b, alpha):
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        self.r = np.asarray(r, dtype=float)
        if np.any(self.r <= 0):
            raise ValueError("CES aggregation requires strictly positive rewards")
        self.b = np.asarray(b, dtype=float)
        self.alpha = float(alpha)

    def __call__(self, rv):
        return (self.r**self.alpha + self.b * rv**self.alpha) ** (1 / self.alpha)


class CES(CESUzawa):
    """Constant-elasticity aggregation ``(r^alpha + beta y^alpha)^(1/alpha)``: the constant weight ``b = beta``."""

    def __init__(self, r, beta, alpha):
        super().__init__(r, beta, alpha)
        self.beta = float(beta)


# ---------------------------------------------------------------------------
# Koopmans operators


@dataclass(frozen=True)
class KoopmansOperator:
    """Composition ``K = aggregator o certainty_equivalent``.

    ``domain`` declares the value space ("reals", "positive", or an
    order interval given as a ``(lower, upper)`` tuple of vectors).
    """

    aggregator: _Aggregator
    ce: _CertaintyEquivalent
    domain: object = "reals"

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        self.check_domain(v)
        return self.aggregator(self.ce(v))

    def jacobian(self, v):
        """``d -> A'(C v) * (C'(v) d)``: the aggregator's slope times the certainty equivalent's Jacobian."""
        slope, w = self.aggregator.derivative(self.ce, v), self.ce.jacobian(v)
        return lambda d: slope * (w @ d)

    def check_domain(self, v):
        if isinstance(self.domain, tuple):
            lo, hi = self.domain
            if np.any(v < lo - 1e-9) or np.any(v > hi + 1e-9):
                raise ValueError("value vector lies outside the declared order interval")
        elif self.domain == "positive" or self.ce.requires_positive:
            if np.any(v <= 0):
                raise ValueError("value vector must be strictly positive")


class ContractionCheck(NamedTuple):
    classification: str  # "contraction" | "unknown"
    modulus: float | None


def blackwell_contraction_check(k):
    """Classify a Koopmans operator as a sup-norm contraction when possible.

    Returns ``contraction(beta)`` when the aggregator shifts constants by
    at most ``beta < 1`` (additive/Leontief) and the certainty equivalent
    is constant-subadditive.  A randomized falsification pass re-checks
    ``K(v + c) <= K v + beta c`` at points of the declared domain and
    downgrades to "unknown" on violation.
    """
    agg, ce = k.aggregator, k.ce
    modulus = agg.blackwell_modulus
    if modulus is None or not ce.constant_subadditive:
        return ContractionCheck("unknown", None)
    rng = np.random.default_rng(0)
    n = ce.p.shape[0]
    for _ in range(20):
        v, lam = rng.standard_normal(n), float(rng.random() * 3)
        if isinstance(k.domain, tuple):
            # A point of the interval's lower half, shifted by at most half its width.
            lo, hi = (np.asarray(end, dtype=float) for end in k.domain)
            v, lam = lo + rng.random(n) * (hi - lo) / 2, lam / 6 * float(np.min(hi - lo))
        elif k.domain == "positive" or ce.requires_positive:
            v = np.abs(v) + 0.1
        lhs = k(v + lam)
        rhs = k(v) + modulus * lam
        if np.any(lhs > rhs + 1e-9):
            return ContractionCheck("unknown", None)
    return ContractionCheck("contraction", modulus)


class LifetimeValueResult(NamedTuple):
    """A lifetime value and how it was found.

    ``error_bound`` bounds ``||value - v*||_inf``: the certified bound of
    the Newton solve of a contraction or the Uzawa reduction (at most the
    tolerance, unless the solve stopped at the rounding floor), or half
    the bracket's tolerance.  The conjugate solves state none.
    """

    value: np.ndarray
    method: str
    iterations: int
    residual: float
    error_bound: float | None = None


def solve_lifetime_value(k, cfg=None, bracket=None):
    """Compute the lifetime value defined by a Koopmans operator.

    Tries stability certificates in order: Blackwell contraction,
    Epstein-Zin conjugacy (CES + power certainty equivalent), Uzawa
    linear reduction, and order-interval bracketing from a supplied
    ``bracket=(v1, v2)``.  Refuses to iterate blind: raises
    :class:`~fsdp.errors.StabilityError` when no certificate applies.

    A Blackwell contraction (``h = 1`` and ``lam`` its modulus) and the
    Uzawa reduction (the bounding pair of ``b P``) are solved by
    :func:`fixed_point.newton_krylov` on :meth:`KoopmansOperator.jacobian`;
    ``cfg.tolerance`` (default 1e-10) is then a certified bound on
    ``||value - v*||_inf``.  A bracket iterates until its gap is at
    most ``cfg.tolerance``.
    """
    tol = cfg.tolerance if cfg else 1e-10
    max_iter = cfg.max_iter if cfg else 100_000
    agg, ce = k.aggregator, k.ce
    n = ce.p.shape[0]

    # Newton starts inside the declared domain: at its lower end, at ones, or at zeros.
    positive = k.domain == "positive" or ce.requires_positive
    v0 = np.zeros(n) + (k.domain[0] if isinstance(k.domain, tuple) else float(positive))

    def newton(h, lam, method):
        v, iterations, bound = fixed_point.newton_krylov(k, v0, k.jacobian, h, lam, tol, max_iter)
        return LifetimeValueResult(v, method, iterations, fixed_point.sup_step(k(v), v), bound)

    check = blackwell_contraction_check(k)
    if check.classification == "contraction":
        return newton(np.ones(n), check.modulus, "blackwell-contraction")

    if isinstance(agg, CES) and isinstance(ce, KrepsPorteus):
        if not agg.beta < 1:
            raise StabilityError("Epstein-Zin conjugacy requires beta < 1")
        v = epstein_zin_value(agg.r**agg.alpha, agg.beta, agg.alpha, ce.gamma, ce.p, cfg)
        return LifetimeValueResult(v, "epstein-zin-conjugate", 0, fixed_point.sup_step(k(v), v))

    if isinstance(agg, CESUzawa) and isinstance(ce, KrepsPorteus):
        v = ez_sdd_value(agg.r**agg.alpha, agg.b, agg.alpha, ce.gamma, ce.p, cfg)
        return LifetimeValueResult(v, "epstein-zin-sdd-conjugate", 0, fixed_point.sup_step(k(v), v))

    if isinstance(agg, Uzawa) and isinstance(ce, Expectation):
        pair = spectral.check_radius_below_one(agg.b[:, None] * ce.p, "discount operator b*P")
        if pair is None:
            raise ConvergenceError("no bounding vector certifies b*P", bound=np.inf)
        return newton(*pair, "uzawa-spectral")

    if bracket is not None:
        v, iterations = bracketed_fixed_point(k, bracket[0], bracket[1], tol, max_iter)
        # The fixed point lies between ends at most tol apart; v is their midpoint.
        return LifetimeValueResult(
            v, "order-interval-bracket", iterations, fixed_point.sup_step(k(v), v), 0.5 * tol
        )

    raise StabilityError(
        "no stability certificate: operator is not Blackwell-contracting, has no "
        "conjugate or spectral reduction, and no bracket was supplied"
    )


def bracketed_fixed_point(op, lower, upper, tol=1e-10, max_iter=100_000):
    """Monotone iteration from both ends of an invariant order interval.

    For an order-preserving, globally stable self-map the two sequences
    squeeze the unique fixed point; convergence is declared when they
    meet within ``tol``.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    if np.any(lo > hi):
        raise ValueError("bracket must satisfy lower <= upper")
    midpoint = lambda lo, hi: 0.5 * (lo + hi)
    lo, hi, k_iter = fixed_point.squeeze(op, lo, hi, tol, max_iter, fixed_point.sup_step, midpoint)
    return midpoint(lo, hi), k_iter


# ---------------------------------------------------------------------------
# Power-transformed affine equations and Epstein-Zin values


def check_power_affine_stable(a, theta):
    """Verify ``rho(A)**(1/theta) < 1``, raising StabilityError otherwise.

    That is ``rho(A) < 1`` (:func:`spectral.check_radius_below_one`) for
    positive ``theta`` and ``rho(A) > 1`` for negative ``theta``, where a
    nonnegative ``A`` with every row sum, or every column sum, above one
    needs no eigenvalues (:func:`spectral.spectral_radius_bounds`).
    """
    if theta == 0:
        raise ValueError("theta must be nonzero")
    if theta > 0:
        try:
            spectral.check_radius_below_one(a)
            return
        except SpectralRadiusError as exc:
            rho = exc.spectral_radius
    else:
        signed = np.any(np.asarray(a) < 0)
        if not signed and spectral.spectral_radius_bounds(a)[0] > 1.0 + spectral.RADIUS_SLACK:
            return
        rho = spectral.spectral_radius(a)
        if rho > 1.0 + spectral.RADIUS_SLACK:
            return
    raise StabilityError(
        f"rho(A) = {rho:.12g} with exponent 1/theta = {1/theta:.6g} is not stable: "
        "no strictly positive fixed point exists"
    )


def power_affine_solve(h, a, theta, cfg=None):
    """Fixed point of ``G v = (h + (A v)**(1/theta))**theta`` on the positive orthant.

    ``h`` must be strictly positive, ``A`` nonnegative (irreducible for
    the sharp stability characterization), ``theta`` nonzero.  Stability
    holds iff ``rho(A)**(1/theta) < 1``, which is checked up front.

    For ``theta != 1`` the fixed point is found in ``x = log v`` by
    :func:`fixed_point.newton_krylov` on ``x -> theta log(h + s)``, ``s =
    (A e^x)**(1/theta)``.  Its Jacobian ``diag(s / ((h + s) A v)) A
    diag(v)`` is nonnegative with row sums ``s / (h + s) < 1``, so ``h = 1``
    with ``lam(x) = max s / (h + s)`` bounds it, and ``lam`` is monotone in
    ``x``: its larger value at the corners ``x +- b`` bounds the Jacobian
    on the box between them.  ``cfg.tolerance`` (default 1e-13) is a certified
    bound on ``||log v - log v*||_inf``, the relative error of ``v``, and
    ``cfg.max_iter`` caps the Newton steps.
    """
    h = np.asarray(h, dtype=float)
    a = spectral.require_nonnegative(a, "A")
    if np.any(h <= 0):
        raise ValueError("h must be strictly positive")
    check_power_affine_stable(a, theta)
    if theta == 1:
        return spectral.neumann_solve(a, h)

    def power(x):
        """``(A e^x, (A e^x)**(1/theta))``."""
        av = a @ np.exp(x)
        if np.any(av <= 0):
            raise ValueError("A v left the positive orthant; is A irreducible?")
        return av, av ** (1 / theta)

    def op(x):
        return theta * np.log(h + power(x)[1])

    def jvp(x):
        v = np.exp(x)
        av, s = power(x)
        scale = s / ((h + s) * av)
        return lambda d: scale * (a @ (v * d))

    def modulus(x, b):
        # At the corners x +- b, s moves to s * exp(+-b / theta), so
        # s / (h + s) there is s / (h * exp(-+b / theta) + s).
        s = power(x)[1]
        with np.errstate(over="ignore"):
            return max(float(np.max(s / (h * np.exp(t) + s))) for t in (-b / theta, b / theta))

    tol = cfg.tolerance if cfg else 1e-13
    max_iter = cfg.max_iter if cfg else 200_000
    try:
        x = fixed_point.newton_krylov(op, theta * np.log(h), jvp, np.ones(h.size), modulus, tol, max_iter)[0]
    except ConvergenceError as exc:
        if exc.last is not None:
            exc.last = np.exp(exc.last)
        raise
    return np.exp(x)


def epstein_zin_value(h, beta, alpha, gamma, p, cfg=None):
    """Epstein-Zin lifetime value: :func:`ez_sdd_value` at the constant weight ``beta``.

    Solves ``v = (h + beta (P v^gamma)^(alpha/gamma))^(1/alpha)``.
    """
    markov.require_discount(beta)
    return ez_sdd_value(h, np.full(np.shape(h), beta), alpha, gamma, p, cfg)


def ez_sdd_value(h, b, alpha, gamma, p, cfg=None):
    """Epstein-Zin value with state-dependent discount weights ``b``.

    Solves ``v = (h + b (P v^gamma)^(alpha/gamma))^(1/alpha)`` by passing
    ``v_hat = v^gamma`` through :func:`power_affine_solve` with ``theta =
    gamma / alpha`` and ``A = diag(b^theta) P``, then mapping back;
    stability requires ``rho(A)**(alpha/gamma) < 1``.
    """
    if alpha == 0 or gamma == 0:
        raise ValueError("alpha and gamma must be nonzero")
    b = np.asarray(b, dtype=float)
    if np.any(b <= 0):
        raise ValueError("discount weights must be strictly positive")
    p = markov.require_stochastic_matrix(p)
    theta = gamma / alpha
    a = (b**theta)[:, None] * p
    v_hat = power_affine_solve(np.asarray(h, dtype=float), a, theta, cfg)
    return v_hat ** (1 / gamma)
