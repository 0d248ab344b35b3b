"""Recursive decision processes: abstract aggregators with declared stability.

An RDP replaces the MDP's reward/discount/kernel triple by a monotone
value aggregator evaluated per state-action pair.  Each model declares
the stability class that certifies its policy operators (sup-norm
contraction, spectral domination, an invariant order interval, or a
user-supplied evaluator), and the solvers refuse to iterate without a
certificate.  A contracting model that declares the Jacobian of its
policy operators evaluates policies by Newton steps, certified to the
solve's tolerance (:func:`fsdp.fixed_point.newton_krylov`).  Includes
constructors for robust (worst-case kernel), smooth-ambiguity,
shortest-path, and negative-discount-rate models.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import dp, fixed_point, markov
from .errors import ConvergenceError, StabilityError


@dataclass(frozen=True)
class Contracting:
    """Every policy operator contracts in the sup norm with this modulus."""

    modulus: float


@dataclass(frozen=True)
class EventuallyContracting:
    """Policy operators are dominated by a linear map with radius below one.

    ``dominating`` is an ``(n, n)`` matrix bounding ``|B(x,a,v) -
    B(x,a,w)| <= sum_x' |v - w| L(x, x')``; with ``None``, per-policy
    radii are enumerated when the policy space is small (the caller must
    then supply ``policy_radius``, a map from policies to matrices).
    """

    dominating: object = None
    policy_radius: object = None


@dataclass(frozen=True)
class ConvexConcave:
    """Globally stable on the order interval ``[lower, upper]``.

    Stability comes through convexity or concavity of the aggregator;
    evaluation squeezes fixed points between monotone iterations started
    from both ends.
    """

    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class UserCertified:
    """Caller-supplied exact policy evaluator ``(model, sigma) -> v_sigma``."""

    evaluator: object


@dataclass
class RDPModel(dp._StateActions):
    """Feasibility mask plus a value aggregator and its stability class.

    ``feasible`` follows :class:`fsdp.dp._StateActions`.  ``aggregator``
    maps a value vector to the full ``(n, m)`` table of aggregator values
    (entries at infeasible pairs are ignored, and never written to).
    ``jacobian(sigma, v)``, if declared, returns the linear map ``d -> J
    d`` of the policy operator of ``sigma`` at ``v`` (a generalized
    Jacobian at a kink); a contracting model that declares it evaluates
    policies by Newton steps.
    """

    feasible: np.ndarray
    aggregator: object
    stability: object
    extras: dict = field(default_factory=dict)
    jacobian: object = None

    def __post_init__(self):
        self._check_state_actions(reward=False)

    def aggregate(self, v):
        """Aggregator values at every state-action pair, shaped (n, m)."""
        return np.asarray(self.aggregator(np.asarray(v, dtype=float)), dtype=float)


def _improve(model, v, mode):
    """``(rdp_greedy, rdp_bellman)`` at ``v``: :func:`fsdp.dp._select` on a copy of the table."""
    return dp._select(model.aggregate(v).copy(), model.feasible, mode)


def rdp_bellman(model, v, mode="max"):
    return _improve(model, v, mode)[1]


def rdp_greedy(model, v, mode="max"):
    return _improve(model, v, mode)[0]


def rdp_policy_apply(model, sigma, v):
    sigma = np.asarray(sigma, dtype=np.int64)
    return model.aggregate(v)[np.arange(model.n_states), sigma]


def check_monotone_aggregator(model, rng=None):
    """Spot-test, at 10 random pairs ``v <= w``, that the aggregator is monotone in values."""
    rng = rng or np.random.default_rng(0)
    n = model.n_states
    for _ in range(10):
        v = rng.standard_normal(n)
        w = v + rng.random(n)
        bv, bw = model.aggregate(v), model.aggregate(w)
        mask = model.feasible
        if np.any(bv[mask] > bw[mask] + 1e-9):
            raise ValueError("aggregator is not monotone in the value argument")


def verify_certificate(model):
    """Validate the declared stability class before solving."""
    stab = model.stability
    if isinstance(stab, Contracting):
        if not 0 <= stab.modulus < 1:
            raise StabilityError(f"contraction modulus {stab.modulus} is not below one")
    elif isinstance(stab, EventuallyContracting):
        if stab.dominating is not None:
            dp.dominating_matrix(stab.dominating, model.n_states)
        elif stab.policy_radius is None:
            raise StabilityError(
                "eventually-contracting class needs a dominating matrix or a "
                "per-policy radius map"
            )
        else:
            dp._check_every_policy(model, stab.policy_radius)
    elif isinstance(stab, ConvexConcave):
        lower = np.asarray(stab.lower, dtype=float)
        upper = np.asarray(stab.upper, dtype=float)
        if np.any(lower > upper):
            raise StabilityError("order interval is empty")
        mask = model.feasible
        b_lower = model.aggregate(lower)[mask]
        b_upper = model.aggregate(upper)[mask]
        if np.any(b_lower < lower.repeat(model.n_actions).reshape(mask.shape)[mask] - 1e-9):
            raise StabilityError("aggregator maps the lower bracket below itself")
        if np.any(b_upper > upper.repeat(model.n_actions).reshape(mask.shape)[mask] + 1e-9):
            raise StabilityError("aggregator maps the upper bracket above itself")
    elif isinstance(stab, UserCertified):
        if not callable(stab.evaluator):
            raise StabilityError("user-certified class needs a callable evaluator")
    else:
        raise StabilityError(f"unknown stability class {type(stab).__name__}")


def rdp_policy_value(model, sigma, tolerance=1e-10, max_iter=200_000):
    """Fixed point of the policy operator, computed per stability class.

    Contracting classes with a declared Jacobian take Newton steps on it
    (:func:`fixed_point.newton_krylov` with ``h = 1`` and ``lam`` the
    modulus), so ``tolerance`` bounds ``||v - v_sigma||_inf``.  Other
    contracting and eventually-contracting classes iterate (the latter
    is certified by the dominating operator); interval classes
    squeeze the fixed point between iterations from both ends of the
    bracket.  A policy of the wrong shape or with an infeasible action
    raises ``ValueError`` before anything is evaluated.
    """
    sigma = dp._checked_policy(model, sigma)
    stab = model.stability
    if isinstance(stab, UserCertified):
        return np.asarray(stab.evaluator(model, sigma), dtype=float)
    apply = partial(rdp_policy_apply, model, sigma)
    n = model.n_states
    if isinstance(stab, Contracting) and model.jacobian is not None:
        jvp = partial(model.jacobian, sigma)
        return fixed_point.newton_krylov(
            apply, np.zeros(n), jvp, np.ones(n), stab.modulus, tolerance, max_iter
        )[0]
    if isinstance(stab, ConvexConcave):

        def gap(lo, hi):
            scale = 1.0 + np.max(np.abs(hi))
            return fixed_point.within(np.max(np.abs(hi - lo)), tolerance * scale)

        lo, hi, _ = fixed_point.squeeze(apply, stab.lower, stab.upper, 0.0, max_iter, gap)
        return 0.5 * (lo + hi)
    eps = np.finfo(float).eps

    def step(v_new, v):
        if not np.all(np.isfinite(v_new)):
            raise ConvergenceError("policy evaluation diverged", last=v)
        scale = 1.0 + np.max(np.abs(v_new))
        # A step below tol * (1 - modulus) pins the fixed point to tol;
        # the floor guards against stalling at rounding noise.
        if isinstance(stab, Contracting):
            threshold = max(tolerance * (1.0 - stab.modulus), 64 * eps * scale)
        else:
            threshold = tolerance * scale
        return fixed_point.within(np.max(np.abs(v_new - v)), threshold)

    return fixed_point.iterate(apply, np.zeros(n), 0.0, max_iter, error=step)[0]


def rdp_solve(
    model,
    mode="max",
    algorithm="hpi",
    sigma0=None,
    m=50,
    tolerance=1e-10,
    max_iter=100_000,
):
    """Solve an RDP by HPI, VFI, or OPI after verifying its certificate.

    Returns a :class:`~fsdp.dp.SolveResult`; the residual reported is the
    sup-norm Bellman residual of the returned value function.  HPI on a
    contracting model also reports ``error_bound``, the certified bound
    on ``||v - v_sigma||_inf`` of its final policy evaluation.  VFI starts
    from zero, or the bottom of the order interval for interval classes;
    HPI and OPI from ``sigma0``, by default greedy against that value.
    """
    verify_certificate(model)
    stab = model.stability
    greedy = lambda v: rdp_greedy(model, v, mode)
    v0 = np.zeros(model.n_states)
    if isinstance(stab, ConvexConcave):
        v0 = np.array(stab.lower, dtype=float)
    start = lambda: greedy(v0) if sigma0 is None else dp._checked_policy(model, sigma0)
    method, bound = f"rdp-{algorithm}", None
    if algorithm == "hpi":
        evaluated = []

        def evaluate(sigma):
            evaluated.append(sigma)
            return rdp_policy_value(model, sigma, tolerance)

        v, k = fixed_point.policy_iteration(greedy, evaluate, start(), max_iter)
        if isinstance(stab, Contracting):
            res = rdp_policy_apply(model, evaluated[-1], v) - v
            bound = fixed_point.error_bound(res, np.ones(model.n_states), stab.modulus)
    elif algorithm == "vfi":
        bellman = lambda v: rdp_bellman(model, v, mode)
        v, k, _ = fixed_point.value_iteration(bellman, v0, tolerance, max_iter)
    elif algorithm == "opi":
        operator = lambda sigma: partial(rdp_policy_apply, model, sigma)
        v = rdp_policy_value(model, start(), tolerance)
        v, k = fixed_point.optimistic_policy_iteration(greedy, operator, v, m, tolerance, max_iter)
        method = f"rdp-opi(m={m})"
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return dp._finish(v, *_improve(model, v, mode), k, method, bound)


# ---------------------------------------------------------------------------
# Constructors


def from_mdp(mdp_model):
    """Wrap an MDP as an RDP with the same Bellman equation.

    The policy operators are affine, with Jacobian the kernel's
    ``policy_operator``, so each evaluation is one certified linear solve.
    """
    if mdp_model.state_dependent:
        raise ValueError("wrap constant-discount models only")
    return RDPModel(
        feasible=mdp_model.feasible,
        aggregator=partial(dp.q_factors, mdp_model),
        stability=Contracting(mdp_model.beta),
        extras={"mdp": mdp_model},
        jacobian=lambda sigma, v: mdp_model.transitions.policy_operator(sigma),
    )


def make_robust_aggregator(reward, beta, kernels, penalty=None, slack=1.0):
    """Worst-case-kernel RDP: the adversary picks the least favorable law.

    ``kernels`` is a finite family of transition kernels (each
    ``(n, m, n)`` or flat); ``penalty`` optionally adds a per-kernel
    ``(n, m)`` compensation to the reward.  The model is concave over
    the order interval ``[(r_min - slack) / (1 - beta), r_max / (1 - beta)]``
    and solvable by any of the RDP algorithms.
    """
    reward = np.asarray(reward, dtype=float)
    markov.require_discount(beta)
    if len(kernels) == 0:
        raise ValueError("kernel family must be nonempty")
    n, m = reward.shape
    flats = [dp._flatten_kernel(k, n, m) for k in kernels]
    if penalty is None:
        penalties = [np.zeros((n, m)) for _ in flats]
    else:
        penalties = [np.asarray(pen, dtype=float) for pen in penalty]
        if len(penalties) != len(flats):
            raise ValueError("one penalty per kernel")
    feasible = np.ones((n, m), dtype=bool)

    def aggregator(v):
        v = np.asarray(v, dtype=float)
        best = None
        for flat, pen in zip(flats, penalties):
            ev = np.asarray(flat @ v).reshape(n, m)
            candidate = reward + pen + beta * ev
            best = candidate if best is None else np.minimum(best, candidate)
        return best

    effective = [reward + pen for pen in penalties]
    r_min = min(float(np.min(e)) for e in effective)
    r_max = max(float(np.max(e)) for e in effective)
    lower = np.full(n, (r_min - slack) / (1 - beta))
    upper = np.full(n, r_max / (1 - beta))
    return RDPModel(
        feasible=feasible,
        aggregator=aggregator,
        stability=ConvexConcave(lower, upper),
        extras={"kernels": flats, "penalties": penalties, "beta": beta},
    )


def make_smooth_ambiguity_aggregator(reward, beta, kernels, mu, alpha, kappa, gamma, slack=1.0):
    """Recursive smooth-ambiguity RDP with belief weights over kernels.

    ``mu`` holds per-state weights over the kernel family.  Parameters
    must satisfy ``kappa < gamma < 0 < alpha < 1`` (risk aversion
    ``gamma``, ambiguity aversion ``kappa``, intertemporal curvature
    ``alpha``).  Globally stable on
    ``[(r_min/(1-beta))^(1/alpha), ((r_max+slack)/(1-beta))^(1/alpha)]``.
    """
    reward = np.asarray(reward, dtype=float)
    if not (kappa < gamma < 0 < alpha < 1):
        raise ValueError("parameters must satisfy kappa < gamma < 0 < alpha < 1")
    markov.require_discount(beta)
    if np.any(reward <= 0):
        raise ValueError("rewards must be strictly positive")
    n, m = reward.shape
    flats = [dp._flatten_kernel(k, n, m) for k in kernels]
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (n, len(flats)):
        raise ValueError("mu must hold one weight per state and kernel")
    if np.any(mu < 0) or np.any(np.abs(mu.sum(axis=1) - 1.0) > 1e-10):
        raise ValueError("mu rows must be distributions over the kernel family")
    feasible = np.ones((n, m), dtype=bool)

    def aggregator(v):
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise ValueError("values must be strictly positive")
        inner = np.stack(
            [np.asarray(flat @ v**gamma).reshape(n, m) for flat in flats], axis=-1
        )
        mixed = np.einsum("xak,xk->xa", inner ** (kappa / gamma), mu)
        return (reward + beta * mixed ** (alpha / kappa)) ** (1 / alpha)

    r_min, r_max = float(np.min(reward)), float(np.max(reward))
    lower = np.full(n, (r_min / (1 - beta)) ** (1 / alpha))
    upper = np.full(n, ((r_max + slack) / (1 - beta)) ** (1 / alpha))
    return RDPModel(
        feasible=feasible,
        aggregator=aggregator,
        stability=ConvexConcave(lower, upper),
        extras={
            "kernels": flats,
            "mu": mu,
            "reward": reward,
            "beta": beta,
            "alpha": alpha,
            "kappa": kappa,
            "gamma": gamma,
            "bracket": (lower, upper),
        },
    )


def smooth_ambiguity_policy_value_conjugate(model, sigma, tolerance=1e-12, max_iter=200_000):
    """Policy value of a smooth-ambiguity model via its conjugate form.

    Transforms values by ``v -> v^kappa`` (an order-reversing bijection
    on the bracket), iterates the resulting concave operator from both
    ends of the transformed interval, and maps the limit back.
    """
    ex = model.extras
    kernels, mu = ex["kernels"], ex["mu"]
    reward, beta = ex["reward"], ex["beta"]
    alpha, kappa, gamma = ex["alpha"], ex["kappa"], ex["gamma"]
    xi, zeta = gamma / kappa, kappa / alpha
    n, m = reward.shape
    sigma = dp._checked_policy(model, sigma)
    rows = np.arange(n)
    r_sigma = reward[rows, sigma]

    def conjugate_apply(v_hat):
        inner = np.stack(
            [np.asarray(flat @ v_hat**xi).reshape(n, m)[rows, sigma] for flat in kernels],
            axis=-1,
        )
        mixed = np.einsum("xk,xk->x", inner ** (1 / xi), mu)
        return (r_sigma + beta * mixed ** (1 / zeta)) ** zeta

    lower, upper = ex["bracket"]
    # kappa < 0 reverses the interval under t -> t^kappa.  The gap is
    # relative to hi.
    lo, hi, _ = fixed_point.squeeze(
        conjugate_apply, upper**kappa, lower**kappa, tolerance, max_iter, fixed_point.relative_step
    )
    return (0.5 * (lo + hi)) ** (1 / kappa)


# ---------------------------------------------------------------------------
# Shortest paths and negative discount rates


def _successor_table(cost_matrix):
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    n = cost_matrix.shape[0]
    successors = [np.flatnonzero(np.isfinite(cost_matrix[x])) for x in range(n)]
    if any(s.size == 0 for s in successors):
        raise ValueError("every node needs at least one outgoing edge")
    m = max(s.size for s in successors)
    table = np.zeros((n, m), dtype=np.int64)
    mask = np.zeros((n, m), dtype=bool)
    for x, succ in enumerate(successors):
        table[x, : succ.size] = succ
        mask[x, : succ.size] = True
    return table, mask


def _max_cost_to_go(edge_cost, table, mask, beta, dest):
    worst = np.zeros(mask.shape[0])
    for _ in range(mask.shape[0] + 1):
        worst = dp._select(edge_cost + beta * worst[table], mask, "max")[1]
        worst[dest] = 0.0
    if not np.all(np.isfinite(worst)):
        raise ValueError("maximum path cost is unbounded; graph has an off-destination cycle")
    return worst


def path_cost_model(cost_matrix, dest, beta=1.0):
    """Min-cost path RDP on a directed graph with a destination self-loop.

    ``cost_matrix[x, x']`` is the edge cost (``inf`` for absent edges);
    the destination must carry a zero-cost self-loop and be reachable
    from every node, costs are strictly positive off the destination,
    and ``beta >= 1`` scales continuation costs (``beta > 1`` models a
    negative rate of time preference).
    """
    cost_matrix = np.asarray(cost_matrix, dtype=float)
    n = cost_matrix.shape[0]
    if beta < 1:
        raise ValueError("beta must be >= 1; use an MDP for discounted problems")
    if not np.isfinite(cost_matrix[dest, dest]) or cost_matrix[dest, dest] != 0:
        raise ValueError("destination needs a zero-cost self-loop")
    finite = np.isfinite(cost_matrix)
    offdest = finite.copy()
    offdest[dest, dest] = False
    if np.any(cost_matrix[offdest] <= 0):
        raise ValueError("zero or negative edge cost off the destination")
    # Reachability of the destination through the reverse graph.
    if not markov._all_reachable(finite.T, dest):
        raise ValueError("destination unreachable from some nodes")

    table, mask = _successor_table(cost_matrix)
    edge_cost = cost_matrix[np.arange(n)[:, None], table]
    worst = _max_cost_to_go(edge_cost, table, mask, beta, dest)

    def aggregator(v):
        v = np.asarray(v, dtype=float)
        return edge_cost + beta * v[table]

    model = RDPModel(
        feasible=mask,
        aggregator=aggregator,
        stability=ConvexConcave(np.zeros(n), worst),
        extras={"successors": table, "dest": dest, "beta": beta, "max_cost": worst},
    )
    return model


def solve_path_costs(cost_matrix, dest, beta=1.0, algorithm="hpi"):
    """Minimum cost-to-go and min-greedy successor map for a cost graph.

    Returns a :class:`~fsdp.dp.SolveResult` whose policy holds successor
    node indices (not action slots).
    """
    model = path_cost_model(cost_matrix, dest, beta)
    result = rdp_solve(model, mode="min", algorithm=algorithm)
    table = model.extras["successors"]
    successor = table[np.arange(model.n_states), result.policy]
    result.policy = successor
    return result


def negative_discount_solve(cost_matrix, beta, dest, algorithm="hpi"):
    """Min-cost traversal with a negative rate of time preference (beta > 1)."""
    if beta <= 1:
        raise ValueError("negative-discount problems need beta > 1")
    return solve_path_costs(cost_matrix, dest, beta, algorithm)
