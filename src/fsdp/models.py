"""Model zoo: parameterized builders for the worked examples.

Each entry packages default parameters, a builder mapping parameters to
solver-ready models, and helper routines (simulation, summary
statistics).  Defaults are fixed reference calibrations; tests may pass
overrides (for instance grid downsizing) through the card registry.
"""

import importlib
import itertools

import numpy as np

from . import ctmdp, dp, fixed_point, koopmans, markov, rdp, spectral

# ---------------------------------------------------------------------------
# Job search, IID offers


def job_search_iid(n=50, w_min=10.0, w_max=60.0, a=200, b=100, beta=0.96, c=10.0):
    """Job search with IID wage offers from a beta-binomial distribution.

    States stack (unemployed, offer w) then (employed, wage w); accepting
    freezes the wage.  Returns the MDP plus the pieces needed for the
    scalar continuation-value recursion.
    """
    from scipy.special import betaln, comb
    for name, value in (("a", a), ("b", b)):
        if not value > 0:
            raise ValueError(f"beta-binomial parameter {name} must be positive, got {value!r}")
    wages = np.linspace(w_min, w_max, n + 1)
    draws = np.arange(n + 1)
    # Beta-binomial(n, a, b) pmf.
    offer_probs = comb(n, draws) * np.exp(betaln(draws + a, n - draws + b) - betaln(a, b))
    offer_probs = offer_probs / offer_probs.sum()
    nw = wages.size
    mdp_model = _job_search_mdp(wages, np.broadcast_to(offer_probs, (nw, nw)), c, beta, 0.0)
    return {
        "mdp": mdp_model,
        "wages": wages,
        "offer_probs": offer_probs,
        "beta": beta,
        "c": c,
        "unemployed": slice(0, nw),
        "employed": slice(nw, 2 * nw),
    }


def _csr(counts, n_cols, *parts):
    """CSR with ``counts[r]`` entries in row ``r``, written in place from ``parts``.

    Each part yields the ``(data, indices)`` of the next rows, columns
    ascending in each row, so one chunk at a time is alive beside it.
    """
    import scipy.sparse as sp
    indptr = np.concatenate(([0], np.cumsum(counts)))
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
    end = 0
    for chunk, columns in itertools.chain(*parts):
        start, end = end, end + np.size(chunk)
        data[start:end], indices[start:end] = np.ravel(chunk), np.ravel(columns)
    return sp.csr_matrix((data, indices, indptr), shape=(len(counts), n_cols))


def _rows_then_one(rows, last, columns, scale=1.0):
    """:func:`_csr` chunks: ``scale`` times row ``i`` of ``rows``, then ``last`` at ``columns[i]``.

    ``rows`` is dense, or CSR storing no zeros; zeros are not stored.
    """
    import scipy.sparse as sp
    # A dense block goes through COO: a sixteenth of the rows, or 2**14 cells if more.
    step = max(1, rows.shape[0] // 16, 2**14 // rows.shape[1])
    for lo in range(0, rows.shape[0], step):
        block = sp.csr_matrix(rows[lo:lo + step])
        ends = block.indptr[1:]
        yield np.insert(scale * block.data, ends, last), np.insert(block.indices, ends, columns[lo:lo + step])


def _job_search_mdp(wages, offers, c, beta, sep):
    """Job search over (unemployed, offer ``i``) then (employed, wage ``i``) states.

    Row ``i`` of ``offers`` is the law of the next offer from offer or
    wage ``i``.  Rejecting pays ``c`` and draws it; accepting starts the
    job at the offered wage; a job ends with probability ``sep``, leaving
    the worker with a fresh offer.  Zero probabilities are not stored.
    """
    nw = wages.size
    employed = nw + np.arange(nw)
    feasible = np.zeros((2 * nw, 2), dtype=bool)
    feasible[:nw] = True
    feasible[nw:, 1] = True
    reward = np.zeros((2 * nw, 2))
    reward[:nw, 0] = c
    reward[:nw, 1] = wages
    reward[nw:, 1] = wages
    # Row 2 * state + action; the employed only ever hold (action 1), and
    # a lasting job stores no draws.
    draws = np.count_nonzero(offers, axis=1)
    counts = np.column_stack([np.append(draws, 0 * draws), np.append(np.ones_like(draws), (sep > 0) * draws + 1)])
    held = _rows_then_one(offers, 1.0 - sep, employed, sep) if sep > 0 else [(np.ones(nw), employed)]
    kernel = _csr(counts.reshape(-1), 2 * nw, _rows_then_one(offers, 1.0, employed), held)
    return dp.MDPModel(feasible=feasible, reward=reward, kernel=kernel, beta=beta)


def job_search_iid_continuation(built, tolerance=1e-10, max_iter=10_000):
    """Scalar recursion for the IID continuation value.

    Iterates ``h <- c + beta * sum max(w / (1 - beta), h) phi(w)`` and
    returns ``(h_star, reservation_wage)``.
    """
    wages, phi = built["wages"], built["offer_probs"]
    beta, c = built["beta"], built["c"]
    stopping = wages / (1 - beta)
    h, _, _ = fixed_point.value_iteration(
        lambda h: c + beta * float(np.maximum(stopping, h) @ phi), 0.0, tolerance, max_iter
    )
    return h, (1 - beta) * h


# ---------------------------------------------------------------------------
# Job search with Markov wages (plain / separation / risk-sensitive / quantile)


def job_search_markov(
    variant="plain",
    n=200,
    rho=0.9,
    nu=0.2,
    beta=0.98,
    c=1.0,
    alpha=0.1,
    theta=-1.0,
    tau=0.5,
):
    """Job search with persistent wage offers.

    Variants: "plain" (permanent jobs), "separation" (jobs end at rate
    ``alpha``), "risk_sensitive" (entropic continuation with parameter
    ``theta``), and "quantile" (tau-quantile continuation).  The first
    two build MDPs over (employment status, wage); the last two build
    contracting RDPs over the wage state alone.  Their continuation is
    the Koopmans operator ``c + beta C(v)`` of
    :class:`~fsdp.koopmans.Entropic` or :class:`~fsdp.koopmans.QuantileCE`,
    and the (generalized) Jacobian of a policy operator is that
    operator's Jacobian on continuing states, else 0.
    """
    grid, p = markov.tauchen(n, rho=rho, nu=nu)
    wages = np.exp(grid)
    if variant in ("plain", "separation"):
        sep = 0.0 if variant == "plain" else alpha
        mdp_model = _job_search_mdp(wages, p, c, beta, sep)
        return {
            "mdp": mdp_model,
            "wages": wages,
            "transition": p,
            "beta": beta,
            "c": c,
            "unemployed": slice(0, wages.size),
        }

    if variant == "risk_sensitive":
        if theta == 0:
            raise ValueError("theta must be nonzero; use the plain variant instead")
        ce = koopmans.Entropic(theta, p)
    elif variant == "quantile":
        ce = koopmans.QuantileCE(tau, p)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    continuation = koopmans.KoopmansOperator(koopmans.Additive(c, beta), ce)
    stopping = wages / (1 - beta)

    def aggregator(v):
        return np.column_stack([continuation(v), stopping])

    def jacobian(sigma, v):
        cont, linear = sigma == 0, continuation.jacobian(v)
        return lambda d: np.where(cont, linear(d), 0.0)

    model = rdp.RDPModel(
        feasible=np.ones((n, 2), dtype=bool),
        aggregator=aggregator,
        stability=rdp.Contracting(beta),
        extras={"wages": wages},
        jacobian=jacobian,
    )
    return {
        "rdp": model,
        "wages": wages,
        "transition": p,
        "beta": beta,
        "c": c,
        "unemployed": slice(0, n),
    }


def job_search_reservation_wage(built, result=None):
    """Smallest wage at which the solved policy accepts (action 1), or ``inf``.

    Serves every job search: IID, Markov and continuous-time.  Without
    ``result`` the continuous-time model is solved by :func:`fsdp.ctmdp.ct_hpi`.
    """
    if result is None:
        result = ctmdp.ct_hpi(built["ctmdp"])
    accept = result.policy[built["unemployed"]] == 1
    if not accept.any():
        return float("inf")
    return float(built["wages"][accept].min())


job_search_iid_reservation_wage = ct_reservation_wage = job_search_reservation_wage


# ---------------------------------------------------------------------------
# Firm exit


def firm_exit(n=200, rho=0.95, mu=0.1, nu=0.1, beta=0.98, s=100.0):
    """Productivity-driven exit option with scrap value ``s``.

    Profit equals the productivity state; exiting pays the scrap value
    once and moves to an absorbing zero-reward state.  The value of never
    exiting solves ``(I - beta q) u = profits`` before the kernel is built,
    on one table rounded as ``eye(n) - beta q``: ``0 - x``, ``1 - x`` on
    the diagonal.
    """
    grid, q = markov.tauchen(n, rho=rho, nu=nu, b=mu)
    profits = grid
    markov.require_discount(beta)
    lhs = beta * q
    np.subtract(0.0, lhs, out=lhs)
    np.fill_diagonal(lhs, 1.0 + lhs.diagonal())
    no_exit_value = np.linalg.solve(lhs, profits)
    del lhs
    mdp_model = _stopping_mdp(q, profits, s, beta)
    return {
        "mdp": mdp_model,
        "grid": grid,
        "profits": profits,
        "transition": q,
        "no_exit_value": no_exit_value,
        "scrap": s,
        "beta": beta,
        "active": slice(0, n),
    }


def _stopping_mdp(continue_rows, continue_reward, stop_reward, beta):
    """Continue-or-stop MDP over the live states plus a trailing absorbing exit state.

    Action 0 pays ``continue_reward`` and moves by ``continue_rows``
    (dense, or CSR storing no zeros; live by live); action 1 pays
    ``stop_reward`` and exits for good.  The exit state only continues,
    at zero reward.
    """
    n = continue_rows.shape[0]
    feasible = np.ones((n + 1, 2), dtype=bool)
    feasible[n, 1] = False
    reward = np.zeros((n + 1, 2))
    reward[:n, 0] = continue_reward
    reward[:n, 1] = stop_reward
    moves = np.asarray((continue_rows != 0).sum(axis=1)).reshape(-1)
    counts = np.append(np.column_stack([moves, np.ones_like(moves)]), [1, 0])
    kernel = _csr(counts, n + 1, _rows_then_one(continue_rows, 1.0, np.full(n, n)), [(1.0, n)])
    return dp.MDPModel(feasible=feasible, reward=reward, kernel=kernel, beta=beta)


def _rate_discount(r):
    """The discount ``1 / (1 + r)`` of an interest rate ``r > 0``."""
    if not r > 0:
        raise ValueError(f"interest rate r must be positive, got {r!r}")
    return 1.0 / (1.0 + r)


# ---------------------------------------------------------------------------
# American option via continuation values


def american_option(n=100, mu=10.0, rho=0.98, nu=0.2, s=0.3, r=0.01, K=10.0, T=200):
    """Finite-horizon call option embedded in an infinite-horizon problem.

    The share price is a persistent component plus a binary transient
    shock ``+-s``.  Solved on the reduced (date, persistent-state) space
    with the continuation-value operator, a contraction of modulus
    ``1/(1+r)``.
    """
    grid, q = markov.tauchen(n, rho=rho, nu=nu)
    z_vals = grid + mu
    beta = _rate_discount(r)
    w_vals = np.array([-s, s])
    w_probs = np.array([0.5, 0.5])
    # Date index i stands for date i+1; the option is live while i < T.
    n_dates = T + 1

    def exit_reward(date_idx):
        # One (w, z) table per date index; an array of dates stacks them.
        return np.multiply.outer(np.less(date_idx, T), z_vals[None, :] + w_vals[:, None] - K)

    def continuation_operator(h):
        out = np.empty_like(h)
        for i in range(n_dates):
            nxt = min(i + 1, n_dates - 1)
            payoff = exit_reward(nxt)  # (w, z)
            best = np.maximum(payoff, h[nxt][None, :])
            inner = w_probs @ best  # (z,)
            out[i] = beta * (q @ inner)
        return out

    return {
        "z_vals": z_vals,
        "transition": q,
        "w_vals": w_vals,
        "w_probs": w_probs,
        "beta": beta,
        "strike": K,
        "horizon": T,
        "exit_reward": exit_reward,
        "continuation_operator": continuation_operator,
        "n_dates": n_dates,
    }


def solve_american_option(built, tolerance=1e-10, max_iter=100_000):
    """Continuation-value fixed point ``h*(date, z)``."""
    h = np.zeros((built["n_dates"], built["z_vals"].size))
    return fixed_point.value_iteration(built["continuation_operator"], h, tolerance, max_iter)[0]


def american_option_mdp(built):
    """Full-state MDP over (date, transient shock, persistent state).

    Exercising pays the exit reward and jumps to an absorbing state;
    used as a cross-check for the reduced continuation-value solution.
    """
    import scipy.sparse as sp
    z_vals, q = built["z_vals"], built["transition"]
    w_probs, n_dates = built["w_probs"], built["n_dates"]
    nz, nw = z_vals.size, w_probs.size
    dates = np.arange(n_dates)
    # Date i moves to date i + 1 (the last date repeats), the shock is
    # redrawn and z moves by q.
    nxt = np.minimum(dates + 1, n_dates - 1)
    shift = sp.csr_matrix((np.ones(n_dates), (dates, nxt)), shape=(n_dates, n_dates))
    moves = sp.kron(shift, np.kron(np.tile(w_probs, (nw, 1)), q), format="csr")
    payoff = built["exit_reward"](dates).reshape(-1)
    model = _stopping_mdp(moves, 0.0, payoff, built["beta"])

    def idx(i, iw, iz):
        return (i * nw + iw) * nz + iz

    return model, idx


# ---------------------------------------------------------------------------
# Research & development stopping with IID costs


def rnd_model(
    pi_values=None,
    transition=None,
    beta=0.96,
    cost_values=(0.5, 1.5),
    cost_probs=(0.5, 0.5),
    n=30,
    rho=0.85,
    nu=0.3,
):
    """Stop-and-market decision with IID development costs.

    Solves the expected-value recursion ``g(x) = sum max(pi(x'),
    -c' + beta g(x')) phi(c') P(x, x')``, which lives on the persistent
    state alone.
    """
    if pi_values is None or transition is None:
        grid, transition = markov.tauchen(n, rho=rho, nu=nu)
        pi_values = np.exp(grid)
    pi_values = np.asarray(pi_values, dtype=float)
    transition = markov.require_stochastic_matrix(transition)
    cost_values = np.asarray(cost_values, dtype=float)
    cost_probs = markov.require_distribution(np.asarray(cost_probs, dtype=float))

    def ev_operator(g):
        # max over stopping vs continuing, cost integrated out.
        candidates = np.maximum(
            pi_values[None, :], -cost_values[:, None] + beta * g[None, :]
        )
        inner = cost_probs @ candidates
        return transition @ inner

    return {
        "pi": pi_values,
        "transition": transition,
        "beta": beta,
        "cost_values": cost_values,
        "cost_probs": cost_probs,
        "ev_operator": ev_operator,
    }


def solve_rnd(built, tolerance=1e-12, max_iter=100_000):
    """Fixed point of the expected-value recursion plus the stop rule."""
    g = np.zeros(built["pi"].size)
    g = fixed_point.value_iteration(built["ev_operator"], g, tolerance, max_iter)[0]
    # Stop (market the product) when the payoff beats continuing.
    policy = (
        built["pi"][None, :] >= -built["cost_values"][:, None] + built["beta"] * g[None, :]
    )
    return g, policy


# ---------------------------------------------------------------------------
# Inventory management


def _geometric_demand(p, d_max):
    demand = p * (1 - p) ** np.arange(d_max + 1)
    return demand / demand.sum()


def _whole(value, name):
    """``value`` as an int, or ValueError naming ``name`` unless it is a whole number >= 0."""
    if not (value >= 0 and value % 1 == 0):
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


def _restock(K, c, kappa, p, d_max):
    """Feasibility, rewards and kernel ``(n, n, n)`` of a store of capacity ``K``, ``n = K + 1``.

    From stock ``x`` an order ``a`` is feasible while ``x + a <= K``; it
    earns the expected sales less ``c a`` and, when positive, the fixed
    cost ``kappa``, and the next stock is ``max(x - D, 0) + a`` under
    geometric demand ``D``.  Infeasible pairs get reward ``-inf`` and a
    zero row.
    """
    d_max = _whole(d_max, "d_max")
    phi = _geometric_demand(p, d_max)
    d_vals = np.arange(d_max + 1)
    stock = np.arange(K + 1)
    feasible = np.add.outer(stock, stock) <= K
    # Stacked (1, D) @ (D, 1) products take one BLAS dot per stock level,
    # which rounds as a per-level dot does; a matrix-vector product does not.
    sales = (np.minimum(stock[:, None], d_vals)[:, None, :] @ phi[:, None])[:, 0, 0]
    reward = np.where(feasible, sales[:, None] - c * stock - kappa * (stock > 0), -np.inf)
    # Law of max(x - D, 0); add.at sums the demand at or above x in order.
    left = np.zeros((K + 1, K + 1))
    np.add.at(left, (stock[:, None], np.maximum(stock[:, None] - d_vals, 0)), phi)
    x, a, j = np.nonzero(feasible[:, :, None] & feasible)  # x + a <= K and a + j <= K
    kernel = np.zeros((K + 1, K + 1, K + 1))
    kernel[x, a, a + j] = left[x, j]
    return feasible, reward, kernel


def inventory_mdp(beta=0.98, K=40, c=0.2, kappa=2.0, p=0.6, d_max=100):
    """Inventory control with fixed ordering costs and geometric demand."""
    feasible, reward, kernel = _restock(K, c, kappa, p, d_max)
    return {
        "mdp": dp.MDPModel(feasible=feasible, reward=reward, kernel=kernel, beta=beta),
        "demand_probs": _geometric_demand(p, d_max),
        "capacity": K,
    }


def simulate_inventory(built, result, steps=10_000, seed=0):
    """Simulate stock under the solved ordering policy, from an empty stock."""
    phi = built["demand_probs"]
    rng = np.random.default_rng(seed)
    demand = rng.choice(phi.size, size=steps, p=phi)
    sigma = np.asarray(result.policy, dtype=np.int64)
    # Stock x meeting demand d restocks to max(x - d, 0) + sigma(x).
    table = np.maximum(np.subtract.outer(np.arange(sigma.size), np.arange(phi.size)), 0)
    path = _follow_policy(table + sigma[:, None], 0, demand)
    return path, sigma[path[:-1]]


def inventory_sdd(
    rho=0.98,
    nu=0.002,
    n_z=20,
    b=0.97,
    K=40,
    c=0.2,
    kappa=0.8,
    p=0.6,
    d_max=100,
):
    """Inventory model with an exogenous discount-factor process.

    The discount factor equals the current exogenous state.  The kernel
    is factored: the stock moves by the small restock kernel, the
    discount state by ``Q``.  Stability is ``rho(diag(z) Q) < 1`` on the
    exogenous block, which carries over to every policy because actions
    cannot influence the exogenous chain; the :class:`fsdp.dp.Factored`
    kernel checks it from the factors when the model is built.
    """
    z_grid, q = markov.tauchen(n_z, rho=rho, nu=nu)
    z_vals = z_grid + b
    l_z = z_vals[:, None] * q
    feasible_y, reward_y, restock = _restock(K, c, kappa, p, d_max)

    # State y * n_z + iz.
    model = dp.MDPModel(
        feasible=np.repeat(feasible_y, n_z, axis=0),
        reward=np.repeat(reward_y, n_z, axis=0),
        kernel=dp.Factored(q, z_vals, endogenous=restock),
    )
    return {
        "mdp": model,
        "z_vals": z_vals,
        "discount_radius": spectral.spectral_radius(l_z),
        "capacity": K,
        "n_z": n_z,
        "exogenous_certificate": l_z,
    }


# ---------------------------------------------------------------------------
# Optimal savings


def crra_utility(c, gamma):
    return np.log(c) if gamma == 1 else c ** (1 - gamma) / (1 - gamma)


def _crra_in_place(c, gamma):
    """:func:`crra_utility` of ``c`` written over it, -inf where ``c <= 0`` (1 meanwhile, so nothing warns); returns ``c > 0``."""
    positive = c > 0
    c[~positive] = 1.0
    if gamma == 1:
        np.log(c, out=c)
    else:
        c **= 1 - gamma
        c /= 1 - gamma
    c[~positive] = -np.inf
    return positive


def _choice_mdp(reward, q, beta, feasible=None):
    """MDP whose action is the next endogenous index, beside the exogenous chain ``q``.

    ``reward`` and ``feasible`` (every pair when omitted) are indexed
    ``(e, z..., e')``: the state is ``e`` and the exogenous index, read in
    C order, and the action is ``e'``.
    """
    shape = (int(np.prod(reward.shape[:-1])), reward.shape[-1])
    feasible = np.ones(shape, dtype=bool) if feasible is None else feasible.reshape(shape)
    return dp.MDPModel(feasible=feasible, reward=reward.reshape(shape), kernel=dp.Factored(q, beta))


def _savings(beta, gamma, w_min, w_max, w_size, rho, nu, y_size, eta_grid, eta_probs):
    """Savings over states (wealth, income, gross return), action next-period wealth.

    Income follows a Tauchen chain and the return ``eta`` is IID with
    law ``eta_probs``; consumption is ``w + y - w'/eta`` and must be
    positive.  Its utility is written over the consumption table.
    """
    w_grid = np.linspace(w_min, w_max, w_size)
    y_grid_log, q = markov.tauchen(y_size, rho=rho, nu=nu)
    y_grid = np.exp(y_grid_log)
    reward = (
        w_grid[:, None, None, None]
        + y_grid[None, :, None, None]
        - w_grid[None, None, None, :] / eta_grid[None, None, :, None]
    )
    feasible = _crra_in_place(reward, gamma)
    # Exogenous state (income, return): q[iy, iy'] * eta_probs[ie'].
    exogenous = np.kron(q, np.tile(eta_probs, (eta_probs.size, 1)))
    return {
        "mdp": _choice_mdp(reward, exogenous, beta, feasible),
        "w_grid": w_grid,
        "y_grid": y_grid,
        "transition": q,
    }


def optimal_savings(
    R=1.01,
    beta=0.98,
    gamma=2.5,
    w_min=0.01,
    w_max=20.0,
    w_size=200,
    rho=0.9,
    nu=0.1,
    y_size=5,
):
    """Consumption-saving problem with persistent labor income.

    State (wealth, income), action next-period wealth; consumption is
    ``w + y - w'/R`` and must be positive.  This is the savings card
    with one gross return ``R``.
    """
    built = _savings(beta, gamma, w_min, w_max, w_size, rho, nu, y_size, np.array([R]), np.ones(1))
    return {**built, "R": R, "shape": (w_size, y_size)}


def _follow_policy(table, e0, z):
    """Endogenous path ``e[t + 1] = table[e[t], z[t]]`` from ``e[0] = e0``."""
    rows = table.tolist()
    path = [e0]
    for zt in z.tolist():
        path.append(rows[path[-1]][zt])
    return np.array(path, dtype=np.int64)


def _simulate_choice(built, result, e0, z0, steps, seed):
    """Endogenous and exogenous index paths of a choice card under its solved policy.

    The Markov index starts at ``z0`` and moves by ``built["transition"]``;
    the IID components sized by ``built["shape"][2:]`` are drawn after
    it.  The endogenous index follows the policy from ``e0``.  Returns
    ``steps + 1`` endogenous and ``steps`` exogenous indices.
    """
    n_e, _, *iid = built["shape"]
    rng = np.random.default_rng(seed)
    z = markov._sample_path(built["transition"], z0, rng.random(steps))[:steps]
    for size in iid:
        z = z * size + rng.integers(0, size, size=steps)
    return _follow_policy(result.policy.reshape(n_e, -1), e0, z), z


def simulate_savings_wealth(built, result, steps=1_000_000, seed=0, w0_index=0):
    """Long wealth series under the optimal policy."""
    wealth, _ = _simulate_choice(built, result, w0_index, 0, steps, seed)
    return built["w_grid"][wealth]


def gini_coefficient(samples):
    """Gini index from the mean absolute difference of a sample."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    ranks = np.arange(1, n + 1)
    return float((2 * ranks - n - 1) @ x / (n * x.sum()))


def optimal_savings_stochastic_returns(
    beta=0.98,
    gamma=2.5,
    w_min=0.01,
    w_max=20.0,
    w_size=100,
    rho=0.9,
    nu=0.1,
    y_size=20,
    eta_min=0.75,
    eta_max=1.25,
    eta_size=2,
):
    """Savings with IID gross returns drawn each period.

    State (wealth, income, current return), action next-period wealth;
    consumption is ``w + y - w'/eta``.
    """
    eta_grid = np.linspace(eta_min, eta_max, eta_size)
    eta_probs = np.full(eta_size, 1.0) / eta_size
    built = _savings(beta, gamma, w_min, w_max, w_size, rho, nu, y_size, eta_grid, eta_probs)
    shape = (w_size, y_size, eta_size)
    return {**built, "eta_grid": eta_grid, "eta_probs": eta_probs, "shape": shape}


simulate_savings_wealth_stochastic = simulate_savings_wealth


# ---------------------------------------------------------------------------
# Optimal investment and firm hiring


def optimal_investment(
    r=0.04,
    a0=10.0,
    a1=1.0,
    gamma=25.0,
    c=1.0,
    y_min=0.0,
    y_max=20.0,
    y_size=100,
    rho=0.9,
    nu=1.0,
    z_size=25,
):
    """Monopolist with quadratic capacity-adjustment costs."""
    beta = _rate_discount(r)
    y_grid = np.linspace(y_min, y_max, y_size)
    z_grid, q = markov.tauchen(z_size, rho=rho, nu=nu)
    profit = (
        (a0 - a1 * y_grid[:, None] + z_grid[None, :] - c) * y_grid[:, None]
    )  # (y, z)
    adjustment = gamma * (y_grid[None, :] - y_grid[:, None]) ** 2  # (y, y')
    return {
        "mdp": _choice_mdp(profit[:, :, None] - adjustment[:, None, :], q, beta),
        "y_grid": y_grid,
        "z_grid": z_grid,
        "transition": q,
        "shape": (y_size, z_size),
        "target_output": lambda z: (a0 - c + z) / (2 * a1),
        "params": dict(a0=a0, a1=a1, gamma=gamma, c=c, rho=rho),
    }


def simulate_investment(built, result, steps=10_000, seed=0):
    """Optimal output path alongside the zero-adjustment-cost target."""
    y_size, z_size = built["shape"]
    output, shocks = _simulate_choice(built, result, y_size // 2, z_size // 2, steps, seed)
    return built["y_grid"][output[:steps]], built["target_output"](built["z_grid"][shocks])


def firm_hiring(
    r=0.04,
    kappa=1.0,
    alpha=0.4,
    p=1.0,
    w=1.0,
    l_min=0.0,
    l_max=30.0,
    l_size=100,
    rho=0.9,
    nu=0.4,
    b=1.0,
    z_size=100,
    m_width=6.0,
):
    """Labor demand with a fixed cost of adjusting headcount."""
    beta = _rate_discount(r)
    l_grid = np.linspace(l_min, l_max, l_size)
    z_grid, q = markov.tauchen(z_size, rho=rho, nu=nu, b=b, m=m_width)
    output = p * z_grid[None, :] * l_grid[:, None] ** alpha  # (l, z)
    wage_bill = w * l_grid
    adjust = kappa * (l_grid[None, :] != l_grid[:, None])  # (l, l')
    reward = output[:, :, None] - wage_bill[:, None, None] - adjust[:, None, :]
    return {
        "mdp": _choice_mdp(reward, q, beta),
        "l_grid": l_grid,
        "z_grid": z_grid,
        "transition": q,
        "shape": (l_size, z_size),
    }


def simulate_hiring(built, result, steps=10_000, seed=0):
    labor, _ = _simulate_choice(built, result, 0, built["shape"][1] // 2, steps, seed)
    return built["l_grid"][labor]


# ---------------------------------------------------------------------------
# Sovereign default


def optimal_default(
    beta=0.95,
    q_price=0.96,
    reentry=0.25,
    haircut=0.9,
    crra=2.0,
    y_size=20,
    rho=0.9,
    nu=0.1,
    b_min=-0.6,
    b_max=0.4,
    b_size=20,
):
    """Sovereign borrowing with a default option and random re-entry.

    State (income, bonds, default flag); while in default the country
    consumes ``haircut * y`` and has no choices.  Defaulting resets debt
    to zero; re-entry occurs with probability ``reentry`` each period.
    Returns a contracting RDP plus the underlying MDP.  Repayment utility
    is written over its consumption in the reward table, and the kernel
    as CSR one income at a time.
    """
    if b_size < 1:
        raise ValueError(f"b_size must be at least 1, got {b_size!r}")
    for name, value in (("q_price", q_price), ("b_min", b_min), ("b_max", b_max)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    y_grid_log, q = markov.tauchen(y_size, rho=rho, nu=nu)
    y_grid = np.exp(y_grid_log)
    b_grid = np.linspace(b_min, b_max, b_size)
    zero_idx = int(np.argmin(np.abs(b_grid)))
    b_grid[zero_idx] = 0.0
    n = y_size * b_size * 2
    m = b_size + 1  # bond choices plus the default action
    default_action = b_size

    def state_index(iy, ib, d):
        return (iy * b_size + ib) * 2 + d

    # Repaying from good standing: choose next bonds, consume y + b - q b'.
    reward = np.full((y_size, b_size, 2, m), -np.inf)
    consumption = reward[:, :, 0, :b_size]  # a view: the utility is written over it
    np.subtract(y_grid[:, None, None] + b_grid[None, :, None], q_price * b_grid, out=consumption)
    repay = _crra_in_place(consumption, crra)
    feasible = np.zeros((y_size, b_size, 2, m), dtype=bool)
    feasible[:, :, 0, :b_size] = repay
    feasible[..., default_action] = True
    reward[..., default_action] = crra_utility(haircut * y_grid, crra)[:, None, None]
    # Repaying moves to (jy, b', good).  Defaulting, from either standing,
    # wipes the debt, haircuts consumption and re-enters at random.  Each
    # stored row is one unit of y_size entries, over jy, or two for a
    # default: kind ba < b_size repays into bonds ba, and kinds b_size and
    # m are the halves of the default's (jy, standing) entries.
    jy = np.arange(y_size)
    repays = state_index(jy, np.arange(b_size)[:, None], 0)
    columns = np.vstack([repays, state_index(jy[:, None], zero_idx, np.arange(2)).reshape(2, -1)])
    counts = y_size * feasible.reshape(n, m)
    counts[:, default_action] *= 2
    units = np.ones((b_size, 2, m + 1), dtype=bool)  # the kinds each (bonds, standing) stores
    units[:, 1, :b_size] = False

    def chunks():
        for iy in range(y_size):  # one income's states, rows and entries are contiguous
            units[:, 0, :b_size] = repay[iy]
            kinds = np.nonzero(units)[-1]
            default = np.stack([reentry * q[iy], (1 - reentry) * q[iy]], axis=-1).reshape(2, -1)
            yield np.vstack([np.broadcast_to(q[iy], (b_size, y_size)), default])[kinds], columns[kinds]

    kernel = _csr(counts.reshape(-1), n, chunks())
    feasible, reward = feasible.reshape(n, m), reward.reshape(n, m)
    mdp_model = dp.MDPModel(feasible=feasible, reward=reward, kernel=kernel, beta=beta)
    return {
        "mdp": mdp_model,
        "rdp": rdp.from_mdp(mdp_model),
        "y_grid": y_grid,
        "b_grid": b_grid,
        "zero_bond_index": zero_idx,
        "default_action": default_action,
        "state_index": state_index,
        "shape": (y_size, b_size),
    }


def default_region(built, result):
    """Boolean (income, bonds) table: does the solved policy default?"""
    y_size, b_size = built["shape"]
    good = built["state_index"](np.arange(y_size)[:, None], np.arange(b_size), 0)
    return result.policy[good] == built["default_action"]


# ---------------------------------------------------------------------------
# Recursive-utility savings with an IID endowment shock


def ez_savings(psi=1.97, beta=0.96, gamma=-7.89, n=80, p=0.5, e_max=0.5, w_size=50, w_max=2.0):
    """Savings under recursive utility with IID endowment shocks.

    ``psi`` is the intertemporal elasticity, ``gamma`` the risk
    parameter; the endowment has a scaled binomial distribution on
    ``n`` points.
    """
    from scipy.special import comb
    alpha = 1.0 - 1.0 / psi
    draws = np.arange(n)
    # Binomial(n - 1, p) pmf.
    phi = comb(n - 1, draws) * p**draws * (1 - p) ** (n - 1 - draws)
    phi = phi / phi.sum()
    e_grid = np.linspace(1e-5, e_max, n)
    w_grid = np.linspace(0.0, w_max, w_size)
    return {
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "phi": phi,
        "e_grid": e_grid,
        "w_grid": w_grid,
    }


def ez_savings_solve_direct(built, tolerance=1e-9, max_policy_iter=200):
    """Policy iteration on the full (wealth, endowment) state space.

    Every state evaluation recomputes the risk-adjusted continuation
    from the value table (an O(|E|) reduction per call), so greedy
    sweeps do O(|W| |E|) such reductions; eliminating that redundancy
    is exactly what the endowment-averaged path is for.
    """
    alpha, beta, gamma = built["alpha"], built["beta"], built["gamma"]
    phi, e_grid, w_grid = built["phi"], built["e_grid"], built["w_grid"]
    nw, ne = w_grid.size, e_grid.size

    def greedy(v):
        sigma = np.zeros((nw, ne), dtype=np.int64)
        for iw in range(nw):
            feas = iw + 1
            for ie in range(ne):
                # Risk-adjusted continuation recomputed per state.
                cont = (np.power(v[:feas, :], gamma) @ phi) ** (1 / gamma)
                r = w_grid[iw] - w_grid[:feas] + e_grid[ie]
                values = (r**alpha + beta * cont**alpha) ** (1 / alpha)
                sigma[iw, ie] = int(values.argmax())
        return sigma

    def policy_operator(sigma):
        r_sigma = w_grid[:, None] - w_grid[sigma] + e_grid[None, :]

        def apply(v):
            # Continuation recomputed per (w, e) from the selected rows.
            inner = np.einsum("weE,E->we", np.power(v, gamma)[sigma], phi)
            return (r_sigma**alpha + beta * inner ** (alpha / gamma)) ** (1 / alpha)

        return apply

    v = np.tile(e_grid[None, :], (nw, 1))
    return _warm_policy_iteration(greedy, policy_operator, v, (nw, ne), tolerance, max_policy_iter)


def ez_savings_solve_subordinate(built, tolerance=1e-9, max_policy_iter=200):
    """Policy iteration on the endowment-averaged recursion.

    The averaged value lives on the wealth grid alone, so each policy
    evaluation iterates a vector of length ``|W|`` instead of
    ``|W| x |E|``; greedy choices remain pointwise in (wealth,
    endowment), which is what optimality requires.
    """
    alpha, beta, gamma = built["alpha"], built["beta"], built["gamma"]
    phi, e_grid, w_grid = built["phi"], built["e_grid"], built["w_grid"]
    nw, ne = w_grid.size, e_grid.size
    feas = np.tril(np.ones((nw, nw), dtype=bool))[:, :, None]  # s <= w
    # r(w, s, e) padded to one on the infeasible triangle to keep the
    # fractional powers real; those entries are masked below.
    r_table = np.where(
        feas,
        w_grid[:, None, None] - w_grid[None, :, None] + e_grid[None, None, :],
        1.0,
    )
    r_pow = r_table**alpha  # loop-invariant

    def greedy(h):
        inner = (r_pow + beta * (h[None, :, None] ** alpha)) ** (1 / alpha)
        return np.where(feas, inner, -np.inf).argmax(axis=1)  # (w, e)

    def policy_operator(sigma):
        r_sigma_pow = r_pow[np.arange(nw)[:, None], sigma, np.arange(ne)[None, :]]  # (w, e)

        def apply(h):
            inner = (r_sigma_pow + beta * h[sigma] ** alpha) ** (gamma / alpha)
            return (inner @ phi) ** (1 / gamma)

        return apply

    h = np.full(nw, float(e_grid @ phi))
    return _warm_policy_iteration(greedy, policy_operator, h, (nw, ne), tolerance, max_policy_iter)


def _warm_policy_iteration(greedy, policy_operator, v, shape, tolerance, max_policy_iter):
    """:func:`fixed_point.policy_iteration` from the zero policy; returns ``(sigma, v)``.

    Each evaluation iterates ``policy_operator(sigma)`` from the last
    value to a weighted step of at most ``tolerance``; at most
    ``max_policy_iter`` policies are evaluated.  As in :mod:`fsdp.dp`,
    the policy returned is greedy at the value returned.
    """
    weighted = lambda new, old: np.max(np.abs(new - old) / (1.0 + np.abs(old)))
    last = [v]

    def evaluate(sigma):
        last[0] = fixed_point.iterate(policy_operator(sigma), last[0], tolerance, 100_000, error=weighted)[0]
        return last[0]

    v, _ = fixed_point.policy_iteration(greedy, evaluate, np.zeros(shape, dtype=np.int64), max_policy_iter - 1)
    return greedy(v), v


# ---------------------------------------------------------------------------
# Lake model of employment flows


def lake_model(alpha=0.01, lam=0.1, d=0.02, b=0.025):
    """Two-pool worker-flow model with entry, exit, separation, hiring.

    Returns the linear update matrix, its growth factor, and the stable
    (unemployment, employment) shares.
    """
    matrix = np.array(
        [
            [(1 - d) * (1 - lam) + b, (1 - d) * alpha + b],
            [(1 - d) * lam, (1 - d) * (1 - alpha)],
        ]
    )
    g = b - d
    stay_employed = (1 - d) * (1 - alpha)
    u_bar = (1 + g - stay_employed) / (1 + g - stay_employed + (1 - d) * lam)
    return {
        "matrix": matrix,
        "growth_factor": 1 + g,
        "stable_shares": np.array([u_bar, 1 - u_bar]),
        "params": dict(alpha=alpha, lam=lam, d=d, b=b),
    }


# ---------------------------------------------------------------------------
# Continuous-time inventory jump chain


def ct_inventory_restock(alpha=0.7, capacity=10, rate=0.5):
    """Jump-chain inventory: geometric purchases, restock-to-capacity at zero.

    Customers arrive at rate ``rate`` and demand a geometric number of
    units; when stock runs out, the next event restores it to
    ``capacity``.
    """
    capacity = _whole(capacity, "capacity")
    n = capacity + 1
    pi = np.zeros((n, n))
    pi[0, capacity] = 1.0
    sizes = np.arange(1, capacity + 1)
    weights = (1 - alpha) ** (sizes - 1) * alpha
    # A purchase of u units leaves max(x - u, 0); add.at sums the
    # purchases that empty the shelf in order of size.
    stock = np.arange(1, n)[:, None]
    np.add.at(pi, (stock, np.maximum(stock - sizes, 0)), weights)
    pi[1:] /= pi[1:].sum(axis=1, keepdims=True)
    spec = ctmdp.JumpChainSpec(rates=np.full(n, rate), jump_matrix=pi)
    return {
        "jump_spec": spec,
        "intensity": ctmdp.jump_to_intensity(spec),
        "levels": np.arange(n),
    }


# ---------------------------------------------------------------------------
# Continuous-time job search


def ct_job_search(
    kappa=1.0,
    alpha=0.1,
    delta=0.1,
    c=9.0,
    n=51,
    rho=0.9,
    nu=0.2,
    wage_scale=10.0,
):
    """Continuous-time job search with separation.

    Offers arrive at rate ``kappa`` while unemployed; jobs end at rate
    ``alpha``; flows are discounted at rate ``delta``.  Wage offers
    follow a discretized log-AR(1) scaled by ``wage_scale``.
    """
    grid, p = markov.tauchen(n, rho=rho, nu=nu)
    wages = wage_scale * np.exp(grid)
    n_states = 2 * n  # unemployed block then employed block
    m = 2  # reject / accept (employed rows only use action 0)
    feasible = np.zeros((n_states, m), dtype=bool)
    feasible[:n] = True
    feasible[n:, 0] = True
    reward = np.zeros((n_states, m))
    reward[:n] = c
    reward[n:, 0] = wages
    kernel = np.zeros((n_states, m, n_states))
    u, e = np.arange(n), n + np.arange(n)
    # Rejecting keeps searching; accepting takes the next offer.
    kernel[:n, 0, :n] = kappa * p
    kernel[u, 0, u] -= kappa
    kernel[:n, 1, n:] = kappa * p
    kernel[u, 1, u] -= kappa
    kernel[n:, 0, :n] = alpha * p
    kernel[e, 0, e] -= alpha
    model = ctmdp.CTMDPModel(
        feasible=feasible, discount_rate=delta, reward=reward, kernel=kernel
    )
    return {
        "ctmdp": model,
        "wages": wages,
        "transition": p,
        "unemployed": slice(0, n),
        "params": dict(kappa=kappa, alpha=alpha, delta=delta, c=c),
    }


# ---------------------------------------------------------------------------
# Registry


class ModelCard:
    """Named zoo entry: builder (at its own defaults), test-scale overrides and the scipy modules it ``needs``."""

    def __init__(self, name, builder, ci_overrides=None, kind="mdp", needs=()):
        self.name = name
        self.builder = builder
        self.ci_overrides = ci_overrides or {}
        self.kind = kind
        self.needs = needs

    def build(self, ci_scale=False, **overrides):
        params = dict(self.ci_overrides) if ci_scale else {}
        params.update(overrides)
        return self.builder(**params)


class _Zoo(dict):
    """Cards by name.  ``ZOO[name]`` (not ``get``) imports what the card ``needs``, so no build times it."""

    def __getitem__(self, name):
        card = super().__getitem__(name)
        for module in card.needs:
            importlib.import_module(module)
        return card


ZOO = _Zoo(
    (card.name, card)
    for card in [
        ModelCard("job_search_iid", job_search_iid, needs=("scipy.sparse", "scipy.special")),
        ModelCard(
            "job_search_markov",
            job_search_markov,
            ci_overrides=dict(n=60),
            needs=("scipy.sparse",),
        ),
        ModelCard("firm_exit", firm_exit, ci_overrides=dict(n=60), needs=("scipy.sparse",)),
        ModelCard(
            "inventory_mdp", inventory_mdp, ci_overrides=dict(K=25, d_max=60)
        ),
        ModelCard(
            "inventory_sdd",
            inventory_sdd,
            ci_overrides=dict(K=20, n_z=10, d_max=60),
        ),
        ModelCard(
            "optimal_savings",
            optimal_savings,
            ci_overrides=dict(w_size=60, y_size=4),
        ),
        ModelCard(
            "optimal_savings_stochastic_returns",
            optimal_savings_stochastic_returns,
            ci_overrides=dict(w_size=40, y_size=6),
        ),
        ModelCard(
            "optimal_investment",
            optimal_investment,
            ci_overrides=dict(y_size=40, z_size=15),
        ),
        ModelCard(
            "firm_hiring",
            firm_hiring,
            ci_overrides=dict(l_size=40, z_size=15),
        ),
        ModelCard(
            "optimal_default",
            optimal_default,
            ci_overrides=dict(y_size=10, b_size=10),
            kind="rdp",
            needs=("scipy.sparse",),
        ),
        ModelCard("lake_model", lake_model, kind="linear"),
        ModelCard("ct_inventory_restock", ct_inventory_restock, kind="jump"),
        ModelCard("ct_job_search", ct_job_search, ci_overrides=dict(n=25), kind="ctmdp"),
    ]
)
