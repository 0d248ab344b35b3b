"""Library work of the workloads, and the checks of its outputs.

``check_and_simulate`` runs in the benchmark's own process after each
solve; ``chains`` runs in a child process (see ``child.py``).  Both call
the program's library functions, check the outputs with ``checks`` and
report ``{operation: [errors]}`` plus the number of simulated steps.
Check time is spent outside the program's spans, so it counts in no
metric.
"""

import csv
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks

# Tauchen chain for the valuations: the acceptance suite's risk-sensitive
# calibration (rho 0.96, sigma 0.1, ten stationary deviations).
CHAIN = dict(rho=0.96, nu=0.1, m=10.0)
ENTROPIC = dict(beta=0.95, theta=-1.0)
EPSTEIN_ZIN = dict(beta=0.99, alpha=0.75, gamma=-2.0)
LUCAS = dict(beta=0.99, gamma=2.5, mu_c=0.01, sigma_c=0.02, mu_d=0.02, sigma_d=0.1)
HK_BETA = 0.9
SETUP_REPEATS = 5

# Cards with a simulator of their own: the chains task runs them at CI
# scale, and the solve and bench workloads use them for solved policies.
# Simulating a large policy through simulate_chain needs its dense matrix
# and that matrix's cumulative sum (72 MB each on firm_hiring at 3 000
# states); the model simulators touch small tables only.
SIMULATED_CARDS = {
    "optimal_savings": "simulate_savings_wealth",
    "optimal_savings_stochastic_returns": "simulate_savings_wealth_stochastic",
    "optimal_investment": "simulate_investment",
    "firm_hiring": "simulate_hiring",
    "inventory_mdp": "simulate_inventory",
}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def load_solution(item):
    if "npz" in item:
        with np.load(item["npz"]) as data:
            return data["value"], data["policy"]
    out = Path(item["dir"])
    _, values = read_csv(out / "value.csv")
    _, actions = read_csv(out / "policy.csv")
    if [int(r[0]) for r in values] != list(range(len(values))):
        raise ValueError("value.csv rows are not states 0..n-1 in order")
    return np.array([float(r[1]) for r in values]), np.array([int(r[1]) for r in actions])


def _model_check(mdp, v, sigma, tol):
    return checks.check_solution(
        mdp.reward, mdp.feasible, mdp.kernel, v, sigma, tol,
        beta=mdp.beta, weights=mdp.discount_weights,
    )


def policy_rows(mdp, sigma):
    """Dense transition matrix of ``sigma``, taken from the model's kernel."""
    rows = np.arange(mdp.n_states) * mdp.n_actions + np.asarray(sigma, dtype=np.int64)
    block = mdp.kernel[rows]
    return block.toarray() if hasattr(block, "toarray") else np.array(block)


def check_and_simulate(item, sim_steps, rng, calls=1):
    """Check one solved model, simulate its policy and run its RDP solve.

    ``item`` names a zoo card, its scale and where the program wrote (or
    the CLI process captured) the solution.  The model is rebuilt through
    the zoo card, which counts as set-up.  The policy is simulated with
    the model's own simulator where the zoo has one, and otherwise with
    ``markov.simulate_chain`` on its dense transition matrix.  A model
    simulator can be run as ``calls`` equal calls from the same start,
    each timed and checked on its own.  Returns ``(checks, steps,
    rates)``, where ``rates`` holds the steps per second of each of
    those calls (empty for a single call).
    """
    from fsdp import markov, models, rdp

    name, tol = item["model"], item["tol"]
    built = models.ZOO[name].build(ci_scale=item["ci"], **item["overrides"])
    mdp = built["mdp"]
    v, sigma = load_solution(item)
    found = {item["op"]: _model_check(mdp, v, sigma, tol)}
    rates = []
    if found[item["op"]]:
        return found, 0, rates
    simulator = SIMULATED_CARDS.get(name)
    if simulator:
        result = SimpleNamespace(value=v, policy=sigma)
        errors = found[f"{simulator} {name}"] = []
        steps = sim_steps // calls
        for _ in range(calls):
            seed = int(rng.integers(2**31))
            start = time.perf_counter()
            out = getattr(models, simulator)(built, result, steps=steps, seed=seed)
            if calls > 1:
                rates.append(steps / (time.perf_counter() - start))
            errors += _check_model_sim(name, built, result, out)
        sim_steps = steps * calls
    else:
        p_sigma = policy_rows(mdp, sigma)
        psi0 = np.zeros(mdp.n_states)
        psi0[0] = 1.0
        path = markov.simulate_chain(p_sigma, psi0, sim_steps, rng)
        found[f"simulate_chain {name}"] = checks.check_transitions(
            lambda x: p_sigma[x], path, what=f"{name} policy chain"
        )
    if item.get("rdp"):
        algorithm = item["rdp"]
        rdp_tol = 1e-10 if algorithm == "hpi" else tol
        res = rdp.rdp_solve(built["rdp"], algorithm=algorithm, tolerance=rdp_tol)
        # The RDP solve must agree with the MDP solve checked above.
        found[f"rdp_solve {name} {algorithm}"] = _model_check(
            mdp, res.value, res.policy, tol
        ) + checks.check_close(
            res.value, v, 1e-8 if algorithm == "hpi" else 1e-6, "RDP vs MDP value"
        )
    return found, sim_steps, rates


def _index_of(values, grid):
    idx = np.searchsorted(grid, values)
    idx = np.clip(idx, 0, grid.size - 1)
    left = np.clip(idx - 1, 0, grid.size - 1)
    idx = np.where(np.abs(grid[left] - values) < np.abs(grid[idx] - values), left, idx)
    if np.max(np.abs(grid[idx] - values)) > 1e-9 * max(1.0, np.max(np.abs(grid))):
        raise ValueError("simulated values are off the grid")
    return idx


def _check_endogenous(levels, grid, successors, what):
    """Each next level must be the policy's choice in some exogenous state."""
    try:
        idx = _index_of(np.asarray(levels), grid)
    except ValueError as exc:
        return [f"{what}: {exc}"]
    bad = [t for t in range(idx.size - 1) if idx[t + 1] not in successors[idx[t]]]
    if bad:
        t = bad[0]
        return [f"{what}: step {t} moves {idx[t]} -> {idx[t + 1]}, which no state chooses"]
    return []


def _check_model_sim(name, built, result, out):
    policy = result.policy
    if name == "optimal_savings":
        w, y = built["shape"]
        table = policy.reshape(w, y)
        succ = [set(table[i]) for i in range(w)]
        return _check_endogenous(out, built["w_grid"], succ, name)
    if name == "optimal_savings_stochastic_returns":
        w, y, e = built["shape"]
        table = policy.reshape(w, y * e)
        succ = [set(table[i]) for i in range(w)]
        return _check_endogenous(out, built["w_grid"], succ, name)
    if name == "firm_hiring":
        l_size, z = built["shape"]
        table = policy.reshape(l_size, z)
        succ = [set(table[i]) for i in range(l_size)]
        return _check_endogenous(out, built["l_grid"], succ, name)
    if name == "optimal_investment":
        outputs, targets = out
        y_size, z_size = built["shape"]
        prm = built["params"]
        z_vals = 2 * prm["a1"] * np.asarray(targets) - prm["a0"] + prm["c"]
        try:
            iy = _index_of(np.asarray(outputs), built["y_grid"])
            iz = _index_of(z_vals, built["z_grid"])
        except ValueError as exc:
            return [f"{name}: {exc}"]
        chosen = policy.reshape(y_size, z_size)[iy[:-1], iz[:-1]]
        if np.any(chosen != iy[1:]):
            t = int(np.flatnonzero(chosen != iy[1:])[0])
            return [f"{name}: step {t} output {iy[t + 1]} differs from policy {chosen[t]}"]
        q = built["transition"]
        return checks.check_transitions(lambda x: q[x], iz, what=f"{name} exogenous chain")
    if name == "inventory_mdp":
        path, orders = out
        phi = built["demand_probs"]
        if np.any(orders != policy[path[:-1]]):
            return [f"{name}: orders differ from the policy"]
        stock = path[1:] - orders
        demand = path[:-1] - stock
        ok = (stock >= 0) & (demand >= 0)
        ok &= np.where(stock > 0, phi[np.clip(demand, 0, phi.size - 1)] > 0, True)
        if not ok.all():
            t = int(np.flatnonzero(~ok)[0])
            return [f"{name}: impossible stock move {path[t]} -> {path[t + 1]} at step {t}"]
        return []
    raise KeyError(name)


def _check_cli_series(mdp, series_path, horizon):
    """The CLI's controlled path: one consistent action per state, positive steps."""
    _, rows = read_csv(series_path)
    if len(rows) != horizon + 1:
        return [f"series has {len(rows)} rows, expected {horizon + 1}"]
    path = np.array([int(r[1]) for r in rows])
    rewards = np.array([float(r[2]) for r in rows])
    m = mdp.n_actions
    actions = {}
    for x in np.unique(path[:-1]):
        succ = np.unique(path[1:][path[:-1] == x])
        block = mdp.kernel[x * m:(x + 1) * m]
        block = block.toarray() if hasattr(block, "toarray") else np.asarray(block)
        ok = mdp.feasible[x] & np.all(block[:, succ] > 0, axis=1)
        ok &= mdp.reward[x] == rewards[np.flatnonzero(path == x)[0]]
        if not ok.any():
            return [f"no single action explains the moves out of state {x}"]
        actions[int(x)] = block[np.flatnonzero(ok)[0]]
    return checks.check_transitions(lambda x: actions[x], path, what="fsdp simulate series")


def chains(tracer, seed, n_chain, sim_steps, jump_horizon, cli_series, cli_events):
    """Simulators, chain valuations and the checks of the CLI's simulations."""
    from fsdp import ctmdp, discounting, dp, koopmans, markov, models

    rng = np.random.default_rng(seed)
    found, steps = {}, 0

    def build_inputs():
        with tracer.region("bench.setup"):
            grid, p = markov.tauchen(n_chain, **CHAIN)
            _, p_alt = markov.tauchen(n_chain, rho=0.8, nu=0.1, m=10.0)
            entropic = koopmans.KoopmansOperator(
                koopmans.Additive(grid, ENTROPIC["beta"]), koopmans.Entropic(ENTROPIC["theta"], p)
            )
            cards = {name: models.ZOO[name].build(ci_scale=True) for name in SIMULATED_CARDS}
            jump = models.ZOO["ct_inventory_restock"].build()["jump_spec"]
        return grid, p, p_alt, entropic, cards, jump

    grid, p, p_alt, entropic, cards, jump = build_inputs()

    # Simulators.  Per-model simulators need a solved policy first.
    for name, sim_name in SIMULATED_CARDS.items():
        built = cards[name]
        result = dp.solve_hpi(built["mdp"])
        found[f"solve_hpi {name} (ci)"] = _model_check(built["mdp"], result.value, result.policy, 1e-8)
        out = getattr(models, sim_name)(built, result, steps=sim_steps, seed=seed)
        steps += sim_steps
        found[sim_name] = _check_model_sim(name, built, result, out)

    psi0 = np.full(n_chain, 1.0 / n_chain)
    path = markov.simulate_chain(p, psi0, sim_steps, rng)
    steps += sim_steps
    found["simulate_chain tauchen"] = checks.check_transitions(lambda x: p[x], path, what="tauchen chain")

    start = np.zeros(jump.rates.size)
    start[-1] = 1.0
    jpath = ctmdp.simulate_jump_chain(jump, start, jump_horizon, rng)
    steps += jpath.states.size - 1
    found["simulate_jump_chain"] = checks.check_transitions(
        lambda x: jump.jump_matrix[x], jpath.states, what="jump chain"
    ) + checks.check_holding_times(jump.rates, jpath.jump_times, jpath.states)

    # Valuations.
    res = koopmans.solve_lifetime_value(entropic)
    found["solve_lifetime_value entropic"] = checks.check_residual(
        checks.entropic_residual(res.value, grid, ENTROPIC["beta"], ENTROPIC["theta"], p),
        1e-9, float(np.max(np.abs(res.value))), "entropic lifetime value",
    )

    ez = EPSTEIN_ZIN
    h = (1 - ez["beta"]) * np.exp(grid) ** ez["alpha"]
    v = koopmans.epstein_zin_value(h, ez["beta"], ez["alpha"], ez["gamma"], p)
    found["epstein_zin_value"] = checks.check_residual(
        checks.epstein_zin_residual(v, h, ez["beta"], ez["alpha"], ez["gamma"], p),
        1e-9, 1.0, "Epstein-Zin value (relative)",
    )

    spec = discounting.LucasSDFSpec(**LUCAS)
    x_vals = np.exp(grid * 0.1)
    v = discounting.price_dividend_ratio(spec, x_vals, p)
    g = LUCAS
    a = g["beta"] * np.exp(
        -g["gamma"] * g["mu_c"] + g["mu_d"] + (1 - g["gamma"]) * x_vals
        + 0.5 * (g["gamma"] ** 2 * g["sigma_c"] ** 2 + g["sigma_d"] ** 2)
    )[:, None] * p
    found["price_dividend_ratio"] = checks.check_residual(
        float(np.max(np.abs(a @ (1.0 + v) - v))), 1e-9, float(np.max(v)), "price-dividend ratio"
    )

    d = np.exp(grid * 0.1)
    price = discounting.harrison_kreps_price(p, p_alt, HK_BETA, d)
    image = np.maximum(HK_BETA * (p @ (price + d)), HK_BETA * (p_alt @ (price + d)))
    found["harrison_kreps_price"] = checks.check_residual(
        float(np.max(np.abs(image - price))), 1e-7, float(np.max(price)), "Harrison-Kreps price"
    )

    psi = markov.stationary_distribution(p)
    found["stationary_distribution"] = checks.check_stationary(psi, p)

    # Outputs of this round's `fsdp simulate` runs; a failed run wrote none.
    op = "fsdp simulate optimal_investment"
    if Path(cli_series["path"]).is_file():
        found[op] = _check_cli_series(
            cards["optimal_investment"]["mdp"], cli_series["path"], cli_series["horizon"]
        )
        steps += cli_series["horizon"]
    op = "fsdp simulate ct_inventory_restock"
    if Path(cli_events).is_file():
        _, rows = read_csv(cli_events)
        times = np.array([float(r[0]) for r in rows])
        states = np.array([int(r[1]) for r in rows])
        found[op] = checks.check_transitions(
            lambda x: jump.jump_matrix[x], states, what="fsdp jump chain"
        ) + checks.check_holding_times(jump.rates, times, states, what="fsdp jump chain")
        steps += states.size - 1

    # One build of the inputs takes about 0.2 s, too short to time steadily
    # on a shared machine, so it is repeated and summed.  The repeats come
    # last: freeing their large arrays changes how later allocations are
    # served, and with it the speed of the valuations above.
    for _ in range(SETUP_REPEATS - 1):
        build_inputs()
    return {"checks": found, "sim_steps": steps}


# Operation names the chains task reports, in order.
CHAINS_OPS = [
    *(f"solve_hpi {name} (ci)" for name in SIMULATED_CARDS),
    *SIMULATED_CARDS.values(),
    "simulate_chain tauchen", "simulate_jump_chain",
    "solve_lifetime_value entropic", "epstein_zin_value", "price_dividend_ratio",
    "harrison_kreps_price", "stationary_distribution",
    "fsdp simulate optimal_investment", "fsdp simulate ct_inventory_restock",
]

TASKS = {"chains": chains}
