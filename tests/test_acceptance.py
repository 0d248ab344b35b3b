"""Acceptance suite.

One test per acceptance criterion, each asserting the stated tolerance
and printing a PASS line on success.  Criteria with timing budgets
measure wall-clock time directly.
"""

import time

import numpy as np
import pytest

from fsdp import ctmdp, discounting, dp, koopmans, markov, models, rdp, spectral

A_REFERENCE = np.array([[0.4, 0.1], [0.7, 0.2]])
EULER_MASCHERONI = 0.5772156649015329


def _report(number, name):
    print(f"acceptance criterion {number:>2} ({name}): PASS")


def random_mdp(rng, n=20, m=5, beta=0.9):
    kernel = rng.random((n, m, n)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    reward = rng.standard_normal((n, m))
    return dp.MDPModel(
        feasible=np.ones((n, m), dtype=bool), reward=reward, kernel=kernel, beta=beta
    )


def test_criterion_01_spectral_radius_reference_matrix():
    spectral.spectral_radius(A_REFERENCE)  # warm up linear algebra
    start = time.perf_counter()
    rho = spectral.spectral_radius(A_REFERENCE)
    elapsed = time.perf_counter() - start
    assert rho == pytest.approx(0.5828, abs=1e-3)
    assert elapsed < 1e-3
    _report(1, "spectral radius")


def test_criterion_02_neumann_series_vs_direct_solve():
    eye = np.eye(2)
    np.linalg.inv(eye - A_REFERENCE)  # warm up
    start = time.perf_counter()
    direct = np.linalg.inv(eye - A_REFERENCE)
    total = np.zeros((2, 2))
    power = np.eye(2)
    for _ in range(50):
        total = total + power
        power = power @ A_REFERENCE
    deviation = float(np.max(np.abs(direct - total)))
    elapsed = time.perf_counter() - start
    assert deviation < 1e-10
    assert elapsed < 1e-3
    _report(2, "power-series inversion")


def test_criterion_03_iid_job_search():
    start = time.perf_counter()
    built = models.job_search_iid()
    h_star, w_star = models.job_search_iid_continuation(built)
    result = dp.solve_vfi(built["mdp"], tolerance=1e-9)
    elapsed = time.perf_counter() - start
    assert h_star == pytest.approx(1086, abs=1.0)
    assert w_star == pytest.approx(43.4, abs=0.1)
    v_unemployed = result.value[built["unemployed"]]
    closed_form = np.maximum(built["wages"] / (1 - built["beta"]), h_star)
    assert np.max(np.abs(v_unemployed - closed_form)) < 1e-4
    # Both paths imply the same acceptance rule on the offer grid.
    scalar_policy = built["wages"] / (1 - built["beta"]) >= h_star
    assert np.array_equal(result.policy[built["unemployed"]] == 1, scalar_policy)
    assert elapsed < 1.0
    _report(3, "IID job search")


def test_criterion_04_day_laborer_stationary_distribution():
    alpha, beta = 0.3, 0.2
    p = np.array([[1 - alpha, alpha], [beta, 1 - beta]])
    psi = markov.stationary_distribution(p)
    assert np.max(np.abs(psi - np.array([0.4, 0.6]))) < 1e-10
    rng = np.random.default_rng(20260809)
    path = markov.simulate_chain(p, np.array([1.0, 0.0]), 10**6, rng)
    freq = np.bincount(path, minlength=2) / path.size
    assert np.max(np.abs(freq - psi)) < 0.01
    _report(4, "day-laborer stationary law")


def test_criterion_05_tauchen_discretization():
    grid, p = markov.tauchen(15, rho=0.9, nu=1.0, m=3.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-10
    psi = markov.stationary_distribution(p)
    sigma_x = 1.0 / np.sqrt(1 - 0.9**2)
    density = np.exp(-0.5 * (grid / sigma_x) ** 2)
    density /= density.sum()
    assert np.max(np.abs(psi - density)) < 0.05
    for rho in (0.0, 0.5, 0.9):
        _, p_rho = markov.tauchen(15, rho=rho, nu=1.0, m=3.0)
        assert markov.is_monotone_increasing(p_rho)
    _report(5, "AR(1) discretization")


def _triad_mdp(model, tolerance, dominating=None):
    hpi = dp.solve_hpi(model, dominating=dominating)
    vfi = dp.solve_vfi(model, tolerance=tolerance, dominating=dominating)
    opi = dp.solve_opi(model, m=50, tolerance=tolerance, dominating=dominating)
    assert np.array_equal(hpi.policy, vfi.policy)
    assert np.array_equal(hpi.policy, opi.policy)
    assert np.max(np.abs(hpi.value - vfi.value)) < 1e-6
    assert np.max(np.abs(hpi.value - opi.value)) < 1e-6
    log_policies = model.policy_count()
    if log_policies < 15:
        assert hpi.iterations <= 10**log_policies + 1
    if not model.state_dependent:
        v_sigma = dp.policy_value(model, vfi.policy)
        assert np.max(np.abs(hpi.value - v_sigma)) <= vfi.error_bound + 1e-12
    return hpi


def test_criterion_06_solver_triad_suite():
    start = time.perf_counter()
    # Zoo MDPs at regression scale (full-size outputs are covered by the
    # dedicated criteria below).
    zoo_instances = [
        (models.job_search_iid()["mdp"], 2e-8, None),
        (models.job_search_markov(variant="plain", n=60)["mdp"], 2e-8, None),
        (models.job_search_markov(variant="separation", n=60)["mdp"], 2e-8, None),
        (models.firm_exit(n=60)["mdp"], 2e-8, None),
        (models.inventory_mdp(K=25, d_max=60)["mdp"], 2e-8, None),
        (models.inventory_sdd(K=12, n_z=8, d_max=50)["mdp"], 5e-9, "certified"),
        (models.optimal_savings(w_size=60, y_size=4)["mdp"], 2e-8, None),
        (
            models.optimal_savings_stochastic_returns(w_size=40, y_size=6)["mdp"],
            2e-8,
            None,
        ),
        (models.optimal_investment(y_size=40, z_size=15)["mdp"], 1e-8, None),
        (models.firm_hiring(l_size=40, z_size=15)["mdp"], 1e-8, None),
        (models.optimal_default(y_size=10, b_size=10)["mdp"], 2e-8, None),
        (
            models.american_option_mdp(models.american_option(n=10, T=10))[0],
            1e-8,
            None,
        ),
    ]
    for model, tolerance, dominating in zoo_instances:
        _triad_mdp(model, tolerance, dominating)
    # RDP-native zoo entries run through the RDP triad.
    for variant in ("risk_sensitive", "quantile"):
        built = models.job_search_markov(variant=variant, n=60)
        outs = [
            rdp.rdp_solve(built["rdp"], algorithm=a, m=50, tolerance=1e-10)
            for a in ("hpi", "vfi", "opi")
        ]
        for other in outs[1:]:
            assert np.array_equal(outs[0].policy, other.policy)
            assert np.max(np.abs(outs[0].value - other.value)) < 1e-6
    # One hundred random MDPs.
    rng = np.random.default_rng(6)
    for _ in range(100):
        _triad_mdp(random_mdp(rng), 1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"solver triad ({elapsed:.1f}s)")


def test_criterion_07_factorization_identities():
    rng = np.random.default_rng(7)
    for _ in range(5):
        model = random_mdp(rng, n=8, m=3)
        ops = dp.FactorizedOperators(model)
        v_star = dp.solve_hpi(model).value
        g_star = ops.fixed_point(ops.R, np.zeros((8, 3)))
        q_star = ops.fixed_point(ops.S, np.zeros((8, 3)))
        assert np.max(np.abs(g_star - ops.E(v_star))) < 1e-10
        assert np.max(np.abs(q_star - ops.D(g_star))) < 1e-10
        assert np.max(np.abs(v_star - ops.M(q_star))) < 1e-10
    # Refactored OPI tracks expected values of the value iterates.
    model = random_mdp(rng, n=8, m=3)
    model.reward += rng.random((8, 3)) * 1e-3  # keep greedy choices unique
    ops = dp.FactorizedOperators(model)
    sigma0 = dp.greedy(model, np.zeros(8))
    v = dp.policy_value(model, sigma0)
    refactored = dp.solve_refactored_opi(model, g0=ops.E(v), m=4, tolerance=1e-11)
    for k, g_k in enumerate(refactored.history[:21]):
        assert np.max(np.abs(g_k - ops.E(v))) < 1e-10, f"iterate {k}"
        sigma = dp.greedy(model, v)
        for _ in range(4):
            v = dp.policy_apply(model, sigma, v)
    _report(7, "operator factorizations")


def test_criterion_08_gumbel_closed_form():
    rng = np.random.default_rng(8)
    model = random_mdp(rng, n=5, m=3, beta=0.9)
    g = rng.standard_normal((5, 3))
    closed = dp.gumbel_ev_operator(model)(g)
    draws = 10**5
    values = model.reward + model.beta * g
    mc_means = np.empty(5)
    mc_ses = np.empty(5)
    for y in range(5):
        shocks = rng.gumbel(0.0, 1.0, size=(draws, 3))
        samples = (values[y][None, :] + shocks).max(axis=1)
        mc_means[y] = samples.mean() - EULER_MASCHERONI
        mc_ses[y] = samples.std(ddof=1) / np.sqrt(draws)
    kernel3 = np.asarray(model.kernel).reshape(5, 3, 5)
    for x in range(5):
        for a in range(3):
            mc = kernel3[x, a] @ mc_means
            se = np.sqrt(np.sum((kernel3[x, a] * mc_ses) ** 2))
            assert abs(closed[x, a] - mc) < 3 * se
    _report(8, "Gumbel-shock closed form")


def test_criterion_09_persistent_discount_radius():
    grid, q = markov.tauchen(15, rho=0.85, nu=0.0062, b=1 - 0.85, m=4.5)
    betas = 0.99875 * grid
    op = discounting.build_discount_operator(betas, q)
    assert betas.max() > 1.0  # the factor exceeds one in some states
    assert op.spectral_radius == pytest.approx(0.9996, abs=5e-4)
    _report(9, "persistent discount radius")


def test_criterion_10_risk_sensitive_gaussian_closed_form():
    # Stated defaults: n = 180 grid points spanning ten stationary
    # standard deviations.  Note: quantizing each conditional normal
    # onto this grid biases the conditional variance by ~step^2/12,
    # which the recursion amplifies to a constant offset of ~0.163,
    # eight times this criterion's tolerance; the construction passes
    # the same check at n >= 600 (see decisions ledger).
    n, beta, rho, sigma, theta = 180, 0.95, 0.96, 0.1, -1.0
    grid, p = markov.tauchen(n, rho=rho, nu=sigma, m=10.0)
    operator = koopmans.KoopmansOperator(
        koopmans.Additive(grid, beta), koopmans.Entropic(theta, p)
    )
    result = koopmans.solve_lifetime_value(operator)
    a = 1 / (1 - rho * beta)
    b = theta * (beta / (1 - beta)) * (a * sigma) ** 2 / 2
    closed_form = a * grid + b
    interior = slice(n // 10, -n // 10)
    gap = float(np.max(np.abs(result.value[interior] - closed_form[interior])))
    assert gap < 0.02, f"interior sup gap {gap:.4f} (discretization bias, see ledger)"
    _report(10, "risk-sensitive Gaussian")


def test_criterion_11_epstein_zin():
    # Constant-consumption identity is exact.
    rng = np.random.default_rng(11)
    p_small = rng.random((4, 4)) + 0.1
    p_small /= p_small.sum(axis=1, keepdims=True)
    beta, alpha, gamma, c = 0.99, 0.75, -2.0, 1.7
    r = (1 - beta) ** (1 / alpha) * np.full(4, c)
    operator = koopmans.KoopmansOperator(
        koopmans.CES(r, beta, alpha), koopmans.KrepsPorteus(gamma, p_small), "positive"
    )
    v_const = np.full(4, c)
    assert np.max(np.abs(operator(v_const) - v_const)) < 1e-12
    # Conjugate path versus direct iteration at the reference calibration.
    n, rho, sigma = 200, 0.96, 0.1
    grid, p = markov.tauchen(n, rho=rho, nu=sigma, m=5.0)
    consumption = np.exp(grid)
    h = (1 - beta) * consumption**alpha
    v_conjugate = koopmans.epstein_zin_value(h, beta, alpha, gamma, p)
    v = np.ones(n)
    for _ in range(100_000):
        v_new = (h + beta * (p @ v**gamma) ** (alpha / gamma)) ** (1 / alpha)
        if np.max(np.abs(v_new - v)) < 1e-13:
            v = v_new
            break
        v = v_new
    assert np.max(np.abs(v_conjugate - v)) < 1e-8
    assert np.all(np.diff(v_conjugate) > 0)  # increasing in the state
    _report(11, "recursive-utility conjugacy")


def _random_cost_graph(rng, n, extra_edges=10):
    """Random DAG over a topological order plus a destination self-loop."""
    dest = n - 1
    order = rng.permutation(n)
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    cost = np.full((n, n), np.inf)
    for x in order[order != dest]:
        cost[x, dest] = rng.uniform(0.5, 2.0)
    for _ in range(extra_edges):
        a, b = rng.integers(0, n, size=2)
        if a == dest or a == b:
            continue
        lo, hi = (a, b) if rank[a] < rank[b] else (b, a)
        if lo != dest:
            cost[lo, hi] = rng.uniform(0.1, 3.0)
    cost[dest, :] = np.inf
    cost[dest, dest] = 0.0
    return cost


def _label_correcting(cost, dest, beta=1.0):
    """Independent relaxation oracle for (possibly amplified) path costs."""
    n = cost.shape[0]
    dist = np.full(n, np.inf)
    dist[dest] = 0.0
    for _ in range(n):
        for u in range(n):
            if u == dest:
                continue
            for v in range(n):
                if np.isfinite(cost[u, v]):
                    cand = cost[u, v] + beta * dist[v]
                    if cand < dist[u]:
                        dist[u] = cand
    return dist


def _enumerate_policy_costs(cost, dest, beta):
    """Brute-force oracle: evaluate every successor map exactly."""
    import itertools

    n = cost.shape[0]
    successors = [np.flatnonzero(np.isfinite(cost[x])) for x in range(n)]
    best = np.full(n, np.inf)
    for choice in itertools.product(*successors):
        values = np.zeros(n)
        ok = True
        for x in range(n):
            if x == dest:
                continue
            total, state, steps, factor = 0.0, x, 0, 1.0
            while state != dest and steps <= n:
                nxt = choice[state]
                total += factor * cost[state, nxt]
                factor *= beta
                state = nxt
                steps += 1
            if state != dest:
                ok = False
                break
            values[x] = total
        if ok:
            best = np.minimum(best, values)
    return best


def test_criterion_12_shortest_paths():
    rng = np.random.default_rng(12)
    for trial in range(50):
        n = int(rng.integers(4, 10))
        cost = _random_cost_graph(rng, n)
        result = rdp.solve_path_costs(cost, n - 1)
        oracle = _label_correcting(cost, n - 1)
        assert np.max(np.abs(result.value - oracle)) == 0.0, f"trial {trial}"
    beta = 1.15
    for _ in range(5):
        cost = _random_cost_graph(rng, 6, extra_edges=6)
        result = rdp.negative_discount_solve(cost, beta, 5)
        oracle = _enumerate_policy_costs(cost, 5, beta)
        assert np.max(np.abs(result.value - oracle)) < 1e-12
    _report(12, "shortest paths and negative discounting")


def test_criterion_13_continuous_time():
    rng = np.random.default_rng(13)
    q = rng.random((5, 5))
    np.fill_diagonal(q, 0.0)
    q -= np.diag(q.sum(axis=1))
    for t in (0.1, 1.0, 10.0):
        p_t = ctmdp.transition_semigroup(q, t)
        assert np.max(np.abs(p_t.sum(axis=1) - 1.0)) < 1e-10
    # Mean holding time at rate one-half.
    built_inv = models.ct_inventory_restock(rate=0.5)
    spec = built_inv["jump_spec"]
    psi0 = np.zeros(spec.rates.size)
    psi0[-1] = 1.0
    waits = []
    while len(waits) < 10_000:
        path = ctmdp.simulate_jump_chain(spec, psi0, 500.0, rng)
        waits.extend(np.diff(path.jump_times))
    waits = np.array(waits[:10_000])
    se = waits.std(ddof=1) / np.sqrt(waits.size)
    assert abs(waits.mean() - 2.0) < 3 * se
    # Job search in continuous time.
    built = models.ct_job_search()
    result = ctmdp.ct_hpi(built["ctmdp"])
    assert models.ct_reservation_wage(built, result) == pytest.approx(12.0, abs=1.0)
    assert result.residual < 1e-8
    base = dict(kappa=1.0, alpha=0.1, delta=0.1, c=9.0)
    w0 = models.ct_reservation_wage(models.ct_job_search(**base))
    for key, value, direction in [
        ("alpha", 0.3, -1),
        ("kappa", 2.0, +1),
        ("delta", 0.25, -1),
        ("c", 10.0, +1),
    ]:
        params = dict(base)
        params[key] = value
        w = models.ct_reservation_wage(models.ct_job_search(**params))
        assert np.sign(w - w0) == direction, key
    _report(13, "continuous time")


def test_criterion_14_wealth_distribution_regressions():
    start = time.perf_counter()
    built = models.optimal_savings()
    result = dp.solve_opi(built["mdp"], m=100, tolerance=1e-6)
    wealth = models.simulate_savings_wealth(built, result, steps=10**6, seed=1234)
    baseline = models.gini_coefficient(wealth[1000:])
    elapsed_baseline = time.perf_counter() - start
    assert baseline == pytest.approx(0.54, abs=0.05)
    assert elapsed_baseline < 120.0

    start = time.perf_counter()
    built = models.optimal_savings_stochastic_returns()
    result = dp.solve_opi(built["mdp"], m=100, tolerance=1e-6)
    wealth = models.simulate_savings_wealth_stochastic(
        built, result, steps=10**6, seed=99
    )
    stochastic = models.gini_coefficient(wealth[1000:])
    elapsed_stochastic = time.perf_counter() - start
    assert stochastic == pytest.approx(0.72, abs=0.05)
    assert elapsed_stochastic < 120.0
    _report(
        14,
        f"wealth Gini {baseline:.3f}/{stochastic:.3f} "
        f"({elapsed_baseline:.0f}s/{elapsed_stochastic:.0f}s)",
    )


def test_criterion_15_subordinate_recursive_savings():
    built = models.ez_savings()
    sigma_direct, _ = models.ez_savings_solve_direct(built)
    sigma_sub, _ = models.ez_savings_solve_subordinate(built)
    assert np.array_equal(sigma_direct, sigma_sub)

    def best_of(fn, repeats):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    # The cheap path's timings sit at the scheduler-noise floor, so it
    # gets more repeats before taking the minimum.
    ratios = []
    for n in (10, 40, 80):
        sized = models.ez_savings(n=n)
        direct = best_of(lambda: models.ez_savings_solve_direct(sized), 2)
        subordinate = best_of(lambda: models.ez_savings_solve_subordinate(sized), 6)
        ratios.append(subordinate / direct)
    assert ratios[0] > ratios[1] > ratios[2]
    _report(15, f"subordinate savings (ratios {[round(r, 3) for r in ratios]})")
