"""Array-built zoo kernels against the loops they replaced.

The ``_oracle_*`` builders are the entry-by-entry fills the zoo used
before its kernels were assembled with index arithmetic, kept as
references.  Every kernel, feasibility mask and reward must equal them
exactly, except ``optimal_default``'s CRRA rewards, where an array power
may round one unit in the last place away from the scalar one.
"""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betaln, comb

from fsdp import dp, markov, models, rdp
from fsdp.models import ZOO

# ---------------------------------------------------------------------------
# Reference builders


def _oracle_job_search_iid(n, w_min, w_max, a, b, beta, c):
    wages = np.linspace(w_min, w_max, n + 1)
    draws = np.arange(n + 1)
    offer_probs = comb(n, draws) * np.exp(betaln(draws + a, n - draws + b) - betaln(a, b))
    offer_probs = offer_probs / offer_probs.sum()
    nw = wages.size
    n_states = 2 * nw
    feasible = np.zeros((n_states, 2), dtype=bool)
    reward = np.zeros((n_states, 2))
    rows, cols, data = [], [], []
    for i, w in enumerate(wages):
        u, e = i, nw + i
        feasible[u] = [True, True]
        reward[u] = [c, w]
        for j, prob in enumerate(offer_probs):
            if prob > 0:
                rows.append(u * 2 + 0)
                cols.append(j)
                data.append(prob)
        rows.append(u * 2 + 1)
        cols.append(e)
        data.append(1.0)
        feasible[e, 1] = True
        reward[e, 1] = w
        rows.append(e * 2 + 1)
        cols.append(e)
        data.append(1.0)
    kernel = sp.csr_matrix((data, (rows, cols)), shape=(n_states * 2, n_states))
    return feasible, reward, kernel


def _oracle_job_search_markov(variant, n, rho, nu, beta, c, alpha, theta=None, tau=None):
    grid, p = markov.tauchen(n, rho=rho, nu=nu)
    wages = np.exp(grid)
    sep = 0.0 if variant == "plain" else alpha
    nw = wages.size
    n_states = 2 * nw
    feasible = np.zeros((n_states, 2), dtype=bool)
    reward = np.zeros((n_states, 2))
    rows, cols, data = [], [], []
    for i, w in enumerate(wages):
        u, e = i, nw + i
        feasible[u] = [True, True]
        reward[u] = [c, w]
        for j in range(nw):
            if p[i, j] > 0:
                rows.append(u * 2 + 0)
                cols.append(j)
                data.append(p[i, j])
        rows.append(u * 2 + 1)
        cols.append(e)
        data.append(1.0)
        feasible[e, 1] = True
        reward[e, 1] = w
        if sep > 0:
            for j in range(nw):
                if p[i, j] > 0:
                    rows.append(e * 2 + 1)
                    cols.append(j)
                    data.append(sep * p[i, j])
            rows.append(e * 2 + 1)
            cols.append(e)
            data.append(1.0 - sep)
        else:
            rows.append(e * 2 + 1)
            cols.append(e)
            data.append(1.0)
    kernel = sp.csr_matrix((data, (rows, cols)), shape=(n_states * 2, n_states))
    return feasible, reward, kernel


def _oracle_firm_exit(n, rho, mu, nu, beta, s):
    grid, q = markov.tauchen(n, rho=rho, nu=nu, b=mu)
    profits = grid
    n_states = n + 1
    out = n
    feasible = np.zeros((n_states, 2), dtype=bool)
    reward = np.zeros((n_states, 2))
    rows, cols, data = [], [], []
    for i in range(n):
        feasible[i] = [True, True]
        reward[i] = [profits[i], s]
        for j in range(n):
            if q[i, j] > 0:
                rows.append(i * 2 + 0)
                cols.append(j)
                data.append(q[i, j])
        rows.append(i * 2 + 1)
        cols.append(out)
        data.append(1.0)
    feasible[out, 0] = True
    rows.append(out * 2 + 0)
    cols.append(out)
    data.append(1.0)
    kernel = sp.csr_matrix((data, (rows, cols)), shape=(n_states * 2, n_states))
    return feasible, reward, kernel


def _oracle_american_option_mdp(built):
    z_vals, q = built["z_vals"], built["transition"]
    w_vals, w_probs = built["w_vals"], built["w_probs"]
    n_dates, horizon = built["n_dates"], built["horizon"]
    nz, nw = z_vals.size, w_vals.size
    n_states = n_dates * nw * nz + 1
    done = n_states - 1

    def idx(i, iw, iz):
        return (i * nw + iw) * nz + iz

    feasible = np.zeros((n_states, 2), dtype=bool)
    reward = np.zeros((n_states, 2))
    rows, cols, data = [], [], []
    for i in range(n_dates):
        nxt = min(i + 1, n_dates - 1)
        live = 1.0 if i < horizon else 0.0
        payoff = live * (z_vals[None, :] + w_vals[:, None] - built["strike"])
        for iw in range(nw):
            for iz in range(nz):
                state = idx(i, iw, iz)
                feasible[state] = [True, True]
                reward[state, 1] = payoff[iw, iz]
                for jw in range(nw):
                    for jz in range(nz):
                        prob = w_probs[jw] * q[iz, jz]
                        if prob > 0:
                            rows.append(state * 2 + 0)
                            cols.append(idx(nxt, jw, jz))
                            data.append(prob)
                rows.append(state * 2 + 1)
                cols.append(done)
                data.append(1.0)
    feasible[done, 0] = True
    rows.append(done * 2 + 0)
    cols.append(done)
    data.append(1.0)
    kernel = sp.csr_matrix((data, (rows, cols)), shape=(n_states * 2, n_states))
    return feasible, reward, kernel


def _oracle_inventory_mdp(beta, K, c, kappa, p, d_max):
    phi = models._geometric_demand(p, d_max)
    d_vals = np.arange(d_max + 1)
    n = K + 1
    feasible = np.zeros((n, n), dtype=bool)
    reward = np.full((n, n), -np.inf)
    kernel = np.zeros((n, n, n))
    expected_sales = np.array([np.minimum(x, d_vals) @ phi for x in range(n)])
    for x in range(n):
        next_no_order = np.maximum(x - d_vals, 0)
        for a in range(n - x):
            feasible[x, a] = True
            reward[x, a] = expected_sales[x] - c * a - kappa * (a > 0)
            np.add.at(kernel[x, a], next_no_order + a, phi)
    return feasible, reward, kernel


def _oracle_optimal_default(beta, q_price, reentry, haircut, crra, y_size, rho, nu, b_min, b_max, b_size):
    y_grid_log, q = markov.tauchen(y_size, rho=rho, nu=nu)
    y_grid = np.exp(y_grid_log)
    b_grid = np.linspace(b_min, b_max, b_size)
    zero_idx = int(np.argmin(np.abs(b_grid)))
    b_grid[zero_idx] = 0.0
    n = y_size * b_size * 2
    m = b_size + 1
    default_action = b_size

    def state_index(iy, ib, d):
        return (iy * b_size + ib) * 2 + d

    feasible = np.zeros((n, m), dtype=bool)
    reward = np.full((n, m), -np.inf)
    rows, cols, data = [], [], []
    for iy in range(y_size):
        y = y_grid[iy]
        penalty_utility = models.crra_utility(haircut * y, crra)
        for ib in range(b_size):
            s_good = state_index(iy, ib, 0)
            s_bad = state_index(iy, ib, 1)
            for ba in range(b_size):
                c = y + b_grid[ib] - q_price * b_grid[ba]
                if c > 0:
                    feasible[s_good, ba] = True
                    reward[s_good, ba] = models.crra_utility(c, crra)
                    for jy in range(y_size):
                        rows.append(s_good * m + ba)
                        cols.append(state_index(jy, ba, 0))
                        data.append(q[iy, jy])
            for s in (s_good, s_bad):
                feasible[s, default_action] = True
                reward[s, default_action] = penalty_utility
                for jy in range(y_size):
                    rows.append(s * m + default_action)
                    cols.append(state_index(jy, zero_idx, 0))
                    data.append(reentry * q[iy, jy])
                    rows.append(s * m + default_action)
                    cols.append(state_index(jy, zero_idx, 1))
                    data.append((1 - reentry) * q[iy, jy])
    kernel = sp.csr_matrix((data, (rows, cols)), shape=(n * m, n))
    return feasible, reward, kernel


def _oracle_default_region(built, result):
    y_size, b_size = built["shape"]
    out = np.zeros((y_size, b_size), dtype=bool)
    for iy in range(y_size):
        for ib in range(b_size):
            s = built["state_index"](iy, ib, 0)
            out[iy, ib] = result.policy[s] == built["default_action"]
    return out


def _oracle_ct_inventory_restock(alpha, capacity, rate):
    n = capacity + 1
    pi = np.zeros((n, n))
    pi[0, capacity] = 1.0
    sizes = np.arange(1, capacity + 1)
    weights = (1 - alpha) ** (sizes - 1) * alpha
    for x in range(1, n):
        for u, w in zip(sizes, weights):
            pi[x, max(x - u, 0)] += w
        pi[x] /= pi[x].sum()
    return pi


def _oracle_ct_job_search(kappa, alpha, delta, c, n, rho, nu, wage_scale):
    grid, p = markov.tauchen(n, rho=rho, nu=nu)
    wages = wage_scale * np.exp(grid)
    n_states = 2 * n
    feasible = np.zeros((n_states, 2), dtype=bool)
    reward = np.zeros((n_states, 2))
    kernel = np.zeros((n_states, 2, n_states))
    for i in range(n):
        u, e = i, n + i
        feasible[u] = [True, True]
        reward[u] = [c, c]
        kernel[u, 0, :n] = kappa * p[i]
        kernel[u, 0, u] -= kappa
        kernel[u, 1, n : 2 * n] = kappa * p[i]
        kernel[u, 1, u] -= kappa
        feasible[e, 0] = True
        reward[e, 0] = wages[i]
        kernel[e, 0, :n] = alpha * p[i]
        kernel[e, 0, e] -= alpha
    return feasible, reward, kernel


# ---------------------------------------------------------------------------
# Helpers


def _params(builder, ci_scale=False, **overrides):
    params = {k: p.default for k, p in inspect.signature(builder).parameters.items()}
    card = ZOO.get(builder.__name__)
    if ci_scale and card is not None:
        params.update(card.ci_overrides)
    params.update(overrides)
    return params


def _assert_same_model(model, oracle, reward_ulp=0):
    feasible, reward, kernel = oracle
    assert np.array_equal(model.feasible, feasible)
    assert np.array_equal(np.isfinite(model.reward), np.isfinite(reward))
    if reward_ulp:
        finite = np.isfinite(reward)
        np.testing.assert_array_max_ulp(model.reward[finite], reward[finite], maxulp=reward_ulp)
        assert np.array_equal(model.reward[~finite], reward[~finite])
    else:
        assert np.array_equal(model.reward, reward)
    got = model.kernel
    if sp.issparse(kernel):
        assert sp.isspmatrix_csr(got) and got.shape == kernel.shape
        assert np.array_equal(got.indptr, kernel.indptr)
        assert np.array_equal(got.indices, kernel.indices)
        assert np.array_equal(got.data, kernel.data)
    else:
        assert np.array_equal(got, kernel.reshape(got.shape))


MARKOV_VARIANTS = [
    pytest.param(dict(variant="plain"), id="plain"),
    pytest.param(dict(variant="separation"), id="separation"),
]

# ---------------------------------------------------------------------------
# CI and default scale


@pytest.mark.parametrize("ci_scale", [True, False], ids=["ci", "default"])
class TestZooScales:
    def test_job_search_iid(self, ci_scale):
        params = _params(models.job_search_iid, ci_scale)
        model = ZOO["job_search_iid"].build(ci_scale=ci_scale)["mdp"]
        _assert_same_model(model, _oracle_job_search_iid(**params))

    @pytest.mark.parametrize("variant", MARKOV_VARIANTS)
    def test_job_search_markov(self, ci_scale, variant):
        params = _params(models.job_search_markov, ci_scale, **variant)
        model = ZOO["job_search_markov"].build(ci_scale=ci_scale, **variant)["mdp"]
        _assert_same_model(model, _oracle_job_search_markov(**params))

    def test_firm_exit(self, ci_scale):
        params = _params(models.firm_exit, ci_scale)
        model = ZOO["firm_exit"].build(ci_scale=ci_scale)["mdp"]
        _assert_same_model(model, _oracle_firm_exit(**params))

    def test_inventory_mdp(self, ci_scale):
        params = _params(models.inventory_mdp, ci_scale)
        model = ZOO["inventory_mdp"].build(ci_scale=ci_scale)["mdp"]
        _assert_same_model(model, _oracle_inventory_mdp(**params))

    def test_optimal_default(self, ci_scale):
        params = _params(models.optimal_default, ci_scale)
        model = ZOO["optimal_default"].build(ci_scale=ci_scale)["mdp"]
        _assert_same_model(model, _oracle_optimal_default(**params), reward_ulp=1)

    def test_ct_job_search(self, ci_scale):
        params = _params(models.ct_job_search, ci_scale)
        model = ZOO["ct_job_search"].build(ci_scale=ci_scale)["ctmdp"]
        _assert_same_model(model, _oracle_ct_job_search(**params))

    def test_ct_inventory_restock(self, ci_scale):
        params = _params(models.ct_inventory_restock, ci_scale)
        spec = ZOO["ct_inventory_restock"].build(ci_scale=ci_scale)["jump_spec"]
        assert np.array_equal(spec.jump_matrix, _oracle_ct_inventory_restock(**params))


@pytest.mark.parametrize("n, T", [(40, 60), (7, 0), (5, 1)])
def test_american_option_mdp(n, T):
    built = models.american_option(n=n, T=T)
    model, idx = models.american_option_mdp(built)
    _assert_same_model(model, _oracle_american_option_mdp(built))
    assert idx(T, 1, n - 1) == ((T * 2 + 1) * n) + n - 1


@pytest.mark.parametrize(
    "ci_scale, crra", [(True, 2.0), (False, 2.0), (True, 3.5)], ids=["ci", "default", "ci-crra-3.5"]
)
def test_optimal_default_solves_as_the_oracle(ci_scale, crra):
    """Last-place reward differences leave every policy and iteration count alone."""
    params = _params(models.optimal_default, ci_scale, crra=crra)
    built = ZOO["optimal_default"].build(ci_scale=ci_scale, crra=crra)
    feasible, reward, kernel = _oracle_optimal_default(**params)
    oracle = dp.MDPModel(feasible=feasible, reward=reward, kernel=kernel, beta=params["beta"])
    for solve in (dp.solve_vfi, dp.solve_hpi, lambda mdp: dp.solve_opi(mdp, m=50)):
        got, want = solve(built["mdp"]), solve(oracle)
        assert np.array_equal(got.policy, want.policy)
        assert got.iterations == want.iterations
        # HPI's values are certified to its error bound, and no closer.
        slack = got.error_bound + want.error_bound if solve is dp.solve_hpi else 0
        np.testing.assert_allclose(got.value, want.value, rtol=1e-13, atol=slack)
    for algorithm in ("vfi", "hpi"):
        got = rdp.rdp_solve(built["rdp"], algorithm=algorithm)
        want = rdp.rdp_solve(rdp.from_mdp(oracle), algorithm=algorithm)
        assert np.array_equal(got.policy, want.policy)
        assert got.iterations == want.iterations
        # So are RDP HPI's, evaluated by Newton steps.
        slack = got.error_bound + want.error_bound if algorithm == "hpi" else 0
        np.testing.assert_allclose(got.value, want.value, rtol=1e-13, atol=slack)


def test_default_region_matches_oracle():
    built = ZOO["optimal_default"].build(ci_scale=True)
    rng = np.random.default_rng(3)
    for policy in (dp.solve_hpi(built["mdp"]).policy, rng.integers(0, 11, 200)):
        result = SimpleNamespace(policy=policy)
        region = models.default_region(built, result)
        assert region.dtype == bool
        assert np.array_equal(region, _oracle_default_region(built, result))


# ---------------------------------------------------------------------------
# Small random parameters

unit = st.floats(0.05, 0.95)


@settings(max_examples=40, deadline=None, database=None)
@given(
    n=st.integers(2, 12),
    rho=st.floats(-0.95, 0.95),
    nu=st.floats(0.01, 2.0),
    alpha=st.one_of(st.just(0.0), st.just(1.0), unit),
    variant=st.sampled_from(["plain", "separation"]),
    c=st.floats(-5, 5),
)
@example(n=5, rho=0.9, nu=0.2, alpha=0.0, variant="separation", c=1.0)
@example(n=5, rho=0.9, nu=0.2, alpha=1.0, variant="separation", c=1.0)
def test_job_search_markov_random(n, rho, nu, alpha, variant, c):
    params = dict(variant=variant, n=n, rho=rho, nu=nu, beta=0.9, c=c, alpha=alpha)
    model = models.job_search_markov(**params)["mdp"]
    _assert_same_model(model, _oracle_job_search_markov(**params))


@settings(max_examples=25, deadline=None, database=None)
@given(n=st.integers(1, 12), a=st.floats(0.5, 300), b=st.floats(0.5, 300), c=st.floats(0, 20))
def test_job_search_iid_random(n, a, b, c):
    params = dict(n=n, w_min=1.0, w_max=30.0, a=a, b=b, beta=0.9, c=c)
    _assert_same_model(models.job_search_iid(**params)["mdp"], _oracle_job_search_iid(**params))


@settings(max_examples=25, deadline=None, database=None)
@given(n=st.integers(2, 12), rho=st.floats(-0.95, 0.95), nu=st.floats(0.01, 2.0), s=st.floats(-10, 10))
def test_firm_exit_random(n, rho, nu, s):
    params = dict(n=n, rho=rho, mu=0.1, nu=nu, beta=0.9, s=s)
    _assert_same_model(models.firm_exit(**params)["mdp"], _oracle_firm_exit(**params))


@settings(max_examples=20, deadline=None, database=None)
@given(n=st.integers(2, 6), T=st.integers(0, 5), s=st.floats(0, 2), K=st.floats(5, 15))
def test_american_option_mdp_random(n, T, s, K):
    built = models.american_option(n=n, T=T, s=s, K=K)
    _assert_same_model(models.american_option_mdp(built)[0], _oracle_american_option_mdp(built))


@settings(max_examples=30, deadline=None, database=None)
@given(
    K=st.integers(0, 12),
    d_max=st.integers(0, 15),
    p=unit,
    c=st.floats(0, 2),
    kappa=st.floats(-1, 3),
)
def test_inventory_mdp_random(K, d_max, p, c, kappa):
    params = dict(beta=0.9, K=K, c=c, kappa=kappa, p=p, d_max=d_max)
    _assert_same_model(models.inventory_mdp(**params)["mdp"], _oracle_inventory_mdp(**params))


@settings(max_examples=30, deadline=None, database=None)
@given(
    y_size=st.integers(2, 5),
    b_size=st.integers(1, 6),
    b_min=st.floats(-4.0, -0.1),
    b_max=st.floats(0.05, 2.0),
    reentry=st.one_of(st.just(0.0), st.just(1.0), unit),
    crra=st.sampled_from([1.0, 2.0, 3.5]),
    q_price=st.floats(0.5, 1.0),
)
@example(y_size=3, b_size=5, b_min=-4.0, b_max=1.0, reentry=0.0, crra=2.0, q_price=0.96)
@example(y_size=3, b_size=5, b_min=-4.0, b_max=1.0, reentry=1.0, crra=2.0, q_price=0.96)
def test_optimal_default_random(y_size, b_size, b_min, b_max, reentry, crra, q_price):
    """Bond grids reaching ``b_min = -4`` leave some consumption at or below zero."""
    params = dict(
        beta=0.9, q_price=q_price, reentry=reentry, haircut=0.9, crra=crra,
        y_size=y_size, rho=0.9, nu=0.1, b_min=b_min, b_max=b_max, b_size=b_size,
    )
    model = models.optimal_default(**params)["mdp"]
    # The array power is within one ulp of the scalar one; dividing by
    # 1 - crra, when that is not a power of two, can make it two.
    reward_ulp = 1 if crra in (1.0, 2.0) else 2
    _assert_same_model(model, _oracle_optimal_default(**params), reward_ulp=reward_ulp)


@settings(max_examples=30, deadline=None, database=None)
@given(alpha=unit, capacity=st.integers(0, 25))
@example(alpha=0.7, capacity=1)
def test_ct_inventory_restock_random(alpha, capacity):
    spec = models.ct_inventory_restock(alpha=alpha, capacity=capacity)["jump_spec"]
    assert np.array_equal(spec.jump_matrix, _oracle_ct_inventory_restock(alpha, capacity, 0.5))


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(2, 10),
    kappa=st.floats(0.1, 3),
    alpha=st.floats(0.0, 1.0),
    c=st.floats(-5, 5),
)
def test_ct_job_search_random(n, kappa, alpha, c):
    params = dict(kappa=kappa, alpha=alpha, delta=0.1, c=c, n=n, rho=0.9, nu=0.2, wage_scale=10.0)
    _assert_same_model(models.ct_job_search(**params)["ctmdp"], _oracle_ct_job_search(**params))
