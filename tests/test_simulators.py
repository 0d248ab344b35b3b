"""Every simulator samples through one inverse-CDF sampler in ``fsdp.markov``.

The ``_oracle_*`` functions are the per-simulator loops the sampler
replaced, kept as references: for fixed seeds each simulator must
return exactly what its oracle returns.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdp import cli, ctmdp, markov, models
from fsdp.models import ZOO

# ---------------------------------------------------------------------------
# Reference loops


def _oracle_simulate_chain(p, psi0, steps, rng):
    row_cum = np.cumsum(p, axis=1)
    init_cum = np.cumsum(psi0)
    uniforms = rng.random(steps + 1)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = np.searchsorted(init_cum, uniforms[0], side="right")
    for t in range(steps):
        path[t + 1] = np.searchsorted(row_cum[path[t]], uniforms[t + 1], side="right")
    np.clip(path, 0, p.shape[0] - 1, out=path)
    return path


def _oracle_simulate_jump_chain(spec, psi0, horizon, rng):
    rates, pi = spec.rates, spec.jump_matrix
    row_cum = np.cumsum(pi, axis=1)
    state = int(np.searchsorted(np.cumsum(psi0), rng.random(), side="right"))
    state = min(state, rates.size - 1)
    times, states, t = [0.0], [state], 0.0
    while True:
        t += -np.log(rng.random()) / rates[state]
        state = int(np.searchsorted(row_cum[state], rng.random(), side="right"))
        state = min(state, rates.size - 1)
        times.append(t)
        states.append(state)
        if t > horizon:
            break
    return np.array(times), np.array(states, dtype=np.int64)


def _oracle_mdp_path(model, sigma, steps, seed):
    rng = np.random.default_rng(seed)
    n = model.n_states
    kernel = model.kernel[np.arange(n) * model.n_actions + sigma]
    kernel = np.asarray(kernel.todense()) if hasattr(kernel, "todense") else np.array(kernel)
    row_cum = np.cumsum(kernel, axis=1)
    path = np.empty(steps + 1, dtype=np.int64)
    path[0] = 0
    draws = rng.random(max(steps, 1))
    for t in range(steps):
        path[t + 1] = min(int(np.searchsorted(row_cum[path[t]], draws[t], side="right")), n - 1)
    return path


def _oracle_savings_wealth(built, result, steps, seed, w0_index=0):
    w_size, y_size = built["shape"]
    rng = np.random.default_rng(seed)
    row_cum = np.cumsum(built["transition"], axis=1)
    draws = rng.random(steps)
    policy = result.policy.reshape(w_size, y_size)
    wealth_idx = np.empty(steps + 1, dtype=np.int64)
    wealth_idx[0] = w0_index
    iy = 0
    out = np.empty(steps + 1)
    out[0] = built["w_grid"][w0_index]
    for t in range(steps):
        wealth_idx[t + 1] = policy[wealth_idx[t], iy]
        out[t + 1] = built["w_grid"][wealth_idx[t + 1]]
        iy = min(int(np.searchsorted(row_cum[iy], draws[t], side="right")), y_size - 1)
    return out


def _oracle_savings_wealth_stochastic(built, result, steps, seed):
    w_size, y_size, eta_size = built["shape"]
    rng = np.random.default_rng(seed)
    row_cum = np.cumsum(built["transition"], axis=1)
    y_draws = rng.random(steps)
    eta_draws = rng.integers(0, eta_size, size=steps + 1)
    policy = result.policy.reshape(w_size, y_size, eta_size)
    out = np.empty(steps + 1)
    iw, iy = 0, 0
    out[0] = built["w_grid"][iw]
    for t in range(steps):
        iw = policy[iw, iy, eta_draws[t]]
        out[t + 1] = built["w_grid"][iw]
        iy = min(int(np.searchsorted(row_cum[iy], y_draws[t], side="right")), y_size - 1)
    return out


def _oracle_investment(built, result, steps, seed):
    y_size, z_size = built["shape"]
    rng = np.random.default_rng(seed)
    row_cum = np.cumsum(built["transition"], axis=1)
    draws = rng.random(steps)
    policy = result.policy.reshape(y_size, z_size)
    iy, iz = y_size // 2, z_size // 2
    outputs, targets = np.empty(steps), np.empty(steps)
    for t in range(steps):
        outputs[t] = built["y_grid"][iy]
        targets[t] = built["target_output"](built["z_grid"][iz])
        iy = policy[iy, iz]
        iz = min(int(np.searchsorted(row_cum[iz], draws[t], side="right")), z_size - 1)
    return outputs, targets


def _oracle_hiring(built, result, steps, seed):
    l_size, z_size = built["shape"]
    rng = np.random.default_rng(seed)
    row_cum = np.cumsum(built["transition"], axis=1)
    draws = rng.random(steps)
    policy = result.policy.reshape(l_size, z_size)
    iz = z_size // 2
    labor = np.empty(steps + 1, dtype=np.int64)
    labor[0] = 0
    for t in range(steps):
        labor[t + 1] = policy[labor[t], iz]
        iz = min(int(np.searchsorted(row_cum[iz], draws[t], side="right")), z_size - 1)
    return built["l_grid"][labor]


# ---------------------------------------------------------------------------
# Fixtures


def _assert_identical(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_identical(g, w)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _chain_inputs():
    rng = np.random.default_rng(0)
    sparse_rows = rng.random((12, 12)) * (rng.random((12, 12)) < 0.3)
    sparse_rows[np.arange(12), rng.integers(0, 12, 12)] += 0.5
    _, tauchen = markov.tauchen(1000, rho=0.96, nu=0.1, m=10.0)
    return {
        "day_laborer": np.array([[0.7, 0.3], [0.2, 0.8]]),
        "zero_heavy": sparse_rows / sparse_rows.sum(axis=1, keepdims=True),
        "tauchen": tauchen,
    }


CHAINS = _chain_inputs()
MDP_CARDS = [name for name, card in ZOO.items() if card.kind == "mdp"]
MODEL_SIMULATORS = {
    "optimal_savings": (models.simulate_savings_wealth, _oracle_savings_wealth),
    "optimal_savings_stochastic_returns": (
        models.simulate_savings_wealth_stochastic,
        _oracle_savings_wealth_stochastic,
    ),
    "optimal_investment": (models.simulate_investment, _oracle_investment),
    "firm_hiring": (models.simulate_hiring, _oracle_hiring),
}


@pytest.fixture(scope="module")
def solved_cards():
    out = {}
    for name in MDP_CARDS:
        built = ZOO[name].build(ci_scale=True)
        out[name] = (built, cli.run_solver(built, {"solver": "hpi"}))
    return out


class ConstantRng:
    """Stub generator whose draws cycle through ``values``.

    Its ``bit_generator.state`` is the number of draws made, and setting
    it rewinds the cycle, as a numpy generator's state does.
    """

    def __init__(self, *values):
        self._values = values
        self.state = 0
        self.bit_generator = self

    def random(self, size=None):
        draws = [self._values[(self.state + i) % len(self._values)] for i in range(size or 1)]
        self.state += len(draws)
        return draws[0] if size is None else np.array(draws)


# A row that passes the row-sum check while a draw can land above its total.
SHORT_ROW = [0.5, 0.5 - 1e-11, 0.0]
HIGH_DRAW = 0.99999999999999


# ---------------------------------------------------------------------------
# Tests


class TestSameSeedSamePath:
    @pytest.mark.parametrize("name", sorted(CHAINS))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_simulate_chain(self, name, seed):
        p = CHAINS[name]
        psi0 = np.full(p.shape[0], 1.0 / p.shape[0])
        got = markov.simulate_chain(p, psi0, 5_000, np.random.default_rng(seed))
        want = _oracle_simulate_chain(p, psi0, 5_000, np.random.default_rng(seed))
        _assert_identical(got, want)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_simulate_jump_chain(self, seed):
        spec = ZOO["ct_inventory_restock"].build()["jump_spec"]
        psi0 = np.zeros(spec.rates.size)
        psi0[-1] = 1.0
        got = ctmdp.simulate_jump_chain(spec, psi0, 500.0, np.random.default_rng(seed))
        times, states = _oracle_simulate_jump_chain(spec, psi0, 500.0, np.random.default_rng(seed))
        _assert_identical(got.jump_times, times)
        _assert_identical(got.states, states)

    @pytest.mark.parametrize("horizon", [0.5, 500.0, 20_000.0])
    def test_jump_chain_leaves_the_generator_where_scalar_draws_do(self, horizon):
        # 20 000 time units take several blocks of draws.
        spec = ZOO["ct_inventory_restock"].build()["jump_spec"]
        psi0 = np.full(spec.rates.size, 1.0 / spec.rates.size)
        got, want = np.random.default_rng(11), np.random.default_rng(11)
        path = ctmdp.simulate_jump_chain(spec, psi0, horizon, got)
        times, states = _oracle_simulate_jump_chain(spec, psi0, horizon, want)
        _assert_identical(path.jump_times, times)
        _assert_identical(path.states, states)
        _assert_identical(got.random(5), want.random(5))

    @pytest.mark.parametrize("name", sorted(MODEL_SIMULATORS))
    @pytest.mark.parametrize("steps", [0, 1, 3_000])
    def test_model_simulators(self, solved_cards, name, steps):
        built, result = solved_cards[name]
        simulate, oracle = MODEL_SIMULATORS[name]
        for seed in (0, 3):
            _assert_identical(simulate(built, result, steps=steps, seed=seed), oracle(built, result, steps, seed))

    @pytest.mark.parametrize("name", MDP_CARDS)
    def test_cli_simulate_mdp(self, solved_cards, name):
        built, result = solved_cards[name]
        series, occupation, stats = cli._simulate_mdp(built, result, {"horizon": 3_000, "seed": 4})
        want = _oracle_mdp_path(built["mdp"], result.policy, 3_000, 4)
        _assert_identical(np.array([s for _, s, _ in series]), want)
        assert stats["steps"] == 3_000
        _assert_identical(occupation, np.bincount(want, minlength=built["mdp"].n_states) / want.size)


class TestDrawAboveRowTotal:
    """A draw at or above a row's total picks the row's last positive state."""

    def test_simulate_chain_stays_on_positive_transitions(self):
        p = np.array([SHORT_ROW] * 3)
        path = markov.simulate_chain(p, SHORT_ROW, 20, ConstantRng(HIGH_DRAW))
        assert np.all(path == 1)

    def test_jump_chain_stays_on_positive_transitions(self):
        spec = ctmdp.JumpChainSpec(rates=np.ones(3), jump_matrix=np.array([SHORT_ROW] * 3))
        # Draws alternate between jump targets and holding times.
        path = ctmdp.simulate_jump_chain(spec, SHORT_ROW, 5.0, ConstantRng(HIGH_DRAW, 0.5))
        assert path.states.size > 3
        assert np.all(path.states == 1)

    def test_csr_rows_with_trailing_explicit_zero(self):
        # Each row stores SHORT_ROW out of column order, its zero explicitly.
        data = np.tile([0.0, 0.5, 0.5 - 1e-11], 3)
        p = sp.csr_matrix((data, np.tile([2, 0, 1], 3), [0, 3, 6, 9]), shape=(3, 3))
        assert markov._sample_path(p, 0, np.full(4, HIGH_DRAW)).tolist() == [0, 1, 1, 1, 1]
        assert markov._sample_path(p, 0, np.array([0.2, 0.7])).tolist() == [0, 0, 1]


@st.composite
def chains_and_draws(draw):
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    p = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
    p[p.sum(axis=1) == 0, draw(st.integers(0, n - 1))] = 1.0
    p /= p.sum(axis=1, keepdims=True)
    u = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(1.0 - 2.0**-53))
    uniforms = np.array(draw(st.lists(u, max_size=40)))
    return p, draw(st.integers(0, n - 1)), uniforms, draw(st.integers(0, 2**32 - 1))


def _shuffled_csr(p, seed):
    """CSR copy of ``p`` that stores every entry, zeros included, out of column order."""
    rng = np.random.default_rng(seed)
    n = p.shape[0]
    indices = np.concatenate([rng.permutation(n) for _ in range(n)])
    data = p[np.repeat(np.arange(n), n), indices]
    return sp.csr_matrix((data, indices, np.arange(n + 1) * n), shape=(n, n))


class TestDenseAndSparseAgree:
    @settings(max_examples=150, deadline=None, database=None)
    @given(chains_and_draws())
    def test_same_path(self, case):
        p, x0, uniforms, seed = case
        dense = markov._sample_path(p, x0, uniforms)
        assert dense.size == uniforms.size + 1
        assert np.all(p[dense[:-1], dense[1:]] > 0)
        _assert_identical(markov._sample_path(sp.csr_matrix(p), x0, uniforms), dense)
        _assert_identical(markov._sample_path(_shuffled_csr(p, seed), x0, uniforms), dense)


def test_fsdp_simulate_never_densifies_the_kernel(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("sparse kernel densified")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.csr_array, sp.csc_array, sp.coo_array):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    overrides = [f"--override={k}={v}" for k, v in ZOO["optimal_investment"].ci_overrides.items()]
    config = tmp_path / "sim.json"
    config.write_text('{"model": "optimal_investment", "solver": "hpi", "horizon": 2000, "seed": 0}')
    assert sp.issparse(ZOO["optimal_investment"].build(ci_scale=True)["mdp"].kernel)
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "out"), *overrides]) == 0
    assert len((tmp_path / "out" / "series.csv").read_text().splitlines()) == 2002
