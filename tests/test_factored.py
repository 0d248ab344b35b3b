"""Factored kernels: the exogenous chain stays a matrix.

The ``_oracle_*`` builders are the flat-kernel index arithmetic the zoo
builders used before they moved to :class:`fsdp.dp.Factored`, kept as
references: the flat views a factored model materializes on read must
equal them exactly.
"""

import inspect
import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdp import cli, dp, markov, models
from fsdp.errors import SpectralRadiusError
from fsdp.models import ZOO

FACTORED_CARDS = [
    "inventory_sdd",
    "optimal_savings",
    "optimal_savings_stochastic_returns",
    "optimal_investment",
    "firm_hiring",
]

# ---------------------------------------------------------------------------
# Reference flat kernels


def _oracle_inventory_sdd(rho, nu, n_z, b, K, c, kappa, p, d_max):
    z_grid, q = markov.tauchen(n_z, rho=rho, nu=nu)
    z_vals = z_grid + b
    phi = models._geometric_demand(p, d_max)
    d_vals = np.arange(d_max + 1)
    n_y = K + 1
    restock = np.zeros((n_y, n_y, n_y))
    reward_y = np.full((n_y, n_y), -np.inf)
    expected_sales = np.array([np.minimum(y, d_vals) @ phi for y in range(n_y)])
    for y in range(n_y):
        next_no_order = np.maximum(y - d_vals, 0)
        for a in range(n_y - y):
            reward_y[y, a] = expected_sales[y] - c * a - kappa * (a > 0)
            np.add.at(restock[y, a], next_no_order + a, phi)
    n_states = n_y * n_z
    m = n_y
    feasible = np.zeros((n_states, m), dtype=bool)
    reward = np.full((n_states, m), -np.inf)
    kernel = np.zeros((n_states * m, n_states))
    weights = np.zeros((n_states * m, n_states))
    for y in range(n_y):
        for iz in range(n_z):
            state = y * n_z + iz
            for a in range(n_y - y):
                feasible[state, a] = True
                reward[state, a] = reward_y[y, a]
                kernel[state * m + a] = np.outer(restock[y, a], q[iz]).reshape(-1)
                weights[state * m + a] = z_vals[iz]
    return feasible, reward, kernel, weights


def _oracle_optimal_savings(built):
    q = built["transition"]
    w_size, y_size = built["shape"]
    n, m = w_size * y_size, w_size
    iw, iy, k = np.nonzero(built["mdp"].feasible.reshape(w_size, y_size, m))
    base_rows = (iw * y_size + iy) * m + k
    rows = np.repeat(base_rows, y_size)
    cols = (np.repeat(k, y_size) * y_size)[:] + np.tile(np.arange(y_size), base_rows.size)
    data = q[np.repeat(iy, y_size), np.tile(np.arange(y_size), base_rows.size)]
    return sp.csr_matrix((data, (rows, cols)), shape=(n * m, n)), None


def _oracle_optimal_savings_stochastic_returns(built):
    q, eta_probs = built["transition"], built["eta_probs"]
    w_size, y_size, eta_size = built["shape"]
    n, m = w_size * y_size * eta_size, w_size
    feasible4 = built["mdp"].feasible.reshape(w_size, y_size, eta_size, m)
    iw, iy, ie, k = np.nonzero(feasible4)
    base_rows = ((iw * y_size + iy) * eta_size + ie) * m + k
    n_next = y_size * eta_size
    rows = np.repeat(base_rows, n_next)
    next_iy = np.tile(np.repeat(np.arange(y_size), eta_size), base_rows.size)
    next_ie = np.tile(np.tile(np.arange(eta_size), y_size), base_rows.size)
    cols = (np.repeat(k, n_next) * y_size + next_iy) * eta_size + next_ie
    data = q[np.repeat(iy, n_next), next_iy] * eta_probs[next_ie]
    return sp.csr_matrix((data, (rows, cols)), shape=(n * m, n)), None


def _oracle_exogenous_grid(built):
    """``optimal_investment`` and ``firm_hiring``: every action feasible."""
    q = built["transition"]
    e_size, z_size = built["shape"]
    n, m = e_size * z_size, e_size
    ie, iz, k = np.meshgrid(np.arange(e_size), np.arange(z_size), np.arange(m), indexing="ij")
    base_rows = ((ie * z_size + iz) * m + k).reshape(-1)
    rows = np.repeat(base_rows, z_size)
    next_iz = np.tile(np.arange(z_size), base_rows.size)
    cols = np.repeat(k.reshape(-1), z_size) * z_size + next_iz
    data = q[np.repeat(iz.reshape(-1), z_size), next_iz]
    return sp.csr_matrix((data, (rows, cols)), shape=(n * m, n)), None


ORACLES = {
    "optimal_savings": _oracle_optimal_savings,
    "optimal_savings_stochastic_returns": _oracle_optimal_savings_stochastic_returns,
    "optimal_investment": _oracle_exogenous_grid,
    "firm_hiring": _oracle_exogenous_grid,
}


def _card_params(name, ci_scale):
    params = {
        key: p.default for key, p in inspect.signature(ZOO[name].builder).parameters.items()
    }
    if ci_scale:
        params.update(ZOO[name].ci_overrides)
    return params


def _assert_same_csr(got, want):
    assert sp.isspmatrix_csr(got)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


class TestFlatViews:
    @pytest.mark.parametrize("name", sorted(ORACLES))
    def test_matches_parent_arithmetic(self, name):
        built = ZOO[name].build(ci_scale=True)
        model = built["mdp"]
        assert isinstance(model.transitions, dp.Factored)
        kernel, weights = ORACLES[name](built)
        _assert_same_csr(model.kernel, kernel)
        assert model.discount_weights is None and weights is None

    @pytest.mark.parametrize("ci_scale", [True, False])
    def test_inventory_sdd_matches_parent_loop(self, ci_scale):
        model = ZOO["inventory_sdd"].build(ci_scale=ci_scale)["mdp"]
        feasible, reward, kernel, weights = _oracle_inventory_sdd(
            **_card_params("inventory_sdd", ci_scale)
        )
        assert np.array_equal(model.feasible, feasible)
        assert np.array_equal(model.reward, reward)
        assert isinstance(model.kernel, np.ndarray)
        assert np.array_equal(model.kernel, kernel)
        del kernel
        assert np.array_equal(model.discount_weights, weights)

    def test_views_are_built_on_first_read(self):
        model = ZOO["optimal_investment"].build(ci_scale=True)["mdp"]
        assert model._flat is None
        assert model.kernel is model.kernel
        assert model._flat is not None


# ---------------------------------------------------------------------------
# The protocol against the model's own flat materialization


@st.composite
def factored_models(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n_e = draw(st.integers(1, 4))
    n_z = draw(st.integers(1, 4))
    with_kernel = draw(st.booleans())
    with_vector = draw(st.booleans())
    rng = np.random.default_rng(seed)
    m = draw(st.integers(1, 4)) if with_kernel else n_e

    def stochastic(shape):
        x = rng.random(shape) * (rng.random(shape) < 0.6)
        x[..., 0] += 0.05
        return x / x.sum(axis=-1, keepdims=True)

    q = stochastic((n_z, n_z))
    endogenous = stochastic((n_e, m, n_e)) if with_kernel else None
    discount = rng.uniform(0.1, 0.95, n_z) if with_vector else float(rng.uniform(0.1, 0.95))
    feasible = rng.random((n_e * n_z, m)) < 0.7
    feasible[np.arange(n_e * n_z), rng.integers(0, m, n_e * n_z)] = True
    model = dp.MDPModel(
        feasible=feasible,
        reward=rng.standard_normal(feasible.shape),
        kernel=dp.Factored(q, discount, endogenous=endogenous),
    )
    return model, rng


def _flat_twin(model):
    return dp.MDPModel(
        feasible=model.feasible,
        reward=model.reward,
        kernel=model.kernel,
        beta=model.beta,
        discount_weights=model.discount_weights,
    )


class TestProtocol:
    @settings(max_examples=150, deadline=None, database=None)
    @given(factored_models())
    def test_matches_flat_materialization(self, case):
        model, rng = case
        flat = _flat_twin(model)
        assert isinstance(flat.transitions, dp.Flat)
        mask = model.feasible
        sigma = np.array([rng.choice(np.flatnonzero(row)) for row in mask])
        v = rng.standard_normal(model.n_states)
        for discounted in (True, False):
            got = model.transitions.expect(v, discounted)
            want = flat.transitions.expect(v, discounted)
            assert got.shape == mask.shape
            np.testing.assert_allclose(got[mask], want[mask], rtol=1e-12, atol=1e-14)
            l_got = model.transitions.policy_matrix(sigma, discounted)
            assert sp.isspmatrix_csr(l_got)
            assert np.array_equal(l_got.toarray(), dp.policy_matrix(flat, sigma, discounted))
        np.testing.assert_allclose(
            model.transitions.policy_operator(sigma)(v),
            flat.transitions.policy_operator(sigma)(v),
            rtol=1e-12,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            dp.bellman(model, v), dp.bellman(flat, v), rtol=1e-12, atol=1e-14
        )

    def test_constructor_checks(self):
        q = np.array([[0.5, 0.5], [0.2, 0.8]])
        feasible = np.ones((4, 2), dtype=bool)
        with pytest.raises(ValueError):  # 3 exogenous states do not tile 4 states
            dp.MDPModel(feasible, np.zeros((4, 2)), dp.Factored(np.eye(3), 0.9))
        with pytest.raises(ValueError):
            dp.MDPModel(feasible, np.zeros((4, 2)), dp.Factored(q * 0.9, 0.9))
        with pytest.raises(ValueError):
            dp.MDPModel(feasible, np.zeros((4, 2)), dp.Factored(q, 1.0))
        with pytest.raises(ValueError):
            dp.MDPModel(feasible, np.zeros((4, 2)), dp.Factored(q, [0.9, 0.9, 0.9]))
        with pytest.raises(ValueError):
            dp.MDPModel(feasible, np.zeros((4, 2)), dp.Factored(q, 0.9), beta=0.9)


# ---------------------------------------------------------------------------
# The structural certificate


def _unstable_sdd(radius):
    """Two stock levels, a two-state discount chain with rho(diag(d) Q) = radius."""
    q = np.array([[0.5, 0.5], [0.5, 0.5]])
    d = np.array([radius, radius])
    endogenous = np.zeros((2, 2, 2))
    endogenous[:, 0, 0] = endogenous[:, 1, 1] = 1.0
    return dp.MDPModel(
        feasible=np.ones((4, 2), dtype=bool),
        reward=np.ones((4, 2)),
        kernel=dp.Factored(q, d, endogenous=endogenous),
    )


class TestStructuralCertificate:
    def test_default_inventory_sdd_needs_no_certificate_string(self):
        built = models.inventory_sdd()
        result = dp.solve_vfi(built["mdp"])
        assert result.iterations == 747
        assert built["mdp"]._certified

    def test_checked_once_on_the_exogenous_block(self, radius_calls):
        model = ZOO["inventory_sdd"].build(ci_scale=True)["mdp"]
        radius_calls.clear()  # the build reports its discount radius
        dp.solve_hpi(model)
        dp.solve_vfi(model)
        # The bounding pair of diag(d) Q decides without eigenvalues, and
        # its h, constant in the endogenous index, certifies every policy.
        assert radius_calls == []
        h, lam = model._bounding
        kernel = model.transitions
        n_z = kernel.q.shape[0]
        assert np.array_equal(h, np.tile(h[:n_z], h.size // n_z))
        assert lam < 1 and np.all(kernel.discount * (kernel.q @ h[:n_z]) <= lam * h[:n_z])

    def test_borderline_calibration_raises_at_build(self):
        """rho(diag(z) Q) within the shared slack of one: refused before any solve."""
        with pytest.raises(SpectralRadiusError) as info:
            models.inventory_sdd(rho=0.5, nu=1e-15, n_z=2, b=1 - 5e-13, K=2, d_max=5)
        assert 1 - 1e-12 < info.value.spectral_radius < 1

    @pytest.mark.parametrize("radius", [1.0, 1.05])
    def test_radius_at_or_above_one_is_refused_at_build(self, radius):
        with pytest.raises(SpectralRadiusError, match="exogenous discount operator") as info:
            _unstable_sdd(radius)
        assert info.value.spectral_radius == pytest.approx(radius)

    def test_a_stable_kernel_is_certified_at_build(self, monkeypatch):
        monkeypatch.setattr(dp, "certify_stability", lambda *args: pytest.fail("certified after build"))
        model = _unstable_sdd(0.9)
        h, lam = model._bounding
        assert model._certified and lam == pytest.approx(0.9)
        assert np.array_equal(h, np.ones(4))

    def test_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(
            ZOO, "unstable_sdd", models.ModelCard("unstable_sdd", lambda: {"mdp": _unstable_sdd(1.05)})
        )
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "unstable_sdd", "solver": "vfi"}))
        assert cli.main(["solve", "--config", str(config), "--out", str(tmp_path / "o")]) == 3
        assert "1.05" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# No solver, CLI command or simulator reads the flat views


@pytest.fixture
def no_flat_views(monkeypatch):
    def refuse(self):
        raise AssertionError("flat view of a factored kernel materialized")

    monkeypatch.setattr(dp.Factored, "flatten", refuse)


@pytest.mark.parametrize("name", FACTORED_CARDS)
def test_solvers_and_cli_never_flatten(name, tmp_path, no_flat_views):
    model = ZOO[name].build(ci_scale=True)["mdp"]
    vfi = dp.solve_vfi(model)
    hpi = dp.solve_hpi(model)
    opi = dp.solve_opi(model)
    assert np.array_equal(vfi.policy, hpi.policy) and np.array_equal(opi.policy, hpi.policy)
    overrides = [f"--override={k}={v}" for k, v in ZOO[name].ci_overrides.items()]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": name, "solver": "hpi", "horizon": 500, "m_grid": [5]}))
    for command in ("solve", "bench", "simulate"):
        out = str(tmp_path / command)
        assert cli.main([command, "--config", str(config), "--out", out, *overrides]) == 0
