import json
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fsdp import cli, ctmdp, dp, fixed_point, rdp, spectral
from fsdp.dp import (
    FactorizedOperators,
    MDPModel,
    bellman,
    certify_stability,
    enumerate_policies,
    greedy,
    gumbel_ev_operator,
    policy_apply,
    policy_matrix,
    policy_reward,
    policy_value,
    solve_hpi,
    solve_opi,
    solve_refactored_opi,
    solve_vfi,
)
from fsdp.errors import ConvergenceError, SpectralRadiusError, StabilityError
from fsdp.models import ZOO

EULER_MASCHERONI = 0.5772156649015329
DISCRETE_CARDS = [name for name, card in ZOO.items() if card.kind in ("mdp", "rdp")]


def random_mdp(rng, n=6, m=3, beta=0.9, full=True):
    kernel = rng.random((n, m, n)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    reward = rng.standard_normal((n, m))
    feasible = np.ones((n, m), dtype=bool)
    if not full:
        feasible = rng.random((n, m)) < 0.7
        feasible[np.arange(n), rng.integers(0, m, n)] = True
    return MDPModel(feasible=feasible, reward=reward, kernel=kernel, beta=beta)


def single_state_model(r=1.0, beta=0.9):
    return MDPModel(
        feasible=np.ones((1, 1), dtype=bool),
        reward=np.array([[r]]),
        kernel=np.ones((1, 1, 1)),
        beta=beta,
    )


def _state_action_model(kind, feasible, reward):
    """An MDP, CT-MDP or RDP on a 2-state, 2-action space with the given mask and rewards."""
    if kind == "mdp":
        return MDPModel(feasible, reward, np.full((2, 2, 2), 0.5), beta=0.9)
    if kind == "ct":
        return ctmdp.CTMDPModel(feasible, 0.1, reward, np.zeros((2, 2, 2)))
    return rdp.RDPModel(feasible, lambda v: np.zeros((2, 2)), rdp.Contracting(0.5))


BAD_STATE_ACTIONS = {
    "1-d mask": (np.ones(2, dtype=bool), np.zeros(2)),
    "state without action": (np.array([[True, True], [False, False]]), np.zeros((2, 2))),
    "reward shape": (np.ones((2, 2), dtype=bool), np.zeros((2, 3))),
    "nan reward": (np.ones((2, 2), dtype=bool), np.array([[0.0, np.nan], [0.0, 0.0]])),
}


class TestModelValidation:
    @pytest.mark.parametrize(
        "kind, case",
        [(kind, case) for case in BAD_STATE_ACTIONS for kind in ("mdp", "ct", "rdp")
         if not (kind == "rdp" and "reward" in case)],  # an RDP has no reward table
    )
    def test_every_model_class_rejects_the_same_bad_state_actions(self, kind, case):
        _state_action_model(kind, np.ones((2, 2), dtype=bool), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            _state_action_model(kind, *BAD_STATE_ACTIONS[case])

    @pytest.mark.parametrize("kind", ["mdp", "ct", "rdp"])
    def test_every_model_class_rejects_a_mask_without_states(self, kind):
        # any(axis=1).all() holds vacuously on a mask with no rows.
        with pytest.raises(ValueError, match="at least one state"):
            _state_action_model(kind, np.zeros((0, 2), dtype=bool), np.zeros((0, 2)))

    def test_every_state_needs_an_action(self):
        with pytest.raises(ValueError):
            MDPModel(
                feasible=np.array([[True], [False]]),
                reward=np.zeros((2, 1)),
                kernel=np.full((2, 1, 2), 0.5),
                beta=0.9,
            )

    def test_kernel_rows_must_be_distributions(self):
        kernel = np.full((2, 1, 2), 0.4)
        with pytest.raises(ValueError):
            MDPModel(
                feasible=np.ones((2, 1), dtype=bool),
                reward=np.zeros((2, 1)),
                kernel=kernel,
                beta=0.9,
            )

    def test_beta_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            single_state_model(beta=1.0)

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    def test_negative_entries_rejected(self, storage):
        """Rows that sum to one are not distributions when an entry is negative."""
        kernel = storage(np.array([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="negative"):
            MDPModel(np.ones((2, 1), dtype=bool), np.zeros((2, 1)), kernel, beta=0.9)

    def test_factored_negative_entries_rejected(self):
        signed = np.array([[1.5, -0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="negative"):
            MDPModel(np.ones((2, 1), dtype=bool), np.zeros((2, 1)), dp.Factored(signed, 0.9))
        endogenous = signed.reshape(2, 1, 2)
        with pytest.raises(ValueError, match="negative"):
            MDPModel(
                np.ones((4, 1), dtype=bool),
                np.zeros((4, 1)),
                dp.Factored(np.full((2, 2), 0.5), 0.9, endogenous=endogenous),
            )

    def test_separation_above_one_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ZOO["job_search_markov"].build(ci_scale=True, variant="separation", alpha=1.5)

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix], ids=["dense", "csr"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kernel_rejected(self, storage, bad):
        kernel = storage(np.array([[bad, 1.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            MDPModel(np.ones((2, 1), dtype=bool), np.zeros((2, 1)), kernel, beta=0.9)

    def test_non_finite_row_of_infeasible_pair_rejected(self):
        kernel = np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            MDPModel(np.array([[True, False], [True, True]]), np.zeros((2, 2)), kernel, beta=0.9)

    def test_non_finite_discount_weights_rejected(self):
        weights = np.full((2, 1, 2), 0.9)
        weights[0, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            MDPModel(
                np.ones((2, 1), dtype=bool),
                np.zeros((2, 1)),
                np.full((2, 1, 2), 0.5),
                discount_weights=weights,
            )

    def test_factored_non_finite_entries_rejected(self):
        nan_rows = np.array([[np.nan, 1.0], [0.0, 1.0]])
        uniform = np.full((2, 2), 0.5)
        for kernel, n in [
            (dp.Factored(nan_rows, 0.9), 2),
            (dp.Factored(uniform, 0.9, endogenous=nan_rows.reshape(2, 1, 2)), 4),
            (dp.Factored(uniform, np.array([0.9, np.nan])), 2),
        ]:
            with pytest.raises(ValueError, match="non-finite"):
                MDPModel(np.ones((n, 1), dtype=bool), np.zeros((n, 1)), kernel)

    def test_row_check_counts_nan_sums_as_bad(self):
        with pytest.raises(ValueError, match="do not sum to 1"):
            dp._check_rows(np.array([1.0, np.nan]), "kernel")

    def test_sparse_kernel_accepted(self):
        kernel = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.8]]))
        model = MDPModel(
            feasible=np.ones((2, 2), dtype=bool),
            reward=np.zeros((2, 2)),
            kernel=kernel,
            beta=0.9,
        )
        assert model.n_states == 2 and model.n_actions == 2

    def test_infeasible_rewards_may_be_infinite(self):
        model = MDPModel(
            feasible=np.array([[True, False], [True, True]]),
            reward=np.array([[1.0, -np.inf], [0.5, 0.2]]),
            kernel=np.full((2, 2, 2), 0.5),
            beta=0.9,
        )
        assert model.feasible.sum() == 3


class TestPolicyValue:
    def test_single_state_geometric(self):
        model = single_state_model(r=1.0, beta=0.9)
        assert policy_value(model, [0]) == pytest.approx([10.0])

    def test_bounded_by_reward_scale(self):
        rng = np.random.default_rng(0)
        model = random_mdp(rng)
        bound = np.max(np.abs(model.reward)) / (1 - model.beta)
        for sigma in (greedy(model, np.zeros(6)), greedy(model, np.zeros(6), "min")):
            assert np.max(np.abs(policy_value(model, sigma))) <= bound + 1e-9

    def test_iteration_matches_partial_sums(self):
        rng = np.random.default_rng(1)
        model = random_mdp(rng)
        sigma = greedy(model, np.zeros(6))
        p_sigma = policy_matrix(model, sigma)
        r_sigma = policy_reward(model, sigma)
        v = np.zeros(6)
        partial = np.zeros(6)
        power = np.eye(6)
        for k in range(150):
            assert v == pytest.approx(partial, abs=1e-12)
            v = policy_apply(model, sigma, v)
            partial = partial + (model.beta**k) * (power @ r_sigma)
            power = power @ p_sigma
        assert v == pytest.approx(policy_value(model, sigma), abs=1e-3)

    def test_rejects_infeasible_policy(self):
        model = MDPModel(
            feasible=np.array([[True, False], [True, True]]),
            reward=np.zeros((2, 2)),
            kernel=np.full((2, 2, 2), 0.5),
            beta=0.9,
        )
        with pytest.raises(ValueError):
            policy_value(model, [1, 1])


def dense_policy_value(model, sigma):
    """Reference evaluation: dense ``np.linalg.solve`` of ``(I - L_sigma) v = r_sigma``."""
    l_sigma = policy_matrix(model, sigma, discounted=True)
    return np.linalg.solve(np.eye(model.n_states) - l_sigma, policy_reward(model, sigma))


def dense_hpi(model, mode="max", max_iter=1000):
    """Howard's loop with an exact dense solve per policy, started and stopped as solve_hpi is.

    Returns ``(sigma, v, k)``: the policy greedy at the final value ``v``
    and the number ``k`` of greedy steps.
    """
    sigma = greedy(model, np.zeros(model.n_states), mode)
    v = dense_policy_value(model, sigma)
    for k in range(1, max_iter + 1):
        sigma_new = greedy(model, v, mode)
        if np.array_equal(sigma_new, sigma):
            return sigma, v, k
        v_new = dense_policy_value(model, sigma_new)
        if np.max(np.abs(v_new - v)) <= 1e-12:
            return greedy(model, v_new, mode), v_new, k
        sigma, v = sigma_new, v_new
    raise AssertionError("dense reference HPI did not terminate")


def close_relative(a, b, tol=1e-10):
    return np.max(np.abs(a - b)) <= tol * max(1.0, np.max(np.abs(b)))


class TestSparsePolicyEvaluation:
    @settings(max_examples=80, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 4),
        sparse=st.booleans(),
        state_dependent=st.booleans(),
        certified=st.booleans(),
    )
    def test_matches_dense_solve(self, seed, n, m, sparse, state_dependent, certified):
        rng = np.random.default_rng(seed)
        kernel = rng.random((n * m, n)) * (rng.random((n * m, n)) < 0.5)
        kernel[np.arange(n * m), rng.integers(0, n, n * m)] += 0.1
        kernel /= kernel.sum(axis=1, keepdims=True)
        feasible = rng.random((n, m)) < 0.6
        feasible[np.arange(n), rng.integers(0, m, n)] = True
        discount = {"beta": rng.uniform(0.1, 0.99)}
        if state_dependent:
            weights = rng.uniform(0.0, 0.99, size=(n * m, n))
            discount = {"discount_weights": sp.csr_matrix(weights) if sparse else weights}
        model = MDPModel(
            feasible=feasible,
            reward=rng.standard_normal((n, m)),
            kernel=sp.csr_matrix(kernel) if sparse else kernel,
            **discount,
        )
        if certified:
            certify_stability(model)
        sigma = np.array([rng.choice(np.flatnonzero(row)) for row in feasible])
        v = policy_value(model, sigma)
        assert v.shape == (n,)
        assert close_relative(v, dense_policy_value(model, sigma))

    def test_hpi_evaluates_each_distinct_policy_once(self, monkeypatch):
        # Each new policy is solved once, to its forcing target; only the
        # final one is solved again, to the full target, from where its
        # first solve stopped.
        model = ZOO["optimal_investment"].build(ci_scale=True)["mdp"]
        calls = []
        original = dp._certified_policy_value

        def counting(model, sigma, **kwargs):
            v, bound = original(model, sigma, **kwargs)
            calls.append((np.asarray(sigma, dtype=np.int64).tobytes(), kwargs.get("x0"), v))
            return v, bound

        monkeypatch.setattr(dp, "_certified_policy_value", counting)
        result = solve_hpi(model)
        evaluated = [policy for policy, _, _ in calls]
        assert len(set(evaluated)) == result.iterations >= 3
        assert len(evaluated) == result.iterations + 1
        assert evaluated[-2] == evaluated[-1] == result.policy.astype(np.int64).tobytes()
        assert calls[-1][1] is calls[-2][2]
        assert close_relative(result.value, dense_policy_value(model, result.policy))

    def test_products_count_the_policy_operator(self, monkeypatch):
        model = ZOO["optimal_savings"].build(ci_scale=True)["mdp"]
        products = []
        original = model.transitions.policy_operator

        def counting(sigma):
            apply = original(sigma)

            def counted(v):
                products.append(1)
                return apply(v)

            return counted

        monkeypatch.setattr(model.transitions, "policy_operator", counting)
        hpi = solve_hpi(model)
        assert hpi.products == len(products) > 0
        # OPI counts its start evaluation, not its m-step sweeps.
        products.clear()
        opi = solve_opi(model, m=5)
        assert opi.products == len(products) - 5 * opi.iterations > 0
        products.clear()
        assert solve_vfi(model).products == 0 and products == []

    @pytest.mark.parametrize("certificate", ["dominating", "certified"])
    def test_certified_solve_checks_no_policy_radius(self, radius_calls, certificate):
        # Actions share a transition row, so b_max * P dominates every
        # discounted policy operator at once.
        rng = np.random.default_rng(29)
        n, m, b_max = 12, 3, 0.95
        p = rng.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        model = MDPModel(
            feasible=np.ones((n, m), dtype=bool),
            reward=rng.standard_normal((n, m)),
            kernel=np.repeat(p[:, None, :], m, axis=1),
            discount_weights=rng.uniform(0.5, b_max, size=(n, m, n)),
        )
        dominating = b_max * p if certificate == "dominating" else "certified"
        result = solve_hpi(model, dominating=dominating)
        # Only the dominating matrix itself is checked, before the loop, and
        # its row sums (at most b_max) certify it without eigenvalues.
        assert radius_calls == []
        assert close_relative(result.value, dense_policy_value(model, result.policy))

    @pytest.mark.parametrize("card", DISCRETE_CARDS)
    def test_zoo_hpi_matches_dense_oracle(self, card):
        built = ZOO[card].build(ci_scale=True)
        model = built["mdp"]
        dominating = "certified" if "exogenous_certificate" in built else None
        result = solve_hpi(model, dominating=dominating)
        sigma, v, _ = dense_hpi(model)
        assert np.array_equal(result.policy, sigma)
        assert close_relative(result.value, v)


def _stochastic(rng, shape):
    x = rng.random(shape) * (rng.random(shape) < 0.6)
    x[..., 0] += 0.05
    return x / x.sum(axis=-1, keepdims=True)


@st.composite
def evaluation_cases(draw):
    """A model and one feasible policy, over every route to a bounding pair.

    Flat dense or CSR kernels with a constant beta; factored kernels with
    either endogenous form and a constant or per-exogenous-state
    discount; flat state-dependent kernels certified by a dominating
    matrix, by the string ``"certified"``, or not at all.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(
        st.sampled_from(["dense", "csr", "factored", "dominating", "certified", "uncertified"])
    )
    scale = 10.0 ** draw(st.integers(-4, 4))
    rng = np.random.default_rng(seed)
    if kind == "factored":
        n_e, n_z = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        with_kernel = draw(st.booleans())
        m = draw(st.integers(1, 4)) if with_kernel else n_e
        endogenous = _stochastic(rng, (n_e, m, n_e)) if with_kernel else None
        if draw(st.booleans()):
            discount = rng.uniform(0.1, 1.1, n_z)
        else:
            discount = float(rng.uniform(0.1, 0.995))
        kernel = dp.Factored(_stochastic(rng, (n_z, n_z)), discount, endogenous=endogenous)
        n, extra = n_e * n_z, {}
    else:
        n, m = draw(st.integers(1, 8)), draw(st.integers(1, 4))
        kernel = _stochastic(rng, (n * m, n))
        if kind == "dominating":
            p = _stochastic(rng, (n, n))
            b_max = rng.uniform(0.5, 0.99)
            kernel = np.repeat(p[:, None, :], m, axis=1)
            extra = {"discount_weights": rng.uniform(0.3, b_max, size=(n, m, n))}
        elif kind in ("certified", "uncertified"):
            extra = {"discount_weights": rng.uniform(0.0, 1.2, size=(n * m, n))}
        else:
            extra = {"beta": rng.uniform(0.1, 0.995)}
            kernel = sp.csr_matrix(kernel) if kind == "csr" else kernel
    feasible = rng.random((n, m)) < 0.7
    feasible[np.arange(n), rng.integers(0, m, n)] = True
    model = MDPModel(feasible, scale * rng.standard_normal((n, m)), kernel, **extra)
    sigma = np.array([rng.choice(np.flatnonzero(row)) for row in feasible])
    rho = np.max(np.abs(np.linalg.eigvals(policy_matrix(model, sigma, discounted=True))))
    assume(rho < 0.995)
    if kind == "dominating":
        certify_stability(model, b_max * p)
    elif kind in ("certified", "factored") and model.state_dependent:
        certify_stability(model, "certified")
    return model, sigma, rng


def _contraction(model, sigma):
    return dp._bounding_pair(model, model.transitions.policy_operator(sigma))[1]


def _certified_target(model, sigma, x):
    """The accuracy policy evaluation promises: ``max(1e-12, 64 eps / (1 - lam)) * max(1, |x|)``."""
    lam = _contraction(model, sigma)
    return max(1e-12, 64 * np.finfo(float).eps / (1 - lam)) * max(1.0, np.max(np.abs(x)))


class TestCertifiedEvaluation:
    @settings(max_examples=150, deadline=None, database=None)
    @given(evaluation_cases())
    def test_stated_bound_holds_against_dense_solve(self, case):
        model, sigma, rng = case
        h, lam = dp._bounding_pair(model, model.transitions.policy_operator(sigma))
        l_sigma = policy_matrix(model, sigma, discounted=True)
        assert np.all(h > 0) and lam < 1
        assert np.all(l_sigma @ h <= lam * h * (1 + 1e-12))
        x, bound = dp._certified_policy_value(model, sigma)
        v = dense_policy_value(model, sigma)
        # The bound is exact arithmetic on a rounded residual, and the
        # dense reference has rounding errors of its own: both are of
        # order eps * |v| / (1 - lam).
        eps = np.finfo(float).eps
        slack = 16 * model.n_states * eps * np.max(np.abs(v)) / (1 - _contraction(model, sigma))
        assert bound <= _certified_target(model, sigma, x)
        assert np.max(np.abs(x - v)) <= bound + slack
        # The residual bound covers any answer, not only the solver's.
        y = x + 1e-6 * np.max(np.abs(v)) * rng.standard_normal(x.size)
        residual = policy_reward(model, sigma) - (y - l_sigma @ y)
        assert np.max(np.abs(y - v)) <= fixed_point.error_bound(residual, h, lam) + slack

    @pytest.mark.parametrize("card", ["optimal_investment", "inventory_sdd", "job_search_markov"])
    def test_hpi_reports_the_bound_of_its_final_evaluation(self, card):
        model = ZOO[card].build(ci_scale=True)["mdp"]
        result = solve_hpi(model)
        v = dense_policy_value(model, result.policy)
        assert 0 < result.error_bound <= _certified_target(model, result.policy, result.value)
        assert np.max(np.abs(result.value - v)) <= result.error_bound + 1e-13 * np.max(np.abs(v))

    def test_hpi_finds_each_bounding_pair_once(self, monkeypatch):
        # State 0 discounts at 1.02, so h = 1 bounds no policy operator and
        # each pair is a BiCGSTAB solve: one for the dominating matrix and
        # one per evaluation; the reported bound is the last evaluation's.
        rng = np.random.default_rng(29)
        n, m = 12, 3
        p = rng.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        weights = rng.uniform(0.5, 0.9, size=(n, m, n))
        weights[0] = 1.02
        model = MDPModel(
            feasible=np.ones((n, m), dtype=bool),
            reward=rng.standard_normal((n, m)),
            kernel=np.repeat(p[:, None, :], m, axis=1),
            discount_weights=weights,
        )
        calls = []
        original = spectral.bounding_pair

        def counting(apply, size):
            calls.append(size)
            return original(apply, size)

        monkeypatch.setattr(spectral, "bounding_pair", counting)
        result = solve_hpi(model, dominating=weights.max(axis=1) * p)
        assert result.iterations == 2 and len(calls) == 3
        v = dense_policy_value(model, result.policy)
        assert np.max(np.abs(result.value - v)) <= result.error_bound + 1e-13 * np.max(np.abs(v))

    def test_hpi_from_a_random_policy_on_default_firm_hiring(self):
        # A direct sparse LU solve took about a minute for one such policy.
        model = ZOO["firm_hiring"].build()["mdp"]
        assert model.n_states == 10_000
        rng = np.random.default_rng(31)
        sigma0 = np.array([rng.choice(np.flatnonzero(row)) for row in model.feasible])
        start = time.perf_counter()
        result = solve_hpi(model, sigma0=sigma0)
        assert time.perf_counter() - start < 10
        assert result.policy.tolist() == solve_hpi(model).policy.tolist()

    @staticmethod
    def _stalled(monkeypatch):
        """A Krylov solver that never moves off its starting point."""

        def stalled(a, b, x0=None, **kwargs):
            return (np.zeros_like(b) if x0 is None else x0), 1

        monkeypatch.setattr(fixed_point, "bicgstab", stalled)

    def test_uncertified_evaluation_raises_with_its_bound(self, monkeypatch):
        model = random_mdp(np.random.default_rng(32))
        sigma = greedy(model, np.zeros(model.n_states))
        self._stalled(monkeypatch)
        with pytest.raises(ConvergenceError) as info:
            policy_value(model, sigma)
        # At x = 0 the bound is max |r_sigma| / (1 - beta).
        r_max = np.max(np.abs(policy_reward(model, sigma)))
        assert info.value.bound == pytest.approx(r_max / (1 - model.beta))
        assert np.array_equal(info.value.last, np.zeros(model.n_states))

    def test_false_certificate_leaves_no_bounding_vector(self):
        # Every discounted row sums to 1.05, so (I - L_sigma) h = 1 gives h = -20.
        rng = np.random.default_rng(33)
        model = MDPModel(
            feasible=np.ones((5, 2), dtype=bool),
            reward=rng.standard_normal((5, 2)),
            kernel=_stochastic(rng, (10, 5)),
            discount_weights=np.full((10, 5), 1.05),
        )
        certify_stability(model, "certified")
        with pytest.raises(ConvergenceError) as info:
            policy_value(model, np.zeros(5, dtype=np.int64))
        assert info.value.bound == np.inf

    def test_uncertified_evaluation_exits_4(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "optimal_investment", "solver": "hpi"}))
        self._stalled(monkeypatch)
        args = ["solve", "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli.main([*args, "--override=y_size=12", "--override=z_size=5"]) == 4
        assert "error bound" in capsys.readouterr().err

    def test_metadata_reports_the_hpi_bound(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "inventory_sdd", "solver": "hpi"}))
        overrides = [f"--override={k}={v}" for k, v in ZOO["inventory_sdd"].ci_overrides.items()]
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config), "--out", str(out), *overrides]) == 0
        bound = json.loads((out / "metadata.json").read_text())["error_bound"]
        assert 0 < bound < 1e-9

    def test_metadata_reports_the_vfi_bound_of_a_certified_sdd_model(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "inventory_sdd", "solver": "vfi"}))
        overrides = [f"--override={k}={v}" for k, v in ZOO["inventory_sdd"].ci_overrides.items()]
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(config), "--out", str(out), *overrides]) == 0
        bound = json.loads((out / "metadata.json").read_text())["error_bound"]
        model = ZOO["inventory_sdd"].build(ci_scale=True)["mdp"]
        assert bound == solve_vfi(model).error_bound > 0


class TestGreedy:
    def test_zero_value_gives_myopic_policy(self):
        rng = np.random.default_rng(2)
        model = random_mdp(rng)
        assert np.array_equal(greedy(model, np.zeros(6)), model.reward.argmax(axis=1))

    def test_tie_break_lowest_index(self):
        reward = np.array([[1.0, 1.0, 0.5]])
        kernel = np.ones((1, 3, 1))
        model = MDPModel(
            feasible=np.ones((1, 3), dtype=bool), reward=reward, kernel=kernel, beta=0.5
        )
        assert greedy(model, np.zeros(1))[0] == 0
        reward2 = np.array([[1.0, 0.5, 0.5]])
        model2 = MDPModel(
            feasible=np.ones((1, 3), dtype=bool), reward=reward2, kernel=kernel, beta=0.5
        )
        assert greedy(model2, np.zeros(1), "min")[0] == 1

    def test_greedy_at_optimum_is_optimal(self):
        rng = np.random.default_rng(3)
        model = random_mdp(rng)
        result = solve_hpi(model)
        sigma = greedy(model, result.value)
        assert policy_value(model, sigma) == pytest.approx(result.value, abs=1e-9)


# Exact ties and entries next to the largest doubles.  Signed zeros are
# left out: ``max`` and the entry at ``argmax`` may be different zeros.
TABLE_VALUES = [-1e300, np.nextafter(-1e300, 0), -2.5, -1.0, 0.0, 1.0, 2.5,
                np.nextafter(1e300, 0), 1e300]


@st.composite
def greedy_tables(draw):
    """``(q, feasible, mode)``: an ``(n, m)`` table, a mask with an action per state, a mode."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    q = np.array(draw(st.lists(st.sampled_from(TABLE_VALUES), min_size=n * m, max_size=n * m)))
    feasible = np.array(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)))
    feasible = feasible.reshape(n, m)
    feasible[np.arange(n), draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))] = True
    return q.reshape(n, m), feasible, draw(st.sampled_from(["max", "min"]))


def _reference_greedy(q, feasible, mode):
    masked = np.where(feasible, q, -np.inf if mode == "max" else np.inf)
    if mode == "max":
        return masked.argmax(axis=1), masked.max(axis=1)
    return masked.argmin(axis=1), masked.min(axis=1)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGreedyContract:
    """The one greedy selection, and every caller of it, against an independent masked argmax."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(greedy_tables())
    def test_every_greedy_step_matches_the_masked_reference(self, case):
        q, feasible, mode = case
        want_sigma, want_values = _reference_greedy(q, feasible, mode)
        sigma, values = dp._select(q.copy(), feasible, mode)
        assert _same_bits(sigma, want_sigma) and _same_bits(values, want_values)

        table = q.copy()
        model = rdp.RDPModel(feasible, lambda v: table, rdp.Contracting(0.5))
        v = np.zeros(q.shape[0])
        assert _same_bits(rdp.rdp_greedy(model, v, mode), want_sigma)
        assert _same_bits(rdp.rdp_bellman(model, v, mode), want_values)
        assert _same_bits(table, q)

        if mode == "max":
            n, m = q.shape
            mdp = MDPModel(feasible, np.zeros((n, m)), np.full((n, m, n), 1.0 / n), beta=0.5)
            ops, table = FactorizedOperators(mdp), q.copy()
            assert _same_bits(ops.M(table), want_values)
            assert _same_bits(ops.greedy_from_q(table), want_sigma)
            assert _same_bits(table, q)


class TestBellman:
    def test_contraction_on_random_pairs(self):
        rng = np.random.default_rng(4)
        model = random_mdp(rng)
        for _ in range(10):
            v, w = rng.standard_normal((2, 6))
            lhs = np.max(np.abs(bellman(model, v) - bellman(model, w)))
            assert lhs <= model.beta * np.max(np.abs(v - w)) + 1e-12

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        m=st.integers(1, 4),
        beta=st.floats(0.05, 0.99),
        mode=st.sampled_from(["max", "min"]),
    )
    def test_monotone_beta_contraction(self, seed, n, m, beta, mode):
        rng = np.random.default_rng(seed)
        kernel = _stochastic(rng, (n, m, n))
        feasible = rng.random((n, m)) < 0.7
        feasible[np.arange(n), rng.integers(0, m, n)] = True
        model = MDPModel(feasible, rng.standard_normal((n, m)), kernel, beta=beta)
        v = 10 * rng.standard_normal(n)
        w = v + rng.random(n) * (rng.random(n) < 0.5)
        u = 10 * rng.standard_normal(n)
        tv, tw = bellman(model, v, mode), bellman(model, w, mode)
        slack = 1e-12 * max(1.0, np.max(np.abs(v)), np.max(np.abs(w)), np.max(np.abs(u)))
        assert np.all(tv <= tw + slack)
        step = np.max(np.abs(tv - bellman(model, u, mode)))
        assert step <= beta * np.max(np.abs(v - u)) + slack

    def test_fixed_point_residual_after_solving(self):
        rng = np.random.default_rng(5)
        model = random_mdp(rng)
        result = solve_vfi(model, tolerance=1e-12)
        assert np.max(np.abs(bellman(model, result.value) - result.value)) < 1e-8

    def test_policy_apply_matches_bellman_iff_greedy(self):
        rng = np.random.default_rng(6)
        model = random_mdp(rng)
        for _ in range(5):
            v = rng.standard_normal(6)
            sigma = greedy(model, v)
            assert policy_apply(model, sigma, v) == pytest.approx(bellman(model, v))
            other = (sigma + 1) % model.n_actions
            assert np.any(policy_apply(model, other, v) < bellman(model, v) - 1e-9)


class TestSolverTriad:
    def test_agreement_on_random_models(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            model = random_mdp(rng, n=8, m=4, full=trial % 2 == 0)
            hpi = solve_hpi(model)
            vfi = solve_vfi(model, tolerance=1e-10)
            opi = solve_opi(model, m=50, tolerance=1e-10)
            assert np.array_equal(hpi.policy, vfi.policy)
            assert np.array_equal(hpi.policy, opi.policy)
            assert np.max(np.abs(hpi.value - vfi.value)) < 1e-6
            assert np.max(np.abs(hpi.value - opi.value)) < 1e-6

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        m=st.integers(2, 4),
        beta=st.floats(0.05, 0.95),
        mode=st.sampled_from(["max", "min"]),
    )
    def test_vfi_hpi_and_opi_agree_on_the_optimal_policy(self, seed, n, m, beta, mode):
        rng = np.random.default_rng(seed)
        feasible = rng.random((n, m)) < 0.7
        feasible[np.arange(n), rng.integers(0, m, n)] = True
        model = MDPModel(feasible, rng.standard_normal((n, m)), _stochastic(rng, (n, m, n)), beta=beta)
        hpi = solve_hpi(model, mode=mode)
        vfi = solve_vfi(model, mode=mode)
        opi = solve_opi(model, m=5, mode=mode)
        # A greedy policy is optimal where the best action leads the second
        # best at v* by more than twice the policy error bound of the value
        # it is greedy at: VFI's, and the same a-posteriori bound for OPI's
        # Bellman residual.  Draws with a closer race are dropped; a state
        # with one feasible action has an infinite gap.
        sign = 1.0 if mode == "max" else -1.0
        q = np.sort(np.where(feasible, sign * dp.q_factors(model, hpi.value), -np.inf), axis=1)
        gap = q[:, -1] - q[:, -2]
        bound = max(vfi.error_bound, 2 * beta / (1 - beta) * opi.residual)
        assume(np.min(gap) > 2 * bound)
        assert np.array_equal(vfi.policy, hpi.policy)
        assert np.array_equal(opi.policy, hpi.policy)

    def test_vfi_from_fixed_point_terminates_immediately(self):
        rng = np.random.default_rng(8)
        model = random_mdp(rng)
        star = solve_hpi(model)
        result = solve_vfi(model, v0=star.value, tolerance=1e-9)
        assert result.iterations == 1

    def test_hpi_single_state(self):
        model = single_state_model()
        result = solve_hpi(model)
        assert result.iterations <= 2
        assert result.value == pytest.approx([10.0])

    def test_hpi_iterations_bounded_by_policy_count(self):
        rng = np.random.default_rng(9)
        model = random_mdp(rng, n=4, m=3)
        n_policies = 3**4
        result = solve_hpi(model)
        assert result.iterations <= n_policies

    def test_error_bound_validity(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            model = random_mdp(rng, n=7, m=3)
            vfi = solve_vfi(model, tolerance=1e-6)
            star = solve_hpi(model)
            v_sigma = policy_value(model, vfi.policy)
            assert np.max(np.abs(star.value - v_sigma)) <= vfi.error_bound + 1e-12

    def test_opi_m1_reproduces_vfi_trajectory(self):
        rng = np.random.default_rng(11)
        model = random_mdp(rng)
        sigma0 = greedy(model, np.zeros(6))
        v0 = policy_value(model, sigma0)
        opi = solve_opi(model, sigma0=sigma0, m=1, tolerance=1e-9, record_history=True)
        vfi = solve_vfi(model, v0=v0, tolerance=1e-9, record_history=True)
        for a, b in zip(opi.history, vfi.history):
            assert np.max(np.abs(a - b)) < 1e-12

    def test_opi_large_m_matches_hpi_policy(self):
        rng = np.random.default_rng(12)
        model = random_mdp(rng, n=10, m=4)
        opi = solve_opi(model, m=400, tolerance=1e-11)
        hpi = solve_hpi(model)
        assert np.array_equal(opi.policy, hpi.policy)

    def test_opi_value_iterates_nondecreasing(self):
        rng = np.random.default_rng(13)
        model = random_mdp(rng)
        result = solve_opi(model, m=10, tolerance=1e-10, record_history=True)
        for prev, nxt in zip(result.history, result.history[1:]):
            assert np.all(nxt >= prev - 1e-10)

    def test_optimal_value_dominates_sampled_policies(self):
        rng = np.random.default_rng(14)
        model = random_mdp(rng, n=8, m=4)
        star = solve_hpi(model)
        for _ in range(50):
            sigma = rng.integers(0, 4, size=8)
            assert np.all(policy_value(model, sigma) <= star.value + 1e-9)

    def test_min_max_symmetry(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            model = random_mdp(rng, n=6, m=3)
            negated = MDPModel(
                feasible=model.feasible,
                reward=-model.reward,
                kernel=model.kernel,
                beta=model.beta,
            )
            vmax = solve_hpi(model)
            vmin = solve_hpi(negated, mode="min")
            assert np.array_equal(vmax.policy, vmin.policy)
            assert vmin.value == pytest.approx(-vmax.value, abs=1e-10)


# ---------------------------------------------------------------------------
# VFI with action elimination against the dense sweep


def _dense_vfi(model, v0=None, mode="max", tolerance=1e-8):
    """The dense VFI loop: ``bellman`` over every pair, then the greedy policy."""
    v = np.zeros(model.n_states) if v0 is None else np.array(v0, dtype=float)
    history = [v.copy()]
    v, k, _ = fixed_point.value_iteration(
        lambda v: bellman(model, v, mode), v, tolerance, 100_000, history
    )
    return v, k, greedy(model, v, mode), bellman(model, v, mode), history


def _assert_same_vfi(result, oracle):
    v, k, sigma, tv, history = oracle
    assert result.value.tobytes() == v.tobytes()
    assert result.iterations == k
    assert np.array_equal(result.policy, sigma)
    assert result.residual == float(np.max(np.abs(tv - v)))
    assert [u.tobytes() for u in result.history] == [u.tobytes() for u in history]


def _kept_pairs(model, v0=None, mode="max", tolerance=1e-8):
    """The pairs a VFI run still sweeps at its end, as a boolean ``(n, m)`` mask."""
    v = np.zeros(model.n_states) if v0 is None else np.array(v0, dtype=float)
    sweep = dp._Sweep(model, mode, model._bounding)
    fixed_point.value_iteration(sweep, v, tolerance, 100_000)
    swept = set(zip(sweep.states.tolist(), sweep.index.tolist()))
    states, actions = np.nonzero(model.feasible)
    index = model.transitions.pair_index(states, actions)
    kept = np.zeros(model.feasible.shape, dtype=bool)
    kept[states, actions] = [pair in swept for pair in zip(states.tolist(), index.tolist())]
    return kept


@st.composite
def vfi_cases(draw):
    """A model of every kernel form and discount, a mode, a start and near-ties.

    Flat dense or CSR kernels with a constant beta; factored kernels, the
    action a next endogenous index or an endogenous kernel, with a
    constant beta or a certified discount vector.  Where the action moves
    through rows of its own (not a next endogenous index), tie states
    give actions 0 and 1 the same rows, rewards ``gap`` apart, far below
    the elimination slack, and a bonus that makes them the likely best.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["dense", "csr", "choice", "kernel"]))
    mode = draw(st.sampled_from(["max", "min"]))
    beta = draw(st.floats(0.05, 0.99))
    gap = draw(st.sampled_from([0.0, 1e-13, 1e-11]))
    rng = np.random.default_rng(seed)
    if kind in ("dense", "csr"):
        n, m = draw(st.integers(1, 12)), draw(st.integers(2, 5))
        kernel = _stochastic(rng, (n, m, n))
        ties = rng.random(n) < 0.5
        kernel[ties, 1] = kernel[ties, 0]
        kernel = sp.csr_matrix(kernel.reshape(n * m, n)) if kind == "csr" else kernel
        extra = {"beta": beta}
    else:
        n_e, n_z = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        m = n_e if kind == "choice" else draw(st.integers(2, 5))
        endogenous = None
        if kind == "kernel":
            endogenous = _stochastic(rng, (n_e, m, n_e))
            endogenous[:, 1] = endogenous[:, 0]
        discount = rng.uniform(0.3, 0.99, n_z) if draw(st.booleans()) else beta
        kernel, extra = dp.Factored(_stochastic(rng, (n_z, n_z)), discount, endogenous), {}
        n = n_e * n_z
        ties = np.full(n, kind == "kernel")
    feasible = rng.random((n, m)) < 0.7
    feasible[np.arange(n), rng.integers(0, m, n)] = True
    reward = rng.standard_normal((n, m))
    if ties.any():
        feasible[ties, :2] = True
        reward[ties, 0] += 3.0 if mode == "max" else -3.0
        reward[ties, 1] = reward[ties, 0] + gap
    model = MDPModel(feasible, reward, kernel, **extra)
    v0 = 10.0 ** draw(st.integers(-2, 3)) * rng.standard_normal(n) if draw(st.booleans()) else None
    return model, mode, v0, ties


class TestInexactHPI:
    @settings(max_examples=300, deadline=None, database=None)
    @given(vfi_cases())
    def test_matches_howard_with_exact_solves(self, case):
        # Each evaluation but the last stops at its forcing target; the
        # path, the stop and the certified answer are exact HPI's.
        model, mode, _, _ = case
        result = solve_hpi(model, mode=mode)
        sigma, v, k = dense_hpi(model, mode)
        assert result.iterations == k
        assert np.array_equal(result.policy, sigma)
        eps = np.finfo(float).eps
        slack = 16 * model.n_states * eps * np.max(np.abs(v)) / (1 - _contraction(model, sigma))
        assert np.max(np.abs(result.value - v)) <= result.error_bound + slack
        assert result.error_bound <= _certified_target(model, result.policy, result.value)

    def test_a_repeat_is_checked_again_at_the_refined_value(self):
        # Action a at state x is made optimal by 4.7e-9: the last loose
        # evaluation cannot see it and repeats its policy, the refined
        # value can, so HPI takes one more step, as exact HPI does.
        rng = np.random.default_rng(46)
        n, m, beta = int(rng.integers(2, 12)), int(rng.integers(2, 4)), rng.uniform(0.8, 0.99)
        kernel = rng.random((n, m, n)) + 0.01
        kernel /= kernel.sum(axis=2, keepdims=True)
        reward = rng.standard_normal((n, m))
        model = MDPModel(np.ones((n, m), bool), reward, kernel, beta=beta)
        sigma, v, _ = dense_hpi(model)
        q = dp.q_factors(model, v)
        x = int(rng.integers(n))
        a = (sigma[x] + 1) % m
        reward[x, a] += q[x, sigma[x]] - q[x, a] + 4.7e-9
        model = MDPModel(np.ones((n, m), bool), reward, kernel, beta=beta)
        result = solve_hpi(model)
        sigma, v, k = dense_hpi(model)
        assert result.policy[x] == a and np.array_equal(result.policy, sigma)
        assert result.iterations == k == 3
        assert np.max(np.abs(result.value - v)) <= result.error_bound + 1e-13 * np.max(np.abs(v))


class TestActionElimination:
    @settings(max_examples=200, deadline=None, database=None)
    @given(vfi_cases())
    def test_same_bits_as_the_dense_sweep(self, case):
        model, mode, v0, ties = case
        certify_stability(model)
        result = solve_vfi(model, v0=v0, mode=mode, record_history=True)
        oracle = _dense_vfi(model, v0, mode)
        _assert_same_vfi(result, oracle)
        history = oracle[-1]
        if not model.state_dependent:
            step = fixed_point.sup_step(history[-1], history[-2])
            assert result.error_bound == 2 * model.beta / (1 - model.beta) * step
        # A near-tie with the best action keeps both actions of the pair.
        kept = _kept_pairs(model, v0, mode)
        best = ties & (result.policy < 2)
        assert kept[best, :2].all()

    @pytest.mark.parametrize("name", DISCRETE_CARDS)
    def test_zoo_cards_match_the_dense_sweep(self, name):
        model = ZOO[name].build(ci_scale=True)["mdp"]
        _assert_same_vfi(solve_vfi(model, record_history=True), _dense_vfi(model))

    @pytest.mark.parametrize("name", ["job_search_markov", "optimal_default"])
    def test_csr_sweeps_multiply_only_the_kept_rows(self, name, monkeypatch):
        # CSR sums each row in stored order, so the kept rows' product has
        # the bytes of the full product's entries.
        model = ZOO[name].build(ci_scale=True)["mdp"]
        sweeps = []

        class Recorded(dp._Sweep):
            def __init__(self, *args):
                super().__init__(*args)
                sweeps.append(self)

        monkeypatch.setattr(dp, "_Sweep", Recorded)
        _assert_same_vfi(solve_vfi(model, record_history=True), _dense_vfi(model))
        (sweep,) = sweeps
        assert sp.issparse(sweep.rows)
        assert sweep.rows.shape[0] == sweep.index.size < model.feasible.sum()

    @pytest.mark.parametrize("name", ["optimal_savings", "inventory_sdd", "optimal_default"])
    def test_most_pairs_are_eliminated(self, name):
        model = ZOO[name].build(ci_scale=True)["mdp"]
        kept = _kept_pairs(model)
        assert kept.any(axis=1).all()
        assert kept.sum() < 0.25 * model.feasible.sum()

    def test_no_pair_eliminates_nothing(self):
        rng = np.random.default_rng(20)
        n, m = 5, 3
        model = MDPModel(
            np.ones((n, m), dtype=bool), rng.standard_normal((n, m)),
            _stochastic(rng, (n, m, n)), discount_weights=rng.uniform(0.5, 0.9, (n, m, n)),
        )
        certify_stability(model, "certified")
        assert _kept_pairs(model).all()
        assert solve_vfi(model).error_bound is None


class TestVFIErrorBound:
    def test_inventory_sdd_policy_within_the_bound(self):
        model = ZOO["inventory_sdd"].build(ci_scale=True)["mdp"]
        star = solve_hpi(model).value
        h, lam = model._bounding
        for tolerance in (1e-1, 1e-4, 1e-8):
            vfi = solve_vfi(model, tolerance=tolerance, record_history=True)
            last, before = vfi.history[-1], vfi.history[-2]
            step = np.max(np.abs(last - before) / h)
            assert vfi.error_bound == np.max(h) * 2 * lam / (1 - lam) * step
            assert np.max(np.abs(star - policy_value(model, vfi.policy))) <= vfi.error_bound

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        with_kernel=st.booleans(),
        tolerance=st.sampled_from([1.0, 1e-2, 1e-6]),
    )
    def test_random_certified_factored_policy_within_the_bound(self, seed, with_kernel, tolerance):
        rng = np.random.default_rng(seed)
        n_e, n_z = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        m = int(rng.integers(2, 5)) if with_kernel else n_e
        endogenous = _stochastic(rng, (n_e, m, n_e)) if with_kernel else None
        kernel = dp.Factored(_stochastic(rng, (n_z, n_z)), rng.uniform(0.3, 0.99, n_z), endogenous)
        feasible = rng.random((n_e * n_z, m)) < 0.7
        feasible[np.arange(n_e * n_z), rng.integers(0, m, n_e * n_z)] = True
        model = MDPModel(feasible, rng.standard_normal(feasible.shape), kernel)
        star = solve_hpi(model).value
        vfi = solve_vfi(model, tolerance=tolerance)
        v_sigma = policy_value(model, vfi.policy)
        slack = 1e-10 * max(1.0, np.max(np.abs(star)))
        assert np.max(np.abs(star - v_sigma)) <= vfi.error_bound + slack


class TestOPI:
    @pytest.mark.parametrize(
        "name", ["job_search_markov", "inventory_mdp", "optimal_savings", "inventory_sdd"]
    )
    def test_m1_is_vfi_from_the_start_value(self, name):
        # A CSR and a dense flat kernel, a choice and an endogenous factored one.
        model = ZOO[name].build(ci_scale=True)["mdp"]
        opi = solve_opi(model, m=1, record_history=True)
        vfi = solve_vfi(model, v0=opi.history[0], record_history=True)
        assert opi.value.tobytes() == vfi.value.tobytes()
        assert np.array_equal(opi.policy, vfi.policy)
        assert opi.iterations == vfi.iterations
        assert [u.tobytes() for u in opi.history] == [u.tobytes() for u in vfi.history]

    def test_policy_operator_is_built_once_per_greedy_policy(self, monkeypatch):
        model = ZOO["job_search_markov"].build(ci_scale=True)["mdp"]
        built = []
        original = model.transitions.policy_operator

        def recording(sigma):
            built.append(np.asarray(sigma, dtype=np.int64).tobytes())
            return original(sigma)

        monkeypatch.setattr(model.transitions, "policy_operator", recording)
        result = solve_opi(model, m=10)
        # The first build is the start evaluation's.
        loop = built[1:]
        assert len(loop) == len(set(loop)) < result.iterations
        built.clear()
        solve_opi(model, m=1)
        assert len(built) == 1

    @pytest.mark.parametrize("m", [1, 5])
    @pytest.mark.parametrize("tolerance", [10.0, 1e-2, 1e-6])
    def test_policy_within_the_error_bound(self, m, tolerance):
        # From a poor start and at a loose tolerance, some runs stop at a
        # policy that is not optimal.
        rng = np.random.default_rng(10)
        for _ in range(10):
            model = random_mdp(rng, n=12, m=4)
            opi = solve_opi(model, sigma0=np.zeros(12), m=m, tolerance=tolerance)
            star = solve_hpi(model)
            v_sigma = policy_value(model, opi.policy)
            assert np.max(np.abs(star.value - v_sigma)) <= opi.error_bound + 1e-12
            beta = model.beta
            assert opi.error_bound == 2 * beta / (1 - beta) * opi.residual

    def test_certified_factored_bound_and_none_without_a_pair(self):
        model = ZOO["inventory_sdd"].build(ci_scale=True)["mdp"]
        star = solve_hpi(model).value
        h, lam = model._bounding
        for m in (1, 5):
            opi = solve_opi(model, m=m, tolerance=1e-1)
            tv = bellman(model, opi.value)
            step = np.max(np.abs(tv - opi.value) / h)
            assert opi.error_bound == np.max(h) * 2 * lam / (1 - lam) * step
            assert np.max(np.abs(star - policy_value(model, opi.policy))) <= opi.error_bound
        rng = np.random.default_rng(21)
        n, m = 5, 3
        model = MDPModel(
            np.ones((n, m), dtype=bool), rng.standard_normal((n, m)),
            _stochastic(rng, (n, m, n)), discount_weights=rng.uniform(0.5, 0.9, (n, m, n)),
        )
        certify_stability(model, "certified")
        assert solve_opi(model, m=1).error_bound is None
        assert solve_opi(model, m=5).error_bound is None


class TestStateDependentDiscounting:
    def build_sdd(self, rng, n=4, m=2, low=0.8, high=0.99):
        kernel = rng.random((n, m, n)) + 0.05
        kernel /= kernel.sum(axis=2, keepdims=True)
        weights = rng.uniform(low, high, size=(n, m, n))
        return MDPModel(
            feasible=np.ones((n, m), dtype=bool),
            reward=rng.standard_normal((n, m)),
            kernel=kernel,
            discount_weights=weights,
        )

    def test_uniform_dominating_certificate_implies_per_policy(self):
        # Actions share a transition row, so b_max * P dominates every
        # discounted policy operator at once.
        rng = np.random.default_rng(16)
        n, m, b_max = 4, 2, 0.95
        p = rng.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        kernel = np.repeat(p[:, None, :], m, axis=1)
        weights = rng.uniform(0.8, b_max, size=(n, m, n))
        model = MDPModel(
            feasible=np.ones((n, m), dtype=bool),
            reward=rng.standard_normal((n, m)),
            kernel=kernel,
            discount_weights=weights,
        )
        dominating = b_max * p
        assert spectral.spectral_radius(dominating) < 1
        certify_stability(model, dominating)
        for sigma in enumerate_policies(model):
            l_sigma = policy_matrix(model, sigma, discounted=True)
            assert spectral.spectral_radius(l_sigma) < 1

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_one_action_row_above_the_bound_is_rejected(self, storage):
        rng = np.random.default_rng(26)
        n, m, b_max = 5, 3, 0.95
        p = rng.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        kernel = np.repeat(p[:, None, :], m, axis=1)
        weights = rng.uniform(0.8, b_max, size=(n, m, n))
        # Row (x, a) = (3, 2) breaks the bound at one entry; its neighbours
        # (3, 1) and (4, 2) stay within it.
        weights[3, 2, 1] = b_max * 1.01
        for broken in (False, True):
            w = weights if broken else np.minimum(weights, b_max)
            flat_kernel, flat_w = kernel.reshape(n * m, n), w.reshape(n * m, n)
            if storage == "csr":
                flat_kernel, flat_w = sp.csr_matrix(flat_kernel), sp.csr_matrix(flat_w)
            model = MDPModel(
                feasible=np.ones((n, m), dtype=bool),
                reward=rng.standard_normal((n, m)),
                kernel=flat_kernel,
                discount_weights=flat_w,
            )
            if broken:
                with pytest.raises(StabilityError):
                    certify_stability(model, b_max * p)
            else:
                certify_stability(model, b_max * p)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("shape", [(4, 4), (6, 6), (5, 4), (5, 5)])
    def test_dominating_matrix_of_the_wrong_shape_or_sign_is_refused(self, storage, shape):
        rng = np.random.default_rng(34)
        n, m, b_max = 5, 2, 0.95
        p = _stochastic(rng, (n, n))
        kernel = np.repeat(p[:, None, :], m, axis=1).reshape(n * m, n)
        weights = np.full((n * m, n), 0.9)
        if storage == "csr":
            kernel, weights = sp.csr_matrix(kernel), sp.csr_matrix(weights)
        model = MDPModel(
            feasible=np.ones((n, m), dtype=bool),
            reward=rng.standard_normal((n, m)),
            kernel=kernel,
            discount_weights=weights,
        )
        dominating = np.full(shape, b_max / n)
        if shape == (n, n):
            dominating[0, 1] = -0.1  # square and large enough, but signed
        with pytest.raises(ValueError, match="dominating matrix"):
            certify_stability(model, dominating)

    def test_dominating_check_makes_no_kernel_sized_copy(self):
        rng = np.random.default_rng(27)
        n, m, b_max = 60, 20, 0.95
        p = rng.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        model = MDPModel(
            feasible=np.ones((n, m), dtype=bool),
            reward=rng.standard_normal((n, m)),
            kernel=np.repeat(p[:, None, :], m, axis=1),
            discount_weights=rng.uniform(0.8, b_max, size=(n, m, n)),
        )
        dominating = b_max * p
        discounted = model.transitions.discounted()  # cached before the check
        tracemalloc.start()
        try:
            certify_stability(model, dominating)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Comparing against dominating[rows] copied L to kernel size.
        assert peak < discounted.nbytes / 2

    def test_triad_agrees_under_sdd(self):
        rng = np.random.default_rng(17)
        model = self.build_sdd(rng)
        hpi = solve_hpi(model)
        vfi = solve_vfi(model, tolerance=1e-11)
        opi = solve_opi(model, m=60, tolerance=1e-11)
        assert np.array_equal(hpi.policy, vfi.policy)
        assert np.array_equal(hpi.policy, opi.policy)
        assert np.max(np.abs(hpi.value - opi.value)) < 1e-6

    def test_unstable_policy_raises_with_policy_attached(self):
        rng = np.random.default_rng(18)
        model = self.build_sdd(rng, low=1.01, high=1.05)
        sigma = np.zeros(4, dtype=np.int64)
        with pytest.raises(SpectralRadiusError) as info:
            policy_value(model, sigma)
        assert np.array_equal(info.value.policy, sigma)
        assert info.value.spectral_radius > 1

    def test_blind_iteration_refused_on_large_policy_space(self):
        rng = np.random.default_rng(19)
        n, m = 18, 5  # 5^18 policies: enumeration impossible
        p = rng.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        kernel = np.repeat(p[:, None, :], m, axis=1)
        model = MDPModel(
            feasible=np.ones((n, m), dtype=bool),
            reward=rng.standard_normal((n, m)),
            kernel=kernel,
            discount_weights=np.full((n, m, n), 0.9),
        )
        with pytest.raises(StabilityError):
            solve_vfi(model)
        result = solve_vfi(model, dominating=0.9 * p)
        assert result.residual < 1e-6


class TestFactorizedOperators:
    def test_explicit_forms(self):
        rng = np.random.default_rng(20)
        model = random_mdp(rng, n=5, m=3)
        ops = FactorizedOperators(model)
        v = rng.standard_normal(5)
        g = rng.standard_normal((5, 3))
        q = rng.standard_normal((5, 3))
        kernel3 = np.asarray(model.kernel).reshape(5, 3, 5)
        assert ops.E(v) == pytest.approx(np.einsum("xay,y->xa", kernel3, v))
        assert ops.D(g) == pytest.approx(model.reward + model.beta * g)
        assert ops.M(q) == pytest.approx(q.max(axis=1))
        r_explicit = np.einsum(
            "xay,ya->xa".replace("ya", "y"), kernel3, (model.reward + model.beta * g).max(axis=1)
        )
        assert ops.R(g) == pytest.approx(r_explicit)
        s_explicit = model.reward + model.beta * np.einsum("xay,y->xa", kernel3, q.max(axis=1))
        assert ops.S(q) == pytest.approx(s_explicit)

    def test_policy_forms(self):
        rng = np.random.default_rng(26)
        model = random_mdp(rng, n=5, m=3)
        ops = FactorizedOperators(model)
        v, q = rng.standard_normal(5), rng.standard_normal((5, 3))
        sigma = rng.integers(0, 3, 5)
        assert ops.T_sigma(v, sigma) == pytest.approx(policy_apply(model, sigma, v), rel=1e-14)
        # S_sigma q is the Q-factor table of the value q(x, sigma(x)).
        q_sigma = q[np.arange(5), sigma]
        assert ops.S_sigma(q, sigma) == pytest.approx(dp.q_factors(model, q_sigma), rel=1e-14)

    def test_composition_identities(self):
        rng = np.random.default_rng(21)
        model = random_mdp(rng, n=4, m=2)
        ops = FactorizedOperators(model)
        v = rng.standard_normal(4)
        for k in range(1, 6):
            tk = v.copy()
            for _ in range(k):
                tk = ops.T(tk)
            alt = ops.E(v)
            for _ in range(k - 1):
                alt = ops.R(alt)
            alt = ops.M(ops.D(alt))
            assert tk == pytest.approx(alt, abs=1e-10)

    def test_fixed_point_relationships(self):
        rng = np.random.default_rng(22)
        model = random_mdp(rng, n=6, m=3)
        ops = FactorizedOperators(model)
        v_star = solve_hpi(model).value
        g_star = ops.fixed_point(ops.R, np.zeros((6, 3)))
        q_star = ops.fixed_point(ops.S, np.zeros((6, 3)))
        assert np.max(np.abs(g_star - ops.E(v_star))) < 1e-10
        assert np.max(np.abs(q_star - ops.D(g_star))) < 1e-10
        assert np.max(np.abs(v_star - ops.M(q_star))) < 1e-10

    def test_greedy_policies_coincide(self):
        rng = np.random.default_rng(23)
        model = random_mdp(rng, n=6, m=3)
        ops = FactorizedOperators(model)
        v_star = solve_hpi(model).value
        g_star = ops.fixed_point(ops.R, np.zeros((6, 3)))
        q_star = ops.fixed_point(ops.S, np.zeros((6, 3)))
        sig_v = greedy(model, v_star)
        assert np.array_equal(sig_v, ops.greedy_from_g(g_star))
        assert np.array_equal(sig_v, ops.greedy_from_q(q_star))

    def test_nonexpansive_and_contraction_parts(self):
        rng = np.random.default_rng(24)
        model = random_mdp(rng, n=5, m=3)
        ops = FactorizedOperators(model)
        for _ in range(10):
            v, w = rng.standard_normal((2, 5))
            g, h = rng.standard_normal((2, 5, 3))
            assert np.max(np.abs(ops.E(v) - ops.E(w))) <= np.max(np.abs(v - w)) + 1e-12
            assert np.max(np.abs(ops.M(g) - ops.M(h))) <= np.max(np.abs(g - h)) + 1e-12
            assert np.max(np.abs(ops.D(g) - ops.D(h))) <= model.beta * np.max(
                np.abs(g - h)
            ) + 1e-12


class TestRefactoredOPI:
    def test_g_iterates_track_value_iterates(self):
        rng = np.random.default_rng(25)
        model = random_mdp(rng, n=6, m=3)
        # Perturb rewards so greedy policies are unique along the run.
        model.reward += rng.random((6, 3)) * 1e-3
        ops = FactorizedOperators(model)
        sigma0 = greedy(model, np.zeros(6))
        v0 = policy_value(model, sigma0)
        g0 = ops.E(v0)
        m_steps = 3
        refactored = solve_refactored_opi(model, g0=g0, m=m_steps, tolerance=1e-10)
        v = v0.copy()
        for k, g_k in enumerate(refactored.history[:21]):
            assert np.max(np.abs(g_k - ops.E(v))) < 1e-10, f"iterate {k}"
            sigma = greedy(model, v)
            for _ in range(m_steps):
                v = policy_apply(model, sigma, v)

    def test_final_policy_matches_regular_opi(self):
        rng = np.random.default_rng(26)
        model = random_mdp(rng, n=6, m=3)
        ops = FactorizedOperators(model)
        sigma0 = greedy(model, np.zeros(6))
        v0 = policy_value(model, sigma0)
        refactored = solve_refactored_opi(model, g0=ops.E(v0), m=20, tolerance=1e-11)
        regular = solve_opi(model, sigma0=sigma0, m=20, tolerance=1e-11)
        assert np.array_equal(refactored.policy, regular.policy)

    def test_m1_is_expected_value_vfi(self):
        rng = np.random.default_rng(27)
        model = random_mdp(rng, n=5, m=2)
        ops = FactorizedOperators(model)
        g0 = np.zeros((5, 2))
        result = solve_refactored_opi(model, g0=g0, m=1, tolerance=1e-10)
        g = g0.copy()
        for g_k in result.history:
            assert np.max(np.abs(g_k - g)) < 1e-12
            g = ops.R(g)


class TestGumbelOperator:
    def test_single_action_reduces_to_plain_expectation(self):
        rng = np.random.default_rng(28)
        model = random_mdp(rng, n=5, m=1)
        op = gumbel_ev_operator(model)
        g = rng.standard_normal((5, 1))
        kernel3 = np.asarray(model.kernel).reshape(5, 1, 5)
        expected = np.einsum("xay,y->xa", kernel3, (model.reward + model.beta * g)[:, 0])
        assert op(g) == pytest.approx(expected)

    def test_monte_carlo_perturbed_max_oracle(self):
        rng = np.random.default_rng(29)
        model = random_mdp(rng, n=5, m=3)
        g = rng.standard_normal((5, 3))
        op = gumbel_ev_operator(model)
        closed = op(g)
        draws = 10**5
        values = model.reward + model.beta * g
        means = np.empty(5)
        ses = np.empty(5)
        for y in range(5):
            shocks = rng.gumbel(0.0, 1.0, size=(draws, 3))
            samples = (values[y][None, :] + shocks).max(axis=1)
            means[y] = samples.mean()
            ses[y] = samples.std(ddof=1) / np.sqrt(draws)
        # E max_a (c_a + Gumbel(0)) = logsumexp(c) + Euler-Mascheroni.
        mc_logsumexp = means - EULER_MASCHERONI
        kernel3 = np.asarray(model.kernel).reshape(5, 3, 5)
        for x in range(5):
            for a in range(3):
                mc = kernel3[x, a] @ mc_logsumexp
                se = np.sqrt(np.sum((kernel3[x, a] * ses) ** 2))
                assert abs(closed[x, a] - mc) < 3 * se + 1e-9

    def test_contraction_and_fixed_point(self):
        rng = np.random.default_rng(30)
        model = random_mdp(rng, n=4, m=3)
        op = gumbel_ev_operator(model)
        g, h = rng.standard_normal((2, 4, 3))
        assert np.max(np.abs(op(g) - op(h))) <= model.beta * np.max(np.abs(g - h)) + 1e-12
        g = np.zeros((4, 3))
        for _ in range(2_000):
            g_new = op(g)
            if np.max(np.abs(g_new - g)) < 1e-13:
                break
            g = g_new
        assert np.max(np.abs(op(g) - g)) < 1e-12

    def test_restricted_actions_rejected(self):
        rng = np.random.default_rng(31)
        model = random_mdp(rng, n=4, m=3, full=False)
        if model.feasible.all():
            model.feasible[0, 0] = False
        with pytest.raises(ValueError):
            gumbel_ev_operator(model)
