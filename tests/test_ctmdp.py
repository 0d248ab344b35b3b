import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsdp import ctmdp, dp, fixed_point, models, spectral
from fsdp.ctmdp import (
    CTMDPModel,
    JumpChainSpec,
    ct_greedy,
    ct_hpi,
    ct_policy_value,
    hjb_residual,
    intensity_to_jump,
    jump_to_intensity,
    require_intensity_matrix,
    simulate_jump_chain,
    transition_semigroup,
    uniformized_mdp,
)


def random_intensity(rng, n):
    q = rng.random((n, n))
    np.fill_diagonal(q, 0.0)
    q -= np.diag(q.sum(axis=1))
    return q


def geometric_restock_spec(alpha=0.7, capacity=10, rate=0.5):
    """Jump chain for inventory depleted by geometric demand, restocked at zero."""
    n = capacity + 1
    pi = np.zeros((n, n))
    pi[0, capacity] = 1.0
    demand = (1 - alpha) ** np.arange(capacity) * alpha  # demand sizes 1, 2, ...
    for x in range(1, n):
        for u, w in enumerate(demand, start=1):
            pi[x, max(x - u, 0)] += w
        pi[x, 0] += 1 - demand[: x - 1].sum() - pi[x, 1:x].sum() if False else 0.0
        pi[x] /= pi[x].sum()
    return JumpChainSpec(rates=np.full(n, rate), jump_matrix=pi)


class TestIntensityValidation:
    def test_rejects_negative_off_diagonal(self):
        with pytest.raises(ValueError):
            require_intensity_matrix([[-1.0, 1.0], [-0.2, 0.2]])

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(ValueError):
            require_intensity_matrix([[-1.0, 1.1], [0.2, -0.2]])

    def test_repair_fixes_row_sums(self):
        q = require_intensity_matrix([[-1.0, 1.1], [0.2, -0.2]], repair=True)
        assert q.sum(axis=1) == pytest.approx([0.0, 0.0], abs=1e-14)


class TestTransitionSemigroup:
    def test_zero_horizon_is_identity(self):
        q = random_intensity(np.random.default_rng(0), 4)
        assert transition_semigroup(q, 0.0) == pytest.approx(np.eye(4))

    def test_two_state_closed_form(self):
        a, b = 0.7, 0.3
        q = np.array([[-a, a], [b, -b]])
        for t in (0.3, 1.0, 4.0):
            p_t = transition_semigroup(q, t)
            expected = (a / (a + b)) * (1 - np.exp(-(a + b) * t))
            assert p_t[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_rows_sum_to_one(self):
        q = random_intensity(np.random.default_rng(1), 5)
        for t in (0.1, 1.0, 10.0):
            p_t = transition_semigroup(q, t)
            assert p_t.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-10)
            assert np.all(p_t >= 0)

    def test_semigroup_property(self):
        rng = np.random.default_rng(2)
        q = random_intensity(rng, 4)
        for _ in range(5):
            s, t = rng.uniform(0.1, 3.0, size=2)
            lhs = transition_semigroup(q, s + t)
            rhs = transition_semigroup(q, s) @ transition_semigroup(q, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_spectral_bound_shift_identity(self):
        q = random_intensity(np.random.default_rng(3), 4)
        for delta in (0.04, 0.5):
            assert spectral.spectral_bound(q - delta * np.eye(4)) == pytest.approx(
                -delta, abs=1e-10
            )


class TestJumpChainConversions:
    def test_identity_jump_matrix_gives_zero_intensity(self):
        spec = JumpChainSpec(rates=np.ones(3), jump_matrix=np.eye(3))
        assert jump_to_intensity(spec) == pytest.approx(np.zeros((3, 3)))

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        q = random_intensity(rng, 5)
        spec = intensity_to_jump(q)
        assert jump_to_intensity(spec) == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0])
    def test_rates_must_be_finite_and_positive(self, rate):
        spec = JumpChainSpec(rates=np.array([rate, 1.0]), jump_matrix=np.eye(2)[::-1])
        with pytest.raises(ValueError, match="finite and strictly positive"):
            jump_to_intensity(spec)

    def test_absorbing_state_rejected_in_inverse(self):
        q = np.array([[0.0, 0.0], [0.3, -0.3]])
        with pytest.raises(ValueError):
            intensity_to_jump(q)

    def test_restock_jump_matrix_structure(self):
        spec = geometric_restock_spec()
        pi = spec.jump_matrix
        n = pi.shape[0]
        assert pi[0, n - 1] == 1.0  # empty inventory reorders to capacity
        upper = np.triu(pi[1:, 1:], k=0)
        assert np.max(np.abs(upper - np.diag(np.diag(pi[1:, 1:])))) == 0.0
        q = jump_to_intensity(spec)
        require_intensity_matrix(q)


class TestSimulateJumpChain:
    def test_mean_wait_time(self):
        spec = geometric_restock_spec(rate=0.5)
        n = spec.rates.size
        rng = np.random.default_rng(5)
        psi0 = np.zeros(n)
        psi0[-1] = 1.0
        waits = []
        while len(waits) < 10_000:
            path = simulate_jump_chain(spec, psi0, 200.0, rng)
            waits.extend(np.diff(path.jump_times))
        waits = np.array(waits[:10_000])
        se = waits.std(ddof=1) / np.sqrt(waits.size)
        assert abs(waits.mean() - 2.0) < 3 * se

    def test_identity_jump_matrix_freezes_state(self):
        spec = JumpChainSpec(rates=np.ones(3), jump_matrix=np.eye(3))
        rng = np.random.default_rng(6)
        path = simulate_jump_chain(spec, [0.0, 1.0, 0.0], 25.0, rng)
        assert np.all(path.states == 1)

    def test_path_evaluator_is_right_continuous_step(self):
        spec = geometric_restock_spec()
        rng = np.random.default_rng(7)
        psi0 = np.zeros(spec.rates.size)
        psi0[-1] = 1.0
        path = simulate_jump_chain(spec, psi0, 30.0, rng)
        for k in range(min(5, path.jump_times.size - 1)):
            t = path.jump_times[k]
            assert path(t) == path.states[k]
            assert path(t + 1e-9) == path.states[k]
            if k > 0:
                assert path(t - 1e-9) == path.states[k - 1]

    def test_empirical_transition_probabilities_match_semigroup(self):
        rng = np.random.default_rng(8)
        spec = intensity_to_jump(random_intensity(rng, 3))
        q = jump_to_intensity(spec)
        p_one = transition_semigroup(q, 1.0)
        start = 0
        psi0 = np.zeros(3)
        psi0[start] = 1.0
        paths = 10**5
        counts = np.zeros(3)
        for _ in range(paths):
            path = simulate_jump_chain(spec, psi0, 1.0, rng)
            counts[path(1.0)] += 1
        assert np.max(np.abs(counts / paths - p_one[start])) < 0.01

    @pytest.mark.parametrize("horizon", [1.0, 10.0, 1e4])
    def test_draws_match_one_scalar_draw_per_uniform(self, horizon):
        spec = intensity_to_jump(random_intensity(np.random.default_rng(10), 3))
        psi0 = np.array([0.2, 0.3, 0.5])
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        path = simulate_jump_chain(spec, psi0, horizon, rng)
        cum, t = np.cumsum(spec.jump_matrix, axis=1), 0.0
        state = int(np.searchsorted(np.cumsum(psi0), ref.random(), side="right"))
        times, states = [t], [state]
        while t <= horizon:
            t += -np.log(ref.random()) / spec.rates[state]
            state = int(np.searchsorted(cum[state], ref.random(), side="right"))
            times.append(t)
            states.append(state)
        assert np.array_equal(path.jump_times, times)
        assert np.array_equal(path.states, states)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -1.0])
    def test_rates_are_checked_before_any_draw(self, rate):
        # A NaN rate makes the time NaN, which never passes the horizon.
        spec = JumpChainSpec(rates=np.array([rate, 1.0]), jump_matrix=np.ones((2, 2)) / 2)
        rng = np.random.default_rng(12)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="finite and strictly positive"):
            simulate_jump_chain(spec, [1.0, 0.0], 5.0, rng)
        assert rng.bit_generator.state == state

    def test_occupation_fractions_approach_stationary_distribution(self):
        rng = np.random.default_rng(9)
        q = random_intensity(rng, 3)
        spec = intensity_to_jump(q)
        # Stationary law of the semigroup: psi Q = 0, normalized.
        a = np.vstack([q.T, np.ones(3)])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        psi_star, *_ = np.linalg.lstsq(a, b, rcond=None)
        horizon = 40_000.0
        path = simulate_jump_chain(spec, np.ones(3) / 3, horizon, rng)
        times = np.minimum(path.jump_times, horizon)
        durations = np.diff(times)
        occupation = np.zeros(3)
        for state, d in zip(path.states[:-1], durations):
            occupation[state] += d
        occupation /= occupation.sum()
        assert np.max(np.abs(occupation - psi_star)) < 0.02


def _two_state_model(**changes):
    fields = dict(
        feasible=np.ones((2, 1), dtype=bool),
        discount_rate=0.5,
        reward=np.array([[1.0], [2.0]]),
        kernel=np.array([[[-1.0, 1.0]], [[0.5, -0.5]]]),
    )
    fields.update(changes)
    return CTMDPModel(**fields)


class TestCTMDPModelValidation:
    @pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0, -0.1])
    def test_discount_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="discount rate"):
            _two_state_model(discount_rate=rate)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_intensity_rejected(self, bad):
        kernel = np.array([[[-1.0, 1.0]], [[bad, -0.5]]])
        with pytest.raises(ValueError, match="non-finite"):
            _two_state_model(kernel=kernel)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_feasible_reward_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            _two_state_model(reward=np.array([[1.0], [bad]]))

    def test_infeasible_reward_may_be_infinite(self):
        model = _two_state_model(
            feasible=np.array([[True, False], [True, True]]),
            reward=np.array([[1.0, -np.inf], [2.0, 0.0]]),
            kernel=np.array([[[-1.0, 1.0], [0.0, 0.0]], [[0.5, -0.5], [0.0, 0.0]]]),
        )
        assert np.array_equal(ct_hpi(model).policy, [0, 0])

    def test_reward_shape_checked(self):
        with pytest.raises(ValueError, match="shaped"):
            _two_state_model(reward=np.array([1.0, 2.0]))


class TestCTPolicyValue:
    def single_state_model(self, r=2.0, delta=0.5):
        return CTMDPModel(
            feasible=np.ones((1, 1), dtype=bool),
            discount_rate=delta,
            reward=np.array([[r]]),
            kernel=np.zeros((1, 1, 1)),
        )

    def test_single_state_flow_value(self):
        model = self.single_state_model(r=2.0, delta=0.5)
        assert ct_policy_value(model, [0]) == pytest.approx([4.0])

    def test_nonnegative_rewards_give_nonnegative_values(self):
        rng = np.random.default_rng(10)
        n, m = 5, 3
        kernel = np.stack([random_intensity(rng, n) for _ in range(m)], axis=1)
        model = CTMDPModel(
            feasible=np.ones((n, m), dtype=bool),
            discount_rate=0.2,
            reward=rng.random((n, m)),
            kernel=kernel,
        )
        sigma = rng.integers(0, m, size=n)
        assert np.all(ct_policy_value(model, sigma) >= 0)

    def test_monte_carlo_flow_integral(self):
        rng = np.random.default_rng(11)
        n = 3
        q = random_intensity(rng, n)
        delta = 0.3
        reward = rng.random(n) + 0.5
        model = CTMDPModel(
            feasible=np.ones((n, 1), dtype=bool),
            discount_rate=delta,
            reward=reward[:, None],
            kernel=q[:, None, :],
        )
        v = ct_policy_value(model, np.zeros(n, dtype=int))
        spec = intensity_to_jump(q)
        horizon = 50.0 / delta
        paths = 20_000
        start = 1
        psi0 = np.zeros(n)
        psi0[start] = 1.0
        totals = np.empty(paths)
        for i in range(paths):
            path = simulate_jump_chain(spec, psi0, horizon, rng)
            times = np.minimum(path.jump_times, horizon)
            # Exact integral of exp(-delta t) r over each constant piece.
            discounts = np.exp(-delta * times)
            piece = (discounts[:-1] - discounts[1:]) / delta
            totals[i] = np.sum(piece * reward[path.states[:-1]])
        se = totals.std(ddof=1) / np.sqrt(paths)
        assert abs(totals.mean() - v[start]) < 3 * se + 1e-3


class TestCTGreedy:
    def test_single_action(self):
        rng = np.random.default_rng(12)
        q = random_intensity(rng, 4)
        model = CTMDPModel(
            feasible=np.ones((4, 1), dtype=bool),
            discount_rate=0.1,
            reward=rng.random((4, 1)),
            kernel=q[:, None, :],
        )
        assert np.all(ct_greedy(model, rng.random(4)) == 0)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(13)
        n, m = 5, 3
        kernel = np.stack([random_intensity(rng, n) for _ in range(m)], axis=1)
        model = CTMDPModel(
            feasible=np.ones((n, m), dtype=bool),
            discount_rate=0.2,
            reward=rng.random((n, m)),
            kernel=kernel,
        )
        v = rng.random(n)
        assert np.array_equal(ct_greedy(model, v), ct_greedy(model, v + 17.3))

    def test_greedy_at_optimum_is_optimal(self):
        rng = np.random.default_rng(14)
        n, m = 4, 3
        kernel = np.stack([random_intensity(rng, n) for _ in range(m)], axis=1)
        model = CTMDPModel(
            feasible=np.ones((n, m), dtype=bool),
            discount_rate=0.3,
            reward=rng.random((n, m)),
            kernel=kernel,
        )
        star = ct_hpi(model)
        sigma = ct_greedy(model, star.value)
        assert ct_policy_value(model, sigma) == pytest.approx(star.value, abs=1e-10)


class TestCTHPI:
    def test_single_action_returns_policy_value(self):
        rng = np.random.default_rng(15)
        n = 4
        q = random_intensity(rng, n)
        model = CTMDPModel(
            feasible=np.ones((n, 1), dtype=bool),
            discount_rate=0.2,
            reward=rng.random((n, 1)),
            kernel=q[:, None, :],
        )
        result = ct_hpi(model)
        assert result.iterations <= 2
        assert result.value == pytest.approx(ct_policy_value(model, np.zeros(n, int)))

    def test_hjb_residual_small(self):
        rng = np.random.default_rng(16)
        n, m = 6, 3
        kernel = np.stack([random_intensity(rng, n) for _ in range(m)], axis=1)
        model = CTMDPModel(
            feasible=np.ones((n, m), dtype=bool),
            discount_rate=0.25,
            reward=rng.standard_normal((n, m)),
            kernel=kernel,
        )
        result = ct_hpi(model)
        assert result.residual < 1e-8

    def test_hjb_residual_function_matches_the_dense_residual(self):
        rng = np.random.default_rng(19)
        n, m, delta = 6, 3, 0.25
        kernel = np.stack([random_intensity(rng, n) for _ in range(m)], axis=1)
        model = CTMDPModel(np.ones((n, m), dtype=bool), delta, rng.standard_normal((n, m)), kernel)
        result = ct_hpi(model)
        assert hjb_residual(model, result.value) == result.residual
        for v in (result.value, rng.standard_normal(n)):
            dense = np.max(np.abs(delta * v - np.max(model.reward + kernel @ v, axis=1)))
            assert hjb_residual(model, v) == pytest.approx(dense, rel=1e-12, abs=1e-12)

    def test_value_iterates_nondecreasing(self):
        rng = np.random.default_rng(17)
        n, m = 5, 3
        kernel = np.stack([random_intensity(rng, n) for _ in range(m)], axis=1)
        model = CTMDPModel(
            feasible=np.ones((n, m), dtype=bool),
            discount_rate=0.3,
            reward=rng.standard_normal((n, m)),
            kernel=kernel,
        )
        sigma = np.zeros(n, dtype=np.int64)
        v = ct_policy_value(model, sigma)
        for _ in range(20):
            sigma = ct_greedy(model, v)
            v_new = ct_policy_value(model, sigma)
            assert np.all(v_new >= v - 1e-10)
            if np.max(np.abs(v_new - v)) < 1e-13:
                break
            v = v_new

    def test_uniformization_consistency(self):
        rng = np.random.default_rng(18)
        for _ in range(5):
            n, m = 4, 2
            kernel = np.stack([random_intensity(rng, n) for _ in range(m)], axis=1)
            model = CTMDPModel(
                feasible=np.ones((n, m), dtype=bool),
                discount_rate=0.3,
                reward=rng.standard_normal((n, m)),
                kernel=kernel,
            )
            ct = ct_hpi(model)
            discrete = uniformized_mdp(model)
            dt = dp.solve_hpi(discrete)
            assert np.array_equal(ct.policy, dt.policy)
            assert np.max(np.abs(ct.value - dt.value)) < 1e-8


def _oracle_ct_hpi(model):
    """Dense continuous-time HPI: exact solves of ``delta I - Q_sigma``, ``einsum`` greedy."""
    n = model.n_states
    idx = np.arange(n)

    def greedy(v):
        objective = model.reward + np.einsum("xay,y->xa", model.kernel, v)
        return np.where(model.feasible, objective, -np.inf).argmax(axis=1)

    def evaluate(sigma):
        q_sigma = model.kernel[idx, sigma]
        return np.linalg.solve(model.discount_rate * np.eye(n) - q_sigma, model.reward[idx, sigma])

    start = np.where(model.feasible, model.reward, -np.inf).argmax(axis=1)
    v, _ = fixed_point.policy_iteration(greedy, evaluate, start, 10_000)
    return greedy(v)


@settings(max_examples=200, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    m=st.integers(1, 3),
    delta=st.floats(0.05, 1.0),
)
@example(seed=0, n=1, m=2, delta=0.05)
def test_ct_hpi_matches_dense_oracle(seed, n, m, delta):
    """Policies equal the dense CT HPI's; values lie within the certified bound."""
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    kernel = rng.random((n, m, n)) * (rng.random((n, m, n)) < 0.6)
    kernel[idx, :, idx] = 0.0
    kernel[idx, :, idx] = -kernel.sum(axis=2)
    feasible = rng.random((n, m)) < 0.6
    feasible[idx, rng.integers(0, m, n)] = True
    model = CTMDPModel(feasible, delta, rng.standard_normal((n, m)), kernel)
    result = ct_hpi(model)
    assert np.array_equal(result.policy, _oracle_ct_hpi(model))
    sigma = result.policy
    dense = np.linalg.solve(delta * np.eye(n) - kernel[idx, sigma], model.reward[idx, sigma])
    slack = 1e-12 * max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(result.value - dense)) <= result.error_bound + slack
    assert result.residual < 1e-8


def _two_action_model(kernel):
    return CTMDPModel(np.ones((2, 2), dtype=bool), 0.1, np.array([[1.0, 0.0], [0.0, 2.0]]), kernel)


@pytest.mark.parametrize(
    "kernel",
    [
        # An off-diagonal of -1e-13, inside CTMDPModel's -1e-12 allowance.
        [[[-1.0, 1.0], [1e-13, -1e-13]], [[2.0, -2.0], [0.5, -0.5]]],
        # Rates near 0.01 (theta < 1) and a row-sum error of 1e-11, inside 1e-10.
        [[[-0.01, 0.01 + 1e-11], [-0.02, 0.02]], [[0.015, -0.015], [0.01, -0.01]]],
    ],
    ids=["negative-dust", "slow-row-sum-error"],
)
def test_ct_hpi_solves_every_accepted_model(kernel):
    """Rounding that CTMDPModel accepts leaves the uniformized kernel stochastic."""
    model = _two_action_model(np.array(kernel))
    result = ct_hpi(model)
    assert np.array_equal(result.policy, _oracle_ct_hpi(model))
    assert result.residual < 1e-8
    assert np.all(uniformized_mdp(model).kernel >= 0)


def test_explicit_uniformization_rate_must_dominate():
    kernel = np.array([[[-1.0, 1.0], [-0.5, 0.5]], [[2.0, -2.0], [0.5, -0.5]]])
    model = _two_action_model(kernel)
    assert uniformized_mdp(model, rate=2.0).beta == pytest.approx(2.0 / 2.1)
    for rate in (1.9, 0.0, np.nan):
        with pytest.raises(ValueError, match="dominate"):
            uniformized_mdp(model, rate=rate)


def test_ct_hpi_makes_no_dense_solve(monkeypatch):
    built = models.ct_job_search()

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    result = ct_hpi(built["ctmdp"])
    assert result.method == "ct-hpi"
    assert result.residual < 1e-8
    assert 0 < result.error_bound < 1e-9
    assert models.ct_reservation_wage(built, result) == pytest.approx(12.0, abs=1.0)

