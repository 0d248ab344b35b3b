import itertools
import time

import numpy as np
import pytest

from fsdp import dp, markov, models, rdp, spectral
from fsdp.errors import ConvergenceError, SpectralRadiusError, StabilityError
from fsdp.rdp import (
    Contracting,
    EventuallyContracting,
    RDPModel,
    UserCertified,
    from_mdp,
    make_robust_aggregator,
    make_smooth_ambiguity_aggregator,
    negative_discount_solve,
    path_cost_model,
    rdp_bellman,
    rdp_greedy,
    rdp_solve,
    smooth_ambiguity_policy_value_conjugate,
    solve_path_costs,
)


def random_mdp(rng, n=6, m=3, beta=0.9):
    kernel = rng.random((n, m, n)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    reward = rng.standard_normal((n, m))
    return dp.MDPModel(
        feasible=np.ones((n, m), dtype=bool), reward=reward, kernel=kernel, beta=beta
    )


def random_cost_graph(rng, n=8, extra_edges=10, dest=None):
    """Random DAG over a topological order, destination self-loop appended."""
    dest = n - 1 if dest is None else dest
    order = rng.permutation(n)
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    cost = np.full((n, n), np.inf)
    # A chain along the order guarantees the destination is reachable.
    chain = order[order != dest]
    for x in chain:
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


def bellman_ford(cost, dest, beta=1.0):
    """Label-correcting oracle for (possibly amplified) path costs."""
    n = cost.shape[0]
    dist = np.full(n, np.inf)
    dist[dest] = 0.0
    for _ in range(n):
        for u in range(n):
            for v in range(n):
                if np.isfinite(cost[u, v]) and u != dest:
                    cand = cost[u, v] + beta * dist[v]
                    if cand < dist[u]:
                        dist[u] = cand
    return dist


class TestMDPWrapper:
    def test_wrapper_matches_native_solvers(self):
        rng = np.random.default_rng(0)
        model = random_mdp(rng)
        wrapped = from_mdp(model)
        native = dp.solve_hpi(model)
        for algorithm in ("hpi", "vfi", "opi"):
            result = rdp_solve(wrapped, algorithm=algorithm, tolerance=1e-12)
            assert np.array_equal(result.policy, native.policy)
            assert np.max(np.abs(result.value - native.value)) < 1e-10

    def test_bellman_and_greedy_match(self):
        rng = np.random.default_rng(1)
        model = random_mdp(rng)
        wrapped = from_mdp(model)
        v = rng.standard_normal(6)
        assert rdp_bellman(wrapped, v) == pytest.approx(dp.bellman(model, v))
        assert np.array_equal(rdp_greedy(wrapped, v), dp.greedy(model, v))

    @pytest.mark.parametrize("algorithm", ["hpi", "vfi", "opi"])
    def test_every_algorithm_honours_max_iter(self, algorithm):
        model = models.ZOO["optimal_default"].build(ci_scale=True)["rdp"]
        with pytest.raises(ConvergenceError):
            rdp_solve(model, algorithm=algorithm, max_iter=1)

    def test_monotone_aggregator_spot_check(self):
        rng = np.random.default_rng(2)
        wrapped = from_mdp(random_mdp(rng))
        rdp.check_monotone_aggregator(wrapped, rng)


class TestCertificates:
    def test_contraction_modulus_must_be_below_one(self):
        model = from_mdp(random_mdp(np.random.default_rng(3)))
        object.__setattr__(model.stability, "modulus", 1.0)
        with pytest.raises(StabilityError):
            rdp_solve(model)

    def test_eventually_contracting_dominating(self):
        rng = np.random.default_rng(4)
        n, m = 4, 2
        p = rng.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        kernel = np.repeat(p[:, None, :], m, axis=1)
        # Discounting exceeds one in one state; the per-state dominating
        # operator still has spectral radius below one.
        weights = rng.uniform(0.85, 0.95, size=(n, m))
        weights[0, :] = 1.02
        reward = rng.standard_normal((n, m))
        flat = kernel.reshape(n * m, n)

        def aggregator(v):
            ev = (flat @ v).reshape(n, m)
            return reward + weights * ev

        dominating = weights.max(axis=1)[:, None] * p
        assert spectral.spectral_radius(dominating) < 1
        model = RDPModel(
            feasible=np.ones((n, m), dtype=bool),
            aggregator=aggregator,
            stability=EventuallyContracting(dominating=dominating),
        )
        result = rdp_solve(model, tolerance=1e-11)
        assert result.residual < 1e-9

    def test_unstable_dominating_rejected(self):
        model = from_mdp(random_mdp(np.random.default_rng(5)))
        bad = RDPModel(
            feasible=model.feasible,
            aggregator=model.aggregator,
            stability=EventuallyContracting(dominating=np.eye(6) * 1.2),
        )
        with pytest.raises(SpectralRadiusError):
            rdp_solve(bad)

    @pytest.mark.parametrize("shape", [(5, 5), (7, 7), (6, 5), (6, 6)])
    def test_dominating_matrix_of_the_wrong_shape_or_sign_is_refused(self, shape):
        model = from_mdp(random_mdp(np.random.default_rng(5)))
        dominating = np.full(shape, 0.1)
        if shape == (6, 6):
            dominating[0, 1] = -0.1  # the right shape, but signed
        bad = RDPModel(
            feasible=model.feasible,
            aggregator=model.aggregator,
            stability=EventuallyContracting(dominating=dominating),
        )
        with pytest.raises(ValueError, match="dominating matrix"):
            rdp.verify_certificate(bad)

    def test_per_policy_radius_enumeration_names_policy(self):
        rng = np.random.default_rng(6)
        n, m = 3, 2
        p = rng.random((n, n)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        kernel = np.repeat(p[:, None, :], m, axis=1)
        # Action 1 discounts above one everywhere: those policies blow up.
        weights = np.stack([np.full(n, 0.9), np.full(n, 1.3)], axis=1)
        reward = rng.standard_normal((n, m))
        flat = kernel.reshape(n * m, n)

        def aggregator(v):
            return reward + weights * (flat @ v).reshape(n, m)

        def policy_radius(sigma):
            return weights[np.arange(n), sigma][:, None] * p

        model = RDPModel(
            feasible=np.ones((n, m), dtype=bool),
            aggregator=aggregator,
            stability=EventuallyContracting(policy_radius=policy_radius),
        )
        with pytest.raises(SpectralRadiusError) as info:
            rdp_solve(model)
        assert info.value.policy is not None

    def test_unknown_class_refused(self):
        model = from_mdp(random_mdp(np.random.default_rng(7)))
        broken = RDPModel(
            feasible=model.feasible, aggregator=model.aggregator, stability=object()
        )
        with pytest.raises(StabilityError):
            rdp_solve(broken)


class TestRiskSensitiveJobSearchRDP:
    def build(self, theta, n=60, rho=0.9, nu=0.2, beta=0.98, c=1.0):
        grid, p = markov.tauchen(n, rho=rho, nu=nu)
        w_vals = np.exp(grid)
        stop = w_vals / (1 - beta)

        if abs(theta) < 1e-12:
            def aggregator(v):
                cont = c + beta * (p @ v)
                return np.column_stack([cont, stop])
        else:
            def aggregator(v):
                shifted = theta * v
                mx = shifted.max()
                cont = c + (beta / theta) * (
                    np.log(p @ np.exp(shifted - mx)) + mx
                )
                return np.column_stack([cont, stop])

        return RDPModel(
            feasible=np.ones((n, 2), dtype=bool),
            aggregator=aggregator,
            stability=Contracting(beta),
            extras={"wages": w_vals},
        ), w_vals

    def reservation_wage(self, theta):
        model, wages = self.build(theta)
        result = rdp_solve(model, algorithm="vfi", tolerance=1e-10)
        accept = result.policy == 1
        assert accept.any()
        return wages[accept].min()

    def test_risk_aversion_lowers_reservation_wage(self):
        w_neutralish = self.reservation_wage(1e-4)
        w_averse = self.reservation_wage(-3.0)
        w_loving = self.reservation_wage(3.0)
        assert w_averse < w_neutralish < w_loving

    def test_contraction_classification(self):
        model, _ = self.build(-1.0)
        result = rdp_solve(model, algorithm="hpi")
        assert result.residual < 1e-9


class TestShortestPaths:
    def test_matches_label_correcting_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            n = int(rng.integers(4, 10))
            cost = random_cost_graph(rng, n=n)
            dest = n - 1
            result = solve_path_costs(cost, dest)
            oracle = bellman_ford(cost, dest)
            assert result.value == pytest.approx(oracle, abs=1e-12), f"trial {trial}"

    def test_destination_value_is_zero(self):
        rng = np.random.default_rng(9)
        cost = random_cost_graph(rng, n=7)
        result = solve_path_costs(cost, 6)
        assert result.value[6] == 0.0

    def test_policy_follows_shortest_route(self):
        rng = np.random.default_rng(10)
        cost = random_cost_graph(rng, n=8)
        result = solve_path_costs(cost, 7)
        for x in range(7):
            nxt = result.policy[x]
            assert result.value[x] == pytest.approx(cost[x, nxt] + result.value[nxt])

    def test_zero_cost_off_destination_rejected(self):
        cost = np.array([[np.inf, 0.0], [np.inf, 0.0]])
        with pytest.raises(ValueError):
            solve_path_costs(cost, 1)

    def test_unreachable_destination_rejected(self):
        cost = np.full((3, 3), np.inf)
        cost[0, 1] = 1.0
        cost[1, 0] = 1.0
        cost[2, 2] = 0.0
        with pytest.raises(ValueError):
            solve_path_costs(cost, 2)

    def test_node_without_a_path_is_named_unreachable(self):
        # Node 2 reaches only node 3, whose one edge leads back to node 2.
        cost = np.full((4, 4), np.inf)
        cost[0, 0] = 0.0
        cost[1, 0] = 1.0
        cost[2, 3] = 1.0
        cost[3, 2] = 1.0
        with pytest.raises(ValueError, match="destination unreachable"):
            rdp.path_cost_model(cost, 0)

    def test_destination_reached_in_several_hops(self):
        # A chain 4 -> 3 -> 2 -> 1 -> 0: node 4's only path has four hops.
        n = 5
        cost = np.full((n, n), np.inf)
        cost[0, 0] = 0.0
        cost[np.arange(1, n), np.arange(n - 1)] = 2.0
        result = solve_path_costs(cost, 0)
        assert np.array_equal(result.value, 2.0 * np.arange(n))
        assert np.array_equal(result.policy, [0, 0, 1, 2, 3])


class TestNegativeDiscount:
    def enumerate_policy_costs(self, cost, dest, beta):
        """Brute-force oracle: evaluate every successor map exactly."""
        n = cost.shape[0]
        successors = [np.flatnonzero(np.isfinite(cost[x])) for x in range(n)]
        best = np.full(n, np.inf)
        for choice in itertools.product(*successors):
            values = np.zeros(n)
            ok = True
            for x in range(n):
                if x == dest:
                    continue
                total, state, steps = 0.0, x, 0
                factor = 1.0
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

    def test_matches_policy_enumeration_on_small_graphs(self):
        rng = np.random.default_rng(11)
        beta = 1.15
        for _ in range(5):
            cost = random_cost_graph(rng, n=6, extra_edges=6)
            result = negative_discount_solve(cost, beta, 5)
            oracle = self.enumerate_policy_costs(cost, 5, beta)
            assert result.value == pytest.approx(oracle, abs=1e-12)

    def test_continuity_at_unit_discount(self):
        rng = np.random.default_rng(12)
        cost = random_cost_graph(rng, n=7)
        plain = solve_path_costs(cost, 6, beta=1.0)
        nearly = solve_path_costs(cost, 6, beta=1.0 + 1e-9)
        assert np.max(np.abs(plain.value - nearly.value)) < 1e-6

    def test_destination_value_zero_and_cost_bound(self):
        rng = np.random.default_rng(13)
        beta, n = 1.2, 6
        cost = random_cost_graph(rng, n=n)
        model = path_cost_model(cost, n - 1, beta)
        result = negative_discount_solve(cost, beta, n - 1)
        assert result.value[n - 1] == 0.0
        c_max = np.max(cost[np.isfinite(cost)])
        bound = c_max * (1 - beta**n) / (1 - beta)
        assert np.all(model.extras["max_cost"] <= bound + 1e-9)

    def test_requires_beta_above_one(self):
        cost = random_cost_graph(np.random.default_rng(14), n=5)
        with pytest.raises(ValueError):
            negative_discount_solve(cost, 0.9, 4)


class TestRobustAggregator:
    def test_singleton_family_is_plain_mdp(self):
        rng = np.random.default_rng(15)
        model = random_mdp(rng, n=5, m=2, beta=0.9)
        robust = make_robust_aggregator(model.reward, 0.9, [np.asarray(model.kernel)])
        native = dp.solve_hpi(model)
        result = rdp_solve(robust, tolerance=1e-12)
        assert np.max(np.abs(result.value - native.value)) < 1e-8
        assert np.array_equal(result.policy, native.policy)

    def test_value_below_every_member_model(self):
        rng = np.random.default_rng(16)
        n, m, beta = 5, 2, 0.9
        reward = rng.standard_normal((n, m))
        kernels = []
        for _ in range(4):
            k = rng.random((n, m, n)) + 0.05
            k /= k.sum(axis=2, keepdims=True)
            kernels.append(k)
        robust = make_robust_aggregator(reward, beta, kernels)
        worst = rdp_solve(robust, tolerance=1e-11)
        for k in kernels:
            member = dp.MDPModel(
                feasible=np.ones((n, m), dtype=bool), reward=reward, kernel=k, beta=beta
            )
            assert np.all(worst.value <= dp.solve_hpi(member).value + 1e-8)

    def test_kl_penalty_matches_entropic_closed_form(self):
        # Worst-case expectation with a scaled KL penalty equals the
        # entropic adjustment at the baseline; a simplex grid search
        # approximates the infimum to quantization accuracy O(mesh^2).
        rng = np.random.default_rng(17)
        theta = -2.0
        baseline = np.array([0.5, 0.3, 0.2])
        v = np.array([0.4, -0.2, 0.1])

        def grid_infimum(mesh):
            steps = int(round(1 / mesh))
            best = np.inf
            for i in range(steps + 1):
                for j in range(steps + 1 - i):
                    q = np.array([i, j, steps - i - j]) / steps
                    with np.errstate(divide="ignore", invalid="ignore"):
                        ratio = np.where(q > 0, q / baseline, 1.0)
                        kl = float(np.sum(np.where(q > 0, q * np.log(ratio), 0.0)))
                    best = min(best, float(q @ v) - kl / theta)
            return best

        closed = float(np.log(baseline @ np.exp(theta * v)) / theta)
        coarse = grid_infimum(0.01)
        fine = grid_infimum(0.005)
        assert abs(coarse - closed) < 1e-3
        assert abs(fine - closed) < abs(coarse - closed) + 1e-12
        assert abs(fine - closed) < 4e-4

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            make_robust_aggregator(np.zeros((2, 1)), 0.9, [])


class TestSmoothAmbiguity:
    def build(self, rng, n=4, m=2, n_theta=2):
        reward = rng.random((n, m)) + 0.5
        kernels = []
        for _ in range(n_theta):
            k = rng.random((n, m, n)) + 0.05
            k /= k.sum(axis=2, keepdims=True)
            kernels.append(k)
        mu = rng.random((n, n_theta)) + 0.2
        mu /= mu.sum(axis=1, keepdims=True)
        return reward, kernels, mu

    def test_parameter_ordering_enforced(self):
        rng = np.random.default_rng(18)
        reward, kernels, mu = self.build(rng)
        with pytest.raises(ValueError):
            make_smooth_ambiguity_aggregator(
                reward, 0.95, kernels, mu, alpha=0.5, kappa=-1.0, gamma=-2.0
            )

    def test_bracket_containment(self):
        rng = np.random.default_rng(19)
        reward, kernels, mu = self.build(rng)
        model = make_smooth_ambiguity_aggregator(
            reward, 0.95, kernels, mu, alpha=0.5, kappa=-3.0, gamma=-2.0
        )
        lower, upper = model.extras["bracket"]
        mask = model.feasible
        b_lo = model.aggregate(lower)
        b_hi = model.aggregate(upper)
        lo_mat = np.repeat(lower, model.n_actions).reshape(mask.shape)
        hi_mat = np.repeat(upper, model.n_actions).reshape(mask.shape)
        assert np.all(lo_mat[mask] <= b_lo[mask] + 1e-12)
        assert np.all(b_lo[mask] <= b_hi[mask] + 1e-12)
        assert np.all(b_hi[mask] < hi_mat[mask])

    def test_ambiguity_neutral_reduces_to_epstein_zin(self):
        rng = np.random.default_rng(20)
        n, m = 4, 1
        reward, kernels, mu = self.build(rng, n=n, m=m)
        gamma = kappa = -2.0
        alpha, beta = 0.5, 0.95
        # kappa == gamma: beliefs average the kernels directly.
        mixed = sum(mu[:, k][:, None, None] * kernels[k] for k in range(len(kernels)))

        def neutral_aggregator(v):
            ev = np.einsum("xay,y->xa", mixed, v**gamma)
            return (reward + beta * ev ** (alpha / gamma)) ** (1 / alpha)

        flats = [k.reshape(n * m, n) for k in kernels]

        def ambiguity_aggregator(v):
            inner = np.stack(
                [np.asarray(f @ v**gamma).reshape(n, m) for f in flats], axis=-1
            )
            mixed_v = np.einsum("xak,xk->xa", inner ** (kappa / gamma), mu)
            return (reward + beta * mixed_v ** (alpha / kappa)) ** (1 / alpha)

        v = rng.random(n) + 0.5
        assert ambiguity_aggregator(v) == pytest.approx(neutral_aggregator(v), abs=1e-12)

    def test_conjugate_and_direct_policy_values_agree(self):
        rng = np.random.default_rng(21)
        reward, kernels, mu = self.build(rng, n=4, m=2, n_theta=2)
        reward = 0.04 + 0.06 * (reward - reward.min()) / np.ptp(reward)
        model = make_smooth_ambiguity_aggregator(
            reward, 0.9, kernels, mu, alpha=0.5, kappa=-3.0, gamma=-2.0, slack=0.05
        )
        sigma = np.array([0, 1, 0, 1])
        direct = rdp.rdp_policy_value(model, sigma, tolerance=1e-13)
        conjugate = smooth_ambiguity_policy_value_conjugate(model, sigma)
        assert np.max(np.abs(direct - conjugate)) < 1e-8

    def test_solvable_and_residual_small(self):
        rng = np.random.default_rng(22)
        reward, kernels, mu = self.build(rng)
        model = make_smooth_ambiguity_aggregator(
            reward, 0.9, kernels, mu, alpha=0.5, kappa=-4.0, gamma=-1.5
        )
        result = rdp_solve(model, tolerance=1e-11)
        assert result.residual < 1e-9


class TestPolicyChecks:
    """A policy of the wrong shape or with an infeasible action is refused before evaluation."""

    @pytest.fixture
    def model(self):
        # Nodes 1 and 2 have one successor each, so their second slot is unused.
        inf = np.inf
        cost = np.array([[inf, 1.0, 5.0], [inf, inf, 1.0], [inf, inf, 0.0]])
        model = path_cost_model(cost, 2)
        assert not model.feasible[1, 1]
        return model

    @pytest.mark.parametrize("sigma", [[0, 1, 0], [0, 0], [0, -1, 0], [0, 2, 0]],
                             ids=["unused-slot", "short", "negative", "out-of-range"])
    @pytest.mark.parametrize("entry", ["policy_value", "solve_hpi", "solve_opi"])
    def test_bad_policy_raises_at_once(self, model, sigma, entry):
        calls = {
            "policy_value": lambda: rdp.rdp_policy_value(model, sigma),
            "solve_hpi": lambda: rdp_solve(model, mode="min", sigma0=sigma),
            "solve_opi": lambda: rdp_solve(model, mode="min", algorithm="opi", sigma0=sigma),
        }
        start = time.perf_counter()
        with pytest.raises(ValueError, match="policy"):
            calls[entry]()
        assert time.perf_counter() - start < 0.5

    def test_good_policy_still_evaluates(self, model):
        assert np.array_equal(rdp.rdp_policy_value(model, [0, 0, 0]), [2.0, 1.0, 0.0])

    def test_smooth_ambiguity_conjugate_checks_the_policy(self):
        rng = np.random.default_rng(4)
        kernels = [rng.dirichlet(np.ones(3), size=(3, 2)) for _ in range(2)]
        model = make_smooth_ambiguity_aggregator(
            rng.random((3, 2)) + 0.5, 0.9, kernels, np.full((3, 2), 0.5), 0.5, -2.0, -1.0
        )
        with pytest.raises(ValueError, match="policy"):
            smooth_ambiguity_policy_value_conjugate(model, [0, 2, 0])


class TestUserCertified:
    def test_exact_evaluator_used(self):
        rng = np.random.default_rng(23)
        model = random_mdp(rng)
        wrapped = from_mdp(model)

        def evaluator(rmodel, sigma):
            return dp.policy_value(model, sigma)

        certified = RDPModel(
            feasible=wrapped.feasible,
            aggregator=wrapped.aggregator,
            stability=UserCertified(evaluator),
        )
        result = rdp_solve(certified, algorithm="hpi")
        native = dp.solve_hpi(model)
        assert np.array_equal(result.policy, native.policy)
        assert np.max(np.abs(result.value - native.value)) < 1e-10


class TestRobustPenalty:
    def test_penalty_adds_to_the_reward(self):
        rng = np.random.default_rng(18)
        model = random_mdp(rng, n=5, m=2, beta=0.9)
        penalty = rng.random((5, 2))
        robust = make_robust_aggregator(model.reward, 0.9, [np.asarray(model.kernel)], penalty=[penalty])
        assert np.array_equal(robust.extras["penalties"][0], penalty)
        shifted = dp.MDPModel(
            feasible=model.feasible, reward=model.reward + penalty, kernel=model.kernel, beta=0.9
        )
        native = dp.solve_hpi(shifted)
        result = rdp_solve(robust, tolerance=1e-12)
        assert np.max(np.abs(result.value - native.value)) < 1e-8
        assert np.array_equal(result.policy, native.policy)

    def test_one_penalty_per_kernel(self):
        kernel = np.ones((2, 1, 2)) / 2
        with pytest.raises(ValueError, match="one penalty per kernel"):
            make_robust_aggregator(np.zeros((2, 1)), 0.9, [kernel, kernel], penalty=[np.zeros((2, 1))])
