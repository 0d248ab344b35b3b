import numpy as np
import pytest

from fsdp import ctmdp, dp, markov, models, rdp, spectral
from fsdp.errors import ConvergenceError
from fsdp.models import ZOO


@pytest.fixture(scope="module")
def iid_built():
    return models.job_search_iid()


@pytest.mark.parametrize(
    "build, solve",
    [
        (models.job_search_iid, lambda b: models.job_search_iid_continuation(b, max_iter=1)),
        (models.american_option, lambda b: models.solve_american_option(b, max_iter=1)),
        (models.rnd_model, lambda b: models.solve_rnd(b, max_iter=1)),
        (models.ez_savings, lambda b: models.ez_savings_solve_direct(b, max_policy_iter=1)),
        (models.ez_savings, lambda b: models.ez_savings_solve_subordinate(b, max_policy_iter=1)),
    ],
    ids=["job_search_iid", "american_option", "rnd", "ez_direct", "ez_subordinate"],
)
def test_model_loops_raise_at_their_caps(build, solve):
    with pytest.raises(ConvergenceError) as info:
        solve(build())
    assert info.value.last is not None


class TestJobSearchIID:

    def test_continuation_value_level(self, iid_built):
        built = iid_built
        h, w = models.job_search_iid_continuation(built)
        assert h == pytest.approx(1086, abs=1.0)
        assert w == pytest.approx(43.4, abs=0.1)

    def test_vfi_matches_closed_form_value(self, iid_built):
        built = iid_built
        h, _ = models.job_search_iid_continuation(built)
        result = dp.solve_vfi(built["mdp"], tolerance=1e-9)
        v_unemp = result.value[built["unemployed"]]
        closed = np.maximum(built["wages"] / (1 - built["beta"]), h)
        assert np.max(np.abs(v_unemp - closed)) < 1e-4

    def test_policy_is_threshold(self, iid_built):
        built = iid_built
        result = dp.solve_vfi(built["mdp"], tolerance=1e-9)
        accept = result.policy[built["unemployed"]]
        assert np.all(np.diff(accept) >= 0)
        _, w_star = models.job_search_iid_continuation(built)
        grid_reservation = models.job_search_iid_reservation_wage(built, result)
        step = built["wages"][1] - built["wages"][0]
        assert abs(grid_reservation - w_star) <= step


class TestJobSearchMarkov:
    def test_separation_lowers_reservation_wage(self):
        # Strict decrease needs the full wage grid; coarser grids tie
        # adjacent separation rates to the same grid point.
        wages = []
        for alpha in np.linspace(0.0, 1.0, 10):
            built = models.job_search_markov(variant="separation", alpha=alpha)
            result = dp.solve_hpi(built["mdp"])
            wages.append(models.job_search_reservation_wage(built, result))
        assert all(a > b for a, b in zip(wages, wages[1:]))

    def test_quantile_reservation_wage_rises_in_tau(self):
        wages = []
        for tau in np.arange(0.1, 0.95, 0.1):
            built = models.job_search_markov(variant="quantile", n=80, tau=tau)
            result = rdp.rdp_solve(built["rdp"], algorithm="vfi", tolerance=1e-9)
            wages.append(models.job_search_reservation_wage(built, result))
        assert all(b >= a for a, b in zip(wages, wages[1:]))
        assert wages[-1] > wages[0]

    def test_risk_sensitivity_brackets_neutral_case(self):
        def res_wage(theta):
            built = models.job_search_markov(
                variant="risk_sensitive", n=100, theta=theta
            )
            result = rdp.rdp_solve(built["rdp"], algorithm="vfi", tolerance=1e-10)
            return models.job_search_reservation_wage(built, result)

        tiny_minus, tiny_plus = res_wage(-1e-4), res_wage(1e-4)
        strongly_averse = res_wage(-10.0)
        assert tiny_minus <= tiny_plus
        assert strongly_averse < tiny_minus
        built = models.job_search_markov(variant="plain", n=100)
        neutral = models.job_search_reservation_wage(
            built, dp.solve_hpi(built["mdp"])
        )
        assert tiny_minus <= neutral <= tiny_plus


@pytest.fixture(scope="module")
def exit_solved():
    built = models.firm_exit()
    return built, dp.solve_hpi(built["mdp"])


class TestFirmExit:

    def test_option_value_dominates_no_exit_value(self, exit_solved):
        built, result = exit_solved
        assert np.all(result.value[built["active"]] >= built["no_exit_value"] - 1e-9)

    def test_exit_at_low_productivity(self, exit_solved):
        built, result = exit_solved
        policy = result.policy[built["active"]].astype(int)
        assert np.all(np.diff(policy) <= 0)  # exit region sits at the bottom
        assert policy[0] == 1 and policy[-1] == 0

    def test_worthless_scrap_disables_exit(self):
        built = models.firm_exit(n=80)
        low = models.firm_exit(n=80, s=float(built["no_exit_value"].min() - 50))
        result = dp.solve_hpi(low["mdp"])
        assert np.all(result.policy[low["active"]] == 0)
        assert np.max(
            np.abs(result.value[low["active"]] - low["no_exit_value"])
        ) < 1e-8


@pytest.fixture(scope="module")
def option_solved_small():
    built = models.american_option(n=20, T=20)
    return built, models.solve_american_option(built)


class TestAmericanOption:

    def test_dead_option_never_exercised(self, option_solved_small):
        built, h = option_solved_small
        last = built["n_dates"] - 1
        payoff = built["exit_reward"](last)
        assert np.all(payoff == 0.0)
        assert np.all(h[last] >= 0.0)

    def test_exercise_region_expands_with_time(self):
        built = models.american_option(n=40, T=60)
        h = models.solve_american_option(built)
        dates = [10, 35, 58]
        regions = []
        for i in dates:
            payoff = built["exit_reward"](i)
            regions.append(payoff >= h[i][None, :])
        assert regions[0].sum() <= regions[1].sum() <= regions[2].sum()
        assert np.all(~regions[0] | regions[1])
        assert np.all(~regions[1] | regions[2])

    def test_continuation_matches_full_state_vfi(self, option_solved_small):
        built, h = option_solved_small
        model, idx = models.american_option_mdp(built)
        result = dp.solve_vfi(model, tolerance=1e-10)
        nz, nw = built["z_vals"].size, built["w_vals"].size
        for i in (0, 5, 19, 20):
            payoff = built["exit_reward"](i)
            for iw in range(nw):
                for iz in range(nz):
                    direct = max(payoff[iw, iz], h[i, iz])
                    assert result.value[idx(i, iw, iz)] == pytest.approx(
                        direct, abs=1e-6
                    )

    def test_operator_contracts(self):
        built = models.american_option(n=15, T=15)
        op = built["continuation_operator"]
        rng = np.random.default_rng(0)
        shape = (built["n_dates"], built["z_vals"].size)
        for _ in range(5):
            f, g = rng.standard_normal((2,) + shape)
            gap = np.max(np.abs(op(f) - op(g)))
            assert gap <= built["beta"] * np.max(np.abs(f - g)) + 1e-12


class TestRnD:
    def test_constant_cost_matches_direct_stopping(self):
        built = models.rnd_model(cost_values=(1.0,), cost_probs=(1.0,))
        g, policy = models.solve_rnd(built)
        pi, p, beta = built["pi"], built["transition"], built["beta"]
        v = np.zeros(pi.size)
        for _ in range(200_000):
            v_new = np.maximum(pi, -1.0 + beta * (p @ v))
            if np.max(np.abs(v_new - v)) < 1e-13:
                break
            v = v_new
        assert np.max(np.abs(g - p @ v)) < 1e-8
        direct_policy = pi >= -1.0 + beta * (p @ v)
        assert np.array_equal(policy[0], direct_policy)

    def test_iid_increasing_payoff_gives_increasing_policy(self):
        n = 25
        pi = np.linspace(0.5, 3.0, n)
        p = np.tile(np.full(n, 1.0 / n), (n, 1))
        built = models.rnd_model(pi_values=pi, transition=p)
        _, policy = models.solve_rnd(built)
        for row in policy:
            assert np.all(np.diff(row.astype(int)) >= 0)

    def test_prohibitive_costs_force_stopping(self):
        built = models.rnd_model(cost_values=(1e6,), cost_probs=(1.0,))
        _, policy = models.solve_rnd(built)
        assert np.all(policy[0][built["pi"] >= 0])


@pytest.fixture(scope="module")
def inventory_solved():
    built = models.inventory_mdp()
    return built, dp.solve_hpi(built["mdp"])


class TestInventory:

    def test_order_policy_has_restock_threshold(self, inventory_solved):
        built, result = inventory_solved
        orders = result.policy
        positive = np.flatnonzero(orders > 0)
        zero = np.flatnonzero(orders == 0)
        assert positive.size and zero.size
        assert positive.max() < zero.min()

    def test_simulated_orders_are_lumpy(self, inventory_solved):
        built, result = inventory_solved
        _, orders = models.simulate_inventory(built, result, steps=10_000, seed=3)
        assert np.mean(orders == 0) > 0.9

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_simulation_matches_a_plain_loop(self, inventory_solved, seed):
        built, result = inventory_solved
        steps = 2_000
        demand = np.random.default_rng(seed).choice(
            built["demand_probs"].size, size=steps, p=built["demand_probs"]
        )
        path = np.zeros(steps + 1, dtype=np.int64)
        orders = np.zeros(steps, dtype=np.int64)
        for t in range(steps):
            orders[t] = result.policy[path[t]]
            path[t + 1] = max(path[t] - demand[t], 0) + orders[t]
        got_path, got_orders = models.simulate_inventory(built, result, steps=steps, seed=seed)
        assert got_path.dtype == path.dtype and got_orders.dtype == orders.dtype
        assert np.array_equal(got_path, path) and np.array_equal(got_orders, orders)

    def test_free_ordering_always_restocks(self):
        built = models.inventory_mdp(kappa=0.0, c=0.0, K=25, d_max=60)
        result = dp.solve_hpi(built["mdp"])
        assert np.all(result.policy[:-1] > 0)

    def test_sdd_variant_certified_and_sawtooth(self):
        built = models.inventory_sdd(K=20, n_z=10, d_max=60)
        assert built["discount_radius"] < 1
        result = dp.solve_hpi(built["mdp"], dominating="certified")
        policy = result.policy.reshape(built["capacity"] + 1, built["n_z"])
        mid = built["n_z"] // 2
        positive = np.flatnonzero(policy[:, mid] > 0)
        zero = np.flatnonzero(policy[:, mid] == 0)
        assert positive.size and zero.size and positive.max() < zero.min()

    def test_sdd_per_policy_radii_on_tiny_instance(self):
        built = models.inventory_sdd(K=3, n_z=5, d_max=30)
        model = built["mdp"]
        count = 0
        for sigma in dp.enumerate_policies(model):
            l_sigma = dp.policy_matrix(model, sigma, discounted=True)
            assert spectral.spectral_radius(l_sigma) < 1
            count += 1
            if count > 500:
                break


class TestSavings:
    def test_gini_baseline(self):
        built = models.optimal_savings()
        result = dp.solve_opi(built["mdp"], m=100, tolerance=1e-6)
        wealth = models.simulate_savings_wealth(built, result, steps=10**6, seed=1234)
        assert models.gini_coefficient(wealth[1000:]) == pytest.approx(0.54, abs=0.05)

    def test_gini_stochastic_returns(self):
        built = models.optimal_savings_stochastic_returns()
        result = dp.solve_opi(built["mdp"], m=100, tolerance=1e-6)
        wealth = models.simulate_savings_wealth_stochastic(
            built, result, steps=10**6, seed=99
        )
        assert models.gini_coefficient(wealth[1000:]) == pytest.approx(0.72, abs=0.05)

    def test_refactored_opi_agrees_with_direct(self):
        built = models.optimal_savings_stochastic_returns(w_size=40, y_size=6)
        direct = dp.solve_opi(built["mdp"], m=60, tolerance=1e-8)
        refactored = dp.solve_refactored_opi(built["mdp"], m=60, tolerance=1e-8)
        assert np.array_equal(direct.policy, refactored.policy)


class TestInvestmentAndHiring:
    def test_adjustment_cost_smooths_output(self):
        variances = []
        for g in (1.0, 10.0, 20.0, 25.0):
            built = models.optimal_investment(gamma=g, y_size=60, z_size=15)
            result = dp.solve_opi(built["mdp"], m=80, tolerance=1e-7)
            out, target = models.simulate_investment(built, result, steps=8000, seed=5)
            variances.append(np.var(out - target))
        assert all(a < b for a, b in zip(variances, variances[1:]))

    def test_zero_adjustment_cost_tracks_target(self):
        built = models.optimal_investment(gamma=0.0, y_size=60, z_size=15)
        result = dp.solve_hpi(built["mdp"])
        y_size, z_size = built["shape"]
        policy = result.policy.reshape(y_size, z_size)
        y_grid, z_grid = built["y_grid"], built["z_grid"]
        step = y_grid[1] - y_grid[0]
        rho = built["params"]["rho"]
        for iz, z in enumerate(z_grid):
            target = built["target_output"](rho * z)
            chosen = y_grid[policy[:, iz]]
            assert np.max(np.abs(chosen - target)) <= step

    def test_hiring_is_lumpy(self):
        built = models.firm_hiring(l_size=60, z_size=25)
        result = dp.solve_opi(built["mdp"], m=80, tolerance=1e-7)
        labor = models.simulate_hiring(built, result, steps=10_000, seed=2)
        assert np.mean(np.diff(labor) == 0) > 0.5


@pytest.fixture(scope="module")
def default_solved():
    built = models.optimal_default()
    return built, rdp.rdp_solve(built["rdp"], algorithm="hpi")


class TestOptimalDefault:

    def test_default_region_shrinks_with_assets(self, default_solved):
        built, result = default_solved
        region = models.default_region(built, result)
        assert region.any()
        for row in region:
            assert np.all(np.diff(row.astype(int)) <= 0)

    def test_default_probability_decreasing_in_income(self, default_solved):
        built, result = default_solved
        frac = models.default_region(built, result).mean(axis=1)
        assert np.all(np.diff(frac) <= 1e-12)

    def test_in_default_states_have_single_action(self, default_solved):
        built, _ = default_solved
        mdp_model = built["mdp"]
        y_size, b_size = built["shape"]
        for iy in range(y_size):
            for ib in range(b_size):
                s = built["state_index"](iy, ib, 1)
                assert mdp_model.feasible[s].sum() == 1

    def test_no_penalty_instant_reentry_degenerates(self):
        built = models.optimal_default(reentry=1.0, haircut=1.0)
        result = rdp.rdp_solve(built["rdp"], algorithm="hpi")
        region = models.default_region(built, result)
        zero = built["zero_bond_index"]
        assert not region[:, zero].any()
        # Default is payoff-equivalent to continuing with zero bonds.
        mdp_model = built["mdp"]
        for iy in range(built["shape"][0]):
            s = built["state_index"](iy, zero, 0)
            q = dp.q_factors(mdp_model, result.value)[s]
            assert q[built["default_action"]] == pytest.approx(q[zero], abs=1e-7)

    def test_contraction_along_value_trace(self):
        built = models.optimal_default(y_size=10, b_size=10)
        model = built["mdp"]
        rng = np.random.default_rng(0)
        v = rng.standard_normal(model.n_states)
        w = rng.standard_normal(model.n_states)
        gap = np.max(np.abs(dp.bellman(model, v) - dp.bellman(model, w)))
        assert gap <= model.beta * np.max(np.abs(v - w)) + 1e-12


class TestEZSavings:
    def test_two_paths_agree_on_default_grid(self):
        built = models.ez_savings()
        sigma_direct, _ = models.ez_savings_solve_direct(built)
        sigma_sub, _ = models.ez_savings_solve_subordinate(built)
        assert np.array_equal(sigma_direct, sigma_sub)

    def test_single_endowment_point_paths_coincide(self):
        built = models.ez_savings(n=1, w_size=20)
        sigma_direct, v_direct = models.ez_savings_solve_direct(built)
        sigma_sub, h_sub = models.ez_savings_solve_subordinate(built)
        assert np.array_equal(sigma_direct, sigma_sub)
        assert np.max(np.abs(v_direct[:, 0] - h_sub)) < 1e-6

    def test_subordinate_speed_gain_grows_with_endowment_grid(self):
        import time

        def best_of(fn, repeats):
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        # The cheap path needs more repeats: its absolute times sit at the
        # scheduler-noise floor, so the minimum stabilizes slowly.
        ratios = []
        for n in (10, 40, 80):
            built = models.ez_savings(n=n)
            direct = best_of(lambda: models.ez_savings_solve_direct(built), 2)
            subordinate = best_of(
                lambda: models.ez_savings_solve_subordinate(built), 6
            )
            ratios.append(subordinate / direct)
        assert ratios[0] > ratios[1] > ratios[2]


class TestLakeModel:
    def test_growth_rate_and_shares(self):
        card = models.lake_model()
        result = spectral.dominant_eigenpair(card["matrix"], assume_irreducible=True)
        assert result.value == pytest.approx(card["growth_factor"], abs=1e-12)
        assert result.value == pytest.approx(1.005, abs=1e-12)
        assert result.right == pytest.approx(card["stable_shares"], abs=1e-12)

    def test_trajectories_converge_to_stable_shares(self):
        card = models.lake_model()
        rng = np.random.default_rng(1)
        for _ in range(3):
            x = rng.random(2) + 0.1
            for _ in range(400):
                x = card["matrix"] @ x
                x = x / x.sum() * 2  # keep magnitudes in range
            shares = x / x.sum()
            assert np.max(np.abs(shares - card["stable_shares"])) < 1e-6


@pytest.fixture(scope="module")
def ct_solved():
    built = models.ct_job_search()
    return built, ctmdp.ct_hpi(built["ctmdp"])


class TestCTJobSearch:

    def test_reservation_wage_near_twelve(self, ct_solved):
        built, result = ct_solved
        assert models.ct_reservation_wage(built, result) == pytest.approx(12.0, abs=1.0)

    def test_threshold_policy(self, ct_solved):
        built, result = ct_solved
        accept = result.policy[built["unemployed"]]
        assert np.all(np.diff(accept) >= 0)

    def test_hjb_residual(self, ct_solved):
        built, result = ct_solved
        assert result.residual < 1e-8

    def test_comparative_statics(self):
        # Full wage grid: coarser grids tie small moves to one grid point.
        base = dict(kappa=1.0, alpha=0.1, delta=0.1, c=9.0)
        w0 = models.ct_reservation_wage(models.ct_job_search(**base))
        moves = {
            "alpha": (0.3, -1),
            "kappa": (2.0, +1),
            "delta": (0.25, -1),
            "c": (10.0, +1),
        }
        for key, (value, direction) in moves.items():
            params = dict(base)
            params[key] = value
            w = models.ct_reservation_wage(models.ct_job_search(**params))
            assert np.sign(w - w0) == direction, key


class TestReservationWage:
    @pytest.mark.parametrize(
        "name, helper",
        [
            ("job_search_iid", "job_search_iid_reservation_wage"),
            ("job_search_markov", "job_search_reservation_wage"),
            ("ct_job_search", "ct_reservation_wage"),
        ],
    )
    def test_policy_rejecting_every_offer_gives_inf(self, name, helper):
        built = ZOO[name].build(ci_scale=True)
        n_states = built["wages"].size * 2
        reject_all = dp.SolveResult(
            np.zeros(n_states), np.zeros(n_states, dtype=np.int64), 0, "none", 0.0
        )
        assert getattr(models, helper)(built, reject_all) == np.inf


class TestZooRegistry:
    def test_all_cards_build_and_validate(self):
        for name, card in ZOO.items():
            built = card.build(ci_scale=True)
            assert isinstance(built, dict), name
            if "mdp" in built:
                assert built["mdp"].n_states > 0

    def test_overrides_apply(self):
        built = ZOO["firm_exit"].build(n=30)
        assert built["grid"].size == 30

    def test_closed_form_pmfs_match_scipy_stats(self):
        from scipy.stats import betabinom, binom

        # Both builders normalize the pmf to sum to one.
        for built, pmf in (
            (models.job_search_iid()["offer_probs"], betabinom(50, 200, 100).pmf(np.arange(51))),
            (models.ez_savings()["phi"], binom(79, 0.5).pmf(np.arange(80))),
        ):
            expected = pmf / pmf.sum()
            assert np.max(np.abs(built - expected) / expected) <= 3e-14


class TestTimingShapeClaims:
    def test_opi_beats_vfi_somewhere_on_m_grid(self):
        # Existence claim only: some partial-evaluation depth beats VFI.
        import time

        cases = [
            (models.optimal_savings(w_size=80, y_size=5)["mdp"], None),
            (models.optimal_investment(y_size=50, z_size=20)["mdp"], None),
            (models.inventory_sdd(K=15, n_z=10, d_max=60)["mdp"], "certified"),
        ]
        for model, dominating in cases:
            t0 = time.perf_counter()
            vfi = dp.solve_vfi(model, tolerance=1e-7, dominating=dominating)
            vfi_time = time.perf_counter() - t0
            opi_times = []
            for m in (20, 50, 100):
                t0 = time.perf_counter()
                opi = dp.solve_opi(model, m=m, tolerance=1e-7, dominating=dominating)
                opi_times.append(time.perf_counter() - t0)
                assert np.array_equal(opi.policy, vfi.policy)
            assert min(opi_times) < vfi_time
