import numpy as np
import pytest

from fsdp import discounting, fixed_point, markov, spectral
from fsdp.discounting import (
    LucasSDFSpec,
    build_discount_operator,
    harrison_kreps_price,
    price_cum_dividend,
    price_dividend_ratio,
    price_ex_dividend,
    sdd_lifetime_value,
    spectral_test_sequence,
)
from fsdp.errors import ConvergenceError, SpectralRadiusError


def random_stochastic(rng, n):
    p = rng.random((n, n)) + 0.01
    return p / p.sum(axis=1, keepdims=True)


class TestBuildDiscountOperator:
    def test_constant_factor_scales_matrix(self):
        p = random_stochastic(np.random.default_rng(0), 5)
        op = build_discount_operator(0.96, p)
        assert op.matrix == pytest.approx(0.96 * p)
        assert op.spectral_radius == pytest.approx(0.96, abs=1e-10)

    def test_hills_style_discount_radius(self):
        # Persistent discount-factor process straddling one: the grid tops
        # out above 1 yet the long-run growth rate of discounting stays
        # below 1.
        scale = 0.99875
        grid, q = markov.tauchen(15, rho=0.85, nu=0.0062, b=1 - 0.85, m=4.5)
        betas = scale * grid
        assert betas.max() > 1.0
        op = build_discount_operator(betas, q)
        assert op.spectral_radius == pytest.approx(0.9996, abs=5e-4)

    def test_factor_depending_on_one_block_of_product_chain(self):
        rng = np.random.default_rng(1)
        qz = random_stochastic(rng, 3)
        ry = random_stochastic(rng, 4)
        bz = rng.uniform(0.8, 1.0, size=3)
        # Product chain on (y, z) pairs, discount factor a function of z only.
        p = np.kron(ry, qz)
        b_full = np.tile(bz, 4)
        op_full = build_discount_operator(b_full, p)
        op_z = build_discount_operator(bz, qz)
        assert spectral.spectral_radius(op_full.matrix) == pytest.approx(
            spectral.spectral_radius(op_z.matrix), abs=1e-10
        )

    def test_nonpositive_factor_on_support_rejected(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            build_discount_operator(np.array([[0.9, 0.0], [0.9, 0.9]]), p)


class TestSDDLifetimeValue:
    def test_constant_discount_reduction(self):
        rng = np.random.default_rng(2)
        p = random_stochastic(rng, 6)
        r = rng.standard_normal(6)
        for beta in (0.5, 0.9, 0.98):
            op = build_discount_operator(beta, p)
            assert sdd_lifetime_value(op, r) == pytest.approx(
                markov.geometric_value(beta, p, r), abs=1e-12
            )

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(3)
        p = random_stochastic(rng, 4)
        b = rng.uniform(0.5, 0.9, size=(4, 4))
        h = rng.random(4) + 0.5
        op = build_discount_operator(b, p)
        v = sdd_lifetime_value(op, h)
        x0, paths, horizon = 2, 10**5, 60
        row_cum = np.cumsum(p, axis=1)
        draws = rng.random((paths, horizon))
        # All paths step together; each path accumulates in the order of a
        # scalar loop over t, so every total is the scalar loop's to the bit.
        x = np.full(paths, x0)
        discount = np.ones(paths)
        totals = np.full(paths, h[x0])
        for t in range(1, horizon):
            x_next = np.empty_like(x)
            for state in range(4):
                at = x == state
                x_next[at] = np.searchsorted(row_cum[state], draws[at, t], side="right")
            discount *= b[x, x_next]
            x = x_next
            totals += discount * h[x]
        se = totals.std(ddof=1) / np.sqrt(paths)
        assert abs(totals.mean() - v[x0]) < 3 * se + 1e-6

    def test_unstable_operator_raises(self):
        p = random_stochastic(np.random.default_rng(4), 3)
        op = build_discount_operator(1.05, p)
        with pytest.raises(SpectralRadiusError) as info:
            sdd_lifetime_value(op, np.ones(3))
        assert info.value.spectral_radius == pytest.approx(1.05, abs=1e-8)

    def test_monotone_value_with_monotone_inputs(self):
        # Interest rate decreasing in the state, so the discount factor
        # b = 1/(1+r) rises with the state along with the payoff.
        grid, p = markov.tauchen(12, rho=0.8, nu=0.3)
        payoff = np.linspace(1.0, 2.0, 12)
        rates = np.linspace(0.15, 0.05, 12)
        op = build_discount_operator(1 / (1 + rates), p)
        v = sdd_lifetime_value(op, payoff)
        assert np.all(np.diff(v) > 0)


class TestSpectralTestSequence:
    def test_constant_discount_gives_constant_sequence(self):
        p = random_stochastic(np.random.default_rng(5), 4)
        op = build_discount_operator(0.9, p)
        result = spectral_test_sequence(op, 25)
        assert result.values == pytest.approx(np.full(25, 0.9), abs=1e-10)
        assert result.first_contraction_time == 1

    def test_radius_increases_with_volatility_and_persistence(self):
        mu = 0.96
        radii = {}
        for a in (0.5, 0.9):
            for s in (0.02, 0.05):
                grid, q = markov.tauchen(
                    6, rho=a, nu=s * np.sqrt(1 - a**2), b=mu * (1 - a)
                )
                op = build_discount_operator(grid, q)
                radii[(a, s)] = op.spectral_radius
                result = spectral_test_sequence(op, 2_000)
                assert result.values[-1] == pytest.approx(op.spectral_radius, abs=2e-3)
        assert radii[(0.5, 0.02)] < radii[(0.9, 0.02)]
        assert radii[(0.5, 0.05)] < radii[(0.9, 0.05)]
        assert radii[(0.5, 0.02)] < radii[(0.5, 0.05)]
        assert radii[(0.9, 0.02)] < radii[(0.9, 0.05)]

    def test_single_term_below_one_certifies_stability(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            p = random_stochastic(rng, 4)
            b = rng.uniform(0.7, 1.1, size=4)
            op = build_discount_operator(b, p)
            result = spectral_test_sequence(op, 200)
            if result.first_contraction_time is not None:
                assert op.spectral_radius < 1

    def test_stationary_weighted_average_converges(self):
        rng = np.random.default_rng(7)
        p = random_stochastic(rng, 5)
        b = rng.uniform(0.8, 1.0, size=5)
        op = build_discount_operator(b, p)
        psi = markov.stationary_distribution(p)
        t = 400
        power = np.linalg.matrix_power(op.matrix, t)
        geo_mean = float(psi @ power @ np.ones(5)) ** (1 / t)
        assert geo_mean == pytest.approx(op.spectral_radius, abs=1e-2)


class TestAssetPrices:
    def test_risk_neutral_constant_dividend(self):
        p = random_stochastic(np.random.default_rng(8), 5)
        beta = 0.95
        pi = price_ex_dividend(beta, np.ones(5), p)
        assert pi == pytest.approx(np.full(5, beta / (1 - beta)), abs=1e-10)

    def test_risk_neutral_requires_beta_below_one(self):
        p = random_stochastic(np.random.default_rng(9), 4)
        with pytest.raises(SpectralRadiusError):
            price_ex_dividend(1.0, np.ones(4), p)

    def test_ex_dividend_fixed_point_residual(self):
        rng = np.random.default_rng(10)
        p = random_stochastic(rng, 8)
        m = rng.uniform(0.8, 0.99, size=(8, 8))
        d = rng.random(8)
        pi = price_ex_dividend(m, d, p)
        a = m * p
        assert np.max(np.abs(pi - a @ (pi + d))) < 1e-10

    def test_cum_equals_ex_plus_dividend(self):
        rng = np.random.default_rng(11)
        p = random_stochastic(rng, 6)
        m = rng.uniform(0.85, 0.97, size=(6, 6))
        d = rng.random(6)
        cum = price_cum_dividend(m, d, p)
        ex = price_ex_dividend(m, d, p)
        assert cum == pytest.approx(ex + d, abs=1e-9)

    def test_zero_dividend_prices_at_zero(self):
        p = random_stochastic(np.random.default_rng(12), 4)
        assert price_cum_dividend(0.9, np.zeros(4), p) == pytest.approx(np.zeros(4))

    def test_constant_cum_dividend(self):
        p = random_stochastic(np.random.default_rng(13), 4)
        beta = 0.9
        assert price_cum_dividend(beta, np.ones(4), p) == pytest.approx(
            np.full(4, 1 / (1 - beta))
        )


class TestPriceDividendRatio:
    def default_spec(self, **overrides):
        params = dict(beta=0.99, gamma=2.5, mu_c=0.01, sigma_c=0.02, mu_d=0.02, sigma_d=0.1)
        params.update(overrides)
        return LucasSDFSpec(**params)

    def test_slopes_down_when_gamma_above_one(self):
        grid, p = markov.tauchen(200, rho=0.9, nu=0.2)
        x_vals = np.exp(grid)
        v = price_dividend_ratio(self.default_spec(), x_vals, p)
        assert np.all(np.diff(v) < 0)

    def test_degenerate_case_reduces_to_geometric(self):
        p = random_stochastic(np.random.default_rng(14), 5)
        spec = self.default_spec(gamma=0.0, sigma_c=0.0, sigma_d=0.0, mu_d=0.0, mu_c=0.33)
        v = price_dividend_ratio(spec, np.zeros(5), p)
        assert v == pytest.approx(np.full(5, spec.beta / (1 - spec.beta)), abs=1e-8)

    def test_truncated_series_oracle(self):
        grid, p = markov.tauchen(40, rho=0.9, nu=0.2)
        x_vals = np.exp(grid)
        spec = self.default_spec()
        a = discounting.growth_adjusted_operator(spec, x_vals, p)
        v = price_dividend_ratio(spec, x_vals, p)
        total = np.zeros(40)
        term = np.ones(40)
        for _ in range(2_000):
            term = a @ term
            total += term
            if np.max(term) < 1e-9:
                break
        assert np.max(np.abs(v - total)) < 1e-6

    def test_residual_of_pricing_equation(self):
        grid, p = markov.tauchen(60, rho=0.9, nu=0.2)
        x_vals = np.exp(grid)
        spec = self.default_spec()
        a = discounting.growth_adjusted_operator(spec, x_vals, p)
        v = price_dividend_ratio(spec, x_vals, p)
        assert np.max(np.abs(v - a @ (1 + v))) < 1e-10


class TestHarrisonKreps:
    def test_single_belief_reduction(self):
        rng = np.random.default_rng(15)
        p = random_stochastic(rng, 5)
        d = rng.random(5)
        beta = 0.9
        price = harrison_kreps_price(p, p, beta, d)
        single = price_ex_dividend(beta, d, p)
        assert price == pytest.approx(single, abs=1e-6)

    def test_dominates_single_belief_prices(self):
        rng = np.random.default_rng(16)
        p1 = random_stochastic(rng, 6)
        p2 = random_stochastic(rng, 6)
        d = rng.random(6)
        beta = 0.92
        price = harrison_kreps_price(p1, p2, beta, d)
        for p in (p1, p2):
            assert np.all(price >= price_ex_dividend(beta, d, p) - 1e-6)

    def test_contraction_modulus_along_trace(self):
        rng = np.random.default_rng(17)
        p1 = random_stochastic(rng, 4)
        p2 = random_stochastic(rng, 4)
        d = rng.random(4)
        beta = 0.9
        _, trace = harrison_kreps_price(p1, p2, beta, d, return_trace=True)
        steps = trace.errors
        for prev, nxt in zip(steps, steps[1:]):
            assert nxt <= beta * prev + 1e-12

    def test_iteration_cap_is_a_convergence_failure(self):
        rng = np.random.default_rng(19)
        p1, p2 = random_stochastic(rng, 4), random_stochastic(rng, 4)
        cfg = fixed_point.IterationConfig(max_iter=2)
        with pytest.raises(ConvergenceError) as info:
            harrison_kreps_price(p1, p2, 0.9, rng.random(4), cfg=cfg)
        assert info.value.last.shape == (4,)

    def test_rejects_negative_dividends(self):
        p = random_stochastic(np.random.default_rng(18), 3)
        with pytest.raises(ValueError):
            harrison_kreps_price(p, p, 0.9, np.array([-0.1, 0.2, 0.3]))


def test_callable_factors_are_evaluated_on_index_pairs():
    p = random_stochastic(np.random.default_rng(5), 4)
    factor = lambda i, j: 0.9 - 0.01 * i + 0.001 * j
    op = build_discount_operator(factor, p)
    expected = np.array([[factor(i, j) for j in range(4)] for i in range(4)])
    assert np.array_equal(op.factors, expected)
    assert np.array_equal(op.matrix, expected * p)
