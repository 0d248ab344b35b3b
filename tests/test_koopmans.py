import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdp import fixed_point, koopmans, markov, models, rdp, spectral
from fsdp.errors import StabilityError
from fsdp.koopmans import (
    CES,
    Additive,
    CESUzawa,
    Entropic,
    Expectation,
    KoopmansOperator,
    KrepsPorteus,
    Leontief,
    QuantileCE,
    Uzawa,
    blackwell_contraction_check,
    epstein_zin_value,
    ez_sdd_value,
    power_affine_solve,
    solve_lifetime_value,
)


def random_stochastic(rng, n):
    p = rng.random((n, n)) + 0.01
    return p / p.sum(axis=1, keepdims=True)


def _iterated(k, v, steps):
    for _ in range(steps):
        v = k(v)
    return v


def _check_against_row_shifted(p, vals, d):
    """The one-product log-sum and the operator Jacobian against a table shifted per row."""
    on = p > 0
    shift = np.array([vals[row].max() for row in on])
    terms = p * np.exp(np.where(on, vals[None, :] - shift[:, None], -np.inf))
    want = shift + np.log(terms.sum(axis=1))
    got = koopmans._weighted_logsumexp_rows(vals, p)
    assert np.max(np.abs(got - want)) <= 1e-13 * (1 + np.max(np.abs(vals)))
    # The Jacobian W(v) of Entropic(1) is the row-normalized table.
    w = terms / terms.sum(axis=1, keepdims=True)
    jvp = Entropic(1.0, p).jacobian(vals) @ d
    assert np.max(np.abs(jvp - w @ d)) <= 1e-13 * (1 + np.max(np.abs(d)))


def all_ces(p, rng):
    return [
        Expectation(p),
        Entropic(-1.0, p),
        Entropic(0.7, p),
        KrepsPorteus(-2.0, p),
        KrepsPorteus(1.5, p),
        QuantileCE(0.4, p),
    ]


class TestCertaintyEquivalents:
    def test_constants_are_fixed(self):
        rng = np.random.default_rng(0)
        p = random_stochastic(rng, 5)
        for ce in all_ces(p, rng):
            for lam in (0.5, 2.0, 7.0):
                assert ce(np.full(5, lam)) == pytest.approx(np.full(5, lam), abs=1e-10)

    def test_order_preserving(self):
        rng = np.random.default_rng(1)
        p = random_stochastic(rng, 6)
        for ce in all_ces(p, rng):
            for _ in range(10):
                v = np.abs(rng.standard_normal(6)) + 0.1
                w = v + rng.random(6)
                assert np.all(ce(v) <= ce(w) + 1e-10)

    def test_entropic_jensen_direction(self):
        rng = np.random.default_rng(2)
        p = random_stochastic(rng, 5)
        for _ in range(10):
            v = rng.standard_normal(5)
            assert np.all(Entropic(-1.0, p)(v) <= p @ v + 1e-12)
            assert np.all(Entropic(1.0, p)(v) >= p @ v - 1e-12)

    def test_entropic_gaussian_closed_form(self):
        # Entropic adjustment of a discretized normal: mean + theta * var / 2.
        mu, s, theta = 0.3, 0.7, -1.2
        grid = np.linspace(mu - 8 * s, mu + 8 * s, 201)
        weights = np.exp(-0.5 * ((grid - mu) / s) ** 2)
        weights /= weights.sum()
        p = np.tile(weights, (201, 1))
        out = Entropic(theta, p)(grid)
        assert out[0] == pytest.approx(mu + theta * s**2 / 2, abs=1e-3)

    def test_constant_subadditive_and_nonexpansive(self):
        rng = np.random.default_rng(3)
        p = random_stochastic(rng, 5)
        for ce in (Expectation(p), Entropic(-0.8, p), QuantileCE(0.3, p)):
            for _ in range(10):
                v = rng.standard_normal(5)
                lam = float(rng.random() * 2)
                assert np.all(ce(v + lam) <= ce(v) + lam + 1e-10)
                w = rng.standard_normal(5)
                assert np.max(np.abs(ce(v) - ce(w))) <= np.max(np.abs(v - w)) + 1e-10

    def test_kreps_porteus_convexity_by_gamma(self):
        rng = np.random.default_rng(4)
        p = random_stochastic(rng, 5)
        for gamma, convex in [(2.0, True), (-1.0, False), (0.5, False)]:
            ce = KrepsPorteus(gamma, p)
            for _ in range(10):
                v = rng.random(5) + 0.1
                w = rng.random(5) + 0.1
                mid = ce(0.5 * v + 0.5 * w)
                avg = 0.5 * ce(v) + 0.5 * ce(w)
                if convex:
                    assert np.all(mid <= avg + 1e-10)
                else:
                    assert np.all(mid >= avg - 1e-10)

    def test_entropic_concave_for_negative_theta(self):
        rng = np.random.default_rng(5)
        p = random_stochastic(rng, 4)
        ce = Entropic(-2.0, p)
        for _ in range(10):
            v = rng.standard_normal(4)
            w = rng.standard_normal(4)
            assert np.all(ce(0.5 * v + 0.5 * w) >= 0.5 * ce(v) + 0.5 * ce(w) - 1e-10)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        support=st.integers(1, 30),
        spread=st.floats(0.0, 3000.0),
    )
    def test_one_product_matches_the_row_shifted_sum(self, seed, n, support, spread):
        # Spreads above about 700 underflow rows whose support misses the
        # largest values; those rows are rescued.
        rng = np.random.default_rng(seed)
        p = rng.random((n, n)) * (rng.random((n, n)) < support / n)
        p[np.arange(n), rng.integers(0, n, n)] += 0.01
        p /= p.sum(axis=1, keepdims=True)
        _check_against_row_shifted(p, spread * (rng.random(n) - 0.5), rng.standard_normal(n))

    def test_a_row_whose_sum_underflows_is_rescued(self):
        p, vals = np.eye(2), np.array([0.0, -1600.0])
        assert np.all(koopmans._global_shift(vals, p)[2] == [False, True])
        _check_against_row_shifted(p, vals, np.array([1.0, 2.0]))
        assert Entropic(1.0, p)(vals) == pytest.approx(vals, rel=1e-15)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 30),
        levels=st.integers(1, 30),
        tau=st.floats(0.0, 1.0),
    )
    def test_quantile_jacobian_selects_each_row_quantile(self, seed, n, levels, tau):
        # Few levels make ties among the values.
        rng = np.random.default_rng(seed)
        p = random_stochastic(rng, n) * (rng.random((n, n)) < 0.5)
        p[np.arange(n), rng.integers(0, n, n)] += 0.01
        p /= p.sum(axis=1, keepdims=True)
        v, d = rng.integers(0, levels, n).astype(float), rng.standard_normal(n)
        ce = QuantileCE(tau, p)
        jacobian = ce.jacobian(v)
        assert np.array_equal(jacobian @ d, d[markov._quantile_index(tau, v, p)])
        assert np.array_equal(jacobian @ np.ones(n), np.ones(n))
        assert np.array_equal(jacobian @ v, ce(v))
        assert np.array_equal(ce(v), markov.conditional_quantile(tau, v, p))

    def test_quantile_jacobian_reuses_the_index_of_its_point(self, monkeypatch):
        # Newton takes the Jacobian where the aggregator was just valued;
        # the kept index serves it.  The solve is bit-identical without it.
        calls, original = [], markov._quantile_index
        monkeypatch.setattr(markov, "_quantile_index", lambda *args: calls.append(1) or original(*args))

        def solve():
            calls.clear()
            model = models.job_search_markov("quantile", n=1000, tau=0.1)["rdp"]
            return rdp.rdp_solve(model, algorithm="hpi"), len(calls)

        cached, kept_calls = solve()
        monkeypatch.setattr(QuantileCE, "_index", lambda ce, v: markov._quantile_index(ce.tau, v, ce.p))
        plain, plain_calls = solve()
        assert kept_calls < 0.8 * plain_calls
        assert cached.iterations == plain.iterations
        assert np.array_equal(cached.policy, plain.policy)
        assert np.array_equal(cached.value, plain.value)
        assert cached.error_bound == plain.error_bound

    def test_quantile_checks_the_shape_of_v(self):
        with pytest.raises(ValueError, match="align"):
            QuantileCE(0.5, np.eye(3))(np.ones(4))

    def test_kreps_porteus_rejects_nonpositive(self):
        p = np.eye(2)
        with pytest.raises(ValueError):
            KrepsPorteus(-2.0, p)(np.array([1.0, 0.0]))


class TestKoopmansApply:
    def test_additive_expectation_is_time_additive(self):
        rng = np.random.default_rng(6)
        p = random_stochastic(rng, 5)
        r = rng.standard_normal(5)
        k = KoopmansOperator(Additive(r, 0.95), Expectation(p))
        v = rng.standard_normal(5)
        assert k(v) == pytest.approx(r + 0.95 * (p @ v))

    def test_epstein_zin_constant_stream_identity(self):
        p = random_stochastic(np.random.default_rng(7), 4)
        beta, alpha, gamma, c = 0.99, 0.75, -2.0, 1.7
        r = (1 - beta) ** (1 / alpha) * np.full(4, c)
        k = KoopmansOperator(CES(r, beta, alpha), KrepsPorteus(gamma, p), "positive")
        v = np.full(4, c)
        assert np.max(np.abs(k(v) - v)) < 1e-12

    def test_additive_quantile_form(self):
        rng = np.random.default_rng(8)
        p = random_stochastic(rng, 5)
        r = rng.standard_normal(5)
        k = KoopmansOperator(Additive(r, 0.9), QuantileCE(0.5, p))
        v = rng.standard_normal(5)
        expected = r + 0.9 * markov.conditional_quantile(0.5, v, p)
        assert k(v) == pytest.approx(expected)

    def test_order_preserving(self):
        rng = np.random.default_rng(9)
        p = random_stochastic(rng, 5)
        k = KoopmansOperator(Additive(rng.random(5), 0.9), Entropic(-1.0, p))
        v = rng.standard_normal(5)
        w = v + rng.random(5)
        assert np.all(k(v) <= k(w) + 1e-12)


class TestBlackwellCheck:
    def test_additive_entropic_contraction(self):
        p = random_stochastic(np.random.default_rng(10), 5)
        k = KoopmansOperator(Additive(np.ones(5), 0.95), Entropic(-1.0, p))
        check = blackwell_contraction_check(k)
        assert check.classification == "contraction"
        assert check.modulus == pytest.approx(0.95)

    def test_leontief_quantile_contraction(self):
        p = random_stochastic(np.random.default_rng(11), 5)
        k = KoopmansOperator(Leontief(np.ones(5), 0.9), QuantileCE(0.5, p))
        check = blackwell_contraction_check(k)
        assert check.classification == "contraction"
        assert check.modulus == pytest.approx(0.9)

    def test_ces_kreps_porteus_unknown(self):
        p = random_stochastic(np.random.default_rng(12), 5)
        k = KoopmansOperator(
            CES(np.ones(5), 0.9, 0.75), KrepsPorteus(-2.0, p), "positive"
        )
        assert blackwell_contraction_check(k).classification == "unknown"


class TestSolveLifetimeValue:
    @pytest.mark.parametrize(
        "domain", ["positive", (np.zeros(3), np.full(3, 20.0)), (5.0, 15.0)], ids=str
    )
    def test_declared_domain_is_solved_inside_it(self, domain):
        """The contraction check and the Newton start stay in the declared domain."""
        k = KoopmansOperator(Additive(np.ones(3), 0.9), Expectation(np.full((3, 3), 1 / 3)), domain)
        result = solve_lifetime_value(k)
        assert result.method == "blackwell-contraction"
        assert np.allclose(result.value, 10.0, rtol=0, atol=1e-10)
        assert result.error_bound <= 1e-10

    def test_risk_sensitive_gaussian_closed_form(self):
        # AR(1) state with linear rewards: the fixed point is affine in
        # the state, v(x) = a x + b, up to discretization error.  The
        # discretization bias on the constant is ~ (beta/(1-beta)) * a^2
        # * step^2 / 24, so hitting 0.02 needs a fine grid.
        n, beta, rho, sigma, theta = 720, 0.95, 0.96, 0.1, -1.0
        grid, p = markov.tauchen(n, rho=rho, nu=sigma, m=10.0)
        k = KoopmansOperator(Additive(grid, beta), Entropic(theta, p))
        result = solve_lifetime_value(k)
        a = 1 / (1 - rho * beta)
        b = theta * (beta / (1 - beta)) * (a * sigma) ** 2 / 2
        closed_form = a * grid + b
        interior = slice(n // 10, -n // 10)
        gap = np.max(np.abs(result.value[interior] - closed_form[interior]))
        assert gap < 0.02
        assert result.residual < 1e-8

    def test_epstein_zin_reference_calibration(self):
        n, rho, sigma, beta, alpha, gamma = 200, 0.96, 0.1, 0.99, 0.75, -2.0
        grid, p = markov.tauchen(n, rho=rho, nu=sigma, m=5.0)
        c = np.exp(grid)
        r = (1 - beta) ** (1 / alpha) * c
        k = KoopmansOperator(CES(r, beta, alpha), KrepsPorteus(gamma, p), "positive")
        result = solve_lifetime_value(k)
        assert result.residual < 1e-8
        assert np.all(np.diff(result.value) > 0)
        # Cross-check: direct iteration on K reaches the same fixed point.
        v = np.ones(n)
        for _ in range(5000):
            v_new = k(v)
            if np.max(np.abs(v_new - v)) < 1e-12:
                v = v_new
                break
            v = v_new
        assert np.max(np.abs(result.value - v)) < 1e-8

    def test_uzawa_with_discount_above_one_somewhere(self):
        grid, p = markov.tauchen(15, rho=0.8, nu=0.05)
        b = 0.95 + grid  # straddles one at the top of the grid
        assert b.max() > 1 > b.min()
        l_matrix = b[:, None] * p
        assert spectral.spectral_radius(l_matrix) < 1
        r = np.ones(15)
        k = KoopmansOperator(Uzawa(r, b), Expectation(p))
        result = solve_lifetime_value(k)
        assert result.method == "uzawa-spectral"
        linear = spectral.neumann_solve(l_matrix, r)
        assert result.value == pytest.approx(linear, abs=1e-8)

    def test_refuses_blind_iteration(self):
        p = random_stochastic(np.random.default_rng(13), 4)
        k = KoopmansOperator(Uzawa(np.ones(4), np.full(4, 1.2)), Entropic(-1.0, p))
        with pytest.raises(StabilityError):
            solve_lifetime_value(k)

    def test_bracketed_solver(self):
        # Uzawa aggregation with an entropic adjustment has no Blackwell,
        # conjugate, or linear-reduction certificate, so only a supplied
        # order interval lets the solver proceed.
        rng = np.random.default_rng(14)
        p = random_stochastic(rng, 5)
        r = rng.random(5) + 0.5
        beta = 0.9
        k = KoopmansOperator(Uzawa(r, np.full(5, beta)), Entropic(-0.5, p))
        v1 = np.zeros(5)
        v2 = np.full(5, (r.max() + 1) / (1 - beta))
        result = solve_lifetime_value(k, bracket=(v1, v2))
        assert result.method == "order-interval-bracket"
        assert result.residual < 1e-8

    def test_error_bound_of_each_branch(self):
        rng = np.random.default_rng(17)
        p = random_stochastic(rng, 6)
        r = rng.random(6) + 0.5
        reference = lambda k: _iterated(k, np.zeros(6), 3000)
        # Every contraction and the Uzawa reduction: Newton's certified bound.
        both_active = KoopmansOperator(Leontief(r - 1.0, 0.9), Entropic(-1.0, p))
        for k in (
            KoopmansOperator(Additive(r, 0.9), Entropic(-1.0, p)),
            KoopmansOperator(Additive(r, 0.9), Expectation(p)),
            KoopmansOperator(Additive(r, 0.9), QuantileCE(0.5, p)),
            KoopmansOperator(Leontief(r, 0.9), QuantileCE(0.5, p)),
            both_active,
            KoopmansOperator(Uzawa(r, np.linspace(0.5, 0.9, 6)), Expectation(p)),
        ):
            result = solve_lifetime_value(k)
            assert 0 <= result.error_bound <= 1e-10
            assert np.max(np.abs(result.value - reference(k))) <= result.error_bound + 1e-13
        # The min in both_active takes r at some states and beta C(v) at others.
        v = solve_lifetime_value(both_active).value
        reward_active = r - 1.0 < 0.9 * both_active.ce(v)
        assert reward_active.any() and not reward_active.all()
        # A bracket: half its final gap.
        k = KoopmansOperator(Uzawa(r, np.full(6, 0.9)), Entropic(-0.5, p))
        upper = np.full(6, (r.max() + 1) / (1 - 0.9))
        result = solve_lifetime_value(k, bracket=(np.zeros(6), upper))
        assert 0 < result.error_bound <= 0.5e-10
        assert np.max(np.abs(result.value - reference(k))) <= result.error_bound + 1e-13
        # The conjugate solves state none.
        k = KoopmansOperator(CES(r, 0.9, 0.75), KrepsPorteus(-2.0, p), "positive")
        assert solve_lifetime_value(k).error_bound is None

    def test_global_stability_from_three_terminals(self):
        rng = np.random.default_rng(15)
        p = random_stochastic(rng, 5)
        k = KoopmansOperator(Additive(rng.random(5), 0.9), Entropic(-1.0, p))
        v_star = solve_lifetime_value(k).value
        for seed in range(3):
            w = np.random.default_rng(seed).standard_normal(5) * 5
            for _ in range(400):
                w = k(w)
            assert np.max(np.abs(w - v_star)) < 1e-6


class TestPowerAffine:
    @pytest.mark.parametrize("theta, scale", [(2.0, 0.9), (-6.0, 1.5)])
    def test_box_modulus_bounds_the_jacobian_on_the_box(self, monkeypatch, theta, scale):
        # The log-space map's Jacobian is nonnegative, so E(y) 1 is its row
        # sums; at every point of the box x +- b they stay below lam(x, b).
        rng = np.random.default_rng(17)
        a, h = scale * random_stochastic(rng, 8), rng.random(8) + 0.5
        seen = {}
        original = fixed_point.newton_krylov

        def capture(op, v0, jvp, weights, lam, tolerance, max_iter):
            seen.update(jvp=jvp, lam=lam)
            return original(op, v0, jvp, weights, lam, tolerance, max_iter)

        monkeypatch.setattr(fixed_point, "newton_krylov", capture)
        x = np.log(power_affine_solve(h, a, theta))
        for b in (0.0, 0.05, 0.5):
            bound = seen["lam"](x, b)
            assert bound < 1
            corners = [x - b, x + b] + [x + b * rng.uniform(-1, 1, 8) for _ in range(20)]
            for y in corners:
                assert np.max(seen["jvp"](y)(np.ones(8))) <= bound * (1 + 1e-14)

    def test_theta_one_linear_case(self):
        rng = np.random.default_rng(16)
        a = 0.6 * random_stochastic(rng, 5)
        h = rng.random(5) + 0.5
        v = power_affine_solve(h, a, 1.0)
        assert v == pytest.approx(h + a @ v, abs=1e-10)

    def test_scalar_case_matches_bisection(self):
        theta, h, beta = 5.0, 0.5, 0.5
        a = np.array([[beta**theta]])
        v = power_affine_solve(np.array([h]), a, theta)

        def f(t):
            return (h + beta * t ** (1 / theta)) ** theta - t

        lo, hi = 1e-6, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert v[0] == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_stability_boundary_flip(self):
        # Savings-rate recursions of power-affine type admit a positive
        # solution iff rho(A)**psi < 1; flip psi across that boundary.
        rng = np.random.default_rng(17)
        p = random_stochastic(rng, 3)
        f = rng.random(3) + 0.5
        beta, psi_good, psi_bad = 0.9, -0.5, 0.5
        growth = 1.3  # scale A so rho(A) > 1
        a = growth * beta * (f ** ((psi_good - 1) / psi_good))[None, :] * p
        a = a * (spectral.spectral_radius(a) ** -1) * 1.2
        assert spectral.spectral_radius(a) > 1
        v = power_affine_solve(np.ones(3), a, 1 / psi_good)
        assert np.all(v > 0)
        with pytest.raises(StabilityError):
            power_affine_solve(np.ones(3), a, 1 / psi_bad)


class TestEpsteinZin:
    def test_linear_conjugate_when_alpha_equals_gamma(self):
        rng = np.random.default_rng(18)
        p = random_stochastic(rng, 5)
        h = rng.random(5) + 0.5
        beta, gamma = 0.9, 0.8
        v = epstein_zin_value(h, beta, gamma, gamma, p)
        v_hat = spectral.neumann_solve(beta * p, h)
        assert v == pytest.approx(v_hat ** (1 / gamma), abs=1e-9)

    def test_constant_consumption(self):
        p = random_stochastic(np.random.default_rng(19), 4)
        beta, alpha, gamma, c = 0.95, 0.75, -2.0, 2.0
        h = (1 - beta) * c**alpha * np.ones(4)
        v = epstein_zin_value(h, beta, alpha, gamma, p)
        assert v == pytest.approx(np.full(4, c), abs=1e-9)

    def test_conjugate_matches_direct_iteration(self):
        rng = np.random.default_rng(20)
        p = random_stochastic(rng, 8)
        h = rng.random(8) + 0.2
        beta, alpha, gamma = 0.95, 0.75, -2.0
        v = epstein_zin_value(h, beta, alpha, gamma, p)
        w = np.ones(8)
        for _ in range(20_000):
            w_new = (h + beta * (p @ w**gamma) ** (alpha / gamma)) ** (1 / alpha)
            if np.max(np.abs(w_new - w)) < 1e-13:
                w = w_new
                break
            w = w_new
        assert np.max(np.abs(v - w)) < 1e-8


class TestEZSDD:
    def test_constant_weights_reduce_to_epstein_zin(self):
        rng = np.random.default_rng(21)
        p = random_stochastic(rng, 5)
        h = rng.random(5) + 0.3
        beta, alpha, gamma = 0.9, 0.75, -2.0
        a = ez_sdd_value(h, np.full(5, beta), alpha, gamma, p)
        b = epstein_zin_value(h, beta, alpha, gamma, p)
        assert a == pytest.approx(b, abs=1e-9)

    def test_boundary_flip_by_scaling_weights(self):
        rng = np.random.default_rng(22)
        p = random_stochastic(rng, 4)
        h = rng.random(4) + 0.3
        alpha, gamma = 0.75, -2.0
        theta = gamma / alpha
        b = rng.uniform(0.85, 0.95, size=4)
        v = ez_sdd_value(h, b, alpha, gamma, p)
        assert np.all(v > 0)
        rho = spectral.spectral_radius((b**theta)[:, None] * p)
        # Scale weights so the certified quantity crosses one.
        scale = 1.05 / rho ** (1 / theta)
        with pytest.raises(StabilityError):
            ez_sdd_value(h, scale * b, alpha, gamma, p)

    def test_lifetime_value_takes_the_conjugate_route(self):
        rng = np.random.default_rng(24)
        p = random_stochastic(rng, 6)
        r = rng.random(6) + 0.3
        b = rng.uniform(0.85, 0.95, size=6)
        alpha, gamma = 0.75, -2.0
        k = KoopmansOperator(CESUzawa(r, b, alpha), KrepsPorteus(gamma, p), "positive")
        result = solve_lifetime_value(k)
        assert result.method == "epstein-zin-sdd-conjugate"
        assert np.array_equal(result.value, ez_sdd_value(r**alpha, b, alpha, gamma, p))
        assert result.residual == np.max(np.abs(k(result.value) - result.value)) < 1e-8

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(23)
        p = random_stochastic(rng, 8)
        h = rng.random(8) + 0.3
        b = rng.uniform(0.85, 0.98, size=8)
        alpha, gamma = 0.6, -3.0
        v = ez_sdd_value(h, b, alpha, gamma, p)
        lhs = (h + b * (p @ v**gamma) ** (alpha / gamma)) ** (1 / alpha)
        assert np.max(np.abs(lhs - v)) < 1e-8
