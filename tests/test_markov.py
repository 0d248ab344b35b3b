import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import binom, norm

from fsdp import koopmans, markov


def day_laborer(alpha=0.3, beta=0.2):
    return np.array([[1 - alpha, alpha], [beta, 1 - beta]])


def ss_inventory_chain(order_size=100, threshold=10, p=0.4, d_max=1_000):
    """Transition matrix for restock-to-S inventory dynamics."""
    n = order_size + threshold + 1
    phi = p * (1 - p) ** np.arange(d_max)
    phi /= phi.sum()
    states = np.arange(n)
    p_mat = np.zeros((n, n))
    for x in states:
        for d, w in enumerate(phi):
            nxt = max(x - d, 0) + order_size * (x <= threshold)
            p_mat[x, nxt] += w
    return p_mat


def random_stochastic(rng, n):
    p = rng.random((n, n)) + 0.01
    return p / p.sum(axis=1, keepdims=True)


class TestValidation:
    def test_rejects_bad_row_sums(self):
        with pytest.raises(ValueError):
            markov.require_stochastic_matrix([[0.5, 0.4], [0.5, 0.5]])

    def test_repair_renormalizes(self):
        p = markov.require_stochastic_matrix([[0.5, 0.4], [0.5, 0.5]], repair=True)
        assert p.sum(axis=1) == pytest.approx([1.0, 1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            markov.require_distribution([1.2, -0.2])

    def test_rejects_nan_weights(self):
        with pytest.raises(ValueError, match="nan"):
            markov.simulate_chain(np.eye(2), [np.nan, 1.0], 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            markov.require_distribution([np.nan])

    def test_sparse_checked_without_a_dense_copy(self, monkeypatch):
        p = sp.csr_matrix(ss_inventory_chain(order_size=20, threshold=5, d_max=100))

        def refuse(self, *args, **kwargs):
            raise AssertionError("sparse matrix densified")

        monkeypatch.setattr(sp.csr_matrix, "toarray", refuse)
        monkeypatch.setattr(sp.csr_matrix, "todense", refuse)
        assert sp.issparse(markov.require_stochastic_matrix(p))
        repaired = markov.require_stochastic_matrix(2.0 * p, repair=True)
        assert np.asarray(repaired.sum(axis=1)).ravel() == pytest.approx(np.ones(p.shape[0]))
        for bad in (p[:, :-1], -p, 0.9 * p):
            with pytest.raises(ValueError):
                markov.require_stochastic_matrix(bad)


class TestSimulateChain:
    def test_identity_matrix_constant_path(self):
        rng = np.random.default_rng(0)
        path = markov.simulate_chain(np.eye(3), [0.0, 1.0, 0.0], 50, rng)
        assert np.all(path == 1)

    def test_day_laborer_long_run_frequency(self):
        rng = np.random.default_rng(1)
        p = day_laborer()
        path = markov.simulate_chain(p, [1.0, 0.0], 10**6, rng)
        freq = np.mean(path == 1)
        assert freq == pytest.approx(0.6, abs=0.01)

    def test_csr_path_equals_dense_path(self):
        rng = np.random.default_rng(0)
        path = markov.simulate_chain(sp.csr_matrix(np.eye(3)), [1.0, 0.0, 0.0], 5, rng)
        assert np.array_equal(path, np.zeros(6, dtype=np.int64))
        p = ss_inventory_chain(order_size=20, threshold=5, d_max=100)
        psi0 = np.full(p.shape[0], 1.0 / p.shape[0])
        for seed in (0, 1, 2):
            dense = markov.simulate_chain(p, psi0, 5_000, np.random.default_rng(seed))
            sparse = markov.simulate_chain(sp.csr_matrix(p), psi0, 5_000, np.random.default_rng(seed))
            assert np.array_equal(sparse, dense)

    def test_seed_determinism(self):
        p = day_laborer()
        a = markov.simulate_chain(p, [0.5, 0.5], 200, np.random.default_rng(7))
        b = markov.simulate_chain(p, [0.5, 0.5], 200, np.random.default_rng(7))
        c = markov.simulate_chain(p, [0.5, 0.5], 200, np.random.default_rng(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestUpdateDistribution:
    def test_stationary_point_is_fixed(self):
        p = day_laborer()
        psi_star = np.array([0.4, 0.6])
        assert markov.update_distribution(psi_star, p) == pytest.approx(psi_star)

    def test_doubly_stochastic_preserves_uniform(self):
        p = np.array([[0.2, 0.8], [0.8, 0.2]])
        uniform = np.array([0.5, 0.5])
        assert markov.update_distribution(uniform, p) == pytest.approx(uniform)

    def test_point_mass_returns_row(self):
        rng = np.random.default_rng(2)
        p = random_stochastic(rng, 4)
        psi = np.zeros(4)
        psi[2] = 1.0
        assert markov.update_distribution(psi, p) == pytest.approx(p[2])

    def test_repeated_update_equals_matrix_power(self):
        rng = np.random.default_rng(3)
        p = random_stochastic(rng, 5)
        psi = rng.random(5)
        psi /= psi.sum()
        current = psi.copy()
        for t in range(1, 21):
            current = markov.update_distribution(current, p)
            direct = psi @ np.linalg.matrix_power(p, t)
            assert np.max(np.abs(current - direct)) < 1e-12


class TestStationaryDistribution:
    def test_day_laborer_closed_form(self):
        psi = markov.stationary_distribution(day_laborer())
        assert psi == pytest.approx([0.4, 0.6], abs=1e-10)

    def test_identity_warns_on_multiplicity(self):
        with pytest.warns(UserWarning):
            psi = markov.stationary_distribution(np.eye(2))
        assert psi.sum() == pytest.approx(1.0)
        assert np.all(psi >= 0)

    def test_inventory_ergodic_frequencies(self):
        p = ss_inventory_chain()
        assert markov.is_irreducible(p)
        psi = markov.stationary_distribution(p)
        rng = np.random.default_rng(4)
        init = np.zeros(p.shape[0])
        init[-1] = 1.0
        path = markov.simulate_chain(p, init, 10**6, rng)
        freq = np.bincount(path, minlength=p.shape[0]) / path.size
        assert np.max(np.abs(freq - psi)) < 0.01

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(5)
        p = random_stochastic(rng, 7)
        psi = markov.stationary_distribution(p)
        assert np.max(np.abs(psi @ p - psi)) < 1e-10


def _irreducible_chain(rng, n, extra, period):
    """A random irreducible chain: a cycle through a random order of the states,
    plus each edge with probability ``extra``; with ``period`` 2 the extra
    edges join the two halves of an even cycle only, so the chain is periodic."""
    order = rng.permutation(n)
    support = np.zeros((n, n), dtype=bool)
    support[order, np.roll(order, -1)] = True
    extra_edges = rng.random((n, n)) < extra
    if period == 2 and n % 2 == 0:
        side = np.empty(n, dtype=int)
        side[order] = np.arange(n) % 2
        extra_edges &= side[:, None] != side[None, :]
    support |= extra_edges
    p = np.where(support, rng.uniform(0.05, 1.0, (n, n)), 0.0)
    return p / p.sum(axis=1, keepdims=True)


class TestStationaryProperties:
    @settings(max_examples=150, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 60),
        extra=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        period=st.sampled_from([1, 2]),
    )
    def test_unique_law_by_one_solve(self, seed, n, extra, period):
        p = _irreducible_chain(np.random.default_rng(seed), n, extra, period)
        assert markov.is_irreducible(p)
        psi = markov.stationary_distribution(p)
        assert np.all(psi >= 0) and abs(psi.sum() - 1) <= 1e-14
        assert np.max(np.abs(psi @ p - psi)) <= 1e-12
        a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        reference = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.max(np.abs(psi - reference)) <= 1e-12

    def test_two_absorbing_classes_warn_and_return_a_law(self):
        # {0, 1} and {3, 4} are closed; state 2 leaks into both.
        p = np.array([
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [0.3, 0.7, 0.0, 0.0, 0.0],
            [0.2, 0.0, 0.6, 0.0, 0.2],
            [0.0, 0.0, 0.0, 0.1, 0.9],
            [0.0, 0.0, 0.0, 0.4, 0.6],
        ])
        with pytest.warns(UserWarning, match="reducible"):
            psi = markov.stationary_distribution(p)
        assert np.all(psi >= 0) and psi.sum() == pytest.approx(1.0)
        assert np.max(np.abs(psi @ p - psi)) <= 1e-12


class TestIrreducibility:
    def test_absorbing_state(self):
        assert not markov.is_irreducible([[0.1, 0.9], [0.0, 1.0]])

    def test_everywhere_positive(self):
        p = random_stochastic(np.random.default_rng(6), 5)
        assert markov.is_irreducible(p)

    def test_block_diagonal_is_reducible(self):
        p = np.zeros((4, 4))
        p[:2, :2] = 0.5
        p[2:, 2:] = 0.5
        assert not markov.is_irreducible(p)


class TestSparseChains:
    """A CSR chain, which ``require_stochastic_matrix`` accepts, gives the dense results."""

    @pytest.mark.parametrize("seed, n", [(7, 1), (8, 6), (9, 40)])
    def test_irreducible_csr_matches_dense(self, seed, n):
        p = _irreducible_chain(np.random.default_rng(seed), n, 0.05, 1)
        csr = sp.csr_matrix(p)
        assert markov.is_irreducible(csr) and markov.is_irreducible(p)
        psi = markov.stationary_distribution(p)
        assert np.max(np.abs(markov.stationary_distribution(csr) - psi)) <= 1e-14

    def test_large_banded_csr_is_solved_without_a_dense_copy(self):
        # A dense copy of this chain alone would take 800 MB.
        rng = np.random.default_rng(10)
        n, offsets = 10_000, np.arange(-3, 4)
        rows = np.repeat(np.arange(n), offsets.size)
        cols = (rows + np.tile(offsets, n)) % n
        p = sp.csr_matrix((rng.uniform(0.1, 1.0, rows.size), (rows, cols)), shape=(n, n))
        p = (sp.diags(1.0 / np.asarray(p.sum(axis=1)).ravel()) @ p).tocsr()
        tracemalloc.start()
        try:
            psi = markov.stationary_distribution(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert np.max(np.abs(psi @ p - psi)) <= 1e-12
        assert psi.min() > 0 and abs(psi.sum() - 1.0) <= 1e-12

    def test_day_laborer_csr(self):
        psi = markov.stationary_distribution(sp.csr_matrix(day_laborer()))
        assert psi == pytest.approx([0.4, 0.6], abs=1e-10)

    def test_reducible_csr_matches_dense(self):
        p = np.zeros((4, 4))
        p[:2, :2] = 0.5
        p[2:, 2:] = 0.5
        assert not markov.is_irreducible(sp.csr_matrix(p))
        with pytest.warns(UserWarning, match="reducible"):
            dense = markov.stationary_distribution(p)
        with pytest.warns(UserWarning, match="reducible"):
            sparse = markov.stationary_distribution(sp.csr_matrix(p))
        assert np.max(np.abs(sparse - dense)) <= 1e-14

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.03, 0.1, 0.3]),
        cycle=st.booleans(),
    )
    def test_csr_and_dense_agree_with_a_plain_search(self, seed, n, density, cycle):
        rng = np.random.default_rng(seed)
        support = rng.random((n, n)) < density
        support[np.arange(n), rng.integers(0, n, n)] = True
        if cycle:
            order = rng.permutation(n)
            support[order, np.roll(order, -1)] = True
        p = np.where(support, rng.uniform(0.1, 1.0, (n, n)), 0.0)
        p /= p.sum(axis=1, keepdims=True)
        # Store some zeros explicitly: they must not count as edges.
        stored = support | (rng.random((n, n)) < 0.2)
        csr = sp.csr_matrix((p[stored], np.nonzero(stored)), shape=(n, n))
        assert csr.nnz == stored.sum()

        def reaches_all(adjacent):
            seen, stack = {0}, [0]
            while stack:
                for y in adjacent(stack.pop()):
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            return len(seen) == n

        expected = reaches_all(lambda x: np.flatnonzero(support[x])) and reaches_all(
            lambda x: np.flatnonzero(support[:, x])
        )
        assert expected or not cycle
        assert markov.is_irreducible(p) == expected
        assert markov.is_irreducible(csr) == expected

    def test_stored_zeros_are_not_edges(self):
        # Block-diagonal support, with the off-block entries stored as explicit zeros.
        p = np.zeros((4, 4))
        p[:2, :2] = 0.5
        p[2:, 2:] = 0.5
        csr = sp.csr_matrix(np.where(p > 0, p, 1.0))
        csr.data[:] = p[csr.nonzero()]
        assert csr.nnz == 16
        assert not markov.is_irreducible(csr)


class TestConditionalExpectation:
    def test_constants_are_fixed(self):
        p = random_stochastic(np.random.default_rng(7), 6)
        ones = np.ones(6)
        for k in (1, 3, 10):
            assert markov.conditional_expectation(p, ones, k) == pytest.approx(ones)

    def test_point_mass_rows_permute(self):
        perm = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        h = np.array([3.0, 5.0, 7.0])
        assert markov.conditional_expectation(perm, h, 1) == pytest.approx([5.0, 7.0, 3.0])

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(8)
        p = random_stochastic(rng, 4)
        h = rng.standard_normal(4)
        k, paths = 3, 10**5
        expected = markov.conditional_expectation(p, h, k)
        x0 = 1
        samples = np.empty(paths)
        row_cum = np.cumsum(p, axis=1)
        draws = rng.random((paths, k))
        for i in range(paths):
            x = x0
            for t in range(k):
                x = int(np.searchsorted(row_cum[x], draws[i, t], side="right"))
            samples[i] = h[x]
        se = samples.std(ddof=1) / np.sqrt(paths)
        assert abs(samples.mean() - expected[x0]) < 3 * se

    def test_sup_norm_nonexpansive(self):
        rng = np.random.default_rng(9)
        p = random_stochastic(rng, 5)
        for _ in range(10):
            h = rng.standard_normal(5)
            assert np.max(np.abs(markov.conditional_expectation(p, h))) <= np.max(np.abs(h)) + 1e-12

    def test_law_of_iterated_expectations(self):
        rng = np.random.default_rng(10)
        p = random_stochastic(rng, 5)
        psi0 = rng.random(5)
        psi0 /= psi0.sum()
        h = rng.standard_normal(5)
        for t, k in [(1, 1), (2, 3), (4, 2)]:
            lhs = psi0 @ np.linalg.matrix_power(p, t) @ markov.conditional_expectation(p, h, k)
            rhs = psi0 @ np.linalg.matrix_power(p, t + k) @ h
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestGeometricValue:
    def test_constant_reward(self):
        p = random_stochastic(np.random.default_rng(11), 4)
        beta = 0.95
        v = markov.geometric_value(beta, p, np.ones(4))
        assert v == pytest.approx(np.full(4, 1 / (1 - beta)))

    def test_truncated_sum_oracle(self):
        rng = np.random.default_rng(12)
        p = random_stochastic(rng, 5)
        h = rng.standard_normal(5)
        beta = 0.9
        v = markov.geometric_value(beta, p, h)
        total = np.zeros(5)
        term = h.copy()
        for _ in range(201):
            total = total + term
            term = beta * (p @ term)
        assert np.max(np.abs(v - total)) < 1e-6

    def test_crra_consumption_value_is_increasing(self):
        grid, p = markov.tauchen(25, rho=0.96, nu=0.05)
        gamma = 2.0
        consumption = np.exp(grid)
        reward = consumption ** (1 - gamma) / (1 - gamma)
        v = markov.geometric_value(0.98, p, reward)
        assert np.all(np.diff(v) > 0)


def _two_cdf_tauchen(n, rho, nu, b, m):
    """Tauchen's grid and matrix with both edges of every cell evaluated, as first written."""
    sigma_x = nu / np.sqrt(1.0 - rho**2)
    grid = np.linspace(-m * sigma_x, m * sigma_x, n)
    half = (grid[1] - grid[0]) / 2.0
    centered = grid[None, :] - rho * grid[:, None]
    p = ndtr((centered + half) / nu) - ndtr((centered - half) / nu)
    p[:, 0] = ndtr((centered[:, 0] + half) / nu)
    p[:, -1] = 1.0 - ndtr((centered[:, -1] - half) / nu)
    return grid + b / (1.0 - rho), p


class TestTauchen:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # linspace of an overflowing width
    @pytest.mark.parametrize("nu, m", [(np.nan, 3.0), (np.inf, 3.0), (0.1, np.nan), (0.1, np.inf), (1e300, 1e10)])
    def test_non_finite_grid_is_rejected(self, nu, m):
        with pytest.raises(ValueError):
            markov.tauchen(5, rho=0.5, nu=nu, m=m)

    def test_iid_limit_rows_identical(self):
        _, p = markov.tauchen(9, rho=0.0, nu=0.5)
        assert np.max(np.abs(p - p[0])) < 1e-12

    def test_rows_sum_to_one(self):
        for rho in (-0.5, 0.0, 0.9):
            _, p = markov.tauchen(15, rho=rho, nu=1.0)
            assert p.sum(axis=1) == pytest.approx(np.ones(15), abs=1e-10)

    def test_grid_centering_with_intercept(self):
        spec = markov.TauchenSpec(n=7, rho=0.5, nu=0.3, b=1.0, m=3.0)
        grid, _ = markov.tauchen(spec)
        assert grid.mean() == pytest.approx(2.0)

    def test_stationary_distribution_matches_normal(self):
        grid, p = markov.tauchen(15, rho=0.9, nu=1.0, m=3.0)
        psi = markov.stationary_distribution(p)
        sigma_x = 1.0 / np.sqrt(1 - 0.81)
        weights = norm.pdf(grid, scale=sigma_x)
        weights /= weights.sum()
        assert np.max(np.abs(psi - weights)) < 0.05

    def test_monotone_when_persistence_nonnegative(self):
        for rho in (0.0, 0.5, 0.9):
            _, p = markov.tauchen(11, rho=rho, nu=0.4)
            assert markov.is_monotone_increasing(p)

    def test_not_monotone_with_negative_persistence(self):
        _, p = markov.tauchen(5, rho=-0.8, nu=0.4)
        assert not markov.is_monotone_increasing(p)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        n=st.integers(2, 200),
        rho=st.floats(-0.995, 0.995),
        nu=st.floats(0.01, 2.0),
        m=st.floats(0.5, 12.0),
        b=st.floats(-5.0, 5.0),
    )
    def test_one_cdf_per_edge_and_mirrored_rows(self, n, rho, nu, m, b):
        grid, p = markov.tauchen(n, rho=rho, nu=nu, b=b, m=m)
        grid_ref, p_ref = _two_cdf_tauchen(n, rho, nu, b, m)
        assert np.array_equal(grid, grid_ref)
        assert np.max(np.abs(p - p_ref)) <= 1e-13
        k = n // 2
        assert np.array_equal(p[n - k :], p[k - 1 :: -1, ::-1])
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-15
        if rho >= 0:
            assert markov.is_monotone_increasing(p)

    @pytest.mark.parametrize("n, rho, nu, m", [(1000, 0.96, 0.1, 10.0), (1000, 0.8, 0.1, 10.0), (777, -0.9, 0.5, 3.0)])
    def test_many_row_blocks_match_scipy(self, n, rho, nu, m):
        # Several blocks of rows, each with columns cut to exact 0s and 1s.
        grid, p = markov.tauchen(n, rho=rho, nu=nu, m=m)
        grid_ref, p_ref = _two_cdf_tauchen(n, rho, nu, 0.0, m)
        assert np.array_equal(grid, grid_ref)
        assert np.max(np.abs(p - p_ref)) <= 1e-13

    def test_large_chain_traced_peak_is_p_and_half_a_cdf_table(self):
        tracemalloc.start()
        try:
            _, p = markov.tauchen(1000, rho=0.96, nu=0.1, m=10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # p alone is 8 MB; the half-height CDF table adds 4 MB.
        assert peak < 16e6


def _ported_ndtr(a):
    out = np.array(a, dtype=float)
    markov._ndtr(out)
    return out


def _ulps(a, b):
    """How many doubles apart the nonnegative ``a`` and ``b`` are."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


# Cephes' branch points in x = a / sqrt(2) (1/sqrt(2), 1, 8, the underflow
# cut) and the port's shortcut at x = 6, as values of a, with the doubles
# next to them.
_CUTS = [b / markov._SQRT1_2 for b in (markov._SQRT1_2, 1.0, 6.0, 8.0, markov._ERFC_UNDERFLOW)]
_NDTR_POINTS = sorted(
    float(s * np.nextafter(b, d)) for b in _CUTS for s in (-1, 1) for d in (0.0, b, np.inf)
) + [0.0, *markov._NDTR_CUTS]


class TestNdtr:
    """``markov._ndtr`` against ``scipy.special.ndtr``, the Cephes code it ports."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(-40, 40) | st.sampled_from(_NDTR_POINTS), min_size=1, max_size=64))
    def test_within_4_ulp_of_scipy(self, values):
        assert _ulps(_ported_ndtr(values), ndtr(values)).max() <= 4

    def test_within_4_ulp_of_scipy_on_a_grid(self):
        a = np.concatenate([np.linspace(-40, 40, 400_001), _NDTR_POINTS])
        ulps = _ulps(_ported_ndtr(a), ndtr(a))
        assert ulps.max() <= 4
        # The two differ only where numpy's exp and the C library's do.
        assert np.mean(ulps == 0) > 0.95

    def test_without_the_rs_branch_it_fails(self, monkeypatch):
        # With P/Q past x = 8 too, the lower tail leaves scipy's values.
        a = np.linspace(-37.6, -11.4, 1_000)
        assert _ulps(_ported_ndtr(a), ndtr(a)).max() <= 4
        monkeypatch.setattr(markov, "_ERFC_RS", markov._ERFC_PQ)
        assert _ulps(_ported_ndtr(a), ndtr(a)).max() > 4

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.floats(-40, 40) | st.sampled_from(_NDTR_POINTS), st.floats(1e-6, 10.0))
    def test_monotone(self, a, step):
        # Consecutive doubles can wobble by a unit in the last place, in scipy as here.
        low, high = _ported_ndtr([a, a + step * max(1.0, abs(a))])
        assert low <= high

    def test_zero_and_one_at_the_cuts(self):
        # 0 from the underflow cut down, and 1 from the shortcut at x = 6 up, as in scipy;
        # Tauchen writes its column cuts without evaluation, so they must lie there too.
        cut = -markov._ERFC_UNDERFLOW / markov._SQRT1_2
        shortcut = 6.0 / markov._SQRT1_2
        low, high = markov._NDTR_CUTS
        zeros = [-np.inf, -1e300, -40.0, low, np.nextafter(cut, -np.inf), cut * (1 + 1e-12)]
        ones = [np.nextafter(shortcut, np.inf), high, 9.0, 40.0, 1e300, np.inf]
        for values, expected in ((zeros, 0.0), (ones, 1.0)):
            assert np.all(_ported_ndtr(values) == expected)
            assert np.all(ndtr(values) == expected)
        assert 0.0 < _ported_ndtr([cut * (1 - 1e-12)])[0] == ndtr(cut * (1 - 1e-12))
        assert np.isnan(_ported_ndtr([np.nan])[0])

    def test_underflow_cut_is_the_least_x_whose_square_passes_maxlog(self):
        maxlog = 7.09782712893383996843e2
        cut = markov._ERFC_UNDERFLOW
        assert cut * cut > maxlog >= np.nextafter(cut, 0.0) ** 2

    def test_in_place_on_a_strided_view(self):
        table = np.linspace(-45, 45, 3 * 7).reshape(3, 7)
        view = table[:, 1:-1]
        expected = ndtr(view)
        markov._ndtr(view)
        assert _ulps(view, expected).max() <= 4
        assert np.array_equal(table[:, [0, -1]], np.linspace(-45, 45, 21).reshape(3, 7)[:, [0, -1]])


class TestStochasticDominance:
    def test_binomial_example(self):
        support = np.arange(19)
        phi = binom.pmf(support, 10, 0.5)
        psi = binom.pmf(support, 18, 0.5)
        assert markov.stochastically_dominates(phi, psi, support)
        assert not markov.stochastically_dominates(psi, phi, support)

    def test_reflexive(self):
        phi = np.array([0.2, 0.3, 0.5])
        assert markov.stochastically_dominates(phi, phi)

    def test_two_state_characterization(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            phi = rng.dirichlet([1, 1])
            psi = rng.dirichlet([1, 1])
            expected = psi[1] >= phi[1] - 1e-12
            assert markov.stochastically_dominates(phi, psi) == expected

    def test_dominance_orders_means_of_increasing_functions(self):
        rng = np.random.default_rng(14)
        support = np.arange(6, dtype=float)
        for _ in range(20):
            phi = rng.dirichlet(np.ones(6))
            psi = rng.dirichlet(np.ones(6))
            if markov.stochastically_dominates(phi, psi, support):
                h = np.cumsum(rng.random(6))
                assert phi @ h <= psi @ h + 1e-12


class TestMonotoneMatrix:
    def test_two_state_iff_alpha_plus_beta_leq_one(self):
        for alpha, beta in [(0.3, 0.2), (0.5, 0.5), (0.9, 0.3), (0.7, 0.6)]:
            p = day_laborer(alpha, beta)
            assert markov.is_monotone_increasing(p) == (alpha + beta <= 1)

    def test_identity_is_monotone(self):
        assert markov.is_monotone_increasing(np.eye(5))

    def test_monotone_preserves_increasing_indicator_steps(self):
        _, p = markov.tauchen(8, rho=0.8, nu=0.5)
        n = p.shape[0]
        for cut in range(1, n):
            step = (np.arange(n) >= cut).astype(float)
            image = p @ step
            assert np.all(np.diff(image) >= -1e-12)

    def test_positive_matrix_stabilizes_distribution_flow(self):
        rng = np.random.default_rng(15)
        p = random_stochastic(rng, 4)
        psi_star = markov.stationary_distribution(p)
        psi = rng.dirichlet(np.ones(4))
        gaps = []
        for _ in range(500):
            gaps.append(np.max(np.abs(psi - psi_star)))
            psi = markov.update_distribution(psi, p)
        gaps = np.array(gaps)
        assert gaps[-1] < 1e-12
        tail = gaps[5:]
        assert np.all(np.diff(tail) <= 1e-15)


class TestQuantile:
    def test_median_with_gap_mass(self):
        values = np.array([1.0, 2.0, 3.0])
        phi = np.array([0.5, 0.0, 0.5])
        assert markov.quantile(0.5, values, phi) == 1.0

    def test_shift_property(self):
        rng = np.random.default_rng(16)
        values = np.sort(rng.standard_normal(6))
        phi = rng.dirichlet(np.ones(6))
        for tau in (0.1, 0.5, 0.9):
            base = markov.quantile(tau, values, phi)
            shifted = markov.quantile(tau, values + 2.5, phi)
            assert shifted == pytest.approx(base + 2.5)

    def test_tau_one_returns_max_supported_value(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        phi = np.array([0.3, 0.4, 0.3, 0.0])
        assert markov.quantile(1.0, values, phi) == 3.0

    def test_unsorted_values(self):
        values = np.array([3.0, 1.0, 2.0])
        phi = np.array([0.2, 0.5, 0.3])
        assert markov.quantile(0.5, values, phi) == 1.0

    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        tau=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
        quarters=st.booleans(),
    )
    def test_quantile_is_the_first_value_reaching_tau(self, seed, n, tau, quarters):
        """Oracle: walk the support in value order, ties by position, to the first mass >= tau - 1e-12."""
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 4, n).astype(float)
        phi = rng.multinomial(4, np.full(n, 1.0 / n)) / 4.0 if quarters else rng.dirichlet(np.ones(n))
        order = sorted(range(n), key=lambda i: (values[i], i))
        total, want = 0.0, values[order[-1]]
        for i in order:
            total += phi[i]
            if total >= tau - 1e-12:
                want = values[i]
                break
        assert markov.quantile(tau, values, phi) == want

    def test_conditional_quantile_rows(self):
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        v = np.array([1.0, 5.0])
        out = markov.conditional_quantile(0.5, v, p)
        assert out == pytest.approx([1.0, 1.0])

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        tau=st.sampled_from([0.0, 0.1, 0.5, 0.95, 1.0]),
    )
    def test_conditional_quantile_is_the_row_quantile(self, seed, n, tau):
        """Ties in ``v`` and zero masses in ``p`` included."""
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 4, n).astype(float)
        p = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        p[:, 0] += 0.01
        p /= p.sum(axis=1, keepdims=True)
        want = np.array([markov.quantile(tau, v, row) for row in p])
        assert np.array_equal(markov.conditional_quantile(tau, v, p), want)

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        tau=st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.0, 1.0)),
        ties=st.booleans(),
        quarters=st.booleans(),
    )
    def test_quantile_index_selects_the_conditional_quantile(self, seed, n, tau, ties, quarters):
        """The unchecked helper of the quantile job search, and its Jacobian.

        Rows of quarter masses put cumulative masses exactly on ``tau``.
        """
        rng = np.random.default_rng(seed)
        v = rng.integers(0, 4, n).astype(float) if ties else rng.permutation(n).astype(float)
        if quarters:
            p = rng.multinomial(4, np.full(n, 1.0 / n), size=n) / 4.0
        else:
            p = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            p[:, 0] += 0.01
            p /= p.sum(axis=1, keepdims=True)
        j = markov._quantile_index(tau, v, p)
        want = np.array([markov.quantile(tau, v, row) for row in p])
        assert np.array_equal(v[j], want)
        assert np.array_equal(markov.conditional_quantile(tau, v, p), want)
        if not ties:
            # Moves below half the spacing keep the order, so the quantile
            # moves with the successor it selects: d -> d[j] is its Jacobian.
            d = rng.uniform(-0.4, 0.4, n)
            assert np.array_equal(markov.conditional_quantile(tau, v + d, p), (v + d)[j])

    @pytest.mark.parametrize("seed", range(6))
    def test_csr_rows_give_the_dense_quantile(self, seed):
        """A CSR ``p``, with zero masses and ties in ``v``, selects what the dense one does."""
        rng = np.random.default_rng(seed)
        n = 9
        v = rng.integers(0, 4, n).astype(float)
        p = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        p[:, seed % n] += 0.05
        p /= p.sum(axis=1, keepdims=True)
        d = rng.standard_normal(n)
        for tau in (0.0, 0.3, 0.5, 1.0):
            dense, csr = koopmans.QuantileCE(tau, p), koopmans.QuantileCE(tau, sp.csr_matrix(p))
            assert np.array_equal(csr(v), dense(v))
            assert np.array_equal(csr.jacobian(v) @ d, dense.jacobian(v) @ d)
            assert np.array_equal(
                markov.conditional_quantile(tau, v, sp.csr_matrix(p)),
                markov.conditional_quantile(tau, v, p),
            )

    def test_conditional_quantile_checks_inputs(self):
        p = np.eye(2)
        with pytest.raises(ValueError):
            markov.conditional_quantile(1.5, np.zeros(2), p)
        with pytest.raises(ValueError):
            markov.conditional_quantile(0.5, np.zeros(3), p)
