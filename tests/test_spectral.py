import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fsdp import koopmans, spectral
from fsdp.errors import SpectralRadiusError, StabilityError

A_SMALL = np.array([[0.4, 0.1], [0.7, 0.2]])


def random_stochastic(rng, n):
    p = rng.random((n, n)) + 0.01
    return p / p.sum(axis=1, keepdims=True)


class TestSpectralRadius:
    def test_reference_matrix(self):
        assert spectral.spectral_radius(A_SMALL) == pytest.approx(0.5828, abs=1e-3)

    def test_identity(self):
        assert spectral.spectral_radius(np.eye(4)) == pytest.approx(1.0)

    def test_rotation_has_unit_modulus(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral.spectral_radius(a) == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectral.spectral_radius([[np.nan, 0.0], [0.0, 1.0]])

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        for alpha in (0.5, 2.0, 7.3):
            assert spectral.spectral_radius(alpha * a) == pytest.approx(
                alpha * spectral.spectral_radius(a)
            )

    def test_monotone_in_entries(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.random((5, 5))
            b = a + rng.random((5, 5))
            assert spectral.spectral_radius(a) <= spectral.spectral_radius(b) + 1e-12

    def test_stochastic_matrix_radius_one(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 11):
            p = random_stochastic(rng, n)
            assert spectral.spectral_radius(p) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_sparse_input(self):
        with pytest.raises(ValueError, match="dense arrays"):
            spectral.spectral_radius(scipy.sparse.csr_matrix(A_SMALL))


LARGE = 600  # above the order where power iteration used to take over


def period_two(n, seed=0):
    """Bipartite ``[[0, B], [C, 0]]`` of order ``n`` with positive blocks, and its radius.

    Its eigenvalues come in pairs ``+-lam`` with ``lam**2`` an eigenvalue
    of ``BC``, so the radius is ``sqrt(rho(BC))``.
    """
    rng = np.random.default_rng(seed)
    k = n // 2
    b = rng.random((k, n - k)) / n
    c = rng.random((n - k, k)) / n
    a = np.block([[np.zeros((k, k)), b], [c, np.zeros((n - k, n - k))]])
    return a, float(np.sqrt(np.max(np.abs(np.linalg.eigvals(b @ c)))))


class TestSpectralRadiusAtLargeOrder:
    """Closed-form radii at an order above 512, where the old power loop failed."""

    def test_signed_rotation_blocks(self):
        a = np.kron(np.eye(LARGE // 2), 0.5 * np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert spectral.spectral_radius(a) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_scaled_cyclic_permutation(self):
        a = 0.9 * np.roll(np.eye(LARGE), 1, axis=1)
        assert spectral.spectral_radius(a) == pytest.approx(0.9, rel=1e-12)

    def test_nilpotent_shift_and_permuted_copy(self):
        shift = np.eye(LARGE, k=1)
        perm = np.random.default_rng(0).permutation(LARGE)
        assert spectral.spectral_radius(shift) == 0.0
        assert spectral.spectral_radius(shift[np.ix_(perm, perm)]) == 0.0

    def test_zero_matrix(self):
        assert spectral.spectral_radius(np.zeros((LARGE, LARGE))) == 0.0

    def test_period_two(self):
        a, radius = period_two(LARGE)
        assert spectral.spectral_radius(a) == pytest.approx(radius, rel=1e-12)


class TestSpectralRadiusBounds:
    def test_stochastic_bracket_is_degenerate(self):
        p = random_stochastic(np.random.default_rng(4), 6)
        assert spectral.spectral_radius_bounds(p) == pytest.approx((1.0, 1.0))

    def test_reference_matrix_bracket(self):
        lower, upper = spectral.spectral_radius_bounds(A_SMALL)
        assert (lower, upper) == pytest.approx((0.5, 0.9))
        assert lower <= spectral.spectral_radius(A_SMALL) <= upper

    def test_zero_matrix(self):
        assert spectral.spectral_radius_bounds(np.zeros((3, 3))) == (0.0, 0.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            spectral.spectral_radius_bounds([[0.1, -0.2], [0.0, 0.1]])

    def test_bracket_contains_radius(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.random((4, 4))
            lower, upper = spectral.spectral_radius_bounds(a)
            rho = spectral.spectral_radius(a)
            assert lower - 1e-12 <= rho <= upper + 1e-12


class TestNeumannSolve:
    def test_zero_matrix_returns_rhs(self):
        b = np.array([1.0, -2.0, 3.0])
        assert spectral.neumann_solve(np.zeros((3, 3)), b) == pytest.approx(b)

    def test_scalar_geometric_series(self):
        assert spectral.neumann_solve([[0.5]], [1.0]) == pytest.approx([2.0])

    def test_matches_truncated_power_series(self):
        b = np.array([1.0, 2.0])
        u = spectral.neumann_solve(A_SMALL, b)
        partial = np.zeros(2)
        power = np.eye(2)
        for _ in range(50):
            partial = partial + power @ b
            power = power @ A_SMALL
        assert np.max(np.abs(u - partial)) < 1e-10

    def test_series_oracle_tolerance(self):
        rng = np.random.default_rng(6)
        a = 0.6 * random_stochastic(rng, 5)
        b = rng.standard_normal(5)
        rho = spectral.spectral_radius(a)
        k = int(np.ceil(np.log(1e-10) / np.log(rho)))
        partial = np.zeros(5)
        power = np.eye(5)
        for _ in range(k):
            partial = partial + power @ b
            power = power @ a
        assert np.max(np.abs(spectral.neumann_solve(a, b) - partial)) < 1e-8

    def test_residual_is_small(self):
        rng = np.random.default_rng(7)
        a = 0.8 * random_stochastic(rng, 8)
        b = rng.standard_normal(8)
        u = spectral.neumann_solve(a, b)
        assert np.max(np.abs(u - a @ u - b)) < 1e-10

    def test_raises_above_unit_radius(self):
        with pytest.raises(SpectralRadiusError) as info:
            spectral.neumann_solve(np.eye(2) * 1.5, np.ones(2))
        assert info.value.spectral_radius == pytest.approx(1.5)

    def test_raises_at_unit_radius(self):
        with pytest.raises(SpectralRadiusError):
            spectral.neumann_solve(np.eye(2), np.ones(2))


# Row sums 1.1 and 0.25 (the same by columns), so the sum bracket
# [0.25, 1.1] straddles one, while the radius is 0.9447.
STRADDLING = np.array([[0.9, 0.2], [0.2, 0.05]])


class TestBracketDecidesStability:
    """Eigenvalues are computed only when no bounding pair (for theta < 0, no sum bracket) decides."""

    def test_neumann_solve_inside_bracket(self, radius_calls):
        p = random_stochastic(np.random.default_rng(20), 50)
        b = np.arange(50.0)
        u = spectral.neumann_solve(0.9 * p, b)
        assert radius_calls == []
        assert np.array_equal(u, np.linalg.solve(np.eye(50) - 0.9 * p, b))

    def test_neumann_solve_straddling_bracket(self, radius_calls):
        b = np.array([1.0, 2.0])
        u = spectral.neumann_solve(STRADDLING, b)
        assert radius_calls == []
        assert np.array_equal(u, np.linalg.solve(np.eye(2) - STRADDLING, b))

    def test_neumann_solve_signed_matrix(self, radius_calls):
        a = np.array([[0.1, -0.2], [0.3, 0.1]])
        spectral.neumann_solve(a, np.ones(2))
        assert radius_calls == [(2, 2)]

    def test_neumann_solve_raises_with_radius(self, radius_calls):
        with pytest.raises(SpectralRadiusError) as info:
            spectral.neumann_solve(STRADDLING / 0.9, np.ones(2))
        assert radius_calls == [(2, 2)]
        assert info.value.spectral_radius == pytest.approx(spectral.spectral_radius(STRADDLING) / 0.9)

    @pytest.mark.parametrize("theta", [0.5, 2.0, -0.5, -2.0])
    def test_power_affine_inside_bracket(self, radius_calls, theta):
        p = random_stochastic(np.random.default_rng(21), 50)
        assert koopmans.check_power_affine_stable(0.95**theta * p, theta) is None
        assert radius_calls == []

    @pytest.mark.parametrize("theta, scale", [(2.0, 1.0), (-2.0, 1.1)])
    def test_power_affine_straddling_bracket(self, radius_calls, theta, scale):
        """Radius 0.9447 (stable for theta > 0) and 1.039 (stable for theta < 0).

        A bounding vector settles the first; only the second needs eigenvalues.
        """
        koopmans.check_power_affine_stable(scale * STRADDLING, theta)
        assert radius_calls == ([] if theta > 0 else [(2, 2)])

    def test_power_affine_zero_theta_raises(self):
        with pytest.raises(ValueError, match="theta must be nonzero"):
            koopmans.check_power_affine_stable(0.5 * np.eye(2), 0)

    @pytest.mark.parametrize("theta, factor", [(2.0, 1.0), (2.0, 1.3), (-2.0, 1.0), (-2.0, 0.7)])
    def test_power_affine_unstable_raises(self, radius_calls, theta, factor):
        a = factor * random_stochastic(np.random.default_rng(22), 6)
        with pytest.raises(StabilityError) as info:
            koopmans.check_power_affine_stable(a, theta)
        assert radius_calls == [(6, 6)]
        assert f"rho(A) = {np.max(np.abs(np.linalg.eigvals(a))):.12g} " in str(info.value)


class TestLocalSpectralRadius:
    def test_diagonal_case(self):
        a = np.diag([0.3, 0.9])
        seq = spectral.local_spectral_radius_seq(a, np.ones(2), 300)
        assert seq[-1] == pytest.approx(0.9, abs=1e-3)

    def test_reference_matrix(self):
        # The sequence converges at rate O(1/k) in logs: at k = 200 the gap
        # to the limit is 1.34e-3, so the tight tolerance needs k = 280.
        seq = spectral.local_spectral_radius_seq(A_SMALL, np.ones(2), 200)
        assert seq[-1] == pytest.approx(0.5828, abs=2e-3)
        seq = spectral.local_spectral_radius_seq(A_SMALL, np.ones(2), 280)
        assert seq[-1] == pytest.approx(0.5828, abs=1e-3)

    def test_stochastic_matrix_constant_one(self):
        p = random_stochastic(np.random.default_rng(8), 5)
        seq = spectral.local_spectral_radius_seq(p, np.ones(5), 20)
        assert seq == pytest.approx(np.ones(20), abs=1e-12)

    def test_requires_positive_h(self):
        with pytest.raises(ValueError):
            spectral.local_spectral_radius_seq(A_SMALL, [1.0, 0.0], 5)

    def test_long_horizon_uses_log_scaling(self):
        a = np.diag([2.0, 3.0])
        seq = spectral.local_spectral_radius_seq(a, np.ones(2), 800)
        assert np.isfinite(seq).all()
        assert seq[-1] == pytest.approx(3.0, rel=1e-3)


class TestSpectralBound:
    def test_diagonal(self):
        assert spectral.spectral_bound(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)

    def test_intensity_minus_delta(self):
        q = np.array([[-0.3, 0.3], [0.1, -0.1]])
        delta = 0.04
        assert spectral.spectral_bound(q - delta * np.eye(2)) == pytest.approx(-delta)

    def test_rotation_is_zero(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert spectral.spectral_bound(a) == pytest.approx(0.0, abs=1e-12)

    def test_exp_of_bound_equals_radius_of_exponential(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            lhs = np.exp(spectral.spectral_bound(a))
            rhs = spectral.spectral_radius(spectral.matrix_exponential(a))
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_positive_scaling(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 4))
        for tau in (0.5, 3.0):
            assert spectral.spectral_bound(tau * a) == pytest.approx(
                tau * spectral.spectral_bound(a)
            )


def _both_bicgstab(a, b, **kwargs):
    """``(x, info, products)`` from :func:`spectral.bicgstab` and from scipy's, at ``atol=0``."""
    out = []
    for solver in (spectral.bicgstab, scipy.sparse.linalg.bicgstab):
        calls = []

        def matvec(v):
            calls.append(1)
            return a @ v

        if solver is scipy.sparse.linalg.bicgstab:
            op = scipy.sparse.linalg.LinearOperator(a.shape, matvec=matvec, dtype=float)
            x, info = solver(op, b, atol=0.0, **kwargs)
        else:
            x, info = solver(matvec, b, **kwargs)
        out.append((x.tobytes(), info, len(calls)))
    return out


class TestBicgstab:
    """:func:`spectral.bicgstab` is scipy's unpreconditioned loop: same bytes, info and products.

    The oracle is scipy's own Python BiCGSTAB loop, which scipy has had since 1.12 and which
    ``spectral.bicgstab`` ports from scipy 1.17.  A scipy release that changes that loop fails
    these parity tests while ``spectral.bicgstab`` stays a correct solver.
    """

    @settings(max_examples=80, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        kind=st.sampled_from(["shifted", "general"]),
        start=st.sampled_from(["none", "zero", "random"]),
        rtol=st.sampled_from([1e-3, 1e-8, 1e-12]),
    )
    def test_matches_scipy(self, seed, n, kind, start, rtol):
        rng = np.random.default_rng(seed)
        if kind == "shifted":
            # I - L for a discounted stochastic L, as in a policy evaluation.
            a = np.eye(n) - rng.uniform(0.5, 0.999) * random_stochastic(rng, n)
        else:
            a = rng.standard_normal((n, n)) + rng.uniform(0.0, 3.0) * np.sqrt(n) * np.eye(n)
        assume(np.linalg.cond(a) < 1e10)
        b = rng.standard_normal(n)
        x0 = {"none": None, "zero": np.zeros(n), "random": rng.standard_normal(n)}[start]
        ours, scipys = _both_bicgstab(a, b, x0=x0, rtol=rtol)
        assert ours == scipys

    @pytest.mark.parametrize(
        "a, b, info",
        [
            # rho = rtilde . r vanishes at the second iteration.
            ([[-1.0, 2.0, 1.0], [2.0, -1.0, -1.0], [2.0, -1.0, 1.0]], [-1.0, -1.0, 0.0], -10),
            # rtilde . v = 0 at the first iteration.
            ([[0.0, 1.0], [2.0, -1.0]], [1.0, 0.0], -11),
            # omega = 0 after the first iteration.
            ([[1.0, 0.0, 1.0], [2.0, 1.0, 0.0], [1.0, 2.0, 1.0]], [-1.0, -1.0, -1.0], -11),
        ],
    )
    def test_breakdowns_match_scipy(self, a, b, info):
        ours, scipys = _both_bicgstab(np.array(a), np.array(b), rtol=1e-12)
        assert ours == scipys
        assert ours[1] == info

    def test_exhausted_iterations_return_ten_n(self):
        # Condition number 1e10 and rtol 0: all 10 n = 40 iterations run, two products each.
        rng = np.random.default_rng(5)
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q1 @ np.diag(np.logspace(0, -10, 4)) @ q2
        with np.errstate(all="raise"):
            ours, scipys = _both_bicgstab(a, rng.standard_normal(4), rtol=0.0)
        assert ours == scipys
        assert ours[1] == 40 and ours[2] == 80

    def test_zero_right_hand_side(self):
        x, info = spectral.bicgstab(lambda v: v, np.zeros(3), x0=np.ones(3), rtol=1e-5)
        assert info == 0 and np.array_equal(x, np.zeros(3))

    def test_start_is_copied(self):
        x0 = np.ones(4)
        spectral.bicgstab(lambda v: 2.0 * v, np.arange(4.0), x0=x0, rtol=1e-5)
        assert np.array_equal(x0, np.ones(4))


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert spectral.matrix_exponential(np.zeros((3, 3))) == pytest.approx(np.eye(3))

    def test_rotation_closed_form(self):
        for t in (0.5, 1.0):
            a = t * np.array([[0.0, -1.0], [1.0, 0.0]])
            expected = np.array(
                [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
            )
            assert spectral.matrix_exponential(a) == pytest.approx(expected, abs=1e-12)

    def test_diagonalizable(self):
        rng = np.random.default_rng(11)
        d = np.diag(rng.uniform(-1, 1, size=4))
        p = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        a = np.linalg.inv(p) @ d @ p
        expected = np.linalg.inv(p) @ np.diag(np.exp(np.diag(d))) @ p
        assert spectral.matrix_exponential(a) == pytest.approx(expected, abs=1e-10)

    def test_inverse_identity(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((5, 5))
        prod = spectral.matrix_exponential(a) @ spectral.matrix_exponential(-a)
        assert prod == pytest.approx(np.eye(5), abs=1e-9)

    def test_matches_scipy(self):
        rng = np.random.default_rng(13)
        for scale in (0.1, 1.0, 10.0):
            a = scale * rng.standard_normal((6, 6))
            ours = spectral.matrix_exponential(a)
            ref = scipy.linalg.expm(a)
            assert np.max(np.abs(ours - ref)) < 1e-8 * max(1.0, np.max(np.abs(ref)))


class TestDominantEigenpair:
    def test_diagonal(self):
        result = spectral.dominant_eigenpair(np.diag([2.0, 1.0]))
        assert result.value == pytest.approx(2.0)
        assert result.right == pytest.approx([1.0, 0.0])

    def test_eigen_identities(self):
        rng = np.random.default_rng(14)
        a = rng.random((7, 7))
        result = spectral.dominant_eigenpair(a, assume_irreducible=True)
        assert a @ result.right == pytest.approx(result.value * result.right, abs=1e-9)
        assert result.left @ a == pytest.approx(result.value * result.left, abs=1e-9)
        assert result.right.sum() == pytest.approx(1.0)
        assert result.left @ result.right == pytest.approx(1.0)

    def test_stochastic_left_eigenvector_is_stationary(self):
        from fsdp import markov

        p = random_stochastic(np.random.default_rng(15), 6)
        result = spectral.dominant_eigenpair(p, assume_irreducible=True)
        assert result.value == pytest.approx(1.0, abs=1e-10)
        psi = markov.stationary_distribution(p)
        left = result.left / result.left.sum()
        assert left == pytest.approx(psi, abs=1e-9)

    def test_lake_model_growth_rate(self):
        from fsdp.models import lake_model

        card = lake_model()
        result = spectral.dominant_eigenpair(card["matrix"], assume_irreducible=True)
        assert result.value == pytest.approx(1.005, abs=1e-10)
        assert result.right == pytest.approx(card["stable_shares"], abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spectral.dominant_eigenpair([[1.0, -0.1], [0.2, 0.5]])

    def test_sparse_input_rejected(self):
        with pytest.raises(ValueError, match="dense arrays"):
            spectral.dominant_eigenpair(scipy.sparse.csr_matrix(A_SMALL))

    @pytest.mark.parametrize("n", [6, LARGE])
    def test_period_two_gives_plus_rho(self, n):
        """``-rho`` is an eigenvalue too; the Perron root is ``+rho``."""
        a, radius = period_two(n, seed=1)
        result = spectral.dominant_eigenpair(a, assume_irreducible=True)
        assert result.value == pytest.approx(radius, rel=1e-12)
        _assert_eigen_residuals(a, result)


def _assert_eigen_residuals(a, result, tol=1e-10):
    scale = max(1.0, np.max(np.abs(a).sum(axis=1)))
    right_gap = np.max(np.abs(a @ result.right - result.value * result.right))
    left_gap = np.max(np.abs(result.left @ a - result.value * result.left))
    assert right_gap <= tol * scale * np.max(result.right)
    assert left_gap <= tol * scale * np.max(result.left)


def _random_nonnegative(seed, n, kind):
    """Irreducible (sparse plus a cycle), bipartite, or block upper-triangular reducible."""
    rng = np.random.default_rng(seed)
    if kind == "irreducible":
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        a[np.arange(n), (np.arange(n) + 1) % n] += 0.1 + rng.random(n)
        return a
    k = int(rng.integers(1, n))
    a = rng.random((n, n))
    if kind == "bipartite":
        a[:k, :k] = 0.0
        a[k:, k:] = 0.0
    else:
        a[k:, :k] = 0.0
    return a


@settings(max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    kind=st.sampled_from(["irreducible", "bipartite", "reducible"]),
)
def test_perron_value_is_the_radius(seed, n, kind):
    assume(n >= 2 or kind == "irreducible")
    a = _random_nonnegative(seed, n, kind)
    result = spectral.dominant_eigenpair(a)
    radius = np.max(np.abs(np.linalg.eigvals(a)))
    assert result.value == pytest.approx(radius, rel=1e-10)
    lower, upper = spectral.spectral_radius_bounds(a)
    assert lower * (1 - 1e-12) <= result.value <= upper * (1 + 1e-12)
    assert np.all(result.right >= 0) and np.all(result.left >= 0)
    assert result.right.sum() == pytest.approx(1.0)
    assert result.left @ result.right == pytest.approx(1.0)
    _assert_eigen_residuals(a, result)


@settings(
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    kind=st.sampled_from(["irreducible", "bipartite", "reducible", "nilpotent", "signed"]),
    radius=st.sampled_from([0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0]),
)
def test_certificate_accepts_exactly_below_one(radius_calls, seed, n, kind, radius):
    """``check_radius_below_one`` agrees with the eigenvalues; a returned pair bounds the radius.

    Matrices are scaled to the given radius, within 1e-9 of one on both
    sides; a nilpotent one (radius zero) is scaled by it instead.
    """
    assume(n >= 2 or kind in ("irreducible", "nilpotent", "signed"))
    rng = np.random.default_rng(seed)
    if kind == "nilpotent":
        perm = rng.permutation(n)
        a = radius * np.triu(rng.random((n, n)), 1)[np.ix_(perm, perm)]
    elif kind == "signed":
        a = rng.standard_normal((n, n))
        a[0, 0] = -1.0 - abs(a[0, 0])
    else:
        a = _random_nonnegative(seed, n, kind)
    rho = np.max(np.abs(np.linalg.eigvals(a)))
    if kind != "nilpotent":
        assume(rho > 0)
        a *= radius / rho
    radius_calls.clear()
    rho = spectral.spectral_radius(a)
    try:
        pair = spectral.check_radius_below_one(a)
    except SpectralRadiusError as exc:
        assert rho >= 1 - spectral.RADIUS_SLACK
        assert exc.spectral_radius == rho
        return
    assert rho < 1 - spectral.RADIUS_SLACK
    if kind == "signed":
        # Decided by the eigenvalues alone: one radius, no pair.
        assert pair is None and len(radius_calls) == 2
    elif pair is not None:
        h, lam = pair
        assert np.all(h > 0) and lam < 1 - spectral.RADIUS_SLACK
        assert np.all(a @ h <= lam * h * (1 + 1e-14))
        assert rho <= lam + 1e-12


class TestRequireNonnegative:
    def test_returns_a_float_array(self):
        a = spectral.require_nonnegative([[1, 0], [2, 3]])
        assert a.dtype == float and a.tolist() == [[1.0, 0.0], [2.0, 3.0]]

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda a: spectral.require_nonnegative(a, "kernel"), "kernel must be nonnegative elementwise"),
            (spectral.spectral_radius_bounds, "matrix must be nonnegative elementwise"),
            (lambda a: spectral.local_spectral_radius_seq(a, np.ones(2), 3), "matrix must be nonnegative elementwise"),
            (spectral.dominant_eigenpair, "matrix must be nonnegative elementwise"),
            (lambda a: koopmans.power_affine_solve(np.ones(2), a, 2.0), "A must be nonnegative elementwise"),
        ],
    )
    def test_a_negative_entry_is_refused_by_name(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(np.array([[0.5, -0.1], [0.2, 0.3]]))

    def test_a_non_square_matrix_is_refused_first(self):
        with pytest.raises(ValueError, match=r"^A must be square, got shape \(1, 2\)$"):
            koopmans.power_affine_solve(np.ones(2), [[-1.0, 0.5]], 2.0)
