import numpy as np
import pytest

from fsdp import dp, rdp, spectral
from fsdp.errors import ConvergenceError, SingularJacobianError
from fsdp.fixed_point import (
    IterationConfig,
    convergence_order,
    newton_fixed_point,
    optimistic_policy_iteration,
    policy_iteration,
    successive_approx,
    value_iteration,
)

A_SMALL = np.array([[0.4, 0.1], [0.7, 0.2]])
B_SMALL = np.array([1.0, 2.0])

SOLOW = dict(A=2.0, s=0.3, alpha=0.3, delta=0.4)


def solow_map(k, A=2.0, s=0.3, alpha=0.3, delta=0.4):
    return s * A * k**alpha + (1 - delta) * k


def solow_fixed_point(A=2.0, s=0.3, alpha=0.3, delta=0.4):
    return (s * A / delta) ** (1 / (1 - alpha))


class TestSuccessiveApprox:
    def test_linear_map_matches_neumann_solve(self):
        trace = successive_approx(
            lambda u: A_SMALL @ u + B_SMALL,
            np.ones(2),
            IterationConfig(tolerance=1e-8),
        )
        expected = spectral.neumann_solve(A_SMALL, B_SMALL)
        assert trace.converged
        assert trace.final == pytest.approx(expected, abs=1e-5)

    def test_solow_map(self):
        trace = successive_approx(lambda k: solow_map(k), 1.0)
        assert trace.final == pytest.approx(solow_fixed_point(), abs=1e-5)

    def test_fixed_point_start_converges_immediately(self):
        u_star = spectral.neumann_solve(A_SMALL, B_SMALL)
        trace = successive_approx(lambda u: A_SMALL @ u + B_SMALL, u_star)
        assert trace.converged
        assert trace.iterations == 1
        assert trace.errors[0] == pytest.approx(0.0, abs=1e-12)

    def test_contraction_step_bound(self):
        norm = np.linalg.norm(A_SMALL, np.inf)
        trace = successive_approx(
            lambda u: A_SMALL @ u + B_SMALL, np.zeros(2), IterationConfig(tolerance=1e-10)
        )
        for prev, nxt in zip(trace.errors, trace.errors[1:]):
            assert nxt <= norm * prev + 1e-12

    def test_damping_reaches_same_fixed_point(self):
        undamped = successive_approx(
            lambda u: A_SMALL @ u + B_SMALL,
            np.zeros(2),
            IterationConfig(tolerance=1e-12),
        )
        for alpha in (0.3, 0.7, 1.0):
            damped = successive_approx(
                lambda u: A_SMALL @ u + B_SMALL,
                np.zeros(2),
                IterationConfig(tolerance=1e-12, damping=alpha),
            )
            assert damped.final == pytest.approx(undamped.final, abs=1e-8)

    def test_divergence_raises_with_last_iterate(self):
        with pytest.raises(ConvergenceError) as info:
            successive_approx(lambda u: 3.0 * u + 1.0, np.ones(1))
        assert np.all(np.isfinite(info.value.last))

    def test_nonfinite_image_raises(self):
        with pytest.raises(ConvergenceError):
            successive_approx(lambda u: u * np.nan, np.ones(2))

    def test_iteration_cap_sets_flag(self):
        trace = successive_approx(
            lambda u: 0.99999 * u + 1.0,
            np.zeros(1),
            IterationConfig(tolerance=1e-12, max_iter=10),
        )
        assert not trace.converged
        assert trace.iterations == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IterationConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            IterationConfig(damping=1.5)
        with pytest.raises(ValueError):
            IterationConfig(max_iter=0)


class TestNewtonFixedPoint:
    def test_golden_ratio_fixed_point(self):
        # Fixed point of u -> 1 + u / (u + 1) solves u^2 - u - 1 = 0.
        trace = newton_fixed_point(lambda u: 1 + u / (u + 1), 0.5)
        golden = (1 + np.sqrt(5)) / 2
        assert trace.converged
        assert trace.final == pytest.approx(golden, abs=1e-8)
        assert trace.final == pytest.approx(_bisect_fixed_point(), abs=1e-8)

    def test_faster_than_successive_on_solow(self):
        cfg = IterationConfig(tolerance=1e-10)
        newton = newton_fixed_point(lambda k: solow_map(k), 1.0, cfg)
        plain = successive_approx(lambda k: solow_map(k), 1.0, cfg)
        assert newton.final == pytest.approx(solow_fixed_point(), abs=1e-8)
        assert plain.final == pytest.approx(solow_fixed_point(), abs=1e-8)
        assert newton.iterations < plain.iterations

    def test_linear_map_converges_in_one_step(self):
        trace = newton_fixed_point(
            lambda u: A_SMALL @ u + B_SMALL,
            np.zeros(2),
            IterationConfig(tolerance=1e-10),
            jacobian=lambda u: A_SMALL,
        )
        expected = spectral.neumann_solve(A_SMALL, B_SMALL)
        assert trace.iterates[1] == pytest.approx(expected, abs=1e-12)

    def test_agrees_with_successive_approx(self):
        cfg = IterationConfig(tolerance=1e-10)
        newton = newton_fixed_point(lambda k: solow_map(k), 2.0, cfg)
        plain = successive_approx(lambda k: solow_map(k), 2.0, cfg)
        assert newton.final == pytest.approx(plain.final, abs=1e-8)

    def test_singular_jacobian_raises(self):
        with pytest.raises(SingularJacobianError):
            newton_fixed_point(
                lambda u: u + 1.0,
                np.zeros(1),
                jacobian=lambda u: np.eye(1),
            )


def _bisect_fixed_point():
    f = lambda u: 1 + u / (u + 1) - u
    lo, hi = 1.0, 2.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


class TestConvergenceOrder:
    def test_geometric_sequence(self):
        errors = 0.5 ** np.arange(1, 20)
        q, beta = convergence_order(errors)
        assert q == pytest.approx(1.0, abs=1e-6)
        assert beta == pytest.approx(0.5, abs=1e-6)

    def test_quadratic_recursion(self):
        errors = [0.5]
        for _ in range(8):
            errors.append(errors[-1] ** 2)
        q, _ = convergence_order(errors)
        assert q == pytest.approx(2.0, abs=1e-6)

    def test_newton_trace_is_superlinear(self):
        trace = newton_fixed_point(
            lambda k: solow_map(k), 1.0, IterationConfig(tolerance=1e-13)
        )
        k_star = solow_fixed_point()
        # Entries at the floating-point noise floor are uninformative.
        errors = [abs(u - k_star) for u in trace.iterates if abs(u - k_star) > 1e-13]
        q, _ = convergence_order(errors)
        assert q > 1.5

    def test_insufficient_data_raises(self):
        with pytest.raises(ValueError):
            convergence_order([0.5, 0.25, 0.125])


def halve_plus_one(v):
    return 0.5 * v + 1.0


# Each loop capped at five iterations, with the iterate it must carry out.
CAPPED_LOOPS = {
    "value_iteration": (
        lambda: value_iteration(halve_plus_one, np.zeros(3), 1e-12, 5),
        2.0 - 2.0 * 0.5**5,
    ),
    # The greedy step flips the policy and each flip moves the value by
    # one, so no policy repeats and no tie stops the loop.
    "policy_iteration": (
        lambda: policy_iteration(
            lambda v: 1 - v.astype(np.int64),
            lambda sigma: sigma.astype(float),
            np.zeros(3, dtype=np.int64),
            5,
        ),
        1.0,
    ),
    "optimistic_policy_iteration": (
        lambda: optimistic_policy_iteration(
            lambda v: np.zeros(3, dtype=np.int64),
            lambda sigma: halve_plus_one,
            np.zeros(3),
            2,
            1e-12,
            5,
        ),
        2.0 - 2.0 * 0.5**10,
    ),
}


class TestSolverCore:
    @pytest.mark.parametrize("loop", sorted(CAPPED_LOOPS))
    def test_cap_raises_with_last_iterate(self, loop):
        run, last = CAPPED_LOOPS[loop]
        with pytest.raises(ConvergenceError) as info:
            run()
        assert info.value.last == pytest.approx(np.full(3, last), abs=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_rdp_vfi_of_wrapped_mdp_matches_mdp_vfi(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 8, 3
        kernel = rng.random((n, m, n)) + 0.05
        kernel /= kernel.sum(axis=2, keepdims=True)
        feasible = rng.random((n, m)) < 0.7
        feasible[np.arange(n), rng.integers(0, m, n)] = True
        model = dp.MDPModel(
            feasible=feasible,
            reward=rng.standard_normal((n, m)),
            kernel=kernel,
            beta=rng.uniform(0.5, 0.95),
        )
        native = dp.solve_vfi(model, tolerance=1e-10)
        wrapped = rdp.rdp_solve(rdp.from_mdp(model), algorithm="vfi", tolerance=1e-10)
        assert wrapped.iterations == native.iterations
        assert np.array_equal(wrapped.policy, native.policy)
        assert np.max(np.abs(wrapped.value - native.value)) <= 1e-12
