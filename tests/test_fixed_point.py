import contextlib
import json
import re
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdp import cli, discounting, dp, fixed_point, koopmans, markov, models, rdp, spectral
from fsdp.errors import ConvergenceError, SingularJacobianError
from fsdp.fixed_point import (
    DIVERGENCE_LIMIT,
    IterationConfig,
    IterationTrace,
    convergence_order,
    newton_fixed_point,
    optimistic_policy_iteration,
    policy_iteration,
    successive_approx,
    value_iteration,
)
from fsdp.models import ZOO

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

    def test_ill_conditioned_jacobian_raises(self):
        # I - J = [[e, 1], [0, e]] has condition number about 1/e^2: BiCGSTAB
        # reports success on it while its true residual is near 1e-4.
        e = 1e-12
        jac = np.array([[1 - e, -1.0], [0.0, 1 - e]])
        with pytest.raises(SingularJacobianError, match="ill-conditioned"):
            newton_fixed_point(
                lambda u: jac @ u + np.array([1.0, 0.5]), np.zeros(2), jacobian=lambda u: jac
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

    def test_opi_builds_each_greedy_policys_operator_once(self):
        # The greedy policy flips from zeros to ones once, after the first sweep.
        built = []

        def policy_operator(sigma):
            built.append(sigma.tolist())
            return halve_plus_one

        greedy = lambda v: (v > 1.2).astype(np.int64)
        v, k = optimistic_policy_iteration(greedy, policy_operator, np.zeros(3), 2, 1e-12, 100)
        assert built == [[0, 0, 0], [1, 1, 1]]
        assert k > 10 and v == pytest.approx(np.full(3, 2.0))

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


# ---------------------------------------------------------------------------
# Parity with the hand-written loops that ``fixed_point.iterate`` replaced.
# Each ``_oracle_*`` is such a loop as it stood, with its own stopping rule;
# the caller now built on ``iterate`` must give the same iteration count,
# iterates, histories and cap errors, bit for bit.  The solves that Newton
# steps replaced (Koopmans Entropic and Uzawa values, RDP evaluation of a
# contracting model, ``newton_fixed_point``) are checked against their true
# fixed points in ``TestNewtonKrylov`` instead.


def _oracle_value_iteration(bellman, v, tolerance, max_iter, history=None):
    for k in range(1, max_iter + 1):
        v_new = bellman(v)
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if history is not None:
            history.append(v.copy())
        if step <= tolerance:
            return v, k, step
    raise ConvergenceError("value function iteration hit the iteration cap", last=v)


def _oracle_opi(greedy, policy_operator, v, m, tolerance, max_iter, history=None):
    for k in range(1, max_iter + 1):
        apply = policy_operator(greedy(v))
        v_new = v
        for _ in range(m):
            v_new = apply(v_new)
        step = float(np.max(np.abs(v_new - v)))
        v = v_new
        if history is not None:
            history.append(v.copy())
        if step <= tolerance:
            return v, k
    raise ConvergenceError("optimistic policy iteration hit the iteration cap", last=v)


def _oracle_as_vector(u):
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    return np.atleast_1d(u), scalar


def _oracle_successive_approx(op, u0, cfg=None):
    cfg = cfg or IterationConfig()
    u, scalar = _oracle_as_vector(u0)
    trace = IterationTrace(iterates=[u0 if scalar else u.copy()])
    alpha = cfg.damping
    for k in range(1, cfg.max_iter + 1):
        image = np.atleast_1d(np.asarray(op(u if not scalar else u[0]), dtype=float))
        u_new = (1 - alpha) * u + alpha * image
        if not np.all(np.isfinite(u_new)) or np.linalg.norm(u_new, np.inf) > DIVERGENCE_LIMIT:
            raise ConvergenceError(
                f"divergence detected at iteration {k}", last=u[0] if scalar else u
            )
        step = float(np.linalg.norm(u_new - u, np.inf))
        trace.errors.append(step)
        trace.iterates.append(float(u_new[0]) if scalar else u_new.copy())
        trace.iterations = k
        u = u_new
        if step <= cfg.tolerance:
            trace.converged = True
            break
    return trace


def _oracle_bracketed_fixed_point(op, lower, upper, tol=1e-10, max_iter=100_000):
    lo = np.asarray(lower, dtype=float).copy()
    hi = np.asarray(upper, dtype=float).copy()
    for k_iter in range(1, max_iter + 1):
        lo, hi = op(lo), op(hi)
        if np.linalg.norm(hi - lo, np.inf) <= tol:
            return 0.5 * (lo + hi), k_iter
    raise ConvergenceError("bracketed iteration hit the iteration cap", last=0.5 * (lo + hi))


def _oracle_power_affine_solve(h, a, theta, cfg=None):
    h = np.asarray(h, dtype=float)
    a = spectral.require_square(a)
    koopmans.check_power_affine_stable(a, theta)
    if theta == 1:
        return spectral.neumann_solve(a, h)

    def op(v):
        return (h + (a @ v) ** (1 / theta)) ** theta

    tol = cfg.tolerance if cfg else 1e-13
    max_iter = cfg.max_iter if cfg else 200_000
    v = h**theta
    for _ in range(max_iter):
        v_new = op(v)
        step = np.max(np.abs(v_new - v) / np.abs(v))
        v = v_new
        if step <= tol:
            return v
    raise ConvergenceError("power-affine iteration hit the iteration cap", last=v)


def _oracle_rdp_policy_value(model, sigma, tolerance=1e-10, max_iter=200_000):
    sigma = np.asarray(sigma, dtype=np.int64)
    stab = model.stability
    if isinstance(stab, rdp.UserCertified):
        return np.asarray(stab.evaluator(model, sigma), dtype=float)
    if isinstance(stab, rdp.ConvexConcave):
        lo = np.asarray(stab.lower, dtype=float).copy()
        hi = np.asarray(stab.upper, dtype=float).copy()
        for _ in range(max_iter):
            lo = rdp.rdp_policy_apply(model, sigma, lo)
            hi = rdp.rdp_policy_apply(model, sigma, hi)
            scale = 1.0 + np.max(np.abs(hi))
            if np.max(np.abs(hi - lo)) <= tolerance * scale:
                return 0.5 * (lo + hi)
        raise ConvergenceError("bracketed policy evaluation hit the cap", last=hi)
    v = np.zeros(model.n_states)
    eps = np.finfo(float).eps
    for _ in range(max_iter):
        v_new = rdp.rdp_policy_apply(model, sigma, v)
        if not np.all(np.isfinite(v_new)):
            raise ConvergenceError("policy evaluation diverged", last=v)
        step = np.max(np.abs(v_new - v))
        v = v_new
        if isinstance(stab, rdp.Contracting):
            threshold = max(
                tolerance * (1.0 - stab.modulus), 64 * eps * (1.0 + np.max(np.abs(v)))
            )
        else:
            threshold = tolerance * (1.0 + np.max(np.abs(v)))
        if step <= threshold:
            return v
    raise ConvergenceError("policy evaluation hit the iteration cap", last=v)


def _oracle_smooth_conjugate(model, sigma, tolerance=1e-12, max_iter=200_000):
    ex = model.extras
    kernels, mu = ex["kernels"], ex["mu"]
    reward, beta = ex["reward"], ex["beta"]
    alpha, kappa, gamma = ex["alpha"], ex["kappa"], ex["gamma"]
    xi, zeta = gamma / kappa, kappa / alpha
    n, m = reward.shape
    sigma = np.asarray(sigma, dtype=np.int64)
    rows = np.arange(n)
    r_sigma = reward[rows, sigma]

    def conjugate_apply(v_hat):
        inner = np.stack(
            [np.asarray(flat @ v_hat**xi).reshape(n, m)[rows, sigma] for flat in kernels],
            axis=-1,
        )
        mixed = np.einsum("xk,xk->x", inner ** (1 / xi), mu)
        return (r_sigma + beta * mixed ** (1 / zeta)) ** zeta

    lower, upper = ex["bracket"]
    lo = upper**kappa
    hi = lower**kappa
    for _ in range(max_iter):
        lo, hi = conjugate_apply(lo), conjugate_apply(hi)
        if np.max(np.abs(hi - lo) / np.abs(hi)) <= tolerance:
            return (0.5 * (lo + hi)) ** (1 / kappa)
    raise ConvergenceError("conjugate policy evaluation hit the cap", last=hi)


def _oracle_factorized_fixed_point(ops, operator, start, tolerance=1e-13, max_iter=200_000):
    current = np.asarray(start, dtype=float)
    mask = ops.model.feasible
    for _ in range(max_iter):
        nxt = operator(current)
        if nxt.shape == mask.shape:
            gap = np.max(np.abs(nxt[mask] - current[mask]))
        else:
            gap = np.max(np.abs(nxt - current))
        current = nxt
        if gap <= tolerance:
            return current
    raise ConvergenceError("factorized fixed-point iteration hit the cap", last=current)


def _oracle_refactored_opi(model, g0=None, m=50, tolerance=1e-8, max_iter=100_000):
    ops = dp.FactorizedOperators(model)
    g = np.zeros(model.feasible.shape) if g0 is None else np.asarray(g0, dtype=float).copy()
    mask = model.feasible
    history = [g.copy()]
    for k in range(1, max_iter + 1):
        sigma = dp.greedy_from_expected(model, g)
        g_new = g
        for _ in range(m):
            g_new = ops.R_sigma(g_new, sigma)
        step = float(np.max(np.abs(g_new[mask] - g[mask])))
        g = g_new
        history.append(g.copy())
        if step <= tolerance:
            sigma = dp.greedy_from_expected(model, g)
            v = ops.M(ops.D(g))
            residual = float(np.max(np.abs(ops.R(g)[mask] - g[mask])))
            return dp.SolveResult(
                value=v,
                policy=sigma,
                iterations=k,
                method=f"refactored-opi(m={m})",
                residual=residual,
                history=history,
            )
    raise ConvergenceError("refactored OPI hit the iteration cap", last=g)


def _oracle_ez_savings_solve_direct(built, tolerance=1e-9, max_policy_iter=200):
    alpha, beta, gamma = built["alpha"], built["beta"], built["gamma"]
    phi, e_grid, w_grid = built["phi"], built["e_grid"], built["w_grid"]
    nw, ne = w_grid.size, e_grid.size

    def greedy(v):
        sigma = np.zeros((nw, ne), dtype=np.int64)
        for iw in range(nw):
            feas = iw + 1
            for ie in range(ne):
                cont = (np.power(v[:feas, :], gamma) @ phi) ** (1 / gamma)
                r = w_grid[iw] - w_grid[:feas] + e_grid[ie]
                values = (r**alpha + beta * cont**alpha) ** (1 / alpha)
                sigma[iw, ie] = int(values.argmax())
        return sigma

    def evaluate(sigma, v0):
        v = v0.copy()
        r_sigma = w_grid[:, None] - w_grid[sigma] + e_grid[None, :]
        for _ in range(100_000):
            inner = np.einsum("weE,E->we", np.power(v, gamma)[sigma], phi)
            v_new = (r_sigma**alpha + beta * inner ** (alpha / gamma)) ** (1 / alpha)
            step = np.max(np.abs(v_new - v) / (1.0 + np.abs(v)))
            v = v_new
            if step <= tolerance:
                return v
        raise ConvergenceError("policy evaluation hit the cap", last=v)

    v = np.tile(e_grid[None, :], (nw, 1))
    sigma = np.zeros((nw, ne), dtype=np.int64)
    for _ in range(max_policy_iter):
        v = evaluate(sigma, v)
        sigma_new = greedy(v)
        if np.array_equal(sigma_new, sigma):
            return sigma, v
        sigma = sigma_new
    raise ConvergenceError("policy iteration failed to settle", last=v)


def _oracle_ez_savings_solve_subordinate(built, tolerance=1e-9, max_policy_iter=200):
    alpha, beta, gamma = built["alpha"], built["beta"], built["gamma"]
    phi, e_grid, w_grid = built["phi"], built["e_grid"], built["w_grid"]
    nw, ne = w_grid.size, e_grid.size
    feas = np.tril(np.ones((nw, nw), dtype=bool))[:, :, None]
    r_table = np.where(
        feas,
        w_grid[:, None, None] - w_grid[None, :, None] + e_grid[None, None, :],
        1.0,
    )
    r_pow = r_table**alpha

    def greedy(h):
        inner = (r_pow + beta * (h[None, :, None] ** alpha)) ** (1 / alpha)
        return np.where(feas, inner, -np.inf).argmax(axis=1)

    def evaluate(sigma, h0):
        h = h0.copy()
        rows = np.arange(nw)[:, None]
        r_sigma_pow = r_pow[rows, sigma, np.arange(ne)[None, :]]
        for _ in range(100_000):
            inner = (r_sigma_pow + beta * h[sigma] ** alpha) ** (gamma / alpha)
            h_new = (inner @ phi) ** (1 / gamma)
            step = np.max(np.abs(h_new - h) / (1.0 + np.abs(h)))
            h = h_new
            if step <= tolerance:
                return h
        raise ConvergenceError("policy evaluation hit the cap", last=h)

    h = np.full(nw, float(e_grid @ phi))
    sigma = np.zeros((nw, ne), dtype=np.int64)
    for _ in range(max_policy_iter):
        h = evaluate(sigma, h)
        sigma_new = greedy(h)
        if np.array_equal(sigma_new, sigma):
            return sigma, h
        sigma = sigma_new
    raise ConvergenceError("policy iteration failed to settle", last=h)


def _oracle_local_radius_seq(a, h, kmax):
    """The unscaled loop, which fell back to logs outside [1e-100, 1e100]."""
    out = np.empty(kmax)
    v = np.asarray(h, dtype=float).copy()
    for k in range(1, kmax + 1):
        v = a @ v
        norm = np.linalg.norm(v, np.inf)
        out[k - 1] = norm ** (1.0 / k)
        if norm == 0.0:
            out[k - 1 :] = 0.0
            break
        if norm > 1e100 or norm < 1e-100:
            return _oracle_spectral_test_sequence(a, h, kmax)[0]
    return out


def _oracle_spectral_test_sequence(matrix, h, tmax):
    values = np.empty(tmax)
    first = None
    v = np.asarray(h, dtype=float).copy()
    log_scale = 0.0
    for t in range(1, tmax + 1):
        v = matrix @ v
        norm = np.linalg.norm(v, np.inf)
        if norm == 0.0:
            values[t - 1 :] = 0.0
            first = first if first is not None else t
            break
        log_scale += np.log(norm)
        values[t - 1] = np.exp(log_scale / t)
        if first is None and log_scale < 0:
            first = t
        v = v / norm
    return values, first


def _outcome(run):
    """What a run gives: its result, or the type, shape and value of the ``last`` it raised."""
    try:
        return ("returned", run())
    except ConvergenceError as exc:
        return ("raised", type(exc.last), np.shape(exc.last), exc.last)


def _assert_identical(new, old):
    """Bit-for-bit equality through tuples, lists, traces and solve results."""
    if isinstance(old, (dp.SolveResult, IterationTrace)):
        assert type(new) is type(old)
        _assert_identical(vars(new), vars(old))
    elif isinstance(old, dict):
        assert new.keys() == old.keys()
        for key in old:
            _assert_identical(new[key], old[key])
    elif isinstance(old, (tuple, list)):
        assert type(new) is type(old) and len(new) == len(old)
        for a, b in zip(new, old):
            _assert_identical(a, b)
    elif isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray) and new.dtype == old.dtype
        assert np.array_equal(new, old)
    else:
        assert type(new) is type(old) and (new == old or (new != new and old != old))


def _patched(patches, run):
    """Run with module attributes replaced by the given oracles."""
    with contextlib.ExitStack() as stack:
        for obj, name, value in patches:
            stack.enter_context(mock.patch.object(obj, name, value))
        return run()


# RDP solves and MDP solves reach their loops through module attributes,
# so the oracle run swaps the parent's loops in.
OLD_RDP_LOOPS = [
    (rdp, "rdp_policy_value", _oracle_rdp_policy_value),
    (fixed_point, "value_iteration", _oracle_value_iteration),
    (fixed_point, "optimistic_policy_iteration", _oracle_opi),
]


def _solve_pairs(name, solve):
    return {name: (solve, lambda: _patched(OLD_RDP_LOOPS, solve))}


def _robust_model():
    rng = np.random.default_rng(3)
    n, m = 7, 3
    kernels = [rng.random((n, m, n)) + 0.05 for _ in range(3)]
    kernels = [k / k.sum(axis=2, keepdims=True) for k in kernels]
    return rdp.make_robust_aggregator(rng.standard_normal((n, m)), 0.9, kernels)


def _smooth_model():
    rng = np.random.default_rng(4)
    reward = rng.random((4, 2)) + 0.5
    kernels = [rng.random((4, 2, 4)) + 0.05 for _ in range(2)]
    kernels = [k / k.sum(axis=2, keepdims=True) for k in kernels]
    mu = rng.random((4, 2)) + 0.2
    mu /= mu.sum(axis=1, keepdims=True)
    return rdp.make_smooth_ambiguity_aggregator(
        reward, 0.95, kernels, mu, alpha=0.5, kappa=-3.0, gamma=-2.0
    )


def _path_costs():
    cost = np.full((6, 6), np.inf)
    edges = [(0, 1, 1.0), (0, 2, 4.0), (1, 2, 1.5), (1, 3, 3.0), (2, 3, 1.0), (2, 4, 0.5)]
    edges += [(3, 5, 2.0), (4, 5, 0.7), (0, 5, 9.0)]
    for a, b, c in edges:
        cost[a, b] = c
    cost[5, 5] = 0.0
    return cost


def _chain(n=40):
    return markov.tauchen(n, rho=0.9, nu=0.2)


def _entropic():
    grid, p = _chain()
    return koopmans.KoopmansOperator(koopmans.Additive(grid, 0.95), koopmans.Entropic(-2.0, p))


def _uzawa():
    grid, p = _chain()
    return koopmans.KoopmansOperator(
        koopmans.Uzawa(grid, np.linspace(0.8, 0.95, grid.size)), koopmans.Expectation(p)
    )


def _ez_inputs():
    grid, p = _chain()
    return (1 - 0.95) * np.exp(grid) ** 0.5, 0.95, 0.5, -3.0, p


def _power_affine_cases():
    """``case -> (solve(cfg), plain iteration(cfg))`` for the conjugate solves."""
    h, beta, alpha, gamma, p = _ez_inputs()
    plain = [(koopmans, "power_affine_solve", _oracle_power_affine_solve)]
    ez = lambda cfg: koopmans.epstein_zin_value(h, beta, alpha, gamma, p, cfg)
    return {
        "epstein-zin": (ez, lambda cfg: _patched(plain, partial(ez, cfg))),
        "power affine": (
            lambda cfg: koopmans.power_affine_solve(h, 0.9 * p, 2.0, cfg),
            lambda cfg: _oracle_power_affine_solve(h, 0.9 * p, 2.0, cfg),
        ),
    }


def _capped_bracket(v):
    grid, p = _chain()
    return np.minimum(grid + 0.9 * (p @ v), 50.0)


BRACKET = (np.full(40, -100.0), np.full(40, 100.0))


def _point_mass_mdp():
    """Infeasible pairs move to one state for sure, so their step is the largest."""
    rng = np.random.default_rng(9)
    n, m = 8, 3
    kernel = rng.random((n, m, n)) + 0.05
    kernel /= kernel.sum(axis=2, keepdims=True)
    feasible = np.ones((n, m), dtype=bool)
    feasible[:, 2] = False
    kernel[:, 2, :] = np.eye(n)
    return dp.MDPModel(feasible, rng.standard_normal((n, m)), kernel, beta=0.9)


def _parity_cases():
    cases = {}
    for ci_scale in (True, False):
        built = ZOO["optimal_default"].build(ci_scale=ci_scale)
        for algorithm, tol in (("vfi", 1e-8), ("opi", 1e-8)):
            solve = partial(
                rdp.rdp_solve, built["rdp"], algorithm=algorithm, tolerance=tol
            )
            cases.update(_solve_pairs(f"rdp {algorithm} optimal_default ci={ci_scale}", solve))
    robust, smooth, cost = _robust_model(), _smooth_model(), _path_costs()
    for algorithm in ("hpi", "vfi", "opi"):
        cases.update(
            _solve_pairs(
                f"rdp {algorithm} robust",
                partial(rdp.rdp_solve, robust, algorithm=algorithm),
            )
        )
        cases.update(
            _solve_pairs(
                f"path costs {algorithm}",
                partial(rdp.solve_path_costs, cost, 5, algorithm=algorithm),
            )
        )
        cases.update(
            _solve_pairs(
                f"negative discounting {algorithm}",
                partial(rdp.negative_discount_solve, cost, 1.05, 5, algorithm=algorithm),
            )
        )
    sigma = np.array([0, 1, 1, 0])
    for max_iter in (200_000, 1):
        cases[f"smooth bracket max_iter={max_iter}"] = (
            partial(rdp.rdp_policy_value, smooth, sigma, max_iter=max_iter),
            partial(_oracle_rdp_policy_value, smooth, sigma, max_iter=max_iter),
        )
        cases[f"smooth conjugate max_iter={max_iter}"] = (
            partial(rdp.smooth_ambiguity_policy_value_conjugate, smooth, sigma, max_iter=max_iter),
            partial(_oracle_smooth_conjugate, smooth, sigma, max_iter=max_iter),
        )
    start = np.zeros(robust.n_states, dtype=np.int64)
    cases["rdp bracket cap"] = (
        partial(rdp.rdp_policy_value, robust, start, max_iter=1),
        partial(_oracle_rdp_policy_value, robust, start, max_iter=1),
    )
    for max_iter in (100_000, 1):
        cases[f"bracketed max_iter={max_iter}"] = (
            partial(koopmans.bracketed_fixed_point, _capped_bracket, *BRACKET, max_iter=max_iter),
            partial(_oracle_bracketed_fixed_point, _capped_bracket, *BRACKET, max_iter=max_iter),
        )

    ez = models.ez_savings(n=20, w_size=25)
    for max_policy_iter in (200, 1):
        cases[f"ez_savings direct max_policy_iter={max_policy_iter}"] = (
            partial(models.ez_savings_solve_direct, ez, max_policy_iter=max_policy_iter),
            partial(_oracle_ez_savings_solve_direct, ez, max_policy_iter=max_policy_iter),
        )
        cases[f"ez_savings subordinate max_policy_iter={max_policy_iter}"] = (
            partial(models.ez_savings_solve_subordinate, ez, max_policy_iter=max_policy_iter),
            partial(_oracle_ez_savings_solve_subordinate, ez, max_policy_iter=max_policy_iter),
        )

    cards = {
        name: ZOO[name].build(ci_scale=True)["mdp"]
        for name in ("job_search_markov", "firm_exit", "optimal_investment", "optimal_savings")
    }
    cards["point masses off the feasible set"] = _point_mass_mdp()
    for name, model in cards.items():
        ops = dp.FactorizedOperators(model)
        g0, v0 = np.zeros(model.feasible.shape), np.zeros(model.n_states)
        for max_iter in (100_000, 1):
            cases[f"refactored opi {name} max_iter={max_iter}"] = (
                partial(dp.solve_refactored_opi, model, m=10, max_iter=max_iter),
                partial(_oracle_refactored_opi, model, m=10, max_iter=max_iter),
            )
            cases[f"factorized R {name} max_iter={max_iter}"] = (
                partial(ops.fixed_point, ops.R, g0, 1e-10, max_iter),
                partial(_oracle_factorized_fixed_point, ops, ops.R, g0, 1e-10, max_iter),
            )
        cases[f"factorized T {name}"] = (
            partial(ops.fixed_point, ops.T, v0, 1e-10),
            partial(_oracle_factorized_fixed_point, ops, ops.T, v0, 1e-10),
        )
        # The point-mass model's myopic start is optimal: OPI stops at once.
        for max_iter in (100_000, 1) if name in ZOO else ():
            cases.update(
                _solve_pairs(
                    f"vfi {name} max_iter={max_iter}",
                    partial(dp.solve_vfi, model, max_iter=max_iter, record_history=True),
                )
            )
            cases.update(
                _solve_pairs(
                    f"opi {name} max_iter={max_iter}",
                    partial(
                        dp.solve_opi, model, m=5, max_iter=max_iter, record_history=True
                    ),
                )
            )

    linear = lambda u: A_SMALL @ u + B_SMALL
    traced = {
        "vector": (linear, np.ones(2), IterationConfig(tolerance=1e-10)),
        "damped": (linear, np.zeros(2), IterationConfig(tolerance=1e-12, damping=0.3)),
        "scalar": (solow_map, 1.0, None),
        "cap": (lambda u: 0.99999 * u + 1.0, np.zeros(1), IterationConfig(1e-12, 10)),
        "cap of one": (linear, np.zeros(2), IterationConfig(max_iter=1)),
        "divergent vector": (lambda u: 3.0 * u + 1.0, np.ones(1), None),
        "divergent scalar": (lambda u: 3.0 * u + 1.0, 1.0, None),
        "non-finite": (lambda u: u * np.nan, np.ones(2), None),
    }
    for name, (op, u0, cfg) in traced.items():
        cases[f"successive approx {name}"] = (
            partial(successive_approx, op, u0, cfg),
            partial(_oracle_successive_approx, op, u0, cfg),
        )

    grid, p = _chain()
    _, p_alt = markov.tauchen(40, rho=0.8, nu=0.1, m=10.0)
    d = np.exp(grid * 0.1)

    def hk_op(pi):
        payout = pi + d
        return np.maximum(0.9 * (p @ payout), 0.9 * (p_alt @ payout))

    cases["harrison-kreps price"] = (
        lambda: discounting.harrison_kreps_price(p, p_alt, 0.9, d, return_trace=True)[1],
        lambda: _oracle_successive_approx(hk_op, np.zeros(d.size), IterationConfig(1e-8)),
    )
    operator = discounting.build_discount_operator(np.linspace(0.9, 1.05, 40), p)
    cases["spectral test sequence"] = (
        lambda: tuple(discounting.spectral_test_sequence(operator, 500)),
        lambda: _oracle_spectral_test_sequence(operator.matrix, np.ones(40), 500),
    )
    return cases


PARITY = _parity_cases()


class TestParityWithReplacedLoops:
    @pytest.mark.parametrize("case", sorted(PARITY))
    def test_same_counts_iterates_and_cap_errors(self, case):
        run, oracle = PARITY[case]
        _assert_identical(_outcome(run), _outcome(oracle))

    def test_every_moved_loop_raises_at_its_cap(self):
        capped = [case for case in PARITY if re.search(r"max_(policy_)?iter=1(,|$)| cap", case)]
        # Successive approximation returns its trace at the cap.
        traced = {"successive approx cap", "successive approx cap of one"}
        assert len(capped) == 26
        for case in capped:
            assert (_outcome(PARITY[case][0])[0] == "returned") == (case in traced), case

    @pytest.mark.parametrize(
        "a, h, kmax",
        [
            (A_SMALL, np.ones(2), 300),
            (np.diag([0.3, 0.9]), np.ones(2), 300),
            (np.diag([2.0, 3.0]), np.ones(2), 800),
            (0.9 * _chain()[1], np.ones(40), 200),
            (np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2), 5),
        ],
        ids=["reference", "diagonal", "long horizon", "tauchen", "nilpotent"],
    )
    def test_local_radius_within_1e15_of_the_unscaled_loop(self, a, h, kmax):
        new = spectral.local_spectral_radius_seq(a, h, kmax)
        old = _oracle_local_radius_seq(a, h, kmax)
        scale = np.where(old == 0, 1.0, np.abs(old))
        assert np.max(np.abs(new - old) / scale) <= 1e-15

    def test_local_radius_of_random_matrices_within_log_sum_rounding(self):
        # The rescaled loop sums k logs; its rounding grows like
        # sqrt(k) * |log rho| * eps, a few ulps at k = 400.
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            a = rng.random((n, n)) * rng.uniform(0.01, 3.0) / n
            h = rng.random(n) + 0.1
            new = spectral.local_spectral_radius_seq(a, h, 400)
            old = _oracle_local_radius_seq(a, h, 400)
            assert np.max(np.abs(new - old) / old) <= 1e-14

    def test_first_contraction_time_from_the_sign_of_the_log(self):
        # ||L 1|| = 1 - 1e-17 rounds to 1.0 in exp, but the log is negative.
        matrix = np.array([[0.5, 0.5 - 2e-16]])
        matrix = np.vstack([matrix, matrix])
        result = discounting.spectral_test_sequence(matrix, 3)
        assert result.first_contraction_time == _oracle_spectral_test_sequence(
            matrix, np.ones(2), 3
        )[1]


class TestStopRules:
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 2.0, np.nan])
    @pytest.mark.parametrize("step", [0.0, 0.5, 1.0, np.nan, np.inf])
    def test_within_stops_on_exactly_the_comparison(self, step, threshold):
        assert (fixed_point.within(step, threshold) <= 0.0) == (step <= threshold)


class TestConvergenceSteps:
    def _vfi_steps(self, model, k):
        v, steps = np.zeros(model.n_states), []
        for _ in range(k):
            v_new = dp.bellman(model, v)
            steps.append(float(np.max(np.abs(v_new - v))))
            v = v_new
        return v, steps

    def test_capped_vfi_carries_its_last_steps(self):
        model = ZOO["optimal_investment"].build(ci_scale=True)["mdp"]
        with pytest.raises(ConvergenceError) as info:
            dp.solve_vfi(model, max_iter=12)
        v, steps = self._vfi_steps(model, 12)
        assert info.value.steps == steps[-8:]
        assert np.array_equal(info.value.last, v)

    def test_short_run_keeps_every_step(self):
        with pytest.raises(ConvergenceError) as info:
            value_iteration(halve_plus_one, np.zeros(3), 1e-12, 3)
        assert info.value.steps == [1.0, 0.5, 0.25]

    def test_fsdp_solve_prints_the_steps_on_exit_4(self, tmp_path, monkeypatch, capsys):
        card = ZOO["optimal_investment"]
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"model": "optimal_investment", "solver": "vfi"}))
        monkeypatch.setattr(dp, "solve_vfi", partial(dp.solve_vfi, max_iter=5))
        overrides = [f"--override={k}={v}" for k, v in card.ci_overrides.items()]
        args = ["solve", "--config", str(config), "--out", str(tmp_path / "out"), *overrides]
        assert cli.main(args) == 4
        _, steps = self._vfi_steps(card.build(ci_scale=True)["mdp"], 5)
        printed = "last steps " + ", ".join(f"{step:.3e}" for step in steps)
        assert printed in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Newton-Krylov solves, checked against their true fixed points.


def _contraction_limit(op, v0, beta, tolerance):
    """Plain iteration of a beta-contraction until ``beta / (1 - beta) * step <= tolerance``."""
    v, _, _ = value_iteration(op, v0, tolerance * (1 - beta) / beta, 1_000_000)
    return v


def _sup(x):
    return float(np.max(np.abs(x)))


class TestNewtonKrylov:
    def test_entropic_lifetime_value_is_certified(self):
        k = _entropic()
        result = koopmans.solve_lifetime_value(k)
        assert result.method == "blackwell-contraction"
        residual_bound = _sup(k(result.value) - result.value) / (1 - 0.95)
        assert result.error_bound == pytest.approx(residual_bound, rel=1e-12)
        assert result.error_bound <= 1e-10
        reference = _contraction_limit(k, np.zeros(40), 0.95, 1e-13)
        assert _sup(result.value - reference) <= result.error_bound + 1e-13

    def test_entropic_cap_raises_with_last_and_residuals(self):
        k = _entropic()
        with pytest.raises(ConvergenceError) as info:
            koopmans.solve_lifetime_value(k, IterationConfig(max_iter=1))
        last = info.value.last
        assert isinstance(last, np.ndarray) and last.shape == (40,)
        assert info.value.measure == "residuals"
        assert info.value.steps == [_sup(k(last) - last)]

    def test_uzawa_lifetime_value_matches_the_neumann_solve(self):
        k = _uzawa()
        result = koopmans.solve_lifetime_value(k)
        exact = spectral.neumann_solve(k.aggregator.b[:, None] * k.ce.p, k.aggregator.r)
        assert result.method == "uzawa-spectral"
        assert 0 <= result.error_bound <= 1e-10
        assert _sup(result.value - exact) <= result.error_bound + 1e-12 * _sup(exact)

    def test_uzawa_is_one_newton_step(self):
        # The Uzawa operator is affine, so the first Newton step lands on
        # the fixed point and a cap of one step does not bind.
        k = _uzawa()
        result = koopmans.solve_lifetime_value(k, IterationConfig(tolerance=1e-10, max_iter=1))
        exact = spectral.neumann_solve(k.aggregator.b[:, None] * k.ce.p, k.aggregator.r)
        assert result.iterations == 1 and result.error_bound <= 1e-10
        assert _sup(result.value - exact) <= result.error_bound + 1e-12 * _sup(exact)

    def test_modulus_read_on_a_box(self):
        # A zero Jacobian makes every step a plain one, v <- v / 2 + 1.
        # The modulus is read at b = 2 r / (1 - lam(v, 0)); a box on which
        # it reaches one certifies nothing.
        op, jvp, h = (lambda v: 0.5 * v + 1.0), (lambda v: np.zeros_like), np.ones(3)
        grows = lambda v, b: 0.5 + 0.05 * b
        v, _, bound = fixed_point.newton_krylov(op, np.zeros(3), jvp, h, grows, 1e-3, 100)
        r = _sup(op(v) - v)
        assert bound == pytest.approx(r / (1 - grows(v, 4 * r)), rel=1e-12)
        assert _sup(v - 2.0) <= bound <= 1e-3
        never = lambda v, b: 0.5 if b == 0 else 1.0
        v, _, bound = fixed_point.newton_krylov(op, np.zeros(3), jvp, h, never, 1e-3, 100)
        assert bound == np.inf and _sup(op(v) - v) <= 64 * np.finfo(float).eps * 2

    @pytest.mark.parametrize("case", ["epstein-zin", "power affine"])
    def test_power_affine_newton_is_the_fixed_point(self, case):
        # A plain iteration run to a 1e-15 relative step is the reference.
        solve, reference = _power_affine_cases()[case]
        got = solve(None)
        want = reference(IterationConfig(tolerance=1e-15, max_iter=10**6))
        assert np.max(np.abs(got - want) / want) <= 1e-10

    @pytest.mark.parametrize("case", ["epstein-zin", "power affine"])
    def test_power_affine_cap_raises_with_last_and_residuals(self, case):
        solve, _ = _power_affine_cases()[case]
        with pytest.raises(ConvergenceError) as info:
            solve(IterationConfig(max_iter=1))
        last = info.value.last
        # The conjugate variable v_hat, not its log, is reported.
        assert isinstance(last, np.ndarray) and last.shape == (40,) and np.all(last > 0)
        assert info.value.measure == "residuals" and len(info.value.steps) == 1

    @pytest.mark.parametrize("ci_scale", [True, False], ids=["ci", "default"])
    def test_rdp_hpi_of_optimal_default_is_the_mdp_solution(self, ci_scale):
        built = ZOO["optimal_default"].build(ci_scale=ci_scale)
        mdp = built["mdp"]
        wrapped = rdp.rdp_solve(built["rdp"], algorithm="hpi", tolerance=1e-10)
        native = dp.solve_hpi(mdp)
        assert np.array_equal(wrapped.policy, native.policy)
        assert wrapped.iterations == native.iterations
        l_sigma = dp.policy_matrix(mdp, native.policy, discounted=True)
        l_sigma = l_sigma.toarray() if hasattr(l_sigma, "toarray") else l_sigma
        r_sigma = dp.policy_reward(mdp, native.policy)
        exact = np.linalg.solve(np.eye(mdp.n_states) - l_sigma, r_sigma)
        assert wrapped.error_bound <= 1e-10
        assert _sup(wrapped.value - exact) <= wrapped.error_bound + 1e-13 * _sup(exact)

    def test_rdp_contracting_cap_raises_with_last_and_residuals(self):
        # Accepting the upper half of the offers makes the entropic
        # continuation nonlinear, so one Newton step from zero falls short.
        model = models.job_search_markov(variant="risk_sensitive", n=30)["rdp"]
        sigma = (np.arange(model.n_states) >= model.n_states // 2).astype(np.int64)
        with pytest.raises(ConvergenceError) as info:
            rdp.rdp_policy_value(model, sigma, max_iter=1)
        last = info.value.last
        assert isinstance(last, np.ndarray) and last.shape == (model.n_states,)
        assert info.value.measure == "residuals"
        assert info.value.steps == [_sup(rdp.rdp_policy_apply(model, sigma, last) - last)]

    @pytest.mark.parametrize("variant", ["risk_sensitive", "quantile"])
    def test_contracting_models_with_a_jacobian_take_newton_steps(self, variant):
        # The quantile's Jacobian is the selection of the successor it
        # picks, a generalized Jacobian at its kinks.
        model = models.job_search_markov(variant=variant, n=30, tau=0.9)["rdp"]
        assert model.jacobian is not None
        with mock.patch.object(fixed_point, "newton_krylov", wraps=fixed_point.newton_krylov) as spy:
            result = rdp.rdp_solve(model, algorithm="hpi")
        assert spy.called
        last = rdp.rdp_policy_apply(model, result.policy, result.value) - result.value
        assert result.error_bound == pytest.approx(_sup(last) / (1 - model.stability.modulus))
        assert result.error_bound <= 1e-10

    def test_newton_golden_ratio(self):
        trace = newton_fixed_point(lambda u: 1 + u / (u + 1), 0.5, IterationConfig(tolerance=1e-14))
        assert trace.converged
        assert abs(trace.final - (1 + np.sqrt(5)) / 2) <= 1e-15

    def test_newton_solow_closed_form(self):
        trace = newton_fixed_point(solow_map, 1.0, IterationConfig(tolerance=1e-13))
        assert trace.converged and trace.iterations <= 8
        assert abs(trace.final - solow_fixed_point()) <= 1e-13

    def test_newton_linear_map_with_its_jacobian(self):
        trace = newton_fixed_point(
            lambda u: A_SMALL @ u + B_SMALL, np.zeros(2), jacobian=lambda u: A_SMALL
        )
        exact = spectral.neumann_solve(A_SMALL, B_SMALL)
        assert trace.converged and trace.iterations == 2
        assert np.max(np.abs(trace.iterates[1] - exact)) <= 1e-14
        assert trace.errors[1] <= 1e-14

    def test_newton_cap_returns_an_unconverged_trace_closing_in(self):
        cfg = IterationConfig(tolerance=1e-300, max_iter=3)
        trace = newton_fixed_point(solow_map, 1.0, cfg)
        assert not trace.converged and trace.iterations == 3 and len(trace.errors) == 3
        gaps = [abs(u - solow_fixed_point()) for u in trace.iterates]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_newton_finds_the_fixed_point_plain_iteration_flees(self):
        # u -> 1e7 u^2 repels from its fixed point 1e-7, and plain iteration
        # from 1 diverges; Newton halves its way in, then closes quadratically.
        op = lambda u: 1e7 * u**2
        with pytest.raises(ConvergenceError):
            successive_approx(op, 1.0)
        trace = newton_fixed_point(op, 1.0, IterationConfig(tolerance=1e-22))
        assert trace.converged
        assert abs(trace.final - 1e-7) <= 1e-20

    def test_a_rejected_step_falls_back_to_a_plain_step(self):
        # A wrong Jacobian gives steps that raise the residual; each is
        # replaced by v <- T v, so the solve still reaches the fixed point.
        op = lambda v: A_SMALL @ v + B_SMALL
        wrong = lambda v: (lambda d: -3.0 * d)
        exact = spectral.neumann_solve(A_SMALL, B_SMALL)
        h = spectral.dominant_eigenpair(A_SMALL).right
        lam = float(np.max((A_SMALL @ h) / h))
        v, k, bound = fixed_point.newton_krylov(op, np.zeros(2), wrong, h, lam, 1e-12, 1000)
        assert k > 10
        assert bound <= 1e-12
        assert _sup(v - exact) <= bound

    def test_bound_covers_the_error_and_meets_the_tolerance(self):
        op = lambda v: A_SMALL @ v + B_SMALL
        exact = spectral.neumann_solve(A_SMALL, B_SMALL)
        h, lam = spectral.bounding_pair(lambda d: A_SMALL @ d, 2)
        jvp = lambda v: (lambda d: A_SMALL @ d)
        for tolerance in (1e-2, 1e-6, 1e-12):
            v, _, bound = fixed_point.newton_krylov(op, np.zeros(2), jvp, h, lam, tolerance, 100)
            assert bound <= tolerance
            assert _sup(v - exact) <= bound

    def test_tolerance_zero_stops_at_the_rounding_floor(self):
        k = _entropic()

        def jvp(v):
            w = k.ce.jacobian(v)
            return lambda d: 0.95 * (w @ d)

        v, _, bound = fixed_point.newton_krylov(k, np.zeros(40), jvp, np.ones(40), 0.95, 0.0, 50)
        assert bound <= 64 * np.finfo(float).eps * max(1.0, _sup(v)) / (1 - 0.95)

    def test_forward_difference_of_a_linear_map(self):
        rng = np.random.default_rng(5)
        a = rng.random((6, 6))
        op = lambda v: a @ v + 1.0
        v = 100 * rng.standard_normal(6)
        jvp = fixed_point.forward_difference(op, v, op(v))
        for d in (rng.standard_normal(6), 1e-9 * rng.standard_normal(6)):
            assert _sup(jvp(d) - a @ d) <= 1e-6 * _sup(a @ d)
        assert np.array_equal(jvp(np.zeros(6)), np.zeros(6))

    def test_entropic_jacobian_is_the_stochastic_derivative(self):
        k = _entropic()
        v = np.random.default_rng(6).standard_normal(40)
        w = k.ce.jacobian(v) @ np.eye(40)
        assert np.all(w >= 0) and np.allclose(w.sum(axis=1), 1.0, atol=1e-14)
        d = np.random.default_rng(7).standard_normal(40)
        step = 1e-6
        central = (k.ce(v + step * d) - k.ce(v - step * d)) / (2 * step)
        assert _sup(w @ d - central) <= 1e-8


class TestNewtonKrylovProperties:
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        beta=st.floats(0.5, 0.99),
        theta=st.floats(-3.0, 3.0).filter(lambda t: abs(t) > 1e-3),
    )
    def test_entropic_newton_meets_its_tolerance(self, seed, n, beta, theta):
        rng = np.random.default_rng(seed)
        p = rng.random((n, n)) * (rng.random((n, n)) < 0.5) + np.eye(n) * 0.01
        p /= p.sum(axis=1, keepdims=True)
        k = koopmans.KoopmansOperator(
            koopmans.Additive(rng.random(n), beta), koopmans.Entropic(theta, p)
        )
        tol = 1e-9
        v = koopmans.solve_lifetime_value(k, IterationConfig(tolerance=tol)).value
        assert _sup(k(v) - v) <= tol * (1 - beta)
        assert _sup(v - _contraction_limit(k, np.zeros(n), beta, tol)) <= 2 * tol

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 25),
        m=st.integers(1, 4),
        beta=st.floats(0.05, 0.99),
    )
    def test_rdp_from_mdp_evaluates_as_the_mdp(self, seed, n, m, beta):
        rng = np.random.default_rng(seed)
        kernel = rng.random((n, m, n)) * (rng.random((n, m, n)) < 0.5) + 0.01
        kernel /= kernel.sum(axis=2, keepdims=True)
        feasible = rng.random((n, m)) < 0.7
        feasible[np.arange(n), rng.integers(0, m, n)] = True
        model = dp.MDPModel(feasible, 10 * rng.standard_normal((n, m)), kernel, beta=beta)
        sigma = np.array([rng.choice(np.flatnonzero(row)) for row in feasible])
        v = rdp.rdp_policy_value(rdp.from_mdp(model), sigma)
        assert _sup(v - dp.policy_value(model, sigma)) <= 1e-10 * max(1.0, _sup(v))


class TestPolicyIterationTie:
    # The greedy policy always moves from zeros to ones, whose value is the
    # same: the loop stops at the tie, with each policy evaluated once.
    def run(self, refine=None):
        evaluated = []

        def evaluate(sigma):
            evaluated.append(sigma.tolist())
            return np.full(2, 5.0)

        greedy = lambda v: np.ones(2, dtype=np.int64)
        v, k = policy_iteration(greedy, evaluate, np.zeros(2, dtype=np.int64), 10, refine)
        return v, k, evaluated

    def test_exact_tie_returns_the_new_policys_value(self):
        v, k, evaluated = self.run()
        assert (v.tolist(), k) == ([5.0, 5.0], 1)
        assert evaluated == [[0, 0], [1, 1]]

    def test_refined_tie_refines_the_new_policy_once(self):
        refined = []

        def refine(sigma, v):
            refined.append((sigma.tolist(), v.tolist()))
            return v + 1.0

        v, k, evaluated = self.run(refine)
        assert (v.tolist(), k) == ([6.0, 6.0], 1)
        assert evaluated == [[0, 0], [1, 1]]
        assert refined == [([1, 1], [5.0, 5.0])]
