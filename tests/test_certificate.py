"""A stability check that succeeds runs no eigendecomposition, at any order.

Each case certifies a 1000-state operator with a bounding pair while
every dense eigenvalue routine raises; the radius is computed only on a
rejection.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from fsdp import discounting, dp, koopmans, markov, rdp, spectral

N = 1000


@pytest.fixture(autouse=True)
def no_eigendecomposition(monkeypatch, radius_calls):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigendecomposition ran on the accepting path")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(scipy.linalg, "eig", refuse)
    monkeypatch.setattr(spectral, "eig", refuse)
    yield
    assert radius_calls == []


def _sdd_rows(rng):
    """A sparse random walk ``P``, discounts ``(n, 2)`` and the dominating ``b * P``.

    The walk steps down, stays or steps up with probabilities 0.3, 0.3 and
    0.4.  Both actions share a state's row and discount it by at most
    ``b``, which is above one in the first two states, so the row sums of
    ``b * P`` do not decide; its radius is below 0.95.
    """
    rows = np.repeat(np.arange(N), 3)
    cols = np.clip(rows + np.tile([-1, 0, 1], N), 0, N - 1)
    p = sp.csr_matrix((np.tile([0.3, 0.3, 0.4], N), (rows, cols)))
    b = rng.uniform(0.85, 0.95, N)
    b[:2] = 1.02
    return p, b[:, None] * rng.uniform(0.9, 1.0, (N, 2)), b[:, None] * p.toarray()


def test_uzawa_lifetime_value():
    grid, p = markov.tauchen(N, rho=0.8, nu=0.05)
    b = 0.95 + grid  # straddles one, so the row sums do not decide
    assert b.max() > 1
    k = koopmans.KoopmansOperator(koopmans.Uzawa(np.ones(N), b), koopmans.Expectation(p))
    result = koopmans.solve_lifetime_value(k)
    assert result.method == "uzawa-spectral"
    assert result.residual <= 1e-8 * np.max(np.abs(result.value))


def test_dp_dominating_certificate():
    rng = np.random.default_rng(40)
    p, discounts, dominating = _sdd_rows(rng)
    kernel = p[np.repeat(np.arange(N), 2)]
    weights = kernel.copy()
    weights.data = np.repeat(discounts, np.diff(kernel.indptr))
    model = dp.MDPModel(
        feasible=np.ones((N, 2), dtype=bool),
        reward=rng.standard_normal((N, 2)),
        kernel=kernel,
        discount_weights=weights,
    )
    result = dp.solve_hpi(model, dominating=dominating)
    assert result.residual <= 1e-8 * np.max(np.abs(result.value))


def test_rdp_eventually_contracting_dominating_matrix():
    rng = np.random.default_rng(41)
    p, discounts, dominating = _sdd_rows(rng)
    reward = rng.standard_normal((N, 2))
    model = rdp.RDPModel(
        feasible=np.ones((N, 2), dtype=bool),
        aggregator=lambda v: reward + discounts * (p @ v)[:, None],
        stability=rdp.EventuallyContracting(dominating=dominating),
    )
    result = rdp.rdp_solve(model, algorithm="vfi", tolerance=1e-9)
    assert result.residual < 1e-8


def test_neumann_solve_on_the_lucas_operator():
    grid, p = markov.tauchen(N, rho=0.96, nu=0.1, m=10.0)
    spec = discounting.LucasSDFSpec(
        beta=0.99, gamma=2.5, mu_c=0.01, sigma_c=0.02, mu_d=0.02, sigma_d=0.1
    )
    a = discounting.growth_adjusted_operator(spec, np.exp(grid * 0.1), p)
    v = discounting.price_dividend_ratio(spec, np.exp(grid * 0.1), p)
    assert np.max(np.abs(a @ (1.0 + v) - v)) <= 1e-9 * np.max(v)
