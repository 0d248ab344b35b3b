"""Finite Markov chains.

Validation, simulation, marginal-distribution flows, stationary
distributions (one LU solve when the chain is irreducible),
irreducibility, Tauchen discretization of Gaussian AR(1) processes,
first-order stochastic dominance, quantiles, and geometric-sum
valuation.

Distributions are 1-d arrays of nonnegative weights summing to one;
stochastic matrices are square arrays whose rows are distributions.
"""

import warnings
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from . import spectral

ROW_SUM_TOL = 1e-10


class TauchenSpec(NamedTuple):
    """Parameters of the AR(1) process ``x' = rho x + b + nu eps``.

    ``n`` grid points span ``m`` stationary standard deviations either
    side of the stationary mean ``b / (1 - rho)``.
    """

    n: int
    rho: float
    nu: float
    b: float = 0.0
    m: float = 3.0


def rows_off(sums, target=1.0):
    """How many ``sums`` lie farther than ``ROW_SUM_TOL`` from ``target``; a NaN sum does."""
    return int(np.count_nonzero(~(np.abs(sums - target) <= ROW_SUM_TOL)))


def require_distribution(weights):
    """Validate and return a finite distribution as a float array."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("distribution must be a nonempty 1-d array")
    if np.any(w < 0):
        raise ValueError("distribution has negative weights")
    if rows_off(w.sum()):
        raise ValueError(f"weights sum to {w.sum():.12g}, not 1")
    return w


def require_stochastic_matrix(p, repair=False):
    """Validate a stochastic matrix, optionally renormalizing rows.

    Row sums must equal one within ``ROW_SUM_TOL``.  Renormalization
    happens only behind the explicit ``repair`` flag, since silent repair
    hides modeling bugs.  A sparse matrix is checked on its stored
    entries and returned as CSR, with no dense copy.
    """
    if spectral.issparse(p):
        import scipy.sparse as sp
        p = sp.csr_matrix(p)
        if p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ValueError(f"stochastic matrix must be square, got shape {p.shape}")
        entries = p.data
        if not np.all(np.isfinite(entries)):
            raise ValueError("stochastic matrix has non-finite entries")
    else:
        p = entries = spectral.require_square(p, name="stochastic matrix")
    if np.any(entries < 0):
        raise ValueError("stochastic matrix has negative entries")
    sums = np.asarray(p.sum(axis=1)).reshape(-1)
    if rows_off(sums):
        if not repair:
            worst = float(np.max(np.abs(sums - 1.0)))
            raise ValueError(f"row sums deviate from 1 by up to {worst:.3g}")
        p = sp.diags(1.0 / sums) @ p if spectral.issparse(p) else p / sums[:, None]
    return p


def simulate_chain(p, psi0, steps, rng):
    """Simulate a Markov chain path of length ``steps + 1``.

    The initial state is drawn from ``psi0`` and transitions follow the
    rows of ``p``, each by inverse-CDF sampling of one uniform draw.  A
    fixed seed reproduces the path exactly, and the path visits only
    positive-probability states.
    """
    p = require_stochastic_matrix(p)
    psi0 = require_distribution(psi0)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    uniforms = rng.random(steps + 1)
    x0 = _row_sampler(psi0[None, :])(0, uniforms[0])
    return _sample_path(p, x0, uniforms[1:])


def _row_sampler(p):
    """Inverse-CDF ``step(x, u)`` over the rows of a dense or CSR matrix.

    ``p`` may also be canonical CSR rows as ``(data, indices, indptr)``.
    ``step`` returns the first state of row ``x`` whose cumulative weight
    exceeds ``u`` (a positive-probability state, as the weight rises only
    there), or the row's last positive-probability state if ``u`` is at
    or above the row total.  Each row's cumulative weights are built on
    its first visit, in column order, so dense and CSR input give the
    same states and no dense copy of ``p`` is made.
    """
    if spectral.issparse(p):
        p = p.tocsr(copy=True)
        p.sum_duplicates()
        p = p.data, p.indices, p.indptr
    if isinstance(p, tuple):
        data, indices, indptr = p
        n_rows = indptr.size - 1

        def row(x):
            lo, hi = indptr[x], indptr[x + 1]
            return data[lo:hi], memoryview(indices[lo:hi])

    else:
        columns, n_rows = range(p.shape[1]), p.shape[0]

        def row(x):
            return p[x], columns

    rows = [None] * n_rows

    def step(x, u):
        cached = rows[x]
        if cached is None:
            weights, states = row(x)
            cached = rows[x] = (memoryview(weights.cumsum()), states)
        cum, states = cached
        k = bisect_right(cum, u)
        if k == len(cum):  # u at or above the row total
            k = int(np.flatnonzero(row(x)[0])[-1])
        return states[k]

    return step


def _sample_path(p, x0, uniforms):
    """States ``x0, x1, ...`` with ``x[t + 1]`` sampled from row ``x[t]`` by ``uniforms[t]``."""
    step = _row_sampler(p)
    path = [x0]
    for u in uniforms.tolist():
        path.append(step(path[-1], u))
    return np.array(path, dtype=np.int64)


def update_distribution(psi, p):
    """One step of the marginal-distribution flow: returns ``psi @ p``."""
    psi = require_distribution(psi)
    p = require_stochastic_matrix(p)
    if psi.size != p.shape[0]:
        raise ValueError("distribution and matrix dimensions disagree")
    return psi @ p


def is_irreducible(p):
    """True iff every state reaches every state via positive-probability edges.

    Checks strong connectivity of the support graph: all states must be
    reachable from state 0 in the graph and in its reverse.
    """
    p = require_stochastic_matrix(p)
    adjacency = p > 0
    return _all_reachable(adjacency, 0) and _all_reachable(adjacency.T, 0)


def _all_reachable(adjacency, source):
    n = adjacency.shape[0]
    if spectral.issparse(adjacency):
        # Imported here: at module level it would add about 5 ms to every CLI start-up.
        from scipy.sparse.csgraph import breadth_first_order

        return breadth_first_order(adjacency, source, return_predecessors=False).size == n
    seen = np.zeros(n, dtype=bool)
    seen[source] = True
    frontier = [source]
    while frontier:
        nxt = adjacency[frontier].any(axis=0) & ~seen
        frontier = np.flatnonzero(nxt).tolist()
        seen |= nxt
    return bool(seen.all())


def stationary_distribution(p):
    """Solve ``psi @ p = psi`` with ``psi`` summing to one.

    An irreducible ``p`` has one stationary distribution, the solution of
    ``(p.T - I + 1 1^T) psi = 1``, found by one LU solve.  A sparse
    irreducible ``p`` (``n > 1``) is never densified: with the last
    entry of ``psi`` set to one, the other equations of ``(I - p.T) psi =
    0`` lose their last row and column, a nonsingular system that one
    sparse LU solves before ``psi`` is normalized.  When ``p`` is
    reducible the stationary distribution is not unique; one solution of
    ``(p.T - I) psi = 0`` with a normalization row appended is returned
    by least squares, with a warning; a sparse ``p`` is densified for it.
    """
    p = require_stochastic_matrix(p)
    irreducible = is_irreducible(p)
    n = p.shape[0]
    if irreducible and spectral.issparse(p) and n > 1:
        # Imported here, as csgraph is: it would load scipy.linalg into every CLI start-up.
        import scipy.sparse as sp
        from scipy.sparse.linalg import spsolve

        # The system's columns are diagonally dominant, so the LU pivots on
        # the diagonal and fills in no more than the sparsity pattern asks.
        a = sp.identity(n, format="csc") - p.T.tocsc()
        psi = np.append(spsolve(a[:-1, :-1], -a[:-1, -1].toarray().ravel()), 1.0)
    else:
        p = p.toarray() if spectral.issparse(p) else p
        if irreducible:
            psi = np.linalg.solve(p.T - np.eye(n) + 1.0, np.ones(n))
        else:
            warnings.warn("matrix is reducible: stationary distribution is not unique", stacklevel=2)
            a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
            b = np.zeros(n + 1)
            b[-1] = 1.0
            psi, *_ = np.linalg.lstsq(a, b, rcond=None)
    psi = np.clip(psi, 0.0, None)
    return psi / psi.sum()


def conditional_expectation(p, h, k=1):
    """Apply the k-step transition matrix to ``h``: returns ``p^k @ h``."""
    p = require_stochastic_matrix(p)
    h = np.asarray(h, dtype=float)
    if h.shape[0] != p.shape[0]:
        raise ValueError("function and matrix dimensions disagree")
    if k < 1:
        raise ValueError("k must be >= 1")
    out = h.copy()
    for _ in range(k):
        out = p @ out
    return out


def geometric_value(beta, p, h):
    """Expected discounted sum ``sum_t beta^t p^t h = inv(I - beta p) h``."""
    if not 0 < beta < 1:
        raise ValueError("beta must lie in (0, 1)")
    p = require_stochastic_matrix(p)
    return spectral.neumann_solve(beta * p, np.asarray(h, dtype=float))


def tauchen(spec_or_n, rho=None, nu=None, b=0.0, m=3.0):
    """Discretize a Gaussian AR(1) process onto an equispaced grid.

    Accepts either a :class:`TauchenSpec` or positional parameters
    ``(n, rho, nu, b, m)``.  The grid is centered on the stationary mean
    ``b / (1 - rho)`` and spans ``m`` stationary standard deviations on
    each side.  Row ``i`` is the Gaussian CDF at the ``n - 1`` interior
    cell edges of the demeaned grid, given ``rho * grid[i]``, padded
    with 0 and 1 and differenced, so boundary columns absorb the tails
    and each row sums to one.  The grid is symmetric, so only the top
    ``(n + 1) // 2`` rows are computed: row ``n - 1 - i`` is row ``i``
    reversed.  The CDF is :func:`_ndtr`, in place, a block of rows at a time.

    Returns ``(grid, p)``.
    """
    if isinstance(spec_or_n, TauchenSpec):
        spec = spec_or_n
    else:
        spec = TauchenSpec(n=spec_or_n, rho=rho, nu=nu, b=b, m=m)
    if not abs(spec.rho) < 1:
        raise ValueError("persistence must satisfy |rho| < 1")
    if spec.nu <= 0:
        raise ValueError("innovation standard deviation must be positive")
    if spec.n < 2:
        raise ValueError("grid size must be at least 2")
    if spec.m <= 0:
        raise ValueError("grid width m must be positive")

    sigma_x = spec.nu / np.sqrt(1.0 - spec.rho**2)
    grid = np.linspace(-spec.m * sigma_x, spec.m * sigma_x, spec.n)
    half = (grid[1] - grid[0]) / 2.0
    if not np.isfinite(half):  # a NaN would pass the cuts below
        raise ValueError("m and nu must give a finite grid")

    top = (spec.n + 1) // 2
    rows = max(1, 32768 // spec.n)  # blocks of about 32k entries stay in cache
    cdf = np.empty((min(rows, top), spec.n + 1))
    cdf[:, 0], cdf[:, -1] = 0.0, 1.0
    p = np.empty((spec.n, spec.n))
    for start in range(0, top, rows):
        block = cdf[: min(rows, top - start)]
        edges = block[:, 1:-1]
        np.subtract(grid[:-1] + half, spec.rho * grid[start : start + len(block), None], out=edges)
        edges /= spec.nu
        # Rows rise along their columns and columns are monotone, so the first and
        # last rows bound the columns where some CDF is neither 0 nor 1.
        (lo, hi), (lo_last, hi_last) = (np.searchsorted(edges[i], _NDTR_CUTS) for i in (0, -1))
        lo, hi = min(lo, lo_last), max(hi, hi_last)
        edges[:, :lo], edges[:, hi:] = 0.0, 1.0
        _ndtr(edges[:, lo:hi])
        np.subtract(block[:, 1:], block[:, :-1], out=p[start : start + len(block)])
    p[top:] = p[spec.n - top - 1 :: -1, ::-1]

    mu_x = spec.b / (1.0 - spec.rho)
    return grid + mu_x, require_stochastic_matrix(p)


# Cephes ndtr (Moshier 1989), the code behind scipy.special.ndtr: the T/U rational of erf and
# the P/Q and R/S rationals of erfc, as numerator and monic denominator, highest power first
# (each coefficient the shortest repr of Cephes' double).
_ERF_TU = ((9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051, 55592.30130103949),
           (1.0, 33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095, 49267.39426086359))
_ERFC_PQ = ((2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814, 196.5208329560771,
             526.4451949954773, 934.5285271719576, 1027.5518868951572, 557.5353353693994),
            (1.0, 13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
             1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277))
_ERFC_RS = ((0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536, 7.4097426995044895,
             2.9788666537210022),
            (1.0, 2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659, 9.608968090632859,
             3.369076451000815))
_SQRT1_2 = 0.7071067811865476
_ERFC_UNDERFLOW = 26.64174755704633  # the least x with x * x > MAXLOG: Cephes' erfc is 0 from it
# ndtr is exactly 0 below the first (x < -26.65) and exactly 1 from the second on (x > 6).
_NDTR_CUTS = (-37.7, 8.5)


def _ndtr(a):
    """The standard normal CDF of the float array ``a``, in place, as Cephes' ``ndtr`` computes it.

    With ``x = a / sqrt(2)``: ``(1 + erf(x)) / 2`` below ``|x| = 1`` (from ``1 / sqrt(2)`` Cephes
    takes ``(1 - erf(|x|)) / 2``, which rounds the same, as ``erf >= 1/2`` there), else ``erfc(|x|) / 2``
    by P/Q below 8 and R/S above, 0 from :data:`_ERFC_UNDERFLOW`, taken from 1 for ``x > 0`` (1 above 6).
    """
    x = a * _SQRT1_2
    z = np.abs(x)
    np.greater(x, 6.0, out=a)
    m = ~(z >= 1.0)  # NaN too, which stays NaN
    if m.any():
        xs = x[m]
        num, den = (_horner(xs * xs, c) for c in _ERF_TU)
        a[m] = 0.5 + 0.5 * (xs * num / den)
    pq, rs = (z >= 1.0) & (z < 8.0) & (x <= 6.0), (x <= -8.0) & (x > -_ERFC_UNDERFLOW)
    for table, m in ((_ERFC_PQ, pq), (_ERFC_RS, rs)):
        if m.any():
            zm = z[m]
            y = np.exp(zm * -zm)
            y *= _horner(zm, table[0])
            y /= _horner(zm, table[1])
            y *= 0.5
            a[m] = np.subtract(1.0, y, out=y, where=x[m] > 0)


def _horner(x, coefficients):
    """The polynomial with ``coefficients``, highest power first, at ``x``, by Cephes' steps."""
    y = x * coefficients[0] + coefficients[1]
    for c in coefficients[2:]:
        y *= x
        y += c
    return y


def counter_cdf(weights, values=None):
    """Counter-CDF ``G(v) = P(X > v)`` evaluated at each support point.

    ``values`` orders the support; when omitted the support is taken in
    index order.
    """
    w = require_distribution(weights)
    if values is None:
        order = np.arange(w.size)
    else:
        order = np.argsort(np.asarray(values), kind="stable")
    sorted_w = w[order]
    g_sorted = 1.0 - np.cumsum(sorted_w)
    g = np.empty_like(w)
    g[order] = g_sorted
    return g


def stochastically_dominates(phi, psi, values=None):
    """First-order dominance check: True iff ``psi`` dominates ``phi``.

    Equivalent to the counter-CDF comparison ``G_phi <= G_psi``
    pointwise on the common, totally ordered support, i.e. every
    increasing function has a weakly larger mean under ``psi``, with
    1e-12 of slack for rounding.
    """
    phi = require_distribution(phi)
    psi = require_distribution(psi)
    if phi.size != psi.size:
        raise ValueError("distributions must share a common support")
    g_phi = counter_cdf(phi, values)
    g_psi = counter_cdf(psi, values)
    return bool(np.all(g_phi <= g_psi + 1e-12))


def is_monotone_increasing(p, values=None):
    """True iff higher states shift the next-state distribution up.

    Checks that consecutive rows (in the order given by ``values``) are
    ranked by first-order stochastic dominance; transitivity extends the
    ranking to all pairs.
    """
    p = require_stochastic_matrix(p)
    if values is None:
        row_order = np.arange(p.shape[0])
    else:
        row_order = np.argsort(np.asarray(values), kind="stable")
    for lower, higher in zip(row_order[:-1], row_order[1:]):
        if not stochastically_dominates(p[lower], p[higher], values):
            return False
    return True


_QUANTILE_TOL = 1e-12


def quantile(tau, values, phi):
    """The tau-th quantile of a discrete random variable.

    Returns the smallest value whose cumulative probability (after
    sorting the support by value) reaches ``tau``.  Ties go to the
    first value reaching the cumulative mass.
    """
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    phi = require_distribution(phi)
    values = np.asarray(values, dtype=float)
    if values.size != phi.size:
        raise ValueError("values and weights must align")
    return float(values[_quantile_index(tau, values, phi[None, :])[0]])


def conditional_quantile(tau, v, p):
    """Per-state tau-th quantile of ``v`` under each row of ``p``.

    Row by row the same as :func:`quantile`: ``v`` is sorted once, and
    the index is the count of cumulative masses below ``tau`` less
    :func:`quantile`'s tolerance.
    """
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    p = require_stochastic_matrix(p)
    v = np.asarray(v, dtype=float)
    if v.shape != p.shape[1:]:
        raise ValueError("values and weights must align")
    return v[_quantile_index(tau, v, p)]


def _quantile_index(tau, v, p):
    """Index into ``v`` of each row's tau-quantile, for a validated ``p``; CSR rows are densified."""
    order = np.argsort(v, kind="stable")
    cum = p[:, order].toarray() if spectral.issparse(p) else p[:, order]
    np.cumsum(cum, axis=1, out=cum)
    return order[np.minimum(np.count_nonzero(cum < tau - _QUANTILE_TOL, axis=1), v.size - 1)]
