"""Zoo builds in bounded memory, and a discounted CSR kernel that shares its index arrays.

Each builder that writes its kernel or its rewards in place is traced by
``tracemalloc`` at a size of a few MB: the build's peak may exceed what
the built dictionary keeps by at most half.  Before, CSR kernels went
through COO on concatenated int64 arrays and reward tables through
several ``(n, m)`` temporaries, and the peaks were 1.9 to 3.6 times what
was kept at ten times the default sizes.  Since no build now leaves an
``(n, m)`` block free for the solve, HPI writes its action values into
one table of its own.
"""

import tracemalloc

import numpy as np
import pytest

from fsdp import dp, models
from fsdp.models import ZOO

BOUND = 1.5

BUILDS = {
    "job_search_iid": ("job_search_iid", {"n": 500}),
    "job_search_markov": ("job_search_markov", {"n": 500}),
    "job_search_markov separation": ("job_search_markov", {"n": 500, "variant": "separation"}),
    "firm_exit": ("firm_exit", {"n": 500}),
    "optimal_default": ("optimal_default", {"y_size": 20, "b_size": 30}),
    "optimal_savings": ("optimal_savings", {"w_size": 300}),
    "optimal_savings_stochastic_returns": ("optimal_savings_stochastic_returns", {"w_size": 150}),
    "optimal_investment": ("optimal_investment", {"y_size": 200}),
    "firm_hiring": ("firm_hiring", {"l_size": 60, "z_size": 100}),
}


def _traced_build(card, overrides):
    """``(kept, peak)`` bytes of one build, traced from its start."""
    tracemalloc.start()
    try:
        built = card.build(**overrides)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built["mdp"].n_states > 0
    return kept, peak


@pytest.mark.parametrize("case", sorted(BUILDS))
def test_build_peaks_within_half_again_what_it_keeps(case):
    name, overrides = BUILDS[case]
    card = ZOO[name]  # imports the card's scipy modules before tracing
    card.build(ci_scale=True)  # and anything a first build loads
    kept, peak = _traced_build(card, overrides)
    assert kept > 2e6, "the case should keep a few MB"
    assert peak <= BOUND * kept, f"peak {peak / 1e6:.2f} MB against {kept / 1e6:.2f} MB kept"


def test_discounted_csr_kernel_shares_the_index_arrays():
    model = ZOO["firm_exit"].build(ci_scale=True)["mdp"]
    flat = model.transitions
    kernel, scaled = flat.kernel, flat.discounted()
    assert np.shares_memory(scaled.indices, kernel.indices)
    assert np.shares_memory(scaled.indptr, kernel.indptr)
    assert not np.shares_memory(scaled.data, kernel.data)
    product = model.beta * kernel  # what the cache held before: all three arrays copied
    assert scaled.data.tobytes() == product.data.tobytes()
    assert scaled.shape == product.shape and type(scaled) is type(product)


def test_infeasible_rewards_may_be_infinite_and_feasible_ones_may_not():
    # The check reads a mask over the reward table, where it used to copy every feasible reward.
    feasible = np.array([[True, False], [True, True]])
    kernel = np.full((2, 2, 2), 0.5)
    reward = np.array([[1.0, -np.inf], [0.0, np.nan]])
    with pytest.raises(ValueError, match="rewards must be finite on feasible pairs"):
        dp.MDPModel(feasible, reward, kernel, beta=0.9)
    reward[1, 1] = 2.0
    assert dp.MDPModel(feasible, reward, kernel, beta=0.9).n_states == 2


def test_whole_number_float_demand_bound_builds_as_its_integer():
    as_float = models.inventory_mdp(K=5, d_max=4.0)["mdp"]
    as_int = models.inventory_mdp(K=5, d_max=4)["mdp"]
    assert np.array_equal(as_float.reward, as_int.reward)
    assert np.array_equal(as_float.kernel, as_int.kernel)


@pytest.mark.parametrize("name, overrides", [
    ("firm_hiring", {"l_size": 20, "z_size": 10}),  # factored, the action is the next index
    ("inventory_sdd", {}),  # flat and dense
])
def test_hpi_writes_every_improvement_into_one_table(monkeypatch, name, overrides):
    # A fresh (n, m) table per improvement, after the build left no such
    # block free, is faulted in twice: mapped and returned, then taken
    # from the heap.  One table is faulted in once.
    model, tables, select = ZOO[name].build(**overrides)["mdp"], set(), dp._select

    def recording(q, feasible, mode):
        tables.add(q.__array_interface__["data"][0])
        return select(q, feasible, mode)

    monkeypatch.setattr(dp, "_select", recording)
    assert dp.solve_hpi(model).iterations >= 2
    assert len(tables) == 1
