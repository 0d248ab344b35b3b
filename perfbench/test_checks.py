"""The benchmark's output checks accept correct outputs and reject corrupted ones.

Run from the repository root: ``python3 -m pytest perfbench/test_checks.py``.
Inputs are CI-scale zoo models solved by the program itself.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tasks  # noqa: E402
from fsdp import cli, ctmdp, dp, koopmans, markov, models  # noqa: E402

TOL = 1e-8


def solved(name):
    built = models.ZOO[name].build(ci_scale=True)
    dominating = "certified" if "exogenous_certificate" in built else None
    return built, dp.solve_hpi(built["mdp"], dominating=dominating)


@pytest.fixture(scope="module")
def savings():
    return solved("optimal_savings")


@pytest.mark.parametrize("name", ["optimal_savings", "inventory_sdd"])
def test_solution_check(name):
    built, result = solved(name)
    mdp = built["mdp"]
    assert tasks._model_check(mdp, result.value, result.policy, TOL) == []
    value = result.value.copy()
    value[len(value) // 2] += 1e-5 * max(1.0, np.max(np.abs(value)))
    assert tasks._model_check(mdp, value, result.policy, TOL)


def test_solution_check_rejects_flipped_policy(savings):
    built, result = savings
    mdp = built["mdp"]
    q = checks.q_table(mdp.reward, mdp.feasible, mdp.kernel, result.value, beta=mdp.beta)
    x = int(np.argmax(mdp.feasible.sum(axis=1)))
    worse = np.flatnonzero(mdp.feasible[x] & (q[x] < q[x, result.policy[x]] - 1e-3))
    policy = result.policy.copy()
    policy[x] = worse[0]
    errors = tasks._model_check(mdp, result.value, policy, TOL)
    assert any("misses the maximum" in e for e in errors)


def test_transition_check(savings):
    built, result = savings
    p_sigma = tasks.policy_rows(built["mdp"], result.policy)
    psi0 = np.full(p_sigma.shape[0], 1.0 / p_sigma.shape[0])
    path = markov.simulate_chain(p_sigma, psi0, 20_000, np.random.default_rng(3))
    assert checks.check_transitions(lambda x: p_sigma[x], path) == []
    broken = path.copy()
    t = 100
    broken[t + 1] = int(np.flatnonzero(p_sigma[broken[t]] == 0)[0])
    assert "impossible transition" in checks.check_transitions(lambda x: p_sigma[x], broken)[0]


def test_transition_check_rejects_biased_frequencies():
    _, p = markov.tauchen(5, rho=0.5, nu=1.0)
    rng = np.random.default_rng(0)
    path = markov.simulate_chain(p, np.full(5, 0.2), 20_000, rng)
    assert checks.check_transitions(lambda x: p[x], path) == []
    # Every step out of state 2 goes to the lowest reachable successor.
    biased = path.copy()
    biased[1:][biased[:-1] == 2] = 0
    assert checks.check_transitions(lambda x: p[x], biased)


def test_holding_time_check():
    spec = models.ZOO["ct_inventory_restock"].build()["jump_spec"]
    start = np.zeros(spec.rates.size)
    start[-1] = 1.0
    path = ctmdp.simulate_jump_chain(spec, start, 20_000.0, np.random.default_rng(5))
    assert checks.check_holding_times(spec.rates, path.jump_times, path.states) == []
    assert checks.check_holding_times(spec.rates, path.jump_times * 1.2, path.states)


def test_model_simulator_check():
    built, result = solved("optimal_investment")
    out = models.simulate_investment(built, result, steps=5_000, seed=2)
    assert tasks._check_model_sim("optimal_investment", built, result, out) == []
    outputs, targets = out
    outputs = outputs.copy()
    outputs[10] = built["y_grid"][(tasks._index_of(outputs[10:11], built["y_grid"])[0] + 7) % 40]
    assert tasks._check_model_sim("optimal_investment", built, result, (outputs, targets))


def test_cli_series_check(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": "optimal_investment", "horizon": 3_000, "seed": 4}))
    overrides = [f"--override={k}={v}" for k, v in models.ZOO["optimal_investment"].ci_overrides.items()]
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path), *overrides]) == 0
    mdp = models.ZOO["optimal_investment"].build(ci_scale=True)["mdp"]
    series = tmp_path / "series.csv"
    assert tasks._check_cli_series(mdp, series, 3_000) == []
    lines = series.read_text().splitlines()
    t, state, reward = lines[500].split(",")
    lines[500] = ",".join([t, str((int(state) + 300) % mdp.n_states), reward])
    series.write_text("\n".join(lines) + "\n")
    assert tasks._check_cli_series(mdp, series, 3_000)


def test_valuation_residuals():
    grid, p = markov.tauchen(60, **tasks.CHAIN)
    beta, theta = tasks.ENTROPIC["beta"], tasks.ENTROPIC["theta"]
    op = koopmans.KoopmansOperator(koopmans.Additive(grid, beta), koopmans.Entropic(theta, p))
    v = koopmans.solve_lifetime_value(op).value
    assert checks.entropic_residual(v, grid, beta, theta, p) < 1e-9
    assert checks.entropic_residual(v + 1e-6, grid, beta, theta, p) > 1e-8
    psi = markov.stationary_distribution(p)
    assert checks.check_stationary(psi, p) == []
    assert checks.check_stationary(np.roll(psi, 1), p)


def test_radius_check(tmp_path):
    matrices = run.spectral_inputs(seed=1)
    matrix = matrices["aperiodic"]
    radius = checks.eig_radius(matrix)
    path, report = tmp_path / "a.json", tmp_path / "report.json"
    path.write_text(json.dumps(matrix.tolist()))
    assert cli.main(["spectral", str(path), "--out", str(report)]) == 0
    assert run.check_spectral_report(report, matrix, radius) == []
    data = json.loads(report.read_text())
    data["spectral_radius"] *= 1.001
    report.write_text(json.dumps(data))
    assert run.check_spectral_report(report, matrix, radius)
    # The signed input is one of the two known faults: the check must reject it.
    assert checks.check_radius(1.0, checks.eig_radius(matrices["signed"]))


def test_bench_table_check(tmp_path):
    header = "solver,m,seconds,iterations,policies_agree"
    rows = [f"{s},{m},0.01,5,true" for s, m in run.BENCH_ROWS]
    table = tmp_path / "bench.csv"
    table.write_text("\n".join([header, *rows]) + "\n")
    assert run.check_bench_table(table) == []
    table.write_text("\n".join([header, *rows[:-1], rows[-1].replace("true", "false")]) + "\n")
    assert run.check_bench_table(table)
