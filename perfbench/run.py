"""fsdp benchmark: five workloads, end-to-end metrics and a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hpi-default --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run repeats whole rounds of its workload until ``--seconds`` have
passed (at least one round) and reports the median over rounds.  Every
CLI command and the chains task run in child processes (``child.py``),
one at a time.  Between them this process checks each solve, simulates
its policy and runs the RDP solves, recording the program's spans as a
child does.  With ``--trace 1`` one untraced round is followed by traced
rounds, and the per-layer metrics are reported instead of the end-to-end
ones.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tasks  # noqa: E402

CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150
THREADS = str(min(2, os.cpu_count() or 1))

# --------------------------------------------------------------------------
# Workload inputs

DEFAULT_MODELS = [
    "optimal_savings_stochastic_returns",
    "optimal_investment",
    "optimal_savings",
    "inventory_sdd",
    "optimal_default",
]
# VFI leaves out stochastic-returns savings (895 sweeps, about 15 s) and
# optimal_investment (548 sweeps, about 7 s) to fit the run-time budget.
# What stays still covers a CSR kernel (optimal_savings), a dense
# state-dependent one (inventory_sdd) and the RDP path (optimal_default).
VFI_MODELS = ["optimal_savings", "inventory_sdd", "optimal_default"]
# firm_hiring at 3 000 states (default: 10 000) keeps one HPI solve near
# 3.5 s and 0.6 GB; its 9e6-nonzero kernel is still the benchmark's
# largest sparse kernel.  Its policy simulation runs as many short calls
# of one simulator, so that the run's simulation speed can be taken from
# the slow tail of the calls (see ``SIM_RATE_QUANTILE``).
HIRING = {"overrides": {"z_size": 30}, "sim_steps": 200_000, "sim_calls": 100}
# This machine's pure-Python speed switches between two levels (about
# 210 000 and 380 000 hiring steps/s) that each last seconds to minutes,
# so the plain ratio of steps to time on hpi-hiring, whose simulation
# fills about 2 s of a run, depends on which level the run meets.  Almost
# every run meets the slower level for a tenth of its calls: their 10th
# percentile is steady, and moves with the program as the ratio does.
SIM_RATE_QUANTILE = 0.1
BENCH_CARDS = [
    "job_search_iid", "job_search_markov", "firm_exit", "inventory_mdp", "inventory_sdd",
    "optimal_savings", "optimal_savings_stochastic_returns", "optimal_investment",
    "firm_hiring", "optimal_default",
]
SOLVE_TOL = 1e-8
POLICY_SIM_STEPS = 50_000
CHAIN_STATES = 1000
CHAIN_SIM_STEPS = 50_000
JUMP_HORIZON = 100_000.0
CLI_SIM_HORIZON = 100_000
CLI_JUMP_HORIZON = 100_000.0
SPECTRAL_N = 600

SPECTRAL_FAULT = (
    "spectral.spectral_radius above n = 512 runs power iteration on |A|: "
    "it reports rho(|A|) for signed matrices and never converges on periodic ones"
)
KNOWN_FAULTS = {
    "fsdp spectral signed": SPECTRAL_FAULT,
    "fsdp spectral period2": SPECTRAL_FAULT,
}


def spectral_inputs(seed):
    """Three 600x600 matrices; only the first depends on the seed."""
    n = SPECTRAL_N
    rng = np.random.default_rng(seed)
    aperiodic = rng.random((n, n)) / n * 0.9 + np.eye(n) * 0.05
    # Signed: 2x2 blocks 0.5 [[1, -1], [1, 1]], radius 1/sqrt(2); |A| has radius 1.
    signed = np.kron(np.eye(n // 2), 0.5 * np.array([[1.0, -1.0], [1.0, 1.0]]))
    # Period 2: bipartite with unequal positive blocks, so power iteration oscillates.
    i, j = np.meshgrid(np.arange(n // 2), np.arange(n // 2), indexing="ij")
    b = (1.0 + (i + 2 * j) % 7) / (4.0 * n)
    c = (1.0 + (3 * i + j) % 5) / (3.0 * n)
    zero = np.zeros_like(b)
    period2 = np.block([[zero, b], [c, zero]])
    return {"aperiodic": aperiodic, "signed": signed, "period2": period2}


# --------------------------------------------------------------------------
# Child processes


class Round:
    """Operations and measurements of one round of a workload."""

    def __init__(self):
        self.errors = {}
        self.wall = 0.0
        self.cli_wall = 0.0
        self.peak_rss_mb = 0.0
        self.groups = defaultdict(float)
        self.sim_steps = 0
        self.sim_rates = []
        self.layers = defaultdict(lambda: [0.0, 0])
        self.counters = defaultdict(float)
        self.startup = 0.0

    def expect(self, *ops):
        for op in ops:
            self.errors.setdefault(op, None)

    def record(self, op, errors):
        self.errors[op] = (self.errors.get(op) or []) + list(errors)

    def fold(self, summary):
        """Add a tracer summary (from a child or from this process)."""
        for group, value in summary["groups"].items():
            self.groups[group] += value
        for name, entry in summary["layers"].items():
            self.layers[name][0] += entry["self"]
            self.layers[name][1] += entry["calls"]
        for name, value in summary["counters"].items():
            self.counters[name] += value
        for op, errors in summary.get("checks", {}).items():
            self.record(op, errors)
        self.sim_steps += summary.get("sim_steps", 0)


class Runner:
    def __init__(self, root, workdir, seed, tracer):
        self.root, self.dir, self.seed, self.tracer = root, workdir, seed, tracer
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = THREADS
        self.count = 0
        self.spans_dir = None

    def path(self, name):
        return self.dir / name

    def config(self, name, **entries):
        path = self.path(f"{name}.json")
        path.write_text(json.dumps(entries), encoding="utf-8")
        return str(path)

    def child(self, rnd, job, cli):
        """Run one child process and fold its measurements into ``rnd``."""
        self.count += 1
        tag = f"job{self.count}"
        job = dict(job, trace=self.tracer.full, result=str(self.path(f"{tag}.result.json")))
        if self.tracer.full:
            job["spans"] = str(self.spans_dir / f"{tag}.jsonl")
        job_path = self.path(f"{tag}.job.json")
        log_path = self.path(f"{tag}.log")
        with open(log_path, "wb") as log:
            job["launch"] = time.time()
            job_path.write_text(json.dumps(job), encoding="utf-8")
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            wall = time.perf_counter() - start
        if cli:
            rnd.cli_wall += wall
        try:
            out = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-600:]
            return proc.returncode, None, tail
        rnd.peak_rss_mb = max(rnd.peak_rss_mb, out["peak_rss_mb"])
        rnd.fold(out)
        if cli:
            rnd.startup += out["startup_s"]
        return proc.returncode, out, ""

    def cli(self, rnd, op, argv, **extra):
        rnd.expect(op)
        code, _, tail = self.child(rnd, dict(extra, argv=[str(a) for a in argv]), cli=True)
        if code != 0:
            rnd.record(op, [f"exit code {code}" + (f": {tail.strip()}" if tail else "")])
        return code == 0

    def post(self, rnd, item):
        """Check a solve and simulate its policy in this process, between children.

        Spreading the simulations over the round, rather than running them
        in one block, averages out the machine's short speed swings.
        """
        ops = [sim_op(item)]
        if item.get("rdp"):
            ops.append(f"rdp_solve {item['model']} {item['rdp']}")
        rnd.expect(item["op"], *ops)
        steps = item.get("sim_steps", POLICY_SIM_STEPS)
        try:
            found, steps, rates = tasks.check_and_simulate(
                item, steps, self.rng, item.get("sim_calls", 1)
            )
        except (OSError, ValueError, KeyError) as exc:
            found, steps, rates = {op: [f"not checked: {exc!r}"] for op in [item["op"], *ops]}, 0, []
        for op, errors in found.items():
            rnd.record(op, errors)
        rnd.sim_steps += steps
        rnd.sim_rates += rates

    def task(self, rnd, name, params, ops):
        rnd.expect(*ops)
        code, out, tail = self.child(rnd, {"task": name, "params": params}, cli=False)
        if out is None:
            for op in ops:
                rnd.record(op, [f"task {name} failed (exit {code}): {tail.strip()}"])


# --------------------------------------------------------------------------
# Workload rounds


def sim_op(item):
    return f"{tasks.SIMULATED_CARDS.get(item['model'], 'simulate_chain')} {item['model']}"


def solve_round(run, rnd, solver, models, extras=None):
    """One ``fsdp solve`` per model, each followed by its check and simulation.

    ``extras`` maps a model to more item fields: ``overrides``,
    ``sim_steps`` and ``sim_calls``.
    """
    for name in models:
        op = f"fsdp solve {name}"
        out = run.path(f"solve-{name}")
        cfg = run.config(f"solve-{name}", model=name, solver=solver, tolerance=SOLVE_TOL, seed=run.seed)
        item = {"op": op, "model": name, "ci": False, "overrides": {},
                "dir": str(out), "tol": SOLVE_TOL, **(extras or {}).get(name, {})}
        argv = ["solve", "--config", cfg, "--out", out]
        argv += [f"--override={k}={json.dumps(v)}" for k, v in item["overrides"].items()]
        if name == "optimal_default":
            item["rdp"] = solver
        if run.cli(rnd, op, argv):
            run.post(rnd, item)
        else:
            rnd.record(sim_op(item), ["not run: the solve failed"])


def round_hpi_hiring(run, rnd):
    solve_round(run, rnd, "hpi", ["firm_hiring"], {"firm_hiring": HIRING})


def round_hpi_default(run, rnd):
    solve_round(run, rnd, "hpi", DEFAULT_MODELS)


def round_vfi_default(run, rnd):
    solve_round(run, rnd, "vfi", VFI_MODELS)


BENCH_ROWS = [("vfi", "n/a"), ("hpi", "n/a"), ("opi", "1"), ("opi", "10"), ("opi", "50"), ("opi", "100")]


def check_bench_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if [(r["solver"], r["m"]) for r in rows] != BENCH_ROWS:
        return [f"bench table rows {[(r['solver'], r['m']) for r in rows]}"]
    errors = []
    for r in rows:
        if not float(r["seconds"]) > 0 or int(r["iterations"]) < 1:
            errors.append(f"bench row {r['solver']} {r['m']}: bad seconds or iterations")
        if r["policies_agree"] != "true":
            errors.append(f"bench row {r['solver']} {r['m']}: policies disagree")
    return errors


def round_bench_ci(run, rnd):
    for card in BENCH_CARDS:
        op = f"fsdp bench {card}"
        out = run.path(f"bench-{card}")
        npz = run.path(f"bench-{card}-hpi.npz")
        cfg = run.config(f"bench-{card}", model=card, seed=run.seed)
        hpi_op = f"hpi in fsdp bench {card}"
        if run.cli(rnd, op, ["bench", "--config", cfg, "--out", out], ci_card=card, capture=str(npz)):
            rnd.record(op, check_bench_table(out / "bench.csv"))
            run.post(rnd, {"op": hpi_op, "model": card, "ci": True, "overrides": {},
                           "npz": str(npz), "tol": SOLVE_TOL})
        else:
            rnd.record(hpi_op, ["not run: the bench failed"])
            rnd.record(sim_op({"model": card}), ["not run: the bench failed"])


def check_spectral_report(path, matrix, radius):
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    errors = checks.check_radius(report["spectral_radius"], radius)
    if np.all(matrix >= 0) and not errors:
        lo, hi = report["radius_lower_bound"], report["radius_upper_bound"]
        if not lo - 1e-12 <= radius <= hi + 1e-12:
            errors.append(f"bracket [{lo}, {hi}] misses the radius {radius}")
        errors += checks.check_radius(report["dominant_value"], radius)
        right = np.asarray(report["dominant_right"])
        gap = float(np.max(np.abs(matrix @ right - radius * right)))
        if gap > 1e-8 * max(1.0, float(np.max(np.abs(right)))):
            errors.append(f"dominant right eigenvector residual {gap:.3e}")
    return errors


def round_chains(run, rnd):
    series_dir, events_dir = run.path("sim-investment"), run.path("sim-ct")
    cfg = run.config("sim-investment", model="optimal_investment", solver="hpi",
                     horizon=CLI_SIM_HORIZON, seed=run.seed)
    run.cli(rnd, "fsdp simulate optimal_investment",
            ["simulate", "--config", cfg, "--out", series_dir], ci_card="optimal_investment")
    cfg = run.config("sim-ct", model="ct_inventory_restock", horizon=CLI_JUMP_HORIZON, seed=run.seed)
    run.cli(rnd, "fsdp simulate ct_inventory_restock",
            ["simulate", "--config", cfg, "--out", events_dir])
    for kind, (matrix, radius) in run.spectral.items():
        op = f"fsdp spectral {kind}"
        report = run.path(f"spectral-{kind}-report.json")
        if run.cli(rnd, op, ["spectral", run.path(f"spectral-{kind}.json"), "--out", report]):
            rnd.record(op, check_spectral_report(report, matrix, radius))
    params = {
        "seed": run.seed, "n_chain": CHAIN_STATES, "sim_steps": CHAIN_SIM_STEPS,
        "jump_horizon": JUMP_HORIZON,
        "cli_series": {"path": str(series_dir / "series.csv"), "horizon": CLI_SIM_HORIZON},
        "cli_events": str(events_dir / "events.csv"),
    }
    run.task(rnd, "chains", params, tasks.CHAINS_OPS)


def prepare_chains(run):
    run.spectral = {}
    for kind, matrix in spectral_inputs(run.seed).items():
        run.path(f"spectral-{kind}.json").write_text(json.dumps(matrix.tolist()), encoding="utf-8")
        run.spectral[kind] = (matrix, checks.eig_radius(matrix))


WORKLOADS = {
    "hpi-hiring": (round_hpi_hiring, None),
    "hpi-default": (round_hpi_default, None),
    "vfi-default": (round_vfi_default, None),
    "bench-ci": (round_bench_ci, None),
    "chains": (round_chains, prepare_chains),
}

# --------------------------------------------------------------------------
# Metrics

END_TO_END = [
    ("setup_s", "s", lambda r: r.groups["setup"]),
    ("solve_s", "s", lambda r: r.groups["solve"]),
    ("sim_steps_per_s", "steps/s", lambda r: r.sim_steps / r.groups["sim"] if r.groups["sim"] else 0.0),
    ("cli_wall_s", "s", lambda r: r.cli_wall),
    ("peak_rss_mb", "MB", lambda r: r.peak_rss_mb),
]

BUILDERS = [
    "job_search_iid", "job_search_markov", "firm_exit", "inventory_mdp", "inventory_sdd",
    "optimal_savings", "optimal_savings_stochastic_returns", "optimal_investment",
    "firm_hiring", "optimal_default", "lake_model", "ct_inventory_restock", "ct_job_search",
]
MODEL_SIMULATORS = [
    "simulate_savings_wealth", "simulate_savings_wealth_stochastic", "simulate_investment",
    "simulate_hiring", "simulate_inventory",
]
CE_CALLS = ["Expectation", "Entropic", "KrepsPorteus", "QuantileCE"]
MODULES = ["models", "dp", "rdp", "spectral", "markov", "ctmdp", "koopmans",
           "fixed_point", "discounting", "cli"]
MB = 2.0**20


def _self(*names):
    return lambda r: sum(r.layers[n][0] for n in names if n in r.layers)


def _calls(*names):
    return lambda r: sum(r.layers[n][1] for n in names if n in r.layers)


def _useful_ratio(r):
    calls = _calls("dp.policy_value")(r)
    return r.counters["distinct_policies"] / calls if calls else 0.0


def _module(mod, index):
    return lambda r: sum(v[index] for k, v in r.layers.items() if k.startswith(mod + "."))


PER_LAYER = [
    ("models.build_s", "s", _self("models.ModelCard.build", *(f"models.{b}" for b in BUILDERS))),
    ("models.kernel_mb", "MB", lambda r: r.counters["kernel_bytes"] / MB),
    ("models.simulate_s", "s", _self(*(f"models.{s}" for s in MODEL_SIMULATORS))),
    ("dp.policy_value_s", "s", _self("dp.policy_value")),
    ("dp.policy_value_calls", "count", _calls("dp.policy_value")),
    ("dp.policy_value_useful_ratio", "ratio", _useful_ratio),
    ("dp.expected_values_s", "s", _self("dp.expected_values")),
    ("dp.expected_values_calls", "count", _calls("dp.expected_values")),
    ("dp.greedy_s", "s", _self("dp.greedy")),
    ("dp.policy_apply_s", "s", _self("dp.policy_apply")),
    ("dp.iterations", "count", lambda r: r.counters["iterations"]),
    ("rdp.policy_value_s", "s", _self("rdp.rdp_policy_value", "rdp.rdp_policy_apply")),
    ("rdp.bellman_s", "s", _self("rdp.rdp_bellman", "rdp.rdp_greedy")),
    ("spectral.radius_s", "s", _self("spectral.spectral_radius")),
    ("spectral.radius_calls", "count", _calls("spectral.spectral_radius")),
    ("markov.simulate_s", "s", _self("markov.simulate_chain")),
    ("ctmdp.simulate_s", "s", _self("ctmdp.simulate_jump_chain")),
    ("cli.simulate_s", "s", _self("cli.cmd_simulate", "cli._simulate_mdp")),
    ("markov.stationary_s", "s", _self("markov.stationary_distribution")),
    ("koopmans.lifetime_value_s", "s", _self(
        "koopmans.solve_lifetime_value", "koopmans.KoopmansOperator.__call__",
        "koopmans.blackwell_contraction_check", "koopmans.epstein_zin_value",
        "koopmans.power_affine_solve", *(f"koopmans.{c}.__call__" for c in CE_CALLS))),
    ("koopmans.ce_calls", "count", _calls(*(f"koopmans.{c}.__call__" for c in CE_CALLS))),
    ("fixed_point.successive_approx_s", "s", _self("fixed_point.successive_approx")),
    ("fixed_point.retained_mb", "MB", lambda r: r.counters["retained_bytes"] / MB),
    ("discounting.price_s", "s", _self(
        "discounting.price_dividend_ratio", "discounting.harrison_kreps_price",
        "discounting.price_ex_dividend", "discounting.price_cum_dividend")),
    ("cli.startup_s", "s", lambda r: r.startup),
    ("cli.write_s", "s", _self("cli.write_table")),
    *((f"{m}.self_s", "s", _module(m, 0)) for m in MODULES),
    *((f"{m}.calls", "count", _module(m, 1)) for m in MODULES),
]


def median_metrics(rounds, table):
    return {
        name: {"value": statistics.median(fn(r) for r in rounds), "unit": unit}
        for name, unit, fn in table
    }


# --------------------------------------------------------------------------
# Runs


def run_workload(root, tracer, workload, seed, seconds, trace):
    round_fn, prepare = WORKLOADS[workload]
    workdir = root / ".perfbench" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Runner(root, workdir, seed, tracer)
        if trace:
            # Spans of the traced rounds are kept after the run, one file per child.
            run.spans_dir = root / ".perfbench" / f"spans-{workload}-seed{seed}"
            shutil.rmtree(run.spans_dir, ignore_errors=True)
            run.spans_dir.mkdir(parents=True)
        if prepare:
            prepare(run)
        plain, traced = [], []
        began = time.perf_counter()
        while True:
            tracing = trace and bool(plain)
            tracer.full = tracing
            tracer.reset()
            run.rng = np.random.default_rng(seed)
            start = time.perf_counter()
            rnd = Round()
            round_fn(run, rnd)
            rnd.fold(tracer.summary())
            rnd.wall = time.perf_counter() - start
            if tracing:
                traced.append(rnd)
                with open(run.spans_dir / f"benchmark-round{len(traced)}.jsonl", "w") as fh:
                    fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
            else:
                plain.append(rnd)
            elapsed = time.perf_counter() - began
            done = elapsed >= seconds and (traced or not trace)
            if done or elapsed + rnd.wall > RUN_BUDGET_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rounds = traced if trace else plain
    attempted = failed = 0
    correct = True
    notes = []
    for rnd in rounds:
        for op, errors in rnd.errors.items():
            attempted += 1
            if errors is None:
                errors = ["operation was not checked"]
            if errors:
                failed += 1
                fault = KNOWN_FAULTS.get(op)
                if fault is None:
                    correct = False
                notes.append(f"{op}: {errors[0]}" + (f" [known fault: {fault}]" if fault else ""))
    if trace:
        metrics = median_metrics(traced, PER_LAYER)
        overhead = statistics.median(r.wall for r in traced) - plain[0].wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = median_metrics(plain, END_TO_END)
        rates = [rate for rnd in plain for rate in rnd.sim_rates]
        if rates:
            # Pooled over the rounds, so the calls spread over the whole run.
            metrics["sim_steps_per_s"]["value"] = float(np.quantile(rates, SIM_RATE_QUANTILE))
    return {
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
        "rounds": len(rounds), "notes": sorted(set(notes)),
    }


def report(workload, result):
    print(f"== {workload}: {result['rounds']} round(s), "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for note in result["notes"]:
        print(f"   failed: {note}")
    for name, metric in result["metrics"].items():
        print(f"   {name:34s} {metric['value']:16.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fsdp" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/fsdp not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import fsdp
    from tracing import Tracer

    # This process checks solves and simulates their policies; it records
    # the program's spans like a child does.
    tracer = Tracer(full=False)
    tracer.instrument(fsdp, everything=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(root, tracer, name, args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    if args.workload == "all":
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    else:
        result = results[args.workload]
        line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
