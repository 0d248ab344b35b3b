"""Batch command-line front end.

Subcommands load a model (zoo name or inline matrices) from a JSON
config, run a solver or simulation, and write bit-exact tables.  Exit
codes: 0 success, 2 configuration error, 3 stability-certificate
failure (the measured spectral radius is printed), 4 convergence
failure.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import ctmdp, dp, markov, models, rdp, spectral
from .errors import ConvergenceError, StabilityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_CONVERGENCE = 4

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "model": {"type": ["string", "object"]},
        "solver": {"enum": ["vfi", "hpi", "opi", "ct_hpi"]},
        "m": {"type": "integer", "minimum": 1},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "horizon": {"type": ["integer", "number"], "minimum": 0},
        "overrides": {"type": "object"},
        "m_grid": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["model"],
    "additionalProperties": True,
}

INLINE_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["mdp"]},
        "reward": {"type": "array"},
        "kernel": {"type": "array"},
        "beta": {"type": "number"},
        "feasible": {"type": "array"},
        "discount_weights": {"type": "array"},
    },
    "required": ["type", "reward", "kernel"],
}


class ConfigError(Exception):
    pass


_IS_TYPE = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, (int, float)) and not isinstance(x, bool),
    "integer": lambda x: (
        isinstance(x, int) and not isinstance(x, bool) or isinstance(x, float) and x.is_integer()
    ),
}


def _schema_error(instance, schema, prop="value", named=False):
    """The first way ``instance`` breaks ``schema``, worded as jsonschema words it, or None.

    Covers the JSON Schema keywords the CLI's schemas use: ``type``,
    ``enum``, ``minimum``, ``exclusiveMinimum``, ``required``,
    ``properties`` and array ``items``.  As in JSON Schema, a bool is
    neither a number nor an integer, and ``1.0`` is an integer.  A bound
    also rejects NaN and the infinities, naming the property ``prop``.
    With ``named``, an error inside a property starts with its name.
    """
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_IS_TYPE[t](instance) for t in types):
        return f"{instance!r} is not of type {', '.join(map(repr, types))}"
    if "enum" in schema and instance not in schema["enum"]:
        return f"{instance!r} is not one of {schema['enum']!r}"
    if _IS_TYPE["number"](instance):
        if ("minimum" in schema or "exclusiveMinimum" in schema) and not math.isfinite(instance):
            return f"{prop} must be finite, not {instance!r}"
        if "minimum" in schema and instance < schema["minimum"]:
            return f"{instance!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            bound = schema["exclusiveMinimum"]
            return f"{instance!r} is less than or equal to the minimum of {bound!r}"
    if isinstance(instance, dict):
        for name in schema.get("required", []):
            if name not in instance:
                return f"{name!r} is a required property"
        for name, sub in schema.get("properties", {}).items():
            if name in instance and (error := _schema_error(instance[name], sub, name)):
                return f"{name}: {error}" if named else error
    if isinstance(instance, list) and "items" in schema:
        for item in instance:
            if error := _schema_error(item, schema["items"], f"{prop} entry"):
                return error
    return None


# CSV field format by column dtype kind; anything else is written as text.
_COLUMN_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


def _csv_column(column):
    return _COLUMN_FORMATS.get(column.dtype.kind, "%s"), column.tolist()


def _json_column(column):
    """``(format, values)`` that print each entry as ``json.dumps`` does."""
    kind, values = column.dtype.kind, column.tolist()
    if kind in "iu":
        return "%d", values
    if kind == "f" and np.isfinite(column).all():
        return "%r", values
    return "%s", [json.dumps(v) for v in values]


def write_table(path, fmt, header, columns):
    """Write a table as CSV (comma, LF, UTF-8) or JSON.

    ``columns`` holds one sequence per header entry.  Each column is
    converted to Python values once and every row is formatted with one
    ``%`` template.  CSV prints integers as ``str(int)`` and floats with
    17 significant digits; JSON is ``json.dumps(rows, indent=1,
    sort_keys=True)`` of the rows as objects, byte for byte.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    convert = _csv_column if fmt == "csv" else _json_column
    specs, values = [], []
    for column in columns:
        spec, column = convert(np.asarray(column))
        specs.append(spec)
        values.append(column)
    if fmt == "csv":
        template = ",".join(specs)
        text = "\n".join([",".join(header), *[template % row for row in zip(*values)]])
    else:
        order = sorted(range(len(header)), key=header.__getitem__)
        fields = [json.dumps(header[i]).replace("%", "%%") + ": " + specs[i] for i in order]
        template = " {\n  " + ",\n  ".join(fields) + "\n }"
        rows = [template % row for row in zip(*(values[i] for i in order))]
        text = "[\n" + ",\n".join(rows) + "\n]" if rows else "[]"
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _write_json(path, obj):
    """``obj`` as indented, key-sorted JSON text, also written to ``path`` unless it is empty."""
    text = json.dumps(obj, indent=1, sort_keys=True, default=lambda x: x.tolist()) + "\n"
    if path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="\n")
    return text


def load_config(path, cli_overrides=None, seed=None):
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if seed is not None and isinstance(raw, dict):
        raw["seed"] = seed
    if error := _schema_error(raw, CONFIG_SCHEMA, named=True):
        raise ConfigError(f"config failed validation: {error}")
    # The schema takes 10.0 as an integer; the solvers count with Python ints.
    for name, sub in CONFIG_SCHEMA["properties"].items():
        if name in raw and sub.get("type") == "integer":
            raw[name] = int(raw[name])
        elif name in raw and sub.get("items", {}).get("type") == "integer":
            raw[name] = [int(item) for item in raw[name]]
    if cli_overrides:
        raw.setdefault("overrides", {}).update(cli_overrides)
    return raw


def parse_cli_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, value = pair.split("=", 1)
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def build_model(config):
    """Resolve the ``model`` entry to a built zoo dictionary."""
    spec_entry = config["model"]
    overrides = config.get("overrides", {})
    if isinstance(spec_entry, str):
        card = models.ZOO.get(spec_entry)
        if card is None:
            known = ", ".join(sorted(models.ZOO))
            raise ConfigError(f"unknown model {spec_entry!r}; known models: {known}")
        try:
            built = card.build(**overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad override for {spec_entry!r}: {exc}") from exc
        built["name"] = spec_entry
        return built
    if error := _schema_error(spec_entry, INLINE_SCHEMA):
        raise ConfigError(f"inline model failed validation: {error}")
    if overrides:
        raise ConfigError(f"an inline model takes no overrides, got {sorted(overrides)}")
    reward = np.asarray(spec_entry["reward"], dtype=float)
    kernel = np.asarray(spec_entry["kernel"], dtype=float)
    feasible = np.asarray(
        spec_entry.get("feasible", np.ones(reward.shape)), dtype=bool
    )
    weights = spec_entry.get("discount_weights")
    weights = None if weights is None else np.asarray(weights, dtype=float)
    try:
        model = dp.MDPModel(feasible, reward, kernel, beta=spec_entry.get("beta"), discount_weights=weights)
    except ValueError as exc:
        raise ConfigError(f"inline model rejected: {exc}") from exc
    return {"mdp": model, "name": "inline"}


def _certificate_details(built):
    if "ctmdp" in built:
        model = built["ctmdp"]
        mdp, theta = ctmdp._uniformized(model)
        return {
            "kind": "continuous-time",
            "discount_rate": model.discount_rate,
            "uniformization_rate": theta,
            "beta": mdp.beta,
        }
    model = built.get("mdp")
    if model is not None and model.state_dependent:
        detail = {"kind": "state-dependent"}
        if "discount_radius" in built:
            detail["exogenous_radius"] = built["discount_radius"]
        return detail
    if model is not None:
        return {"kind": "constant", "beta": model.beta, "modulus": model.beta}
    if "rdp" in built:
        return {"kind": type(built["rdp"].stability).__name__}
    return {"kind": "none"}


def run_solver(built, config):
    solver = config.get("solver", "hpi")
    tolerance = config.get("tolerance", 1e-8)
    m = config.get("m", 50)
    if "ctmdp" in built:
        if solver not in ("ct_hpi", "hpi"):
            raise ConfigError("continuous-time models solve with ct_hpi")
        return ctmdp.ct_hpi(built["ctmdp"])
    if solver == "ct_hpi":
        raise ConfigError("ct_hpi only applies to continuous-time models")
    if "mdp" in built:
        model = built["mdp"]
        if solver == "vfi":
            return dp.solve_vfi(model, tolerance=tolerance)
        if solver == "hpi":
            return dp.solve_hpi(model)
        return dp.solve_opi(model, m=m, tolerance=tolerance)
    if "rdp" in built:
        return rdp.rdp_solve(built["rdp"], algorithm=solver, m=m, tolerance=tolerance)
    raise ConfigError(f"model {built.get('name')} has no solvable component")


def model_summary(built, result):
    """Model-specific scalar diagnostics attached to solve metadata."""
    out = {}
    if built.get("name") == "job_search_iid":
        out["continuation_value"], out["reservation_wage"] = models.job_search_iid_continuation(built)
        out["grid_reservation_wage"] = models.job_search_reservation_wage(built, result)
    elif "unemployed" in built:
        out["reservation_wage"] = models.job_search_reservation_wage(built, result)
    return out


def _command(args):
    """Config, model, output directory and table writer of a solve, simulate or bench run.

    The directory is ``--out``, by default ``fsdp_<command>_output``;
    ``write(name, header, columns)`` puts table ``name`` there in the
    ``--format`` asked for.
    """
    config = load_config(args.config, parse_cli_overrides(args.override), args.seed)
    if isinstance(config["model"], str) and config["model"] in models.ZOO:
        models.ZOO[config["model"]]  # the lookup imports the card's needs, before the timed build
    built = build_model(config)
    out = Path(args.out or f"fsdp_{args.command}_output")

    def write(name, header, columns):
        write_table(out / f"{name}.{args.format}", args.format, header, columns)

    return config, built, out, write


def cmd_solve(args):
    config, built, out, write = _command(args)
    result = run_solver(built, config)
    states = np.arange(result.value.size)
    write("value", ["state", "value"], [states, result.value])
    write("policy", ["state", "action"], [states, result.policy])
    metadata = {
        "model": built.get("name"),
        "solver": result.method,
        "iterations": result.iterations,
        "residual": result.residual,
        "error_bound": result.error_bound,
        "krylov_products": result.products,
        "certificate": _certificate_details(built),
        "seed": config.get("seed"),
    }
    metadata.update(model_summary(built, result))
    _write_json(out / "metadata.json", metadata)
    print(f"solved {built.get('name')}: residual {result.residual:.3e} -> {out}")
    return EXIT_OK


def _simulate_mdp(built, result, config):
    """Series, occupation frequencies and stats of ``config["horizon"]`` steps from state 0."""
    model = built["mdp"]
    steps = config.get("horizon", 1000)
    seed = config.get("seed", 0)
    rng = np.random.default_rng(seed)
    kernel = getattr(model.transitions, "policy_rows", model.transitions.policy_matrix)(result.policy, False)
    reward = dp.policy_reward(model, result.policy)
    path = markov._sample_path(kernel, 0, rng.random(steps))
    reward_path = reward[path]
    series = np.rec.fromarrays([np.arange(path.size), path, reward_path], names="t,state,reward")
    occupation = np.bincount(path, minlength=model.n_states) / path.size
    stats = {
        "mean_reward": float(reward_path.mean()),
        "steps": steps,
        "seed": seed,
    }
    if np.all(reward_path > 0):
        stats["gini"] = models.gini_coefficient(reward_path)
    return series, occupation, stats


def cmd_simulate(args):
    config, built, out, write = _command(args)
    import numpy.random, numpy.rec  # noqa: E401, F401  numpy loads these lazily: not inside the timed simulation
    if "jump_spec" in built:
        name, header, horizon = "events", ["jump_time", "state"], float(config.get("horizon", 50.0))
    elif "mdp" in built:
        name, header, horizon = "series", ["t", "state", "reward"], config.get("horizon", 1000)
        if not float(horizon).is_integer():
            raise ConfigError(f"an MDP horizon is a number of steps, not {horizon!r}")
        horizon = int(horizon)
    else:
        raise ConfigError("simulate requires a discrete MDP model or a jump chain")
    if horizon == 0:
        write(name, header, [[]] * len(header))
        print(f"empty horizon -> header-only {out}")
        return EXIT_OK
    if "jump_spec" in built:
        spec = built["jump_spec"]
        rng = np.random.default_rng(config.get("seed", 0))
        psi0 = np.zeros(spec.rates.size)
        psi0[-1] = 1.0
        try:
            path = ctmdp.simulate_jump_chain(spec, psi0, horizon, rng)
        except ValueError as exc:
            raise ConfigError(f"jump chain rejected: {exc}") from exc
        write(name, header, [path.jump_times, path.states])
        print(f"simulated jump chain with {path.states.size} events -> {out}")
        return EXIT_OK
    result = run_solver(built, config)
    series, occupation, stats = _simulate_mdp(built, result, {**config, "horizon": horizon})
    write(name, header, [series[column] for column in header])
    write("occupation", ["state", "frequency"], [np.arange(occupation.size), occupation])
    _write_json(out / "stats.json", stats)
    print(f"simulated {stats['steps']} steps -> {out}")
    return EXIT_OK


def cmd_bench(args):
    config, built, out, write = _command(args)
    if "mdp" not in built:
        raise ConfigError("bench requires a discrete MDP model")
    config.setdefault("tolerance", 1e-6)
    opi = [("opi", m) for m in config.get("m_grid", [1, 10, 50, 100])]
    rows, policies = [], []
    for solver, m in [("vfi", None), ("hpi", None), *opi]:
        t0 = time.perf_counter()
        result = run_solver(built, {**config, "solver": solver, "m": m})
        rows.append([solver, str(m or "n/a"), time.perf_counter() - t0, result.iterations])
        policies.append(result.policy)
    agree = all(np.array_equal(policies[0], p) for p in policies[1:])
    rows = [row + [str(agree).lower()] for row in rows]
    write("bench", ["solver", "m", "seconds", "iterations", "policies_agree"], list(zip(*rows)))
    print(f"benchmarked {len(rows)} solver runs (agreement: {agree}) -> {out}")
    return EXIT_OK


def cmd_spectral(args):
    try:
        raw = json.loads(Path(args.matrix).read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read matrix file: {exc}") from exc
    if isinstance(raw, dict) and "matrix" not in raw:
        raise ConfigError('matrix file holds an object with no "matrix" key')
    payload = raw["matrix"] if isinstance(raw, dict) else raw
    try:
        matrix = spectral.require_square(payload)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    radius, bound, pair = spectral.spectral_summary(matrix)
    report = {"order": matrix.shape[0], "spectral_radius": radius, "spectral_bound": bound}
    if pair is not None:
        lower, upper = spectral.spectral_radius_bounds(matrix)
        report["radius_lower_bound"] = lower
        report["radius_upper_bound"] = upper
        report["dominant_value"] = pair.value
        report["dominant_right"] = pair.right
        report["dominant_left"] = pair.left
    try:
        ctmdp.require_intensity_matrix(matrix)
        report["is_intensity_matrix"] = True
        report["note"] = "rows sum to zero: valid intensity matrix, spectral bound governs flows"
    except ValueError:
        report["is_intensity_matrix"] = False
    sys.stdout.write(_write_json(args.out, report))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fsdp",
        description="Finite-state dynamic programming batch runner.",
        epilog=(
            "Exit codes: 0 success; 2 configuration error; 3 stability-"
            "certificate failure (measured spectral radius printed); "
            "4 convergence failure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in [
        ("solve", cmd_solve, "solve a model and write value/policy tables"),
        ("simulate", cmd_simulate, "simulate under the optimal policy"),
        ("bench", cmd_bench, "time VFI/HPI/OPI on one model"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--override",
            action="append",
            metavar="KEY=VALUE",
            help="model parameter override (repeatable)",
        )
        p.set_defaults(func=func)

    p_spec = sub.add_parser("spectral", help="spectral report (JSON) for a matrix file")
    p_spec.add_argument("matrix", help="JSON file holding a square matrix")
    p_spec.add_argument("--out", help="output file")
    p_spec.set_defaults(func=cmd_spectral)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        rho = getattr(exc, "spectral_radius", None)
        detail = f" (measured spectral radius {rho:.12g})" if rho is not None else ""
        print(f"stability certificate failed: {exc}{detail}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except ConvergenceError as exc:
        notes = [] if exc.bound is None else [f"error bound {exc.bound:.3e}"]
        if exc.steps:
            notes.append(f"last {exc.measure} " + ", ".join(f"{step:.3e}" for step in exc.steps))
        detail = f" ({'; '.join(notes)})" if notes else ""
        print(f"convergence failure: {exc}{detail}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
