import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fsdp import cli, dp, models, rdp, spectral
from fsdp.errors import SingularJacobianError, SpectralRadiusError, StabilityError
from fsdp.models import ZOO


def run_cli(args):
    return cli.main([str(a) for a in args])


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _run_python(code):
    """Standard output of ``code`` run by a fresh interpreter that imports this ``fsdp``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout


def test_startup_does_not_import_csgraph():
    # markov imports scipy.sparse.csgraph only when a CSR chain is searched.
    code = "import fsdp.cli, sys; print('scipy.sparse.csgraph' in sys.modules)"
    assert _run_python(code).strip() == "False"


LAZY_SCIPY = ("scipy.linalg", "scipy.sparse.linalg")


def test_solve_simulate_and_bench_load_no_scipy_linalg(tmp_path):
    # Only the eigenpairs and the matrix exponential of fsdp spectral need
    # scipy.linalg, and only a sparse stationary law needs scipy.sparse.linalg.
    def command(verb, name, **config):
        if name in ZOO and ZOO[name].ci_overrides:
            config["overrides"] = ZOO[name].ci_overrides
        cfg = write_config(tmp_path, f"{verb}-{name}.json", {"model": name, **config})
        return [verb, str(cfg), "--out", str(tmp_path / f"{verb}-{name}")]

    commands = [
        command("solve", "firm_hiring", solver="hpi"),
        command("solve", "optimal_savings", solver="vfi"),
        command("solve", "job_search_markov", solver="hpi"),
        command("bench", "firm_exit", m_grid=[1, 10]),
        command("simulate", "optimal_investment", solver="hpi", horizon=1000),
        command("simulate", "ct_inventory_restock", horizon=50),
    ]
    for c in commands:
        c.insert(1, "--config")
    matrix = np.array([[0.4, 0.1], [0.7, 0.2]])
    (tmp_path / "m.json").write_text(json.dumps(matrix.tolist()))
    commands.append(["spectral", str(tmp_path / "m.json"), "--out", str(tmp_path / "report.json")])
    code = (
        "import json, sys\n"
        "from fsdp import cli\n"
        f"for command in {commands!r}:\n"
        "    code = cli.main(command)\n"
        f"    print('loaded', json.dumps([command[0], code] + [m in sys.modules for m in {LAZY_SCIPY!r}]))\n"
    )
    lines = _run_python(code).splitlines()
    loaded = [json.loads(line.removeprefix("loaded ")) for line in lines if line.startswith("loaded ")]
    assert loaded[:-1] == [[c[0], 0, False, False] for c in commands[:-1]]
    # fsdp spectral imports scipy.linalg for its eigenpair, and writes the same report.
    assert loaded[-1] == ["spectral", 0, True, False]
    report = json.loads((tmp_path / "report.json").read_text())
    pair = spectral.dominant_eigenpair(matrix)
    assert report["spectral_radius"] == pytest.approx(spectral.spectral_radius(matrix), rel=1e-14)
    assert report["dominant_value"] == pytest.approx(pair.value, rel=1e-14)
    assert report["dominant_right"] == pytest.approx(pair.right.tolist(), rel=1e-14)
    assert report["dominant_left"] == pytest.approx(pair.left.tolist(), rel=1e-14)


def _scipy_modules_after(commands):
    """``[command, exit code, scipy modules loaded]`` after each CLI command, in one fresh process."""
    code = (
        "import json, sys\n"
        "from fsdp import cli\n"
        f"for command in {commands!r}:\n"
        "    code = cli.main(command)\n"
        "    scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    print('loaded', json.dumps([command[0], code, scipy]))\n"
    )
    lines = _run_python(code).splitlines()
    return [json.loads(line.removeprefix("loaded ")) for line in lines if line.startswith("loaded ")]


def test_cards_without_needs_run_on_numpy_alone(tmp_path):
    # Only the cards that build CSR kernels load scipy; every other solve,
    # simulation and bench runs on numpy, and fsdp spectral still works after them.
    commands, kinds = [], []
    for name, card in sorted(ZOO.items()):
        if card.needs:
            continue
        for verb, extra in (("solve", {}), ("simulate", {"horizon": 200}), ("bench", {"m_grid": [1, 10]})):
            config = {"model": name, "overrides": card.ci_overrides, **extra}
            cfg = write_config(tmp_path, f"{verb}-{name}.json", config)
            commands.append([verb, "--config", str(cfg), "--out", str(tmp_path / f"{verb}-{name}")])
            kinds.append(card.kind)
    matrix = np.array([[0.4, 0.1], [0.7, 0.2]])
    (tmp_path / "m.json").write_text(json.dumps(matrix.tolist()))
    commands.append(["spectral", str(tmp_path / "m.json"), "--out", str(tmp_path / "report.json")])
    loaded = _scipy_modules_after(commands)
    assert len(loaded) == len(commands)
    for (verb, code, scipy), kind in zip(loaded[:-1], kinds):
        assert scipy == [], verb
        assert code == 0 if kind == "mdp" else code in (0, 2)
    assert loaded[-1][:2] == ["spectral", 0]
    assert run_cli(["spectral", tmp_path / "m.json", "--out", tmp_path / "here.json"]) == 0
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "here.json").read_bytes()


@pytest.mark.parametrize("name", sorted(ZOO))
def test_needs_name_exactly_the_scipy_modules_a_build_loads(name):
    code = (
        "import json, sys\n"
        "from fsdp import models\n"
        f"models.ZOO.get({name!r}).build(ci_scale=True)\n"  # ZOO[name] would import the needs first
        "public = {'.'.join(m.split('.')[:2]) for m in sys.modules if m.startswith('scipy.')}\n"
        "print(json.dumps(sorted(m for m in public if not m.split('.')[1].startswith('_')) ))\n"
    )
    loaded = set(json.loads(_run_python(code))) - {"scipy.version"}
    assert loaded == set(ZOO[name].needs)


def test_no_module_is_imported_inside_a_build_solve_or_simulation(tmp_path):
    # The benchmark times these three spans; an import inside one would count in it.
    commands = []
    for name in ("optimal_investment", "inventory_sdd", "firm_exit", "job_search_iid"):
        config = {"model": name, "overrides": ZOO.get(name).ci_overrides, "horizon": 50}
        cfg = write_config(tmp_path, f"{name}.json", config)
        commands.append(["simulate", "--config", str(cfg), "--out", str(tmp_path / name)])
    code = (
        "import json, sys\n"
        "from fsdp import cli\n"
        "def watch(f):\n"
        "    def g(*args):\n"
        "        before = set(sys.modules)\n"
        "        out = f(*args)\n"
        "        print('new', json.dumps([f.__name__, sorted(set(sys.modules) - before)]))\n"
        "        return out\n"
        "    return g\n"
        "for name in ('build_model', 'run_solver', '_simulate_mdp'):\n"
        "    setattr(cli, name, watch(getattr(cli, name)))\n"
        f"for command in {commands!r}:\n"
        "    assert cli.main(command) == 0\n"
    )
    lines = [json.loads(line[4:]) for line in _run_python(code).splitlines() if line.startswith("new ")]
    assert lines == [[span, []] for _ in commands for span in ("build_model", "run_solver", "_simulate_mdp")]


def test_zoo_lookup_imports_the_needs(monkeypatch):
    imported = []
    monkeypatch.setattr(models.importlib, "import_module", imported.append)
    assert models.ZOO.get("job_search_iid") is models.ZOO["job_search_iid"]
    assert imported == ["scipy.sparse", "scipy.special"]
    models.ZOO["firm_hiring"]
    assert imported == ["scipy.sparse", "scipy.special"]


def test_needs_are_imported_before_the_build(tmp_path, monkeypatch):
    imported = []
    monkeypatch.setattr(models.importlib, "import_module", imported.append)

    def build(config):
        assert imported == ["scipy.sparse", "scipy.special"]
        return models.ZOO["job_search_iid"].build()

    monkeypatch.setattr(cli, "build_model", build)
    cfg = write_config(tmp_path, "cfg.json", {"model": "job_search_iid"})
    assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 0


NON_FINITE_BOUNDS = {
    "vfi tolerance": ("solve", {"solver": "vfi", "tolerance": float("nan")}, "tolerance"),
    "opi tolerance": ("solve", {"solver": "opi", "m": 5, "tolerance": float("nan")}, "tolerance"),
    "infinite tolerance": ("solve", {"solver": "vfi", "tolerance": float("inf")}, "tolerance"),
    "horizon": ("simulate", {"horizon": float("nan")}, "horizon"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_BOUNDS))
def test_non_finite_bound_is_a_configuration_error(tmp_path, capsys, monkeypatch, case):
    # NaN passes every comparison, so a NaN tolerance used to run VFI to its cap (exit 4).
    verb, extra, name = NON_FINITE_BOUNDS[case]
    monkeypatch.setattr(cli, "build_model", lambda config: pytest.fail("built the model"))
    cfg = write_config(tmp_path, "cfg.json", {"model": "firm_exit", "overrides": {"n": 30}, **extra})
    assert run_cli([verb, "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert f"{name} must be finite" in capsys.readouterr().err
    error = cli._schema_error({"model": "x", **extra}, cli.CONFIG_SCHEMA)
    assert error == f"{name} must be finite, not {extra[name]!r}"


@pytest.mark.parametrize(
    "name, override, message",
    [
        ("optimal_default", "b_size=0", "b_size must be at least 1, got 0"),
        ("job_search_iid", "a=0", "beta-binomial parameter a must be positive, got 0"),
        ("job_search_iid", "b=-1.5", "beta-binomial parameter b must be positive, got -1.5"),
    ],
)
def test_bad_shape_override_names_its_parameter(tmp_path, capsys, name, override, message):
    cfg = write_config(tmp_path, "cfg.json", {"model": name})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["solve", "--config", cfg, "--override", override, "--out", tmp_path / "x"]) == 2
    assert message in capsys.readouterr().err


@pytest.fixture
def iid_config(tmp_path):
    return write_config(
        tmp_path,
        "cfg.json",
        {"model": "job_search_iid", "solver": "vfi", "seed": 7},
    )


INLINE = {"type": "mdp", "reward": [[0.0]], "kernel": [[[1.0]]]}

# (schema, instance) pairs; each invalid one breaks one rule, so the
# first error found is the only one.
SCHEMA_CASES = {
    "zoo name": ("config", {"model": "firm_exit"}),
    "every field": ("config", {
        "model": {"type": "mdp"}, "solver": "opi", "m": 3, "tolerance": 1e-8, "seed": 0,
        "horizon": 2.5, "overrides": {"n": 4}, "m_grid": [1, 10], "extra": None,
    }),
    "integral float": ("config", {"model": "x", "m": 1.0, "seed": 2.0, "m_grid": [3.0]}),
    "not an object": ("config", ["model"]),
    "missing model": ("config", {"solver": "vfi"}),
    "model of a wrong type": ("config", {"model": 3}),
    "unknown solver": ("config", {"model": "x", "solver": "newton"}),
    "bool solver": ("config", {"model": "x", "solver": True}),
    "m below one": ("config", {"model": "x", "m": 0}),
    "fractional m": ("config", {"model": "x", "m": 1.5}),
    "bool m": ("config", {"model": "x", "m": True}),
    "zero tolerance": ("config", {"model": "x", "tolerance": 0}),
    "negative tolerance": ("config", {"model": "x", "tolerance": -1e-9}),
    "string tolerance": ("config", {"model": "x", "tolerance": "1e-8"}),
    "bool seed": ("config", {"model": "x", "seed": False}),
    "negative seed": ("config", {"model": "x", "seed": -2}),
    "negative horizon": ("config", {"model": "x", "horizon": -0.5}),
    "bool horizon": ("config", {"model": "x", "horizon": True}),
    "list overrides": ("config", {"model": "x", "overrides": []}),
    "m_grid not a list": ("config", {"model": "x", "m_grid": 5}),
    "m_grid entry below one": ("config", {"model": "x", "m_grid": [1, 0]}),
    "m_grid bool entry": ("config", {"model": "x", "m_grid": [False]}),
    "inline": ("inline", INLINE),
    "inline with every field": ("inline", {
        **INLINE, "beta": 0.9, "feasible": [[True]], "discount_weights": [[[0.9]]],
    }),
    "inline integer beta": ("inline", {**INLINE, "beta": 1}),
    "inline bool beta": ("inline", {**INLINE, "beta": True}),
    "inline unknown type": ("inline", {**INLINE, "type": "rdp"}),
    "inline without kernel": ("inline", {"type": "mdp", "reward": [[0.0]]}),
    "inline reward not a list": ("inline", {**INLINE, "reward": 1.0}),
    "inline string feasible": ("inline", {**INLINE, "feasible": "all"}),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_schema_check_agrees_with_jsonschema(case):
    jsonschema = pytest.importorskip("jsonschema")
    name, instance = SCHEMA_CASES[case]
    schema = {"config": cli.CONFIG_SCHEMA, "inline": cli.INLINE_SCHEMA}[name]
    errors = [e.message for e in jsonschema.Draft202012Validator(schema).iter_errors(instance)]
    assert cli._schema_error(instance, schema) == (errors[0] if errors else None)
    assert len(errors) <= 1


class TestSolve:
    def test_job_search_reports_reservation_wage(self, tmp_path, iid_config):
        out = tmp_path / "run"
        assert run_cli(["solve", "--config", iid_config, "--out", out]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["reservation_wage"] == pytest.approx(43.4, abs=0.1)
        assert (out / "value.csv").exists()
        assert (out / "policy.csv").exists()

    @pytest.mark.parametrize("name", ["job_search_markov", "ct_job_search"])
    def test_ci_scale_job_search_reports_reservation_wage(self, tmp_path, name):
        card = ZOO[name]
        cfg = write_config(tmp_path, "cfg.json", {"model": name, "overrides": card.ci_overrides})
        out = tmp_path / "run"
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        built = card.build(ci_scale=True)
        result = cli.run_solver(built, {})
        assert meta["reservation_wage"] == models.job_search_reservation_wage(built, result)
        assert np.isfinite(meta["reservation_wage"])

    @pytest.mark.parametrize(
        "name", [name for name, card in ZOO.items() if card.kind in ("mdp", "rdp")]
    )
    def test_metadata_reports_krylov_products(self, tmp_path, name):
        card = ZOO[name]
        cfg = write_config(tmp_path, "cfg.json", {"model": name, "overrides": card.ci_overrides})
        out = tmp_path / "run"
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        # Strict JSON: no NaN or Infinity constants.
        meta = json.loads((out / "metadata.json").read_text(), parse_constant=pytest.fail)
        result = cli.run_solver(card.build(ci_scale=True), {})
        assert meta["krylov_products"] == result.products > 0

    def test_inline_model_solves(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "inline.json",
            {
                "model": {
                    "type": "mdp",
                    "reward": [[1.0, 0.5]],
                    "kernel": [[[1.0], [1.0]]],
                    "beta": 0.9,
                },
                "solver": "hpi",
                "seed": 0,
            },
        )
        out = tmp_path / "inline_run"
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["residual"] < 1e-8
        value = (out / "value.csv").read_text().splitlines()
        assert value[0] == "state,value"
        assert float(value[1].split(",")[1]) == pytest.approx(10.0)

    def test_opi_solver_writes_solve_opi(self, tmp_path):
        card = ZOO["firm_exit"]
        config = {"model": "firm_exit", "solver": "opi", "m": 10, "overrides": card.ci_overrides}
        out = tmp_path / "opi"
        assert run_cli(["solve", "--config", write_config(tmp_path, "cfg.json", config), "--out", out]) == 0
        expected = dp.solve_opi(card.build(ci_scale=True)["mdp"], m=10, tolerance=1e-8)
        table = np.loadtxt(out / "value.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 1], expected.value)
        assert np.array_equal(np.loadtxt(out / "policy.csv", delimiter=",", skiprows=1)[:, 1], expected.policy)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["solver"] == "opi(m=10)"
        assert meta["iterations"] == expected.iterations
        assert meta["error_bound"] == expected.error_bound

    def test_inline_model_with_discount_weights_solves(self, tmp_path):
        inline = {
            "type": "mdp",
            "reward": [[1.0, 0.5], [0.0, 2.0]],
            "kernel": [[[0.7, 0.3], [0.2, 0.8]], [[0.5, 0.5], [0.1, 0.9]]],
            "discount_weights": [[[0.9, 0.95], [0.92, 0.9]], [[0.85, 0.9], [0.93, 0.94]]],
        }
        out = tmp_path / "sdd"
        cfg = write_config(tmp_path, "cfg.json", {"model": inline, "solver": "hpi"})
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        kernel, weights = np.array(inline["kernel"]), np.array(inline["discount_weights"])
        reward = np.array(inline["reward"])
        expected = dp.solve_hpi(
            dp.MDPModel(np.ones((2, 2), bool), reward, kernel, discount_weights=weights)
        )
        assert np.array_equal(np.loadtxt(out / "value.csv", delimiter=",", skiprows=1)[:, 1], expected.value)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["certificate"] == {"kind": "state-dependent"}
        # The values solve v = r_sigma + (w * P)_sigma v for the written policy.
        sigma = np.loadtxt(out / "policy.csv", delimiter=",", skiprows=1)[:, 1].astype(int)
        rows = (weights * kernel)[[0, 1], sigma]
        dense = np.linalg.solve(np.eye(2) - rows, reward[[0, 1], sigma])
        assert np.allclose(expected.value, dense, rtol=0, atol=1e-10)

    def test_unknown_model_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"model": "no_such_model"})
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("job_search_markov", {"variant": "risk_sensitive", "theta": 0}),
            ("job_search_markov", {"variant": "separation", "alpha": 1.5}),
            ("firm_exit", {"n": 0}),
        ],
    )
    def test_bad_override_exits_2(self, tmp_path, capsys, name, overrides):
        cfg = write_config(tmp_path, "bad.json", {"model": name, "overrides": overrides})
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "bad override" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["delta=NaN", "kappa=NaN"])
    def test_non_finite_ct_override_exits_2(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, "ct.json", {"model": "ct_job_search"})
        args = ["solve", "--config", cfg, "--override", override, "--out", tmp_path / "x"]
        assert run_cli(args) == 2
        assert "bad override" in capsys.readouterr().err
        assert not (tmp_path / "x" / "metadata.json").exists()

    def test_ct_certificate_reports_uniformization(self, tmp_path):
        cfg = write_config(tmp_path, "ct.json", {"model": "ct_job_search"})
        out = tmp_path / "ct"
        assert run_cli(["solve", "--config", cfg, "--override", "n=25", "--out", out]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        certificate = meta["certificate"]
        theta, delta = certificate["uniformization_rate"], certificate["discount_rate"]
        assert certificate["kind"] == "continuous-time"
        assert delta == 0.1
        assert theta == pytest.approx(1.05)  # 5% above the offer rate kappa = 1
        assert certificate["beta"] == pytest.approx(theta / (theta + delta), rel=1e-15)
        assert meta["solver"] == "ct-hpi"
        assert 0 < meta["error_bound"] < 1e-9
        assert meta["residual"] < 1e-8

    def test_inline_negative_kernel_exits_2(self, tmp_path, capsys):
        model = {"type": "mdp", "reward": [[0.0], [1.0]], "kernel": [[[1.5, -0.5]], [[0.0, 1.0]]], "beta": 0.9}
        cfg = write_config(tmp_path, "neg.json", {"model": model, "solver": "hpi"})
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "negative" in capsys.readouterr().err

    def test_inline_nan_kernel_exits_2(self, tmp_path, capsys):
        """Python's json reads and writes NaN, so an inline kernel can hold one."""
        model = {"type": "mdp", "reward": [[0.0], [1.0]], "kernel": [[[np.nan, 1.0]], [[0.0, 1.0]]], "beta": 0.9}
        cfg = write_config(tmp_path, "nan.json", {"model": model, "solver": "vfi"})
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"solver": "vfi"})
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "config failed validation: 'model' is a required property" in capsys.readouterr().err

    def test_invalid_inline_model_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"model": {**INLINE, "beta": True}})
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "inline model failed validation: True is not of type 'number'" in capsys.readouterr().err

    def test_unstable_sdd_override_exits_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sdd.json",
            {
                "model": "inventory_sdd",
                "solver": "vfi",
                "seed": 0,
                "overrides": {"K": 10, "n_z": 8, "d_max": 40, "b": 1.2},
            },
        )
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert "spectral radius" in err
        assert "1.2" in err  # measured radius printed

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {
                "model": "job_search_markov",
                "solver": "hpi",
                "seed": 3,
                "overrides": {"n": 40},
            },
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
            outs.append(
                (out / "value.csv").read_bytes()
                + (out / "policy.csv").read_bytes()
                + (out / "metadata.json").read_bytes()
            )
        assert outs[0] == outs[1]

    def test_steep_risk_sensitive_job_search_solves(self, tmp_path):
        # exp(theta v) under one global shift underflows whole rows at theta = 10.
        overrides = {"variant": "risk_sensitive", "theta": 10}
        cfg = write_config(
            tmp_path, "cfg.json", {"model": "job_search_markov", "solver": "hpi", "overrides": overrides}
        )
        out = tmp_path / "r"
        assert run_cli(["solve", "--config", cfg, "--out", out]) == 0
        values = np.loadtxt(out / "value.csv", delimiter=",", skiprows=1)[:, 1]
        assert values.size == 200 and np.all(np.isfinite(values))

    def test_cli_override_changes_build(self, tmp_path):
        cfg = write_config(
            tmp_path, "cfg.json", {"model": "firm_exit", "solver": "hpi", "seed": 0}
        )
        out = tmp_path / "r"
        assert (
            run_cli(
                ["solve", "--config", cfg, "--out", out, "--override", "n=25"]
            )
            == 0
        )
        values = (out / "value.csv").read_text().splitlines()
        assert len(values) == 1 + 25 + 1  # header + active states + exit state


def test_capped_newton_evaluation_prints_residuals_on_exit_4(tmp_path, monkeypatch, capsys):
    config = write_config(
        tmp_path,
        "cfg.json",
        {
            "model": "job_search_markov",
            "solver": "hpi",
            "overrides": {"variant": "risk_sensitive", "n": 30},
        },
    )
    original = rdp.rdp_policy_value
    monkeypatch.setattr(
        rdp, "rdp_policy_value", lambda *args, **kwargs: original(*args, **kwargs, max_iter=1)
    )
    assert run_cli(["solve", "--config", config, "--out", tmp_path / "out"]) == 4
    err = capsys.readouterr().err
    assert "iteration hit its cap of 1" in err and "last residuals " in err


@pytest.mark.parametrize(
    "error, code, message",
    [
        (SingularJacobianError("I - J is singular"), 4, "convergence failure: I - J is singular"),
        (
            SpectralRadiusError("radius too large", spectral_radius=1.25),
            3,
            "radius too large (measured spectral radius 1.25)",
        ),
        (StabilityError("no certificate"), 3, "stability certificate failed: no certificate"),
    ],
    ids=["singular-jacobian", "spectral-radius", "stability"],
)
def test_exception_class_sets_the_exit_code(tmp_path, monkeypatch, capsys, error, code, message):
    def fail(built, config):
        raise error

    monkeypatch.setattr(cli, "run_solver", fail)
    cfg = write_config(tmp_path, "cfg.json", {"model": "job_search_iid"})
    assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "simulate", "bench"])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_every_zoo_card_exits_0_or_2(tmp_path, name, command):
    cfg = write_config(tmp_path, "cfg.json", {"model": name, "overrides": ZOO[name].ci_overrides})
    assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) in (0, 2)


ZERO_SIZES = [
    (name, key)
    for name, card in sorted(ZOO.items())
    for key, parameter in inspect.signature(card.builder).parameters.items()
    if type(parameter.default) is int
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # say, a beta-binomial pmf with a = 0
@pytest.mark.parametrize("name, key", ZERO_SIZES)
def test_every_integer_parameter_at_zero_exits_0_or_2(tmp_path, name, key):
    overrides = {**ZOO[name].ci_overrides, key: 0}
    cfg = write_config(tmp_path, "cfg.json", {"model": name, "overrides": overrides})
    assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) in (0, 2)


@pytest.mark.parametrize(
    "name, key",
    [
        ("optimal_savings", "w_size"),
        ("optimal_savings_stochastic_returns", "w_size"),
        ("optimal_savings_stochastic_returns", "eta_size"),
        ("optimal_investment", "y_size"),
        ("firm_hiring", "l_size"),
    ],
)
def test_model_without_states_exits_2(tmp_path, capsys, name, key):
    cfg = write_config(tmp_path, "cfg.json", {"model": name, "overrides": {key: 0}})
    assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 2
    assert "a model needs at least one state" in capsys.readouterr().err


def _counted(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls; return the count list."""
    fn, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestBenchmarkSeams:
    """The benchmark times and captures the CLI by replacing module globals."""

    def test_bench_calls_solve_hpi_once_through_dp(self, tmp_path, monkeypatch):
        # perfbench's check_bench_table expects these six rows, all agreeing.
        calls = _counted(monkeypatch, dp, "solve_hpi")
        cfg = write_config(tmp_path, "bench.json", {"model": "firm_exit", "overrides": {"n": 30}})
        assert run_cli(["bench", "--config", cfg, "--out", tmp_path / "b"]) == 0
        assert calls == ["solve_hpi"]
        lines = (tmp_path / "b" / "bench.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        want = [("vfi", "n/a"), ("hpi", "n/a"), ("opi", "1"), ("opi", "10"), ("opi", "50"), ("opi", "100")]
        assert lines[0] == "solver,m,seconds,iterations,policies_agree"
        assert [(row[0], row[1]) for row in rows] == want
        assert [row[4] for row in rows] == ["true"] * 6

    @pytest.mark.parametrize("command", ["solve", "simulate", "bench"])
    def test_commands_run_through_module_globals(self, tmp_path, monkeypatch, command):
        dispatched = _counted(monkeypatch, cli, f"cmd_{command}")
        built = _counted(monkeypatch, cli, "build_model")
        written = _counted(monkeypatch, cli, "write_table")
        simulated = _counted(monkeypatch, cli, "_simulate_mdp")
        config = {"model": "firm_exit", "overrides": {"n": 30}, "horizon": 50, "m_grid": [1]}
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run_cli([command, "--config", cfg, "--out", tmp_path / "x"]) == 0
        assert dispatched == [f"cmd_{command}"]
        assert len(built) == 1
        assert len(written) == {"solve": 2, "simulate": 2, "bench": 1}[command]
        assert len(simulated) == (command == "simulate")


class TestSimulate:
    @pytest.mark.parametrize("horizon", [2.5, 0.5, float("nan"), float("inf")])
    def test_fractional_mdp_horizon_exits_2(self, tmp_path, capsys, monkeypatch, horizon):
        monkeypatch.setattr(cli, "run_solver", lambda *args: pytest.fail("solved the model"))
        config = {"model": "firm_exit", "overrides": {"n": 30}, "horizon": horizon}
        cfg = write_config(tmp_path, "sim.json", config)
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "horizon" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
    def test_jump_chain_horizon_must_be_finite(self, tmp_path, capsys, horizon):
        # Python's json reads NaN and Infinity, and no jump time is ever past them.
        # The config schema rejects them before the chain is built.
        cfg = write_config(tmp_path, "sim.json", {"model": "ct_inventory_restock", "horizon": horizon})
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "horizon must be finite" in capsys.readouterr().err

    def test_whole_float_mdp_horizon_is_its_step_count(self, tmp_path):
        outputs = []
        for horizon in (100, 100.0):
            config = {"model": "firm_exit", "overrides": {"n": 30}, "horizon": horizon, "seed": 2}
            cfg = write_config(tmp_path, "sim.json", config)
            out = tmp_path / repr(horizon)
            assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
            outputs.append([(out / f).read_bytes() for f in ("series.csv", "occupation.csv", "stats.json")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == 1 + 101

    def test_inventory_series_is_lumpy(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {
                "model": "inventory_mdp",
                "solver": "hpi",
                "seed": 11,
                "horizon": 400,
                "overrides": {"K": 25, "d_max": 60},
            },
        )
        out = tmp_path / "sim"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "t,state,reward"
        states = np.array([int(l.split(",")[1]) for l in lines[1:]])
        drops = np.diff(states)
        assert (drops > 5).sum() > 5  # occasional large restocks
        stats = json.loads((out / "stats.json").read_text())
        assert stats["steps"] == 400

    def test_non_finite_jump_rate_exits_2(self, tmp_path, capsys):
        """A NaN rate would never pass the horizon; the build rejects it."""
        cfg = write_config(tmp_path, "jump.json", {"model": "ct_inventory_restock", "horizon": 50})
        args = ["simulate", "--config", cfg, "--override", "rate=NaN", "--out", tmp_path / "x"]
        assert run_cli(args) == 2
        assert "bad override" in capsys.readouterr().err

    def test_simulator_rate_check_exits_2(self, tmp_path, capsys, monkeypatch):
        """A spec that bypasses the build's checks is rejected by the simulator."""
        built = ZOO["ct_inventory_restock"].build()
        rates = built["jump_spec"].rates.copy()
        rates[0] = np.nan
        built["jump_spec"] = built["jump_spec"]._replace(rates=rates)
        monkeypatch.setattr(cli, "build_model", lambda config: built)
        cfg = write_config(tmp_path, "jump.json", {"model": "ct_inventory_restock", "horizon": 50})
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "finite and strictly positive" in capsys.readouterr().err

    def test_jump_chain_event_file(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "jump.json",
            {"model": "ct_inventory_restock", "seed": 5, "horizon": 50},
        )
        out = tmp_path / "jump"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "jump_time,state"
        times = np.array([float(l.split(",")[0]) for l in lines[1:]])
        assert times[0] == 0.0
        assert np.all(np.diff(times) > 0)
        assert times[-1] > 50.0

    def test_zero_horizon_header_only(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "zero.json",
            {"model": "ct_inventory_restock", "seed": 5, "horizon": 0},
        )
        out = tmp_path / "zero"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        assert (out / "events.csv").read_text() == "jump_time,state\n"

    def test_simulation_deterministic_given_seed(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "sim.json",
            {
                "model": "inventory_mdp",
                "solver": "hpi",
                "seed": 2,
                "horizon": 100,
                "overrides": {"K": 15, "d_max": 40},
            },
        )
        blobs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
            blobs.append((out / "series.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("horizon", [0, 100])
    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("ct_job_search", ZOO["ct_job_search"].ci_overrides),
            ("job_search_markov", {"n": 30, "variant": "quantile"}),
            ("job_search_markov", {"n": 30, "variant": "risk_sensitive"}),
        ],
    )
    def test_model_without_discrete_mdp_exits_2_before_solving(
        self, tmp_path, capsys, monkeypatch, name, overrides, horizon
    ):
        monkeypatch.setattr(cli, "run_solver", lambda *args: pytest.fail("solved the model"))
        config = {"model": name, "overrides": overrides, "horizon": horizon}
        cfg = write_config(tmp_path, "sim.json", config)
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "simulate requires a discrete MDP model" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestBench:
    def test_bench_table_with_policy_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "bench.json",
            {
                "model": "optimal_savings",
                "seed": 0,
                "m_grid": [1, 20, 60],
                "overrides": {"w_size": 40, "y_size": 4},
            },
        )
        out = tmp_path / "bench"
        assert run_cli(["bench", "--config", cfg, "--out", out]) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "solver,m,seconds,iterations,policies_agree"
        assert lines[1].startswith("vfi,n/a,")
        assert all(line.endswith("true") for line in lines[1:])
        assert len(lines) == 1 + 2 + 3  # vfi, hpi, three opi rows

    def test_json_and_csv_numbers_match(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "bench.json",
            {
                "model": "inventory_mdp",
                "seed": 0,
                "m_grid": [5],
                "overrides": {"K": 12, "d_max": 40},
            },
        )
        out_csv, out_json = tmp_path / "c", tmp_path / "j"
        assert run_cli(["bench", "--config", cfg, "--out", out_csv]) == 0
        assert run_cli(
            ["bench", "--config", cfg, "--out", out_json, "--format", "json"]
        ) == 0
        csv_lines = (out_csv / "bench.csv").read_text().splitlines()[1:]
        json_rows = json.loads((out_json / "bench.json").read_text())
        for line, row in zip(csv_lines, json_rows):
            fields = line.split(",")
            assert int(fields[3]) == row["iterations"]
            assert fields[0] == row["solver"]


class TestSpectral:
    def test_reference_matrix_report(self, tmp_path, capsys):
        matrix_file = tmp_path / "m.json"
        matrix_file.write_text(json.dumps({"matrix": [[0.4, 0.1], [0.7, 0.2]]}))
        assert run_cli(["spectral", matrix_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral_radius"] == pytest.approx(0.5828, abs=1e-3)
        assert report["radius_lower_bound"] == pytest.approx(0.5)
        assert report["radius_upper_bound"] == pytest.approx(0.9)

    def test_identity_report(self, tmp_path, capsys):
        matrix_file = tmp_path / "id.json"
        matrix_file.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
        assert run_cli(["spectral", matrix_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral_radius"] == pytest.approx(1.0)
        assert (report["radius_lower_bound"], report["radius_upper_bound"]) == (1.0, 1.0)

    def test_intensity_matrix_note(self, tmp_path, capsys):
        matrix_file = tmp_path / "q.json"
        matrix_file.write_text(json.dumps([[-0.3, 0.3], [0.1, -0.1]]))
        assert run_cli(["spectral", matrix_file, "--out", tmp_path / "rep.json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_intensity_matrix"] is True
        assert report["spectral_bound"] == pytest.approx(0.0, abs=1e-12)
        assert "note" in report

    def test_bad_matrix_exits_2(self, tmp_path):
        matrix_file = tmp_path / "bad.json"
        matrix_file.write_text(json.dumps([[1.0, 2.0]]))
        assert run_cli(["spectral", matrix_file]) == 2

    def test_object_without_matrix_key_exits_2(self, tmp_path, capsys):
        matrix_file = tmp_path / "rows.json"
        matrix_file.write_text(json.dumps({"rows": [[0.5]]}))
        assert run_cli(["spectral", matrix_file]) == 2
        assert '"matrix" key' in capsys.readouterr().err

    def test_period_two_matrix_above_512_states(self, tmp_path, capsys):
        """Bipartite with positive blocks: radius sqrt(rho(BC)), and -rho is an eigenvalue too."""
        rng = np.random.default_rng(0)
        b, c = rng.random((300, 300)) / 600, rng.random((300, 300)) / 600
        zero = np.zeros((300, 300))
        matrix = np.block([[zero, b], [c, zero]])
        radius = np.sqrt(np.max(np.abs(np.linalg.eigvals(b @ c))))
        matrix_file = tmp_path / "period2.json"
        matrix_file.write_text(json.dumps(matrix.tolist()))
        assert run_cli(["spectral", matrix_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral_radius"] == pytest.approx(radius, rel=1e-12)
        assert report["dominant_value"] == pytest.approx(radius, rel=1e-12)
        right = np.asarray(report["dominant_right"])
        assert np.max(np.abs(matrix @ right - radius * right)) <= 1e-10 * np.max(right)

    @staticmethod
    def _inputs():
        """600-state aperiodic, signed (rotation blocks) and period-2 matrices."""
        n = 600
        aperiodic = np.random.default_rng(1).random((n, n)) / n * 0.9 + np.eye(n) * 0.05
        signed = np.kron(np.eye(n // 2), 0.5 * np.array([[1.0, -1.0], [1.0, 1.0]]))
        i, j = np.meshgrid(np.arange(n // 2), np.arange(n // 2), indexing="ij")
        b, c = (1.0 + (i + 2 * j) % 7) / (4.0 * n), (1.0 + (3 * i + j) % 5) / (3.0 * n)
        zero = np.zeros_like(b)
        period2 = np.block([[zero, b], [c, zero]])
        return {"aperiodic": aperiodic, "signed": signed, "period2": period2}

    @pytest.mark.parametrize("name", ["aperiodic", "signed", "period2"])
    def test_one_decomposition_per_matrix(self, name, tmp_path, capsys, monkeypatch):
        matrix = self._inputs()[name]
        # The report as three decompositions gave it: eigvals twice, eig once.
        values = np.linalg.eigvals(matrix)
        expected = {
            "spectral_radius": np.max(np.abs(values)),
            "spectral_bound": np.max(values.real),
        }
        if name != "signed":
            pair = spectral.dominant_eigenpair(matrix)
            expected.update(
                dominant_value=pair.value, dominant_right=pair.right, dominant_left=pair.left
            )
        calls = []
        for module, attr in ((np.linalg, "eigvals"), (spectral, "eig")):
            original = getattr(module, attr)
            monkeypatch.setattr(
                module, attr, lambda *a, _f=original, _n=attr, **k: calls.append(_n) or _f(*a, **k)
            )
        matrix_file = tmp_path / f"{name}.json"
        matrix_file.write_text(json.dumps(matrix.tolist()))
        assert run_cli(["spectral", matrix_file]) == 0
        assert calls == (["eigvals"] if name == "signed" else ["eig"])
        report = json.loads(capsys.readouterr().out)
        assert ("dominant_value" in report) == (name != "signed")
        for key, want in expected.items():
            got = np.asarray(report[key])
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want))), key

    def test_seventeen_digit_round_trip(self, tmp_path, capsys):
        matrix_file = tmp_path / "m.json"
        value = 1.0 / 3.0
        matrix_file.write_text(json.dumps([[value]]))
        assert run_cli(["spectral", matrix_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral_radius"] == value


# ---------------------------------------------------------------------------
# The table writer against the per-value writer it replaced


def _oracle_format_number(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _oracle_jsonify(obj):
    if isinstance(obj, dict):
        return {k: _oracle_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_oracle_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(_oracle_format_number(obj))
    return obj


def _oracle_write_table(path, fmt, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(
                ",".join(_oracle_format_number(v) if not isinstance(v, str) else v for v in row)
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    else:
        payload = [dict(zip(header, row)) for row in rows]
        path.write_text(
            json.dumps(_oracle_jsonify(payload), indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
            newline="\n",
        )


class TestWriteTable:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mixed_columns_match_oracle(self, tmp_path, fmt):
        columns = [
            ["vfi", "hpi", "opi", "opi"],
            np.array([3, -1, 0, 2**40]),
            np.array([1 / 3, -0.0, 1e-300, 123456789.125]),
            [0.5, 2.0, 5e-324, 1e17],
            np.array([True, False, True, True]),
        ]
        header = ["solver", "n", "seconds", "x", "flag"]
        cli.write_table(tmp_path / "new", fmt, header, columns)
        _oracle_write_table(tmp_path / "old", fmt, header, list(zip(*columns)))
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "name, horizon", [("optimal_investment", 1000), ("optimal_investment", 0), ("ct_inventory_restock", 50)]
    )
    def test_simulate_files_match_oracle(self, tmp_path, monkeypatch, fmt, name, horizon):
        config = write_config(tmp_path, "sim.json", {"model": name, "seed": 0, "horizon": horizon})
        overrides = [f"--override={k}={v}" for k, v in ZOO[name].ci_overrides.items()]
        args = ["simulate", "--config", config, "--format", fmt, *overrides]
        assert run_cli([*args, "--out", tmp_path / "new"]) == 0
        monkeypatch.setattr(
            cli,
            "write_table",
            lambda path, fmt, header, columns: _oracle_write_table(
                path, fmt, header, list(zip(*columns))
            ),
        )
        assert run_cli([*args, "--out", tmp_path / "old"]) == 0
        files = sorted(p.name for p in (tmp_path / "new").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "old").iterdir())
        assert {"series", "events"} & {Path(f).stem for f in files}
        for file in files:
            assert (tmp_path / "new" / file).read_bytes() == (tmp_path / "old" / file).read_bytes()


def test_write_json_writes_numpy_values_as_their_python_values(tmp_path):
    payload = {
        "f": np.float64(1 / 3), "g": np.float32(0.1), "i": np.int64(-7), "b": np.bool_(True),
        "a": np.array([[1.5, np.inf], [np.nan, -0.0]]), "t": (np.int32(2), 0.25), "n": None, "s": "x",
    }
    plain = {
        "f": 1 / 3, "g": float(np.float32(0.1)), "i": -7, "b": True,
        "a": [[1.5, float("inf")], [float("nan"), -0.0]], "t": [2, 0.25], "n": None, "s": "x",
    }
    text = cli._write_json(tmp_path / "out.json", payload)
    assert text == json.dumps(plain, indent=1, sort_keys=True) + "\n"
    assert (tmp_path / "out.json").read_text(encoding="utf-8") == text


def _outputs(out):
    """Every file under ``out`` by name, with a bench table's wall-time column dropped."""
    files = {}
    for path in sorted(out.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.name == "bench.csv":
            text = "\n".join(",".join(row.split(",")[:2] + row.split(",")[3:]) for row in text.splitlines())
        files[path.name] = text
    return files


WHOLE_FLOATS = {
    "m": ("solve", {"solver": "opi", "m": 10.0}, {"solver": "opi", "m": 10}),
    "m one": ("solve", {"solver": "opi", "m": 1.0}, {"solver": "opi", "m": 1}),
    "seed": ("simulate", {"seed": 1.0, "horizon": 50}, {"seed": 1, "horizon": 50}),
    "m_grid": ("bench", {"m_grid": [1.0, 10.0]}, {"m_grid": [1, 10]}),
}


@pytest.mark.parametrize("case", sorted(WHOLE_FLOATS))
def test_whole_number_floats_run_as_integers(tmp_path, capsys, case):
    # The schema takes 10.0 as an integer; range(10.0) and default_rng(1.0) used to raise TypeError.
    verb, floats, ints = WHOLE_FLOATS[case]
    outputs = []
    for name, extra in (("float", floats), ("int", ints)):
        cfg = write_config(tmp_path, f"{name}.json", {"model": "firm_exit", "overrides": {"n": 30}, **extra})
        assert run_cli([verb, "--config", cfg, "--out", tmp_path / name]) == 0
        outputs.append(_outputs(tmp_path / name))
    assert outputs[0] == outputs[1]
    if case == "m one":
        assert json.loads(outputs[0]["metadata.json"])["solver"] == "opi(m=1)"
    assert capsys.readouterr().err == ""


def test_load_config_makes_integer_fields_python_ints(tmp_path):
    raw = {"model": "firm_exit", "m": 3.0, "seed": 2.0, "m_grid": [1.0, 4], "horizon": 2.0, "tolerance": 1.0}
    config = cli.load_config(write_config(tmp_path, "cfg.json", raw))
    assert [type(config[k]) for k in ("m", "seed")] == [int, int]
    assert config["m_grid"] == [1, 4] and all(type(m) is int for m in config["m_grid"])
    # A horizon may be a jump chain's time and a tolerance is a float: both stay as given.
    assert type(config["horizon"]) is float and type(config["tolerance"]) is float


class TestInlineModelInputs:
    MODEL = {"type": "mdp", "reward": [[1.0, 0.5]], "kernel": [[[1.0], [1.0]]], "beta": 0.9}

    def test_beta_beside_discount_weights_exits_2(self, tmp_path, capsys):
        model = {**self.MODEL, "discount_weights": [[[0.9], [0.9]]]}
        cfg = write_config(tmp_path, "cfg.json", {"model": model})
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert "give either beta or discount_weights, not both" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("where", ["config", "command line"])
    def test_overrides_on_an_inline_model_exit_2(self, tmp_path, capsys, where):
        # --override beta=0.5 used to be dropped, and the model solved with beta 0.9.
        config = {"model": self.MODEL, **({"overrides": {"beta": 0.5}} if where == "config" else {})}
        extra = ["--override", "beta=0.5"] if where == "command line" else []
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run_cli(["solve", "--config", cfg, *extra, "--out", tmp_path / "x"]) == 2
        assert "an inline model takes no overrides, got ['beta']" in capsys.readouterr().err

    def test_empty_overrides_are_no_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"model": self.MODEL, "overrides": {}})
        assert run_cli(["solve", "--config", cfg, "--out", tmp_path / "x"]) == 0
        value = np.loadtxt(tmp_path / "x" / "value.csv", delimiter=",", skiprows=1)
        assert value[1] == pytest.approx(10.0)


class TestConfigErrors:
    def run(self, tmp_path, capsys, *args, config=None):
        cfg = write_config(tmp_path, "cfg.json", config or {"model": "firm_exit", "overrides": {"n": 30}})
        code = run_cli(["solve", "--config", cfg, *args, "--out", tmp_path / "x"])
        return code, capsys.readouterr().err

    def test_command_line_seed_replaces_the_config_seed(self, tmp_path):
        config = {"model": "firm_exit", "overrides": {"n": 30}, "seed": 7, "horizon": 50}
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run_cli(["simulate", "--config", cfg, "--seed", "3", "--out", tmp_path / "cli"]) == 0
        cfg = write_config(tmp_path, "cfg3.json", {**config, "seed": 3})
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "file"]) == 0
        assert json.loads((tmp_path / "cli" / "stats.json").read_text())["seed"] == 3
        assert _outputs(tmp_path / "cli") == _outputs(tmp_path / "file")

    @pytest.mark.parametrize("where", ["config", "command line"])
    def test_a_negative_seed_exits_2(self, tmp_path, capsys, where):
        # It passed the schema and ended in a np.random.default_rng traceback (exit 1).
        extra = ["--seed", "-2"] if where == "command line" else []
        config = {"model": "firm_exit", "overrides": {"n": 30}, "horizon": 20, "seed": 2 if extra else -2}
        cfg = write_config(tmp_path, "cfg.json", config)
        assert run_cli(["simulate", "--config", cfg, *extra, "--out", tmp_path / "x"]) == 2
        assert "config failed validation: seed: -2 is less than the minimum of 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name", ["optimal_investment", "firm_hiring"])
    @pytest.mark.parametrize("r", ["-1", "0"])
    def test_a_rate_at_or_below_zero_exits_2(self, tmp_path, capsys, name, r):
        # r = -1 divided by zero (exit 1); r = 0 made beta = 1, refused without naming r.
        config = {"model": name, "overrides": ZOO[name].ci_overrides}
        code, err = self.run(tmp_path, capsys, "--override", f"r={r}", config=config)
        assert code == 2
        assert f"bad override for {name!r}: interest rate r must be positive, got {r}" in err

    def test_override_values_that_are_not_json_stay_text(self, tmp_path, capsys):
        assert cli.parse_cli_overrides(["n=60", "kind=abc", "grid=[1, 2]", "eq=a=b"]) == {
            "n": 60, "kind": "abc", "grid": [1, 2], "eq": "a=b",
        }
        code, err = self.run(tmp_path, capsys, "--override", "n=abc")
        assert code == 2
        assert "bad override for 'firm_exit'" in err

    def test_override_without_equals_exits_2(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, "--override", "n60")
        assert code == 2
        assert "override 'n60' is not of the form key=value" in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run_cli(["solve", "--config", tmp_path / "none.json", "--out", tmp_path / "x"]) == 2
        assert f"config file not found: {tmp_path / 'none.json'}" in capsys.readouterr().err

    def test_invalid_json_config_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text('{"model": ', encoding="utf-8")
        assert run_cli(["solve", "--config", tmp_path / "bad.json", "--out", tmp_path / "x"]) == 2
        assert "config is not valid JSON: Expecting value" in capsys.readouterr().err

    def test_ct_hpi_on_a_discrete_card_exits_2(self, tmp_path, capsys):
        config = {"model": "firm_exit", "overrides": {"n": 30}, "solver": "ct_hpi"}
        code, err = self.run(tmp_path, capsys, config=config)
        assert code == 2
        assert "ct_hpi only applies to continuous-time models" in err

    def test_vfi_on_a_continuous_time_card_exits_2(self, tmp_path, capsys):
        config = {"model": "ct_job_search", "overrides": {"n": 25}, "solver": "vfi"}
        code, err = self.run(tmp_path, capsys, config=config)
        assert code == 2
        assert "continuous-time models solve with ct_hpi" in err

    @pytest.mark.parametrize("content", [None, "[[0.5, "])
    def test_unreadable_matrix_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "m.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        assert run_cli(["spectral", path, "--out", tmp_path / "r.json"]) == 2
        assert "configuration error: cannot read matrix file" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


def test_spectral_takes_no_format(tmp_path, capsys):
    # The flag was parsed and ignored: --format csv wrote JSON into r.csv.
    (tmp_path / "m.json").write_text("[[0.5]]", encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        run_cli(["spectral", tmp_path / "m.json", "--format", "csv", "--out", tmp_path / "r.csv"])
    assert info.value.code == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


BUILDER_INPUTS = {
    # d_max served as an array index (IndexError, exit 1).
    "inventory_mdp d_max=0.5": ("solve", "inventory_mdp", "d_max=0.5", "d_max must be a nonnegative integer, got 0.5"),
    "inventory_mdp d_max=-0.5": ("solve", "inventory_mdp", "d_max=-0.5", "d_max must be a nonnegative integer, got -0.5"),
    "inventory_sdd d_max=1.5": ("solve", "inventory_sdd", "d_max=1.5", "d_max must be a nonnegative integer, got 1.5"),
    # capacity = -1 indexed an empty jump matrix (IndexError, exit 1).
    "ct_inventory_restock capacity=-1": (
        "simulate", "ct_inventory_restock", "capacity=-1", "capacity must be a nonnegative integer, got -1"
    ),
    # A non-finite price or bond bound built a model from inf * 0 and solved it (exit 0).
    "optimal_default q_price=inf": ("solve", "optimal_default", "q_price=Infinity", "q_price must be finite, got inf"),
    "optimal_default b_min=-inf": ("solve", "optimal_default", "b_min=-Infinity", "b_min must be finite, got -inf"),
    "optimal_default b_max=inf": ("solve", "optimal_default", "b_max=Infinity", "b_max must be finite, got inf"),
    "optimal_default b_max=nan": ("solve", "optimal_default", "b_max=NaN", "b_max must be finite, got nan"),
}


@pytest.mark.parametrize("case", sorted(BUILDER_INPUTS))
def test_builder_input_out_of_its_domain_exits_2_and_names_it(tmp_path, capsys, case):
    verb, name, override, message = BUILDER_INPUTS[case]
    cfg = write_config(tmp_path, "cfg.json", {"model": name, "overrides": ZOO.get(name).ci_overrides})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([verb, "--config", cfg, "--override", override, "--out", tmp_path / "x"]) == 2
    assert f"bad override for {name!r}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
