"""Golden CLI outputs: every file, exit code and console line of a fixed run matrix.

Each of the 11 solvable zoo cards is run at CI scale through ``cli.main``
as ``solve`` by HPI, VFI and OPI (m = 10), ``simulate`` (horizon 500) and
``bench`` (``m_grid`` [1, 10]), and ``ct_inventory_restock`` is simulated.
The SHA-1 of every output file, of stdout and of stderr (with the output
directory written as ``<out>``) and every exit code must match
``golden_cli.json``.  The bench ``seconds`` column is dropped before
hashing, since it is a wall time.

The hashes pin the last bit of every printed float, so they hold for the
numpy and BLAS they were made with.  To rewrite them, run this file with
``FSDP_REGENERATE_GOLDEN=1`` and say in CHANGES.md why the outputs moved.
"""

import hashlib
import json
import os
from pathlib import Path

from fsdp import cli
from fsdp.models import ZOO

GOLDEN = Path(__file__).with_name("golden_cli.json")

SOLVABLE = sorted(name for name, card in ZOO.items() if card.kind in ("mdp", "rdp", "ctmdp"))

RUNS = {
    **{
        f"solve-{solver}-{name}": ("solve", name, {"solver": solver, **({"m": 10} if solver == "opi" else {})})
        for name in SOLVABLE
        for solver in ("hpi", "vfi", "opi")
    },
    **{f"simulate-{name}": ("simulate", name, {"horizon": 500}) for name in SOLVABLE},
    **{f"bench-{name}": ("bench", name, {"m_grid": [1, 10]}) for name in SOLVABLE},
    "simulate-ct_inventory_restock": ("simulate", "ct_inventory_restock", {}),
}


def _digest(data):
    return hashlib.sha1(data).hexdigest()


def _without_seconds(text):
    rows = [line.split(",") for line in text.splitlines()]
    column = rows[0].index("seconds")
    return "".join(",".join(row[:column] + row[column + 1:]) + "\n" for row in rows)


def _run(tmp_path, capsys, run):
    verb, name, extra = RUNS[run]
    config = tmp_path / f"{run}.json"
    config.write_text(json.dumps({"model": name, "overrides": ZOO.get(name).ci_overrides, **extra}))
    out = tmp_path / run
    code = cli.main([verb, "--config", str(config), "--out", str(out)])
    console = capsys.readouterr()
    record = {
        "exit": code,
        "stdout": _digest(console.out.replace(str(out), "<out>").encode()),
        "stderr": _digest(console.err.replace(str(out), "<out>").encode()),
    }
    for path in sorted(out.iterdir()) if out.exists() else []:
        data = path.read_text(encoding="utf-8")
        if path.name == "bench.csv":
            data = _without_seconds(data)
        record[path.name] = _digest(data.encode())
    return record


def test_cli_outputs_match_the_golden_hashes(tmp_path, capsys):
    records = {run: _run(tmp_path, capsys, run) for run in sorted(RUNS)}
    if os.environ.get("FSDP_REGENERATE_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(records) == sorted(golden)
    moved = [
        f"{run}/{name}"
        for run in sorted(RUNS)
        for name in sorted(set(records[run]) | set(golden[run]))
        if records[run].get(name) != golden[run].get(name)
    ]
    assert not moved, f"outputs moved: {moved}"


def test_the_matrix_covers_every_solvable_card():
    # 55 runs over the 11 cards the solvers accept, plus the jump chain.
    assert len(SOLVABLE) == 11
    assert len(RUNS) == 56
