"""Golden library record: the zoo's builds and solves, bit for bit, at CI and default scale.

Each of the 10 discrete cards is built at ``ci_scale=True`` and at its
default calibration.  The record holds the SHA-1 of the bytes (with
dtype and shape) of the feasibility mask, the reward and the kernel
storage: ``Factored`` ``q``, ``discount`` and ``endogenous``, or a flat
kernel's CSR ``data``, ``indices`` and ``indptr``, or its dense array.
Each model is then solved by HPI, VFI and OPI (m = 10), and
``optimal_default``'s RDP by ``rdp_solve`` with HPI and VFI, at the CLI's
tolerance (1e-8); the record holds the value and policy hashes,
``iterations``, ``products`` and the ``repr`` of ``error_bound`` and
``residual``.  All of it must match ``golden_library.json``.

The record runs in a child process with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1: at default scale
``Factored`` products such as ``V @ q.T`` on ``firm_hiring`` round
differently at 1 and 2 BLAS threads.  The hashes hold for the numpy and
BLAS they were made with.  To rewrite them, run this file with
``FSDP_REGENERATE_GOLDEN=1`` and say in CHANGES.md why the record moved.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_library.json")
SCALES = {"ci": True, "default": False}
SOLVERS = ("hpi", "vfi", "opi")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _digest(array):
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha1(head + array.tobytes()).hexdigest()


def _storage(kernel):
    """The arrays a kernel keeps, by name."""
    from fsdp import dp, spectral

    if isinstance(kernel, dp.Factored):
        parts = {"q": kernel.q, "discount": np.asarray(kernel.discount)}
        return parts if kernel.endogenous is None else {**parts, "endogenous": kernel.endogenous}
    if spectral.issparse(kernel.kernel):
        csr = kernel.kernel
        return {"data": csr.data, "indices": csr.indices, "indptr": csr.indptr}
    return {"dense": kernel.kernel}


def _result(result):
    return {
        "value": _digest(result.value),
        "policy": _digest(result.policy),
        "iterations": int(result.iterations),
        "products": result.products,
        "error_bound": repr(result.error_bound),
        "residual": repr(result.residual),
    }


def record():
    """Every card's build and solve record, keyed ``card/scale/part``."""
    from fsdp import dp, rdp
    from fsdp.models import ZOO

    out = {}
    for name in sorted(n for n, card in ZOO.items() if card.kind in ("mdp", "rdp")):
        for scale, ci_scale in SCALES.items():
            key = f"{name}/{scale}"
            built = ZOO[name].build(ci_scale=ci_scale)
            model = built["mdp"]
            build = {"feasible": _digest(model.feasible), "reward": _digest(model.reward)}
            build.update({k: _digest(v) for k, v in _storage(model.transitions).items()})
            out[f"{key}/build"] = build
            out[f"{key}/hpi"] = _result(dp.solve_hpi(model))
            out[f"{key}/vfi"] = _result(dp.solve_vfi(model, tolerance=1e-8))
            out[f"{key}/opi"] = _result(dp.solve_opi(model, m=10, tolerance=1e-8))
            if "rdp" in built:
                for solver in ("hpi", "vfi"):
                    solved = rdp.rdp_solve(built["rdp"], algorithm=solver, tolerance=1e-8)
                    out[f"{key}/rdp-{solver}"] = _result(solved)
    return out


def _record_in_child():
    import fsdp

    src = str(Path(fsdp.__file__).resolve().parents[1])
    env = {**os.environ, **dict.fromkeys(THREADS, "1")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600, check=True
    )
    return json.loads(done.stdout)


def test_library_record_matches_the_golden_hashes():
    records = _record_in_child()
    if os.environ.get("FSDP_REGENERATE_GOLDEN") == "1":
        GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(records) == sorted(golden)
    moved = [
        f"{key}/{part}"
        for key in sorted(records)
        for part in sorted(set(records[key]) | set(golden[key]))
        if records[key].get(part) != golden[key].get(part)
    ]
    assert not moved, f"record moved: {moved}"


def test_the_record_covers_every_discrete_card():
    # 10 cards at two scales, three MDP solvers each, plus optimal_default's two RDP solves.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cards = {key.split("/")[0] for key in golden}
    assert len(cards) == 10
    assert len(golden) == 10 * 2 * 4 + 2 * 2


if __name__ == "__main__":
    print(json.dumps(record()))
