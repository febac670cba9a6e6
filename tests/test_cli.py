import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import spps
from spps import cli
from spps.cli import main


def _write_config(tmp_path, cfg, name="config.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


def _run(tmp_path, cfg, out="out"):
    path = _write_config(tmp_path, cfg)
    out_dir = os.path.join(tmp_path, out)
    code = main(["--config", path, "--out", out_dir])
    return code, out_dir


def _read_matrix_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    body = np.array(rows[1:], dtype=float)
    return body[:, 0::2] + 1j * body[:, 1::2]


def _taylor_config(n=5):
    return {
        "schema_version": 1,
        "command": "taylor",
        "seed": {"kind": "builtin", "name": "exp", "parameters": {"c": 1.0}},
        "taylor": {"n": n, "x0": 0.0},
    }


GOLDEN_A5 = np.array([
    [1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0],
    [0, -2, 1, 0, 0, 0],
    [0, 4, -2, 1, 0, 0],
    [0, -8, 4, -4, 1, 0],
    [0, 16, -8, 12, -4, 1],
], dtype=complex)


# -- taylor ----------------------------------------------------------------------

def test_taylor_golden_matrix(tmp_path):
    code, out = _run(tmp_path, _taylor_config())
    assert code == 0
    A = _read_matrix_csv(os.path.join(out, "matrix.csv"))
    assert np.max(np.abs(A - GOLDEN_A5)) < 1e-12

    with open(os.path.join(out, "taylor_vectors.json")) as fh:
        vecs = json.load(fh)
    # third derivative of u1/f collapses to the single power -2c*lambda
    entry = vecs["u1_over_f"][3]
    assert entry[0] == [0.0, 0.0]
    assert entry[1] == [-2.0, 0.0]

    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "taylor"
    assert manifest["schema_version"] == 1
    assert manifest["files"] == ["matrix.csv", "taylor_vectors.json"]
    assert len(manifest["config_sha256"]) == 64
    assert manifest["library_version"] == spps.__version__


def test_taylor_from_sampled_seed_warns(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "taylor",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 1001, "x0": 0.5},
        "seed": {"kind": "builtin", "name": "exp", "parameters": {"c": 1.0}},
        "taylor": {"n": 6, "x0": 0.5},
    }
    # sampled-path comparison point: same seed via csv must go through
    # grid differentiation and surface an accuracy warning
    g = spps.Grid(0.0, 1.0, 1001, x0=0.5)
    f = spps.sample(np.exp, g)
    seed_path = os.path.join(tmp_path, "seed.csv")
    spps.write_csv(f, seed_path)
    cfg["seed"] = {"kind": "csv", "path": "seed.csv"}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert any("differentiation" in w or "accuracy" in w.lower()
               for w in manifest["warnings"])


# -- basis -----------------------------------------------------------------------

def test_basis_monomials(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "basis",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 201},
        "seed": {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}},
        "family_order": 6,
        "basis": {"max_order": 4},
    }
    code, out = _run(tmp_path, cfg)
    assert code == 0
    gf = spps.read_csv(os.path.join(out, "psi_003.csv"))
    assert np.max(np.abs(gf.values - gf.grid.nodes**3)) < 1e-8
    names = sorted(os.listdir(out))
    assert names == ["manifest.json"] + [f"psi_{k:03d}.csv" for k in range(5)]


# -- solve -----------------------------------------------------------------------

def test_solve_writes_solution(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "solve",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 2001},
        "seed": {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}},
        "solve": {"lambda": -9.869604401089358},
    }
    code, out = _run(tmp_path, cfg)
    assert code == 0
    with open(os.path.join(out, "solution.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["x", "u1_re", "u1_im"]
    body = np.array(rows[1:], dtype=float)
    x, u2 = body[:, 0], body[:, 5]
    assert np.max(np.abs(u2 - np.sin(np.pi * x) / np.pi)) < 1e-7


def test_solve_fail_on_cap(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "solve",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101},
        "seed": {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}},
        "family_order": 8,
        "solve": {"lambda": 500.0, "tol": 1e-14, "fail_on_cap": True},
    }
    code, out = _run(tmp_path, cfg)
    assert code == 3
    assert not os.path.exists(os.path.join(out, "manifest.json"))


# -- eigs ------------------------------------------------------------------------

def test_eigs_dirichlet(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "eigs",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 1001},
        "q": {"kind": "constant", "value": 0.0},
        "family_order": 80,
        "eigs": {
            "bc_left": [1.0, 0.0],
            "bc_right": [1.0, 0.0],
            "range": [-120.0, -1.0],
            "dump_scan": True,
        },
    }
    code, out = _run(tmp_path, cfg)
    assert code == 0
    with open(os.path.join(out, "eigenvalues.json")) as fh:
        data = json.load(fh)
    got = np.array([ev[0] for ev in data["eigenvalues"]])
    expect = -np.array([9.0, 4.0, 1.0]) * math.pi**2
    assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-6
    assert len(data["residuals"]) == 3
    assert len(data["truncations"]) == 3
    assert os.path.exists(os.path.join(out, "scan.csv"))


def test_eigs_from_q_seed_matches_default_seed(tmp_path, monkeypatch):
    reads = []
    monkeypatch.setattr(cli, "read_csv",
                        lambda *a, **k: reads.append(a) or spps.read_csv(*a, **k))
    g = spps.Grid(0.0, 1.0, 1001)
    spps.write_csv(spps.sample(lambda x: 5.0 * np.cos(3 * x), g),
                   os.path.join(tmp_path, "q.csv"))
    cfg = {
        "schema_version": 1,
        "command": "eigs",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 1001},
        "q": {"kind": "csv", "path": "q.csv"},
        "family_order": 80,
        "eigs": {"bc_left": [1.0, 0.0], "bc_right": [0.0, 1.0],
                 "range": [-120.0, -1.0]},
    }
    blobs = []
    for seed in (None, {"kind": "from_q"}):
        if seed is not None:
            cfg["seed"] = seed
        code, out = _run(tmp_path, cfg, out=f"out{len(blobs)}")
        assert code == 0
        with open(os.path.join(out, "eigenvalues.json"), "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]
    assert len(reads) == 2  # q is read once per run


def test_eigs_vanishing_characteristic_is_numerical_failure(tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(spps.sturm, "characteristic",
                        lambda problem, family, lam, M: np.zeros_like(lam, complex))
    cfg = {
        "schema_version": 1,
        "command": "eigs",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101},
        "q": {"kind": "constant", "value": 0.0},
        "eigs": {"bc_left": [1.0, 0.0], "bc_right": [1.0, 0.0],
                 "range": [-12.0, -1.0]},
    }
    code, out = _run(tmp_path, cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_eigs_rejects_interior_anchor(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "eigs",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101, "x0": 0.5},
        "q": {"kind": "constant", "value": 0.0},
        "eigs": {"bc_left": [1.0, 0.0], "bc_right": [1.0, 0.0],
                 "range": [-12.0, -1.0]},
    }
    code, _ = _run(tmp_path, cfg)
    assert code == 2


def test_eigs_degenerate_bc_is_config_error(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "eigs",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101},
        "q": {"kind": "constant", "value": 0.0},
        "eigs": {"bc_left": [0.0, 0.0], "bc_right": [1.0, 0.0],
                 "range": [-12.0, -1.0]},
    }
    code, _ = _run(tmp_path, cfg)
    assert code == 2


# -- approx ----------------------------------------------------------------------

def test_approx_stall_table(tmp_path):
    cfg = {
        "schema_version": 1,
        "command": "approx",
        "grid": {"a": -1.0, "b": 1.0, "n_nodes": 1001, "x0": 0.0},
        "seed": {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}},
        "family_order": 12,
        "approx": {
            "target": {"kind": "builtin", "name": "identity"},
            "which": "even",
            "orders": [4, 8, 12],
        },
    }
    code, out = _run(tmp_path, cfg)
    assert code == 0
    with open(os.path.join(out, "decay.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "l2_error", "max_error", "condition_estimate"]
    l2 = np.array([float(r[1]) for r in rows[1:]])
    stall = math.sqrt(2.0 / 3.0)
    assert np.max(np.abs(l2 - stall)) < 1e-2


# -- failure modes ----------------------------------------------------------------

def test_malformed_json(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    out_dir = os.path.join(tmp_path, "out")
    assert main(["--config", path, "--out", out_dir]) == 2
    assert not os.path.exists(out_dir)


def test_schema_rejects_unknown_command(tmp_path):
    code, _ = _run(tmp_path, {"schema_version": 1, "command": "frobnicate"})
    assert code == 2


def test_schema_rejects_extra_keys(tmp_path):
    cfg = _taylor_config()
    cfg["surprise"] = True
    code, _ = _run(tmp_path, cfg)
    assert code == 2


def test_missing_command_block(tmp_path):
    cfg = _taylor_config()
    del cfg["taylor"]
    code, _ = _run(tmp_path, cfg)
    assert code == 2


def test_unknown_seed_name(tmp_path):
    cfg = _taylor_config()
    cfg["seed"]["name"] = "mystery"
    code, _ = _run(tmp_path, cfg)
    assert code == 2


def test_vanishing_csv_seed_is_numerical_failure(tmp_path):
    g = spps.Grid(0.0, 1.0, 101)
    f = spps.sample(lambda x: x - 0.5, g)
    seed_path = os.path.join(tmp_path, "seed.csv")
    spps.write_csv(f, seed_path)
    cfg = {
        "schema_version": 1,
        "command": "basis",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101},
        "seed": {"kind": "csv", "path": "seed.csv"},
        "family_order": 4,
        "basis": {"max_order": 2},
    }
    code, _ = _run(tmp_path, cfg)
    assert code == 3


def _csv_config(what):
    cfg = {"schema_version": 1, "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101}}
    block = {"kind": "csv", "path": f"{what}.csv"}
    if what == "q":
        cfg.update(command="eigs", q=block, eigs={
            "bc_left": [1.0, 0.0], "bc_right": [1.0, 0.0], "range": [-12.0, -1.0]})
    elif what == "seed":
        cfg.update(command="basis", seed=block)
    else:
        cfg.update(command="approx", seed={"kind": "builtin", "name": "constant"},
                   approx={"target": block, "orders": [2]})
    return cfg, block


@pytest.mark.parametrize("what", ["q", "seed", "target"])
@pytest.mark.parametrize("fault", ["missing", "ragged", "no path"])
def test_unreadable_csv_is_config_error(tmp_path, capsys, what, fault):
    cfg, block = _csv_config(what)
    if fault == "ragged":
        with open(os.path.join(tmp_path, block["path"]), "w") as fh:
            fh.write("x,re,im\n0,1\n0.5,1,0\n")
    elif fault == "no path":
        del block["path"]
    code, _ = _run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error")
    assert "Traceback" not in err


@pytest.mark.parametrize("what", ["q", "seed", "target"])
def test_config_error_leaves_no_output_dir(tmp_path, what):
    cfg, _ = _csv_config(what)
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert not os.path.exists(out)


def test_wrong_schema_version(tmp_path):
    cfg = _taylor_config()
    cfg["schema_version"] = 99
    code, _ = _run(tmp_path, cfg)
    assert code == 2


# -- determinism -------------------------------------------------------------------

def test_rerun_is_byte_identical(tmp_path):
    cfg = _taylor_config()
    path = _write_config(tmp_path, cfg)
    out_dir = os.path.join(tmp_path, "out")
    assert main(["--config", path, "--out", out_dir]) == 0
    first = {}
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name), "rb") as fh:
            first[name] = fh.read()
    assert main(["--config", path, "--out", out_dir]) == 0
    for name, blob in first.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            assert fh.read() == blob, f"{name} changed between runs"


def test_output_dir_from_config(tmp_path):
    cfg = _taylor_config()
    cfg["output_dir"] = "results"
    path = _write_config(tmp_path, cfg)
    assert main(["--config", path]) == 0
    assert os.path.exists(os.path.join(tmp_path, "results", "matrix.csv"))


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(spps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, spps.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point(tmp_path):
    path = _write_config(tmp_path, _taylor_config(n=3))
    out_dir = os.path.join(tmp_path, "out")
    # the child process must import the same spps as this test
    src = os.path.dirname(os.path.dirname(spps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "spps.cli", "--config", path, "--out", out_dir],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out_dir, "matrix.csv"))
