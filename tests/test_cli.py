import copy
import csv
import inspect
import json
import math
import os
import re
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


@pytest.mark.parametrize("n_terms", [None, 5])
@pytest.mark.parametrize("lam", [math.nan, math.inf, [-1.0, math.nan]])
def test_solve_rejects_non_finite_lambda(tmp_path, lam, n_terms):
    # json reads NaN and Infinity; such a lambda is a config error
    solve = {"lambda": lam} if n_terms is None else {"lambda": lam, "n_terms": n_terms}
    cfg = {
        "schema_version": 1,
        "command": "solve",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101},
        "seed": {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}},
        "solve": solve,
    }
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert not os.path.exists(out)


def test_solve_nan_tol_is_config_error(tmp_path, capsys):
    # NaN passes the schema's exclusiveMinimum; as eigs tol, it exits 2
    cfg = _with(_valid_configs()["solve"], ("solve", "n_terms"), _DROP)
    cfg["solve"]["tol"] = math.nan
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err == "config error: solve/tol must be finite, got nan\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("n_terms", [None, 10])
def test_solve_sums_each_series_once(tmp_path, monkeypatch, n_terms):
    # the truncation choice and the four grid solutions share the family's
    # kept sums: 2 whole-grid sums (u1's and u2's psi series) and 2
    # integrals (their derivatives'), and 2 more sums where the choice
    # summed u1's and u2's series at another M
    calls, integrals = [], []
    grid_sum, integrate = spps.series._grid_sum, spps.series._integrate_rows
    monkeypatch.setattr(spps.series, "_grid_sum", lambda family, s, lam, M:
                        calls.append(M) or grid_sum(family, s, lam, M))
    monkeypatch.setattr(spps.series, "_integrate_rows", lambda y, *args:
                        integrals.append(y.shape) or integrate(y, *args))
    cfg = _valid_configs()["solve"]
    if n_terms is None:
        del cfg["solve"]["n_terms"]
        cfg["family_order"] = 40  # the choice meets tol below the cap, and sums
    assert _run(tmp_path, cfg)[0] == 0
    assert calls == [n_terms] * 2 if n_terms else 2 <= len(calls) <= 4
    assert len(integrals) == 2


def test_solve_n_terms_past_family_order_is_config_error(tmp_path, capsys):
    # checked against family_order, as basis max_order is: 20 terms need order 39
    cfg = {
        "schema_version": 1,
        "command": "solve",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101},
        "seed": {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}},
        "family_order": 38,
        "solve": {"lambda": -1.0, "n_terms": 20},
    }
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: solve n_terms 20 needs family_order 39, got 38\n")
    assert not os.path.exists(out)
    cfg["family_order"] = 39
    assert _run(tmp_path, cfg, out="out39")[0] == 0


@pytest.mark.parametrize("command, key, value", [
    ("solve", "lambda", [1e160, 0.0]), ("solve", "lambda", -1e200),
    ("eigs", "range", [-1e200, -1.0])])
def test_lambda_whose_powers_overflow_is_config_error(tmp_path, capsys, command, key,
                                                      value):
    # |lambda|^k overflows in the truncation rule: exit 2 naming lambda, no
    # traceback and nothing written
    cfg = _valid_configs()[command]
    if command == "solve":
        del cfg["solve"]["n_terms"]
    cfg[command][key] = value
    code, out = _run(tmp_path, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command}/{key}: lam=") and "too large" in err
    assert not os.path.exists(out)


def test_two_solve_processes_write_identical_files(tmp_path):
    # whole-grid sums are BLAS products: two processes at the same BLAS
    # thread count write the same bytes, at a size where the library may
    # split a product across threads
    cfg = _valid_configs()["solve"]
    cfg["grid"] = {"a": 0.0, "b": 1.0, "n_nodes": 20001}
    cfg["family_order"] = 60
    cfg["solve"] = {"lambda": [-30.0, 4.0]}
    path = _write_config(tmp_path, cfg)
    src = os.path.dirname(os.path.dirname(spps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    written = []
    for out in ("one", "two"):
        out_dir = os.path.join(tmp_path, out)
        proc = subprocess.run(
            [sys.executable, "-m", "spps.cli", "--config", path, "--out", out_dir],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(out_dir, "solution.csv"), "rb") as fh:
            written.append(fh.read())
    assert written[0] == written[1]


def test_solve_overflow_is_numerical_failure(tmp_path, capsys):
    # lambda^k overflows in the series: nothing is written
    cfg = {
        "schema_version": 1,
        "command": "solve",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101},
        "seed": {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}},
        "solve": {"lambda": 1e300, "n_terms": 5},
    }
    code, out = _run(tmp_path, cfg)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "lambda=" in err and "5 terms" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
def test_non_finite_anchor_is_config_error(tmp_path, x0):
    cfg = {
        "schema_version": 1,
        "command": "solve",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101, "x0": x0},
        "seed": {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}},
        "solve": {"lambda": -1.0},
    }
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert not os.path.exists(out)


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
    # the window's one M, at whose K(M - 1) + 1 Chebyshev points the scan
    # sampled Phi, of degree K(M - 1) on K = 6 pieces
    with open(os.path.join(out, "scan.csv")) as fh:
        assert 6 * (data["n_terms"] - 1) + 1 == len(fh.readlines()) - 1 == 55


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


@pytest.mark.parametrize("seed", [
    {"kind": "builtin", "name": "exp", "parameters": {"c": 1.0}},
    {"kind": "csv", "path": "seed.csv"},
], ids=["builtin", "csv"])
def test_eigs_refuses_a_seed_that_need_not_solve_its_q(tmp_path, capsys, seed):
    # e^x solves f'' + qf = 0 for q = -1: the search would return
    # -(k pi)^2 - 1, the eigenvalues of that q, and not those of q = 0
    spps.write_csv(spps.sample(np.exp, spps.Grid(0.0, 1.0, 1001)),
                   os.path.join(tmp_path, "seed.csv"))
    cfg = {
        "schema_version": 1,
        "command": "eigs",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 1001},
        "q": {"kind": "constant", "value": 0.0},
        "seed": seed,
        "family_order": 80,
        "eigs": {"bc_left": [1.0, 0.0], "bc_right": [1.0, 0.0],
                 "range": [-120.0, -1.0]},
    }
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: a seed of kind {seed['kind']!r} need not solve "
        f"f'' + qf = 0 for this q; eigs takes only kind 'from_q'\n")
    assert not os.path.exists(out)


def test_eigs_pair_the_search_refuses_is_config_error(tmp_path, monkeypatch, capsys):
    # the schema takes real pairs only, so the complex pair (1, 1j) is made
    # from [1, 1] here: find_eigenvalues' ValueError exits 2
    problem = cli.SlProblem
    monkeypatch.setattr(cli, "SlProblem", lambda q, left, right:
                        problem(q, (left[0], 1j * left[1]), right))
    cfg = _valid_configs()["eigs"]
    cfg["eigs"]["bc_left"] = [1.0, 1.0]
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: left boundary pair ((1+0j), 1j) is not a complex multiple "
        "of a real pair; the real-line search needs one\n")
    assert not os.path.exists(out)


def test_eigs_vanishing_characteristic_is_numerical_failure(tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.setattr(spps.sturm, "_transfer",
                        lambda problem, f, fp, ends, lam, M: np.zeros_like(lam, complex))
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


def test_eigs_takes_any_anchor(tmp_path):
    # the search anchors its own family at the middle node, whatever the
    # grid's x0: an interior or right anchor gives x0 = a's eigenvalues
    found = []
    for x0 in (0.0, 0.3, 0.5, 1.0):
        cfg = {
            "schema_version": 1,
            "command": "eigs",
            "grid": {"a": 0.0, "b": 1.0, "n_nodes": 1001, "x0": x0},
            "q": {"kind": "constant", "value": 3.0},
            "eigs": {"bc_left": [1.0, 0.0], "bc_right": [0.0, 1.0],
                     "range": [-120.0, -1.0]},
        }
        code, out = _run(tmp_path, cfg, out=f"out-{x0}")
        assert code == 0
        with open(os.path.join(out, "eigenvalues.json")) as fh:
            found.append(np.array(json.load(fh)["eigenvalues"]))
    assert found[0].shape == (3, 2)
    for other in found[1:]:
        assert np.max(np.abs(other - found[0]) / np.abs(found[0][:, :1])) <= 1e-10


def _eigs_config(**eigs):
    return {
        "schema_version": 1,
        "command": "eigs",
        "grid": {"a": 0.0, "b": 1.0, "n_nodes": 101},
        "q": {"kind": "constant", "value": 0.0},
        "eigs": {"bc_left": [1.0, 0.0], "bc_right": [1.0, 0.0],
                 "range": [-12.0, -1.0], **eigs},
    }


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_eigs_non_finite_constant_q_is_config_error(tmp_path, capsys, value):
    # like a non-finite q CSV value: exit 2, where build_seed's SeedError gave 3
    cfg = _eigs_config()
    cfg["q"]["value"] = value
    code, out = _run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: q/value must be finite")
    assert not os.path.exists(out)


@pytest.mark.parametrize("eigs, message", [
    ({"series_tol": math.nan}, "eigs/series_tol must be finite, got nan"),
    ({"tol": math.nan}, "eigs/tol must be finite, got nan"),
    ({"bc_left": [math.nan, 1.0]}, "eigs/bc_left/0 must be finite, got nan"),
    ({"bc_right": [1.0, math.inf]}, "eigs/bc_right/1 must be finite, got inf"),
], ids=["series_tol", "tol", "bc_left", "bc_right"])
def test_eigs_non_finite_setting_is_config_error(tmp_path, capsys, eigs, message):
    # JSON's NaN and Infinity pass the schema; the config walk refuses them
    code, out = _run(tmp_path, _eigs_config(**eigs))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not os.path.exists(out)


def test_eigs_scan_points_is_an_unknown_key(tmp_path, capsys):
    # the eigen search samples Phi at the window's Chebyshev points only
    code, out = _run(tmp_path, _eigs_config(scan_points=64))
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: config invalid at eigs: "
                                              "Additional properties")
    assert not os.path.exists(out)


_EXP = {"kind": "builtin", "name": "exp", "parameters": {"c": 1.0}}
_CONSTANT = {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}}


@pytest.mark.parametrize("command, at, block, path, value", [
    ("basis", ("seed",), _EXP, ("seed", "parameters", "c"), math.nan),
    ("approx", ("approx", "target"), _EXP, ("approx", "target", "parameters", "c"),
     math.inf),
    ("approx", ("approx", "target"), _CONSTANT,
     ("approx", "target", "parameters", "value"), math.nan),
    ("taylor", ("taylor", "x0"), 0.0, ("taylor", "x0"), math.nan),
], ids=["seed-c", "target-c", "target-value", "taylor-x0"])
def test_non_finite_number_is_config_error(tmp_path, capsys, command, at, block,
                                           path, value):
    # NaN and Infinity anywhere in the config exit 2 with the key path named,
    # also where no library check sees them before they turn into a sample
    cfg = _with(_valid_configs()[command], at, block)
    assert _run(tmp_path, cfg, out="finite")[0] == 0
    code, out = _run(tmp_path, _with(cfg, path, value))
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: {'/'.join(path)} must be finite, got {value}\n")
    assert not os.path.exists(out)


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


@pytest.mark.parametrize("name, parameters", [
    ("constant", {"value": "x"}), ("constant", {"value": True}),
    ("exp", {"c": [1]}), ("exp", {"c": None}),
])
def test_non_numeric_target_parameter_is_config_error(tmp_path, capsys, name, parameters):
    cfg = _valid_configs()["approx"]
    cfg["approx"]["target"] = {"kind": "builtin", "name": name, "parameters": parameters}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    (key, value), = parameters.items()
    assert capsys.readouterr().err.startswith(
        f"config error: config invalid at approx/target/parameters/{key}: ")
    assert not os.path.exists(out)


# -- failure modes ----------------------------------------------------------------

def test_malformed_json(tmp_path):
    path = os.path.join(tmp_path, "bad.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    out_dir = os.path.join(tmp_path, "out")
    assert main(["--config", path, "--out", out_dir]) == 2
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("command, path", [
    ("basis", ("grid", "b")), ("basis", ("grid", "n_nodes")),
    ("solve", ("solve", "lambda")), ("solve", ("solve", "lambda", 1)),
    ("taylor", ("taylor", "x0")), ("eigs", ("q", "value")),
    ("solve", ("seed", "parameters", "value")),
], ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else v)
def test_integer_too_large_for_a_float_is_config_error(tmp_path, capsys, command, path):
    # JSON integers have no size limit; past ~1.8e308 float() overflows
    cfg = _valid_configs()[command]
    if path == ("solve", "lambda", 1):
        cfg["solve"]["lambda"] = [1.0, "BIG"]
    else:
        cfg = _with(cfg, path, "BIG")
    config = os.path.join(tmp_path, "config.json")
    with open(config, "w") as fh:
        fh.write(json.dumps(cfg).replace('"BIG"', "1" + "0" * 400))
    out = os.path.join(tmp_path, "out")
    assert main(["--config", config, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error: {'/'.join(map(str, path))} is an integer too large for a float\n")
    assert not os.path.exists(out)


def test_integer_past_the_digit_limit_is_malformed_json(tmp_path, capsys):
    # json.load's int() refuses a literal past sys.get_int_max_str_digits()
    config = os.path.join(tmp_path, "config.json")
    with open(config, "w") as fh:
        fh.write(json.dumps(_valid_configs()["basis"]).replace("201", "1" * 5000))
    out = os.path.join(tmp_path, "out")
    assert main(["--config", config, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("config error: malformed JSON")
    assert not os.path.exists(out)


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


def _tree(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files)


def _fault_argv(tmp_path, command, *edits, out=True):
    """main's arguments for _valid_configs()[command] with each (path, value) set."""
    cfg = _valid_configs()[command]
    for path, value in edits:
        cfg = _with(cfg, path, value)
    argv = ["--config", _write_config(tmp_path, cfg)]
    return argv + ["--out", os.path.join(tmp_path, "out")] if out else argv


def _off_grid_csv(tmp_path):
    spps.write_csv(spps.sample(np.zeros_like, spps.Grid(0.0, 1.0, 101)),
                   os.path.join(tmp_path, "q.csv"))
    return _fault_argv(tmp_path, "eigs", (("q",), {"kind": "csv", "path": "q.csv"}))


_FAULTS = {
    "unreadable config": (
        lambda t: ["--config", os.path.join(t, "absent.json"), "--out", os.path.join(t, "out")],
        "cannot read config: [Errno 2] No such file or directory: '{tmp}/absent.json'"),
    "b below a": (
        lambda t: _fault_argv(t, "basis", (("grid", "b"), -1.0)),
        "bad grid: need finite a < b, got a=0.0, b=-1.0"),
    "x0 off the mesh": (
        lambda t: _fault_argv(t, "basis", (("grid", "x0"), 0.0025)),
        "bad grid: x=0.0025 is not a node of this grid"),
    "csv on another grid": (
        _off_grid_csv, "q CSV grid does not match the config grid"),
    "max_order above family_order": (
        lambda t: _fault_argv(t, "basis", (("basis", "max_order"), 7)),
        "basis max_order 7 exceeds family_order 6"),
    "essential singularity": (
        lambda t: _fault_argv(t, "taylor", (("seed",), {"kind": "builtin",
                                                        "name": "x_exp_a_over_x"})),
        "this seed has an essential singularity at 0"),
    "x0 off a sampled seed's anchor": (
        lambda t: _fault_argv(t, "taylor", (("grid",), {"a": 0.0, "b": 1.0, "n_nodes": 201}),
                              (("q",), {"kind": "constant", "value": 0.0}),
                              (("seed",), {"kind": "from_q"}), (("taylor", "x0"), 0.5)),
        "taylor x0 must equal the grid anchor for sampled seeds"),
    "constant target without value": (
        lambda t: _fault_argv(t, "approx", (("approx", "target"),
                                            {"kind": "builtin", "name": "constant"})),
        "constant target needs parameters.value"),
    "approx order above family_order": (
        lambda t: _fault_argv(t, "approx", (("approx", "orders"), [2, 9])),
        "approx order 9 exceeds family_order 8"),
    "no output directory": (
        lambda t: _fault_argv(t, "basis", out=False),
        "no output directory (config output_dir or --out)"),
}


@pytest.mark.parametrize("fault", _FAULTS)
def test_config_fault_exits_2_and_writes_nothing(tmp_path, capsys, fault):
    make_argv, message = _FAULTS[fault]
    argv = make_argv(str(tmp_path))
    before = _tree(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message.format(tmp=tmp_path)}\n"
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("what", ["q", "seed", "target"])
def test_non_finite_csv_is_config_error(tmp_path, capsys, what):
    # a NaN row used to run through to NaN output files with exit 0
    cfg, block = _csv_config(what)
    g = spps.Grid(0.0, 1.0, 101)
    gf = spps.sample(lambda x: 1.0 + 0.5 * np.sin(x), g)
    gf.values[40] = np.nan
    spps.write_csv(gf, os.path.join(tmp_path, block["path"]))
    code, out = _run(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error")
    assert f"{what} CSV value nan at node 40" in err
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


def test_cli_import_loads_no_scipy(tmp_path):
    # nor numpy.polynomial: only the eigen search reaches it, at its call;
    # a solve run on a seed built from q loads none either
    cfg = _valid_configs()["solve"]
    cfg["seed"], cfg["q"] = {"kind": "from_q"}, {"kind": "constant", "value": -3.0}
    path = _write_config(tmp_path, cfg)
    src = os.path.dirname(os.path.dirname(spps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""
import sys, spps.cli
def loaded():
    return sorted(m for m in sys.modules
                  if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial'))
print(loaded())
assert spps.cli.main(["--config", {path!r}, "--out", {str(tmp_path / "out")!r}]) == 0
print(loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


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


def test_cli_import_loads_no_jsonschema(tmp_path):
    # the config is checked by cli's own validator; numpy is the only
    # dependency, at import and through a whole run
    path = _write_config(tmp_path, _taylor_config())
    src = os.path.dirname(os.path.dirname(spps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"""
import sys, spps.cli
def loaded():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema')
print(loaded())
assert spps.cli.main(["--config", {path!r}, "--out", {str(tmp_path / "out")!r}]) == 0
print(loaded())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


# -- the config validator ------------------------------------------------------------

def _valid_configs():
    """One small valid config per command, every integer-typed key given."""
    grid = {"a": 0.0, "b": 1.0, "n_nodes": 201}
    const = {"kind": "builtin", "name": "constant", "parameters": {"value": 1.0}}
    return {
        "basis": {"schema_version": 1, "command": "basis", "grid": grid,
                  "seed": const, "family_order": 6, "basis": {"max_order": 3}},
        "solve": {"schema_version": 1, "command": "solve", "grid": grid,
                  "seed": const, "family_order": 20,
                  "solve": {"lambda": [-9.5, 1.0], "n_terms": 10, "tol": 1e-12,
                            "fail_on_cap": False}},
        "eigs": {"schema_version": 1, "command": "eigs", "grid": grid,
                 "q": {"kind": "constant", "value": 0.0}, "family_order": 30,
                 "eigs": {"bc_left": [1.0, 0.0], "bc_right": [1.0, 0.0],
                          "range": [-12.0, -1.0], "tol": 1e-10,
                          "series_tol": 1e-12, "dump_scan": True}},
        "taylor": {"schema_version": 1, "command": "taylor",
                   "seed": {"kind": "builtin", "name": "exp", "parameters": {"c": 1.0}},
                   "taylor": {"n": 4, "x0": 0.0}},
        "approx": {"schema_version": 1, "command": "approx",
                   "grid": {"a": -1.0, "b": 1.0, "n_nodes": 201, "x0": 0.0},
                   "seed": const, "family_order": 8,
                   "approx": {"target": {"kind": "builtin", "name": "abs"},
                              "which": "even", "orders": [2, 4]}},
    }


def _walk(value, schema, path=()):
    """(path, value, schema) for the value and every value inside it."""
    yield path, value, schema
    props = schema.get("properties", {})
    if isinstance(value, dict):
        for key, v in value.items():
            if key in props:
                yield from _walk(v, props[key], path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for i, v in enumerate(value):
            yield from _walk(v, schema["items"], path + (i,))


_DROP = object()


def _with(cfg, path, value):
    """A deep copy of cfg with the value at path replaced, or dropped."""
    if not path:
        return copy.deepcopy(value)
    out = copy.deepcopy(cfg)
    node = out
    for p in path[:-1]:
        node = node[p]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return out


def _mutations(cfg):
    yield cfg
    yield [cfg]
    for bad in (1.0, True, 99, 2, "1", None):
        yield _with(cfg, ("schema_version",), bad)
    for path, value, schema in _walk(cfg, cli.CONFIG_SCHEMA):
        for key in schema.get("required", ()):
            yield _with(cfg, path + (key,), _DROP)
        if isinstance(value, dict):
            yield _with(cfg, path + ("surprise",), 1)
        for bad in ("x", True, False, None, [], {}, 1.5, 7, float("nan"), float("inf")):
            yield _with(cfg, path, bad)
        if schema.get("type") == "integer":
            for bad in (4.0, 4.5, -4.0, 1e300):
                yield _with(cfg, path, bad)
        if "minimum" in schema:
            m = schema["minimum"]
            for edge in (m - 1, m - 0.5, m, float(m), m + 0.5):
                yield _with(cfg, path, edge)
        if "exclusiveMinimum" in schema:
            for edge in (0, 0.0, -0.0, 5e-324, -5e-324, -1):
                yield _with(cfg, path, edge)
        if schema.get("type") == "array" or "anyOf" in schema:
            for bad in ([1.0], [1.0, 2.0, 3.0], [1.0, "x"], [True, 1.0], [2, 3]):
                yield _with(cfg, path, bad)
        if "enum" in schema:
            yield _with(cfg, path, "nope")


def _reported_path(tmp_path, cfg):
    """None if _load_config accepts cfg, else the path its error names."""
    path = _write_config(tmp_path, cfg, "mutant.json")
    try:
        cli._load_config(path)
    except cli.ConfigError as e:
        msg = str(e)
        assert msg.startswith("config invalid at ")
        return msg[len("config invalid at "):].split(": ", 1)[0]
    return None


@pytest.mark.parametrize("command", ["basis", "solve", "eigs", "taylor", "approx"])
def test_validator_agrees_with_jsonschema(tmp_path, command):
    jsonschema = pytest.importorskip("jsonschema")
    checker = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)(cli.CONFIG_SCHEMA)
    n_rejected = n_single = 0
    for cfg in _mutations(_valid_configs()[command]):
        # the mutant as the CLI reads it, after a JSON round trip
        cfg = json.loads(json.dumps(cfg))
        errors = list(checker.iter_errors(cfg))
        got = _reported_path(tmp_path, cfg)
        assert (got is None) == (not errors), (cfg, got, errors)
        if len(errors) == 1:
            where = jsonschema.exceptions.best_match(errors).absolute_path
            assert got == ("/".join(map(str, where)) or "<root>"), cfg
            n_single += 1
        n_rejected += bool(errors)
    assert n_rejected > 50 and n_single > 40


def test_validator_type_rules():
    schema = cli.CONFIG_SCHEMA
    def ok(cfg):
        return not list(cli._errors(cfg, schema, []))
    base = _valid_configs()["taylor"]
    assert ok(_with(base, ("taylor", "n"), 4.0))
    assert not ok(_with(base, ("taylor", "n"), 4.5))
    assert not ok(_with(base, ("taylor", "n"), True))
    assert not ok(_with(base, ("taylor", "x0"), True))
    assert ok(_with(base, ("schema_version",), 1.0))
    assert not ok(_with(base, ("schema_version",), True))
    assert not ok([base])


def _schema_keywords(schema):
    """Every keyword that schema and its subschemas use."""
    for key, sub in schema.items():
        yield key
        if key == "properties":
            for s in sub.values():
                yield from _schema_keywords(s)
        elif key == "items":
            yield from _schema_keywords(sub)
        elif key == "anyOf":
            for s in sub:
                yield from _schema_keywords(s)


def test_schema_uses_only_keywords_the_validator_handles():
    # _errors skips a keyword it does not know, so one added to the schema
    # alone would be ignored in silence
    used = set(_schema_keywords(cli.CONFIG_SCHEMA))
    handled = set(re.findall(r'"(\w+)"', inspect.getsource(cli._errors)))
    assert used <= handled
    assert all(re.search(rf"\b{k}\b", cli.__doc__) for k in used)


@pytest.mark.parametrize("command", ["basis", "solve", "eigs", "taylor", "approx"])
def test_dropping_any_key_keeps_the_exit_codes(tmp_path, capsys, command):
    # an exception out of main is the traceback a CLI user would see
    cfg = _valid_configs()[command]
    paths = [path + (key,) for path, value, _ in _walk(cfg, cli.CONFIG_SCHEMA)
             if isinstance(value, dict) for key in value]
    assert len(paths) > 8
    for i, path in enumerate(paths):
        code, out = _run(tmp_path, _with(cfg, path, _DROP), out=f"out{i}")
        assert code in (0, 2, 3), path
        assert code == 0 or not os.path.exists(out), path
    assert "Traceback" not in capsys.readouterr().err


def test_builtin_seed_without_name_is_config_error(tmp_path, capsys):
    cfg = {"schema_version": 1, "command": "taylor", "seed": {"kind": "builtin"},
           "taylor": {"n": 4, "x0": 0.0}}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert capsys.readouterr().err == "config error: builtin seed needs a name\n"
    assert not os.path.exists(out)


# -- integer keys written as floats --------------------------------------------------

def _integer_paths(schema, path=()):
    """Schema paths of every integer-typed value; "*" stands for array items."""
    if schema.get("type") == "integer":
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from _integer_paths(sub, path + (key,))
    if "items" in schema:
        yield from _integer_paths(schema["items"], path + ("*",))


def _outputs(out):
    blobs = {}
    for name in sorted(os.listdir(out)):
        if name != "manifest.json":
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
    return blobs


def test_integral_float_integer_keys_run_as_ints(tmp_path):
    configs = _valid_configs()
    swept = set()
    for command, cfg in configs.items():
        code, out = _run(tmp_path, cfg, out=f"{command}-int")
        assert code == 0
        want = _outputs(out)
        assert want
        for path, value, schema in _walk(cfg, cli.CONFIG_SCHEMA):
            if schema.get("type") != "integer":
                continue
            swept.add(tuple("*" if isinstance(p, int) else p for p in path))
            as_float = _with(cfg, path, float(value))
            tag = "-".join(map(str, path))
            code, out = _run(tmp_path, as_float, out=f"{command}-{tag}")
            assert code == 0, (command, path)
            assert _outputs(out) == want, (command, path)
            with open(os.path.join(out, "manifest.json")) as fh:
                manifest = json.load(fh)
            # the hash is of the config as written, float and all
            assert manifest["config_sha256"] == cli._config_hash(as_float)
            assert manifest["config_sha256"] != cli._config_hash(cfg)
    assert swept == set(_integer_paths(cli.CONFIG_SCHEMA))


# -- library defaults -----------------------------------------------------------------

# (command, config key, library function, its parameter, keys dropped first
# so that the output reads the value)
_DEFAULTS = [
    ("basis", ("grid", "n_nodes"), spps.Grid, "n_nodes", []),
    ("basis", ("family_order",), spps.build_family, "N", [("basis", "max_order")]),
    ("solve", ("solve", "tol"), spps.choose_truncation, "tol", [("solve", "n_terms")]),
    ("eigs", ("eigs", "tol"), spps.find_eigenvalues, "tol", []),
    ("eigs", ("eigs", "series_tol"), spps.find_eigenvalues, "series_tol", []),
    ("approx", ("approx", "which"), spps.least_squares_project, "which", []),
]


@pytest.mark.parametrize("command, key, fn, param, drop", _DEFAULTS,
                         ids=["/".join(d[1]) for d in _DEFAULTS])
def test_unset_key_is_the_library_default(tmp_path, command, key, fn, param, drop):
    # the CLI writes no default of its own: an unset key and the value in
    # the library signature give the same bytes
    cfg = _valid_configs()[command]
    for path in drop:
        cfg = _with(cfg, path, _DROP)
    default = inspect.signature(fn).parameters[param].default
    assert default is not inspect.Parameter.empty
    runs = []
    for value in (_DROP, default):
        code, out = _run(tmp_path, _with(cfg, key, value), out=f"out{len(runs)}")
        assert code == 0
        with open(os.path.join(out, "manifest.json")) as fh:
            runs.append((_outputs(out), json.load(fh)["warnings"]))
    assert runs[0] == runs[1]


# -- nothing written before a failure ------------------------------------------------

@pytest.mark.parametrize("c", [1e5, 1e20, 1e200])
def test_taylor_numerical_failure_writes_nothing(tmp_path, capsys, c):
    cfg = _taylor_config(n=16)
    cfg["seed"]["parameters"]["c"] = c
    cfg["taylor"]["x0"] = 0.3
    code, out = _run(tmp_path, cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")
    assert not os.path.exists(out)


# -- CSV bytes -------------------------------------------------------------------------

def _rows_by_value(path, header, rows):
    # write_rows' former per-value formula, kept as the byte reference
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{float(v):.17g}" for v in row) + "\n")


def test_write_rows_matches_value_formula(tmp_path):
    rng = np.random.default_rng(5)
    edge = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf,
            math.nan, 1.0 / 3.0, 0.1, 1e22]
    tables = {
        # an N column of Python ints beside np.float64 and float values
        "decay": [(4, np.float64(0.25), -0.0, math.inf),
                  (12, np.float64(5e-324), 1e308, math.nan),
                  (2**53 + 1, -1e308, np.float64(-math.inf), 3)],
        "edge": [tuple(np.roll(edge, k)) for k in range(len(edge))],
        "wide": rng.standard_normal((2001, 9)) * 10.0 ** rng.integers(-300, 300, (2001, 9)),
    }
    run = cli._Run({}, str(tmp_path), str(tmp_path / "out"))
    for name, rows in tables.items():
        header = [f"c{j}" for j in range(len(rows[0]))]
        run.write_rows(f"{name}.csv", header, rows)
        want = str(tmp_path / f"{name}-want.csv")
        _rows_by_value(want, header, rows)
        with open(tmp_path / "out" / f"{name}.csv", "rb") as fh, open(want, "rb") as ref:
            blob = fh.read()
            assert blob == ref.read(), name
        assert b"\r" not in blob
        assert blob.count(b"\n") == len(rows) + 1
