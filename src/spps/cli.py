"""Batch front end: JSON config in, CSV/JSON artifacts plus manifest out.

One command per process.  Exit codes: 0 success, 2 config validation
failure (nothing written), 3 numerical failure.  Every successful run
writes a manifest.json recording the command, a sha256 of the canonical
config, the library version, the produced files, and any accuracy
warnings raised along the way.  Outputs are deterministic for a fixed
config: floats are printed with repr-faithful %.17g and JSON keys are
sorted, so reruns at the same BLAS thread count are byte-identical (the
whole-grid series sums are BLAS products, whose last bits depend on how
the library splits them across threads).

The config is checked against CONFIG_SCHEMA, a JSON Schema dict, by a
small validator in this module (numpy is the package's only dependency).
It handles exactly the keywords the schema uses -- type, properties,
required, additionalProperties, enum, const, minimum, exclusiveMinimum,
items, minItems, maxItems and anyOf -- with JSON Schema's rules: a bool
is neither a number nor an integer, 4.0 is an integer, and const 1
accepts 1.0 but not true.  Of several violations the outermost is
reported.  An integer-typed key given as an integral float runs as the
int; the manifest hashes the config as written.  JSON's NaN and Infinity
are numbers to the schema, so the same walk then refuses every float
that is not finite, wherever it sits, naming its key path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .errors import GridConfigError, OrderError, SppsError
from .grid import Grid, GridFunction, _check_finite, read_csv, sample, write_csv
from .jets import Jet
from .recint import build_family
from .seeds import get_seed
from .series import (choose_truncation, u1_grid, u1_prime_grid, u2_grid,
                     u2_prime_grid)
from .sturm import SlProblem, build_seed, find_eigenvalues
from .gentaylor import least_squares_project
from .transform import build_A_recursive, solution_taylor_vectors

SCHEMA_VERSION = 1

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"enum": ["basis", "solve", "eigs", "taylor", "approx"]},
        "output_dir": {"type": "string"},
        "grid": {
            "type": "object",
            "required": ["a", "b"],
            "properties": {
                "a": {"type": "number"},
                "b": {"type": "number"},
                "n_nodes": {"type": "integer", "minimum": 5},
                "x0": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "seed": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["builtin", "from_q", "csv"]},
                "name": {"type": "string"},
                "parameters": {"type": "object"},
                "path": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "q": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["constant", "csv"]},
                "value": {"type": "number"},
                "path": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "family_order": {"type": "integer", "minimum": 1},
        "basis": {
            "type": "object",
            "properties": {"max_order": {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "solve": {
            "type": "object",
            "properties": {
                "lambda": {"anyOf": [
                    {"type": "number"},
                    {"type": "array", "items": {"type": "number"},
                     "minItems": 2, "maxItems": 2},
                ]},
                "n_terms": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "fail_on_cap": {"type": "boolean"},
            },
            "required": ["lambda"],
            "additionalProperties": False,
        },
        "eigs": {
            "type": "object",
            "required": ["bc_left", "bc_right", "range"],
            "properties": {
                "bc_left": {"type": "array", "items": {"type": "number"},
                            "minItems": 2, "maxItems": 2},
                "bc_right": {"type": "array", "items": {"type": "number"},
                             "minItems": 2, "maxItems": 2},
                "range": {"type": "array", "items": {"type": "number"},
                          "minItems": 2, "maxItems": 2},
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "series_tol": {"type": "number", "exclusiveMinimum": 0},
                "dump_scan": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
        "taylor": {
            "type": "object",
            "required": ["n"],
            "properties": {
                "n": {"type": "integer", "minimum": 0},
                "x0": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "approx": {
            "type": "object",
            "required": ["target", "orders"],
            "properties": {
                "target": {
                    "type": "object",
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["builtin", "csv"]},
                        "name": {"enum": ["identity", "abs", "constant", "exp"]},
                        "parameters": {"type": "object", "properties": {
                            "value": {"type": "number"}, "c": {"type": "number"}}},
                        "path": {"type": "string"},
                    },
                    "additionalProperties": False,
                },
                "which": {"enum": ["even", "odd", "full"]},
                "orders": {"type": "array", "minItems": 1,
                           "items": {"type": "integer", "minimum": 0}},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


class ConfigError(Exception):
    """Config failed validation; maps to exit code 2."""


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


def _same(a, b) -> bool:
    """JSON equality: 1 equals 1.0, but a bool equals only a bool."""
    return isinstance(a, bool) == isinstance(b, bool) and a == b


def _errors(v, schema: dict, path: list):
    """Yield (path, message) for each way the JSON value v breaks schema."""
    if "type" in schema and not _TYPES[schema["type"]](v):
        yield path, f"{v!r} is not of type {schema['type']!r}"
        return
    if "const" in schema and not _same(v, schema["const"]):
        yield path, f"{schema['const']!r} was expected"
    if "enum" in schema and not any(_same(v, e) for e in schema["enum"]):
        yield path, f"{v!r} is not one of {schema['enum']!r}"
    if _TYPES["number"](v):
        if "minimum" in schema and v < schema["minimum"]:
            yield path, f"{v!r} is less than the minimum of {schema['minimum']!r}"
        if "exclusiveMinimum" in schema and v <= schema["exclusiveMinimum"]:
            yield path, (f"{v!r} is less than or equal to the minimum of "
                         f"{schema['exclusiveMinimum']!r}")
    if isinstance(v, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in v:
                yield path, f"{key!r} is a required property"
        extra = [k for k in v if k not in props]
        if extra and schema.get("additionalProperties", True) is False:
            were = "was" if len(extra) == 1 else "were"
            yield path, ("Additional properties are not allowed ("
                         f"{', '.join(map(repr, extra))} {were} unexpected)")
        for key, sub in props.items():
            if key in v:
                yield from _errors(v[key], sub, path + [key])
    if isinstance(v, list):
        if len(v) < schema.get("minItems", 0):
            yield path, f"{v!r} is too short"
        if len(v) > schema.get("maxItems", len(v)):
            yield path, f"{v!r} is too long"
        for i, item in enumerate(v if "items" in schema else ()):
            yield from _errors(item, schema["items"], path + [i])
    if "anyOf" in schema:
        tries = [list(_errors(v, sub, path)) for sub in schema["anyOf"]]
        if all(tries):
            # the deepest branch error, when one goes deeper than v itself
            deepest = max((e for t in tries for e in t), key=lambda e: len(e[0]))
            yield deepest if len(deepest[0]) > len(path) else (
                path, f"{v!r} is not valid under any of the given schemas")


def _as_ints(v, schema: dict, path: tuple = ()):
    """A copy of valid v with each integer-typed value made an int.  Raises
    ConfigError for a float anywhere in v that is not finite and for an
    integer too large for a float."""
    if isinstance(v, dict):
        props = schema.get("properties", {})
        return {k: _as_ints(x, props.get(k, {}), path + (k,)) for k, x in v.items()}
    if isinstance(v, list):
        return [_as_ints(x, schema.get("items", {}), path + (i,)) for i, x in enumerate(v)]
    where = "/".join(map(str, path))
    if isinstance(v, float) and not np.isfinite(v):
        raise ConfigError(f"{where} must be finite, got {v}")
    if isinstance(v, int) and abs(v) > sys.float_info.max:
        raise ConfigError(f"{where} is an integer too large for a float")
    return int(v) if schema.get("type") == "integer" else v


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from None
    except ValueError as e:
        # JSONDecodeError, bad UTF-8, or an integer literal past Python's digit limit
        raise ConfigError(f"malformed JSON in {path}: {e}") from None
    errors = list(_errors(cfg, CONFIG_SCHEMA, []))
    if errors:
        # the outermost violation, as jsonschema's best_match picks it
        path, message = min(errors, key=lambda e: len(e[0]))
        where = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {message}")
    return cfg


def _config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _resolve(path: str, base: str) -> str:
    return path if os.path.isabs(path) else os.path.join(base, path)


def _given(block: dict, *keys: str, **renamed: str) -> dict:
    """The keyword arguments a block sets, as key or parameter=key; an unset
    key keeps the default written in the library signature."""
    params = dict(zip(keys, keys)) | renamed
    return {p: block[k] for p, k in params.items() if k in block}


def _builtin_seed(block: dict):
    """The builtin seed a seed block names; anything wrong is a ConfigError."""
    if "name" not in block:
        raise ConfigError("builtin seed needs a name")
    try:
        return get_seed(block["name"], **block.get("parameters", {}))
    except ValueError as e:
        raise ConfigError(str(e)) from None


class _Run:
    """Shared state for one command execution."""

    def __init__(self, cfg: dict, config_dir: str, out_dir: str):
        self.cfg = cfg
        self.config_dir = config_dir
        self.out_dir = out_dir
        self.files: list[str] = []

    def path(self, name: str) -> str:
        # made at the first write, so a failing command leaves no empty directory
        os.makedirs(self.out_dir, exist_ok=True)
        self.files.append(name)
        return os.path.join(self.out_dir, name)

    # -- config pieces ----------------------------------------------------

    def grid(self) -> Grid:
        block = self.cfg.get("grid")
        if block is None:
            raise ConfigError(f"command {self.cfg['command']!r} needs a grid block")
        try:
            return Grid(block["a"], block["b"], **_given(block, "n_nodes", "x0"))
        except GridConfigError as e:
            raise ConfigError(f"bad grid: {e}") from None

    def csv_function(self, block: dict, grid: Grid, what: str) -> GridFunction:
        """Read block["path"] anchored at grid.x0; it must lie on grid, finite."""
        if "path" not in block:
            raise ConfigError(f"{what} of kind csv needs a path")
        try:
            gf = read_csv(_resolve(block["path"], self.config_dir), x0=grid.x0)
        except (OSError, ValueError) as e:
            # ValueError covers GridConfigError and malformed rows
            raise ConfigError(f"cannot read {what} CSV: {e}") from None
        if gf.grid != grid:
            raise ConfigError(f"{what} CSV grid does not match the config grid")
        return _check_finite(gf, ConfigError, f"{what} CSV value")

    def q_function(self, grid: Grid) -> GridFunction:
        block = self.cfg.get("q")
        if block is None:
            raise ConfigError("this configuration needs a q block")
        if block["kind"] == "constant":
            if "value" not in block:
                raise ConfigError("q of kind constant needs a value")
            return GridFunction(grid, np.full(grid.n_nodes, float(block["value"])))
        return self.csv_function(block, grid, "q")

    def seed_function(self, grid: Grid, q: GridFunction | None = None) -> GridFunction:
        """The seed block's seed; a given q must be solved by it, so it is
        reused and from_q is the only kind allowed."""
        block = self.cfg.get("seed", None if q is None else {"kind": "from_q"})
        if block is None:
            raise ConfigError("this configuration needs a seed block")
        kind = block["kind"]
        if q is not None and kind != "from_q":
            raise ConfigError(f"a seed of kind {kind!r} need not solve f'' + qf = 0 "
                              f"for this q; eigs takes only kind 'from_q'")
        if kind == "builtin":
            return sample(_builtin_seed(block).func, grid)
        if kind == "csv":
            return self.csv_function(block, grid, "seed")
        return build_seed(self.q_function(grid) if q is None else q)

    def family(self, grid: Grid, q: GridFunction | None = None):
        f = self.seed_function(grid, q)
        return build_family(f, **_given(self.cfg, N="family_order"))

    # -- output helpers -----------------------------------------------------

    def write_json(self, name: str, obj) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_rows(self, name: str, header: list[str], table) -> None:
        """Write a 2-D real table under header, every value as %.17g."""
        table = np.asarray(table, dtype=float)
        rows = (",".join(["%.17g"] * table.shape[1]) + "\n") * len(table)
        with open(self.path(name), "w", newline="") as fh:
            fh.write(",".join(header) + "\n" + rows % tuple(table.ravel().tolist()))


def _block(cfg: dict) -> dict:
    cmd = cfg["command"]
    block = cfg.get(cmd)
    if block is None:
        raise ConfigError(f"command {cmd!r} needs a {cmd!r} config block")
    return block


def _cmd_basis(run: _Run) -> None:
    cfg = run.cfg
    grid = run.grid()
    family = run.family(grid)
    block = cfg.get("basis", {})
    kmax = block.get("max_order", min(family.N, 10))
    if kmax > family.N:
        raise ConfigError(f"basis max_order {kmax} exceeds family_order {family.N}")
    for k in range(kmax + 1):
        write_csv(family.psi(k), run.path(f"psi_{k:03d}.csv"))


def _cmd_solve(run: _Run) -> None:
    block = _block(run.cfg)
    raw = block["lambda"]
    lam = complex(*raw) if isinstance(raw, list) else complex(raw)
    grid = run.grid()
    family = run.family(grid)
    if "n_terms" in block:
        n_terms = block["n_terms"]
        if 2 * n_terms - 1 > family.N:
            raise ConfigError(f"solve n_terms {n_terms} needs family_order "
                              f"{2 * n_terms - 1}, got {family.N}")
    else:
        try:
            choice = choose_truncation(family, lam, **_given(block, "tol"))
        except OrderError as e:  # |lambda|^k overflows in the rule
            raise ConfigError(f"solve/lambda: {e}") from None
        if choice.capped and block.get("fail_on_cap", False):
            raise OrderError(
                f"truncation capped at {choice.n_terms} terms without "
                f"meeting tol; fail_on_cap is set")
        n_terms = choice.n_terms
    cols = [grid.nodes]
    try:
        for u in (u1_grid, u1_prime_grid, u2_grid, u2_prime_grid):
            c = np.asarray(u(family, lam, n_terms).values, dtype=complex)
            cols += [c.real, c.imag]
    except OrderError as e:  # |lambda|^(n_terms - 1) overflows
        raise SppsError(f"solution at lambda={lam} with {n_terms} terms: {e}") from None
    if not np.all(np.isfinite(cols[1:])):
        raise SppsError(f"solution at lambda={lam} with {n_terms} terms "
                        f"is not finite on the grid")
    run.write_rows(
        "solution.csv",
        ["x", "u1_re", "u1_im", "u1p_re", "u1p_im",
         "u2_re", "u2_im", "u2p_re", "u2p_im"],
        np.column_stack(cols))


def _cmd_eigs(run: _Run) -> None:
    block = _block(run.cfg)
    grid = run.grid()
    q = run.q_function(grid)
    family = run.family(grid, q)
    try:
        problem = SlProblem(q, tuple(block["bc_left"]), tuple(block["bc_right"]))
        result = find_eigenvalues(problem, family, block["range"],
                                  **_given(block, "tol", "series_tol"))
    except OrderError as e:  # |lambda|^k overflows at a window end
        raise ConfigError(f"eigs/range: {e}") from None
    except SppsError:
        raise
    except ValueError as e:
        # degenerate boundary data or a bad range are config problems
        raise ConfigError(str(e)) from None
    run.write_json("eigenvalues.json", {
        "eigenvalues": [[float(np.real(v)), float(np.imag(v))]
                        for v in result.eigenvalues],
        "residuals": [float(r) for r in result.residuals],
        "n_terms": result.n_terms,
    })
    if block.get("dump_scan", False):
        phi = result.scan_phi
        run.write_rows("scan.csv", ["lambda", "phi_re", "phi_im"],
                       np.column_stack([result.scan_lams, phi.real, phi.imag]))


def _cmd_taylor(run: _Run) -> None:
    cfg = run.cfg
    block = _block(cfg)
    n = block["n"]
    jet_order = max(n - 1, 0)  # all of the phi jet that A_n reads
    seed_block = cfg.get("seed")
    if seed_block is None:
        raise ConfigError("taylor needs a seed block")
    if seed_block["kind"] == "builtin":
        if "x0" not in block:
            raise ConfigError("taylor with a builtin seed needs an x0")
        seed = _builtin_seed(seed_block)
        try:
            phi_jet = seed.phi_jet(block["x0"], jet_order)
        except ValueError as e:
            raise ConfigError(str(e)) from None
    else:
        grid = run.grid()
        if "x0" in block and block["x0"] != grid.x0:
            raise ConfigError("taylor x0 must equal the grid anchor for "
                              "sampled seeds")
        f = run.seed_function(grid)
        phi_jet = Jet.from_grid(f * f, jet_order)
    A = build_A_recursive(phi_jet, n)
    # both vectors before the first write: a failure here leaves no files
    u1_vec, u2_vec = solution_taylor_vectors(A)
    header = []
    for m in range(n + 1):
        header += [f"a{m}_re", f"a{m}_im"]
    run.write_rows("matrix.csv", header,
                   np.stack([A.entries.real, A.entries.imag], axis=-1).reshape(n + 1, -1))
    run.write_json("taylor_vectors.json", {
        "u1_over_f": [[[c.real, c.imag] for c in p.coeffs] for p in u1_vec],
        "u2_over_f": [[[c.real, c.imag] for c in p.coeffs] for p in u2_vec],
    })


def _target_fn(name: str, p: dict):
    if name == "identity":
        return lambda x: np.asarray(x, dtype=float)
    if name == "abs":
        return np.abs
    if name == "constant":
        if "value" not in p:
            raise ConfigError("constant target needs parameters.value")
        v = float(p["value"])
        return lambda x: np.full_like(np.asarray(x, dtype=float), v)
    c = float(p.get("c", 1.0))
    return lambda x: np.exp(c * np.asarray(x, dtype=float))


def _cmd_approx(run: _Run) -> None:
    block = _block(run.cfg)
    grid = run.grid()
    family = run.family(grid)
    target = block["target"]
    if target["kind"] == "builtin":
        if "name" not in target:
            raise ConfigError("builtin target needs a name")
        fn = _target_fn(target["name"], target.get("parameters", {}))
        h = sample(fn, grid)
    else:
        h = run.csv_function(target, grid, "target")
    rows = []
    for N in block["orders"]:
        if N > family.N:
            raise ConfigError(f"approx order {N} exceeds family_order {family.N}")
        r = least_squares_project(h, family, N, **_given(block, "which"))
        rows.append((N, r.l2_error, r.max_error, r.condition_estimate))
    run.write_rows(
        "decay.csv", ["N", "l2_error", "max_error", "condition_estimate"], rows)


_COMMANDS = {
    "basis": _cmd_basis,
    "solve": _cmd_solve,
    "eigs": _cmd_eigs,
    "taylor": _cmd_taylor,
    "approx": _cmd_approx,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spps",
        description="Recursive-integral bases, series solutions, and "
                    "Sturm-Liouville eigenvalues, driven by a JSON config.")
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--out", help="output directory (overrides config)")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        ints = _as_ints(cfg, CONFIG_SCHEMA)
        config_dir = os.path.dirname(os.path.abspath(args.config))
        out_dir = args.out or cfg.get("output_dir")
        if not out_dir:
            raise ConfigError("no output directory (config output_dir or --out)")
        out_dir = _resolve(out_dir, config_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    run = _Run(ints, config_dir, out_dir)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _COMMANDS[cfg["command"]](run)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except SppsError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3

    notes = []
    for w in caught:
        msg = str(w.message)
        if msg not in notes:
            notes.append(msg)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg["command"],
        "config_sha256": _config_hash(cfg),
        "library_version": __version__,
        "files": sorted(run.files),
        "warnings": notes,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
