"""The four benchmark workloads.

Each workload draws its inputs from the seed, one cycle at a time:
cycle i uses numpy.random.default_rng([seed, i]), so the same seed gives
the same ops.  A cycle has a fixed mix of op kinds and sizes; a run
covers a fixed number of whole cycles, so the ops, and with them the
op-time distribution, do not depend on how fast the code is.

An op is (label, run, check).  `run` is the timed call into spps and
receives only generated inputs; `check(result, caught)` compares the
result with an independent reference outside the timed region and
returns (passed, digits or None, accuracy warnings).  The library is
always reached through attributes of the spps package or its modules,
so a traced run sees every call.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import warnings
from math import factorial

import numpy as np

import spps
from spps.errors import AccuracyWarning

import reference as ref

PASS_REL = 1e-6      # eigenvalue / series agreement needed to pass
# random streams apart from the cycle numbers: set-up parameters, warm-up ops
SETUP_STREAM = 10 ** 7
WARM_STREAM = 10 ** 6


def accuracy_warnings(caught) -> list:
    return [w for w in caught if issubclass(w.category, AccuracyWarning)]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    name = ""
    # nominal cycles per second at the parent commit; times --seconds it
    # fixes the cycles every run covers, so that the ops, their failures,
    # the traced counts and digits_min do not depend on the speed of the code
    nominal_rate = 1.0
    in_process = True      # False: ops run in child processes

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def rng(self, i) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def setup(self) -> None:
        """Per-workload precomputation and warm-up, before the first timed op."""

    def cycle(self, i: int) -> list:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def close(self) -> None:
        pass

    def warm(self, ops) -> None:
        for _, run, _ in ops:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run()


# -- eigs-pipeline ------------------------------------------------------------

EIG_FAMILY_ORDER = 80
EIG_SIZES = (1001, 5001, 20001)
EIG_BCS = ("DD", "NN", "mixed")
# Known defects at the parent commit, kept so that they show as failures:
# q = 0 on [0, 1], n = 5001, N = 80.
EIG_FIXED = (
    ("fixed-neumann-endpoint", "NN", (-50.0, 0.0)),    # loses lambda = 0
    ("fixed-dirichlet-drop", "DD", (-400.0, -1.0)),    # drops -355.3
    ("fixed-dirichlet-wide", "DD", (-2000.0, -1.0)),   # finds 9 of 14
)


def _bc_pair(bc: str):
    return ref.BC_COEFFS[bc[0]], ref.BC_COEFFS[bc[1]]


class EigsPipeline(Workload):
    """One op: build_seed -> build_family(N = 80) -> find_eigenvalues."""

    name = "eigs-pipeline"
    nominal_rate = 1 / 15.0

    def setup(self):
        self.warm([self._op("warm-up", 1001, "DD", 1.0, (0.0, 0.0, 1),
                            (-120.0, -1.0), None)])

    def _op(self, label, n, bc, L, qpar, window, expected):
        c0, c1, k = qpar
        grid = spps.Grid(0.0, L, n)
        q = spps.sample(lambda x: c0 + c1 * np.cos(k * np.pi * x / L), grid)
        bcl, bcr = _bc_pair(bc)

        def run():
            f = spps.build_seed(q)
            fam = spps.build_family(f, EIG_FAMILY_ORDER)
            return spps.find_eigenvalues(spps.SlProblem(q, bcl, bcr), fam, window)

        def check(res, caught):
            acc = accuracy_warnings(caught)
            capped = any(str(w.message).startswith("truncation cap") for w in acc)
            found = np.sort(np.real(res.eigenvalues))[::-1]
            if capped or len(found) != len(expected):
                return False, None, len(acc)
            err = float(np.max(np.abs(found - expected) /
                               np.maximum(1.0, np.abs(expected))))
            return err <= PASS_REL, ref.digits(err), len(acc)

        return f"{label} n={n} {bc} L={L:.3f} window=({window[0]:.4g}, {window[1]:.4g})", run, check

    def cycle(self, i):
        rng = self.rng(i)
        ops = []
        for slot in range(len(EIG_SIZES) * len(EIG_BCS)):
            n = EIG_SIZES[slot // 3]
            bc = EIG_BCS[slot % 3]
            if bc == "mixed":
                bc = ("DN", "ND")[rng.integers(2)]
            # window depth sets the series length and so the op's cost:
            # fix it per slot, 3-5 roots starting at the first or second
            width = 3 + (slot // 3 + slot) % 3
            start = slot % 2
            # L stratified in [0.5, 2], each third once per size and per bc
            L = 0.5 + 0.5 * ((2 * (slot // 3) + slot) % 3 + rng.uniform())
            if slot % 2:
                qpar = (rng.uniform(-10, 10), rng.uniform(-10, 10), int(rng.integers(1, 4)))
                spec = ref.cosine_spectrum(*qpar, L, bc, start + width + 1)
                kind = "cos"
            else:
                qpar = (rng.uniform(-10, 10), 0.0, 1)
                spec = ref.constant_spectrum(qpar[0], L, bc, start + width + 1)
                kind = "const"
            # window ends halfway between reference eigenvalues
            above = spec[start - 1] if start else spec[0] + (spec[0] - spec[1])
            window = (0.5 * (spec[start + width - 1] + spec[start + width]),
                      0.5 * (above + spec[start]))
            ops.append(self._op(kind, n, bc, L, qpar, window,
                                spec[start:start + width]))
        for label, bc, window in EIG_FIXED:
            spec = ref.constant_spectrum(0.0, 1.0, bc, 32)
            expected = spec[(spec >= window[0]) & (spec <= window[1])]
            ops.append(self._op(label, 5001, bc, 1.0, (0.0, 0.0, 1), window, expected))
        return ops


# -- series-eval --------------------------------------------------------------

SERIES_NODES = 20001
SERIES_FAMILY_ORDER = 80
SERIES_POINTS = 64


def _wronskian_defect(u1, u1p, u2, u2p) -> float:
    """max |u1 u2' - u1' u2 - 1|, relative to the size of the two products."""
    a, b = u1 * u2p, u1p * u2
    return float(np.max(np.abs(a - b - 1.0) / (1.0 + np.abs(a) + np.abs(b))))


class SeriesEval(Workload):
    """One op: choose_truncation, the four u*_grid and eval_u* at 64 points."""

    name = "series-eval"
    nominal_rate = 1 / 0.6

    def setup(self):
        rng = self.rng(SETUP_STREAM)
        self.v = rng.uniform(0.5, 2.0)
        g01 = spps.Grid(0.0, 1.0, SERIES_NODES)
        g12 = spps.Grid(1.0, 2.0, SERIES_NODES)
        c0, c1, k = rng.uniform(-10, 10), rng.uniform(-10, 10), int(rng.integers(1, 4))
        q = spps.sample(lambda x: c0 + c1 * np.cos(k * np.pi * x), g01)
        seeds = [
            ("constant", spps.sample(spps.get_seed("constant", value=self.v).func, g01)),
            ("exp", spps.sample(spps.get_seed("exp", c=rng.uniform(-1, 1)).func, g01)),
            ("x_exp_a_over_x", spps.sample(
                spps.get_seed("x_exp_a_over_x", a=rng.uniform(0.5, 1.5)).func, g12)),
            ("from_q", spps.build_seed(q)),
        ]
        self.families = [(name, spps.build_family(f, SERIES_FAMILY_ORDER))
                         for name, f in seeds]
        self.warm(self._op(j, -10.0, np.linspace(0.1, 0.9, SERIES_POINTS))
                  for j in range(len(self.families)))

    def _op(self, j, lam, frac):
        name, fam = self.families[j]
        g = fam.grid
        xs = g.a + (g.b - g.a) * frac

        def run():
            choice = spps.choose_truncation(fam, lam)
            M = choice.n_terms
            on_grid = [spps.u1_grid(fam, lam, M), spps.u1_prime_grid(fam, lam, M),
                       spps.u2_grid(fam, lam, M), spps.u2_prime_grid(fam, lam, M)]
            at_pts = [spps.eval_u1(fam, lam, xs, M), spps.eval_u1_prime(fam, lam, xs, M),
                      spps.eval_u2(fam, lam, xs, M), spps.eval_u2_prime(fam, lam, xs, M)]
            return choice, [u.values for u in on_grid], at_pts

        def check(res, caught):
            choice, on_grid, at_pts = res
            n_warn = len(accuracy_warnings(caught))
            if choice.capped:
                return False, None, n_warn
            err = max(_wronskian_defect(*on_grid), _wronskian_defect(*at_pts))
            if name == "constant":
                for x, vals in ((g.nodes, on_grid), (xs, at_pts)):
                    exact = ref.constant_seed_solutions(self.v, lam, x - g.x0)
                    for u, e in zip(vals, exact):
                        err = max(err, float(np.max(np.abs(u - e)) /
                                             max(1.0, float(np.max(np.abs(e))))))
            return err <= PASS_REL, ref.digits(err), n_warn

        return f"{name} lambda={lam:.6g}", run, check

    def cycle(self, i):
        rng = self.rng(i)
        ops = []
        for slot in range(3 * len(self.families)):
            kind = slot // len(self.families)
            # |lambda| stratified: every cycle covers each quarter of the
            # log range three times, so its cost and worst case vary little
            mag = 10.0 ** (0.75 * ((slot + kind) % 4 + rng.uniform()))
            if kind == 0:
                lam = complex(-mag)
            elif kind == 1:
                lam = complex(mag)
            else:
                lam = mag * np.exp(1j * rng.choice([-1, 1]) * rng.uniform(0.15, np.pi - 0.15))
            frac = (np.arange(SERIES_POINTS) + rng.uniform(0.2, 0.8, SERIES_POINTS)) / SERIES_POINTS
            ops.append(self._op(slot % len(self.families), lam, frac))
        return ops


# -- taylor-calculus ----------------------------------------------------------

TAYLOR_FAMILY_ORDER = 30
TAYLOR_NODES = (501, 1001, 2001)


class TaylorCalculus(Workload):
    """Generalized Taylor calculus and transformation matrices, small grids."""

    name = "taylor-calculus"
    nominal_rate = 70.0

    def setup(self):
        # fixed seed functions: drawn once per run, their parameters would
        # set the conditioning of every op and make digits_min vary by run
        self.seeds = [
            (spps.get_seed("constant", value=1.3), (-1.0, 1.0), 0.0),
            (spps.get_seed("exp", c=0.7), (0.0, 1.0), 0.5),
            (spps.get_seed("x_exp_a_over_x", a=0.8), (1.0, 2.0), 1.5),
        ]
        self.families = {}
        for j, (seed, (a, b), x0) in enumerate(self.seeds):
            for n in TAYLOR_NODES:
                g = spps.Grid(a, b, n, x0=x0)
                self.families[j, n] = spps.build_family(spps.sample(seed.func, g),
                                                        TAYLOR_FAMILY_ORDER)
        self._oracle = {}
        # first calls pay BLAS and allocator start-up; keep that out of op times
        for i in range(2):
            self.warm(self.cycle(WARM_STREAM + i))

    def oracle(self, j: int, n: int):
        """build_A_closed_form, cached; evaluated outside the timed region."""
        if (j, n) not in self._oracle:
            seed, _, x0 = self.seeds[j]
            self._oracle[j, n] = spps.build_A_closed_form(
                seed.phi_jet(x0, max(n - 1, 0)), n).entries
        return self._oracle[j, n]

    def cycle(self, i):
        rng = self.rng(i)
        ops = []
        for j in range(len(self.seeds)):
            # sizes rotate with the cycle and omega is stratified, so a few
            # cycles cover every combination
            omega = 1.0 + (i + j) % 3 + rng.uniform()
            phase = rng.uniform(0.0, 2 * np.pi)
            ops.append(self._gamma(j, rng, omega, phase, TAYLOR_NODES[(i // 3 + j) % 2], 2 + i % 3))
            ops.append(self._remainder(j, rng, omega, phase, TAYLOR_NODES[1 + (i + j) % 2]))
            ops.append(self._lsq(j, rng, omega, phase, TAYLOR_NODES[1 + (i + j + 1) % 2],
                                 ("even", "odd", "full")[(i + j) % 3]))
            ops.append(self._transform(j, rng))
        return ops

    def _target(self, fam, omega, phase):
        return spps.sample(lambda x: np.sin(omega * x + phase), fam.grid)

    def _gamma(self, j, rng, omega, phase, nodes, n):
        fam = self.families[j, nodes]
        h = self._target(fam, omega, phase)

        def run():
            return spps.gamma_seq(h, fam, n), spps.gen_taylor_coeffs(h, fam, n)

        def check(res, caught):
            seq, poly = res
            d = self.oracle(j, n) @ seq.values
            exact = ref.sine_derivatives(omega, phase, fam.grid.x0, n)
            k = np.arange(n + 1)
            err = np.abs(d - exact) / omega ** k
            # each generalized derivative is one more grid differentiation,
            # which costs digits (see the gamma_seq docstring): allow 1.5
            # digits per level from 1e-8
            ok = bool(np.all(err <= 1e-8 * 10.0 ** (1.5 * k)))
            fact = np.array([factorial(m) for m in k], dtype=float)
            ok &= bool(np.allclose(poly.alpha * fact, seq.values, rtol=1e-13, atol=0))
            return ok, ref.digits(float(np.max(err))), len(accuracy_warnings(caught))

        return f"gamma seed={j} nodes={nodes} n={n}", run, check

    def _remainder(self, j, rng, omega, phase, nodes):
        n = int(rng.integers(2, 5))
        fam = self.families[j, nodes]
        g = fam.grid
        h = self._target(fam, omega, phase)
        pts = np.sort(rng.uniform(g.x0, g.b, 8))

        def run():
            return spps.remainder_check(h, fam, n, pts)

        def check(rep, caught):
            return bool(rep.passed), None, len(accuracy_warnings(caught))

        return f"remainder seed={j} nodes={nodes} n={n}", run, check

    def _lsq(self, j, rng, omega, phase, nodes, which):
        N = int(rng.integers(4, 17))
        fam = self.families[j, nodes]
        g = fam.grid
        h = self._target(fam, omega, phase)

        def run():
            return spps.least_squares_project(h, fam, N, which)

        def check(res, caught):
            w = np.full(g.n_nodes, g.h)
            w[0] = w[-1] = g.h / 2.0
            B = np.column_stack([fam.f.values * fam.psi(k).values for k in res.orders])
            r = B @ res.coefficients - h.values
            # optimality: the weighted residual is orthogonal to the basis
            hn = float(np.linalg.norm(np.sqrt(w) * h.values))
            opt = float(np.linalg.norm(B.conj().T @ (w * r)) /
                        (np.linalg.norm(np.sqrt(w)[:, None] * B) * hn))
            # the reported error, relative to the size of the target
            l2 = float(np.sqrt(np.sum(w * np.abs(r) ** 2)))
            err = max(opt, abs(l2 - res.l2_error) / hn)
            if j == 0 and which == "full":   # constant seed: polynomial fit
                lref = ref.legendre_fit_l2(g.nodes, h.values, w, N)
                err = max(err, abs(res.l2_error - lref) / hn)
            return err <= 1e-8, ref.digits(err), len(accuracy_warnings(caught))

        return f"lsq seed={j} nodes={nodes} N={N} {which}", run, check

    def _transform(self, j, rng):
        n = int(rng.integers(8, 17))
        seed, _, x0 = self.seeds[j]
        lam = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        powers = np.zeros(n + 1, dtype=complex)
        powers[0::2] = lam ** np.arange(len(powers[0::2]))

        def run():
            A = spps.build_A_recursive(seed.phi_jet(x0, n - 1), n)
            u1_vec, _ = spps.solution_taylor_vectors(A)
            return A, u1_vec, spps.ordinary_from_generalized(A, powers)

        def check(res, caught):
            A, u1_vec, direct = res
            Aref = self.oracle(j, n)
            disc = float(np.max(np.abs(A.entries - Aref)) / np.max(np.abs(Aref)))
            via = spps.taylor_eval(u1_vec, lam)
            vdisc = float(np.max(np.abs(via - direct)) / max(1.0, float(np.max(np.abs(direct)))))
            err = max(disc, vdisc)
            return err <= 1e-9, ref.digits(err), len(accuracy_warnings(caught))

        return f"transform seed={j} n={n}", run, check


# -- cli-cold -----------------------------------------------------------------

CLI_COMMANDS = ("basis", "solve", "eigs", "taylor", "approx")


class CliCold(Workload):
    """One op: one fresh `python -m spps.cli` process for one command."""

    name = "cli-cold"
    nominal_rate = 1 / 5.0
    in_process = False

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.work = os.path.join(root, ".bench_build", "perfbench", f"cli-{os.getpid()}")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.max_rss_kb = 0
        self.traced = None     # set to a Tracer for traced runs

    def setup(self):
        os.makedirs(self.work, exist_ok=True)
        # one untimed run per command compiles bytecode and fills the page
        # cache, so the timed runs are cold processes on a warm cache
        self.warm(self.cycle(WARM_STREAM))
        self.max_rss_kb = 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0

    def cycle(self, i):
        rng = self.rng(i)
        return [getattr(self, f"_{cmd}")(rng, os.path.join(self.work, f"c{i}-{cmd}"))
                for cmd in CLI_COMMANDS]

    def _spawn(self, cfg: dict, out: str):
        os.makedirs(out, exist_ok=True)
        cfg = dict(cfg, schema_version=1, output_dir=out)
        path = os.path.join(out, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        spans = os.path.join(out, "spans.json")

        def run():
            if self.traced is None:
                cmd = [sys.executable, "-m", "spps.cli", "--config", path]
            else:
                cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_traced.py"),
                       spans, "--config", path]
            with open(os.path.join(out, "stderr.txt"), "w") as err:
                proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                        stdout=subprocess.DEVNULL, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            if self.traced is not None and os.path.exists(spans):
                with open(spans) as fh:
                    self.traced.merge(json.load(fh))
            return proc.returncode

        return run

    def _finish(self, out, code, compare):
        """Shared check: exit code 0, a manifest, then the command's values."""
        manifest = os.path.join(out, "manifest.json")
        if code != 0 or not os.path.exists(manifest):
            return False, None, 0
        with open(manifest) as fh:
            n_warn = len(json.load(fh)["warnings"])
        err = compare()
        return err is not None and err <= PASS_REL, (
            ref.digits(err) if err is not None else None), n_warn

    def _basis(self, rng, out):
        v, L, kmax = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), int(rng.integers(4, 9))
        run = self._spawn({"command": "basis", "grid": {"a": 0.0, "b": L, "n_nodes": 2001},
                           "seed": {"kind": "builtin", "name": "constant",
                                    "parameters": {"value": v}},
                           "family_order": 20, "basis": {"max_order": kmax}}, out)

        def compare():
            err = 0.0
            for k in range(kmax + 1):
                x, re, im = np.loadtxt(os.path.join(out, f"psi_{k:03d}.csv"),
                                       delimiter=",", skiprows=1, unpack=True)
                exact = x ** k / (v * v if k % 2 else 1.0)
                err = max(err, float(np.max(np.abs(re + 1j * im - exact)) /
                                     max(1.0, float(np.max(np.abs(exact))))))
            return err

        return f"basis v={v:.3f} kmax={kmax}", run, lambda code, caught: self._finish(out, code, compare)

    def _solve(self, rng, out):
        v = rng.uniform(0.5, 2.0)
        # a narrow band of lambda: the series loses digits as |lambda| grows,
        # and a run has too few solve ops to average that out
        lam = complex(-rng.uniform(50, 100), rng.uniform(-20, 20))
        run = self._spawn({"command": "solve", "grid": {"a": 0.0, "b": 1.0, "n_nodes": 2001},
                           "seed": {"kind": "builtin", "name": "constant",
                                    "parameters": {"value": v}},
                           "solve": {"lambda": [lam.real, lam.imag]}}, out)

        def compare():
            cols = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",", skiprows=1)
            exact = ref.constant_seed_solutions(v, lam, cols[:, 0])
            err = 0.0
            for m, e in enumerate(exact):
                u = cols[:, 1 + 2 * m] + 1j * cols[:, 2 + 2 * m]
                err = max(err, float(np.max(np.abs(u - e)) / max(1.0, float(np.max(np.abs(e))))))
            return err

        return f"solve v={v:.3f} lambda={lam:.4g}", run, lambda code, caught: self._finish(out, code, compare)

    def _eigs(self, rng, out):
        c, L = rng.uniform(-5, 5), rng.uniform(0.5, 2.0)
        bc = ("DD", "NN", "DN", "ND")[rng.integers(4)]
        spec = ref.constant_spectrum(c, L, bc, 4)
        window = [0.5 * (spec[2] + spec[3]), spec[0] + 0.5 * (spec[0] - spec[1])]
        bcl, bcr = _bc_pair(bc)
        run = self._spawn({"command": "eigs", "grid": {"a": 0.0, "b": L, "n_nodes": 5001},
                           "q": {"kind": "constant", "value": c},
                           "eigs": {"bc_left": list(bcl), "bc_right": list(bcr),
                                    "range": window}}, out)

        def compare():
            with open(os.path.join(out, "eigenvalues.json")) as fh:
                found = np.sort([re for re, _ in json.load(fh)["eigenvalues"]])[::-1]
            if len(found) != 3:
                return None
            return float(np.max(np.abs(found - spec[:3]) / np.maximum(1.0, np.abs(spec[:3]))))

        return f"eigs {bc} c={c:.3f} L={L:.3f}", run, lambda code, caught: self._finish(out, code, compare)

    def _taylor(self, rng, out):
        name, params, x0 = (("exp", {"c": rng.uniform(-1, 1)}, 0.3),
                            ("x_exp_a_over_x", {"a": rng.uniform(0.5, 1.5)}, 1.5),
                            ("constant", {"value": rng.uniform(0.5, 2.0)}, 0.0))[rng.integers(3)]
        n = int(rng.integers(6, 13))
        run = self._spawn({"command": "taylor", "seed": {"kind": "builtin", "name": name,
                                                         "parameters": params},
                           "taylor": {"n": n, "x0": x0}}, out)

        def compare():
            Aref = spps.build_A_closed_form(
                spps.get_seed(name, **params).phi_jet(x0, n - 1), n).entries
            m = np.loadtxt(os.path.join(out, "matrix.csv"), delimiter=",", skiprows=1, ndmin=2)
            A = m[:, 0::2] + 1j * m[:, 1::2]
            return float(np.max(np.abs(A - Aref)) / np.max(np.abs(Aref)))

        return f"taylor {name} n={n}", run, lambda code, caught: self._finish(out, code, compare)

    def _approx(self, rng, out):
        c = rng.uniform(0.5, 2.0)
        orders = sorted(int(o) for o in rng.choice(np.arange(2, 9), 3, replace=False))
        n_nodes = 2001
        run = self._spawn({"command": "approx", "grid": {"a": -1.0, "b": 1.0, "n_nodes": n_nodes},
                           "seed": {"kind": "builtin", "name": "constant",
                                    "parameters": {"value": 1.0}},
                           "family_order": 10,
                           "approx": {"target": {"kind": "builtin", "name": "exp",
                                                 "parameters": {"c": c}},
                                      "which": "full", "orders": orders}}, out)

        def compare():
            rows = np.loadtxt(os.path.join(out, "decay.csv"), delimiter=",", skiprows=1, ndmin=2)
            x = np.linspace(-1.0, 1.0, n_nodes)
            w = np.full(n_nodes, x[1] - x[0])
            w[0] = w[-1] = w[0] / 2.0
            h = np.exp(c * x)
            hn = float(np.sqrt(np.sum(w * h * h)))
            # the reported error, relative to the size of the target
            return max(abs(l2 - ref.legendre_fit_l2(x, h, w, int(N))) / hn
                       for N, l2 in zip(rows[:, 0], rows[:, 1]))

        return f"approx c={c:.3f} orders={orders}", run, lambda code, caught: self._finish(out, code, compare)


WORKLOADS = {w.name: w for w in (EigsPipeline, SeriesEval, TaylorCalculus, CliCold)}
