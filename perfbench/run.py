"""spps benchmark: time-to-correct-answer on four workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload eigs-pipeline --seed 1 --seconds 20 --trace 0

Workloads: eigs-pipeline, series-eval, taylor-calculus, cli-cold (see
workloads.py and README.md).  Load is closed-loop: one op at a time in
this process (cli-cold: one CLI process at a time).  Every op's result
is checked against an independent reference outside the timed region.

Each run covers a fixed number of whole cycles: the workload's nominal
cycle rate at the parent commit times --seconds, and at least one.  So
the ops, and with them `attempted`, `failed` and the traced counts,
depend only on the seed and --seconds, never on how fast the code or the
machine is.  --trace 0 measures the end-to-end metrics: set-up is
repeated in fresh processes and its median reported as setup_s; then the
cycles run.  --trace 1 sets up with span tracing (tracer.py), runs a
third of the cycles (at least one) untraced, traced, and untraced again,
and reports per-layer metrics and the tracing overhead.

Stdout: a report line (machine, inputs, every metric, failures), then,
as the last line, {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("eigs-pipeline", "series-eval", "taylor-calculus", "cli-cold")
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
P90_WORKLOADS = ("series-eval", "taylor-calculus")   # >= 10 samples past p90
MAX_LISTED_FAILURES = 50

END_TO_END = {"setup_s": "s", "op_ms.p50": "ms", "ops_per_s": "1/s",
              "digits_min": "digits", "peak_rss_mb": "MB"}
# per-layer metric -> unit; names follow the modules in src/spps
PER_LAYER = {
    "sturm.build_seed.calls": "count", "sturm.build_seed.ms": "ms",
    "recint.build_family.calls": "count", "recint.build_family.ms": "ms",
    "recint.family_mb": "MB_computed",
    "grid.cumulative_integral.calls": "count", "grid.cumulative_integral.ms": "ms",
    "series.choose_truncation.calls": "count", "series.choose_truncation.ms": "ms",
    "series.choose_truncation.cap_hits": "count",
    "series.choose_truncation.n_terms_mean": "terms",
    "sturm.characteristic.calls": "count", "sturm.characteristic.ms": "ms",
    "sturm.find_eigenvalues.calls": "count", "sturm.find_eigenvalues.ms": "ms",
    "sturm.refine.characteristic_calls": "count",
    "series.u_grid.calls": "count", "series.u_grid.ms": "ms",
    "series.eval_u.calls": "count", "series.eval_u.ms": "ms",
    "grid.at.calls": "count", "grid.at.ms": "ms", "grid.spline_builds": "count",
    "gentaylor.gamma_seq.calls": "count", "gentaylor.gamma_seq.ms": "ms",
    "gentaylor.remainder_check.calls": "count", "gentaylor.remainder_check.ms": "ms",
    "gentaylor.least_squares_project.calls": "count",
    "gentaylor.least_squares_project.ms": "ms",
    "grid.derivative.calls": "count", "grid.derivative.ms": "ms",
    "transform.build_A_recursive.calls": "count", "transform.build_A_recursive.ms": "ms",
    "jets.mul.calls": "count", "jets.reciprocal.calls": "count",
    "cli.import_ms": "ms", "cli.import_scipy_interpolate_ms": "ms",
    "warnings.accuracy_count": "count",
    "trace.overhead_ops_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print the set-up time and exit")
    return p.parse_args(argv)


def setup_in_child(args) -> float:
    """One set-up in a fresh interpreter; returns its set-up time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, cycles: int, tracer=None) -> dict:
    """Run `cycles` whole cycles of ops, closed-loop, timing each op's library call.

    The work is fixed by the seed and --seconds, not by the clock, so the
    ops, their failures and the traced counts repeat exactly between runs
    of the same code with the same seed.
    """
    import warnings
    from workloads import accuracy_warnings

    times, slot_of, digits, failures, kinds = [], [], [], [], {}
    warn_count = 0
    start = time.perf_counter()
    for i in range(cycles):
        for slot, (label, run, check) in enumerate(wl.cycle(i)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if tracer is not None:
                    tracer.begin_op(len(times))
                error = None
                t0 = time.perf_counter()
                try:
                    result = run()
                except Exception as e:        # a raising op counts as failed
                    error = e
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.end_op()
            times.append(t1 - t0)
            slot_of.append(slot)
            if error is None:
                ok, dig, n_warn = check(result, caught)
            else:
                ok, dig, n_warn = False, None, len(accuracy_warnings(caught))
                label += f" raised {type(error).__name__}: {error}"
            warn_count += n_warn
            kind = kinds.setdefault(label.split()[0], {"attempted": 0, "failed": 0, "ms": []})
            kind["attempted"] += 1
            kind["ms"].append((t1 - t0) * 1e3)
            if ok:
                if dig is not None:
                    digits.append(dig)
                    kind["digits_min"] = min(dig, kind.get("digits_min", dig))
            else:
                kind["failed"] += 1
                failures.append(label)
    for kind in kinds.values():
        kind["ms"] = statistics.median(kind["ms"])
    return {"times": times, "slot_of": slot_of, "digits": digits, "failures": failures,
            "kinds": kinds, "warnings": warn_count, "cycles": cycles,
            "wall_s": time.perf_counter() - start}


def summarize(m: dict, p90: bool) -> dict:
    ms = [t * 1e3 for t in m["times"]]
    n = len(ms)
    per_slot = {}
    for t, s in zip(m["times"], m["slot_of"]):
        per_slot.setdefault(s, []).append(t)
    out = {
        "op_ms.p50": statistics.median(ms),
        # the rate of a typical cycle: each slot of the cycle (a fixed op
        # kind) at its median time over the run's cycles, so a slow spell
        # of the machine that hits fewer than half of a slot's ops does
        # not move it
        "ops_per_s": len(per_slot) / sum(statistics.median(ts) for ts in per_slot.values()),
        "failed_frac": len(m["failures"]) / n,
        "digits_min": min(m["digits"]) if m["digits"] else 0.0,
        "ops": n,
    }
    if p90 and n >= 100:
        out["op_ms.p90"] = statistics.quantiles(ms, n=10)[-1]
    return out


def import_times(root: str) -> dict:
    """Median cumulative import time of spps.cli and its scipy.interpolate part."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cli, interp = [], []
    for _ in range(IMPORTTIME_REPEATS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spps.cli"],
                             env=env, cwd=root, capture_output=True, text=True,
                             check=True, timeout=120).stderr
        found = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                found.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
        cli.append(found["spps.cli"])
        interp.append(found.get("scipy.interpolate", 0.0))
    return {"cli.import_ms": statistics.median(cli),
            "cli.import_scipy_interpolate_ms": statistics.median(interp)}


def machine_info(root: str) -> dict:
    import platform

    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS (recorded, never changed)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            path = next((l.split()[-1] for l in fh if "openblas" in l.lower()), None)
        lib = ctypes.CDLL(path) if path else None
    except OSError:
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def git_commit(root: str):
    """HEAD of a git checkout, read from .git without running git; else None."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            return next((l.split()[0] for l in fh if l.strip().endswith(" " + ref)), None)
    except OSError:
        return None


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "spps")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def with_units(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spps", "__init__.py")):
        print("perfbench: no spps sources at src/spps; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    setup_samples = []
    if not args.setup_only and not args.trace:
        setup_samples = [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
    t0 = time.perf_counter()
    from workloads import WORKLOADS as CLASSES     # imports numpy and spps
    wl = CLASSES[args.workload](args.seed, root)
    try:
        if not args.trace:
            wl.setup()
            setup_samples.append(time.perf_counter() - t0)
            if args.setup_only:
                print(json.dumps({"setup_s": setup_samples[-1]}))
                return 0
        else:
            from tracer import Tracer
            tracer = Tracer()
            with tracing(wl, tracer):
                tracer.begin_op("setup")
                wl.setup()
                tracer.end_op()

        report = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "machine": machine_info(root)}
        if args.workload == "cli-cold":
            report["note"] = ("timed CLI processes start cold, but the page cache "
                              "is warm: it cannot be dropped without privileges")
        cycles = max(1, round(args.seconds * wl.nominal_rate))
        p90 = args.workload in P90_WORKLOADS
        if not args.trace:
            m = measure(wl, cycles)
            values = summarize(m, p90)
            values["setup_s"] = statistics.median(setup_samples)
            values["peak_rss_mb"] = wl.peak_rss_mb()
            report["setup_s.samples"] = setup_samples
            units = END_TO_END
        else:
            # untraced, traced, untraced again, each over a third of the
            # cycles so the run stays near --seconds: the mean of the two
            # untraced passes cancels a steady drift of the machine or of warm-up
            cycles = max(1, cycles // 3)
            before = summarize(measure(wl, cycles), p90)
            with tracing(wl, tracer):
                m = measure(wl, cycles, tracer=tracer)
            after = summarize(measure(wl, cycles), p90)
            traced = summarize(m, p90)
            values = tracer.layer_metrics()
            values.update(import_times(root))
            values["warnings.accuracy_count"] = m["warnings"]
            values["trace.overhead_ops_per_s"] = traced["ops_per_s"] - 0.5 * (
                before["ops_per_s"] + after["ops_per_s"])
            report["untraced"] = [before, after]
            report["traced"] = traced
            report["spans_file"] = write_spans(root, args, tracer)
            units = PER_LAYER
    finally:
        wl.close()

    report.update({k: v for k, v in values.items() if k not in units})
    report["metrics"] = with_units(values, units)
    report.update(cycles=m["cycles"], wall_s=m["wall_s"], kinds=m["kinds"],
                  failures=m["failures"][:MAX_LISTED_FAILURES])
    print(json.dumps({"report": report}))
    attempted, failed = len(m["times"]), len(m["failures"])
    print(json.dumps({
        # every op was checked; false only if no op passed at all
        "correct": failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


@contextlib.contextmanager
def tracing(wl, tracer):
    """Trace the workload's spps calls: in process, or in its CLI children."""
    if wl.in_process:
        from tracer import install
        restore = install(tracer)
    else:
        wl.traced = tracer
    try:
        yield
    finally:
        if wl.in_process:
            restore()
        else:
            wl.traced = None


def write_spans(root: str, args, tracer) -> str:
    out = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    return os.path.relpath(path, root)


if __name__ == "__main__":
    sys.exit(main())
