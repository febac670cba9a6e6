"""Span tracing around the public functions of each spps layer.

Tracing is installed from outside: `install` replaces every reference
to a traced function in the spps modules (including names one module
imports from another, such as spps.sturm.choose_truncation or
spps.cli.build_family) by a wrapper that records a span
(name, start, end, parent, op) in memory.  A layer's self time is its
span time minus the time of its direct child spans.  Hot helpers whose
per-call cost would swamp a span (jet products, spline builds) only
count calls.  Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute) of every function wrapped with a span
SPANNED = {
    "sturm.build_seed": [("spps.sturm", "build_seed")],
    "sturm.characteristic": [("spps.sturm", "characteristic")],
    "sturm.find_eigenvalues": [("spps.sturm", "find_eigenvalues")],
    "recint.build_family": [("spps.recint", "build_family")],
    "grid.cumulative_integral": [("spps.grid", "cumulative_integral")],
    "grid.derivative": [("spps.grid", "derivative")],
    "series.choose_truncation": [("spps.series", "choose_truncation")],
    "series.u_grid": [("spps.series", f) for f in
                      ("u1_grid", "u2_grid", "u1_prime_grid", "u2_prime_grid")],
    "series.eval_u": [("spps.series", f) for f in
                      ("eval_u1", "eval_u2", "eval_u1_prime", "eval_u2_prime")],
    "gentaylor.gamma_seq": [("spps.gentaylor", "gamma_seq")],
    "gentaylor.remainder_check": [("spps.gentaylor", "remainder_check")],
    "gentaylor.least_squares_project": [("spps.gentaylor", "least_squares_project")],
    "transform.build_A_recursive": [("spps.transform", "build_A_recursive")],
}
# methods wrapped with a span: span name -> (module, class, method)
SPANNED_METHODS = {"grid.at": ("spps.grid", "GridFunction", "at")}
# call counters only: counter name -> list of (module, owner, attribute);
# owner None means a module attribute
COUNTED = {
    "jets.mul.calls": [("spps.jets", "Jet", "__mul__"), ("spps.jets", "Jet", "__rmul__")],
    "jets.reciprocal.calls": [("spps.jets", "Jet", "reciprocal")],
    "grid.spline_builds": [("spps.grid", None, "CubicSpline"),
                           ("spps.grid", None, "make_interp_spline")],
}


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent, op]
        self.counts: Counter = Counter()
        self.n_terms: list = []
        self.family_bytes: list = []
        self.scan_points = 0
        self.op = None
        self._stack: list = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:          # outside a benchmark op: not recorded
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            rec = [name, 0.0, 0.0, parent, self.op]
            self.spans.append(rec)
            self._stack.append(sid)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            self._observe(name, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name: str, result) -> None:
        if name == "series.choose_truncation":
            self.n_terms.append(result.n_terms)
            self.counts["series.choose_truncation.cap_hits"] += bool(result.capped)
        elif name == "sturm.find_eigenvalues":
            self.scan_points += len(result.scan_lams)
        elif name == "recint.build_family":
            self.family_bytes.append(sum(g.values.nbytes for g in result.X + result.Xt))

    def begin_op(self, op_id) -> None:
        """Open the root span of one benchmark op; spans and counts are
        recorded only between begin_op and end_op."""
        self.op = op_id
        self.spans.append(["op", time.perf_counter(), 0.0, None, op_id])
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self.op = None

    def merge(self, other: dict) -> None:
        """Fold in the dump of a traced child process."""
        base = len(self.spans)
        for name, t0, t1, parent, _ in other["spans"]:
            parent = base + parent if parent is not None else (
                self._stack[-1] if self._stack else None)
            self.spans.append([name, t0, t1, parent, self.op])
        self.counts.update(other["counts"])
        self.n_terms += other["n_terms"]
        self.family_bytes += other["family_bytes"]
        self.scan_points += other["scan_points"]

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "n_terms": self.n_terms, "family_bytes": self.family_bytes,
                "scan_points": self.scan_points}

    def layer_metrics(self) -> dict:
        """Per-layer calls, self time (ms) and derived counters."""
        child = defaultdict(float)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        calls, self_ms = Counter(), defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (t1 - t0 - child[i]) * 1e3
        out = {}
        for name in list(SPANNED) + list(SPANNED_METHODS):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = self_ms[name]
        for name in list(COUNTED) + ["series.choose_truncation.cap_hits"]:
            out[name] = self.counts[name]
        out["series.choose_truncation.n_terms_mean"] = (
            sum(self.n_terms) / len(self.n_terms) if self.n_terms else 0.0)
        out["sturm.refine.characteristic_calls"] = max(
            calls["sturm.characteristic"] - self.scan_points, 0)
        out["recint.family_mb"] = (
            max(self.family_bytes) / 2 ** 20 if self.family_bytes else 0.0)
        return out


def _patch(target, attr, new, undo):
    undo.append((target, attr, getattr(target, attr)))
    setattr(target, attr, new)


def install(tracer: Tracer):
    """Wrap the traced functions everywhere the loaded spps modules refer
    to them; a module imported later binds the wrapped names.

    Returns a callable that restores the originals.
    """
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "spps" or k.startswith("spps."))]
    undo: list = []
    for name, places in SPANNED.items():
        for mod, attr in places:
            orig = getattr(sys.modules[mod], attr)
            wrapped = tracer.span(name, orig)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        _patch(m, k, wrapped, undo)
    for name, (mod, cls, attr) in SPANNED_METHODS.items():
        owner = getattr(sys.modules[mod], cls)
        _patch(owner, attr, tracer.span(name, owner.__dict__[attr]), undo)
    for name, places in COUNTED.items():
        for mod, cls, attr in places:
            owner = sys.modules[mod] if cls is None else getattr(sys.modules[mod], cls)
            _patch(owner, attr, tracer.counter(name, getattr(owner, attr)), undo)

    def restore():
        for target, attr, orig in reversed(undo):
            setattr(target, attr, orig)
    return restore
