"""Uniform grids and grid functions.

Everything downstream (recursive integral families, series solutions,
generalized derivatives) works on a fixed uniform mesh with a
distinguished anchor node x0.  This module owns the mesh, the sampled
function type, and the three numerical primitives the rest of the
package is built on: anchored cumulative integration, differentiation,
and off-node evaluation.  Both the quadrature and the differentiation
rules are 4th order so that repeated application through the recursions
keeps enough accuracy at the default resolution.  Off-node evaluation is
local Lagrange interpolation on _STENCIL nodes (5th order): a point reads
only its stencil, so a caller that can produce values at any nodes (the
series evaluators) computes them there alone.  numpy is the only
dependency.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, GridConfigError, SamplingError

# Snap tolerance for "x is a node", as a fraction of the spacing.
_NODE_SNAP = 1e-9
# Slack allowed past the interval ends before raising, relative to b-a.
_EDGE_SLACK = 1e-12
# Nodes per off-node interpolation stencil.
_STENCIL = 6


# Placeholders, never called: perfbench/tracer.py counts calls of these two
# names (grid.spline_builds) and needs them to exist.  Off-node evaluation
# builds no spline and needs no scipy; drop both with that counter.
def CubicSpline(*args, **kwargs):
    raise NotImplementedError("spps builds no splines; use GridFunction.at")


make_interp_spline = CubicSpline


class Grid:
    """Uniform mesh on [a, b] with an anchor node x0.

    Parameters
    ----------
    a, b : float
        Interval endpoints, a < b.
    n_nodes : int
        Number of nodes, at least 2.  Quadrature needs 4 and the
        derivative stencils need 5; those operations enforce their own
        minimums.
    x0 : float, optional
        Anchor of the recursions; must coincide with a node.  Defaults
        to a.
    """

    def __init__(self, a: float, b: float, n_nodes: int = 5001, x0: float | None = None):
        a = float(a)
        b = float(b)
        if not (np.isfinite(a) and np.isfinite(b)) or not b > a:
            raise GridConfigError(f"need finite a < b, got a={a}, b={b}")
        n_nodes = int(n_nodes)
        if n_nodes < 2:
            raise GridConfigError(f"need at least 2 nodes, got {n_nodes}")
        self.a = a
        self.b = b
        self.n_nodes = n_nodes
        self.h = (b - a) / (n_nodes - 1)
        self.nodes = np.linspace(a, b, n_nodes)
        self.nodes.flags.writeable = False
        if x0 is None:
            x0 = a
        self.x0_index = self.index_of(x0)
        self.x0 = self.nodes[self.x0_index]

    def index_of(self, x: float) -> int:
        """Index of the node at x; raises if x is not (numerically) a node."""
        x = float(x)
        if not math.isfinite(x):
            raise GridConfigError(f"x={x} is not a node of this grid")
        i = int(round((x - self.a) / self.h))
        if i < 0 or i >= self.n_nodes or abs(self.nodes[i] - x) > _NODE_SNAP * self.h:
            raise GridConfigError(f"x={x} is not a node of this grid")
        return i

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.n_nodes == other.n_nodes
                and self.x0_index == other.x0_index)

    def __hash__(self):
        return hash((self.a, self.b, self.n_nodes, self.x0_index))

    def __repr__(self):
        return (f"Grid(a={self.a}, b={self.b}, n_nodes={self.n_nodes}, "
                f"x0={self.x0})")


class GridFunction:
    """Function values on the nodes of a Grid.

    Supports pointwise arithmetic with scalars and with other functions
    on the same grid, and evaluation between nodes by local Lagrange
    interpolation (see at).  Values may be real or complex.
    """

    def __init__(self, grid: Grid, values):
        values = np.asarray(values)
        if values.shape != (grid.n_nodes,):
            raise GridConfigError(
                f"values shape {values.shape} does not match grid with "
                f"{grid.n_nodes} nodes")
        if values.dtype.kind in "iub":
            values = values.astype(np.float64)
        elif values.dtype.kind not in "fc":
            raise GridConfigError(f"unsupported dtype {values.dtype}")
        self.grid = grid
        self.values = values

    # -- pointwise algebra ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise GridConfigError("operands live on different grids")
            return other.values
        if np.isscalar(other):
            return other
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GridFunction(self.grid, self.values + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GridFunction(self.grid, self.values - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GridFunction(self.grid, v - self.values)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GridFunction(self.grid, self.values * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GridFunction(self.grid, self.values / v)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return GridFunction(self.grid, v / self.values)

    def __pow__(self, k: int):
        return GridFunction(self.grid, self.values ** k)

    def __neg__(self):
        return GridFunction(self.grid, -self.values)

    def conj(self):
        return GridFunction(self.grid, np.conj(self.values))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def is_real(self) -> bool:
        return self.values.dtype.kind == "f" or not np.any(self.values.imag)

    # -- evaluation --------------------------------------------------------

    def at(self, x):
        """Evaluate at x (scalar or array) inside [a, b].

        Each point is interpolated by the degree-5 polynomial through the
        _STENCIL = 6 nodes around it: three on each side of its cell,
        shifted inward near the ends of the grid (all nodes when there are
        fewer than 6).  That reproduces polynomials up to degree 5 and is
        5th-order accurate for smooth data.  Points within _NODE_SNAP * h
        of a node return the stored value exactly.  A scalar x gives a
        scalar; nan points and points more than _EDGE_SLACK * (b - a)
        outside [a, b] raise DomainError.
        """
        return _interpolate(self.grid, x, self.values.__getitem__)

    def __repr__(self):
        return f"GridFunction({self.grid!r}, sup_norm={self.sup_norm:.3g})"


def _interpolate(grid: Grid, x, values_at):
    """GridFunction.at of the values that values_at(idx) gives at the
    nodes idx: the stencils' values weighted, or the node's own value for
    a point on a node."""
    idx, w, hit = _stencil(grid, x)
    v = values_at(idx)
    out = np.sum(w * v, axis=1)
    out[hit] = v[hit, 0]
    return out.reshape(np.shape(x))[()]


def _stencil(grid: Grid, x):
    """Interpolation stencils for the points x, flattened to m points.

    Returns idx, the (m, w) node indices of each point's stencil, w its
    (m, w) Lagrange weights, and hit, an (m,) mask of the points within
    _NODE_SNAP * h of a node; a hit row lists that node in every column,
    so v[hit, 0] of the gathered values v = values[idx] is the stored
    value.  The stencil width is min(_STENCIL, n_nodes).
    """
    xa = np.asarray(x, dtype=float).ravel()
    slack = _EDGE_SLACK * (grid.b - grid.a)
    # a nan compares false both ways, so it counts as outside too
    outside = ~((xa >= grid.a - slack) & (xa <= grid.b + slack))
    if np.any(outside):
        raise DomainError(f"x={xa[outside][0]} outside [{grid.a}, {grid.b}]")
    xa = np.clip(xa, grid.a, grid.b)
    s = (xa - grid.a) / grid.h
    n, width = grid.n_nodes, min(_STENCIL, grid.n_nodes)
    # first node: the cell centred in the stencil, shifted inward at the ends
    lo = np.clip(s.astype(int) - (width // 2 - 1), 0, n - width)
    idx = lo[:, None] + np.arange(width)
    # w_j = prod_{k != j} (s - idx_k) / (j - k), from prefix and suffix products
    d = s[:, None] - idx
    left, right = np.ones_like(d), np.ones_like(d)
    left[:, 1:] = np.cumprod(d[:, :-1], axis=1)
    right[:, :-1] = np.cumprod(d[:, :0:-1], axis=1)[:, ::-1]
    denom = [(-1) ** (width - 1 - j) * math.factorial(j) * math.factorial(width - 1 - j)
             for j in range(width)]
    node = np.clip(np.rint(s).astype(int), 0, n - 1)
    hit = np.abs(xa - grid.nodes[node]) <= _NODE_SNAP * grid.h
    idx[hit] = node[hit, None]
    return idx, left * right / denom, hit


def sample(fn, grid: Grid) -> GridFunction:
    """Sample a callable on the nodes of a grid.

    Tries a vectorized call first and falls back to per-node evaluation.
    Raises SamplingError naming the first offending node if any value is
    not finite.
    """
    try:
        values = np.asarray(fn(grid.nodes))
        if values.shape != grid.nodes.shape:
            raise TypeError
    except Exception:
        values = np.asarray([fn(x) for x in grid.nodes])
    if values.dtype.kind not in "fc":
        try:
            values = values.astype(np.float64)
        except (TypeError, ValueError):
            values = values.astype(np.complex128)
    bad = ~np.isfinite(values)
    if values.dtype.kind == "c":
        bad = ~(np.isfinite(values.real) & np.isfinite(values.imag))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SamplingError(
            f"non-finite sample {values[i]} at node {i} (x={grid.nodes[i]})")
    return GridFunction(grid, values)


def cumulative_integral(g: GridFunction, x0_index: int | None = None) -> GridFunction:
    """Signed primitive of g anchored at the grid's x0 node.

    Each cell is integrated with the 4-point cubic rule (the two cells
    touching the boundary use the one-sided variant) and the increments
    are accumulated, so the result G satisfies G(x0) = 0 exactly and
    G(x) = integral from x0 to x of g with 4th-order global accuracy.

    The work is _integrate_rows on one row, in g's dtype promoted to at
    least float64 (complex128 for complex g); g is left unchanged.  An
    x0_index other than an integer in 0..n_nodes - 1 raises
    GridConfigError.
    """
    grid = g.grid
    n = grid.n_nodes
    if n < 4:
        raise GridConfigError("cumulative integral needs at least 4 nodes")
    if x0_index is None:
        x0_index = grid.x0_index
    elif not (isinstance(x0_index, (int, np.integer)) and 0 <= x0_index < n):
        raise GridConfigError(
            f"x0_index must be an integer in 0..{n - 1}, got {x0_index!r}")
    y = g.values.astype(np.result_type(g.values, np.float64), order="C", copy=False)
    G = np.empty(n, dtype=y.dtype)
    _integrate_rows(y, grid.h, G, x0_index)
    return GridFunction(grid, G)


def _integrate_rows(y: np.ndarray, h, out: np.ndarray, x0_index: int = 0) -> None:
    """cumulative_integral's rule along the last axis of y, (..., n) with
    n >= 4, written into out (same shape and dtype, not y; both contiguous
    along the last axis).  h is the spacing: a scalar, or an array that
    broadcasts against out, one per row.

    Every element takes the same operations in the same order whatever
    the leading shape, so each row of out has the bits cumulative_integral
    gives that row alone.  The increments are formed in out itself with
    one temporary, 13 y, read twice at a shift of one node, and summed in
    place.  Each starts as 13 y[i] - y[i-1], which has the bits of
    -y[i-1] + 13 y[i] (IEEE subtraction adds the negation) in one pass.

    Complex rows are divided by 24 on the view of their parts, which numpy
    vectorizes; its complex division runs element by element.  Dividing
    by a real b, numpy multiplies both parts by 1 / b, formed in the
    parts' own precision, so the view is multiplied by that reciprocal of
    the parts' dtype: a Python float 1 / 24 would round the long double
    parts of clongdouble rows to double.  Each part keeps its bits, up to
    the sign of a part that is exactly zero.  Real rows keep the division.
    """
    n = y.shape[-1]
    out[..., 0] = 0.0
    out[..., 1] = (9 * y[..., 0] + 19 * y[..., 1] - 5 * y[..., 2] + y[..., 3]) / 24.0
    # interior cells (-y[i-1] + 13 y[i] + 13 y[i+1] - y[i+2]) / 24, in order
    mid = out[..., 2:n - 1]
    y13 = y[..., 1:n - 1] * 13
    np.subtract(y13[..., 0:n - 3], y[..., 0:n - 3], out=mid)
    mid += y13[..., 1:n - 2]
    mid -= y[..., 3:n]
    if y.dtype.kind == "c":
        parts = mid.view(y.real.dtype)
        np.multiply(parts, parts.dtype.type(1) / parts.dtype.type(24), out=parts)
    else:
        mid /= 24.0
    out[..., -1] = (y[..., n - 4] - 5 * y[..., n - 3] + 19 * y[..., n - 2]
                    + 9 * y[..., n - 1]) / 24.0
    np.add.accumulate(out[..., 1:], axis=-1, out=out[..., 1:])
    out *= h
    if x0_index:
        out -= out[..., x0_index:x0_index + 1]
        out[..., x0_index] = 0.0


def derivative(g: GridFunction) -> GridFunction:
    """Node-wise derivative via 5-point stencils (4th order).

    Interior nodes use the centered stencil; the two nodes at each end
    use one-sided stencils of the same order.
    """
    grid = g.grid
    y = g.values
    n = grid.n_nodes
    if n < 5:
        raise GridConfigError("derivative needs at least 5 nodes")
    d = np.empty_like(y, dtype=y.dtype if y.dtype.kind == "c" else np.float64)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / 12.0
    d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / 12.0
    d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / 12.0
    d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / 12.0
    d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / 12.0
    return GridFunction(grid, d / grid.h)


def write_csv(g: GridFunction, path) -> None:
    """Write a grid function as CSV with columns x, re, im.

    Values print as %.17g, so read_csv gets the same floats back; lines
    end in \\r\\n.
    """
    v = g.values.astype(complex)
    flat = np.column_stack([g.grid.nodes, v.real, v.imag]).ravel().tolist()
    rows = "%.17g,%.17g,%.17g\r\n" * len(v)
    with open(path, "w", newline="") as fh:
        fh.write("x,re,im\r\n" + rows % tuple(flat))


def read_csv(path, x0: float | None = None) -> GridFunction:
    """Read a grid function written by write_csv.

    The nodes must form a uniform mesh; x0 defaults to the first node.
    """
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float)
    if data.ndim != 2 or data.shape[1] != 3 or data.shape[0] < 5:
        raise GridConfigError(f"{path}: expected >= 5 rows of x,re,im")
    x = data[:, 0]
    steps = np.diff(x)
    h = steps[0]
    if h <= 0 or np.max(np.abs(steps - h)) > 1e-9 * abs(h):
        raise GridConfigError(f"{path}: nodes are not a uniform increasing mesh")
    grid = Grid(x[0], x[-1], len(x), x0=x0)
    values = data[:, 1].copy()
    if np.any(data[:, 2]):
        # set the parts: re + 1j * im would turn an infinite im into a nan re
        values = values.astype(complex)
        values.imag = data[:, 2]
    return GridFunction(grid, values)
