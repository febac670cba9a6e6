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
only its stencil, so a caller that holds values on the whole grid (the
series evaluators) gathers them there alone.  numpy is the only
dependency.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

from .errors import DomainError, GridConfigError, OrderError, SamplingError, _as_order, _read_only

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
        Number of nodes, at least 2: a Python or numpy integer; a float
        or a bool raises GridConfigError.  Quadrature needs 4 and the
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
        try:
            n_nodes = _as_order(n_nodes, "n_nodes")  # a float or a bool is refused
        except OrderError as e:
            raise GridConfigError(str(e)) from None
        if n_nodes < 2:
            raise GridConfigError(f"need at least 2 nodes, got {n_nodes}")
        self.a = a
        self.b = b
        self.n_nodes = n_nodes
        self.h = (b - a) / (n_nodes - 1)
        self.nodes = _read_only(np.linspace(a, b, n_nodes))
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
    interpolation (see at).  Values may be real or complex.  An operand
    of any other kind, a numpy array included, raises TypeError.
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

    # numpy defers every operator and ufunc to the class, so an array
    # operand meets NotImplemented on both sides, not an object array
    __array_ufunc__ = None

    def _binary(op, reflected: bool = False):
        """The method self op other (other op self if reflected) on the
        values, with other a scalar or a function on the same grid
        (else GridConfigError); NotImplemented for any other operand."""
        def method(self, other):
            if isinstance(other, GridFunction):
                if other.grid != self.grid:
                    raise GridConfigError("operands live on different grids")
                other = other.values
            elif not np.isscalar(other):
                return NotImplemented
            return GridFunction(self.grid, op(other, self.values) if reflected
                                else op(self.values, other))
        return method

    __add__ = __radd__ = _binary(operator.add)
    __sub__ = _binary(operator.sub)
    __rsub__ = _binary(operator.sub, reflected=True)
    __mul__ = __rmul__ = _binary(operator.mul)
    __truediv__ = _binary(operator.truediv)
    __rtruediv__ = _binary(operator.truediv, reflected=True)
    del _binary

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


def _interpolate(grid: Grid, x, *values_at):
    """GridFunction.at, through one stencil of the points x, of each
    function whose values_at(idx) gives its values at the nodes idx: the
    stencils' values weighted, or the node's own value for a point on a
    node, in that function's own type.  One result per getter, a tuple
    for more than one, each with the bits its own GridFunction.at gives."""
    idx, w, hit = _stencil(grid, x)
    results = []
    for values in values_at:
        v = values(idx)
        out = np.sum(w * v, axis=-1)
        out[hit] = v[hit, 0]
        results.append(out.reshape(np.shape(x))[()])
    return results[0] if len(results) == 1 else tuple(results)


@lru_cache(maxsize=None)
def _stencil_constants(width: int) -> tuple[np.ndarray, np.ndarray]:
    """The node offsets 0..width-1 of a stencil and its Lagrange weights'
    denominators prod_{k != j} (j - k); shared, read only."""
    offsets = np.arange(width)
    denom = np.array([(-1) ** (width - 1 - j) * math.factorial(j) * math.factorial(width - 1 - j)
                      for j in range(width)], dtype=float)
    return _read_only(offsets), _read_only(denom)


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
    lowest = np.minimum.reduce(xa, initial=np.inf)
    highest = np.maximum.reduce(xa, initial=-np.inf)
    # a nan is its array's min and max and compares false, so it is outside too
    if not (lowest >= grid.a - slack and highest <= grid.b + slack):
        outside = ~((xa >= grid.a - slack) & (xa <= grid.b + slack))
        raise DomainError(f"x={xa[outside][0]} outside [{grid.a}, {grid.b}]")
    if lowest < grid.a or highest > grid.b:  # only then does the clip move a point
        xa = np.clip(xa, grid.a, grid.b)
    s = (xa - grid.a) / grid.h
    n, width = grid.n_nodes, min(_STENCIL, grid.n_nodes)
    offsets, denom = _stencil_constants(width)
    # first node: the cell centred in the stencil, shifted inward at the ends
    lo = s.astype(int)
    lo -= width // 2 - 1
    np.maximum(lo, 0, out=lo)
    np.minimum(lo, n - width, out=lo)
    idx = lo[:, None] + offsets
    # w_j = prod_{k != j} (s - idx_k) / (j - k), from prefix and suffix products
    d = s[:, None] - idx
    left, right = np.empty_like(d), np.empty_like(d)
    left[:, 0] = right[:, -1] = 1.0
    np.multiply.accumulate(d[:, :-1], axis=1, out=left[:, 1:])
    np.multiply.accumulate(d[:, :0:-1], axis=1, out=right[:, -2::-1])
    # 0 <= s <= (b - a) / h, which rounds to n - 1, so node is a node
    node = np.rint(s).astype(int)
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
    return _check_finite(GridFunction(grid, values), SamplingError, "sample")


def _check_finite(g: GridFunction, error, what: str,
                  nodes: slice = slice(0, None)) -> GridFunction:
    """g, if every value at nodes (a slice of step 1) is finite; else error
    naming the first node there that is not."""
    finite = np.isfinite(g.values[nodes])
    if not finite.all():
        i = nodes.start + int(np.argmin(finite))
        raise error(f"{what} {g.values[i]} at node {i} (x={g.grid.nodes[i]}) "
                    f"is not finite")
    return g


def cumulative_integral(g: GridFunction) -> GridFunction:
    """Signed primitive of g anchored at the grid's x0 node.

    Each cell is integrated with the 4-point cubic rule (the two cells
    touching the boundary use the one-sided variant) and the increments
    are accumulated, so the result G satisfies G(x0) = 0 exactly and
    G(x) = integral from x0 to x of g with 4th-order global accuracy.

    The work is _integrate_rows on one row, in g's dtype promoted to at
    least float64 (complex128 for complex g); g is left unchanged.
    """
    grid = g.grid
    n = grid.n_nodes
    if n < 4:
        raise GridConfigError("cumulative integral needs at least 4 nodes")
    y = g.values.astype(np.result_type(g.values, np.float64), order="C", copy=False)
    G = np.empty(n, dtype=y.dtype)
    _integrate_rows(y, grid.h, G, grid.x0_index)
    return GridFunction(grid, G)


def _integrate_rows(y: np.ndarray, h, out: np.ndarray, x0_index: int = 0) -> None:
    """cumulative_integral's rule along the last axis of y, (..., n) with
    n >= 4, written into out (same shape and dtype, not y; both
    C-contiguous).  h is the spacing: a scalar, or an array that
    broadcasts against out, one per row.

    Every element takes the same operations in the same order whatever
    the leading shape, so each row of out has the bits cumulative_integral
    gives that row alone.  The interior cells of all rows are formed at
    once, on the rows laid end to end, in out itself with one temporary,
    13 y, read twice at a shift of one node, and summed in place; the
    cells that straddle two rows are then overwritten by each row's first
    node and end cells.  One pass over the whole block runs at numpy's
    contiguous speed, where the same steps on each row's slice ran 2-3
    times slower per value on rows of some thousand nodes or fewer, such
    as the eigen search's pieces.  Each increment starts as 13 y[i] -
    y[i-1], which has the bits of -y[i-1] + 13 y[i] (IEEE subtraction adds
    the negation) in one pass.

    Complex rows are divided by 24 on the view of their parts, which numpy
    vectorizes; its complex division runs element by element.  Dividing
    by a real b, numpy multiplies both parts by 1 / b, formed in the
    parts' own precision, so the view is multiplied by that reciprocal of
    the parts' dtype: a Python float 1 / 24 would round the long double
    parts of clongdouble rows to double.  Each part keeps its bits, up to
    the sign of a part that is exactly zero.  Real rows keep the division.
    """
    if not (y.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("_integrate_rows needs C-contiguous rows")
    n, flat_y, flat = y.shape[-1], y.reshape(-1), out.reshape(-1)
    size = flat.size
    # interior cells (-y[i-1] + 13 y[i] + 13 y[i+1] - y[i+2]) / 24, in order
    mid = flat[2:size - 1]
    y13 = flat_y[1:size - 1] * 13
    np.subtract(y13[0:size - 3], flat_y[0:size - 3], out=mid)
    mid += y13[1:size - 2]
    mid -= flat_y[3:size]
    if y.dtype.kind == "c":
        parts = mid.view(y.real.dtype)
        np.multiply(parts, parts.dtype.type(1) / parts.dtype.type(24), out=parts)
    else:
        mid /= 24.0
    out[..., 0] = 0.0
    out[..., 1] = (9 * y[..., 0] + 19 * y[..., 1] - 5 * y[..., 2] + y[..., 3]) / 24.0
    out[..., -1] = (y[..., n - 4] - 5 * y[..., n - 3] + 19 * y[..., n - 2]
                    + 9 * y[..., n - 1]) / 24.0
    np.add.accumulate(out[..., 1:], axis=-1, out=out[..., 1:])
    out *= h
    if x0_index:
        # a copy of the anchor column: subtracting the view, which overlaps
        # out, made numpy copy the whole operand first
        out -= out[..., x0_index:x0_index + 1].copy()
        out[..., x0_index] = 0.0


def _integrate_rows6(y: np.ndarray, h, out: np.ndarray, x0_index: int = 0) -> None:
    """_integrate_rows' contract with a 6-point cell rule, from the first
    node only (x0_index must be 0): interior cells (11, -93, 802, 802,
    -93, 11) / 1440 on the nodes i - 2 .. i + 3, the two end cells each
    side one-sided on the six end nodes, (475, 1427, -798, 482, -173,
    27) / 1440 and (-27, 637, 1022, -258, 77, -11) / 1440, mirrored at
    the far end.  Its error is O(h^6) where the 4-point rule's is O(h^4);
    rows of fewer than 6 nodes take the 4-point rule.

    The interior and end cells are formed on the real view of complex
    rows, whose parts take real operations only until the running sum,
    the interior cells of all rows at once, on the rows laid end to end;
    the cells that straddle two rows are
    overwritten by each row's first node and end cells: every element
    takes the same operations whatever the leading shape, so each row has
    the bits it has alone.  The eigen search integrates its pieces with
    it: each junction of pieces adds end cells, whose error under the
    4-point rule moved the roots' last digits with the junctions' place.
    """
    if x0_index:
        raise ValueError("_integrate_rows6 integrates from the first node only")
    n = y.shape[-1]
    if n < 6:
        _integrate_rows(y, h, out)
        return
    if not (y.flags.c_contiguous and out.flags.c_contiguous):
        raise ValueError("_integrate_rows6 needs C-contiguous rows")
    d = 2 if y.dtype.kind == "c" else 1  # reals per value
    flat_y, flat = y.reshape(-1).view(y.real.dtype), out.reshape(-1).view(y.real.dtype)
    parts_y, parts = flat_y.reshape(y.shape + (d,)), flat.reshape(y.shape + (d,))
    mid = flat[3 * d:flat.size - 2 * d]  # cell i into node i + 1, i = 2 .. size - 4
    m = mid.size
    np.add(flat_y[0:m], flat_y[5 * d:5 * d + m], out=mid)
    mid *= 11.0
    t = flat_y[d:d + m] + flat_y[4 * d:4 * d + m]
    t *= 93.0
    mid -= t
    np.add(flat_y[2 * d:2 * d + m], flat_y[3 * d:3 * d + m], out=t)
    t *= 802.0
    mid += t
    mid *= 1.0 / 1440.0
    parts[..., 0, :] = 0.0
    # the four end cells at once: u[..., k, c, :] is node k of cell c's six,
    # each summed in the order of its weights, as one cell alone would be
    u = parts_y[..., np.array([[0, 0, n - 1, n - 1], [1, 1, n - 2, n - 2], [2, 2, n - 3, n - 3],
                                [3, 3, n - 4, n - 4], [4, 4, n - 5, n - 5],
                                [5, 5, n - 6, n - 6]]), :]
    ends = u[..., 0, :, :] * _END6[0]
    for k in range(1, 6):
        ends += u[..., k, :, :] * _END6[k]
    ends /= 1440.0
    parts[..., [1, 2, n - 1, n - 2], :] = ends
    np.add.accumulate(out[..., 1:], axis=-1, out=out[..., 1:])
    out *= h


# _integrate_rows6's one-sided weights (times 1440) by node from the end,
# of the first cell and the second at each end, then again at the far end
_END6 = np.array([[475.0, -27.0, 475.0, -27.0], [1427.0, 637.0, 1427.0, 637.0],
                  [-798.0, 1022.0, -798.0, 1022.0], [482.0, -258.0, 482.0, -258.0],
                  [-173.0, 77.0, -173.0, 77.0], [27.0, -11.0, 27.0, -11.0]])[..., None]


def derivative(g: GridFunction) -> GridFunction:
    """Node-wise derivative via 5-point stencils (4th order).

    Interior nodes use the centered stencil; the two nodes at each end
    use one-sided stencils of the same order.  The work is
    _derivative_rows on the whole row.
    """
    return GridFunction(g.grid, _derivative_rows(g.values, g.grid.h))


def _derivative_rows(y: np.ndarray, h, first: bool = True, last: bool = True) -> np.ndarray:
    """derivative's stencils on the 1-D row y of m >= 5 values (else
    GridConfigError), as if its nodes were a whole grid of spacing h: a
    new array, complex for complex y and float64 otherwise.

    A row cut from a grid (a window) whose first (last) node is no grid
    end passes first (last) False: its two values there, which a
    one-sided stencil would give, are 0 instead, since the whole grid's
    centered stencils need nodes the window lacks.  Every other value
    takes the same operations whatever m, so it has the bits derivative
    gives its node when its stencil's nodes have theirs.
    """
    if len(y) < 5:
        raise GridConfigError("derivative needs at least 5 nodes")
    d = np.empty_like(y, dtype=y.dtype if y.dtype.kind == "c" else np.float64)
    d[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / 12.0
    if first:
        d[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / 12.0
        d[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / 12.0
    else:
        d[:2] = 0.0
    if last:
        d[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / 12.0
        d[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / 12.0
    else:
        d[-2:] = 0.0
    return d / h


def _derivative_chain(h: GridFunction, lo: int, hi: int, levels: int,
                      phi: GridFunction | None = None) -> list[np.ndarray]:
    """h and its derivatives to order `levels` on nodes lo..hi, each with
    the bits the whole-grid chain of derivative calls gives those nodes.
    With phi (on h's grid), odd levels are multiplied by phi and even
    levels by 1/phi, the generalized derivatives gamma_k; without it
    nothing is, since a product by 1.0 flips the sign of some complex
    zeros.

    The chain runs on the window of nodes its results depend on.  A
    centered stencil reads 2 nodes each side, so each level reaches 2
    nodes further: lo - 2 levels .. hi + 2 levels, clipped to the grid.
    The one-sided stencils at a grid end read its first (last) 5 nodes,
    so for levels >= 1, where the window starts (ends) at a grid end it
    must also reach 2 levels past node 2 (before node n_nodes - 3).  The
    window then spans at most hi - lo + 4 levels + 1 nodes, and at least
    5 if the grid has 5.  An h that is not finite at a node of the window
    raises SamplingError naming the first such node.
    """
    n = h.grid.n_nodes
    first, last = (min(lo, n - 3), max(hi, 2)) if levels else (lo, hi)
    window = slice(max(first - 2 * levels, 0), min(last + 2 * levels + 1, n))
    ends = window.start == 0, window.stop == n
    weights = None if phi is None else (1.0 / phi.values[window], phi.values[window])
    chain = [_check_finite(h, SamplingError, "h value", window).values[window]]
    for k in range(1, levels + 1):
        d = _derivative_rows(chain[-1], h.grid.h, *ends)
        chain.append(d if weights is None else weights[k % 2] * d)
    part = slice(lo - window.start, hi + 1 - window.start)
    return [c[part] for c in chain]


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
