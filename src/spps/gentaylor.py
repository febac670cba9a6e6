"""Generalized Taylor calculus over a recursive integral family.

The generalized derivatives of h alternate a grid derivative with
multiplication by phi = f^2 or 1/phi:

    gamma_0(h) = h,    gamma_k(h) = phi^((-1)^(k-1)) * (gamma_{k-1}(h))'

With f = 1 these are ordinary derivatives.  The coefficients
alpha_k = gamma_k(h)(x0)/k! expand smooth h in the anchored basis psi_k
(generalized polynomials), with a Lagrange-type remainder bound tested
by remainder_check.  least_squares_project approximates arbitrary grid
data in the solution bases {f*psi_k} and reports the error decay that
the completeness theory predicts.

Each gamma level is one numerical differentiation, so point values
degrade roughly two decimal digits per level; sequences past the safe
depth are still returned but flagged.  A chain reads only the nodes its
results depend on (grid._derivative_window), each with the bits the
whole-grid chain gives it: gamma_seq and gen_taylor_coeffs read at most
the 4n + 1 nodes around x0, and remainder_check the nodes from about
x0 to its last sample, with 2(n + 1) more at each end.  P_n is summed at
the sample points' interpolation stencils alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridConfigError, OrderError, RankCollapseError, _as_order
from .grid import GridFunction, _derivative_rows, _derivative_window, _interpolate
from .jets import _factorials
from .recint import RecursiveFamily

SAFE_DEPTH = 6


def _check_same_grid(h: GridFunction, family: RecursiveFamily) -> None:
    if h.grid != family.grid:
        raise GridConfigError("h does not live on the family's grid")


def _gamma_chain(h: GridFunction, family: RecursiveFamily, n: int,
                 lo: int, hi: int) -> list[np.ndarray]:
    """gamma_0(h)..gamma_n(h) on nodes lo..hi, each with the bits the
    whole-grid chain gives those nodes: the chain runs on the window of
    nodes _derivative_window gives, not on the whole grid."""
    g = family.grid
    window = _derivative_window(g.n_nodes, lo, hi, n)
    phi = family.phi.values[window]
    weights = (1.0 / phi, phi)  # odd levels multiply by phi, even levels divide
    cur = h.values[window]
    ends = window.start == 0, window.stop == g.n_nodes
    chain = [cur]
    for k in range(1, n + 1):
        cur = weights[k % 2] * _derivative_rows(cur, g.h, *ends)
        chain.append(cur)
    part = slice(lo - window.start, hi + 1 - window.start)
    return [c[part] for c in chain]


@dataclass
class GenDerivativeSequence:
    """gamma_0(h)(x0) .. gamma_n(h)(x0) with an accuracy flag."""
    values: np.ndarray
    x0: float
    n: int
    degraded: bool = False

    def __len__(self):
        return len(self.values)


def gamma_seq(h: GridFunction, family: RecursiveFamily, n: int) -> GenDerivativeSequence:
    """Generalized derivatives of h at the anchor, orders 0..n.

    Sequences deeper than SAFE_DEPTH are still returned with
    degraded=True; at the default grid resolution each level costs
    roughly two digits.  Past order 4 an anchor at a grid endpoint is
    much worse than an interior one: the one-sided boundary stencils
    leave an error kink that each further differentiation amplifies by
    1/h, so deep chains should anchor in the interior.

    The chain reads h and phi on the nodes x0's whole-grid derivatives
    depend on, so each value has the bits a whole-grid chain gives it
    and the cost does not grow with n_nodes: the 4n + 1 nodes around
    x0, or, for an x0 within 2n nodes of a grid end, the nodes from that
    end to 2n past x0 or past the end's third node, whichever is further.
    """
    _check_same_grid(h, family)
    n = _as_order(n, "n")
    if n < 0:
        raise OrderError(f"n must be >= 0, got {n}")
    i0 = family.grid.x0_index
    values = np.array([c[0] for c in _gamma_chain(h, family, n, i0, i0)])
    return GenDerivativeSequence(values, family.grid.x0, n, n > SAFE_DEPTH)


@dataclass
class GenPolynomial:
    """Finite expansion sum alpha_k * psi_k over a family's basis.

    alpha must be a non-empty 1-D array of finite coefficients, at most
    N + 1 of them, else OrderError."""
    alpha: np.ndarray
    family: RecursiveFamily

    def __post_init__(self):
        alpha = np.asarray(self.alpha)  # its own type, ints as float64
        if alpha.ndim != 1 or not alpha.size:
            raise OrderError(f"alpha must be a non-empty 1-D array, got shape {alpha.shape}")
        self.alpha = alpha if alpha.dtype.kind in "fc" else alpha.astype(np.float64)
        if not np.all(np.isfinite(self.alpha)):
            raise OrderError("generalized polynomial coefficients must be finite")
        if len(self.alpha) - 1 > self.family.N:
            raise OrderError(
                f"order {len(self.alpha) - 1} exceeds family order {self.family.N}")

    @property
    def order(self) -> int:
        return len(self.alpha) - 1

    @property
    def _dtype(self) -> np.dtype:
        """The sum's type: that of alpha and the family's rows."""
        return np.result_type(self.alpha, self.family.f.values)

    def on_grid(self) -> GridFunction:
        """sum alpha_k psi_k on the grid, in the type of alpha and the
        family's rows."""
        return GridFunction(self.family.grid, self._at_nodes(slice(None)))

    def _at_nodes(self, idx) -> np.ndarray:
        """sum alpha_k psi_k at the nodes idx (an index array, or a slice
        of the nodes), each with the bits on_grid gives it: the same
        products in the same order and type, node by node."""
        acc = np.zeros(self.family.grid.nodes[idx].shape, dtype=self._dtype)
        for k, a in enumerate(self.alpha):
            if a != 0:
                acc += a * self.family._grow(k)[k, idx]
        return acc


def gen_taylor_coeffs(h: GridFunction, family: RecursiveFamily,
                      n: int) -> GenPolynomial:
    """Generalized Taylor coefficients alpha_k = gamma_k(h)(x0)/k!."""
    seq = gamma_seq(h, family, n)
    return GenPolynomial(seq.values / _factorials(n), family)


def eval_gen_polynomial(p: GenPolynomial, x):
    """Evaluate sum alpha_k psi_k at x (scalar or array): on_grid's
    GridFunction.at, summed at the points' stencil nodes alone."""
    return _interpolate(p.family.grid, x, p._at_nodes)


@dataclass
class RemainderReport:
    passed: bool
    max_slack: float
    points: np.ndarray
    slacks: np.ndarray
    violations: list


def remainder_check(h: GridFunction, family: RecursiveFamily, n: int,
                    sample_points) -> RemainderReport:
    """Verify the generalized Taylor remainder bound at points right of x0.

    At each sample x the truncation error |h(x) - P_n(x)| is compared
    with max over [x0, x] of |gamma_{n+1}(h)| times |psi_{n+1}(x)|/(n+1)!.
    Slack is bound minus error; any materially negative slack is a
    violation and fails the report.  sample_points may have any shape:
    they are taken flattened, sorted, as the report's points.  h, P_n and
    psi_{n+1} are read at the samples through one interpolation stencil,
    each in its own type, with the bits its own GridFunction.at gives,
    P_n summed at the stencils' nodes alone.

    The chain of n + 1 levels reads h and phi from 2(n + 1) nodes left
    of x0 to 2(n + 1) right of the last node whose gamma_{n+1} the
    largest sample reads, clipped to the grid; where that meets a grid
    end, the window also reaches 2(n + 1) past the end's third node,
    which its one-sided stencils read.  Every value it gives has the
    whole-grid chain's bits.
    """
    _check_same_grid(h, family)
    pts = np.sort(np.ravel(np.asarray(sample_points, dtype=float)))
    g = family.grid
    if pts.size and (pts[0] < g.x0 or pts[-1] > g.b):
        raise DomainError(
            f"sample points must lie in [x0, b] = [{g.x0}, {g.b}]")
    if not 0 <= n < family.N:
        raise OrderError(f"remainder at order {n} needs n >= 0 and psi_{n + 1}; "
                         f"family has N={family.N}")
    i0 = g.x0_index
    # conservative grid max of |gamma_{n+1}| over [x0, x]: nodes i0 .. hi - 1
    # (every x >= x0, so hi > i0), the chain's only nodes past x0
    hi = np.minimum(np.searchsorted(g.nodes, pts, side="right") + 1, g.n_nodes)
    chain = _gamma_chain(h, family, n + 1, i0, hi[-1] - 1 if pts.size else i0)
    fact = _factorials(n + 1)
    p = GenPolynomial(np.array([c[0] for c in chain[:-1]]) / fact[:-1], family)
    gmax = np.maximum.accumulate(np.abs(chain[-1]))[hi - 1 - i0]

    # h, P_n and psi_(n+1) at the points, P_n summed at their stencils'
    # nodes alone
    h_at, p_at, psi_at = _interpolate(g, pts, h.values.__getitem__, p._at_nodes,
                                      family.psi(n + 1).values.__getitem__)
    err = np.abs(h_at - p_at)
    bound = gmax * np.abs(psi_at) / fact[-1]
    slacks = bound - err
    # err and bound both pass through repeated grid differentiation, so a
    # negative slack only counts when it exceeds that noise floor; when h is
    # itself a degree-n element both sides are numerical zeros.
    atol = max(1e-12 * max(1.0, float(np.max(bound, initial=0.0))),
               1e-8 * (1.0 + h.sup_norm))
    violations = [(float(x), float(s)) for x, s in zip(pts, slacks) if s < -atol]
    return RemainderReport(
        passed=not violations,
        max_slack=float(np.max(slacks, initial=0.0)),
        points=pts,
        slacks=slacks,
        violations=violations,
    )


@dataclass
class ProjectionResult:
    coefficients: np.ndarray
    orders: tuple
    l2_error: float
    max_error: float
    condition_estimate: float


def least_squares_project(h: GridFunction, family: RecursiveFamily, N: int,
                          which: str = "full") -> ProjectionResult:
    """Best grid-L2 approximation of h in a slice of the solution basis.

    which selects the even half {f*psi_0, f*psi_2, ...}, the odd half
    {f*psi_1, f*psi_3, ...}, or their union, all with orders <= N.  The
    weighted system is solved by SVD (never normal equations: these
    bases are Vandermonde-like).  Raises RankCollapseError if the design
    matrix loses rank.
    """
    _check_same_grid(h, family)
    N = _as_order(N, "N")
    if N < 0 or N > family.N:
        raise OrderError(f"N={N} outside family order 0..{family.N}")
    slices = {"even": (0, 2), "odd": (1, 2), "full": (0, 1)}
    if which not in slices:
        raise ValueError(f"which must be even|odd|full, got {which!r}")
    start, step = slices[which]
    orders = tuple(range(start, N + 1, step))
    if not orders:
        raise OrderError(f"no basis orders <= {N} for which={which!r}")

    g = family.grid
    w = np.full(g.n_nodes, g.h)
    w[0] = w[-1] = g.h / 2.0
    sw = np.sqrt(w)
    # the basis f * psi_k as contiguous (k, n_nodes) rows, one product over
    # the psi rows.  Weighted in place, their transpose is the
    # Fortran-ordered design matrix lstsq copies its input into anyway, so
    # LAPACK reads the same values.  The residual's product sums over the
    # C-ordered (n_nodes, k) columns, as BLAS sums their transpose in
    # another order.  Each product keeps the column form's operand order:
    # numpy's complex products need not commute bit for bit
    rows = np.multiply(family.f.values, family._grow(N)[start:N + 1:step])
    B = np.ascontiguousarray(rows.T)
    np.multiply(sw, rows, out=rows)
    sol, _, rank, svals = np.linalg.lstsq(rows.T, sw * h.values, rcond=None)
    if rank < len(orders):
        raise RankCollapseError(
            f"design matrix rank {rank} < {len(orders)} columns")
    resid = B @ sol - h.values
    return ProjectionResult(
        coefficients=sol,
        orders=orders,
        l2_error=float(np.sqrt(np.sum(w * np.abs(resid) ** 2))),
        max_error=float(np.max(np.abs(resid))),
        condition_estimate=float(svals[0] / svals[-1]) if svals.size else np.inf,
    )
