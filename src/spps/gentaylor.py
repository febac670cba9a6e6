"""Generalized Taylor calculus over a recursive integral family.

The generalized derivatives of h alternate a grid derivative with
multiplication by phi = f^2 or 1/phi:

    gamma_0(h) = h,    gamma_k(h) = phi^((-1)^(k-1)) * (gamma_{k-1}(h))'

With f = 1 these are ordinary derivatives.  The coefficients
alpha_k = gamma_k(h)(x0)/k! expand smooth h in the anchored basis psi_k
(generalized polynomials), with a Lagrange-type remainder bound tested
by remainder_check.  least_squares_project approximates arbitrary grid
data in the solution bases {f*psi_k} and reports the error decay that
the completeness theory predicts.  It reads an orthonormal basis of the
weighted columns of its slice (even, odd or full), which a family grows
once, column by column by Gram-Schmidt run twice and only as far as an
N asked, and keeps beside its rows (_Basis).  A projection on columns
already built then costs a few matrix-vector products and one small
triangular solve, where the first on a fresh family pays for the columns
it builds, and its result does not depend on which N were asked before.
Every function here that takes an h refuses one that is not finite at a
node it reads.

Each gamma level is one numerical differentiation, so point values
degrade roughly two decimal digits per level; sequences past the safe
depth are still returned but flagged.  The chain is
grid._derivative_chain, which reads only the nodes its results depend
on, each with the bits the whole-grid chain gives it: gamma_seq and
gen_taylor_coeffs read at most the 4n + 1 nodes around x0, and
remainder_check the nodes from about x0 to its last sample.  P_n is
summed at the sample points' interpolation stencils alone.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, GridConfigError, OrderError, RankCollapseError, SamplingError,
                     _as_order)
from .grid import GridFunction, _check_finite, _derivative_chain, _interpolate
from .jets import _factorials
from .recint import RecursiveFamily

SAFE_DEPTH = 6


def _check_same_grid(h: GridFunction, family: RecursiveFamily) -> None:
    if h.grid != family.grid:
        raise GridConfigError("h does not live on the family's grid")


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

    The chain reads h and phi only on the window grid._derivative_chain
    gives x0, at most the 4n + 1 nodes around it, so each value has the
    bits a whole-grid chain gives it and the cost does not grow with
    n_nodes.  An h that is not finite there raises SamplingError.
    """
    _check_same_grid(h, family)
    n = _as_order(n, "n")
    if n < 0:
        raise OrderError(f"n must be >= 0, got {n}")
    i0 = family.grid.x0_index
    values = np.array([c[0] for c in _derivative_chain(h, i0, i0, n, family.phi)])
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

    One chain of n + 1 levels (grid._derivative_chain) gives both P_n's
    coefficients and gamma_{n+1}, on the nodes from x0 to the last whose
    gamma_{n+1} the largest sample reads, with the whole-grid chain's
    bits.  An h that is not finite on its window raises SamplingError.
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
    hi_last = hi[-1] - 1 if pts.size else i0
    chain = _derivative_chain(h, i0, hi_last, n + 1, family.phi)
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


class _Basis:
    """One slice of a family's weighted solution basis, sw * f * psi_k for
    k in orders, grown into an orthonormal basis one column at a time.

    Column j is orthogonalized against rows 0..j-1 by classical
    Gram-Schmidt run twice, which keeps the rows orthonormal to rounding
    however ill-conditioned the columns: the conjugate of the unit vector
    goes into row j of q, and the coefficients of both passes and its norm
    into column j of the upper triangular r, so the first k columns are
    q[:k]^H r[:k, :k].  Row j depends on columns 0..j alone, so a leading
    block has the same bits whatever was built after it.  blocks[k] holds
    the rank (by lstsq's rule) and the extreme singular values of
    r[:k, :k], those of the first k columns, for each k asked.  q is an
    anonymous mapping of its own, outside malloc's heap: a row that no
    column reached backs no page, and the block goes at once with the
    basis.  Taken from the heap, by np.empty or grown to the columns asked,
    it held 0.7 MB more at the peak of the taylor-calculus workload."""

    def __init__(self, family: RecursiveFamily, start: int, step: int):
        g = family.grid
        w = np.full(g.n_nodes, g.h)
        w[0] = w[-1] = g.h / 2.0
        self.sw = np.sqrt(w)
        self.orders = range(start, family.N + 1, step)
        cols, dtype = len(self.orders), family._psi.dtype
        flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
        buf = mmap.mmap(-1, cols * g.n_nodes * dtype.itemsize, **flags)
        self.q = np.frombuffer(buf, dtype).reshape(cols, g.n_nodes)
        self.r = np.zeros((cols, cols), dtype)
        self.r_rows = []  # r[:size, :size] as nested lists, for solve
        self.blocks = {}
        self.size = 0

    def extend(self, family: RecursiveFamily, k: int) -> None:
        """Orthonormalize columns size..k-1, growing the family's orders
        as far as they read."""
        psi = family._grow(self.orders[k - 1])
        swf = self.sw * family.f.values
        for j in range(self.size, k):
            v = swf * psi[self.orders[j]]
            q = self.q[:j]
            c = q @ v
            v -= np.conj(np.conj(c) @ q)
            d = q @ v
            v -= np.conj(np.conj(d) @ q)
            norm = np.linalg.norm(v)
            self.r[:j, j] = c + d
            self.r[j, j] = norm
            # a zero column leaves a zero row and a zero diagonal, which
            # collapses the rank of every block that holds it
            self.q[j] = np.conj(v) / norm if norm else 0.0
        self.r_rows = self.r[:k, :k].tolist()
        self.size = k

    def block(self, k: int) -> tuple:
        """(rank, sigma_max, sigma_min) of the first k columns, from the
        singular values of r[:k, :k], with lstsq's rank rule (rcond = eps
        * max(n_nodes, k)); kept in blocks."""
        if k not in self.blocks:
            s = np.linalg.svd(self.r[:k, :k], compute_uv=False)
            tol = np.finfo(float).eps * max(len(self.sw), k) * s[0]
            self.blocks[k] = int(np.count_nonzero(s > tol)), s[0], s[-1]
        return self.blocks[k]

    def solve(self, y: np.ndarray) -> np.ndarray:
        """x with r[:k, :k] x = y, k = len(y), by back substitution."""
        x = y.tolist()
        for i in range(len(x) - 1, -1, -1):
            row = self.r_rows[i]
            s = x[i]
            for j in range(i + 1, len(x)):
                s -= row[j] * x[j]
            x[i] = s / row[i]
        return np.array(x)


def _basis(family: RecursiveFamily, start: int, step: int, k: int) -> tuple:
    """The family's basis of the orders start, start + step, ..., with at
    least its first k columns built, and the rank and extreme singular
    values of those k: the basis is made at the first read of the slice
    and grown, under the family's lock, only as far as k."""
    with family._lock:
        basis = family._bases.get((start, step))
        if basis is None:
            basis = family._bases[start, step] = _Basis(family, start, step)
        if basis.size < k:
            basis.extend(family, k)
        return basis, basis.block(k)


def least_squares_project(h: GridFunction, family: RecursiveFamily, N: int,
                          which: str = "full") -> ProjectionResult:
    """Best grid-L2 approximation of h in a slice of the solution basis.

    which selects the even half {f*psi_0, f*psi_2, ...}, the odd half
    {f*psi_1, f*psi_3, ...}, or their union, all with orders <= N.  The
    weighted system is solved from an orthonormal basis of the slice's
    weighted columns, which the family grows once, one column at a time
    and only as far as an N asked, and keeps (never normal equations:
    these bases are Vandermonde-like).  With b = sqrt(w) * h and the k
    columns q_k^H r_k, the coefficients solve r_k x = q_k b; l2_error and
    max_error are those of their residual on the columns f * psi_k.  The
    rank and condition estimate are those of r_k's singular values, with
    lstsq's rank rule.  A call that reads columns already built factors
    no matrix of n_nodes rows, so projecting again on a family is cheap;
    the first call on a fresh family pays for the columns it builds.
    Raises RankCollapseError if the design matrix loses rank, and
    SamplingError if h is not finite at a node.
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
    _check_finite(h, SamplingError, "h value")

    k = len(orders)
    basis, (rank, smax, smin) = _basis(family, start, step, k)
    if rank < k:
        raise RankCollapseError(f"design matrix rank {rank} < {k} columns")
    x = basis.solve(basis.q[:k] @ (basis.sw * h.values))
    # the errors are those of the coefficients returned, their residual on
    # the unweighted basis rows f * psi_k
    resid = x @ np.multiply(family.f.values, family._grow(N)[start:N + 1:step]) - h.values
    return ProjectionResult(
        coefficients=x,
        orders=orders,
        l2_error=float(np.linalg.norm(basis.sw * resid)),
        max_error=float(np.max(np.abs(resid))),
        condition_estimate=float(smax / smin),
    )
