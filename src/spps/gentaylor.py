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
depth are still returned but flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridConfigError, OrderError, RankCollapseError
from .grid import GridFunction, derivative
from .jets import _factorials
from .recint import RecursiveFamily

SAFE_DEPTH = 6


def _check_same_grid(h: GridFunction, family: RecursiveFamily) -> None:
    if h.grid != family.grid:
        raise GridConfigError("h does not live on the family's grid")


def _gamma_chain(h: GridFunction, family: RecursiveFamily, n: int) -> list[np.ndarray]:
    """Whole-grid gamma_0..gamma_n values (internal; contract is at x0)."""
    phi = family.phi.values
    chain = [h.values]
    cur = h
    for k in range(1, n + 1):
        d = derivative(cur)
        # odd levels multiply by phi, even levels divide
        w = phi if k % 2 else 1.0 / phi
        cur = GridFunction(family.grid, w * d.values)
        chain.append(cur.values)
    return chain


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
    """
    _check_same_grid(h, family)
    n = int(n)
    if n < 0:
        raise OrderError(f"n must be >= 0, got {n}")
    i0 = family.grid.x0_index
    chain = _gamma_chain(h, family, n)
    values = np.array([c[i0] for c in chain])
    return GenDerivativeSequence(values, family.grid.x0, n, n > SAFE_DEPTH)


@dataclass
class GenPolynomial:
    """Finite expansion sum alpha_k * psi_k over a family's basis."""
    alpha: np.ndarray
    family: RecursiveFamily
    _grid_values: GridFunction | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=complex)
        if not np.all(np.isfinite(self.alpha)):
            raise OrderError("generalized polynomial coefficients must be finite")
        if len(self.alpha) - 1 > self.family.N:
            raise OrderError(
                f"order {len(self.alpha) - 1} exceeds family order {self.family.N}")

    @property
    def order(self) -> int:
        return len(self.alpha) - 1

    def on_grid(self) -> GridFunction:
        if self._grid_values is None:
            acc = np.zeros(self.family.grid.n_nodes, dtype=complex)
            for k, a in enumerate(self.alpha):
                if a != 0:
                    acc += a * self.family.psi(k).values
            self._grid_values = GridFunction(self.family.grid, acc)
        return self._grid_values


def gen_taylor_coeffs(h: GridFunction, family: RecursiveFamily,
                      n: int) -> GenPolynomial:
    """Generalized Taylor coefficients alpha_k = gamma_k(h)(x0)/k!."""
    seq = gamma_seq(h, family, n)
    return GenPolynomial(seq.values / _factorials(n), family)


def eval_gen_polynomial(p: GenPolynomial, x):
    """Evaluate sum alpha_k psi_k at x (scalar or array)."""
    return p.on_grid().at(x)


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
    violation and fails the report.
    """
    _check_same_grid(h, family)
    pts = np.sort(np.atleast_1d(np.asarray(sample_points, dtype=float)))
    g = family.grid
    if pts.size and (pts[0] < g.x0 or pts[-1] > g.b):
        raise DomainError(
            f"sample points must lie in [x0, b] = [{g.x0}, {g.b}]")
    if not 0 <= n < family.N:
        raise OrderError(f"remainder at order {n} needs n >= 0 and psi_{n + 1}; "
                         f"family has N={family.N}")
    i0 = g.x0_index
    chain = _gamma_chain(h, family, n + 1)
    fact = _factorials(n + 1)
    p = GenPolynomial(np.array([c[i0] for c in chain[:-1]]) / fact[:-1], family)
    gam_top = np.abs(chain[-1])
    psi_top = family.psi(n + 1)

    err = np.abs(h.at(pts) - eval_gen_polynomial(p, pts))
    # conservative grid max of |gamma_{n+1}| over [x0, x]: nodes i0 .. hi - 1,
    # read off the running maximum from x0 (every x >= x0, so hi > i0)
    hi = np.minimum(np.searchsorted(g.nodes, pts, side="right") + 1, g.n_nodes)
    gmax = np.maximum.accumulate(gam_top[i0:])[hi - 1 - i0]
    bound = gmax * np.abs(psi_top.at(pts)) / fact[-1]
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
    N = int(N)
    if N < 0 or N > family.N:
        raise OrderError(f"N={N} outside family order 0..{family.N}")
    starts = {"even": 0, "odd": 1}
    if which in starts:
        orders = tuple(range(starts[which], N + 1, 2))
    elif which == "full":
        orders = tuple(range(0, N + 1))
    else:
        raise ValueError(f"which must be even|odd|full, got {which!r}")
    if not orders:
        raise OrderError(f"no basis orders <= {N} for which={which!r}")

    g = family.grid
    w = np.full(g.n_nodes, g.h)
    w[0] = w[-1] = g.h / 2.0
    sw = np.sqrt(w)
    B = np.column_stack([family.phi_k(k).values for k in orders])
    A = sw[:, None] * B
    rhs = sw * h.values
    sol, _, rank, svals = np.linalg.lstsq(A, rhs, rcond=None)
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
