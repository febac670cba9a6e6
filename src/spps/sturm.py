"""Regular Sturm-Liouville eigenproblems via the series solutions.

The problem is u'' + qu = lambda*u on [a, b] with boundary conditions
c1 u(a) + c2 u'(a) = 0 and c3 u(b) + c4 u'(b) = 0.  A nonvanishing
complex seed is built from two real solutions of f'' + qf = 0 as
f = v1 + i v2; their Wronskian is constant and nonzero, so v1 and v2
never vanish together.  The solution u = beta1 u1 + beta2 u2 is pinned
to the left condition through the known initial values of u1, u2 at
x0 = a, and eigenvalues are the zeros of the characteristic function

    Phi(lambda) = c3 u(b) + c4 u'(b),

which at fixed truncation M is a polynomial of degree M - 1 in lambda.
find_eigenvalues fixes one M per window, samples Phi at the window's M
Chebyshev points, which determine it, and takes the eigenvalues as the
real roots of that interpolant (the colleague matrix of its Chebyshev
coefficients).  The betas are
normalized so that u(a) = -c2 and u'(a) = c1; for real q, lambda and
real boundary coefficients this makes u and Phi real regardless of the
complex seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, EigenError, GridConfigError, SeedError
from .grid import GridFunction, _check_finite
from .recint import MIN_SEED_ABS, RecursiveFamily, _extend_orders, _order_zero
from .series import SERIES_TOL, _inv_factorials, _right_end, choose_truncation

_SEED_TERMS = 11  # series terms per seed piece, see build_seed
# Relative |Im(c1 conj(c2))| of a pair that is e^(i theta) times a real
# pair, from rounding alone: a few eps.
_PHASE_SLACK = 1e-14


@dataclass
class SlProblem:
    """Potential plus boundary-condition pairs, each finite and not (0, 0)."""
    q: GridFunction
    bc_left: tuple
    bc_right: tuple

    def __post_init__(self):
        self.bc_left = (complex(self.bc_left[0]), complex(self.bc_left[1]))
        self.bc_right = (complex(self.bc_right[0]), complex(self.bc_right[1]))
        for label, pair in (("left", self.bc_left), ("right", self.bc_right)):
            if not np.all(np.isfinite(pair)):
                raise ValueError(f"non-finite {label} boundary condition {pair}")
            if pair == (0, 0):
                raise ValueError(f"degenerate {label} boundary condition {pair}")


def build_seed(q: GridFunction) -> GridFunction:
    """Nonvanishing complex solution of f'' + qf = 0 on a grid of >= 5 nodes.

    Returns v1 + i*v2 with (v1, v1') = (1, 0) and (v2, v2') = (0, 1) at a,
    the series u1, u2 at lambda = 1 of the family with seed 1 and weight
    -q.  One series over [a, b] loses every digit to cancellation among
    its terms (sqrt(max|q|) L)^k / k! when q L^2 is large, so it is summed
    on pieces of >= 4 cells with max|q| L^2 <= 1, each started from the
    value and derivative the last one ends with; there _SEED_TERMS terms
    reach rounding.  The pieces of equal width are built side by side in
    one batch (_seed_pieces), the last, wider piece in a second; each
    costs 2 _SEED_TERMS - 1 integrations of the batch, whatever the number
    of pieces.  Complex q, a non-finite q, a seed that overflows (q L^2
    far below zero) or a vanishing seed raise SeedError.
    """
    if not q.is_real:
        raise SeedError("complex q requires a user-supplied seed")
    g = _check_finite(q, SeedError, "q value").grid
    n = g.n_nodes
    if n < 5:
        raise GridConfigError(f"seed construction needs 5 nodes, got {n}")
    qmax = float(np.max(np.abs(q.values)))
    w = max(4, int(1.0 / (np.sqrt(qmax) * g.h))) if qmax > 0 else n - 1
    # piece ends every w cells; a tail shorter than 4 cells joins the last piece
    bounds = list(range(0, n - 4, w)) + [n - 1]
    r = -q.values.real
    batches = [_seed_pieces(r, g.nodes, bounds[:-2], w)] if len(bounds) > 2 else []
    batches.append(_seed_pieces(r, g.nodes, bounds[-2:-1], bounds[-1] - bounds[-2]))
    pieces = (piece for batch in batches for piece in zip(*batch))
    f, fp = np.ones(n, dtype=complex), 1j
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for i, j, (c, s, cp, sp) in zip(bounds[:-1], bounds[1:], pieces):
            f[i:j + 1], fp = f[i] * c + fp * s, f[i] * cp + fp * sp
    bad = np.flatnonzero(~np.isfinite(f))
    if bad.size:
        raise SeedError(f"generated seed overflows at x={g.nodes[bad[0]]}: the "
                        f"solutions of f'' + qf = 0 outgrow the float range")
    i = int(np.argmin(np.abs(f)))
    if not abs(f[i]) >= MIN_SEED_ABS:  # NaN fails too
        raise SeedError(
            f"generated seed modulus {abs(f[i]):.3g} at x={g.nodes[i]}: "
            f"numerical drift; try a finer grid")
    return GridFunction(g, f)


def _seed_pieces(r, nodes, starts, w: int):
    """u1, u2 of the recursion with seed 1 and weight r at lambda = 1 (it
    solves u'' = r u), with _SEED_TERMS terms, on the pieces of w cells
    that begin at the node indices `starts`: c, s of shape (P, w + 1) and
    u1'(b), u2'(b) of shape (P,).

    The psi rows are (P, w + 1) and the chi ends (P, 1) for each order,
    built by recint's order loop with each piece's own spacing and the
    weights (1, r): with seed 1, 1/phi = 1 exactly and r takes the place
    of phi.  As f = 1 and f' = 0, u1'(b) and u2'(b) are the chi ends'
    sums T1 = sum_{k>=1} chi_(2k-1) / (2k-1)! and T2 = sum_k chi_2k /
    (2k)!.  Each sum adds its terms highest order first, Horner form at
    lambda = 1: summed as a product, as series._grid_sum sums, the seed
    of q = -1 on 5001 nodes had a second-difference residual of 1.5e-8
    against 7.6e-9.  Rows and sums are real, in float64.
    """
    starts = np.asarray(starts)
    idx = starts[:, None] + np.arange(w + 1)
    r = r[idx]
    h = ((nodes[starts + w] - nodes[starts]) / w)[:, None]
    top = 2 * _SEED_TERMS - 1
    psi, ends, scratch = _order_zero(r.shape, r.dtype, top)
    _extend_orders(psi, ends, (1.0, r), h, 0, 1, top, scratch)
    inv, ends = _inv_factorials(top), ends[..., 0]

    def at_one(rows, k):  # sum of rows[j] / j! for j = k, k - 2, .. 0 or 1
        acc = rows[k] * inv[k]
        for j in range(k - 2, -1, -2):
            acc += rows[j] * inv[j]
        return acc

    return at_one(psi, top - 1), at_one(psi, top), at_one(ends, top - 2), at_one(ends, top - 1)


def _left_betas(problem: SlProblem, family: RecursiveFamily):
    """Coefficients of u = beta1 u1 + beta2 u2 with u(a) = -c2, u'(a) = c1."""
    c1, c2 = problem.bc_left
    fa = family.f.values[0]
    fpa = family.f_prime.values[0]
    beta1 = -c2 / fa
    beta2 = c1 * fa + c2 * fpa
    if beta1 == 0 and beta2 == 0:
        raise EigenError("both solution coefficients vanished despite "
                         "non-degenerate boundary data")
    return beta1, beta2


def characteristic(problem: SlProblem, family: RecursiveFamily, lam,
                   n_terms: int):
    """Phi(lam) = c3 u(b) + c4 u'(b) of the left-pinned u, in lam's shape;
    it is problem's only if the family's seed solves f'' + qf = 0 for
    problem.q, which nothing checks."""
    if family.grid.x0_index != 0:
        raise GridConfigError("eigenproblem families must be anchored at a "
                              "(x0 = left endpoint)")
    if problem.q.grid != family.grid:
        raise GridConfigError("potential and family live on different grids")
    u1b, u1pb, u2b, u2pb = _right_end(family, lam, n_terms)
    beta1, beta2 = _left_betas(problem, family)
    c3, c4 = problem.bc_right
    ub = beta1 * u1b + beta2 * u2b
    upb = beta1 * u1pb + beta2 * u2pb
    return c3 * ub + c4 * upb


@dataclass
class EigenResult:
    """Eigenvalues sorted by real part with their residuals, the window's
    one truncation n_terms, and the samples of Phi the fit read: scan_phi
    at the Chebyshev points scan_lams."""
    eigenvalues: np.ndarray
    residuals: np.ndarray
    n_terms: int
    scan_lams: np.ndarray
    scan_phi: np.ndarray

    def __len__(self):
        return len(self.eigenvalues)


def find_eigenvalues(problem: SlProblem, family: RecursiveFamily,
                     lam_range, *, tol: float = 1e-10,
                     series_tol: float = SERIES_TOL) -> EigenResult:
    """Real-line eigenvalues as the real roots of one polynomial per window.

    The truncation M is the larger of choose_truncation(series_tol) at
    the two window ends, with one warning if either hits the cap, so Phi
    is one polynomial of degree M - 1 in lambda over the whole window,
    and its values at the window's M Chebyshev points determine it.  Two
    array calls of characteristic do the search:

    - the samples, returned as scan_lams, scan_phi: the largest gives
      the phase rot and the scale max|Phi|, and chebfit gives the
      Chebyshev coefficients of Re(rot Phi) in the window's variable
      t in [-1, 1].  The eigenvalues of their real colleague matrix
      (chebroots) are its roots; a simple real root comes back with
      imaginary part exactly 0;
    - the residuals |Phi(root)| / scale of the real roots kept.

    tol and series_tol are keyword-only and must be > 0, else
    ValueError.  tol is the relative |Phi| at which Phi counts as zero.
    A real root outside the window is kept while |Phi| at the window's
    end, to first order, stays within it: the computed root of an
    eigenvalue on the end falls either side.  A root whose residual
    exceeds tol is kept, with a warning.

    Each boundary pair must be a complex multiple of a real pair, such
    as (1j, 2j), else ValueError: only then is Phi of real q one phase
    times a real function, whose real roots Re(rot Phi) has.

    The roots are those of problem.q only when the family's seed solves
    f'' + qf = 0 for problem.q (build_seed(problem.q) does); nothing
    checks that, and another seed gives another potential's eigenvalues.
    """
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite range with min < max, got {lam_range}")
    if not problem.q.is_real:
        raise ValueError("default search handles the real-q path only")
    for label, (c1, c2) in (("left", problem.bc_left), ("right", problem.bc_right)):
        if abs((c1 * c2.conjugate()).imag) > _PHASE_SLACK * abs(c1) * abs(c2):
            raise ValueError(f"{label} boundary pair {(c1, c2)} is not a complex "
                             f"multiple of a real pair; the real-line search needs one")
    for name, value in (("tol", tol), ("series_tol", series_tol)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")

    with warnings.catch_warnings():  # one cap warning for the whole window
        warnings.filterwarnings("ignore", "truncation cap", AccuracyWarning)
        ends = [choose_truncation(family, lam, series_tol) for lam in (lo, hi)]
    M = max(c.n_terms for c in ends)
    if any(c.capped for c in ends):
        warnings.warn(f"truncation cap {M} reached at a window end, used at the "
                      f"window's {M} Chebyshev points without meeting "
                      f"series_tol={series_tol:g}", AccuracyWarning, stacklevel=2)
    cheb = np.polynomial.chebyshev  # reached here: importing spps.cli skips it
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = cheb.chebpts1(M)
    lams = mid + half * t
    phis = characteristic(problem, family, lams, M)

    scale = float(np.max(np.abs(phis)))
    if scale == 0.0:
        raise EigenError(f"characteristic function vanished identically: "
                         f"zero at the window's {M} Chebyshev points")
    rot = np.exp(-1j * np.angle(phis[int(np.argmax(np.abs(phis)))]))
    c = cheb.chebfit(t, (rot * phis).real, M - 1)
    t = cheb.chebroots(c)
    t = t.real[t.imag == 0]
    t = t[(np.abs(t) - 1.0) * np.abs(cheb.chebval(t, cheb.chebder(c))) <= tol * scale]
    roots = np.sort(mid + half * t)
    residuals = np.abs(characteristic(problem, family, roots, M)) / scale
    for root, res in zip(roots, residuals):
        if res > tol:
            warnings.warn(f"eigenvalue {root:.6g} has relative residual {res:.3g} "
                          f"> tol={tol:g}", AccuracyWarning, stacklevel=2)
    return EigenResult(
        eigenvalues=roots,
        residuals=residuals,
        n_terms=M,
        scan_lams=lams,
        scan_phi=phis,
    )
