"""Regular Sturm-Liouville eigenproblems via the series solutions.

The problem is u'' + qu = lambda*u on [a, b] with boundary conditions
c1 u(a) + c2 u'(a) = 0 and c3 u(b) + c4 u'(b) = 0.  A nonvanishing
complex seed is built from two real solutions of f'' + qf = 0 as
f = v1 + i v2; their Wronskian is constant and nonzero, so v1 and v2
never vanish together.  The series solutions u1, u2 from any anchor x0
have Wronskian 1, and eigenvalues are the zeros of the characteristic
function, the boundary determinant

    Phi(lambda) = B_a(u1) B_b(u2) - B_a(u2) B_b(u1),

B_a(u) = c1 u(a) + c2 u'(a) and B_b(u) = c3 u(b) + c4 u'(b), which at
fixed truncation M is a polynomial of degree 2M - 2 in lambda.  At
x0 = a, where u1, u2 start from f(a), f'(a) and 0, 1/f(a), it is
c3 u(b) + c4 u'(b) of the u pinned to u(a) = -c2, u'(a) = c1.
find_eigenvalues sums from the grid's middle node, so that each series
reaches half the interval and M falls by about a third.  Phi needs the
recursive integrals at a and b alone, so the search streams its orders:
it keeps each order's psi and chi at the two ends and the last few whole
psi rows, never a block of them, and its memory is O(n_nodes) whatever
M.  It fixes one M per window, samples Phi at the window's 2M - 1
Chebyshev points, which determine it, and takes the eigenvalues as the
real roots of that interpolant (the colleague matrix of its Chebyshev
coefficients).  The
determinant does not depend on the basis of solutions it is taken of,
up to that basis' Wronskian, so for real q, lambda and real boundary
coefficients Phi is real regardless of the complex seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, EigenError, GridConfigError, SeedError
from .grid import GridFunction, _check_finite
from .recint import MIN_SEED_ABS, RecursiveFamily, _pieces
from .series import SERIES_TOL, _lam_sums, _right_end, choose_truncation

_SEED_TERMS = 11  # series terms per seed piece, see build_seed
# Relative |Im(c1 conj(c2))| of a pair that is e^(i theta) times a real
# pair, from rounding alone: a few eps.
_PHASE_SLACK = 1e-14


def _pair(value, name: str) -> tuple:
    """value as a tuple of exactly two items, else ValueError naming it."""
    try:
        items = tuple(value)
    except TypeError:  # a scalar
        items = ()
    if len(items) != 2:
        raise ValueError(f"{name} must be two values, got {value!r}")
    return items


@dataclass
class SlProblem:
    """Potential plus boundary-condition pairs, each exactly two finite
    values and not (0, 0), else ValueError."""
    q: GridFunction
    bc_left: tuple
    bc_right: tuple

    def __post_init__(self):
        self.bc_left = tuple(map(complex, _pair(self.bc_left, "bc_left")))
        self.bc_right = tuple(map(complex, _pair(self.bc_right, "bc_right")))
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
    one batch of recint's order loop (_seed_pieces), the last, wider piece
    in a second; each costs 2 _SEED_TERMS - 1 integrations of the batch,
    whatever the number of pieces, and is summed by series._lam_sums, the
    kernel of the eigen search's end sums.  Complex q, a non-finite q, a seed that overflows (q L^2
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
    bounds = np.append(np.arange(0, n - 4, w), n - 1)
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

    recint._pieces runs the order loop on the P pieces in one batch, and
    series._lam_sums sums its psi rows and chi ends at lambda = 1: as
    f = 1 and f' = 0, u1'(b) and u2'(b) are the chi ends' sums T1 and T2.
    Each sum adds its terms highest order first, Horner form: summed as
    a product, as series._grid_sum sums, the seed of q = -1 on 5001 nodes
    had a second-difference residual of 1.5e-8 against 7.6e-9.  Rows and
    sums are real, in float64.
    """
    return _lam_sums(*_pieces(r, nodes, starts, w, 2 * _SEED_TERMS - 1), 1.0, _SEED_TERMS)


def characteristic(problem: SlProblem, family: RecursiveFamily, lam,
                   n_terms: int):
    """Phi(lam) = B_a(u1) B_b(u2) - B_a(u2) B_b(u1), in lam's shape, with
    B_a(u) = c1 u(a) + c2 u'(a) and B_b(u) = c3 u(b) + c4 u'(b), for the
    family's series solutions u1, u2 at any anchor x0; it is problem's
    only if the family's seed solves f'' + qf = 0 for problem.q, which
    nothing checks.  Raises GridConfigError if problem.q lives on another
    mesh; the anchors may differ."""
    _check_mesh(problem, family)
    u1b, u1pb, u2b, u2pb, u1a, u1pa, u2a, u2pa = _right_end(family, lam, n_terms)
    c1, c2 = problem.bc_left
    c3, c4 = problem.bc_right
    return ((c1 * u1a + c2 * u1pa) * (c3 * u2b + c4 * u2pb)
            - (c1 * u2a + c2 * u2pa) * (c3 * u1b + c4 * u1pb))


def _check_mesh(problem: SlProblem, family: RecursiveFamily) -> None:
    """GridConfigError if problem.q and the family live on different
    meshes; their anchors may differ."""
    g, h = problem.q.grid, family.grid
    if (g.a, g.b, g.n_nodes) != (h.a, h.b, h.n_nodes):
        raise GridConfigError("potential and family live on different grids")


@dataclass
class EigenResult:
    """Eigenvalues sorted by real part with their residuals, the window's
    one truncation n_terms (M), and the samples of Phi the fit read:
    scan_phi at the 2M - 1 Chebyshev points scan_lams, Phi of the series
    summed from the middle node and of the boundary pairs scaled to a
    largest modulus of 1, with the bits characteristic gives them on a
    family anchored there."""
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

    The series are summed from the grid's middle node, index
    (n_nodes - 1) // 2, on the search's own streamed family: the passed
    family's seed, weight and cap N, run through the order loop once,
    keeping each order's psi and chi at a and b, its sup-norm and only
    the last four whole psi rows (RecursiveFamily._streamed).  The passed
    family is never grown, whatever its anchor, and the search holds a
    dozen whole-grid rows, not the 2M + 3 it builds.  A potential on
    another mesh is refused with GridConfigError before any order is
    built.  Each boundary pair is scaled to a largest modulus of 1, which
    moves no root.  The truncation M is the larger of
    choose_truncation(series_tol) at the two window ends, run at both in
    one pass over the orders, with one warning if either hits the cap, so
    Phi is one polynomial of degree 2M - 2 in lambda over the whole
    window, and its values at the window's 2M - 1 Chebyshev points
    determine it.  Two array calls of characteristic do the search:

    - the samples, returned as scan_lams, scan_phi: the largest gives
      the phase rot and the scale max|Phi|, and chebfit gives the
      Chebyshev coefficients of Re(rot Phi) in the window's variable
      t in [-1, 1].  The eigenvalues of their real colleague matrix
      (chebroots) are its roots; a simple real root comes back with
      imaginary part exactly 0;
    - the residuals |Phi(root)| / scale of the real roots kept.

    lam_range must be exactly two values, and tol and series_tol,
    keyword-only, must be > 0, else ValueError.  tol is the relative
    |Phi| at which Phi counts as zero.  A real root outside the window
    is kept while |Phi| at the window's end, to first order, stays
    within it: the computed root of an eigenvalue on the end falls
    either side.  A root whose residual exceeds tol is kept, with a
    warning.

    Each boundary pair must be a complex multiple of a real pair, such
    as (1j, 2j), else ValueError: only then is Phi of real q one phase
    times a real function, whose real roots Re(rot Phi) has.

    The roots are those of problem.q only when the family's seed solves
    f'' + qf = 0 for problem.q (build_seed(problem.q) does); nothing
    checks that, and another seed gives another potential's eigenvalues.
    """
    lo, hi = map(float, _pair(lam_range, "lam_range"))
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
    _check_mesh(problem, family)
    # each pair scaled to a largest modulus of 1, part by part (complex
    # division by a subnormal overflows): Phi keeps its roots, and a pair
    # as small as (0, 5e-324) its digits
    problem = SlProblem(problem.q, *(
        (c.view(np.float64) / np.max(np.abs(c))).view(complex)
        for c in (np.array(problem.bc_left), np.array(problem.bc_right))))

    # the search's own streamed family, anchored at the middle node, so
    # that each series reaches half the interval
    family = family._streamed((family.grid.n_nodes - 1) // 2)
    with warnings.catch_warnings():  # one cap warning for the whole window
        warnings.filterwarnings("ignore", "truncation cap", AccuracyWarning)
        M, capped = choose_truncation(family, (lo, hi), series_tol)
    n_points = 2 * M - 1  # Phi's degree 2M - 2, plus one
    if capped:
        warnings.warn(f"truncation cap {M} reached at a window end, used at the "
                      f"window's {n_points} Chebyshev points without meeting "
                      f"series_tol={series_tol:g}", AccuracyWarning, stacklevel=2)
    cheb = np.polynomial.chebyshev  # reached here: importing spps.cli skips it
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = cheb.chebpts1(n_points)
    lams = mid + half * t
    phis = characteristic(problem, family, lams, M)

    scale = float(np.max(np.abs(phis)))
    if scale == 0.0:
        raise EigenError(f"characteristic function vanished identically: "
                         f"zero at the window's {n_points} Chebyshev points")
    rot = np.exp(-1j * np.angle(phis[int(np.argmax(np.abs(phis)))]))
    c = cheb.chebfit(t, (rot * phis).real, n_points - 1)
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
