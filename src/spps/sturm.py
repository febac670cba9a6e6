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
characteristic takes Phi so, from one family.  find_eigenvalues does
not: one series cancels once sqrt|lambda| times its reach passes ~20,
so it cuts [a, b] into K >= 6 short pieces, each anchored at its first
node, and runs the seed's recursion on all of them in one batch
(recint._Pieces) with a 6-point row rule (grid._integrate_rows6),
keeping psi and chi at one node of each piece, their sup-norms and only
the batch's last two psi rows.  With u = f S and
u' = f' S + T/f, a piece's (S, T) is the identity at its anchor, so
(u, u')(b) = F(b) V_K ... V_1 F(a)^-1 (u, u')(a), V_p = [[S1, S2],
[T1, T2]] at piece p's end and F = [[f, 0], [f', 1/f]]: the pinned u's
transfer through the pieces, a polynomial of degree K(M - 1) in lambda,
as MATSLISE and the CP codes propagate (Ledoux, Van Daele and Vanden
Berghe, ACM TOMS 31 (2005)).  The search fixes one M per window, samples
Phi at the window's K(M - 1) + 1 Chebyshev points, which determine it,
and takes the eigenvalues as the real roots of that interpolant (the
colleague matrix of its Chebyshev coefficients, on arcs of the window
where the degree is high).  The determinant does
not depend on the basis of solutions it is taken of, up to that basis'
Wronskian, so for real q, lambda and real boundary coefficients Phi is
real regardless of the complex seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, EigenError, GridConfigError, SeedError
from .grid import GridFunction, _check_finite, _integrate_rows6
from .recint import MIN_SEED_ABS, RecursiveFamily, _end_slopes, _Pieces
from .series import _BOUND_SLACK, SERIES_TOL, _inv_factorials, _lam_power, _lam_sums, _right_end

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

    recint._Pieces runs the order loop on the P pieces in one batch, and
    series._lam_sums sums its psi rows and chi ends at lambda = 1: as
    f = 1 and f' = 0, u1'(b) and u2'(b) are the chi ends' sums T1 and T2.
    Each sum adds its terms highest order first, Horner form: summed as
    a product, as series._grid_sum sums, the seed of q = -1 on 5001 nodes
    had a second-difference residual of 1.5e-8 against 7.6e-9.  Rows and
    sums are real, in float64.
    """
    top = 2 * _SEED_TERMS - 1
    pieces = _Pieces((1.0, r), nodes, starts, w, top)
    pieces.grow(top)
    return _lam_sums(pieces.psi, pieces.ends[1, ..., 1], 1.0, _SEED_TERMS)


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
    scan_phi at the K(M - 1) + 1 Chebyshev points scan_lams, K the
    number of pieces, Phi of the pieces' transfer matrices (_transfer) and
    of the boundary pairs scaled to a largest modulus of 1."""
    eigenvalues: np.ndarray
    residuals: np.ndarray
    n_terms: int
    scan_lams: np.ndarray
    scan_phi: np.ndarray

    def __len__(self):
        return len(self.eigenvalues)


# The search cuts [a, b] into at least _MIN_PIECES pieces, and into more
# where one of them would reach further than _REACH, the largest
# sqrt(max|lam|) * width of a piece (measured with the 4-point rule: on
# q = 0, Dirichlet ends, (-2000, -1), 5001 nodes, a reach of 11.2 kept
# 9.2 digits, 18 kept 6.5 and 22.4 kept 4.8).  The pieces take the
# 6-point rule (grid._integrate_rows6): under the 4-point rule each
# junction's end cells moved the roots' last digits with the junctions'
# place, so that over 20 eigs-pipeline seeds three pieces lost 0.28 to
# 0.57 digits on four of them against one series.  Under the 6-point
# rule three such 1001-node ops read 9.39, 9.81-9.83 and 10.21-10.40
# digits at every K from 1 to 8, so K is set for time: six pieces (M
# 10-12) took about what three took under the 4-point rule (M 13-15),
# fewer orders of a costlier rule.
_MIN_PIECES = 6
_REACH = 12.0


def _layout(grid, alam: float):
    """The search's pieces on grid for a window whose largest |lam| is
    alam: the node indices where they start, their width w in cells, and
    for each the node, counted from its start, where it is read, which is
    where the next one starts and, for the last, its last node.  There
    are _MIN_PIECES of them or as many as keep each one's reach within
    _REACH, and at most one per 5 cells, the fewest the 6-point rule
    takes (a grid of fewer is one piece, which takes the 4-point rule);
    w = ceil(cells / K), and where K pieces of w cells overrun the
    grid the last starts w cells before its end, inside the one before
    it, which is then read at that node."""
    cells = grid.n_nodes - 1
    want = max(_MIN_PIECES, math.ceil(math.sqrt(alam) * (grid.b - grid.a) / _REACH))
    w = -(-cells // max(1, min(want, cells // 5)))
    starts = np.minimum(np.arange(-(-cells // w)) * w, cells - w)
    return starts, w, np.append(np.diff(starts), w)


def _piece_truncation(pieces: _Pieces, lams, tol: float, N: int):
    """(M, capped) for the pieces at the window ends lams: the smallest M
    at which, on every piece and at each lam, terms M and M + 1 of u1's
    and u2's series are at most tol times B, the sum of the M kept terms'
    sup-norms, which bounds the series' sup-norm; the pieces are grown to
    order 2M + 3, two orders at a time.  Where no M with 2M + 3 <= N
    passes, the cap (N + 1) // 2, capped, with the pieces grown to 2M - 1.
    The term |lam|^k sup|psi_(2k+s)| / (2k+s)! is choose_truncation's; a
    power that overflows raises OrderError naming its lam (_lam_power)."""
    inv = _inv_factorials(N)
    made = []  # term k by lam, by series (u1, u2), by piece, each made once

    def terms(k):
        while len(made) <= k:
            j = len(made)
            made.append(np.array([[_lam_power(abs(lam), j, lam) * inv[2 * j + s]
                                   * np.array(pieces.norms[2 * j + s]) for s in (0, 1)]
                                  for lam in lams]))
        return made[k]

    B = 0.0
    for M in range(1, (N + 1) // 2 + 1):
        if 2 * M + 3 > N:
            break
        pieces.grow(2 * M + 3)
        B = B + terms(M - 1)
        if np.all(np.maximum(terms(M), terms(M + 1)) <= tol * _BOUND_SLACK * B):
            return M, False
    M = (N + 1) // 2
    pieces.grow(2 * M - 1)
    return M, True


def _transfer(problem: SlProblem, f, fp, ends, lam, M: int):
    """Phi at lam, a scalar or an array, from a chain of pieces: f and fp
    are f and f' at a and b, and ends[0], ends[1] psi and chi by order at
    each piece's read node, (orders, K).  With V_p = [[S1, S2], [T1, T2]]
    there (_lam_sums, M terms) and F = [[f, 0], [f', 1/f]], the u with
    (u, u')(a) = (-c2, c1) has (u, u')(b) = F(b) V_K ... V_1 F(a)^-1
    (u, u')(a): at its anchor a piece's (S, T) is the identity, so F at
    each junction cancels, and Phi = c3 u(b) + c4 u'(b), the boundary
    determinant of any pair of Wronskian 1."""
    S1, S2, T1, T2 = _lam_sums(ends[0], ends[1], lam, M)
    (c1, c2), (c3, c4) = problem.bc_left, problem.bc_right
    u, v = -c2 / f[0], c2 * fp[0] + c1 * f[0]  # F(a)^-1 (-c2, c1)
    for p in range(len(S1)):
        u, v = S1[p] * u + S2[p] * v, T1[p] * u + T2[p] * v
    return c3 * f[1] * u + c4 * (fp[1] * u + v / f[1])


# A polynomial of more than _MAX_POINTS samples is rooted on arcs of
# _ARC_DEGREES of its degree each, sampled at _ARC_POINTS Chebyshev points
# (_real_roots).  The colleague matrix costs O(points^3): with one BLAS
# thread 0.5, 2.8, 15, 53, 310 and 820 ms at 49, 85, 169, 301, 501 and 977
# points.  Whole searches on q = 0, 5001 nodes, one BLAS thread, took 26
# ms against 32 on arcs at 169 points, 37 against 41 at 211, 86 against
# 64 at 331 and 449 against 139 at 661, with the same roots to 1e-12 of
# the window.
# T_D (D = 200 to 976) on arcs of up to D / 13.6 of its degrees, 1.2
# times as wide as the arcs here, left tails of 1e-13 at 65 points.
_MAX_POINTS = 300
_ARC_POINTS = 65
_ARC_DEGREES = 12


def _real_roots(y, sample, bound: float) -> np.ndarray:
    """The real roots, in t, of the polynomial p of degree len(y) - 1 with
    the values y at chebpts1(len(y)) in [-1, 1]: the real eigenvalues of
    the colleague matrix of its Chebyshev coefficients (chebroots; a
    simple real root comes back with imaginary part exactly 0), less the
    trailing ones whose moduli sum to at most bound / 1000, those in
    [-1, 1] and those outside while |p| at the nearer end, to first
    order (|t| - 1) |p'(t)|, is at most bound.

    Above _MAX_POINTS values, the same on arcs: the sample points are
    evenly spaced in the angle arccos t, over which T_k(t) = cos(k theta)
    oscillates evenly, so the arcs span equal numbers of them, and meet
    at the one of three where |p| is largest, which no root sits on.
    Each arc is sampled at its own _ARC_POINTS Chebyshev points by
    sample(t), which gives p's values, and keeps the roots on its span,
    up to but not at the next arc's."""
    cheb = np.polynomial.chebyshev
    n = len(y)
    arcs = 1 if n <= _MAX_POINTS else math.ceil((n - 1) / _ARC_DEGREES)
    cuts = [i - 1 + int(np.argmax(np.abs(y[i - 1:i + 2]))) for i in n * np.arange(1, arcs) // arcs]
    spans = np.concatenate(([-1.0], cheb.chebpts1(n)[cuts], [1.0]))
    roots = []
    for j in range(arcs):
        mid, half = 0.5 * (spans[j] + spans[j + 1]), 0.5 * (spans[j + 1] - spans[j])
        v = y if arcs == 1 else sample(mid + half * cheb.chebpts1(_ARC_POINTS))
        # the interpolant's coefficients by the points' discrete
        # orthogonality, O(points^2) where chebfit's least squares is
        # O(points^3), less the tail whose moduli sum to at most a
        # thousandth of bound, which moves p nowhere by more than that
        c = cheb.chebvander(cheb.chebpts1(len(v)), len(v) - 1).T @ v * (2.0 / len(v))
        c[0] *= 0.5
        tail = np.cumsum(np.abs(c[::-1]))[::-1]
        c = c[:max(2, np.count_nonzero(tail > 1e-3 * bound))]
        r = cheb.chebroots(c)
        r = r.real[r.imag == 0]
        t = mid + half * r
        keep = (np.abs(t) - 1.0) * np.abs(cheb.chebval(r, cheb.chebder(c))) <= bound * half
        keep &= (t >= spans[j]) | (j == 0)
        keep &= (t < spans[j + 1]) | (j == arcs - 1)
        roots.append(t[keep])
    return np.concatenate(roots)


def find_eigenvalues(problem: SlProblem, family: RecursiveFamily,
                     lam_range, *, tol: float = 1e-10,
                     series_tol: float = SERIES_TOL) -> EigenResult:
    """Real-line eigenvalues as the real roots of one polynomial per window.

    [a, b] is cut into K >= 6 pieces of w cells, more where a piece would
    reach further than sqrt(max|lam|) * width = 12 (_layout), each
    anchored at its first node, and the family's seed and weights run on
    all of them in one batch of the order loop (recint._Pieces) under the
    6-point rule (grid._integrate_rows6), which
    keeps psi and chi at each piece's read node, the sup-norm of psi on
    each piece and two whole psi rows of the batch; the passed family is
    never grown, whatever its anchor.  A potential on another mesh is
    refused with GridConfigError before any order is built.  Each boundary
    pair is scaled to a largest modulus of 1, which moves no root.  The
    truncation M is the smallest that passes the bound test at both window
    ends on every piece (_piece_truncation), capped at (N + 1) // 2 of the
    family's N with one warning, so Phi, the chain of the pieces' transfer matrices
    (_transfer), is one polynomial of degree K(M - 1) in lambda over the
    whole window, and its values at the window's K(M - 1) + 1 Chebyshev
    points determine it.  Two array calls of _transfer do the search:

    - the samples, returned as scan_lams, scan_phi: the largest gives
      the phase rot and the scale max|Phi|, and the samples' discrete
      orthogonality the Chebyshev coefficients of Re(rot Phi) in the
      window's variable t in [-1, 1], less a tail that moves it by at
      most tol * scale / 1000.  The eigenvalues of their real colleague
      matrix (chebroots) are its roots; a simple real root comes back
      with imaginary part exactly 0 (_real_roots).  Past _MAX_POINTS samples, where that
      matrix's O(points^3) would outweigh the search, the same is done
      on arcs of the window, each sampled at its own _ARC_POINTS points,
      one more call of _transfer per arc (_real_roots);
    - the residuals |Phi(root)| / scale of the real roots kept.

    Samples that are all zero, or not all finite (the chained solutions
    overflow, as on pieces left unconverged at the cap), raise EigenError.
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

    g = family.grid
    starts, w, stops = _layout(g, max(abs(lo), abs(hi)))
    pieces = _Pieces(family._weights(), g.nodes, starts, w, family.N, stops, rows=2, norms=True,
                     integrate=_integrate_rows6)
    M, capped = _piece_truncation(pieces, (lo, hi), series_tol, family.N)
    n_points = len(starts) * (M - 1) + 1  # Phi's degree K(M - 1), plus one
    if capped:
        warnings.warn(f"truncation cap {M} reached at a window end, used at the "
                      f"window's {n_points} Chebyshev points without meeting "
                      f"series_tol={series_tol:g}", AccuracyWarning, stacklevel=2)
    ends = pieces.ends[..., 1]
    f = family.f.values[[0, -1]]
    fp = _end_slopes(family.f.values, g.h)
    cheb = np.polynomial.chebyshev  # reached here: importing spps.cli skips it
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = cheb.chebpts1(n_points)
    lams = mid + half * t
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        phis = _transfer(problem, f, fp, ends, lams, M)

    scale = float(np.max(np.abs(phis)))
    if scale == 0.0:
        raise EigenError(f"characteristic function vanished identically: "
                         f"zero at the window's {n_points} Chebyshev points")
    if not np.isfinite(scale):
        raise EigenError(f"characteristic function is not finite at the window's "
                         f"{n_points} Chebyshev points: the solutions chained over "
                         f"{len(starts)} pieces overflow")
    rot = np.exp(-1j * np.angle(phis[int(np.argmax(np.abs(phis)))]))

    def sample(t):  # Re(rot Phi) at the window's variable t
        with np.errstate(over="ignore", invalid="ignore"):
            return (rot * _transfer(problem, f, fp, ends, mid + half * t, M)).real

    roots = np.sort(mid + half * _real_roots((rot * phis).real, sample, tol * scale))
    residuals = np.abs(_transfer(problem, f, fp, ends, roots, M)) / scale
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
