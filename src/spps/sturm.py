"""Regular Sturm-Liouville eigenproblems via the series solutions.

The problem is u'' + qu = lambda*u on [a, b] with boundary conditions
c1 u(a) + c2 u'(a) = 0 and c3 u(b) + c4 u'(b) = 0.  A nonvanishing
complex seed is built from two real solutions of f'' + qf = 0 as
f = v1 + i v2; their Wronskian is constant and nonzero, so v1 and v2
never vanish together.  The solution u = beta1 u1 + beta2 u2 is pinned
to the left condition through the known initial values of u1, u2 at
x0 = a, and eigenvalues are the zeros of the characteristic function

    Phi(lambda) = c3 u(b) + c4 u'(b),

which at fixed truncation is a polynomial in lambda.  The betas are
normalized so that u(a) = -c2 and u'(a) = c1; for real q, lambda and
real boundary coefficients this makes u and Phi real regardless of the
complex seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import AccuracyWarning, GridConfigError, SeedError
from .grid import GridFunction
from .recint import MIN_SEED_ABS, RecursiveFamily
from .series import _right_end, choose_truncation


@dataclass
class SlProblem:
    """Potential plus boundary-condition coefficient pairs."""
    q: GridFunction
    bc_left: tuple
    bc_right: tuple

    def __post_init__(self):
        self.bc_left = (complex(self.bc_left[0]), complex(self.bc_left[1]))
        self.bc_right = (complex(self.bc_right[0]), complex(self.bc_right[1]))
        for label, (ca, cb) in (("left", self.bc_left), ("right", self.bc_right)):
            if ca * ca + cb * cb == 0:
                raise ValueError(
                    f"degenerate {label} boundary condition {ca, cb}")


def build_seed(q: GridFunction) -> GridFunction:
    """Nonvanishing complex solution of f'' + qf = 0.

    Integrates the homogeneous equation twice with a fixed-step 4th
    order Runge-Kutta scheme (initial values (1,0) and (0,1) at a) and
    returns v1 + i*v2.  Midpoint potential values come from a cubic
    spline, keeping the overall order.  Only real q is meaningful here:
    with complex q the two integrations no longer give a pinned-modulus
    combination, so callers must supply their own seed.
    """
    if not q.is_real:
        raise SeedError("complex q requires a user-supplied seed")
    g = q.grid
    h = g.h
    qv = q.values.real.astype(float)
    qm = CubicSpline(g.nodes, qv)(g.nodes[:-1] + h / 2)

    v1 = np.empty(g.n_nodes)
    d1 = np.empty(g.n_nodes)
    v2 = np.empty(g.n_nodes)
    d2 = np.empty(g.n_nodes)
    v1[0], d1[0] = 1.0, 0.0
    v2[0], d2[0] = 0.0, 1.0
    y = np.array([1.0, 0.0, 0.0, 1.0])  # (v1, v1', v2, v2') packed
    for i in range(g.n_nodes - 1):
        qa, qb, qc = qv[i], qm[i], qv[i + 1]
        u, v = y[0::2], y[1::2]
        k1u, k1v = v, -qa * u
        k2u = v + (h / 2) * k1v
        k2v = -qb * (u + (h / 2) * k1u)
        k3u = v + (h / 2) * k2v
        k3v = -qb * (u + (h / 2) * k2u)
        k4u = v + h * k3v
        k4v = -qc * (u + h * k3u)
        u = u + (h / 6) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
        y = np.empty(4)
        y[0::2], y[1::2] = u, v
        v1[i + 1], v2[i + 1] = u
        d1[i + 1], d2[i + 1] = v
    f = v1 + 1j * v2
    m = float(np.min(np.abs(f)))
    if m < MIN_SEED_ABS:
        i = int(np.argmin(np.abs(f)))
        raise SeedError(
            f"generated seed modulus {m:.3g} at x={g.nodes[i]}: numerical "
            f"drift; try a finer grid")
    return GridFunction(g, f)


def _left_betas(problem: SlProblem, family: RecursiveFamily):
    """Coefficients of u = beta1 u1 + beta2 u2 with u(a) = -c2, u'(a) = c1."""
    c1, c2 = problem.bc_left
    fa = family.f.values[0]
    fpa = family.f_prime.values[0]
    beta1 = -c2 / fa
    beta2 = c1 * fa + c2 * fpa
    if beta1 == 0 and beta2 == 0:
        raise RuntimeError("both solution coefficients vanished despite "
                           "non-degenerate boundary data")
    return beta1, beta2


def characteristic(problem: SlProblem, family: RecursiveFamily, lam: complex,
                   n_terms: int) -> complex:
    """Phi(lambda) = c3 u(b) + c4 u'(b) for the left-pinned solution."""
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
    return complex(c3 * ub + c4 * upb)


@dataclass
class EigenResult:
    """Eigenvalues sorted by real part with per-root diagnostics."""
    eigenvalues: np.ndarray
    residuals: np.ndarray
    truncations: np.ndarray
    scan_lams: np.ndarray
    scan_phi: np.ndarray

    def __len__(self):
        return len(self.eigenvalues)


def find_eigenvalues(problem: SlProblem, family: RecursiveFamily,
                     lam_range, scan_points: int = 256,
                     tol: float = 1e-10,
                     series_tol: float = 1e-12) -> EigenResult:
    """Real-line eigenvalue search by scan, bracket, and refine.

    Phi is sampled on scan_points equispaced lambdas, rotated by the
    phase of its largest sample so the working function is real, and
    each sign change is refined by bisection plus a short secant polish.
    Truncation is chosen per lambda by choose_truncation(series_tol);
    within a bracket the larger endpoint choice is kept fixed so the
    refined function is a fixed polynomial in lambda.  Roots whose
    characteristic residual stays above tol (relative to the scan peak)
    are dropped with a warning; roots closer than one scan cell trigger
    a densification warning.
    """
    lo, hi = float(lam_range[0]), float(lam_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite range with min < max, got {lam_range}")
    if not problem.q.is_real:
        raise ValueError("default search handles the real-q path only")
    scan_points = int(scan_points)
    if scan_points < 2:
        raise ValueError("scan needs at least 2 points")

    lams = np.linspace(lo, hi, scan_points)
    Ms = np.empty(scan_points, dtype=int)
    phis = np.empty(scan_points, dtype=complex)
    for i, lam in enumerate(lams):
        Ms[i] = choose_truncation(family, lam, series_tol).n_terms
        phis[i] = characteristic(problem, family, lam, Ms[i])

    scale = float(np.max(np.abs(phis)))
    if scale == 0.0:
        raise RuntimeError("characteristic function vanished identically "
                           "on the scan grid")
    theta = np.angle(phis[int(np.argmax(np.abs(phis)))])
    rot = np.exp(-1j * theta)

    def rho(lam: float, M: int) -> float:
        return (rot * characteristic(problem, family, lam, M)).real

    rhos = (rot * phis).real
    roots, residuals, truncs = [], [], []
    cell = lams[1] - lams[0]
    for i in range(scan_points - 1):
        ra, rb = rhos[i], rhos[i + 1]
        if ra == 0.0:
            ra = rho(lams[i] + 1e-3 * cell, Ms[i])
        if ra * rb >= 0.0:
            continue
        M = int(max(Ms[i], Ms[i + 1]))
        xa, xb, fa_, fb_ = lams[i], lams[i + 1], ra, rb
        for _ in range(200):
            if xb - xa <= 1e-15 * max(1.0, abs(xa), abs(xb)):
                break
            xm = 0.5 * (xa + xb)
            fm = rho(xm, M)
            if fm == 0.0:
                xa = xb = xm
                break
            if fa_ * fm < 0:
                xb, fb_ = xm, fm
            else:
                xa, fa_ = xm, fm
        root = 0.5 * (xa + xb)
        # secant polish from the bracket endpoints
        p0, p1 = xa, xb
        f0, f1 = fa_, fb_
        for _ in range(3):
            if f1 == f0:
                break
            p2 = p1 - f1 * (p1 - p0) / (f1 - f0)
            if not (lams[i] - cell <= p2 <= lams[i + 1] + cell):
                break
            p0, f0 = p1, f1
            p1, f1 = p2, rho(p2, M)
        if abs(rho(p1, M)) <= abs(rho(root, M)):
            root = p1
        res = abs(characteristic(problem, family, root, M)) / scale
        if res > tol:
            warnings.warn(
                f"bracket near lambda={root:.6g} refined only to relative "
                f"residual {res:.3g} > tol={tol:g}; dropped",
                AccuracyWarning, stacklevel=2)
            continue
        roots.append(root)
        residuals.append(res)
        truncs.append(M)

    roots_a = np.asarray(roots)
    order = np.argsort(roots_a)
    roots_a = roots_a[order]
    if len(roots_a) > 1 and np.any(np.diff(roots_a) < cell):
        warnings.warn(
            f"eigenvalues closer than one scan cell ({cell:.3g}); "
            f"increase scan_points for reliable separation",
            AccuracyWarning, stacklevel=2)
    return EigenResult(
        eigenvalues=roots_a,
        residuals=np.asarray(residuals)[order],
        truncations=np.asarray(truncs, dtype=int)[order],
        scan_lams=lams,
        scan_phi=phis,
    )
