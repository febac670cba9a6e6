"""Power series in the spectral parameter built on a recursive family.

For u'' + qu = lambda*u with q = f''/f, the two solutions

    u1 = f * sum_k lambda^k psi_2k / (2k)!,
    u2 = f * sum_k lambda^k psi_(2k+1) / (2k+1)!

satisfy u1(x0) = f(x0), u1'(x0) = f'(x0), u2(x0) = 0, u2'(x0) = 1/f(x0),
so their Wronskian is identically 1.  Write u = f S.  Derivatives are
evaluated from the term-wise differentiated series, u' = f' S + T/f with

    T1 = sum_{k>=1} lambda^k chi_(2k-1) / (2k-1)!,
    T2 = sum_{k>=0} lambda^k chi_2k / (2k)!,

not by differentiating u1 and u2 on the grid.  As chi_n = n * integral
of psi_(n-1) phi and the quadrature rule is linear, T1 = lambda *
integral of phi S1^(M-1) and T2 = 1 + lambda * integral of phi S2^(M-1),
S^(M-1) the value series to M - 1 terms: the derivative form of
Kravchenko and Porter's SPPS.  On the grid T is that one integral
(_prime_sum), so no series reader builds a whole chi row; at b it is
the sum of the chi ends the family keeps.  The seed derivative f' is
still the 5-point stencil RecursiveFamily.f_prime, so u1', u2' and the
characteristic function built on them carry its error.

A series is summed one of two ways, by what it sums over.  Many nodes
at one lambda -- S on the whole grid -- are one matrix product,
_grid_sum: the coefficients lam^k / (2k+s)! times the family's strided
psi rows psi[s:top+1:2], psi_0 = 1 among them, read in place, in one
BLAS call that passes over the rows once, where Horner form makes three
whole-grid passes a term.  One node at many lambda -- the eigen search's
_right_end at an array of lambda -- is a polynomial in lambda, and
numpy's polyval evaluates it in Horner form on arrays of lambda's size,
where a product gains nothing.  Both sum in the rows' and lambda's
type: float64 for the rows of a real seed at a lambda with no imaginary
part, complex otherwise, and neither upcasts the rows.  The product's
bits depend on how the BLAS library splits it: with OpenBLAS, measured,
a sum at 1 and at 2 threads differs at a few nodes by rounding, so a
result repeats bit for bit at a fixed BLAS thread count.

The series are read one way: a family keeps the latest whole-grid S and
T of u1 and u2 (RecursiveFamily._sums, at most four arrays), each
tagged with the bits of its lambda and M by _kept, which makes a
missing one in the buffer of its last.  u*_grid and choose_truncation
read S and T whole, and eval_u* gathers them at the nodes of the
interpolation stencils of the points asked for (grid._stencil, 6 nodes
a point), which then get the stencil's weights; so eval_u*(x) has the
bits of u*_grid(...).at(x).  Each product is np.multiply(factor, sum),
which numpy never runs in place with its operands swapped, so those
bits hold whatever the array's size.  At one lambda every reader
together makes two whole-grid sums (four if choose_truncation summed at
another M) and two integrals; a first eval_u1 at a new lambda makes S
on the whole grid, as u1_grid does.  _right_end is the four sums at the
last node alone, with lambda a scalar or an array, one polyval of the
psi rows' and the chi ends' values at b: u(b), u'(b) and Phi are the
grid solutions' last node to rounding, and the eigen search builds no
whole chi row and keeps no sum.  numpy.polynomial is imported at the
first _right_end, so importing spps.cli, or building a seed, loads none
of it.  choose_truncation sums u1's and u2's series once, on the whole
grid, at the first truncation its bound lets through.

Every reader builds the family only to the orders it reads:
choose_truncation to 2M + 3, the evaluators and _right_end (through
_check_truncation) to 2M - 1.  Each refuses with OrderError a
non-finite lambda and one whose powers overflow: the evaluators and
_right_end |lam|^(M-1), the highest their sums read, and
choose_truncation each |lam|^k its rule reads (_lam_power).
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AccuracyWarning, GridConfigError, OrderError, _as_order
from .grid import GridFunction, _integrate_rows, _interpolate, derivative
from .jets import _factorials
from .recint import RecursiveFamily


@lru_cache(maxsize=None)
def _inv_factorials(n: int) -> np.ndarray:
    return 1.0 / _factorials(n)


def _check_lam(lam) -> None:
    if not np.all(np.isfinite(lam)):
        raise OrderError(f"lam must be finite, got {lam}")


def _lam_power(alam: float, k: int, lam) -> float:
    """alam ** k for alam = |lam| (its largest over an array lam), or
    OrderError naming lam where that overflows: float ** int raises
    OverflowError there."""
    try:
        return alam ** k
    except OverflowError:
        raise OrderError(f"lam={lam} is too large: |lam|^{k} overflows") from None


def _check_truncation(family: RecursiveFamily, lam, n_terms: int) -> int:
    """n_terms, checked against the family's cap, with the family built to
    the orders it reads; refuses a non-finite lam and one whose power
    lam^(n_terms - 1), the series' highest, overflows."""
    _check_lam(lam)
    n_terms = _as_order(n_terms, "n_terms")
    if n_terms < 1:
        raise OrderError(f"n_terms must be >= 1, got {n_terms}")
    if 2 * n_terms - 1 > family.N:
        raise OrderError(
            f"n_terms={n_terms} needs basis order {2 * n_terms - 1}, "
            f"family has N={family.N}")
    _lam_power(float(np.max(np.abs(lam), initial=0.0)), n_terms - 1, lam)
    family._grow(2 * n_terms - 1)
    return n_terms


def _real_if_real(lam):
    """lam, or its real part if it has no imaginary part (lam a scalar or
    an array), so that sums of real rows at a real lam stay real."""
    return np.real(lam) if np.iscomplexobj(lam) and not np.any(np.imag(lam)) else lam


def _grid_sum(family: RecursiveFamily, s: int, lam, M: int, out=None):
    """sum_{k<M} c_k psi_(2k+s) on the whole grid, c_k = lam^k / (2k+s)!,
    as one matrix product of the coefficients with the M rows
    family._psi[s:top+1:2], top = 2M - 2 + s, strided rows of the
    family's block read in place: one pass over the rows it sums, where
    Horner form makes three whole-grid passes a term.  The sum has the
    type of the family's rows and lam, lam real if it has no imaginary
    part, and is written into out if that has it, else into a new array.  The
    product stays in the rows' type: real rows at a complex lam are one
    real product with the (M, 2) pair (Re c, Im c) into the sum's float
    view, and complex rows at a real lam one real product of c with the
    rows' float view.  The BLAS routine orders each node's M terms its
    own way, so the result is the Horner sum's to rounding, not bit for
    bit."""
    top = 2 * M - 2 + s
    lam = _real_if_real(np.complex128(lam))  # an int lam powers in floats
    rows = family._psi[s:top + 1:2]
    dtype = np.result_type(rows, lam)
    S = out if out is not None and out.dtype == dtype else np.empty(family.grid.n_nodes, dtype)
    # power, not a product of factors: each c_k rounds twice
    c = np.power(lam, np.arange(M)) * _inv_factorials(top)[s::2]
    if rows.dtype == c.dtype:
        np.matmul(c, rows, out=S)
    elif c.dtype.kind == "c":  # real rows at a complex lam
        np.matmul(rows.T, np.stack((c.real, c.imag), axis=1),
                  out=S.view(np.float64).reshape(-1, 2))
    else:  # complex rows at a real lam
        np.matmul(c, rows.view(np.float64), out=S.view(np.float64))
    return S


def _kept(family: RecursiveFamily, key, lam, M: int, make):
    """The family's whole-grid sum family._sums[key], tagged with the bits
    of lam and M: the kept one if it has this tag, else make(buffer), the
    slot's last array handed on for reuse, kept in its place."""
    kept, tag = family._sums, (np.complex128(lam).tobytes(), M)
    last = kept.get(key)
    if last is not None and last[0] == tag:
        return last[1]
    kept[key] = None  # nothing stale is left if the sum is cut short
    made = make(None if last is None else last[1])
    kept[key] = tag, made
    return made


def _sum(family: RecursiveFamily, s: int, lam, M: int, at):
    """The psi series S of u1 (s = 0) or u2 (s = 1) at the nodes `at`,
    gathered from its whole-grid sum kept as family._sums[0, s];
    _grid_sum reuses the buffer only if it has the sum's type."""
    return _kept(family, (0, s), lam, M,
                 lambda out: _grid_sum(family, s, lam, M, out))[at]


def _prime_sum(family: RecursiveFamily, s: int, lam, M: int, at):
    """T of u' = f' S + T/f for u1 (s = 0) or u2 (s = 1) at the nodes `at`:
    lam * integral of phi S^(M-1), plus 1 for u2, gathered from its
    whole-grid sum kept as family._sums[1, s].  S^(M-1), the series to
    M - 1 terms, is the whole-grid S that _sum keeps less its top term
    lam^(M-1) psi_top / top!, so no second sum is made.  T has
    S's type, and reuses the buffer only if that has it too."""
    def make(out):
        S = _sum(family, s, lam, M, slice(None))
        lam_r = _real_if_real(lam)
        top = 2 * M - 2 + s
        # complex ** int, not float ** int: its bits, and nan where the
        # other raises OverflowError
        power = complex(lam_r) ** (M - 1)
        if not np.iscomplexobj(lam_r):
            power = power.real
        y = np.multiply(power * _inv_factorials(top)[top], family._psi[top])
        np.subtract(S, y, out=y)
        np.multiply(family.phi.values, y, out=y)
        T = out if out is not None and out.dtype == y.dtype else np.empty_like(y)
        _integrate_rows(y, family.grid.h, T, family.grid.x0_index)
        np.multiply(lam_r, T, out=T)
        if s:
            T += 1.0
        return T
    return _kept(family, (1, s), lam, M, make)[at]


def _prime(fp, S, T, f):
    """u' = f' S + T/f.  Each product is the ufunc np.multiply(factor,
    sum): the * operator runs as sum *= factor, operands swapped, where
    numpy may reuse a temporary (from 256 KiB on), and a complex
    product's bits depend on its operands' order, so they would depend
    on the array's size."""
    return np.multiply(fp, S) + T / f


# u (u1 for s = 0, u2 for s = 1) and u' at the nodes `at` for a checked
# truncation M
def _u(fam, s, lam, M, at):
    return np.multiply(fam.f.values[at], _sum(fam, s, lam, M, at))


def _u_prime(fam, s, lam, M, at):
    T = _prime_sum(fam, s, lam, M, at)  # keeps S on the whole grid too
    return _prime(fam.f_prime.values[at], _sum(fam, s, lam, M, at), T, fam.f.values[at])


def _on_grid(u, s, family, lam, n_terms) -> GridFunction:
    M = _check_truncation(family, lam, n_terms)
    return GridFunction(family.grid, u(family, s, lam, M, slice(None)))


def _off_node(u, s, family, lam, x, n_terms):
    """GridFunction.at of the grid solution u, gathered at the stencil
    nodes alone: the same weights on the same node values."""
    M = _check_truncation(family, lam, n_terms)
    return _interpolate(family.grid, x, lambda idx: u(family, s, lam, M, idx))


def u1_grid(family: RecursiveFamily, lam: complex, n_terms: int) -> GridFunction:
    """u1 on the whole grid."""
    return _on_grid(_u, 0, family, lam, n_terms)


def u2_grid(family: RecursiveFamily, lam: complex, n_terms: int) -> GridFunction:
    """u2 on the whole grid."""
    return _on_grid(_u, 1, family, lam, n_terms)


def u1_prime_grid(family: RecursiveFamily, lam: complex, n_terms: int) -> GridFunction:
    """u1' on the whole grid (term-wise differentiated series)."""
    return _on_grid(_u_prime, 0, family, lam, n_terms)


def u2_prime_grid(family: RecursiveFamily, lam: complex, n_terms: int) -> GridFunction:
    """u2' on the whole grid (term-wise differentiated series)."""
    return _on_grid(_u_prime, 1, family, lam, n_terms)


def _right_end(family: RecursiveFamily, lam, n_terms: int):
    """u1, u1', u2, u2' at b in lam's shape, lam a scalar or an array: the
    last node of u1_grid .. u2_prime_grid.  The series S1, S2, T1 and T2
    are four polynomials in lam, evaluated together in Horner form by
    polyval from one (M, 4) block of the psi rows and chi ends the family
    keeps: row k holds psi_2k, psi_(2k+1), chi_(2k-1) and chi_2k at b
    over their factorials, chi_(-1) = 0, so T1 = sum_{k>=1} lam^k
    chi_(2k-1) / (2k-1)! and T2 = sum_k lam^k chi_2k / (2k)!."""
    M = _check_truncation(family, lam, n_terms)
    lam = _real_if_real(lam)
    inv = _inv_factorials(2 * M - 1)
    psi = family._psi[:2 * M, -1] * inv
    chi = np.append(0.0, family._chi_ends[:2 * M - 1, 0] * inv[:-1])
    coef = np.hstack((psi.reshape(M, 2), chi.reshape(M, 2)))
    # numpy.polynomial loads here: importing spps.cli, or a seed, skips it
    S1, S2, T1, T2 = np.polynomial.polynomial.polyval(lam, coef)
    f, fp = family.f.values[-1], family.f_prime.values[-1]
    return (np.multiply(f, S1), _prime(fp, S1, T1, f),
            np.multiply(f, S2), _prime(fp, S2, T2, f))


def eval_u1(family, lam, x, n_terms):
    """u1(x); x may be a scalar or an array inside [a, b]."""
    return _off_node(_u, 0, family, lam, x, n_terms)


def eval_u2(family, lam, x, n_terms):
    """u2(x); x may be a scalar or an array inside [a, b]."""
    return _off_node(_u, 1, family, lam, x, n_terms)


def eval_u1_prime(family, lam, x, n_terms):
    """u1'(x)."""
    return _off_node(_u_prime, 0, family, lam, x, n_terms)


def eval_u2_prime(family, lam, x, n_terms):
    """u2'(x)."""
    return _off_node(_u_prime, 1, family, lam, x, n_terms)


def residual(lam: complex, u_values: GridFunction, q: GridFunction) -> float:
    """Normalized defect of u'' + q u = lambda u.

    Returns max over interior nodes of |u'' + q u - lambda u| divided by
    (1 + |lambda| * max|u|).  The second grid derivative uses one-sided
    stencils near the ends, so the two outermost nodes on each side are
    excluded.  Raises GridConfigError if q lives on another grid.
    """
    if q.grid != u_values.grid:
        raise GridConfigError("potential and solution live on different grids")
    upp = derivative(derivative(u_values))
    r = upp.values + (q.values - lam) * u_values.values
    denom = 1.0 + abs(lam) * u_values.sup_norm
    return float(np.max(np.abs(r[2:-2])) / denom)


class TruncationChoice(NamedTuple):
    n_terms: int
    capped: bool


# Relative slack on the bound sup|S| <= B below: it covers the rounding of
# S, of |lam|^k against lam^k and of B itself, about 10 M eps.
_BOUND_SLACK = 1.0 + 1e-9
# Default tol of choose_truncation, and so series_tol of the eigen search.
SERIES_TOL = 1e-12


def choose_truncation(family: RecursiveFamily, lam: complex,
                      tol: float = SERIES_TOL) -> TruncationChoice:
    """Smallest truncation whose first two omitted terms are negligible.

    Picks the smallest M such that, for both series, the sup-norms of
    terms M and M+1 (the first two beyond the truncation) are below
    tol * s, s the sup-norm of a partial sum (below).  Capped at the
    family order; hitting the cap sets the flag and issues an
    AccuracyWarning.  The family is built only to order 2M + 3, the last
    one the rule reads.

    The sum B of the kept terms' sup-norms bounds sup|S|, so a dropped
    term above tol * B fails the rule whatever S is.  s is taken once, at
    the first M that passes this bound, by summing both series, sums the
    family keeps for the evaluators at this lam (_sum); later M reuse it,
    as later partial sums differ from it by no more than the terms past
    that M, which the bound holds under about 2 tol B.
    Raises OrderError for tol <= 0, for a non-finite lam and for a lam so
    large that a power |lam|^k the rule reads overflows.
    """
    if not tol > 0:
        raise OrderError(f"tol must be positive, got {tol}")
    _check_lam(lam)
    M_max = (family.N + 1) // 2
    inv = _inv_factorials(family.N)
    alam = float(abs(lam))
    norms = family._sup_norms  # psi_k's, extended in place as orders are built
    family._grow(1)

    def term(k, s):  # sup-norm of the k-th term of u1's (s = 0) or u2's series
        return _lam_power(alam, k, lam) * norms[2 * k + s] * inv[2 * k + s]

    B1 = B2 = 0.0
    s1 = s2 = None
    for M in range(1, M_max + 1):
        B1 += term(M - 1, 0)
        B2 += term(M - 1, 1)
        # the two dropped terms must exist inside the family's cap
        if 2 * (M + 1) + 1 > family.N:
            break
        family._grow(2 * M + 3)
        dropped1, dropped2 = ((term(M, s), term(M + 1, s)) for s in (0, 1))
        if (any(t > tol * B1 * _BOUND_SLACK for t in dropped1)
                or any(t > tol * B2 * _BOUND_SLACK for t in dropped2)):
            continue
        if s1 is None:
            s1, s2 = (float(np.max(np.abs(_sum(family, s, lam, M, slice(None)))))
                      for s in (0, 1))
        if all(t <= tol * s1 for t in dropped1) and all(t <= tol * s2 for t in dropped2):
            return TruncationChoice(M, False)
    warnings.warn(
        f"truncation cap {M_max} reached without meeting tol={tol:g}",
        AccuracyWarning, stacklevel=2)
    return TruncationChoice(M_max, True)
