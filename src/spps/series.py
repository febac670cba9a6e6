"""Power series in the spectral parameter built on a recursive family.

For u'' + qu = lambda*u with q = f''/f, the two solutions

    u1 = f * sum_k lambda^k psi_2k / (2k)!,
    u2 = f * sum_k lambda^k psi_(2k+1) / (2k+1)!

satisfy u1(x0) = f(x0), u1'(x0) = f'(x0), u2(x0) = 0, u2'(x0) = 1/f(x0),
so their Wronskian is identically 1.  Derivatives are evaluated from the
term-wise differentiated series

    u1' = (f'/f) u1 + (1/f) * sum_{k>=1} lambda^k chi_(2k-1) / (2k-1)!,
    u2' = (f'/f) u2 + (1/f) * sum_{k>=0} lambda^k chi_2k / (2k)!,

not by differentiating u1 and u2 on the grid.  The seed derivative f'
is still the 5-point stencil RecursiveFamily.f_prime, so u1', u2' and
the characteristic function built on them carry its error.

Every sum above runs in Horner form in lambda.  _horner sums family
rows into one accumulator: on the whole grid for u*_grid, and for
eval_u* only at the nodes of the interpolation stencils of the points
asked for (grid._stencil, 6 nodes a point), which then get the stencil's
weights; so eval_u*(x) has the bits of u*_grid(...).at(x) at a fraction
of the cost.  Each product is np.multiply(factor, sum), which numpy
never runs in place with its operands swapped, so those bits hold
whatever the array's size.  A family keeps the latest whole-grid sum of
each series with the bits of its lambda and its M, so at most four
arrays (RecursiveFamily._sums): choose_truncation, u*_grid and eval_u*
at one lambda share them, eval_u* by one gather at its stencil nodes,
and the next whole-grid sum of a series is made in place of its last.
_right_end is the same sums at the last node alone (_at_nodes with
at = -1), with lambda a scalar or an array, summed anew: u(b), u'(b)
and Phi are the grid solutions' last node to rounding.
choose_truncation sums u1's and u2's series once, on the whole grid, at
the first truncation its bound lets through.

Every reader builds the family only to the orders it reads:
choose_truncation to 2M + 3, the evaluators and _right_end (through
_check_truncation) to 2M - 1.  sturm.build_seed runs _horner and
_at_nodes on the order pairs of many seed pieces at once.
"""

from __future__ import annotations

import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AccuracyWarning, OrderError
from .grid import GridFunction, _interpolate, derivative
from .jets import _factorials
from .recint import RecursiveFamily


@lru_cache(maxsize=None)
def _inv_factorials(n: int) -> np.ndarray:
    return 1.0 / _factorials(n)


def _check_truncation(family: RecursiveFamily, n_terms: int) -> int:
    n_terms = int(n_terms)
    if n_terms < 1:
        raise OrderError(f"n_terms must be >= 1, got {n_terms}")
    if 2 * n_terms - 1 > family.N:
        raise OrderError(
            f"n_terms={n_terms} needs basis order {2 * n_terms - 1}, "
            f"family has N={family.N}")
    family._grow(2 * n_terms - 1)
    return n_terms


def _horner(pairs, row: int, s: int, lam: complex, M: int, at, out=None):
    """sum_{k<M} lam^k Y[2k+s] / (2k+s)! for Y = row `row` of the order
    pairs (0: psi, 1: chi), at the nodes `at` of the last axis (an index,
    an index array, or slice(None) for all), highest term first, in one
    complex accumulator updated in place: out if given, else a new one."""
    top = 2 * M - 2 + s
    inv = _inv_factorials(top)
    # complex even for real rows: lam may be complex
    if out is None:
        acc = (pairs[top][row][at] * inv[top]).astype(complex, copy=False)
    else:
        acc = np.multiply(pairs[top][row][at], inv[top], out=out)
    for k in range(M - 2, -1, -1):
        acc *= lam
        acc += pairs[2 * k + s][row][at] * inv[2 * k + s]
    return acc


def _sum(pairs, kept, row: int, s: int, lam, M: int, at):
    """_horner of the series (row, s) at the nodes `at`, through kept, the
    family's latest whole-grid sum of each series (None bypasses it).  A
    kept sum of lam's bits and this M is read, at the nodes `at` by one
    gather.  Otherwise a whole-grid sum is made in the buffer of the
    series' last one and kept, and a sum at other nodes is kept nowhere."""
    if kept is None:
        return _horner(pairs, row, s, lam, M, at)
    key = np.complex128(lam).tobytes(), M
    last = kept.get((row, s))
    if last is not None and last[0] == key:
        return last[1][at]
    if not isinstance(at, slice):
        return _horner(pairs, row, s, lam, M, at)
    kept[row, s] = None  # nothing stale is left if the sum is cut short
    S = _horner(pairs, row, s, lam, M, at, out=None if last is None else last[1])
    kept[row, s] = key, S
    return S


def _sum_and_prime(pairs, kept, u: int, f, fp, lam, M: int, at):
    """The series S of u1 or u2 (u = 1, 2) at the nodes `at`, and u' =
    f' S + T/f from its term-wise derivative T, given f and f' there.

    Each product is the ufunc np.multiply(factor, sum).  The * operator
    runs as sum *= factor, operands swapped, where numpy may reuse a
    temporary (from 256 KiB on), and a complex product's bits depend on
    its operands' order, so they would depend on the array's size and on
    whether the sum was kept."""
    if u == 1:
        S = _sum(pairs, kept, 0, 0, lam, M, at)
        # T = sum_{k>=1} lam^k chi_(2k-1) / (2k-1)!, empty for M = 1
        T = np.multiply(lam, _sum(pairs, kept, 1, 1, lam, M - 1, at)) if M > 1 else 0.0
    else:
        S, T = _sum(pairs, kept, 0, 1, lam, M, at), _sum(pairs, kept, 1, 0, lam, M, at)
    return S, np.multiply(fp, S) + T / f


# u1, u1', u2, u2' at the nodes `at` for a checked truncation M
def _u1(fam, lam, M, at):
    S = _sum(fam._pairs, fam._sums, 0, 0, lam, M, at)
    return np.multiply(fam.f.values[at], S)


def _u2(fam, lam, M, at):
    S = _sum(fam._pairs, fam._sums, 0, 1, lam, M, at)
    return np.multiply(fam.f.values[at], S)


def _u1_prime(fam, lam, M, at):
    return _sum_and_prime(fam._pairs, fam._sums, 1, fam.f.values[at],
                          fam.f_prime.values[at], lam, M, at)[1]


def _u2_prime(fam, lam, M, at):
    return _sum_and_prime(fam._pairs, fam._sums, 2, fam.f.values[at],
                          fam.f_prime.values[at], lam, M, at)[1]


def _on_grid(u, family, lam, n_terms) -> GridFunction:
    M = _check_truncation(family, n_terms)
    return GridFunction(family.grid, u(family, lam, M, slice(None)))


def _off_node(u, family, lam, x, n_terms):
    """GridFunction.at of the grid solution u, with u summed only at the
    stencil nodes: the same weights on the same node values."""
    M = _check_truncation(family, n_terms)
    return _interpolate(family.grid, x, lambda idx: u(family, lam, M, idx))


def u1_grid(family: RecursiveFamily, lam: complex, n_terms: int) -> GridFunction:
    """u1 on the whole grid."""
    return _on_grid(_u1, family, lam, n_terms)


def u2_grid(family: RecursiveFamily, lam: complex, n_terms: int) -> GridFunction:
    """u2 on the whole grid."""
    return _on_grid(_u2, family, lam, n_terms)


def u1_prime_grid(family: RecursiveFamily, lam: complex, n_terms: int) -> GridFunction:
    """u1' on the whole grid (term-wise differentiated series)."""
    return _on_grid(_u1_prime, family, lam, n_terms)


def u2_prime_grid(family: RecursiveFamily, lam: complex, n_terms: int) -> GridFunction:
    """u2' on the whole grid (term-wise differentiated series)."""
    return _on_grid(_u2_prime, family, lam, n_terms)


def _at_nodes(pairs, f, fp, lam, M: int, at):
    """u1, u1', u2, u2' at the nodes `at` of the order pairs, given the
    seed's f and f' there: each of the four series summed once."""
    (S1, u1p), (S2, u2p) = (_sum_and_prime(pairs, None, u, f, fp, lam, M, at)
                            for u in (1, 2))
    return np.multiply(f, S1), u1p, np.multiply(f, S2), u2p


def _right_end(family: RecursiveFamily, lam, n_terms: int):
    """u1, u1', u2, u2' at b, lam a scalar or an array: the last node of
    u1_grid .. u2_prime_grid."""
    M = _check_truncation(family, n_terms)
    return _at_nodes(family._pairs, family.f.values[-1], family.f_prime.values[-1],
                     lam, M, -1)


def eval_u1(family, lam, x, n_terms):
    """u1(x); x may be a scalar or an array inside [a, b]."""
    return _off_node(_u1, family, lam, x, n_terms)


def eval_u2(family, lam, x, n_terms):
    """u2(x); x may be a scalar or an array inside [a, b]."""
    return _off_node(_u2, family, lam, x, n_terms)


def eval_u1_prime(family, lam, x, n_terms):
    """u1'(x)."""
    return _off_node(_u1_prime, family, lam, x, n_terms)


def eval_u2_prime(family, lam, x, n_terms):
    """u2'(x)."""
    return _off_node(_u2_prime, family, lam, x, n_terms)


def residual(lam: complex, u_values: GridFunction, q: GridFunction) -> float:
    """Normalized defect of u'' + q u = lambda u.

    Returns max over interior nodes of |u'' + q u - lambda u| divided by
    (1 + |lambda| * max|u|).  The second grid derivative uses one-sided
    stencils near the ends, so the two outermost nodes on each side are
    excluded.
    """
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
    Raises OrderError for tol <= 0 and for a non-finite lam.
    """
    if not tol > 0:
        raise OrderError(f"tol must be positive, got {tol}")
    if not np.isfinite(lam):
        raise OrderError(f"lam must be finite, got {lam}")
    M_max = (family.N + 1) // 2
    inv = _inv_factorials(family.N)
    alam = abs(lam)
    norms = family._sup_norms  # psi_k's, extended in place as orders are built
    pairs = family._grow(1)

    def term1(k):  # sup-norm of the k-th term of the u1 series
        return alam ** k * norms[2 * k] * inv[2 * k]

    def term2(k):
        return alam ** k * norms[2 * k + 1] * inv[2 * k + 1]

    B1 = B2 = 0.0
    s1 = s2 = None
    for M in range(1, M_max + 1):
        B1 += term1(M - 1)
        B2 += term2(M - 1)
        # the two dropped terms must exist inside the family's cap
        if 2 * (M + 1) + 1 > family.N:
            break
        family._grow(2 * M + 3)
        dropped1, dropped2 = (term1(M), term1(M + 1)), (term2(M), term2(M + 1))
        if (any(t > tol * B1 * _BOUND_SLACK for t in dropped1)
                or any(t > tol * B2 * _BOUND_SLACK for t in dropped2)):
            continue
        if s1 is None:
            s1, s2 = (float(np.max(np.abs(_sum(pairs, family._sums, 0, s, lam, M,
                                                slice(None))))) for s in (0, 1))
        if all(t <= tol * s1 for t in dropped1) and all(t <= tol * s2 for t in dropped2):
            return TruncationChoice(M, False)
    warnings.warn(
        f"truncation cap {M_max} reached without meeting tol={tol:g}",
        AccuracyWarning, stacklevel=2)
    return TruncationChoice(M_max, True)
