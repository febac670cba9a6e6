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
(_prime_sum), so no series reader builds a whole chi row; at a and b
it is the sum of the chi ends the family keeps.  The seed derivative f' is
still the 5-point stencil RecursiveFamily.f_prime, so u1', u2' and the
characteristic function built on them carry its error; at a and b it is
the stencil on the first and the last five nodes alone (_f_prime_ends),
with the same bits.

A series is summed one of two ways, by what it sums over.  Many nodes
at one lambda -- S on the whole grid -- are one matrix product,
_grid_sum: the coefficients lam^k / (2k+s)! times the family's strided
psi rows psi[s:top+1:2], psi_0 = 1 among them, read in place, in one
BLAS call that passes over the rows once, where Horner form makes three
whole-grid passes a term.  Values kept per order at chosen nodes -- the
ends at a and b at an array of lambda (the eigen search), or the whole
rows of side-by-side pieces at lambda = 1 (build_seed) -- are summed by
one kernel, _lam_sums: each of S1, S2, T1 and T2 is a polynomial in
lambda, summed in Horner form with the steps of numpy's polyval, on
arrays of the values' and lambda's shape, where a product gains nothing;
the psi and chi values of one shape are one block, summed in one pass.
Both sum in the rows' and lambda's type: float64 for the rows of a real
seed at a lambda with no imaginary part, complex otherwise, and neither
upcasts the rows.  Real rows at a complex lambda are one real product of
the (2, M) block (Re c; Im c) with the rows into a (2, n_nodes) pair,
the two parts then written into the complex sum: a wide product, as the
other two cases' matrix-vector
calls are, where the tall (n_nodes, M) by (M, 2) one made OpenBLAS back
a packing buffer per thread, about 3 MB each at 2 threads and 20001
nodes, that stayed in the process and that no result read.  The
product's bits depend on how the BLAS library splits it: with OpenBLAS,
measured, a sum at 1 and at 2 threads differs at a few nodes by
rounding, so a result repeats bit for bit at a fixed BLAS thread count.

The series are read one way: the process keeps the whole-grid S and T
of u1 and u2 of one family at one lambda and M, the latest read, in one
slot of this module (_last, at most four arrays in all), tagged with
that family, by a weak reference only, and with the bits of lambda and
M.  _kept makes a missing sum as a new array once; a read of another
family, lambda or M first drops the whole slot, and the slot is cleared
once its family is freed, so that it keeps no family alive.  Threads
rebind the slot whole, with no lock: a reader whose slot another thread
replaced keeps the sums it made for its own call only.  A caller who
reads two families in turn at one lambda therefore makes each family's
sums again at each read, one product and one integral a series.
u*_grid and choose_truncation read S and T whole, and eval_u*
gathers them at the nodes of the interpolation stencils of the points
asked for (grid._stencil, 6 nodes a point), which then get the
stencil's weights; so eval_u*(x) has the bits of u*_grid(...).at(x).  Each product is np.multiply(factor, sum),
which numpy never runs in place with its operands swapped, so those
bits hold whatever the array's size.  At one lambda every reader
together makes two whole-grid sums (four if choose_truncation summed at
another M) and two integrals; a first eval_u1 at a new lambda makes S
on the whole grid, as u1_grid does.  _right_end is the four sums at the
last node and the four at the first alone, with lambda a scalar or an
array, _lam_sums of the psi ends and the chi ends the family keeps, at
b and at a: u and u' there, and so Phi, are the grid solutions' end
nodes to rounding, and the eigen search reads no whole row there and
keeps no sum.  choose_truncation sums u1's and u2's series once, on the
whole grid, at the first truncation its bound lets through; on the eigen search's
streamed family, which keeps a ring of its last psi rows and makes no sum, it
adds each term to a running sum per series and lambda as the orders are
built, so that partial sum's sup-norm is the same, to rounding.

Every reader builds the family only to the orders it reads:
choose_truncation to 2M + 3, the evaluators and _right_end (through
_check_truncation) to 2M - 1.  Each refuses with OrderError a
non-finite lambda and one whose powers overflow: the evaluators and
_right_end |lam|^(M-1), the highest their sums read, and
choose_truncation each |lam|^k its rule reads (_lam_power).  The eight
evaluators take one lambda, a one-value array as its value, and refuse
an array of any other size (_one_lam).
"""

from __future__ import annotations

import warnings
import weakref
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AccuracyWarning, GridConfigError, OrderError, _as_order, _read_only
from .grid import GridFunction, _integrate_rows, _interpolate, derivative
from .jets import _factorials
from .recint import RecursiveFamily


@lru_cache(maxsize=None)
def _inv_factorials(n: int) -> np.ndarray:
    """1/0!, 1/1!, ..., 1/n!; shared, read only."""
    return _read_only(1.0 / _factorials(n))


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


def _grid_sum(family: RecursiveFamily, s: int, lam, M: int):
    """sum_{k<M} c_k psi_(2k+s) on the whole grid, c_k = lam^k / (2k+s)!,
    as one matrix product of the coefficients with the M rows
    family._psi[s:top+1:2], top = 2M - 2 + s, strided rows of the
    family's block read in place: one pass over the rows it sums, where
    Horner form makes three whole-grid passes a term.  The sum is a new
    array in the type of the family's rows and lam, lam real if it has no
    imaginary part.  The product stays in the rows' type: real rows at a
    complex lam are one real product of the (2, M) block (Re c; Im c)
    with the rows, a (2, n_nodes) pair whose two parts are then written
    into the sum (the wide layout, which backs no BLAS packing buffers,
    see the module docstring), and complex rows at a real lam one real
    product of c with the rows' float view.  The BLAS routine orders each
    node's M terms its own way, so the result is the Horner sum's to
    rounding, not bit for bit."""
    top = 2 * M - 2 + s
    lam = _real_if_real(np.complex128(lam))  # an int lam powers in floats
    rows = family._psi[s:top + 1:2]
    S = np.empty(family.grid.n_nodes, np.result_type(rows, lam))
    # power, not a product of factors: each c_k rounds twice
    c = np.power(lam, np.arange(M)) * _inv_factorials(top)[s::2]
    if rows.dtype == c.dtype:
        np.matmul(c, rows, out=S)
    elif c.dtype.kind == "c":  # real rows at a complex lam
        pair = np.stack((c.real, c.imag)) @ rows
        S.real, S.imag = pair
    else:  # complex rows at a real lam
        np.matmul(c, rows.view(np.float64), out=S.view(np.float64))
    return S


# The whole-grid sums the process keeps, those of the family read last:
# None, or ((a weak reference to the family, lam's bits, M), {(0 for S or
# 1 for T, s): array}).  Rebinding it is atomic, so threads need no lock;
# the reference clears it once the family is freed (_forget).
_last = None


def _forget(ref) -> None:
    """Clear the slot once the family it holds is freed."""
    global _last
    last = _last
    if last is not None and last[0][0] is ref:
        _last = None


def _kept(family: RecursiveFamily, key, lam, M: int, make):
    """The family's whole-grid sum `key` at lam and M: the one the slot
    _last holds if it holds this family at the bits of lam and M, else
    make()'s new array, kept there.  The process holds the sums of one
    family at one lam and M, the latest read: a read of another family,
    lam or M first drops every sum the slot holds, so nothing stale is
    left if make is cut short and the old and the new are never held
    together, and then puts a fresh slot in its place.  A sum made while
    another thread replaced the slot is returned but not kept."""
    global _last
    tag = (np.complex128(lam).tobytes(), M)
    last = _last
    if last is None or last[0][0]() is not family or last[0][1:] != tag:
        last = _last = ((weakref.ref(family, _forget),) + tag, {})
    sums = last[1]
    S = sums.get(key)
    if S is None:
        S = sums[key] = make()
    return S


def _sum(family: RecursiveFamily, s: int, lam, M: int, at):
    """The psi series S of u1 (s = 0) or u2 (s = 1) at the nodes `at`,
    gathered from its whole-grid sum (_grid_sum), kept under the key
    (0, s)."""
    return _kept(family, (0, s), lam, M, lambda: _grid_sum(family, s, lam, M))[at]


def _prime_sum(family: RecursiveFamily, s: int, lam, M: int, at):
    """T of u' = f' S + T/f for u1 (s = 0) or u2 (s = 1) at the nodes `at`:
    lam * integral of phi S^(M-1), plus 1 for u2, gathered from its
    whole-grid sum, kept under the key (1, s).  S^(M-1), the series to
    M - 1 terms, is the whole-grid S that _sum keeps less its top term
    lam^(M-1) psi_top / top!, so no second sum is made.  T is a new array
    in S's type."""
    def make():
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
        T = np.empty_like(y)
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


def _one_lam(lam):
    """lam, one value: a scalar as it is, a one-value array as its value;
    OrderError naming lam for any other array."""
    if np.size(lam) != 1:
        raise OrderError(f"lam must be one value, got an array of shape {np.shape(lam)}")
    return lam if np.ndim(lam) == 0 else np.ravel(lam)[0]


def _on_grid(u, s, family, lam, n_terms) -> GridFunction:
    lam = _one_lam(lam)
    M = _check_truncation(family, lam, n_terms)
    return GridFunction(family.grid, u(family, s, lam, M, slice(None)))


def _off_node(u, s, family, lam, x, n_terms):
    """GridFunction.at of the grid solution u, gathered at the stencil
    nodes alone: the same weights on the same node values."""
    lam = _one_lam(lam)
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


def _lam_sums(psi, chi, lam, M: int):
    """S1, S2, T1 and T2 of u' = f' S + T/f at lam, a scalar or an array,
    from psi and chi values indexed by order, psi_j for j < 2M and chi_j
    for j < 2M - 1, each order's values of any shape (the ends, or pieces
    by nodes).  Row k of the coefficients holds psi_2k, psi_(2k+1),
    chi_(2k-1) and chi_2k over their factorials, chi_(-1) = 0, so that T1 =
    sum_{k>=1} lam^k chi_(2k-1) / (2k-1)! and T2 = sum_k lam^k chi_2k /
    (2k)!.  Each sum runs highest k first, Horner form with the steps of
    numpy's polyval and so its bits, acc = c_(M-1) + lam * 0, then acc =
    c_k + acc * lam, and has the values' shape, then lam's.  psi and chi of
    one shape are one block, summed in one pass."""
    inv = _inv_factorials(2 * M - 1)
    chi = np.concatenate((np.zeros_like(chi[:1]), chi[:2 * M - 1]))
    # (values, factorials) of psi and of chi, chi one order down, by pairs
    # of orders; both take an axis of length 1 per axis of the values past
    # the first and of lam
    parts = [(v.reshape((M, 2) + v.shape[1:] + (1,) * np.ndim(lam)),
              f.reshape((M, 2) + (1,) * (v.ndim - 1 + np.ndim(lam))))
             for v, f in ((psi[:2 * M], inv), (chi, np.append(0.0, inv[:-1])))]
    # the coefficient rows, highest k first, each scaled when the sum reaches
    # it: a scaled copy of all the seed pieces' rows at once made build_seed
    # 15 % slower at 5001 nodes (2-core VM)
    blocks = [(c * g for c, g in zip(v[::-1], f[::-1])) for v, f in parts]
    if psi.shape[1:] == chi.shape[1:]:  # one small block, scaled at once, summed in one pass
        blocks = [np.concatenate([v * f for v, f in parts], axis=1)[::-1]]
    sums = []
    for rows in map(iter, blocks):
        acc = next(rows) + lam * 0
        for c in rows:
            np.add(c, np.multiply(acc, lam, out=acc), out=acc)
        sums.extend(acc)
    return tuple(sums)


def _right_end(family: RecursiveFamily, lam, n_terms: int):
    """u1, u1', u2, u2' at b, then the same at a, in lam's shape, lam a
    scalar or an array: the last and the first node of u1_grid ..
    u2_prime_grid.  The series S1, S2, T1 and T2 there are _lam_sums of
    the psi ends and chi ends the family keeps, its whole rows unread, in
    one pass over the orders.  f' there is _f_prime_ends, f_prime's end
    values."""
    M = _check_truncation(family, lam, n_terms)
    S1, S2, T1, T2 = _lam_sums(family._psi_ends, family._chi_ends,
                               _real_if_real(np.asarray(lam)), M)
    f, fp = family.f.values[[0, -1]], family._f_prime_ends
    return tuple(u for i in (1, 0)  # at b, then at a
                 for u in (np.multiply(f[i], S1[i]), _prime(fp[i], S1[i], T1[i], f[i]),
                           np.multiply(f[i], S2[i]), _prime(fp[i], S2[i], T2[i], f[i])))


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


def choose_truncation(family: RecursiveFamily, lam,
                      tol: float = SERIES_TOL) -> TruncationChoice:
    """Smallest truncation whose first two omitted terms are negligible.

    Picks the smallest M such that, for both series, the sup-norms of
    terms M and M+1 (the first two beyond the truncation) are below
    tol * s, s the sup-norm of a partial sum (below).  Capped at the
    family order; hitting the cap sets the flag and issues an
    AccuracyWarning.  The family is built only to order 2M + 3, the last
    one the rule reads.  lam may also be an array: the rule then runs at
    each of its values in one pass over the orders, and the choice is the
    largest of theirs, capped if any is, with one warning.

    The sum B of the kept terms' sup-norms bounds sup|S|, so a dropped
    term above tol * B fails the rule whatever S is.  s is taken once, at
    the first M that passes this bound, by summing both series, sums the
    process keeps for the evaluators at this lam (_sum); later M reuse it,
    as later partial sums differ from it by no more than the terms past
    that M, which the bound holds under about 2 tol B.  A family that
    keeps a ring of its last psi rows alone (the eigen search's) makes no
    such sums: there both series at each lam are summed as the orders
    are built, term M - 1 added, in order, when M is tried, so s is the
    same partial sum's sup-norm, to rounding.
    Raises OrderError for tol <= 0, for a non-finite lam, for an empty
    array of lam and for a lam so large that a power |lam|^k the rule
    reads overflows.
    """
    if not tol > 0:
        raise OrderError(f"tol must be positive, got {tol}")
    _check_lam(lam)
    if np.size(lam) == 0:
        raise OrderError("lam must hold at least one value, got an empty array")
    lams = np.ravel(lam)
    alams = [float(abs(x)) for x in lams]
    M_max = (family.N + 1) // 2
    inv = _inv_factorials(family.N)
    norms = family._sup_norms  # psi_k's, extended in place as orders are built
    family._grow(1)
    running = None  # S1 and S2 at each lam, summed as orders are built
    if not family._keeps_rows():
        dtype = np.result_type(family._psi, _real_if_real(lams))
        running = np.zeros((len(lams), 2, family.grid.n_nodes), dtype)

    def term(k, s, i):  # sup-norm of the k-th term of u1's (s = 0) or u2's series at lams[i]
        return _lam_power(alams[i], k, lams[i]) * norms[2 * k + s] * inv[2 * k + s]

    B = [[0.0, 0.0] for _ in lams]
    sups = [None] * len(lams)  # s of u1's and u2's series at each lam
    chosen = [None] * len(lams)
    for M in range(1, M_max + 1):
        live = [i for i, c in enumerate(chosen) if c is None]
        if not live:
            break
        for i in live:
            B[i][0] += term(M - 1, 0, i)
            B[i][1] += term(M - 1, 1, i)
        # the two dropped terms must exist inside the family's cap
        if 2 * (M + 1) + 1 > family.N:
            break
        if running is not None:
            _add_terms(family, lams, running, [i for i in live if sups[i] is None], M - 1, inv)
        family._grow(2 * M + 3)
        for i in live:
            dropped = [(term(M, s, i), term(M + 1, s, i)) for s in (0, 1)]
            if any(t > tol * B[i][s] * _BOUND_SLACK for s in (0, 1) for t in dropped[s]):
                continue
            if sups[i] is None:
                sups[i] = [float(np.max(np.abs(
                    _sum(family, s, lams[i], M, slice(None)) if running is None
                    else running[i, s]))) for s in (0, 1)]
            if all(t <= tol * sups[i][s] for s in (0, 1) for t in dropped[s]):
                chosen[i] = M
    capped = None in chosen
    if capped:
        warnings.warn(
            f"truncation cap {M_max} reached without meeting tol={tol:g}",
            AccuracyWarning, stacklevel=2)
    return TruncationChoice(max(M_max if c is None else c for c in chosen), capped)


def _add_terms(family: RecursiveFamily, lams, running, which, k: int, inv) -> None:
    """Add term k, lam^k psi_(2k+s) / (2k+s)!, to the partial sums
    running[i, s] of u1 (s = 0) and u2 (s = 1) at lams[i] for each i in
    which, with _grid_sum's coefficients, after building the family to
    order 2k + 1."""
    psi = family._grow(2 * k + 1)
    for i in which:
        lam = _real_if_real(np.complex128(lams[i]))
        for s in (0, 1):
            c = np.power(lam, k) * inv[2 * k + s]
            running[i, s] += np.multiply(c, psi[(2 * k + s) % len(psi)])
