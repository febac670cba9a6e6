"""Recursive integral families generated by a nonvanishing seed.

Given a seed f with f(x)f(x0) != 0 on the interval and phi = f^2, the
basis psi_n and its dual chi_n are built from psi_0 = chi_0 = 1 by

    psi_n = n * integral from x0 of chi_(n-1) / phi,
    chi_n = n * integral from x0 of psi_(n-1) * phi.

For f = 1 both collapse to (x - x0)^n.  psi_k is the polynomial-like
basis behind the generalized Taylor calculus, and phi_k = f * psi_k is
the solution basis: the even half solves u'' + q u = 0 for the
potential q = f''/f and the odd half is the second independent solution
family.  The paper's two families are X(n) = psi_n, X~(n) = chi_n for
odd n, and the other way round for even n.

Order n is kept as psi_n on the whole grid, and psi_n and chi_n at the
first and the last node, where characteristic reads them, so a family
is three arrays indexed by order: the psi rows, one (N + 1, n_nodes)
block with psi_0 = 1 in row 0, and the psi ends and the chi ends, two
(N + 1, 2) arrays.  The block is allocated once with nothing written:
the operating system backs a page of it only when the order on that
page is built, so a family that is read to order k holds k rows, not N,
and one that is never read holds none, as row 0 is written at the first
read.  A block of 4 MiB or more is an anonymous mapping of its own
(_rows), so that a freed family gives its pages back to the operating
system, where a block from malloc's heap stays in the process.  The
block lets series._grid_sum read the rows a series sums,
psi[s:top+1:2], as one strided matrix.  The order loop carries chi_n
whole in a reused row: order n is the product of chi_(n-1) and
psi_(n-1) with the fixed weights (1/phi, phi), formed in a reused
(2, n_nodes) buffer, one call of the grid's row integrator on that pair
into a second reused pair, and the scaling by n written into row n of
the block.  The loop reads only row n - 1 of the block, so a block of
fewer rows is a ring of the last ones, psi_n in row n mod its length.
Whole chi rows are built only when X or Xt is read, into a second
(N + 1, n_nodes) array, row k as k * integral of psi_(k-1) * phi: the
loop's product, integration and scaling, so with the bits the loop gave
chi_k.  The series readers build none: the rule is linear, so the u*'
series of chi rows is one integral of the value series of psi rows
times phi (series._prime_sum).
Orders are built on demand up to the family's cap N, and only as deep
as they are read, with one exception: a family builds order N with the
last order a series reader reads, N - 1 at an even N, and then drops
the loop's weights and scratch, which no later order needs.  The same
loop runs on P side-by-side pieces of a grid at once, rows of shape
(P, w + 1), each piece anchored at its first node with its own spacing
(_Pieces): build_seed's pieces, with seed 1 and weight -q, whose whole
psi rows and chi ends series._lam_sums sums, and the eigen search's,
with a family's weights (1/phi, phi), which keep psi and chi at one
node of each piece and their sup-norms, through a ring of two psi
rows, so that the search's memory does not grow with its orders.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import threading
from functools import cached_property

import numpy as np

from .grid import GridFunction, _derivative_rows, _integrate_rows, derivative
from .errors import GridConfigError, OrderError, SeedError, _as_order, _read_only

# Seeds whose modulus falls below this are rejected: every second
# recursion step divides by phi = f^2.
MIN_SEED_ABS = 1e-12

# A psi block of this many bytes or more is an anonymous mapping of its
# own, the size from which numpy asks for transparent huge pages
_MAPPED_BYTES = 4 << 20


def _rows(shape: tuple, dtype) -> np.ndarray:
    """An array of rows, nothing written, so no page of it is backed until
    a row on it is written.  One of _MAPPED_BYTES or more is an anonymous
    mapping of its own (with MADV_HUGEPAGE where the platform has it), so
    that freeing it unmaps its pages at once, where a block malloc served
    from its heap would stay in the process."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    if nbytes < _MAPPED_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(shape, dtype)
    buf = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):  # a kernel without huge pages
            buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype).reshape(shape)


def _blocks(shape: tuple, dtype, top: int, rows: int | None = None):
    """psi rows and ends of a recursion up to order top, for rows of the
    given shape and dtype, nothing written: psi (rows,) + shape from
    _rows, top + 1 rows by default, and ends (2, top + 1) + shape[:-1] +
    (2,), psi_n and then chi_n at two nodes of each row, the first and
    the last for a family."""
    psi = _rows((top + 1 if rows is None else rows,) + shape, dtype)
    return psi, np.empty((2, top + 1) + shape[:-1] + (2,), dtype)


def _order_zero(psi: np.ndarray, ends) -> np.ndarray:
    """Write order 0 of a recursion, psi_0 = chi_0 = 1, into row 0 of psi
    and of both ends, and return the (2, 2) + row shape scratch
    _extend_orders continues from."""
    scratch = np.empty((2, 2) + psi.shape[1:], psi.dtype)
    psi[0] = ends[0][0] = ends[1][0] = scratch[1, 1] = 1.0
    return scratch


def _extend_orders(psi: np.ndarray, ends, weights, h, x0_index: int,
                   start: int, stop: int, scratch: np.ndarray, norms=None,
                   at=None, integrate=_integrate_rows) -> None:
    """Write orders start .. stop in place: psi_n into psi[n % len(psi)],
    so that psi of fewer rows than orders is a ring of the last ones, and
    psi_n and chi_n at the nodes `at`, an index into a row, the first and
    the last node by default, into ends[0][n] and ends[1][n]; if norms is
    a list, sup|psi_n| along the last axis is appended to it, a float for
    a row of one axis, else a list.  scratch is (2, 2, ...): the pair of
    integrands, then the integrated pair, whose row 1 holds chi_(n-1) on
    entry and chi_n on return.  Order n integrates chi_(n-1) and psi_(n-1)
    times weights (for a family 1/phi and phi) along the last axis and
    scales by n; the rows may carry leading axes (side-by-side pieces).
    integrate is the row rule, _integrate_rows' or one of its contract."""
    buf, pair = scratch
    if at is None:
        at = (..., slice(None, None, psi.shape[-1] - 1))  # the first and the last node
    rows = len(psi)
    for n in range(start, stop + 1):
        np.multiply(pair[1], weights[0], out=buf[0])
        np.multiply(psi[(n - 1) % rows], weights[1], out=buf[1])
        integrate(buf, h, pair, x0_index)
        row = psi[n % rows]
        np.multiply(pair[0], n, out=row)
        pair[1] *= n
        ends[0][n] = row[at]
        ends[1][n] = pair[1][at]
        if norms is not None:
            norms.append(np.max(np.abs(row), axis=-1).tolist())


class _Pieces:
    """The recursion with the weights (w0, w1), for a family (1/phi, phi),
    on the P pieces of w cells that begin at the node indices `starts`, an
    integer array, run through the order loop in one batch, each piece
    anchored at its first node and with its own spacing.  A weight may be
    a scalar (1.0 for seed 1, whose 1/phi is 1 exactly) or an array on
    the grid's nodes.  Orders are built by grow, up to top.

    psi holds the psi rows, (top + 1, P, w + 1), or a ring of the last
    `rows` of them; ends[0] and ends[1] hold psi_n and chi_n at each
    piece's first node and at its node `stops[p]`, its last by default,
    (top + 1, P, 2); norms, if asked for, sup|psi_n| on each piece, a list
    of P floats per order built.  integrate is the row rule, the 4-point
    _integrate_rows by default."""

    def __init__(self, weights, nodes: np.ndarray, starts: np.ndarray, w: int, top: int,
                 stops=None, rows: int | None = None, norms: bool = False,
                 integrate=_integrate_rows):
        take = starts[:, None] + np.arange(w + 1)
        self._w = tuple(v if np.ndim(v) == 0 else v[take] for v in weights)
        self._h = ((nodes[starts + w] - nodes[starts]) / w)[:, None]
        self.psi, self.ends = _blocks(take.shape, np.result_type(np.float64, *self._w), top, rows)
        stops = np.full(len(starts), w) if stops is None else np.asarray(stops)
        self._at = (np.arange(len(starts))[:, None], np.stack((0 * stops, stops), axis=1))
        self._scratch = _order_zero(self.psi, self.ends)
        self.norms = [[1.0] * len(starts)] if norms else None
        self.top = 0
        self._integrate = integrate

    def grow(self, stop: int) -> None:
        """Build the orders up to stop not yet built."""
        _extend_orders(self.psi, self.ends, self._w, self._h, 0, self.top + 1, stop,
                       self._scratch, self.norms, self._at, self._integrate)
        self.top = max(self.top, stop)


class RecursiveFamily:
    """Both recursive integral families of a seed, up to order N.

    Orders are built when first read.  Order n holds psi_n whole, and
    psi_n and chi_n at the first and the last node: one row of n_nodes,
    the cost of one integrand product and one cumulative integration of
    the (psi, chi) pair.  The psi rows are rows 0..N of one (N + 1, n_nodes)
    block, psi_0 = 1 in row 0, taken with nothing written when the family
    is made; row 0 and the order loop's scratch are written at the first
    read, and the operating system backs the block's pages as orders are
    written, so the family's memory grows with the orders read, not with
    N, and a family that is never read holds no row.  A block of 4 MiB or
    more is an anonymous mapping, unmapped with the family, and asks for
    transparent huge pages, as numpy does for its arrays from that size;
    a smaller one is numpy's.  Pages are backed whole, so the orders
    built may hold up to one huge page (2 MiB on x86-64) more than their
    rows.  The order loop's (2, 2, n_nodes) scratch and the weights go
    once order N is built, with the last order a series reader reads
    (_grow).  A seed with no imaginary part is held in float64,
    whatever its dtype, so f, phi and every row are real, 8 bytes a value
    against a complex seed's 16.  The series evaluators read only the
    orders their truncation needs, and psi(k) and phi_k(k) only orders
    up to k; X and Xt complete the family to N.  The eigen search reads
    none of a family's orders: it runs the family's seed and weights on
    pieces of the grid (_Pieces).
    Reading X or Xt also fills a second (N + 1, n_nodes) array with every
    whole chi_k row, with one more product and integration of one row
    each, and keeps it: a family read whole holds two rows per order.  No
    series reader builds a chi row.
    A family also keeps what a reader makes from its rows and reads
    again: for each slice least_squares_project has read (even, odd or
    full), an orthonormal basis of its weighted solution columns, a
    block of one row of n_nodes per order of the slice, written only as
    far as the columns asked, and a small triangular factor (_bases, from
    gentaylor).  Orders and bases are built under the family's re-entrant
    lock, so threads reading one family build each once and read the same
    bits.

    Attributes
    ----------
    f : GridFunction
        The seed, in float64 if it has no imaginary part: a view that
        refuses writes, of the family's own copy of the caller's array,
        so a later write to that array moves no sum.  phi, f_prime and
        the rows psi(k), X and Xt refuse writes too.
    phi : GridFunction
        f squared, the order loop's weight.
    N : int
        Highest order the family builds: a cap, not what is built.
    X, Xt : list[GridFunction]
        The paper's two families, indexed by order 0..N: the rows psi_n
        or chi_n by the parity of n.  Reading either builds every order
        and every whole chi row not yet built.

    Raises OrderError for N < 1, SeedError if |f| is NaN or below
    MIN_SEED_ABS anywhere on the grid, and GridConfigError on a grid of
    fewer than 4 nodes, here rather than at the first order built.
    """

    def __init__(self, f: GridFunction, N: int):
        N = _as_order(N, "N")
        if N < 1:
            raise OrderError(f"family order must be >= 1, got {N}")
        fmin = float(np.min(np.abs(f.values)))
        if not fmin >= MIN_SEED_ABS:  # NaN fails too
            i = int(np.argmin(np.abs(f.values)))
            raise SeedError(
                f"seed modulus {fmin:.3g} at node {i} (x={f.grid.nodes[i]}) "
                f"is below {MIN_SEED_ABS:g}")
        if f.grid.n_nodes < 4:
            raise GridConfigError("cumulative integral needs at least 4 nodes")
        # a copy, so that a later write to the caller's array moves no sum
        values = np.array(f.values.real if f.is_real else f.values)
        phi = values * values
        self.grid = f.grid
        self.f = self._view(values)
        self.phi = self._view(phi)
        self.N = N
        self._w = (1.0 / phi, phi)
        # psi_n in row n of one block, and psi_n and chi_n at a and b in row
        # n of the ends; row 0 and the order loop's scratch are written at
        # the first _grow, so a family that is never read backs no row
        self._psi, (self._psi_ends, self._chi_ends) = _blocks(
            (f.grid.n_nodes,), np.result_type(np.float64, *self._w), N)
        self._scratch = None
        # sup-norm of psi_n per built order, read by choose_truncation; its
        # length is the number of orders built
        self._sup_norms = [1.0]
        # the gentaylor module's orthonormal solution bases, one per slice of
        # the orders (key (start, step)), grown under _lock (gentaylor._basis)
        self._bases = {}
        # held while orders or bases are built, so that threads reading one
        # family build each once; re-entrant, as a basis grows the orders
        self._lock = threading.RLock()

    def _weights(self) -> tuple:
        """The order loop's weights (1/phi, phi), the first formed again if
        the family has dropped them."""
        phi = self.phi.values
        return self._w or (1.0 / phi, phi)

    def _grow(self, k: int) -> np.ndarray:
        """Build every order up to min(k, N) with its psi sup-norm, order 0
        at the first call; returns the psi block.  The weights and scratch
        go once order N is built, which a family builds with order
        2 * ((N + 1) // 2) - 1, the last one a series reader reads (N - 1
        at an even N): one row and one integration more, once, for a
        family read to its cap.  Orders are built under
        the family's lock, so threads reading one family build each once."""
        with self._lock:
            start, stop = len(self._sup_norms), min(k, self.N)
            if stop >= 2 * ((self.N + 1) // 2) - 1:
                stop = self.N
            if self._scratch is None and start <= self.N:
                self._scratch = _order_zero(self._psi, (self._psi_ends, self._chi_ends))
            if start <= stop:
                _extend_orders(self._psi, (self._psi_ends, self._chi_ends), self._w,
                               self.grid.h, self.grid.x0_index, start, stop,
                               self._scratch, self._sup_norms)
                if stop == self.N:
                    self._w = self._scratch = None
        return self._psi

    @cached_property
    def _chi(self) -> np.ndarray:
        """Every whole chi row, (N + 1, n_nodes): row k is k * integral of
        psi_(k-1) * phi, the order loop's product, integration and
        scaling, so with the bits the loop gave chi_k."""
        psi = self._grow(self.N)
        chi, y = _rows(psi.shape, psi.dtype), np.empty_like(psi[0])
        chi[0] = 1.0
        for k in range(1, self.N + 1):
            np.multiply(psi[k - 1], self.phi.values, out=y)
            _integrate_rows(y, self.grid.h, chi[k], self.grid.x0_index)
            chi[k] *= k
        return chi

    def _view(self, values: np.ndarray) -> GridFunction:
        """values as a function on the grid, through a view that refuses
        writes: the family reads its seed, weight and rows again, so a
        write would change every later order or sum.  The array itself
        keeps its flag."""
        return GridFunction(self.grid, _read_only(values.view()))

    @cached_property
    def X(self) -> list[GridFunction]:
        return [self._view((self._psi if n % 2 else self._chi)[n]) for n in range(self.N + 1)]

    @cached_property
    def Xt(self) -> list[GridFunction]:
        return [self._view((self._chi if n % 2 else self._psi)[n]) for n in range(self.N + 1)]

    @cached_property
    def f_prime(self) -> GridFunction:
        """Derivative of the seed (grid stencil, computed once)."""
        return self._view(derivative(self.f).values)

    @cached_property
    def _f_prime_ends(self) -> np.ndarray:
        """f' at the first and the last node alone (_end_slopes)."""
        return _end_slopes(self.f.values, self.grid.h)

    def psi(self, k: int) -> GridFunction:
        """Basis element psi_k; builds orders only up to k."""
        k = _as_order(k, "k")
        if k < 0 or k > self.N:
            raise OrderError(f"order {k} outside built range 0..{self.N}")
        return self._view(self._grow(k)[k])

    def phi_k(self, k: int) -> GridFunction:
        """Solution basis element f * psi_k."""
        return self.f * self.psi(k)

    def __repr__(self):
        return f"RecursiveFamily(N={self.N}, grid={self.grid!r})"


def _end_slopes(y: np.ndarray, h) -> np.ndarray:
    """The derivative of the node values y at the first and the last node
    alone, with derivative's bits there: its stencils on the first and the
    last five nodes."""
    return np.array([_derivative_rows(y[:5], h)[0], _derivative_rows(y[-5:], h)[-1]])


def build_family(f: GridFunction, N: int = 60) -> RecursiveFamily:
    """Both families of the seed f, with orders up to the cap N.

    Raises what RecursiveFamily raises, at once.  Building is deferred:
    order n costs one product and one cumulative integral of a
    (2, n_nodes) pair when it is first read, and writes one row of
    n_nodes in the family's psi block; a whole chi row costs one more
    product and integral of a row, when X or Xt is first read.
    """
    return RecursiveFamily(f, N)
