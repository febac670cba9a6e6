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

Order n is kept as psi_n on the whole grid and chi_n at the last node
alone, where the eigen search reads it, so a family is two arrays
indexed by order: the psi rows, one (N + 1, n_nodes) block with
psi_0 = 1 in row 0, and the chi ends, one (N + 1, 1) array.  The block
is allocated once with np.empty: the operating system backs a page of
it only when the order on that page is built, so a family that is read
to order k holds k rows, not N.  It lets series._grid_sum read the rows
a series sums, psi[s:top+1:2], as one strided matrix.  The order loop
carries chi_n whole in a reused row: order n is the product of
chi_(n-1) and psi_(n-1) with the fixed weights (1/phi, phi), formed in
a reused (2, n_nodes) buffer, one call of the grid's row integrator on
that pair into a second reused pair, and the scaling by n written into
row n of the block.  Whole chi rows are built only when X or Xt is
read, into a second (N + 1, n_nodes) array, row k as k * integral of
psi_(k-1) * phi: the loop's product, integration and scaling, so with
the bits the loop gave chi_k.  The series readers build none: the rule
is linear, so the u*' series of chi rows is one integral of the value
series of psi rows times phi (series._prime_sum).  Orders are built on
demand up to the family's cap N, and only as deep as they are read.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid import GridFunction, _integrate_rows, derivative
from .errors import GridConfigError, OrderError, SeedError, _as_order

# Seeds whose modulus falls below this are rejected: every second
# recursion step divides by phi = f^2.
MIN_SEED_ABS = 1e-12


def _order_zero(shape: tuple, dtype, top: int):
    """psi rows, chi ends and scratch of a recursion at order 0, where
    psi_0 = chi_0 = 1, for rows of the given shape and dtype up to order
    top: the state _extend_orders continues.  psi is (top + 1,) + shape
    and ends (top + 1,) + shape[:-1] + (1,), both from np.empty with row
    0 written, so no page past order 0 is backed until its order is
    built."""
    psi = np.empty((top + 1,) + shape, dtype)
    ends = np.empty((top + 1,) + shape[:-1] + (1,), dtype)
    scratch = np.empty((2, 2) + shape, dtype)
    psi[0] = ends[0] = scratch[1, 1] = 1.0
    return psi, ends, scratch


def _extend_orders(psi: np.ndarray, ends: np.ndarray, weights, h, x0_index: int,
                   start: int, stop: int, scratch: np.ndarray) -> None:
    """Write orders start .. stop in place: psi_n into psi[n] and chi_n at
    the last node into ends[n].  scratch is (2, 2, ...): the pair of
    integrands, then the integrated pair, whose row 1 holds chi_(n-1) on
    entry and chi_n on return.  Order n integrates chi_(n-1) and
    psi_(n-1) times weights (for a family 1/phi and phi) along the last
    axis and scales by n; the rows may carry leading axes (side-by-side
    pieces)."""
    buf, pair = scratch
    for n in range(start, stop + 1):
        np.multiply(pair[1], weights[0], out=buf[0])
        np.multiply(psi[n - 1], weights[1], out=buf[1])
        _integrate_rows(buf, h, pair, x0_index)
        np.multiply(pair[0], n, out=psi[n])
        pair[1] *= n
        ends[n] = pair[1][..., -1:]


class RecursiveFamily:
    """Both recursive integral families of a seed, up to order N.

    Orders are built when first read.  Order n holds psi_n whole and
    chi_n at the last node: one row of n_nodes, the cost of one integrand
    product and one cumulative integration of the (psi, chi) pair.  The
    psi rows are rows 0..N of one (N + 1, n_nodes) block, psi_0 = 1 in
    row 0, taken with np.empty when the family is made; the operating
    system backs its pages as orders are written, so the family's memory
    grows with the orders read, not with N, and the block is freed as
    one array with the family.  Pages are backed whole, and numpy asks
    for transparent huge pages on an array of 4 MiB or more, so the
    orders built may hold up to one such page (2 MiB on x86-64) more than
    their rows.  A seed with no imaginary part is held in float64,
    whatever its dtype, so f, phi and every row are real, 8 bytes a value
    against a complex seed's 16.  The eigen search and the series
    evaluators read only the orders their truncation needs, and psi(k)
    and phi_k(k) only orders up to k; X and Xt complete the family to N.
    Reading X or Xt also fills a second (N + 1, n_nodes) array with every
    whole chi_k row, with one more product and integration of one row
    each, and keeps it: a family read whole holds two rows per order.  No
    series reader builds a chi row.  The family also holds the series
    module's latest whole-grid sums: S and T of u' = f' S + T/f for u1
    and for u2, at most four arrays of n_nodes in the type of the rows
    and lambda they were summed from.

    Attributes
    ----------
    f : GridFunction
        The seed, in float64 if it has no imaginary part: a view that
        refuses writes, of the caller's array if that has the family's
        type.  phi, f_prime and the rows psi(k), X and Xt refuse writes
        too.
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
        if f.is_real:  # real rows, sums and kept arrays: 8 bytes a value
            f = GridFunction(f.grid, np.ascontiguousarray(f.values.real))
        self.grid = f.grid
        self.f = self._view(f.values)
        self.phi = self._view((f * f).values)
        self.N = N
        self._w = (1.0 / self.phi.values, self.phi.values)
        # psi_n in row n of one block, a page backed only when an order on
        # it is built, and chi_n at b in row n of the ends
        self._psi, self._chi_ends, self._scratch = _order_zero(
            (self.grid.n_nodes,), np.result_type(np.float64, *self._w), N)
        # sup-norm of psi_n per built order, read by choose_truncation; its
        # length is the number of orders built
        self._sup_norms = [1.0]
        # the series module's latest whole-grid S (key (0, s)) and T (key
        # (1, s)) of u1 (s = 0) and u2 (s = 1): ((lambda's bits, M), array),
        # each rewritten in place (series._sum, series._prime_sum)
        self._sums = {}

    def _grow(self, k: int) -> np.ndarray:
        """Build every order up to min(k, N) with its psi sup-norm; returns
        the psi block.  The weights and scratch go once order N is
        built."""
        start, stop = len(self._sup_norms), min(k, self.N)
        if start <= stop:
            _extend_orders(self._psi, self._chi_ends, self._w, self.grid.h,
                           self.grid.x0_index, start, stop, self._scratch)
            self._sup_norms += [np.max(np.abs(p)).item() for p in self._psi[start:stop + 1]]
            if stop == self.N:
                self._w = self._scratch = None
        return self._psi

    @cached_property
    def _chi(self) -> np.ndarray:
        """Every whole chi row, (N + 1, n_nodes): row k is k * integral of
        psi_(k-1) * phi, the order loop's product, integration and
        scaling, so with the bits the loop gave chi_k."""
        psi = self._grow(self.N)
        chi, y = np.empty_like(psi), np.empty_like(psi[0])
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
        keeps its flag, so a caller's seed stays writable."""
        view = values.view()
        view.flags.writeable = False
        return GridFunction(self.grid, view)

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


def build_family(f: GridFunction, N: int = 60) -> RecursiveFamily:
    """Both families of the seed f, with orders up to the cap N.

    Raises what RecursiveFamily raises, at once.  Building is deferred:
    order n costs one product and one cumulative integral of a
    (2, n_nodes) pair when it is first read, and writes one row of
    n_nodes in the family's psi block; a whole chi row costs one more
    product and integral of a row, when X or Xt is first read.
    """
    return RecursiveFamily(f, N)
