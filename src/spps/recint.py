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

Order n is one (2, n_nodes) array, row 0 psi_n and row 1 chi_n, made
by one product of order n - 1, rows swapped, with the fixed weights
(1/phi, phi) into a reused buffer, and one call of the grid's row
integrator.  Orders are built on demand up to the family's cap N, and
only as deep as they are read.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid import GridFunction, _integrate_rows, derivative
from .errors import GridConfigError, OrderError, SeedError

# Seeds whose modulus falls below this are rejected: every second
# recursion step divides by phi = f^2.
MIN_SEED_ABS = 1e-12


def _extend_pairs(pairs: list, weights: np.ndarray, h, x0_index: int, stop: int,
                  buf: np.ndarray) -> None:
    """Append orders len(pairs) .. stop to pairs.  Order n is order n - 1,
    rows swapped, times weights (for a family 1/phi and phi), formed in
    buf, integrated along the last axis into a fresh array and scaled by
    n; the rows may carry leading axes (side-by-side pieces)."""
    for n in range(len(pairs), stop + 1):
        np.multiply(pairs[-1][::-1], weights, out=buf)
        pair = np.empty_like(buf)
        _integrate_rows(buf, h, pair, x0_index)
        pair *= n
        pairs.append(pair)


class RecursiveFamily:
    """Both recursive integral families of a seed, up to order N.

    Orders are built when first read, each as one (2, n_nodes) array
    holding psi_n and chi_n; an order costs one integrand product and one
    cumulative integration of the pair.  The eigen search and the series
    evaluators read only the orders their truncation needs, and psi(k)
    and phi_k(k) only orders up to k; X and Xt complete the family to N.
    The family also holds the series module's latest whole-grid sum of
    each of its four series: at most four complex arrays of n_nodes.

    Attributes
    ----------
    f : GridFunction
        The seed.
    phi : GridFunction
        f squared.
    N : int
        Highest order the family builds: a cap, not what is built.
    X, Xt : list[GridFunction]
        The paper's two families, indexed by order 0..N: views of the
        rows, psi_n or chi_n by the parity of n.  Reading either builds
        every order not yet built.

    Raises OrderError for N < 1, SeedError if |f| is NaN or below
    MIN_SEED_ABS anywhere on the grid, and GridConfigError on a grid of
    fewer than 4 nodes, here rather than at the first order built.
    """

    def __init__(self, f: GridFunction, N: int):
        N = int(N)
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
        self.f = f
        self.phi = f * f
        self.N = N
        self.grid = f.grid
        self._w = np.stack((1.0 / self.phi.values, self.phi.values))
        # order 0 is 1 in both rows: one row, read twice
        one = np.broadcast_to(np.ones(self.grid.n_nodes), (2, self.grid.n_nodes))
        self._buf = np.empty(one.shape, np.result_type(one, self._w))
        self._pairs = [one]
        # sup-norm of psi_n per built order, read by choose_truncation
        self._sup_norms = [1.0]
        # the series module's latest whole-grid sum of each series, by
        # (row, s): ((lambda's bits, M), sum), reused in place (series._sum)
        self._sums = {}

    def _grow(self, k: int) -> list[np.ndarray]:
        """Build every order up to min(k, N) with its psi sup-norm; returns
        the list of pairs.  The weights and buffer go once order N is built."""
        pairs = self._pairs
        start = len(pairs)
        if start > min(k, self.N):
            return pairs
        _extend_pairs(pairs, self._w, self.grid.h, self.grid.x0_index,
                      min(k, self.N), self._buf)
        self._sup_norms.extend(np.max(np.abs(p[0])).item() for p in pairs[start:])
        if len(pairs) == self.N + 1:
            self._w = self._buf = None
        return pairs

    @cached_property
    def X(self) -> list[GridFunction]:
        return [GridFunction(self.grid, p[1 - n % 2])
                for n, p in enumerate(self._grow(self.N))]

    @cached_property
    def Xt(self) -> list[GridFunction]:
        return [GridFunction(self.grid, p[n % 2])
                for n, p in enumerate(self._grow(self.N))]

    @cached_property
    def f_prime(self) -> GridFunction:
        """Derivative of the seed (grid stencil, computed once)."""
        return derivative(self.f)

    def psi(self, k: int) -> GridFunction:
        """Basis element psi_k; builds orders only up to k."""
        k = int(k)
        if k < 0 or k > self.N:
            raise OrderError(f"order {k} outside built range 0..{self.N}")
        return GridFunction(self.grid, self._grow(k)[k][0])

    def phi_k(self, k: int) -> GridFunction:
        """Solution basis element f * psi_k."""
        return self.f * self.psi(k)

    def __repr__(self):
        return f"RecursiveFamily(N={self.N}, grid={self.grid!r})"


def build_family(f: GridFunction, N: int = 60) -> RecursiveFamily:
    """Both families of the seed f, with orders up to the cap N.

    Raises what RecursiveFamily raises, at once.  Building is deferred:
    order n costs one product and one cumulative integral of a
    (2, n_nodes) pair when it is first read, so the whole family is N
    such steps.
    """
    return RecursiveFamily(f, N)
