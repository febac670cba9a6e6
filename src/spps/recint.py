"""Recursive integral families generated by a nonvanishing seed.

Given a seed f with f(x)f(x0) != 0 on the interval and phi = f^2, two
interleaved families are built from X~(0) = X(0) = 1 by

    X~(n) = n * integral from x0 of X~(n-1) * phi^(+1 if n odd else -1),
    X(n)  = n * integral from x0 of X(n-1)  * phi^(-1 if n odd else +1).

For f = 1 both collapse to (x - x0)^n.  The mixed sequence

    psi_k = X(k) for odd k, X~(k) for even k

is the polynomial-like basis behind the generalized Taylor calculus,
and phi_k = f * psi_k is the solution basis: the even half solves
u'' + q u = 0 for the potential q = f''/f and the odd half is the
second independent solution family.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .grid import GridFunction, cumulative_integral, derivative
from .errors import OrderError, SeedError

# Seeds whose modulus falls below this are rejected: every second
# recursion step divides by phi = f^2.
MIN_SEED_ABS = 1e-12


@lru_cache(maxsize=None)
def _inv_factorials(n: int) -> np.ndarray:
    f = np.ones(n + 1)
    for k in range(2, n + 1):
        f[k] = f[k - 1] * k
    return 1.0 / f


class RecursiveFamily:
    """Both recursive integral families of a seed, up to order N.

    Attributes
    ----------
    f : GridFunction
        The seed.
    phi : GridFunction
        f squared.
    N : int
        Highest order built.
    X, Xt : list[GridFunction]
        The two families, indexed by order 0..N.
    """

    def __init__(self, f: GridFunction, X, Xt, N: int):
        self.f = f
        self.phi = f * f
        self.X = X
        self.Xt = Xt
        self.N = N
        self.grid = f.grid

    @cached_property
    def f_prime(self) -> GridFunction:
        """Derivative of the seed (grid stencil, computed once)."""
        return derivative(self.f)

    @cached_property
    def _sup_norms(self) -> tuple[list[float], list[float]]:
        """Sup-norms of X(n) and X~(n) per order, for choose_truncation."""
        return [g.sup_norm for g in self.X], [g.sup_norm for g in self.Xt]

    @cached_property
    def _right_terms(self) -> tuple[list[complex], list[complex]]:
        """X(n)(b)/n! and X~(n)(b)/n! per order as Python complex, for _right_end."""
        inv = _inv_factorials(self.N)
        return ([complex(g.values[-1] * inv[k]) for k, g in enumerate(self.X)],
                [complex(g.values[-1] * inv[k]) for k, g in enumerate(self.Xt)])

    def _check_order(self, k: int) -> int:
        k = int(k)
        if k < 0 or k > self.N:
            raise OrderError(f"order {k} outside built range 0..{self.N}")
        return k

    def psi(self, k: int) -> GridFunction:
        """Mixed basis element: X(k) for odd k, X~(k) for even k."""
        k = self._check_order(k)
        return self.X[k] if k % 2 else self.Xt[k]

    def phi_k(self, k: int) -> GridFunction:
        """Solution basis element f * psi_k."""
        return self.f * self.psi(k)

    def __repr__(self):
        return f"RecursiveFamily(N={self.N}, grid={self.grid!r})"


def build_family(f: GridFunction, N: int = 60) -> RecursiveFamily:
    """Build both families up to order N.

    Raises SeedError if |f| dips below MIN_SEED_ABS anywhere on the
    grid.  Cost is 2N anchored cumulative integrals.
    """
    N = int(N)
    if N < 1:
        raise OrderError(f"family order must be >= 1, got {N}")
    fmin = float(np.min(np.abs(f.values)))
    if fmin < MIN_SEED_ABS:
        i = int(np.argmin(np.abs(f.values)))
        raise SeedError(
            f"seed modulus {fmin:.3g} at node {i} (x={f.grid.nodes[i]}) "
            f"is below {MIN_SEED_ABS:g}")
    return _families(f, N)


def _families(f: GridFunction, N: int, r: GridFunction | None = None) -> RecursiveFamily:
    """build_family's recursion, unchecked.  A weight r multiplies each
    phi step (X~ odd, X even orders); the series solve u'' + qu = lambda r u."""
    one = GridFunction(f.grid, np.ones(f.grid.n_nodes))
    family = RecursiveFamily(f, [one], [one], N)
    X, Xt, phi = family.X, family.Xt, family.phi
    phi_inv = 1.0 / phi
    phi_r = phi if r is None else phi * r
    for n in range(1, N + 1):
        # weight parity swaps between the families at every order
        weights = (phi_inv, phi_r) if n % 2 else (phi_r, phi_inv)
        for Y, w in zip((X, Xt), weights):
            Y.append(cumulative_integral(Y[n - 1] * w))
            Y[n].values *= n  # a fresh array: scaled in place
    return family
