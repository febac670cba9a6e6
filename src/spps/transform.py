"""Transformation matrix between generalized and ordinary derivatives.

The lower-triangular matrix A_n maps the generalized derivative vector
(gamma_0(h), ..., gamma_n(h)) at x0 to the ordinary derivative vector
(h(x0), h'(x0), ..., h^(n)(x0)).  Applying gamma_j to the basis element
psi_m walks down its own family, so gamma_j(psi_m)(x0) = m! delta_jm and
column m of A_n is the ordinary derivative vector of psi_m at x0 over m!.
The production builder therefore runs recint's recursion for psi_m and
chi_m on jets of phi at x0, from the constant jet 1, and reads column m
off the jet of psi_m; it is exact up to rounding.

A slow closed-form evaluation through nested alternating binomial sums
is kept as an independent cross-validation oracle.

Applied to the u1/u2 series, the matrix gives the ordinary Taylor
coefficients of u1/f and u2/f as polynomials in the spectral parameter:
the generalized derivative vectors of u1/f and u2/f are the interleaved
lambda-power vectors (1, 0, lambda, 0, lambda^2, ...) and
(0, 1, 0, lambda, 0, lambda^2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

import numpy as np

from .errors import OrderError, _as_order
from .jets import Jet


@dataclass
class TransformMatrix:
    """A_n values at x0: (n+1) x (n+1) complex, lower-triangular."""
    n: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.n + 1, self.n + 1):
            raise OrderError(
                f"entries shape {self.entries.shape} does not match n={self.n}")


def _check_budget(phi_jet: Jet, n: int) -> int:
    n = _as_order(n, "n")
    if n < 0:
        raise OrderError(f"matrix order must be >= 0, got {n}")
    if phi_jet.order < n - 1:
        raise OrderError(
            f"phi jet of order {phi_jet.order} cannot build A_{n}; "
            f"need order >= {n - 1}")
    return n


def _integral(jet: Jet) -> Jet:
    """Jet of the integral from x0: each coefficient moves up one order."""
    c = jet.coeffs / np.arange(1.0, jet.order + 2)
    return Jet(jet.x0, np.concatenate(([0.0], c)))


def build_A_recursive(phi_jet: Jet, n: int) -> TransformMatrix:
    """Build A_n column by column from the jets of psi_1..psi_n.

    psi_m = m * integral of chi_(m-1) / phi and chi_m = m * integral of
    psi_(m-1) * phi run on jets of order n; column m is psi_m's derivative
    vector over m!.  Only the phi jet's first n coefficients are read, so
    a phi jet of order n-1 suffices.
    """
    n = _check_budget(phi_jet, n)
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[0, 0] = 1.0
    if n == 0:
        return TransformMatrix(0, A)
    phi = phi_jet.truncate(n - 1)
    inv = phi.reciprocal()
    psi = chi = Jet.constant(1.0, phi.x0, n)
    for m in range(1, n + 1):
        psi, chi = m * _integral(chi * inv), m * _integral(psi * phi)
        A[:, m] = psi.derivatives() / factorial(m)
    return TransformMatrix(n, A)


def build_A_closed_form(phi_jet: Jet, n: int) -> TransformMatrix:
    """Build A_n from the closed-form alternating binomial sums.

    Reference implementation: cost grows combinatorially with n, so it
    exists to cross-validate the recursion, not to be fast.  The first
    column is (1/phi)^{[k-1]}; the remaining entries combine binomial
    sums over chains whose weight alternates between the derivatives of
    phi (odd levels) and of 1/phi (even levels).
    """
    n = _check_budget(phi_jet, n)
    A = np.zeros((n + 1, n + 1), dtype=complex)
    A[0, 0] = 1.0
    if n == 0:
        return TransformMatrix(0, A)
    # raw derivative values of phi and 1/phi at x0
    dphi = phi_jet.derivatives()
    dinv = phi_jet.reciprocal().derivatives()
    memo: dict = {}

    def b(k: int, m: int) -> complex:
        if m == 1:
            return dphi[k - 1]
        if k < m:
            return 0j
        key = (k, m)
        if key not in memo:
            def chain(level: int, prev: int) -> complex:
                w = dphi if level % 2 == 1 else dinv
                if level == m - 1:
                    closing = dinv if m % 2 == 0 else dphi
                    return sum(comb(prev - 1, j) * w[prev - 1 - j] * closing[j - 1]
                               for j in range(1, prev))
                lo = m - level
                return sum(comb(prev - 1, j) * w[prev - 1 - j] * chain(level + 1, j)
                           for j in range(lo, prev))
            memo[key] = chain(1, k)
        return memo[key]

    for k in range(1, n + 1):
        A[k, 1] = dinv[k - 1]
        for m in range(2, k + 1):
            A[k, m] = sum(comb(k - 1, j) * dinv[k - 1 - j] * b(j, m - 1)
                          for j in range(m - 1, k))
    return TransformMatrix(n, A)


def ordinary_from_generalized(A: TransformMatrix, gamma) -> np.ndarray:
    """Map gamma_0..gamma_n at x0 to h(x0), h'(x0), ..., h^(n)(x0)."""
    values = np.asarray(getattr(gamma, "values", gamma), dtype=complex)
    if values.shape != (A.n + 1,):
        raise OrderError(
            f"gamma length {values.shape} does not match matrix order {A.n}")
    return A.entries @ values


@dataclass
class LambdaPoly:
    """Polynomial in the spectral parameter, ascending coefficients."""
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if not np.all(np.isfinite(c)):
            raise OrderError("polynomial coefficients must be finite")
        nz = np.nonzero(c)[0]
        self.coeffs = c[:nz[-1] + 1] if nz.size else c[:1] * 0

    @property
    def degree(self) -> int:
        return -1 if not np.any(self.coeffs) else len(self.coeffs) - 1

    def __call__(self, lam: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(lam, self.coeffs))


def solution_taylor_vectors(A: TransformMatrix) -> tuple[list[LambdaPoly], list[LambdaPoly]]:
    """Ordinary Taylor derivative vectors of u1/f and u2/f at x0.

    Entry k of the first list is the lambda-polynomial value of
    (u1/f)^{[k]}(x0); likewise for u2/f.  They come from multiplying the
    matrix into the interleaved lambda-power vectors, so entry k has
    lambda-degree at most floor(k/2), resp. floor((k-1)/2).
    """
    n = A.n
    u1_vec = []
    u2_vec = []
    for k in range(n + 1):
        c1 = [A.entries[k, 2 * d] for d in range(k // 2 + 1)]
        c2 = [A.entries[k, 2 * d + 1] for d in range((k + 1) // 2)]
        u1_vec.append(LambdaPoly(np.asarray(c1)))
        u2_vec.append(LambdaPoly(np.asarray(c2) if c2 else np.zeros(1)))
    return u1_vec, u2_vec


def taylor_eval(vec: list[LambdaPoly], lam: complex) -> np.ndarray:
    """Evaluate a derivative vector at a fixed lambda."""
    return np.array([p(lam) for p in vec])
