"""Transformation matrix between generalized and ordinary derivatives.

The lower-triangular matrix A_n maps the generalized derivative vector
(gamma_0(h), ..., gamma_n(h)) at x0 to the ordinary derivative vector
(h(x0), h'(x0), ..., h^(n)(x0)).  Applying gamma_j to the basis element
psi_m walks down its own family, so gamma_j(psi_m)(x0) = m! delta_jm and
column m of A_n is the ordinary derivative vector of psi_m at x0 over m!.
The production builder therefore runs recint's recursion for psi_m and
chi_m on the Taylor coefficients at x0, from the constant 1, as matrices:
multiplying by a jet w is its lower-triangular Toeplitz matrix T(w) and
integrating from x0 is the shift J, so one step is K_psi = J T(1/phi) or
K_chi = J T(phi), and two steps are Q = K_psi K_chi.  Column m is then
one product of Q with column m - 2; it is exact up to rounding.

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
from functools import lru_cache
from math import comb, isfinite

import numpy as np

from .errors import OrderError, _as_order, _read_only
from .jets import Jet, _factorials


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
    if not np.isfinite(phi_jet.coeffs).all():
        raise OrderError("phi jet coefficients must be finite")
    if phi_jet.order < n - 1:
        raise OrderError(
            f"phi jet of order {phi_jet.order} cannot build A_{n}; "
            f"need order >= {n - 1}")
    return n


@lru_cache(maxsize=None)
def _operator_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where J·T(w) of order n reads w: the (n + 1, n + 1) lags i - 1 - j
    below the diagonal, n (the zero appended to w) elsewhere, and the
    divisors i of the rows, 1 for row 0; shared, read only."""
    i = np.arange(n + 1)
    lag = i[:, None] - 1 - i
    lag[lag < 0] = n
    div = np.maximum(i, 1).astype(float)[:, None]
    return _read_only(lag), _read_only(div)


def _integration_operator(w: np.ndarray) -> np.ndarray:
    """J·T(w) for the n jet coefficients w: times the jet w, then the
    integral from x0, on the coefficients 0..n of a jet."""
    lag, div = _operator_index(len(w))
    return np.append(w, 0.0)[lag] / div


def build_A_recursive(phi_jet: Jet, n: int) -> TransformMatrix:
    """Build A_n column by column from the jets of psi_0..psi_n.

    psi_m/m! = K_psi chi_(m-1)/(m-1)! and chi_m/m! = K_chi psi_(m-1)/(m-1)!
    on jet coefficient vectors of order n, with K_psi = J·T(1/phi) and
    K_chi = J·T(phi): T(w) is the lower-triangular Toeplitz matrix of a
    jet w (multiplication by w) and J the integration shift (coefficient
    j moves to j + 1 over j + 1).  With Q = K_psi K_chi, psi_(2j)/(2j)!
    is Q^j e_0 and psi_(2j+1)/(2j+1)! is Q^j K_psi e_0, so each column
    pair is Q times the pair before it: one (n+1)^2 product per column.
    Column m is diag(k!) times psi_m/m!, psi_m's derivative vector over
    m!.  Only the phi jet's first n coefficients are read, so a phi jet
    of order n-1 suffices and a longer one gives the same matrix.
    """
    n = _check_budget(phi_jet, n)
    if n == 0:
        return TransformMatrix(0, np.ones((1, 1), dtype=complex))
    phi = phi_jet.truncate(n - 1)
    k_psi = _integration_operator(phi.reciprocal().coeffs)
    q = k_psi @ _integration_operator(phi.coeffs)
    # psi_m/m! in row m, the transpose of column m; one spare row takes
    # the last pair whole
    psi = np.zeros((n + 2, n + 1), dtype=complex)
    psi[0, 0] = 1.0
    psi[1] = k_psi[:, 0]
    for m in range(2, n + 1, 2):
        np.matmul(psi[m - 2:m], q.T, out=psi[m:m + 2])
    return TransformMatrix(n, np.multiply(psi[:n + 1].T, _factorials(n)[:, None], order="C"))


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
    """Polynomial in the spectral parameter, ascending coefficients.

    The coefficients are copied, finite (else OrderError) and trimmed of
    trailing zeros; the zero polynomial keeps one zero coefficient."""
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=complex, ndmin=1)
        # a few coefficients: Python's test of each part beats a numpy reduction
        if not all(map(isfinite, c.view(float).ravel().tolist())):
            raise OrderError("polynomial coefficients must be finite")
        nz = c.nonzero()[0]
        self.coeffs = c[:nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)

    @classmethod
    def _of(cls, coeffs: np.ndarray) -> "LambdaPoly":
        """The polynomial of coeffs as they are, with no copy or check: a
        complex array, finite, trimmed and its own, as __post_init__
        leaves one."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        return p

    @property
    def degree(self) -> int:
        return -1 if not np.any(self.coeffs) else len(self.coeffs) - 1

    def __call__(self, lam: complex) -> complex:
        return complex(np.polynomial.polynomial.polyval(lam, self.coeffs))


def solution_taylor_vectors(A: TransformMatrix) -> tuple[list[LambdaPoly], list[LambdaPoly]]:
    """Ordinary Taylor derivative vectors of u1/f and u2/f at x0.

    Entry k of the first list is the lambda-polynomial value of
    (u1/f)^{[k]}(x0); likewise for u2/f.  They come from multiplying the
    matrix into the interleaved lambda-power vectors, so the coefficients
    of entry k are row k's even columns A[k, 0:k+1:2], of lambda-degree
    at most floor(k/2), resp. its odd columns A[k, 1:k+1:2], of degree at
    most floor((k-1)/2).  Each is a LambdaPoly of its own trimmed copy of
    those entries; the entries read, A's lower triangle, are checked to
    be finite once (else OrderError), and its upper triangle is not read.
    """
    rows = A.entries
    if not (np.isfinite(rows).all() or np.isfinite(rows[np.tril_indices(A.n + 1)]).all()):
        raise OrderError("polynomial coefficients must be finite")
    # each row's polynomial ends at its last nonzero entry read, as
    # LambdaPoly trims it: its length is the largest of those entries' j + 1
    lengths = (rows != 0) * _lambda_lengths(A.n)
    return tuple([LambdaPoly._of(rows[k, s:s + 2 * m - 1:2].copy() if m
                                 else np.zeros(1, dtype=complex))
                  for k, m in enumerate(lengths[:, s::2].max(axis=1, initial=0).tolist())]
                 for s in (0, 1))


@lru_cache(maxsize=None)
def _lambda_lengths(n: int) -> np.ndarray:
    """j + 1 for entry (k, 2 j + s) of A_n, the coefficient of lambda^j in
    row k's polynomial of parity s, in the lower triangle, where rows read
    it, and 0 above it; shared, read only."""
    c = np.arange(n + 1)
    lengths = np.where(c <= c[:, None], c // 2 + 1, 0)
    return _read_only(lengths)


def taylor_eval(vec: list[LambdaPoly], lam: complex) -> np.ndarray:
    """Evaluate a derivative vector at a fixed lambda."""
    return np.array([p(lam) for p in vec])
