"""Independent references for the benchmark's correctness checks.

Nothing here calls spps.  Eigenvalues come from closed forms (constant
potential) or from a spectral Galerkin method in the eigenbasis of the
unperturbed operator (cosine potentials); series solutions of the
constant seed have closed forms in cosh/sinh; least-squares fits for the
constant seed are polynomial fits in the Legendre basis.
"""

from __future__ import annotations

import numpy as np

# boundary-condition codes: left end then right end, D = u = 0, N = u' = 0
BC_COEFFS = {"D": (1.0, 0.0), "N": (0.0, 1.0)}


def _wavenumbers(bc: str, L: float, count: int) -> np.ndarray:
    n = np.arange(count)
    if bc == "DD":
        return (n + 1) * np.pi / L
    if bc == "NN":
        return n * np.pi / L
    return (n + 0.5) * np.pi / L          # DN and ND


def constant_spectrum(c: float, L: float, bc: str, count: int) -> np.ndarray:
    """Largest `count` eigenvalues of u'' + c u = lambda u on [0, L], descending."""
    return c - _wavenumbers(bc, L, count) ** 2


def cosine_spectrum(c0: float, c1: float, k: int, L: float, bc: str,
                    count: int, modes: int = 192) -> np.ndarray:
    """Largest `count` eigenvalues for q = c0 + c1 cos(k pi x / L), descending.

    Galerkin in the normalized eigenfunctions of d^2/dx^2 with the same
    boundary conditions.  The even/odd reflections of q and of these
    modes are smooth, so the eigenvalues converge spectrally in `modes`;
    against the closed forms the error is about 1e-12 relative.
    """
    mu = _wavenumbers(bc, L, modes)
    t, w = np.polynomial.legendre.leggauss(4 * modes + 64)
    x = 0.5 * L * (t + 1.0)
    w = 0.5 * L * w
    trig = np.sin if bc in ("DD", "DN") else np.cos
    B = trig(np.outer(x, mu))
    B /= np.sqrt((w[:, None] * B * B).sum(axis=0))
    q = c0 + c1 * np.cos(k * np.pi * x / L)
    H = (B * (w * q)[:, None]).T @ B - np.diag(mu ** 2)
    return np.linalg.eigvalsh(0.5 * (H + H.T))[::-1][:count]


def constant_seed_solutions(v: float, lam: complex, t: np.ndarray):
    """u1, u1', u2, u2' for the constant seed f = v, with t = x - x0.

    u1 = v cosh(s t), u2 = sinh(s t) / (v s) with s^2 = lambda.
    """
    s = np.sqrt(complex(lam))
    ch, sh = np.cosh(s * t), np.sinh(s * t)
    return v * ch, v * s * sh, sh / (v * s), ch / v


def legendre_fit_l2(x: np.ndarray, y: np.ndarray, w: np.ndarray,
                    degree: int) -> float:
    """Weighted-L2 error of the best polynomial fit of given degree."""
    a, b = x[0], x[-1]
    s = (2.0 * x - (a + b)) / (b - a)
    sw = np.sqrt(w)
    V = np.polynomial.legendre.legvander(s, degree) * sw[:, None]
    coef, *_ = np.linalg.lstsq(V, sw * y, rcond=None)
    r = V @ coef - sw * y
    return float(np.sqrt(np.sum(np.abs(r) ** 2)))


def sine_derivatives(omega: float, phase: float, x0: float, n: int) -> np.ndarray:
    """h(x0), h'(x0), ..., h^(n)(x0) for h = sin(omega x + phase)."""
    k = np.arange(n + 1)
    return omega ** k * np.sin(omega * x0 + phase + k * np.pi / 2)


def digits(err: float) -> float:
    """Decimal digits of agreement for a relative error, capped at 17."""
    return float(-np.log10(max(float(err), 1e-17)))
