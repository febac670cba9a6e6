"""Truncated Taylor expansions (jets) with exact coefficient algebra.

A Jet carries the normalized coefficients c_j = h^(j)(x0) / j! of a
function at an anchor point.  Sums and products truncate to the shorter
operand, and reciprocals use the standard power-series recurrence.  The
transformation-matrix builders read a jet of phi and its reciprocal, so
their entries are exact up to floating point whenever the input jet is.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np

from .errors import (AccuracyWarning, AnchorError, JetDivisionError, OrderError, _as_order,
                     _read_only)
from .grid import _derivative_chain

# Below this the constant term counts as zero for division purposes.
_RECIP_EPS = 1e-14
# Jets extracted from sampled data degrade fast with depth; see from_grid.
_GRID_SAFE_ORDER = 4


@lru_cache(maxsize=None)
def _factorials(n: int) -> np.ndarray:
    """0!, 1!, ..., n! as floats, each the last times its index; shared, read only."""
    return _read_only(np.cumprod(np.concatenate(([1.0], np.arange(1.0, n + 1)))))


def _jet_order(order) -> int:
    """order, the order argument of a jet builder, as an int >= 0; a
    float, a bool or a negative order raises OrderError."""
    order = _as_order(order, "order")
    if order < 0:
        raise OrderError(f"order must be >= 0, got {order}")
    return order


class Jet:
    """Normalized Taylor coefficients of a function at x0."""

    __slots__ = ("x0", "coeffs")

    def __init__(self, x0: float, coeffs):
        self.x0 = float(x0)
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise OrderError("a jet needs at least the constant coefficient")
        self.coeffs = c

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, x0: float, order: int) -> "Jet":
        c = np.zeros(_jet_order(order) + 1, dtype=np.complex128)
        c[0] = value
        return cls(x0, c)

    @classmethod
    def identity(cls, x0: float, order: int) -> "Jet":
        """Jet of the coordinate function x."""
        if _jet_order(order) < 1:
            raise OrderError("identity jet needs order >= 1")
        c = np.zeros(order + 1, dtype=np.complex128)
        c[0] = x0
        c[1] = 1.0
        return cls(x0, c)

    @classmethod
    def from_derivatives(cls, derivs, x0: float) -> "Jet":
        """Build from raw derivative values h(x0), h'(x0), h''(x0), ..."""
        d = np.asarray(derivs, dtype=np.complex128)
        return cls(x0, d / _factorials(len(d) - 1))

    @classmethod
    def from_grid(cls, g, order: int) -> "Jet":
        """Extract a jet at the grid's anchor by repeated stencil differentiation.

        Each level multiplies the rounding noise by O(1/h), so this is a
        last resort for seeds with no closed form; an AccuracyWarning is
        issued past order 4.  Prefer exact jets whenever available.  The
        chain (grid._derivative_chain) runs on the at most 4 order + 1
        nodes around the anchor whose whole-grid derivatives it depends
        on, with their bits, and refuses g with SamplingError where it is
        not finite there.  order must be an integer >= 0, else OrderError.
        """
        order = _jet_order(order)
        if order > _GRID_SAFE_ORDER:
            warnings.warn(
                f"jet of order {order} from grid data: repeated numerical "
                f"differentiation beyond order {_GRID_SAFE_ORDER} loses "
                f"accuracy", AccuracyWarning, stacklevel=2)
        i0 = g.grid.x0_index
        return cls.from_derivatives([c[0] for c in _derivative_chain(g, i0, i0, order)], g.grid.x0)

    # -- algebra -----------------------------------------------------------

    def _match(self, other: "Jet") -> None:
        if self.x0 != other.x0:
            raise AnchorError(f"anchors differ: {self.x0} vs {other.x0}")

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._match(other)
        m = min(self.order, other.order)
        return Jet(self.x0, self.coeffs[:m + 1] + other.coeffs[:m + 1])

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._match(other)
            m = min(self.order, other.order)
            prod = np.convolve(self.coeffs[:m + 1], other.coeffs[:m + 1])
            return Jet(self.x0, prod[:m + 1])
        if np.isscalar(other):
            return Jet(self.x0, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        """Jet of 1/h; the constant coefficient must be nonzero, and not NaN."""
        a = self.coeffs
        if not abs(a[0]) > _RECIP_EPS:  # NaN fails too
            raise JetDivisionError(
                f"constant coefficient {a[0]} cannot be inverted: its modulus "
                f"is not above {_RECIP_EPS:g}")
        b = np.zeros_like(a)
        b[0] = 1.0 / a[0]
        for j in range(1, len(a)):
            b[j] = -np.dot(a[1:j + 1], b[j - 1::-1]) / a[0]
        return Jet(self.x0, b)

    def exp(self) -> "Jet":
        """Jet of exp(h)."""
        a = self.coeffs
        b = np.zeros_like(a)
        b[0] = np.exp(a[0])
        for k in range(1, len(a)):
            j = np.arange(1.0, k + 1)
            b[k] = np.dot(j * a[1:k + 1], b[k - 1::-1]) / k
        return Jet(self.x0, b)

    def truncate(self, order: int) -> "Jet":
        order = _as_order(order, "order")
        if order < 0 or order > self.order:
            raise OrderError(f"cannot truncate order {self.order} to {order}")
        return Jet(self.x0, self.coeffs[:order + 1])

    # -- inspection ---------------------------------------------------------

    def derivatives(self) -> np.ndarray:
        """Raw derivative values h(x0), h'(x0), ... recovered from coeffs."""
        return self.coeffs * _factorials(self.order)

    def eval(self, x) -> complex:
        """Evaluate the truncated expansion at x."""
        dx = np.asarray(x) - self.x0
        return np.polynomial.polynomial.polyval(dx, self.coeffs)

    def __repr__(self):
        return f"Jet(x0={self.x0}, order={self.order})"
