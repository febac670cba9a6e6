"""Exception types shared across the package, the check that an order
argument is an integer, and the flag that makes a shared array refuse
writes."""

import operator


class SppsError(Exception):
    """Base class for all errors raised by this package."""


class GridConfigError(SppsError, ValueError):
    """Grid construction or use with parameters that cannot work
    (too few nodes, anchor off the mesh, mismatched grids)."""


class DomainError(SppsError, ValueError):
    """Evaluation point outside the interval covered by a grid."""


class SamplingError(SppsError, ValueError):
    """A sampled function produced a non-finite value at some node."""


class SeedError(SppsError, ValueError):
    """Seed function unusable: vanishing (or nearly vanishing) on the
    grid, or a generated seed drifted below the safety threshold."""


class OrderError(SppsError, ValueError):
    """Requested order outside what was built: basis index past the
    family order, truncation level exceeding the cached basis, a jet
    operation that needs more coefficients than are carried."""


def _as_order(value, name: str) -> int:
    """value, an order argument called name, as an int.  Python and numpy
    integers pass; a float, even 4.0, or a bool raises OrderError rather
    than being truncated to an order nobody asked for."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise OrderError(f"{name} must be an integer, got {value!r}")


def _read_only(values):
    """values, a numpy array, flagged so that a write to it raises
    ValueError: for arrays that are shared, such as cached constants, where
    one write in place would change every later result that reads them."""
    values.flags.writeable = False
    return values


class AnchorError(SppsError, ValueError):
    """Jet operands anchored at different points."""


class JetDivisionError(SppsError, ZeroDivisionError):
    """Reciprocal of a jet whose constant coefficient is (numerically)
    zero."""


class RankCollapseError(SppsError, ValueError):
    """Least-squares design matrix lost rank; the projection is not
    determined."""


class EigenError(SppsError, RuntimeError):
    """Eigenvalue search cannot proceed: the characteristic function
    vanished at every Chebyshev point of the window."""


class AccuracyWarning(UserWarning):
    """Result still returned, but a documented accuracy limit was
    crossed (deep repeated numerical differentiation, truncation cap,
    an eigenvalue's residual above tol)."""
