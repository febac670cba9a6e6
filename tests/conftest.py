"""Shared fixtures: families are expensive enough to build once per session."""

import numpy as np
import pytest

import spps


@pytest.fixture(scope="session")
def unit_family():
    # phi == 1 collapses every construct to its classical counterpart
    g = spps.Grid(0.0, 1.0, 2001, x0=0.0)
    f = spps.sample(lambda x: np.ones_like(x), g)
    return spps.build_family(f, 60)


@pytest.fixture(scope="session")
def exp_family():
    # f = e^x solves f'' + qf = 0 for q = -1
    g = spps.Grid(0.0, 1.0, 5001, x0=0.0)
    f = spps.sample(np.exp, g)
    return spps.build_family(f, 60)


@pytest.fixture(scope="session")
def interior_family():
    # Coarse grid with an interior anchor: repeated stencil differentiation
    # amplifies rounding noise near the one-sided boundary stencils, so deep
    # generalized-derivative chains need the anchor away from the endpoints
    # and a moderate node count.
    g = spps.Grid(0.0, 1.0, 101, x0=0.5)
    f = spps.sample(lambda x: np.exp(0.5 * x), g)
    return spps.build_family(f, 16)


@pytest.fixture(scope="session")
def q_zero():
    g = spps.Grid(0.0, 1.0, 1001, x0=0.0)
    return spps.sample(lambda x: np.zeros_like(x), g)


@pytest.fixture(scope="session")
def q_zero_family(q_zero):
    return spps.build_family(spps.build_seed(q_zero), 80)


def _rows_one_at_a_time(f, N, r=None):
    """The recursion row by row: each order of each family one cumulative
    integral of the previous order times its weight (phi r in place of
    phi for a weight r), then scaled by n."""
    phi = f * f
    phi_inv = 1.0 / phi
    phi_r = phi if r is None else phi * r
    one = spps.GridFunction(f.grid, np.ones(f.grid.n_nodes))
    X, Xt = [one], [one]
    for n in range(1, N + 1):
        weights = (phi_inv, phi_r) if n % 2 else (phi_r, phi_inv)
        for Y, w in zip((X, Xt), weights):
            Y.append(spps.cumulative_integral(Y[n - 1] * w))
            Y[n].values *= n
    return X, Xt


@pytest.fixture
def row_by_row():
    """Reference for family rows: X, Xt = row_by_row(f, N, r=None)."""
    return _rows_one_at_a_time
