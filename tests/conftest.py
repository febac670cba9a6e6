"""Shared fixtures: families are expensive enough to build once per session."""

import sys
import threading

import numpy as np
import pytest

import spps
from spps.series import _inv_factorials, _real_if_real


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


def _horner_reference(rows, s, lam, M, at):
    """The series module's former Horner kernel, kept as a reference:
    sum_{k<M} lam^k Y[2k+s] / (2k+s)! for Y = rows, family rows by order
    (psi or chi's ends), at the nodes `at`, highest term first, in one
    new accumulator of type result_type(rows, lam), a lam with no
    imaginary part counted as real."""
    top = 2 * M - 2 + s
    inv = _inv_factorials(top)
    lam = _real_if_real(lam)
    acc = (rows[top][at] * inv[top]).astype(np.result_type(rows[top], lam), copy=False)
    for k in range(M - 2, -1, -1):
        acc *= lam
        acc += rows[2 * k + s][at] * inv[2 * k + s]
    return acc


@pytest.fixture
def horner():
    """Reference for the series sums at b and the seed pieces' sums:
    horner(rows, s, lam, M, at)."""
    return _horner_reference


def _whole_grid_chain(h, family, n):
    """The generalized Taylor calculus's former chain, kept as a reference:
    gamma_0(h)..gamma_n(h) on the whole grid, each level one derivative of
    the last times phi (odd levels) or 1/phi (even levels); family None
    gives Jet.from_grid's plain chain of derivatives."""
    chain = [h.values]
    cur = h
    for k in range(1, n + 1):
        d = spps.derivative(cur)
        if family is not None:
            phi = family.phi.values
            d = spps.GridFunction(h.grid, (phi if k % 2 else 1.0 / phi) * d.values)
        cur = d
        chain.append(cur.values)
    return chain


@pytest.fixture
def gamma_chain():
    """Reference for the windowed derivative chains:
    gamma_chain(h, family, n), family None for plain derivatives."""
    return _whole_grid_chain


def _left_pinned_reference(problem, family, lam, M):
    """The eigen search's former characteristic function, kept as a
    reference: Phi = c3 u(b) + c4 u'(b) of u = beta1 u1 + beta2 u2 pinned
    to the left condition through u1, u2's initial values at x0 = a,
    beta1 = -c2 / f(a) and beta2 = c1 f(a) + c2 f'(a), so that u(a) = -c2
    and u'(a) = c1.  It holds only for a family anchored at a."""
    assert family.grid.x0_index == 0
    c1, c2 = problem.bc_left
    c3, c4 = problem.bc_right
    fa, fpa = family.f.values[0], family.f_prime.values[0]
    beta1, beta2 = -c2 / fa, c1 * fa + c2 * fpa
    u1b, u1pb, u2b, u2pb = spps.series._right_end(family, lam, M)[:4]
    return c3 * (beta1 * u1b + beta2 * u2b) + c4 * (beta1 * u1pb + beta2 * u2pb)


@pytest.fixture
def left_pinned():
    """Reference for the characteristic function of a family anchored at
    a: left_pinned(problem, family, lam, M)."""
    return _left_pinned_reference


def _at_once(call, n_threads=4):
    """call() in n_threads threads released together by a barrier, under a
    short switch interval, so that their steps interleave finely; returns
    each thread's result once all have joined, and raises what any raised."""
    start = threading.Barrier(n_threads, timeout=60)
    results, errors = [None] * n_threads, []

    def run(i):
        try:
            start.wait()
            results[i] = call()
        except Exception as e:  # reported by the calling thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


@pytest.fixture
def at_once():
    """Runs one call in several threads at once: at_once(call, n_threads=4)
    gives the list of their results."""
    return _at_once
