import gc
import math
import warnings
import weakref

import numpy as np
import pytest

import spps
from spps import (
    DomainError,
    GenPolynomial,
    OrderError,
    RankCollapseError,
    SamplingError,
    eval_gen_polynomial,
    gamma_seq,
    gen_taylor_coeffs,
    least_squares_project,
    remainder_check,
    sample,
    u1_grid,
)


# -- generalized derivatives ---------------------------------------------------

def test_gamma_reduces_to_ordinary_derivatives(unit_family):
    h = sample(lambda x: x**2, unit_family.grid)
    seq = gamma_seq(h, unit_family, 2)
    assert np.max(np.abs(seq.values - [0.0, 0.0, 2.0])) < 1e-6


def test_gamma_zero_is_point_value(interior_family):
    h = sample(np.sin, interior_family.grid)
    seq = gamma_seq(h, interior_family, 0)
    assert abs(seq.values[0] - math.sin(0.5)) < 1e-14


def test_basis_duality(interior_family):
    # gamma_k(psi_m)(x0) = k! when k = m, 0 for k < m
    for m in range(7):
        seq = gamma_seq(interior_family.psi(m), interior_family, m)
        for k in range(m + 1):
            want = math.factorial(k) if k == m else 0.0
            scaled = abs(seq.values[k] - want) / math.factorial(m)
            assert scaled < 1e-4, f"duality fails at k={k}, m={m}"


def test_u1_over_f_gamma_pattern(interior_family):
    # even orders pick up powers of lambda, odd orders vanish
    lam = 3.0
    h = u1_grid(interior_family, lam, 8) / interior_family.f
    seq = gamma_seq(h, interior_family, 4)
    expect = np.array([1.0, 0.0, lam, 0.0, lam**2])
    scale = np.array([1.0, lam**0.5, lam, lam**1.5, lam**2])
    assert np.max(np.abs(seq.values - expect) / scale) < 1e-4


def test_gamma_degradation_flag(interior_family):
    h = sample(np.exp, interior_family.grid)
    assert not gamma_seq(h, interior_family, 6).degraded
    assert gamma_seq(h, interior_family, 7).degraded


# -- generalized Taylor coefficients -------------------------------------------

def test_coefficient_round_trip(interior_family):
    rng = np.random.default_rng(2024)
    for _ in range(12):
        alpha = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
        p = GenPolynomial(alpha, interior_family)
        back = gen_taylor_coeffs(p.on_grid(), interior_family, 6)
        assert np.max(np.abs(back.alpha - alpha)) < 1e-6


def test_basis_element_coefficients(interior_family):
    p = gen_taylor_coeffs(interior_family.psi(3), interior_family, 5)
    expect = np.zeros(6)
    expect[3] = 1.0
    assert np.max(np.abs(p.alpha - expect)) < 1e-6


def test_maclaurin_degeneration():
    # anchor must sit in the interior: the order-5 derivative chain loses all
    # accuracy when every level redifferentiates a one-sided boundary stencil
    g = spps.Grid(-1.0, 1.0, 201, x0=0.0)
    fam = spps.build_family(sample(lambda x: np.ones_like(x), g), 12)
    p = gen_taylor_coeffs(sample(np.exp, g), fam, 5)
    expect = 1.0 / np.array([math.factorial(k) for k in range(6)])
    assert np.max(np.abs(p.alpha - expect)) < 1e-5


def test_coefficients_must_be_finite(interior_family):
    with pytest.raises(OrderError):
        GenPolynomial(np.array([1.0, np.nan]), interior_family)
    with pytest.raises(OrderError):
        GenPolynomial(np.zeros(interior_family.N + 2), interior_family)
    # a scalar, a 2-D array or no coefficient at all is no expansion
    for bad in (2.5, np.array(2.5), np.ones((2, 3)), np.ones((3, 1)), [], np.array([])):
        with pytest.raises(OrderError, match="non-empty 1-D"):
            GenPolynomial(bad, interior_family)


# -- evaluation ----------------------------------------------------------------

def test_eval_constant_polynomial(interior_family):
    p = GenPolynomial(np.array([2.5 + 0j]), interior_family)
    assert abs(eval_gen_polynomial(p, 0.8) - 2.5) < 1e-12


def test_eval_at_anchor_gives_alpha0(interior_family):
    p = GenPolynomial(np.array([1.5, 0.3, -2.0]), interior_family)
    assert abs(eval_gen_polynomial(p, 0.5) - 1.5) < 1e-12


def test_eval_monomial_degeneration(unit_family):
    p = GenPolynomial(np.array([0.0, 1.0]), unit_family)
    assert abs(eval_gen_polynomial(p, 0.7) - 0.7) < 1e-10


# -- remainder bound -----------------------------------------------------------

def test_remainder_exact_on_polynomials(interior_family):
    alpha = np.array([0.5, -1.0, 0.25, 1.0])
    p = GenPolynomial(alpha, interior_family)
    rep = remainder_check(p.on_grid(), interior_family, 3, [0.6, 0.8, 1.0])
    assert rep.passed


def test_remainder_classical_bound(unit_family):
    h = sample(np.exp, unit_family.grid)
    pts = np.linspace(0.0, 1.0, 20)
    rep = remainder_check(h, unit_family, 3, pts)
    assert rep.passed
    assert rep.violations == []


def test_remainder_for_series_ratio(interior_family):
    h = u1_grid(interior_family, 3.0, 8) / interior_family.f
    rep = remainder_check(h, interior_family, 3, np.linspace(0.5, 1.0, 20))
    assert rep.passed


def test_remainder_takes_points_of_any_shape_flattened(interior_family):
    # a 2-D array of points is one sorted list of points, not numpy's
    # "truth value of an array is ambiguous"
    h = sample(np.exp, interior_family.grid)
    rep = remainder_check(h, interior_family, 3, [[0.9, 0.7], [0.8, 0.6]])
    flat = remainder_check(h, interior_family, 3, [0.6, 0.7, 0.8, 0.9])
    assert rep.points.shape == (4,) and rep.points.tobytes() == flat.points.tobytes()
    assert rep.slacks.tobytes() == flat.slacks.tobytes() and rep.passed
    assert remainder_check(h, interior_family, 3, 0.8).points.shape == (1,)


def test_remainder_differentiates_once_per_level(interior_family, monkeypatch):
    # remainder_check at order n differentiates n + 1 times, as its one
    # chain gives both P_n and gamma_(n+1); gamma_seq at n and
    # Jet.from_grid at order n differentiate n times each
    calls = []
    real = spps.grid._derivative_rows
    monkeypatch.setattr(spps.grid, "_derivative_rows",
                        lambda *args: calls.append(1) or real(*args))
    h = sample(np.exp, interior_family.grid)
    for n in (0, 3, 5):
        for call, levels in ((lambda: remainder_check(h, interior_family, n, [0.6, 0.9]), n + 1),
                             (lambda: gamma_seq(h, interior_family, n), n),
                             (lambda: spps.Jet.from_grid(h, n), n)):
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", spps.AccuracyWarning)
                call()
            assert len(calls) == levels


@pytest.mark.parametrize("complex_h, complex_family", [(False, False), (True, True),
                                                       (True, False), (False, True)])
@pytest.mark.parametrize("n", [0, 3])
def test_remainder_slacks_equal_three_point_evaluations(complex_h, complex_family, n,
                                                       gamma_chain):
    # h, P_n and psi_(n+1) read through one stencil, P_n summed at the
    # stencils' nodes alone, give the slacks of evaluating each with its own
    # .at on the whole grid, bit for bit
    g = spps.Grid(0.0, 1.0, 101, x0=0.5)
    c = 0.5 + 0.2j if complex_family else 0.5
    fam = spps.build_family(sample(lambda x: np.exp(c * x), g), 8)
    h = sample(lambda x: np.sin(2.3 * x + 0.4) * (1 + 0.5j if complex_h else 1.0), g)
    pts = np.array([0.5, 0.537, 0.6, 0.81234, 0.95, 1.0])
    rep = remainder_check(h, fam, n, pts)
    assert rep.slacks.tobytes() == _whole_grid_slacks(h, fam, n, pts, gamma_chain).tobytes()


def _whole_grid_slacks(h, fam, n, pts, gamma_chain):
    """remainder_check's slacks at the sorted pts from the whole-grid chain
    and P_n, h and psi_(n+1) each evaluated with its own .at."""
    chain = gamma_chain(h, fam, n + 1)
    i0 = fam.grid.x0_index
    alpha = np.array([c[i0] for c in chain[:-1]]) / [math.factorial(k) for k in range(n + 1)]
    err = np.abs(h.at(pts) - GenPolynomial(alpha, fam).on_grid().at(pts))
    hi = np.minimum(np.searchsorted(fam.grid.nodes, pts, side="right") + 1, fam.grid.n_nodes)
    gmax = np.maximum.accumulate(np.abs(chain[-1])[i0:])[hi - 1 - i0]
    bound = gmax * np.abs(fam.psi(n + 1).at(pts)) / math.factorial(n + 1)
    return bound - err


# -- windows: the chains read the nodes their results depend on ------------------

def _rough_case(n_nodes, anchor, complex_h, complex_seed):
    """h and a family of order 9 on a grid of n_nodes anchored at node
    anchor, from random node values: no smoothness hides a wrong stencil."""
    rng = np.random.default_rng([n_nodes, anchor, complex_h, complex_seed])
    g = spps.Grid(0.0, 1.0, n_nodes, x0=anchor / (n_nodes - 1))
    assert g.x0_index == anchor
    h = rng.standard_normal(n_nodes) + (1j * rng.standard_normal(n_nodes) if complex_h else 0)
    f = rng.uniform(0.5, 2.0, n_nodes) * (np.exp(1j * rng.uniform(-1, 1, n_nodes))
                                          if complex_seed else 1.0)
    return spps.GridFunction(g, h), spps.build_family(spps.GridFunction(g, f), 9)


@pytest.mark.parametrize("complex_h, complex_seed", [(False, False), (True, True),
                                                     (True, False), (False, True)])
@pytest.mark.parametrize("n_nodes", [5, 6, 9, 17, 41])
def test_windowed_chains_equal_the_whole_grid(n_nodes, complex_h, complex_seed, gamma_chain):
    # anchors at both ends, next to them and in the middle, and orders to 8:
    # on the smaller grids the windows span the whole grid
    for anchor in sorted({0, 1, 2, n_nodes - 3, n_nodes - 1, n_nodes // 2}):
        h, fam = _rough_case(n_nodes, anchor, complex_h, complex_seed)
        g = fam.grid
        pts = np.sort(np.concatenate(([g.x0, g.b], np.random.default_rng(anchor).uniform(g.x0, g.b, 4))))
        for n in range(9):
            want = np.array([c[anchor] for c in gamma_chain(h, fam, n)])
            seq = gamma_seq(h, fam, n)
            assert seq.values.dtype == want.dtype and seq.values.tobytes() == want.tobytes()
            alpha = gen_taylor_coeffs(h, fam, n).alpha
            assert alpha.tobytes() == (want / [math.factorial(k) for k in range(n + 1)]).tobytes()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", spps.AccuracyWarning)
                jet = spps.Jet.from_grid(h, n)
            plain = [c[anchor] for c in gamma_chain(h, None, n)]
            assert jet.coeffs.tobytes() == spps.Jet.from_derivatives(plain, g.x0).coeffs.tobytes()
            slacks = remainder_check(h, fam, n, pts).slacks
            assert slacks.tobytes() == _whole_grid_slacks(h, fam, n, pts, gamma_chain).tobytes()


@pytest.mark.parametrize("anchor", [0, 3])
def test_windows_need_a_grid_of_five_nodes(anchor):
    # as on the whole grid: a chain that differentiates needs 5 nodes
    g = spps.Grid(0.0, 1.0, 4, x0=anchor / 3)
    h = sample(np.exp, g)
    fam = spps.build_family(h, 4)
    # order 0 reads the anchor alone: a NaN at any other node is never read
    lone = spps.GridFunction(g, np.where(np.arange(4) == anchor, h.values, np.nan))
    assert gamma_seq(lone, fam, 0).values[0] == h.values[anchor]
    assert spps.Jet.from_grid(lone, 0).coeffs[0] == h.values[anchor]
    for call in (lambda: gamma_seq(h, fam, 1), lambda: gen_taylor_coeffs(h, fam, 2),
                 lambda: remainder_check(h, fam, 0, [g.b]), lambda: spps.Jet.from_grid(h, 1)):
        with pytest.raises(spps.GridConfigError, match="at least 5 nodes"):
            call()


def test_polynomial_points_equal_the_whole_grid_sum(interior_family):
    # eval_gen_polynomial sums P at the points' stencil nodes alone, with
    # the bits on_grid's whole-grid sum gives there, zero terms skipped
    for alpha in ([0.5, 0.0, -2.0, 0.0], [1 + 2j, 0.25, 0.0, 3j, -1.0], [0.0]):
        p = GenPolynomial(np.array(alpha), interior_family)
        x = np.array([0.0, 0.013, 0.5, 0.77, 0.99, 1.0])
        assert eval_gen_polynomial(p, x).tobytes() == p.on_grid().at(x).tobytes()
        assert eval_gen_polynomial(p, 0.3) == p.on_grid().at(0.3)


def test_remainder_rejects_negative_order(interior_family):
    h = sample(np.exp, interior_family.grid)
    with pytest.raises(OrderError):
        remainder_check(h, interior_family, -1, [0.8])


def test_remainder_rejects_points_left_of_anchor(interior_family):
    h = sample(np.exp, interior_family.grid)
    with pytest.raises(DomainError):
        remainder_check(h, interior_family, 3, [0.2])


def test_remainder_needs_next_basis_function(interior_family):
    h = sample(np.exp, interior_family.grid)
    with pytest.raises(OrderError):
        remainder_check(h, interior_family, interior_family.N, [0.8])


# -- least squares -------------------------------------------------------------

def test_projection_recovers_span_member(interior_family):
    h = interior_family.phi_k(2)
    r = least_squares_project(h, interior_family, 4, "full")
    assert r.l2_error < 1e-8
    expect = np.zeros(5)
    expect[2] = 1.0
    assert np.max(np.abs(r.coefficients - expect)) < 1e-7


def test_even_system_complete_on_right_half(unit_family):
    # approximating x by {1, x^2, x^4, ...} on (0,1) keeps improving
    h = sample(lambda x: x, unit_family.grid)
    errs = [least_squares_project(h, unit_family, N, "even").l2_error
            for N in (2, 6, 10, 14)]
    assert all(b < 0.9 * a for a, b in zip(errs, errs[1:]))


def test_even_system_stalls_on_symmetric_interval():
    # on (-1,1) even functions cannot follow an odd target; the union can
    g = spps.Grid(-1.0, 1.0, 2001, x0=0.0)
    fam = spps.build_family(sample(lambda x: np.ones_like(x), g), 30)
    h = sample(lambda x: x, g)
    stall = math.sqrt(2.0 / 3.0)
    for N in (8, 16, 24):
        err = least_squares_project(h, fam, N, "even").l2_error
        assert abs(err - stall) < 1e-3
    assert least_squares_project(h, fam, 9, "full").l2_error < 1e-6


def test_projection_error_monotone_in_order(exp_family):
    h = sample(lambda x: np.sin(3 * x), exp_family.grid)
    errs = [least_squares_project(h, exp_family, N, "full").l2_error
            for N in (2, 4, 6, 8)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12


def test_projection_reports_conditioning(exp_family):
    h = sample(np.cos, exp_family.grid)
    r = least_squares_project(h, exp_family, 6, "full")
    assert r.condition_estimate >= 1.0
    assert np.isfinite(r.condition_estimate)
    assert r.max_error >= 0.0


def _assert_near_lstsq(r, B, h):
    """r solves the weighted problem of the (n_nodes, k) design B: its
    normal-equation residual is at rounding level, and its l2_error,
    max_error and condition_estimate are lstsq's to rounding."""
    g = h.grid
    w = np.full(g.n_nodes, g.h)
    w[0] = w[-1] = g.h / 2.0
    sw = np.sqrt(w)
    A, b = sw[:, None] * B, sw * h.values
    sol, _, _, svals = np.linalg.lstsq(A, b, rcond=None)
    bnorm = np.linalg.norm(b)
    normal = A.conj().T @ (A @ r.coefficients - b)
    assert np.linalg.norm(normal) <= 1e-13 * svals[0] * bnorm
    assert abs(r.l2_error - np.linalg.norm(A @ sol - b)) <= 1e-14 * bnorm
    assert abs(r.max_error - np.max(np.abs(B @ sol - h.values))) <= 1e-12
    assert abs(r.condition_estimate / (svals[0] / svals[-1]) - 1.0) <= 1e-10


@pytest.mark.parametrize("which", ["even", "odd", "full"])
def test_projection_equals_a_column_stack_of_phi_k(exp_family, which):
    # the design matrix is the column stack of phi_k: the projection solves
    # its weighted system to rounding, as lstsq does
    h = sample(lambda x: np.sin(3 * x) + 1j * np.cos(x), exp_family.grid)
    r = least_squares_project(h, exp_family, 9, which)
    B = np.column_stack([exp_family.phi_k(k).values for k in r.orders])
    assert r.orders == tuple(range({"even": 0, "odd": 1, "full": 0}[which], 10,
                                   1 if which == "full" else 2))
    _assert_near_lstsq(r, B, h)


@pytest.mark.parametrize("complex_h, complex_seed", [(False, False), (True, True),
                                                     (True, False), (False, True)])
def test_projection_equals_the_column_ordered_design(complex_h, complex_seed):
    # the design matrix f * psi_k, formed as the (n_nodes, k) column matrix,
    # for every slice, real and complex seeds and targets
    g = spps.Grid(0.0, 1.0, 301, x0=0.25)
    c = 0.5 + 0.3j if complex_seed else 0.5
    fam = spps.build_family(sample(lambda x: np.exp(c * x), g), 12)
    h = sample(lambda x: np.sin(3 * x) + (1j * np.cos(x) if complex_h else 0), g)
    for N, which, (start, step) in ((11, "full", (0, 1)), (10, "even", (0, 2)), (9, "odd", (1, 2))):
        r = least_squares_project(h, fam, N, which)
        B = np.multiply(fam.f.values[:, None], fam._grow(N)[start:N + 1:step].T, order="C")
        _assert_near_lstsq(r, B, h)


def test_rank_collapse_detected():
    # more basis columns than grid nodes forces a rank-deficient system
    g = spps.Grid(0.0, 1.0, 21, x0=0.0)
    fam = spps.build_family(sample(lambda x: np.ones_like(x), g), 30)
    h = sample(lambda x: x, g)
    with pytest.raises(RankCollapseError):
        least_squares_project(h, fam, 25, "full")


@pytest.mark.parametrize("complex_h, complex_seed", [(False, False), (True, True),
                                                     (True, False), (False, True)])
def test_one_column_projections_report_their_residual(complex_h, complex_seed):
    # the slices of one column, N = 0 full, N = 1 even and N = 1, 2 odd,
    # report the errors of their own residual
    g = spps.Grid(0.0, 1.0, 501, x0=0.0)
    c = 0.7 + 0.2j if complex_seed else 0.7
    fam = spps.build_family(sample(lambda x: np.exp(c * x), g), 8)
    h = sample(lambda x: np.sin(3 * x) + (1j * np.cos(x) if complex_h else 0), g)
    for N, which in ((0, "full"), (1, "even"), (1, "odd"), (2, "odd")):
        r = least_squares_project(h, fam, N, which)
        assert len(r.orders) == 1
        _assert_near_lstsq(r, np.column_stack([fam.phi_k(k).values for k in r.orders]), h)


@pytest.mark.parametrize("N, which", [(17, "full"), (19, "odd")])
def test_ill_conditioned_projections_report_their_coefficients_residual(N, which):
    # at a condition of 1e10 and more, l2_error and max_error are those of
    # the coefficients returned, to the rounding of evaluating B x - h, and
    # the coefficients solve the weighted problem as well as lstsq's
    g = spps.Grid(0.0, 1.0, 301, x0=0.5)
    fam = spps.build_family(sample(spps.get_seed("exp", c=0.7).func, g), 30)
    h = sample(lambda x: np.sin(3 * x + 0.2), g)
    r = least_squares_project(h, fam, N, which)
    assert r.condition_estimate >= 1e10
    w = np.full(g.n_nodes, g.h)
    w[0] = w[-1] = g.h / 2.0
    sw = np.sqrt(w)
    B = np.column_stack([fam.phi_k(k).values for k in r.orders])
    resid = B @ r.coefficients - h.values
    size = np.abs(B) @ np.abs(r.coefficients)  # what rounds in B x
    eps = np.finfo(float).eps
    assert abs(r.l2_error - np.linalg.norm(sw * resid)) <= 1e3 * eps * np.linalg.norm(sw * size)
    assert abs(r.max_error - np.max(np.abs(resid))) <= 1e3 * eps * np.max(size)
    A, b = sw[:, None] * B, sw * h.values
    sol = np.linalg.lstsq(A, b, rcond=None)[0]
    scale = np.linalg.norm(A, 2) * np.linalg.norm(b)
    optimality = np.linalg.norm(A.T @ (A @ r.coefficients - b)) / scale
    assert optimality <= max(10 * np.linalg.norm(A.T @ (A @ sol - b)) / scale, 1e-13)
    assert abs(r.l2_error - np.linalg.norm(A @ sol - b)) <= 1e-12 * np.linalg.norm(b)


def _projections(fam, h, Ns):
    return {(N, which): least_squares_project(h, fam, N, which)
            for N in Ns for which in ("even", "odd", "full")}


def test_projections_do_not_depend_on_the_orders_asked_before():
    # every slice's basis grows as far as asked: N = 2..16 asked in
    # ascending order on one family and in descending order on a fresh one
    # give the same bits
    g = spps.Grid(0.0, 1.0, 2001, x0=0.3)
    f = sample(lambda x: np.exp(0.7 * x), g)
    h = sample(lambda x: np.sin(2.3 * x + 0.4), g)
    up = _projections(spps.build_family(f, 30), h, range(2, 17))
    down = _projections(spps.build_family(f, 30), h, range(16, 1, -1))
    for key, r in up.items():
        s = down[key]
        assert r.coefficients.tobytes() == s.coefficients.tobytes(), key
        assert (r.l2_error, r.max_error, r.condition_estimate) == \
            (s.l2_error, s.max_error, s.condition_estimate), key


def test_a_basis_holds_the_columns_of_the_largest_order_asked():
    g = spps.Grid(0.0, 1.0, 201, x0=0.5)
    fam = spps.build_family(sample(np.exp, g), 20)
    h = sample(np.cos, g)
    for N, which in ((6, "even"), (3, "full"), (2, "even")):
        least_squares_project(h, fam, N, which)
    assert sorted(fam._bases) == [(0, 1), (0, 2)]
    assert fam._bases[0, 2].size == 4 and fam._bases[0, 1].size == 4
    assert len(fam._sup_norms) == 7  # psi_0..psi_6: the orders the bases read


def test_rank_collapse_after_a_smaller_order_succeeded():
    # the basis of the first columns stays, and the larger N still collapses
    g = spps.Grid(0.0, 1.0, 21, x0=0.0)
    fam = spps.build_family(sample(lambda x: np.ones_like(x), g), 30)
    h = sample(lambda x: x, g)
    assert least_squares_project(h, fam, 3, "full").l2_error < 1e-12
    with pytest.raises(RankCollapseError, match="rank"):
        least_squares_project(h, fam, 25, "full")
    with pytest.raises(RankCollapseError):
        least_squares_project(h, fam, 24, "full")
    assert least_squares_project(h, fam, 3, "full").l2_error < 1e-12


def test_a_freed_family_frees_its_bases():
    g = spps.Grid(0.0, 1.0, 201, x0=0.5)
    fam = spps.build_family(sample(np.exp, g), 10)
    least_squares_project(sample(np.cos, g), fam, 6, "full")
    refs = [weakref.ref(fam), weakref.ref(fam._bases[0, 1])]
    del fam
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_threads_projecting_on_one_family_agree(at_once):
    # four threads growing one fresh family's bases at once get the results
    # of a family projected on alone
    g = spps.Grid(0.0, 1.0, 2001, x0=0.5)
    f = sample(lambda x: np.exp(0.7 * x), g)
    h = sample(lambda x: np.sin(2.3 * x + 0.4), g)
    want = _projections(spps.build_family(f, 30), h, (4, 16))
    fam = spps.build_family(f, 30)
    for got in at_once(lambda: _projections(fam, h, (4, 16))):
        for key, r in want.items():
            assert got[key].coefficients.tobytes() == r.coefficients.tobytes(), key
            assert got[key].l2_error == r.l2_error and got[key].max_error == r.max_error
    assert [b.size for b in fam._bases.values()] == [9, 8, 17]


@pytest.mark.parametrize("node", [0, 50, 100])
def test_projection_refuses_a_non_finite_target(interior_family, node):
    h = sample(np.exp, interior_family.grid)
    h.values[node] = np.inf if node == 100 else np.nan
    h.values[node + 1:] = np.nan
    with pytest.raises(SamplingError, match=f"h value (nan|inf) at node {node} "):
        least_squares_project(h, interior_family, 4, "full")


def _refused_where_read(result, refused, unread):
    """result(h, fam) for h = sin on 201 nodes with x0 = 0.5 (node 100) and
    an exp family: a NaN at a node of refused raises SamplingError naming
    that node, and one at a node of unread leaves the clean result's bits."""
    g = spps.Grid(0.0, 1.0, 201, x0=0.5)
    fam = spps.build_family(sample(lambda x: np.exp(0.7 * x), g), 8)
    clean = result(sample(np.sin, g), fam)
    for node in refused + unread:
        h = sample(np.sin, g)
        h.values[node] = np.nan
        if node in refused:
            with pytest.raises(SamplingError, match=f"h value nan at node {node} "):
                result(h, fam)
        else:
            assert result(h, fam).tobytes() == clean.tobytes()


def test_remainder_refuses_a_non_finite_target_where_its_chain_reads():
    # the chain reads nodes 92..189 of this grid
    _refused_where_read(lambda h, fam: remainder_check(h, fam, 3, [0.7, 0.9]).slacks,
                        (120, 189), (91, 190))


@pytest.mark.parametrize("result", [lambda h, fam: gamma_seq(h, fam, 3).values,
                                    lambda h, fam: gen_taylor_coeffs(h, fam, 3).alpha,
                                    lambda h, fam: spps.Jet.from_grid(h, 3).coeffs])
def test_gammas_refuse_a_non_finite_target_where_their_chain_reads(result):
    # at n = 3 the chain reads nodes 94..106: both ends are refused, and
    # the nodes just outside are never read
    _refused_where_read(result, (94, 106), (93, 107))


@pytest.mark.parametrize("bad", [2.5, 2.0, True])
def test_gamma_order_must_be_an_integer(interior_family, bad):
    h = sample(np.exp, interior_family.grid)
    with pytest.raises(OrderError, match="n must be an integer"):
        gamma_seq(h, interior_family, bad)


@pytest.mark.parametrize("bad, message", [(2.5, "order must be an integer"),
                                          (2.0, "order must be an integer"),
                                          (True, "order must be an integer"),
                                          (-1, "order must be >= 0")])
def test_grid_jet_order_must_be_a_non_negative_integer(interior_family, bad, message):
    h = sample(np.exp, interior_family.grid)
    with pytest.raises(OrderError, match=message):
        spps.Jet.from_grid(h, bad)


@pytest.mark.parametrize("bad", [4.5, 4.0, True])
def test_projection_order_must_be_an_integer(interior_family, bad):
    h = sample(np.exp, interior_family.grid)
    with pytest.raises(OrderError, match="N must be an integer"):
        least_squares_project(h, interior_family, bad, "full")


@pytest.mark.parametrize("call", [lambda h, fam: gamma_seq(h, fam, 2),
                                  lambda h, fam: remainder_check(h, fam, 2, [0.6]),
                                  lambda h, fam: least_squares_project(h, fam, 2)])
def test_h_must_live_on_the_family_grid(interior_family, call):
    h = sample(np.exp, spps.Grid(0.0, 1.0, 51, x0=0.5))
    with pytest.raises(spps.GridConfigError, match="family's grid"):
        call(h, interior_family)


def test_gamma_order_must_not_be_negative(interior_family):
    with pytest.raises(OrderError, match="n must be >= 0"):
        gamma_seq(sample(np.exp, interior_family.grid), interior_family, -1)


def test_projection_needs_an_order(interior_family):
    # the odd half has no order <= 0
    with pytest.raises(OrderError, match="no basis orders"):
        least_squares_project(sample(np.exp, interior_family.grid), interior_family, 0, "odd")


def test_real_family_polynomials_stay_real(interior_family):
    # a real family and real h: alpha, on_grid and the point values are
    # float64; on_grid is the real part of the complex sum bit for bit, and
    # the point values are GridFunction.at of it, whose real weighted sum
    # numpy adds in another order than a complex one
    fam = interior_family
    assert fam.f.is_real
    p = gen_taylor_coeffs(sample(np.exp, fam.grid), fam, 5)
    assert p.alpha.dtype == np.float64
    values = p.on_grid().values
    assert values.dtype == np.float64
    as_complex = GenPolynomial(p.alpha.astype(complex), fam).on_grid().values
    assert as_complex.dtype == np.complex128
    assert np.array_equal(values, as_complex.real)
    x = np.linspace(0.0, 1.0, 7)
    at = eval_gen_polynomial(p, x)
    assert at.dtype == np.float64
    assert np.array_equal(at, p.on_grid().at(x))
    want = eval_gen_polynomial(GenPolynomial(p.alpha + 0j, fam), x).real
    assert np.max(np.abs(at - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(values))
    # ints are taken as float64
    assert GenPolynomial([1, 0, 2], fam).alpha.dtype == np.float64


def test_complex_family_polynomials_stay_complex(interior_family):
    g = interior_family.grid
    fam = spps.build_family(sample(lambda x: np.exp((0.5 + 0.2j) * x), g), 6)
    p = GenPolynomial(np.array([1.0, 0.5, -0.25]), fam)
    assert p.alpha.dtype == np.float64
    assert p.on_grid().values.dtype == np.complex128
    assert eval_gen_polynomial(p, 0.3).dtype == np.complex128


def test_projection_validates_selector(interior_family):
    h = sample(np.exp, interior_family.grid)
    with pytest.raises(ValueError):
        least_squares_project(h, interior_family, 4, "both")
    with pytest.raises(OrderError):
        least_squares_project(h, interior_family, interior_family.N + 1, "full")
