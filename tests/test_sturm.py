import warnings

import numpy as np
import pytest

import spps
from spps import (
    AccuracyWarning,
    Grid,
    GridConfigError,
    GridFunction,
    RecursiveFamily,
    SeedError,
    SlProblem,
    build_family,
    build_seed,
    characteristic,
    derivative,
    find_eigenvalues,
    residual,
    choose_truncation,
    sample,
    u2_grid,
)
from spps.sturm import _SEED_TERMS

PI2 = np.pi**2


def _dirichlet(q):
    return SlProblem(q, (1.0, 0.0), (1.0, 0.0))


# -- seed construction ---------------------------------------------------------

def test_seed_for_zero_potential(q_zero):
    f = build_seed(q_zero)
    x = q_zero.grid.nodes
    assert np.max(np.abs(f.values - (1.0 + 1j * x))) < 1e-10
    assert np.min(np.abs(f.values)) >= 1.0 - 1e-12


def test_seed_for_constant_negative_potential():
    g = Grid(0.0, 1.0, 5001)
    q = sample(lambda x: np.full_like(x, -1.0), g)
    f = build_seed(q)
    exact = np.cosh(g.nodes) + 1j * np.sinh(g.nodes)
    assert np.max(np.abs(f.values - exact)) < 1e-8
    # residual of the homogeneous equation away from the boundary stencils
    r = derivative(derivative(f)) + q * f
    assert np.max(np.abs(r.values[2:-2])) < 1e-8


def test_seed_wronskian():
    g = Grid(0.0, 1.0, 5001)
    q = sample(lambda x: np.cos(3 * x), g)
    f = build_seed(q)
    v1 = spps.GridFunction(g, f.values.real)
    v2 = spps.GridFunction(g, f.values.imag)
    w = v1 * derivative(v2) - derivative(v1) * v2
    assert np.max(np.abs(w.values - 1.0)) < 1e-6


@pytest.mark.parametrize("c, bound", [(400.0, 1e-9), (-400.0, 1e-9),
                                      (2500.0, 1e-7)])
def test_seed_closed_form_on_several_pieces(c, bound):
    # one series over [0, 1] would lose every digit to cancellation here
    g = Grid(0.0, 1.0, 5001)
    q = sample(lambda x: np.full_like(x, c), g)
    f = build_seed(q)
    k, x = np.sqrt(abs(c)), g.nodes
    if c > 0:
        exact = np.cos(k * x) + 1j * np.sin(k * x) / k
    else:
        exact = np.cosh(k * x) + 1j * np.sinh(k * x) / k
    assert np.max(np.abs(f.values - exact)) / np.max(np.abs(exact)) < bound


def test_seed_wronskian_across_pieces():
    g = Grid(0.0, 1.0, 5001)
    q = sample(lambda x: 300.0 + 200.0 * np.cos(7 * x), g)
    f = build_seed(q)
    v1 = spps.GridFunction(g, f.values.real)
    v2 = spps.GridFunction(g, f.values.imag)
    w = v1 * derivative(v2) - derivative(v1) * v2
    assert np.max(np.abs(w.values - 1.0)) < 1e-9


@pytest.mark.parametrize("n", [2, 4])
def test_seed_needs_five_nodes(n):
    q = sample(lambda x: np.ones_like(x), Grid(0.0, 1.0, n))
    with pytest.raises(GridConfigError):
        build_seed(q)


def test_seed_rejects_complex_potential():
    g = Grid(0.0, 1.0, 101)
    q = sample(lambda x: 1j * x, g)
    with pytest.raises(SeedError):
        build_seed(q)


def test_seed_rejects_nan_potential():
    # a non-finite q is named at its first such node before anything is
    # integrated: no numpy warning (an error under the test settings) and
    # no advice to refine the grid
    g = Grid(0.0, 1.0, 101)
    for value in (np.nan, np.inf, -np.inf):
        q = sample(lambda x: np.full_like(x, 3.0), g)
        q.values[[40, 70]] = value
        with pytest.raises(SeedError,
                           match=rf"^q value {value} at node 40 \(x=0\.4\) is not finite$"):
            build_seed(q)


def test_seed_that_overflows_is_refused_without_warnings():
    # q = -1e6 on [0, 1]: the solutions grow like e^(1000 x), far past the
    # float range.  The SeedError names the overflow at the first node that
    # is not finite, with no numpy warning (an error under the test
    # settings) and no advice to refine the grid
    g = Grid(0.0, 1.0, 201)
    with pytest.raises(SeedError, match=r"^generated seed overflows at x=0\.51: "
                                        r"the solutions of f'' \+ qf = 0 outgrow the "
                                        r"float range$"):
        build_seed(GridFunction(g, np.full(201, -1e6)))


# -- problem construction --------------------------------------------------------

def test_degenerate_boundary_conditions(q_zero):
    with pytest.raises(ValueError):
        SlProblem(q_zero, (0.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        SlProblem(q_zero, (1.0, 0.0), (0.0, 0.0))
    # only both coefficients 0 is degenerate: u(a) + i u'(a) = 0 is a condition
    SlProblem(q_zero, (1.0, 1.0j), (1.0, 0.0))
    SlProblem(q_zero, (1.0, 0.0), (1j, -1.0))


@pytest.mark.parametrize("pair", [(1.0, 0.0, 5.0), (1.0,), (), 1.0, np.array(1.0)],
                         ids=["three", "one", "none", "scalar", "0-d"])
def test_a_boundary_pair_must_be_two_values(q_zero, pair):
    # not a pair cut to its first two values, nor an IndexError
    with pytest.raises(ValueError, match="^bc_left must be two values"):
        SlProblem(q_zero, pair, (1.0, 0.0))
    with pytest.raises(ValueError, match="^bc_right must be two values"):
        SlProblem(q_zero, (1.0, 0.0), pair)


@pytest.mark.parametrize("window", [(-50.0, -1.0, 7.0), (-50.0,), (), -50.0],
                         ids=["three", "one", "none", "scalar"])
def test_a_search_range_must_be_two_values(q_zero, q_zero_family, window):
    # not a search of (-50, -1) with the 7 dropped, nor an IndexError or a
    # TypeError
    with pytest.raises(ValueError, match="^lam_range must be two values"):
        find_eigenvalues(_dirichlet(q_zero), q_zero_family, window)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_non_finite_boundary_conditions(q_zero, value):
    # refused up front, not left to the eigen search's Chebyshev fit
    with pytest.raises(ValueError, match="non-finite left"):
        SlProblem(q_zero, (value, 1.0), (1.0, 0.0))
    with pytest.raises(ValueError, match="non-finite right"):
        SlProblem(q_zero, (1.0, 0.0), (0.0, value))


def test_left_pair_of_subnormal_size_keeps_its_roots(q_zero):
    # (0, 5e-324) is not (0, 0) but a Neumann condition: the search scales
    # each pair to a largest modulus of 1, so Phi keeps its digits.
    # Unscaled, c2 u'(a) underflowed to a few bits at every sample and both
    # roots were lost
    f = sample(lambda x: np.full_like(x, 4.0), q_zero.grid)
    fam = build_family(f, 80)  # the truncation stays below the cap
    tiny = find_eigenvalues(SlProblem(q_zero, (0.0, 5e-324), (1.0, 0.0)), fam, (-50.0, -1.0))
    unit = find_eigenvalues(SlProblem(q_zero, (0.0, 1.0), (1.0, 0.0)), fam, (-50.0, -1.0))
    assert tiny.scan_phi.tobytes() == unit.scan_phi.tobytes()
    assert tiny.eigenvalues.tobytes() == unit.eigenvalues.tobytes()
    expect = -(np.array([1.5, 0.5]) * np.pi) ** 2
    assert len(tiny) == 2 and np.max(np.abs(tiny.eigenvalues - expect) / -expect) < 1e-10


# -- characteristic function -----------------------------------------------------

def test_characteristic_vanishes_at_eigenvalue(q_zero, q_zero_family):
    phi = characteristic(_dirichlet(q_zero), q_zero_family, -PI2, 20)
    assert abs(phi) < 1e-7


def test_characteristic_away_from_spectrum(q_zero, q_zero_family):
    phi = characteristic(_dirichlet(q_zero), q_zero_family, -PI2 / 2, 20)
    assert abs(phi) > 0.1


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0),
                                 np.array([-PI2, np.inf])])
def test_characteristic_refuses_a_non_finite_lambda(q_zero, q_zero_family, lam):
    with pytest.raises(spps.OrderError, match="lam must be finite"):
        characteristic(_dirichlet(q_zero), q_zero_family, lam, 20)


def test_characteristic_at_lambda_zero(q_zero, q_zero_family):
    # u reduces to the second basis solution; for q = 0 it is x - a
    phi = characteristic(_dirichlet(q_zero), q_zero_family, 0.0, 5)
    assert abs(phi - 1.0) < 1e-8


@pytest.mark.parametrize("name, q_value", [("exp_family", -1.0),
                                           ("q_zero_family", 0.0)])
@pytest.mark.parametrize("bc_left, bc_right", [
    ((1.0, 0.0), (1.0, 0.0)),   # Dirichlet
    ((0.0, 1.0), (0.0, 1.0)),   # Neumann
    ((1.0, 0.0), (0.0, 1.0)),   # mixed
    ((0.3, 1.0), (2.0, 0.5)),   # Robin at both ends
])
@pytest.mark.parametrize("lam", [-30.0, 5.0 + 20.0j])
def test_characteristic_matches_grid_solutions(request, name, q_value,
                                               bc_left, bc_right, lam):
    fam = request.getfixturevalue(name)
    q = sample(lambda x: np.full_like(x, q_value), fam.grid)
    M = spps.choose_truncation(fam, lam).n_terms
    c1, c2 = bc_left
    c3, c4 = bc_right
    fa, fpa = fam.f.values[0], fam.f_prime.values[0]
    beta1, beta2 = -c2 / fa, c1 * fa + c2 * fpa
    ub = (beta1 * spps.u1_grid(fam, lam, M).values[-1]
          + beta2 * spps.u2_grid(fam, lam, M).values[-1])
    upb = (beta1 * spps.u1_prime_grid(fam, lam, M).values[-1]
           + beta2 * spps.u2_prime_grid(fam, lam, M).values[-1])
    expected = c3 * ub + c4 * upb
    prob = SlProblem(q, bc_left, bc_right)
    phi = characteristic(prob, fam, lam, M)
    assert abs(phi - expected) <= 1e-13 * abs(expected)
    # one array call agrees with the scalar calls at the same truncation
    lams = lam + np.linspace(-20.0, 20.0, 9)
    scalar = np.array([characteristic(prob, fam, l, M) for l in lams])
    phis = characteristic(prob, fam, lams, M)
    assert phis.shape == lams.shape
    assert np.max(np.abs(phis - scalar)) <= 1e-15 * np.max(np.abs(scalar))


def test_characteristic_keeps_lambda_shape(q_zero, q_zero_family):
    # Phi has lam's shape at every truncation; at M = 1 no power of lam enters
    prob = SlProblem(q_zero, (1.0, 2.0), (0.5, 1.0))
    lams = np.linspace(-30.0, 5.0, 6).reshape(2, 3)
    for M in (1, 2, 12):
        phi = characteristic(prob, q_zero_family, lams, M)
        assert phi.shape == lams.shape
        one = np.array([characteristic(prob, q_zero_family, lam, M) for lam in lams.ravel()])
        assert np.max(np.abs(phi.ravel() - one)) <= 1e-15 * np.max(np.abs(one))
        assert characteristic(prob, q_zero_family, lams[:, :0], M).shape == (2, 0)
        assert np.ndim(characteristic(prob, q_zero_family, -3.0, M)) == 0


_PAIRS = {"DD": ((1.0, 0.0), (1.0, 0.0)), "NN": ((0.0, 1.0), (0.0, 1.0)),
          "DN": ((1.0, 0.0), (0.0, 1.0)), "ND": ((0.0, 1.0), (1.0, 0.0)),
          "robin": ((0.3, 1.0), (2.0, 0.5)), "complex": ((1j, 2j), (2.0, -1.0))}


@pytest.mark.parametrize("bcs", list(_PAIRS.values()), ids=list(_PAIRS))
def test_determinant_at_a_is_the_left_pinned_phi(q_zero, q_zero_family, exp_family,
                                                 left_pinned, bcs):
    # at x0 = a, u1 and u2 start from f(a), f'(a) and 0, 1/f(a), so
    # B_a(u1) = beta2 and B_a(u2) = -beta1 of the former left-pinned u:
    # the determinant is that u's c3 u(b) + c4 u'(b), to rounding
    q_exp = sample(lambda x: np.full_like(x, -1.0), exp_family.grid)
    lams = np.concatenate((np.linspace(-120.0, 20.0, 8), [5.0 + 20.0j]))
    for q, fam in ((q_zero, q_zero_family), (q_exp, exp_family)):
        prob = SlProblem(q, *bcs)
        for M in (1, 2, 12, 25):
            got = characteristic(prob, fam, lams, M)
            want = left_pinned(prob, fam, lams, M)
            assert got.shape == lams.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_characteristic_takes_any_anchor(q_zero, q_zero_family):
    # Phi is the boundary determinant of u1 and u2, whose Wronskian is 1
    # from any anchor: a family of the same seed anchored inside or at b
    # gives the same function of lam, to the quadrature's error (here
    # 5e-11 of max |Phi| at most); q may live on the mesh at another anchor
    lams = np.linspace(-120.0, 5.0, 9)
    for x0 in (0.25, 0.5, 1.0):
        other = build_family(GridFunction(Grid(0.0, 1.0, 1001, x0=x0),
                                          q_zero_family.f.values), 80)
        assert other.grid.x0_index == round(1000 * x0)
        M = max(choose_truncation(fam, lam).n_terms
                for fam in (q_zero_family, other) for lam in (-120.0, 5.0))
        for bcs in _PAIRS.values():
            prob = SlProblem(q_zero, *bcs)
            want = characteristic(prob, q_zero_family, lams, M)
            got = characteristic(prob, other, lams, M)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_characteristic_requires_matching_grids(q_zero_family):
    g = Grid(0.0, 1.0, 51)
    q = sample(lambda x: np.zeros_like(x), g)
    with pytest.raises(GridConfigError):
        characteristic(_dirichlet(q), q_zero_family, 1.0, 3)


# -- eigenvalue search -----------------------------------------------------------

def test_dirichlet_spectrum(q_zero, q_zero_family):
    res = find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-120.0, -1.0))
    expect = -np.array([9.0, 4.0, 1.0]) * PI2
    assert len(res) == 3
    assert np.max(np.abs(res.eigenvalues.real - expect) / np.abs(expect)) < 1e-6
    assert np.max(np.abs(res.eigenvalues.imag)) < 1e-8
    assert np.all(res.residuals <= 1e-10)


def test_shifted_spectrum():
    g = Grid(0.0, 1.0, 1001)
    q = sample(lambda x: np.full_like(x, -1.0), g)
    fam = build_family(build_seed(q), 80)
    res = find_eigenvalues(_dirichlet(q), fam, (-120.0, -2.0))
    expect = -1.0 - np.array([9.0, 4.0, 1.0]) * PI2
    assert len(res) == 3
    assert np.max(np.abs(res.eigenvalues.real - expect) / np.abs(expect)) < 1e-6


def test_neumann_spectrum(q_zero, q_zero_family):
    prob = SlProblem(q_zero, (0.0, 1.0), (0.0, 1.0))
    res = find_eigenvalues(prob, q_zero_family, (-45.0, 5.0))
    expect = -np.array([4.0, 1.0, 0.0]) * PI2
    assert len(res) == 3
    assert np.max(np.abs(res.eigenvalues.real - expect)) < 1e-5


def test_eigenvalue_count_in_window(q_zero, q_zero_family):
    for K in (2, 5):
        lo = -((K + 0.5) ** 2) * PI2
        res = find_eigenvalues(_dirichlet(q_zero), q_zero_family, (lo, 0.0), tol=1e-8)
        assert len(res) == K


def test_characteristic_is_polynomial_in_lambda(q_zero, q_zero_family):
    # at fixed truncation M the scan quantity is a degree-(M-1) polynomial
    M = 12
    prob = _dirichlet(q_zero)
    lams = np.linspace(-40.0, -1.0, M)
    vals = np.array([characteristic(prob, q_zero_family, l, M) for l in lams])
    assert np.max(np.abs(vals.imag)) < 1e-10
    coef = np.polyfit(lams, vals.real, M - 1)
    probe = np.linspace(-38.0, -2.0, 7)
    direct = np.array([characteristic(prob, q_zero_family, l, M) for l in probe])
    assert np.max(np.abs(np.polyval(coef, probe) - direct.real)) < 1e-8


def test_eigenfunction_residuals(q_zero, q_zero_family):
    res = find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-120.0, -1.0))
    for lam in res.eigenvalues.real:
        # Dirichlet left data makes the eigenfunction proportional to u2
        u = u2_grid(q_zero_family, lam, res.n_terms)
        assert residual(lam, u, q_zero) < 1e-4


@pytest.mark.parametrize("bcs", [((1.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (1.0, 0.0)),
                                 ((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 1.0)),
                                 ((1.0, 2.0), (0.5, -1.0)), ((1j, 2j), (1.0, 0.0))],
                         ids=["DD", "ND", "DN", "NN", "mixed", "complex"])
@pytest.mark.filterwarnings("ignore::spps.errors.AccuracyWarning")
def test_search_reads_only_the_samples_it_returns(bcs):
    # build_seed's seed gives a complex Phi (its f' is a stencil's), and the
    # pair (1j, 2j) one rotated by i; the phase and scale, like the fit,
    # come from the window's 2M - 1 Chebyshev samples that the result
    # holds, of Phi of a family anchored at the middle node, with each pair
    # scaled to a largest modulus of 1, bit for bit, and M is the larger
    # choose_truncation choice at the window ends on that family.  Both
    # hold whatever the anchor and state of the family passed, which the
    # search never grows: anchored at a, built to N (its weights dropped),
    # at the middle node and at another node
    cheb = np.polynomial.chebyshev
    g = Grid(0.0, 1.0, 501)
    q = sample(lambda x: 50 * np.cos(3 * np.pi * x), g)
    f = build_seed(q)
    full = build_family(f, 80)
    full.psi(80)
    assert full._w is None
    passed = [build_family(f, 80), full] + [
        build_family(GridFunction(Grid(0.0, 1.0, 501, x0=x0), f.values), 80)
        for x0 in (0.5, 0.3)]
    prob = SlProblem(q, *bcs)
    scaled = SlProblem(q, *(np.array(p) / max(map(abs, p)) for p in bcs))
    n_roots = 0
    for lo, hi in ((-300.0, 5.0), (-120.0, -1.0), (-50.0, 0.0)):
        search = build_family(GridFunction(Grid(0.0, 1.0, 501, x0=0.5), f.values), 80)
        M = max(choose_truncation(search, lam).n_terms for lam in (lo, hi))
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        t = cheb.chebpts1(2 * M - 1)
        for fam in passed:
            built = len(fam._sup_norms)
            res = find_eigenvalues(prob, fam, (lo, hi))
            assert len(fam._sup_norms) == built  # the family passed is not grown
            assert res.n_terms == M
            assert res.scan_lams.tobytes() == (mid + half * t).tobytes()
            phi = characteristic(scaled, search, res.scan_lams, M)
            assert res.scan_phi.tobytes() == phi.tobytes()
        rot = np.exp(-1j * np.angle(phi[np.argmax(np.abs(phi))]))
        r = cheb.chebroots(cheb.chebfit(t, (rot * phi).real, 2 * M - 2))
        real = mid + half * r.real[r.imag == 0]
        # the kept roots are real roots of that fit, and take every one inside
        assert np.all(np.isin(res.eigenvalues, real))
        assert np.all(np.isin(real[(real >= lo) & (real <= hi)], res.eigenvalues))
        n_roots += len(res)
    assert n_roots >= 4


@pytest.fixture(scope="module")
def cos_problem():
    # q = 50 cos(3 pi x) on 501 nodes and its family, N = 80
    q = sample(lambda x: 50 * np.cos(3 * np.pi * x), Grid(0.0, 1.0, 501))
    return q, build_family(build_seed(q), 80)


@pytest.mark.parametrize("bcs", [((1.0, 1j), (1.0, 0.0)), ((1.0, 0.0), (1.0 + 1j, 1.0)),
                                 ((1.0, 1e-3j), (1.0, 0.0))])
def test_search_refuses_a_pair_that_is_no_complex_multiple_of_a_real_one(cos_problem,
                                                                         bcs):
    # Phi is then no phase times a real function: the real roots of
    # Re(rot Phi) were returned as eigenvalues, 1e-2 off in residual
    q, fam = cos_problem
    side = "left" if bcs[0][1] != 0 else "right"
    with pytest.raises(ValueError, match=f"{side} boundary pair .* not a complex multiple"):
        find_eigenvalues(SlProblem(q, *bcs), fam, (-300.0, 5.0))
    characteristic(SlProblem(q, *bcs), fam, -30.0, 10)  # Phi itself is defined


@pytest.mark.filterwarnings("ignore::spps.errors.AccuracyWarning")
def test_complex_multiple_of_a_real_pair_gives_its_roots(cos_problem):
    q, fam = cos_problem
    phase = np.exp(0.3j)
    real = find_eigenvalues(SlProblem(q, (1.0, 2.0), (2.0, -1.0)), fam, (-300.0, 5.0))
    for bcs in (((1j, 2j), (2.0, -1.0)), ((phase, 2 * phase), (-2j, 1j))):
        got = find_eigenvalues(SlProblem(q, *bcs), fam, (-300.0, 5.0))
        assert len(got) == len(real) >= 3
        assert np.allclose(got.eigenvalues, real.eigenvalues, rtol=1e-12, atol=0)


def test_one_cap_warning_per_search(q_zero, q_zero_family):
    with pytest.warns(AccuracyWarning) as caught:
        find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-2000.0, -1.0))
    capped = [w for w in caught if str(w.message).startswith("truncation cap")]
    assert len(capped) == 1
    assert "used at the window's 79 Chebyshev points" in str(capped[0].message)


@pytest.mark.parametrize("potential", [
    lambda x: np.zeros_like(x),
    lambda x: 50.0 * np.cos(3 * np.pi * x),
    lambda x: 3.0 + 8.0 * np.cos(2 * np.pi * x),
], ids=["zero", "50cos3pix", "3+8cos2pix"])
def test_window_truncation_bounds_scan(monkeypatch, potential):
    # one truncation per window: one choose_truncation call at both window
    # ends on the search's own family, anchored at the middle node, whose
    # choice, the larger end one, covers every scan point
    g = Grid(0.0, 1.0, 5001)
    q = sample(potential, g)
    fam = build_family(build_seed(q), 80)
    mid = build_family(GridFunction(Grid(0.0, 1.0, 5001, x0=0.5), fam.f.values), 80)
    prob = SlProblem(q, (0.0, 1.0), (0.0, 1.0))
    choose = spps.sturm.choose_truncation
    seen = []
    monkeypatch.setattr(spps.sturm, "choose_truncation",
                        lambda *a: seen.append((a, choose(*a))) or seen[-1][1])
    # the last window is so narrow that M = 1 makes Phi a constant
    for window in [(-60.0, -20.0), (-12.0, 10.0), (1.0, 20.0), (-1e-14, 1e-14)]:
        seen.clear()
        res = find_eigenvalues(prob, fam, window)
        assert len(seen) == 1
        (search, lams, _), choice = seen[0]
        assert search.grid.x0_index == 2500 and tuple(lams) == window
        M = choice.n_terms
        assert res.n_terms == M
        assert res.scan_phi.shape == res.scan_lams.shape == (2 * M - 1,)
        assert M >= max(choose(mid, lam).n_terms for lam in res.scan_lams)


def test_search_refuses_a_window_whose_powers_overflow(q_zero, q_zero_family):
    # the truncation rule's |lam|^k overflows at the window's end: the
    # OrderError choose_truncation raises, naming that end
    with pytest.raises(spps.OrderError, match=r"lam=-1e\+200 is too large"):
        find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-1e200, -1.0))


def test_empty_window(q_zero, q_zero_family):
    res = find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-8.0, -1.0))
    assert len(res) == 0
    assert res.eigenvalues.shape == (0,)
    # the window's M is reported with no root to carry it
    assert 2 * res.n_terms - 1 == len(res.scan_lams) >= 1


def test_search_input_validation(q_zero, q_zero_family):
    prob = _dirichlet(q_zero)
    with pytest.raises(ValueError):
        find_eigenvalues(prob, q_zero_family, (-1.0, -5.0))
    g = q_zero.grid
    qc = sample(lambda x: 1j * np.ones_like(x), g)
    prob_c = SlProblem(qc, (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        find_eigenvalues(prob_c, q_zero_family, (-5.0, -1.0))


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
def test_search_rejects_non_positive_tol(q_zero, q_zero_family, tol):
    # refused up front: such a tol would drop every root in silence
    with pytest.raises(ValueError, match="tol"):
        find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-50.0, -1.0), tol=tol)


@pytest.mark.parametrize("series_tol", [np.nan, 0.0, -1.0])
def test_search_rejects_non_positive_series_tol(q_zero, q_zero_family, series_tol):
    # the search's own ValueError, like tol's, and not choose_truncation's
    # OrderError (a numerical failure to the CLI)
    with pytest.raises(ValueError, match="^series_tol must be positive") as info:
        find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-50.0, -1.0),
                         series_tol=series_tol)
    assert not isinstance(info.value, spps.SppsError)


def test_tolerances_are_keyword_only(q_zero, q_zero_family):
    # a fourth positional argument is refused, not read as tol
    with pytest.raises(TypeError):
        find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-50.0, -1.0), 64)


def test_scan_artifacts_exposed(q_zero, q_zero_family):
    # the samples the fit read: one per Chebyshev point, 2M - 1 for Phi of
    # degree 2M - 2, inside the window
    res = find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-50.0, -1.0))
    M = res.n_terms
    assert res.scan_lams.shape == res.scan_phi.shape == (2 * M - 1,)
    assert np.all(np.diff(res.scan_lams) > 0)
    assert -50.0 < res.scan_lams[0] and res.scan_lams[-1] < -1.0


def test_search_same_on_a_fresh_and_a_grown_family(q_zero):
    # the search streams its own family from the passed family's seed, so
    # the result has the same bits whatever that family's anchor, and
    # whether it is fresh, grown or built to N, and the family is never
    # grown by it
    f = build_seed(q_zero)
    g = f.grid
    mid = build_family(GridFunction(Grid(0.0, 1.0, 1001, x0=0.5), f.values), 80)
    first = find_eigenvalues(_dirichlet(q_zero), mid, (-120.0, -1.0))
    assert len(first) == 3
    grown = build_family(GridFunction(Grid(0.0, 1.0, 1001, x0=0.5), f.values), 80)
    grown.psi(30)
    full = build_family(f, 80)
    full.X  # built to N: the weights are dropped
    assert full._w is None
    others = [mid, grown, full, build_family(f, 80),
              build_family(GridFunction(Grid(0.0, 1.0, 1001, x0=0.3), f.values), 80)]
    for fam in others:
        built = len(fam._sup_norms)
        res = find_eigenvalues(_dirichlet(q_zero), fam, (-120.0, -1.0))
        assert len(fam._sup_norms) == built
        assert first.n_terms == res.n_terms
        for field in ("eigenvalues", "residuals", "scan_lams", "scan_phi"):
            a, b = getattr(first, field), getattr(res, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# -- batched seed pieces and on-demand family growth ---------------------------

def _seed_piece_by_piece(q, row_by_row, horner):
    """build_seed's sum one piece at a time: on each piece the recursion
    with seed 1 and weight -q row by row, its psi rows summed as u1_grid
    and u2_grid sum a family's, and with f = 1 and f' = 0 the derivatives
    at b the sums T1 and T2 of the chi rows' ends."""
    g, n = q.grid, q.grid.n_nodes
    qmax = float(np.max(np.abs(q.values)))
    w = max(4, int(1.0 / (np.sqrt(qmax) * g.h))) if qmax > 0 else n - 1
    bounds = list(range(0, n - 4, w)) + [n - 1]
    top = 2 * _SEED_TERMS - 1
    f, fp = np.ones(n, dtype=complex), 1j
    for i, j in zip(bounds[:-1], bounds[1:]):
        piece = Grid(g.nodes[i], g.nodes[j], j - i + 1)
        X, Xt = row_by_row(GridFunction(piece, np.ones(j - i + 1)), top,
                           GridFunction(piece, -q.values.real[i:j + 1]))
        # psi_n, chi_n: X(n), X~(n) for odd n, the other way round for even n
        psi = [(x if n % 2 else xt).values for n, (x, xt) in enumerate(zip(X, Xt))]
        chi = [(xt if n % 2 else x).values for n, (x, xt) in enumerate(zip(X, Xt))]
        c = horner(psi, 0, 1.0, _SEED_TERMS, slice(None))
        s = horner(psi, 1, 1.0, _SEED_TERMS, slice(None))
        cp = horner(chi, 1, 1.0, _SEED_TERMS - 1, -1)
        sp = horner(chi, 0, 1.0, _SEED_TERMS, -1)
        f[i:j + 1], fp = f[i] * c + fp * s, f[i] * cp + fp * sp
    return f, w, bounds[-1] - bounds[-2]


@pytest.mark.parametrize("potential, n, last", [
    ("0", 5, None), ("0", 1001, None),
    ("50cos", 5, None), ("50cos", 9, None), ("50cos", 501, None), ("50cos", 5001, None),
    ("400", 245, 4), ("400", 256, "w+3"), ("400", 5001, None),
    ("-400", 245, 4), ("-400", 501, None),
    ("2500", 295, 4), ("2500", 299, "w+3"), ("2500", 501, None), ("2500", 5001, None),
])
def test_batched_seed_bitwise_equal_piece_by_piece(potential, n, last, row_by_row,
                                                   horner):
    g = Grid(0.0, 1.0, n)
    q = sample(lambda x: 50 * np.cos(3 * np.pi * x) if potential == "50cos"
               else np.full_like(x, float(potential)), g)
    want, w, width = _seed_piece_by_piece(q, row_by_row, horner)
    if last is not None:
        assert width == (w + 3 if last == "w+3" else last)
    assert np.array_equal(build_seed(q).values, want)


def _streamed_families(monkeypatch):
    """The families the search streams, in the order it makes them."""
    made = []
    streamed = RecursiveFamily._streamed
    monkeypatch.setattr(RecursiveFamily, "_streamed",
                        lambda fam, i: made.append(streamed(fam, i)) or made[-1])
    return made


def test_search_grows_family_only_as_deep_as_it_reads(monkeypatch):
    # the search leaves the family passed unbuilt, not an order nor a row
    # written, whatever its anchor, and builds its own streamed family
    # only to the orders it reads
    g = Grid(0.0, 1.0, 2001)
    q = sample(lambda x: 50 * np.cos(3 * np.pi * x), g)
    f = GridFunction(Grid(0.0, 1.0, 2001, x0=0.5), build_seed(q).values)
    made = _streamed_families(monkeypatch)
    for window, capped in (((-120.0, -1.0), False), ((-2000.0, -1.0), True)):
        for fam in (build_family(GridFunction(g, f.values), 80), build_family(f, 80)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                find_eigenvalues(SlProblem(q, (1.0, 0.0), (1.0, 0.0)), fam, window)
            assert len(fam._sup_norms) == 1 and fam._scratch is None
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                M = max(choose_truncation(build_family(f, 80), lam).n_terms
                        for lam in window)
            built = len(made[-1]._sup_norms) - 1
            # choose_truncation reads to order 2M + 3; at the cap, M = (N + 1) // 2
            # and the rule reads 2M - 1 = 79 of the N = 80 orders
            if capped:
                assert (M, built) == (40, 79)
            else:
                assert built <= 2 * M + 3 < 80
            assert capped == any("truncation cap" in str(w.message) for w in caught)


def test_search_keeps_psi_rows_and_chi_ends_only(monkeypatch, held_sums):
    # the search reads psi and chi only at a and b: its streamed family
    # holds a ring of its last four psi rows, psi_n's and chi_n's first and
    # last node per order and, until order N is built, the order loop's
    # (2, 2, n_nodes) scratch; no whole chi row, and no sum
    g = Grid(0.0, 1.0, 2001)
    q = sample(lambda x: 50 * np.cos(3 * np.pi * x), g)
    made = _streamed_families(monkeypatch)
    # the one family whose whole-grid sums the process holds, which a
    # search that made a sum would clear
    held = build_family(build_seed(q), 80)
    u2_grid(held, -40.0, 8)
    for fam in (build_family(build_seed(q), 80),
                build_family(GridFunction(Grid(0.0, 1.0, 2001, x0=0.5),
                                          build_seed(q).values), 80)):
        find_eigenvalues(SlProblem(q, (1.0, 0.0), (0.0, 1.0)), fam, (-120.0, -1.0))
        search = made[-1]
        assert search is not fam and search.grid.x0_index == 1000
        assert 1 < len(search._sup_norms) < 81
        # it made no sum, so it cleared none: the family read before it
        # still holds its own
        assert "_chi" not in vars(search) and not held_sums(search)
        assert sorted(held_sums(held)) == [(0, 1)]
        assert {k for k, v in vars(search).items() if isinstance(v, np.ndarray)} == {
            "_psi", "_psi_ends", "_chi_ends", "_scratch", "_f_prime_ends"}
        assert search._psi.shape == (4, g.n_nodes) and search._psi.dtype == complex
        assert search._psi_ends.shape == search._chi_ends.shape == (81, 2)
        assert search._f_prime_ends.shape == (2,)
        # it shares the family's seed and weights
        assert search.f.values.base is fam.f.values.base
        assert search.phi.values.base is fam.phi.values.base
        assert search._w[0] is fam._w[0]
        # and the family passed keeps nothing: its block and ends, no order 0,
        # no scratch and no sum
        assert len(fam._sup_norms) == 1 and not held_sums(fam)
        assert {k for k, v in vars(fam).items() if isinstance(v, np.ndarray)} == {
            "_psi", "_psi_ends", "_chi_ends"}


def test_search_refuses_a_potential_on_another_grid_before_building():
    # the meshes are compared before any order is built: the family passed
    # and the search's own stay unbuilt
    q = sample(lambda x: 50 * np.cos(3 * np.pi * x), Grid(0.0, 1.0, 20001))
    fam = build_family(build_seed(sample(lambda x: 50 * np.cos(3 * np.pi * x),
                                         Grid(0.0, 1.0, 1001))), 80)
    with pytest.raises(GridConfigError, match="different grids"):
        find_eigenvalues(_dirichlet(q), fam, (-400.0, -1.0))
    assert len(fam._sup_norms) == 1 and fam._scratch is None


def test_search_memory_is_linear_in_nodes(monkeypatch):
    # at 20001 nodes and N = 80 (M = 23, so 49 orders built) the search
    # holds no whole psi block: no array it makes holds more than a dozen
    # whole-grid rows, and no block it asks recint._rows for is mapped.
    # Its arrays are the ring of four psi rows, the order loop's scratch
    # pair of pairs and the four running sums, each of four rows; their
    # sizes are read from tracemalloc, which numpy reports its arrays to,
    # at every call of the row kernel
    import tracemalloc
    from spps import recint

    n = 20001
    row = 16 * n
    q = sample(lambda x: 50 * np.cos(3 * np.pi * x), Grid(0.0, 1.0, n))
    fam = build_family(build_seed(q), 80)
    blocks, largest = [], []
    rows, integrate = recint._rows, recint._integrate_rows
    monkeypatch.setattr(recint, "_rows",
                        lambda shape, dtype: blocks.append((shape, dtype)) or rows(shape, dtype))

    def kernel(*args):
        largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
        return integrate(*args)

    monkeypatch.setattr(recint, "_integrate_rows", kernel)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        res = find_eigenvalues(_dirichlet(q), fam, (-400.0, -1.0))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.n_terms == 23 and len(largest) == 2 * 23 + 3
    assert 4 * row <= max(largest) <= 12 * row
    assert [shape for shape, _ in blocks] == [(4, n)]
    assert all(np.prod(shape) * np.dtype(dtype).itemsize < recint._MAPPED_BYTES
               for shape, dtype in blocks)
    # with the row kernel's temporaries, the whole search stays under 20
    # rows: 16.6 measured, where its former block alone held 49
    assert peak <= 20 * row


# -- roots of the Chebyshev interpolant ----------------------------------------

_BC = {"D": (1.0, 0.0), "N": (0.0, 1.0)}


def _constant_spectrum(c, L, bc, count):
    """The `count` largest eigenvalues of u'' + c u = lambda u on [0, L],
    descending: c - k^2 with k = j pi / L (DD: j >= 1, NN: j >= 0) or
    (j + 1/2) pi / L (DN, ND: j >= 0)."""
    j = np.arange(count, dtype=float)
    return c - ({"DD": j + 1, "NN": j}.get(bc, j + 0.5) * np.pi / L) ** 2


def _rel_err(found, expect):
    return np.max(np.abs(found - expect) / np.maximum(1.0, np.abs(expect)))


@pytest.mark.parametrize("c, bc, window, count", [
    (3.0, "NN", (-47.0, 3.0), 3),             # the end root comes back as 3 + 5e-12
    (0.0, "NN", (-50.0, 0.0), 3),
    (-7.0, "NN", (-57.0, -7.0), 3),
    (0.0, "DD", (-PI2 - 100.0, -PI2), 3),
    (0.0, "DD", (-400.0, -1.0), 6),           # -355.3 has residual ~8e-10 > tol
])
def test_roots_at_window_ends_and_above_tol_kept(c, bc, window, count):
    spec = _constant_spectrum(c, 1.0, bc, 32)
    expect = np.sort(spec[(spec >= window[0]) & (spec <= window[1])])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        q = sample(lambda x: np.full_like(x, c), Grid(0.0, 1.0, 5001))
        res = find_eigenvalues(SlProblem(q, _BC[bc[0]], _BC[bc[1]]),
                               build_family(build_seed(q), 80), window)
    # a root need not lie inside the closed window, only close to its value
    assert len(res) == len(expect) == count
    assert _rel_err(res.eigenvalues, expect) <= 1e-8


def test_dirichlet_roots_to_ten_digits_from_the_middle_anchor():
    # each series reaches half the interval, so the window's M falls from
    # 38 at x0 = a to 24, and the roots of q = 0 on 5001 nodes, the one at
    # -400 4e-10 off from x0 = a, come within 1e-10 of -pi^2 k^2
    q = sample(lambda x: np.zeros_like(x), Grid(0.0, 1.0, 5001))
    res = find_eigenvalues(_dirichlet(q), build_family(build_seed(q), 80), (-400.0, -1.0))
    expect = np.sort(_constant_spectrum(0.0, 1.0, "DD", 6))
    assert len(res) == 6
    assert _rel_err(res.eigenvalues, expect) <= 1e-10


def test_wide_dirichlet_window_finds_every_root_below_the_cap():
    # (-2000, -1) holds 14 Dirichlet eigenvalues of q = 0: from the middle
    # node a family of N = 100 reaches them below its cap (M = 41), where
    # from x0 = a it was capped at M = 50 and found 13
    q = sample(lambda x: np.zeros_like(x), Grid(0.0, 1.0, 5001))
    fam = build_family(build_seed(q), 100)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = find_eigenvalues(_dirichlet(q), fam, (-2000.0, -1.0))
    assert not any("truncation cap" in str(w.message) for w in caught)
    assert res.n_terms < (fam.N + 1) // 2
    expect = np.sort(_constant_spectrum(0.0, 1.0, "DD", 14))
    assert len(res) == 14 and _rel_err(res.eigenvalues, expect) <= 1e-7


def test_tol_warns_and_keeps_roots(q_zero, q_zero_family):
    with pytest.warns(AccuracyWarning, match="residual") as caught:
        res = find_eigenvalues(_dirichlet(q_zero), q_zero_family, (-120.0, -1.0), tol=1e-30)
    assert len(res) == 3
    assert sum("residual" in str(w.message) for w in caught) == 3
    assert np.all(res.residuals > 1e-30)


@pytest.mark.parametrize("n", [1001, 5001])
@pytest.mark.parametrize("L", [0.6, 1.0, 1.9])
@pytest.mark.parametrize("c", [-7.0, 0.0, 5.0])
def test_closed_form_sweep(c, L, n):
    # windows of 5 roots from the first, ends halfway between reference
    # eigenvalues (the top end mirrors the first gap)
    q = sample(lambda x: np.full_like(x, c), Grid(0.0, L, n))
    fam = build_family(build_seed(q), 80)
    for bc in ("DD", "NN", "DN", "ND"):
        spec = _constant_spectrum(c, L, bc, 6)
        window = (0.5 * (spec[4] + spec[5]), spec[0] + 0.5 * (spec[0] - spec[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            res = find_eigenvalues(SlProblem(q, _BC[bc[0]], _BC[bc[1]]), fam, window)
        assert len(res) == 5, bc
        assert _rel_err(res.eigenvalues[::-1], spec[:5]) <= 1e-8, bc


def test_search_calls_characteristic_twice(monkeypatch, q_zero, q_zero_family):
    # the Chebyshev samples and the residuals: one array call each, however
    # many roots the window holds
    calls = []
    char = spps.sturm.characteristic
    monkeypatch.setattr(spps.sturm, "characteristic",
                        lambda prob, fam, lam, M: calls.append(np.ndim(lam)) or
                        char(prob, fam, lam, M))
    for window, count in (((-8.0, -1.0), 0), ((-120.0, -1.0), 3), ((-400.0, -1.0), 6)):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            res = find_eigenvalues(_dirichlet(q_zero), q_zero_family, window)
        assert len(res) == count
        assert calls == [1, 1]
