import gc
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest

import spps
from spps import (
    AccuracyWarning,
    DomainError,
    GridConfigError,
    OrderError,
    choose_truncation,
    eval_u1,
    eval_u1_prime,
    eval_u2,
    eval_u2_prime,
    residual,
    sample,
    u1_grid,
    u1_prime_grid,
    u2_grid,
    u2_prime_grid,
)
from spps.jets import _factorials
from spps.recint import _Pieces
from spps.series import TruncationChoice, _inv_factorials, _lam_sums, _prime, _real_if_real


def _kappa_solution(c, lam, x):
    # solves u'' - c^2 u = lam u with u(0) = 1, u'(0) = c
    kappa = np.sqrt(c**2 + lam + 0j)
    return ((c + kappa) * np.exp(kappa * x) + (kappa - c) * np.exp(-kappa * x)) / (2 * kappa)


def test_initial_values_across_lambda(exp_family):
    # f = e^x anchored at 0: u1(0) = 1, u1'(0) = 1, u2(0) = 0, u2'(0) = 1
    rng = np.random.default_rng(101)
    lams = 50 * (rng.uniform(-1, 1, 100) + 1j * rng.uniform(-1, 1, 100))
    for lam in lams:
        n = choose_truncation(exp_family, lam).n_terms
        assert abs(eval_u1(exp_family, lam, 0.0, n) - 1.0) < 1e-9
        assert abs(eval_u1_prime(exp_family, lam, 0.0, n) - 1.0) < 1e-9
        assert abs(eval_u2(exp_family, lam, 0.0, n)) < 1e-9
        assert abs(eval_u2_prime(exp_family, lam, 0.0, n) - 1.0) < 1e-9


def test_u1_against_closed_form(exp_family):
    lam = 2.0
    exact = _kappa_solution(1.0, lam, 0.7)
    got = eval_u1(exp_family, lam, 0.7, 25)
    assert abs(got - exact) / abs(exact) < 1e-8


def test_u1_at_lambda_zero_is_f(exp_family):
    u = u1_grid(exp_family, 0.0, 1)
    assert np.max(np.abs(u.values - exp_family.f.values)) < 1e-13


def test_u2_at_lambda_zero_unit_seed(unit_family):
    u = u2_grid(unit_family, 0.0, 1)
    assert np.max(np.abs(u.values - unit_family.grid.nodes)) < 1e-13


def test_u2_is_scaled_sine(unit_family):
    lam = -np.pi**2
    u = u2_grid(unit_family, lam, 30)
    exact = np.sin(np.pi * unit_family.grid.nodes) / np.pi
    assert np.max(np.abs(u.values - exact)) < 1e-7


def test_u2_prime_is_cosine(unit_family):
    lam = -np.pi**2
    up = u2_prime_grid(unit_family, lam, 30)
    exact = np.cos(np.pi * unit_family.grid.nodes)
    assert np.max(np.abs(up.values - exact)) < 1e-6


def test_derivatives_match_numerical(exp_family):
    lam = 3.0 - 1.5j
    u1 = u1_grid(exp_family, lam, 25)
    u1p = u1_prime_grid(exp_family, lam, 25)
    num = spps.derivative(u1)
    assert np.max(np.abs(u1p.values - num.values)) < 1e-6


@pytest.mark.parametrize("lam, bound", [(-100.0, 8.2e-12), (-400.0, 6.4e-8),
                                        (-200.0 + 50.0j, 1.2e-10)])
def test_derivatives_against_closed_form(exp_family, lam, bound):
    # u' = f' S + T/f with T = lam * integral of phi S^(M-1), where the
    # series cancels (|lam| large, u' small against its terms); each bound
    # is the error of the term-wise chi sum.  N = 80 lets lam = -400 meet tol
    fam = spps.build_family(exp_family.f, 80)
    choice = choose_truncation(fam, lam)
    assert not choice.capped
    x = fam.grid.nodes
    kappa = np.sqrt(1.0 + lam + 0j)  # q = -1: u'' = (1 + lam) u
    exact = (((1 + kappa) * np.exp(kappa * x) - (kappa - 1) * np.exp(-kappa * x)) / 2,
             np.cosh(kappa * x))
    for u, e in zip((u1_prime_grid, u2_prime_grid), exact):
        err = np.max(np.abs(u(fam, lam, choice.n_terms).values - e)) / np.max(np.abs(e))
        assert err <= bound


def test_wronskian_is_one(exp_family):
    rng = np.random.default_rng(202)
    for lam in 50 * (rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)):
        n = choose_truncation(exp_family, lam).n_terms
        w = (u1_grid(exp_family, lam, n) * u2_prime_grid(exp_family, lam, n)
             - u1_prime_grid(exp_family, lam, n) * u2_grid(exp_family, lam, n))
        assert np.max(np.abs(w.values - 1.0)) < 1e-6


def test_residual_of_solution(exp_family):
    q = sample(lambda x: np.full_like(x, -1.0), exp_family.grid)
    u = u1_grid(exp_family, 2.0, 25)
    assert residual(2.0, u, q) < 1e-5


def test_residual_of_seed(exp_family):
    q = sample(lambda x: np.full_like(x, -1.0), exp_family.grid)
    assert residual(0.0, exp_family.f, q) < 1e-5


def test_residual_grows_when_truncated(exp_family):
    q = sample(lambda x: np.full_like(x, -1.0), exp_family.grid)
    lam = 40.0
    good = residual(lam, u1_grid(exp_family, lam, 25), q)
    bad = residual(lam, u1_grid(exp_family, lam, 2), q)
    assert bad > 100 * good


def test_residual_bounded_over_lambda(exp_family):
    q = sample(lambda x: np.full_like(x, -1.0), exp_family.grid)
    for lam in (-100.0, -25.0, 50.0, 100.0):
        n = choose_truncation(exp_family, lam).n_terms
        assert residual(lam, u1_grid(exp_family, lam, n), q) < 1e-5
        assert residual(lam, u2_grid(exp_family, lam, n), q) < 1e-5


@pytest.mark.parametrize("q_grid", [spps.Grid(0.0, 2.0, 201), spps.Grid(0.0, 1.0, 101)],
                         ids=["other_interval", "other_nodes"])
def test_residual_refuses_a_potential_on_another_grid(q_grid):
    # neither a defect over q's nodes read as u's nor numpy's broadcast error
    u = sample(np.exp, spps.Grid(0.0, 1.0, 201))
    q = sample(lambda x: np.full_like(x, -1.0), q_grid)
    with pytest.raises(GridConfigError, match="different grids"):
        residual(-1.0, u, q)


# -- truncation choice ---------------------------------------------------------

def test_truncation_lambda_zero(exp_family):
    choice = choose_truncation(exp_family, 0.0)
    assert choice.n_terms == 1
    assert not choice.capped


def test_truncation_moderate_lambda(unit_family):
    choice = choose_truncation(unit_family, -np.pi**2, tol=1e-10)
    assert choice.n_terms <= 15
    assert not choice.capped


def test_truncation_unattainable_tolerance(exp_family):
    # lambda must be large enough that the term bound has not yet fallen
    # under tol when the order budget runs out; small lambda converges first
    with pytest.warns(AccuracyWarning):
        choice = choose_truncation(exp_family, 100.0, tol=1e-30)
    assert choice.capped


@pytest.mark.parametrize("lam, tol", [(np.nan, 1e-12), (np.inf, 1e-12), (-np.inf, 1e-12),
                                      (complex(1.0, np.inf), 1e-12),
                                      (complex(np.nan, 1.0), 1e-12),
                                      (-10.0, 0.0), (-10.0, -1.0), (-10.0, np.nan),
                                      (np.array([]), 1e-12)])
def test_truncation_rejects_non_finite_lambda_and_bad_tol(exp_family, lam, tol):
    # refused up front: a non-finite lambda would run to the cap and warn,
    # and an empty array of lambda would end in max()'s ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OrderError):
            choose_truncation(exp_family, lam, tol)


def _truncation_by_the_rule(fam, lam, tol):
    """choose_truncation's rule as written, in the same arithmetic: the
    sup-norm of every partial sum, for every M up to the cap."""
    M_max = (fam.N + 1) // 2
    inv = _inv_factorials(fam.N)
    norms = [fam.psi(k).sup_norm for k in range(fam.N + 1)]

    def term(j, s):  # sup-norm of the j-th term of u1 (s = 0) or u2 (s = 1)
        return abs(lam) ** j * norms[2 * j + s] * inv[2 * j + s]

    S = [np.zeros(fam.grid.n_nodes, dtype=complex) for _ in range(2)]
    lam_k = 1.0 + 0j
    for M in range(1, M_max + 1):
        k = M - 1
        S[0] += lam_k * fam.Xt[2 * k].values * inv[2 * k]
        S[1] += lam_k * fam.X[2 * k + 1].values * inv[2 * k + 1]
        lam_k *= lam
        if 2 * M + 3 > fam.N:
            break
        sups = [float(np.max(np.abs(v))) for v in S]
        if all(term(j, s) <= tol * sups[s] for s in (0, 1) for j in (M, M + 1)):
            return TruncationChoice(M, False)
    return TruncationChoice(M_max, True)


@pytest.mark.parametrize("seed", range(4))
def test_truncation_matches_the_rule_as_written(seed):
    # choose_truncation skips the sup-norms of partial sums where a bound
    # shows the rule fails; the choice must be the rule's, capped or not,
    # and at an array of lambda the largest choice, capped if any is
    rng = np.random.default_rng(seed)
    n = (201, 1001)[seed % 2]
    L = rng.uniform(0.5, 2.0)
    g = spps.Grid(0.0, L, n, x0=None if seed < 2 else L * (n // 2) / (n - 1))
    c0, c1 = rng.uniform(-10, 10, 2)
    seeds = [
        sample(lambda x: np.exp(rng.uniform(-1, 1) * x), g),
        spps.build_seed(sample(lambda x: c0 + c1 * np.cos(3 * x), g)),
        sample(lambda x: np.exp(x) + 1j * np.cos(2 * x), g),
    ]
    kinds = {False: 0, True: 0}
    for f in seeds:
        for N in (40, 13):
            fam = spps.build_family(f, N)
            mags = 10.0 ** rng.uniform(-2, 3, 6)
            lams = [-mags[0], -mags[1], mags[2], mags[3],
                    mags[4] * np.exp(1j * rng.uniform(0, np.pi)),
                    mags[5] * np.exp(-1j * rng.uniform(0, np.pi))]
            for tol in (1e-8, 1e-12, 1e-14):
                choices = []
                for lam in lams:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", AccuracyWarning)
                        got = choose_truncation(fam, lam, tol)
                    assert got == _truncation_by_the_rule(fam, lam, tol), (lam, tol, N)
                    kinds[got.capped] += 1
                    choices.append(got)
                largest = TruncationChoice(max(c.n_terms for c in choices),
                                           any(c.capped for c in choices))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", AccuracyWarning)
                    assert choose_truncation(fam, lams, tol) == largest
                assert len(caught) == largest.capped  # one warning a call
    assert kinds[False] and kinds[True]


def test_truncation_sums_each_series_once(exp_family, monkeypatch):
    # the partial sums' sup-norms come from one whole-grid sum per series,
    # at the first M whose dropped terms pass the bound; a call whose bound
    # never passes sums nothing.  A fresh family: the shared one keeps the
    # sums of earlier tests' last lambda
    exp_family = spps.build_family(exp_family.f, exp_family.N)
    calls = []
    grid_sum = spps.series._grid_sum

    def counting(family, s, lam, M):
        calls.append((0 if family is exp_family else 1, s, M))
        return grid_sum(family, s, lam, M)

    monkeypatch.setattr(spps.series, "_grid_sum", counting)
    for lam in (0.0, -30.0, 5.0 + 20.0j, 300.0):
        calls.clear()
        choice = choose_truncation(exp_family, lam)
        assert not choice.capped
        assert [c[:2] for c in calls] == [(0, 0), (0, 1)]
        assert calls[0][2] == calls[1][2] <= choice.n_terms
    calls.clear()
    with pytest.warns(AccuracyWarning):
        assert choose_truncation(exp_family, 100.0, tol=1e-30).capped
    assert calls == []


@pytest.mark.parametrize("lam", [1e160, 1e200, -1e200, 1e200j])
def test_truncation_refuses_a_lambda_whose_powers_overflow(exp_family, lam):
    # |lam|^k past the float range: an OrderError naming lam, as a
    # non-finite lam gets, not a bare OverflowError
    with pytest.raises(OrderError, match="too large") as info:
        choose_truncation(exp_family, lam)
    assert f"lam={lam} " in str(info.value)


@pytest.mark.parametrize("bad", [2.5, 3.0, True])
def test_n_terms_must_be_an_integer(exp_family, bad):
    # 2.5 terms are not 2: every evaluator refuses a float or a bool
    for ev in (lambda M: u1_grid(exp_family, -3.0, M),
               lambda M: eval_u2_prime(exp_family, -3.0, 0.5, M),
               lambda M: spps.characteristic(
                   spps.SlProblem(sample(np.zeros_like, exp_family.grid), (1.0, 0.0),
                                  (1.0, 0.0)), exp_family, -3.0, M)):
        with pytest.raises(OrderError, match="n_terms must be an integer"):
            ev(bad)
    assert np.array_equal(u1_grid(exp_family, -3.0, np.int64(3)).values,
                          u1_grid(exp_family, -3.0, 3).values)


def test_truncation_must_fit_family(exp_family):
    with pytest.raises(OrderError):
        u1_grid(exp_family, 1.0, 0)
    with pytest.raises(OrderError):
        u1_grid(exp_family, 1.0, (exp_family.N + 1) // 2 + 1)
    with pytest.raises(OrderError):
        eval_u2_prime(exp_family, 1.0, 0.5, exp_family.N)


# -- shared evaluator ------------------------------------------------------------

@pytest.mark.parametrize("name, q_value", [("exp_family", -1.0),
                                           ("q_zero_family", 0.0)])
def test_evaluators_leave_family_rows_untouched(request, name, q_value):
    # the Horner accumulator is updated in place: it must never alias a row
    fam = request.getfixturevalue(name)
    before = [g.values.copy() for g in fam.X + fam.Xt]
    q = sample(lambda x: np.full_like(x, q_value), fam.grid)
    problem = spps.SlProblem(q, (1.0, 0.0), (1.0, 0.0))
    for lam in (-30.0, 5.0 + 20.0j):
        M = choose_truncation(fam, lam).n_terms
        for u in (u1_grid, u1_prime_grid, u2_grid, u2_prime_grid):
            u(fam, lam, M)
        for u in (eval_u1, eval_u1_prime, eval_u2, eval_u2_prime):
            u(fam, lam, 0.37, M)
        spps.characteristic(problem, fam, lam, M)
    after = [g.values for g in fam.X + fam.Xt]
    assert all(np.array_equal(b, a) for b, a in zip(before, after))


@pytest.mark.parametrize("name", ["exp_family", "q_zero_family"])
@pytest.mark.parametrize("lam", [-30.0, 5.0 + 20.0j,
                                 np.linspace(-60.0, 40.0, 7)])
def test_right_end_matches_grid_solutions(request, name, lam):
    # the endpoint sums give the last node of the grid sums, to rounding.
    # u1 and u2 sum the same psi values, in Horner form at b and as one
    # matrix product on the grid; u1' and u2' sum the chi ends at b where
    # the grid integrates phi S^(M-1).  So each pair differs by rounding of
    # the size of its series' terms, eps * sum_k |term_k(b)|
    fam = request.getfixturevalue(name)
    M = max(choose_truncation(fam, l).n_terms for l in np.atleast_1d(lam))
    ends = spps.series._right_end(fam, lam, M)
    term_sums = np.array([_term_sums(fam, l, M) for l in np.atleast_1d(lam)]).T
    for u, end, sums in zip((u1_grid, u1_prime_grid, u2_grid, u2_prime_grid), ends,
                            term_sums):
        grid_end = np.array([u(fam, l, M).values[-1] for l in np.atleast_1d(lam)])
        assert np.shape(end) == np.shape(lam)
        assert np.all(np.abs(end - grid_end) <= 32 * np.finfo(float).eps * sums)


@pytest.mark.parametrize("lam", [-30.0, 5.0 + 20.0j, np.linspace(-60.0, 40.0, 7)])
def test_right_end_gives_a_too_from_a_middle_anchor(lam):
    # the last four sums are u1, u1', u2, u2' at a: on a family anchored at
    # the middle node, each is the grid solution's first node to rounding,
    # as the first four are its last node
    g = spps.Grid(0.0, 1.0, 2001, x0=0.5)
    fam = spps.build_family(sample(lambda x: np.exp(x) + 0.5j, g), 60)
    M = max(choose_truncation(fam, l).n_terms for l in np.atleast_1d(lam))
    ends = spps.series._right_end(fam, lam, M)
    assert len(ends) == 8
    for node, at_node in ((-1, ends[:4]), (0, ends[4:])):
        for u, end in zip((u1_grid, u1_prime_grid, u2_grid, u2_prime_grid), at_node):
            want = np.array([u(fam, l, M).values[node] for l in np.atleast_1d(lam)])
            assert np.shape(end) == np.shape(lam)
            assert np.max(np.abs(np.ravel(end) - want)) <= 1e-13 * np.max(np.abs(want))


def _term_sums(fam, lam, M):
    """sum_k |term_k(b)| of u1, u1', u2 and u2', f S and f' S + T/f with T
    the sum of the chi terms, from the psi rows and chi ends at b."""
    psi = [p[-1] for p in fam._psi[:2 * M]]
    chi = [c[-1] for c in fam._chi_ends[:2 * M]]
    inv = _inv_factorials(2 * M - 1)
    f, fp, a = fam.f.values[-1], fam.f_prime.values[-1], abs(lam)
    u1 = sum(a ** k * abs(f * psi[2 * k]) * inv[2 * k] for k in range(M))
    u2 = sum(a ** k * abs(f * psi[2 * k + 1]) * inv[2 * k + 1] for k in range(M))
    u1p = sum(a ** k * abs(fp * psi[2 * k]) * inv[2 * k] for k in range(M)) + sum(
        a ** k * abs(chi[2 * k - 1] / f) * inv[2 * k - 1] for k in range(1, M))
    u2p = sum(a ** k * (abs(fp * psi[2 * k + 1]) * inv[2 * k + 1]
                        + abs(chi[2 * k] / f) * inv[2 * k]) for k in range(M))
    return u1, u1p, u2, u2p


@pytest.fixture(scope="module")
def seed_family_20001():
    # past 16384 nodes a complex temporary reaches 256 KiB, where numpy
    # runs x * tmp as tmp *= x: the products' order must not depend on it
    g = spps.Grid(0.0, 1.0, 20001)
    q = sample(lambda x: 50.0 * np.cos(3 * np.pi * x), g)
    return spps.build_family(spps.build_seed(q), 80)


@pytest.mark.parametrize("name", ["exp_family", "q_zero_family", "seed_family_20001"])
@pytest.mark.parametrize("lam", [17.5, -30.0, -4.0 + 25.0j])
def test_off_node_evaluators_are_interpolated_grid_solutions(request, name, lam, held_sums):
    # eval_u* reads the kept whole-grid sums at the stencil nodes, and on a
    # fresh family makes and keeps them first, with the same bits; the two
    # families read in turn make their sums anew each time
    fam = request.getfixturevalue(name)
    fresh = spps.build_family(fam.f, fam.N)
    g = fam.grid
    M = choose_truncation(fam, lam).n_terms
    rng = np.random.default_rng(5)
    # 3000 points make 18000 stencil nodes, past 256 KiB as well
    points = [0.4 * g.a + 0.6 * g.b, rng.uniform(g.a, g.b, 40), g.nodes[::77],
              g.a, g.b, np.array([g.a, g.b]), rng.uniform(g.a, g.b, 3000)]
    for ev, on_grid in ((eval_u1, u1_grid), (eval_u2, u2_grid),
                        (eval_u1_prime, u1_prime_grid),
                        (eval_u2_prime, u2_prime_grid)):
        gf = on_grid(fam, lam, M)
        for x in points:
            got, alone, want = ev(fam, lam, x, M), ev(fresh, lam, x, M), gf.at(x)
            assert np.shape(got) == np.shape(alone) == np.shape(x)
            assert np.array_equal(got, want)
            assert np.array_equal(alone, want)
        # the family read last alone holds sums, those its reader made on the
        # whole grid: S for eval_u1 and eval_u2, and S and T for
        # eval_u*_prime, as u' needs T on the whole grid
        s = ev in (eval_u2, eval_u2_prime)
        assert not held_sums(fam)
        assert sorted(held_sums(fresh)) == [(0, s), (1, s)][:1 + (ev in (eval_u1_prime,
                                                                   eval_u2_prime))]


# -- sums kept for the latest lambda -------------------------------------------

_READERS = (u1_grid, u1_prime_grid, u2_grid, u2_prime_grid,
            eval_u1, eval_u1_prime, eval_u2, eval_u2_prime)


def _read(reader, fam, lam, M, x=np.linspace(0.05, 0.95, 9)):
    if reader.__name__.startswith("eval"):
        return reader(fam, lam, x, M)
    return reader(fam, lam, M).values


def _count_sums(monkeypatch, fam, integrals=None):
    """(s, M) of every whole-grid sum of fam's psi rows from now on, the
    one sum the series module makes (_grid_sum); and the shape of every
    row the series module integrates, appended to integrals if given."""
    calls = []
    grid_sum = spps.series._grid_sum
    integrate = spps.series._integrate_rows

    def counting_grid(family, s, lam, M):
        if family is fam:
            calls.append((s, M))
        return grid_sum(family, s, lam, M)

    def counting_integrals(y, *args):
        integrals.append(y.shape)
        return integrate(y, *args)

    monkeypatch.setattr(spps.series, "_grid_sum", counting_grid)
    if integrals is not None:
        monkeypatch.setattr(spps.series, "_integrate_rows", counting_integrals)
    return calls


# lam, and whether choose_truncation sums at the M it returns (at -30 it
# sums at the first M the bound lets through, 15, and returns 16)
@pytest.mark.parametrize("lam, sums_at_choice", [(-30.0, False), (5.0 + 20.0j, True),
                                                 (300.0, True)])
@pytest.mark.parametrize("extra", [0, 2], ids=["chosen_M", "larger_M"])
def test_one_lambda_sums_each_series_once_for_every_reader(exp_family, monkeypatch,
                                                           lam, sums_at_choice, extra, held_sums):
    # choose_truncation, the four u*_grid and the four eval_u* at one lam:
    # 2 whole-grid sums of the psi rows when choose_truncation summed
    # at the M used, 4 when not (u1's and u2's series again at that M), and
    # 2 integrals, one for each derivative; eval_u* none at all
    fam = spps.build_family(exp_family.f, exp_family.N)
    integrals = []
    calls = _count_sums(monkeypatch, fam, integrals)
    M = choose_truncation(fam, lam).n_terms + extra
    at_M = calls[0][1] == M
    assert at_M == (sums_at_choice and not extra)
    got = [_read(r, fam, lam, M) for r in _READERS[:4]]
    assert len(calls) == (2 if at_M else 4)
    assert integrals == [(fam.grid.n_nodes,)] * 2
    calls.clear()
    integrals.clear()
    got += [_read(r, fam, lam, M) for r in _READERS[4:]]
    assert calls == [] and integrals == []
    assert len(held_sums(fam)) == 4  # S and T of u1 and u2, of n_nodes each
    # no result shares memory with a kept sum, so changing one changes nothing
    kept = list(held_sums(fam).values())
    assert not any(np.shares_memory(v, S) for v in got for S in kept)
    want = [v.copy() for v in got]
    for v in got:
        v[:] = np.nan
    again = [_read(r, fam, lam, M) for r in _READERS]
    assert calls == [] and integrals == []
    assert all(np.array_equal(a, w) for a, w in zip(again, want))
    # the bits of each reader on a fresh family, which keeps nothing yet
    for r, values in zip(_READERS, want):
        assert np.array_equal(values, _read(r, spps.build_family(fam.f, fam.N), lam, M))


def test_a_new_lambda_sums_again_and_an_array_lambda_bypasses(exp_family, monkeypatch, held_sums):
    fam = spps.build_family(exp_family.f, exp_family.N)
    calls = _count_sums(monkeypatch, fam)

    def whole_sums(read):
        calls.clear()
        read()
        return len(calls)

    assert whole_sums(lambda: u1_grid(fam, -30.0, 8)) == 1
    assert whole_sums(lambda: u1_grid(fam, -30.0, 8)) == 0
    # an int or a complex lam of the same value has the same bits
    assert whole_sums(lambda: u1_grid(fam, -30, 8)) == 0
    assert whole_sums(lambda: u1_grid(fam, complex(-30), 8)) == 0
    # an array lam sums its own series at the last node, on no whole grid,
    # and keeps nothing
    kept = dict(held_sums(fam))
    assert whole_sums(lambda: spps.series._right_end(fam, np.array([-30.0, 2.0]), 8)) == 0
    assert held_sums(fam).keys() == kept.keys()
    assert all(held_sums(fam)[key] is kept[key] for key in kept)
    assert whole_sums(lambda: u1_grid(fam, -30.0, 8)) == 0
    # a new lam sums again, and then the one before it too
    assert whole_sums(lambda: u1_grid(fam, 2.0, 8)) == 1
    assert whole_sums(lambda: u1_grid(fam, -30.0, 8)) == 1
    # eval_u1 makes and keeps the whole-grid sum, and a series keeps one M
    assert whole_sums(lambda: eval_u1(fam, 7.0, 0.3, 8)) == 1
    assert whole_sums(lambda: u1_grid(fam, 7.0, 8)) == 0
    assert whole_sums(lambda: u1_grid(fam, 7.0, 9)) == 1
    assert whole_sums(lambda: u1_grid(fam, 7.0, 8)) == 1
    assert len(held_sums(fam)) == 1
    # made anew, with a fresh family's bits
    fresh = spps.build_family(fam.f, fam.N)
    assert np.array_equal(u1_grid(fam, 7.0, 8).values, u1_grid(fresh, 7.0, 8).values)


def test_a_sum_cut_short_leaves_no_stale_sum(exp_family, monkeypatch, held_sums):
    fam = spps.build_family(exp_family.f, exp_family.N)
    want = u1_grid(fam, 2.0, 8).values

    def cut_short(family, s, lam, M):
        # lam = 2.0's sum is dropped before the new one is made
        assert (0, 0) not in held_sums(family)
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(spps.series, "_grid_sum", cut_short)
        with pytest.raises(KeyboardInterrupt):
            u1_grid(fam, -30.0, 8)
    assert (0, 0) not in held_sums(fam)
    assert np.array_equal(u1_grid(fam, 2.0, 8).values, want)
    # so for the derivative series' integral
    want = u1_prime_grid(fam, 2.0, 8).values

    def integral_cut_short(y, h, out, x0_index):
        out[:] = np.nan
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(spps.series, "_integrate_rows", integral_cut_short)
        with pytest.raises(KeyboardInterrupt):
            u1_prime_grid(fam, -30.0, 8)
    assert (1, 0) not in held_sums(fam)
    assert np.array_equal(u1_prime_grid(fam, 2.0, 8).values, want)


# -- the sums of one family per process ----------------------------------------

def _read_all(fam, lam, M):
    return [_read(r, fam, lam, M) for r in _READERS]


def test_reading_another_family_clears_the_sums_of_the_one_before(held_sums):
    # families A, B, then A at one lam: each read makes its family's sums
    # anew, with a fresh family's bits, and a family read after another
    # clears that one's sums.  The seeds differ in every row: seeds f and
    # 2f share their even psi rows, so u1's S, and a read of the one from
    # the other's sums would pass unseen
    g = spps.Grid(0.0, 1.0, 2001)
    f, f_b = sample(np.exp, g), sample(np.cosh, g)
    lam = 5.0 + 20.0j
    a, b = spps.build_family(f, 60), spps.build_family(f_b, 60)
    M = choose_truncation(a, lam).n_terms
    want_a = _read_all(spps.build_family(f, 60), lam, M)
    want_b = _read_all(spps.build_family(f_b, 60), lam, M)
    assert not any(np.array_equal(x, y) for x, y in zip(want_a, want_b))
    for fam, want, other in ((a, want_a, b), (b, want_b, a), (a, want_a, b)):
        got = _read_all(fam, lam, M)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert sorted(held_sums(fam)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert not held_sums(other)


def test_the_process_holds_the_four_sums_of_the_family_read_last(held_sums):
    g = spps.Grid(0.0, 1.0, 2001)
    fams = [spps.build_family(sample(seed, g), 60)
            for seed in (np.exp, np.cosh, lambda x: np.exp(x) + 0.5j, lambda x: 2.0 + x)]
    for lam in (-30.0, 4.0 - 9.0j):
        for i, fam in enumerate(fams):
            _read_all(fam, lam, 12)
            assert [len(held_sums(other)) for other in fams] == [4 * (j == i) for j in range(4)]
    # four whole-grid arrays of n_nodes, in the type of the last family's
    # rows and lam
    assert sum(S.nbytes for S in held_sums(fams[-1]).values()) == 4 * 16 * g.n_nodes


def test_a_freed_family_frees_its_sums_and_the_next_makes_its_own(monkeypatch, held_sums):
    # the process keeps the latest family by a weak reference: deleting it
    # frees the family and its sums, and a family made afterwards, whatever
    # its id, holds none until it is read, then makes its own
    f = sample(np.exp, spps.Grid(0.0, 1.0, 2001))
    want = _read_all(spps.build_family(f, 60), -30.0, 12)
    calls = []
    grid_sum = spps.series._grid_sum
    monkeypatch.setattr(spps.series, "_grid_sum", lambda family, s, lam, M:
                        calls.append((s, M)) or grid_sum(family, s, lam, M))
    for _ in range(3):
        fam = spps.build_family(f, 60)
        assert not held_sums(fam)
        calls.clear()
        got = _read_all(fam, -30.0, 12)
        assert sorted(calls) == [(0, 12), (1, 12)]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        dead_family = weakref.ref(fam)
        dead_sums = [weakref.ref(S) for S in held_sums(fam).values()]
        del fam
        gc.collect()
        assert dead_family() is None and all(ref() is None for ref in dead_sums)


def test_threads_reading_their_own_families_keep_one_family_s_sums():
    # more threads than cores, each reading its own family on the whole grid
    # at two lams in turn, with a short switch interval: every result is
    # the one read alone, no read fails, and after each read one snapshot
    # of the process's slot holds at most the four sums of one family
    g = spps.Grid(0.0, 1.0, 20001)
    fams = [spps.build_family(sample(lambda x, c=c: np.exp(c * x), g), 40)
            for c in (0.5, 1.0, 1.5, 2.0)]
    lams = (-30.0, 4.0 - 9.0j)
    readers = _READERS[:4]
    want = [[[_read(r, spps.build_family(fam.f, fam.N), lam, 10) for r in readers]
             for lam in lams] for fam in fams]
    errors, got, rounds = [], [[] for _ in fams], 50
    start = threading.Barrier(len(fams), timeout=60)

    def reader(i):
        try:
            start.wait()
            for k in range(rounds):
                got[i].append([_read(r, fams[i], lams[(i + k) % 2], 10) for r in readers])
                # one snapshot of the slot, which another thread may replace
                (ref, *_), sums = spps.series._last
                sums = dict(sums)
                assert any(ref() is fam for fam in fams)
                assert len(sums) <= 4 and set(sums) <= {(0, 0), (0, 1), (1, 0), (1, 1)}
                assert all(S.shape == (g.n_nodes,) for S in sums.values())
        except Exception as e:  # reported by the main thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(len(fams))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for i, reads in enumerate(got):
        assert len(reads) == rounds
        for k, values in enumerate(reads):
            assert all(np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
                       for a, b in zip(values, want[i][(i + k) % 2]))


@pytest.mark.parametrize("reader", _READERS, ids=lambda r: r.__name__)
def test_a_sum_whose_slot_is_replaced_mid_call_is_returned_not_kept(monkeypatch, held_sums,
                                                                   reader):
    # the first whole-grid sum made for family a reads family b before it
    # returns, as another thread may: a's read gives a fresh family's bits
    # from the sums it made, and the slot holds b's sums, not a's; a
    # derivative reader then makes T from the S it made, without making S
    # again, and keeps that T alone
    g = spps.Grid(0.0, 1.0, 2001)
    f, f_b = sample(np.exp, g), sample(np.cosh, g)
    lam, M = 5.0 + 20.0j, 12
    a, b = spps.build_family(f, 60), spps.build_family(f_b, 60)
    want_a = _read(reader, spps.build_family(f, 60), lam, M)
    want_b = _read_all(spps.build_family(f_b, 60), lam, M)
    grid_sum, read_b = spps.series._grid_sum, []

    made_for_a = []

    def b_read_mid_call(family, s, lam, M):
        if family is a:
            made_for_a.append(s)
            if not read_b:
                read_b.append(_read_all(b, lam, M))
        return grid_sum(family, s, lam, M)

    monkeypatch.setattr(spps.series, "_grid_sum", b_read_mid_call)
    assert np.array_equal(_read(reader, a, lam, M), want_a)
    assert all(np.array_equal(g, w) for g, w in zip(read_b[0], want_b))
    s = reader in (u2_grid, u2_prime_grid, eval_u2, eval_u2_prime)
    if reader in (u1_prime_grid, u2_prime_grid, eval_u1_prime, eval_u2_prime):
        assert sorted(held_sums(a)) == [(1, s)] and not held_sums(b)
    else:
        assert not held_sums(a)
        assert sorted(held_sums(b)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        # and they are b's own: read from them, b gives its bits again
        assert all(np.array_equal(g, w) for g, w in zip(_read_all(b, lam, M), want_b))
    assert made_for_a == [s]  # S made once


@pytest.mark.parametrize("lam", [np.array([3.0, 4.0]), np.zeros((2, 2)), np.array([]),
                                 [2.0, -1.0 + 1j]])
def test_every_reader_refuses_a_lambda_of_several_values(exp_family, lam, held_sums):
    # one lam a call: an OrderError naming lam, not numpy's broadcast error,
    # and no sum kept
    fam = spps.build_family(exp_family.f, exp_family.N)
    for reader in _READERS:
        with pytest.raises(OrderError, match="lam must be one value"):
            _read(reader, fam, lam, 5)
    assert not held_sums(fam)


@pytest.mark.parametrize("lam", [np.array([3.0]), np.array(-30.0), np.array([[-4.0 + 25.0j]]),
                                 [7.0]])
def test_every_reader_takes_a_lambda_of_one_value_in_an_array(exp_family, lam):
    # with the bits of that value as a scalar
    value = np.ravel(lam)[0]
    fam = spps.build_family(exp_family.f, exp_family.N)
    for reader in _READERS:
        got = _read(reader, fam, lam, 8)
        assert np.array_equal(got, _read(reader, spps.build_family(fam.f, fam.N), value, 8))


def test_readers_keep_psi_rows_and_four_sums_only(held_sums):
    # the series readers build no whole chi row: after choose_truncation,
    # the four u*_grid and the four eval_u* at one lam the family holds its
    # psi rows, psi_n's and chi_n's first and last node per order, and S
    # and T of u1 and u2
    g = spps.Grid(0.0, 1.0, 2001)
    q = sample(lambda x: 50 * np.cos(3 * np.pi * x), g)
    fam = spps.build_family(spps.build_seed(q), 80)
    lam = -40.0
    M = choose_truncation(fam, lam).n_terms
    for r in _READERS:
        _read(r, fam, lam, M)
    built = len(fam._sup_norms)
    assert 1 < built < 81
    assert "_chi" not in vars(fam)
    assert sorted(held_sums(fam)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # the family's arrays of rows are its one complex psi block, of which
    # only the built orders' rows are written, its arrays of psi and of chi
    # ends and, until order N is built, the order loop's (2, 2, n_nodes)
    # scratch
    assert {k for k, v in vars(fam).items() if isinstance(v, np.ndarray)} == {
        "_psi", "_psi_ends", "_chi_ends", "_scratch"}
    assert fam._psi.shape == (81, g.n_nodes) and fam._psi.dtype == complex
    assert fam._psi_ends.shape == fam._chi_ends.shape == (81, 2)
    # and four complex sums of n_nodes
    assert sum(S.nbytes for S in held_sums(fam).values()) == 4 * 16 * g.n_nodes


def _long_double_sum(rows, s, lam, M):
    """sum_{k<M} lam^k rows[2k+s] / (2k+s)! in Horner form, in long double
    throughout: the reference for _grid_sum."""
    wide = np.clongdouble if np.iscomplexobj(rows[1]) or np.iscomplexobj(lam) else np.longdouble
    lam = wide(lam)
    fact = [wide(1)]
    for k in range(1, 2 * M):
        fact.append(fact[-1] * k)
    acc = np.zeros(rows[0].shape, wide)
    for k in range(M - 1, -1, -1):
        acc = acc * lam + rows[2 * k + s].astype(wide) / fact[2 * k + s]
    return acc


@pytest.mark.parametrize("seed", [np.exp, lambda x: np.exp(x) + 0.5j * np.cos(3 * x)],
                         ids=["real_rows", "complex_rows"])
@pytest.mark.parametrize("lam", [-37.0, 410.0, complex(-37.0, 5.0), 300j])
@pytest.mark.parametrize("M", [1, 2, 13, 30])
def test_grid_sum_matches_a_long_double_reference(seed, lam, M):
    # one product of the coefficients with the strided rows, in the rows'
    # type, within 4 M eps of the sum of the terms' sizes at each node
    fam = spps.build_family(sample(seed, spps.Grid(0.0, 1.0, 2001)), 60)
    fam._grow(2 * M)
    for s in (0, 1):
        got = spps.series._grid_sum(fam, s, lam, M)
        # the type of the rows summed, psi_0 = 1 included, and lam
        complex_rows = np.iscomplexobj(seed(0.5))
        assert got.dtype == (complex if complex_rows or np.imag(lam) else np.float64)
        want = _long_double_sum(fam._psi, s, lam, M)
        inv = _inv_factorials(2 * M - 1)
        sizes = sum(abs(lam) ** k * inv[2 * k + s] * np.abs(fam._psi[2 * k + s])
                    for k in range(M))
        err = np.abs(got - want).astype(float)
        assert np.all(err <= 4 * M * np.finfo(float).eps * sizes)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, complex(np.nan, 1.0)])
def test_every_reader_refuses_a_non_finite_lambda(exp_family, lam, held_sums):
    # as choose_truncation does, up front: no nan result, no numpy warning
    # (any warning fails the test), and no sum kept
    fam = spps.build_family(exp_family.f, exp_family.N)
    for reader in _READERS:
        with pytest.raises(OrderError, match="lam must be finite"):
            _read(reader, fam, lam, 8)
    with pytest.raises(OrderError, match="lam must be finite"):
        spps.series._right_end(fam, np.array([-30.0, lam]), 8)
    assert not held_sums(fam)


@pytest.mark.parametrize("lam", [1e300, -1e300, 1e300j, np.float64(1e200)])
def test_every_reader_refuses_a_lambda_whose_highest_power_overflows(exp_family, lam, held_sums):
    # |lam|^(n_terms - 1) past the float range at an explicit n_terms: an
    # OrderError naming lam, as choose_truncation raises (a numpy float
    # too), not inf or nan with numpy warnings (any warning fails the
    # test), and no sum kept
    fam = spps.build_family(exp_family.f, exp_family.N)
    problem = spps.SlProblem(sample(lambda x: np.full_like(x, -1.0), fam.grid),
                             (1.0, 0.0), (1.0, 0.0))
    calls = [lambda: choose_truncation(fam, lam)]
    calls += [lambda r=r: _read(r, fam, lam, 5) for r in _READERS]
    calls += [lambda: spps.series._right_end(fam, np.array([-30.0, lam]), 5),
              lambda: spps.characteristic(problem, fam, lam, 5),
              lambda: spps.characteristic(problem, fam, np.array([lam, 2.0]), 5)]
    for call in calls:
        with pytest.raises(OrderError, match="too large") as info:
            call()
        assert "lam=" in str(info.value)
    assert not held_sums(fam)
    # the highest power read is lam^(n_terms - 1): at 2 terms, lam itself
    for r in _READERS:
        assert np.all(np.isfinite(_read(r, fam, 1e300, 2)))
    assert np.all(np.isfinite(spps.series._right_end(fam, np.array([-30.0, 1e300]), 2)))


@pytest.mark.parametrize("x", [np.nan, np.array([0.3, np.nan])])
def test_off_node_evaluators_reject_nan(exp_family, x):
    # as GridFunction.at does: nan lies outside [a, b]
    for ev in (eval_u1, eval_u2, eval_u1_prime, eval_u2_prime):
        with pytest.raises(DomainError):
            ev(exp_family, -3.0, x, 5)


@pytest.mark.parametrize("evaluate", [
    lambda fam, M: u1_grid(fam, 2.0, M), lambda fam, M: u2_prime_grid(fam, 2.0, M),
    lambda fam, M: eval_u2(fam, 2.0, 0.3, M)])
def test_evaluators_build_only_the_orders_they_read(evaluate):
    # a truncation M reads orders up to 2M - 1; the cap N is not built
    g = spps.Grid(0.0, 1.0, 201)
    fam = spps.build_family(sample(lambda x: np.exp(x) + 0.5j, g), 40)
    first = evaluate(fam, 6)
    assert len(fam._sup_norms) == 12
    fam.X  # completes the family to N = 40
    assert len(fam._sup_norms) == 41
    again = evaluate(fam, 6)
    first, again = getattr(first, "values", first), getattr(again, "values", again)
    assert np.array_equal(first, again)


# -- the sums at b ---------------------------------------------------------------

@pytest.mark.parametrize("cached", [_factorials, _inv_factorials])
def test_cached_factorials_refuse_writes(cached):
    # every sum reads the one cached array: a write in place would move
    # every later sum, so it raises and leaves the array as it was
    table = cached(12)
    before = table.copy()
    with pytest.raises(ValueError):
        table[3] = 0.0
    with pytest.raises(ValueError):
        table *= 2.0
    assert cached(12) is table and np.array_equal(table, before)


@pytest.mark.parametrize("lam", [np.linspace(-60.0, 40.0, 5),
                                 np.linspace(-60.0, 40.0, 6).reshape(2, 3) + 3j],
                         ids=["real_lam", "complex_lam"])
def test_lam_sums_over_pieces_equal_one_piece_at_a_time(lam):
    # a leading piece axis at an array of lam: the sums of P pieces at once
    # are the P one-piece sums, bit for bit, each in the piece's shape and
    # then lam's.  Real rows: the seed's pieces, whole psi rows and chi at
    # each piece's last node (two shapes, two passes).  Complex rows: the
    # ends of three families stacked as pieces (one shape, one pass)
    g = spps.Grid(0.0, 1.0, 201)
    seed_pieces = _Pieces((1.0, -50.0 * np.cos(3 * np.pi * g.nodes)), g.nodes,
                          np.arange(0, 160, 40), 40, 21)
    seed_pieces.grow(21)
    pieces = seed_pieces.psi, seed_pieces.ends[1, ..., 1]
    fams = [spps.build_family(sample(lambda x, c=c: np.exp(c * x) + 0.5j * np.cos(3 * x), g), 21)
            for c in (0.5, -1.0, 2.0)]
    for fam in fams:
        fam._grow(21)
    ends = [np.stack([getattr(fam, name) for fam in fams], axis=1)
            for name in ("_psi_ends", "_chi_ends")]
    for psi, chi in (pieces, ends):
        for M in (1, 2, 11):
            together = _lam_sums(psi, chi, lam, M)
            assert [s.shape for s in together] == (
                2 * [psi.shape[1:] + lam.shape] + 2 * [chi.shape[1:] + lam.shape])
            for p in range(psi.shape[1]):
                alone = _lam_sums(psi[:, p], chi[:, p], lam, M)
                for s, a in zip(together, alone):
                    assert s[p].dtype == a.dtype and s[p].tobytes() == a.tobytes()


def _right_end_reference(fam, lam, M, horner):
    """_right_end as the former kernel summed it: each series alone in
    Horner form, T1 as lam times the sum of chi_1, chi_3, .. (0.0 at
    M = 1), and the four combined as _right_end combines them."""
    lam = _real_if_real(lam)
    psi, chi = fam._psi, fam._chi_ends
    f, fp = fam.f.values[-1], fam.f_prime.values[-1]
    S1, S2 = horner(psi, 0, lam, M, -1), horner(psi, 1, lam, M, -1)
    T1 = np.multiply(lam, horner(chi, 1, lam, M - 1, -1)) if M > 1 else 0.0
    T2 = horner(chi, 0, lam, M, -1)
    return (np.multiply(f, S1), _prime(fp, S1, T1, f),
            np.multiply(f, S2), _prime(fp, S2, T2, f))


def _assert_right_end_is_horner(fam, horner):
    """polyval is Horner form with the former kernel's operations, term +
    acc * lam, so at a lam with no imaginary part -- a float, a
    complex-typed real and 1-D, 2-D and empty arrays -- _right_end has
    the reference's bits.  It has lam's shape at every truncation from
    M = 1, where the kernel made one value, up to the family's cap.  At a
    complex lam the two agree to rounding: numpy's array loop for a
    complex product fuses a multiply and an add, so its imaginary part
    depends on the operands' order (the reference's T1 is lam times the
    sum, polyval's the sum times lam), and numpy's scalar arithmetic,
    which the reference ran at a scalar lam, fuses none."""
    lams = [-37.0, complex(-37.0), np.array([-37.0, 2.0 + 0j]),
            np.linspace(-60.0, 40.0, 6).reshape(2, 3), np.zeros(0),
            complex(-37.0, 5.0), np.linspace(-60.0, 40.0, 6).reshape(2, 3) + 3j]
    for M in range(1, (fam.N + 1) // 2 + 1):
        for lam in lams:
            got = spps.series._right_end(fam, lam, M)
            want = _right_end_reference(fam, lam, M, horner)
            sizes = np.array([_term_sums(fam, l, M) for l in np.ravel(lam)]).T
            for g, w, size in zip(got, want, sizes.reshape((4,) + np.shape(lam))):
                w = np.broadcast_to(w, np.shape(lam))
                assert np.shape(g) == np.shape(lam) and g.dtype == w.dtype
                if not np.any(np.imag(lam)):
                    assert np.asarray(g).tobytes() == w.tobytes()
                else:
                    assert np.all(np.abs(g - w) <= 4 * M * np.finfo(float).eps * size)


def test_real_rows_at_a_real_lambda_sum_in_float64(horner):
    fam = spps.build_family(sample(np.exp, spps.Grid(0.0, 1.0, 2001)), 60)
    _assert_right_end_is_horner(fam, horner)
    for lam in (-37.0, complex(-37.0), np.array([-37.0, 2.0 + 0j])):
        assert all(u.dtype == np.float64 for u in spps.series._right_end(fam, lam, 25))


def test_complex_rows_sum_at_b_in_horner_form(horner):
    fam = spps.build_family(sample(lambda x: np.exp(x) + 0.5j, spps.Grid(0.0, 1.0, 2001)), 60)
    _assert_right_end_is_horner(fam, horner)


def test_kept_sums_follow_lambda_from_real_to_complex_and_back(held_sums):
    # each kept S and T is made anew at a new lam: a complex lam after a
    # real one, and a real lam after a complex one, get the bits and the
    # type of a fresh family's sums
    g = spps.Grid(0.0, 1.0, 2001)
    fam = spps.build_family(sample(np.exp, g), 60)
    readers = (u1_grid, u2_grid, u1_prime_grid, u2_prime_grid, eval_u1_prime, eval_u2_prime)
    lams = (-30.0, complex(-30.0, 4.0), complex(-30.0), 12.0, 12.0 + 1e-3j)
    # the fresh families are read first: reading one clears fam's sums
    fresh = []
    for lam in lams:
        other = spps.build_family(fam.f, fam.N)
        choice = choose_truncation(other, lam)
        fresh.append((choice, [_read(r, other, lam, choice.n_terms) for r in readers]))
    for lam, (choice, want) in zip(lams, fresh):
        assert choice == choose_truncation(fam, lam)
        dtype = complex if np.imag(lam) else np.float64
        for r, values in zip(readers, want):
            got = _read(r, fam, lam, choice.n_terms)
            assert got.dtype == values.dtype == dtype
            assert np.array_equal(got, values)
        assert sorted(held_sums(fam)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(S.dtype == dtype for S in held_sums(fam).values())
