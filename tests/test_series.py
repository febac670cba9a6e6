import warnings

import numpy as np
import pytest

import spps
from spps import (
    AccuracyWarning,
    DomainError,
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
from spps.series import TruncationChoice, _inv_factorials


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
                                      (-10.0, 0.0), (-10.0, -1.0), (-10.0, np.nan)])
def test_truncation_rejects_non_finite_lambda_and_bad_tol(exp_family, lam, tol):
    # refused up front: a non-finite lambda would run to the cap and warn
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
    # shows the rule fails; the choice must be the rule's, capped or not
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
            for lam in lams:
                for tol in (1e-8, 1e-12, 1e-14):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", AccuracyWarning)
                        got = choose_truncation(fam, lam, tol)
                    assert got == _truncation_by_the_rule(fam, lam, tol), (lam, tol, N)
                    kinds[got.capped] += 1
    assert kinds[False] and kinds[True]


def test_truncation_sums_each_series_once(exp_family, monkeypatch):
    # the partial sums' sup-norms come from one whole-grid Horner sum per
    # series, at the first M whose dropped terms pass the bound; a call
    # whose bound never passes sums nothing.  A fresh family: the shared
    # one keeps the sums of earlier tests' last lambda
    exp_family = spps.build_family(exp_family.f, exp_family.N)
    calls = []
    horner = spps.series._horner

    def counting(pairs, row, s, lam, M, at, **out):
        if isinstance(at, slice):
            calls.append((row, s, M))
        return horner(pairs, row, s, lam, M, at, **out)

    monkeypatch.setattr(spps.series, "_horner", counting)
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
    # the endpoint sums give the last node of the grid sums, to rounding
    fam = request.getfixturevalue(name)
    M = max(choose_truncation(fam, l).n_terms for l in np.atleast_1d(lam))
    ends = spps.series._right_end(fam, lam, M)
    for u, end in zip((u1_grid, u1_prime_grid, u2_grid, u2_prime_grid), ends):
        grid_end = np.array([u(fam, l, M).values[-1] for l in np.atleast_1d(lam)])
        assert np.shape(end) == np.shape(lam)
        assert np.all(np.abs(end - grid_end) <= 1e-14 * np.abs(grid_end))


@pytest.fixture(scope="module")
def seed_family_20001():
    # past 16384 nodes a complex temporary reaches 256 KiB, where numpy
    # runs x * tmp as tmp *= x: the products' order must not depend on it
    g = spps.Grid(0.0, 1.0, 20001)
    q = sample(lambda x: 50.0 * np.cos(3 * np.pi * x), g)
    return spps.build_family(spps.build_seed(q), 80)


@pytest.mark.parametrize("name", ["exp_family", "q_zero_family", "seed_family_20001"])
@pytest.mark.parametrize("lam", [17.5, -30.0, -4.0 + 25.0j])
def test_off_node_evaluators_are_interpolated_grid_solutions(request, name, lam):
    # eval_u* reads the kept whole-grid sums at the stencil nodes, or sums
    # the series there alone (on a fresh family), with the same bits
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
    assert not fresh._sums  # a stencil sum is kept nowhere


# -- sums kept for the latest lambda -------------------------------------------

_READERS = (u1_grid, u1_prime_grid, u2_grid, u2_prime_grid,
            eval_u1, eval_u1_prime, eval_u2, eval_u2_prime)


def _read(reader, fam, lam, M, x=np.linspace(0.05, 0.95, 9)):
    if reader.__name__.startswith("eval"):
        return reader(fam, lam, x, M)
    return reader(fam, lam, M).values


def _count_sums(monkeypatch):
    """(row, s, M, whole grid?) of every _horner call from now on."""
    calls = []
    horner = spps.series._horner

    def counting(pairs, row, s, lam, M, at, **out):
        calls.append((row, s, M, isinstance(at, slice)))
        return horner(pairs, row, s, lam, M, at, **out)

    monkeypatch.setattr(spps.series, "_horner", counting)
    return calls


# lam, and whether choose_truncation sums at the M it returns (at -30 it
# sums at the first M the bound lets through, 15, and returns 16)
@pytest.mark.parametrize("lam, sums_at_choice", [(-30.0, False), (5.0 + 20.0j, True),
                                                 (300.0, True)])
@pytest.mark.parametrize("extra", [0, 2], ids=["chosen_M", "larger_M"])
def test_one_lambda_sums_each_series_once_for_every_reader(exp_family, monkeypatch,
                                                           lam, sums_at_choice, extra):
    # choose_truncation, the four u*_grid and the four eval_u* at one lam:
    # 4 whole-grid sums when choose_truncation summed at the M used, 6 when
    # not (u1's and u2's series again at that M), and eval_u* none at all
    fam = spps.build_family(exp_family.f, exp_family.N)
    calls = _count_sums(monkeypatch)
    M = choose_truncation(fam, lam).n_terms + extra
    at_M = calls[0][2] == M
    assert at_M == (sums_at_choice and not extra)
    got = [_read(r, fam, lam, M) for r in _READERS[:4]]
    assert len(calls) == sum(c[3] for c in calls) == (4 if at_M else 6)
    calls.clear()
    got += [_read(r, fam, lam, M) for r in _READERS[4:]]
    assert calls == []
    assert len(fam._sums) == 4  # one sum per series, of n_nodes each
    # the bits of each reader on a fresh family, which keeps nothing yet
    for r, values in zip(_READERS, got):
        assert np.array_equal(values, _read(r, spps.build_family(fam.f, fam.N), lam, M))
    # no result shares memory with a kept sum, so changing one changes nothing
    kept = [S for _, S in fam._sums.values()]
    assert not any(np.shares_memory(v, S) for v in got for S in kept)
    want = [v.copy() for v in got]
    for v in got:
        v[:] = np.nan
    again = [_read(r, fam, lam, M) for r in _READERS]
    assert all(np.array_equal(a, w) for a, w in zip(again, want))


def test_a_new_lambda_sums_again_and_an_array_lambda_bypasses(exp_family, monkeypatch):
    fam = spps.build_family(exp_family.f, exp_family.N)
    calls = _count_sums(monkeypatch)

    def whole_sums(read):
        calls.clear()
        read()
        return sum(c[3] for c in calls)

    assert whole_sums(lambda: u1_grid(fam, -30.0, 8)) == 1
    assert whole_sums(lambda: u1_grid(fam, -30.0, 8)) == 0
    # an int or a complex lam of the same value has the same bits
    assert whole_sums(lambda: u1_grid(fam, -30, 8)) == 0
    assert whole_sums(lambda: u1_grid(fam, complex(-30), 8)) == 0
    # an array lam sums its own series (4 at the last node) and keeps none
    calls.clear()
    spps.series._right_end(fam, np.array([-30.0, 2.0]), 8)
    assert len(calls) == 4 and not any(c[3] for c in calls)
    assert whole_sums(lambda: u1_grid(fam, -30.0, 8)) == 0
    # a new lam sums again, and then the one before it too
    assert whole_sums(lambda: u1_grid(fam, 2.0, 8)) == 1
    assert whole_sums(lambda: u1_grid(fam, -30.0, 8)) == 1
    # a stencil sum keeps nothing, and a series keeps one M
    assert whole_sums(lambda: eval_u1(fam, 7.0, 0.3, 8)) == 0 and calls
    assert whole_sums(lambda: u1_grid(fam, 7.0, 8)) == 1
    assert whole_sums(lambda: u1_grid(fam, 7.0, 9)) == 1
    assert whole_sums(lambda: u1_grid(fam, 7.0, 8)) == 1
    assert len(fam._sums) == 1
    # made in the buffer of the sums before it, with a fresh family's bits
    fresh = spps.build_family(fam.f, fam.N)
    assert np.array_equal(u1_grid(fam, 7.0, 8).values, u1_grid(fresh, 7.0, 8).values)


def test_a_sum_cut_short_leaves_no_stale_sum(exp_family, monkeypatch):
    fam = spps.build_family(exp_family.f, exp_family.N)
    want = u1_grid(fam, 2.0, 8).values

    def cut_short(pairs, row, s, lam, M, at, out=None):
        out[:] = np.nan  # the buffer of lam = 2.0's sum, half rewritten
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(spps.series, "_horner", cut_short)
        with pytest.raises(KeyboardInterrupt):
            u1_grid(fam, -30.0, 8)
    assert np.array_equal(u1_grid(fam, 2.0, 8).values, want)


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
    assert len(fam._pairs) == 12
    fam.X  # completes the family to N = 40
    assert len(fam._pairs) == 41
    again = evaluate(fam, 6)
    first, again = getattr(first, "values", first), getattr(again, "values", again)
    assert np.array_equal(first, again)
