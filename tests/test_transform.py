import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import spps
from spps import (
    LambdaPoly,
    OrderError,
    TransformMatrix,
    build_A_closed_form,
    build_A_recursive,
    eval_u1,
    gamma_seq,
    ordinary_from_generalized,
    sample,
    solution_taylor_vectors,
    taylor_eval,
)
from spps.jets import Jet
from spps.seeds import get_seed

BUILDERS = (build_A_recursive, build_A_closed_form)


def _golden_exp_matrix(c):
    # derivatives-of-(1/phi) pattern for phi = e^{2cx} at x0 = 0
    return np.array([
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, -2 * c, 1, 0, 0, 0],
        [0, 4 * c**2, -2 * c, 1, 0, 0],
        [0, -8 * c**3, 4 * c**2, -4 * c, 1, 0],
        [0, 16 * c**4, -8 * c**3, 12 * c**2, -4 * c, 1],
    ], dtype=complex)


def _golden_product_matrix(a):
    # phi = a^2 x^2 e^{2a/x} at x0 = 1; valid as written only at a = 1
    e2 = math.exp(-2 * a)
    return np.array([
        [1, 0, 0, 0, 0],
        [0, e2 / a**2, 0, 0, 0],
        [0, 2 * (a - 1) * e2 / a**2, 1, 0, 0],
        [0, e2 * (4 + 6 * (1 - 2 * a) / a**2), 2 * (a - 1), e2 / a**2, 0],
        [0, e2 * (24 - 16 * a - 24 * (1 - a) / a**2),
         8 - 16 * a + 4 * a**2, 4 * (a - 1) * e2 / a**2, 1],
    ], dtype=complex)


def _random_phi_jet(rng, order):
    c = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    while abs(c[0]) < 0.5:
        c[0] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
    return Jet(0.0, c)


# -- golden matrices -----------------------------------------------------------

@pytest.mark.parametrize("build", BUILDERS)
def test_exp_seed_matrix(build):
    phi_jet = get_seed("exp", c=1.0).phi_jet(0.0, 5)
    A = build(phi_jet, 5)
    assert np.max(np.abs(A.entries - _golden_exp_matrix(1.0))) < 1e-12


@pytest.mark.parametrize("build", BUILDERS)
def test_product_seed_matrix(build):
    phi_jet = get_seed("x_exp_a_over_x", a=1.0).phi_jet(1.0, 4)
    A = build(phi_jet, 4)
    assert np.max(np.abs(A.entries - _golden_product_matrix(1.0))) < 1e-12


def test_product_seed_builders_agree_off_golden_point():
    # the closed-form row expressions above hold only at a = 1; the two
    # independent builders must still agree for any parameter
    for a in (0.7, 2.0):
        phi_jet = get_seed("x_exp_a_over_x", a=a).phi_jet(1.0, 6)
        A = build_A_recursive(phi_jet, 6)
        B = build_A_closed_form(phi_jet, 6)
        assert np.max(np.abs(A.entries - B.entries)) < 1e-10


@pytest.mark.parametrize("build", BUILDERS)
def test_unit_phi_gives_identity(build):
    phi_jet = Jet.constant(1.0, 0.0, 8)
    A = build(phi_jet, 8)
    assert np.max(np.abs(A.entries - np.eye(9))) < 1e-14


# -- structure and oracle equivalence ------------------------------------------

def test_structural_invariants():
    rng = np.random.default_rng(77)
    phi_jet = _random_phi_jet(rng, 7)
    A = build_A_recursive(phi_jet, 7).entries
    n = 7
    for k in range(n + 1):
        for m in range(k + 1, n + 1):
            assert A[k, m] == 0.0
    assert np.array_equal(A[0], np.eye(n + 1)[0])
    assert np.max(np.abs(A[1:, 0])) == 0.0
    d0 = 1.0 / phi_jet.coeffs[0]
    for k in range(1, n + 1):
        want = 1.0 if k % 2 == 0 else d0
        assert abs(A[k, k] - want) < 1e-13


def test_builders_agree_on_random_jets():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(50):
        phi_jet = _random_phi_jet(rng, 8)
        A = build_A_recursive(phi_jet, 8).entries
        B = build_A_closed_form(phi_jet, 8).entries
        worst = max(worst, float(np.max(np.abs(A - B))))
    assert worst < 1e-9


_SEEDS_TO_16 = pytest.mark.parametrize("name,params,x0", [
    ("constant", {"value": 2.5}, 0.3),
    ("exp", {"c": 1.5}, 0.4),
    ("exp", {"c": 0.7 + 1.2j}, -0.2),
    ("x_exp_a_over_x", {"a": 1.3}, 1.1),
])


@_SEEDS_TO_16
def test_recursive_matches_closed_form_to_order_16(name, params, x0):
    seed = get_seed(name, **params)
    for n in range(17):
        phi_jet = seed.phi_jet(x0, max(n - 1, 0))
        A = build_A_recursive(phi_jet, n).entries
        B = build_A_closed_form(phi_jet, n).entries
        assert np.max(np.abs(A - B)) <= 1e-11 * np.max(np.abs(B)), n
        # a longer phi jet carries the same leading coefficients
        assert np.array_equal(build_A_recursive(seed.phi_jet(x0, n + 3), n).entries, A)


# -- a 50-digit reference ------------------------------------------------------
# Complex numbers as (real, imaginary) pairs of Decimals; a jet as a list of
# its coefficients.

def _dec_mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _dec_conv(u, v):
    """The first len(u) coefficients of the product of the jets u and v."""
    out = []
    for k in range(len(u)):
        terms = [_dec_mul(u[j], v[k - j]) for j in range(k + 1)]
        out.append((sum(t[0] for t in terms), sum(t[1] for t in terms)))
    return out


def _dec_reciprocal(p):
    """1/p to len(p) coefficients: r_0 = 1/p_0, r_k = -r_0 sum_(j>=1) p_j r_(k-j)."""
    d = p[0][0] ** 2 + p[0][1] ** 2
    r = [(p[0][0] / d, -p[0][1] / d)]
    for k in range(1, len(p)):
        re, im = _dec_conv(p[:k + 1], r + [(Decimal(0), Decimal(0))])[k]
        r.append(_dec_mul((-re, -im), r[0]))
    return r


def _reference_A(phi_coeffs, n):
    """A_n of the phi jet phi_coeffs, its float values taken exactly, by the
    column recursion psi_m/m! = J T(1/phi) chi_(m-1)/(m-1)!, chi_m/m! =
    J T(phi) psi_(m-1)/(m-1)!, in 50-digit decimal, rounded to complex
    at the end."""
    zero, one = (Decimal(0), Decimal(0)), (Decimal(1), Decimal(0))
    with localcontext() as ctx:
        ctx.prec = 50
        phi = [(Decimal(z.real), Decimal(z.imag)) for z in map(complex, phi_coeffs[:n])]
        inv = _dec_reciprocal(phi) if n else []

        def step(w, v):  # J T(w) v on the coefficients 0..n
            prod = _dec_conv(v, w + [zero])
            return [zero] + [(re / (j + 1), im / (j + 1)) for j, (re, im) in enumerate(prod[:n])]

        psi = chi = [one] + [zero] * n
        columns = [psi]
        for _ in range(n):
            psi, chi = step(inv, chi), step(phi, psi)
            columns.append(psi)
        A = np.zeros((n + 1, n + 1), dtype=complex)
        factorial = Decimal(1)
        for k in range(n + 1):
            factorial *= max(k, 1)
            A[k] = [complex(float(re * factorial), float(im * factorial))
                    for re, im in (column[k] for column in columns)]
    return A


def test_reference_matches_the_golden_exp_matrix():
    A = _reference_A(get_seed("exp", c=1.0).phi_jet(0.0, 4).coeffs, 5)
    assert np.max(np.abs(A - _golden_exp_matrix(1.0))) < 1e-13


@_SEEDS_TO_16
@pytest.mark.parametrize("build", BUILDERS)
def test_each_builder_is_near_a_50_digit_reference_to_order_16(build, name, params, x0):
    # each builder's own error: its distance from the exact A_n of the phi
    # jet it is given.  Both builders read that jet's float reciprocal,
    # whose recurrence cancels on an exp seed, so both are equally far from
    # the reference: 5.3e-10 on exp c = 1.5 and 2.3e-10 on c = 0.7 + 1.2j
    # at n = 16, below 2e-14 on the other two seeds, where their
    # difference is at most 7.5e-12.  So a reordering that moves that
    # difference past test_recursive_matches_closed_form_to_order_16's
    # 1e-11 moved accuracy only if it fails this bound too.
    seed = get_seed(name, **params)
    for n in range(17):
        phi_jet = seed.phi_jet(x0, max(n - 1, 0))
        want = _reference_A(phi_jet.coeffs, n)
        err = np.max(np.abs(build(phi_jet, n).entries - want)) / np.max(np.abs(want))
        assert err <= 1e-9, n


def test_order_budget_enforced():
    phi_jet = Jet.constant(2.0, 0.0, 3)
    with pytest.raises(OrderError):
        build_A_recursive(phi_jet, 5)
    with pytest.raises(OrderError):
        build_A_closed_form(phi_jet, 5)
    # a non-finite phi jet is refused up front, before a reciprocal or a
    # product can spread the nan
    for coeffs in ([np.nan, 1.0], [1.0, np.inf, 0.5], [2.0, 1.0, complex(0, np.nan)]):
        for build in BUILDERS:
            with pytest.raises(OrderError, match="finite"):
                build(Jet(0.0, coeffs), 2)


@pytest.mark.parametrize("build", BUILDERS)
def test_negative_matrix_order_refused(build):
    with pytest.raises(OrderError, match="must be >= 0"):
        build(Jet.constant(2.0, 0.0, 3), -1)


@pytest.mark.parametrize("bad", [2.5, 3.0, True])
def test_matrix_order_must_be_an_integer(bad):
    phi_jet = Jet.constant(2.0, 0.0, 3)
    for build in BUILDERS:
        with pytest.raises(OrderError, match="n must be an integer"):
            build(phi_jet, bad)


def test_matrix_shape_validated():
    with pytest.raises(ValueError):
        TransformMatrix(3, np.eye(2, dtype=complex))


# -- applying the map ----------------------------------------------------------

def test_first_row_passthrough():
    phi_jet = get_seed("exp", c=1.0).phi_jet(0.0, 4)
    A = build_A_recursive(phi_jet, 4)
    gamma = np.array([3.5, 0, 0, 0, 0], dtype=complex)
    out = ordinary_from_generalized(A, gamma)
    assert np.max(np.abs(out - gamma)) < 1e-14


def test_identity_map_for_unit_phi():
    A = build_A_recursive(Jet.constant(1.0, 0.0, 4), 4)
    rng = np.random.default_rng(5)
    gamma = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert np.max(np.abs(ordinary_from_generalized(A, gamma) - gamma)) < 1e-14


def test_recovers_ordinary_derivatives(interior_family):
    # h = x^2 e^x has h^(k) = (x^2 + 2kx + k(k-1)) e^x; the family seed
    # e^{x/2} gives phi = e^x, whose jet is exact
    h = sample(lambda x: x**2 * np.exp(x), interior_family.grid)
    seq = gamma_seq(h, interior_family, 4)
    phi_jet = get_seed("exp", c=0.5).phi_jet(0.5, 4)
    A = build_A_recursive(phi_jet, 4)
    got = ordinary_from_generalized(A, seq)
    k = np.arange(5)
    expect = (0.25 + k + k * (k - 1)) * math.exp(0.5)
    assert np.max(np.abs(got - expect) / np.abs(expect)) < 1e-4


def test_dimension_mismatch_rejected():
    A = build_A_recursive(Jet.constant(1.0, 0.0, 4), 4)
    with pytest.raises(OrderError):
        ordinary_from_generalized(A, np.ones(3, dtype=complex))


# -- lambda-polynomial vectors ---------------------------------------------------

def test_solution_vector_golden():
    c = 1.0
    phi_jet = get_seed("exp", c=c).phi_jet(0.0, 5)
    u1_vec, u2_vec = solution_taylor_vectors(build_A_recursive(phi_jet, 5))
    expect = [
        [1.0],
        [0.0],
        [0.0, 1.0],
        [0.0, -2 * c],
        [0.0, 4 * c**2, 1.0],
        [0.0, -8 * c**3, -4 * c],
    ]
    assert len(u1_vec) == 6
    for poly, coeffs in zip(u1_vec, expect):
        want = np.trim_zeros(np.array(coeffs, dtype=complex), "b")
        if want.size == 0:
            want = np.array([0j])
        assert poly.coeffs.shape == want.shape
        assert np.max(np.abs(poly.coeffs - want)) < 1e-12
    assert u2_vec[0].degree == -1
    assert abs(u2_vec[1].coeffs[0] - 1.0) < 1e-12


def _taylor_vectors_entry_by_entry(A):
    """The lambda-polynomials of A's rows listed entry by entry."""
    E = A.entries
    u1 = [LambdaPoly(np.array([E[k, 2 * d] for d in range(k // 2 + 1)]))
          for k in range(A.n + 1)]
    u2 = [LambdaPoly(np.array([E[k, 2 * d + 1] for d in range((k + 1) // 2)] or [0.0]))
          for k in range(A.n + 1)]
    return u1, u2


@pytest.mark.parametrize("phi_jet, n", [
    (_random_phi_jet(np.random.default_rng(3), 9), 10),
    (get_seed("exp", c=1.0).phi_jet(0.0, 5), 6),          # zero entries to trim
    (Jet.constant(1.0, 0.0, 7), 8),                       # A = I
    (Jet.constant(2.0, 0.0, 0), 1),
    (Jet.constant(2.0, 0.0, 0), 0),                       # k = 0 alone
])
def test_solution_vectors_are_the_rows_entries(phi_jet, n):
    A = build_A_recursive(phi_jet, n)
    for got, want in zip(solution_taylor_vectors(A), _taylor_vectors_entry_by_entry(A)):
        assert len(got) == len(want) == n + 1
        for p, q in zip(got, want):
            assert p.coeffs.dtype == q.coeffs.dtype and p.coeffs.shape == q.coeffs.shape
            assert p.coeffs.tobytes() == q.coeffs.tobytes()
            assert p.degree == q.degree


def test_solution_vectors_own_their_coefficients():
    A = build_A_recursive(_random_phi_jet(np.random.default_rng(8), 6), 7)
    u1_vec, u2_vec = solution_taylor_vectors(A)
    before = [p.coeffs.copy() for p in u1_vec + u2_vec]
    A.entries[:] = 7.0
    assert all(np.array_equal(p.coeffs, c) for p, c in zip(u1_vec + u2_vec, before))


def test_solution_vectors_of_order_zero():
    u1_vec, u2_vec = solution_taylor_vectors(TransformMatrix(0, [[2.5 - 1j]]))
    assert [p.coeffs.tolist() for p in u1_vec] == [[2.5 - 1j]]
    assert [p.coeffs.tolist() for p in u2_vec] == [[0j]]


def test_solution_vectors_of_rows_with_zero_halves():
    # rows whose even or odd entries read are all zero (a -0.0 one too) give
    # the zero polynomial's one zero coefficient; the upper triangle is not
    # read, so its entries trim nothing
    E = np.zeros((5, 5), dtype=complex)
    E[1, 0] = -0.0
    E[2, 1] = 3.0
    E[3, 2] = 1j
    E[4, 0], E[4, 4] = 2.0, 0.5
    E[0, 1:] = 9.0
    u1_vec, u2_vec = solution_taylor_vectors(TransformMatrix(4, E))
    assert [p.coeffs.tolist() for p in u1_vec] == [[0j], [0j], [0j], [0j, 1j], [2, 0, 0.5]]
    assert [p.coeffs.tolist() for p in u2_vec] == [[0j], [0j], [3], [0j], [0j]]
    assert all(p.coeffs.dtype == complex and p.coeffs.flags.c_contiguous
               for p in u1_vec + u2_vec)
    assert [p.degree for p in u1_vec] == [-1, -1, -1, 1, 2]


@pytest.mark.parametrize("where", [(3, 0), (3, 3), (5, 2)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_solution_vectors_refuse_a_non_finite_entry(where, bad):
    A = build_A_recursive(_random_phi_jet(np.random.default_rng(4), 5), 6)
    A.entries[where] = bad
    with pytest.raises(OrderError, match="finite"):
        solution_taylor_vectors(A)
    # above the diagonal an entry is never read
    A.entries[where] = 1.0
    A.entries[0, 6] = bad
    assert len(solution_taylor_vectors(A)[0]) == 7


def test_solution_vectors_share_no_memory_with_the_matrix():
    A = build_A_recursive(_random_phi_jet(np.random.default_rng(5), 8), 9)
    u1_vec, u2_vec = solution_taylor_vectors(A)
    polys = u1_vec + u2_vec
    assert not any(np.shares_memory(p.coeffs, A.entries) for p in polys)
    assert not any(np.shares_memory(p.coeffs, q.coeffs)
                   for i, p in enumerate(polys) for q in polys[i + 1:])


def test_lambda_degree_pattern():
    rng = np.random.default_rng(99)
    phi_jet = _random_phi_jet(rng, 8)
    u1_vec, u2_vec = solution_taylor_vectors(build_A_recursive(phi_jet, 8))
    for k, poly in enumerate(u1_vec):
        assert poly.degree <= k // 2
    for k, poly in enumerate(u2_vec):
        assert poly.degree <= max((k - 1), 0) // 2


def test_second_derivative_matches_series(interior_family):
    # evaluate the k = 2 vector entry and cross-check against a stencil
    # second derivative of u1/f computed from the series itself
    lam = 5.0
    phi_jet = get_seed("exp", c=0.5).phi_jet(0.5, 4)
    u1_vec, _ = solution_taylor_vectors(build_A_recursive(phi_jet, 4))
    predicted = u1_vec[2](lam)

    f = lambda x: math.exp(0.5 * x)
    def g(x):
        return eval_u1(interior_family, lam, x, 8) / f(x)
    H = 0.05
    stencil = (-g(0.5 + 2 * H) + 16 * g(0.5 + H) - 30 * g(0.5)
               + 16 * g(0.5 - H) - g(0.5 - 2 * H)) / (12 * H**2)
    assert abs(stencil - predicted) / abs(predicted) < 1e-4


def test_taylor_eval_stacks_entries():
    phi_jet = get_seed("exp", c=1.0).phi_jet(0.0, 5)
    u1_vec, _ = solution_taylor_vectors(build_A_recursive(phi_jet, 5))
    lam = 2.0 + 1.0j
    vals = taylor_eval(u1_vec, lam)
    assert vals.shape == (6,)
    assert vals[4] == pytest.approx(4.0 * lam + lam**2, abs=1e-12)


# -- LambdaPoly ------------------------------------------------------------------

def test_lambda_poly_trims_trailing_zeros():
    p = LambdaPoly(np.array([1.0, 2.0, 0.0, 0.0]))
    assert p.degree == 1
    assert p.coeffs.shape == (2,)


def test_lambda_poly_zero():
    p = LambdaPoly(np.array([0.0, 0.0]))
    assert p.degree == -1
    assert p(3.7) == 0.0
    # every zero polynomial keeps one zero coefficient, an empty one too
    for coeffs in (np.array([0.0, 0.0]), np.array([]), 0.0):
        assert np.array_equal(LambdaPoly(coeffs).coeffs, [0j])


def test_lambda_poly_owns_its_coefficients():
    c = np.array([1.0, 2.0, 3.0], dtype=complex)
    p = LambdaPoly(c)
    c[0] = 9.0
    assert p.coeffs[0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_lambda_poly_refuses_non_finite(bad):
    with pytest.raises(OrderError, match="finite"):
        LambdaPoly(np.array([1.0, bad, 0.0]))


def test_lambda_poly_evaluates():
    p = LambdaPoly(np.array([1.0, -2.0, 3.0]))
    lam = 0.5 + 0.25j
    assert p(lam) == pytest.approx(1.0 - 2 * lam + 3 * lam**2, abs=1e-14)
