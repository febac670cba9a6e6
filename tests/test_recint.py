import math

import numpy as np
import pytest

import spps
from spps import Grid, OrderError, SeedError, build_family, derivative, sample


def test_monomial_degeneration(unit_family):
    x = unit_family.grid.nodes
    for n in range(7):
        assert np.max(np.abs(unit_family.X[n].values - x**n)) < 1e-8
        assert np.max(np.abs(unit_family.Xt[n].values - x**n)) < 1e-8


def test_exp_seed_first_integral(exp_family):
    # phi^{-1} = e^{-2x}, so X[1] integrates to (1 - e^{-2x})/2
    x = exp_family.grid.nodes
    exact = (1 - np.exp(-2 * x)) / 2
    assert np.max(np.abs(exp_family.X[1].values - exact)) < 1e-8


def test_anchor_values_vanish(exp_family, interior_family):
    for fam in (exp_family, interior_family):
        i0 = fam.grid.x0_index
        for n in range(1, 8):
            assert fam.X[n].values[i0] == 0.0
            assert fam.Xt[n].values[i0] == 0.0


def test_psi_selects_by_parity(exp_family):
    assert np.array_equal(exp_family.psi(0).values, exp_family.Xt[0].values)
    assert np.array_equal(exp_family.psi(3).values, exp_family.X[3].values)
    assert np.array_equal(exp_family.psi(4).values, exp_family.Xt[4].values)
    assert np.max(np.abs(exp_family.psi(0).values - 1.0)) == 0.0


def test_phi_k_is_f_times_psi(exp_family):
    f = exp_family.f
    for k in (0, 1, 4):
        expect = (f * exp_family.psi(k)).values
        assert np.array_equal(exp_family.phi_k(k).values, expect)
    assert np.array_equal(exp_family.phi_k(0).values, f.values)


def test_phi_1_closed_form(exp_family):
    x = exp_family.grid.nodes
    exact = np.exp(x) * (1 - np.exp(-2 * x)) / 2
    assert np.max(np.abs(exp_family.phi_k(1).values - exact)) < 1e-8


def test_differential_identity(exp_family):
    # derivative(X[n]) = n * X[n-1] * phi^{(-1)^n}, and mirrored for Xt
    phi = exp_family.phi
    phi_inv = 1.0 / phi
    for n in range(1, 11):
        wX = phi_inv if n % 2 else phi
        wXt = phi if n % 2 else phi_inv
        for fam_arr, w in ((exp_family.X, wX), (exp_family.Xt, wXt)):
            lhs = derivative(fam_arr[n]).values
            rhs = n * (fam_arr[n - 1] * w).values
            rel = np.max(np.abs(lhs - rhs)) / max(np.max(np.abs(rhs)), 1e-30)
            assert rel < 1e-5, f"identity fails at n={n}"


def test_swap_symmetry():
    # building with 1/f exchanges the two families
    g = Grid(0.0, 1.0, 2001, x0=0.0)
    f = sample(np.exp, g)
    fam = build_family(f, 12)
    fam_inv = build_family(1.0 / f, 12)
    for n in range(13):
        assert np.max(np.abs(fam_inv.X[n].values - fam.Xt[n].values)) < 1e-8
        assert np.max(np.abs(fam_inv.Xt[n].values - fam.X[n].values)) < 1e-8


def test_vanishing_seed_rejected():
    g = Grid(0.0, 1.0, 101)
    f = sample(lambda x: x - 0.5, g)
    with pytest.raises(SeedError, match="node"):
        build_family(f, 4)


def test_order_out_of_range(interior_family):
    with pytest.raises(OrderError):
        interior_family.psi(interior_family.N + 1)
    with pytest.raises(OrderError):
        interior_family.phi_k(-1)


def test_family_caches_f_prime(exp_family):
    fp = exp_family.f_prime
    assert np.max(np.abs(fp.values - exp_family.f.values)) < 1e-8


def test_family_caches_sup_norms(exp_family, q_zero_family):
    for fam in (exp_family, q_zero_family):
        norms_X, norms_Xt = fam._sup_norms
        assert norms_X == [g.sup_norm for g in fam.X]
        assert norms_Xt == [g.sup_norm for g in fam.Xt]


def test_family_caches_right_terms(q_zero):
    # built on first use, once: the endpoint sums of every Phi call read it
    fam = build_family(spps.build_seed(q_zero), 20)
    assert "_right_terms" not in vars(fam)
    cX, cXt = fam._right_terms
    assert fam._right_terms is fam._right_terms
    for c, Y in ((cX, fam.X), (cXt, fam.Xt)):
        assert all(type(t) is complex for t in c)
        want = [Y[k].values[-1] / math.factorial(k) for k in range(fam.N + 1)]
        assert np.allclose(c, want, rtol=1e-15, atol=0.0)
