import numpy as np
import pytest

import spps
from spps import (Grid, GridConfigError, OrderError, RecursiveFamily, SeedError, build_family,
                  derivative, sample)
from spps.recint import _extend_pairs


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


@pytest.mark.parametrize("bad", [np.nan, complex(1.0, np.nan)])
def test_nan_seed_rejected(bad):
    # NaN compares False with the modulus floor; it must still fail it
    f = sample(lambda x: np.exp(x) + 0.5j, Grid(0.0, 1.0, 101))
    f.values[40] = bad
    with pytest.raises(SeedError, match="node 40"):
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
    # one norm per order, psi_k's: X~(k) for even k, X(k) for odd k
    for fam in (exp_family, q_zero_family):
        assert fam._sup_norms == [fam.psi(k).sup_norm for k in range(fam.N + 1)]


def test_family_on_three_nodes_fails_at_build():
    # orders are built when read, but a grid too small to integrate on is
    # refused by build_family itself
    f = sample(lambda x: np.ones_like(x), Grid(0.0, 1.0, 3))
    with pytest.raises(GridConfigError, match="4 nodes"):
        build_family(f, 4)


def test_vanishing_seed_rejected_before_node_count():
    f = sample(lambda x: x, Grid(0.0, 1.0, 3))
    with pytest.raises(SeedError):
        build_family(f, 4)


@pytest.mark.parametrize("case", ["real", "complex", "interior"])
def test_family_rows_bitwise_equal_row_by_row_recursion(case, row_by_row):
    g = Grid(0.0, 2.0, 401, x0=0.5 if case == "interior" else None)
    seed = {"real": np.exp, "interior": lambda x: np.exp(0.5 * x)}.get(
        case, lambda x: np.exp(x) + 1j * np.cos(3 * x))
    f = sample(seed, g)
    N = 25
    fam = build_family(f, N)
    X, Xt = row_by_row(f, N)
    assert len(fam.X) == len(fam.Xt) == N + 1
    for mine, ref in zip(fam.X + fam.Xt, X + Xt):
        assert mine.values.dtype == ref.values.dtype
        assert np.array_equal(mine.values, ref.values)
    assert fam._sup_norms == [fam.psi(k).sup_norm for k in range(N + 1)]


@pytest.mark.parametrize("case", ["weight", "complex-weight", "side-by-side"])
def test_order_loop_with_weight_bitwise_equal_row_by_row_recursion(case, row_by_row):
    # the weighted recursion (phi r in place of phi) that build_seed runs on
    # its pieces, through the order loop RecursiveFamily uses
    g = Grid(0.0, 2.0, 401, x0=1.0 if case == "complex-weight" else None)
    f = sample(lambda x: np.exp(x) + 1j * np.cos(3 * x) if case == "complex-weight"
               else 1 + x * x, g)
    r = sample(lambda x: 1 + np.sin(3 * x), g)
    N = 25
    X, Xt = row_by_row(f, N, r)
    phi = (f * f).values
    weights = np.stack((1.0 / phi, phi * r.values))
    if case == "side-by-side":  # two pieces at once: the rows gain an axis
        weights = np.stack([weights, weights], axis=1)
    pairs = [np.ones(weights.shape)]
    _extend_pairs(pairs, weights, g.h, g.x0_index, N,
                  np.empty(weights.shape, X[1].values.dtype))
    for n, p in enumerate(pairs):
        # rows psi_n, chi_n: X(n), X~(n) for odd n, the other way round for even n
        for row, ref in enumerate((X[n], Xt[n]) if n % 2 else (Xt[n], X[n])):
            assert p[row].dtype == ref.values.dtype
            assert np.array_equal(p[row], np.broadcast_to(ref.values, p[row].shape))


def test_direct_construction_checks_as_build_family():
    with pytest.raises(GridConfigError, match="4 nodes"):
        RecursiveFamily(sample(lambda x: np.ones_like(x), Grid(0.0, 1.0, 3)), 4)
    with pytest.raises(SeedError):
        RecursiveFamily(sample(lambda x: x, Grid(0.0, 1.0, 11)), 4)
    with pytest.raises(OrderError):
        RecursiveFamily(sample(np.exp, Grid(0.0, 1.0, 11)), 0)


def test_family_grows_on_demand_with_its_caches():
    g = Grid(0.0, 1.0, 201)
    fam = build_family(sample(lambda x: np.exp(x) + 0.5j, g), 30)
    assert len(fam._pairs) == 1
    norms = fam._sup_norms
    fam._grow(7)
    assert len(fam._pairs) == 8 and fam._pairs[3].shape == (2, 201)
    assert len(norms) == 8
    fam._grow(100)  # capped at N; the weights and the buffer go
    assert len(fam._pairs) == 31 and fam._w is None and fam._buf is None
    assert fam._sup_norms is norms
    assert norms == [fam.psi(k).sup_norm for k in range(31)]
    # the public rows are views of the pairs
    assert all(np.shares_memory(p, x.values) and np.shares_memory(p, xt.values)
               for p, x, xt in zip(fam._pairs, fam.X, fam.Xt))


def test_psi_builds_only_the_order_it_reads():
    g = Grid(0.0, 1.0, 201)
    fam = build_family(sample(np.exp, g), 40)
    psi3 = fam.psi(3)
    assert len(fam._pairs) == 4
    assert np.shares_memory(psi3.values, fam._pairs[3])
    fam.phi_k(5)
    assert len(fam._pairs) == 6
    # the same rows the completed family holds
    assert np.array_equal(psi3.values, fam.X[3].values)
    assert np.array_equal(fam.psi(4).values, fam.Xt[4].values)
