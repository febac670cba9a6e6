import warnings

import numpy as np
import pytest

import spps
from spps import (AccuracyWarning, Grid, GridConfigError, OrderError, RecursiveFamily,
                  SeedError, SlProblem, build_family, derivative, sample)
from spps.recint import _extend_orders, _order_zero


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


@pytest.mark.parametrize("bad", [2.9, 4.0, True])
def test_family_order_must_be_an_integer(bad):
    # a float is not truncated to an order, and a bool is not one
    f = sample(np.exp, Grid(0.0, 1.0, 11))
    with pytest.raises(OrderError, match="N must be an integer"):
        build_family(f, bad)
    assert build_family(f, np.int64(4)).N == 4


@pytest.mark.parametrize("bad", [3.9, 3.0, np.float64(3.0), False])
def test_psi_order_must_be_an_integer(interior_family, bad):
    with pytest.raises(OrderError, match="k must be an integer"):
        interior_family.psi(bad)
    with pytest.raises(OrderError, match="k must be an integer"):
        interior_family.phi_k(bad)
    assert np.shares_memory(interior_family.psi(np.int32(3)).values,
                            interior_family.psi(3).values)


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
        # order 0 is 1 in the family's type, the reference's a float64 row
        assert mine.values.dtype == X[1].values.dtype
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
    psi, ends, scratch = _order_zero(weights.shape[1:], X[1].values.dtype, N)
    _extend_orders(psi, ends, weights, g.h, g.x0_index, 1, N, scratch)
    # one array of each by order: psi whole, chi at the last node
    assert psi.shape == (N + 1,) + weights.shape[1:]
    assert ends.shape == (N + 1,) + weights.shape[1:-1] + (1,)
    assert psi.dtype == ends.dtype == X[1].values.dtype
    for n, (p, end) in enumerate(zip(psi, ends)):
        # psi_n, chi_n: X(n), X~(n) for odd n, the other way round for even n
        ref_psi, ref_chi = (X[n], Xt[n]) if n % 2 else (Xt[n], X[n])
        assert np.array_equal(p, np.broadcast_to(ref_psi.values, p.shape))
        assert np.array_equal(end, np.broadcast_to(ref_chi.values[-1:], end.shape))
    # the loop carries chi_N whole
    assert np.array_equal(scratch[1, 1], np.broadcast_to(ref_chi.values, p.shape))


@pytest.mark.parametrize("case", ["real", "complex", "interior"])
def test_chi_rows_built_on_read_bitwise_equal_row_by_row_recursion(case, row_by_row):
    # a family keeps chi_n at b alone until X or Xt is read; the rows then
    # built from psi_(n-1) have the recursion's bits, on a fresh family and
    # on one the eigen search grew (for the interior anchor, which the
    # search refuses, the reads it makes: the truncation and the ends at b)
    g = Grid(0.0, 2.0, 401, x0=0.5 if case == "interior" else None)
    seed = {"real": np.exp, "interior": lambda x: np.exp(0.5 * x)}.get(
        case, lambda x: np.exp(x) + 1j * np.cos(3 * x))
    f = sample(seed, g)
    N = 25
    X, Xt = row_by_row(f, N)
    # chi_n: X~(n) for odd n, X(n) for even n
    want = [(Xt[n] if n % 2 else X[n]).values for n in range(N + 1)]
    q = sample(lambda x: 1 + np.sin(3 * x), g)
    for grown in (False, True):
        fam = build_family(f, N)
        if grown:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AccuracyWarning)
                if case == "interior":
                    M = spps.choose_truncation(fam, -20.0).n_terms
                    spps.series._right_end(fam, np.array([-20.0, -1.0]), M)
                else:
                    spps.find_eigenvalues(SlProblem(q, (1.0, 0.0), (1.0, 0.0)), fam,
                                          (-20.0, -1.0))
            assert len(fam._sup_norms) > 1 and "_chi" not in vars(fam)
        # u1' and u2' integrate their value series and read no chi row
        spps.u1_prime_grid(fam, -3.0, 6)
        spps.eval_u2_prime(fam, -3.0, 0.7, 6)
        assert "_chi" not in vars(fam)
        # X builds every chi row: the even orders of X, the odd ones of Xt
        chi = [(fam.Xt[n] if n % 2 else fam.X[n]).values for n in range(N + 1)]
        assert fam._chi.shape == (N + 1, g.n_nodes)
        for n, ref in enumerate(want):
            # order 0 is 1 in the family's type, the reference's a float64 row
            assert chi[n].dtype == want[1].dtype
            assert np.array_equal(chi[n], ref)
            assert np.array_equal(fam._chi_ends[n], ref[-1:])


def test_direct_construction_checks_as_build_family():
    with pytest.raises(GridConfigError, match="4 nodes"):
        RecursiveFamily(sample(lambda x: np.ones_like(x), Grid(0.0, 1.0, 3)), 4)
    with pytest.raises(SeedError):
        RecursiveFamily(sample(lambda x: x, Grid(0.0, 1.0, 11)), 4)
    with pytest.raises(OrderError):
        RecursiveFamily(sample(np.exp, Grid(0.0, 1.0, 11)), 0)


def _is_row(values, block, n):
    """values is row n of block itself, not a copy."""
    return values.base is block and values.ctypes.data == block[n].ctypes.data


def test_family_grows_on_demand_with_its_caches():
    # the built orders are the sup-norms' count; the psi rows and chi ends
    # are one array each, of all N + 1 orders, from the start
    g = Grid(0.0, 1.0, 201)
    fam = build_family(sample(lambda x: np.exp(x) + 0.5j, g), 30)
    norms = fam._sup_norms
    assert norms == [1.0]
    psi, ends = fam._psi, fam._chi_ends
    assert psi.shape == (31, 201) and ends.shape == (31, 1)
    fam._grow(7)
    assert len(norms) == 8
    fam._grow(100)  # capped at N; the weights and the scratch go
    assert len(norms) == 31 and fam._w is None and fam._scratch is None
    assert fam._sup_norms is norms and fam._psi is psi and fam._chi_ends is ends
    assert norms == [fam.psi(k).sup_norm for k in range(31)]
    # the public rows are rows of the psi block and of the chi rows' array,
    # built as X is read
    assert "_chi" not in vars(fam)
    assert all(_is_row(x.values, psi if n % 2 else fam._chi, n)
               and _is_row(xt.values, fam._chi if n % 2 else psi, n)
               for n, (x, xt) in enumerate(zip(fam.X, fam.Xt)))
    assert fam._chi.shape == (31, 201)


def test_a_family_is_one_psi_block_and_one_chi_array():
    # every psi(k) is row k of one block, psi_0 = 1 included and in the
    # family's type; no chi row array exists until X or Xt is read
    g = Grid(0.0, 1.0, 201)
    for seed, dtype in ((np.exp, np.float64), (lambda x: np.exp(x) + 0.5j, complex)):
        fam = build_family(sample(seed, g), 12)
        rows = [fam.psi(k).values for k in range(13)]
        assert all(_is_row(p, fam._psi, k) for k, p in enumerate(rows))
        assert fam._psi.dtype == fam._chi_ends.dtype == rows[0].dtype == dtype
        assert np.array_equal(rows[0], np.ones(201))
        assert fam._chi_ends[0, 0] == 1.0
        assert "_chi" not in vars(fam)
        fam.Xt  # builds every order and every chi row
        chi = fam._chi
        assert chi.shape == (13, 201) and chi.dtype == dtype
        assert fam.X is fam.X and fam._chi is chi
        assert all(_is_row(fam.X[k].values, chi, k) for k in range(0, 13, 2))


def test_rows_handed_out_refuse_writes():
    # psi(k), X and Xt are views of the family's arrays: a write through
    # one would change every later series sum, so each refuses it
    g = Grid(0.0, 1.0, 201)
    fam = build_family(sample(np.exp, g), 12)
    for row in (fam.psi(2).values, fam.X[3].values, fam.X[4].values,
                fam.Xt[3].values, fam.Xt[4].values):
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[5] = 1.0
        with pytest.raises(ValueError):
            row *= 2.0
    fam.phi_k(3).values[5] = 1.0  # a product: the caller's own array
    fresh = build_family(sample(np.exp, g), 12)
    for lam in (-3.0, 2.5 + 1j):
        got = spps.u1_grid(fam, lam, 6).values
        assert got.tobytes() == spps.u1_grid(fresh, lam, 6).values.tobytes()
    assert fam._psi.flags.writeable and fam._chi.flags.writeable


@pytest.mark.parametrize("seed", [np.exp, lambda x: np.exp(x) + 0.5j], ids=["real", "complex"])
def test_seed_weight_and_derivative_handed_out_refuse_writes(seed):
    # f, phi and f_prime are views that refuse writes too: phi is the order
    # loop's weight, so a write through it changed every later order.  The
    # caller's seed array, which f views, stays writable
    g = Grid(0.0, 1.0, 201)
    f = sample(seed, g)
    fam = build_family(f, 12)
    fam.psi(2)
    for values in (fam.f.values, fam.phi.values, fam.f_prime.values):
        with pytest.raises(ValueError):
            values[:] = 2.0
    assert np.shares_memory(fam.f.values, f.values) and f.values.flags.writeable
    fresh = build_family(sample(seed, g), 12)
    assert fam.psi(5).values.tobytes() == fresh.psi(5).values.tobytes()
    got = spps.u1_grid(fam, -3, 6).values
    assert got.tobytes() == spps.u1_grid(fresh, -3, 6).values.tobytes()


def test_psi_builds_only_the_order_it_reads():
    g = Grid(0.0, 1.0, 201)
    fam = build_family(sample(np.exp, g), 40)
    psi3 = fam.psi(3)
    assert len(fam._sup_norms) == 4
    assert _is_row(psi3.values, fam._psi, 3)
    fam.phi_k(5)
    assert len(fam._sup_norms) == 6
    # the same rows the completed family holds
    assert np.array_equal(psi3.values, fam.X[3].values)
    assert np.array_equal(fam.psi(4).values, fam.Xt[4].values)


def test_a_seed_with_no_imaginary_part_makes_a_real_family(row_by_row):
    # a complex-typed seed whose imaginary parts are all zero is held in
    # float64, and with it phi, the psi rows, the chi ends and the chi rows:
    # 8 bytes a value.  Its rows are the complex family's real parts to a
    # few ulps of each row's sup-norm, not bit for bit: the row kernel
    # divides a real increment by 24, but multiplies the parts of a complex
    # one by 1/24 (grid._integrate_rows), and 1/24 is not exact.
    g = Grid(0.0, 2.0, 401)
    f = sample(lambda x: np.exp(0.5 * x) + 0j, g)
    assert f.values.dtype == complex
    N = 25
    fam = build_family(f, N)
    X, Xt = row_by_row(f, N)  # the recursion in complex arithmetic
    assert fam.f.values.dtype == fam.phi.values.dtype == np.float64
    assert np.array_equal(fam.f.values, f.values.real)
    ulps = 16 * np.finfo(float).eps  # 7.9 at most, measured
    for n in range(N + 1):
        # psi_n, chi_n: X(n), X~(n) for odd n, the other way round for even n
        ref_psi, ref_chi = (X[n], Xt[n]) if n % 2 else (Xt[n], X[n])
        for mine, ref, size in ((fam.psi(n).values, ref_psi.values, ref_psi.sup_norm),
                                (fam._chi_ends[n], ref_chi.values[-1:], ref_chi.sup_norm),
                                ((fam.Xt if n % 2 else fam.X)[n].values, ref_chi.values,
                                 ref_chi.sup_norm)):
            assert mine.dtype == np.float64
            assert not np.any(ref.imag)
            assert np.max(np.abs(mine - ref.real)) <= ulps * size
    assert spps.gamma_seq(sample(np.sin, g), fam, 3).values.dtype == np.float64
    # any nonzero imaginary part keeps the family complex
    f.values[7] += 1e-300j
    fam = build_family(f, N)
    assert fam.f.values.base is f.values  # a read-only view of the caller's array
    assert fam.psi(1).values.dtype == fam._chi_ends[1].dtype == complex
