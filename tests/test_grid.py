import csv
import math
import operator
import os
import subprocess
import sys

import numpy as np
import pytest

import spps
from spps import (
    DomainError,
    Grid,
    GridConfigError,
    GridFunction,
    SamplingError,
    cumulative_integral,
    derivative,
    read_csv,
    sample,
    write_csv,
)
from spps.grid import _integrate_rows, _integrate_rows6


# -- Grid construction -------------------------------------------------------

def test_grid_nodes_are_uniform():
    g = Grid(0.0, 1.0, 5)
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.x0 == 0.0
    assert g.x0_index == 0


def test_grid_interior_anchor():
    g = Grid(0.0, 1.0, 5, x0=0.5)
    assert g.x0 == 0.5
    assert g.x0_index == 2


def test_grid_rejects_bad_intervals():
    with pytest.raises(GridConfigError):
        Grid(1.0, 0.0, 11)
    with pytest.raises(GridConfigError):
        Grid(0.0, 0.0, 11)
    with pytest.raises(GridConfigError):
        Grid(0.0, np.inf, 11)
    with pytest.raises(GridConfigError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(GridConfigError):
        Grid(0.0, 1.0, 11, x0=2.0)


@pytest.mark.parametrize("n", [1000.9, 1001.0, np.float64(11.0), True, "11", None])
def test_grid_node_count_must_be_an_integer(n):
    # not truncated to a node count nobody asked for
    with pytest.raises(GridConfigError, match="n_nodes must be an integer"):
        Grid(0.0, 1.0, n)


@pytest.mark.parametrize("n", [11, np.int64(11), np.uint16(11)])
def test_grid_takes_any_integer_node_count(n):
    g = Grid(0.0, 1.0, n)
    assert type(g.n_nodes) is int and g.n_nodes == 11


@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_grid_rejects_non_finite_anchor(x0):
    # a config error, not the ValueError or OverflowError of int(round(x))
    with pytest.raises(GridConfigError, match="not a node"):
        Grid(0.0, 1.0, 11, x0=x0)
    with pytest.raises(GridConfigError, match="not a node"):
        Grid(0.0, 1.0, 11).index_of(x0)


def test_operations_enforce_stencil_width():
    tiny = sample(lambda x: x, Grid(0.0, 1.0, 3))
    with pytest.raises(GridConfigError):
        cumulative_integral(tiny)
    small = sample(lambda x: x, Grid(0.0, 1.0, 4))
    with pytest.raises(GridConfigError):
        derivative(small)


def test_grid_nodes_read_only():
    g = Grid(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        g.nodes[0] = 3.0


def test_grid_equality():
    assert Grid(0.0, 1.0, 11) == Grid(0.0, 1.0, 11)
    assert Grid(0.0, 1.0, 11) != Grid(0.0, 1.0, 11, x0=0.5)


# -- sampling ----------------------------------------------------------------

def test_sample_constant():
    g = Grid(0.0, 1.0, 9)
    gf = sample(lambda x: np.ones_like(x), g)
    assert np.array_equal(gf.values, np.ones(9))


def test_sample_identity():
    g = Grid(0.0, 1.0, 5)
    gf = sample(lambda x: x, g)
    assert np.array_equal(gf.values, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sample_pointwise():
    g = Grid(0.0, 1.0, 3)
    gf = sample(np.exp, g)
    assert gf.values[1] == pytest.approx(math.exp(0.5), abs=1e-15)


@pytest.mark.parametrize("fn, want", [
    (math.sin, [math.sin(x) for x in np.linspace(0.0, 1.0, 5)]),  # scalars only
    (lambda x: 1.0, [1.0] * 5),                                   # wrong shape
    (lambda x: np.arange(5), [0.0, 1.0, 2.0, 3.0, 4.0]),          # integers
    (lambda x: np.array([complex(1.0, v) for v in x], dtype=object),
     1.0 + 1j * np.linspace(0.0, 1.0, 5)),                        # complex objects
], ids=["scalar-only", "shape", "int", "complex-object"])
def test_sample_falls_back_and_casts(fn, want):
    # per-node calls when the vectorized call fails or gives another shape,
    # and float64 (else complex128) values from any other dtype
    gf = sample(fn, Grid(0.0, 1.0, 5))
    want = np.asarray(want)
    assert gf.values.dtype == want.dtype and np.array_equal(gf.values, want)


def test_sample_nonfinite_names_node():
    g = Grid(0.0, 1.0, 5)
    with pytest.raises(SamplingError, match="node 2"):
        sample(lambda x: np.where(x == 0.5, np.inf, x), g)


# -- GridFunction algebra ----------------------------------------------------

def test_gridfunction_arithmetic():
    g = Grid(0.0, 1.0, 21)
    a = sample(lambda x: x + 1.0, g)
    b = sample(np.exp, g)
    assert np.allclose((a + b).values, a.values + b.values)
    assert np.allclose((a - b).values, a.values - b.values)
    assert np.allclose((a * b).values, a.values * b.values)
    assert np.allclose((a / b).values, a.values / b.values)
    assert np.allclose((a**2).values, a.values**2)
    assert np.allclose((-a).values, -a.values)
    assert np.allclose((2.0 * a).values, 2.0 * a.values)


def test_gridfunction_operands_keep_their_order():
    # each method computes in its own operand order, bit for bit: a
    # reflected + or * puts the values first, as the forward one does
    g = Grid(0.0, 1.0, 21)
    a = sample(lambda x: np.exp(x) + 0.3j * x, g)
    b = sample(lambda x: np.cos(x) - 0.7j, g)
    c = 2.0 - 0.5j
    for got, want in [(a + b, a.values + b.values), (a - b, a.values - b.values),
                      (a * b, a.values * b.values), (a / b, a.values / b.values),
                      (c + a, a.values + c), (c - a, c - a.values),
                      (c * a, a.values * c), (c / a, c / a.values),
                      (2 - a, 2 - a.values), (2 / a, 2 / a.values)]:
        assert got.grid == g and got.values.tobytes() == want.tobytes()
    # an operand neither a scalar nor a function on the grid is refused
    with pytest.raises(TypeError):
        a + [1.0]
    with pytest.raises(TypeError):
        [1.0] / a


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
@pytest.mark.parametrize("array_first", [False, True], ids=["function_first", "array_first"])
def test_gridfunction_refuses_an_array_operand(op, array_first):
    # a TypeError either way round, not an object array of GridFunctions
    # from numpy broadcasting the function as a scalar
    g = Grid(0.0, 1.0, 21)
    a, arr = sample(np.exp, g), np.ones(21)
    with pytest.raises(TypeError):
        op(arr, a) if array_first else op(a, arr)
    # a Python or numpy scalar, on either side, still gives a function
    for scalar in (2.0, np.float64(2.0), np.complex128(2.0 - 1j)):
        for got in (op(a, scalar), op(scalar, a)):
            assert isinstance(got, GridFunction) and got.grid == g


def test_gridfunction_grid_mismatch():
    a = sample(np.exp, Grid(0.0, 1.0, 21))
    b = sample(np.exp, Grid(0.0, 1.0, 31))
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(GridConfigError, match="different grids"):
            op(a, b)
        with pytest.raises(GridConfigError, match="different grids"):
            op(b, a)
    # the reflected methods, which a GridFunction on the left never reaches
    for name in ("__radd__", "__rsub__", "__rmul__", "__rtruediv__"):
        with pytest.raises(GridConfigError, match="different grids"):
            getattr(a, name)(b)


@pytest.mark.parametrize("values", [np.zeros(20), np.zeros((21, 1)), np.zeros(()),
                                    np.array(["a"] * 21), np.full(21, None)])
def test_gridfunction_refuses_a_wrong_shape_or_dtype(values):
    with pytest.raises(GridConfigError):
        GridFunction(Grid(0.0, 1.0, 21), values)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint32, bool])
def test_gridfunction_casts_integers_to_float64(dtype):
    values = np.arange(21).astype(dtype)
    gf = GridFunction(Grid(0.0, 1.0, 21), values)
    assert gf.values.dtype == np.float64
    assert np.array_equal(gf.values, values.astype(np.float64))


def test_gridfunction_complex_support():
    g = Grid(0.0, 1.0, 21)
    a = sample(lambda x: x + 1j * x, g)
    assert not a.is_real
    assert np.allclose(a.conj().values, np.conj(a.values))
    assert a.sup_norm == pytest.approx(math.sqrt(2.0))


# -- cumulative integration --------------------------------------------------

def test_integral_of_one_is_x():
    g = Grid(0.0, 1.0, 101)
    G = cumulative_integral(sample(lambda x: np.ones_like(x), g))
    assert np.max(np.abs(G.values - g.nodes)) < 1e-14


def test_integral_of_x():
    g = Grid(0.0, 1.0, 101)
    G = cumulative_integral(sample(lambda x: x, g))
    assert np.max(np.abs(G.values - g.nodes**2 / 2)) < 1e-13


def test_integral_exponential_endpoint():
    g = Grid(0.0, 1.0, 5001)
    G = cumulative_integral(sample(lambda x: np.exp(-2 * x), g))
    assert abs(G.values[-1] - (1 - math.exp(-2)) / 2) < 1e-9


def test_integral_anchored_exactly():
    g = Grid(0.0, 1.0, 101, x0=0.5)
    rng = np.random.default_rng(7)
    gf = GridFunction(g, rng.standard_normal(101))
    G = cumulative_integral(gf)
    assert G.values[g.x0_index] == 0.0


def test_integral_signed_left_of_anchor():
    g = Grid(0.0, 1.0, 101, x0=0.5)
    G = cumulative_integral(sample(lambda x: np.ones_like(x), g))
    assert np.max(np.abs(G.values - (g.nodes - 0.5))) < 1e-14


def test_integral_linearity():
    g = Grid(0.0, 1.0, 201)
    rng = np.random.default_rng(11)
    a = GridFunction(g, rng.standard_normal(201))
    b = GridFunction(g, rng.standard_normal(201))
    lhs = cumulative_integral(2.5 * a - 1.25 * b)
    rhs = 2.5 * cumulative_integral(a) - 1.25 * cumulative_integral(b)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13


def test_quadrature_convergence_order():
    # halving h must reduce the error by at least 2^4 on a smooth integrand
    errs = []
    for n in (41, 81, 161):
        g = Grid(0.0, 1.0, n)
        G = cumulative_integral(sample(lambda x: np.exp(-2 * x), g))
        exact = (1 - np.exp(-2 * g.nodes)) / 2
        errs.append(np.max(np.abs(G.values - exact)))
    assert errs[0] / errs[1] > 14.0
    assert errs[1] / errs[2] > 14.0


def _stencil_integral(y, h, x0_index):
    # the 4-point rule as first written, one whole-grid temporary per operation
    n = len(y)
    inc = np.empty(n - 1, dtype=y.dtype if y.dtype.kind == "c" else np.float64)
    inc[0] = (9 * y[0] + 19 * y[1] - 5 * y[2] + y[3]) / 24.0
    inc[1:-1] = (-y[0:n - 3] + 13 * y[1:n - 2] + 13 * y[2:n - 1] - y[3:n]) / 24.0
    inc[-1] = (y[n - 4] - 5 * y[n - 3] + 19 * y[n - 2] + 9 * y[n - 1]) / 24.0
    G = np.concatenate(([0.0], np.cumsum(inc))) * h
    G = G - G[x0_index]
    G[x0_index] = 0.0
    return G


@pytest.mark.parametrize("n", [4, 5, 1001])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_cumulative_integral_matches_stencil_formula(n, dtype):
    # the in-place evaluation must give the formula's bits, anchor anywhere
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n).astype(dtype)
    if dtype is np.complex128:
        y += 1j * rng.standard_normal(n)
    before = y.copy()
    for i in (0, n // 2, n - 1):
        g = Grid(-0.5, 1.5, n, x0=np.linspace(-0.5, 1.5, n)[i])
        G = cumulative_integral(GridFunction(g, y)).values
        expected = _stencil_integral(y, g.h, i)
        assert G.dtype == expected.dtype == dtype
        assert G.tobytes() == expected.tobytes()
    assert y.tobytes() == before.tobytes()


@pytest.mark.parametrize("n", [4, 7, 1001])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_row_integrator_batch_matches_formula_row_by_row(n, dtype):
    # a (3, 2, n) batch with one spacing per leading row, as the seed's
    # pieces use it: every row has the bits of the formula on that row alone
    rng = np.random.default_rng(n + 1)
    y = rng.standard_normal((3, 2, n)).astype(dtype)
    if dtype is np.complex128:
        y += 1j * rng.standard_normal((3, 2, n))
    h = np.array([0.1, 1 / 3, 2.5])[:, None, None]
    for i in (0, n // 2):
        out = np.empty_like(y)
        _integrate_rows(y, h, out, i)
        for p in range(3):
            for row in range(2):
                assert out[p, row].tobytes() == _stencil_integral(y[p, row], h[p, 0, 0], i).tobytes()
    # a strided row (not contiguous) takes the same rule
    g = Grid(0.0, 1.0, n)
    strided = np.repeat(y[0, 1], 2)[::2]
    assert not strided.flags.c_contiguous
    assert (cumulative_integral(GridFunction(g, strided)).values.tobytes()
            == _stencil_integral(y[0, 1], g.h, 0).tobytes())


def test_six_point_rule_is_exact_to_degree_five_and_sixth_order():
    # each cell's weights integrate every polynomial of degree <= 5 on its
    # six nodes exactly, so the running integral of one is exact to
    # rounding; on e^(3x) cos(5x) the error falls 64-fold per halving of h,
    # where the 4-point rule's falls 16-fold
    for n in (6, 7, 12, 101):
        x = np.linspace(-1.0, 2.0, n)
        for k in range(6):
            out = np.empty(n)
            _integrate_rows6(x ** k, x[1] - x[0], out)
            exact = (x ** (k + 1) - x[0] ** (k + 1)) / (k + 1)
            assert np.max(np.abs(out - exact)) <= 1e-13 * 2.0 ** (k + 1)
    F = lambda t: np.exp(3 * t) * (3 * np.cos(5 * t) + 5 * np.sin(5 * t)) / 34
    errs = {}
    for n in (101, 201, 401):
        x = np.linspace(0.0, 1.0, n)
        for rule in (_integrate_rows, _integrate_rows6):
            out = np.empty(n)
            rule(np.exp(3 * x) * np.cos(5 * x), x[1] - x[0], out)
            errs[rule, n] = np.max(np.abs(out - (F(x) - F(0.0))))
    for a, b in ((101, 201), (201, 401)):
        assert 50 < errs[_integrate_rows6, a] / errs[_integrate_rows6, b] < 70
        assert 12 < errs[_integrate_rows, a] / errs[_integrate_rows, b] < 20
    assert errs[_integrate_rows6, 201] < 1e-3 * errs[_integrate_rows, 201]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 335])
def test_six_point_rule_rows_keep_their_bits_in_a_batch(n):
    # a (2, 3, n) complex batch with one spacing per piece, as the eigen
    # search runs it: every row has the bits it has alone, its parts those
    # of the real rule on each part, and a row of fewer than 6 nodes the
    # 4-point rule's bits; it integrates from the first node only
    rng = np.random.default_rng(n)
    y = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    h = np.array([0.1, 1 / 3, 2.5])[:, None]
    out = np.empty_like(y)
    _integrate_rows6(y, h, out)
    for i in range(2):
        for p in range(3):
            alone = np.empty(n, complex)
            _integrate_rows6(y[i, p].copy(), h[p, 0], alone)
            assert out[i, p].tobytes() == alone.tobytes()
            for part, got in ((y[i, p].real, out[i, p].real), (y[i, p].imag, out[i, p].imag)):
                real = np.empty(n)
                _integrate_rows6(part.copy(), h[p, 0], real)
                assert n < 6 or np.array_equal(real, got)
            if n < 6:
                four = np.empty(n, complex)
                _integrate_rows(y[i, p].copy(), h[p, 0], four)
                assert four.tobytes() == alone.tobytes()
    with pytest.raises(ValueError, match="first node only"):
        _integrate_rows6(y, h, out, 1)


@pytest.mark.parametrize("dtype, out", [(np.float32, np.float64),
                                        (np.complex64, np.complex128)])
def test_cumulative_integral_output_dtype(dtype, out):
    # single precision comes out in double: the rule runs on the promoted
    # values, and in place, so no mixed-precision step is left
    g = Grid(0.0, 1.0, 101, x0=0.5)
    y = (np.exp(1j * g.nodes) if dtype is np.complex64 else np.cos(g.nodes)).astype(dtype)
    G = cumulative_integral(GridFunction(g, y)).values
    assert G.dtype == out
    assert G.tobytes() == _stencil_integral(y.astype(out), g.h, 50).tobytes()


@pytest.mark.parametrize("dtype", [np.longdouble, np.clongdouble])
def test_cumulative_integral_keeps_long_double(dtype):
    # long double stays long double, and complex rows flip the sign of each
    # part whatever the parts' width (array_equal: the dtypes carry padding)
    g = Grid(0.0, 1.0, 101, x0=0.5)
    y = (np.exp(1j * g.nodes) if dtype is np.clongdouble else np.cos(g.nodes)).astype(dtype)
    G = cumulative_integral(GridFunction(g, y)).values
    assert G.dtype == dtype
    double = cumulative_integral(GridFunction(g, y.astype(complex))).values
    assert np.max(np.abs(G - double)) < 1e-15
    if dtype is np.clongdouble:  # the formula rounds real rows to double
        assert np.array_equal(G, _stencil_integral(y, g.h, 50))
        out = np.empty((2, 101), dtype)
        _integrate_rows(np.stack([y, -y]), g.h, out)
        assert np.array_equal(out[1], _stencil_integral(-y, g.h, 0))


# -- differentiation ---------------------------------------------------------

def test_derivative_of_square():
    g = Grid(0.0, 1.0, 1001)
    d = derivative(sample(lambda x: x**2, g))
    assert np.max(np.abs(d.values - 2 * g.nodes)) < 1e-8


def test_derivative_of_constant():
    g = Grid(0.0, 1.0, 101)
    d = derivative(sample(lambda x: np.full_like(x, 3.25), g))
    assert np.max(np.abs(d.values)) < 1e-12


def test_derivative_inverts_integral():
    g = Grid(0.0, 2.0, 5001)
    y = sample(lambda x: np.cos(3 * x) + x**2, g)
    back = derivative(cumulative_integral(y))
    rel = np.max(np.abs(back.values - y.values)) / np.max(np.abs(y.values))
    assert rel < 1e-6


# -- interpolation -----------------------------------------------------------

def test_interpolation_node_hit_is_exact():
    g = Grid(0.0, 1.0, 11)
    gf = sample(np.exp, g)
    assert gf.at(0.3) == gf.values[3]


def test_interpolation_reproduces_cubics():
    g = Grid(0.0, 1.0, 201)
    gf = sample(lambda x: x**3, g)
    x = g.nodes[77] + 0.5 * (g.nodes[1] - g.nodes[0])
    assert abs(gf.at(x) - x**3) < 1e-10


def test_interpolation_constant():
    g = Grid(0.0, 1.0, 11)
    gf = sample(lambda x: np.ones_like(x), g)
    assert gf.at(0.123456) == pytest.approx(1.0, abs=1e-13)


def test_interpolation_outside_domain():
    g = Grid(0.0, 1.0, 11)
    gf = sample(np.exp, g)
    with pytest.raises(DomainError):
        gf.at(1.5)


@pytest.mark.parametrize("x", [np.nan, np.array([0.5, np.nan]), np.array([[np.nan]])])
def test_interpolation_rejects_nan(x):
    # nan lies in no cell: it counts as outside [a, b]
    gf = sample(np.exp, Grid(0.0, 1.0, 11))
    with pytest.raises(DomainError, match="nan"):
        gf.at(x)


def _poly(coeffs, x):
    return np.polynomial.polynomial.polyval(x, coeffs)


@pytest.mark.parametrize("degree", range(6))
def test_interpolation_reproduces_quintics_everywhere(degree):
    # the 6-node stencil is exact for degree <= 5, in the end cells too,
    # where it is shifted inward
    g = Grid(-1.0, 1.0, 41)
    coeffs = np.random.default_rng(degree).uniform(-1, 1, degree + 1)
    gf = sample(lambda x: _poly(coeffs, x), g)
    h = g.h
    cells = [0, 1, 2, 17, 37, 38, 39]
    x = np.array([g.nodes[c] + t * h for c in cells for t in (0.1, 0.5, 0.93)])
    assert np.max(np.abs(gf.at(x) - _poly(coeffs, x))) < 1e-13


@pytest.mark.parametrize("n", range(2, 7))
def test_interpolation_small_grid_is_global_polynomial(n):
    # with at most 6 nodes the stencil is the whole grid
    g = Grid(0.5, 2.0, n)
    values = np.random.default_rng(n).standard_normal(n)
    gf = GridFunction(g, values)
    p = np.polynomial.Polynomial.fit(g.nodes, values, n - 1)
    x = np.linspace(0.5, 2.0, 53)
    assert np.max(np.abs(gf.at(x) - p(x))) < 1e-12


def test_interpolation_near_node_returns_stored_value():
    from spps.grid import _NODE_SNAP
    g = Grid(0.0, 1.0, 101)
    gf = sample(lambda x: np.cos(7 * x), g)
    i = np.array([0, 1, 50, 99, 100])
    for shift in (-0.5, 0.0, 0.5):
        x = np.clip(g.nodes[i] + shift * _NODE_SNAP * g.h, 0.0, 1.0)
        assert np.array_equal(gf.at(x), gf.values[i])


def test_interpolation_scalar_and_complex():
    g = Grid(0.0, 1.0, 51)
    coeffs = np.array([1 - 2j, 0.5j, 3.0, -1 + 1j])
    gf = sample(lambda x: _poly(coeffs, x), g)
    got = gf.at(0.123)
    assert np.ndim(got) == 0 and np.iscomplexobj(got)
    assert abs(got - _poly(coeffs, 0.123)) < 1e-14
    x = np.array([[0.01, 0.5], [0.77, 0.999]])
    assert gf.at(x).shape == (2, 2)
    assert np.max(np.abs(gf.at(x) - _poly(coeffs, x))) < 1e-13


def test_interpolation_edge_slack():
    from spps.grid import _EDGE_SLACK
    g = Grid(-1.0, 3.0, 41)
    gf = sample(np.exp, g)
    slack = _EDGE_SLACK * (g.b - g.a)
    assert gf.at(g.b + 0.5 * slack) == gf.values[-1]
    assert gf.at(g.a - 0.5 * slack) == gf.values[0]
    for x in (g.b + 2 * slack, g.a - 2 * slack):
        with pytest.raises(DomainError):
            gf.at(x)
        with pytest.raises(DomainError):
            gf.at(np.array([0.0, x]))


def _stencil_formula(grid, x):
    """The stencil as first written, with its np.clip calls and the
    denominators rebuilt per call: _stencil must keep its bits."""
    xa = np.asarray(x, dtype=float).ravel()
    xa = np.clip(xa, grid.a, grid.b)
    s = (xa - grid.a) / grid.h
    n, width = grid.n_nodes, min(6, grid.n_nodes)
    lo = np.clip(s.astype(int) - (width // 2 - 1), 0, n - width)
    idx = lo[:, None] + np.arange(width)
    d = s[:, None] - idx
    left, right = np.ones_like(d), np.ones_like(d)
    left[:, 1:] = np.cumprod(d[:, :-1], axis=1)
    right[:, :-1] = np.cumprod(d[:, :0:-1], axis=1)[:, ::-1]
    denom = [(-1) ** (width - 1 - j) * math.factorial(j) * math.factorial(width - 1 - j)
             for j in range(width)]
    node = np.clip(np.rint(s).astype(int), 0, n - 1)
    hit = np.abs(xa - grid.nodes[node]) <= 1e-9 * grid.h
    idx[hit] = node[hit, None]
    return idx, left * right / denom, hit


@pytest.mark.parametrize("a, b, n", [(0.0, 1.0, 1001), (-3.0, 0.0, 41), (-1.0, 2.0, 7),
                                     (0.5, 2.0, 5), (1.0, 2.0, 3), (-1.0, 1.0, 2)])
def test_stencil_keeps_the_bits_of_its_formula(a, b, n):
    from spps.grid import _EDGE_SLACK, _stencil
    g = Grid(a, b, n)
    slack = _EDGE_SLACK * (b - a)
    rng = np.random.default_rng(n)
    cases = [rng.uniform(a, b, 64),                      # random points
             g.nodes.copy(),                             # every node hit
             g.nodes[1:] - 1e-10 * g.h,                  # within the snap of a node
             np.array([a, b, b, a]),                     # both ends
             np.array([a - 0.5 * slack, b + 0.5 * slack]),   # inside the edge slack
             np.array([]),
             np.float64(0.3 * a + 0.7 * b)]
    for x in cases:
        for got, want in zip(_stencil(g, x), _stencil_formula(g, x)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_interpolation_of_several_getters_keeps_each_rows_bits():
    # several functions, real and complex, read through one stencil: each
    # result in its own type, with the bits its own .at gives
    from spps.grid import _interpolate
    g = Grid(0.0, 2.0, 301)
    rng = np.random.default_rng(4)
    rows = [np.cos(3 * g.nodes), np.exp(g.nodes) + 1j * g.nodes ** 2, g.nodes ** 5]
    x = np.concatenate((rng.uniform(0.0, 2.0, 9), g.nodes[[0, 150, 300]]))
    for pts in (x, x.reshape(3, 4), 0.77, g.nodes[150]):
        got = _interpolate(g, pts, *(r.__getitem__ for r in rows))
        assert isinstance(got, tuple) and len(got) == 3
        for value, row in zip(got, rows):
            want = GridFunction(g, row).at(pts)
            assert value.dtype == row.dtype and np.shape(value) == np.shape(pts)
            assert value.tobytes() == want.tobytes()
    # one getter gives its result alone
    assert _interpolate(g, 0.77, rows[1].__getitem__).tobytes() == \
        GridFunction(g, rows[1]).at(0.77).tobytes()


def test_library_loads_no_scipy():
    # off-node evaluation, the series evaluators and the remainder check
    # all run on numpy alone
    src = os.path.dirname(os.path.dirname(spps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = """
import sys
import numpy as np
import spps
g = spps.Grid(0.0, 1.0, 201, x0=0.5)
fam = spps.build_family(spps.sample(np.exp, g), 10)
x = np.linspace(0.5, 0.9, 7) + 1e-3
spps.sample(np.cos, g).at(x)
for u in (spps.eval_u1, spps.eval_u2, spps.eval_u1_prime, spps.eval_u2_prime):
    u(fam, -3.0, x, 4)
spps.remainder_check(spps.sample(np.cos, g), fam, 3, x[:-1])
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- CSV round trip ----------------------------------------------------------

def test_csv_round_trip_complex(tmp_path):
    g = Grid(0.0, 1.0, 51, x0=0.5)
    rng = np.random.default_rng(3)
    gf = GridFunction(g, rng.standard_normal(51) + 1j * rng.standard_normal(51))
    path = os.path.join(tmp_path, "gf.csv")
    write_csv(gf, path)
    back = read_csv(path, x0=0.5)
    assert back.grid == gf.grid
    assert np.array_equal(back.values, gf.values)


def test_csv_round_trip_real_stays_real(tmp_path):
    g = Grid(-1.0, 1.0, 21)
    gf = sample(lambda x: x**2, g)
    path = os.path.join(tmp_path, "gf.csv")
    write_csv(gf, path)
    back = read_csv(path)
    assert back.is_real
    assert np.array_equal(back.values, gf.values)


@pytest.mark.parametrize("x, message", [
    ([0.0, 0.25, 0.5, 0.75], "expected >= 5 rows of x,re,im"),
    ([0.0, 0.25, 0.5, 0.8, 1.0], "nodes are not a uniform increasing mesh"),
], ids=["four rows", "non-uniform"])
def test_read_csv_refuses_a_malformed_file(tmp_path, x, message):
    path = os.path.join(tmp_path, "gf.csv")
    with open(path, "w") as fh:
        fh.write("x,re,im\n" + "".join(f"{v},1.0,0.0\n" for v in x))
    with pytest.raises(GridConfigError, match=message):
        read_csv(path)


def test_csv_header(tmp_path):
    g = Grid(0.0, 1.0, 5)
    path = os.path.join(tmp_path, "gf.csv")
    write_csv(sample(lambda x: x, g), path)
    with open(path) as fh:
        assert fh.readline().strip() == "x,re,im"


def _csv_by_rows(g, path):
    # write_csv's former per-row formula, kept as the byte reference
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "re", "im"])
        for x, z in zip(g.grid.nodes, g.values.astype(complex)):
            w.writerow([f"{x:.17g}", f"{z.real:.17g}", f"{z.imag:.17g}"])


_EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf,
                         -np.inf, np.nan, 1.0 / 3.0, 0.1, -2.5e-300, 1e22])


def _complex(re, im):
    # set the parts: re + 1j * im would turn an infinite im into a nan re
    z = np.empty(len(re), complex)
    z.real, z.imag = re, im
    return z


def _csv_grids():
    n = len(_EDGE_VALUES)
    rng = np.random.default_rng(11)
    edge = Grid(-1.0, 2.0, n, x0=0.5)
    wide = Grid(-3.0, 7.0, 1001)
    return [
        GridFunction(edge, _EDGE_VALUES),
        GridFunction(edge, _complex(_EDGE_VALUES, 0.0)),
        GridFunction(edge, _complex(_EDGE_VALUES, _EDGE_VALUES[::-1])),
        GridFunction(edge, _complex(np.roll(_EDGE_VALUES, 3), _EDGE_VALUES)),
        GridFunction(wide, rng.standard_normal(1001)),
        GridFunction(wide, _complex(rng.standard_normal(1001) * 1e-200,
                                    rng.standard_normal(1001) * 1e200)),
        GridFunction(wide, np.cos(wide.nodes).astype(np.float32)),
    ]


@pytest.mark.parametrize("i", range(7))
def test_write_csv_matches_row_formula(tmp_path, i):
    gf = _csv_grids()[i]
    got, want = os.path.join(tmp_path, "got.csv"), os.path.join(tmp_path, "want.csv")
    write_csv(gf, got)
    _csv_by_rows(gf, want)
    with open(got, "rb") as fh, open(want, "rb") as ref:
        blob = fh.read()
        assert blob == ref.read()
    assert blob.count(b"\r\n") == gf.grid.n_nodes + 1


@pytest.mark.parametrize("i", range(7))
def test_csv_round_trip_is_bitwise(tmp_path, i):
    gf = _csv_grids()[i]
    path = os.path.join(tmp_path, "gf.csv")
    write_csv(gf, path)
    back = read_csv(path, x0=gf.grid.x0)
    assert back.grid == gf.grid
    assert back.grid.nodes.tobytes() == gf.grid.nodes.tobytes()
    # a complex grid with a zero imaginary part reads back real
    want = gf.values.astype(complex)
    if not np.any(want.imag):
        want = want.real
    assert back.values.dtype == want.dtype
    assert back.values.tobytes() == want.tobytes()
