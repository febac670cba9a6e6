import csv
import math
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
from spps.grid import _integrate_rows


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


@pytest.mark.parametrize("index", [-1, 11, 5.0, "3"])
def test_cumulative_integral_rejects_bad_anchor_index(index):
    # refused up front, not left to numpy's own ValueError or TypeError
    g = sample(lambda x: x, Grid(0.0, 1.0, 11))
    with pytest.raises(GridConfigError, match="x0_index"):
        cumulative_integral(g, index)


def test_cumulative_integral_takes_numpy_integer_index():
    g = sample(lambda x: x, Grid(0.0, 1.0, 11))
    assert np.array_equal(cumulative_integral(g, np.int64(3)).values,
                          cumulative_integral(g, 3).values)


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


def test_gridfunction_grid_mismatch():
    a = sample(np.exp, Grid(0.0, 1.0, 21))
    b = sample(np.exp, Grid(0.0, 1.0, 31))
    with pytest.raises(GridConfigError):
        a + b


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
        assert np.array_equal(cumulative_integral(GridFunction(g, y), 0).values,
                              _stencil_integral(y, g.h, 0))
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
