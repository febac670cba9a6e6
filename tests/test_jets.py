import math

import numpy as np
import pytest

import spps
from spps import AccuracyWarning, AnchorError, Grid, JetDivisionError, sample
from spps.jets import Jet


def _random_jet(rng, order, x0=0.0, min_lead=0.0):
    c = rng.uniform(-1, 1, order + 1) + 1j * rng.uniform(-1, 1, order + 1)
    if min_lead > 0.0:
        while abs(c[0]) < min_lead:
            c[0] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
    return Jet(x0, c)


def _exp_jet(rate, x0, order):
    j = np.arange(order + 1)
    return Jet(x0, np.exp(rate * x0) * rate**j / [math.factorial(k) for k in j])


# -- ring operations ---------------------------------------------------------

def test_polynomial_product():
    a = Jet(0.0, [1.0, 1.0, 0.0])
    b = Jet(0.0, [1.0, -1.0, 0.0])
    assert np.allclose((a * b).coeffs, [1.0, 0.0, -1.0], atol=1e-15)


def test_multiplicative_identity():
    a = Jet(0.0, [2.0, -3.0, 0.5])
    one = Jet.constant(1.0, x0=0.0, order=2)
    assert np.array_equal((a * one).coeffs, a.coeffs)


def test_exp_jets_multiply_to_one():
    a = _exp_jet(1.0, 0.0, 5)
    b = _exp_jet(-1.0, 0.0, 5)
    prod = (a * b).coeffs
    assert abs(prod[0] - 1.0) < 1e-12
    assert np.max(np.abs(prod[1:])) < 1e-12


def test_order_truncates_to_shorter_factor():
    a = Jet(0.0, [1.0, 2.0, 3.0, 4.0])
    b = Jet(0.0, [1.0, 1.0])
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_anchor_mismatch():
    a = Jet(0.0, [1.0, 2.0])
    b = Jet(1.0, [1.0, 2.0])
    with pytest.raises(AnchorError):
        a * b


# -- reciprocal --------------------------------------------------------------

def test_reciprocal_of_constant():
    a = Jet(0.0, [4.0, 0.0, 0.0])
    assert np.allclose(a.reciprocal().coeffs, [0.25, 0.0, 0.0], atol=1e-15)


def test_reciprocal_of_exponential():
    a = _exp_jet(2.0, 0.0, 6)
    b = _exp_jet(-2.0, 0.0, 6)
    assert np.max(np.abs(a.reciprocal().coeffs - b.coeffs)) < 1e-12


def test_reciprocal_defining_identity():
    rng = np.random.default_rng(21)
    for _ in range(20):
        a = _random_jet(rng, 8, min_lead=0.5)
        prod = (a * a.reciprocal()).coeffs
        assert abs(prod[0] - 1.0) < 1e-12
        assert np.max(np.abs(prod[1:])) < 1e-12


def test_reciprocal_of_near_zero():
    # a nan constant term is refused too, not inverted into a nan jet
    for lead in (1e-16, np.nan, complex(np.nan, 1.0)):
        with pytest.raises(JetDivisionError):
            Jet(0.0, [lead, 1.0]).reciprocal()


def test_ring_axioms():
    rng = np.random.default_rng(55)
    for _ in range(20):
        a = _random_jet(rng, 10)
        b = _random_jet(rng, 10)
        c = _random_jet(rng, 10)
        assoc = ((a * b) * c).coeffs - (a * (b * c)).coeffs
        dist = (a * (b + c)).coeffs - (a * b + a * c).coeffs
        assert np.max(np.abs(assoc)) < 1e-13
        assert np.max(np.abs(dist)) < 1e-13


# -- construction and evaluation ---------------------------------------------

def test_from_derivatives_round_trip():
    derivs = np.array([1.0, 2.0, -6.0, 12.0])
    j = Jet.from_derivatives(derivs, 0.5)
    assert np.allclose(j.derivatives(), derivs, atol=1e-13)
    assert np.allclose(j.coeffs, derivs / [1.0, 1.0, 2.0, 6.0], atol=1e-15)


@pytest.mark.parametrize("make", [lambda: Jet(0.0, []), lambda: Jet(0.0, np.ones((2, 2))),
                                  lambda: Jet.identity(0.5, 0),
                                  lambda: Jet(0.0, [1.0, 2.0]).truncate(2),
                                  lambda: Jet(0.0, [1.0, 2.0]).truncate(-1)])
def test_jet_refuses_an_order_it_cannot_carry(make):
    with pytest.raises(spps.OrderError):
        make()


@pytest.mark.parametrize("bad", [1.5, 1.0, True])
def test_truncation_order_must_be_an_integer(bad):
    with pytest.raises(spps.OrderError, match="order must be an integer"):
        Jet(0.0, [1.0, 2.0, 3.0]).truncate(bad)


def test_identity_jet():
    j = Jet.identity(0.25, 3)
    assert np.allclose(j.coeffs, [0.25, 1.0, 0.0, 0.0], atol=1e-15)


def test_exp_of_jet():
    x = Jet.identity(0.0, 6)
    e = x.exp()
    expect = 1.0 / np.array([math.factorial(k) for k in range(7)])
    assert np.max(np.abs(e.coeffs - expect)) < 1e-14


def test_eval_matches_polynomial():
    j = Jet(1.0, [2.0, -1.0, 0.5])
    dx = 0.3
    assert j.eval(1.0 + dx) == pytest.approx(2.0 - dx + 0.5 * dx**2, abs=1e-14)


def test_from_grid_low_orders_accurate():
    g = Grid(0.0, 1.0, 1001, x0=0.5)
    gf = sample(np.exp, g)
    j = Jet.from_grid(gf, 3)
    expect = np.exp(0.5) / np.array([1.0, 1.0, 2.0, 6.0])
    assert np.max(np.abs(j.coeffs - expect)) < 1e-6


def test_from_grid_warns_past_safe_order():
    g = Grid(0.0, 1.0, 1001, x0=0.5)
    gf = sample(np.exp, g)
    with pytest.warns(AccuracyWarning):
        Jet.from_grid(gf, 6)
