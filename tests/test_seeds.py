import math

import numpy as np
import pytest

from spps import OrderError
from spps.seeds import available_seeds, get_seed


def test_registry_contents():
    names = available_seeds()
    assert set(names) >= {"constant", "exp", "x_exp_a_over_x"}


def test_unknown_seed_rejected():
    with pytest.raises(ValueError):
        get_seed("nope")


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        get_seed("constant", value=0.0)
    with pytest.raises(ValueError):
        get_seed("x_exp_a_over_x", a=0.0)
    with pytest.raises(ValueError):
        get_seed("exp", rate=1.0)


@pytest.mark.parametrize("name", ["constant", "exp", "x_exp_a_over_x"])
@pytest.mark.parametrize("bad, message", [(2.5, "order must be an integer"),
                                          (2.0, "order must be an integer"),
                                          (True, "order must be an integer"),
                                          (-1, "order must be >= 0")])
def test_seed_jet_order_must_be_a_non_negative_integer(name, bad, message):
    seed = get_seed(name)
    for jet in (seed.jet, seed.phi_jet):
        with pytest.raises(OrderError, match=message):
            jet(0.5, bad)


def test_exp_jet_coefficients():
    seed = get_seed("exp", c=2.0)
    j = seed.jet(0.5, 5)
    expect = [math.exp(1.0) * 2.0**k / math.factorial(k) for k in range(6)]
    assert np.max(np.abs(j.coeffs - expect)) < 1e-12


def test_jet_leading_coefficients_match_func():
    # f'(x0) in closed form: 0, c e^{c x0} and a e^{a/x0} (1 - a/x0)
    for name, params, x0, df in [
        ("constant", {"value": 3.0}, 0.2, 0.0),
        ("exp", {"c": -1.0}, 0.4, -math.exp(-0.4)),
        ("x_exp_a_over_x", {"a": 2.0}, 1.5, 2.0 * math.exp(2.0 / 1.5) * (1.0 - 2.0 / 1.5)),
    ]:
        seed = get_seed(name, **params)
        j = seed.jet(x0, 4)
        assert abs(j.coeffs[0] - seed.func(x0)) < 1e-12
        assert abs(j.coeffs[1] - df) < 1e-12


def test_product_seed_phi_jet():
    # f = a*x*e^{a/x} at a = 1, x0 = 1: phi(1) = e^2 and phi'(1) = 0
    seed = get_seed("x_exp_a_over_x", a=1.0)
    pj = seed.phi_jet(1.0, 4)
    assert abs(pj.coeffs[0] - math.exp(2.0)) < 1e-12
    assert abs(pj.coeffs[1]) < 1e-12


def test_product_seed_rejects_zero_anchor():
    seed = get_seed("x_exp_a_over_x", a=1.0)
    with pytest.raises(ValueError):
        seed.jet(0.0, 3)


def test_jet_taylor_evaluates_near_anchor():
    for name, params, x0 in [
        ("exp", {"c": 0.8}, 0.1),
        ("x_exp_a_over_x", {"a": 1.5}, 1.2),
    ]:
        seed = get_seed(name, **params)
        j = seed.jet(x0, 10)
        x = x0 + 0.05
        assert abs(j.eval(x) - seed.func(x)) < 1e-10
