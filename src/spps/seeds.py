"""Stock seed functions with exact jets.

Golden-value paths need the derivatives of phi = f^2 at x0 exactly, so
each builtin seed ships a closed-form (or jet-algebra) Taylor builder
alongside the plain callable.  Seeds read from sampled data have no
exact jets; Jet.from_grid covers them at reduced accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import Jet, _factorials, _jet_order


@dataclass(frozen=True)
class BuiltinSeed:
    """A named nonvanishing seed with exact derivative information."""
    name: str
    params: dict
    func: Callable = field(repr=False)
    jet_builder: Callable = field(repr=False)

    def jet(self, x0: float, order: int) -> Jet:
        """Exact jet of f at x0; order is an integer >= 0, else OrderError."""
        return self.jet_builder(x0, _jet_order(order))

    def phi_jet(self, x0: float, order: int) -> Jet:
        """Exact jet of phi = f^2 at x0; order as for jet."""
        fj = self.jet(x0, order)
        return fj * fj


def constant_seed(value: complex = 1.0) -> BuiltinSeed:
    """f(x) = value (nonzero); phi constant, everything degenerates to
    the classical monomial/Taylor picture."""
    value = complex(value)
    if value == 0:
        raise ValueError("constant seed must be nonzero")
    return BuiltinSeed(
        name="constant",
        params={"value": value},
        func=lambda x: np.full_like(np.asarray(x, dtype=float), value, dtype=complex),
        jet_builder=lambda x0, order: Jet.constant(value, x0, order),
    )


def exp_seed(c: complex = 1.0) -> BuiltinSeed:
    """f(x) = e^{cx}; solves f'' + qf = 0 for q = -c^2."""
    c = complex(c)

    def jet_builder(x0, order):
        j = np.arange(order + 1)
        return Jet(x0, np.exp(c * x0) * c ** j / _factorials(order))

    return BuiltinSeed(
        name="exp",
        params={"c": c},
        func=lambda x: np.exp(c * np.asarray(x, dtype=float)),
        jet_builder=jet_builder,
    )


def x_exp_a_over_x_seed(a: complex = 1.0) -> BuiltinSeed:
    """f(x) = a x e^{a/x} on an interval with 0 outside; the jet is
    assembled by jet algebra from x and exp(a/x)."""
    a = complex(a)
    if a == 0:
        raise ValueError("parameter a must be nonzero")

    def func(x):
        x = np.asarray(x, dtype=float)
        return a * x * np.exp(a / x)

    def jet_builder(x0, order):
        if x0 == 0:
            raise ValueError("this seed has an essential singularity at 0")
        xj = Jet.identity(x0, order) if order >= 1 else Jet.constant(x0, x0, 0)
        return a * (xj * (a * xj.reciprocal()).exp())

    return BuiltinSeed(
        name="x_exp_a_over_x",
        params={"a": a},
        func=func,
        jet_builder=jet_builder,
    )


_FACTORIES = {
    "constant": constant_seed,
    "exp": exp_seed,
    "x_exp_a_over_x": x_exp_a_over_x_seed,
}


def get_seed(name: str, **params) -> BuiltinSeed:
    """Look up a builtin seed by name.

    Known names: constant(value), exp(c), x_exp_a_over_x(a).
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown seed {name!r}; available: {sorted(_FACTORIES)}") from None
    try:
        return factory(**params)
    except TypeError as e:
        raise ValueError(f"bad parameters for seed {name!r}: {e}") from None


def available_seeds() -> list[str]:
    return sorted(_FACTORIES)
