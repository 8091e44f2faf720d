"""Hypothesis strategies for the property tests: admissible saddle models
(linear, or on any tier), stay numbers and phase points around the
validity box."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from hetdim.saddle import BOX, Multipliers, build_model

signs = st.sampled_from((-1.0, 1.0))

# the stay numbers the property tests cover
stays = st.integers(0, 30)

# phase-point coordinates, some outside the box |.| <= BOX
coordinates = st.floats(-1.25 * BOX, 1.25 * BOX)


@st.composite
def linear_multipliers(draw, dim: int) -> Multipliers:
    """Multipliers inside every inequality of ``Multipliers.validate``, each
    of lambda, gamma and strong with a drawn sign.

    |lambda| < 1 and |gamma| = u / |lambda| with u > 1, so |lambda gamma| > 1
    and |gamma| > 1; |strong| falls below lambda^2 step by step, which
    leaves room for lambda0 = |lambda| sqrt|strong[0]| between |strong[0]|
    and lambda^2; |lambda_hat| = |lambda|^1.5 lies between lambda^2 and
    |lambda|.
    """
    lam = draw(st.floats(0.2, 0.95))
    gamma = draw(st.floats(1.05, 3.0)) / lam
    strong, size = [], lam * lam
    for _ in range(dim - 2):
        size *= draw(st.floats(0.05, 0.95))
        strong.append(draw(signs) * size)
    return Multipliers(draw(signs) * lam, draw(signs) * gamma, np.array(strong),
                       lam ** 1.5, 1.25 * gamma, lam * math.sqrt(abs(strong[0])))


@st.composite
def linear_models(draw):
    """A linear-tier model of dimension 3 or 4; ``build_model`` validates
    its multipliers."""
    dim = draw(st.sampled_from((3, 4)))
    return build_model(draw(linear_multipliers(dim)), dim, "linear")


def phase_points(dim: int):
    """Flat (D,) points with coordinates in [-1.25, 1.25] x BOX."""
    return st.lists(coordinates, min_size=dim, max_size=dim).map(np.array)


@st.composite
def tier_models(draw):
    """A model of dimension 3 or 4 on the linear, polynomial or
    polynomial_symmetric tier, with eps in [-0.5, 0.5] on the nonlinear ones
    (``build_model``'s default symmetry signs flip z1, as the symmetric
    tier needs)."""
    dim = draw(st.sampled_from((3, 4)))
    kind = draw(st.sampled_from(("linear", "polynomial", "polynomial_symmetric")))
    eps = 0.0 if kind == "linear" else draw(st.floats(-0.5, 0.5))
    return build_model(draw(linear_multipliers(dim)), dim, {"kind": kind, "eps": eps})
