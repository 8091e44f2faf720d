from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hetdim.presets import (base_model, battery_coeffs, battery_model, battery_pairs,
                            d4_model, decoupled_coeffs, forge_coeffs, hetdim_coeffs,
                            hetdim_model, hetdim_schedule, leaf_coeffs, leaf_model)


@pytest.fixture(scope="session")
def lin_model():
    return base_model("linear")


@pytest.fixture(scope="session")
def poly_model():
    return base_model("polynomial")


@pytest.fixture(scope="session")
def sym_model():
    return base_model("polynomial_symmetric")


@pytest.fixture(scope="session")
def coeffs_a():
    return forge_coeffs("cdx_neg_d_neg")


def twin_coeffs(model, coeffs):
    """The coefficient set of the twin global map R o T1 o R, with
    R(x, y, z) = (x, -y, S z): the twin side runs through the same solvers."""
    S = model.symmetry_signs
    return dataclasses.replace(
        coeffs, mu=-coeffs.mu, y_minus=-coeffs.y_minus, z_plus=S * coeffs.z_plus,
        b=-coeffs.b, c=-coeffs.c, d=-coeffs.d, a_t=S * coeffs.a_t, b_t=-S * coeffs.b_t,
        alpha1=coeffs.alpha1 * S, alpha2=-coeffs.alpha2 * S,
        alpha3=S[:, None] * coeffs.alpha3 * S)


@pytest.fixture(scope="session")
def twin():
    return twin_coeffs


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(scope="session")
def hetdim_certificates():
    """The symmetric cycle certificates along the accumulation schedule;
    expensive, shared by the cycle tests and the acceptance suite."""
    from hetdim.cycles import solve_hetdim_symmetric
    model = hetdim_model()
    coeffs = hetdim_coeffs()
    return [solve_hetdim_symmetric(model, coeffs, k, m, s_target=0.0)
            for (k, m) in hetdim_schedule()]


@pytest.fixture(scope="session")
def battery_orbits():
    """Period-2 orbits across the index battery; shared between the index
    criterion and the cone acceptance checks."""
    from hetdim.cycles import solve_period2_with_s
    model = battery_model()
    coeffs = battery_coeffs()
    out = []
    for (k, m) in battery_pairs():
        for s in (-0.9, -0.45, 0.0, 0.45, 0.9):
            out.append(solve_period2_with_s(model, coeffs, k, m, s))
    return out
