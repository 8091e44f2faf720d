from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hetdim.errors import ItineraryError, ValidationError
from hetdim.global_map import (GlobalMapCoeffs, axis_jet, axis_point, coeffs_from_json,
                               first_return_array, in_pi0, in_pi1, k_star, locate_strip,
                               strip_for, t1_array, t1_jac_array, t1_tilde_array)
from hetdim.presets import d4_model, hetdim_coeffs, hetdim_model
from hetdim.saddle import reflect_array


@pytest.fixture(scope="module")
def coeffs():
    return hetdim_coeffs()


def test_tangency_point_maps_across(coeffs):
    out = t1_array(coeffs, np.array([0.0, coeffs.y_minus, 0.0]))
    assert out[0] == coeffs.x_plus
    assert out[1] == coeffs.mu == 0.0
    assert np.array_equal(out[2:], coeffs.z_plus)


def test_parabola_through_stable_manifold(coeffs):
    for t in (0.01, -0.02, 0.04):
        out = t1_array(coeffs, np.array([0.0, coeffs.y_minus + t, 0.0]))
        assert abs(out[1] - coeffs.d * t * t) < 1e-16


def test_quadratic_tangency_derivative(coeffs):
    J = t1_jac_array(coeffs, np.array([0.0, coeffs.y_minus, 0.0]))
    assert J[1, 1] == 0.0
    # second derivative along y equals 2 d
    h = 1e-5
    yp = t1_array(coeffs, np.array([0.0, coeffs.y_minus + h, 0.0]))[1]
    ym = t1_array(coeffs, np.array([0.0, coeffs.y_minus - h, 0.0]))[1]
    y0 = t1_array(coeffs, np.array([0.0, coeffs.y_minus, 0.0]))[1]
    assert abs((yp - 2 * y0 + ym) / h ** 2 - 2 * coeffs.d) < 1e-5


def test_domain_checks(coeffs):
    # the Pi1 test behind first_return_array's itinerary check
    assert in_pi1(coeffs, np.array([0.0, coeffs.y_minus, 0.0]))
    assert not in_pi1(coeffs, np.zeros(3))  # y too far from y-


def _twin_lab(dim: int):
    """A symmetric linear model in D = 3 or 4 with the cubic term e3 != 0."""
    coeffs = hetdim_coeffs(e3=0.3)
    if dim == 3:
        return hetdim_model(), coeffs
    return d4_model("linear"), dataclasses.replace(
        coeffs, z_plus=np.array([0.03, 0.01]), a_t=np.array([0.05, 0.02]),
        b_t=np.array([0.1, 0.05]), alpha1=np.array([0.02, 0.01]),
        alpha2=np.array([0.03, 0.01]), alpha3=np.array([[0.4, 0.05], [0.0, 0.3]]))


def test_twin_map_is_conjugation(rng):
    # R o T1 o R written out around (0, -y-, 0), with s = y + y- the offset
    # from the twin tangency point and S the symmetry signs:
    #   x' = x+ + a x - b s + alpha1 . S z
    #   y' = -mu - c x - d s^2 - alpha2 . S z + e3 s^3
    #   z' = S (z+ + at x - bt s + alpha3 S z)
    for dim in (3, 4):
        model, coeffs = _twin_lab(dim)
        cm, S = coeffs.with_mu(3e-4), model.symmetry_signs
        worst = 0.0
        for _ in range(100):
            x, s = rng.uniform(-0.05, 0.05), rng.uniform(-0.02, 0.02)
            z = rng.uniform(-0.05, 0.05, dim - 2)
            closed = np.concatenate((
                [cm.x_plus + cm.a * x - cm.b * s + cm.alpha1 @ (S * z),
                 -cm.mu - cm.c * x - cm.d * s * s - cm.alpha2 @ (S * z) + cm.e3 * s ** 3],
                S * (cm.z_plus + cm.a_t * x - cm.b_t * s + cm.alpha3 @ (S * z))))
            p = np.concatenate(([x, -cm.y_minus + s], z))
            worst = max(worst, float(np.max(np.abs(t1_tilde_array(model, cm, p) - closed))))
        assert worst < 1e-15, dim


@pytest.mark.parametrize("dim", [3, 4])
def test_twin_curve_slope_from_the_axis_jet(dim):
    # the twin curve q(t) = R T1(0, y- - t, 0) = T1~(0, -y- + t, 0) is R of
    # the axis jet, and its exact slope -R J[:, 1] matches central
    # differences of the twin map along its axis
    model, coeffs = _twin_lab(dim)
    cm, h = coeffs.with_mu(2e-4), 1e-6
    for t in (-0.03, -3e-4, 0.0, 1e-3, 0.02):
        w, J = axis_jet(model, cm, cm.y_minus - t, jacobian=True)
        assert np.array_equal(reflect_array(model, w),
                              t1_tilde_array(model, cm, axis_point(model, -cm.y_minus + t)))
        fd = (t1_tilde_array(model, cm, axis_point(model, -cm.y_minus + t + h))
              - t1_tilde_array(model, cm, axis_point(model, -cm.y_minus + t - h))) / (2.0 * h)
        assert np.max(np.abs(fd + reflect_array(model, J[:, 1]))) < 1e-9, t


def test_twin_tangency_point(coeffs):
    model = hetdim_model()
    out = t1_tilde_array(model, coeffs, np.array([0.0, -coeffs.y_minus, 0.0]))
    assert out[0] == coeffs.x_plus
    assert out[1] == -coeffs.mu == 0.0
    assert np.array_equal(out[2:], model.symmetry_signs * coeffs.z_plus)


def test_twin_parabola(coeffs):
    model = hetdim_model()
    for t in (0.013, -0.008):
        out = t1_tilde_array(model, coeffs, np.array([0.0, -coeffs.y_minus + t, 0.0]))
        assert abs(out[1] - (-coeffs.mu - coeffs.d * t * t)) < 1e-16


def test_first_return_matches_symbolic_composition(coeffs):
    # in the linear tier the return on a strip is T1 composed with the
    # diagonal action: verified against the closed form
    model = hetdim_model(tier="linear")
    lam, gam = model.multipliers.lam, model.multipliers.gamma
    lam1 = model.multipliers.strong[0]
    k = 8
    p = np.concatenate(([coeffs.x_plus + 0.01, 0.5 / gam ** k], coeffs.z_plus + 0.01))
    out, J = first_return_array(model, coeffs, p, k)
    q = np.array([lam ** k * p[0], gam ** k * p[1], lam1 ** k * p[2]])
    expected = t1_array(coeffs, q)
    assert np.max(np.abs(out - expected)) < 1e-14
    Jexp = t1_jac_array(coeffs, q) @ np.diag([lam ** k, gam ** k, lam1 ** k])
    assert np.max(np.abs(J - Jexp)) < 1e-10


def test_first_return_jacobian_finite_differences(coeffs):
    model = hetdim_model(tier="polynomial_symmetric")
    gam = model.multipliers.gamma
    k = 8
    base = np.array([coeffs.x_plus, 0.5 / gam ** k, coeffs.z_plus[0]])
    _, J = first_return_array(model, coeffs, base, k)
    h = 1e-7
    for i in range(3):
        up, um = base.copy(), base.copy()
        up[i] += h
        um[i] -= h
        col = (first_return_array(model, coeffs, up, k, with_jacobian=False)[0]
               - first_return_array(model, coeffs, um, k, with_jacobian=False)[0]) / (2 * h)
        denom = max(1.0, float(np.max(np.abs(J[:, i]))))
        assert np.max(np.abs(col - J[:, i])) / denom < 1e-6


def test_return_determinant_block(coeffs):
    # det of the (x, y) block approaches -b c (lambda gamma)^k
    model = hetdim_model(tier="linear")
    lam, gam = model.multipliers.lam, model.multipliers.gamma
    for k in (10, 14, 18):
        p = np.concatenate(([coeffs.x_plus, 0.5 / gam ** k], coeffs.z_plus))
        _, J = first_return_array(model, coeffs, p, k)
        det = np.linalg.det(J[:2, :2])
        target = -coeffs.b * coeffs.c * (lam * gam) ** k
        assert abs(det / target - 1.0) < 0.05


def test_itinerary_violation_named(coeffs):
    model = hetdim_model(tier="linear")
    with pytest.raises(ItineraryError):
        first_return_array(model, coeffs, np.concatenate(([coeffs.x_plus, 0.3], coeffs.z_plus)),
                           8)


def test_k_star(coeffs):
    model = hetdim_model(tier="linear")
    gam = abs(model.multipliers.gamma)
    ks = k_star(model, coeffs)
    assert gam ** (-ks) * (coeffs.y_minus + coeffs.delta) < coeffs.delta
    assert gam ** (-(ks - 1)) * (coeffs.y_minus + coeffs.delta) >= coeffs.delta


def test_locate_strip_exact_stay(coeffs):
    model = hetdim_model(tier="linear")
    gam = model.multipliers.gamma
    for k in (5, 8, 12):
        p = np.concatenate(([coeffs.x_plus, coeffs.y_minus / gam ** k], coeffs.z_plus))
        s = locate_strip(model, coeffs, p)
        assert s is not None and s.k == k


def test_stable_manifold_never_returns(coeffs):
    model = hetdim_model(tier="linear")
    p = np.concatenate(([coeffs.x_plus, 0.0], coeffs.z_plus))
    assert locate_strip(model, coeffs, p) is None


def test_locate_strip_start_outside_box(coeffs):
    # a Pi0 point outside the validity box starts no itinerary
    model = hetdim_model(tier="linear")
    near_edge = dataclasses.replace(coeffs, x_plus=0.97)
    p = np.concatenate(([1.01, 0.0], coeffs.z_plus))
    assert in_pi0(near_edge, p)
    assert locate_strip(model, near_edge, p) is None


def test_strips_disjoint_on_grid(coeffs):
    model = hetdim_model(tier="linear")
    gam = model.multipliers.gamma
    ys = np.linspace(-coeffs.delta * 0.999, coeffs.delta * 0.999, 100)
    xs = np.linspace(coeffs.x_plus - 0.049, coeffs.x_plus + 0.049, 100)
    seen = {}
    for x in xs:
        for y in ys:
            s = locate_strip(model, coeffs, np.concatenate(([x, y], coeffs.z_plus)))
            if s is not None:
                seen.setdefault(s.k, []).append(y)
    # strip y-ranges are disjoint and ratio of consecutive extents -> 1/gamma
    ks = sorted(seen)
    for k in ks:
        strip = strip_for(model, coeffs, k)
        for y in seen[k]:
            assert strip.y_range[0] <= y <= strip.y_range[1]
    for a, b in zip(ks, ks[1:]):
        if b == a + 1:
            sa, sb = strip_for(model, coeffs, a), strip_for(model, coeffs, b)
            assert sb.y_range[1] < sa.y_range[0]  # disjoint, ordered
            ratio = (sb.y_range[1] - sb.y_range[0]) / (sa.y_range[1] - sa.y_range[0])
            assert abs(ratio - 1 / gam) < 1e-12


def test_coeffs_json_roundtrip(coeffs):
    doc = coeffs.spec()
    again = coeffs_from_json(doc)
    assert again.spec() == doc


def test_with_mu_shares_every_field_but_mu(coeffs):
    fields = [f.name for f in dataclasses.fields(coeffs) if f.name != "mu"]
    before = {name: getattr(coeffs, name) for name in fields}
    mu0 = coeffs.mu
    for mu in (np.float64(0.25), 3, np.array([0.1, -0.2])):
        new = coeffs.with_mu(mu)
        assert type(new) is GlobalMapCoeffs
        assert all(getattr(new, name) is getattr(coeffs, name) for name in fields)
        if np.ndim(mu):
            assert new.mu is mu
        else:
            assert type(new.mu) is float and new.mu == mu
        assert new == dataclasses.replace(coeffs, mu=mu)
    # the original is unchanged
    assert coeffs.mu == mu0 and type(coeffs.mu) is type(mu0)
    assert all(getattr(coeffs, name) is before[name] for name in fields)


def test_nondegeneracy_rejections():
    with pytest.raises(ValidationError, match="d must be nonzero"):
        GlobalMapCoeffs(mu=0.0, x_plus=0.1, y_minus=0.5, z_plus=[0.0], a=0.1,
                        b=1.0, c=1.0, d=0.0, a_t=[0.0], b_t=[0.0],
                        alpha1=[0.0], alpha2=[0.0], alpha3=[[0.5]])


@pytest.mark.parametrize("name", ["a_t", "b_t", "alpha1", "alpha2", "alpha3"])
def test_coupling_shapes_must_match_the_z_block(coeffs, name):
    # a D=4 coupling next to the single z entry of z_plus
    bad = [[0.4, 0.05], [0.0, 0.3]] if name == "alpha3" else [0.05, 0.02]
    with pytest.raises(ValidationError, match=f"{name} has shape .* z_plus has 1 entries"):
        dataclasses.replace(coeffs, **{name: bad})
