"""Block evaluation: every layer of the connection gap, of the period-2
residual and of the forge's secondary-tangency residual takes a point or
an (N, D) block, and each block row is its point call, bit for bit, or NaN
where that call raises.

The cycle, period-2 and secondary-tangency Newtons hand every FD probe of
their residuals (and the cycle and secondary-tangency Newtons every floor
probe) to one block call; their Jacobians and floors must be the per-probe
ones exactly, because the Newtons stop on float noise."""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import linear_models, phase_points, stays, tier_models
from test_kernels import (_ballooning, _d4_coeffs, _d4_forge_coeffs, _negative_model,
                          _orbit_starts, _per_probe)

from hetdim import cones, cycles, tangency
from hetdim.cones import (_inverse_product, leaf_march, return_chain, stable_frame,
                          stable_slopes, strip_center)
from hetdim.cycles import (_connection_gap, _period2_residual, _period2_seed,
                           orbit_to_unknowns, solve_period2_with_s)
from hetdim.errors import (ContractError, ConvergenceError, DomainError, ItineraryError,
                           NumericalError, ValidationError)
from hetdim.global_map import axis_jet, first_return_array, in_pi1, t1_array, t1_jac_array
from hetdim.local import solve_cross_form
from hetdim.numerics import (_drive_rows, fd_jacobian, fold_tol, frobenius, newton_1d,
                             newton_solve, orthonormal_frame, row_norms)
from hetdim.presets import (base_model, battery_coeffs, battery_model, battery_pairs,
                            d4_model, forge_coeffs, hetdim_coeffs, hetdim_model, leaf_coeffs,
                            leaf_model)
from hetdim.saddle import reflect_array, stay_exit


def _hex(a) -> list[str]:
    return [float(x).hex() for x in np.ravel(a)]


def _lab(name, tier="linear"):
    if name == "D3":
        return hetdim_model(tier=tier), hetdim_coeffs()
    return d4_model(tier), _d4_coeffs()


def _assert_rows(block, point_call, n):
    """Row i of ``block`` (a tuple of arrays) is point_call(i) bit for bit,
    or NaN throughout where point_call(i) raises NumericalError."""
    for i in range(n):
        try:
            ref = point_call(i)
        except NumericalError:
            assert all(np.isnan(b[i]).all() for b in block), i
            continue
        for b, r in zip(block, ref):
            assert np.asarray(b[i]).tobytes() == np.asarray(r, dtype=float).tobytes(), i


# ---------------------------------------------------------------------------
# the global map, the reflection and the axis jets


@pytest.mark.parametrize("e3", [0.0, 0.3])
@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_t1_block_rows_are_point_calls_bitwise(lab, e3, rng):
    # one mu per row; signed zeros and a NaN row among the points
    model, coeffs = _lab(lab)
    coeffs = dataclasses.replace(coeffs, e3=e3)
    # enough rows that numpy's vectorised cube would differ on some
    V = rng.uniform(-0.6, 0.6, size=(400, model.dim))
    V[:, 1] += coeffs.y_minus
    V[0] = -0.0
    V[1, 2:] = 0.0
    V[2] = np.nan
    mu = rng.uniform(-1e-3, 1e-3, size=len(V))
    block = coeffs.with_mu(mu)
    images, jacs = t1_array(block, V), t1_jac_array(block, V)
    inside, mirrored = in_pi1(block, V), reflect_array(model, V)
    for i, v in enumerate(V):
        cm = coeffs.with_mu(mu[i])
        assert images[i].tobytes() == t1_array(cm, v).tobytes()
        assert jacs[i].tobytes() == t1_jac_array(cm, v).tobytes()
        assert mirrored[i].tobytes() == reflect_array(model, v).tobytes()
        assert inside[i] == (not np.isnan(v).any() and in_pi1(cm, v))


@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_axis_jet_block_rows_are_point_calls_bitwise(lab, rng):
    model, coeffs = _lab(lab)
    y = coeffs.y_minus + rng.uniform(-0.02, 0.02, size=9)
    mu = rng.uniform(-1e-3, 1e-3, size=len(y))
    w, J = axis_jet(model, coeffs.with_mu(mu), y, jacobian=True)
    assert w.shape == (len(y), model.dim) and J.shape == (len(y), model.dim, model.dim)
    _assert_rows((w, J), lambda i: axis_jet(model, coeffs.with_mu(mu[i]), y[i],
                                            jacobian=True), len(y))


def _return_starts(model, coeffs, k, rng, n):
    """n starts around the stay-k strip in Pi0 (k an int or one stay per
    row): y = gamma^-k (y- + u), so rows with |u| > delta/2 miss Pi1; one
    stay leaves the box, one start lies outside it and one is NaN."""
    v = np.empty((n, model.dim))
    v[:, 0] = coeffs.x_plus + rng.uniform(-0.05, 0.05, n)
    v[:, 1] = (model.multipliers.gamma ** -np.asarray(k, dtype=float)
               * (coeffs.y_minus + rng.uniform(-0.08, 0.08, n)))
    v[:, 2:] = coeffs.z_plus + rng.uniform(-0.05, 0.05, (n, model.dim - 2))
    v[-3, 1], v[-2, 0], v[-1] = 0.9, 1.5, np.nan
    return v


def _tier_lab(lab, tier):
    if lab == "D3":
        return base_model(tier), forge_coeffs("cdx_pos_d_pos")
    return d4_model(tier), _d4_forge_coeffs("cdx_pos_d_pos")


@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("tier", ["linear", "polynomial", "polynomial_symmetric"])
@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_first_return_block_rows_are_point_calls_bitwise(lab, tier, per_row, rng):
    # one mu per row, one stay per row or one for all (0 among them); rows
    # that leave the box or miss Pi1 are NaN exactly where the point call
    # raises
    model, coeffs = _tier_lab(lab, tier)
    n = 40
    k = rng.choice([0, 2, 12, 18], n) if per_row else 12
    v = _return_starts(model, coeffs, k, rng, n)
    mu = rng.uniform(-1e-3, 1e-3, n)
    for jacobian in (True, False):
        w, J = first_return_array(model, coeffs.with_mu(mu), v, k, with_jacobian=jacobian)
        block = (w, J) if jacobian else (w,)
        _assert_rows(block, lambda i: first_return_array(
            model, coeffs.with_mu(mu[i]), v[i], int(k[i]) if per_row else k,
            with_jacobian=jacobian)[:len(block)], n)
    assert J is None
    landed = np.isfinite(w).all(axis=1)
    assert 5 < landed.sum() < n - 3 and np.isnan(w[~landed]).all()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(model=tier_models(), k=stays, per_row=st.booleans(), data=st.data())
def test_first_return_block_is_its_point_calls_property(model, k, per_row, data):
    # any admissible model on any tier, any stay: each row of the block, with
    # and without the Jacobian, is its point call or NaN where that raises
    coeffs = forge_coeffs("cdx_pos_d_pos") if model.dim == 3 else _d4_forge_coeffs("cdx_pos_d_pos")
    n = data.draw(st.integers(4, 9))
    ks = np.array(data.draw(st.lists(stays, min_size=n, max_size=n))) if per_row else k
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    v = _return_starts(model, coeffs, ks, rng, n)
    mu = rng.uniform(-1e-3, 1e-3, n)
    for jacobian in (True, False):
        with np.errstate(over="ignore", invalid="ignore"):
            got = first_return_array(model, coeffs.with_mu(mu), v, ks, with_jacobian=jacobian)
            _assert_rows(got[:1 + jacobian], lambda i: first_return_array(
                model, coeffs.with_mu(mu[i]), v[i], int(ks[i]) if per_row else ks,
                with_jacobian=jacobian)[:1 + jacobian], n)


@pytest.mark.parametrize("tier", ["linear", "polynomial", "polynomial_symmetric"])
@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_axis_jet_through_stays_block_rows_are_point_calls_bitwise(lab, tier, rng):
    # the forge's jets: offsets from y- down to 1e-5, one mu per row, stays
    # one for all or one per row; rows that leave the box or miss Pi1 after
    # a return are NaN exactly where the point call raises
    model, coeffs = _tier_lab(lab, tier)
    n = 60
    t = rng.uniform(-0.01, 0.01, n) * rng.choice([1.0, 1e-3], n)
    y = coeffs.y_minus + t
    landed = 0
    for stays in [(12,), (12, 14), (rng.choice([10, 12, 14, 16], n),),
                  (12, rng.choice([12, 14], n))]:
        # T1 lifts each axis point to the height gamma^-k (y- + u) that the
        # first stay k carries to y- + u: |u| > delta/2 misses Pi1
        mu = (model.multipliers.gamma ** -np.asarray(stays[0], dtype=float)
              * (coeffs.y_minus + rng.uniform(-0.08, 0.08, n)) - coeffs.d * t * t)
        for jacobian in (True, False):
            w, J = axis_jet(model, coeffs.with_mu(mu), y, stays, jacobian=jacobian)
            block = (w, J) if jacobian else (w,)
            _assert_rows(block, lambda i: axis_jet(
                model, coeffs.with_mu(mu[i]), y[i],
                tuple(int(s[i]) if np.ndim(s) else s for s in stays),
                jacobian=jacobian)[:len(block)], n)
            landed += np.isfinite(w).all(axis=1).sum()
    assert n < landed < 6 * n


# ---------------------------------------------------------------------------
# frames and slopes


def test_block_inverse_is_the_point_inverse_or_nan_where_it_raises(rng):
    for dim in (1, 3):
        A = rng.standard_normal((5, dim, dim))
        A[1] = 0.0
        A[2, 0, 0] = np.inf
        inv = cones._inverse(A)
        for i in (0, 3, 4):
            assert inv[i].tobytes() == np.linalg.inv(A[i]).tobytes()
        assert np.isnan(inv[1:3]).all() and not np.isnan(inv[3:]).any()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(A[1])


def test_row_norms_and_block_frames_are_the_point_kernels_bitwise(rng):
    A = rng.standard_normal((7, 4, 2))
    assert _hex(row_norms(A)) == _hex([frobenius(a) for a in A])
    for cols in (1, 2):
        V = rng.standard_normal((6, 4, cols))
        # a zero column keeps its QR frame
        V[3] = 0.0
        frames = orthonormal_frame(V)
        for v, f in zip(V, frames):
            assert f.tobytes() == orthonormal_frame(v).tobytes()


@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_stable_frame_rows_sweep_as_their_point_calls(lab):
    # stay numbers 1..36 settle after their own sweep counts (11 down to 1 at
    # D = 3); a product that is not finite and a quarter turn that never
    # settles come back NaN
    model, coeffs = _lab(lab)
    P = [_inverse_product(return_chain(model, coeffs, strip_center(model, coeffs, k),
                                       [k])) for k in (1, 4, 12, 36)]
    turn = np.eye(model.dim)
    turn[[1, 2], [1, 2]] = 0.0
    turn[1, 2], turn[2, 1] = -1.0, 1.0
    P = np.array(P + [np.full_like(P[0], np.nan), turn])
    W = stable_frame(P)
    assert W.shape == (len(P), model.dim, model.dim - 2)
    for p, w in zip(P[:4], W):
        assert w.tobytes() == stable_frame(p).tobytes()
    with pytest.raises(ConvergenceError, match="sweeps"):
        stable_frame(turn)
    assert np.isnan(W[4:]).all()


def _slope_points(model, coeffs, k):
    """Five points across the stay-k strip centre, and one whose stay leaves
    the box."""
    p = strip_center(model, coeffs, k)
    spread = np.r_[0.05, 0.05 * p[1], np.full(model.dim - 2, 0.02)]
    pts = p + np.outer(np.linspace(-0.3, 0.3, 5), spread)
    out = pts[0].copy()
    out[1] *= 3.0
    return np.vstack((pts, out))


@pytest.mark.parametrize("tier", ["linear", "polynomial_symmetric"])
@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_stable_slopes_block_rows_are_point_calls_bitwise(lab, tier):
    model, coeffs = _lab(lab, tier)
    for k in (10, 20):
        pts = _slope_points(model, coeffs, k)
        Phi = stable_slopes(model, coeffs, pts, k)
        assert Phi.shape == (len(pts), 2, model.dim - 2)
        _assert_rows((Phi,), lambda i: (stable_slopes(model, coeffs, pts[i], k),), len(pts))
        # the last row's stay leaves the box
        with pytest.raises(ItineraryError):
            stable_slopes(model, coeffs, pts[-1], k)
        assert np.isnan(Phi[-1]).all() and not np.isnan(Phi[:-1]).any()


@settings(derandomize=True, database=None, max_examples=60)
@given(model=linear_models(), k=stays, data=st.data())
def test_linear_stable_slopes_block_is_its_point_calls_property(model, k, data):
    # any admissible linear model, stay and points in and around the box:
    # each row is its point call, or NaN where that call raises
    coeffs = hetdim_coeffs() if model.dim == 3 else _d4_coeffs()
    pts = np.array([data.draw(phase_points(model.dim)) for _ in range(3)])
    # exit heights in and around the box
    pts[:, 1] /= abs(model.multipliers.gamma) ** k
    Phi = stable_slopes(model, coeffs, pts, k)
    _assert_rows((Phi,), lambda i: (stable_slopes(model, coeffs, pts[i], k),), len(pts))


# ---------------------------------------------------------------------------
# the leaf march


def test_leaf_march_block_rows_are_point_calls_bitwise():
    # leaf_model at k = 4 is curved: the half-box row must split and finishes
    # on the point path, the short rows settle at once, the last row's base
    # leaves the box
    model, coeffs = leaf_model(), leaf_coeffs()
    k = 4
    base = strip_center(model, coeffs, k)
    bases = np.array([base, base, base + [1e-3, 0.0, 1e-3], base])
    bases[3, 1] *= 40.0
    targets = base[2:] + np.array([[coeffs.delta / 2], [1e-4], [-2e-4], [1e-4]])
    slopes = stable_slopes(model, coeffs, bases, k)
    xy, Phi = leaf_march(model, coeffs, bases, k, targets, slopes)
    _assert_rows((xy, Phi), lambda i: leaf_march(model, coeffs, bases[i], k, targets[i],
                                                 stable_slopes(model, coeffs, bases[i], k))[:2],
                 len(bases))
    assert not np.isnan(xy[:3]).any() and np.isnan(xy[3]).all()


def test_leaf_march_row_without_arrival_slopes_comes_back_nan(monkeypatch):
    # the arrival's slopes fail on one row only (its point call would raise
    # there): that row loses its arrival too, so no caller reads a finite
    # point without its slopes
    model, coeffs = hetdim_model(), hetdim_coeffs()
    k = 12
    base = strip_center(model, coeffs, k)
    bases = np.array([base, base])
    targets = base[2:] + np.array([[0.01], [0.02]])
    slopes = stable_slopes(model, coeffs, bases, k)
    calls = []

    def failing(model, coeffs, p, k):
        calls.append(1)
        out = stable_slopes(model, coeffs, p, k)
        if len(calls) == 5:
            out[0] = np.nan
        return out

    monkeypatch.setattr(cones, "stable_slopes", failing)
    xy, Phi = leaf_march(model, coeffs, bases, k, targets, slopes)
    assert len(calls) == 5
    assert np.isnan(xy[0]).all() and np.isnan(Phi[0]).all()
    assert not np.isnan(xy[1]).any()


@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_linear_leaf_march_block_rows_are_point_calls_bitwise(lab, rng):
    model, coeffs = _lab(lab)
    k = 12
    base = strip_center(model, coeffs, k)
    bases = base + 1e-3 * rng.standard_normal((6, model.dim)) * np.abs(base)
    targets = bases[:, 2:] + rng.uniform(-0.04, 0.04, size=(6, model.dim - 2))
    slopes = stable_slopes(model, coeffs, bases, k)
    xy, Phi = leaf_march(model, coeffs, bases, k, targets, slopes)
    _assert_rows((xy, Phi), lambda i: leaf_march(model, coeffs, bases[i], k, targets[i],
                                                 slopes[i])[:2], len(bases))


# ---------------------------------------------------------------------------
# the lock-step t-match and the connection gap


def _parabola_rows(roots, domain):
    """Rows 1e6 (t - r1)(t - r2); past t = domain a point raises and a
    block row is NaN."""
    def f(t, rows=...):
        r1, r2 = roots[rows, 0], roots[rows, 1]
        val, slope = 1e6 * (t - r1) * (t - r2), 1e6 * (2.0 * t - r1 - r2)
        if np.ndim(t) == 0 and t > domain:
            raise DomainError("past the domain")
        return np.where(t > domain, np.nan, val), slope, (2.0 * t,)

    return f


def test_newton_1d_rows_step_in_lock_step_bitwise():
    # a fold's small-root steps, plain steps, a root at the start, a flat
    # start (the point call raises: its row comes back NaN) and a first
    # step past the domain (the row halves it as the point call does)
    roots = np.array([[1.0, 1.0 + 1e-6], [0.5, 0.7], [0.25, 0.45], [0.0, 1.0], [1.0, 1.2]])
    t0 = np.array([1.0 + 5e-7 + 1e-12, 0.0, 0.25, 0.5, 1.1 + 1e-3])
    f = _parabola_rows(roots, domain=1.5)
    t, val, slope, (pay,), evals = newton_1d(f, t0, tol=1e-13, accept_tol=1e-11, name="rows")
    for i in (0, 1, 2, 4):
        ref = newton_1d(lambda s, i=i: f(s, i), float(t0[i]), tol=1e-13, accept_tol=1e-11,
                        name="rows")
        assert _hex([t[i], val[i], slope[i], pay[i]]) == _hex([*ref[:3], ref[3][0]])
        assert evals[i] == ref[4]
    assert evals[2] == 1
    with pytest.raises(ConvergenceError, match="flat"):
        newton_1d(lambda s: f(s, 3), 0.5, tol=1e-13, name="rows")
    assert np.isnan([t[3], val[3], slope[3], pay[3]]).all() and evals[3] == 0
    # row 4's point call halves its first step back into the domain
    assert t[4] < 1.5


def test_newton_1d_rows_take_an_empty_payload():
    # each row is its point call in float.hex, with its evaluations; the
    # payload stays empty
    t0 = np.array([1.0, 1.5, -3.0, 2.0 ** 0.5])
    t, val, slope, payload, evals = newton_1d(lambda t, rows: (t * t - 2.0, 2.0 * t, ()), t0,
                                              tol=1e-12, name="sqrt2")
    assert payload == ()
    for r, s in enumerate(t0.tolist()):
        ref = newton_1d(lambda t: (t * t - 2.0, 2.0 * t, ()), s, tol=1e-12, name="sqrt2")
        assert _hex([t[r], val[r], slope[r]]) == _hex(ref[:3]), r
        assert ref[3] == () and evals[r] == ref[4], r


def test_drive_rows_raises_on_a_round_that_answers_no_live_row():
    # a serve that answers none of the rows still running would leave them
    # waiting for ever
    def steps():
        yield 1.0
        return 0

    with pytest.raises(ContractError, match="answered none"):
        _drive_rows([steps(), steps()], lambda live, requests: {})
    with pytest.raises(ContractError, match="answered none"):
        _drive_rows([steps(), steps()], lambda live, requests: {5: 0.0})
    assert _drive_rows([steps(), steps()], lambda live, requests: {live[0]: 0.0}) == [0, 0]


@st.composite
def _parabola_tables(draw):
    """1 to 6 rows of scale ((t - r1)(t - r2) + lift) (no root for a large
    lift) from a seed t0, a wall past which its point call raises (a block
    row is NaN) and a flat spot (lo, hi) where its slope is 0."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        r1, t0 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-3.0, 3.0))
        lo = t0 + draw(st.floats(-2.0, 2.0))
        rows.append([r1, r1 + draw(st.floats(0.0, 2.0)),
                     draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(1e-3, 1e6)),
                     t0 + draw(st.floats(-0.5, 3.0)), lo, lo + draw(st.floats(0.0, 0.5)),
                     draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))), t0])
    return np.array(rows)


def _walled_parabolas(table):
    def f(t, rows=...):
        r1, r2, scale, wall, lo, hi, lift = (table[rows, i] for i in range(7))
        if np.ndim(t) == 0 and t > wall:
            raise DomainError("past the wall")
        val = scale * ((t - r1) * (t - r2) + lift)
        slope = np.where((lo < t) & (t < hi), 0.0, scale * (2.0 * t - r1 - r2))
        return np.where(t > wall, np.nan, val), slope, (2.0 * t,)

    return f


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(table=_parabola_tables(), accept_tol=st.sampled_from([None, 1e-9]))
def test_newton_1d_rows_are_their_point_calls_property(table, accept_tol):
    # any seeds, walls and flat spots: each row is its point call in
    # float.hex, with its evaluations, or NaN with 0 evaluations where that
    # call raises (seeded past the wall, at a flat spot, trapped at the
    # wall, or unconverged)
    f, kw = _walled_parabolas(table), dict(tol=1e-12, accept_tol=accept_tol, name="rows")
    with np.errstate(over="ignore", invalid="ignore"):
        t, val, slope, (pay,), evals = newton_1d(f, table[:, 7], **kw)
        for r, t0 in enumerate(table[:, 7]):
            try:
                ref = newton_1d(lambda s, r=r: f(s, r), float(t0), **kw)
            except NumericalError:
                assert np.isnan([t[r], val[r], slope[r], pay[r]]).all() and evals[r] == 0, r
                continue
            assert _hex([t[r], val[r], slope[r], pay[r]]) == _hex([*ref[:3], ref[3][0]]), r
            assert evals[r] == ref[4], r


def _gap_rows(model, coeffs, k, m, rng, n=6):
    """Q02, eta1 and mu2 around a solved period-2 orbit, one row per probe,
    the last one's Q02 far outside the box."""
    orbit = solve_period2_with_s(model, coeffs, k, m, 0.0)
    Q02 = orbit.points["Q02"].as_array()
    Q = Q02 + 1e-9 * rng.standard_normal((n, model.dim)) * np.abs(Q02)
    Q[-1, 1] = 2.0
    eta1 = orbit.eta[0] * (1.0 + 1e-6 * rng.standard_normal(n))
    mu2 = orbit.mu * (1.0 + 1e-6 * rng.standard_normal(n))
    return coeffs.with_mu(orbit.mu), Q, eta1, mu2


@pytest.mark.parametrize("lab, k, m", [("D3", 12, 10), ("D4", 14, 12)])
def test_connection_gap_block_rows_are_point_calls_bitwise(lab, k, m, rng):
    model, coeffs = _lab(lab)
    cm, Q, eta1, mu2 = _gap_rows(model, coeffs, k, m, rng)
    gap, info = _connection_gap(model, cm, cm, mu2, Q, m, eta1)

    def point(i):
        g, doc = _connection_gap(model, cm, cm, mu2[i], Q[i], m, eta1[i])
        return g, doc["t_param"], doc["curve_point"], doc["leaf_point"]

    _assert_rows((gap, info["t_param"], info["curve_point"], info["leaf_point"]), point,
                 len(Q))
    with pytest.raises(ItineraryError):
        point(len(Q) - 1)
    assert not np.isnan(gap[:-1]).any() and np.isnan(gap[-1])


# ---------------------------------------------------------------------------
# the cycle Newton's probes as one block


class _Seed(Exception):
    pass


def _cycle_probes(monkeypatch, k, m):
    """The cycle residual F, its seed w0, the FD scales and the floor probes
    of ``_hetdim_solve`` at (k, m), captured before the Newton starts."""
    got = {}

    def floors(f, u, ulps, least):
        got.update(F=f, w0=u, ulps=ulps, least=least)
        return np.asarray(least)

    solve = cycles.newton_solve

    def newton(f, u0, *, scales, name, **kw):
        if name.startswith("period-2"):
            # phase A's period-2 solve
            return solve(f, u0, scales=scales, name=name, **kw)
        got["scales"] = scales
        raise _Seed

    monkeypatch.setattr(cycles, "fold_tol", floors)
    monkeypatch.setattr(cycles, "newton_solve", newton)
    with pytest.raises(_Seed):
        cycles.solve_hetdim_symmetric(hetdim_model(), hetdim_coeffs(), k, m)
    return got


@pytest.mark.parametrize("k, m", [(12, 10), (24, 20)])
def test_cycle_probe_blocks_are_the_per_probe_results_bitwise(monkeypatch, k, m):
    got = _cycle_probes(monkeypatch, k, m)
    F, w0 = got["F"], got["w0"]
    calls = []

    def counted(w):
        calls.append(np.ndim(w))
        return F(w)

    J = fd_jacobian(counted, w0, got["scales"])
    assert calls == [2]
    ref = fd_jacobian(_per_probe(F), w0, got["scales"])
    assert _hex(J) == _hex(ref)
    del calls[:]
    tol = fold_tol(counted, w0, got["ulps"], least=got["least"])
    assert calls == [2]
    assert _hex(tol) == _hex(fold_tol(_per_probe(F), w0, got["ulps"], least=got["least"]))
    # the block's rows are the point residuals, probe by probe
    probes = np.array([w0 + s * e for e in np.diag(got["scales"] * 1e-7) for s in (1, -1)])
    rows = F(probes)
    for p, r in zip(probes, rows):
        assert r.tobytes() == F(p).tobytes()


def test_block_fd_jacobian_takes_the_point_one_sided_fallback():
    # probes beyond x = 0.3 leave the domain: a point raises, a block row is
    # NaN; the block and the per-probe reference both take the backward
    # difference of variable 0 from their probes and one more call for f(u)
    def point(u):
        if u[0] > 0.3:
            raise DomainError("probe left the domain")
        return np.array([u[0] ** 2, 3.0 * u[1]])

    calls = []

    def f(u):
        calls.append(np.ndim(u))
        if u.ndim == 1:
            return point(u)
        return np.array([[np.nan, np.nan] if r[0] > 0.3 else point(r) for r in u])

    u = np.array([0.3, 1.0])
    J = fd_jacobian(f, u, np.ones(2))
    # the probes as one block, then f(u) as a block of one row
    assert calls == [2, 2]
    del calls[:]
    assert J.tobytes() == fd_jacobian(_per_probe(f), u, np.ones(2)).tobytes()
    # the four probes, then f(u)
    assert calls == [1] * 5
    assert J[0, 0] == pytest.approx(0.6, rel=1e-6)


# ---------------------------------------------------------------------------
# the period-2 residual and its Newton's probes as one block


def _period2_rows(lab, k, m, rng, n=6):
    """Unknowns and one mu per row around the linear tier's solved orbit;
    the last two rows leave the box, one in each leg's stay."""
    model, coeffs = _lab(lab)
    orbit = solve_period2_with_s(model, coeffs, k, m, 0.3)
    u = orbit_to_unknowns(model, coeffs, orbit)
    U = u + 1e-6 * rng.standard_normal((n, u.size)) * np.maximum(np.abs(u), 1e-3)
    U[-2, model.dim + 1] = U[-1, 1] = 3.0
    mu = orbit.mu * (1.0 + 1e-6 * rng.standard_normal(n))
    return coeffs, U, mu


@pytest.mark.parametrize("tier", ["linear", "polynomial_symmetric"])
@pytest.mark.parametrize("lab, k, m", [("D3", 12, 10), ("D4", 14, 12)])
def test_period2_residual_block_rows_are_point_calls_bitwise(lab, k, m, tier, rng):
    coeffs, U, mu = _period2_rows(lab, k, m, rng)
    model = _lab(lab, tier)[0]
    s = 0.3
    rows, eta1, Q02 = _period2_residual(model, coeffs.with_mu(mu), U, k, m, s)
    assert rows.shape == (len(U), 2 * model.dim + 1) and Q02.shape == (len(U), model.dim)
    _assert_rows((rows, eta1, Q02),
                 lambda i: _period2_residual(model, coeffs.with_mu(mu[i]), U[i], k, m, s),
                 len(U))
    # one mu for the whole block
    rows1, eta11, Q021 = _period2_residual(model, coeffs.with_mu(mu[0]), U, k, m, s)
    _assert_rows((rows1, eta11, Q021),
                 lambda i: _period2_residual(model, coeffs.with_mu(mu[0]), U[i], k, m, s),
                 len(U))
    # a stay of each of the last two rows leaves the box, so _assert_rows
    # found their block rows NaN throughout; no other row is
    for i in (-2, -1):
        with pytest.raises(ItineraryError):
            _period2_residual(model, coeffs.with_mu(mu[i]), U[i], k, m, s)
    assert np.isfinite(rows[:-2]).all()


def _period2_newton(monkeypatch, solve, *args):
    """The residual F, seed and FD scales that ``solve`` hands its Newton."""
    got = {}

    def newton(f, u0, *, scales, **kw):
        got.update(F=f, u0=u0, scales=scales)
        raise _Seed

    monkeypatch.setattr(cycles, "newton_solve", newton)
    with pytest.raises(_Seed):
        solve(*args)
    return got


@pytest.mark.parametrize("pair", [0, -1])
@pytest.mark.parametrize("s", [-0.9, 0.45])
def test_period2_fd_jacobian_block_is_the_per_probe_jacobian_bitwise(monkeypatch, pair, s):
    # at a battery seed, for the joint Newton with s (one mu per probe row)
    # and for the closure Newton at fixed mu: one block call, the point
    # calls' Jacobian bit for bit
    model, coeffs = battery_model(), battery_coeffs()
    k, m = battery_pairs()[pair]
    _, mu0 = _period2_seed(model, coeffs, k, m, s)
    for got in (_period2_newton(monkeypatch, cycles.solve_period2_with_s, model, coeffs,
                                k, m, s),
                _period2_newton(monkeypatch, cycles.solve_period2, model,
                                coeffs.with_mu(mu0), k, m)):
        F, u0 = got["F"], got["u0"]
        calls = []

        def counted(w):
            calls.append(np.ndim(w))
            return F(w)

        J = fd_jacobian(counted, u0, got["scales"])
        assert calls == [2]
        assert _hex(J) == _hex(fd_jacobian(_per_probe(F), u0, got["scales"]))


# ---------------------------------------------------------------------------
# the forge's secondary-tangency residual and its Newton's probes as one block


FORGE_CASES = ("cdx_neg_d_neg", "cdx_pos_d_neg", "cdx_neg_d_pos", "cdx_pos_d_pos")


def _forge_probes(monkeypatch, model, coeffs, ks):
    """The rows residual F and floor rows F_floor (functions of the pair
    (rows, block) of ``newton_solve``'s rows) that ``solve_secondary_tangency``
    hands its lock-step Newton and its fold_tol at the (k, branch) seeds u0
    of the stays ``ks``, with the FD scales, the floor probes and their least
    tolerances.  The Newton takes the exact Jacobian on the linear tier and
    FD Jacobians on the others."""
    got = {}

    def floors(f, u, ulps, least=1e-13):
        got.update(F_floor=f, ulps=ulps, least=least, floor_rows=np.ndim(u) == 2)
        return np.full(np.shape(u), 1e-13)

    def newton(f, u0, *, scales, jac=None, **kw):
        got.update(F=f, u0=u0, scales=scales, jac=jac)
        raise _Seed

    monkeypatch.setattr(tangency, "fold_tol", floors)
    monkeypatch.setattr(tangency, "newton_solve", newton)
    with pytest.raises(_Seed):
        tangency.solve_secondary_tangency(model, coeffs, ks)
    assert got["u0"].shape == (2 * np.size(ks), 3) and got["floor_rows"]
    assert (got["jac"] is None) == (model.nonlinearity.kind != "linear")
    return got


def _point_residual(model, coeffs, k):
    """The residual of one (k, branch) solve on its own (its point call)."""
    return lambda u: tangency._tangency_jet(model, coeffs, u, k)[0]


@pytest.mark.parametrize("e3", [0.0, 0.3])
@pytest.mark.parametrize("tier", ["linear", "polynomial_symmetric"])
@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_forge_residual_block_rows_are_point_calls_bitwise(monkeypatch, lab, tier, e3, rng):
    # one mu per row; the last row's exit height y- + 3 leaves the box
    if lab == "D3":
        model, coeffs = base_model(tier), forge_coeffs("cdx_neg_d_neg")
    else:
        model, coeffs = d4_model(tier), _d4_forge_coeffs("cdx_neg_d_neg")
    coeffs = dataclasses.replace(coeffs, e3=e3)
    got = _forge_probes(monkeypatch, model, coeffs, 12)
    F, u0 = got["F"], got["u0"][0]
    point = _point_residual(model, coeffs, 12)
    U = u0 * (1.0 + 1e-3 * rng.standard_normal((12, 3)))
    U[-1, 1] = 3.0
    # every row at branch 1's stay
    rows = F((np.zeros(len(U), int), U))
    assert rows.shape == (len(U), 3)
    _assert_rows((rows,), lambda i: (point(U[i]),), len(U))
    with pytest.raises(ItineraryError):
        point(U[-1])
    assert np.isfinite(rows[:-1]).all()
    floored = got["F_floor"]((np.zeros(len(U), int), U))
    _assert_rows((floored,), lambda i: (point(U[i]),), len(U))


@pytest.mark.parametrize("k", [12, 24])
@pytest.mark.parametrize("case", FORGE_CASES)
def test_forge_probe_blocks_are_the_per_probe_results_bitwise(monkeypatch, case, k):
    # at the seeds of each sign case: one block call each for a row's FD
    # Jacobian and for every row's floors, the point calls' results bit for
    # bit
    model, coeffs = base_model("linear"), forge_coeffs(case)
    got = _forge_probes(monkeypatch, model, coeffs, k)
    F, F_floor, U0 = got["F"], got["F_floor"], got["u0"]
    point = _point_residual(model, coeffs, k)
    calls = []

    def counted(f):
        def g(arg):
            calls.append(np.ndim(arg[1]))
            return f(arg)
        return g

    for r, u0 in enumerate(U0):
        del calls[:]
        J = fd_jacobian(lambda w: counted(F)((np.full(len(w), r), w)), u0, got["scales"][r])
        assert calls == [2]
        assert _hex(J) == _hex(fd_jacobian(_per_probe(point), u0, got["scales"][r]))
    del calls[:]
    tol = fold_tol(counted(F_floor), U0, got["ulps"], least=got["least"])
    assert calls == [2] and tol.shape == (len(U0), 3)
    for r, u0 in enumerate(U0):
        ref = fold_tol(_per_probe(point), u0, [e[r] for e in got["ulps"]], least=got["least"])
        assert _hex(tol[r]) == _hex(ref), r


# per lab, tier and sign case: the first 16 hex digits of the sha256 of
# every (k, branch) pair's fields in float.hex, both e3, as each pair's
# Newton on its own gave them (recorded under numpy 2.4 on x86-64 before
# the lock-step Newton became the only one)
FORGE_DIGESTS = {
    ("D3", "linear", "cdx_neg_d_neg"): "3afa2c67035a8eb8",
    ("D3", "linear", "cdx_pos_d_neg"): "86c9d4dd49ddf93c",
    ("D3", "linear", "cdx_neg_d_pos"): "b146b636c01fd831",
    ("D3", "linear", "cdx_pos_d_pos"): "10ee25e2931ca38f",
    ("D3", "polynomial", "cdx_neg_d_neg"): "9563d5061400f02e",
    ("D3", "polynomial", "cdx_pos_d_neg"): "db61f3dd4e3f3bac",
    ("D3", "polynomial", "cdx_neg_d_pos"): "f5a59b40bbd619a9",
    ("D3", "polynomial", "cdx_pos_d_pos"): "7649a4ce09ec9fa8",
    ("D4", "linear", "cdx_neg_d_neg"): "d75da1db0467520d",
    ("D4", "linear", "cdx_pos_d_neg"): "e201cccdb894e2c5",
    ("D4", "linear", "cdx_neg_d_pos"): "9236622b877b802e",
    ("D4", "linear", "cdx_pos_d_pos"): "e28f87d8866c2656",
    ("D4", "polynomial", "cdx_neg_d_neg"): "a9144b0020e7907c",
    ("D4", "polynomial", "cdx_pos_d_neg"): "fcfb031ca5c05b53",
    ("D4", "polynomial", "cdx_neg_d_pos"): "ce9cf31fd7fb51df",
    ("D4", "polynomial", "cdx_pos_d_pos"): "9d4843538009975d",
}


@pytest.mark.parametrize("tier", ["linear", "polynomial"])
@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_forge_rows_are_their_branch_solves_bitwise(lab, tier):
    # every (k, branch) row of the lock-step solve is the solve of that
    # branch on its own, field by field, bit for bit
    ks = list(range(12, 25, 2)) if tier == "linear" else [12, 14, 16]
    model = base_model(tier) if lab == "D3" else d4_model(tier)
    for case in FORGE_CASES:
        digest = hashlib.sha256()
        for e3 in (0.0, 0.3):
            coeffs = dataclasses.replace(
                forge_coeffs(case) if lab == "D3" else _d4_forge_coeffs(case), e3=e3)
            solved = tangency.solve_secondary_tangency(model, coeffs, ks)
            assert list(solved) == ks
            for br in (br for k in ks for br in solved[k]):
                digest.update(repr(sorted(_branch_hex(br).items())).encode())
        assert digest.hexdigest()[:16] == FORGE_DIGESTS[lab, tier, case], case


def _branch_hex(br):
    return {f.name: _hex(v) if isinstance(v, (float, np.ndarray)) else v
            for f in dataclasses.fields(br) for v in (getattr(br, f.name),)}


def _solve_outcome(fn):
    try:
        return fn()
    except (NumericalError, ValidationError) as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(model=linear_models(), case=st.sampled_from(FORGE_CASES))
def test_forge_rows_are_its_per_k_calls_property(model, case):
    # any admissible linear model: the ks 12..20 in one call are the per-k
    # calls bit for bit, or raise the error the first failing k raises
    coeffs = forge_coeffs(case) if model.dim == 3 else _d4_forge_coeffs(case)
    ks = list(range(12, 21, 2))

    def per_k():
        return {k: tangency.solve_secondary_tangency(model, coeffs, k) for k in ks}

    got = _solve_outcome(lambda: tangency.solve_secondary_tangency(model, coeffs, ks))
    ref = _solve_outcome(per_k)
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert {k: [_branch_hex(b) for b in v] for k, v in got.items()} == \
            {k: [_branch_hex(b) for b in v] for k, v in ref.items()}


# ---------------------------------------------------------------------------
# per-row stays on the linear tier


@pytest.mark.parametrize("name", ["D3", "D4", "negative"])
def test_stay_exit_with_per_row_stays_is_its_point_calls_bitwise(name):
    # each row its own stay, 0 among them; signed zeros, and rows whose
    # stays leave the box (NaN rows, where the point call raises)
    model = {"D3": base_model, "D4": d4_model, "negative": _negative_model}[name]("linear")
    starts = _orbit_starts(model.dim)
    out = starts.copy()
    out[:, 1] = 0.3
    v = np.concatenate((starts, starts, out, starts))
    n = np.array([0, 1, 12, 7] + [3, 0, 2, 25] + [40, 1, 0, 40] + [30, 30, 1, 2])
    block = stay_exit(model, v, n)
    _assert_rows((block,), lambda i: (stay_exit(model, v[i], int(n[i])),), len(v))
    assert np.isnan(block[[8, 11]]).all() and np.isfinite(block[:7]).all()
    # the point calls' signed zeros: -0.0 stays -0.0 for 0 steps only
    zero = np.full((3, model.dim), -0.0)
    assert np.signbit(stay_exit(model, zero, np.array([0, 1, 2]))).tolist() == \
        [[True] * model.dim, [False] * model.dim, [False] * model.dim]


@pytest.mark.parametrize("name", ["D3", "D4", "negative"])
def test_cross_form_with_per_row_stays_is_its_point_calls_bitwise(name, rng):
    model = {"D3": base_model, "D4": d4_model, "negative": _negative_model}[name]("linear")
    N = 12
    x0 = rng.uniform(-0.2, 0.2, N)
    yk = rng.uniform(-0.6, 0.6, N)
    z0 = rng.uniform(-0.1, 0.1, (N, model.dim - 2))
    k = rng.choice([0, 2, 6, 12, 24], N)
    x0[0], yk[1], z0[2] = -0.0, -0.0, -0.0
    # a start outside the box, and a stay whose y leaves it
    x0[-2], yk[-1], k[-1] = 1.5, 1.5, 6
    cf = solve_cross_form(model, x0, yk, z0, k)

    def point(i):
        p = solve_cross_form(model, x0[i], yk[i], z0[i], int(k[i]))
        return p.x_k, p.y_0, p.z_k, p.residual

    _assert_rows((cf.x_k, cf.y_0, cf.z_k, cf.residual), point, N)
    assert np.isnan(cf.x_k[-2:]).all() and np.isfinite(cf.x_k[:-2]).all()


@pytest.mark.parametrize("lab", ["D3", "D4"])
def test_cross_form_jet_with_per_row_stays_is_its_point_calls_bitwise(lab, rng):
    model = base_model("linear") if lab == "D3" else d4_model("linear")
    coeffs = forge_coeffs("cdx_pos_d_pos") if lab == "D3" else _d4_forge_coeffs("cdx_pos_d_pos")
    N = 10
    X, Y, mu = rng.uniform(-0.02, 0.02, (3, N))
    k = rng.choice([2, 12, 18, 24, 30], N)
    # an exit height that leaves the box
    Y[-1] = 3.0
    cf, J = tangency._cross_form_jet(model, coeffs.with_mu(mu), X, Y, k)

    def point(i):
        p, Ji = tangency._cross_form_jet(model, coeffs.with_mu(mu[i]), X[i], Y[i], int(k[i]))
        return p.x_k, p.y_0, p.z_k, Ji

    _assert_rows((cf.x_k, cf.y_0, cf.z_k, J), point, N)
    assert np.isnan(J[-1]).all() and np.isfinite(J[:-1]).all()


# ---------------------------------------------------------------------------
# the rows Newton on synthetic systems

# per row: a, b, floor, the seed (x, y) and a wall (lo, hi, slope, width)
# of the system x^2 = a, x y = b on |x| < 4, whose residual never drops
# below the floor and is not defined on the wall: the band of half-width
# ``width`` around the line through the seed with that slope, for x in
# (lo, hi)
NEWTON_ROWS = np.array([
    [2.0, 1.0, 0.0, 1.2, 0.5, 0.0, 0.0, 0.0, 0.0],     # converges at once
    [1.0, 0.5, 0.0, 0.1, 0.3, 0.0, 0.0, 0.0, 0.0],     # its first step leaves |x| < 4
    [2.0, 1.0, 3e-12, 1.5, 0.6, 0.0, 0.0, 0.0, 0.0],   # its residual stays at 3e-12
    [-1.0, 1.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0],    # x^2 = -1 has no root
    [3.0, -2.0, 0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0],   # converges, from the other side
    # its first step balloons the residual and every shorter one hits the
    # wall: it takes the ballooned step, then converges around the wall
    [1.0, 0.5, 0.0, 0.15, 0.3, 0.150001, 1.8, -1.069, 0.05],
    # the same, but the wall starts at the seed: an FD probe in x hits it,
    # and the one-sided difference gets past
    [1.0, 0.5, 0.0, 0.15, 0.3, 0.15, 1.8, -1.069, 0.05],
])


def _rows_system(rows, U, table=NEWTON_ROWS):
    a, b, floor, x0, y0, lo, hi, slope, width = table[rows].T
    x, y = U[:, 0], U[:, 1]
    F = np.column_stack((x * x - a, x * y - b))
    F = np.where(np.abs(F) > floor[:, None], F, floor[:, None])
    wall = (lo < x) & (x < hi) & (np.abs(y - y0 - slope * (x - x0)) < width)
    F[(np.abs(x) >= 4.0) | wall] = np.nan
    return F


def _rows_system_jac(rows, U):
    x, y = U[:, 0], U[:, 1]
    return np.stack((np.column_stack((2.0 * x, 0.0 * x)), np.column_stack((y, x))), axis=1)


ROWS_KW = dict(tol=1e-13, accept_tol=1e-11, max_iter=40)


def _rows_solve(table, exact, calls=None):
    """The lock-step solve of every row of ``table`` from its seed, the jac
    given or FD Jacobians; ``calls`` collects the rows of each residual
    call."""

    def f(arg):
        if calls is not None:
            calls.append(arg[0].tolist())
        return _rows_system(*arg, table)

    jac = (lambda arg: _rows_system_jac(*arg)) if exact else None
    seeds = table[:, 3:5]
    # one scale and tolerance row per seed
    return newton_solve(f, seeds, jac=jac, scales=np.ones((len(seeds), 2)),
                        **dict(ROWS_KW, tol=np.full((len(seeds), 2), ROWS_KW["tol"])))


def _point_solve(table, r, exact, evaluated=None, raised=None):
    """Row r of ``table`` solved on its own: its residual raises
    DomainError where the row's is NaN, and each FD probe is its own point
    call (``_per_probe``)."""

    def g(u):
        if evaluated is not None:
            evaluated.append(r)
        F = _rows_system(np.array([r]), u[None], table)[0]
        if np.isnan(F).any():
            if raised is not None:
                raised.append(r)
            raise DomainError("x left |x| < 4 or hit the wall")
        return F

    jac = (lambda u: _rows_system_jac(np.array([r]), u[None])[0]) if exact else None
    return newton_solve(_per_probe(g), table[r, 3:5], jac=jac, scales=np.ones(2), **ROWS_KW)


@pytest.mark.parametrize("exact", [True, False])
def test_newton_rows_are_their_point_solves_bitwise(exact):
    # each row of one lock-step solve is its own point solve, in float.hex,
    # with the same residual evaluations; the jac given or FD Jacobians.
    # Row 3's point solve raises (x^2 = -1): the block raises its error,
    # with its row
    with pytest.raises(ConvergenceError) as exc:
        _rows_solve(NEWTON_ROWS, exact)
    with pytest.raises(ConvergenceError) as ref:
        _point_solve(NEWTON_ROWS, 3, exact)
    assert exc.value.row == 3 and str(exc.value) == f"{ref.value} (row 3)"
    # the other rows solve
    table, calls = np.delete(NEWTON_ROWS, 3, axis=0), []
    U, res, iterations = _rows_solve(table, exact, calls)
    # a row accepted on its floor; every residual call carries only the rows
    # still iterating (FD probe blocks carry one row's 2n probes): at the
    # end only the row that accepts on the floor is left
    sizes = [len(c) for c in calls]
    assert iterations == 40
    assert sizes[0] == len(table) and min(sizes) == 1
    if exact:
        assert max(sizes[-10:]) <= 2
    row_evaluations = [r for c in calls for r in c]
    outcomes = []
    for r in range(len(table)):
        evaluated, raised = [], []
        u, res_r, it = _point_solve(table, r, exact, evaluated, raised)
        assert _hex(U[r]) == _hex(u) and _hex(res[r]) == _hex(res_r), r
        # the same residual evaluations: steps, trials and probes
        assert len(evaluated) == row_evaluations.count(r), r
        outcomes.append("floor" if it == 40 else "backtracks" if raised else "root")
    assert outcomes == ["root", "backtracks", "floor", "root", "backtracks", "backtracks"]


_wall = st.tuples(st.booleans(), st.floats(0.0, 0.5), st.floats(0.1, 3.0),
                  st.floats(-2.0, 2.0), st.floats(0.01, 0.3))
_floor = st.one_of(st.just(0.0), st.floats(1e-13, 1e-10))


@st.composite
def _rows_tables(draw):
    """1 to 6 rows of NEWTON_ROWS' form: a wall, if any, lies on one side
    of its seed, so every seed has a finite residual."""
    table = []
    for _ in range(draw(st.integers(1, 6))):
        x0 = draw(st.floats(-3.0, 3.0))
        lo = hi = slope = width = 0.0
        if draw(st.booleans()):
            above, off, length, slope, width = draw(_wall)
            lo, hi = (x0 + off, x0 + off + length) if above else (x0 - off - length, x0 - off)
        table.append([draw(st.floats(-1.0, 4.0)), draw(st.floats(-2.0, 2.0)), draw(_floor),
                      x0, draw(st.floats(-2.0, 2.0)), lo, hi, slope, width])
    return np.array(table)


def _outcome(fn):
    try:
        return fn()
    except ConvergenceError as exc:
        return exc


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(table=_rows_tables(), exact=st.booleans())
def test_newton_rows_are_their_point_solves_property(table, exact):
    # any seeds, floors and walls: every row is its own point solve in
    # float.hex, or the block raises the error of the lowest row whose
    # point solve raises (steps from near x = 0 may overflow, in both)
    with np.errstate(over="ignore", invalid="ignore"):
        refs = [_outcome(lambda r=r: _point_solve(table, r, exact)) for r in range(len(table))]
        got = _outcome(lambda: _rows_solve(table, exact))
    failing = [r for r, ref in enumerate(refs) if isinstance(ref, ConvergenceError)]
    if failing:
        r = failing[0]
        assert isinstance(got, ConvergenceError) and got.row == r
        assert str(got) == f"{refs[r]} (row {r})"
    else:
        assert not isinstance(got, ConvergenceError), got
        U, res, _ = got
        assert [_hex(U[r]) + _hex(res[r]) for r in range(len(table))] == \
            [_hex(u) + _hex(x) for u, x, _ in refs]


# per row: the shift and c of the system g(x) = 0, y^3 = c with g(x) = x -
# shift on x >= 2 and 0.5 - x on 0 <= x < 2, not defined at x < 0, and the
# seed (x, y).  From x >= 2 the first step lands at x = shift, just inside
# the domain, where g's slope is -1; a stale Jacobian from the seed points
# out of the domain on every trial, and the y rows take stale steps
KINKED_ROWS = np.array([
    [1e-7, 2.0, 3.0, 1.5],   # the stale step leaves the domain: refresh and retry
    [0.0, 1.0, 1.0, 1.2],    # x solves at once, y on stale steps
    [1e-7, 0.5, 0.3, 0.9],
    [0.0, 8.0, 1.9, 2.5],
    [1e-7, 3.0, 5.0, 1.0],   # the retry, from further out
])


def _kinked(rows, U, table=KINKED_ROWS):
    shift, c = table[rows, 0], table[rows, 1]
    x, y = U[:, 0], U[:, 1]
    F = np.column_stack((np.where(x >= 2.0, x - shift, 0.5 - x), y ** 3 - c))
    F[x < 0.0] = np.nan
    return F


def _kinked_jac(rows, U):
    x, y = U[:, 0], U[:, 1]
    return np.stack((np.column_stack((np.where(x >= 2.0, 1.0, -1.0), 0.0 * x)),
                     np.column_stack((0.0 * x, 3.0 * y * y))), axis=1)


@pytest.mark.parametrize("exact", [True, False])
def test_newton_rows_with_jac_reuse_are_their_point_solves_bitwise(exact):
    # jac_reuse=4 on an (N, n) block: each row is its own point solve, in
    # float.hex, with the same residual evaluations (steps, trials, probes);
    # rows 0 and 4 take a stale step out of the domain on all 20 trials, and
    # refresh their Jacobian to retry
    kw = dict(tol=1e-13, accept_tol=1e-11, jac_reuse=4)
    calls = []

    def f(arg):
        calls.append(arg[0].tolist())
        return _kinked(*arg)

    seeds = KINKED_ROWS[:, 2:]
    U, res, iterations = newton_solve(f, seeds, scales=np.ones((len(seeds), 2)),
                                      jac=(lambda arg: _kinked_jac(*arg)) if exact else None,
                                      **kw)
    row_evaluations = [r for c in calls for r in c]
    point_iterations = []
    for r, seed in enumerate(seeds):
        raised = []

        def g(u, r=r):
            F = _kinked(np.array([r]), u[None])[0]
            raised.append(bool(np.isnan(F).any()))
            if raised[-1]:
                raise DomainError("x < 0")
            return F

        jac = (lambda u, r=r: _kinked_jac(np.array([r]), u[None])[0]) if exact else None
        u, x, it = newton_solve(_per_probe(g), seed, scales=np.ones(2), jac=jac, **kw)
        assert _hex(U[r]) + _hex(res[r]) == _hex(u) + _hex(x), r
        assert len(raised) == row_evaluations.count(r), r
        point_iterations.append(it)
        retried = "".join("x" if b else "." for b in raised).find("x" * 20) >= 0
        assert retried == (r in (0, 4)), r
        assert abs(x) < 1e-13 and abs(u[0] - 0.5) < 1e-13, r
    assert iterations == max(point_iterations)


def test_newton_rows_backtrack_from_a_residual_whose_score_overflows():
    # rows 0 and 2 overshoot into a finite 1e300 residual, as their point
    # solves do: each halves its step without an overflow warning, and every
    # row is its point solve in float.hex
    seeds = np.array([[1.5], [0.3], [-1.5]])
    kw = dict(tol=1e-13, accept_tol=1e-11)
    U, res, _ = newton_solve(lambda arg: _ballooning(arg[1]), seeds, scales=np.ones((3, 1)),
                             **kw)
    for u, x, seed in zip(U, res, seeds):
        ref_u, ref_res, _ = newton_solve(_ballooning, seed, scales=np.ones(1), **kw)
        assert _hex(u) + _hex(x) == _hex(ref_u) + _hex(ref_res)
        assert abs(u[0]) < 1e-13


def test_newton_rows_raise_on_a_non_finite_seed_residual_as_their_point_solves():
    # an inf or NaN residual at the seed stops its solve at once, in both
    # loops, and the error carries that residual
    def f(U):
        return np.where(np.abs(U) < 2.0, U, np.where(U > 0.0, np.inf, np.nan))

    seeds = np.array([[0.5], [3.0], [-3.0]])
    kw = dict(tol=1e-13, accept_tol=1e-11)
    refs = []
    for seed in seeds[1:]:
        with pytest.raises(ConvergenceError, match="residual became non-finite") as ref:
            newton_solve(f, seed, scales=np.ones(1), **kw)
        refs.append(ref.value)
    assert refs[0].residual == np.inf and np.isnan(refs[1].residual)
    with pytest.raises(ConvergenceError) as exc:
        newton_solve(lambda arg: f(arg[1]), seeds, scales=np.ones((3, 1)), **kw)
    assert exc.value.row == 1 and str(exc.value) == f"{refs[0]} (row 1)"
    assert exc.value.residual == np.inf


def test_newton_rows_raise_a_rows_fd_jacobian_error():
    # row 1's domain is punctured around its seed's x: both FD probes in x
    # leave it, so its point solve raises fd_jacobian's error, and so does
    # the block, with the row; row 0 solves
    def residual(rows, U):
        F = U - np.array([1.0, 2.0])
        F[(rows == 1) & (np.abs(U[:, 0] - 0.5) > 0.0) & (np.abs(U[:, 0] - 0.5) < 1e-3)] = np.nan
        return F

    seeds = np.array([[0.5, 1.0], [0.5, 1.0]])
    with pytest.raises(ConvergenceError) as ref:
        newton_solve(_per_probe(lambda u: residual(np.array([1]), u[None])[0]), seeds[1],
                     scales=np.ones(2), **ROWS_KW)
    assert str(ref.value) == "fd_jacobian: every probe of variable 0 left the domain"
    with pytest.raises(ConvergenceError) as exc:
        newton_solve(lambda arg: residual(*arg), seeds, scales=np.ones((2, 2)), **ROWS_KW)
    assert exc.value.row == 1 and str(exc.value) == f"{ref.value} (row 1)"
