"""Walk through the model family: the local saddle map, its structural
identities, the global maps carrying the pair of quadratic tangencies, and
the strip geometry of the first return.

Run:  python demos/01_saddle_and_return_maps.py
"""

import numpy as np

from hetdim import check_conditions, locate_strip
from hetdim.global_map import t1_array, t1_tilde_array
from hetdim.presets import base_model, hetdim_coeffs
from hetdim.saddle import commutation_residual, identity_residuals, t0_array, t0_jac_array


def show(v):
    """A phase point, a flat (x, y, z) array, as a rounded tuple."""
    return "(" + ", ".join(f"{x:.6g}" for x in v) + ")"


model = base_model("polynomial_symmetric")
coeffs = hetdim_coeffs()

print("== local map ==")
print(f"multipliers: lambda = {model.multipliers.lam}, gamma = {model.multipliers.gamma}, "
      f"strong = {model.multipliers.strong.tolist()}")
print(f"theta = -ln|lambda|/ln|gamma| = {model.multipliers.theta:.6f}")

p = np.array([0.1, 0.2, 0.05])
img, J = t0_array(model, p), t0_jac_array(model, p)
print(f"T0{show(p)} = {show(img)}, with Jacobian diagonal {show(np.diag(J))}")

rng = np.random.default_rng(0)
xs, ys = rng.uniform(-1, 1, 1000), rng.uniform(-1, 1, 1000)
zs = rng.uniform(-1, 1, (1000, 1))
res = identity_residuals(model, xs, ys, zs)
print(f"structural identities, worst residual over 1000 points: {max(res.values()):.1e}")
pts = np.column_stack([xs, ys, zs])
print(f"symmetry commutation R T0 = T0 R: {commutation_residual(model, pts):.1e}")

print("\n== global maps ==")
m_minus = np.array([0.0, coeffs.y_minus, 0.0])
print(f"T1 maps the tangency point M- to {show(t1_array(coeffs, m_minus))}")
m_minus_t = np.array([0.0, -coeffs.y_minus, 0.0])
print(f"the twin map R T1 R sends M~- to {show(t1_tilde_array(model, coeffs, m_minus_t))}")
for t in (0.01, 0.02):
    out = t1_array(coeffs, np.array([0.0, coeffs.y_minus + t, 0.0]))
    print(f"  quadratic tangency: offset t = {t} lands at height d t^2 = {out[1]:.6f}")

print("\n== strips and stay numbers ==")
gam = model.multipliers.gamma
for k in (5, 8, 12):
    p = np.concatenate(([coeffs.x_plus, coeffs.y_minus / gam ** k], coeffs.z_plus))
    strip = locate_strip(model, coeffs, p)
    print(f"  point at height y-/gamma^{k}: stay number {strip.k}, "
          f"y-range [{strip.y_range[0]:.2e}, {strip.y_range[1]:.2e}]")

report = check_conditions(model, coeffs)
print(f"\nstanding conditions: C1 = {report.c1_ok}, C2 = {report.c2_ok}, "
      f"C3 = {report.c3_ok}, leaf gap = {report.c4_leaf_gap}")
