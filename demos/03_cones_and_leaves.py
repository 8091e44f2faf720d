"""Invariant cone fields along return orbits and strong-stable leaves.

Run:  python demos/03_cones_and_leaves.py
"""

import numpy as np

from hetdim import invariant_cu_subspace, invariant_s_subspace, leaf_exponent_fit
from hetdim.cones import return_chain, strip_center, strong_stable_leaf
from hetdim.numerics import sorted_eigvals
from hetdim.presets import base_model, hetdim_coeffs, leaf_coeffs, leaf_model

model = base_model("linear")
coeffs = hetdim_coeffs()

print("== invariant subspaces over one return (stay number 12) ==")
p = strip_center(model, coeffs, 12)  # a flat (x, y, z) array, like every phase point
chain = return_chain(model, coeffs, p, [12])
cu = invariant_cu_subspace(chain)
sw = invariant_s_subspace(chain)
print(f"cu: cone K = {cu.K_const}, contraction ratio = {cu.contraction_ratio:.4f}, "
      f"|eigenvalues| = {[f'{abs(e):.4e}' for e in cu.eigenvalues]}")
print(f"s:  cone K = {sw.K_const}, contraction ratio = {sw.contraction_ratio:.4f}, "
      f"|eigenvalues| = {[f'{abs(e):.4e}' for e in sw.eigenvalues]}")
M = np.eye(model.dim)
for J in chain:
    M = J @ M
print(f"full spectrum (dense): {[f'{abs(e):.4e}' for e in sorted_eigvals(M)]}")

print("\n== a strong-stable leaf (graph over z) ==")
leaf = strong_stable_leaf(model, coeffs, p, 12, n_samples=5)
for i in range(len(leaf.z_points)):
    print(f"  z = {leaf.z_points[i, 0]:+.3f}: x = {leaf.xy_points[i, 0]:.8f}, "
          f"y = {leaf.xy_points[i, 1]:.3e}")
print(f"slope bounds: max|phi1| = {leaf.phi1_max:.2e}, max|phi2| = {leaf.phi2_max:.2e}")

print("\n== slope decay exponents across a k-sweep (polynomial tier) ==")
lmodel, lcoeffs = leaf_model(), leaf_coeffs()
e1, e2, _ = leaf_exponent_fit(lmodel, lcoeffs, list(range(8, 21, 2)))
mult = lmodel.multipliers
print(f"fitted d(log max|phi1|)/dk = {e1:.5f} vs ln(lambda0/|lambda|) = "
      f"{np.log(mult.lambda0 / abs(mult.lam)):.5f}")
print(f"fitted d(log max|phi2|)/dk = {e2:.5f} vs ln(|lambda_hat|/|gamma|) = "
      f"{np.log(abs(mult.lambda_hat) / abs(mult.gamma)):.5f}")
