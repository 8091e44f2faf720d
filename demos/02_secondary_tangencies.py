"""Forge secondary homoclinic tangencies with the two admissibility
properties: straddling transverse homoclinic points and a positive product
c x+ y- for the induced global map.

Run:  python demos/02_secondary_tangencies.py
"""

from hetdim import (find_transverse_homoclinics, forge_admissible_tangency,
                    solve_secondary_tangency, verify_tangency_branch)
from hetdim.presets import base_model, forge_coeffs

model = base_model("linear")
lam, gam = model.multipliers.lam, model.multipliers.gamma

print("== mu_k asymptotics (case c d x+ < 0: mu_k ~ y- gamma^-k) ==")
coeffs = forge_coeffs("cdx_neg_d_neg")
for k in range(12, 21, 2):
    br1, br2 = solve_secondary_tangency(model, coeffs, k)
    target = coeffs.y_minus * gam ** (-k)
    value, slope, second, _ = verify_tangency_branch(model, coeffs, br1)
    print(f"  k={k}: mu_k = {br1.mu_k:.6e}, mu_k/(y- gamma^-k) - 1 = "
          f"{br1.mu_k / target - 1:+.5f}, double root: |y| = {value:.1e}, "
          f"|dy/dt| = {slope:.1e}")

print("\n== branch signs of the induced c ==")
for k in (12, 16):
    br1, br2 = solve_secondary_tangency(model, coeffs, k)
    print(f"  k={k}: c^1 = {br1.c_value:+.3e}, c^2 = {br2.c_value:+.3e} (opposite signs)")

print("\n== transverse homoclinic points ==")
br = solve_secondary_tangency(model, coeffs, 14)[0]
pts = find_transverse_homoclinics(model, coeffs, br.mu_k)
for p in pts:
    print(f"  split pair: x = {p.point[0]:+.6f}, slope = {p.slope:+.3f}")

print("\n== the full forge, one certificate per sign case ==")
for case in ("cdx_neg_d_neg", "cdx_pos_d_neg", "cdx_neg_d_pos", "cdx_pos_d_pos"):
    cert = forge_admissible_tangency(model, forge_coeffs(case), [12, 14, 16])
    w = cert.witnesses
    print(f"  {case}: stages = {cert.stages}, c x+ y- = {cert.c_product:+.3e}, "
          f"straddle {w['below'].preimage[1]:.6f} < {cert.branch.preimage[1]:.6f} "
          f"< {w['above'].preimage[1]:.6f}")
