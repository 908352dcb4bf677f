"""Walk through the mean-field side of the toolkit: the free-energy branches,
the Maxwell construction, the coexisting minimizers, and the one-solve phase
diagram.

Run:  python3 demos/phase_diagram.py
"""

import numpy as np

from pottsgas import meanfield as mf

S = 3

print(f"=== mean-field coexistence for S = {S} species ===\n")

x_s = mf.coexistence_threshold(S)
z_s = mf.order_parameter_floor(S)
print(f"ordering threshold x_S = {x_s:.6f} (= 4 log 2 for S = 3)")
print(f"order-parameter floor z_S = {z_s:.4f}, and R(z_S) = {mf.ratio_curve(z_s, S):.6f}")

left, right = mf.one_sided_derivatives(x_s, S)
print(f"slope jump at the threshold: {left - right:.6f} "
      f"(closed form {mf.slope_gap(S):.6f})\n")

bp = mf.convexity_breakpoints(S)
print(f"the ordered branch is concave up to x* = {bp[1]:.5f} (z* = {bp[0]:.5f}),")
print("so the common tangent is built on the regularized branch.\n")

sol = mf.common_tangent(S)
print(f"coexistence interval: [{sol.x_minus:.6f}, {sol.x_plus:.6f}]")
print(f"transition chemical potential lambda_beta = {sol.lambda_beta:.6f}")
print(f"smallest Hessian eigenvalue over the {S + 1} minimizers: {sol.kappa_star:.5f}\n")

print("minimizers (one row per phase; the last is the uniform one):")
for k, rho in enumerate(sol.minimizers, start=1):
    print(f"  phase {k}: {np.array2string(rho, precision=5)}")

resid = max(
    float(np.max(np.abs(rho - np.exp(-(np.sum(rho) - rho - sol.lambda_beta)))))
    for rho in sol.minimizers
)
print(f"\nself-consistency residual of the minimizers: {resid:.2e}")

# the hull oracle recovers the same tangent without any calculus
xm, xp, lam = mf.convex_envelope_oracle(S, dx=1e-4)
print(f"brute-force hull oracle: [{xm:.5f}, {xp:.5f}], slope {lam:.5f}")

# one reference solve serves every temperature
half = mf.rescale(sol, 0.5)
print(f"\nrescaled to beta = 0.5: interval [{half.x_minus:.5f}, {half.x_plus:.5f}], "
      f"lambda = {half.lambda_beta:.5f}")

table = mf.phase_diagram_curve(S, (0.25, 4.0), 16)
with open("phase_diagram_demo.csv", "w") as fh:
    mf.write_phase_diagram_csv(fh, table)
print(f"\nwrote the (beta, lambda_beta) coexistence curve -> phase_diagram_demo.csv "
      f"({len(table)} rows)")

s_star, s_bar = mf.critical_spin_counts()
print(f"\ncritical spin counts: S* = {s_star:.2f} (deepest concavity defect), "
      f"S_bar = {s_bar:.2f} (last concave species count)")
