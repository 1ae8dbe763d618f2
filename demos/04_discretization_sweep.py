"""Numerical check of the discretization gate over a covering sweep.

The frame discretization theorem needs gamma * (rho + max(rho * C_w,
rho + gamma)) < 1, where rho measures kernel integrability, gamma the
kernel's oscillation over covering boxes, and C_w the weight variation.
gamma shrinks with the covering density eps, so refining the covering
eventually satisfies the gate.
"""

import json
import time

from alphamod import (TruncationConfig, admissibility_scan,
                      diagnostics_report, gaussian_window)

w = gaussian_window()
alpha, s = 0.5, 0.0
tab = admissibility_scan(w, alpha, xi_max=60, n_nodes=601)

trunc = TruncationConfig(x_max=6.0, omega_max=16.0, n_probes=5,
                         probe_omega_max=4.0, z_density=5)
t0 = time.time()
report = diagnostics_report(w, alpha, s, tab, [0.5, 0.25, 0.125],
                            trunc=trunc)
print(f"sweep finished in {time.time() - t0:.0f}s, "
      f"rho = {report['rho']:.4f} "
      f"(converged: {report['truncation']['converged']})\n")

print(f"{'eps':>6} {'gamma1':>9} {'gamma2':>9} {'gamma':>9} "
      f"{'C_w':>7} {'lhs':>9}  verdict")
for i, eps in enumerate(report["eps_list"]):
    print(f"{eps:6.3f} {report['gamma1'][i]:9.4f} "
          f"{report['gamma2'][i]:9.4f} {report['gamma'][i]:9.4f} "
          f"{report['C_w'][i]:7.4f} {report['lhs'][i]:9.4f}  "
          f"{'pass' if report['pass'][i] else 'not yet below 1'}")

with open("diagnostics_sweep.json", "w") as fh:
    json.dump(report, fh, indent=2, default=float)
print("\nfull report written to diagnostics_sweep.json")
