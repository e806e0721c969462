"""Forward solve of the coupled flow-transport system.

Solves the doubly diffusive porous-cavity flow (hot/solutal left wall,
cold right wall, adiabatic horizontal walls) without any control and
prints the solve diagnostics, including the exact cellwise
divergence-freedom of the velocity.
"""

import numpy as np

from ddopt import build_unit_square_mesh, solve_state, NonlinearSettings
from ddopt.cli import RunConfig, derive_cavity_coefficients, \
    cavity_boundary_trace, export_fields
from ddopt.spaces import P0Field

cfg = RunConfig({"n": 32, "da": 1e-3, "ra": 100})
params, groups = derive_cavity_coefficients(cfg)
print("cavity coefficients: Gr_T = {:.4g}, Gr_C = {:.4g}, Sc = {:.3g}"
      .format(groups["gr_t"], groups["gr_c"], groups["sc"]))
print("diffusion matrix D =\n", np.round(params.diffusion, 4))

mesh = build_unit_square_mesh(cfg.n)
y_bc = cavity_boundary_trace(mesh)
solution = solve_state(mesh, params, y_bc,
                       settings=NonlinearSettings(tol=1e-10))

# a 32x32 solve starts from the 16x16 solution: its steps are all Newton
print("\nnonlinear iterations:", solution.iterations,
      "(Newton, after a start from the 16x16 solution)" if solution.nested
      else "(Picard and Newton)")
print("increment history:",
      " ".join("{:.1e}".format(v) for v in solution.increments))
print("max |u| = {:.2f}".format(np.abs(solution.u.dof).max()))
print("temperature range: [{:.3f}, {:.3f}]".format(
    solution.y.dof[:, 0].min(), solution.y.dof[:, 0].max()))
print("max cellwise |div u| = {:.2e}  (exactly divergence-free)"
      .format(solution.max_divergence()))

bundle = {"mesh": mesh, "u": solution.u, "p": solution.p,
          "y": solution.y,
          "U": P0Field(mesh, np.zeros((mesh.num_cells, 2)))}
export_fields(bundle, "cavity_forward.csv", "csv")
print("\nfields written to cavity_forward.csv (x,y,u1,u2,p,T,S,U1,U2)")
