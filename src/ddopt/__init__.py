"""Nonconforming FEM toolkit for optimal control of doubly diffusive flows.

Discretization: lowest-order Crouzeix-Raviart velocities and transported
scalars (exactly divergence-free velocity approximations), piecewise-constant
pressures and controls, upwind-stabilized convection, and a primal-dual
active set (semi-smooth Newton) loop for the box-constrained control
problem.
"""

from .mesh import Mesh, build_unit_square_mesh, refine_uniform, mesh_stats
from .spaces import (CRScalarField, CRVectorField, P0Field, BoundaryTrace,
                     cr_interpolate, boundary_interpolate, p0_project,
                     evaluate_cr)
from .assembly import ProblemParams
from .linalg import SolverError
from .state import NonlinearSettings, StateSolution, solve_state, \
    state_residual
from .adjoint import AdjointSolution, TrackingData, solve_adjoint, \
    gradient_of_reduced_cost
from .control import ControlBounds, PdasSettings, OptResult, project_control, \
    eval_cost, pdas_solve, kkt_residuals
from .verification import ManufacturedCase, manufactured_forcing, \
    error_norms, eoc, run_convergence_study

__all__ = [
    "Mesh", "build_unit_square_mesh", "refine_uniform", "mesh_stats",
    "CRScalarField", "CRVectorField", "P0Field", "BoundaryTrace",
    "cr_interpolate", "boundary_interpolate", "p0_project", "evaluate_cr",
    "ProblemParams", "SolverError",
    "NonlinearSettings", "StateSolution", "solve_state", "state_residual",
    "AdjointSolution", "TrackingData", "solve_adjoint",
    "gradient_of_reduced_cost",
    "ControlBounds", "PdasSettings", "OptResult", "project_control",
    "eval_cost", "pdas_solve", "kkt_residuals",
    "ManufacturedCase", "manufactured_forcing",
    "error_norms", "eoc", "run_convergence_study",
]
