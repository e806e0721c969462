"""Discrete adjoint solver and the reduced-cost gradient.

The adjoint system is the exact transpose of the Jacobian of the discrete
state residual, frozen at the converged state.  Relative to the state
operator this transposes the divergence coupling, turns the upwind
convection into its downwind counterpart, moves the viscosity and
buoyancy couplings into the transport row, and adds the advecting-slot
linearization of the upwind fluxes (|a| differentiated to sign(a), with
sign(0) = 0).  The transpose construction makes the identity

    dJ/dU [dU] = lambda (U, dU) + (phi_h, dU)

hold to solver precision, which is what the finite-difference gradient
check requires.

The adjoint matrix is never assembled.  It is the transposed bordered
system [[J^T, e], [d^T, 0]] of the state's ``Linearization`` (d the
pressure-mean multiplier column, e the cell areas on the pressure rows),
solved with the transposed LU factors.  The continuity rows of J carry
the factor 1/|K|, so the pressure block of its solution is |K| xi; only
this module knows that, and it also forms the adjoint residual of the
KKT check.  J reads no Dirichlet values, so it is built on the state's
own layout (``StateSolution.layout``), which packs the tracking loads
and unpacks the solution.  In a one-shot optimization loop the
linearization comes from the state stepper: its LU serves the next state
step too (a Newton step solves with it, a Picard step preconditions
GMRES with it), and may be one kept from an earlier step that
preconditions GMRES instead.
"""

from dataclasses import dataclass

import numpy as np

from . import assembly as asm
from .linalg import _frees_on_failure
from .spaces import CRVectorField, P0Field, p0_project, cr_values_on_cells
from .state import Linearization

__all__ = ["TrackingData", "AdjointSolution", "solve_adjoint",
           "gradient_of_reduced_cost"]


@dataclass
class TrackingData:
    """Desired states: callables of (x, y), CR vector fields, or None for
    zero targets.

    A callable ``u_d`` returns two velocity components, ``y_d`` the desired
    (T, S) pair, in any layout ``spaces._point_values`` reads; a field is
    tracked through its dofs.
    """
    u_d: object = None
    y_d: object = None


@dataclass
class AdjointSolution:
    """Adjoint velocity, pressure, and transported pair (all zero-trace).

    ``xi`` is reported in the gauge of the continuous adjoint pressure;
    ``xi_raw`` is the pressure of the transposed bordered system itself,
    its pressure block divided by |K| and shifted to zero mean (they
    differ by the cellwise average of (u_h . phi_h + y_h . eta_h) / 2,
    which the skew-form linearization absorbs into the pressure).
    """
    phi: CRVectorField
    xi: P0Field
    eta: CRVectorField
    xi_raw: np.ndarray

    def max_divergence(self):
        from .state import max_cell_div
        return max_cell_div(self.phi.mesh, self.phi.dof)


def _adjoint_rhs(state, data):
    """Tracking loads on the bordered free-dof layout of ``state``."""
    dofs = state.layout
    mesh = dofs.mesh
    return dofs.pack(asm.tracking_load(mesh, state.u.dof, data.u_d),
                     np.zeros(mesh.num_cells),
                     asm.tracking_load(mesh, state.y.dof, data.y_d))


def _adjoint_residual(lin, state, adjoint, data):
    """Euclidean norm of the adjoint equations' residual: the transposed
    bordered system of the linearization ``lin`` at ``state``."""
    dofs = lin.dofs
    xi = adjoint.xi_raw
    # the unknown on the pressure rows is |K| xi, as in solve_adjoint
    x = dofs.pack(adjoint.phi.dof, dofs.area * xi, adjoint.eta.dof)
    r = lin.J.T @ x - _adjoint_rhs(state, data)
    return float(np.sqrt(np.linalg.norm(r) ** 2
                         + float(dofs.area @ xi) ** 2))


@_frees_on_failure
def solve_adjoint(state, data, linearization=None):
    """Solve the linear discrete adjoint system at a converged state.

    Parameters
    ----------
    state : StateSolution
        Converged state; the adjoint variables carry homogeneous data on
        the Dirichlet edges of its layout, with its jump penalty.
    data : TrackingData
    linearization : Linearization, optional
        Exact linearization at ``state`` on its layout, such as
        ``StateStepper.linearize()`` in a one-shot loop; built here on
        ``state.layout`` when omitted.  Its LU is reused, transposed.

    Returns
    -------
    AdjointSolution
    """
    u = state.u.dof
    y = state.y.dof
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise ValueError("state fields contain NaN/Inf")

    dofs = state.layout
    lin = linearization if linearization is not None \
        else Linearization(dofs, u, y)
    mesh = dofs.mesh
    x, _ = lin.solve(_adjoint_rhs(state, data), transpose=True)
    # the pressure block is |K| xi: the continuity rows of J carry 1/|K|
    phi, xi, eta = dofs.unpack(x)
    xi_raw = dofs.zero_mean(xi / dofs.area)
    # The transposed skew convection pairs -b(v, (u.phi + y.eta)/2) into
    # the momentum row; div v_h is cellwise constant, so this is exactly a
    # pressure gauge.  Remove it to report the adjoint pressure itself.
    gauge = 0.5 * (_cell_mean_dot(mesh, u, phi) + _cell_mean_dot(mesh, y, eta))
    xi = dofs.zero_mean(xi_raw - gauge)
    return AdjointSolution(
        phi=CRVectorField(mesh, phi), xi=P0Field(mesh, xi),
        eta=CRVectorField(mesh, eta), xi_raw=xi_raw)


def _cell_mean_dot(mesh, a_dof, b_dof):
    """Cell averages of the dot product of two CR fields (exact for P2)."""
    q = mesh.cell_quadrature
    av = cr_values_on_cells(mesh, a_dof)
    bv = cr_values_on_cells(mesh, b_dof)
    return np.einsum("q,cqd,cqd->c", q.w, av, bv)


def gradient_of_reduced_cost(adjoint, control, lam):
    """Cellwise Riesz gradient of the reduced cost: lambda U + Pi0 phi.

    Parameters
    ----------
    adjoint : AdjointSolution
    control : P0Field with (nc, 2) dofs
    lam : float

    Returns
    -------
    P0Field
        Per-cell 2-vector g with dJ/dU[dU] = sum_K |K| g_K . dU_K.
    """
    mesh = adjoint.phi.mesh
    pphi = p0_project(adjoint.phi, mesh).dof
    return P0Field(mesh, lam * control.dof + pphi)
