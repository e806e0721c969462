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
the factor 1/|K|, so the pressure block of its solution is |K| xi.  In a
one-shot optimization loop the linearization comes from the state
stepper: its LU serves the next Newton step too, and may be one kept from
an earlier iteration that preconditions GMRES instead.
"""

from dataclasses import dataclass

import numpy as np

from . import assembly as asm
from .spaces import (BoundaryTrace, CRVectorField, P0Field, p0_project,
                     cr_values_on_cells)
from .state import Linearization, _Dofs

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


def _linearization_at(mesh, params, state):
    """Exact state linearization at ``state``, laid out for the adjoint
    (homogeneous data on the state's transport Dirichlet edges)."""
    y_bc = None
    if state.y_dirichlet_edges.size:
        y_bc = BoundaryTrace(mesh, state.y_dirichlet_edges,
                             np.zeros((state.y_dirichlet_edges.size, 2)))
    return Linearization(_Dofs(mesh, params, y_bc, None, state.penalty_a0),
                         state.u.dof, state.y.dof)


def _adjoint_rhs(mesh, state, data, dofs):
    """Tracking loads on the free (u, p, y) layout of ``dofs``."""
    b_u = asm.tracking_load(mesh, state.u.dof, data.u_d)[dofs.iu_free]
    b_y = asm.tracking_load(mesh, state.y.dof, data.y_d)[dofs.iy_free]
    return np.concatenate([b_u, np.zeros(mesh.num_cells), b_y])


def solve_adjoint(mesh, params, state, data, linearization=None):
    """Solve the linear discrete adjoint system at a converged state.

    Parameters
    ----------
    state : StateSolution
        Converged state; its Dirichlet edge set and penalty setting are
        reused (the adjoint variables carry homogeneous data).
    data : TrackingData
    linearization : Linearization, optional
        Exact linearization at ``state`` with the same Dirichlet edge set,
        such as ``StateStepper.linearize()`` in a one-shot loop; built
        here, on a layout of its own, when omitted.  Its LU is reused,
        transposed.

    Returns
    -------
    AdjointSolution
    """
    u = state.u.dof
    y = state.y.dof
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise ValueError("state fields contain NaN/Inf")

    lin = linearization if linearization is not None \
        else _linearization_at(mesh, params, state)
    dofs = lin.dofs
    x, _ = lin.solve(_adjoint_rhs(mesh, state, data, dofs), transpose=True)
    phi = np.zeros((mesh.num_edges, 2))
    phi[dofs.u_free_edges] = x[:dofs.nu_free].reshape(-1, 2)
    eta = np.zeros((mesh.num_edges, 2))
    eta[dofs.y_free_edges] = x[dofs.ip.stop:].reshape(-1, 2)
    area = dofs.area
    xi = x[dofs.ip] / area
    xi_raw = xi - area @ xi / area.sum()
    # The transposed skew convection pairs -b(v, (u.phi + y.eta)/2) into
    # the momentum row; div v_h is cellwise constant, so this is exactly a
    # pressure gauge.  Remove it to report the adjoint pressure itself.
    gauge = 0.5 * (_cell_mean_dot(mesh, u, phi) + _cell_mean_dot(mesh, y, eta))
    xi = xi_raw - gauge
    xi = xi - area @ xi / area.sum()
    return AdjointSolution(
        phi=CRVectorField(mesh, phi), xi=P0Field(mesh, xi),
        eta=CRVectorField(mesh, eta), xi_raw=xi_raw)


def _cell_mean_dot(mesh, a_dof, b_dof):
    """Cell averages of the dot product of two CR fields (exact for P2)."""
    q = mesh.cell_quadrature
    av = cr_values_on_cells(mesh, a_dof, q.bary)
    bv = cr_values_on_cells(mesh, b_dof, q.bary)
    return np.einsum("q,cqd,cqd->c", q.w, av, bv)


def gradient_of_reduced_cost(adjoint, control, lam):
    """Cellwise Riesz gradient of the reduced cost: lambda U + Pi0 phi.

    Parameters
    ----------
    adjoint : AdjointSolution
    control : P0Field with (nc, 2) dofs, or ndarray
    lam : float

    Returns
    -------
    P0Field
        Per-cell 2-vector g with dJ/dU[dU] = sum_K |K| g_K . dU_K.
    """
    mesh = adjoint.phi.mesh
    U = control.dof if isinstance(control, P0Field) else \
        np.asarray(control, dtype=float)
    if U.ndim == 1:
        U = np.zeros((mesh.num_cells, 2)) + U
    pphi = p0_project(adjoint.phi, mesh).dof
    return P0Field(mesh, lam * U + pphi)
