"""Box-constrained control of the coupled flow by a primal-dual active set
strategy (semi-smooth Newton on the projection fixed-point equation).

Each outer iteration is one linearization of the whole optimality system:
it advances the state by one nonlinear step, solves the adjoint at the new
iterate, classifies every cell/component against the box through the
projection formula

    U = max(Ua, min(Ub, -(Pi0 phi) / lambda)),

assigns the bound on active cells and the projection value on inactive
ones, and stops when the active sets repeat, the control update falls
below the tolerance and the state increment meets the state tolerance.

One layout (``_Dofs``) serves every state step and every adjoint of the
loop, and the final state carries it to ``kkt_residuals``, which takes
the state residual from ``state`` and the adjoint residual from
``adjoint``; this module indexes no free dofs.  The adjoint of
iteration k, the transposed bordered system of the stepper's Newton
linearization at the iterate, is solved with its LU transposed; the state
step of iteration k + 1 consumes that linearization: a Newton step solves
with it, a Picard step solves its own operator by GMRES preconditioned
with its LU.  While the increments contract, later adjoints and steps lag
the LU of the newest step, as GMRES preconditioner, until GMRES declines
and a new operator is factored (see ``state``).  Callable tracking
targets are sampled once, on the cell rule of the cost and the adjoint
loads.
"""

from dataclasses import dataclass

import numpy as np

from . import assembly as asm
from .adjoint import TrackingData, _adjoint_residual, solve_adjoint
from .linalg import SolverError, _frees_on_failure
from .norms import l2_p0
from .spaces import P0Field, p0_project
from .state import Linearization, StateStepper, _residual_norms

__all__ = ["ControlBounds", "PdasSettings", "OptResult", "project_control",
           "eval_cost", "pdas_solve", "kkt_residuals",
           "PdasNonconvergence"]

# the outer iterations pdas_solve takes before it raises PdasNonconvergence
_MAX_ITERATIONS = 50


class PdasNonconvergence(SolverError):
    """Active sets failed to settle; carries the control changes."""


@dataclass
class ControlBounds:
    """Componentwise box constraints, Ua_j < Ub_j; an infinite bound
    leaves its component unbounded on that side, a NaN is rejected."""
    lower: object
    upper: object

    def __post_init__(self):
        self.lower = np.broadcast_to(
            np.asarray(self.lower, dtype=float), (2,)).copy()
        self.upper = np.broadcast_to(
            np.asarray(self.upper, dtype=float), (2,)).copy()
        if not np.all(self.lower < self.upper):
            raise ValueError("bounds must satisfy Ua_j < Ub_j "
                             "componentwise, without NaN")


@dataclass
class PdasSettings:
    """Outer-loop controls.

    ``tol_mode`` selects the absolute or relative reading of ``tol`` for
    the control-change criterion; ``state_tol`` is the state increment
    tolerance (as ``NonlinearSettings.tol``) that each outer iteration's
    state step must also meet.
    """
    lam: float = 1.0
    tol: float = 1e-6
    tol_mode: str = "absolute"
    state_tol: float = 1e-10

    def __post_init__(self):
        if self.tol_mode not in ("absolute", "relative"):
            raise ValueError("tol_mode must be 'absolute' or 'relative'")
        if not 0 < self.lam < np.inf:
            raise ValueError("lambda must be positive and finite")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if not 0 < self.state_tol < np.inf:
            raise ValueError("state_tol must be positive and finite")


@dataclass
class OptResult:
    """Converged KKT triple with iteration diagnostics and the tracking
    data, bounds and settings it was solved for."""
    control: P0Field
    state: object
    adjoint: object
    iterations: int
    cost_history: list
    active_set_history: list
    control_changes: list
    data: object
    bounds: ControlBounds
    settings: PdasSettings


def project_control(v_cells, lam, bounds):
    """Componentwise projection max(Ua, min(Ub, -v/lambda)).

    Parameters
    ----------
    v_cells : ndarray (nc, 2)
        Cell averages of the adjoint velocity (Pi0 phi).
    """
    v = np.asarray(v_cells, dtype=float)
    return np.clip(-v / lam, bounds.lower, bounds.upper)


def _classify(v_cells, lam, bounds):
    """Active-set labels: -1 lower, 0 inactive, +1 upper (ties inactive)."""
    q = -np.asarray(v_cells, dtype=float) / lam
    labels = np.zeros(q.shape, dtype=np.int8)
    labels[q > bounds.upper] = 1
    labels[q < bounds.lower] = -1
    return labels


def eval_cost(state, control, data, lam):
    """Tracking-plus-regularization cost of a state/control pair.

    J = 1/2 ||u - u_d||^2 + 1/2 ||y - y_d||^2 + lambda/2 ||U||^2, all by
    the same degree-4 quadrature used for the adjoint right-hand side.
    """
    mesh = state.u.mesh
    U = control.dof if isinstance(control, P0Field) \
        else np.asarray(control, dtype=float)
    J = asm.tracking_cost(mesh, state.u.dof, data.u_d)
    J += asm.tracking_cost(mesh, state.y.dof, data.y_d)
    J += 0.5 * lam * l2_p0(mesh, U) ** 2
    return float(J)


@_frees_on_failure
def pdas_solve(mesh, params, y_bc, data, bounds, settings=None, u_bc=None,
               forcing_mom=None, forcing_tr=None, penalty_a0=0.0):
    """Solve the discrete optimality system by the active-set outer loop.

    Every outer iteration performs one linearization step of the state
    system, one adjoint solve at the new iterate, and one active-set/
    control update, so the iteration count reflects the semi-smooth Newton
    resolution of the whole optimality system.  The state stepper's layout
    and LUs serve every adjoint.  Termination requires the active sets to
    repeat, the control change to drop below the tolerance, and the state
    increment to meet ``settings.state_tol``.

    Parameters
    ----------
    y_bc : BoundaryTrace or None
        Transport Dirichlet data for the state (the adjoint gets zeros on
        the same edges).
    data : TrackingData
    bounds : ControlBounds
    settings : PdasSettings

    Returns
    -------
    OptResult

    Raises
    ------
    PdasNonconvergence
        When ``_MAX_ITERATIONS`` outer iterations do not settle the
        active sets.
    SingularMatrixError, LinearSolveError
        When a state step or an adjoint fails to solve; the error carries
        the state increments of the steps before it.
    """
    settings = settings or PdasSettings()
    lam = settings.lam
    nc = mesh.num_cells

    U = np.clip(np.zeros((nc, 2)), bounds.lower, bounds.upper)
    labels_prev = None
    cost_history = []
    set_history = []
    changes = []
    stepper = StateStepper(mesh, params, y_bc, control=U, u_bc=u_bc,
                           forcing_mom=forcing_mom, forcing_tr=forcing_tr,
                           penalty_a0=penalty_a0)
    # callable targets are sampled once, on the cost's cell rule
    sampled = TrackingData(asm._sampled_target(mesh, data.u_d),
                           asm._sampled_target(mesh, data.y_d))

    for it in range(1, _MAX_ITERATIONS + 1):
        stepper.set_control(U)
        state_incr = stepper.step()
        state = stepper.solution()
        # passed inline: held here, its LU would outlive the next step's
        # decision to factor, and two LUs would be alive at once
        with stepper.keeping_increments():
            adjoint = solve_adjoint(state, sampled,
                                    linearization=stepper.linearize())
        pphi = p0_project(adjoint.phi, mesh).dof
        labels = _classify(pphi, lam, bounds)
        U_new = project_control(pphi, lam, bounds)

        cost_history.append(eval_cost(state, U_new, sampled, lam))
        set_history.append(labels)
        change = l2_p0(mesh, U_new - U)
        if settings.tol_mode == "relative":
            change_measure = change / max(l2_p0(mesh, U_new), 1e-300)
        else:
            change_measure = change
        changes.append(change_measure)

        converged = labels_prev is not None \
            and np.array_equal(labels, labels_prev) \
            and change_measure <= settings.tol \
            and stepper.converged(state_incr, settings.state_tol)
        U = U_new
        labels_prev = labels
        if converged:
            break
    else:
        raise PdasNonconvergence(
            "active sets did not settle in {} iterations".format(
                _MAX_ITERATIONS), changes)

    return OptResult(control=P0Field(mesh, U), state=state, adjoint=adjoint,
                     iterations=it, cost_history=cost_history,
                     active_set_history=set_history,
                     control_changes=changes, data=data, bounds=bounds,
                     settings=settings)


def kkt_residuals(result):
    """Residuals of the three optimality-system blocks at an OptResult.

    ``vi_res`` is the max-norm violation of the projection fixed point
    cellwise; state and adjoint residuals are Euclidean norms of the
    assembled equation residuals.  Both come from one (unfactored)
    linearization at the final state, on the layout it was solved on.
    """
    state = result.state
    lin = Linearization(state.layout, state.u.dof, state.y.dof)
    st = _residual_norms(lin, state.p.dof, result.control)
    state_res = float(np.sqrt(st["momentum"] ** 2 + st["continuity"] ** 2
                              + st["transport"] ** 2))
    adjoint_res = _adjoint_residual(lin, state, result.adjoint, result.data)
    return {"state_res": state_res, "adjoint_res": adjoint_res,
            "vi_res": _vi_residual(result)}


def _vi_residual(result):
    """Max-norm violation of the projection fixed point at an OptResult."""
    pphi = p0_project(result.adjoint.phi, result.control.mesh).dof
    fixed_point = project_control(pphi, result.settings.lam, result.bounds)
    return float(np.abs(result.control.dof - fixed_point).max())
