"""Nonlinear state solver for the coupled flow-transport scheme.

The discrete state system is advanced by frozen-coefficient (Picard) steps
that switch to exact-Jacobian Newton steps once the iterate is in the
attraction basin: each step solves one monolithic linear saddle-point
system with the viscosity at the current temperature, the advecting
velocity in both upwind convection blocks, the buoyancy implicit, and the
pressure mean fixed by a scalar Lagrange multiplier (handled as a
bordered system to keep the factorization sparse).  The buoyancy is
affine, F(y) = F_y y + F0, the only kind the model has: its block
kron(M, F_y) never changes and F0 is a constant load.  Dirichlet dofs
(velocity on the whole boundary, transported scalars on the Dirichlet
part) are eliminated and carried by a discrete lifting.

Blocks that do not depend on the iterate are built once per layout
(``_Dofs``): the divergence, the cross-diffusion, the jump penalty and the
affine buoyancy coupling.  A ``Linearization`` builds the rest once per
iterate: the Brinkman block (nu follows T), one upwind matrix N(u) shared
by the momentum and transport operators, and the Newton couplings.  Its
``residual`` forms the momentum and transport residuals of the Newton
step, of ``state_residual`` and of the KKT check alike.

Who owns what of the assembly: the mesh owns the index patterns
(``Mesh.scatter_plan``: where each cell and facet value lands and in which
order duplicates add), the layout owns the composition of J
(``_Dofs.jacobian``: where each block lands in the CSC arrays of J).  A
step only computes local values, sums them onto the mesh's vector
pattern, adds the blocks there and gathers A_mom, A_tr and J; no COO
conversion, sort or ``bmat`` runs per step, and every matrix is bit for
bit the one the sparse sums and ``bmat`` of the sliced blocks would give.

Each step assembles one ``Linearization`` of the system at the iterate.
A one-shot optimization loop takes the Newton one from ``linearize``, on
the stepper's own layout, and solves its adjoint, the transposed bordered
system, with the same LU transposed; the next Newton step consumes it, a
Picard step drops it before assembling its own operator.

After a Newton step the stepper keeps the LU (BorderedSolver) that served
it, new or lagged.  While the last increment is at most a fifth of the
one before it (the gate), the next linearization takes that LU over: each
of its solves, transposed or not, is first tried by GMRES preconditioned
with it, to the direct solve's residual, and J is factored only when
GMRES declines.  When the gate is shut, the kept LU is dropped before the
next Jacobian is assembled, so at most one LU is alive and none waits
through an assembly it will not serve.

``StateStepper`` exposes single steps so the optimization loop can
interleave state linearizations with active-set updates; ``solve_state``
drives the stepper to the increment tolerance.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from . import assembly as asm
from .linalg import BorderedSolver, SolverError, _frees_on_failure
from .norms import broken_velocity_norm, broken_transport_norm
from .spaces import CRVectorField, P0Field, cr_cell_gradients

# Lagged Newton LU: once the increment contracted by at least
# _LAG_CONTRACTION (the factor of the Picard->Newton switch), the solves of
# the next linearization are first tried by GMRES preconditioned with the
# kept LU of an earlier Newton step, with at most _LAG_MAXITER iterations
# (one costs about 2% of a factorization at 32 x 32).
_LAG_CONTRACTION = 0.2
_LAG_MAXITER = 25

__all__ = ["NonlinearSettings", "StateSolution", "NonconvergenceError",
           "DivergedError", "Linearization", "StateStepper", "solve_state",
           "state_residual", "max_cell_div"]


class NonconvergenceError(SolverError):
    """The nonlinear iteration ran out of steps; carries the increments."""

    def __init__(self, message, increments):
        super().__init__(message)
        self.increments = list(increments)


class DivergedError(SolverError):
    """A NaN/Inf appeared in an iterate."""


@dataclass
class NonlinearSettings:
    """Nonlinear-iteration controls.

    ``tol`` is a dimensionless increment tolerance (measured relative to
    1 + the broken norms of the iterate).
    """
    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class StateSolution:
    """Converged state (u, p, y) plus solve metadata.

    ``y_dirichlet_edges`` records which boundary edges carried transported
    Dirichlet data; the adjoint solver reuses the set with zero values.
    """
    u: CRVectorField
    p: P0Field
    y: CRVectorField
    iterations: int
    increments: list
    y_dirichlet_edges: np.ndarray
    penalty_a0: float = 0.0

    def max_divergence(self):
        return max_cell_div(self.u.mesh, self.u.dof)


def max_cell_div(mesh, u_dof):
    """Max over cells of |div u_h| (the divergence is cellwise constant)."""
    g = cr_cell_gradients(mesh, u_dof)
    return float(np.abs(g[:, 0, 0] + g[:, 1, 1]).max())


def _balance_boundary_flux(mesh, values):
    """Remove the net normal flux from prescribed velocity edge averages.

    The cellwise-exact divergence constraint is only attainable when the
    discrete boundary flux sum_e |e| u_e . n_e vanishes; edge quadrature of
    non-polynomial data leaves an O(h^4) defect which is subtracted here as
    a uniform normal correction.
    """
    edges = mesh.boundary_edges
    n = mesh.edge_normal[edges]
    h = mesh.h_edge[edges]
    flux = float(np.sum(h * np.sum(values * n, axis=1)))
    perimeter = float(np.sum(h))
    return values - (flux / perimeter) * n


class _Dofs:
    """Free/fixed dofs, the bordered (u, p, y) free-dof layout, the
    iterate-independent blocks and where the blocks land in J
    (``jacobian``).  ``reaction``, ``cross``, ``penalty`` (the jump
    penalty) and ``MF_entries`` are (entry numbers, values) on the mesh's
    vector pattern; ``MF`` is the buoyancy coupling matrix kron(M, F_y).
    ``penalty`` is None when absent."""

    def __init__(self, mesh, params, y_bc, u_bc, penalty_a0=0.0):
        ne = mesh.num_edges
        self.mesh = mesh
        self.params = params
        bdry = mesh.boundary_edges

        self.u_fixed_edges = bdry
        self.u_free_edges = mesh.interior_edges
        u_values = np.zeros((bdry.size, 2))
        if u_bc is not None:
            loc = {int(e): i for i, e in enumerate(bdry)}
            rows = np.array([loc[int(e)] for e in u_bc.edges], dtype=int)
            u_values[rows] = np.atleast_2d(u_bc.values)
        self.u_fixed_values = _balance_boundary_flux(mesh, u_values)
        self.iu_free = asm.vector_indices(self.u_free_edges)
        self.iu_fixed = asm.vector_indices(self.u_fixed_edges)

        if y_bc is None:
            self.y_fixed_edges = np.zeros(0, dtype=np.int64)
            self.y_fixed_values = np.zeros((0, 2))
        else:
            self.y_fixed_edges = y_bc.edges
            self.y_fixed_values = np.atleast_2d(y_bc.values)
            if self.y_fixed_values.shape != (y_bc.edges.size, 2):
                raise ValueError("transport Dirichlet data needs two "
                                 "components per edge")
        mask = np.ones(ne, dtype=bool)
        mask[self.y_fixed_edges] = False
        self.y_free_edges = np.flatnonzero(mask)
        self.iy_free = asm.vector_indices(self.y_free_edges)
        self.iy_fixed = asm.vector_indices(self.y_fixed_edges)

        # the constant terms of A_mom, A_tr and K_uy as entries of the
        # mesh's vector pattern: the reaction, the cross-diffusion, the
        # jump penalty and the affine buoyancy coupling
        V = mesh.scatter_plan.vector
        self.B = asm.assemble_divergence(mesh)
        self.reaction = asm._reaction_entries(mesh, params.sigma)
        self.cross = V.entries(asm.assemble_cross_diffusion(
            mesh, params.diffusion))
        self.penalty = V.entries(asm.assemble_jump_penalty(
            mesh, penalty_a0, params.nu2)) if penalty_a0 > 0 else None
        self.MF = asm.assemble_buoyancy_coupling(mesh, params)
        self.MF_entries = V.entries(self.MF)
        self.area = asm.assemble_mean_constraint(mesh)
        self.B_free = self.B[:, self.iu_free]
        # scale only the continuity rows by 1/|K| so the solver residual
        # bounds the cellwise divergence directly; the pressure-gradient
        # block in the momentum row keeps the unscaled transpose
        self.B_scaled = sp.diags(1.0 / self.area) @ self.B_free
        self.nu_free = self.iu_free.size
        self.ip = slice(self.nu_free, self.nu_free + mesh.num_cells)
        n_all = self.ip.stop + self.iy_free.size
        self.d_col = np.zeros(n_all)
        self.d_col[self.ip] = 1.0
        self.e_row = np.zeros(n_all)
        self.e_row[self.ip] = self.area
        self.jacobian = _JacobianPlan(self)

    def full_u(self, u_free_flat):
        u = np.zeros((self.mesh.num_edges, 2))
        u[self.u_free_edges] = u_free_flat.reshape(-1, 2)
        u[self.u_fixed_edges] = self.u_fixed_values
        return u

    def full_y(self, y_free_flat):
        y = np.zeros((self.mesh.num_edges, 2))
        y[self.y_free_edges] = y_free_flat.reshape(-1, 2)
        if self.y_fixed_edges.size:
            y[self.y_fixed_edges] = self.y_fixed_values
        return y


def _sub(A, rows, cols):
    return A[rows][:, cols]


class _JacobianPlan:
    """Where each block of the bordered free-dof core

        J = [[A_uu, B_free^T, K_uy], [B_scaled, 0, 0], [K_yu, 0, A_tr]]

    lands in the CSC arrays of J, for one layout.  The iterate-dependent
    blocks come as values on the mesh's vector pattern, of which J holds
    the entries with free rows and columns that the block can store; the
    constant blocks keep their own structure.  ``src`` numbers, for every
    such entry of J in CSC order, its source in the four value arrays and
    the constant entries laid end to end.  ``assemble`` keeps the entries
    each block's mask selects, so J is, to the bit, what ``sp.bmat`` of
    the sliced blocks gives.
    """

    def __init__(self, dofs):
        plan = dofs.mesh.scatter_plan
        V = plan.vector
        nu, nc = dofs.nu_free, dofs.mesh.num_cells
        self.n = n = nu + nc + dofs.iy_free.size
        ju = np.full(V.shape[0], -1, dtype=np.int32)
        ju[dofs.iu_free] = np.arange(nu)
        jy = np.full(V.shape[0], -1, dtype=np.int32)
        jy[dofs.iy_free] = np.arange(nu + nc, n)
        # the entries each block may store: A_uu, K_uy, K_yu, A_tr
        lifted = plan.lift(np.ones(plan.scalar.nnz, dtype=bool))
        held = (lifted | V.mask(dofs.reaction[0]) | plan.advecting.stored,
                plan.coupling.stored | V.mask(dofs.MF_entries[0]),
                plan.advecting.stored,
                lifted | V.mask(dofs.cross[0]))
        vrows = V.rows
        rows, cols, src = [], [], []
        for b, ((jr, jc), may) in enumerate(zip(
                ((ju, ju), (ju, jy), (jy, ju), (jy, jy)), held)):
            r, c = jr[vrows], jc[V.indices]
            at = np.flatnonzero(may & (r >= 0) & (c >= 0)).astype(np.int32)
            rows.append(r[at])
            cols.append(c[at])
            src.append(b * V.nnz + at)
        BT, BS = dofs.B_free.T.tocoo(), dofs.B_scaled.tocoo()
        rows += [BT.row, BS.row + nu]
        cols += [BT.col + nu, BS.col]
        src.append(4 * V.nnz + np.arange(BT.nnz + BS.nnz, dtype=np.int32))
        self.constant = np.concatenate([BT.data, BS.data])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        order = np.argsort(cols * np.int64(n) + rows)  # by column, then row
        self.src = np.concatenate(src)[order]
        self.rows = rows[order]
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])
        for a in (self.src, self.rows, self.indptr, self.constant):
            a.setflags(write=False)

    def assemble(self, blocks):
        """J from the (values, keep) pairs of A_uu, K_uy, K_yu and A_tr on
        the vector pattern (None: the block is absent)."""
        nv = blocks[0][0].size
        absent = (np.zeros(nv), np.zeros(nv, dtype=bool))
        blocks = [absent if b is None else b for b in blocks]
        values = np.concatenate([b[0] for b in blocks] + [self.constant])
        keep = np.concatenate([b[1] for b in blocks]
                              + [np.ones(self.constant.size, dtype=bool)])
        values, keep = values[self.src], keep[self.src]
        start = np.zeros(keep.size + 1, dtype=np.int32)
        np.cumsum(keep, out=start[1:])
        return sp.csc_matrix((values[keep], self.rows[keep],
                              start[self.indptr]), shape=(self.n, self.n))


class Linearization:
    """The state system linearized at an iterate (u, y).

    A_mom (Brinkman + N(u) + penalty) and A_tr (cross-diffusion + N(u))
    share one set of upwind values.  The bordered free-dof core ``J``
    (exact Jacobian with ``newton``, else the Picard operator) is gathered
    here by the layout's ``jacobian`` plan and factored on the first
    solve that needs it, so callers assemble what else they need first.
    Its LU (``solver``) solves the bordered system of J and, transposed,
    the adjoint's transposed bordered system.
    Given the ``kept`` LU of an earlier linearization, each solve first
    tries GMRES preconditioned with it; when GMRES first declines, J is
    factored.
    """

    def __init__(self, dofs, u, y, newton=True, kept=None):
        mesh, params = dofs.mesh, dofs.params
        plan = mesh.scatter_plan
        self.dofs, self.u, self.y = dofs, u, y
        # every block as values on the vector pattern; a sum keeps only
        # its nonzero entries, as a sum of sparse matrices does
        N = plan.lift(asm._upwind_values(mesh, u))
        A_mom = asm._brinkman_values(mesh, y[:, 0], params, dofs.reaction)
        A_mom += N
        if dofs.penalty is not None:
            A_mom[dofs.penalty[0]] += dofs.penalty[1]
        A_tr = N
        A_tr[dofs.cross[0]] += dofs.cross[1]
        self.A_mom = plan.vector.csr(A_mom, A_mom != 0)
        self.A_tr = plan.vector.csr(A_tr, A_tr != 0)
        if newton:
            A_mom += plan.advecting.into(asm._advecting_local(mesh, u, u))
            K_uy = plan.coupling.into(asm._viscosity_local(mesh, u, y[:, 0],
                                                           params))
            K_uy[dofs.MF_entries[0]] -= dofs.MF_entries[1]
            # the raw linearization keeps its stored zeros
            K_yu = (plan.advecting.into(asm._advecting_local(mesh, u, y)),
                    plan.advecting.stored)
            blocks = ((A_mom, A_mom != 0), (K_uy, K_uy != 0), K_yu)
        else:
            at, MF = dofs.MF_entries  # -MF keeps its stored entries
            K_uy = (np.zeros(A_mom.size), plan.vector.mask(at))
            K_uy[0][at] = -MF
            blocks = ((A_mom, A_mom != 0), K_uy, None)
        self.J = dofs.jacobian.assemble(blocks + ((A_tr, A_tr != 0),))
        self.solver, self._lagged = kept, kept is not None

    def solve(self, rhs, beta=0.0, transpose=False):
        """Bordered solve with J, or the transposed bordered solve if
        ``transpose``."""
        if self._lagged:
            out = self.solver.krylov_solve(self.J, rhs, _LAG_MAXITER,
                                           beta=beta, transpose=transpose)
            if out is not None:
                return out
            # dropped before the factorization, so one LU is alive
            self.solver, self._lagged = None, False
        if self.solver is None:
            d = self.dofs
            self.solver = BorderedSolver(self.J, d.d_col, d.e_row,
                                         pin_row=d.nu_free,
                                         pin_col=d.nu_free)
        return self.solver.solve(rhs, beta=beta, transpose=transpose)

    def residual(self, p, b_mom, b_tr):
        """Full-length momentum and transport residuals at (u, p, y); the
        loads ``b_mom`` are subtracted in turn, then the buoyancy MF y."""
        dofs = self.dofs
        r_mom = self.A_mom @ self.u.reshape(-1) + dofs.B.T @ p
        for b in b_mom:
            r_mom = r_mom - b
        r_mom = r_mom - dofs.MF @ self.y.reshape(-1)
        return r_mom, self.A_tr @ self.y.reshape(-1) - b_tr


def _loads(mesh, params, forcing_mom, forcing_tr):
    """Momentum load (forcing, plus the buoyancy's constant F0) and
    transport load (forcing), both independent of the iterate and the
    control."""
    b_mom = np.zeros(2 * mesh.num_edges)
    if forcing_mom is not None:
        b_mom += asm.assemble_load(mesh, forcing_mom)
    if params.F0 is not None and np.any(params.F0 != 0.0):
        b_mom += asm.assemble_p0_load(
            mesh, np.tile(params.F0, (mesh.num_cells, 1)))
    b_tr = np.zeros(2 * mesh.num_edges) if forcing_tr is None \
        else asm.assemble_load(mesh, forcing_tr)
    return b_mom, b_tr


def _control_load(mesh, control):
    if control is None:
        return np.zeros(2 * mesh.num_edges)
    dof = control.dof if isinstance(control, P0Field) else np.asarray(control)
    return asm.assemble_p0_load(mesh, dof)


def _sigma_scale(params):
    """Scalar weight of the L2 part of the velocity norm."""
    s = params.sigma
    return float(s) if np.ndim(s) == 0 else float(np.abs(s).max())


class StateStepper:
    """One nonlinear step at a time on the discrete state system.

    The stepper starts in Picard mode (frozen coefficients) and switches
    to Newton once the increment has dropped enough (or after a few
    steps).  Newton steps and the linearizations of ``linearize`` reuse a
    kept LU through GMRES while the increments contract fast (see the
    module docstring).  The arguments are those of ``solve_state``.
    """

    def __init__(self, mesh, params, y_bc, control=None, settings=None,
                 u_bc=None, forcing_mom=None, forcing_tr=None,
                 penalty_a0=0.0):
        self.mesh = mesh
        self.params = params
        self.settings = settings or NonlinearSettings()
        self.penalty_a0 = penalty_a0
        self.dofs = dofs = _Dofs(mesh, params, y_bc, u_bc, penalty_a0)
        nc = mesh.num_cells

        g = -dofs.B[:, dofs.iu_fixed] @ dofs.u_fixed_values.reshape(-1)
        self.g = (g - dofs.area * (g.sum() / dofs.area.sum())) / dofs.area

        self.b_forcing, self.b_tr = _loads(mesh, params, forcing_mom,
                                           forcing_tr)
        self.b_control = _control_load(mesh, control)

        self.u = dofs.full_u(np.zeros(dofs.nu_free))
        self.y = dofs.full_y(np.zeros(dofs.iy_free.size))
        self.p = np.zeros(nc)
        self.m = 0.0  # multiplier of the pressure-mean border
        self.newton = False
        self.steps = 0
        self.increments = []
        self._lin = None
        self._kept = None  # the LU that served the newest Newton step

    def set_control(self, control):
        """Swap the distributed control between steps."""
        self.b_control = _control_load(self.mesh, control)

    def increment_norm(self, du, dy):
        return broken_velocity_norm(self.mesh, du,
                                    _sigma_scale(self.params),
                                    self.params.nu2) \
            + broken_transport_norm(self.mesh, dy, self.params.sigma_bar)

    def iterate_scale(self):
        return 1.0 + broken_velocity_norm(self.mesh, self.u,
                                          _sigma_scale(self.params),
                                          self.params.nu2) \
            + broken_transport_norm(self.mesh, self.y,
                                    self.params.sigma_bar)

    def _linearization(self, newton):
        """A linearization at the iterate, handed the kept LU if the gate
        is open; else that LU is dropped before the assembly, or the new LU
        lands in a fragmented heap."""
        incs = self.increments
        lag = self.newton and len(incs) >= 2 \
            and incs[-1] <= _LAG_CONTRACTION * incs[-2]
        kept, self._kept = self._kept if lag else None, None
        return Linearization(self.dofs, self.u, self.y, newton=newton,
                             kept=kept)

    def linearize(self):
        """Newton linearization at the iterate, in Picard and Newton mode
        alike, on the stepper's layout.  A Newton step consumes it (and its
        LU); a Picard step drops it before assembling its own."""
        if self._lin is None:
            self._lin = self._linearization(True)
        return self._lin

    def step(self):
        """Advance one Picard or Newton step; returns the increment norm."""
        dofs = self.dofs
        nu = dofs.nu_free
        u, y, p = self.u, self.y, self.p
        # a Picard step drops a handed linearization before it assembles
        # its own, so at most one LU is alive
        lin = self._lin if self.newton else None
        self._lin = None
        if lin is None:
            lin = self._linearization(self.newton)

        if not self.newton:
            b_mom = self.b_forcing + self.b_control
            if dofs.iy_fixed.size:
                b_mom = b_mom + dofs.MF[:, dofs.iy_fixed] \
                    @ dofs.y_fixed_values.reshape(-1)
            b_mom_free = b_mom[dofs.iu_free] \
                - _sub(lin.A_mom, dofs.iu_free, dofs.iu_fixed) \
                @ dofs.u_fixed_values.reshape(-1)
            b_tr_free = self.b_tr[dofs.iy_free]
            if dofs.iy_fixed.size:
                b_tr_free = b_tr_free \
                    - _sub(lin.A_tr, dofs.iy_free, dofs.iy_fixed) \
                    @ dofs.y_fixed_values.reshape(-1)
            x, m_new = lin.solve(
                np.concatenate([b_mom_free, self.g, b_tr_free]))
            u_new = dofs.full_u(x[:nu])
            p_new = x[dofs.ip]
            y_new = dofs.full_y(x[dofs.ip.stop:])
        else:
            r_mom, r_tr = lin.residual(p, (self.b_forcing, self.b_control),
                                       self.b_tr)
            r_div = dofs.B_scaled @ u.reshape(-1)[dofs.iu_free] \
                + self.m - self.g
            r_mean = float(dofs.area @ p)
            rhs = np.concatenate([-r_mom[dofs.iu_free], -r_div,
                                  -r_tr[dofs.iy_free]])
            x, dm = lin.solve(rhs, beta=-r_mean)
            self._kept = lin.solver  # new or lagged, it served this step
            u_new = u.copy()
            u_new[dofs.u_free_edges] += x[:nu].reshape(-1, 2)
            p_new = p + x[dofs.ip]
            y_new = y.copy()
            y_new[dofs.y_free_edges] += x[dofs.ip.stop:].reshape(-1, 2)
            m_new = self.m + dm
        del lin  # blocks and an unkept LU go before anything else

        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(y_new))
                and np.all(np.isfinite(p_new))):
            raise DivergedError(
                "NaN/Inf in iterate {}".format(self.steps + 1))
        incr = self.increment_norm(u_new - u, y_new - y)
        self.u, self.y, self.p, self.m = u_new, y_new, p_new, m_new
        self.steps += 1
        self.increments.append(incr)
        if not self.newton and (incr <= 0.2 * self.iterate_scale()
                                or self.steps >= 3):
            self.newton = True
        return incr

    def converged(self, incr):
        return incr <= self.settings.tol * self.iterate_scale()

    def solution(self):
        area = self.dofs.area
        p = self.p - area @ self.p / area.sum()
        return StateSolution(
            u=CRVectorField(self.mesh, self.u.copy()),
            p=P0Field(self.mesh, p),
            y=CRVectorField(self.mesh, self.y.copy()),
            iterations=self.steps,
            increments=list(self.increments),
            y_dirichlet_edges=self.dofs.y_fixed_edges.copy(),
            penalty_a0=self.penalty_a0)


@_frees_on_failure
def solve_state(mesh, params, y_bc, control=None, settings=None, u_bc=None,
                forcing_mom=None, forcing_tr=None, penalty_a0=0.0):
    """Solve the nonlinear discrete state system for a given control.

    Parameters
    ----------
    mesh : Mesh
    params : ProblemParams
    y_bc : BoundaryTrace or None
        Dirichlet edge averages for (T, S); edges not referenced get the
        natural (zero-flux) condition.
    control : P0Field, ndarray (nc, 2) or None
        Distributed control, piecewise constant.
    settings : NonlinearSettings, optional
    u_bc : BoundaryTrace, optional
        Velocity Dirichlet averages (no-slip when omitted); a uniform
        normal-flux correction enforces discrete compatibility.
    forcing_mom, forcing_tr : callable, optional
        Extra momentum / transport right-hand sides (manufactured data),
        two components each in any layout ``spaces._point_values`` reads.
    penalty_a0 : float
        Facet jump-penalty coefficient (Darcy regime), 0 disables.

    Returns
    -------
    StateSolution

    Raises
    ------
    NonconvergenceError
        If ``max_iter`` is exhausted before the increment drops below
        ``tol * (1 + ||u|| + ||y||)``.
    DivergedError
        If an iterate contains NaN or Inf.
    """
    stepper = StateStepper(mesh, params, y_bc, control=control,
                           settings=settings, u_bc=u_bc,
                           forcing_mom=forcing_mom, forcing_tr=forcing_tr,
                           penalty_a0=penalty_a0)
    for _ in range(stepper.settings.max_iter):
        incr = stepper.step()
        if stepper.converged(incr):
            return stepper.solution()
    raise NonconvergenceError(
        "state iteration did not reach tol={} in {} steps".format(
            stepper.settings.tol, stepper.settings.max_iter),
        stepper.increments)


def state_residual(mesh, params, solution, y_bc=None, control=None,
                   u_bc=None, forcing_mom=None, forcing_tr=None):
    """Residual norms of each equation block at a given (u, p, y).

    The residual is tested against all free basis functions; returns the
    Euclidean norms per block.
    """
    u = solution.u.dof
    y = solution.y.dof
    p = solution.p.dof
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))
            and np.all(np.isfinite(p))):
        raise ValueError("solution fields contain NaN/Inf")
    dofs = _Dofs(mesh, params, y_bc, u_bc, solution.penalty_a0)
    return _residual_norms(Linearization(dofs, u, y, newton=False), p,
                           control, forcing_mom, forcing_tr)


def _residual_norms(lin, p, control, forcing_mom, forcing_tr):
    """Block residual norms at the iterate of ``lin`` with pressure ``p``:
    momentum and transport on the free dofs, the unscaled continuity
    residual B u and the pressure mean."""
    dofs = lin.dofs
    b_mom, b_tr = _loads(dofs.mesh, dofs.params, forcing_mom, forcing_tr)
    r_mom, r_tr = lin.residual(
        p, (b_mom, _control_load(dofs.mesh, control)), b_tr)
    return {
        "momentum": float(np.linalg.norm(r_mom[dofs.iu_free])),
        # residual of b(u, q) = 0, i.e. -|K| div u_h per cell
        "continuity": float(np.linalg.norm(dofs.B @ lin.u.reshape(-1))),
        "transport": float(np.linalg.norm(r_tr[dofs.iy_free])),
        "pressure_mean": abs(float(dofs.area @ p)),
    }
