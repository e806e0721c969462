"""Nonlinear state solver for the coupled flow-transport scheme.

The discrete state system is advanced by frozen-coefficient (Picard) steps
that switch to exact-Jacobian Newton steps once the iterate is in the
attraction basin: each step solves one monolithic linear saddle-point
system with the viscosity at the current temperature, the advecting
velocity in both upwind convection blocks, the buoyancy implicit, and the
pressure mean fixed by a scalar Lagrange multiplier (handled as a
bordered system to keep the factorization sparse).  The buoyancy is
linear, F(y) = F_y y, the only kind the model has: its block kron(M, F_y)
never changes.  Dirichlet dofs (velocity on the whole boundary,
transported scalars on the Dirichlet part) are eliminated and carried by
a discrete lifting.

One layout (``_Dofs``) owns a state problem: its dofs and what does not
depend on the iterate, built once: the divergence, the cross-diffusion,
the jump penalty, the buoyancy coupling, the forcing loads and the
continuity lifting.  It is also the only code that converts between
fields and the bordered (u, p, y) vector of free dofs: ``pack``,
``unpack``, ``lift`` (the Dirichlet values) and ``zero_mean`` (the
pressure gauge).  A ``StateSolution`` carries its layout to the adjoint
and the KKT check.  A ``Linearization`` builds the rest once per
iterate: the Brinkman block (nu follows T), one upwind matrix N(u) shared
by the momentum and transport operators, and the Newton couplings.  Its
``residual`` forms the momentum and transport residuals of the Newton
step, of ``state_residual`` and of the KKT check alike.

Who owns what of the assembly: the mesh owns the index patterns
(``Mesh.scatter_plan``: where each cell and facet value lands and in which
order duplicates add), the layout owns the composition of J
(``_Dofs.jacobian``: where each block lands in the CSC arrays of J and
which entries J keeps) and the order a large J is factored in
(``_Dofs.order``, a nested dissection of the mesh's edges).  A step only
computes local values, sums them onto the mesh's vector pattern, adds the
blocks there and gathers A_mom, A_tr and J; no COO conversion, sort or
``bmat`` runs per step, and every matrix is bit for bit the one the
sparse sums and ``bmat`` of the sliced blocks would give.

Each step assembles one ``Linearization`` of the system at the iterate.
A one-shot optimization loop takes the Newton one from ``linearize``, on
the stepper's own layout, and solves its adjoint, the transposed bordered
system, with the same LU transposed.  The next step always consumes it: a
Newton step solves with it, a Picard step assembles its own operator and
takes over its LU as a lagged one (below), whatever the gate says.

After every step, Picard or Newton, the stepper keeps the LU
(BorderedSolver) that served it, new or lagged.  While the last increment
is at most a fifth of the one before it (the gate), the next
linearization takes that LU over: each of its solves, transposed or not,
is first tried by GMRES preconditioned with it, to the direct solve's
residual, and J is factored only when GMRES declines, after the lagged LU
is dropped.  When the gate is shut, the kept LU is dropped before the
next Jacobian is assembled, so at most one LU is alive and none waits
through an assembly it will not serve.

``StateStepper`` exposes single steps so the optimization loop can
interleave state linearizations with active-set updates; ``solve_state``
drives the stepper to the increment tolerance.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse as sp

from . import assembly as asm
from .linalg import _TRIM_ROWS, BorderedSolver, SolverError, \
    _frees_on_failure
from .norms import broken_velocity_norm, broken_transport_norm
from .spaces import CRVectorField, P0Field, cr_cell_gradients

# Lagged LU: once the increment contracted by at least _LAG_CONTRACTION
# (the factor of the Picard->Newton switch), the solves of the next
# linearization are first tried by GMRES preconditioned with the kept LU
# of the previous step (``BorderedSolver.krylov_solve``).
_LAG_CONTRACTION = 0.2
# the steps solve_state takes before it raises NonconvergenceError
_MAX_STEPS = 100

__all__ = ["NonlinearSettings", "StateSolution", "NonconvergenceError",
           "DivergedError", "Linearization", "StateStepper", "solve_state",
           "state_residual", "max_cell_div"]


class NonconvergenceError(SolverError):
    """The nonlinear iteration ran out of steps; carries the increments."""


class DivergedError(SolverError):
    """A NaN/Inf appeared in an iterate; carries the increments."""


@dataclass
class NonlinearSettings:
    """Nonlinear-iteration controls.

    ``tol`` is a dimensionless increment tolerance (measured relative to
    1 + the broken norms of the iterate); ``solve_state`` takes at most
    ``_MAX_STEPS`` steps to meet it.
    """
    tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")


@dataclass
class StateSolution:
    """Converged state (u, p, y) plus solve metadata.

    ``layout`` is the ``_Dofs`` of the problem it was solved on: the
    adjoint (homogeneous data on the same Dirichlet edges) and the KKT
    check linearize on it.
    """
    u: CRVectorField
    p: P0Field
    y: CRVectorField
    iterations: int
    increments: list
    layout: "_Dofs"

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
    """One state problem: free/fixed dofs, the bordered (u, p, y)
    free-dof layout with the one conversion between it and the fields
    (``pack``, ``unpack``, ``lift``), the iterate-independent blocks and
    loads, where the blocks land in J (``jacobian``) and the order its
    core is factored in (``order``), both built on first use.
    ``reaction``, ``cross``, ``penalty`` (the jump penalty, None when
    absent) and ``MF_entries`` are (entry numbers, values) on the mesh's
    vector pattern; ``MF`` is the buoyancy coupling matrix kron(M, F_y).
    ``b_forcing`` and ``b_tr`` are the forcing loads, ``g`` the continuity
    lifting of the velocity Dirichlet data."""

    def __init__(self, mesh, params, y_bc, u_bc, forcing_mom=None,
                 forcing_tr=None, penalty_a0=0.0):
        if not 0 <= penalty_a0 < np.inf:
            raise ValueError("penalty_a0 must be nonnegative and finite, "
                             "got {!r}".format(penalty_a0))
        ne = mesh.num_edges
        self.mesh = mesh
        self.params = params
        self.penalty_a0 = penalty_a0
        bdry = mesh.boundary_edges

        self.u_fixed_edges = bdry
        self.u_free_edges = mesh.interior_edges
        u_values = np.zeros((bdry.size, 2))
        if u_bc is not None:
            # a BoundaryTrace holds distinct boundary edges
            u_values[np.searchsorted(bdry, u_bc.edges)] = \
                _trace_values(u_bc, "velocity")
        self.u_fixed_values = _balance_boundary_flux(mesh, u_values)
        self.iu_free = asm.vector_indices(self.u_free_edges)
        self.iu_fixed = asm.vector_indices(self.u_fixed_edges)

        if y_bc is None:
            self.y_fixed_edges = np.zeros(0, dtype=np.int64)
            self.y_fixed_values = np.zeros((0, 2))
        else:
            self.y_fixed_edges = y_bc.edges
            self.y_fixed_values = _trace_values(y_bc, "transport")
        mask = np.ones(ne, dtype=bool)
        mask[self.y_fixed_edges] = False
        self.y_free_edges = np.flatnonzero(mask)
        self.iy_free = asm.vector_indices(self.y_free_edges)
        self.iy_fixed = asm.vector_indices(self.y_fixed_edges)

        # the constant terms of A_mom, A_tr and K_uy as entries of the
        # mesh's vector pattern: the reaction, the cross-diffusion, the
        # jump penalty and the buoyancy coupling
        V = mesh.scatter_plan.vector
        self.B = asm.assemble_divergence(mesh)
        self.reaction = asm._reaction_entries(mesh, params.sigma)
        self.cross = V.entries(asm.assemble_cross_diffusion(
            mesh, params.diffusion))
        self.penalty = V.entries(asm.assemble_jump_penalty(
            mesh, penalty_a0, params.nu2)) if penalty_a0 > 0 else None
        self.MF = asm.assemble_buoyancy_coupling(mesh, params)
        self.MF_entries = V.entries(self.MF)
        self.area = mesh.area_cell
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

        g = -self.B[:, self.iu_fixed] @ self.u_fixed_values.reshape(-1)
        self.g = (g - self.area * (g.sum() / self.area.sum())) / self.area
        self.b_forcing = np.zeros(2 * ne)
        if forcing_mom is not None:
            self.b_forcing += asm.assemble_load(mesh, forcing_mom)
        self.b_tr = np.zeros(2 * ne) if forcing_tr is None \
            else asm.assemble_load(mesh, forcing_tr)

    @cached_property
    def jacobian(self):
        """Where the blocks land in J, built on first use: a residual
        check never gathers J."""
        return _JacobianPlan(self)

    @cached_property
    def order(self):
        """The fill-reducing order of J's pinned core, built on first
        factorization: a nested dissection for a large core, None (COLAMD)
        below ``linalg._TRIM_ROWS`` rows."""
        plan = self.jacobian
        return None if plan.n < _TRIM_ROWS else _nested_dissection(self, plan)

    def pack(self, u, p, y):
        """The bordered free-dof vector of full-length momentum and
        transport vectors ``u`` and ``y`` and a pressure block ``p``."""
        return np.concatenate([np.reshape(u, -1)[self.iu_free], p,
                               np.reshape(y, -1)[self.iy_free]])

    def unpack(self, x):
        """The (ne, 2) velocity and transport parts of a bordered vector,
        zero on the fixed edges, and its pressure block."""
        ne = self.mesh.num_edges
        u, y = np.zeros((ne, 2)), np.zeros((ne, 2))
        u[self.u_free_edges] = x[:self.nu_free].reshape(-1, 2)
        y[self.y_free_edges] = x[self.ip.stop:].reshape(-1, 2)
        return u, x[self.ip], y

    def lift(self, u, y):
        """Write the Dirichlet values into (ne, 2) fields, in place."""
        u[self.u_fixed_edges] = self.u_fixed_values
        y[self.y_fixed_edges] = self.y_fixed_values

    def zero_mean(self, v):
        """A cellwise field shifted to zero area-weighted mean."""
        return v - self.area @ v / self.area.sum()


def _trace_values(trace, name):
    values = np.atleast_2d(trace.values)
    if values.shape != (trace.edges.size, 2):
        raise ValueError("{} Dirichlet data needs two components per "
                         "edge".format(name))
    return values


# Nested dissection stops splitting a set of edges at this size.
_LEAF_EDGES = 48


def _nested_dissection(dofs, plan):
    """A symmetric fill-reducing order of the bordered core of ``plan``.

    The edges are dissected (George, SIAM J. Numer. Anal. 10, 1973) in
    the graph of J's structural pattern mapped onto edges, with the
    cell-edge incidence added so the couplings B^T B that eliminating a
    pressure brings are in it.  A set of edges is split in two halves by
    midpoint coordinate along its longer extent; the edges of the first
    half that touch the second form the separator, ordered after both
    halves, each dissected in turn down to leaves of about
    ``_LEAF_EDGES`` edges.  Each edge gives its free velocity dofs, then
    its free transport dofs; each pressure follows right after the
    velocity dofs of the last free velocity edge of its cell, so every
    velocity it couples to comes first and its static pivot is nonzero
    (Benzi, Golub & Liesen, Acta Numerica 14, 2005).  The pattern is the
    structural one, with every entry a block may store, not the first
    iterate's nonzeros: the zero start has no upwind entries, and
    separators that miss them made the 32x32 factor fill about three
    times as much.
    """
    mesh, n, nu = dofs.mesh, plan.n, dofs.nu_free
    ne, ce = mesh.num_edges, mesh.cell_edges
    edge = np.full(n, -1, dtype=np.int64)
    edge[:nu] = np.repeat(dofs.u_free_edges, 2)
    edge[dofs.ip.stop:] = np.repeat(dofs.y_free_edges, 2)
    er = edge[plan.rows]
    ec = np.repeat(edge, np.diff(plan.indptr))
    on = (er >= 0) & (ec >= 0)
    r = np.concatenate([er[on], np.repeat(ce, 3, axis=1).ravel()])
    c = np.concatenate([ec[on], np.tile(ce, 3).ravel()])
    G = sp.csr_matrix((np.ones(r.size, dtype=bool), (r, c)), shape=(ne, ne))
    G = (G + G.T).tocsr()
    xy = mesh.edge_midpoint
    parts = []

    def dissect(part):
        if part.size <= _LEAF_EDGES:
            parts.append(part)
            return
        at = xy[part]
        axis = int(np.ptp(at[:, 1]) > np.ptp(at[:, 0]))
        part = part[np.argsort(at[:, axis], kind="stable")]
        first, second = np.split(part, [part.size // 2])
        in_second = np.zeros(ne, dtype=bool)
        in_second[second] = True
        rows = G[first]
        touch = np.bincount(
            np.repeat(np.arange(first.size), np.diff(rows.indptr)),
            weights=in_second[rows.indices], minlength=first.size) > 0
        dissect(first[~touch])
        dissect(second)
        parts.append(first[touch])

    dissect(np.arange(ne))
    rank = np.empty(ne, dtype=np.int64)
    rank[np.concatenate(parts)] = np.arange(ne)
    # sort keys: the edge's rank, then velocity, pressure, transport
    key = np.where(edge >= 0, rank[edge], 0)
    kind = np.zeros(n, dtype=np.int64)
    kind[dofs.ip], kind[dofs.ip.stop:] = 1, 2
    free_u = np.zeros(ne, dtype=bool)
    free_u[dofs.u_free_edges] = True
    key[dofs.ip] = np.where(free_u[ce], rank[ce], -1).max(axis=1)
    return np.lexsort((kind, key))


class _JacobianPlan:
    """Where each block of the bordered free-dof core

        J = [[A_uu, B_free^T, K_uy], [B_scaled, 0, 0], [K_yu, 0, A_tr]]

    lands in the CSC arrays of J, for one layout, and which entries J
    keeps.  The iterate-dependent blocks come as values on the mesh's
    vector pattern, of which J holds the entries with free rows and
    columns that the block can store; the constant blocks keep their own
    structure.  ``src`` numbers, for every such entry of J in CSC order,
    its source in the four value arrays and the constant entries laid end
    to end.  ``assemble`` keeps the nonzero entries, every entry of a
    present K_yu (the raw linearization keeps its stored zeros) and every
    constant entry, so J is, to the bit, what ``sp.bmat`` of the sliced
    blocks gives.
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
        # the entries kept whatever their value, without and with K_yu
        self.fixed = {False: self.src >= 4 * V.nnz}
        self.fixed[True] = self.fixed[False] | (self.src // V.nnz == 2)
        for a in (self.src, self.rows, self.indptr, self.constant,
                  *self.fixed.values()):
            a.setflags(write=False)

    def assemble(self, A_uu, K_uy, K_yu, A_tr):
        """J from the values of A_uu, K_uy, K_yu and A_tr on the vector
        pattern (K_yu None: the block is absent)."""
        with_yu = K_yu is not None
        values = np.concatenate([
            A_uu, K_uy, K_yu if with_yu else np.zeros(A_uu.size), A_tr,
            self.constant])[self.src]
        keep = (values != 0) | self.fixed[with_yu]
        start = np.zeros(keep.size + 1, dtype=np.int32)
        np.cumsum(keep, out=start[1:])
        return sp.csc_matrix((values[keep], self.rows[keep],
                              start[self.indptr]), shape=(self.n, self.n))


class Linearization:
    """The state system linearized at an iterate (u, y).

    A_mom (Brinkman + N(u) + penalty) and A_tr (cross-diffusion + N(u))
    share one set of upwind values.  The bordered free-dof core ``J``
    (exact Jacobian with ``newton``, else the Picard operator) is gathered
    by the layout's ``jacobian`` plan on first use and factored on the
    first solve that needs it, so callers assemble what else they need
    first, and a residual check gathers no J.
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
            K_yu = plan.advecting.into(asm._advecting_local(mesh, u, y))
        else:
            K_uy, K_yu = np.zeros(A_mom.size), None
        # each MF entry is a cell mass times a nonzero F_y entry, so J
        # keeps every one of -MF by the nonzero rule, in Picard steps too
        K_uy[dofs.MF_entries[0]] -= dofs.MF_entries[1]
        self._blocks = (A_mom, K_uy, K_yu, A_tr)
        self.solver, self._lagged = kept, kept is not None

    @cached_property
    def J(self):
        """The bordered free-dof core, gathered on first use."""
        blocks, self._blocks = self._blocks, None
        return self.dofs.jacobian.assemble(*blocks)

    def solve(self, rhs, beta=0.0, transpose=False):
        """Bordered solve with J, or the transposed bordered solve if
        ``transpose``."""
        if self._lagged:
            out = self.solver.krylov_solve(self.J, rhs, beta=beta,
                                           transpose=transpose)
            if out is not None:
                return out
            # dropped before the factorization, so one LU is alive
            self.solver, self._lagged = None, False
        if self.solver is None:
            d = self.dofs
            self.solver = BorderedSolver(self.J, d.d_col, d.e_row,
                                         pin=d.nu_free, order=d.order)
        return self.solver.solve(rhs, beta=beta, transpose=transpose)

    def residual(self, p, b_control):
        """Full-length momentum and transport residuals at (u, p, y); the
        layout's forcing load, the control load ``b_control`` and the
        buoyancy MF y are subtracted in turn."""
        dofs = self.dofs
        r_mom = self.A_mom @ self.u.reshape(-1) + dofs.B.T @ p \
            - dofs.b_forcing - b_control - dofs.MF @ self.y.reshape(-1)
        return r_mom, self.A_tr @ self.y.reshape(-1) - dofs.b_tr


def _control_load(mesh, control):
    if control is None:
        return np.zeros(2 * mesh.num_edges)
    dof = control.dof if isinstance(control, P0Field) else np.asarray(control)
    return asm.assemble_p0_load(mesh, dof)


class StateStepper:
    """One nonlinear step at a time on the discrete state system.

    The stepper starts in Picard mode (frozen coefficients) and switches
    to Newton once the increment has dropped enough (or after a few
    steps).  Every step and the linearizations of ``linearize`` reuse a
    kept LU through GMRES while the increments contract fast, and a step
    after ``linearize`` always tries that linearization's LU (see the
    module docstring).  The arguments are those of ``solve_state`` but
    ``settings``: the caller decides when to stop (``converged``).
    """

    def __init__(self, mesh, params, y_bc, control=None, u_bc=None,
                 forcing_mom=None, forcing_tr=None, penalty_a0=0.0):
        self.mesh = mesh
        self.params = params
        self.dofs = dofs = _Dofs(mesh, params, y_bc, u_bc, forcing_mom,
                                 forcing_tr, penalty_a0)
        self.b_control = _control_load(mesh, control)

        self.u, self.p, self.y = dofs.unpack(np.zeros(dofs.d_col.size))
        dofs.lift(self.u, self.y)
        self.m = 0.0  # multiplier of the pressure-mean border
        self.newton = False
        self.steps = 0
        self.increments = []
        self._lin = None
        self._kept = None  # the LU that served the newest step

    def set_control(self, control):
        """Swap the distributed control between steps."""
        self.b_control = _control_load(self.mesh, control)

    def increment_norm(self, du, dy):
        return broken_velocity_norm(self.mesh, du, self.params.sigma,
                                    self.params.nu2) \
            + broken_transport_norm(self.mesh, dy, self.params.sigma_bar)

    def iterate_scale(self):
        return 1.0 + broken_velocity_norm(self.mesh, self.u,
                                          self.params.sigma,
                                          self.params.nu2) \
            + broken_transport_norm(self.mesh, self.y,
                                    self.params.sigma_bar)

    def _linearization(self, newton):
        """A linearization at the iterate, handed the kept LU if the gate
        is open; else that LU is dropped before the assembly, or the new LU
        lands in a fragmented heap."""
        incs = self.increments
        lag = len(incs) >= 2 and incs[-1] <= _LAG_CONTRACTION * incs[-2]
        kept, self._kept = self._kept if lag else None, None
        return Linearization(self.dofs, self.u, self.y, newton=newton,
                             kept=kept)

    def linearize(self):
        """Newton linearization at the iterate, in Picard and Newton mode
        alike, on the stepper's layout.  The next step consumes it: a
        Newton step solves with it, a Picard step takes over its LU."""
        if self._lin is None:
            self._lin = self._linearization(True)
        return self._lin

    def step(self):
        """Advance one Picard or Newton step; returns the increment norm."""
        dofs = self.dofs
        u, y, p = self.u, self.y, self.p
        lin, self._lin = self._lin, None
        if lin is None:
            lin = self._linearization(self.newton)
        elif not self.newton:
            # the Picard operator, lagging the handed LU; the handed
            # linearization goes first, so at most one LU is alive
            kept, lin = lin.solver, None
            lin = Linearization(dofs, u, y, newton=False, kept=kept)
            del kept

        if not self.newton:
            # the new iterate itself, its Dirichlet values lifted to the
            # right-hand side
            u_lift, y_lift = np.zeros_like(u), np.zeros_like(y)
            dofs.lift(u_lift, y_lift)
            rhs = dofs.pack(
                dofs.b_forcing + self.b_control - lin.A_mom @ u_lift.ravel(),
                dofs.g, dofs.b_tr - lin.A_tr @ y_lift.ravel())
            beta = 0.0
        else:
            r_mom, r_tr = lin.residual(p, self.b_control)
            r_div = dofs.B_scaled @ u.reshape(-1)[dofs.iu_free] \
                + self.m - dofs.g
            rhs = -dofs.pack(r_mom, r_div, r_tr)
            beta = -float(dofs.area @ p)
        with self.keeping_increments():
            x, m_new = lin.solve(rhs, beta=beta)
        u_new, p_new, y_new = dofs.unpack(x)
        if self.newton:  # a Newton step solves for the increment
            u_new, p_new, y_new = u + u_new, p + p_new, y + y_new
            m_new = self.m + m_new
        dofs.lift(u_new, y_new)
        self._kept = lin.solver  # new or lagged, it served this step
        del lin  # its blocks go before anything else

        if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(y_new))
                and np.all(np.isfinite(p_new))):
            raise DivergedError(
                "NaN/Inf in iterate {}".format(self.steps + 1),
                self.increments)
        incr = self.increment_norm(u_new - u, y_new - y)
        self.u, self.y, self.p, self.m = u_new, y_new, p_new, m_new
        self.steps += 1
        self.increments.append(incr)
        if not self.newton and (incr <= 0.2 * self.iterate_scale()
                                or self.steps >= 3):
            self.newton = True
        return incr

    @contextmanager
    def keeping_increments(self):
        """A SolverError without a history (a linear failure) leaves with
        the increments so far; state steps and PDAS adjoints solve in it."""
        try:
            yield
        except SolverError as exc:
            if not exc.history:
                exc.history = list(self.increments)
            raise

    def converged(self, incr, tol):
        """Whether ``incr`` meets the tolerance of ``NonlinearSettings``."""
        return incr <= tol * self.iterate_scale()

    def solution(self):
        return StateSolution(
            u=CRVectorField(self.mesh, self.u.copy()),
            p=P0Field(self.mesh, self.dofs.zero_mean(self.p)),
            y=CRVectorField(self.mesh, self.y.copy()),
            iterations=self.steps,
            increments=list(self.increments),
            layout=self.dofs)


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
        Facet jump-penalty coefficient (Darcy regime), nonnegative and
        finite; 0 disables.

    Returns
    -------
    StateSolution

    Raises
    ------
    NonconvergenceError
        If ``_MAX_STEPS`` steps do not bring the increment below
        ``tol * (1 + ||u|| + ||y||)``.
    DivergedError
        If an iterate contains NaN or Inf.
    """
    settings = settings or NonlinearSettings()
    stepper = StateStepper(mesh, params, y_bc, control=control, u_bc=u_bc,
                           forcing_mom=forcing_mom, forcing_tr=forcing_tr,
                           penalty_a0=penalty_a0)
    for _ in range(_MAX_STEPS):
        incr = stepper.step()
        if stepper.converged(incr, settings.tol):
            return stepper.solution()
    raise NonconvergenceError(
        "state iteration did not reach tol={} in {} steps".format(
            settings.tol, _MAX_STEPS),
        stepper.increments)


def state_residual(mesh, params, solution, y_bc=None, control=None,
                   u_bc=None, forcing_mom=None, forcing_tr=None):
    """Residual norms of each equation block at a given (u, p, y).

    The residual is tested against all free basis functions; returns the
    Euclidean norms per block.  The layout is built from the arguments;
    of ``solution.layout`` only the jump penalty is read.
    """
    u = solution.u.dof
    y = solution.y.dof
    p = solution.p.dof
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))
            and np.all(np.isfinite(p))):
        raise ValueError("solution fields contain NaN/Inf")
    dofs = _Dofs(mesh, params, y_bc, u_bc, forcing_mom, forcing_tr,
                 solution.layout.penalty_a0)
    return _residual_norms(Linearization(dofs, u, y, newton=False), p,
                           control)


def _residual_norms(lin, p, control):
    """Block residual norms at the iterate of ``lin`` with pressure ``p``
    and the layout's loads: momentum and transport on the free dofs, the
    unscaled continuity residual B u and the pressure mean."""
    dofs = lin.dofs
    r_mom, r_tr = lin.residual(p, _control_load(dofs.mesh, control))
    return {
        "momentum": float(np.linalg.norm(r_mom[dofs.iu_free])),
        # residual of b(u, q) = 0, i.e. -|K| div u_h per cell
        "continuity": float(np.linalg.norm(dofs.B @ lin.u.reshape(-1))),
        "transport": float(np.linalg.norm(r_tr[dofs.iy_free])),
        "pressure_mean": abs(float(dofs.area @ p)),
    }
