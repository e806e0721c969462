"""Assembly of the discrete operators of the flow-transport scheme.

Volume integrals use a six-point degree-4 rule (nonlinear coefficients are
not polynomial), facet integrals a two-point Gauss rule (exact for the cubic
trace products that occur).  All matrices are returned over the full dof
sets; Dirichlet elimination is done by the solvers through index slicing.

Every iterate-dependent block is computed as local cell and facet values
and summed by the mesh's scatter plan (``Mesh.scatter_plan``), which
reproduces ``coo_matrix(...).tocsr()`` to the last bit without a COO
conversion.  The value functions (``_upwind_values``, ``_stiffness_local``,
``_advecting_local``, ...) are what the state solver composes its
matrices from; each ``assemble_*`` function wraps one of them into the
CSR matrix.

Dof conventions: scalar CR dof = edge index; vector / two-component CR dofs
are interleaved (2*edge + component); piecewise constants use the cell
index (2*cell + component for controls).

Upwind convection.  The convective forms are assembled as

    c(w; u, v) = skew(w; u, v) + sum_e theta_e(w; u, v) + flux_e(w; u, v),

where skew is the antisymmetrized volume term, theta_e carries the
integrated-by-parts boundary transfer and flux_e the inflow coupling, both
with the advecting normal velocity a_e = w(m_e) . n_e frozen at the edge
midpoint (the single point where a Crouzeix-Raviart trace is one-valued).
With this choice the quadratic form reduces algebraically to
(1/2) sum_e |a_e| int_e |[u]|^2 >= 0, so the upwind positivity property
holds to machine precision for every advecting field.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from .mesh import _cell_dofs, _facet_sides
from .spaces import _point_values, cr_values_on_cells, cr_cell_gradients

__all__ = ["ProblemParams", "assemble_mass", "assemble_stiffness",
           "assemble_brinkman_diffusion", "assemble_divergence",
           "assemble_cross_diffusion", "assemble_upwind_advection",
           "assemble_advecting_linearization", "assemble_viscosity_coupling",
           "assemble_buoyancy_coupling", "assemble_jump_penalty",
           "assemble_load", "assemble_p0_load", "tracking_load",
           "tracking_cost", "vector_indices"]


@dataclass
class ProblemParams:
    """Coefficients of the flow-transport model.

    Attributes
    ----------
    sigma : float
        Inverse permeability, K^{-1} = sigma I, positive and finite; also
        the weight of the L2 part of the velocity norm.
    diffusion : (2, 2) ndarray
        Constant positive-definite diffusion matrix D (off-diagonal entries
        are the Soret/Dufour couplings), finite as F_y is.
    nu : callable, optional
        Temperature-dependent viscosity T -> nu(T); None means nu == 1.
    nu_T : callable, optional
        Derivative T -> nu'(T); None means 0.
    nu1, nu2 : float
        Lower/upper viscosity bounds (nu2 is also the gradient norm weight).
    F_y : (2, 2) ndarray, optional
        The linear buoyancy F(y) = F_y y, the only buoyancy the model has;
        the solver keeps it implicit.  None means no buoyancy.
    """

    sigma: float = 1.0
    diffusion: object = None
    nu: object = None
    nu_T: object = None
    nu1: float = 1.0
    nu2: float = 1.0
    F_y: object = None

    def __post_init__(self):
        if np.ndim(self.sigma) != 0:
            raise ValueError("sigma must be a scalar: K^{-1} = sigma I")
        self.sigma = float(self.sigma)
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite, got "
                             "{!r}".format(self.sigma))
        if self.diffusion is None:
            self.diffusion = np.eye(2)
        self.diffusion = np.asarray(self.diffusion, dtype=float)
        if self.F_y is not None:
            self.F_y = np.asarray(self.F_y, dtype=float)
        for name, value in (("diffusion", self.diffusion), ("F_y", self.F_y)):
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError("{} must be finite".format(name))

    @property
    def sigma_bar(self):
        """Transport gradient weight, the max-norm of D."""
        return float(np.abs(self.diffusion).max())

    def nu_at(self, T):
        if self.nu is None:
            return np.ones_like(np.asarray(T, dtype=float))
        return np.asarray(self.nu(T), dtype=float)

    def nu_T_at(self, T):
        if self.nu_T is None:
            return np.zeros_like(np.asarray(T, dtype=float))
        return np.asarray(self.nu_T(T), dtype=float)

    def validate(self, T_samples=None):
        """Check the standing assumptions on the coefficients.

        Viscosity bounds are checked at sampled temperatures, and positive
        definiteness of D exactly, on the eigenvalues of its symmetric part.
        """
        if self.nu1 <= 0:
            raise ValueError("nu1 must be positive")
        if self.nu1 > self.nu2:
            raise ValueError("nu1 must not exceed nu2")
        if T_samples is None:
            T_samples = np.linspace(-2.0, 2.0, 41)
        nu_vals = self.nu_at(T_samples)
        if np.any(nu_vals < self.nu1 * (1 - 1e-12)) \
                or np.any(nu_vals > self.nu2 * (1 + 1e-12)):
            raise ValueError("nu(T) leaves [nu1, nu2] on sampled "
                             "temperatures")
        if np.linalg.eigvalsh(self.diffusion + self.diffusion.T)[0] <= 0:
            raise ValueError("diffusion matrix is not positive definite")
        return self


def vector_indices(edges):
    """Interleaved dof indices for a set of edges (both components)."""
    edges = np.asarray(edges, dtype=np.int64)
    return (2 * edges[:, None] + np.arange(2)[None, :]).ravel()


def _cell_load(mesh, loc):
    """Global interleaved load vector of cell-local loads ``loc``, (nc, 3)
    for scalar or (nc, 3, k) for k-component test functions."""
    k = 1 if loc.ndim == 2 else loc.shape[2]
    b = np.zeros(k * mesh.num_edges)
    np.add.at(b, _cell_dofs(mesh.cell_edges, k).ravel(), loc.ravel())
    return b


def assemble_mass(mesh):
    """Scalar CR mass matrix.

    The CR cell mass matrix is diagonal (int psi_i psi_j = delta_ij |K|/3),
    so the matrix is assembled exactly.
    """
    diag = np.zeros(mesh.num_edges)
    np.add.at(diag, mesh.cell_edges.ravel(),
              np.repeat(mesh.area_cell / 3.0, 3))
    return sp.diags(diag).tocsr()


def _stiffness_local(mesh, coeff_cells=None):
    """Cell blocks (nc, 3, 3) of c_K int_K grad psi_j . grad psi_i."""
    grads = mesh.cell_gradients
    c = mesh.area_cell if coeff_cells is None \
        else mesh.area_cell * coeff_cells
    return np.einsum("cix,cjx,c->cij", grads, grads, c)


def assemble_stiffness(mesh):
    """Scalar CR stiffness matrix int grad u . grad v."""
    return mesh.scatter_plan.cell.csr(_stiffness_local(mesh))


def _reaction_entries(mesh, sigma):
    """The reaction part sigma u . v of the Brinkman block, as entries of
    the vector pattern."""
    return mesh.scatter_plan.vector.entries(sp.kron(assemble_mass(mesh),
                                                    sigma * np.eye(2)))


def _brinkman_values(mesh, T_dof, params, reaction):
    """The Brinkman block as values on the vector pattern: the viscous
    stiffness at nu(T_h) plus ``reaction`` (``_reaction_entries``)."""
    q = mesh.cell_quadrature
    Tq = cr_values_on_cells(mesh, T_dof)
    nu_bar = np.einsum("q,cq->c", q.w, params.nu_at(Tq))
    plan = mesh.scatter_plan
    out = plan.lift(plan.cell.into(_stiffness_local(mesh, nu_bar)))
    at, values = reaction
    out[at] += values
    return out


def assemble_brinkman_diffusion(mesh, T_dof, params):
    """Velocity block: reaction sigma u . v  +  nu(T_h) grad u : grad v.

    Parameters
    ----------
    T_dof : ndarray (ne,)
        CR temperature dofs at which the viscosity is evaluated (at the
        volume quadrature points).

    Returns
    -------
    csr_matrix (2 ne, 2 ne), symmetric.
    """
    b = _brinkman_values(mesh, T_dof, params,
                         _reaction_entries(mesh, params.sigma))
    return mesh.scatter_plan.vector.csr(b, b != 0)


def assemble_divergence(mesh):
    """Divergence block B with B[K, dof] = -int_K div v.

    The divergence of a CR velocity is constant per cell, so entries are
    exact: -|K| * d(psi_e)/dx_c.
    """
    vals = -mesh.cell_gradients * mesh.area_cell[:, None, None]
    rows = np.repeat(np.arange(mesh.num_cells), 6)
    cols = vector_indices(mesh.cell_edges.ravel()).ravel()
    return sp.coo_matrix((vals.ravel(), (rows, cols)),
                         shape=(mesh.num_cells, 2 * mesh.num_edges)).tocsr()


def assemble_cross_diffusion(mesh, D):
    """Coupled transport stiffness int D grad y : grad s.

    With interleaved (T, S) dofs this is kron(K_scalar, D).
    """
    K = assemble_stiffness(mesh)
    return sp.kron(K, np.asarray(D, dtype=float), format="csr")


def _convection_local(mesh, w_dof):
    """Cell blocks (nc, 3, 3) of the raw volume convection
    int (w . grad psi_j) psi_i."""
    q = mesh.cell_quadrature
    wq = cr_values_on_cells(mesh, w_dof)               # (nc, nq, 2)
    adv = np.einsum("cqd,cjd->cqj", wq, mesh.cell_gradients)
    return np.einsum("cq,qi,cqj->cij", q.wts, q.psi, adv)


def _facet_local(mesh, *coefs):
    """The facet trace blocks with per-edge coefficients: one (ne,) array
    per side pair of ``_facet_sides``, in its order, which is that of the
    scatter plan's ``facet``."""
    pairs = mesh.edge_traces.pairs
    return np.concatenate([
        (pairs[edges, sr, sc] * coef[edges, None, None]).ravel()
        for coef, (edges, sr, sc) in zip(coefs, _facet_sides(mesh))])


def _midpoint_flux(mesh, w_dof):
    """a_e = w(m_e) . n_e; single-valued since CR dofs sit at midpoints."""
    return np.einsum("ed,ed->e", w_dof, mesh.edge_normal)


def _upwind_values(mesh, w_dof):
    """The scalar upwind matrix N(w) as values on the scalar pattern: the
    antisymmetric volume part plus the facet transfer blocks."""
    plan = mesh.scatter_plan
    C = plan.cell.into(_convection_local(mesh, w_dof))
    a = _midpoint_flux(mesh, w_dof)
    boundary_half_a = np.where(mesh.boundary_edge, 0.5 * a, 0.5 * np.abs(a))
    F = plan.facet.into(_facet_local(mesh, boundary_half_a,
                                     np.minimum(a, 0.0), -np.maximum(a, 0.0),
                                     0.5 * np.abs(a)))
    return 0.5 * (C - C[plan.transpose]) + F


def assemble_upwind_advection(mesh, w_dof):
    """Upwind-stabilized scalar convection matrix N(w).

    Realizes the convective trilinear form with the advecting field w
    frozen: volume transport plus the upwind inflow flux, with w . n taken
    at each edge midpoint (interior-side trace, where it is single-valued).
    Assembled as the antisymmetric volume part plus facet transfer blocks,
    which makes the quadratic form exactly (1/2) sum_e int |w.n| [u]^2.

    Parameters
    ----------
    w_dof : ndarray (ne, 2)
        Advecting CR velocity dofs.

    Returns
    -------
    csr_matrix (ne, ne)
        Each component of a vector or (T, S) field is convected by it.
    """
    n = _upwind_values(mesh, w_dof)
    return mesh.scatter_plan.scalar.csr(n, n != 0)


def assemble_advecting_linearization(mesh, w_dof, carried_dof):
    """Derivative of the convection form with respect to the advecting slot.

    Returns the matrix G with G[(e, c), (e', x)] = d/d(dw) of
    c(w; carried, .) at w, i.e. the Gateaux derivative of
    ``assemble_upwind_advection(mesh, w)(carried)`` in the direction of the
    velocity dof (e', x).  The absolute values in the flux are linearized
    as sign(a_e) with sign(0) = 0 (ties at no-flow facets).

    Parameters
    ----------
    w_dof : ndarray (ne, 2)
        Base advecting field (the state velocity).
    carried_dof : ndarray (ne, 2)
        Frozen transported field (velocity or (T, S) pair).

    Returns
    -------
    csr_matrix (2*ne, 2*ne)
    """
    if carried_dof.shape[1] != 2:
        raise ValueError("the carried field needs two components, got "
                         "{}".format(carried_dof.shape[1]))
    return mesh.scatter_plan.advecting.csr(
        _advecting_local(mesh, w_dof, carried_dof))


def _advecting_local(mesh, w_dof, carried_dof):
    """Cell and facet values of ``assemble_advecting_linearization``, in
    the order of the scatter plan's ``advecting``."""
    k = carried_dof.shape[1]
    q = mesh.cell_quadrature
    grads = mesh.cell_gradients
    cvals = cr_values_on_cells(mesh, carried_dof)         # (nc, nq, k)
    cgrad = cr_cell_gradients(mesh, carried_dof)          # (nc, k, 2)

    # volume skew part: 1/2 [ (dw . grad c) . v - (dw . grad v) . c ]
    # term 1: 1/2 int psi_j psi_i (grad c_m)_x, rows (i, m), cols (j, x)
    mloc = np.einsum("cq,qi,qj->cij", q.wts, q.psi, q.psi)  # (nc, 3, 3)
    t1 = 0.5 * np.einsum("cij,cmx->cimjx", mloc, cgrad)
    # term 2: -1/2 int psi_j c_m (grad psi_i)_x
    pc = np.einsum("cq,qj,cqm->cjm", q.wts, q.psi, cvals)
    t2 = -0.5 * np.einsum("cjm,cix->cimjx", pc, grads)
    vals = [(t1 + t2).reshape(-1)]                        # (nc,3,k,3,2)

    # facet part: coefficients differentiated with respect to a_e
    td = mesh.edge_traces
    a = _midpoint_flux(mesh, w_dof)
    sgn = np.sign(a)
    dcoef = (np.where(mesh.boundary_edge, 0.5, 0.5 * sgn),
             (a < 0).astype(float), -(a > 0).astype(float), 0.5 * sgn)
    for coef, (edges, sr, sc) in zip(dcoef, _facet_sides(mesh)):
        cf = coef[edges][:, None, None]
        pare = td.pairs[edges, sr, sc]                      # (m, 3, 3)
        cloc = carried_dof[td.dofs[edges, sc]]              # (m, 3, k)
        # row value for test dof (i, m): coef * sum_j pairs[i, j] c[j, m],
        # summed over j in the order np.einsum("e,eij,ejm->eim") sums
        rv = np.zeros((edges.size, 3, k))
        for j in range(3):
            rv += cf * pare[:, :, j, None] * cloc[:, None, j]
        for x in range(2):
            vals.append((rv * mesh.edge_normal[edges, x][:, None, None])
                        .ravel())
    return np.concatenate(vals)


def assemble_viscosity_coupling(mesh, u_dof, T_dof, params):
    """Momentum-temperature coupling int nu'(T_h) dT (grad u_h : grad v).

    Rows are velocity dofs, columns the full (T, S) dofs with only the
    temperature component populated.

    Returns
    -------
    csr_matrix (2*ne, 2*ne)
    """
    return mesh.scatter_plan.coupling.csr(
        _viscosity_local(mesh, u_dof, T_dof, params))


def _viscosity_local(mesh, u_dof, T_dof, params):
    """Cell blocks (nc, 3, 2, 3) of ``assemble_viscosity_coupling``."""
    q = mesh.cell_quadrature
    Tq = cr_values_on_cells(mesh, T_dof)
    grads = mesh.cell_gradients
    ugrad = cr_cell_gradients(mesh, u_dof)                 # (nc, 2, 2)
    nuT = params.nu_T_at(Tq)                               # (nc, nq)
    # weight int nu'(T) psi_j per cell
    wj = np.einsum("cq,cq,qj->cj", q.wts, nuT, q.psi)      # (nc, 3)
    # (grad u_c . grad psi_i) per cell
    gg = np.einsum("cdx,cix->cdi", ugrad, grads)           # (nc, 2, 3)
    return np.einsum("cdi,cj->cidj", gg, wj)


def assemble_buoyancy_coupling(mesh, params):
    """Buoyancy Jacobian block int (F_y dy) . v, exactly kron(M, F_y).

    Returns
    -------
    csr_matrix (2*ne, 2*ne), rows velocity dofs, columns (T, S) dofs.
    """
    Fy = params.F_y if params.F_y is not None else np.zeros((2, 2))
    return sp.kron(assemble_mass(mesh), Fy, format="csr")


def assemble_jump_penalty(mesh, a0, nu2):
    """Symmetric facet penalty sum_e (a0 nu2 / h_e) int_e [u] . [v].

    The jump is the full vector trace difference on interior edges and the
    trace itself on boundary edges.  Returns the interleaved vector version.
    """
    if a0 < 0:
        raise ValueError("penalty parameter a0 must be nonnegative")
    ne = mesh.num_edges
    if a0 == 0:
        Z = sp.csr_matrix((2 * ne, 2 * ne))
        return Z
    coef = a0 * nu2 / mesh.h_edge
    P = mesh.scatter_plan.facet.csr(_facet_local(mesh, coef, -coef, -coef,
                                                 coef))
    return sp.kron(P, sp.eye(2), format="csr")


def assemble_load(mesh, f):
    """Load vector (f, v) by the degree-4 cell rule.

    f(x, y) returns a scalar array, giving the scalar load, or components
    in any layout ``spaces._point_values`` reads, giving the interleaved
    vector load.
    """
    q = mesh.cell_quadrature
    fv = _point_values(f, q.pts[:, :, 0], q.pts[:, :, 1])
    return _cell_load(mesh, np.einsum("cq,cq...,qi->ci...", q.wts, fv, q.psi))


def assemble_p0_load(mesh, U_cells):
    """Exact load of a piecewise-constant (control) field against CR bases.

    int_K U_K . v distributes |K|/3 U_K to each edge dof of K.
    """
    U = np.asarray(U_cells, dtype=float)
    w = mesh.area_cell / 3.0
    wU = w * U if U.ndim == 1 else w[:, None] * U
    return _cell_load(mesh, np.repeat(wU[:, None], 3, axis=1))


def _difference_values(mesh, dof, target):
    """(field_h - target) at the cell quadrature points.

    ``target`` may be None, a callable of (x, y), a CR field (anything
    carrying a matching ``dof`` array), or its values at the quadrature
    points (``_sampled_target``).
    """
    if target is not None and hasattr(target, "dof"):
        return cr_values_on_cells(mesh, dof - target.dof)
    vals = cr_values_on_cells(mesh, dof)
    if target is not None:
        vals = vals - _sampled_target(mesh, target)
    return vals


def _sampled_target(mesh, target):
    """A callable target's values at the cell quadrature points; any other
    target as it is."""
    if not callable(target):
        return target
    q = mesh.cell_quadrature
    return _point_values(target, q.pts[:, :, 0], q.pts[:, :, 1])


def tracking_load(mesh, dof, target):
    """Load vector of (field_h - target, v) with the cost quadrature.

    Shares the degree-4 rule with ``tracking_cost`` so the assembled load is
    the exact derivative of the quadrature cost.
    """
    q = mesh.cell_quadrature
    vals = _difference_values(mesh, dof, target)  # (nc, nq, k)
    return _cell_load(mesh, np.einsum("cq,cqd,qi->cid", q.wts, vals, q.psi))


def tracking_cost(mesh, dof, target):
    """(1/2) int |field_h - target|^2 with the degree-4 cell rule."""
    vals = _difference_values(mesh, dof, target)
    return 0.5 * float(np.einsum("cq,cqd,cqd->", mesh.cell_quadrature.wts,
                                 vals, vals))
