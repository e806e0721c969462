"""The scatter plan against the COO/bmat assembly it replaced.

The reference below builds every block as COO, converts it to CSR, adds
the blocks with scipy's sparse sums, slices out the free dofs and stacks
them with ``sp.bmat``.  The plan must give the same matrices to the bit:
``data``, ``indices`` and ``indptr``, with their dtypes.  COLAMD orders
the LU of a small core (below ``linalg._TRIM_ROWS`` rows) by the stored
pattern, so a stored zero more or less changes it.  The nested-dissection
order of a large core reads the plan's structural pattern (every entry a
block may store), not the stored zeros.
"""

import numpy as np
import pytest
from scipy import sparse as sp

from ddopt import assembly as asm
from ddopt import mesh as mesh_module
from ddopt import state
from ddopt.cli import cavity_boundary_trace
from ddopt.mesh import build_unit_square_mesh
from ddopt.state import Linearization, NonlinearSettings, solve_state, _Dofs

from conftest import make_divfree_field


# ---------------------------------------------------------------- reference

def ref_gradients(mesh):
    v = mesh.vertices[mesh.cells]
    grad_lam = np.empty((mesh.num_cells, 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        d = v[:, k] - v[:, j]
        grad_lam[:, i, 0] = -d[:, 1]
        grad_lam[:, i, 1] = d[:, 0]
    grad_lam /= (2.0 * mesh.area_cell)[:, None, None]
    return -2.0 * grad_lam


def ref_cell_dofs(mesh, k):
    return (k * mesh.cell_edges[:, :, None]
            + np.arange(k)).reshape(mesh.num_cells, -1)


def ref_pairs(rdofs, cdofs):
    return (np.repeat(rdofs, cdofs.shape[1], axis=1).ravel(),
            np.tile(cdofs, (1, rdofs.shape[1])).ravel())


def ref_coo(loc, rdofs, cdofs, shape):
    return sp.coo_matrix((loc.reshape(-1), ref_pairs(rdofs, cdofs)),
                         shape=shape).tocsr()


def ref_stiffness(mesh, coeff=None):
    grads = ref_gradients(mesh)
    c = mesh.area_cell if coeff is None else mesh.area_cell * coeff
    loc = np.einsum("cix,cjx,c->cij", grads, grads, c)
    ne = mesh.num_edges
    return ref_coo(loc, mesh.cell_edges, mesh.cell_edges, (ne, ne))


def ref_brinkman(mesh, T_dof, params):
    q = mesh.cell_quadrature
    Tq = np.einsum("qi,ci->cq", q.psi, T_dof[mesh.cell_edges])
    nu_bar = np.einsum("q,cq->c", q.w, params.nu_at(Tq))
    K = ref_stiffness(mesh, nu_bar)
    M = asm.assemble_mass(mesh)
    return sp.kron(params.sigma * M + K, sp.eye(2), format="csr")


def ref_facet_sides(mesh):
    interior = np.flatnonzero(~mesh.boundary_edge)
    return ((np.arange(mesh.num_edges), 0, 0), (interior, 0, 1),
            (interior, 1, 0), (interior, 1, 1))


def ref_facet_pairs(mesh):
    dofs = mesh.edge_traces.dofs
    rows, cols = zip(*(ref_pairs(dofs[edges, sr], dofs[edges, sc])
                       for edges, sr, sc in ref_facet_sides(mesh)))
    return np.concatenate(rows), np.concatenate(cols)


def ref_facet_blocks(mesh, *coefs):
    td = mesh.edge_traces
    vals = [(td.pairs[edges, sr, sc] * coef[edges, None, None]).ravel()
            for coef, (edges, sr, sc) in zip(coefs, ref_facet_sides(mesh))]
    ne = mesh.num_edges
    return sp.coo_matrix((np.concatenate(vals), ref_facet_pairs(mesh)),
                         shape=(ne, ne)).tocsr()


def ref_upwind(mesh, w, n_components):
    q = mesh.cell_quadrature
    grads = ref_gradients(mesh)
    wq = np.einsum("qi,cid->cqd", q.psi, w[mesh.cell_edges])
    adv = np.einsum("cqd,cjd->cqj", wq, grads)
    loc = np.einsum("cq,qi,cqj->cij", q.wts, q.psi, adv)
    ne = mesh.num_edges
    C = ref_coo(loc, mesh.cell_edges, mesh.cell_edges, (ne, ne))
    N = 0.5 * (C - C.T)
    a = np.einsum("ed,ed->e", w, mesh.edge_normal)
    N = N + ref_facet_blocks(
        mesh, np.where(mesh.boundary_edge, 0.5 * a, 0.5 * np.abs(a)),
        np.minimum(a, 0.0), -np.maximum(a, 0.0), 0.5 * np.abs(a))
    N = N.tocsr()
    if n_components == 1:
        return N
    return sp.kron(N, sp.eye(n_components), format="csr")


def ref_advecting_pairs(mesh):
    td = mesh.edge_traces
    rows, cols = ([a] for a in ref_pairs(ref_cell_dofs(mesh, 2),
                                         ref_cell_dofs(mesh, 2)))
    for edges, sr, _ in ref_facet_sides(mesh):
        for x in range(2):
            r = 2 * td.dofs[edges, sr][:, :, None] + np.arange(2)
            rows.append(r.ravel())
            cols.append(np.broadcast_to((2 * edges + x)[:, None, None],
                                        r.shape).ravel())
    return np.concatenate(rows), np.concatenate(cols)


def ref_advecting(mesh, w, carried):
    ne = mesh.num_edges
    q = mesh.cell_quadrature
    grads = ref_gradients(mesh)
    cvals = np.einsum("qi,cid->cqd", q.psi, carried[mesh.cell_edges])
    cgrad = np.einsum("cid,cix->cdx", carried[mesh.cell_edges], grads)
    mloc = np.einsum("cq,qi,qj->cij", q.wts, q.psi, q.psi)
    t1 = 0.5 * np.einsum("cij,cmx->cimjx", mloc, cgrad)
    pc = np.einsum("cq,qj,cqm->cjm", q.wts, q.psi, cvals)
    t2 = -0.5 * np.einsum("cjm,cix->cimjx", pc, grads)
    vals = [(t1 + t2).reshape(-1)]
    td = mesh.edge_traces
    a = np.einsum("ed,ed->e", w, mesh.edge_normal)
    sgn = np.sign(a)
    dcoef = (np.where(mesh.boundary_edge, 0.5, 0.5 * sgn),
             (a < 0).astype(float), -(a > 0).astype(float), 0.5 * sgn)
    for (edges, sr, sc), coef in zip(ref_facet_sides(mesh), dcoef):
        rv = np.einsum("e,eij,ejm->eim", coef[edges], td.pairs[edges, sr, sc],
                       carried[td.dofs[edges, sc]])
        for x in range(2):
            vals.append((rv * mesh.edge_normal[edges, x][:, None, None])
                        .ravel())
    return sp.coo_matrix((np.concatenate(vals), ref_advecting_pairs(mesh)),
                         shape=(2 * ne, 2 * ne)).tocsr()


def ref_viscosity(mesh, u, T, params):
    ne = mesh.num_edges
    q = mesh.cell_quadrature
    Tq = np.einsum("qi,ci->cq", q.psi, T[mesh.cell_edges])
    grads = ref_gradients(mesh)
    ugrad = np.einsum("cid,cix->cdx", u[mesh.cell_edges], grads)
    wj = np.einsum("cq,cq,qj->cj", q.wts, params.nu_T_at(Tq), q.psi)
    gg = np.einsum("cdx,cix->cdi", ugrad, grads)
    loc = np.einsum("cdi,cj->cidj", gg, wj)
    return ref_coo(loc, ref_cell_dofs(mesh, 2), 2 * mesh.cell_edges,
                   (2 * ne, 2 * ne))


def ref_buoyancy(mesh, params):
    Fy = params.F_y if params.F_y is not None else np.zeros((2, 2))
    return sp.kron(asm.assemble_mass(mesh), Fy, format="csr")


def ref_linearization(dofs, u, y, penalty_a0, newton):
    """(A_mom, A_tr, J) as the COO/bmat assembly built them."""
    mesh, params = dofs.mesh, dofs.params
    N = ref_upwind(mesh, u, 2)
    A_mom = ref_brinkman(mesh, y[:, 0], params) + N
    if penalty_a0 > 0:
        coef = penalty_a0 * params.nu2 / mesh.h_edge
        P = ref_facet_blocks(mesh, coef, -coef, -coef, coef)
        A_mom = A_mom + sp.kron(P, sp.eye(2), format="csr")
    A_tr = sp.kron(ref_stiffness(mesh), params.diffusion, format="csr") + N
    MF = ref_buoyancy(mesh, params)
    if newton:
        A_uu = A_mom + ref_advecting(mesh, u, u)
        K_uy = ref_viscosity(mesh, u, y[:, 0], params) - MF
        K_yu = ref_advecting(mesh, u, y)
    else:
        A_uu, K_uy, K_yu = A_mom, -MF, None

    def sub(A, rows, cols):
        return None if A is None else A[rows][:, cols]

    iu, iy = dofs.iu_free, dofs.iy_free
    J = sp.bmat([[sub(A_uu, iu, iu), dofs.B_free.T, sub(K_uy, iu, iy)],
                 [dofs.B_scaled, None, None],
                 [sub(K_yu, iy, iu), None, sub(A_tr, iy, iy)]],
                format="csc")
    return A_mom, A_tr, J


# -------------------------------------------------------------------- tests

def assert_same(A, B):
    assert A.format == B.format and A.shape == B.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
        assert a.tobytes() == b.tobytes(), name


def _params(kind):
    F_y = np.array([[0.0, 0.0], [60.0, -30.0]])
    base = dict(sigma=1.0e3, diffusion=np.array([[1.0, 0.1], [0.2, 0.8]]),
                nu=lambda T: 1.0 + 0.25 * np.tanh(T),
                nu_T=lambda T: 0.25 / np.cosh(T) ** 2, nu1=0.75, nu2=1.25,
                F_y=F_y)
    if kind == "diagonal_sigma":  # sigma I of order one, with D = I
        base["sigma"] = 2.0
        base["diffusion"] = np.eye(2)
    elif kind == "no_buoyancy":  # an empty coupling block
        base["F_y"] = None
    return asm.ProblemParams(**base)


def _iterate(mesh, kind, rng):
    ne = mesh.num_edges
    y = rng.standard_normal((ne, 2))
    if kind == "zero":
        return np.zeros((ne, 2)), np.zeros((ne, 2))
    if kind == "divfree":
        # no-slip walls: in the corner cells the third flux is rounding
        return 50.0 * make_divfree_field(mesh, rng), y
    u = rng.standard_normal((ne, 2))
    u[mesh.boundary_edges] = 0.0
    return u, y


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("newton", [False, True], ids=["picard", "newton"])
@pytest.mark.parametrize("iterate, kind, a0", [
    ("random", "affine", 0.0),
    ("zero", "affine", 0.0),
    ("divfree", "affine", 0.0),
    ("random", "affine", 2.5),
    ("divfree", "no_buoyancy", 0.0),
    ("random", "diagonal_sigma", 1.0)])
def test_linearization_matches_coo_assembly(n, newton, iterate, kind, a0):
    mesh = build_unit_square_mesh(n)
    rng = np.random.default_rng(7 + n)
    params = _params(kind)
    u, y = _iterate(mesh, iterate, rng)
    dofs = _Dofs(mesh, params, cavity_boundary_trace(mesh), None,
                 penalty_a0=a0)
    lin = Linearization(dofs, u, y, newton=newton)
    A_mom, A_tr, J = ref_linearization(dofs, u, y, a0, newton)
    assert_same(lin.A_mom, A_mom)
    assert_same(lin.A_tr, A_tr)
    assert_same(lin.J, J)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_assembled_blocks_match_coo_assembly(n):
    mesh = build_unit_square_mesh(n)
    rng = np.random.default_rng(n)
    ne = mesh.num_edges
    u, y = rng.standard_normal((ne, 2)), rng.standard_normal((ne, 2))
    assert_same(asm.assemble_stiffness(mesh), ref_stiffness(mesh))
    assert_same(asm.assemble_upwind_advection(mesh, u),
                ref_upwind(mesh, u, 1))
    for carried in (u, y):
        assert_same(asm.assemble_advecting_linearization(mesh, u, carried),
                    ref_advecting(mesh, u, carried))
    for kind in ("affine", "diagonal_sigma", "no_buoyancy"):
        params = _params(kind)
        assert_same(asm.assemble_brinkman_diffusion(mesh, y[:, 0], params),
                    ref_brinkman(mesh, y[:, 0], params))
        assert_same(asm.assemble_viscosity_coupling(mesh, u, y[:, 0], params),
                    ref_viscosity(mesh, u, y[:, 0], params))
        assert_same(asm.assemble_buoyancy_coupling(mesh, params),
                    ref_buoyancy(mesh, params))
    coef = 2.0 / mesh.h_edge
    assert_same(asm.assemble_jump_penalty(mesh, 2.0, 1.0),
                sp.kron(ref_facet_blocks(mesh, coef, -coef, -coef, coef),
                        sp.eye(2), format="csr"))
    assert np.array_equal(mesh.cell_gradients, ref_gradients(mesh))


@pytest.mark.parametrize("n", [1, 4])
def test_scatters_sum_as_coo_conversion(n):
    # every sum starts from its first value as scipy's does: on all-(-0.0)
    # values a +0.0 start would store +0.0
    mesh = build_unit_square_mesh(n)
    ne, ce = mesh.num_edges, mesh.cell_edges
    plan = mesh.scatter_plan
    rng = np.random.default_rng(n)
    for scatter, pairs, shape in (
            (plan.cell, ref_pairs(ce, ce), (ne, ne)),
            (plan.facet, ref_facet_pairs(mesh), (ne, ne)),
            (plan.coupling, ref_pairs(ref_cell_dofs(mesh, 2), 2 * ce),
             (2 * ne, 2 * ne)),
            (plan.advecting, ref_advecting_pairs(mesh), (2 * ne, 2 * ne))):
        m = pairs[0].size
        for values in (rng.standard_normal(m), np.full(m, -0.0)):
            assert_same(scatter.csr(values),
                        sp.coo_matrix((values, pairs), shape=shape).tocsr())


@pytest.mark.parametrize("k", [1, 3])
def test_advecting_linearization_needs_two_components(k):
    mesh = build_unit_square_mesh(2)
    ne = mesh.num_edges
    with pytest.raises(ValueError):
        asm.assemble_advecting_linearization(mesh, np.ones((ne, 2)),
                                             np.ones((ne, k)))


def test_plan_lifetime(monkeypatch):
    # one mesh pattern per mesh and one J composition per layout; a
    # second solve on the mesh builds no new pattern
    mesh = build_unit_square_mesh(12)
    y_bc = cavity_boundary_trace(mesh)
    params = asm.ProblemParams(sigma=1.0e3, diffusion=np.eye(2),
                               F_y=np.array([[0.0, 0.0], [100.0, 0.0]]))
    built = []
    for cls in (mesh_module._ScatterPlan, state._JacobianPlan):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__):
            built.append(_name)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    sol = solve_state(mesh, params, y_bc,
                      settings=NonlinearSettings(tol=1e-10))
    assert sol.iterations > 1
    assert sorted(built) == ["_JacobianPlan", "_ScatterPlan"]
    del built[:]
    solve_state(mesh, params, y_bc, settings=NonlinearSettings(tol=1e-10))
    assert built == ["_JacobianPlan"]

    # the plans' arrays are int32 indices or values, all read-only
    plan = mesh.scatter_plan
    arrays = [plan.transpose, *plan._lift]
    for pattern in (plan.scalar, plan.vector):
        arrays += [pattern.indices, pattern.indptr]
    for s in (plan.cell, plan.facet, plan.coupling, plan.advecting):
        arrays += [s.perm, s.slot]
    jac = _Dofs(mesh, params, y_bc, None).jacobian
    arrays += [jac.src, jac.rows, jac.indptr, jac.constant]
    assert {a.dtype.name for a in arrays} == {"int32", "float64"}
    for a in arrays + [mesh.cell_gradients, mesh.interior_edges,
                       mesh.boundary_edges]:
        with pytest.raises(ValueError):
            a[0] = a[0]
    assert mesh.cell_gradients is mesh.cell_gradients
