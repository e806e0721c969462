import numpy as np
import pytest
from scipy import sparse as sp

from conftest import make_divfree_field
from ddopt import assembly as asm
from ddopt.assembly import ProblemParams
from ddopt.mesh import Mesh, build_unit_square_mesh
from ddopt.norms import broken_velocity_norm
from ddopt.spaces import cr_interpolate


def test_params_validation():
    good = ProblemParams(sigma=1.0, nu1=0.5, nu2=1.0,
                         nu=lambda T: 0.75 + 0.0 * T)
    good.validate()
    with pytest.raises(ValueError):
        ProblemParams(nu1=0.0).validate()
    with pytest.raises(ValueError):
        ProblemParams(nu1=1.0, nu2=1.0,
                      nu=lambda T: 2.0 + 0.0 * T).validate()
    with pytest.raises(ValueError):
        ProblemParams(diffusion=np.array([[1.0, 5.0],
                                          [5.0, 1.0]])).validate()


def test_sigma_bar_is_max_entry():
    p = ProblemParams(diffusion=np.array([[1.4, 0.1], [0.0, 0.14]]))
    assert p.sigma_bar == pytest.approx(1.4)


def test_mass_of_constant(mesh4):
    # quadratic form of the constant-c scalar field is c^2 * |Omega|
    M = asm.assemble_mass(mesh4)
    c = 2.5 * np.ones(mesh4.num_edges)
    assert c @ (M @ c) == pytest.approx(2.5 ** 2, rel=1e-13)


def test_brinkman_symmetric_and_constant_form(mesh4):
    params = ProblemParams(sigma=1.0, nu1=1.0, nu2=1.0)
    A = asm.assemble_brinkman_diffusion(mesh4, None, params)
    assert abs(A - A.T).max() < 1e-13
    cvec = np.tile([3.0, 0.0], mesh4.num_edges)
    # constant vector field: gradient part vanishes, mass gives c^2
    assert cvec @ (A @ cvec) == pytest.approx(9.0, rel=1e-12)


def test_brinkman_equals_mass_plus_stiffness_oracle(mesh4):
    # constant coefficients: sigma*Mass + nu*Stiffness assembled separately
    params = ProblemParams(sigma=2.5, nu1=0.7, nu2=0.7,
                           nu=lambda T: 0.7 + 0.0 * T)
    A = asm.assemble_brinkman_diffusion(mesh4, None, params)
    M = asm.assemble_mass(mesh4, ncomp=2)
    K = sp.kron(asm.assemble_stiffness(mesh4), sp.eye(2))
    assert abs(A - 2.5 * M - 0.7 * K).max() < 1e-12


def test_brinkman_coercivity_sample(mesh4):
    params = ProblemParams(sigma=2.0, nu1=0.5, nu2=1.0,
                           nu=lambda T: 0.75 + 0.25 * np.cos(T))
    A = asm.assemble_brinkman_diffusion(
        mesh4, np.linspace(0, 1, mesh4.num_edges), params)
    rng = np.random.default_rng(0)
    bound = min(2.0, params.nu1) / max(2.0, params.nu2)
    for _ in range(100):
        v = rng.standard_normal(2 * mesh4.num_edges)
        nrm = broken_velocity_norm(mesh4, v.reshape(-1, 2), 2.0, params.nu2)
        assert v @ (A @ v) >= bound * nrm ** 2 * (1 - 1e-10)


def test_brinkman_matrix_permeability(mesh4):
    sig = np.array([[2.0, 0.5], [0.5, 1.0]])
    params = ProblemParams(sigma=sig, nu1=1.0, nu2=1.0)
    A = asm.assemble_brinkman_diffusion(mesh4, None, params)
    c = np.tile([1.0, 1.0], mesh4.num_edges)
    # quadratic form of constant (1,1): integral of (sig [1,1]) . [1,1]
    assert c @ (A @ c) == pytest.approx(sig.sum(), rel=1e-12)


def test_divergence_of_constant_field(mesh4):
    B = asm.assemble_divergence(mesh4)
    c = np.tile([1.0, -2.0], mesh4.num_edges)
    assert np.abs(B @ c).max() < 1e-13


def test_divergence_linear_field_entry():
    # v = (x, 0) has div = 1: row entry is -area_K
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
    m = Mesh(verts, np.array([[0, 1, 2]]))
    v = cr_interpolate(lambda x, y: np.stack([x, np.zeros_like(y)]), m)
    B = asm.assemble_divergence(m)
    assert (B @ v.flat())[0] == pytest.approx(-m.area_cell[0], rel=1e-13)


def test_divfree_kernel_means_cellwise_divergence(mesh8):
    w = make_divfree_field(mesh8, np.random.default_rng(1))
    B = asm.assemble_divergence(mesh8)
    assert np.abs(B @ w.reshape(-1)).max() < 1e-11
    from ddopt.state import max_cell_div
    assert max_cell_div(mesh8, w) < 1e-10


def test_cross_diffusion_identity_and_scaling(mesh4):
    K1 = asm.assemble_cross_diffusion(mesh4, np.eye(2))
    K1000 = asm.assemble_cross_diffusion(mesh4, 1000.0 * np.eye(2))
    assert abs(K1000 - 1000.0 * K1).max() < 1e-9
    # identity blocks decouple the components
    rng = np.random.default_rng(4)
    t = rng.standard_normal(mesh4.num_edges)
    y = np.column_stack([t, np.zeros_like(t)])
    s = np.column_stack([np.zeros_like(t), t])
    assert abs(s.reshape(-1) @ (K1 @ y.reshape(-1))) < 1e-12


def test_cross_diffusion_picks_soret_entry(mesh4):
    D = np.array([[1.3, 0.2], [0.45, 0.9]])
    K = asm.assemble_cross_diffusion(mesh4, D)
    rng = np.random.default_rng(5)
    T = rng.standard_normal(mesh4.num_edges)
    w = rng.standard_normal(mesh4.num_edges)
    y = np.column_stack([T, np.zeros_like(T)]).reshape(-1)
    s = np.column_stack([np.zeros_like(w), w]).reshape(-1)
    Ks = asm.assemble_stiffness(mesh4)
    assert s @ (K @ y) == pytest.approx(0.45 * (w @ (Ks @ T)), rel=1e-12)


def test_upwind_zero_advection(mesh4):
    N = asm.assemble_upwind_advection(mesh4,
                                      np.zeros((mesh4.num_edges, 2)))
    assert abs(N).max() == 0.0


def test_upwind_downwind_coupling_vanishes(mesh4):
    # on an outflow facet (a_e > 0 seen from cell_plus) the exterior-trace
    # (inflow) coupling into cell_plus rows must vanish
    rng = np.random.default_rng(9)
    w = make_divfree_field(mesh4, rng)
    N = asm.assemble_upwind_advection(mesh4, w).tocsr()
    a = np.einsum("ed,ed->e", w, mesh4.edge_normal)
    td = mesh4.edge_traces
    checked = 0
    for e in mesh4.interior_edges:
        if a[e] <= 1e-12:
            continue
        rows = td.dofs[e, 0]          # cell_plus side dofs
        cols = td.dofs[e, 1]          # cell_minus side dofs
        other = np.setdiff1d(cols, rows)
        for i in rows:
            if i == e:
                continue  # shared dof carries its own diagonal terms
            for j in other:
                assert abs(N[i, j]) < 1e-13
        checked += 1
    assert checked > 0


def test_upwind_positivity_divfree(mesh8):
    rng = np.random.default_rng(12)
    for _ in range(10):
        w = make_divfree_field(mesh8, rng)
        N = asm.assemble_upwind_advection(mesh8, w, n_components=2)
        for _ in range(3):
            u = rng.standard_normal(2 * mesh8.num_edges)
            assert u @ (N @ u) >= -1e-12 * (u @ u)


def test_upwind_quadratic_form_is_jump_integral(mesh4):
    # c(w, u, u) equals (1/2) sum_e int |w.n(m_e)| |[u]|^2 exactly
    rng = np.random.default_rng(15)
    w = make_divfree_field(mesh4, rng)
    u = rng.standard_normal((mesh4.num_edges, 2))
    N = asm.assemble_upwind_advection(mesh4, w, n_components=2)
    q = u.reshape(-1) @ (N @ u.reshape(-1))
    a = np.einsum("ed,ed->e", w, mesh4.edge_normal)
    td = mesh4.edge_traces
    expected = 0.0
    for e in mesh4.interior_edges:
        tr0 = np.einsum("qi,id->qd", td.psi[e, 0], u[td.dofs[e, 0]])
        tr1 = np.einsum("qi,id->qd", td.psi[e, 1], u[td.dofs[e, 1]])
        jump2 = np.sum((tr0 - tr1) ** 2, axis=1)
        expected += 0.5 * abs(a[e]) * mesh4.h_edge[e] * (td.w @ jump2)
    assert q == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_jump_penalty_zero_and_psd(mesh4):
    Z = asm.assemble_jump_penalty(mesh4, 0.0, 1.0)
    assert Z.nnz == 0
    P = asm.assemble_jump_penalty(mesh4, 2.0, 0.5)
    assert abs(P - P.T).max() < 1e-13
    vals = np.linalg.eigvalsh(P.toarray())
    assert vals.min() > -1e-12
    with pytest.raises(ValueError):
        asm.assemble_jump_penalty(mesh4, -1.0, 1.0)


def test_jump_penalty_vanishes_on_globally_affine_field(mesh4):
    # an affine function interpolated into CR is continuous: zero jumps
    v = cr_interpolate(lambda x, y: np.stack([1 + 2 * x - y, x + y]),
                       mesh4)
    P = asm.assemble_jump_penalty(mesh4, 3.0, 1.0)
    # interior jumps vanish; boundary terms keep the trace itself
    interior_dofs = asm.vector_indices(mesh4.interior_edges)
    r = (P @ v.flat())
    rng = np.random.default_rng(0)
    z = rng.standard_normal((mesh4.num_edges, 2))
    z[mesh4.boundary_edges] = 0.0
    # quadratic pairing against interior-supported fields sees no jumps
    # from v's interior edges but the boundary traces of v still couple;
    # use a field supported away from the boundary cells instead
    far = [e for e in mesh4.interior_edges
           if not np.any(mesh4.boundary_edge[
               mesh4.cell_edges[mesh4.edge_cells[e][:2]]])]
    if far:
        z2 = np.zeros((mesh4.num_edges, 2))
        z2[far[0]] = (1.0, -2.0)
        assert abs(z2.reshape(-1) @ r) < 1e-12
    # a genuinely discontinuous CR field has positive penalty energy
    d = np.zeros((mesh4.num_edges, 2))
    d[mesh4.interior_edges[0], 0] = 1.0
    assert d.reshape(-1) @ (P @ d.reshape(-1)) > 1e-3


def test_penalty_coefficient_darcy_value():
    # a0 = 10 sqrt(sigma) at sigma = 1e6
    assert 10.0 * np.sqrt(1e6) == pytest.approx(1e4)


def test_load_zero_and_partition_of_unity(mesh4):
    b = asm.assemble_load(mesh4, lambda x, y: np.stack(
        [np.zeros_like(x), np.zeros_like(y)]))
    assert np.all(b == 0)
    b = asm.assemble_load(mesh4, lambda x, y: np.stack(
        [np.ones_like(x), np.zeros_like(y)]))
    assert b[0::2].sum() == pytest.approx(1.0, rel=1e-12)
    assert abs(b[1::2]).max() == 0.0


def test_p0_load_matches_quadrature_load(mesh4):
    U = np.random.default_rng(3).standard_normal((mesh4.num_cells, 2))
    b = asm.assemble_p0_load(mesh4, U)
    # oracle: integral of U . v per cell equals |K|/3 per edge dof
    expected = np.zeros_like(b)
    for k in range(mesh4.num_cells):
        for e in mesh4.cell_edges[k]:
            expected[2 * e:2 * e + 2] += mesh4.area_cell[k] / 3.0 * U[k]
    assert np.allclose(b, expected, atol=1e-14)


def test_mean_constraint_row():
    m = build_unit_square_mesh(1)
    row = asm.assemble_mean_constraint(m)
    assert np.allclose(row, [0.5, 0.5])


def test_volume_quadrature_degree_4_exact():
    # int over reference triangle of x^a y^b for a+b <= 4
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(verts, np.array([[0, 1, 2]]))
    from ddopt.quadrature import tri_quadrature, cell_quad_points
    from math import factorial
    bary, w = tri_quadrature()
    pts = cell_quad_points(m, bary)[0]
    for a in range(5):
        for b in range(5 - a):
            exact = factorial(a) * factorial(b) / factorial(a + b + 2)
            approx = m.area_cell[0] * np.sum(
                w * pts[:, 0] ** a * pts[:, 1] ** b)
            assert approx == pytest.approx(exact, rel=1e-13)


def test_tracking_load_is_cost_derivative(mesh4):
    rng = np.random.default_rng(8)
    dof = rng.standard_normal((mesh4.num_edges, 2))
    target = lambda x, y: np.stack([np.sin(x), np.cos(y)])
    b = asm.tracking_load(mesh4, dof, target)
    d = rng.standard_normal(dof.shape)
    # the cost is quadratic in the dofs, so the central difference is exact
    # up to rounding
    eps = 1e-4
    jp = asm.tracking_cost(mesh4, dof + eps * d, target)
    jm = asm.tracking_cost(mesh4, dof - eps * d, target)
    assert (jp - jm) / (2 * eps) == pytest.approx(
        float(b @ d.reshape(-1)), rel=1e-7)


def test_viscosity_coupling_fd(mesh4):
    params = ProblemParams(nu=lambda T: np.exp(-T),
                           nu_T=lambda T: -np.exp(-T),
                           nu1=np.exp(-3.0), nu2=np.exp(3.0))
    rng = np.random.default_rng(13)
    u = rng.standard_normal((mesh4.num_edges, 2))
    y = rng.standard_normal((mesh4.num_edges, 2)) * 0.3
    G = asm.assemble_viscosity_coupling(mesh4, u, y[:, 0], params)
    dy = rng.standard_normal(y.shape)
    eps = 1e-6

    def momentum(yy):
        A = asm.assemble_brinkman_diffusion(mesh4, yy[:, 0], params)
        return A @ u.reshape(-1)

    fd = (momentum(y + eps * dy) - momentum(y - eps * dy)) / (2 * eps)
    assert np.allclose(G @ dy.reshape(-1), fd, atol=1e-7)


def test_buoyancy_coupling_affine_vs_general(mesh4):
    # kron(M, F_y) is the general form int (F_y dy) . v with its constant
    # Jacobian sampled at the cell rule's points; no F_y, no coupling
    Fy = np.array([[0.0, 0.0], [1.0, 2.0]])
    q = mesh4.cell_quadrature
    loc = np.einsum("cq,qi,qj,de->cidje", q.wts, q.psi, q.psi, Fy)
    vdofs = (2 * mesh4.cell_edges[:, :, None] + np.arange(2)).reshape(
        mesh4.num_cells, 6)
    n = 2 * mesh4.num_edges
    Mg = sp.coo_matrix((loc.ravel(), (np.repeat(vdofs, 6, axis=1).ravel(),
                                      np.tile(vdofs, (1, 6)).ravel())),
                       shape=(n, n)).tocsr()
    Ma = asm.assemble_buoyancy_coupling(mesh4, ProblemParams(F_y=Fy))
    assert abs(Ma - Mg).max() < 1e-12
    assert asm.assemble_buoyancy_coupling(mesh4, ProblemParams()).nnz == 0
