import numpy as np
import pytest

from ddopt import assembly as asm
from ddopt.adjoint import TrackingData
from ddopt.mesh import Mesh, build_unit_square_mesh
from ddopt.spaces import (CRScalarField, CRVectorField, P0Field,
                          BoundaryTrace, cr_interpolate,
                          boundary_interpolate, p0_project, evaluate_cr,
                          cr_basis_values, cr_cell_gradients, _edge_averages)
from ddopt.state import _Dofs, solve_state


def find_edge(mesh, a, b):
    target = sorted((a, b))
    return int(np.where((mesh.edges == target).all(axis=1))[0][0])


def test_interpolate_constant(mesh8):
    f = cr_interpolate(lambda x, y: np.full_like(x, 3.25), mesh8)
    assert np.allclose(f.dof, 3.25, atol=1e-14)


def test_interpolate_linear_edge_value():
    m = build_unit_square_mesh(1)
    f = cr_interpolate(lambda x, y: x, m)
    assert abs(f.dof[find_edge(m, 0, 1)] - 0.5) < 1e-14


def test_interpolate_quadratic_edge_average():
    m = build_unit_square_mesh(1)
    f = cr_interpolate(lambda x, y: x ** 2, m)
    assert abs(f.dof[find_edge(m, 0, 1)] - 1.0 / 3.0) < 1e-14


def test_boundary_interpolate_constant(mesh4):
    tr = boundary_interpolate(lambda x, y: np.ones_like(x), mesh4)
    assert tr.edges.size == mesh4.boundary_edges.size
    assert np.allclose(tr.values, 1.0)


def test_boundary_interpolate_bottom_wall_cosine(mesh8):
    # T = 0.5 + 0.5 cos(xy) equals 1 identically along y = 0
    tr = boundary_interpolate(lambda x, y: 0.5 + 0.5 * np.cos(x * y),
                              mesh8)
    bottom = mesh8.edge_midpoint[tr.edges, 1] < 1e-12
    assert np.count_nonzero(bottom) == 8
    assert np.allclose(tr.values[bottom], 1.0, atol=1e-14)


def test_boundary_trace_rejects_interior_edges(mesh4):
    interior = mesh4.interior_edges[:1]
    with pytest.raises(ValueError):
        BoundaryTrace(mesh4, interior, np.zeros(1))


@pytest.mark.parametrize("edges", ["negative", "past_end", "repeated"])
def test_boundary_trace_rejects_bad_indices(mesh4, edges):
    # -1 named the last edge (a boundary edge), past the end raised a bare
    # IndexError, and a repeated edge entered the layout twice
    bdry = mesh4.boundary_edges
    edges = {"negative": [-1], "past_end": [mesh4.num_edges],
             "repeated": [bdry[0], bdry[0]]}[edges]
    with pytest.raises(ValueError):
        BoundaryTrace(mesh4, edges, np.zeros((len(edges), 2)))


@pytest.mark.parametrize("values", [
    pytest.param(np.array([np.nan, 0.0]), id="nan"),
    pytest.param(np.array([[0.0, np.inf], [0.0, 0.0]]), id="inf"),
    pytest.param(5.0, id="0-d")])
def test_boundary_trace_rejects_bad_values(mesh4, values):
    # a NaN ended in a singular factorization, a 0-d value in IndexError
    with pytest.raises(ValueError):
        BoundaryTrace(mesh4, mesh4.boundary_edges[:2], values)


def test_p0_field_rejects_scalar(mesh4):
    with pytest.raises(ValueError):
        P0Field(mesh4, 1.0)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("stacked", [
    lambda x, y: np.stack([x + 2.0 * y, 1.0 - x]),
    lambda x, y: (x + 2.0 * y, 1.0 - x)], ids=["array", "tuple"])
def test_stacked_components_with_two_points(n, stacked):
    # a stacked (2, m) result is component-first even when m == 2: the
    # unit square's two cells, or the edge averages of two edges
    mesh = build_unit_square_mesh(n)

    def affine(p):
        return np.column_stack([p[:, 0] + 2.0 * p[:, 1], 1.0 - p[:, 0]])

    assert np.allclose(p0_project(stacked, mesh).dof,
                       affine(mesh.vertices[mesh.cells].mean(axis=1)),
                       atol=1e-14)
    edges = mesh.boundary_edges[:2]
    assert np.allclose(_edge_averages(stacked, mesh, edges),
                       affine(mesh.edge_midpoint[edges]), atol=1e-14)


@pytest.mark.parametrize("n", [1, 2])
def test_constant_components_broadcast(n):
    mesh = build_unit_square_mesh(n)
    U = p0_project(lambda x, y: (1.0, 2.0), mesh).dof
    assert U.shape == (mesh.num_cells, 2)
    assert np.allclose(U, [1.0, 2.0], atol=1e-14)


# the same two-component data in the three layouts a user function may use
LAYOUTS = [
    lambda x, y: (0.5, -1.25),
    lambda x, y: (np.full_like(x, 0.5), np.full_like(y, -1.25)),
    lambda x, y: np.stack([np.full_like(x, 0.5), np.full_like(y, -1.25)]),
]


def _state(mesh, f):
    s = solve_state(mesh, asm.ProblemParams(), None, forcing_mom=f)
    return np.concatenate([s.u.dof.ravel(), s.p.dof, s.y.dof.ravel()])


def _tracked(mesh):
    return np.random.default_rng(5).standard_normal((mesh.num_edges, 2))


ENTRY_POINTS = {
    "assemble_load": asm.assemble_load,
    "solve_state": _state,
    "tracking_load": lambda m, f: asm.tracking_load(m, _tracked(m), f),
    "tracking_cost": lambda m, f: asm.tracking_cost(m, _tracked(m), f),
    "cr_interpolate": lambda m, f: cr_interpolate(f, m).dof,
    "boundary_interpolate": lambda m, f: boundary_interpolate(f, m).values,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_layout_samples_alike(mesh4, entry):
    out = [np.asarray(ENTRY_POINTS[entry](mesh4, f)) for f in LAYOUTS]
    assert all(o.tobytes() == out[0].tobytes() for o in out[1:])


def test_cr_field_is_tracked_through_its_dofs(mesh4):
    dof, target = np.random.default_rng(6).standard_normal(
        (2, mesh4.num_edges, 2))
    data = TrackingData(u_d=CRVectorField(mesh4, target))
    assert asm.tracking_load(mesh4, dof, data.u_d).tobytes() \
        == asm.tracking_load(mesh4, dof - target, None).tobytes()


def test_p0_project_constant(mesh4):
    f = p0_project(lambda x, y: np.full_like(x, 2.0), mesh4)
    assert np.allclose(f.dof, 2.0, atol=1e-14)


def test_p0_project_affine_centroid(mesh4):
    f = p0_project(lambda x, y: x, mesh4)
    centroid = mesh4.vertices[mesh4.cells].mean(axis=1)
    assert np.allclose(f.dof, centroid[:, 0], atol=1e-14)


def test_p0_project_idempotent(mesh4):
    f = p0_project(lambda x, y: np.sin(x + y), mesh4)
    again = p0_project(f, mesh4)
    assert np.array_equal(f.dof, again.dof)


def test_p0_approximation_rate():
    errs, hs = [], []
    for n in (8, 16, 32):
        m = build_unit_square_mesh(n)
        proj = p0_project(lambda x, y: np.sin(np.pi * x), m)
        # quadrature L2 error against the smooth function
        from ddopt.quadrature import tri_quadrature, cell_quad_points
        bary, w = tri_quadrature()
        pts = cell_quad_points(m, bary)
        wts = w[None, :] * m.area_cell[:, None]
        diff = proj.dof[:, None] - np.sin(np.pi * pts[:, :, 0])
        errs.append(np.sqrt(np.sum(wts * diff ** 2)))
        hs.append(np.sqrt(2) / n)
    rate = np.log(errs[1] / errs[2]) / np.log(hs[1] / hs[2])
    assert 0.9 < rate < 1.1


def test_cr_basis_kronecker_random_triangles():
    def cross2(a, b):
        return a[0] * b[1] - a[1] * b[0]

    rng = np.random.default_rng(11)
    for _ in range(5):
        verts = rng.uniform(0, 1, (3, 2))
        if cross2(verts[1] - verts[0], verts[2] - verts[0]) < 0:
            verts = verts[[0, 2, 1]]
        if abs(cross2(verts[1] - verts[0], verts[2] - verts[0])) < 1e-2:
            continue
        m = Mesh(verts, np.array([[0, 1, 2]]))
        for i in range(3):
            dof = np.zeros(3)
            dof[i] = 1.0
            f = CRScalarField(m, dof)
            for j in range(3):
                mid = m.edge_midpoint[j]
                val = evaluate_cr(f, 0, mid)
                assert abs(val - (1.0 if i == j else 0.0)) < 1e-12


def test_partition_of_unity_and_zero_gradient(mesh4):
    f = CRScalarField(mesh4, np.full(mesh4.num_edges, 7.0))
    centroid = mesh4.vertices[mesh4.cells[3]].mean(axis=0)
    assert abs(evaluate_cr(f, 3, centroid) - 7.0) < 1e-13
    assert np.allclose(cr_cell_gradients(mesh4, f.dof)[3], 0.0, atol=1e-12)


def test_linear_reproduction_gradient():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(verts, np.array([[0, 1, 2]]))
    f = cr_interpolate(lambda x, y: x, m)
    assert np.allclose(cr_cell_gradients(m, f.dof)[0], [1.0, 0.0],
                       atol=1e-13)
    g = cr_interpolate(lambda x, y: 2.0 - x + 3.0 * y, m)
    assert np.allclose(cr_cell_gradients(m, g.dof)[0], [-1.0, 3.0],
                       atol=1e-13)


def test_affine_reproduction_pointwise(mesh4):
    f = cr_interpolate(lambda x, y: 1.0 + 2.0 * x - y, mesh4)
    rng = np.random.default_rng(5)
    for k in rng.integers(0, mesh4.num_cells, 5):
        lam = rng.dirichlet(np.ones(3))
        pt = lam @ mesh4.vertices[mesh4.cells[k]]
        assert abs(evaluate_cr(f, int(k), pt)
                   - (1.0 + 2.0 * pt[0] - pt[1])) < 1e-12


def test_evaluate_outside_cell_raises(mesh4):
    f = CRScalarField(mesh4, np.zeros(mesh4.num_edges))
    with pytest.raises(ValueError):
        evaluate_cr(f, 0, np.array([5.0, 5.0]))


def test_midpoint_continuity(mesh4):
    rng = np.random.default_rng(2)
    f = CRScalarField(mesh4, rng.standard_normal(mesh4.num_edges))
    for e in mesh4.interior_edges[:8]:
        kp, km = mesh4.edge_cells[e]
        mid = mesh4.edge_midpoint[e]
        assert abs(evaluate_cr(f, int(kp), mid)
                   - evaluate_cr(f, int(km), mid)) < 1e-12


def test_basis_values_shape():
    bary = np.array([[1 / 3, 1 / 3, 1 / 3]])
    psi = cr_basis_values(bary)
    assert np.allclose(psi, 1.0 / 3.0)


def test_vector_field_flat_interleaving(mesh2):
    # the flat dof vector interleaves the components as vector_indices
    # numbers them
    v = CRVectorField(mesh2)
    v.dof[3, 0] = 1.5
    v.dof[3, 1] = -2.0
    flat = v.dof.reshape(-1)
    assert np.array_equal(flat[asm.vector_indices([3])], [1.5, -2.0])
    assert np.count_nonzero(flat) == 2


def test_p0_zero_mean_helper(mesh4):
    # the layout shifts a pressure to zero area-weighted mean
    dofs = _Dofs(mesh4, asm.ProblemParams(), None, None)
    p = 1.0 + mesh4.vertices[mesh4.cells].mean(axis=1)[:, 0]
    shifted = dofs.zero_mean(p)
    assert abs(mesh4.area_cell @ shifted) < 1e-14
    assert np.allclose(shifted - p, shifted[0] - p[0], atol=1e-14)
