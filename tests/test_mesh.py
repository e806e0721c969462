import numpy as np
import pytest

from ddopt.mesh import Mesh, build_unit_square_mesh, refine_uniform, \
    mesh_stats


def euler(mesh):
    return mesh.num_vertices - mesh.num_edges + mesh.num_cells


def test_unit_square_counts_n1():
    m = build_unit_square_mesh(1)
    assert (m.num_vertices, m.num_edges, m.num_cells) == (4, 5, 2)
    assert euler(m) == 1


def test_unit_square_counts_n2():
    m = build_unit_square_mesh(2)
    assert (m.num_vertices, m.num_edges, m.num_cells) == (9, 16, 8)
    assert abs(m.area_cell.sum() - 1.0) < 1e-12
    assert euler(m) == 1


def test_unit_square_counts_n150():
    m = build_unit_square_mesh(150)
    assert m.num_cells == 2 * 150 ** 2 == 45000
    assert euler(m) == 1
    assert abs(m.area_cell.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("bad", [0, -3])
def test_invalid_subdivision_count(bad):
    with pytest.raises(ValueError):
        build_unit_square_mesh(bad)


def test_cells_ccw_positive_area():
    m = build_unit_square_mesh(5)
    assert np.all(m.area_cell > 0)


def test_refine_counts_and_h():
    m = build_unit_square_mesh(1)
    r = refine_uniform(m)
    assert r.num_cells == 8
    assert abs(r.h_cell.max() - m.h_cell.max() / 2) < 1e-14
    rr = refine_uniform(r)
    assert rr.num_cells == 32
    assert abs(rr.area_cell.sum() - 1.0) < 1e-12
    assert euler(rr) == 1


def test_refinement_nesting():
    m = build_unit_square_mesh(2)
    r = refine_uniform(m)
    # each child's vertices lie inside (or on) some parent cell
    parents = m.vertices[m.cells]
    for child in r.cells[:12]:
        pts = r.vertices[child]
        inside_some = False
        for tri in parents:
            T = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
            lam = np.linalg.solve(T, (pts - tri[0]).T)
            lam = np.vstack([1 - lam.sum(axis=0), lam])
            if np.all(lam > -1e-12):
                inside_some = True
                break
        assert inside_some


def test_stats_values():
    assert abs(mesh_stats(build_unit_square_mesh(1))["h_max"]
               - np.sqrt(2)) < 1e-14
    assert abs(mesh_stats(build_unit_square_mesh(2))["h_max"]
               - np.sqrt(2) / 2) < 1e-14
    st = mesh_stats(build_unit_square_mesh(3))
    assert abs(st["min_angle"] - np.pi / 4) < 1e-12
    assert st["cell_count"] == 18


def test_adjacency_round_trip():
    m = build_unit_square_mesh(4)
    for k in range(m.num_cells):
        for e in m.cell_edges[k]:
            assert k in m.edge_cells[e]
    counts = np.sum(m.edge_cells >= 0, axis=1)
    assert np.all(counts[m.boundary_edge] == 1)
    assert np.all(counts[~m.boundary_edge] == 2)


def test_normal_orientation():
    m = build_unit_square_mesh(3)
    cent = m.vertices[m.cells].mean(axis=1)
    interior = m.interior_edges
    toward_minus = cent[m.edge_cells[interior, 1]] \
        - cent[m.edge_cells[interior, 0]]
    assert np.all(np.sum(m.edge_normal[interior] * toward_minus,
                         axis=1) > 0)
    # outward on the boundary
    bdry = m.boundary_edges
    outward = m.edge_midpoint[bdry] - cent[m.edge_cells[bdry, 0]]
    assert np.all(np.sum(m.edge_normal[bdry] * outward, axis=1) > 0)


def test_shape_regularity_constant_under_refinement():
    def ratio(mesh):
        # h_K / rho_K with rho_K = 2 * area / perimeter (inradius diameter)
        per = mesh.h_edge[mesh.cell_edges].sum(axis=1)
        rho = 2.0 * (2.0 * mesh.area_cell / per)
        return (mesh.h_cell / rho).max()

    m = build_unit_square_mesh(2)
    r0 = ratio(m)
    for _ in range(2):
        m = refine_uniform(m)
        assert abs(ratio(m) - r0) < 1e-12


def test_cell_edges_opposite_vertex_convention():
    m = build_unit_square_mesh(1)
    for k in range(m.num_cells):
        for i in range(3):
            edge = m.edges[m.cell_edges[k, i]]
            assert m.cells[k, i] not in edge


def test_requires_ccw():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Mesh(verts, np.array([[0, 2, 1]]))


def _barycentric(tri, pts):
    T = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=2)
    lam = np.linalg.solve(T, (pts - tri[:, 0])[..., None])[..., 0]
    return np.column_stack([1.0 - lam.sum(axis=1), lam])


@pytest.mark.parametrize("n", [2, 6])
def test_parent_maps_cells_and_edge_halves(n):
    # each child cell lies in its parent cell, four to a parent; each
    # parent edge has two child halves, with midpoints at 1/4 and 3/4
    child = build_unit_square_mesh(n)
    parent = child.parent
    coarse = parent.mesh
    assert child.parent is parent and coarse.num_cells * 4 == child.num_cells
    centroid = child.vertices[child.cells].mean(axis=1)
    lam = _barycentric(coarse.vertices[coarse.cells[parent.cell]], centroid)
    assert np.all(lam > 1e-12)
    assert np.all(np.bincount(parent.cell) == 4)
    half = np.flatnonzero(parent.edge >= 0)
    assert np.all(np.bincount(parent.edge[half]) == 2)
    ends = coarse.vertices[coarse.edges[parent.edge[half]]]
    d, x = ends[:, 1] - ends[:, 0], child.edge_midpoint[half] - ends[:, 0]
    t = np.sum(x * d, axis=1) / np.sum(d * d, axis=1)
    assert np.all(np.isclose(t, 0.25, atol=1e-12)
                  | np.isclose(t, 0.75, atol=1e-12))
    assert np.allclose(x[:, 0] * d[:, 1], x[:, 1] * d[:, 0], atol=1e-15)
    assert np.all(parent.edge[child.boundary_edges] >= 0)
    assert np.all(coarse.boundary_edge[parent.edge[child.boundary_edges]])


def test_only_even_unit_square_meshes_have_a_parent():
    assert build_unit_square_mesh(5).parent is None
    assert refine_uniform(build_unit_square_mesh(2)).parent is None
    assert build_unit_square_mesh(4).parent.mesh.num_cells == 8
