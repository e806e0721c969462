"""Triangulations of polygonal domains with full edge/cell adjacency.

Meshes are immutable after construction: all adjacency arrays (edges,
cell-to-edge maps, normals, sizes) are built once in ``__init__`` and the
class exposes them as plain numpy arrays; the edge traces of the CR basis
and the degree-4 cell rule are built on first use and kept with the mesh.
Cells are stored counter-clockwise and edges in canonical order (lower
vertex index first, list sorted lexicographically) so that
degree-of-freedom numbering is reproducible.
"""

from functools import cached_property

import numpy as np

from .quadrature import cell_quad_points, edge_quadrature, tri_quadrature
from .spaces import cr_basis_values

__all__ = ["Mesh", "build_unit_square_mesh", "refine_uniform", "mesh_stats",
           "dump_ascii"]


class Mesh:
    """Conforming triangulation with edge and cell adjacency data.

    Attributes
    ----------
    vertices : ndarray (nv, 2)
        Vertex coordinates.
    cells : ndarray (nc, 3) of int
        Vertex indices per triangle, counter-clockwise.
    edges : ndarray (ne, 2) of int
        Vertex pairs, lower index first, sorted lexicographically.
    cell_edges : ndarray (nc, 3) of int
        Edge index opposite each local vertex.
    cell_edge_signs : ndarray (nc, 3) of int
        +1 if the local edge direction (v_{i+1} -> v_{i+2}) agrees with the
        canonical direction of the global edge, else -1.
    edge_cells : ndarray (ne, 2) of int
        Adjacent cells (cell_plus, cell_minus); cell_minus is -1 on the
        boundary.  cell_plus is the lower cell index.
    boundary_edge : ndarray (ne,) of bool
        True for boundary edges.
    edge_normal : ndarray (ne, 2)
        Unit normal per edge, oriented from cell_plus to cell_minus
        (outward on the boundary).
    edge_midpoint : ndarray (ne, 2)
    h_edge : ndarray (ne,)
        Edge lengths.
    h_cell : ndarray (nc,)
        Cell diameters (longest edge).
    area_cell : ndarray (nc,)
    edge_traces
        CR basis traces at the edge quadrature points (``_EdgeTraceData``),
        built on first access.
    cell_quadrature
        The degree-4 cell rule on every cell (``_CellQuadrature``), built
        on first access.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (nv, 2)")
        if self.cells.ndim != 2 or self.cells.shape[1] != 3:
            raise ValueError("cells must have shape (nc, 3)")

        v = self.vertices
        c = self.cells
        e1 = v[c[:, 1]] - v[c[:, 0]]
        e2 = v[c[:, 2]] - v[c[:, 0]]
        signed = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        if np.any(signed <= 0):
            raise ValueError("all cells must be counter-clockwise with "
                             "positive area")
        self.area_cell = signed

        # local edge i is opposite local vertex i
        raw = np.stack([c[:, [1, 2]], c[:, [2, 0]], c[:, [0, 1]]], axis=1)
        canon = np.sort(raw.reshape(-1, 2), axis=1)
        self.edges, inv = np.unique(canon, axis=0, return_inverse=True)
        self.cell_edges = inv.reshape(-1, 3)
        local_lo = np.minimum(raw[:, :, 0], raw[:, :, 1])
        self.cell_edge_signs = np.where(raw[:, :, 0] == local_lo, 1, -1)

        ne = self.edges.shape[0]
        nc = c.shape[0]
        self.edge_cells = np.full((ne, 2), -1, dtype=np.int64)
        order = np.argsort(self.cell_edges.ravel(), kind="stable")
        cell_of = np.repeat(np.arange(nc), 3)[order]
        edge_of = self.cell_edges.ravel()[order]
        first = np.ones(edge_of.size, dtype=bool)
        first[1:] = edge_of[1:] != edge_of[:-1]
        self.edge_cells[edge_of[first], 0] = cell_of[first]
        second = ~first
        self.edge_cells[edge_of[second], 1] = cell_of[second]
        if np.any(np.bincount(edge_of) > 2):
            raise ValueError("non-manifold edge: more than two adjacent "
                             "cells")
        self.boundary_edge = self.edge_cells[:, 1] < 0

        tang = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.h_edge = np.hypot(tang[:, 0], tang[:, 1])
        self.edge_midpoint = 0.5 * (v[self.edges[:, 0]] + v[self.edges[:, 1]])
        normal = np.column_stack([tang[:, 1], -tang[:, 0]]) \
            / self.h_edge[:, None]
        centroid = v[c].mean(axis=1)
        toward_plus = centroid[self.edge_cells[:, 0]] - self.edge_midpoint
        flip = np.sum(normal * toward_plus, axis=1) > 0
        normal[flip] *= -1.0
        self.edge_normal = normal

        lengths = self.h_edge[self.cell_edges]
        self.h_cell = lengths.max(axis=1)

    @cached_property
    def edge_traces(self):
        return _EdgeTraceData(self)

    @cached_property
    def cell_quadrature(self):
        return _CellQuadrature(self)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @property
    def interior_edges(self):
        """Indices of interior edges."""
        return np.flatnonzero(~self.boundary_edge)

    @property
    def boundary_edges(self):
        """Indices of boundary edges."""
        return np.flatnonzero(self.boundary_edge)

    @property
    def cell_centroid(self):
        return self.vertices[self.cells].mean(axis=1)

    def __repr__(self):
        return "Mesh({} vertices, {} edges, {} cells)".format(
            self.num_vertices, self.num_edges, self.num_cells)


class _EdgeTraceData:
    """Per-edge trace values of the CR basis at the edge quadrature points.

    For every edge and each adjacent side, stores the scalar dof (edge)
    indices of the side's three basis functions and their trace values at
    the edge quadrature points.
    """

    def __init__(self, mesh, nq=2):
        t, w = edge_quadrature(nq)
        self.t = t
        self.w = w
        ne = mesh.num_edges
        self.dofs = np.full((ne, 2, 3), -1, dtype=np.int64)
        self.psi = np.zeros((ne, 2, nq, 3))
        for side in range(2):
            cells_s = mesh.edge_cells[:, side]
            valid = np.flatnonzero(cells_s >= 0)
            cs = cells_s[valid]
            ce = mesh.cell_edges[cs]                 # (m, 3)
            pos = np.argmax(ce == valid[:, None], axis=1)
            j = (pos + 1) % 3
            # parameter s measured from local vertex j toward k
            vj = mesh.cells[cs, j]
            same = vj == mesh.edges[valid, 0]
            s = np.where(same[:, None], t[None, :], 1.0 - t[None, :])
            m = valid.size
            psi = np.zeros((m, nq, 3))
            ar = np.arange(m)
            psi[ar, :, pos] = 1.0
            psi[ar, :, j] = 2.0 * s - 1.0
            psi[ar, :, (pos + 2) % 3] = 1.0 - 2.0 * s
            self.dofs[valid, side] = ce
            self.psi[valid, side] = psi
        # int_e psi_i psi_j for the four side pairings, shape (ne, 2, 2, 3, 3)
        self.pairs = np.einsum("q,esqi,erqj,e->esrij", w, self.psi, self.psi,
                               mesh.h_edge)


class _CellQuadrature:
    """The six-point degree-4 rule on every cell, all arrays read-only.

    ``bary`` (nq, 3) and ``w`` (nq,) are the reference nodes and weights,
    ``psi`` (nq, 3) the CR basis values at the nodes, ``pts`` (nc, nq, 2)
    the physical nodes and ``wts`` (nc, nq) the weights scaled by the cell
    areas.
    """

    def __init__(self, mesh):
        self.bary, self.w = tri_quadrature()
        self.psi = cr_basis_values(self.bary)
        self.pts = cell_quad_points(mesh, self.bary)
        self.wts = self.w[None, :] * mesh.area_cell[:, None]
        for a in (self.bary, self.w, self.psi, self.pts, self.wts):
            a.setflags(write=False)


def build_unit_square_mesh(n):
    """Structured triangulation of the unit square.

    The square is divided into ``n x n`` subsquares, each split into two
    triangles by the diagonal running from the lower-left to the upper-right
    corner (fixed direction for determinism across refinement levels).

    Parameters
    ----------
    n : int
        Number of subsquares per side, n >= 1.

    Returns
    -------
    Mesh
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("n must be a positive integer, got {!r}".format(n))
    n = int(n)
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    i = i.ravel()
    j = j.ravel()
    v00 = vid(i, j)
    v10 = vid(i + 1, j)
    v01 = vid(i, j + 1)
    v11 = vid(i + 1, j + 1)
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    cells = np.vstack([lower, upper])
    return Mesh(vertices, cells)


def refine_uniform(mesh):
    """Red refinement: split every triangle into four congruent children.

    New vertices are the edge midpoints, so the mesh size halves exactly.

    Parameters
    ----------
    mesh : Mesh

    Returns
    -------
    Mesh
    """
    nv = mesh.num_vertices
    new_vertices = np.vstack([mesh.vertices, mesh.edge_midpoint])
    c = mesh.cells
    m = nv + mesh.cell_edges  # midpoint vertex of edge opposite vertex i
    children = np.vstack([
        np.column_stack([c[:, 0], m[:, 2], m[:, 1]]),
        np.column_stack([c[:, 1], m[:, 0], m[:, 2]]),
        np.column_stack([c[:, 2], m[:, 1], m[:, 0]]),
        np.column_stack([m[:, 0], m[:, 1], m[:, 2]]),
    ])
    return Mesh(new_vertices, children)


def mesh_stats(mesh):
    """Global mesh quantities.

    Returns
    -------
    dict
        ``h_max`` (largest cell diameter), ``min_angle`` (radians),
        ``cell_count`` and ``edge_count``.
    """
    v = mesh.vertices
    c = mesh.cells
    min_angle = np.pi
    for k in range(3):
        a = v[c[:, (k + 1) % 3]] - v[c[:, k]]
        b = v[c[:, (k + 2) % 3]] - v[c[:, k]]
        cosang = np.sum(a * b, axis=1) / (
            np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1]))
        min_angle = min(min_angle, np.arccos(np.clip(cosang, -1, 1)).min())
    return {
        "h_max": float(mesh.h_cell.max()),
        "min_angle": float(min_angle),
        "cell_count": mesh.num_cells,
        "edge_count": mesh.num_edges,
    }


def dump_ascii(mesh, stream):
    """Write a plain-text mesh listing ('v x y' and 'c i j k' lines)."""
    for x, y in mesh.vertices:
        stream.write("v {:.17g} {:.17g}\n".format(x, y))
    for i, j, k in mesh.cells:
        stream.write("c {} {} {}\n".format(i, j, k))
