"""Triangulations of polygonal domains with full edge/cell adjacency.

Meshes are immutable after construction: all adjacency arrays (edges,
cell-to-edge maps, normals, sizes) are built once in ``__init__`` and the
class exposes them as plain numpy arrays.  What is derived from them (the
CR basis gradients, the edge sets, the edge traces, the degree-4 cell
rule and the index patterns of the assembled blocks) is built on first
use and kept, read-only, with the mesh.
Cells are stored counter-clockwise and edges in canonical order (lower
vertex index first, list sorted lexicographically) so that
degree-of-freedom numbering is reproducible.
"""

from functools import cached_property

import numpy as np
from scipy import sparse as sp

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
    cell_gradients : ndarray (nc, 3, 2)
        Gradient of the CR basis function psi_i on every cell.
    interior_edges, boundary_edges : ndarray of int
        Indices of the interior and the boundary edges.
    edge_traces
        The two-point Gauss rule on every edge, its physical points and the
        CR basis traces there (``_EdgeTraceData``).
    cell_quadrature
        The degree-4 cell rule on every cell (``_CellQuadrature``).
    scatter_plan
        The index patterns of every assembled cell and facet block and
        the order in which their duplicates are summed (``_ScatterPlan``).

    ``cell_gradients`` and the attributes after it are built on first
    access and are read-only.
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

    @cached_property
    def scatter_plan(self):
        return _ScatterPlan(self)

    @cached_property
    def cell_gradients(self):
        """grad psi_i = -2 grad lambda_i, with grad lambda_i the rotated
        opposite edge v_k - v_j over 2|K| (cells are counter-clockwise)."""
        v = self.vertices[self.cells]  # (nc, 3, 2)
        grad_lam = np.empty((self.num_cells, 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            d = v[:, k] - v[:, j]
            grad_lam[:, i, 0] = -d[:, 1]
            grad_lam[:, i, 1] = d[:, 0]
        grad_lam /= (2.0 * self.area_cell)[:, None, None]
        return _frozen(-2.0 * grad_lam)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    @cached_property
    def interior_edges(self):
        return _frozen(np.flatnonzero(~self.boundary_edge))

    @cached_property
    def boundary_edges(self):
        return _frozen(np.flatnonzero(self.boundary_edge))

    @property
    def cell_centroid(self):
        return self.vertices[self.cells].mean(axis=1)

    def __repr__(self):
        return "Mesh({} vertices, {} edges, {} cells)".format(
            self.num_vertices, self.num_edges, self.num_cells)


class _EdgeTraceData:
    """The two-point Gauss rule on every edge and the CR basis traces there.

    ``t`` and ``w`` (nq,) are the nodes on [0, 1] (from the lower vertex)
    and the weights, ``pts`` (ne, nq, 2) the physical nodes.  For every edge
    and each adjacent side, stores the scalar dof (edge) indices of the
    side's three basis functions and their trace values at the nodes.
    """

    def __init__(self, mesh):
        t, w = edge_quadrature()
        nq = t.size
        self.t = t
        self.w = w
        a = mesh.vertices[mesh.edges[:, 0]]
        b = mesh.vertices[mesh.edges[:, 1]]
        self.pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
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
            _frozen(a)


def _frozen(a):
    a.setflags(write=False)
    return a


def _cell_dofs(cell_edges, k=1):
    """Interleaved dofs (nc, 3k) of a k-component CR field on each cell."""
    return (k * cell_edges[:, :, None]
            + np.arange(k, dtype=cell_edges.dtype)).reshape(
                cell_edges.shape[0], -1)


def _cell_pairs(rdofs, cdofs):
    """COO (rows, cols) of cell-local blocks whose rows run over the cell
    dofs ``rdofs`` (nc, a) and columns over ``cdofs`` (nc, b), in that
    order: the index sequence of ``loc.reshape(-1)`` for loc (nc, a, b)."""
    return (np.repeat(rdofs, cdofs.shape[1], axis=1).ravel(),
            np.tile(cdofs, (1, rdofs.shape[1])).ravel())


def _offsets(counts):
    """CSR index pointer (int32) of per-row entry counts."""
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr


class _Pattern:
    """A sorted CSR pattern of the given shape (int32 ``indptr`` and
    ``indices``); a matrix on it is an array of values over its
    entries."""

    def __init__(self, rows, cols, shape):
        """From entries sorted by row, then column, without repeats."""
        self.shape, self.nnz = shape, rows.size
        self.indices = _frozen(cols.astype(np.int32))
        self.indptr = _frozen(_offsets(np.bincount(rows,
                                                   minlength=shape[0])))

    @classmethod
    def union(cls, pairs, shape):
        """The pattern holding every (rows, cols) pair of ``pairs``."""
        keys = np.sort(np.concatenate([r * np.int64(shape[1]) + c
                                       for r, c in pairs]))
        distinct = np.ones(keys.size, dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        return cls(*divmod(keys[distinct], shape[1]), shape)

    @property
    def rows(self):
        return np.repeat(np.arange(self.shape[0], dtype=np.int32),
                         np.diff(self.indptr))

    def positions(self, rows, cols):
        """Entry numbers of (row, col) pairs on the pattern."""
        keys = self.rows * np.int64(self.shape[1]) + self.indices
        return np.searchsorted(keys, rows * np.int64(self.shape[1])
                               + cols).astype(np.int32)

    def entries(self, A):
        """(entry numbers, values) of the stored entries of a sparse
        matrix on the pattern."""
        A = A.tocoo()
        return _frozen(self.positions(A.row, A.col)), _frozen(A.data)

    def mask(self, at):
        """The entries ``at`` as a mask over the pattern."""
        mask = np.zeros(self.nnz, dtype=bool)
        mask[at] = True
        return mask

    def csr(self, values, keep):
        """The CSR matrix of the entries ``keep`` selects."""
        start = np.zeros(self.nnz + 1, dtype=np.int32)
        np.cumsum(keep, out=start[1:])
        return sp.csr_matrix((values[keep], self.indices[keep],
                              start[self.indptr]), shape=self.shape)


def _conversion_order(rows, cols, shape):
    """The entry numbers of an int32 COO index sequence in the order
    ``coo_matrix.tocsr()`` leaves them before it sums the duplicates, with
    their rows and columns (all int32): the entries bucketed by row in
    input order, then each row sorted by scipy's ``sort_indices``, whose
    permutation depends on the column indices alone (not on the values
    carried along, here the entry numbers)."""
    counts = np.bincount(rows, minlength=shape[0])
    order = np.argsort(rows, kind="stable").astype(np.int32)
    T = sp.csr_matrix((order, cols[order], _offsets(counts)), shape=shape)
    T.sort_indices()
    return (T.data, np.repeat(np.arange(shape[0], dtype=np.int32), counts),
            T.indices)


class _Scatter:
    """``coo_matrix((values, (rows, cols))).tocsr()`` for one fixed COO
    index sequence, to the last bit, without the conversion.

    scipy buckets the entries by row in input order, sorts each row by
    column (an unstable sort, whose permutation depends on the indices
    alone) and adds each run of duplicates left to right.  The order is
    recorded once by converting the entry numbers.  With the runs ranked
    by length, the d-th members of the runs longer than d are one slice of
    ``perm``, so ``into`` adds them one depth at a time over a prefix of
    the runs: the same additions in the same order.  The sums land on the
    entries ``at`` of the ``target`` pattern (by default the result's own
    pattern), which ``stored`` marks.
    """

    def __init__(self, rows, cols, shape, target=None):
        perm, rows, cols = _conversion_order(rows, cols, shape)
        start = np.ones(perm.size, dtype=bool)
        start[1:] = (cols[1:] != cols[:-1]) | (rows[1:] != rows[:-1])
        first = np.flatnonzero(start)
        length = np.diff(np.append(first, perm.size))
        rank = np.argsort(-length, kind="stable")
        self.counts = [int(np.count_nonzero(length > d))
                       for d in range(length.max(initial=0))]
        self.perm = _frozen(np.concatenate(
            [perm[first[rank[:k]] + d] for d, k in enumerate(self.counts)]))
        self.target = _Pattern(rows[start], cols[start], shape) \
            if target is None else target
        head = first[rank]
        self.at = _frozen(self.target.positions(rows[head], cols[head]))

    @property
    def stored(self):
        return self.target.mask(self.at)

    def into(self, values):
        """The summed values (in the order of the index sequence, any
        shape) on the target pattern, zero where nothing is stored."""
        values = values.reshape(-1)
        k = self.counts
        sums = values[self.perm[:k[0]]]
        offset = k[0]
        for n in k[1:]:
            sums[:n] += values[self.perm[offset:offset + n]]
            offset += n
        out = np.zeros(self.target.nnz)
        out[self.at] = sums
        return out

    def csr(self, values):
        return self.target.csr(self.into(values), self.stored)


class _ScatterPlan:
    """The index patterns of the assembled blocks on one mesh.

    Each ``_Scatter`` reproduces the COO index sequence its assembly
    builds the values in:

    - ``cell``: scalar cell blocks (nc, 3, 3), the stiffness and the
      volume convection;
    - ``facet``: scalar facet blocks (m, 3, 3), side pair (0, 0) on every
      edge, then (0, 1), (1, 0) and (1, 1) on the interior edges, the
      upwind flux and the jump penalty;
    - ``coupling``: (nc, 3, 2, 3) rows over vector dofs, columns over the
      temperature component, the viscosity coupling;
    - ``advecting``: the advecting-slot linearization with a two-component
      carried field (``_advecting_scatter``).

    The scalar blocks sum onto ``scalar``, the union of the cell and the
    facet pairs, and the vector ones onto ``vector``, the 2 x 2 component
    blocks of the cell pairs and the diagonal components of ``scalar``,
    which hold every block of the state system.  ``transpose`` maps each
    entry of ``scalar`` to its mirror; ``lift`` places scalar values on
    the diagonal components (kron with the 2 x 2 identity).
    """

    def __init__(self, mesh):
        ne = mesh.num_edges
        ce = mesh.cell_edges.astype(np.int32)
        dofs = mesh.edge_traces.dofs.astype(np.int32)
        cell = _cell_pairs(ce, ce)
        facet = [np.concatenate(a) for a in zip(*(
            _cell_pairs(dofs[e, sr], dofs[e, sc])
            for e, sr, sc in _facet_sides(mesh)))]
        self.scalar = S = _Pattern.union([cell, facet], (ne, ne))
        rows = S.rows
        self.transpose = _frozen(S.positions(S.indices, rows))
        c, d = np.divmod(np.arange(4), 2)
        self.vector = V = _Pattern.union(
            [((2 * cell[0][:, None] + c).ravel(),
              (2 * cell[1][:, None] + d).ravel())]
            + [(2 * rows + c, 2 * S.indices + c) for c in range(2)],
            (2 * ne, 2 * ne))
        self._lift = [_frozen(V.positions(2 * rows + c, 2 * S.indices + c))
                      for c in range(2)]
        self.cell = _Scatter(*cell, S.shape, S)
        self.facet = _Scatter(*facet, S.shape, S)
        self.coupling = _Scatter(*_cell_pairs(_cell_dofs(ce, 2), 2 * ce),
                                 V.shape, V)
        self.advecting = _advecting_scatter(mesh, 2, V)

    def lift(self, values):
        """Scalar values as vector values, kron with the 2 x 2 identity."""
        out = np.zeros(self.vector.nnz, dtype=np.asarray(values).dtype)
        for at in self._lift:
            out[at] = values
        return out


def _facet_sides(mesh):
    """(edges, row side, column side) of the facet blocks, in order."""
    interior = mesh.interior_edges
    return [(np.arange(mesh.num_edges), 0, 0), (interior, 0, 1),
            (interior, 1, 0), (interior, 1, 1)]


def _advecting_scatter(mesh, k, target=None):
    """The advecting-slot linearization with a k-component carried field:
    the cell blocks (nc, 3, k, 3, 2), then for each facet side pair with
    edges e and each normal component x the rows (m, 3, k) in column
    2 e + x."""
    ce = mesh.cell_edges.astype(np.int32)
    dofs = mesh.edge_traces.dofs.astype(np.int32)
    rows, cols = ([a] for a in _cell_pairs(_cell_dofs(ce, k),
                                           _cell_dofs(ce, 2)))
    for edges, sr, _ in _facet_sides(mesh):
        r = (k * dofs[edges, sr][:, :, None]
             + np.arange(k, dtype=np.int32)).ravel()
        for x in range(2):
            rows.append(r)
            cols.append(np.repeat(2 * edges.astype(np.int32) + x, 3 * k))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return _Scatter(rows, cols, (k * mesh.num_edges, 2 * mesh.num_edges),
                    target)


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
