"""Crouzeix-Raviart and piecewise-constant spaces: dofs, bases, interpolation.

The lowest-order Crouzeix-Raviart space carries one degree of freedom per
mesh edge (the value at the edge midpoint, equal to the edge average).  On a
cell the basis function attached to local edge i is

    psi_i = 1 - 2 * lambda_i,

with lambda_i the barycentric coordinate of the vertex opposite edge i, so
psi_i is 1 at the midpoint of edge i and 0 at the other two midpoints.
Vector fields store d = 2 values per edge; in flattened dof vectors the
components are interleaved (global index 2*edge + component).
"""

import numpy as np

__all__ = ["CRScalarField", "CRVectorField", "P0Field", "BoundaryTrace",
           "cr_interpolate", "boundary_interpolate", "p0_project",
           "evaluate_cr", "gradient_cr", "cr_basis_values",
           "cr_values_on_cells", "cr_cell_gradients"]


class CRScalarField:
    """Scalar Crouzeix-Raviart field: one dof per edge."""

    def __init__(self, mesh, dof=None):
        self.mesh = mesh
        if dof is None:
            dof = np.zeros(mesh.num_edges)
        self.dof = np.asarray(dof, dtype=float)
        if self.dof.shape != (mesh.num_edges,):
            raise ValueError("dof length must equal the edge count")

    def copy(self):
        return CRScalarField(self.mesh, self.dof.copy())


class CRVectorField:
    """Vector Crouzeix-Raviart field: two dofs per edge, shape (ne, 2).

    Also used for the transport pair y = (T, S).
    """

    def __init__(self, mesh, dof=None):
        self.mesh = mesh
        if dof is None:
            dof = np.zeros((mesh.num_edges, 2))
        self.dof = np.asarray(dof, dtype=float)
        if self.dof.shape != (mesh.num_edges, 2):
            raise ValueError("dof must have shape (num_edges, 2)")

    def copy(self):
        return CRVectorField(self.mesh, self.dof.copy())

    def flat(self):
        """Interleaved dof vector of length 2*num_edges."""
        return self.dof.reshape(-1)


class P0Field:
    """Piecewise-constant field: one value (or a 2-vector) per cell."""

    def __init__(self, mesh, dof=None):
        self.mesh = mesh
        if dof is None:
            dof = np.zeros(mesh.num_cells)
        self.dof = np.asarray(dof, dtype=float)
        if self.dof.shape[0] != mesh.num_cells:
            raise ValueError("dof length must equal the cell count")

    def copy(self):
        return P0Field(self.mesh, self.dof.copy())

    def weighted_mean(self):
        """Area-weighted mean, zero for admissible pressures."""
        area = self.mesh.area_cell
        return float(np.sum(area * self.dof) / np.sum(area))


class BoundaryTrace:
    """Edge averages of Dirichlet data, defined on boundary edges only.

    Attributes
    ----------
    edges : ndarray of int
        Boundary edge indices on which the trace is prescribed.
    values : ndarray (len(edges),) or (len(edges), 2)
    """

    def __init__(self, mesh, edges, values):
        self.mesh = mesh
        self.edges = np.asarray(edges, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        if np.any(~mesh.boundary_edge[self.edges]):
            raise ValueError("BoundaryTrace may only reference boundary "
                             "edges")
        if self.values.shape[0] != self.edges.shape[0]:
            raise ValueError("one value (row) per referenced edge required")


def cr_basis_values(bary):
    """CR basis values at barycentric points: psi_i = 1 - 2*lambda_i.

    Parameters
    ----------
    bary : ndarray (nq, 3)

    Returns
    -------
    ndarray (nq, 3)
    """
    return 1.0 - 2.0 * np.asarray(bary)


def cr_values_on_cells(mesh, dof, bary):
    """Values of a CR field at barycentric quadrature nodes of every cell.

    Parameters
    ----------
    dof : ndarray (ne,) or (ne, d)
    bary : ndarray (nq, 3)

    Returns
    -------
    ndarray (nc, nq) or (nc, nq, d)
    """
    psi = cr_basis_values(bary)  # (nq, 3)
    local = dof[mesh.cell_edges]  # (nc, 3) or (nc, 3, d)
    if local.ndim == 2:
        return np.einsum("qi,ci->cq", psi, local)
    return np.einsum("qi,cid->cqd", psi, local)


def cr_cell_gradients(mesh, dof):
    """Cellwise constant gradient of a CR field.

    Returns (nc, 2) for scalar dofs or (nc, d, 2) for (ne, d) dofs, where
    entry [K, c] is grad of component c.
    """
    grads = mesh.cell_gradients
    local = dof[mesh.cell_edges]
    if local.ndim == 2:
        return np.einsum("ci,cix->cx", local, grads)
    return np.einsum("cid,cix->cdx", local, grads)


def _point_values(f, x, y):
    """f at the points (x, y) as scalar values of x's shape s, or as
    component values of shape s + (k,).

    The one reader of a user function's output: every load, target,
    interpolant and exact solution is sampled here.  f returns a scalar
    array, or k components as a tuple or as an array stacked on the
    leading axis (k,) + s; constants broadcast.  A stacked array is told
    from s + (k,) values by its trailing shape, so where both match it is
    read as stacked, as documented.
    """
    v = f(x, y)
    if isinstance(v, (tuple, list)):
        v = np.stack([np.broadcast_to(c, x.shape) for c in v])
    v = np.asarray(v, dtype=float)
    if v.ndim > x.ndim and v.shape[1:] == x.shape:
        v = np.moveaxis(v, 0, -1)
    return np.broadcast_to(v, x.shape + v.shape[x.ndim:])


def _edge_averages(f, mesh, edges):
    """Averages of f over ``edges`` by the mesh's two-point Gauss rule."""
    td = mesh.edge_traces
    p = td.pts[edges]
    fv = _point_values(f, p[..., 0], p[..., 1])
    return td.w[0] * fv[:, 0] + td.w[1] * fv[:, 1]


def cr_interpolate(f, mesh):
    """Nonconforming interpolation: dof per edge is the edge average of f.

    Edge averages are computed with a two-point Gauss rule (exact for
    cubics).

    Parameters
    ----------
    f : callable
        f(x, y) with array arguments; returns a scalar array or two
        components (see ``_point_values``).
    mesh : Mesh

    Returns
    -------
    CRScalarField or CRVectorField
    """
    acc = _edge_averages(f, mesh, slice(None))
    if acc.ndim == 1:
        return CRScalarField(mesh, acc)
    return CRVectorField(mesh, acc)


def boundary_interpolate(g, mesh, edges=None):
    """Edge averages of boundary data on (a subset of) boundary edges.

    Parameters
    ----------
    g : callable
        g(x, y), scalar or 2-component as in ``cr_interpolate``.
    edges : ndarray of int, optional
        Boundary edges to use; defaults to all of them.

    Returns
    -------
    BoundaryTrace
    """
    if edges is None:
        edges = mesh.boundary_edges
    edges = np.asarray(edges, dtype=np.int64)
    return BoundaryTrace(mesh, edges, _edge_averages(g, mesh, edges))


def p0_project(source, mesh):
    """Cellwise L2 projection onto piecewise constants (cell averages).

    For a CR field the average of the affine function is its centroid value,
    computed exactly as the mean of the three edge dofs.  For a callable the
    average is computed with the mesh's degree-4 cell rule.

    Returns
    -------
    P0Field
    """
    if isinstance(source, (CRScalarField, CRVectorField)):
        vals = source.dof[mesh.cell_edges].mean(axis=1)
        return P0Field(mesh, vals)
    if isinstance(source, P0Field):
        return source.copy()
    q = mesh.cell_quadrature
    acc = None
    for k, w in enumerate(q.w):
        fv = _point_values(source, q.pts[:, k, 0], q.pts[:, k, 1])
        acc = w * fv if acc is None else acc + w * fv
    return P0Field(mesh, acc)


def _barycentric(mesh, cell, point):
    v = mesh.vertices[mesh.cells[cell]]
    T = np.column_stack([v[1] - v[0], v[2] - v[0]])
    lam12 = np.linalg.solve(T, np.asarray(point, dtype=float) - v[0])
    return np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])


def evaluate_cr(field, cell, point):
    """Evaluate a CR field inside one cell.

    Raises
    ------
    ValueError
        If the point lies outside the (closed) cell.
    """
    lam = _barycentric(field.mesh, cell, point)
    if np.any(lam < -1e-12) or np.any(lam > 1 + 1e-12):
        raise ValueError("point {} is outside cell {}".format(point, cell))
    psi = 1.0 - 2.0 * lam
    local = field.dof[field.mesh.cell_edges[cell]]
    return psi @ local


def gradient_cr(field, cell):
    """Constant gradient of a CR field on one cell.

    Returns a 2-vector for scalar fields and a (2, 2) array (rows are
    component gradients) for vector fields.
    """
    grads = field.mesh.cell_gradients[cell]  # (3, 2)
    local = field.dof[field.mesh.cell_edges[cell]]
    if local.ndim == 1:
        return local @ grads
    return np.einsum("id,ix->dx", local, grads)
