"""Quadrature rules on the reference triangle and the reference edge."""

import numpy as np

__all__ = ["tri_quadrature", "edge_quadrature", "cell_quad_points"]


def tri_quadrature():
    """Six-point degree-4 rule on the reference triangle.

    Returns
    -------
    bary : ndarray (6, 3)
        Barycentric coordinates of the quadrature nodes.
    weights : ndarray (6,)
        Weights summing to 1 (scale by the cell area).
    """
    a1 = 0.445948490915965
    a2 = 0.091576213509771
    w1 = 0.223381589678011
    w2 = 0.109951743655322
    bary = np.array([
        [1 - 2 * a1, a1, a1],
        [a1, 1 - 2 * a1, a1],
        [a1, a1, 1 - 2 * a1],
        [1 - 2 * a2, a2, a2],
        [a2, 1 - 2 * a2, a2],
        [a2, a2, 1 - 2 * a2],
    ])
    weights = np.array([w1, w1, w1, w2, w2, w2])
    return bary, weights


def edge_quadrature():
    """Two-point Gauss rule on [0, 1] (exact for cubics).

    Returns
    -------
    t : ndarray (2,)
        Nodes in (0, 1).
    w : ndarray (2,)
        Weights summing to 1 (scale by the edge length).
    """
    x, w = np.polynomial.legendre.leggauss(2)
    return 0.5 * (x + 1.0), 0.5 * w


def cell_quad_points(mesh, bary):
    """Physical coordinates of barycentric quadrature nodes on every cell.

    Returns an array of shape (nc, nq, 2).
    """
    v = mesh.vertices[mesh.cells]  # (nc, 3, 2)
    return np.einsum("qk,ckd->cqd", bary, v)
