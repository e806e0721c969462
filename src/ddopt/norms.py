"""Weighted broken norms of discrete fields.

The velocity norm is ||v||^2 = sum_K sigma ||v||_{0,K}^2 + nu2 ||grad v||^2
and the transport norm sum_K sigma_bar ||grad s||^2.  All terms are exact
for CR fields (diagonal mass, constant gradients).
"""

import numpy as np

from .spaces import cr_cell_gradients

__all__ = ["l2_cr", "h1_semi_cr", "broken_velocity_norm",
           "broken_transport_norm", "l2_p0"]


def l2_cr(mesh, dof):
    """Exact L2 norm of a CR field (scalar or multi-component dofs)."""
    w = mesh.area_cell / 3.0
    local = dof[mesh.cell_edges]
    return float(np.sqrt(np.sum(w[:, None] * np.sum(
        local.reshape(mesh.num_cells, 3, -1) ** 2, axis=2))))


def h1_semi_cr(mesh, dof):
    """Broken H1 seminorm (cellwise constant gradients, exact)."""
    g = cr_cell_gradients(mesh, dof)
    g2 = np.sum(g.reshape(mesh.num_cells, -1) ** 2, axis=1)
    return float(np.sqrt(np.sum(mesh.area_cell * g2)))


def broken_velocity_norm(mesh, dof, sigma, nu2):
    """sqrt(sigma ||v||_0^2 + nu2 |v|_{1,h}^2)."""
    return float(np.sqrt(sigma * l2_cr(mesh, dof) ** 2
                         + nu2 * h1_semi_cr(mesh, dof) ** 2))


def broken_transport_norm(mesh, dof, sigma_bar):
    """sqrt(sigma_bar) |s|_{1,h}."""
    return float(np.sqrt(sigma_bar) * h1_semi_cr(mesh, dof))


def l2_p0(mesh, dof):
    """Exact L2 norm of a piecewise-constant field."""
    d = np.asarray(dof, dtype=float).reshape(mesh.num_cells, -1)
    return float(np.sqrt(np.sum(mesh.area_cell[:, None] * d ** 2)))
