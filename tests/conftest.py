import numpy as np
import pytest
from scipy import sparse as sp
from scipy.sparse.linalg import spsolve

from ddopt import assembly as asm
from ddopt.mesh import build_unit_square_mesh
from ddopt.spaces import boundary_interpolate
from ddopt.verification import (REGIMES, make_params, manufactured_forcing,
                                tracking_data)


@pytest.fixture(scope="session")
def mesh2():
    return build_unit_square_mesh(2)


@pytest.fixture(scope="session")
def mesh4():
    return build_unit_square_mesh(4)


@pytest.fixture(scope="session")
def mesh8():
    return build_unit_square_mesh(8)


def make_divfree_field(mesh, rng):
    """Random exactly divergence-free CR velocity with zero boundary dofs.

    L2-projects a random interior field onto the discrete divergence-free
    kernel through the saddle system [I, B^T; B, 0].
    """
    interior = mesh.interior_edges
    iu = asm.vector_indices(interior)
    B = asm.assemble_divergence(mesh)[:, iu]
    n = iu.size
    sad = sp.bmat([[sp.eye(n), B.T], [B, None]], format="csc")
    w0 = rng.standard_normal(n)
    sol = spsolve(sad, np.concatenate([w0, np.zeros(mesh.num_cells)]))
    w = np.zeros((mesh.num_edges, 2))
    w[interior] = sol[:n].reshape(-1, 2)
    return w


def manufactured_setup(n, case=REGIMES["flow"]):
    """Mesh, parameters, boundary data and forcing of the accuracy test
    for the manufactured ``case``."""
    params = make_params(case)
    mesh = build_unit_square_mesh(n)
    y_bc = boundary_interpolate(lambda x, y: case.y(x, y), mesh)
    u_bc = boundary_interpolate(lambda x, y: case.u(x, y), mesh)

    def f_mom(x, y):
        return manufactured_forcing(case, x, y)[0]

    def f_tr(x, y):
        return manufactured_forcing(case, x, y)[1]

    return {"case": case, "params": params, "mesh": mesh, "y_bc": y_bc,
            "u_bc": u_bc, "f_mom": f_mom, "f_tr": f_tr,
            "data": tracking_data(case)}
