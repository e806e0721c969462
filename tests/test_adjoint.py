import numpy as np
import pytest

from conftest import manufactured_setup
from ddopt import assembly as asm
from ddopt.adjoint import (AdjointSolution, TrackingData, solve_adjoint,
                           gradient_of_reduced_cost)
from ddopt.control import eval_cost
from ddopt.norms import broken_velocity_norm, l2_cr
from ddopt.spaces import CRVectorField, P0Field, cr_interpolate, \
    p0_project
from ddopt.state import NonlinearSettings, solve_state


def _state(n, tol=1e-10):
    s = manufactured_setup(n)
    sol = solve_state(s["mesh"], s["params"], s["y_bc"], u_bc=s["u_bc"],
                      forcing_mom=s["f_mom"], forcing_tr=s["f_tr"],
                      settings=NonlinearSettings(tol=tol))
    return s, sol


def test_zero_rhs_gives_zero_adjoint():
    s, sol = _state(8)
    data = TrackingData(u_d=sol.u, y_d=sol.y)
    adj = solve_adjoint(sol, data)
    assert np.abs(adj.phi.dof).max() < 1e-13
    assert np.abs(adj.eta.dof).max() < 1e-13
    assert np.abs(adj.xi.dof).max() < 1e-12


def test_adjoint_linearity_in_data():
    s, sol = _state(8)

    class Scaled:
        def __init__(self, dof):
            self.dof = dof
    # u_d = -u_h doubles the residual u_h - u_d
    data1 = TrackingData()
    data2 = TrackingData(u_d=Scaled(-sol.u.dof), y_d=Scaled(-sol.y.dof))
    a1 = solve_adjoint(sol, data1)
    a2 = solve_adjoint(sol, data2)
    assert np.allclose(a2.phi.dof, 2 * a1.phi.dof, atol=1e-10)
    assert np.allclose(a2.eta.dof, 2 * a1.eta.dof, atol=1e-10)


def test_adjoint_divergence_free():
    s, sol = _state(16)
    adj = solve_adjoint(sol, s["data"])
    phimax = np.abs(adj.phi.dof).max()
    assert adj.max_divergence() <= 1e-10 * (1.0 + phimax)
    assert np.abs(adj.phi.dof[s["mesh"].boundary_edges]).max() == 0.0
    assert np.abs(adj.eta.dof[s["mesh"].boundary_edges]).max() == 0.0


def test_adjoint_energy_bound_h_uniform():
    ratios = []
    for n in (8, 16):
        s, sol = _state(n)
        adj = solve_adjoint(sol, s["data"])
        num = broken_velocity_norm(s["mesh"], adj.phi.dof,
                                   s["params"].sigma, s["params"].nu2)
        bary_track = asm.tracking_cost(s["mesh"], sol.u.dof,
                                       s["data"].u_d)
        y_track = asm.tracking_cost(s["mesh"], sol.y.dof, s["data"].y_d)
        den = np.sqrt(2 * bary_track) + np.sqrt(2 * y_track)
        ratios.append(num / den)
    assert ratios[1] < 1.25 * ratios[0]


def test_buoyancy_block_is_transpose_of_state_coupling(mesh4):
    # with affine buoyancy, the adjoint coupling ((F_y)^T phi, s) is the
    # transpose of the state block (F_y y, v)
    from ddopt.assembly import ProblemParams
    Fy = np.array([[0.0, 0.0], [1.0, 0.5]])
    params = ProblemParams(F_y=Fy)
    MF = asm.assemble_buoyancy_coupling(mesh4, params)
    rng = np.random.default_rng(1)
    phi = rng.standard_normal(2 * mesh4.num_edges)
    s = rng.standard_normal(2 * mesh4.num_edges)
    # oracle: quadrature of (F_y^T phi) . s
    from ddopt.quadrature import tri_quadrature
    from ddopt.spaces import cr_values_on_cells
    _, w = tri_quadrature()  # the rule cr_values_on_cells samples at
    pv = cr_values_on_cells(mesh4, phi.reshape(-1, 2))
    sv = cr_values_on_cells(mesh4, s.reshape(-1, 2))
    wts = w[None, :] * mesh4.area_cell[:, None]
    oracle = np.einsum("cq,cqi,ij,cqj->", wts, pv, Fy, sv)
    assert s @ (MF.T @ phi) == pytest.approx(oracle, rel=1e-12)


def test_gradient_formula_trivial_cases(mesh4):
    adj = AdjointSolution(phi=CRVectorField(mesh4), xi=P0Field(mesh4),
                          eta=CRVectorField(mesh4),
                          xi_raw=np.zeros(mesh4.num_cells))
    U = np.full((mesh4.num_cells, 2), 0.7)
    g = gradient_of_reduced_cost(adj, P0Field(mesh4, U), 2.0)
    assert np.allclose(g.dof, 1.4, atol=1e-14)
    # phi constant c: cell averages are c
    adj.phi.dof[:] = (0.3, -0.1)
    g = gradient_of_reduced_cost(adj, P0Field(mesh4, 0.0 * U), 1.0)
    assert np.allclose(g.dof, [0.3, -0.1], atol=1e-13)


def test_gradient_matches_finite_differences():
    # well-scaled reduced cost: zero targets, random interior control
    s = manufactured_setup(8)
    mesh = s["mesh"]
    data = TrackingData()
    settings = NonlinearSettings(tol=1e-12)
    area = mesh.area_cell

    def reduced(U):
        sol = solve_state(mesh, s["params"], s["y_bc"], control=U,
                          settings=settings, u_bc=s["u_bc"])
        return eval_cost(sol, U, data, 1.0), sol

    rng = np.random.default_rng(7)
    U0 = rng.uniform(-0.05, 0.2, (mesh.num_cells, 2))
    J0, sol0 = reduced(U0)
    adj = solve_adjoint(sol0, data)
    g = gradient_of_reduced_cost(adj, P0Field(mesh, U0), 1.0).dof
    eps = 1e-4
    for _ in range(3):
        d = rng.standard_normal(U0.shape)
        d /= np.sqrt(np.sum(area[:, None] * d ** 2))
        fd = (reduced(U0 + eps * d)[0] - reduced(U0 - eps * d)[0]) / (2 * eps)
        an = float(np.sum(area[:, None] * g * d))
        assert abs(fd - an) <= 1e-4 * abs(fd)


def test_adjoint_rejects_nan_state():
    s, sol = _state(8)
    sol.u.dof[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve_adjoint(sol, s["data"])


def test_adjoint_manufactured_convergence():
    errs = []
    hs = []
    for n in (8, 16):
        s = manufactured_setup(n)
        U = p0_project(lambda x, y: s["case"].U(x, y), s["mesh"])
        sol = solve_state(s["mesh"], s["params"], s["y_bc"], control=U,
                          u_bc=s["u_bc"], forcing_mom=s["f_mom"],
                          forcing_tr=s["f_tr"])
        adj = solve_adjoint(sol, s["data"])
        exact = cr_interpolate(lambda x, y: s["case"].phi(x, y),
                               s["mesh"])
        diff = adj.phi.dof - exact.dof
        errs.append(l2_cr(s["mesh"], diff))
        hs.append(np.sqrt(2) / n)
    rate = np.log(errs[0] / errs[1]) / np.log(hs[0] / hs[1])
    assert rate > 0.9
