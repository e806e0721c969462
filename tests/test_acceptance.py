"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line.  The expensive convergence studies and
cavity runs are shared through session fixtures; run with ``-s`` to see the
per-criterion lines.
"""

import time

import numpy as np
import pytest

from conftest import make_divfree_field, manufactured_setup
from test_verification import oracle_forcing
from ddopt import assembly as asm
from ddopt.adjoint import TrackingData, solve_adjoint, \
    gradient_of_reduced_cost
from ddopt.cli import RunConfig, run_cavity
from ddopt.control import eval_cost
from ddopt.mesh import build_unit_square_mesh
from ddopt.spaces import P0Field, cr_interpolate, p0_project
from ddopt.state import NonlinearSettings, solve_state
from ddopt.verification import (ManufacturedCase, ERROR_NAMES, eoc,
                                run_convergence_study)

LEVELS = [8, 16, 32, 64]


def _report(num, name, ok, detail=""):
    print("\nACCEPTANCE {:d} {}: {} {}".format(num, name,
                                               "PASS" if ok else "FAIL",
                                               detail))
    assert ok, "criterion {} ({}) failed: {}".format(num, name, detail)


@pytest.fixture(scope="session")
def flow_report():
    t0 = time.time()
    report = run_convergence_study("flow", LEVELS, keep_results=True)
    report.elapsed = time.time() - t0
    return report


@pytest.fixture(scope="session")
def darcy_report():
    return run_convergence_study("darcy", LEVELS, keep_results=True)


@pytest.fixture(scope="session")
def cavity_runs():
    out = {}
    for key, da, bound in (("da3", 1e-3, 0.005), ("da7", 1e-7, 5e-6)):
        cfg = RunConfig({"n": 64, "da": da, "ra": 100, "lbound": -bound,
                         "ubound": bound, "tol": 1e-6, "tol_mode": "rel"})
        out[key] = run_cavity(cfg)
    return out


def test_criterion_1_flow_convergence_rates(flow_report):
    finals = {name: flow_report.rates[name][-1] for name in ERROR_NAMES}
    ok = all(rate >= 0.85 for rate in finals.values())
    detail = " ".join("{}={:.3f}".format(k, v) for k, v in finals.items())
    detail += " runtime={:.0f}s".format(flow_report.elapsed)
    ok = ok and flow_report.elapsed < 600.0
    _report(1, "flow-regime final-pair EOC >= 0.85 within 10 min", ok,
            detail)


def test_criterion_2_exact_divergence(flow_report, darcy_report,
                                      cavity_runs):
    worst = 0.0
    for report in (flow_report, darcy_report):
        for result in report.results:
            u = result.state.u
            bound = 1e-10 * (1.0 + np.abs(u.dof).max())
            worst = max(worst, result.state.max_divergence() / bound)
            phb = 1e-10 * (1.0 + np.abs(result.adjoint.phi.dof).max())
            worst = max(worst, result.adjoint.max_divergence() / phb)
    for res in cavity_runs.values():
        bound = 1e-10 * (1.0 + np.abs(res.state.u.dof).max())
        worst = max(worst, res.state.max_divergence() / bound)
        phb = 1e-10 * (1.0 + np.abs(res.adjoint.phi.dof).max())
        worst = max(worst, res.adjoint.max_divergence() / phb)
    _report(2, "cellwise divergence <= 1e-10 (1 + |u|_inf)", worst <= 1.0,
            "worst ratio {:.2e}".format(worst))


def test_criterion_3_cavity_iteration_counts(cavity_runs):
    it3 = cavity_runs["da3"].iterations
    it7 = cavity_runs["da7"].iterations
    ok = (7 - 3) <= it3 <= (7 + 3) and (8 - 4) <= it7 <= (8 + 4)
    _report(3, "cavity SSN terminates in 7+-3 / 8+-4 iterations", ok,
            "Da=1e-3: {} its, Da=1e-7: {} its (64x64 mesh)".format(it3,
                                                                   it7))


def test_criterion_4_vi_fixed_point(flow_report, darcy_report):
    tol = 1e-6  # study stopping tolerance on the control change
    worst = max(max(flow_report.vi_res), max(darcy_report.vi_res))
    _report(4, "discrete VI fixed point |U - P(-Pi0 phi / lambda)| <= "
               "10 tol", worst <= 10 * tol,
            "worst {:.2e} vs {:.0e}".format(worst, 10 * tol))


def test_criterion_5_gradient_consistency():
    s = manufactured_setup(8)
    mesh = s["mesh"]
    data = TrackingData()  # zero targets keep the cost well scaled
    settings = NonlinearSettings(tol=1e-12)
    area = mesh.area_cell

    def reduced(U):
        sol = solve_state(mesh, s["params"], s["y_bc"], control=U,
                          settings=settings, u_bc=s["u_bc"])
        return eval_cost(sol, U, data, 1.0), sol

    rng = np.random.default_rng(7)
    U0 = rng.uniform(-0.05, 0.2, (mesh.num_cells, 2))
    _, sol0 = reduced(U0)
    adj = solve_adjoint(sol0, data)
    g = gradient_of_reduced_cost(adj, P0Field(mesh, U0), 1.0).dof
    eps = 1e-4
    worst = 0.0
    for _ in range(10):
        d = rng.standard_normal(U0.shape)
        d /= np.sqrt(np.sum(area[:, None] * d ** 2))
        fd = (reduced(U0 + eps * d)[0]
              - reduced(U0 - eps * d)[0]) / (2 * eps)
        an = float(np.sum(area[:, None] * g * d))
        worst = max(worst, abs(fd - an) / abs(fd))
    _report(5, "FD gradient check rel err <= 1e-4 at eps = 1e-4",
            worst <= 1e-4, "worst rel err {:.2e}".format(worst))


def test_criterion_6_forcing_oracle():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.02, 0.98, size=(20, 2))
    case = ManufacturedCase(sigma=1.0, nu2=1.0)
    from ddopt.verification import manufactured_forcing
    worst = 0.0
    for x, y in pts:
        am, at = manufactured_forcing(case, x, y)
        fm, ft = oracle_forcing(case, x, y)
        worst = max(worst,
                    np.abs(am - fm).max() / max(1.0, np.abs(fm).max()),
                    np.abs(at - ft).max() / max(1.0, np.abs(ft).max()))
    _report(6, "strong forcing matches FD oracle to 1e-6 at 20 points",
            worst <= 1e-6, "worst rel err {:.2e}".format(worst))


def test_criterion_7_upwind_positivity():
    mesh = build_unit_square_mesh(8)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(50):
        w = make_divfree_field(mesh, rng)
        N = asm.assemble_upwind_advection(mesh, w)
        for _ in range(2):
            # the form of kron(N, I) on a vector field is the sum of the
            # scalar forms of its two components
            u = rng.standard_normal(2 * mesh.num_edges).reshape(-1, 2)
            q = np.sum(u * (N @ u))
            worst = min(worst, q / np.sum(u * u))
    _report(7, "upwind quadratic form >= -1e-12 |u|^2 on 50 div-free "
               "fields", worst >= -1e-12,
            "worst normalized value {:.2e}".format(worst))


def test_criterion_8_darcy_regime(darcy_report):
    finals = {name: darcy_report.rates[name][-1] for name in ERROR_NAMES}
    ok = finals["e_u"] >= 0.7 and finals["e_phi"] >= 0.7 \
        and all(rate >= 0.7 for rate in finals.values())
    detail = "modified-norm rates e_u={:.3f} e_phi={:.3f}".format(
        finals["e_u"], finals["e_phi"])
    _report(8, "Darcy regime (sigma=1e6, a0=10 sqrt(sigma)) EOC >= 0.7",
            ok, detail)


def test_criterion_9_interpolation_orders():
    case = ManufacturedCase(sigma=1.0, nu2=1.0)
    ey, ep, hs = [], [], []
    for n in LEVELS:
        mesh = build_unit_square_mesh(n)
        y_h = cr_interpolate(lambda x, y: case.y(x, y), mesh)
        from ddopt.verification import _quadrature_error_parts
        _, h1 = _quadrature_error_parts(mesh, y_h.dof, case.y, case.grad_y)
        ey.append(np.sqrt(1000.0 * h1))  # sigma_bar weighting
        p_h = p0_project(lambda x, y: case.p(x, y), mesh)
        from ddopt.quadrature import tri_quadrature, cell_quad_points
        bary, w = tri_quadrature()
        pts = cell_quad_points(mesh, bary)
        wts = w[None, :] * mesh.area_cell[:, None]
        diff = p_h.dof[:, None] - case.p(pts[:, :, 0], pts[:, :, 1])
        ep.append(float(np.sqrt(np.sum(wts * diff ** 2))))
        hs.append(np.sqrt(2) / n)
    ry = eoc(ey, hs)[-1]
    rp = eoc(ep, hs)[-1]
    _report(9, "interpolation orders (CR transported pair, P0 pressure) "
               ">= 0.9", ry >= 0.9 and rp >= 0.9,
            "rate_y={:.3f} rate_p={:.3f}".format(ry, rp))
