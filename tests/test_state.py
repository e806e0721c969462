import gc
import weakref

import numpy as np
import pytest

from conftest import manufactured_setup
from ddopt import assembly as asm
from ddopt import cli, linalg
from ddopt.assembly import ProblemParams
from ddopt.linalg import LinearSolveError, SingularMatrixError
from ddopt.mesh import build_unit_square_mesh
from ddopt.norms import broken_velocity_norm
from ddopt.spaces import CRVectorField, P0Field, boundary_interpolate, \
    p0_project
from ddopt.state import (NonlinearSettings, NonconvergenceError,
                         StateSolution, StateStepper, solve_state,
                         state_residual)


def test_settings_validation():
    for kwargs in ({"tol": 0.0}, {"max_iter": 0}):
        with pytest.raises(ValueError):
            NonlinearSettings(**kwargs)


def test_zero_data_gives_zero_solution(mesh8):
    params = ProblemParams(sigma=1.0, nu1=1.0, nu2=1.0)
    sol = solve_state(mesh8, params, y_bc=None)
    assert sol.iterations <= 2
    assert np.abs(sol.u.dof).max() == 0.0
    assert np.abs(sol.y.dof).max() == 0.0
    assert np.abs(sol.p.dof).max() < 1e-14


def test_manufactured_state_finite_and_divfree():
    s = manufactured_setup(16)
    U = p0_project(lambda x, y: s["case"].U(x, y), s["mesh"])
    sol = solve_state(s["mesh"], s["params"], s["y_bc"], control=U,
                      u_bc=s["u_bc"], forcing_mom=s["f_mom"],
                      forcing_tr=s["f_tr"])
    assert np.all(np.isfinite(sol.u.dof))
    umax = np.abs(sol.u.dof).max()
    assert sol.max_divergence() <= 1e-10 * (1.0 + umax)
    # fields stay near the exact ranges
    assert umax < 2.0
    assert 0.4 < sol.y.dof[:, 0].max() <= 1.1


def test_dirichlet_exactness():
    s = manufactured_setup(8)
    sol = solve_state(s["mesh"], s["params"], s["y_bc"], u_bc=s["u_bc"])
    mesh = s["mesh"]
    # transported pair matches the prescribed edge averages exactly
    pos = {int(e): k for k, e in enumerate(s["y_bc"].edges)}
    for e in mesh.boundary_edges:
        assert np.allclose(sol.y.dof[e], s["y_bc"].values[pos[int(e)]],
                           atol=1e-13)
    # velocity boundary dofs equal the flux-balanced data: the correction
    # is a uniform normal shift of size |net flux| / perimeter
    vals = np.zeros((mesh.boundary_edges.size, 2))
    upos = {int(e): k for k, e in enumerate(s["u_bc"].edges)}
    for k, e in enumerate(mesh.boundary_edges):
        vals[k] = s["u_bc"].values[upos[int(e)]]
    n = mesh.edge_normal[mesh.boundary_edges]
    h = mesh.h_edge[mesh.boundary_edges]
    flux = np.sum(h * np.sum(vals * n, axis=1))
    assert np.allclose(sol.u.dof[mesh.boundary_edges],
                       vals - (flux / h.sum()) * n, atol=1e-13)
    assert abs(flux) / h.sum() < 1e-6


def test_picard_contraction():
    s = manufactured_setup(8)
    sol = solve_state(s["mesh"], s["params"], s["y_bc"], u_bc=s["u_bc"],
                      forcing_mom=s["f_mom"], forcing_tr=s["f_tr"])
    inc = sol.increments
    assert all(b < a for a, b in zip(inc[1:-1], inc[2:]))


def test_energy_stability_under_refinement():
    norms = []
    for n in (8, 16, 32):
        s = manufactured_setup(n)
        sol = solve_state(s["mesh"], s["params"], s["y_bc"],
                          u_bc=s["u_bc"], forcing_mom=s["f_mom"],
                          forcing_tr=s["f_tr"])
        norms.append(broken_velocity_norm(s["mesh"], sol.u.dof,
                                          s["params"].sigma,
                                          s["params"].nu2))
    for a, b in zip(norms, norms[1:]):
        assert abs(b - a) / a < 0.05


def test_pressure_mean_zero():
    s = manufactured_setup(8)
    sol = solve_state(s["mesh"], s["params"], s["y_bc"], u_bc=s["u_bc"],
                      forcing_mom=s["f_mom"], forcing_tr=s["f_tr"])
    assert abs(np.sum(s["mesh"].area_cell * sol.p.dof)) < 1e-10


def test_max_iter_exhaustion_raises():
    s = manufactured_setup(8)
    with pytest.raises(NonconvergenceError) as err:
        solve_state(s["mesh"], s["params"], s["y_bc"], u_bc=s["u_bc"],
                    forcing_mom=s["f_mom"], forcing_tr=s["f_tr"],
                    settings=NonlinearSettings(tol=1e-10, max_iter=2))
    assert len(err.value.increments) == 2


def test_residual_of_converged_solution_small():
    s = manufactured_setup(8)
    sol = solve_state(s["mesh"], s["params"], s["y_bc"], u_bc=s["u_bc"],
                      forcing_mom=s["f_mom"], forcing_tr=s["f_tr"],
                      settings=NonlinearSettings(tol=1e-11))
    res = state_residual(s["mesh"], s["params"], sol, y_bc=s["y_bc"],
                         u_bc=s["u_bc"], forcing_mom=s["f_mom"],
                         forcing_tr=s["f_tr"])
    assert res["momentum"] < 1e-7
    assert res["continuity"] < 1e-10
    assert res["transport"] < 1e-7
    assert res["pressure_mean"] < 1e-10


def test_residual_zero_solution_equals_load_norm(mesh4):
    params = ProblemParams(sigma=1.0, nu1=1.0, nu2=1.0)
    zero = StateSolution(
        u=CRVectorField(mesh4), p=P0Field(mesh4), y=CRVectorField(mesh4),
        iterations=0, increments=[],
        y_dirichlet_edges=np.zeros(0, dtype=np.int64))
    f = lambda x, y: np.stack([np.sin(x + y), np.cos(x - y)])
    res = state_residual(mesh4, params, zero, forcing_mom=f)
    b = asm.assemble_load(mesh4, f)
    iu = asm.vector_indices(mesh4.interior_edges)
    assert res["momentum"] == pytest.approx(np.linalg.norm(b[iu]),
                                            rel=1e-12)
    assert res["continuity"] == 0.0


def test_residual_column_jump_for_linear_unknown(mesh4):
    # pressure enters linearly: perturbing one pressure dof moves the
    # momentum residual by exactly that column of the gradient block
    params = ProblemParams(sigma=1.0, nu1=1.0, nu2=1.0)
    ybc = boundary_interpolate(
        lambda x, y: np.stack([x, np.zeros_like(x)]), mesh4)
    sol = solve_state(mesh4, params, ybc)
    res0 = state_residual(mesh4, params, sol, y_bc=ybc)
    pert = sol.p.dof.copy()
    cell = 3
    pert[cell] += 1.0
    sol_p = StateSolution(
        u=sol.u, p=P0Field(mesh4, pert), y=sol.y, iterations=0,
        increments=[], y_dirichlet_edges=sol.y_dirichlet_edges)
    res1 = state_residual(mesh4, params, sol_p, y_bc=ybc)
    B = asm.assemble_divergence(mesh4)
    iu = asm.vector_indices(mesh4.interior_edges)
    col = np.asarray(B.T[:, cell].todense()).ravel()[iu]
    assert res1["momentum"] == pytest.approx(
        np.sqrt(res0["momentum"] ** 2 + np.linalg.norm(col) ** 2),
        rel=1e-6)


def test_residual_rejects_nan(mesh4):
    params = ProblemParams()
    bad = StateSolution(
        u=CRVectorField(mesh4, np.full((mesh4.num_edges, 2), np.nan)),
        p=P0Field(mesh4), y=CRVectorField(mesh4), iterations=0,
        increments=[],
        y_dirichlet_edges=np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError):
        state_residual(mesh4, params, bad)


def _cavity(n, ra, da, le):
    mesh = build_unit_square_mesh(n)
    params, _ = cli.derive_cavity_coefficients(
        cli.RunConfig({"ra": ra, "da": da, "le": le}))
    return mesh, params, cli.cavity_boundary_trace(mesh)


def _count_factorizations(monkeypatch):
    count = []
    init = linalg.DirectSolver.__init__

    def counted(self, A):
        count.append(A.shape[0])
        init(self, A)
    monkeypatch.setattr(linalg.DirectSolver, "__init__", counted)
    return count


def test_lagged_newton_lu_matches_refactoring(monkeypatch):
    # once the Newton increments contract fast, GMRES preconditioned with
    # the kept LU replaces the factorization of the new Jacobian; the
    # iterates stay those of factoring at every step
    mesh, params, y_bc = _cavity(12, 100.0, 1e-3, 10.0)
    settings = NonlinearSettings(tol=1e-10)
    count = _count_factorizations(monkeypatch)
    lagged = solve_state(mesh, params, y_bc, settings=settings)
    factored_lagged = len(count)
    del count[:]
    monkeypatch.setattr(linalg.BorderedSolver, "krylov_solve",
                        lambda self, *a, **k: None)
    fresh = solve_state(mesh, params, y_bc, settings=settings)
    # 10 steps: 3 Picard, then Newton with the gate first open at step 7
    assert len(count) == fresh.iterations == 10
    assert factored_lagged == 6
    assert lagged.iterations == fresh.iterations
    for name in ("u", "p", "y"):
        a = getattr(lagged, name).dof
        b = getattr(fresh, name).dof
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()
    umax = np.abs(lagged.u.dof).max()
    assert lagged.max_divergence() <= 1e-10 * (1.0 + umax)
    res = state_residual(mesh, params, lagged, y_bc=y_bc)
    assert max(res.values()) <= 1e-10 * (1.0 + umax)


def test_lag_gate_needs_two_increments():
    # the gate of the lagged LU compares the last two increments; a
    # stepper in Newton mode with fewer keeps it shut instead of raising
    mesh, params, y_bc = _cavity(8, 100.0, 1e-3, 10.0)
    late = StateStepper(mesh, params, y_bc)
    late.step()
    late.newton = True
    late.linearize()
    late.step()
    early = StateStepper(mesh, params, y_bc)
    early.newton = True
    early.step()
    early.step()
    assert late.steps == early.steps == 2


def test_state_blocks_assembled_once(monkeypatch):
    # one set of upwind values per step serves both convection blocks, and
    # the cross-diffusion is built once per layout
    mesh, params, y_bc = _cavity(12, 100.0, 1e-3, 10.0)
    calls = {"_upwind_values": 0, "assemble_cross_diffusion": 0}
    for name in calls:
        def counted(*args, _fn=getattr(asm, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(asm, name, counted)
    sol = solve_state(mesh, params, y_bc,
                      settings=NonlinearSettings(tol=1e-10))
    assert calls["_upwind_values"] == sol.iterations
    assert calls["assemble_cross_diffusion"] == 1


def test_one_cell_rule_per_mesh(monkeypatch):
    # every cell integral of a forward solve, and the cell averages of a
    # function, read the mesh's one cell rule: the degree-4 rule is built
    # once, and its arrays are read-only
    import sys
    from ddopt import quadrature
    mesh, params, y_bc = _cavity(12, 100.0, 1e-3, 10.0)
    rule = quadrature.tri_quadrature
    calls = []

    def counted():
        calls.append(1)
        return rule()

    for name, module in list(sys.modules.items()):
        if name.startswith("ddopt") \
                and getattr(module, "tri_quadrature", None) is rule:
            monkeypatch.setattr(module, "tri_quadrature", counted)
    sol = solve_state(mesh, params, y_bc,
                      settings=NonlinearSettings(tol=1e-10))
    assert sol.iterations > 1
    assert len(calls) == 1
    p0_project(lambda x, y: x * y, mesh)
    assert len(calls) == 1
    q = mesh.cell_quadrature
    assert mesh.cell_quadrature is q
    assert q.wts.shape == (mesh.num_cells, 6) and q.pts.shape[2] == 2
    for name in ("bary", "w", "psi", "pts", "wts"):
        with pytest.raises(ValueError):
            getattr(q, name)[0] = 0.0


@pytest.mark.parametrize("point, error", [
    ((0.75, 0.15, 0.95), LinearSolveError),
    ((0.85, 0.45, 0.65), SingularMatrixError)])
def test_divergent_cavity_raises_linear_solver_error(point, error,
                                                     monkeypatch):
    # two failing points of the benchmark's parameter sweep (Ra 162.5,
    # Da 10^-3.7, Le 19.1 and Ra 177.5, Da 10^-3.1, Le 13.7), computed as
    # the sweep does: which error a diverging iteration ends in changes
    # with the last bit of Le.  The contraction gate keeps them off the
    # lagged path, so they fail as they do when factoring at every step.
    ra, log_da, le = point
    mesh, params, y_bc = _cavity(8, 50.0 + 150.0 * ra,
                                 10.0 ** (-4.0 + 2.0 * log_da),
                                 2.0 + 18.0 * le)
    lagged = []
    krylov = linalg.BorderedSolver.krylov_solve
    monkeypatch.setattr(linalg.BorderedSolver, "krylov_solve",
                        lambda *a, **k: lagged.append(1) or krylov(*a, **k))
    # the kept error keeps its traceback, but not the solver state of the
    # failed step: stepper, layout and LUs are freed with the frames
    alive = weakref.WeakSet()
    for cls in (StateStepper, linalg.DirectSolver):
        def tracked(self, *args, _init=cls.__init__, **kwargs):
            alive.add(self)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", tracked)
    with pytest.raises(error) as failed:
        solve_state(mesh, params, y_bc,
                    settings=NonlinearSettings(tol=1e-10))
    assert not lagged
    gc.collect()
    assert failed.value.__traceback__ is not None and not list(alive)
