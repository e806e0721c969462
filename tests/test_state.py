import gc
import weakref

import numpy as np
import pytest

from conftest import manufactured_setup
from ddopt import assembly as asm
from ddopt import cli, linalg, state
from ddopt.assembly import ProblemParams
from ddopt.linalg import LinearSolveError, SingularMatrixError
from ddopt.mesh import build_unit_square_mesh
from ddopt.norms import broken_velocity_norm
from ddopt.spaces import BoundaryTrace, CRVectorField, P0Field, \
    boundary_interpolate, cr_interpolate, p0_project
from ddopt.state import (NonlinearSettings, NonconvergenceError,
                         StateSolution, StateStepper, _Dofs, solve_state,
                         state_residual)
from ddopt.verification import REGIMES


def test_settings_validation():
    for kwargs in ({"tol": 0.0}, {"tol": np.nan}, {"tol": np.inf}):
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


def test_max_iter_exhaustion_raises(monkeypatch):
    from ddopt import state
    monkeypatch.setattr(state, "_MAX_STEPS", 2)
    s = manufactured_setup(8)
    with pytest.raises(NonconvergenceError) as err:
        solve_state(s["mesh"], s["params"], s["y_bc"], u_bc=s["u_bc"],
                    forcing_mom=s["f_mom"], forcing_tr=s["f_tr"],
                    settings=NonlinearSettings(tol=1e-10))
    assert len(err.value.history) == 2


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


def test_residual_check_gathers_no_jacobian(monkeypatch):
    # J and its plan are built on first use; a residual check reads only
    # A_mom and A_tr, so it builds neither
    from ddopt import state
    mesh, params, y_bc = _cavity(8, 100.0, 1e-3, 10.0)
    sol = solve_state(mesh, params, y_bc)
    built = []
    for cls in (state._JacobianPlan, linalg.DirectSolver):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    res = state_residual(mesh, params, sol, y_bc=y_bc)
    assert max(res.values()) < 1e-8
    assert built == []


def test_residual_zero_solution_equals_load_norm(mesh4):
    params = ProblemParams(sigma=1.0, nu1=1.0, nu2=1.0)
    zero = StateSolution(
        u=CRVectorField(mesh4), p=P0Field(mesh4), y=CRVectorField(mesh4),
        iterations=0, increments=[],
        layout=_Dofs(mesh4, params, None, None))
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
        increments=[], layout=sol.layout)
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
        increments=[], layout=None)
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

    def counted(self, A, order=None):
        count.append(A.shape[0])
        init(self, A, order)
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
    for name in ("w", "psi", "pts", "wts"):
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
    # The linear error keeps the increments of the steps before it.
    ra, log_da, le = point
    mesh, params, y_bc = _cavity(8, 50.0 + 150.0 * ra,
                                 10.0 ** (-4.0 + 2.0 * log_da),
                                 2.0 + 18.0 * le)
    lagged, steps = [], []
    krylov = linalg.BorderedSolver.krylov_solve
    monkeypatch.setattr(linalg.BorderedSolver, "krylov_solve",
                        lambda *a, **k: lagged.append(1) or krylov(*a, **k))
    step = StateStepper.step
    monkeypatch.setattr(StateStepper, "step",
                        lambda self: steps.append(1) or step(self))
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
    # every step but the failed last one completed and left its increment
    history = failed.value.history
    assert len(history) == len(steps) - 1 > 0
    assert np.all(np.isfinite(history)) and history[-1] > 1e30
    gc.collect()
    assert failed.value.__traceback__ is not None and not list(alive)


def _layout(kind):
    if kind == "cavity":
        mesh = build_unit_square_mesh(6)
        params, _ = cli.derive_cavity_coefficients(cli.RunConfig(
            {"experiment": "cavity", "n": 6, "da": 1e-3}))
        return _Dofs(mesh, params, cli.cavity_boundary_trace(mesh), None)
    s = manufactured_setup(6, REGIMES["darcy"])
    return _Dofs(s["mesh"], s["params"], s["y_bc"], s["u_bc"], s["f_mom"],
                 s["f_tr"], penalty_a0=s["case"].a0)


@pytest.mark.parametrize("kind", ["cavity", "darcy"])
def test_layout_round_trip(kind):
    # unpack(pack(u, p, y)) drops the fixed edges and keeps the pressure;
    # lift restores the Dirichlet values
    dofs = _layout(kind)
    mesh = dofs.mesh
    rng = np.random.default_rng(3)
    u = rng.standard_normal((mesh.num_edges, 2))
    y = rng.standard_normal((mesh.num_edges, 2))
    p = rng.standard_normal(mesh.num_cells)
    x = dofs.pack(u, p, y)
    assert x.size == dofs.jacobian.n
    u2, p2, y2 = dofs.unpack(x)
    assert np.array_equal(p2, p)
    for got, full, fixed in ((u2, u, dofs.u_fixed_edges),
                             (y2, y, dofs.y_fixed_edges)):
        free = np.ones(mesh.num_edges, dtype=bool)
        free[fixed] = False
        assert np.array_equal(got[free], full[free])
        assert not got[fixed].any()
    assert dofs.y_fixed_edges.size > 0
    dofs.lift(u2, y2)
    assert np.array_equal(u2[dofs.u_fixed_edges], dofs.u_fixed_values)
    assert np.array_equal(y2[dofs.y_fixed_edges], dofs.y_fixed_values)
    assert abs(dofs.area @ dofs.zero_mean(p)) < 1e-14


@pytest.mark.parametrize("trace", ["cavity", "full"])
def test_buoyancy_lifting_lands_on_fixed_rows(mesh4, trace):
    # kron(M, F_y) couples each edge to itself only (the CR mass matrix is
    # diagonal), and every transport Dirichlet edge is a fixed velocity
    # edge, so Dirichlet transport values never load a free momentum row
    params = ProblemParams(sigma=1.0, nu1=1.0, nu2=1.0,
                           F_y=np.array([[0.0, 0.0], [1.0, 1.0]]))
    y_bc = cli.cavity_boundary_trace(mesh4) if trace == "cavity" else \
        boundary_interpolate(lambda x, y: np.stack([x, y]), mesh4)
    dofs = _Dofs(mesh4, params, y_bc, None)
    assert dofs.iy_fixed.size > 0 and dofs.MF.nnz > 0
    assert dofs.MF[dofs.iu_free][:, dofs.iy_fixed].nnz == 0


def test_velocity_trace_needs_two_components(mesh4):
    # as the transport trace does; a 1-D pair on two edges was broadcast
    # onto both
    edges = mesh4.boundary_edges[:2]
    trace = BoundaryTrace(mesh4, edges, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="two components"):
        _Dofs(mesh4, ProblemParams(sigma=1.0, nu1=1.0, nu2=1.0), None,
              trace)


@pytest.mark.parametrize("a0", [-5.0, np.nan, np.inf],
                         ids=["negative", "nan", "inf"])
def test_penalty_must_be_nonnegative_and_finite(mesh4, a0):
    # a negative or NaN a0 was solved as if no penalty were set
    params = ProblemParams(sigma=1.0, nu1=1.0, nu2=1.0)
    with pytest.raises(ValueError, match="penalty_a0"):
        solve_state(mesh4, params, None, penalty_a0=a0)


def _is_permutation(order, n):
    return np.array_equal(np.sort(order), np.arange(n))


def test_small_layout_has_no_order():
    # below linalg._LARGE_ROWS rows the core stays on COLAMD
    mesh, params, y_bc = _cavity(16, 100.0, 1e-3, 10.0)
    dofs = _Dofs(mesh, params, y_bc, None)
    assert dofs.jacobian.n < linalg._LARGE_ROWS
    assert dofs.order is None


@pytest.fixture(scope="module")
def cavity_32_cores():
    # the cavity's Picard and Newton cores after three Picard steps
    mesh, params, y_bc = _cavity(32, 100.0, 1e-3, 10.0)
    stepper = StateStepper(mesh, params, y_bc)
    for _ in range(3):
        stepper.step()
    dofs = stepper.dofs
    return dofs, {newton: state.Linearization(dofs, stepper.u, stepper.y,
                                              newton=newton).J
                  for newton in (False, True)}


def test_large_layout_orders_pressures_after_their_velocities(
        cavity_32_cores):
    dofs, _ = cavity_32_cores
    order, n = dofs.order, dofs.jacobian.n
    assert n >= linalg._LARGE_ROWS and _is_permutation(order, n)
    assert dofs.order is order  # built once per layout
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # the rank of the last free velocity dof of each cell's edges
    u_rank = np.full(dofs.mesh.num_edges, -1)
    u_rank[dofs.u_free_edges] = rank[1:dofs.nu_free:2]
    last_u = u_rank[dofs.mesh.cell_edges].max(axis=1)
    assert np.all(last_u >= 0)
    assert np.all(rank[dofs.ip] > last_u)


def test_ordered_lu_fills_less_and_solves_as_colamd(cavity_32_cores):
    dofs, cores = cavity_32_cores
    d, e, pin = dofs.d_col, dofs.e_row, dofs.nu_free
    rng = np.random.default_rng(0)
    b = rng.standard_normal(dofs.jacobian.n)
    colamd = {newton: linalg.BorderedSolver(J, d, e, pin)
              for newton, J in cores.items()}
    for newton, J in cores.items():
        ordered = linalg.BorderedSolver(J, d, e, pin, order=dofs.order)
        assert ordered.core.lu.nnz <= colamd[False].core.lu.nnz
        for transpose in (False, True):
            got = np.append(*ordered.solve(b, transpose=transpose))
            want = np.append(*colamd[newton].solve(b, transpose=transpose))
            assert np.linalg.norm(got - want) \
                <= 1e-12 * np.linalg.norm(want)


def test_nested_start_matches_cold_solve(monkeypatch):
    # the 24x24 cavity starts from the 12x12 solution and factors at most
    # two cores of the gate's size; a coarse solve that raises leaves the
    # fine solve to start cold, and the two agree to rounding
    mesh, params, y_bc = _cavity(24, 100.0, 1e-3, 10.0)
    settings = NonlinearSettings(tol=1e-10)
    count = _count_factorizations(monkeypatch)
    nested = solve_state(mesh, params, y_bc, settings=settings)
    assert nested.nested
    assert len([rows for rows in count if rows >= linalg._LARGE_ROWS]) <= 2
    assert nested.iterations == len(nested.increments)
    failed = []

    def coarse_fails(coarse, *args, **kwargs):
        assert coarse is mesh.parent.mesh
        failed.append(1)
        raise NonconvergenceError("coarse solve failed", [1.0])

    monkeypatch.setattr(state, "solve_state", coarse_fails)
    cold = solve_state(mesh, params, y_bc, settings=settings)
    assert failed and not cold.nested
    assert cold.iterations > nested.iterations
    for name in ("u", "p", "y"):
        a, b = getattr(nested, name).dof, getattr(cold, name).dof
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
    umax = np.abs(nested.u.dof).max()
    assert nested.max_divergence() <= 1e-10 * (1.0 + umax)
    res = state_residual(mesh, params, nested, y_bc=y_bc)
    assert max(res.values()) <= 1e-10 * (1.0 + umax)


def test_coarse_start_restricts_data_and_prolongs_exactly(monkeypatch):
    # the coarse solve gets the data restricted to the parent mesh; a CR
    # field affine on it prolongs to the fine interpolant, and each fine
    # pressure is its parent cell's
    mesh, params, y_bc = _cavity(8, 100.0, 1e-3, 10.0)
    parent = mesh.parent
    rng = np.random.default_rng(3)
    p = rng.standard_normal(parent.mesh.num_cells)
    U = rng.standard_normal((parent.mesh.num_cells, 2))
    seen = {}

    def affine(x, y):
        return 1.0 + 2.0 * x - 3.0 * y, -0.5 + x + 4.0 * y

    def coarse_solve(coarse, prm, trace, control, settings, u_bc, *rest):
        seen.update(mesh=coarse, control=control, u_bc=u_bc)
        field = cr_interpolate(affine, coarse)
        return StateSolution(u=field, p=P0Field(coarse, p), y=field,
                             iterations=0, increments=[], layout=None)

    monkeypatch.setattr(state, "solve_state", coarse_solve)
    u, p_fine, y = state._coarse_start(
        mesh, params, y_bc, P0Field(mesh, U[parent.cell]),
        NonlinearSettings(), None, None, None, 0.0)
    assert seen["mesh"] is parent.mesh and seen["u_bc"] is None
    assert np.allclose(seen["control"], U, rtol=0.0, atol=1e-15)
    want = cr_interpolate(affine, mesh).dof
    for got in (u, y):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert np.array_equal(p_fine, p[parent.cell])


@pytest.mark.parametrize("n", [8, 24])
def test_cavity_trace_restricts_to_the_parent_trace(n):
    mesh = build_unit_square_mesh(n)
    trace = cli.cavity_boundary_trace(mesh)
    coarse = mesh.parent.mesh
    got = state._restrict_trace(trace, mesh.parent)
    want = cli.cavity_boundary_trace(coarse)
    at = np.argsort(want.edges)
    assert got.mesh is coarse
    assert np.array_equal(got.edges, want.edges[at])
    assert np.array_equal(got.values, want.values[at])
    # a parent edge with one half referenced is left natural
    part = BoundaryTrace(mesh, trace.edges[1:], trace.values[1:])
    dropped = state._restrict_trace(part, mesh.parent).edges
    assert np.array_equal(dropped, np.setdiff1d(
        got.edges, mesh.parent.edge[trace.edges[0]]))


@pytest.mark.parametrize("n", [16, 23])
def test_small_or_odd_solve_runs_no_coarse_solve(n, monkeypatch):
    # the 16x16 core (3520 rows) is below the gate, so the parent mesh is
    # never built; the 23x23 one is large, but an odd mesh has no parent
    mesh, params, y_bc = _cavity(n, 100.0, 1e-3, 10.0)
    calls = []
    solve = state.solve_state
    monkeypatch.setattr(state, "solve_state",
                        lambda *a, **k: calls.append(1) or solve(*a, **k))
    sol = state.solve_state(mesh, params, y_bc,
                            settings=NonlinearSettings(tol=1e-10))
    assert len(calls) == 1 and not sol.nested
    if n == 16:
        assert not sol.layout.large and "parent" not in vars(mesh)
    else:
        assert sol.layout.large and mesh.parent is None
