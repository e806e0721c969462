import json
import os

import numpy as np
import pytest

from conftest import manufactured_setup
from ddopt.adjoint import TrackingData, solve_adjoint
from ddopt.control import (ControlBounds, PdasSettings, PdasNonconvergence,
                           project_control, eval_cost, pdas_solve,
                           kkt_residuals)
from ddopt.spaces import P0Field, p0_project
from ddopt.state import NonlinearSettings, solve_state


BOUNDS = ControlBounds([-0.1, -0.1], [0.25, 0.25])


def test_project_examples():
    v = np.array([[-0.5, 0.0]])
    out = project_control(v, 1.0, BOUNDS)
    assert out[0, 0] == pytest.approx(0.25)   # clipped at the upper bound
    assert out[0, 1] == pytest.approx(0.0)    # interior
    v = np.array([[0.05, 0.2]])
    out = project_control(v, 1.0, BOUNDS)
    assert out[0, 0] == pytest.approx(-0.05)
    assert out[0, 1] == pytest.approx(-0.1)   # clipped at the lower bound


def test_bounds_validation():
    with pytest.raises(ValueError):
        ControlBounds([0.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        ControlBounds(0.1, -0.1)
    with pytest.raises(ValueError):
        ControlBounds(np.nan, 1.0)
    with pytest.raises(ValueError):
        ControlBounds([0.0, -1.0], [1.0, np.nan])
    # an infinite bound leaves its component unbounded
    free = ControlBounds(-np.inf, [np.inf, 1.0])
    assert np.array_equal(project_control(np.array([[-5.0, -5.0]]), 1.0,
                                          free), [[5.0, 1.0]])


def test_eval_cost_examples(mesh4):
    from ddopt.state import StateSolution
    from ddopt.spaces import CRVectorField
    zero = StateSolution(u=CRVectorField(mesh4), p=P0Field(mesh4),
                         y=CRVectorField(mesh4), iterations=0, increments=[],
                         layout=None)
    data = TrackingData()
    U0 = P0Field(mesh4, np.zeros((mesh4.num_cells, 2)))
    assert eval_cost(zero, U0, data, 1.0) == 0.0
    c = 0.4
    Uc = P0Field(mesh4, np.full((mesh4.num_cells, 2), c))
    # J = (lambda/2) * 2 c^2 * |Omega| = c^2
    assert eval_cost(zero, Uc, data, 1.0) == pytest.approx(c ** 2,
                                                           rel=1e-12)
    rng = np.random.default_rng(0)
    Ur = P0Field(mesh4, rng.standard_normal((mesh4.num_cells, 2)))
    assert eval_cost(zero, Ur, data, 1.0) >= 0.0


def test_attained_targets_drive_control_to_zero():
    s = manufactured_setup(8)
    uncontrolled = solve_state(s["mesh"], s["params"], s["y_bc"],
                               u_bc=s["u_bc"],
                               settings=NonlinearSettings(tol=1e-11))
    data = TrackingData(u_d=uncontrolled.u, y_d=uncontrolled.y)
    # the targets are attained by the uncontrolled state, so the optimal
    # control is zero
    settings = PdasSettings(lam=1.0, tol=1e-8, state_tol=1e-11)
    res = pdas_solve(s["mesh"], s["params"], s["y_bc"], data,
                     ControlBounds(-10.0, 10.0), settings=settings,
                     u_bc=s["u_bc"])
    assert np.abs(res.control.dof).max() < 1e-8


def _small_opt(tol=1e-8):
    s = manufactured_setup(8)
    settings = PdasSettings(lam=1.0, tol=tol, state_tol=1e-10)
    res = pdas_solve(s["mesh"], s["params"], s["y_bc"], s["data"],
                     s["case"].bounds, settings=settings, u_bc=s["u_bc"],
                     forcing_mom=s["f_mom"], forcing_tr=s["f_tr"])
    return s, res


def test_pdas_converges_and_satisfies_kkt():
    s, res = _small_opt()
    kkt = kkt_residuals(res)
    assert kkt["vi_res"] <= 10 * 1e-8
    assert kkt["state_res"] < 1e-6
    assert kkt["adjoint_res"] < 1e-8
    # some cells are genuinely active in the accuracy-test setup
    labels = res.active_set_history[-1]
    assert np.any(labels != 0)
    assert np.any(labels == 0)


def test_pdas_feasible_iterates_and_set_stabilization():
    s, res = _small_opt()
    lower, upper = s["case"].bounds.lower, s["case"].bounds.upper
    U = res.control.dof
    assert np.all(U >= lower - 1e-14) and np.all(U <= upper + 1e-14)
    assert np.array_equal(res.active_set_history[-1],
                          res.active_set_history[-2])
    # fixed point of the projection map
    pphi = p0_project(res.adjoint.phi, s["mesh"]).dof
    fixed = project_control(pphi, 1.0, s["case"].bounds)
    assert np.abs(U - fixed).max() <= 1e-8


def test_kkt_residual_detects_perturbation():
    s, res = _small_opt()
    labels = res.active_set_history[-1]
    active = np.argwhere(labels != 0)
    cell, comp = active[0]
    res.control.dof[cell, comp] += 0.01
    kkt = kkt_residuals(res)
    assert kkt["vi_res"] == pytest.approx(0.01, abs=1e-7)


def test_kkt_residuals_build_one_layout_and_linearization(monkeypatch):
    # the state and the adjoint residual come from the same (unfactored)
    # linearization at the final state, on the layout it was solved on
    from ddopt import linalg, state
    _, res = _small_opt()
    built = []
    for cls in (state._Dofs, state.Linearization, linalg.DirectSolver):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    kkt_residuals(res)
    assert sorted(built) == ["Linearization"]


def test_vi_residual_formula_all_inactive():
    s = manufactured_setup(8)
    wide = ControlBounds(-100.0, 100.0)
    settings = PdasSettings(lam=1.0, tol=1e-8, state_tol=1e-10)
    res = pdas_solve(s["mesh"], s["params"], s["y_bc"], s["data"], wide,
                     settings=settings, u_bc=s["u_bc"],
                     forcing_mom=s["f_mom"], forcing_tr=s["f_tr"])
    assert np.all(res.active_set_history[-1] == 0)
    pphi = p0_project(res.adjoint.phi, s["mesh"]).dof
    lamU_plus_phi = np.abs(1.0 * res.control.dof + pphi).max()
    assert kkt_residuals(res)["vi_res"] == pytest.approx(lamU_plus_phi,
                                                         rel=1e-12)


def test_oneshot_optimum_is_fixed_point_of_full_solves():
    # the one-shot loop interleaves single state steps with the adjoints;
    # a state converged from scratch at its optimal control, and the
    # adjoint at that state, must reproduce the control through the
    # projection
    s = manufactured_setup(8)
    settings = PdasSettings(lam=1.0, tol=1e-9, state_tol=1e-11)
    res = pdas_solve(s["mesh"], s["params"], s["y_bc"], s["data"],
                     s["case"].bounds, settings=settings, u_bc=s["u_bc"],
                     forcing_mom=s["f_mom"], forcing_tr=s["f_tr"])
    state = solve_state(s["mesh"], s["params"], s["y_bc"],
                        control=res.control, u_bc=s["u_bc"],
                        forcing_mom=s["f_mom"], forcing_tr=s["f_tr"],
                        settings=NonlinearSettings(tol=1e-11))
    adjoint = solve_adjoint(state, s["data"])
    pphi = p0_project(adjoint.phi, s["mesh"]).dof
    fixed = project_control(pphi, 1.0, s["case"].bounds)
    assert np.abs(fixed - res.control.dof).max() <= 1e-8
    for name in ("u", "p", "y"):
        a = getattr(state, name).dof
        b = getattr(res.state, name).dof
        assert np.abs(a - b).max() <= 1e-8, name


def test_pdas_builds_one_layout(monkeypatch):
    # the stepper's layout serves every state step and every adjoint, in
    # Picard and in Newton mode; the final state carries it, so the KKT
    # check and a standalone adjoint at that state build none
    from ddopt import state
    built = []
    init = state._Dofs.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(state._Dofs, "__init__", counted)
    s, res = _small_opt()
    assert res.iterations > 1
    kkt_residuals(res)
    solve_adjoint(res.state, s["data"])
    assert len(built) == 1


def test_pdas_determinism():
    _, res1 = _small_opt()
    _, res2 = _small_opt()
    assert np.array_equal(res1.control.dof, res2.control.dof)
    assert res1.iterations == res2.iterations
    assert res1.cost_history == res2.cost_history


def test_pdas_nonconvergence_error(monkeypatch):
    from ddopt import control
    monkeypatch.setattr(control, "_MAX_ITERATIONS", 1)
    s = manufactured_setup(8)
    settings = PdasSettings(lam=1.0, tol=1e-14, state_tol=1e-10)
    with pytest.raises(PdasNonconvergence):
        pdas_solve(s["mesh"], s["params"], s["y_bc"], s["data"],
                   s["case"].bounds, settings=settings, u_bc=s["u_bc"],
                   forcing_mom=s["f_mom"], forcing_tr=s["f_tr"])


def _track_instances(monkeypatch, *classes):
    """A weak set that every new instance of ``classes`` joins."""
    import weakref

    alive = weakref.WeakSet()
    for cls in classes:
        def tracked(self, *args, _init=cls.__init__, **kwargs):
            alive.add(self)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", tracked)
    return alive


def test_failed_pdas_frees_its_solver_state(monkeypatch):
    # the kept error keeps its history and traceback, but not the solver
    # state of the failed loop: stepper, layout and LUs go with the frames
    import gc
    from ddopt import cli, control, linalg
    from ddopt.mesh import build_unit_square_mesh
    from ddopt.state import StateStepper

    alive = _track_instances(monkeypatch, StateStepper, linalg.DirectSolver)
    monkeypatch.setattr(control, "_MAX_ITERATIONS", 1)
    params, _ = cli.derive_cavity_coefficients(_cavity_8())
    mesh = build_unit_square_mesh(8)
    with pytest.raises(PdasNonconvergence) as failed:
        pdas_solve(mesh, params, cli.cavity_boundary_trace(mesh),
                   TrackingData(), ControlBounds(-0.005, 0.005))
    assert len(failed.value.history) == 1
    gc.collect()
    assert failed.value.__traceback__ is not None and not list(alive)


def test_failed_adjoint_frees_its_solver_state(monkeypatch):
    # a standalone adjoint whose bordered solve stalls after factoring
    # keeps neither its linearization nor its LU in the kept error
    import gc
    from ddopt import cli, linalg
    from ddopt.linalg import LinearSolveError
    from ddopt.mesh import build_unit_square_mesh

    alive = _track_instances(monkeypatch, linalg.DirectSolver)
    params, _ = cli.derive_cavity_coefficients(_cavity_8())
    mesh = build_unit_square_mesh(8)
    state = solve_state(mesh, params, cli.cavity_boundary_trace(mesh))
    monkeypatch.setattr(linalg, "_BORDERED_RTOL", 0.0)
    monkeypatch.setattr(linalg, "_BORDERED_ACCEPT", 0.0)
    with pytest.raises(LinearSolveError) as failed:
        solve_adjoint(state, TrackingData())
    gc.collect()
    assert failed.value.__traceback__ is not None and not list(alive)


def test_settings_validation():
    for kwargs in ({"tol_mode": "exact"}, {"lam": 0.0}, {"lam": np.nan},
                   {"lam": np.inf}, {"tol": 0.0}, {"tol": -1.0},
                   {"tol": np.nan}, {"tol": np.inf},
                   {"state_tol": 0.0}, {"state_tol": np.nan},
                   {"state_tol": np.inf}):
        with pytest.raises(ValueError):
            PdasSettings(**kwargs)


def _cavity_8():
    from ddopt.cli import RunConfig
    return RunConfig({"experiment": "cavity", "n": 8, "da": 1e-3,
                      "lbound": -0.005, "ubound": 0.005, "tol": 1e-6,
                      "tol_mode": "rel"})


def test_oneshot_reuses_linearization_for_adjoint(monkeypatch):
    # each adjoint solves with the transposed LU that the next state step
    # consumes: a Newton step solves with it, a Picard step tries it by
    # GMRES on its own operator; while the increments contract, later
    # adjoints and Newton steps solve by GMRES with the LU kept from an
    # earlier iteration
    from ddopt import linalg
    from ddopt.cli import run_cavity
    from ddopt.state import StateStepper

    counts = {"factor": 0, "picard": 0, "transposed": 0, "handed": 0}
    factor, step = linalg.DirectSolver.__init__, StateStepper.step
    krylov = linalg.BorderedSolver.krylov_solve
    in_picard = []

    def counting_factor(self, A):
        counts["factor"] += 1
        factor(self, A)

    def counting_step(self):
        counts["picard"] += not self.newton
        in_picard[:] = [not self.newton]
        incr = step(self)
        in_picard[:] = []
        return incr

    def counting_krylov(self, *args, transpose=False, **kwargs):
        counts["transposed"] += transpose
        counts["handed"] += in_picard == [True]
        return krylov(self, *args, transpose=transpose, **kwargs)

    monkeypatch.setattr(linalg.DirectSolver, "__init__", counting_factor)
    monkeypatch.setattr(StateStepper, "step", counting_step)
    monkeypatch.setattr(linalg.BorderedSolver, "krylov_solve",
                        counting_krylov)
    res = run_cavity(_cavity_8())
    # 11 iterations, 3 of them Picard: the first Picard step factors, the
    # other two try the handed adjoint LU by GMRES, which declines, and
    # factor; of the 8 adjoints the last 3 lag the LU of the eighth
    assert (res.iterations, counts["picard"]) == (11, 3)
    assert counts["handed"] == 2
    assert counts["factor"] == 11
    assert counts["transposed"] >= 1
    # the benchmark's reference run of the same 8 x 8 configuration
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "reference.json")
    with open(path) as fh:
        ref = json.load(fh)["cavity_control"]["8"]
    assert res.iterations == ref["iterations"]
    assert res.cost_history[-1] == pytest.approx(ref["cost"], rel=1e-6)

    fresh = solve_adjoint(res.state, res.data)
    for name in ("phi", "xi", "eta"):
        a = getattr(res.adjoint, name).dof
        b = getattr(fresh, name).dof
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), name


def _manufactured_8(regime):
    """The accuracy study's PDAS run on its 8 x 8 level."""
    from ddopt.verification import get_regime
    s = manufactured_setup(8, get_regime(regime))
    case = s["case"]
    settings = PdasSettings(lam=case.lam, tol=1e-6, state_tol=1e-10)
    return pdas_solve(s["mesh"], s["params"], s["y_bc"], s["data"],
                      case.bounds, settings=settings, u_bc=s["u_bc"],
                      forcing_mom=s["f_mom"], forcing_tr=s["f_tr"],
                      penalty_a0=case.a0)


def _run(name):
    if name == "cavity_8":
        from ddopt.cli import run_cavity
        return run_cavity(_cavity_8())
    return _manufactured_8(name[:-len("_8")])


def test_adjoint_solves_transposed_bordered_system():
    # the adjoint of the 8 x 8 cavity control is the solution of the
    # transposed bordered state system [[J^T, e], [d^T, 0]] at the final
    # state; its pressure block is |K| xi_raw
    from scipy import sparse as sp
    from scipy.sparse.linalg import spsolve
    from ddopt.adjoint import _adjoint_rhs
    from ddopt.cli import run_cavity
    from ddopt.state import Linearization

    res = run_cavity(_cavity_8())
    state = res.state
    dofs = state.layout
    J = Linearization(dofs, state.u.dof, state.y.dof).J
    Mt = sp.bmat([[J.T, dofs.e_row[:, None]], [dofs.d_col[None, :], None]],
                 format="csc")
    rhs = _adjoint_rhs(state, res.data)
    phi, z_p, eta = dofs.unpack(spsolve(Mt, np.append(rhs, 0.0))[:-1])
    ref = {"phi": phi, "xi_raw": dofs.zero_mean(z_p / dofs.area),
           "eta": eta}
    adj = res.adjoint
    got = {"phi": adj.phi.dof, "xi_raw": adj.xi_raw, "eta": adj.eta.dof}
    for name, b in ref.items():
        assert np.abs(got[name] - b).max() <= 1e-10 * np.abs(b).max(), name


@pytest.mark.parametrize("run", ["cavity_8", "flow_8", "darcy_8"])
def test_lagged_lu_leaves_optimization_unchanged(run, monkeypatch):
    # a PDAS run with the kept LU lagged through GMRES, and with GMRES
    # declining so that every linearization factors its own
    from ddopt import linalg
    from ddopt.control import _vi_residual

    lagged = _run(run)
    monkeypatch.setattr(linalg.BorderedSolver, "krylov_solve",
                        lambda self, *a, **k: None)
    fresh = _run(run)
    assert lagged.iterations == fresh.iterations
    assert len(lagged.active_set_history) == len(fresh.active_set_history)
    for a, b in zip(lagged.active_set_history, fresh.active_set_history):
        assert np.array_equal(a, b)
    assert lagged.cost_history[-1] == pytest.approx(fresh.cost_history[-1],
                                                    rel=1e-10)
    for a, b in [(lagged.control, fresh.control),
                 (lagged.state.u, fresh.state.u),
                 (lagged.state.p, fresh.state.p),
                 (lagged.state.y, fresh.state.y),
                 (lagged.adjoint.phi, fresh.adjoint.phi),
                 (lagged.adjoint.xi, fresh.adjoint.xi),
                 (lagged.adjoint.eta, fresh.adjoint.eta)]:
        assert np.abs(a.dof - b.dof).max() <= 1e-9 * np.abs(b.dof).max()
    for res in (lagged, fresh):
        assert _vi_residual(res) <= 1e-10
        umax = np.abs(res.state.u.dof).max()
        assert res.state.max_divergence() <= 1e-10 * (1.0 + umax)


@pytest.mark.parametrize("run, iterations", [("flow_8", 6), ("darcy_8", 3)])
def test_manufactured_pdas_factors_twice(run, iterations, monkeypatch):
    # the first Picard step and the first adjoint factor; the second
    # Picard step solves its own operator by GMRES with the adjoint's LU,
    # and every later adjoint and Newton step lags that LU too
    from ddopt import linalg
    factored = []
    factor = linalg.DirectSolver.__init__

    def counting_factor(self, A):
        factored.append(A.shape[0])
        factor(self, A)

    monkeypatch.setattr(linalg.DirectSolver, "__init__", counting_factor)
    res = _run(run)
    assert res.iterations == iterations
    assert len(factored) == 2


@pytest.mark.parametrize("case", ["control_8", "forward_12", "flow_8",
                                  "flow_8_declining"])
def test_one_lu_alive_at_each_factorization(case, monkeypatch):
    # no LU (kept, lagged or handed to the adjoint) outlives the decision
    # to factor a new one; with GMRES declining, every Picard step of the
    # manufactured PDAS run drops the handed LU before it factors
    import gc
    import weakref
    from ddopt import cli, linalg
    from ddopt.mesh import build_unit_square_mesh

    alive = weakref.WeakSet()
    others = []
    factor = linalg.DirectSolver.__init__

    def tracking_factor(self, A):
        gc.collect()
        others.append(len(alive))
        factor(self, A)
        alive.add(self)

    monkeypatch.setattr(linalg.DirectSolver, "__init__", tracking_factor)
    if case == "control_8":
        cli.run_cavity(_cavity_8())
    elif case.startswith("flow_8"):
        if case.endswith("declining"):
            monkeypatch.setattr(linalg.BorderedSolver, "krylov_solve",
                                lambda self, *a, **k: None)
        _manufactured_8("flow")
    else:
        mesh = build_unit_square_mesh(12)
        params, _ = cli.derive_cavity_coefficients(
            cli.RunConfig({"ra": 100.0, "da": 1e-3, "le": 10.0}))
        solve_state(mesh, params, cli.cavity_boundary_trace(mesh),
                    settings=NonlinearSettings(tol=1e-10))
    assert others and not any(others)
