import io
import os

import numpy as np
import pytest

from ddopt import cli
from ddopt.cli import (ConfigError, RunConfig, parse_config_file,
                       write_config, derive_cavity_coefficients,
                       cavity_wall_partition, cavity_boundary_trace,
                       export_fields, write_errors_csv,
                       main, EXIT_OK, EXIT_CONFIG, EXIT_NONCONVERGENCE)
from ddopt.mesh import build_unit_square_mesh
from ddopt.spaces import CRVectorField, P0Field
from ddopt.state import NonlinearSettings, StateStepper, solve_state
from ddopt.verification import ConvergenceReport, ERROR_NAMES


def test_config_defaults_and_validation():
    cfg = RunConfig({})
    assert cfg.regime == "flow" and cfg.tol_mode == "rel"
    with pytest.raises(ConfigError):
        RunConfig({"lbound": 1.0, "ubound": -1.0})
    with pytest.raises(ConfigError):
        RunConfig({"da": "not-a-number"})
    with pytest.raises(ConfigError):
        RunConfig({"da": "inf"})
    with pytest.raises(ConfigError):
        RunConfig({"tol_mode": "sometimes"})
    with pytest.raises(ConfigError):
        RunConfig({"export": "hdf5"})
    for values in ({"levels": 2}, {"tol": 0.0}, {"tol": -1.0}, {"le": 0},
                   {"pr": 0}, {"regime": "porous"}):
        with pytest.raises(ConfigError):
            RunConfig(values)


def test_config_round_trip(tmp_path):
    values = {"regime": "darcy", "levels": 3, "n": 12, "out": "elsewhere",
              "export": "vtk", "da": 2.5e-4, "ra": 150.0, "pr": 7.0,
              "le": 2.5, "sr": 0.05, "du": -0.02, "rk": 2.0, "nbuoy": -0.5,
              "lambda": 0.5, "lbound": -0.1, "ubound": 0.2, "tol": 1e-7,
              "tol_mode": "abs"}
    defaults = RunConfig({}).to_dict()
    assert values.keys() == defaults.keys()
    assert all(values[key] != defaults[key] for key in values)
    cfg = RunConfig(values)
    assert cfg.to_dict() == values
    path = tmp_path / "run.cfg"
    with open(path, "w") as fh:
        write_config(cfg, fh)
    cfg2 = RunConfig(parse_config_file(str(path)))
    assert cfg2.to_dict() == values


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nwarp_factor = 9\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


def test_cavity_coefficients_values():
    cfg = RunConfig({"da": 1e-3})
    params, groups = derive_cavity_coefficients(cfg)
    assert groups["gr_t"] == pytest.approx(1.4085e5, rel=1e-4)
    D = params.diffusion
    assert D[0, 0] == pytest.approx(1.0 / 0.71, rel=1e-12)
    assert D[0, 1] == pytest.approx(0.1)
    assert D[1, 0] == pytest.approx(0.0)
    assert D[1, 1] == pytest.approx(1.0 / 7.1, rel=1e-12)
    assert groups["gr_c"] == pytest.approx(groups["gr_t"])  # N = 1
    assert params.sigma == pytest.approx(1000.0)
    with pytest.raises(ConfigError):
        derive_cavity_coefficients(RunConfig({"da": -1.0}))


def test_cavity_wall_partition_covers_boundary():
    mesh = build_unit_square_mesh(6)
    walls = cavity_wall_partition(mesh)
    all_edges = np.concatenate(list(walls.values()))
    assert np.array_equal(np.sort(all_edges), mesh.boundary_edges)
    assert len(np.unique(all_edges)) == all_edges.size


def test_cavity_boundary_trace_values():
    mesh = build_unit_square_mesh(4)
    tr = cavity_boundary_trace(mesh)
    mids = mesh.edge_midpoint[tr.edges]
    left = mids[:, 0] < 1e-12
    assert np.allclose(tr.values[left], 1.0)
    assert np.allclose(tr.values[~left], -1.0)


def _zero_bundle(mesh):
    return {"mesh": mesh, "u": CRVectorField(mesh),
            "p": P0Field(mesh),
            "y": CRVectorField(mesh),
            "U": P0Field(mesh, np.zeros((mesh.num_cells, 2)))}


def _read_points_csv(path):
    """The columns of a csv-points export, by name."""
    return np.genfromtxt(path, delimiter=",", names=True)


def test_export_zero_fields_csv(tmp_path):
    mesh = build_unit_square_mesh(1)
    path = str(tmp_path / "fields.csv")
    export_fields(_zero_bundle(mesh), path, "csv")
    cols = _read_points_csv(path)
    assert len(cols["x"]) == 4
    for name in ("u1", "u2", "p", "T", "S", "U1", "U2"):
        assert np.all(cols[name] == 0.0)


def test_export_round_trip(tmp_path):
    mesh = build_unit_square_mesh(3)
    rng = np.random.default_rng(5)
    bundle = {"mesh": mesh,
              "u": CRVectorField(mesh, rng.standard_normal(
                  (mesh.num_edges, 2))),
              "p": P0Field(mesh, rng.standard_normal(mesh.num_cells)),
              "y": CRVectorField(mesh, rng.standard_normal(
                  (mesh.num_edges, 2))),
              "U": P0Field(mesh, rng.standard_normal(
                  (mesh.num_cells, 2)))}
    path = str(tmp_path / "fields.csv")
    export_fields(bundle, path, "csv")
    cols = _read_points_csv(path)
    path2 = str(tmp_path / "fields2.csv")
    export_fields(bundle, path2, "csv")
    cols2 = _read_points_csv(path2)
    for name in cols.dtype.names:
        assert np.abs(cols[name] - cols2[name]).max() < 1e-12
    assert np.allclose(cols["x"], mesh.vertices[:, 0], atol=1e-15)


def test_export_vtk_structure(tmp_path):
    mesh = build_unit_square_mesh(2)
    path = str(tmp_path / "fields.vtk")
    export_fields(_zero_bundle(mesh), path, "vtk")
    text = open(path).read()
    assert "DATASET UNSTRUCTURED_GRID" in text
    assert "POINTS 9 double" in text
    assert "CELL_DATA 8" in text
    assert "POINT_DATA 9" in text


def test_errors_csv_schema():
    report = ConvergenceReport(
        regime="flow", ns=[8, 16], hs=[0.17, 0.085],
        errors={name: [1.0, 0.5] for name in ERROR_NAMES},
        rates={name: [1.0] for name in ERROR_NAMES},
        iterations=[3, 3],
        dofs={"u": [10, 20], "p": [4, 8], "y": [12, 24], "U": [8, 16]},
        div_max=[0, 0], vi_res=[0, 0], results=[])
    buf = io.StringIO()
    write_errors_csv(report, buf)
    lines = buf.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["level", "h", "dof_u", "dof_p", "dof_y", "dof_U"]
    assert header[6:8] == ["e_u", "rate"]
    assert header[-1] == "it"
    first = lines[1].split(",")
    # rates are empty on the first level
    assert first[7] == "" and first[9] == ""
    second = lines[2].split(",")
    assert second[7] == "1.0000"


def test_main_solve_is_uncontrolled_cavity(tmp_path):
    out = tmp_path / "out"
    assert main(["solve", "--n", "4", "--out", str(out)]) == EXIT_OK
    # the library's solve of the cavity at the default groups, exported
    # with the zero control
    mesh = build_unit_square_mesh(4)
    params, _ = derive_cavity_coefficients(RunConfig({}))
    sol = solve_state(mesh, params, cavity_boundary_trace(mesh),
                      settings=NonlinearSettings(tol=1e-10))
    expected = tmp_path / "expected.csv"
    export_fields({"mesh": mesh, "u": sol.u, "p": sol.p, "y": sol.y,
                   "U": P0Field(mesh, np.zeros((mesh.num_cells, 2)))},
                  str(expected), "csv")
    assert (out / "solution.csv").read_bytes() == expected.read_bytes()
    cols = _read_points_csv(str(expected))
    for name in ("u1", "u2", "p", "T", "S"):
        assert np.abs(cols[name]).max() > 0
    assert not np.any(cols["U1"]) and not np.any(cols["U2"])


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran on a rejected configuration")


_UNREAD_FLAGS = [(command, key) for command in cli._COMMANDS
                 for key, setting in cli._SETTINGS.items()
                 if setting.flag and key not in cli._COMMANDS[command].reads]


@pytest.mark.parametrize("command, key", _UNREAD_FLAGS,
                         ids=["{}-{}".format(*pair) for pair in _UNREAD_FLAGS])
def test_main_rejects_unread_flag(tmp_path, monkeypatch, capsys, command,
                                  key):
    # a flag the command would ignore exits 2 before any solve, even at
    # the setting's default value
    for name in ("solve_state", "pdas_solve", "run_convergence_study"):
        monkeypatch.setattr(cli, name, _no_solve)
    flag = "--" + key.replace("_", "-")
    out = tmp_path / "o"
    code = main([command, flag, str(cli._SETTINGS[key].default),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "{} does not read {}".format(command, flag) \
        in capsys.readouterr().err
    assert not os.path.exists(out)


def test_command_table():
    # 36 command-flag pairs before the table, 21 read; these four used to
    # run as if the flag were absent
    assert len(_UNREAD_FLAGS) == 15
    assert {("convergence", "lambda"), ("convergence", "n"),
            ("solve", "regime"), ("cavity", "levels")} <= set(_UNREAD_FLAGS)


def test_main_config_error_exit_code(tmp_path):
    code = main(["cavity", "--lbound", "2.0", "--ubound", "1.0",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    # rejected before any solve: too few levels for a study, a zero tol,
    # a Darcy number that is not positive, or whose reciprocal overflows
    for argv in (["convergence", "--levels", "2"], ["cavity", "--tol", "0"],
                 ["cavity", "--da", "-1"], ["cavity", "--da", "0"],
                 ["solve", "--n", "2", "--da", "1e-320"]):
        code = main(argv + ["--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG


@pytest.mark.parametrize("command", ["cavity", "solve"])
def test_invalid_coefficients_leave_no_output_directory(tmp_path, command):
    # the coefficients are checked before --out is created
    out = tmp_path / "D"
    assert main([command, "--n", "2", "--da", "1e-320",
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "le = 0", "le = -1", "pr = 0", "du = 10",
    "du = -0.3828\nrk = 0.02698\nle = 1.464", "da = 1e-320"],
    ids=["le=0", "le=-1", "pr=0", "du=10", "narrow-indefinite-cone",
         "da-overflow"])
def test_main_invalid_physics_exit_code(tmp_path, monkeypatch, line):
    # a zero Lewis number divides by zero in 1/Sc; the others give a D
    # that is not positive definite, the narrow-cone one only on a narrow
    # cone, or an infinite sigma = 1 / Da; both commands that read the
    # cavity groups reject them
    monkeypatch.setattr(cli, "pdas_solve", _no_solve)
    monkeypatch.setattr(cli, "solve_state", _no_solve)
    path = tmp_path / "run.cfg"
    path.write_text("[physics]\n" + line + "\n")
    for command in ("cavity", "solve"):
        code = main([command, "--n", "4", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
    # rejected before the iteration log or any other file is written
    out = tmp_path / "o"
    assert not os.path.isdir(out) or os.listdir(out) == []


def test_main_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nn = 4\nexport = csv\n\n[physics]\n"
                    "lambda = 1.0\n")
    out = str(tmp_path / "out")
    code = main(["solve", "--config", str(path), "--out", out])
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(out, "solution.csv"))


def test_main_nonconvergence_exit_code(tmp_path):
    out = str(tmp_path / "stuck")
    # an unattainable control tolerance exhausts the outer loop
    code = main(["cavity", "--n", "4", "--da", "1e-3", "--tol", "1e-30",
                 "--tol-mode", "abs", "--out", out])
    assert code == EXIT_NONCONVERGENCE
    assert os.path.exists(os.path.join(out, "nonconvergence.txt"))


def test_main_cavity_small(tmp_path):
    out = str(tmp_path / "cav")
    code = main(["cavity", "--n", "8", "--da", "1e-3",
                 "--lbound", "-0.005", "--ubound", "0.005",
                 "--tol", "1e-6", "--tol-mode", "rel", "--out", out])
    assert code == EXIT_OK
    log = open(os.path.join(out, "iterations.log")).read()
    assert "converged in" in log.splitlines()[-1]
    assert os.path.exists(os.path.join(out, "cavity_fields.csv"))


def test_main_cavity_linear_failure_keeps_increments(tmp_path, monkeypatch):
    # at 6 x 6 the default cavity's state diverges inside the PDAS loop
    # until a bordered solve stalls; the error, raised by a state step or
    # an adjoint, keeps the increment of every completed state step
    completed = []
    step = StateStepper.step
    monkeypatch.setattr(StateStepper, "step",
                        lambda self: completed.append(step(self))
                        or completed[-1])
    out = tmp_path / "n6"
    code = main(["cavity", "--n", "6", "--out", str(out)])
    assert code == EXIT_NONCONVERGENCE
    lines = (out / "nonconvergence.txt").read_text().splitlines()
    assert lines[0].startswith(("LinearSolveError", "SingularMatrixError"))
    assert len(completed) > 3
    assert lines[1:] == ["{} {:.6e}".format(k, v)
                         for k, v in enumerate(completed)]


@pytest.mark.parametrize("error", ["SingularMatrixError", "LinearSolveError"])
def test_main_linear_solver_error_exit_code(tmp_path, monkeypatch, error):
    from ddopt import linalg

    def failing_solve(*args, **kwargs):
        raise getattr(linalg, error)("injected")

    monkeypatch.setattr(cli, "solve_state", failing_solve)
    out = str(tmp_path / "failed")
    code = main(["solve", "--n", "2", "--out", out])
    assert code == cli.EXIT_NONCONVERGENCE
    with open(os.path.join(out, "nonconvergence.txt")) as fh:
        assert fh.readline().startswith(error + ": injected")


@pytest.mark.parametrize("module, error", [
    ("state", "NonconvergenceError"), ("state", "DivergedError"),
    ("control", "PdasNonconvergence"), ("linalg", "SingularMatrixError"),
    ("linalg", "LinearSolveError")])
def test_solver_errors_share_one_base(tmp_path, monkeypatch, module, error):
    # main catches SolverError alone, so every solver failure exits 3;
    # each error takes a (message, history) pair and main writes both
    import importlib
    from ddopt.linalg import SolverError
    exc_type = getattr(importlib.import_module("ddopt." + module), error)
    assert issubclass(exc_type, SolverError)

    def failing_solve(*args, **kwargs):
        raise exc_type("injected", [0.5])

    monkeypatch.setattr(cli, "solve_state", failing_solve)
    out = tmp_path / "failed"
    code = main(["solve", "--n", "2", "--out", str(out)])
    assert code == cli.EXIT_NONCONVERGENCE
    assert (out / "nonconvergence.txt").read_text() == \
        "{}: injected\n0 5.000000e-01\n".format(error)
