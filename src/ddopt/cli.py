"""Batch command-line entry point: accuracy studies, the porous-cavity
control experiment, uncontrolled cavity solves, and field export.

Every run setting is one row of ``_SETTINGS``: its section in the config
file, type, default and check.  A run takes each setting from the
defaults, then from a flat INI file (key = value under those sections,
all keys optional), then from the command-line flags; ``pr``, ``le``,
``sr``, ``du``, ``rk`` and ``nbuoy`` have no flag.  Every setting is
validated.  ``_COMMANDS`` lists the settings each command reads, and a
flag of any other is a configuration error; a config file may set every
key, so that one file serves all three commands.  ``solve`` is the
problem of ``cavity`` at zero control.  Exit codes: 0 success,
2 configuration error (any invalid setting or unread flag, a cavity
diffusion matrix that is not positive definite included), 3 solver
failure, 4 I/O failure.
"""

import argparse
import configparser
import os
import sys
from collections import namedtuple
from itertools import groupby

import numpy as np

from .adjoint import TrackingData
from .assembly import ProblemParams
from .control import ControlBounds, PdasSettings, pdas_solve
from .linalg import SolverError
from .mesh import build_unit_square_mesh
from .spaces import BoundaryTrace, P0Field
from .state import NonlinearSettings, solve_state
from .verification import run_convergence_study, ERROR_NAMES

__all__ = ["main", "RunConfig", "ConfigError", "derive_cavity_coefficients",
           "cavity_wall_partition", "cavity_boundary_trace", "run_cavity",
           "export_fields", "write_errors_csv"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Malformed configuration input."""


# One row per run setting: its config-file section, type and default, the
# values it may take (choices) or a (rule, test) pair that it must pass,
# and whether a command-line flag sets it.
_Setting = namedtuple("_Setting", "section kind default choices rule flag",
                      defaults=((), None, True))

_POSITIVE = ("positive", lambda v: v > 0)
# the PdasSettings name of each configured tol_mode
_TOL_MODES = {"abs": "absolute", "rel": "relative"}

_SETTINGS = {
    "regime": _Setting("run", str, "flow",
                       choices=("flow", "stokes", "darcy")),
    # a convergence study fits rates to three levels at least
    "levels": _Setting("run", int, 4, rule=("at least 3", lambda v: v >= 3)),
    "n": _Setting("run", int, 64, rule=_POSITIVE),
    "out": _Setting("run", str, "out"),
    "export": _Setting("run", str, "csv", choices=("csv", "vtk")),
    "da": _Setting("physics", float, 1e-3, rule=_POSITIVE),
    "ra": _Setting("physics", float, 100.0),
    "pr": _Setting("physics", float, 0.71, rule=_POSITIVE, flag=False),
    "le": _Setting("physics", float, 10.0, rule=_POSITIVE, flag=False),
    "sr": _Setting("physics", float, 0.0, flag=False),
    "du": _Setting("physics", float, 0.1, flag=False),
    "rk": _Setting("physics", float, 1.0, flag=False),
    "nbuoy": _Setting("physics", float, 1.0, flag=False),
    "lambda": _Setting("physics", float, 1.0),
    "lbound": _Setting("physics", float, -0.005),
    "ubound": _Setting("physics", float, 0.005),
    "tol": _Setting("solver", float, 1e-6, rule=_POSITIVE),
    "tol_mode": _Setting("solver", str, "rel", choices=("abs", "rel")),
}


def _attribute(key):
    """The RunConfig attribute of a setting (``lambda`` is a keyword)."""
    return "lam" if key == "lambda" else key


def _flag(key):
    """The command-line flag of a setting."""
    return "--" + key.replace("_", "-")


class RunConfig:
    """Validated run configuration: every setting of ``_SETTINGS`` from
    ``values`` or its default; other keys of ``values`` are ignored."""

    def __init__(self, values):
        for key, setting in _SETTINGS.items():
            raw = values.get(key, setting.default)
            try:
                value = setting.kind(raw)
            except (TypeError, ValueError):
                raise ConfigError("key {!r}: expected {}, got {!r}".format(
                    key, setting.kind.__name__, raw)) from None
            if setting.kind is float and not np.isfinite(value):
                raise ConfigError("key {!r} must be finite".format(key))
            if setting.choices and value not in setting.choices:
                raise ConfigError("key {!r} must be one of {}, got {!r}"
                                  .format(key, ", ".join(setting.choices),
                                          value))
            if setting.rule and not setting.rule[1](value):
                raise ConfigError("key {!r} must be {}, got {!r}".format(
                    key, setting.rule[0], value))
            setattr(self, _attribute(key), value)
        if self.lbound >= self.ubound:
            raise ConfigError("control bounds must satisfy lbound < ubound")

    def to_dict(self):
        return {key: getattr(self, _attribute(key)) for key in _SETTINGS}


def parse_config_file(path):
    """Read the sectioned key=value file into a flat dict."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("cannot read config {}: {}".format(path, exc))
    except configparser.Error as exc:
        raise ConfigError("config parse error in {}: {}".format(path, exc))
    values = {}
    for section in parser.sections():
        for key, val in parser.items(section):
            key = key.replace("-", "_")
            if key not in _SETTINGS:
                raise ConfigError("unrecognized config key {!r} in section "
                                  "[{}]".format(key, section))
            values[key] = val
    return values


def write_config(config, stream):
    """Serialize a RunConfig back to the sectioned format."""
    values = config.to_dict()
    for section, keys in groupby(_SETTINGS,
                                 key=lambda key: _SETTINGS[key].section):
        stream.write("[{}]\n".format(section))
        for key in keys:
            stream.write("{} = {}\n".format(key, values[key]))
        stream.write("\n")


def derive_cavity_coefficients(config):
    """Cavity coefficient groups from the dimensionless inputs.

    Gr_T = Ra / (Pr Da), Gr_C = N Gr_T, Sc = Le Pr, and
    D = [[R_k/Pr, Du], [Sr, 1/Sc]]; the permeability is K = Da I with
    constant unit viscosity, and the buoyancy F(y) = (Gr_T T + Gr_C C) g
    with g = (0, -1).

    Returns
    -------
    (ProblemParams, dict)
        The solver parameters and the derived groups (gr_t, gr_c, sc).
        ConfigError when ``ProblemParams`` or its ``validate`` rejects
        them, as a D that is not positive definite or a Darcy number whose
        reciprocal overflows.
    """
    gr_t = config.ra / (config.pr * config.da)
    gr_c = config.nbuoy * gr_t
    sc = config.le * config.pr
    D = np.array([[config.rk / config.pr, config.du],
                  [config.sr, 1.0 / sc]])
    F_y = np.array([[0.0, 0.0], [-gr_t, -gr_c]])
    try:
        params = ProblemParams(sigma=1.0 / config.da, diffusion=D, nu1=1.0,
                               nu2=1.0, F_y=F_y).validate()
    except ValueError as exc:
        raise ConfigError("cavity coefficients: {}".format(exc)) from None
    return params, {"gr_t": gr_t, "gr_c": gr_c, "sc": sc}


def cavity_wall_partition(mesh):
    """Boundary edges per wall; each boundary edge lands in exactly one."""
    tol = 1e-12
    mid = mesh.edge_midpoint[mesh.boundary_edges]
    walls = {
        "left": mesh.boundary_edges[mid[:, 0] < tol],
        "right": mesh.boundary_edges[mid[:, 0] > 1 - tol],
        "bottom": mesh.boundary_edges[(mid[:, 1] < tol)
                                      & (mid[:, 0] >= tol)
                                      & (mid[:, 0] <= 1 - tol)],
        "top": mesh.boundary_edges[(mid[:, 1] > 1 - tol)
                                   & (mid[:, 0] >= tol)
                                   & (mid[:, 0] <= 1 - tol)],
    }
    total = sum(w.size for w in walls.values())
    if total != mesh.boundary_edges.size:
        raise ValueError("wall partition does not cover the boundary")
    return walls


def cavity_boundary_trace(mesh):
    """Dirichlet trace for (T, C): hot/solutal left wall at 1, cold right
    wall at -1; horizontal walls stay natural (adiabatic and impermeable)."""
    walls = cavity_wall_partition(mesh)
    edges = np.concatenate([walls["left"], walls["right"]])
    values = np.vstack([
        np.full((walls["left"].size, 2), 1.0),
        np.full((walls["right"].size, 2), -1.0),
    ])
    return BoundaryTrace(mesh, edges, values)


def run_cavity(config, log=None):
    """Optimal control of the doubly diffusive porous cavity.

    Returns the OptResult; progress lines go to ``log`` when given.
    """
    params, groups = derive_cavity_coefficients(config)
    mesh = build_unit_square_mesh(config.n)
    y_bc = cavity_boundary_trace(mesh)
    data = TrackingData()  # zero desired states
    bounds = ControlBounds([config.lbound, config.lbound],
                           [config.ubound, config.ubound])
    settings = PdasSettings(lam=config.lam, tol=config.tol,
                            tol_mode=_TOL_MODES[config.tol_mode],
                            state_tol=1e-9)
    if log is not None:
        log.write("cavity: n={} Da={:g} Ra={:g} Gr_T={:g} bounds=[{:g},{:g}]"
                  "\n".format(config.n, config.da, config.ra,
                              groups["gr_t"], config.lbound, config.ubound))
    result = pdas_solve(mesh, params, y_bc, data, bounds, settings=settings)
    if log is not None:
        for k, (cost, change) in enumerate(
                zip(result.cost_history, result.control_changes), start=1):
            log.write("iter {:2d}: J={:.6e} control_change={:.3e}\n"
                      .format(k, cost, change))
        log.write("converged in {} iterations\n".format(result.iterations))
    return result


def _vertex_average(mesh, local):
    """Vertex values from per-cell values ``local`` (nc, 3, k) at each
    cell's vertices, averaged over the cells around each vertex."""
    vals = np.zeros((mesh.num_vertices, local.shape[2]))
    for i in range(3):
        np.add.at(vals, mesh.cells[:, i], local[:, i])
    counts = np.bincount(mesh.cells.ravel(), minlength=mesh.num_vertices)
    return vals / counts[:, None]


_CSV_FIELD_HEADER = "x,y,u1,u2,p,T,S,U1,U2"


def export_fields(bundle, path, fmt="csv"):
    """Write a solution bundle to disk.

    ``bundle`` maps names to fields: mesh, u, p, y (CR pair), U (P0).
    csv-points: one row per vertex with columns x,y,u1,u2,p,T,S,U1,U2
    (CR data vertex-sampled and averaged over adjacent cells, cell data
    averaged to vertices).  vtk-legacy-ascii: unstructured grid with cell
    data (p, U) and vertex-averaged point data.
    """
    mesh = bundle["mesh"]
    # psi_i is -1 at vertex i and +1 at the other two, so a CR field's
    # value at vertex i of a cell is dof_j + dof_k - dof_i
    cr = np.hstack([bundle["u"].dof, bundle["y"].dof])[mesh.cell_edges]
    uy = _vertex_average(mesh, cr.sum(axis=1, keepdims=True) - 2.0 * cr)
    u, y = uy[:, :2], uy[:, 2:]
    p_cells = np.asarray(bundle["p"].dof, dtype=float)
    U_cells = np.asarray(bundle["U"].dof, dtype=float)
    try:
        if fmt == "csv":
            pU = np.column_stack([p_cells, U_cells])[:, None, :]
            pU_v = _vertex_average(mesh, np.repeat(pU, 3, axis=1))
            p_v, U_v = pU_v[:, 0], pU_v[:, 1:]
            with open(path, "w") as fh:
                fh.write(_CSV_FIELD_HEADER + "\n")
                for i in range(mesh.num_vertices):
                    row = [mesh.vertices[i, 0], mesh.vertices[i, 1],
                           u[i, 0], u[i, 1], p_v[i], y[i, 0], y[i, 1],
                           U_v[i, 0], U_v[i, 1]]
                    fh.write(",".join("{:.17g}".format(v) for v in row)
                             + "\n")
        elif fmt == "vtk":
            with open(path, "w") as fh:
                _write_vtk(fh, mesh, u, y, p_cells, U_cells)
        else:
            raise ValueError("unknown export format {!r}".format(fmt))
    except OSError as exc:
        raise IOError("export to {} failed: {}".format(path, exc)) from exc


def _write_vtk(fh, mesh, u_v, y_v, p_cells, U_cells):
    fh.write("# vtk DataFile Version 3.0\n")
    fh.write("ddopt fields\nASCII\nDATASET UNSTRUCTURED_GRID\n")
    fh.write("POINTS {} double\n".format(mesh.num_vertices))
    for x, y in mesh.vertices:
        fh.write("{:.17g} {:.17g} 0\n".format(x, y))
    nc = mesh.num_cells
    fh.write("CELLS {} {}\n".format(nc, 4 * nc))
    for a, b, c in mesh.cells:
        fh.write("3 {} {} {}\n".format(a, b, c))
    fh.write("CELL_TYPES {}\n".format(nc))
    fh.write("5\n" * nc)
    fh.write("CELL_DATA {}\n".format(nc))
    fh.write("SCALARS p double 1\nLOOKUP_TABLE default\n")
    for v in p_cells:
        fh.write("{:.17g}\n".format(v))
    fh.write("VECTORS U double\n")
    for a, b in U_cells:
        fh.write("{:.17g} {:.17g} 0\n".format(a, b))
    fh.write("POINT_DATA {}\n".format(mesh.num_vertices))
    fh.write("VECTORS u double\n")
    for a, b in u_v:
        fh.write("{:.17g} {:.17g} 0\n".format(a, b))
    fh.write("SCALARS T double 1\nLOOKUP_TABLE default\n")
    for v in y_v[:, 0]:
        fh.write("{:.17g}\n".format(v))
    fh.write("SCALARS S double 1\nLOOKUP_TABLE default\n")
    for v in y_v[:, 1]:
        fh.write("{:.17g}\n".format(v))


def write_errors_csv(report, stream):
    """Emit the convergence table with the fixed column schema.

    Columns: level, h, dof_u, dof_p, dof_y, dof_U, then (error, rate) pairs
    in the order e_u, e_p, e_T, e_S, e_phi, e_zeta, e_etaT, e_etaS, e_U1,
    e_U2, and finally the SSN iteration count.  Rates are empty on the
    first level.
    """
    cols = ["level", "h", "dof_u", "dof_p", "dof_y", "dof_U"]
    for name in ERROR_NAMES:
        cols.append(name)
        cols.append("rate")
    cols.append("it")
    stream.write(",".join(cols) + "\n")
    for k in range(len(report.ns)):
        row = [str(k), "{:.10g}".format(report.hs[k]),
               str(report.dofs["u"][k]), str(report.dofs["p"][k]),
               str(report.dofs["y"][k]), str(report.dofs["U"][k])]
        for name in ERROR_NAMES:
            row.append("{:.10e}".format(report.errors[name][k]))
            row.append("" if k == 0
                       else "{:.4f}".format(report.rates[name][k - 1]))
        row.append(str(report.iterations[k]))
        stream.write(",".join(row) + "\n")


def _export_state(config, outdir, name, solution, control):
    """Export a state and its control to ``<name>.<export format>``."""
    bundle = {"mesh": solution.u.mesh, "u": solution.u, "p": solution.p,
              "y": solution.y, "U": control}
    export_fields(bundle, os.path.join(outdir, name + "." + config.export),
                  config.export)


def _cmd_convergence(config, outdir):
    # level k uses an (8 * 2^k) x (8 * 2^k) grid, matching the accuracy test
    ns = [8 * 2 ** k for k in range(config.levels)]
    report = run_convergence_study(config.regime, ns, tol=config.tol,
                                   tol_mode=_TOL_MODES[config.tol_mode],
                                   keep_results=True)
    with open(os.path.join(outdir, "errors.csv"), "w") as fh:
        write_errors_csv(report, fh)
    for k, result in enumerate(report.results):
        _export_state(config, outdir, "fields_level{}".format(k),
                      result.state, result.control)
    print("convergence study ({} levels) written to {}".format(
        config.levels, outdir))
    for name in ERROR_NAMES:
        print("  {:8s} final rate {:+.3f}".format(name,
                                                  report.rates[name][-1]))
    return EXIT_OK


def _cmd_cavity(config, outdir):
    log_path = os.path.join(outdir, "iterations.log")
    with open(log_path, "w") as log:
        result = run_cavity(config, log=log)
    _export_state(config, outdir, "cavity_fields", result.state,
                  result.control)
    print("cavity run converged in {} iterations; output in {}".format(
        result.iterations, outdir))
    return EXIT_OK


def _cmd_solve(config, outdir):
    params, _ = derive_cavity_coefficients(config)
    mesh = build_unit_square_mesh(config.n)
    solution = solve_state(mesh, params, cavity_boundary_trace(mesh),
                           settings=NonlinearSettings(tol=1e-10))
    _export_state(config, outdir, "solution", solution,
                  P0Field(mesh, np.zeros((mesh.num_cells, 2))))
    print("uncontrolled cavity solved in {} nonlinear steps (Picard and "
          "Newton); output in {}".format(solution.iterations, outdir))
    return EXIT_OK


# each command's function and the settings it reads; a flag of any other
# setting is rejected
_Command = namedtuple("_Command", "run reads")
_CAVITY_GROUPS = ("da", "ra", "pr", "le", "sr", "du", "rk", "nbuoy")
_COMMANDS = {
    "convergence": _Command(_cmd_convergence, (
        "regime", "levels", "tol", "tol_mode", "out", "export")),
    "cavity": _Command(_cmd_cavity, ("n",) + _CAVITY_GROUPS + (
        "lambda", "lbound", "ubound", "tol", "tol_mode", "out", "export")),
    "solve": _Command(_cmd_solve, ("n",) + _CAVITY_GROUPS + (
        "out", "export")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddopt",
        description="Doubly diffusive flow control: accuracy studies, "
                    "cavity control, forward solves.")
    parser.add_argument("command", choices=list(_COMMANDS))
    parser.add_argument("--config", metavar="PATH")
    for key, setting in _SETTINGS.items():
        if setting.flag:
            parser.add_argument(_flag(key), dest=key,
                                type=setting.kind,
                                choices=setting.choices or None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    flags = {key: value for key, value in vars(args).items()
             if key in _SETTINGS and value is not None}
    try:
        for key in flags:
            if key not in command.reads:
                raise ConfigError("{} does not read {}".format(
                    args.command, _flag(key)))
        values = parse_config_file(args.config) if args.config else {}
        values.update(flags)
        config = RunConfig(values)
        if "da" in command.reads:  # invalid coefficients leave no --out
            derive_cavity_coefficients(config)
        os.makedirs(config.out, exist_ok=True)
        return command.run(config, config.out)
    except ConfigError as exc:
        print("config error: {}".format(exc), file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        diag = os.path.join(config.out, "nonconvergence.txt")
        try:
            with open(diag, "w") as fh:
                fh.write("{}: {}\n".format(type(exc).__name__, exc))
                for k, v in enumerate(exc.history):
                    fh.write("{} {:.6e}\n".format(k, v))
        except OSError:
            pass
        print("solver failed to converge: {}".format(exc), file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except OSError as exc:
        print("I/O failure: {}".format(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
