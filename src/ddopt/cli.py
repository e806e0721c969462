"""Batch command-line entry point: accuracy studies, the porous-cavity
control experiment, single forward solves, and field export.

Configuration is a flat INI file (key = value under sections, all keys
optional) overridden by command-line flags.  Exit codes: 0 success,
2 configuration error, 3 solver nonconvergence, 4 I/O failure.
"""

import argparse
import configparser
import os
import sys

import numpy as np

from .adjoint import TrackingData
from .assembly import ProblemParams
from .control import ControlBounds, PdasSettings, pdas_solve
from .linalg import SolverError
from .mesh import build_unit_square_mesh
from .spaces import BoundaryTrace, P0Field
from .state import NonlinearSettings, solve_state
from .verification import run_convergence_study, get_regime, ERROR_NAMES

__all__ = ["main", "RunConfig", "ConfigError", "derive_cavity_coefficients",
           "cavity_wall_partition", "cavity_boundary_trace", "run_cavity",
           "export_fields", "read_points_csv", "write_errors_csv"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Malformed configuration input."""


_DEFAULTS = {
    "regime": "flow",
    "levels": 4,
    "n": 64,
    "da": 1e-3,
    "ra": 100.0,
    "pr": 0.71,
    "le": 10.0,
    "sr": 0.0,
    "du": 0.1,
    "rk": 1.0,
    "nbuoy": 1.0,
    "lambda": 1.0,
    "lbound": -0.005,
    "ubound": 0.005,
    "tol": 1e-6,
    "tol_mode": "rel",
    "out": "out",
    "export": "csv",
}

_FLOAT_KEYS = {"da", "ra", "pr", "le", "sr", "du", "rk", "nbuoy", "lambda",
               "lbound", "ubound", "tol"}
_INT_KEYS = {"levels", "n"}


class RunConfig:
    """Validated run configuration (defaults, file values, CLI overrides)."""

    def __init__(self, values):
        for key, default in _DEFAULTS.items():
            raw = values.get(key, default)
            if key in _FLOAT_KEYS:
                try:
                    raw = float(raw)
                except (TypeError, ValueError):
                    raise ConfigError("key {!r}: expected a number, got "
                                      "{!r}".format(key, raw)) from None
                if not np.isfinite(raw):
                    raise ConfigError("key {!r} must be finite".format(key))
            elif key in _INT_KEYS:
                try:
                    raw = int(raw)
                except (TypeError, ValueError):
                    raise ConfigError("key {!r}: expected an integer, got "
                                      "{!r}".format(key, raw)) from None
            setattr(self, key if key != "lambda" else "lam", raw)
        if self.lbound >= self.ubound:
            raise ConfigError("control bounds must satisfy lbound < ubound")
        if self.tol_mode not in ("abs", "rel"):
            raise ConfigError("tol-mode must be 'abs' or 'rel'")
        if self.export not in ("csv", "vtk"):
            raise ConfigError("export must be 'csv' or 'vtk'")
        if self.regime not in ("flow", "stokes", "darcy"):
            raise ConfigError("regime must be flow, stokes or darcy")
        if self.n < 1:
            raise ConfigError("n must be positive")
        if self.levels < 3:
            raise ConfigError("a convergence study needs at least 3 levels")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")

    def to_dict(self):
        out = {}
        for key in _DEFAULTS:
            out[key] = getattr(self, key if key != "lambda" else "lam")
        return out


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
            if key not in _DEFAULTS:
                raise ConfigError("unrecognized config key {!r} in section "
                                  "[{}]".format(key, section))
            values[key] = val
    return values


def write_config(config, stream):
    """Serialize a RunConfig back to the sectioned format."""
    groups = {
        "run": ["regime", "levels", "n", "out", "export"],
        "physics": ["da", "ra", "pr", "le", "sr", "du", "rk", "nbuoy",
                    "lambda", "lbound", "ubound"],
        "solver": ["tol", "tol_mode"],
    }
    values = config.to_dict()
    for section, keys in groups.items():
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
    """
    da = config.da
    pr = config.pr
    if da <= 0 or pr <= 0:
        raise ConfigError("Da and Pr must be positive")
    gr_t = config.ra / (pr * da)
    gr_c = config.nbuoy * gr_t
    sc = config.le * pr
    D = np.array([[config.rk / pr, config.du],
                  [config.sr, 1.0 / sc]])
    F_y = np.array([[0.0, 0.0], [-gr_t, -gr_c]])
    params = ProblemParams(sigma=1.0 / da, diffusion=D, nu1=1.0, nu2=1.0,
                           F_y=F_y)
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


def _pdas_settings(config, inner):
    """The PDAS settings of a run configuration, with the state solves'
    settings ``inner``."""
    mode = "relative" if config.tol_mode == "rel" else "absolute"
    return PdasSettings(lam=config.lam, tol=config.tol, tol_mode=mode,
                        inner=inner)


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
    settings = _pdas_settings(config,
                              NonlinearSettings(tol=1e-9, max_iter=200))
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


def _vertex_average_cr(mesh, dof):
    """CR field sampled at vertices, averaged over adjacent cells.

    Within a cell the value at vertex i is dof_j + dof_k - dof_i (psi_i is
    -1 at the opposite vertex and +1 at the other two).
    """
    d = dof if dof.ndim == 2 else dof[:, None]
    local = d[mesh.cell_edges]                     # (nc, 3, k)
    vals = np.zeros((mesh.num_vertices, d.shape[1]))
    counts = np.zeros(mesh.num_vertices)
    total = local.sum(axis=1)                      # (nc, k)
    for i in range(3):
        at_vertex = total - 2.0 * local[:, i]      # dof_j + dof_k - dof_i
        np.add.at(vals, mesh.cells[:, i], at_vertex)
        np.add.at(counts, mesh.cells[:, i], 1.0)
    return vals / counts[:, None]


def _vertex_average_p0(mesh, dof):
    d = np.asarray(dof, dtype=float)
    d = d if d.ndim == 2 else d[:, None]
    vals = np.zeros((mesh.num_vertices, d.shape[1]))
    counts = np.zeros(mesh.num_vertices)
    for i in range(3):
        np.add.at(vals, mesh.cells[:, i], d)
        np.add.at(counts, mesh.cells[:, i], 1.0)
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
    u = _vertex_average_cr(mesh, bundle["u"].dof)
    y = _vertex_average_cr(mesh, bundle["y"].dof)
    p_cells = np.asarray(bundle["p"].dof, dtype=float)
    U_cells = np.asarray(bundle["U"].dof, dtype=float)
    if U_cells.ndim == 1:
        U_cells = np.column_stack([U_cells, np.zeros_like(U_cells)])
    try:
        if fmt == "csv":
            p_v = _vertex_average_p0(mesh, p_cells)[:, 0]
            U_v = _vertex_average_p0(mesh, U_cells)
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


def read_points_csv(path):
    """Read a csv-points export back; returns a dict of column arrays."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [list(map(float, line.strip().split(",")))
                for line in fh if line.strip()]
    data = np.asarray(rows, dtype=float)
    return {name: data[:, k] for k, name in enumerate(header)}


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


def _regime_params_for_solve(config):
    regime = get_regime(config.regime)
    nu2 = regime.nu2
    return ProblemParams(sigma=regime.sigma,
                         nu=lambda T: np.full_like(np.asarray(T, float),
                                                   nu2),
                         nu1=nu2, nu2=nu2, diffusion=np.eye(2))


def _export_state(config, outdir, name, solution, control):
    """Export a state and its control to ``<name>.<export format>``."""
    bundle = {"mesh": solution.u.mesh, "u": solution.u, "p": solution.p,
              "y": solution.y, "U": control}
    export_fields(bundle, os.path.join(outdir, name + "." + config.export),
                  config.export)


def _cmd_convergence(config, outdir):
    # level k uses an (8 * 2^k) x (8 * 2^k) grid, matching the accuracy test
    ns = [8 * 2 ** k for k in range(config.levels)]
    report = run_convergence_study(
        config.regime, ns,
        pdas_settings=_pdas_settings(config, NonlinearSettings(tol=1e-10)),
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
    params = _regime_params_for_solve(config)
    mesh = build_unit_square_mesh(config.n)
    solution = solve_state(mesh, params, y_bc=None, control=None,
                           settings=NonlinearSettings(tol=1e-10))
    _export_state(config, outdir, "solution", solution,
                  P0Field(mesh, np.zeros((mesh.num_cells, 2))))
    print("forward solve done in {} nonlinear steps (Picard and Newton); "
          "output in {}".format(solution.iterations, outdir))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddopt",
        description="Doubly diffusive flow control: accuracy studies, "
                    "cavity control, forward solves.")
    parser.add_argument("command",
                        choices=["convergence", "cavity", "solve"])
    parser.add_argument("--config", metavar="PATH")
    parser.add_argument("--regime", choices=["flow", "stokes", "darcy"])
    parser.add_argument("--levels", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--da", type=float)
    parser.add_argument("--ra", type=float)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--lbound", type=float)
    parser.add_argument("--ubound", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--tol-mode", choices=["abs", "rel"])
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--export", choices=["csv", "vtk"])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        values = {}
        if args.config:
            values.update(parse_config_file(args.config))
        for key in ("regime", "levels", "n", "da", "ra", "lbound", "ubound",
                    "tol", "out", "export"):
            v = getattr(args, key)
            if v is not None:
                values[key] = v
        if args.lam is not None:
            values["lambda"] = args.lam
        if args.tol_mode is not None:
            values["tol_mode"] = args.tol_mode
        config = RunConfig(values)
    except ConfigError as exc:
        print("config error: {}".format(exc), file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        print("cannot create output directory: {}".format(exc),
              file=sys.stderr)
        return EXIT_IO

    try:
        if args.command == "convergence":
            return _cmd_convergence(config, config.out)
        if args.command == "cavity":
            return _cmd_cavity(config, config.out)
        return _cmd_solve(config, config.out)
    except SolverError as exc:
        diag = os.path.join(config.out, "nonconvergence.txt")
        try:
            with open(diag, "w") as fh:
                fh.write("{}: {}\n".format(type(exc).__name__, exc))
                history = getattr(exc, "increments",
                                  getattr(exc, "set_changes", []))
                for k, v in enumerate(history):
                    fh.write("{} {:.6e}\n".format(k, v))
        except OSError:
            pass
        print("solver failed to converge: {}".format(exc), file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (IOError, OSError) as exc:
        print("I/O failure: {}".format(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
