"""Print one SHA-256 per group of solver outputs, to check that a change
keeps every result to the bit, and say how far the outputs moved when it
does not.

    python3 tools/output_digest.py [--save DIR] [--compare DIR] [group ...]

runs the named groups (default: all) with the ``ddopt`` of the tree the
script sits in and prints ``<group> <digest>`` per group; run it in two
trees and compare the lines.  ``--save DIR`` also writes each group's
outputs, by name, to ``DIR/<group>.npz``; ``--compare DIR`` reads them
back and prints, under each group's line, every output that differs from
the saved one: for a float array its largest difference relative to the
saved array's largest magnitude, for a count or an active set what
changed, for an error type or message the old and new text.  Keep DIR
outside the source tree.  The PDAS active-set histories are saved but
not hashed: they follow from the hashed histories.  The groups follow the
benchmark workloads:

- ``sweep_4,6,8`` and ``sweep_8,12,16``: the two param_sweep lattices,
  every point's u, p, y, iteration count and increments, or its solver
  error's type and message;
- ``forward_cavity``: the 32 x 32 cavity at Ra 100, Da 1e-3, Le 10;
- ``cavity_control``: the 24 x 24 Da = 1e-3 PDAS run: state, adjoint
  (phi, xi, xi_raw, eta), control, cost and control-change histories and
  the KKT residuals;
- ``accuracy_flow`` and ``accuracy_darcy``: the manufactured studies on
  levels 8, 12, 16: errors, rates, iterations, divergences, VI residuals
  and every level's state, adjoint and control;
- ``adjoint``: the 8 x 8 manufactured problem in the flow and Darcy
  regimes (boundary data, both forcings, the jump penalty in Darcy)
  solved by ``solve_state`` at the exact control, then a standalone
  ``solve_adjoint``: the state, phi, xi, xi_raw, eta and
  ``state_residual``;
- ``cli``: the exit code and every file that ``ddopt.cli.main`` writes
  for ``solve --n 8`` with CSV and with VTK export, for
  ``cavity --n 8 --da 1e-3 --tol-mode rel`` and for
  ``convergence --levels 3 --export csv``, and ``write_config`` of a
  configuration that sets every key away from its default.

All groups take about 35 s on 2 vCPU.

Multithreaded BLAS sums in another order than one thread does, so the
digests depend on the thread count: the tool sets ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 before it imports
numpy, unless the caller set them.  ``--save`` writes the setting with
the outputs, and ``--compare`` warns when it differs from the saved one.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import os
import sys
import tempfile

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
THREADS = " ".join("{}={}".format(v, os.environ[v]) for v in THREAD_VARS)

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ddopt import cli, control, state, verification  # noqa: E402
from ddopt.adjoint import solve_adjoint  # noqa: E402
from ddopt.linalg import SolverError  # noqa: E402
from ddopt.mesh import build_unit_square_mesh  # noqa: E402
from ddopt.spaces import boundary_interpolate, p0_project  # noqa: E402

SOLVE_TOL = 1e-10


class Digest:
    """A SHA-256 over a group's outputs, which also keeps them by name."""

    def __init__(self):
        self.h = hashlib.sha256()
        self.arrays = {}

    def add(self, at="", **named):
        """Hash the outputs in turn and keep each as ``at + name``."""
        for name, item in named.items():
            self._hash(item)
            self.keep(**{at + name: item})
        return self

    def add_file(self, key, name, content):
        self._hash(name)
        self.h.update(content)
        self.arrays[key] = np.array(content.decode(errors="replace"))

    def keep(self, **named):
        """Keep outputs for --save and --compare without hashing them."""
        for name, item in named.items():
            if isinstance(item, dict):
                self.keep(**{"{}.{}".format(name, key): value
                             for key, value in item.items()})
                continue
            try:
                self.arrays[name] = np.array(item)
            except ValueError:  # a list of arrays of different shapes
                self.keep(**{"{}.{}".format(name, i): value
                             for i, value in enumerate(item)})

    def _hash(self, item):
        if isinstance(item, str):
            self.h.update(item.encode())
        elif isinstance(item, dict):
            for key in sorted(item):
                self._hash(key)
                self._hash(item[key])
        elif isinstance(item, (list, tuple)):
            for each in item:
                self._hash(each)
        else:
            a = np.ascontiguousarray(item)
            self.h.update("{}{}".format(a.dtype.str, a.shape).encode())
            self.h.update(a.tobytes())

    def hexdigest(self):
        return self.h.hexdigest()


def _state(d, solution, at=""):
    d.add(at, u=solution.u.dof, p=solution.p.dof, y=solution.y.dof,
          iterations=solution.iterations, increments=solution.increments)


def _opt(d, result, at=""):
    _state(d, result.state, at)
    adj = result.adjoint
    d.add(at, phi=adj.phi.dof, xi=adj.xi.dof, xi_raw=adj.xi_raw,
          eta=adj.eta.dof, control=result.control.dof,
          pdas_iterations=result.iterations,
          cost_history=result.cost_history,
          control_changes=result.control_changes)
    d.keep(**{at + "active_sets": result.active_set_history})


def _forward(n, ra, da, le):
    mesh = build_unit_square_mesh(n)
    config = cli.RunConfig({"n": n, "ra": ra, "da": da, "le": le})
    params, _ = cli.derive_cavity_coefficients(config)
    return state.solve_state(mesh, params, cli.cavity_boundary_trace(mesh),
                             settings=state.NonlinearSettings(tol=SOLVE_TOL))


def sweep(ns):
    """The param_sweep lattice: ((k, 3k, 7k) mod 10 + 1/2) / 10 over
    (Ra, log Da, Le) for every n."""
    d = Digest()
    for n in ns:
        for k in range(10):
            ra, log_da, le = (((k * g) % 10 + 0.5) / 10 for g in (1, 3, 7))
            at = "n{}.k{}.".format(n, k)
            try:
                _state(d, _forward(n, 50.0 + 150.0 * ra,
                                   10.0 ** (-4.0 + 2.0 * log_da),
                                   2.0 + 18.0 * le), at)
            except SolverError as exc:
                d.add(at, error=type(exc).__name__, message=str(exc))
    return d


def forward_cavity():
    d = Digest()
    _state(d, _forward(32, 100.0, 1e-3, 10.0))
    return d


def cavity_control():
    config = cli.RunConfig({"n": 24, "da": 1e-3, "ra": 100.0,
                            "lbound": -0.005, "ubound": 0.005, "tol": 1e-6,
                            "tol_mode": "rel"})
    result = cli.run_cavity(config)
    d = Digest()
    _opt(d, result)
    return d.add(kkt=control.kkt_residuals(result))


def accuracy(regime):
    report = verification.run_convergence_study(regime, [8, 12, 16],
                                                keep_results=True)
    d = Digest().add(errors=report.errors, rates=report.rates,
                     iterations=report.iterations, div_max=report.div_max,
                     vi_res=report.vi_res)
    for n, result in zip(report.ns, report.results):
        _opt(d, result, "n{}.".format(n))
    return d


def adjoint():
    d = Digest()
    for regime in ("flow", "darcy"):
        case = verification.get_regime(regime)
        params = verification.make_params(case)
        mesh = build_unit_square_mesh(8)
        problem = dict(
            y_bc=boundary_interpolate(case.y, mesh),
            control=p0_project(case.U, mesh),
            u_bc=boundary_interpolate(case.u, mesh),
            forcing_mom=functools.partial(verification._momentum_forcing,
                                          case),
            forcing_tr=functools.partial(verification._transport_forcing,
                                         case))
        solution = state.solve_state(
            mesh, params, settings=state.NonlinearSettings(tol=SOLVE_TOL),
            penalty_a0=case.a0, **problem)
        adj = solve_adjoint(solution, verification.tracking_data(case))
        at = regime + "."
        _state(d, solution, at)
        d.add(at, phi=adj.phi.dof, xi=adj.xi.dof, xi_raw=adj.xi_raw,
              eta=adj.eta.dof, residual=state.state_residual(
                  mesh, params, solution, **problem))
    return d


def cli_outputs():
    d = Digest()
    runs = (["solve", "--n", "8", "--export", "csv"],
            ["solve", "--n", "8", "--export", "vtk"],
            ["cavity", "--n", "8", "--da", "1e-3", "--tol-mode", "rel"],
            ["convergence", "--levels", "3", "--export", "csv"])
    for argv in runs:
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", out])
            at = argv[0] + "." + argv[-1] + "."
            d.add(**{at + "argv": " ".join(argv), at + "exit": str(code)})
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    d.add_file(at + name, name, fh.read())
    stream = io.StringIO()
    cli.write_config(cli.RunConfig({
        "regime": "darcy", "levels": 3, "n": 12, "out": "elsewhere",
        "export": "vtk", "da": 2.5e-4, "ra": 150.0, "pr": 7.0, "le": 2.5,
        "sr": 0.05, "du": -0.02, "rk": 2.0, "nbuoy": -0.5, "lambda": 0.5,
        "lbound": -0.1, "ubound": 0.2, "tol": 1e-7, "tol_mode": "abs"}),
        stream)
    return d.add(config=stream.getvalue())


GROUPS = {
    "sweep_4,6,8": lambda: sweep((4, 6, 8)),
    "sweep_8,12,16": lambda: sweep((8, 12, 16)),
    "forward_cavity": forward_cavity,
    "cavity_control": cavity_control,
    "accuracy_flow": lambda: accuracy("flow"),
    "accuracy_darcy": lambda: accuracy("darcy"),
    "adjoint": adjoint,
    "cli": cli_outputs,
}


def compare(saved, arrays):
    """Lines saying how each output of ``arrays`` moved from ``saved``."""
    lines, same = [], 0
    for name in list(arrays) + [k for k in saved if k not in arrays]:
        if name not in saved or name not in arrays:
            lines.append("  {}: {}".format(
                name, "new" if name in arrays else "gone"))
            continue
        a, b = arrays[name], saved[name]
        if a.shape == b.shape and np.array_equal(
                a, b, equal_nan=a.dtype.kind == b.dtype.kind == "f"):
            same += 1
        elif a.shape != b.shape:
            lines.append("  {}: shape {} -> {}".format(name, b.shape, a.shape))
        elif a.dtype.kind == b.dtype.kind == "f":
            scale = float(np.abs(b).max())
            diff = float(np.abs(a - b).max())
            lines.append("  {}: max rel diff {:.1e}".format(
                name, diff / scale if scale else diff))
        elif a.ndim == 0:
            lines.append("  {}: {!r:.60} -> {!r:.60}".format(
                name, b.item(), a.item()))
        else:
            lines.append("  {}: {} of {} entries changed".format(
                name, int(np.sum(a != b)), a.size))
    lines.append("  {} of {} outputs equal to the bit".format(
        same, len(arrays)))
    return lines


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("groups", nargs="*", metavar="group")
    parser.add_argument("--save", metavar="DIR",
                        help="write every group's outputs to DIR/<group>.npz")
    parser.add_argument("--compare", metavar="DIR",
                        help="print how the outputs moved from those saved "
                             "in DIR")
    args = parser.parse_args(argv)
    for name in args.groups or GROUPS:
        if name not in GROUPS:
            parser.exit(2, "unknown group {!r}; groups: {}\n".format(
                name, ", ".join(GROUPS)))
    if args.save:
        os.makedirs(args.save, exist_ok=True)
    for name in args.groups or GROUPS:
        d = GROUPS[name]()
        print(name, d.hexdigest(), flush=True)
        if args.save:
            np.savez(os.path.join(args.save, name + ".npz"),
                     _threads=THREADS, **d.arrays)
        if args.compare:
            with np.load(os.path.join(args.compare, name + ".npz")) as saved:
                saved = dict(saved)
            threads = str(saved.pop("_threads", "an unrecorded setting"))
            if threads != THREADS:
                print("  warning: saved with {}, run with {}".format(
                    threads, THREADS))
            print("\n".join(compare(saved, d.arrays)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
