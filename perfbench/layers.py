"""Layer map of ``ddopt`` for the traced run: which modules are wrapped,
which counters are read at the layer boundaries, and how spans and counts
become the per-layer metrics.

Every metric is per task: a total over the traced tasks divided by their
number.  ``<module>.self_s`` is the self time of all spans of a module;
together with ``trace.untraced_s`` they add up to ``trace.wall_s``.  The
other ``_s`` metrics are sub-totals: "self" ones sum the self time of the
named spans, "total" ones sum the duration of the outermost call to any
of the named functions (children included).
"""

import os

from tracer import instrument

MODULES = ["mesh", "spaces", "assembly", "linalg", "state", "adjoint",
           "control", "verification", "cli"]

# metric -> (kind, span names); kind "self" or "total"
TIMED = {
    "linalg.factor_s": ("self", ["linalg.DirectSolver.__init__"]),
    "linalg.bordered_setup_s": ("self", ["linalg.BorderedSolver.__init__"]),
    "linalg.solve_s": ("total", ["linalg.BorderedSolver.solve",
                                 "linalg.DirectSolver.solve"]),
    "assembly.upwind_s": ("total", [
        "assembly.assemble_upwind_advection",
        "assembly.assemble_advecting_linearization"]),
    "assembly.coeff_s": ("total", [
        "assembly.assemble_brinkman_diffusion",
        "assembly.assemble_stiffness", "assembly.assemble_mass",
        "assembly.assemble_cross_diffusion",
        "assembly.assemble_viscosity_coupling",
        "assembly.assemble_buoyancy_coupling",
        "assembly.assemble_jump_penalty"]),
    "assembly.load_s": ("total", [
        "assembly.assemble_load", "assembly.assemble_p0_load",
        "assembly.tracking_load", "assembly.tracking_cost"]),
    "control.kkt_s": ("total", ["control.kkt_residuals"]),
    "verification.error_norms_s": ("total", ["verification.error_norms"]),
    "verification.forcing_s": ("total", ["verification.manufactured_forcing"]),
    "cli.export_s": ("total", ["cli.export_fields"]),
    "mesh.build_s": ("total", ["mesh.build_unit_square_mesh",
                               "mesh.refine_uniform"]),
}

# metric -> span name whose calls are counted
CALLS = {
    "linalg.factorizations": "linalg.DirectSolver.__init__",
    "state.steps": "state.StateStepper.step",
    "adjoint.solves": "adjoint.solve_adjoint",
}

# counters filled by the hooks below, reported as per-task totals
COUNTED = ["linalg.errors", "state.newton_steps", "control.pdas_iterations",
           "cli.export_bytes", "mesh.cells"]


class Counts:
    """Per-task counters read at layer boundaries."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.values = {}
        self._last_error = None

    def add(self, name, value=1):
        key = (self.tracer.task, name)
        self.values[key] = self.values.get(key, 0) + value

    def total(self, name, tasks):
        return sum(v for (t, n), v in self.values.items()
                   if n == name and t in tasks)

    def hooks(self, linalg_errors):
        def factor(args, kwargs):
            A = args[1] if len(args) > 1 else kwargs["A"]
            self.add("linalg.factor_dim", A.shape[0])
            self.add("linalg.factor_nnz", A.nnz)

        def linalg_error(args, kwargs):
            def after(result, exc):
                # an error crossing several linalg spans counts once
                if isinstance(exc, linalg_errors) \
                        and exc is not self._last_error:
                    self._last_error = exc
                    self.add("linalg.errors")
            return after

        def factor_and_error(args, kwargs):
            factor(args, kwargs)
            return linalg_error(args, kwargs)

        def step(args, kwargs):
            if args[0].newton:
                self.add("state.newton_steps")

        def pdas(args, kwargs):
            def after(result, exc):
                if result is not None:
                    self.add("control.pdas_iterations", result.iterations)
            return after

        def export(args, kwargs):
            path = args[1] if len(args) > 1 else kwargs["path"]

            def after(result, exc):
                if exc is None:
                    self.add("cli.export_bytes", os.path.getsize(path))
            return after

        def mesh(args, kwargs):
            def after(result, exc):
                if result is not None:
                    self.add("mesh.cells", result.num_cells)
            return after

        hooks = {name: linalg_error for name in (
            "linalg.DirectSolver.solve", "linalg.solve_direct",
            "linalg.BlockSystem.__init__", "linalg.BlockSystem.solve",
            "linalg.BorderedSolver.__init__", "linalg.BorderedSolver.solve")}
        hooks.update({
            "linalg.DirectSolver.__init__": factor_and_error,
            "state.StateStepper.step": step,
            "control.pdas_solve": pdas,
            "cli.export_fields": export,
            "mesh.build_unit_square_mesh": mesh,
            "mesh.refine_uniform": mesh,
        })
        return hooks


def install(tracer, ddopt_modules):
    """Wrap every layer module; returns the Counts its hooks fill."""
    counts = Counts(tracer)
    linalg = ddopt_modules["linalg"]
    hooks = counts.hooks((linalg.SingularMatrixError,
                          linalg.LinearSolveError))
    instrument(tracer, [ddopt_modules[m] for m in MODULES], hooks=hooks,
               package="ddopt")
    return counts


def outermost_total(tracer, spans, names):
    """Summed duration of the spans named ``names`` that have no ancestor
    of those names."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s.name in names and not any(
                a.name in names for a in tracer.ancestors(s)):
            total += s.duration
    return total


def per_layer(tracer, counts, tasks, task_wall, span_cost):
    """Per-layer metrics per task over the traced ``tasks``.

    ``task_wall`` is the summed wall time of those tasks and ``span_cost``
    the calibrated cost of recording one span.
    """
    tasks = set(tasks)
    n = max(len(tasks), 1)
    spans = [s for s in tracer.spans if s.task in tasks]
    out = {}
    traced_self = 0.0
    for module in MODULES:
        prefix = module + "."
        own = sum(s.self_time for s in spans if s.name.startswith(prefix))
        traced_self += own
        out[module + ".self_s"] = own / n
    for name, (kind, span_names) in TIMED.items():
        if kind == "self":
            wanted = set(span_names)
            value = sum(s.self_time for s in spans if s.name in wanted)
        else:
            value = outermost_total(tracer, spans, span_names)
        out[name] = value / n
    for name, span_name in CALLS.items():
        out[name] = sum(1 for s in spans if s.name == span_name) / n
    out["assembly.calls"] = sum(
        1 for s in spans if s.name.startswith("assembly.")) / n
    for name in COUNTED:
        out[name] = counts.total(name, tasks) / n
    factorizations = out["linalg.factorizations"] * n
    for name in ("linalg.factor_dim", "linalg.factor_nnz"):
        # mean over the factorized matrices
        out[name] = counts.total(name, tasks) / factorizations \
            if factorizations else 0.0
    out["trace.wall_s"] = task_wall / n
    out["trace.untraced_s"] = (task_wall - traced_self) / n
    out["trace.spans"] = len(spans) / n
    out["trace.overhead_s"] = span_cost * len(spans) / n
    return out


UNITS = {"calls": "count", "factorizations": "count", "errors": "count",
         "steps": "count", "newton_steps": "count", "solves": "count",
         "pdas_iterations": "count", "cells": "count", "spans": "count",
         "factor_dim": "count", "factor_nnz": "count", "export_bytes": "B"}


def unit_of(name):
    leaf = name.rsplit(".", 1)[-1]
    return "s" if leaf.endswith("_s") else UNITS[leaf]
