"""Benchmark workloads: seeded input generators, tasks and their checks.

A workload is built once from the seed (the set-up: meshes, boundary
traces, run configurations) and then hands out task specs without end;
``run`` performs one task through the public ``ddopt`` API, ``check``
returns the list of problems found in its output (empty when it passes)
and ``expected_error`` names the solver error the reference says the task
raises (None: it raises none).  A run measures whole batches of ``batch``
consecutive tasks.
Every workload is a closed loop with one client: the next task starts
when the previous one has finished.

``tiny`` shrinks every mesh so the benchmark's own test runs in seconds.
"""

import json
import os
import random

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# Relative tolerances of the checks.
DIV_TOL = 1e-10        # cellwise |div| against 1 + max |field|
RESIDUAL_TOL = 1e-8    # equation residual norms against 1 + max |u|
VI_TOL = 1e-10         # projection fixed-point violation (absolute)
REFERENCE_RTOL = 1e-6  # cost and errors against the reference values
MIN_EOC = 0.85         # every final experimental order of convergence

SOLVE_TOL = 1e-10      # NonlinearSettings(tol=...) of the forward solves


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def _close(value, ref):
    return abs(value - ref) <= REFERENCE_RTOL * abs(ref)


def _divergence_problems(label, field_max_div, field_dof):
    peak = float(abs(field_dof).max())
    div = field_max_div()
    if not div <= DIV_TOL * (1.0 + peak):
        return ["{} max |div| {:.3e} exceeds {:.0e} * (1 + {:.3e})".format(
            label, div, DIV_TOL, peak)]
    return []


class Workload:
    batch = 1

    def expected_error(self, spec):
        return None


class ForwardCavity(Workload):
    """Uncontrolled porous-cavity state solves, Da = 1e-3, Ra drawn
    uniformly from [95, 105]; n = 32 (tiny: 8)."""

    name = "forward_cavity"

    def __init__(self, ddopt, seed, tiny, workdir):
        self.ddopt = ddopt
        self.rng = random.Random(seed)
        n = 8 if tiny else 32
        self.cases = {n: self._case(n)}

    def _case(self, n):
        cli = self.ddopt["cli"]
        mesh = self.ddopt["mesh"].build_unit_square_mesh(n)
        return mesh, cli.cavity_boundary_trace(mesh)

    def specs(self):
        (n,) = self.cases
        while True:
            yield {"n": n, "ra": self.rng.uniform(95.0, 105.0), "da": 1e-3,
                   "le": 10.0}

    def run(self, spec):
        cli = self.ddopt["cli"]
        mesh, y_bc = self.cases[spec["n"]]
        config = cli.RunConfig(spec)
        params, _ = cli.derive_cavity_coefficients(config)
        settings = self.ddopt["state"].NonlinearSettings(tol=SOLVE_TOL)
        solution = self.ddopt["state"].solve_state(mesh, params, y_bc,
                                                   settings=settings)
        return params, solution

    def check(self, spec, output):
        params, solution = output
        mesh, y_bc = self.cases[spec["n"]]
        problems = _divergence_problems("state", solution.max_divergence,
                                        solution.u.dof)
        scale = 1.0 + float(abs(solution.u.dof).max())
        residual = self.ddopt["state"].state_residual(mesh, params, solution,
                                                      y_bc=y_bc)
        for block, value in residual.items():
            if not value <= RESIDUAL_TOL * scale:
                problems.append("{} residual {:.3e} exceeds {:.0e} * {:.3e}"
                                .format(block, value, RESIDUAL_TOL, scale))
        return problems

    @staticmethod
    def describe(spec):
        return "n={n} Ra={ra:.6g} Da={da:.6g} Le={le:.6g}".format(**spec)


class ParamSweep(ForwardCavity):
    """Forward cavity solves over n in {8, 12, 16} (tiny: {4, 6, 8}),
    Ra in [50, 200], Da on a log scale in [1e-4, 1e-2], Le in [2, 20].

    One sweep is 30 solves, ten per mesh size, on the rank-1 lattice
    ((k, 3k, 7k) mod 10 + 1/2) / 10 over (Ra, log Da, Le): one point at the
    centre of each tenth of every range.  The seed sets the order of each
    sweep, and a run measures whole sweeps.  Independent draws let the
    number of failing solves, each several times the cost of a passing
    one, swing a 30-solve run's throughput by a fifth between seeds; the
    fixed sweep keeps every run's work, its failing corner included, the
    same.  Which points fail, and with which error, is in the reference.
    """

    name = "param_sweep"
    LATTICE = (1, 3, 7)
    POINTS = 10

    def __init__(self, ddopt, seed, tiny, workdir):
        self.ddopt = ddopt
        self.rng = random.Random(seed)
        self.cases = {n: self._case(n)
                      for n in ((4, 6, 8) if tiny else (8, 12, 16))}
        self.sweep = []
        for n in self.cases:
            for k in range(self.POINTS):
                ra, log_da, le = (((k * g) % self.POINTS + 0.5) / self.POINTS
                                  for g in self.LATTICE)
                self.sweep.append({"n": n, "point": k,
                                   "ra": 50.0 + 150.0 * ra,
                                   "da": 10.0 ** (-4.0 + 2.0 * log_da),
                                   "le": 2.0 + 18.0 * le})
        self.batch = len(self.sweep)
        self.failures = load_reference().get("param_sweep", {}).get(
            self.sweep_key(), {})

    def sweep_key(self):
        return ",".join(str(n) for n in self.cases)

    @staticmethod
    def point_key(spec):
        return "{n}/{point}".format(**spec)

    def expected_error(self, spec):
        return self.failures.get(self.point_key(spec))

    def specs(self):
        while True:
            order = list(self.sweep)
            self.rng.shuffle(order)
            yield from order

    @staticmethod
    def describe(spec):
        return "point={point} n={n} Ra={ra:.6g} Da={da:.6g} Le={le:.6g}" \
            .format(**spec)


class CavityControl(Workload):
    """The paper's Da = 1e-3 PDAS experiment as ``ddopt cavity`` runs it:
    box +-0.005, relative tolerance 1e-6, zero targets, then the KKT
    residuals and a CSV field export; n = 24 (tiny: 8).  The inputs are
    the paper's and do not depend on the seed.  The mesh is the largest
    that gives a 30 s run several tasks: one 32 x 32 task per run left the
    figure at the mercy of the host's throughput swings."""

    name = "cavity_control"

    def __init__(self, ddopt, seed, tiny, workdir):
        self.ddopt = ddopt
        self.workdir = workdir
        self.n = 8 if tiny else 24
        self.config = ddopt["cli"].RunConfig({
            "experiment": "cavity", "n": self.n, "da": 1e-3, "ra": 100.0,
            "lbound": -0.005, "ubound": 0.005, "tol": 1e-6,
            "tol_mode": "rel", "export": "csv", "out": workdir})

    def specs(self):
        while True:
            yield {"n": self.n}

    def run(self, spec):
        cli = self.ddopt["cli"]
        with open(os.path.join(self.workdir, "iterations.log"), "w") as log:
            result = cli.run_cavity(self.config, log=log)
        kkt = self.ddopt["control"].kkt_residuals(result)
        path = os.path.join(self.workdir, "cavity_fields.csv")
        cli.export_fields({"mesh": result.state.u.mesh, "u": result.state.u,
                           "p": result.state.p, "y": result.state.y,
                           "U": result.control}, path, "csv")
        return result, kkt, path

    def check(self, spec, output):
        result, kkt, path = output
        ref = load_reference()["cavity_control"][str(self.n)]
        problems = []
        if result.iterations != ref["iterations"]:
            problems.append("PDAS iterations {} != reference {}".format(
                result.iterations, ref["iterations"]))
        cost = result.cost_history[-1]
        if not _close(cost, ref["cost"]):
            problems.append("cost J {!r} != reference {!r}".format(
                cost, ref["cost"]))
        if not kkt["vi_res"] <= VI_TOL:
            problems.append("vi_res {:.3e} exceeds {:.0e}".format(
                kkt["vi_res"], VI_TOL))
        problems += _divergence_problems("state",
                                         result.state.max_divergence,
                                         result.state.u.dof)
        problems += _divergence_problems("adjoint",
                                         result.adjoint.max_divergence,
                                         result.adjoint.phi.dof)
        with open(path) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != result.state.u.mesh.num_vertices:
            problems.append("export has {} rows for {} vertices".format(
                rows, result.state.u.mesh.num_vertices))
        return problems

    @staticmethod
    def describe(spec):
        return "n={n} Da=1e-3 Ra=100".format(**spec)


class AccuracyStudy(Workload):
    """Manufactured convergence studies in the flow and Darcy regimes on
    levels 8, 12, 16 (tiny: 4, 6, 8); one task runs both.  The inputs are
    fixed and do not depend on the seed."""

    name = "accuracy_study"
    REGIMES = ("flow", "darcy")

    def __init__(self, ddopt, seed, tiny, workdir):
        self.ddopt = ddopt
        self.levels = [4, 6, 8] if tiny else [8, 12, 16]

    def specs(self):
        while True:
            yield {"levels": self.levels}

    def run(self, spec):
        study = self.ddopt["verification"].run_convergence_study
        return {regime: study(regime, spec["levels"], keep_results=True)
                for regime in self.REGIMES}

    def check(self, spec, output):
        names = self.ddopt["verification"].ERROR_NAMES
        key = ",".join(str(n) for n in spec["levels"])
        reference = load_reference()["accuracy_study"][key]
        problems = []
        for regime, report in output.items():
            ref = reference[regime]
            for name in names:
                rate = report.rates[name][-1]
                if not rate >= MIN_EOC:
                    problems.append("{} {} final EOC {:.4f} < {}".format(
                        regime, name, rate, MIN_EOC))
                for level, (err, ref_err) in enumerate(
                        zip(report.errors[name], ref[name])):
                    if not _close(err, ref_err):
                        problems.append("{} {} level {}: {!r} != reference "
                                        "{!r}".format(regime, name, level,
                                                      err, ref_err))
            for level, result in enumerate(report.results):
                label = "{} level {}".format(regime, level)
                problems += _divergence_problems(
                    label + " state", result.state.max_divergence,
                    result.state.u.dof)
                problems += _divergence_problems(
                    label + " adjoint", result.adjoint.max_divergence,
                    result.adjoint.phi.dof)
            for level, vi in enumerate(report.vi_res):
                if not vi <= VI_TOL:
                    problems.append("{} level {} vi_res {:.3e}".format(
                        regime, level, vi))
        return problems

    @staticmethod
    def describe(spec):
        return "flow+darcy levels={}".format(spec["levels"])


WORKLOADS = {w.name: w for w in (ForwardCavity, CavityControl, ParamSweep,
                                 AccuracyStudy)}


def solver_errors(ddopt):
    """The exception types a task may raise and still count as attempted."""
    return (ddopt["state"].NonconvergenceError, ddopt["state"].DivergedError,
            ddopt["control"].PdasNonconvergence,
            ddopt["linalg"].SingularMatrixError,
            ddopt["linalg"].LinearSolveError)
