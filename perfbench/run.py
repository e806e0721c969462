"""Run one workload of the ddopt benchmark and print its metrics.

    python3 perfbench/run.py --workload forward_cavity --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a source checkout: ``ddopt`` is imported from its
``src`` directory, never from an installed copy, and the run exits with an
error when the sources are missing.  The run sets up the workload from the
seed (timed as ``setup_s``), then runs tasks one after another, in whole
batches, until the next batch would end past ``--seconds`` (``--seconds 0``
runs one batch), checks every output and every solver error against the
reference, and prints a report followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy can be imported.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402
from workloads import WORKLOADS, solver_errors  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

# On a 2-vCPU VM one set-up time spread by 0.30 (quartile distance over
# median) over ten forward_cavity runs.  Resampling 60 fresh set-ups, the
# median of three cut the chance that two ten-run medians differ by more
# than 15% from 2.6% to 0.1%.
SETUP_SAMPLES = 3      # set-ups per run: this process plus fresh ones
PROBE_TIMEOUT = 120.0  # seconds allowed for one fresh set-up


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small meshes, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time of a fresh process")
    return parser.parse_args(argv)


def import_ddopt():
    """Import the layer modules from the checkout's sources."""
    sys.path.insert(0, SRC)
    modules = {name: importlib.import_module("ddopt." + name)
               for name in layers.MODULES}
    found = os.path.dirname(os.path.abspath(sys.modules["ddopt"].__file__))
    if found != os.path.join(SRC, "ddopt"):
        raise SystemExit("perfbench: ddopt was imported from {}, not from "
                         "{}".format(found, SRC))
    return modules


def set_up(args, workdir, tracer=None):
    """Import ddopt and build the workload's inputs.  With a ``tracer`` the
    layers are instrumented after the import and the build is traced as
    task "setup".  Returns the modules, the workload, the layer counts
    (None untraced), the set-up time and its import part."""
    t0 = time.perf_counter()
    ddopt = import_ddopt()
    t1 = time.perf_counter()
    counts = layers.install(tracer, ddopt) if tracer else None
    t2 = time.perf_counter()
    if tracer:
        tracer.task, tracer.active = "setup", True
    workload = WORKLOADS[args.workload](ddopt, args.seed, args.tiny, workdir)
    t3 = time.perf_counter()
    if tracer:
        tracer.active = False
    return ddopt, workload, counts, (t1 - t0) + (t3 - t2), t1 - t0


class Record:
    def __init__(self, index, batch, spec, duration, error, problems):
        self.index = index
        self.batch = batch
        self.spec = spec
        self.duration = duration
        self.error = error
        self.problems = problems

    @property
    def ok(self):
        return self.error is None and not self.problems


def measure(workload, errors, seconds, tracer):
    """Closed loop over whole batches of tasks: start the next batch unless
    it would end past ``seconds``, judged by the median batch so far; at
    least one batch runs.  A task whose solver error (or its absence)
    differs from the reference's fails its check."""
    clock = time.perf_counter
    start = clock()
    records = []
    batch_times = []
    for index, spec in enumerate(workload.specs()):
        if index % workload.batch == 0:
            now = clock()
            if index:
                batch_times.append(now - batch_start)
                if now + statistics.median(batch_times) > start + seconds:
                    break
            batch_start = now
        tracer.task, tracer.active = index, True
        t0 = clock()
        try:
            output, error = workload.run(spec), None
        except errors as exc:
            output, error = None, exc
        duration = clock() - t0
        tracer.active = False
        problems = workload.check(spec, output) if error is None else []
        raised = None if error is None else type(error).__name__
        expected = workload.expected_error(spec)
        if raised != expected:
            problems.append("raised {}, reference expects {}".format(
                raised, expected))
        records.append(Record(index, index // workload.batch, spec, duration,
                              error, problems))
    return records


def fresh_setup_times(args, count):
    """Set-up times of ``count`` fresh interpreters on the same inputs."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        command.append("--tiny")
    times = []
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def cli_error_exits(ddopt, errors, workdir):
    """Exit code of ``ddopt solve`` when the solver raises each error type,
    or "uncaught" when the error escapes ``main`` as a traceback."""
    cli = ddopt["cli"]
    original = cli.solve_state
    exits = {}
    for exc_type in errors:
        def fail(*args, **kwargs):
            raise exc_type("raised for the exit-code probe", [])

        cli.solve_state = fail
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                exits[exc_type.__name__] = cli.main(
                    ["solve", "--n", "2", "--out", workdir])
        except exc_type:
            exits[exc_type.__name__] = "uncaught"
        finally:
            cli.solve_state = original
    return exits


def environment():
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"][
            "blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARIABLES}}


def end_to_end(records, setup_times):
    """``time_to_solution_s`` is the median over batches of the mean passing
    task in the batch: the median task where a batch is one task, and on a
    sweep a figure that does not jump between its mesh sizes."""
    passed = {}
    for r in records:
        if r.ok:
            passed.setdefault(r.batch, []).append(r.duration)
    busy = sum(r.duration for r in records)
    typical = statistics.median(
        [statistics.fmean(d) for d in passed.values()] if passed
        else [r.duration for r in records])
    return {
        "time_to_solution_s": (typical, "s"),
        "solves_per_s": (sum(map(len, passed.values())) / busy, "1/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }


def traced_metrics(tracer, counts, records, setup_import_s):
    tasks = [r.index for r in records]
    wall = sum(r.duration for r in records)
    values = layers.per_layer(tracer, counts, tasks, wall, span_cost())
    metrics = {name: (value, layers.unit_of(name))
               for name, value in values.items()}
    setup_spans = [s for s in tracer.spans if s.task == "setup"]
    metrics["trace.tasks"] = (float(len(tasks)), "count")
    metrics["setup.import_s"] = (setup_import_s, "s")
    metrics["setup.mesh_build_s"] = (layers.outermost_total(
        tracer, setup_spans, layers.TIMED["mesh.build_s"][1]), "s")
    metrics["setup.mesh_cells"] = (
        float(counts.total("mesh.cells", {"setup"})), "count")
    return metrics


def report(args, env, records, metrics, cli_exits):
    print("perfbench workload={} seed={} seconds={:g} trace={} tiny={}"
          .format(args.workload, args.seed, args.seconds, args.trace,
                  int(args.tiny)))
    print("environment " + json.dumps(env, sort_keys=True))
    for r in records:
        status = "pass" if r.ok else "; ".join(
            ([type(r.error).__name__] if r.error is not None else [])
            + r.problems)
        print("task {:3d} {:9.4f} s  {}  [{}]".format(
            r.index, r.duration, status, WORKLOADS[args.workload]
            .describe(r.spec)))
    failed = sum(1 for r in records if not r.ok)
    passed = len(records) - failed
    for name, (value, unit) in sorted(metrics.items()):
        print("metric {} = {!r} {}".format(name, value, unit))
    print("samples passed={} attempted={} batches={}".format(
        passed, len(records), len({r.batch for r in records})))
    print("failed_fraction = {}/{} = {!r}".format(
        failed, len(records), failed / len(records)))
    print("cli exit codes on solver errors " + json.dumps(cli_exits))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ddopt", "__init__.py")):
        print("perfbench: no ddopt sources under {}".format(SRC),
              file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        if args.setup_only:
            print(set_up(args, workdir)[3])
            return 0
        tracer = Tracer()
        ddopt, workload, counts, setup_time, import_time = set_up(
            args, workdir, tracer if args.trace else None)
        errors = solver_errors(ddopt)
        records = measure(workload, errors, args.seconds, tracer)
        if args.trace:
            metrics = traced_metrics(tracer, counts, records, import_time)
        else:
            metrics = end_to_end(records, [setup_time] + fresh_setup_times(
                args, SETUP_SAMPLES - 1))
        report(args, environment(), records, metrics,
               cli_error_exits(ddopt, errors, workdir))
        failed = sum(1 for r in records if not r.ok)
        correct = all(not r.problems for r in records)
        print(json.dumps({
            "correct": correct, "attempted": len(records), "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
