"""The benchmark's own test, on tiny meshes:

    python3 -m pytest perfbench

Each run is one whole batch (``--seconds 0``).  Checks that the counts
repeat exactly between two traced runs, that every metric named in
BENCHMARK.json is printed with its unit, that the self times and the
untraced remainder add up to the task wall time, that a solver error the
reference does not expect makes the run incorrect, and that the benchmark
refuses to run without the ddopt sources.
"""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
BATCH = {"forward_cavity": 1, "cavity_control": 1, "param_sweep": 30,
         "accuracy_study": 1}
WORKLOADS = list(BATCH)
COUNTS = ["linalg.factorizations", "linalg.factor_nnz", "state.steps",
          "control.pdas_iterations", "adjoint.solves"]
MODULES = ["mesh", "spaces", "assembly", "linalg", "state", "adjoint",
           "control", "verification", "cli"]


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def run_tiny(root, workload, trace):
    """The JSON result of one tiny one-batch run from ``root``."""
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == BATCH[workload]
    return result


@functools.lru_cache(maxsize=None)
def tiny_run(workload, trace, repeat=0):
    """Result of one correct tiny run (``repeat`` tells apart identical
    runs)."""
    result = run_tiny(ROOT, workload, trace)
    assert result["correct"], result
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_between_traced_runs(workload):
    first = tiny_run(workload, 1, 0)["metrics"]
    second = tiny_run(workload, 1, 1)["metrics"]
    for name in COUNTS:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_every_named_metric_printed_with_unit(workload, trace, section):
    metrics = tiny_run(workload, trace)["metrics"]
    expected = {m["name"]: m["unit"]
                for m in load_json(os.path.join(ROOT, "BENCHMARK.json"))[
                    section]}
    assert set(metrics) == set(expected)
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, name
        assert isinstance(metrics[name]["value"], float), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_untraced_remainder_add_up(workload):
    metrics = {k: v["value"] for k, v in tiny_run(workload, 1)["metrics"]
               .items()}
    self_total = sum(metrics[m + ".self_s"] for m in MODULES)
    assert self_total + metrics["trace.untraced_s"] == pytest.approx(
        metrics["trace.wall_s"], rel=1e-9)
    assert 0.0 <= metrics["trace.untraced_s"] < 0.1 * metrics["trace.wall_s"]


def test_layer_attribution_on_cavity_control():
    metrics = tiny_run("cavity_control", 1)["metrics"]
    assert metrics["linalg.factorizations"]["value"] \
        == 2 * metrics["control.pdas_iterations"]["value"]
    assert metrics["adjoint.solves"]["value"] \
        == metrics["control.pdas_iterations"]["value"]


def test_sweep_fails_where_the_reference_says():
    reference = load_json(os.path.join(HERE, "reference.json"))
    expected = reference["param_sweep"]["4,6,8"]
    assert expected
    assert tiny_run("param_sweep", 0)["failed"] == len(expected)


def test_unexpected_solver_error_makes_run_incorrect(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = load_json(path)
    failures = reference["param_sweep"]["4,6,8"]
    del failures[sorted(failures)[0]]
    with open(path, "w") as fh:
        json.dump(reference, fh)
    result = run_tiny(tmp_path, "param_sweep", 0)
    assert not result["correct"]
    assert result["failed"] == len(failures) + 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        RUN + ["--workload", "forward_cavity", "--seed", "1", "--seconds",
               "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
