"""Write reference.json: the outputs the correctness checks compare with.

    python3 perfbench/make_reference.py

The values are the cavity-control iteration count and cost, the
accuracy-study errors, and the param-sweep points that end in a solver
error (with its type), for the full and the tiny sizes.  They define
correct output, so they are recomputed only on a commit whose results are
trusted, never to make a failing check pass; ``source_commit`` in the
file names the commit they came from.
"""

import json
import sys
import tempfile

import run
from workloads import (REFERENCE, AccuracyStudy, CavityControl, ParamSweep,
                       solver_errors)


def main(source_commit):
    ddopt = run.import_ddopt()
    reference = {"source_commit": source_commit, "cavity_control": {},
                 "accuracy_study": {}, "param_sweep": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
        for tiny in (False, True):
            cavity = CavityControl(ddopt, 0, tiny, workdir)
            result, _, _ = cavity.run(next(cavity.specs()))
            reference["cavity_control"][str(cavity.n)] = {
                "iterations": result.iterations,
                "cost": result.cost_history[-1]}
            study = AccuracyStudy(ddopt, 0, tiny, workdir)
            spec = next(study.specs())
            reports = study.run(spec)
            reference["accuracy_study"][",".join(map(str, spec["levels"]))] = {
                regime: {name: report.errors[name]
                         for name in ddopt["verification"].ERROR_NAMES}
                for regime, report in reports.items()}
            sweep = ParamSweep(ddopt, 0, tiny, workdir)
            failures = {}
            for spec in sweep.sweep:
                try:
                    sweep.run(spec)
                except solver_errors(ddopt) as exc:
                    failures[sweep.point_key(spec)] = type(exc).__name__
            reference["param_sweep"][sweep.sweep_key()] = failures
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: make_reference.py SOURCE_COMMIT")
    main(sys.argv[1])
