"""Run the paper's Da = 1e-3 cavity control once on the 64 x 64 mesh and
print what it cost.

    python3 tools/paper_scale.py

The benchmark's largest mesh is 32 x 32; this probe runs the paper's
scale (the configuration of acceptance criterion 3) with the ``ddopt`` of
the tree the script sits in and prints the wall time, the PDAS iteration
count and the final cost J, the number of factorizations with their time
and the largest LU fill (``lu.nnz``), and the GMRES solves on a kept LU,
with how many of them declined (each decline costs a factorization).
It is a measurement, not a check: it asserts nothing and is not part of
the tests.  One run takes about a minute on 2 vCPU and peaks at about
500 MiB.  BLAS is pinned to one thread unless the caller set the thread
variables, as in ``tools/output_digest.py``.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ddopt import linalg  # noqa: E402
from ddopt.cli import RunConfig, run_cavity  # noqa: E402


def main():
    factors = {"count": 0, "seconds": 0.0, "nnz": 0}
    krylov = {"solves": 0, "declined": 0}
    factor, krylov_solve = (linalg.DirectSolver.__init__,
                            linalg.BorderedSolver.krylov_solve)

    def counting_factor(self, *args, **kwargs):
        t0 = time.perf_counter()
        factor(self, *args, **kwargs)
        factors["seconds"] += time.perf_counter() - t0
        factors["count"] += 1
        factors["nnz"] = max(factors["nnz"], self.lu.nnz)

    def counting_krylov(self, *args, **kwargs):
        out = krylov_solve(self, *args, **kwargs)
        krylov["solves"] += 1
        krylov["declined"] += out is None
        return out

    linalg.DirectSolver.__init__ = counting_factor
    linalg.BorderedSolver.krylov_solve = counting_krylov
    config = RunConfig({"n": 64, "da": 1e-3, "ra": 100, "lbound": -0.005,
                        "ubound": 0.005, "tol": 1e-6, "tol_mode": "rel"})
    t0 = time.perf_counter()
    result = run_cavity(config)
    wall = time.perf_counter() - t0
    print("64x64 cavity control, Da = 1e-3")
    print("wall             {:.1f} s".format(wall))
    print("PDAS iterations  {}".format(result.iterations))
    print("J                {:.15e}".format(result.cost_history[-1]))
    print("factorizations   {} in {:.1f} s, largest lu.nnz {:.2f}M".format(
        factors["count"], factors["seconds"], factors["nnz"] / 1e6))
    print("GMRES solves     {}, declined {}".format(krylov["solves"],
                                                    krylov["declined"]))


if __name__ == "__main__":
    main()
