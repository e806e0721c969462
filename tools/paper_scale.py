"""Run the paper's Da = 1e-3 cavity on the 64 x 64 mesh once as a forward
solve and once as the control problem, and print what each cost.

    python3 tools/paper_scale.py

The benchmark's largest mesh is 32 x 32; this probe runs the paper's
scale with the ``ddopt`` of the tree the script sits in.  For the
uncontrolled forward solve (``solve_state``, Ra 100, Le 10, tolerance
1e-10) it prints the wall time, the steps on the 64 x 64 mesh (after a
start from the coarse solution, only Newton steps) and the
factorizations with their time, by core size.  For the control (the
configuration of acceptance criterion 3) it prints the wall time, the
PDAS iteration count and the final cost J, the factorizations with
their time and the largest LU fill (``lu.nnz``), and the GMRES solves on
a kept LU, with how many of them declined (each decline costs a
factorization).  It is a measurement, not a check: it asserts nothing
and is not part of the tests.  One run takes about a minute and a half
on 2 vCPU and peaks at about 500 MiB.  BLAS is pinned to one thread
unless the caller set the thread variables, as in
``tools/output_digest.py``.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from ddopt import linalg  # noqa: E402
from ddopt.cli import RunConfig, cavity_boundary_trace, \
    derive_cavity_coefficients, run_cavity  # noqa: E402
from ddopt.mesh import build_unit_square_mesh  # noqa: E402
from ddopt.state import NonlinearSettings, solve_state  # noqa: E402

# (rows, seconds, lu.nnz) of each factorization; GMRES solves on a kept LU
factors = []
krylov = {"solves": 0, "declined": 0}


def _count():
    factor, krylov_solve = (linalg.DirectSolver.__init__,
                            linalg.BorderedSolver.krylov_solve)

    def counting_factor(self, A, *args, **kwargs):
        t0 = time.perf_counter()
        factor(self, A, *args, **kwargs)
        factors.append((A.shape[0], time.perf_counter() - t0, self.lu.nnz))

    def counting_krylov(self, *args, **kwargs):
        out = krylov_solve(self, *args, **kwargs)
        krylov["solves"] += 1
        krylov["declined"] += out is None
        return out

    linalg.DirectSolver.__init__ = counting_factor
    linalg.BorderedSolver.krylov_solve = counting_krylov


def forward():
    config = RunConfig({"n": 64, "da": 1e-3, "ra": 100, "le": 10})
    params, _ = derive_cavity_coefficients(config)
    mesh = build_unit_square_mesh(config.n)
    del factors[:]
    t0 = time.perf_counter()
    solution = solve_state(mesh, params, cavity_boundary_trace(mesh),
                           settings=NonlinearSettings(tol=1e-10))
    wall = time.perf_counter() - t0
    print("64x64 cavity forward solve, Da = 1e-3")
    print("wall             {:.1f} s".format(wall))
    print("steps            {} ({})".format(
        solution.iterations, "Newton, after a start from the 32x32 "
        "solution" if solution.nested else "Picard and Newton"))
    print("factorizations   {} in {:.1f} s".format(
        len(factors), sum(f[1] for f in factors)))
    for rows in sorted({f[0] for f in factors}):
        of = [f[1] for f in factors if f[0] == rows]
        print("  {:6d} rows     {} in {:.1f} s".format(rows, len(of),
                                                       sum(of)))


def control():
    config = RunConfig({"n": 64, "da": 1e-3, "ra": 100, "lbound": -0.005,
                        "ubound": 0.005, "tol": 1e-6, "tol_mode": "rel"})
    del factors[:]
    krylov.update(solves=0, declined=0)
    t0 = time.perf_counter()
    result = run_cavity(config)
    wall = time.perf_counter() - t0
    print("64x64 cavity control, Da = 1e-3")
    print("wall             {:.1f} s".format(wall))
    print("PDAS iterations  {}".format(result.iterations))
    print("J                {:.15e}".format(result.cost_history[-1]))
    print("factorizations   {} in {:.1f} s, largest lu.nnz {:.2f}M".format(
        len(factors), sum(f[1] for f in factors),
        max(f[2] for f in factors) / 1e6))
    print("GMRES solves     {}, declined {}".format(krylov["solves"],
                                                    krylov["declined"]))


def main():
    _count()
    forward()
    control()


if __name__ == "__main__":
    main()
