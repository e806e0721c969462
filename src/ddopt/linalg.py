"""Sparse direct solution of the saddle-point systems.

Compressed sparse row storage and the factorization are delegated to
scipy's SuperLU, which matches the role the external direct solver played
in the original computations.  A factorization is immutable and reusable
across right-hand sides.  A matrix of at least ``_LARGE_ROWS`` (4096)
rows is large; the comment at that constant lists the three things the
size decides.  A factorization orders the matrix in one of two ways:

- Without an order (every core that is not large), SuperLU picks a
  COLAMD column order and pivots partially.
- Given a symmetric fill-reducing order (the state layout builds one for
  every large core: a nested dissection of the mesh, see
  ``state._nested_dissection``), ``DirectSolver`` factors
  ``A[order][:, order]`` in SuperLU's symmetric mode with static diagonal
  pivots, so the factor keeps the order's fill.  A zero diagonal pivot,
  which the order is built to avoid, raises ``SingularMatrixError``; a
  tiny one shows as a refinement that stalls (``LinearSolveError``).

On the structured cavity mesh the ordered factor of the 32x32 Picard
core holds about 4.0M entries against COLAMD's 5.7M and factors in about
0.3 s against 0.5 s (2-vCPU host, BLAS on one thread).  The gate keeps
COLAMD below 4096 rows for two reasons.  There COLAMD fills less (0.75M
against 0.88M on the 16x16 Newton core, 0.32M against 0.41M at 12x12),
although the ordered factor was still about 20% faster.  And whether a
diverging parameter-sweep solve ends in ``SingularMatrixError`` or
``LinearSolveError`` is decided by rounding: the uniform rule flips 8
of the 10 error types that the benchmark's reference pins, so the gate
stays until a divergence test decides those types.

Memory: a one-shot loop keeps one LU alive at a time, but on glibc the
process held more.  Each freed factor raises glibc's dynamic mmap
threshold (up to 32 MiB, mallopt(3)), so the next factor's arrays come
from the brk heap, and freed chunks in the middle of that heap stay
resident.  ``DirectSolver`` therefore hands glibc's free heap back to the
OS (``malloc_trim(0)``) just before it factors a large matrix.  The
gate sits between the sizes measured on a
2-vCPU host with the benchmark in perfbench/: on the 24x24 cavity
control (7968 rows) the trim lowered the peak RSS from 140 to 120 MiB,
and on the 32x32 forward cavity (14208 rows) from 178 to 167 MiB, with
no time change beyond the run-to-run spread; on the accuracy study,
whose largest factor has 3520 rows, an ungated trim lowered the peak by
6% but cost 5-34% of the time.  Factors above 32 MiB are mmapped and
returned on free anyway, so at 48x48 the trim saves about 1 MiB of a
323 MiB peak.  Where the C library has no ``malloc_trim`` (musl, macOS,
Windows) nothing is called.
"""

import ctypes
import functools
import traceback

import numpy as np
from scipy import sparse as sp
from scipy.sparse import linalg as spla

__all__ = ["SolverError", "SingularMatrixError", "LinearSolveError",
           "DirectSolver", "BorderedSolver"]

# Relative residual targets of the bordered solves, direct and GMRES
# alike: they aim at _BORDERED_RTOL; the direct one refines up to
# _BORDERED_REFINE times and accepts up to _BORDERED_ACCEPT.
_BORDERED_RTOL = 1e-12
_BORDERED_ACCEPT = 1e-8
_BORDERED_REFINE = 6
# The GMRES iterations krylov_solve spends before it declines a core (one
# costs about 2% of a factorization at 32 x 32).
_KRYLOV_MAXITER = 25

# A matrix of at least _LARGE_ROWS rows is large, which decides three
# things: DirectSolver calls malloc_trim(0) before it factors one (see the
# module docstring), the state layout orders such a core by nested
# dissection (state._Dofs.order), and solve_state starts such a solve
# from the solution on the coarse parent mesh (state._Dofs.large).
# _malloc_trim is None without the symbol.
_LARGE_ROWS = 4096
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


class SolverError(RuntimeError):
    """Base of every solver failure: nonlinear nonconvergence or
    divergence, an unsettled active set, a singular factorization or a
    stalled linear solve.  ``history`` holds the step increments or the
    control changes that led to it, empty for a linear solve."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = list(history)


def _frees_on_failure(solve):
    """A SolverError escaping ``solve`` keeps its message, history and
    traceback, but the frames of ``solve`` and below drop their locals, so
    the solver state of the failed call (stepper, layout, LUs) goes with
    them rather than living as long as the error is kept."""

    @functools.wraps(solve)
    def wrapper(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except SolverError as exc:
            traceback.clear_frames(exc.__traceback__)
            raise

    return wrapper


class SingularMatrixError(SolverError):
    """Raised when a matrix or its factorization is numerically singular:
    a non-finite entry, an exactly zero pivot or a non-finite solve."""


class LinearSolveError(SolverError):
    """Raised when the direct solve cannot reach the residual tolerance."""


class DirectSolver:
    """Sparse LU factorization of a square matrix, kept as ``lu`` for
    solves with it and with its transpose (``lu.solve(b, trans=...)`` and
    ``lu.nnz``, as on a SuperLU object).

    Parameters
    ----------
    A : sparse matrix
        Square, structurally nonsingular.
    order : ndarray of int, optional
        A permutation of the rows: ``A[order][:, order]`` is factored with
        static diagonal pivots (see the module docstring).  Without it
        SuperLU orders by COLAMD and pivots partially.
    """

    def __init__(self, A, order=None):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if not np.all(np.isfinite(A.data)):
            raise SingularMatrixError("matrix has non-finite entries")
        if _malloc_trim is not None and A.shape[0] >= _LARGE_ROWS:
            _malloc_trim(0)
        if order is not None:
            order = np.asarray(order)
            A = A[order][:, order]
        try:
            lu = spla.splu(A) if order is None else spla.splu(
                A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))
        except RuntimeError as exc:  # SuperLU met an exactly zero pivot
            raise SingularMatrixError(str(exc)) from exc
        if order is None:
            self.lu = lu
            return
        # for a zero diagonal SuperLU pivots on the largest entry below it
        moved = np.flatnonzero(lu.perm_r != np.arange(order.size))
        if moved.size:
            raise SingularMatrixError(
                "zero diagonal pivot at row {} under the given order".format(
                    order[moved[0]]))
        self.lu = _Ordered(lu, order)


class _Ordered:
    """The SuperLU factors of A[order][:, order], solving with A and its
    transpose through the one permutation."""

    def __init__(self, lu, order):
        self._lu, self._order, self.nnz = lu, order, lu.nnz

    def solve(self, b, trans="N"):
        z = self._lu.solve(np.asarray(b, dtype=float)[self._order],
                           trans=trans)
        x = np.empty_like(z)
        x[self._order] = z
        return x


class _Elimination:
    """Border and pin elimination on one side of the factored core K + pin.

    The side is the bordered system [[core, d], [e^T, 0]] with the core
    solved by the LU (``trans`` "N") or by its transposed factors ("T");
    the transposed side of [[K, d], [e^T, 0]] has the border (e, d), and
    the diagonal pin is its own transpose.  Block elimination of the
    border solves Mtilde = [[core, d], [e^T, 0]]; Sherman-Morrison removes
    the pin.
    """

    def __init__(self, lu, d, e, pin, trans="N"):
        self.lu, self.trans, self.d, self.e = lu, trans, d, e
        w = np.zeros(d.size)
        w[pin] = 1.0
        self.s = lu.solve(d, trans=trans)
        self.es = float(e @ self.s)
        if self.es == 0.0 or not np.isfinite(self.es):
            raise SingularMatrixError("constraint row is orthogonal to the "
                                      "multiplier column image")
        self.pin = pin
        self.qx, self.qm = self.mtilde_solve(w, 0.0)
        self.denom = 1.0 - self.qx[pin]
        if self.denom == 0.0 or not np.isfinite(self.denom):
            raise SingularMatrixError("pin elimination degenerate")

    def mtilde_solve(self, r, rho):
        y = self.lu.solve(r, trans=self.trans)
        m = (float(self.e @ y) - rho) / self.es
        return y - m * self.s, m

    def apply(self, b, beta):
        x, m = self.mtilde_solve(b, beta)
        alpha = x[self.pin] / self.denom
        return x + alpha * self.qx, m + alpha * self.qm


class BorderedSolver:
    """Direct solver for M = [[K, d], [e^T, 0]] and its transpose
    M^T = [[K^T, e], [d^T, 0]].

    A scalar Lagrange multiplier (the zero-mean pressure constraint) adds a
    dense row and column to an otherwise sparse system; factoring them
    directly causes catastrophic fill in the LU.  Instead only the core K
    is factorized, made nonsingular by adding a rank-one pin on the
    diagonal at ``pin``; the border and the pin are then eliminated exactly
    by block elimination and the Sherman-Morrison formula, followed by
    iterative refinement on the full bordered system.  The same LU solves
    the transposed bordered system with the transposed factors; that
    side's elimination data are computed on its first solve.
    ``krylov_solve`` uses the elimination of either side as the
    preconditioner of GMRES for the bordered system of a nearby core, so
    a kept (lagged) LU serves a later Jacobian and its transpose.

    Parameters
    ----------
    K : sparse matrix (n, n)
        Core; singular only through the constraint pair (d, e).
    d : ndarray (n,)
        Multiplier column.
    e : ndarray (n,)
        Constraint row.
    pin : int
        Pin index; K + e_pin e_pin^T must be nonsingular.
    order : ndarray of int, optional
        Fill-reducing order of the pinned core (``DirectSolver``); both
        sides solve through it.
    """

    def __init__(self, K, d, e, pin, order=None):
        n = K.shape[0]
        self.K = sp.csc_matrix(K)
        self.core = DirectSolver(self.K + sp.coo_matrix(
            ([1.0], ([pin], [pin])), shape=(n, n)), order)
        self._sides = {False: _Elimination(
            self.core.lu, np.asarray(d, dtype=float),
            np.asarray(e, dtype=float), pin)}

    def solve(self, b, beta=0.0, transpose=False):
        """Solve the bordered system (or its transpose) for (x, m).

        Refines to relative residual ``_BORDERED_RTOL`` when possible and
        accepts up to ``_BORDERED_ACCEPT`` (raising LinearSolveError beyond
        that).  A non-finite first solve raises SingularMatrixError.
        """
        side = self._side(transpose)
        b = np.asarray(b, dtype=float)
        x, m = side.apply(b, beta)
        if not (np.all(np.isfinite(x)) and np.isfinite(m)):
            raise SingularMatrixError("factorization produced a non-finite "
                                      "solution")
        norm = np.linalg.norm(b) + abs(beta)
        if norm == 0.0:
            return np.zeros_like(b), 0.0
        best = None
        # a diverging refinement may overflow; it ends in the error below
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(_BORDERED_REFINE + 1):
                rx = b - (self._core_product(self.K, x, transpose)
                          + m * side.d)
                rm = beta - float(side.e @ x)
                res = np.sqrt(np.linalg.norm(rx) ** 2 + rm ** 2)
                if best is None or res < best[0]:
                    best = (res, x.copy(), m)
                if res <= _BORDERED_RTOL * norm:
                    return x, m
                dx, dm = side.apply(rx, rm)
                x = x + dx
                m = m + dm
        res, x, m = best
        if res > _BORDERED_ACCEPT * norm:
            raise LinearSolveError(
                "bordered solve stalled at relative residual {:.3e}".format(
                    res / norm))
        return x, m

    def _side(self, transpose):
        """Elimination of the core, or of its transpose (lazily): border
        (e, d), the same pin, transposed factors."""
        if transpose not in self._sides:
            fwd = self._sides[False]
            self._sides[True] = _Elimination(self.core.lu, fwd.e, fwd.d,
                                             fwd.pin, trans="T")
        return self._sides[transpose]

    @staticmethod
    def _core_product(K, x, transpose):
        """K x, or K^T x if ``transpose``."""
        return K.T @ x if transpose else K @ x

    def krylov_solve(self, K, b, beta=0.0, transpose=False):
        """Solve [[K, d], [e^T, 0]] (x, m) = (b, beta), or the transposed
        system [[K^T, e], [d^T, 0]] if ``transpose``, for a core K near the
        factored one, by restarted GMRES right-preconditioned with this
        solver's elimination of the same side (core LU, border and pin).

        Right preconditioning leaves the minimized residual that of the
        bordered system itself; each cycle ends on the true residual,
        which must reach ``_BORDERED_RTOL`` as in ``solve`` (there is no
        looser acceptance).  Returns (x, m), or None when
        ``_KRYLOV_MAXITER`` iterations in all do not get there; it never
        raises for a far-off K.
        """
        side = self._side(transpose)
        b = np.asarray(b, dtype=float)
        n = b.size

        def bordered(x, m):
            return np.append(self._core_product(K, x, transpose)
                             + m * side.d, side.e @ x)

        rhs = np.append(b, beta)
        target = _BORDERED_RTOL * (np.linalg.norm(b) + abs(beta))
        x, m = np.zeros(n), 0.0
        used = 0
        with np.errstate(all="ignore"):
            while True:
                r = rhs - bordered(x, m)
                rho = np.linalg.norm(r)
                if rho <= target:
                    return x, m
                if used >= _KRYLOV_MAXITER or not np.isfinite(rho):
                    return None
                k = _KRYLOV_MAXITER - used
                V = np.zeros((k + 1, n + 1))
                H = np.zeros((k + 1, k))
                V[0] = r / rho
                for j in range(k):
                    w = bordered(*side.apply(V[j, :n], V[j, n]))
                    for i in range(j + 1):  # modified Gram-Schmidt
                        H[i, j] = V[i] @ w
                        w -= H[i, j] * V[i]
                    H[j + 1, j] = np.linalg.norm(w)
                    if not np.isfinite(H[j + 1, j]):
                        return None
                    if H[j + 1, j] > 0.0:
                        V[j + 1] = w / H[j + 1, j]
                    Hj = H[:j + 2, :j + 1]
                    g = np.zeros(j + 2)
                    g[0] = rho
                    y = np.linalg.lstsq(Hj, g, rcond=None)[0]
                    if np.linalg.norm(Hj @ y - g) <= target:
                        break  # the estimate; the loop checks the truth
                used += j + 1
                z = V[:j + 1].T @ y
                dx, dm = side.apply(z[:n], z[n])
                x, m = x + dx, m + dm
