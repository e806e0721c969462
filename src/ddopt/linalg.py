"""Sparse direct solution of the saddle-point systems.

Compressed sparse row storage and the factorization are delegated to
scipy (SuperLU with partial pivoting and a COLAMD fill-reducing ordering),
which matches the role the external direct solver played in the original
computations.  A factorization is immutable and reusable across right-hand
sides.
"""

import numpy as np
from scipy import sparse as sp
from scipy.sparse import linalg as spla

__all__ = ["SingularMatrixError", "LinearSolveError", "DirectSolver",
           "BorderedSolver"]


class SingularMatrixError(RuntimeError):
    """Raised when the factorization hits a numerically singular pivot."""

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class LinearSolveError(RuntimeError):
    """Raised when the direct solve cannot reach the residual tolerance."""


class DirectSolver:
    """Sparse LU factorization with reusable solves.

    Parameters
    ----------
    A : sparse matrix
        Square, structurally nonsingular.
    """

    def __init__(self, A):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        self._A = A
        try:
            self._lu = spla.splu(A)
        except RuntimeError as exc:
            raise SingularMatrixError(str(exc)) from exc
        diag = self._lu.U.diagonal()
        bad = np.flatnonzero(~np.isfinite(diag) | (diag == 0.0))
        if bad.size:
            raise SingularMatrixError(
                "numerically singular pivot at index {}".format(bad[0]),
                pivot=int(bad[0]))

    def solve(self, b, rtol=1e-9, refine=4):
        """Solve A x = b with iterative refinement to relative residual rtol.
        """
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        norm_b = np.linalg.norm(b)
        if norm_b == 0.0:
            return np.zeros_like(b)
        for _ in range(refine):
            r = b - self._A @ x
            if np.linalg.norm(r) <= rtol * norm_b:
                return x
            x = x + self._lu.solve(r)
        r = b - self._A @ x
        if np.linalg.norm(r) > rtol * norm_b:
            raise LinearSolveError(
                "direct solve stalled at relative residual {:.3e}".format(
                    np.linalg.norm(r) / norm_b))
        return x


class _Elimination:
    """Border and pin elimination on one side of the factored core K + pin:
    the core itself, or S^{-1} (K + pin)^T S when ``scale`` (S) is given,
    solved with the transposed factors.  Block elimination of the border
    solves Mtilde = [[core, d], [e^T, 0]]; Sherman-Morrison removes the pin.
    """

    def __init__(self, lu, d, e, pin_row, pin_col, scale=None):
        self.lu, self.scale, self.d, self.e = lu, scale, d, e
        w = np.zeros(d.size)
        if scale is None:
            w[pin_row] = 1.0
        else:  # the transposed core carries the pin at (pin_col, pin_row)
            pin_row, pin_col = pin_col, pin_row
            w[pin_row] = scale[pin_col] / scale[pin_row]
        self.s = self.core_solve(d)
        self.es = float(e @ self.s)
        if self.es == 0.0 or not np.isfinite(self.es):
            raise SingularMatrixError("constraint row is orthogonal to the "
                                      "multiplier column image")
        self.read = pin_col
        self.qx, self.qm = self.mtilde_solve(w, 0.0)
        self.denom = 1.0 - self.qx[pin_col]
        if self.denom == 0.0 or not np.isfinite(self.denom):
            raise SingularMatrixError("pin elimination degenerate")

    def core_solve(self, r):
        if self.scale is None:
            return self.lu.solve(r)
        return self.lu.solve(self.scale * r, trans="T") / self.scale

    def mtilde_solve(self, r, rho):
        y = self.core_solve(r)
        m = (float(self.e @ y) - rho) / self.es
        return y - m * self.s, m

    def apply(self, b, beta):
        x, m = self.mtilde_solve(b, beta)
        alpha = x[self.read] / self.denom
        return x + alpha * self.qx, m + alpha * self.qm


class BorderedSolver:
    """Direct solver for [[K, d], [e^T, 0]] and its scaled transpose.

    A scalar Lagrange multiplier (the zero-mean pressure constraint) adds a
    dense row and column to an otherwise sparse system; factoring them
    directly causes catastrophic fill in the LU.  Instead only the core K
    is factorized, made nonsingular by adding a rank-one pin at
    (pin_row, pin_col); the border and the pin are then eliminated exactly
    by block elimination and the Sherman-Morrison formula, followed by
    iterative refinement on the full bordered system.  The same LU solves
    [[S^{-1} K^T S, d], [e^T, 0]], S = diag(scale), with the transposed
    factors; that side's elimination data are computed on its first solve.

    Parameters
    ----------
    K : sparse matrix (n, n)
        Core; singular only through the constraint pair (d, e).
    d : ndarray (n,)
        Multiplier column.
    e : ndarray (n,)
        Constraint row.
    pin_row, pin_col : int
        Pin entry; K + e_{pin_row} e_{pin_col}^T must be nonsingular.
    scale : ndarray (n,), optional
        Positive diagonal S of the transposed system (identity if omitted).
    """

    def __init__(self, K, d, e, pin_row, pin_col, scale=None):
        n = K.shape[0]
        self.d = np.asarray(d, dtype=float)
        self.e = np.asarray(e, dtype=float)
        self.pin_row, self.pin_col = pin_row, pin_col
        self.scale = np.ones(n) if scale is None \
            else np.asarray(scale, dtype=float)
        self.K = sp.csc_matrix(K)
        pin = sp.coo_matrix(([1.0], ([pin_row], [pin_col])), shape=(n, n))
        self.core = DirectSolver(self.K + pin)
        self._sides = {False: _Elimination(self.core._lu, self.d, self.e,
                                           pin_row, pin_col)}

    def solve(self, b, beta=0.0, rtol=1e-12, accept=1e-8, refine=6,
              transpose=False):
        """Solve the bordered system (or its scaled transpose) for (x, m).

        Refines to relative residual ``rtol`` when possible and accepts up
        to ``accept`` (raising LinearSolveError beyond that).  The residual
        is that of the system solved, in its own scaling.
        """
        S = self.scale
        if transpose not in self._sides:
            self._sides[True] = _Elimination(self.core._lu, self.d, self.e,
                                             self.pin_row, self.pin_col, S)
        side = self._sides[transpose]
        b = np.asarray(b, dtype=float)
        x, m = side.apply(b, beta)
        norm = np.linalg.norm(b) + abs(beta)
        if norm == 0.0:
            return np.zeros_like(b), 0.0
        best = None
        for _ in range(refine + 1):
            Kx = self.K.T @ (S * x) / S if transpose else self.K @ x
            rx = b - (Kx + m * self.d)
            rm = beta - float(self.e @ x)
            res = np.sqrt(np.linalg.norm(rx) ** 2 + rm ** 2)
            if best is None or res < best[0]:
                best = (res, x.copy(), m)
            if res <= rtol * norm:
                return x, m
            dx, dm = side.apply(rx, rm)
            x = x + dx
            m = m + dm
        res, x, m = best
        if res > accept * norm:
            raise LinearSolveError(
                "bordered solve stalled at relative residual {:.3e}".format(
                    res / norm))
        return x, m
