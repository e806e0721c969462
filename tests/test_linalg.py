import numpy as np
import pytest
from scipy import sparse as sp

from ddopt import assembly as asm
from ddopt import linalg
from ddopt.cli import RunConfig, cavity_boundary_trace, \
    derive_cavity_coefficients
from ddopt.linalg import _KRYLOV_MAXITER, BorderedSolver, DirectSolver, \
    LinearSolveError, SingularMatrixError
from ddopt.mesh import build_unit_square_mesh
from ddopt.state import NonlinearSettings, solve_state


def test_identity_solve():
    b = np.array([3.0, -1.0, 2.0])
    x = DirectSolver(sp.eye(3, format="csc")).lu.solve(b)
    assert np.allclose(x, b, atol=1e-14)


def test_hand_solved_2x2():
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = DirectSolver(A).lu.solve(np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_saddle_mean_projection():
    # [[I, c^T], [c, 0]] with c = (1/2, 1/2): projecting (1,1) onto the
    # mean-zero constraint gives (0,0) with multiplier 2
    A = sp.csc_matrix(np.array([[1.0, 0.0, 0.5],
                                [0.0, 1.0, 0.5],
                                [0.5, 0.5, 0.0]]))
    x = DirectSolver(A).lu.solve(np.array([1.0, 1.0, 0.0]))
    assert np.allclose(x, [0.0, 0.0, 2.0], atol=1e-12)


def test_residual_bound_on_assembled_system(mesh8):
    K = asm.assemble_stiffness(mesh8).tolil()
    interior = mesh8.interior_edges
    K = K[interior.tolist()][:, interior.tolist()].tocsc()
    rng = np.random.default_rng(0)
    b = rng.standard_normal(K.shape[0])
    x = DirectSolver(K).lu.solve(b)
    assert np.linalg.norm(K @ x - b) <= 1e-9 * np.linalg.norm(b)


def test_zero_rhs():
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    assert np.all(DirectSolver(A).lu.solve(np.zeros(2)) == 0.0)


def test_determinism():
    rng = np.random.default_rng(1)
    A = sp.random(60, 60, density=0.2, random_state=2, format="csc") \
        + 10 * sp.eye(60)
    b = rng.standard_normal(60)
    x1 = DirectSolver(A).lu.solve(b)
    x2 = DirectSolver(A).lu.solve(b)
    assert np.array_equal(x1, x2)


def test_singular_matrix_raises():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        DirectSolver(A)


def test_solver_reuse_multiple_rhs():
    A = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    lu = DirectSolver(A).lu
    for b in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        x = lu.solve(b)
        assert np.allclose(A @ x, b, atol=1e-12)


def test_nonsquare_rejected():
    with pytest.raises(ValueError):
        DirectSolver(sp.csc_matrix(np.ones((2, 3))))


def test_bordered_solver_matches_monolithic():
    # the bordered elimination must reproduce the full multiplier system
    rng = np.random.default_rng(6)
    n = 40
    K = sp.random(n, n, density=0.2, random_state=3, format="csc") \
        + 5 * sp.eye(n)
    K = K.tolil()
    # make K singular with the constraint pair: rank-one deficiency
    K[:, 0] = 0.0
    K[0, :] = 0.0
    K = K.tocsc()
    d = np.zeros(n)
    d[0] = 1.0
    e = np.zeros(n)
    e[0] = 1.0
    b = rng.standard_normal(n)
    M = np.block([[K.toarray(), d[:, None]], [e[None, :], np.zeros((1, 1))]])
    ref = np.linalg.solve(M, np.concatenate([b, [0.25]]))
    solver = BorderedSolver(K, d, e, pin=0)
    x, m = solver.solve(b, beta=0.25)
    assert np.allclose(x, ref[:-1], atol=1e-10)
    assert m == pytest.approx(ref[-1], abs=1e-10)


def test_bordered_solver_zero_rhs():
    K = sp.eye(3, format="csc").tolil()
    K[2, 2] = 0.0
    d = np.array([0.0, 0.0, 1.0])
    e = np.array([0.0, 0.0, 1.0])
    solver = BorderedSolver(K.tocsc(), d, e, pin=2)
    x, m = solver.solve(np.zeros(3))
    assert np.all(x == 0.0) and m == 0.0


@pytest.mark.parametrize("beta", [0.0, 0.25])
@pytest.mark.parametrize("pin", [0, 3], ids=["pin0", "pin1"])
def test_bordered_solver_transposed_matches_dense(pin, beta):
    # the transpose [[K^T, e], [d^T, 0]] of M = [[K, d], [e^T, 0]] through
    # the LU of K + pin, against a dense solve; K lacks row and column pin
    rng = np.random.default_rng(7)
    n = 12
    K = rng.standard_normal((n, n)) + 4 * np.eye(n)
    K[pin, :] = 0.0
    K[:, pin] = 0.0
    d = rng.standard_normal(n)
    e = rng.standard_normal(n)
    b = rng.standard_normal(n)
    M = np.block([[K, d[:, None]], [e[None, :], np.zeros((1, 1))]])
    ref = np.linalg.solve(M.T, np.concatenate([b, [beta]]))
    solver = BorderedSolver(sp.csc_matrix(K), d, e, pin)
    x, m = solver.solve(b, beta=beta, transpose=True)
    assert np.allclose(x, ref[:-1], rtol=0, atol=1e-10 * np.abs(ref).max())
    assert m == pytest.approx(ref[-1], rel=1e-10)
    # the forward side still solves with the same factorization
    fwd = np.linalg.solve(M, np.concatenate([b, [beta]]))
    x, m = solver.solve(b, beta=beta)
    assert np.allclose(x, fwd[:-1], rtol=0, atol=1e-10 * np.abs(fwd).max())


def _pinned_core(rng, n, pin):
    # nonsymmetric core lacking row and column pin
    K = rng.standard_normal((n, n)) + 4 * np.eye(n)
    K[pin, :] = 0.0
    K[:, pin] = 0.0
    return K


@pytest.mark.parametrize("beta, transpose", [
    pytest.param(0.0, False, id="0.0"), pytest.param(-0.4, False, id="-0.4"),
    pytest.param(0.0, True, id="0.0-transpose"),
    pytest.param(-0.4, True, id="-0.4-transpose")])
def test_krylov_solve_nearby_core_matches_dense(beta, transpose):
    # GMRES on M = [[K + eps E, d], [e^T, 0]], or on its transpose
    # [[(K + eps E)^T, e], [d^T, 0]], preconditioned with the LU of
    # K + pin, against a dense solve of the bordered system
    rng = np.random.default_rng(11)
    n, pin = 30, 2
    K = _pinned_core(rng, n, pin)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n)
    E = rng.standard_normal((n, n))
    E[pin, :] = 0.0
    E[:, pin] = 0.0
    near = K + 1e-2 * E
    b = rng.standard_normal(n)
    solver = BorderedSolver(sp.csc_matrix(K), d, e, pin)
    # the side's core and border: (near, d, e), or (near^T, e, d)
    core, col, row = (near.T, e, d) if transpose else (near, d, e)
    ref = np.linalg.solve(np.block([[core, col[:, None]],
                                    [row[None, :], np.zeros((1, 1))]]),
                          np.concatenate([b, [beta]]))
    x, m = solver.krylov_solve(sp.csc_matrix(near), b, beta=beta,
                               transpose=transpose)
    z = np.append(x, m)
    assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)
    # the stopping test is the true bordered residual
    rx = b - (core @ x + m * col)
    rm = beta - row @ x
    assert np.hypot(np.linalg.norm(rx), rm) \
        <= 1e-12 * (np.linalg.norm(b) + abs(beta))


def test_krylov_solve_declines_far_core():
    rng = np.random.default_rng(12)
    n, pin = 60, 0
    K = _pinned_core(rng, n, pin)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n)
    solver = BorderedSolver(sp.csc_matrix(K), d, e, pin)
    rng.uniform(0.01, 2.0, n)  # keeps the draws below as they were
    far = sp.csc_matrix(_pinned_core(rng, n, pin))
    for transpose in (False, True):
        side = solver._side(transpose)
        applies = []
        side.apply = lambda *a, _apply=side.apply, _seen=applies: \
            _seen.append(1) or _apply(*a)
        assert solver.krylov_solve(far, rng.standard_normal(n), beta=1.0,
                                   transpose=transpose) is None
        # the cap bounds the preconditioner applications: one per
        # iteration and one per restart
        assert _KRYLOV_MAXITER < len(applies) <= 2 * _KRYLOV_MAXITER
        # a non-finite right side is declined too
        assert solver.krylov_solve(far, np.full(n, np.nan),
                                   transpose=transpose) is None


def test_direct_solver_rejects_non_finite_matrix():
    A = sp.csc_matrix(np.array([[1.0, np.nan], [0.0, 2.0]]))
    with pytest.raises(SingularMatrixError):
        DirectSolver(A)


def test_non_finite_bordered_solve_raises():
    # a pivot of 1e-300 overflows the first solve; the refinement would
    # turn it into NaN and return it
    K = sp.lil_matrix((4, 4))
    for i, v in enumerate((0.0, 1.0, 1e-300, 1.0)):
        K[i, i] = v
    K[1, 3] = 0.5
    e0 = np.eye(4)[0]
    solver = BorderedSolver(K.tocsc(), e0, e0, pin=0)
    with np.errstate(all="ignore"), pytest.raises(SingularMatrixError):
        solver.solve(np.array([0.0, 0.0, 1e10, 0.0]))


def test_diverging_refinement_raises_typed_error():
    # a diverging cavity solve (Ra 162.5, Da 10^-3.7, Le 2 + 18 * 0.95 on
    # 12 x 12) ends in a bordered solve whose refinement overflows; under
    # warnings-as-errors that must still surface as the typed error
    mesh = build_unit_square_mesh(12)
    params, _ = derive_cavity_coefficients(RunConfig({
        "ra": 162.5, "da": 10.0 ** (-4.0 + 2.0 * 0.15),
        "le": 2.0 + 18.0 * 0.95}))
    with pytest.raises(LinearSolveError, match="stalled"):
        solve_state(mesh, params, cavity_boundary_trace(mesh),
                    settings=NonlinearSettings(tol=1e-10))


def _tridiagonal(n):
    return sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csc")


@pytest.mark.parametrize("rows, trims", [(linalg._TRIM_ROWS, 1),
                                         (linalg._TRIM_ROWS - 1, 0)])
def test_large_factorization_trims_heap_first(monkeypatch, rows, trims):
    calls = []
    monkeypatch.setattr(linalg, "_malloc_trim", calls.append)
    DirectSolver(_tridiagonal(rows))
    assert calls == [0] * trims


def test_factorization_without_malloc_trim(monkeypatch):
    # a C library without the symbol factors and solves as before
    monkeypatch.setattr(linalg, "_malloc_trim", None)
    A = _tridiagonal(linalg._TRIM_ROWS)
    b = np.ones(A.shape[0])
    x = DirectSolver(A).lu.solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_order_with_zero_pivot_first_raises():
    # SuperLU would pivot off the zero diagonal and solve, but the factor
    # would no longer follow the order: the static pivots are the contract
    A = sp.csc_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 1.0],
                                [0.0, 1.0, 3.0]]))
    with pytest.raises(SingularMatrixError, match="zero diagonal pivot"):
        DirectSolver(A, np.arange(3))
    # another order of the same matrix takes nonzero pivots and solves
    b = np.array([1.0, 4.0, 4.0])
    assert np.allclose(DirectSolver(A, [2, 1, 0]).lu.solve(b), 1.0)


def test_refinement_stalling_under_order_raises():
    # a pivot of 1e-20 first is taken as it stands: the factors lose the
    # rest of the core and the refinement cannot recover it, where
    # COLAMD's partial pivoting solves the same system
    rng = np.random.default_rng(0)
    n = 6
    K = rng.standard_normal((n, n)) + n * np.eye(n)
    K[0, 0] = 1e-20
    K = sp.csc_matrix(K)
    d, e = np.ones(n), np.ones(n)
    b = rng.standard_normal(n)
    x, m = BorderedSolver(K, d, e, pin=n - 1).solve(b)
    assert np.linalg.norm(K @ x + m * d - b) <= 1e-12 * np.linalg.norm(b)
    ordered = BorderedSolver(K, d, e, pin=n - 1, order=np.arange(n))
    with pytest.raises(LinearSolveError, match="stalled"):
        ordered.solve(b)
