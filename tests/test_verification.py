import numpy as np
import pytest

from ddopt.mesh import build_unit_square_mesh
from ddopt.spaces import cr_interpolate, p0_project
from ddopt.verification import (ManufacturedCase, REGIMES, get_regime,
                                exact_eval, manufactured_forcing,
                                tracking_data, make_params, eoc,
                                run_convergence_study)

CASE = ManufacturedCase(sigma=1.0, nu2=1.0)


# --- finite-difference oracle: first derivatives by complex step (exact),
# --- outer derivatives of fluxes by central differences with step 1e-5
H = 1e-5
HC = 1e-30


def cs_dx(f, x, y):
    return f(x + 1j * HC, y).imag / HC


def cs_dy(f, x, y):
    return f(x, y + 1j * HC).imag / HC


def dx(f, x, y):
    return (f(x + H, y) - f(x - H, y)) / (2 * H)


def dy(f, x, y):
    return (f(x, y + H) - f(x, y - H)) / (2 * H)


def oracle_forcing(case, x, y):
    """Strong governing-equation residual from pointwise field values only.
    """
    u = case.u(x, y)
    conv = np.stack([u[0] * cs_dx(lambda a, b, i=i: case.u(a, b)[i], x, y)
                     + u[1] * cs_dy(lambda a, b, i=i: case.u(a, b)[i], x, y)
                     for i in range(2)])

    def flux(i, j):
        d = cs_dx if j == 0 else cs_dy
        return lambda a, b: case.nu(case.T(a, b)) \
            * d(lambda c, e: case.u(c, e)[i], a, b)

    visc = np.stack([dx(flux(i, 0), x, y) + dy(flux(i, 1), x, y)
                     for i in range(2)])
    gp = np.stack([cs_dx(case.p, x, y), cs_dy(case.p, x, y)])
    f_mom = case.sigma * u + conv - visc + gp - case.buoyancy(x, y) \
        - case.U(x, y)

    yfun = [case.T, case.S]
    f_tr = []
    for i in range(2):
        val = 0.0
        for j in range(2):
            lap = dx(lambda a, b, j=j: cs_dx(yfun[j], a, b), x, y) \
                + dy(lambda a, b, j=j: cs_dy(yfun[j], a, b), x, y)
            val = val + case.diffusion[i, j] * lap
        conv_i = u[0] * cs_dx(yfun[i], x, y) + u[1] * cs_dy(yfun[i], x, y)
        f_tr.append(-val + conv_i)
    return f_mom, np.stack(f_tr)


def oracle_tracking(case, x, y):
    """Strong adjoint residual targets from pointwise field values only."""
    u = case.u(x, y)
    phi = case.phi(x, y)
    gu = np.array([[cs_dx(lambda a, b, i=i: case.u(a, b)[i], x, y),
                    cs_dy(lambda a, b, i=i: case.u(a, b)[i], x, y)]
                   for i in range(2)])
    gphi = np.array([[cs_dx(lambda a, b, i=i: case.phi(a, b)[i], x, y),
                      cs_dy(lambda a, b, i=i: case.phi(a, b)[i], x, y)]
                     for i in range(2)])

    def flux(i, j):
        d = cs_dx if j == 0 else cs_dy
        return lambda a, b: case.nu(case.T(a, b)) \
            * d(lambda c, e: case.phi(c, e)[i], a, b)

    divnu = np.stack([dx(flux(i, 0), x, y) + dy(flux(i, 1), x, y)
                      for i in range(2)])
    gz = np.stack([cs_dx(case.zeta, x, y), cs_dy(case.zeta, x, y)])
    yfun = [case.T, case.S]
    gy = np.array([[cs_dx(yfun[k], x, y), cs_dy(yfun[k], x, y)]
                   for k in range(2)])
    eta = case.eta(x, y)
    term = case.sigma * phi + gu.T @ phi \
        - (u[0] * gphi[:, 0] + u[1] * gphi[:, 1]) - divnu + gz + gy.T @ eta
    u_d = u - term

    efun = [case.eta_T, case.eta_S]
    cross = sum(gu[i][j] * gphi[i][j] for i in range(2) for j in range(2))
    nuT = case.nu_T(case.T(x, y))
    Fy = case.F_y
    y_d = []
    for i in range(2):
        lap = sum(case.diffusion[i, j]
                  * (dx(lambda a, b, j=j: cs_dx(efun[j], a, b), x, y)
                     + dy(lambda a, b, j=j: cs_dy(efun[j], a, b), x, y))
                  for j in range(2))
        conv = u[0] * cs_dx(efun[i], x, y) + u[1] * cs_dy(efun[i], x, y)
        fyphi = sum(Fy[k, i] * phi[k] for k in range(2))
        extra = nuT * cross if i == 0 else 0.0
        y_d.append(yfun[i](x, y) - (-lap - conv - fyphi + extra))
    return u_d, np.stack(y_d)


def test_exact_eval_values():
    assert exact_eval(CASE, "T", 0.0, 0.0) == pytest.approx(1.0)
    assert np.allclose(exact_eval(CASE, "u", 0.5, 0.5), [0.0, 0.0],
                       atol=1e-14)
    assert exact_eval(CASE, "p", 0.0, 0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        exact_eval(CASE, "vorticity", 0.0, 0.0)


def test_exact_velocity_divergence_free():
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, (2, 50))
    g = CASE.grad_u(x, y)
    assert np.abs(g[0, 0] + g[1, 1]).max() < 1e-13


def test_exact_control_is_projection_of_adjoint_velocity():
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0, 1, (2, 100))
    U = CASE.U(x, y)
    expected = np.clip(-CASE.phi(x, y), CASE.lower, CASE.upper)
    assert np.allclose(U, expected, atol=1e-15)
    assert U.min() >= CASE.lower and U.max() <= CASE.upper


def test_cell_averaged_projection_consistency():
    # projecting the cell-averaged adjoint velocity differs from the cell
    # average of the exact control by at most the oscillation h |grad phi|
    mesh = build_unit_square_mesh(16)
    pphi = p0_project(lambda x, y: CASE.phi(x, y), mesh).dof
    pU = p0_project(lambda x, y: CASE.U(x, y), mesh).dof
    proj = np.clip(-pphi, CASE.lower, CASE.upper)
    rng = np.random.default_rng(1)
    x, y = rng.uniform(0, 1, (2, 400))
    grad_bound = np.abs(CASE.grad_phi(x, y)).sum(axis=1).max()
    h = np.sqrt(2) / 16
    assert np.abs(proj - pU).max() <= h * grad_bound


def test_forcing_matches_fd_oracle():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0.05, 0.95, size=(20, 2))
    for sigma, nu2 in ((1.0, 1.0), (1e6, 1e-6)):
        case = ManufacturedCase(sigma=sigma, nu2=nu2)
        for x, y in pts[:5] if sigma != 1.0 else pts:
            am, at = manufactured_forcing(case, x, y)
            fm, ft = oracle_forcing(case, x, y)
            assert np.abs(am - fm).max() <= 1e-6 * max(1, np.abs(fm).max())
            assert np.abs(at - ft).max() <= 1e-6 * max(1, np.abs(ft).max())


def test_transport_forcing_value_at_center():
    # u vanishes at the center, so f_T = -1000 * lap T = 250 cos(1/4)
    _, f_tr = manufactured_forcing(CASE, 0.5, 0.5)
    assert f_tr[0] == pytest.approx(250.0 * np.cos(0.25), rel=1e-12)


def test_study_evaluates_each_forcing_half_once(monkeypatch):
    # the study's momentum forcing computes no transport term and its
    # transport forcing no momentum term; each equals its half of
    # manufactured_forcing to the bit
    from ddopt import verification
    handed = {}

    class Stop(Exception):
        pass

    def first_solve(*args, **kwargs):
        handed.update(kwargs)
        raise Stop

    monkeypatch.setattr(verification, "pdas_solve", first_solve)
    with pytest.raises(Stop):
        run_convergence_study("flow", [2, 3, 4])
    called = []
    for name in ("lap_y", "grad_y", "lap_u", "grad_p", "U"):
        def spy(self, *args, _name=name, _f=getattr(ManufacturedCase, name)):
            called.append(_name)
            return _f(self, *args)
        monkeypatch.setattr(ManufacturedCase, name, spy)
    x, y = np.meshgrid(np.linspace(0.1, 0.9, 4), np.linspace(0.2, 0.7, 3))
    f_mom = handed["forcing_mom"](x, y)
    assert set(called) == {"lap_u", "grad_p", "U"}
    del called[:]
    f_tr = handed["forcing_tr"](x, y)
    assert set(called) == {"grad_y", "lap_y"}
    case = ManufacturedCase(sigma=1.0, nu2=1.0)
    am, at = manufactured_forcing(case, x, y)
    assert am.tobytes() == f_mom.tobytes()
    assert at.tobytes() == f_tr.tobytes()


def test_tracking_targets_match_fd_oracle():
    data = tracking_data(CASE)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.05, 0.95, size=(10, 2))
    for x, y in pts:
        au = data.u_d(x, y)
        ay = data.y_d(x, y)
        fu, fy = oracle_tracking(CASE, x, y)
        assert np.abs(au - fu).max() <= 1e-6 * max(1, np.abs(fu).max())
        assert np.abs(ay - fy).max() <= 1e-6 * max(1, np.abs(fy).max())


def test_make_params_validates():
    params = make_params(CASE)
    params.validate(T_samples=np.linspace(0.0, 1.2, 25))
    assert params.sigma_bar == pytest.approx(1000.0)


def test_error_norms_constant_field_velocity():
    mesh = build_unit_square_mesh(4)

    class Zero(ManufacturedCase):
        def u(self, x, y):
            return np.stack([np.zeros_like(x), np.zeros_like(y)])

        def grad_u(self, x, y):
            z = np.zeros_like(x)
            return np.stack([np.stack([z, z]), np.stack([z, z])])

    from ddopt.spaces import CRVectorField
    c = 0.7
    v = CRVectorField(mesh)
    v.dof[:, 0] = c
    from ddopt.norms import broken_velocity_norm
    assert broken_velocity_norm(mesh, v.dof, 1.0, 1.0) == \
        pytest.approx(abs(c), rel=1e-12)
    # quadrature route agrees
    from ddopt.verification import _quadrature_error_parts
    zero = Zero()
    l2, h1 = _quadrature_error_parts(mesh, v.dof, zero.u, zero.grad_u)
    assert np.sqrt(l2 + h1) == pytest.approx(abs(c), rel=1e-12)


def test_error_norms_affine_gradient_exact():
    mesh = build_unit_square_mesh(4)
    f = cr_interpolate(lambda x, y: np.stack([1 + 2 * x - y, x + 3 * y]),
                       mesh)
    from ddopt.verification import _quadrature_error_parts

    def val(x, y):
        return np.stack([1 + 2 * x - y, x + 3 * y])

    def grad(x, y):
        one = np.ones_like(x)
        return np.stack([np.stack([2 * one, -one]),
                         np.stack([one, 3 * one])])

    l2, h1 = _quadrature_error_parts(mesh, f.dof, val, grad)
    assert h1 < 1e-26
    assert l2 < 1e-26


def test_control_error_unit_mismatch():
    mesh = build_unit_square_mesh(4)
    from ddopt.verification import _control_error
    lr, l2 = _control_error(mesh, np.zeros((mesh.num_cells, 2)),
                            lambda x, y: np.stack([np.ones_like(x),
                                                   np.ones_like(y)]),
                            4.0 / 3.0)
    assert lr[0] == pytest.approx(1.0, rel=1e-12)
    assert l2[1] == pytest.approx(1.0, rel=1e-12)


def test_eoc_examples():
    assert eoc([0.2, 0.1], [0.1, 0.05]) == [pytest.approx(1.0)]
    assert eoc([0.4, 0.1], [0.1, 0.05]) == [pytest.approx(2.0)]
    assert eoc([0.3, 0.3], [0.1, 0.05]) == [pytest.approx(0.0)]
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [0.1])
    with pytest.raises(ValueError):
        eoc([1.0, 0.5], [0.05, 0.1])
    with pytest.raises(ValueError):
        eoc([1.0], [0.1])


def test_regimes_table():
    assert REGIMES["darcy"].a0 == pytest.approx(1e4)
    # only the Darcy regime penalizes jumps and so measures the modified norm
    assert [r.name for r in REGIMES.values() if r.a0 > 0] == ["darcy"]
    assert get_regime("flow").sigma == 1.0
    with pytest.raises(ValueError):
        get_regime("viscoelastic")


def test_study_validates_levels():
    with pytest.raises(ValueError):
        run_convergence_study("flow", [8, 16])
    with pytest.raises(ValueError):
        run_convergence_study("flow", [8, 8, 16])


def test_stokes_regime_smoke():
    rep = run_convergence_study("stokes", [4, 8, 16])
    assert rep.rates["e_u"][-1] > 0.8
    assert rep.rates["e_p"][-1] > 0.8
    assert all(d <= 1e-12 for d in rep.div_max)


def test_small_study_structure_and_determinism():
    rep1 = run_convergence_study("flow", [4, 8, 16])
    rep2 = run_convergence_study("flow", [4, 8, 16])
    assert rep1.errors == rep2.errors
    assert rep1.iterations == rep2.iterations
    assert len(rep1.hs) == 3
    assert all(len(r) == 2 for r in rep1.rates.values())
    assert all(d <= 1e-10 for d in rep1.div_max)
    assert all(v <= 1e-5 for v in rep1.vi_res)
    # smooth solutions: the last observed velocity rate is near one already
    assert rep1.rates["e_u"][-1] > 0.8
