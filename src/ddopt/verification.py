"""Manufactured-solution machinery: closed-form fields, strong-form forcing,
weighted error norms, and experimental orders of convergence.

The closed forms define a full optimality-system solution (state, adjoint,
control); forcing terms and tracking targets are the strong residuals of
the governing and adjoint PDEs evaluated with hand-coded analytic
derivatives.  A central finite-difference oracle cross-checks those
derivatives before any convergence run is trusted.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .adjoint import TrackingData
from .assembly import ProblemParams
from .control import ControlBounds, PdasSettings, _vi_residual, pdas_solve
from .mesh import build_unit_square_mesh
from .spaces import _point_values, boundary_interpolate, cr_cell_gradients, \
    cr_values_on_cells
from .state import NonlinearSettings

__all__ = ["ManufacturedCase", "NormWeights", "Regime", "REGIMES",
           "get_regime", "exact_eval", "manufactured_forcing",
           "tracking_data", "make_params", "error_norms", "eoc",
           "run_convergence_study", "ConvergenceReport", "ERROR_NAMES"]

PI = np.pi


@dataclass
class ManufacturedCase:
    """Closed-form optimality-system solution on the unit square.

    The flow fields are trigonometric, the transported pair trigonometric/
    exponential, the adjoint pair vanishes on the boundary, and the control
    is the projection of the adjoint velocity onto the box.  Fixed model
    choices: nu(T) = nu2 * exp(-T), F(y) = (T + N_r S) g with g = (0, 1),
    K^{-1} = sigma I, D = 1000 I, lambda = 1, bounds [-0.1, 0.25].
    """
    sigma: float = 1.0
    nu2: float = 1.0
    n_r: float = 1.0
    lam: float = 1.0
    lower: float = -0.1
    upper: float = 0.25
    diffusion: np.ndarray = field(
        default_factory=lambda: 1000.0 * np.eye(2))

    # --- state fields ---------------------------------------------------
    def u(self, x, y):
        return np.stack([np.sin(PI * x) * np.cos(PI * y),
                         -np.cos(PI * x) * np.sin(PI * y)])

    def grad_u(self, x, y):
        sx, cx = np.sin(PI * x), np.cos(PI * x)
        sy, cy = np.sin(PI * y), np.cos(PI * y)
        return np.stack([
            np.stack([PI * cx * cy, -PI * sx * sy]),
            np.stack([PI * sx * sy, -PI * cx * cy]),
        ])

    def lap_u(self, x, y):
        return -2.0 * PI ** 2 * self.u(x, y)

    def p(self, x, y):
        return np.cos(PI * x) * np.exp(y)

    def grad_p(self, x, y):
        return np.stack([-PI * np.sin(PI * x) * np.exp(y),
                         np.cos(PI * x) * np.exp(y)])

    def T(self, x, y):
        return 0.5 + 0.5 * np.cos(x * y)

    def grad_T(self, x, y):
        s = -0.5 * np.sin(x * y)
        return np.stack([s * y, s * x])

    def lap_T(self, x, y):
        return -0.5 * (x ** 2 + y ** 2) * np.cos(x * y)

    def S(self, x, y):
        return 0.1 + 0.3 * np.exp(x * y)

    def grad_S(self, x, y):
        e = 0.3 * np.exp(x * y)
        return np.stack([e * y, e * x])

    def lap_S(self, x, y):
        return 0.3 * (x ** 2 + y ** 2) * np.exp(x * y)

    def y(self, x, y_):
        return np.stack([self.T(x, y_), self.S(x, y_)])

    def grad_y(self, x, y_):
        return np.stack([self.grad_T(x, y_), self.grad_S(x, y_)])

    def lap_y(self, x, y_):
        return np.stack([self.lap_T(x, y_), self.lap_S(x, y_)])

    # --- adjoint fields -------------------------------------------------
    def phi(self, x, y):
        sx, sy = np.sin(PI * x), np.sin(PI * y)
        cx, cy = np.cos(PI * x), np.cos(PI * y)
        return np.stack([sx ** 2 * sy * cy, -sy ** 2 * sx * cx])

    def grad_phi(self, x, y):
        s2x, c2x = np.sin(2 * PI * x), np.cos(2 * PI * x)
        s2y, c2y = np.sin(2 * PI * y), np.cos(2 * PI * y)
        sx2 = np.sin(PI * x) ** 2
        sy2 = np.sin(PI * y) ** 2
        d1x = 0.5 * PI * s2x * s2y
        d1y = PI * sx2 * c2y
        d2x = -PI * sy2 * c2x
        d2y = -0.5 * PI * s2y * s2x
        return np.stack([np.stack([d1x, d1y]), np.stack([d2x, d2y])])

    def lap_phi(self, x, y):
        s2x, c2x = np.sin(2 * PI * x), np.cos(2 * PI * x)
        s2y, c2y = np.sin(2 * PI * y), np.cos(2 * PI * y)
        sx2 = np.sin(PI * x) ** 2
        sy2 = np.sin(PI * y) ** 2
        lap1 = PI ** 2 * (c2x * s2y - 2.0 * sx2 * s2y)
        lap2 = PI ** 2 * (2.0 * sy2 * s2x - c2y * s2x)
        return np.stack([lap1, lap2])

    def zeta(self, x, y):
        return np.cos(PI * y) * np.exp(x)

    def grad_zeta(self, x, y):
        return np.stack([np.cos(PI * y) * np.exp(x),
                         -PI * np.sin(PI * y) * np.exp(x)])

    @staticmethod
    def _bubble(x, y):
        b = x * (x - 1.0) * y * (y - 1.0)
        bx = (2.0 * x - 1.0) * y * (y - 1.0)
        by = x * (x - 1.0) * (2.0 * y - 1.0)
        bxx = 2.0 * y * (y - 1.0)
        byy = 2.0 * x * (x - 1.0)
        return b, bx, by, bxx, byy

    def eta_T(self, x, y):
        return 0.5 * np.cos(x * y) * x * (x - 1.0) * y * (y - 1.0)

    def grad_eta_T(self, x, y):
        b, bx, by, _, _ = self._bubble(x, y)
        c, s = np.cos(x * y), np.sin(x * y)
        return np.stack([0.5 * (-y * s * b + c * bx),
                         0.5 * (-x * s * b + c * by)])

    def lap_eta_T(self, x, y):
        b, bx, by, bxx, byy = self._bubble(x, y)
        c, s = np.cos(x * y), np.sin(x * y)
        dxx = 0.5 * (-y ** 2 * c * b - 2.0 * y * s * bx + c * bxx)
        dyy = 0.5 * (-x ** 2 * c * b - 2.0 * x * s * by + c * byy)
        return dxx + dyy

    def eta_S(self, x, y):
        return 0.5 * np.exp(x * y) * x * (x - 1.0) * y * (y - 1.0)

    def grad_eta_S(self, x, y):
        b, bx, by, _, _ = self._bubble(x, y)
        e = np.exp(x * y)
        return np.stack([0.5 * e * (y * b + bx), 0.5 * e * (x * b + by)])

    def lap_eta_S(self, x, y):
        b, bx, by, bxx, byy = self._bubble(x, y)
        e = np.exp(x * y)
        dxx = 0.5 * e * (y ** 2 * b + 2.0 * y * bx + bxx)
        dyy = 0.5 * e * (x ** 2 * b + 2.0 * x * by + byy)
        return dxx + dyy

    def eta(self, x, y):
        return np.stack([self.eta_T(x, y), self.eta_S(x, y)])

    def grad_eta(self, x, y):
        return np.stack([self.grad_eta_T(x, y), self.grad_eta_S(x, y)])

    def lap_eta(self, x, y):
        return np.stack([self.lap_eta_T(x, y), self.lap_eta_S(x, y)])

    # --- control, coefficients ------------------------------------------
    def U(self, x, y):
        return np.clip(-self.phi(x, y) / self.lam, self.lower, self.upper)

    def nu(self, T):
        return self.nu2 * np.exp(-T)

    def nu_T(self, T):
        return -self.nu2 * np.exp(-T)

    def buoyancy(self, x, y):
        """F(y) = (T + N_r S) g with g = (0, 1)."""
        mag = self.T(x, y) + self.n_r * self.S(x, y)
        return np.stack([np.zeros_like(mag), mag])

    @property
    def F_y(self):
        return np.array([[0.0, 0.0], [1.0, self.n_r]])

    @property
    def bounds(self):
        return ControlBounds([self.lower, self.lower],
                             [self.upper, self.upper])


_FIELDS = {
    "u": "u", "p": "p", "T": "T", "S": "S", "y": "y",
    "phi": "phi", "zeta": "zeta", "xi": "zeta",
    "eta_T": "eta_T", "eta_S": "eta_S", "eta": "eta", "U": "U",
}


def exact_eval(case, name, x, y):
    """Evaluate a closed-form field by name at (arrays of) points."""
    try:
        attr = _FIELDS[name]
    except KeyError:
        raise ValueError("unknown field name {!r}; expected one of {}"
                         .format(name, sorted(_FIELDS))) from None
    return getattr(case, attr)(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))


def manufactured_forcing(case, x, y):
    """Strong residuals of the governing equations at the closed forms.

    Returns
    -------
    f_mom : ndarray (2, ...)
        K^{-1} u + (u . grad) u - div(nu(T) grad u) + grad p - F(y) - U.
    f_tr : ndarray (2, ...)
        -div(D grad y) + (u . grad) y.
    """
    return _momentum_forcing(case, x, y), _transport_forcing(case, x, y)


def _momentum_forcing(case, x, y):
    """The momentum half of ``manufactured_forcing``."""
    x = np.asarray(x, dtype=float)
    y_ = np.asarray(y, dtype=float)
    u = case.u(x, y_)
    gu = case.grad_u(x, y_)
    T = case.T(x, y_)
    gT = case.grad_T(x, y_)
    nu = case.nu(T)
    nuT = case.nu_T(T)
    conv = np.einsum("j...,ij...->i...", u, gu)
    visc = nu * case.lap_u(x, y_) \
        + nuT * np.einsum("j...,ij...->i...", gT, gu)
    return case.sigma * u + conv - visc + case.grad_p(x, y_) \
        - case.buoyancy(x, y_) - case.U(x, y_)


def _transport_forcing(case, x, y):
    """The transport half of ``manufactured_forcing``."""
    x = np.asarray(x, dtype=float)
    y_ = np.asarray(y, dtype=float)
    conv_y = np.einsum("j...,ij...->i...", case.u(x, y_),
                       case.grad_y(x, y_))
    diff_y = np.einsum("ij,j...->i...", case.diffusion, case.lap_y(x, y_))
    return -diff_y + conv_y


def tracking_data(case):
    """Desired states that make the closed forms solve the adjoint system.

    The targets are u_d = u - (strong adjoint momentum residual) and
    y_d = y - (strong adjoint transport residual), built from the analytic
    derivatives of the closed forms.
    """
    def u_d(x, y_):
        x = np.asarray(x, dtype=float)
        y_ = np.asarray(y_, dtype=float)
        u = case.u(x, y_)
        gu = case.grad_u(x, y_)
        phi = case.phi(x, y_)
        gphi = case.grad_phi(x, y_)
        T = case.T(x, y_)
        gT = case.grad_T(x, y_)
        nu = case.nu(T)
        nuT = case.nu_T(T)
        term = case.sigma * phi \
            + np.einsum("ji...,j...->i...", gu, phi) \
            - np.einsum("j...,ij...->i...", u, gphi) \
            - (nu * case.lap_phi(x, y_)
               + nuT * np.einsum("j...,ij...->i...", gT, gphi)) \
            + case.grad_zeta(x, y_) \
            + np.einsum("ki...,k...->i...", case.grad_y(x, y_),
                        case.eta(x, y_))
        return u - term

    def y_d(x, y_):
        x = np.asarray(x, dtype=float)
        y_ = np.asarray(y_, dtype=float)
        u = case.u(x, y_)
        geta = case.grad_eta(x, y_)
        phi = case.phi(x, y_)
        T = case.T(x, y_)
        nuT = case.nu_T(T)
        cross = np.einsum("ij...,ij...->...", case.grad_u(x, y_),
                          case.grad_phi(x, y_))
        term = -np.einsum("ij,j...->i...", case.diffusion,
                          case.lap_eta(x, y_)) \
            - np.einsum("j...,ij...->i...", u, geta) \
            - np.einsum("ij,i...->j...", case.F_y, phi) \
            + np.stack([nuT * cross, np.zeros_like(cross)])
        return case.y(x, y_) - term

    return TrackingData(u_d=u_d, y_d=y_d)


def make_params(case):
    """ProblemParams matching the manufactured coefficient choices."""
    nu2 = case.nu2
    return ProblemParams(
        sigma=case.sigma, diffusion=case.diffusion,
        nu=lambda T: nu2 * np.exp(-T), nu_T=lambda T: -nu2 * np.exp(-T),
        nu1=nu2 * np.exp(-1.5), nu2=nu2,
        F_y=case.F_y)


@dataclass
class NormWeights:
    """Weights of the mesh-dependent norms and the control exponent."""
    sigma: float = 1.0
    nu2: float = 1.0
    sigma_bar: float = 1000.0
    r: float = 4.0 / 3.0
    include_jump: bool = False

    @staticmethod
    def from_case(case, include_jump=False):
        return NormWeights(sigma=case.sigma, nu2=case.nu2,
                           sigma_bar=float(np.abs(case.diffusion).max()),
                           include_jump=include_jump)


def _quadrature_error_parts(mesh, dof, value_fn, grad_fn):
    """Cellwise sums of |f_h - f|^2 and |grad f_h - grad f|^2.

    ``dof`` is (ne, k); value_fn/grad_fn return stacked (k, ...) and
    (k, 2, ...) arrays.
    """
    q = mesh.cell_quadrature
    x, yy = q.pts[:, :, 0], q.pts[:, :, 1]
    vals = cr_values_on_cells(mesh, dof, q.bary)        # (nc, nq, k)
    exact = _point_values(value_fn, x, yy)              # (nc, nq, k)
    l2 = float(np.einsum("cq,cqk,cqk->", q.wts, vals - exact, vals - exact))
    gh = cr_cell_gradients(mesh, dof)                    # (nc, k, 2)
    ge = np.moveaxis(grad_fn(x, yy), (0, 1), (-2, -1))   # (nc, nq, k, 2)
    diff = gh[:, None, :, :] - ge
    h1 = float(np.einsum("cq,cqkx,cqkx->", q.wts, diff, diff))
    return l2, h1


def _jump_error_sq(mesh, dof, value_fn):
    """sum_e h_e^{-1} int_e |[f_h - f]|^2 with f continuous (2-pt Gauss)."""
    td = mesh.edge_traces
    d = dof if dof.ndim == 2 else dof[:, None]
    tr = np.einsum("esqi,esik->esqk", td.psi,
                   np.where(td.dofs[..., None] >= 0,
                            d[np.maximum(td.dofs, 0)], 0.0))
    ex = _point_values(value_fn, td.pts[:, :, 0], td.pts[:, :, 1])
    jump = np.where(mesh.boundary_edge[:, None, None],
                    tr[:, 0] - ex, tr[:, 0] - tr[:, 1])
    return float(np.einsum("q,eqk,eqk->", td.w, jump, jump))


def _control_error(mesh, U_cells, exact_fn, r):
    q = mesh.cell_quadrature
    ex = _point_values(exact_fn, q.pts[:, :, 0], q.pts[:, :, 1])
    diff = np.abs(U_cells[:, None, :] - ex)
    lr = np.einsum("cq,cqk->k", q.wts, diff ** r) ** (1.0 / r)
    l2 = np.sqrt(np.einsum("cq,cqk->k", q.wts, diff ** 2))
    return lr, l2


ERROR_NAMES = ["e_u", "e_p", "e_T", "e_S", "e_phi", "e_zeta", "e_etaT",
               "e_etaS", "e_U1", "e_U2"]


def error_norms(mesh, fields, case, weights):
    """Weighted broken-norm errors of a discrete optimality-system solution.

    Parameters
    ----------
    fields : dict
        Keys "u", "p", "y", "phi", "zeta", "eta", "U" holding the discrete
        fields (CR fields for u/y/phi/eta, P0 for p/zeta/U).
    case : ManufacturedCase
    weights : NormWeights

    Returns
    -------
    dict
        The errors named in ``ERROR_NAMES`` plus unweighted diagnostics.
    """
    for key in ("u", "p", "y", "phi", "zeta", "eta", "U"):
        if key in fields and fields[key] is not None \
                and getattr(fields[key], "mesh", mesh) is not mesh:
            raise ValueError("field {!r} lives on a different mesh"
                             .format(key))
    out = {}
    l2, h1 = _quadrature_error_parts(mesh, fields["u"].dof, case.u,
                                     case.grad_u)
    e2 = weights.sigma * l2 + weights.nu2 * h1
    if weights.include_jump:
        e2 += _jump_error_sq(mesh, fields["u"].dof, case.u)
    out["e_u"] = np.sqrt(e2)

    l2, h1 = _quadrature_error_parts(mesh, fields["phi"].dof, case.phi,
                                     case.grad_phi)
    e2 = weights.sigma * l2 + weights.nu2 * h1
    if weights.include_jump:
        e2 += _jump_error_sq(mesh, fields["phi"].dof, case.phi)
    out["e_phi"] = np.sqrt(e2)

    for comp, name in ((0, "T"), (1, "S")):
        dof = fields["y"].dof[:, comp:comp + 1]
        vf = (case.T, case.S)[comp]
        gf = (case.grad_T, case.grad_S)[comp]
        l2, h1 = _quadrature_error_parts(
            mesh, dof, lambda x, y_: vf(x, y_)[None],
            lambda x, y_: gf(x, y_)[None])
        out["e_" + name] = np.sqrt(weights.sigma_bar * h1)
        out["e_{}_unweighted".format(name)] = np.sqrt(h1 + l2)
    for comp, name in ((0, "etaT"), (1, "etaS")):
        dof = fields["eta"].dof[:, comp:comp + 1]
        vf = (case.eta_T, case.eta_S)[comp]
        gf = (case.grad_eta_T, case.grad_eta_S)[comp]
        l2, h1 = _quadrature_error_parts(
            mesh, dof, lambda x, y_: vf(x, y_)[None],
            lambda x, y_: gf(x, y_)[None])
        out["e_" + name] = np.sqrt(weights.sigma_bar * h1)

    q = mesh.cell_quadrature
    for name, fn in (("e_p", case.p), ("e_zeta", case.zeta)):
        key = "p" if name == "e_p" else "zeta"
        ex = fn(q.pts[:, :, 0], q.pts[:, :, 1])
        diff = fields[key].dof[:, None] - ex
        out[name] = np.sqrt(float(np.einsum("cq,cq->", q.wts, diff ** 2)))

    lr, l2c = _control_error(mesh, fields["U"].dof, case.U, weights.r)
    out["e_U1"], out["e_U2"] = float(lr[0]), float(lr[1])
    out["e_U1_l2"], out["e_U2_l2"] = float(l2c[0]), float(l2c[1])
    return out


def eoc(errors, hs):
    """Pairwise experimental orders log(e/e~) / log(h/h~)."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape:
        raise ValueError("errors and hs must have the same length")
    if errors.size < 2:
        raise ValueError("need at least two levels")
    if np.any(np.diff(hs) >= 0):
        raise ValueError("hs must be strictly decreasing")
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = np.log(errors[:-1] / errors[1:]) / np.log(hs[:-1] / hs[1:])
    return [float(r) for r in rates]


@dataclass
class Regime:
    """Coefficient scaling of the accuracy test; a0 > 0 switches on the
    facet jump penalty and the modified velocity norm."""
    name: str
    sigma: float
    nu2: float
    a0: float = 0.0


REGIMES = {
    "flow": Regime("flow", sigma=1.0, nu2=1.0),
    "stokes": Regime("stokes", sigma=1e-6, nu2=1.0),
    "darcy": Regime("darcy", sigma=1e6, nu2=1e-6,
                    a0=10.0 * np.sqrt(1e6)),
}


def get_regime(regime):
    if isinstance(regime, Regime):
        return regime
    try:
        return REGIMES[regime]
    except KeyError:
        raise ValueError("unknown regime {!r}; expected one of {}"
                         .format(regime, sorted(REGIMES))) from None


@dataclass
class ConvergenceReport:
    """Per-level errors, rates, and solver diagnostics of one study."""
    regime: str
    ns: list
    hs: list
    errors: dict
    rates: dict
    iterations: list
    dofs: dict
    div_max: list
    vi_res: list
    results: list


def run_convergence_study(regime, ns, pdas_settings=None, keep_results=False):
    """Run the manufactured accuracy test over a mesh sequence.

    Parameters
    ----------
    regime : str or Regime
        "flow", "stokes", or "darcy" (the Darcy regime switches on the
        facet jump penalty with a0 = 10 sqrt(sigma) and measures the
        velocity errors in the modified norm).
    ns : sequence of int
        Subdivision counts, at least 3 strictly increasing levels.
    pdas_settings : PdasSettings, optional
        Defaults to the absolute 1e-6 stopping rule on the control change.
    keep_results : bool
        Retain the per-level OptResult objects in the report.

    Returns
    -------
    ConvergenceReport
    """
    regime = get_regime(regime)
    ns = [int(n) for n in ns]
    if len(ns) < 3:
        raise ValueError("a convergence study needs at least 3 levels")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("levels must be strictly increasing")

    case = ManufacturedCase(sigma=regime.sigma, nu2=regime.nu2)
    params = make_params(case).validate(
        T_samples=np.linspace(0.0, 1.2, 25))
    weights = NormWeights.from_case(case, include_jump=regime.a0 > 0)
    data = tracking_data(case)
    f_mom = functools.partial(_momentum_forcing, case)
    f_tr = functools.partial(_transport_forcing, case)
    settings = pdas_settings or PdasSettings(
        lam=case.lam, tol=1e-6, tol_mode="absolute",
        inner=NonlinearSettings(tol=1e-10, max_iter=100))

    errors = {name: [] for name in ERROR_NAMES}
    extra = {}
    hs, iterations, div_max, vi_res = [], [], [], []
    dofs = {"u": [], "p": [], "y": [], "U": []}
    results = []

    for n in ns:
        mesh = build_unit_square_mesh(n)
        y_bc = boundary_interpolate(lambda x, y_: case.y(x, y_), mesh)
        u_bc = boundary_interpolate(lambda x, y_: case.u(x, y_), mesh)

        result = pdas_solve(mesh, params, y_bc, data, case.bounds,
                            settings=settings, u_bc=u_bc,
                            forcing_mom=f_mom, forcing_tr=f_tr,
                            penalty_a0=regime.a0)
        adj = result.adjoint
        fields = {"u": result.state.u, "p": result.state.p,
                  "y": result.state.y, "phi": adj.phi, "zeta": adj.xi,
                  "eta": adj.eta, "U": result.control}
        level_errors = error_norms(mesh, fields, case, weights)
        for name in ERROR_NAMES:
            errors[name].append(float(level_errors[name]))
        for name, val in level_errors.items():
            if name not in ERROR_NAMES:
                extra.setdefault(name, []).append(float(val))

        hs.append(np.sqrt(2.0) / n)
        iterations.append(result.iterations)
        div_max.append(result.state.max_divergence())
        vi_res.append(_vi_residual(result))
        dofs["u"].append(2 * mesh.interior_edges.size)
        dofs["p"].append(mesh.num_cells)
        dofs["y"].append(2 * mesh.num_edges)
        dofs["U"].append(2 * mesh.num_cells)
        if keep_results:
            results.append(result)

    rates = {name: eoc(errors[name], hs) for name in ERROR_NAMES}
    errors.update(extra)
    return ConvergenceReport(regime=regime.name, ns=ns, hs=hs,
                             errors=errors, rates=rates,
                             iterations=iterations, dofs=dofs,
                             div_max=div_max, vi_res=vi_res,
                             results=results)
