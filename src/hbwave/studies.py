"""End-to-end numerical experiments: manufactured-solution convergence,
the vanishing-relaxation-time sweep, Taylor/derivative tests, and an
independent time-stepping oracle for the periodic attractor.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import compute_energies, energy_ratios
from .errors import NoPeriodicAttractor, StepRejected, UnknownCase
from .linear import solve_linearized
from .model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    TimeField,
    ValidatedModel,
    validate_model,
)
from .nonlinear import FixedPointOptions, fixed_point_solve, solve
from .norms import l2l2_norm, u0lo_norm, u0me_norm
from .spatial import (assemble_laplacian, band_product, gradient,
                      scale_rows, tridiagonal_solver)

CASE_IDS = ("linear-dirichlet", "linear-impedance", "westervelt-dirichlet",
            "kuznetsov-dirichlet")
MIN_LEVELS = 3      # fewest grids or epsilons: two observed orders
CASE_M = 2          # harmonics of a convergence study's cases


@dataclass
class StudyResult:
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


@dataclass
class ManufacturedCase:
    case_id: str
    u_star: HarmonicField
    f: HarmonicField
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    kind: str                 # "linear", "westervelt" or "kuznetsov"


def manufactured_case(case_id: str, params: PhysicalParams, grid: Grid,
                      M: int = 2, amplitude: float = 1e-3) -> ManufacturedCase:
    """Exact solution A cos(w t) phi(x) with the forcing that makes it solve
    the equation; the forcing has finite harmonic content (m <= 2)."""
    if case_id not in CASE_IDS:
        raise UnknownCase(f"unknown case {case_id!r}; known: {CASE_IDS}")
    if M < 2:
        raise ValueError("manufactured cases need M >= 2")
    omega = params.omega
    x = grid.nodes
    A = amplitude

    if case_id == "linear-impedance":
        k = 0.75 * np.pi / grid.L        # cot(kL) = -1, so gamma = k > 0
        bc_left = BoundaryCondition(BCKind.DIRICHLET)
        bc_right = BoundaryCondition(BCKind.IMPEDANCE, gamma=k)
    else:
        k = np.pi / grid.L
        bc_left = BoundaryCondition(BCKind.DIRICHLET)
        bc_right = BoundaryCondition(BCKind.DIRICHLET)
    phi = np.sin(k * x)

    u_star = HarmonicField.zeros(M, grid.nx)
    u_star.coeffs[1] = 0.5 * A * phi

    # f = -(tau u_ttt + u_tt - c^2 Lap u - b Lap u_t + N(u));  Lap u = -k^2 u
    f = HarmonicField.zeros(M, grid.nx)
    lin = ((-1j * params.tau * omega**3 - omega**2)
           + (params.c2 + 1j * omega * params.b) * k**2)
    f.coeffs[1] = -lin * u_star.coeffs[1]

    if case_id == "westervelt-dirichlet":
        # eta (u^2)_tt = -2 eta A^2 w^2 phi^2 cos(2wt)
        f.coeffs[2] = params.eta * A**2 * omega**2 * phi**2
        kind = "westervelt"
    elif case_id == "kuznetsov-dirichlet":
        # (eta~ u_t^2 + |grad u|^2)_t = -2 w d(x) sin(2wt)
        dphi = k * np.cos(k * x)
        d = 0.5 * A**2 * (dphi**2 - params.eta_tilde * omega**2 * phi**2)
        f.coeffs[2] = -1j * omega * d
        kind = "kuznetsov"
    else:
        kind = "linear"
    return ManufacturedCase(case_id=case_id, u_star=u_star, f=f,
                            bc_left=bc_left, bc_right=bc_right, kind=kind)


def convergence_study(case_id: str, coeffs: dict, L: float, nx_list,
                      M: int = CASE_M, amplitude: float = 1e-3) -> StudyResult:
    """Dyadic-refinement errors against the manufactured solution.

    coeffs holds scalar tau, taubar, b, c2, eta, eta_tilde, T; nodal arrays
    are rebuilt per grid level.
    """
    if len(nx_list) < MIN_LEVELS:
        raise ValueError(f"need >= {MIN_LEVELS} grids for observed orders")
    rows = []
    for nx in nx_list:
        grid = Grid(L=L, nx=nx)
        params = PhysicalParams.create(grid, **coeffs)
        case = manufactured_case(case_id, params, grid, M=M,
                                 amplitude=amplitude)
        model = validate_model(grid, params, case.bc_left, case.bc_right, M)
        u = solve(case.f, model, case.kind).u
        err = u - case.u_star
        rows.append({
            "nx": nx,
            "h": grid.h,
            "err_l2l2": l2l2_norm(err, grid, params.omega, params.T),
            "err_u0lo": u0lo_norm(err, grid, params.omega, params.T),
        })
    for i in range(1, len(rows)):
        ratio_h = rows[i - 1]["h"] / rows[i]["h"]
        for key in ("err_l2l2", "err_u0lo"):
            prev, cur = rows[i - 1][key], rows[i][key]
            order = (np.log(prev / cur) / np.log(ratio_h)
                     if prev > 0 and cur > 0 else np.nan)
            rows[i][f"order_{key[4:]}"] = float(order)
    orders = [r.get("order_l2l2") for r in rows[1:]]
    ok = all(o is not None and 1.8 <= o <= 2.2 for o in orders)
    return StudyResult(rows=rows,
                       metadata={"pass": ok, "orders_l2l2": orders})


def tau_sweep(f: HarmonicField, model: ValidatedModel,
              taus=(0.4, 0.2, 0.1, 0.05, 0.0), kind: str = "linear",
              opts: FixedPointOptions | None = None) -> StudyResult:
    """Distance to the tau = 0 solution in the tau-independent discrete
    norms, plus the energy-to-data ratios at the three levels per tau.

    Every tau's model, the tau = 0 reference's included, is validated
    before the first solve, and each distinct tau is solved once."""
    grid, p = model.grid, model.params
    omega, T = p.omega, p.T
    models = {tau: model.with_params(p.with_tau(tau)) for tau in (0.0, *taus)}
    reports = {tau: solve(f, m_tau, kind, opts)
               for tau, m_tau in models.items()}
    u_ref = reports[0.0].u
    rows = []
    d_by_tau = {}
    for tau in taus:
        m_tau, report = models[tau], reports[tau]
        diff = report.u - u_ref
        d_lo = u0lo_norm(diff, grid, omega, T)
        d_me = u0me_norm(diff, grid, omega, T)
        ratios = energy_ratios(compute_energies(report.u, m_tau),
                               report.rhs, m_tau)
        d_by_tau[tau] = d_lo
        # E_lo_ratio is the sweep's name for ratio_lo
        rows.append({"tau": tau, "d_lo": d_lo, "d_me": d_me, "rate": None,
                     "E_lo_ratio": ratios.pop("ratio_lo"), **ratios})
    for row in rows:
        tau = row["tau"]
        if tau > 0 and 2 * tau in d_by_tau and row["d_lo"] > 0:
            row["rate"] = float(np.log2(d_by_tau[2 * tau] / row["d_lo"]))
    return StudyResult(rows=rows)


def taylor_test(f: HarmonicField, f_dir: HarmonicField,
                model: ValidatedModel, kind: str, eps_list,
                opts: FixedPointOptions | None = None) -> StudyResult:
    """Remainder of the source-to-state map against its linearization.

    R(eps) = ||S(f + eps f_dir) - S(f) - eps u_lin|| should shrink at
    second order; the first-order difference at first order.
    """
    if len(eps_list) < MIN_LEVELS:
        raise ValueError(f"need >= {MIN_LEVELS} epsilons")
    grid, p = model.grid, model.params
    base = fixed_point_solve(f, model, kind, opts).u
    u_lin = solve_linearized(base, f_dir, model, kind)
    rows = []
    for eps in eps_list:
        u_eps = fixed_point_solve(f + eps * f_dir, model, kind, opts).u
        remainder = u0lo_norm(u_eps - base - eps * u_lin, grid, p.omega, p.T)
        diff = u0lo_norm(u_eps - base, grid, p.omega, p.T)
        rows.append({"eps": eps, "remainder": remainder, "diff": diff,
                     "slope": None})
    for i in range(1, len(rows)):
        r0, r1 = rows[i - 1], rows[i]
        dl = np.log(r0["eps"] / r1["eps"])
        if r0["remainder"] > 0 and r1["remainder"] > 0:
            r1["slope"] = float(np.log(r0["remainder"] / r1["remainder"]) / dl)
        r1["diff_slope"] = (float(np.log(r0["diff"] / r1["diff"]) / dl)
                            if r0["diff"] > 0 and r1["diff"] > 0 else None)
    return StudyResult(rows=rows)


# --- time-stepping oracle --------------------------------------------------

class _Oracle:
    """Implicit-midpoint integrator on the reduced (non-Dirichlet) nodes.

    The state has one row per derivative: (u, u_t, u_tt) when tau > 0,
    (u, u_t) when tau = 0.  Each stage eliminates the lower derivatives, so
    its unknown is the midpoint z of the top one, with v_mid = v + h z and
    u_mid = u + h v_mid (h = dt/2), and its linear part is one tridiagonal
    system K z = rhs, factored once.  The nonlinear terms are taken at the
    previous stage iterate's midpoint and iterated to STAGE_TOL.
    """

    MAX_STAGE_ITER = 50
    STAGE_TOL = 1e-13

    def __init__(self, f: HarmonicField, model: ValidatedModel, kind: str,
                 dt: float):
        self.model = model
        self.kind = kind
        self.dt = dt
        p = model.params
        self.tau = p.tau
        self.op = op = assemble_laplacian(model.grid, model.bc_left,
                                          model.bc_right, 0, p.omega)
        self.nr = len(op.active)
        # discrete Laplacian split: lap(u, u_t) = L u + d_beta * u_t
        self.L = -op.bands.real
        self.d_beta = d_beta = np.zeros(self.nr)
        for pos, bc in ((0, model.bc_left), (-1, model.bc_right)):
            if not bc.is_dirichlet:
                d_beta[pos] = -2.0 * bc.beta / model.grid.h
        self.b = b = p.b[op.active]
        self.c2 = c2 = p.c2[op.active]
        self.eta = p.eta[op.active]
        self.eta_tilde = p.eta_tilde[op.active]
        self.f0, self.fm = f.coeffs[0, op.active].real, f.coeffs[1:, op.active]
        self.phase_rate = 1j * np.arange(1, f.M + 1) * p.omega

        # the z terms of the top equation at the stage midpoint
        hs = 0.5 * dt
        if self.tau > 0:
            K = scale_rows(self.L, -(hs * hs * c2 + hs * b))
            K[1] += self.tau / hs + 1.0 - (hs * c2 + b) * d_beta
        else:
            K = scale_rows(self.L, -(hs * c2 + b))
            K[1] += (1.0 - b * d_beta) / hs - c2 * d_beta
        self.solve_stage = tridiagonal_solver(K)

    def _forcing(self, t: float) -> np.ndarray:
        phases = np.exp(self.phase_rate * t)
        return self.f0 + 2.0 * np.einsum("m,mj->j", phases, self.fm).real

    def _lap(self, u, v):
        return band_product(self.L, u) + self.d_beta * v

    def _nonlinear_rest(self, u, v):
        """(alpha - 1, r_nl) of the current state."""
        if self.kind == "westervelt":
            return 2.0 * self.eta * u, 2.0 * self.eta * v**2
        if self.kind == "kuznetsov":
            grid = self.model.grid
            gu = self.op.restrict(
                gradient(self.op.extend(u).real, grid)).real
            gv = self.op.restrict(
                gradient(self.op.extend(v).real, grid)).real
            return 2.0 * self.eta_tilde * v, 2.0 * gu * gv
        zero = np.zeros(self.nr)
        return zero, zero

    def _rest(self, y_mid: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        """(alpha - 1) u_tt + r_nl + forcing: what K leaves out."""
        u, v = y_mid[0], y_mid[1]
        da, r_nl = self._nonlinear_rest(u, v)
        # at tau = 0, w solves (1 + da - b d_beta) w = b lap v + c2 lap u - r
        w = y_mid[2] if self.tau > 0 else (
            (self.c2 * self._lap(u, v) + self.b * band_product(self.L, v)
             - r_nl - forcing) / (1.0 + da - self.b * self.d_beta))
        return da * w + r_nl + forcing

    def step(self, y: np.ndarray, t: float) -> np.ndarray:
        dt, h, b, c2 = self.dt, 0.5 * self.dt, self.b, self.c2
        forcing = self._forcing(t + h)   # fixed within the step
        # the top equation's linear terms free of z, fixed within the step
        if self.tau > 0:
            u, v, w = y
            rhs_lin = ((self.tau / h) * w + c2 * self._lap(u + h * v, v)
                       + b * band_product(self.L, v))
        else:
            u, v = y
            rhs_lin = ((1.0 - b * self.d_beta) / h * v
                       + c2 * band_product(self.L, u))
        y_new = y.copy()
        for _ in range(self.MAX_STAGE_ITER):
            z = self.solve_stage(
                rhs_lin - self._rest(0.5 * (y + y_new), forcing))
            if self.tau > 0:
                cand = np.array([u + dt * (v + h * z), v + dt * z, 2 * z - w])
            else:
                cand = np.array([u + dt * z, 2 * z - v])
            delta = np.linalg.norm(cand - y_new)
            y_new = cand
            if delta <= self.STAGE_TOL * (np.linalg.norm(y_new) + 1.0):
                return y_new
        raise StepRejected(f"implicit stage did not converge at t={t:.6g}")


def time_stepping_oracle(f: HarmonicField, model: ValidatedModel, kind: str,
                         dt: float | None = None, max_periods: int = 200,
                         period_tol: float = 1e-8):
    """Integrate the damped initial-value problem from zero data until the
    state repeats over a period; return the last period sampled onto the
    uniform time grid plus the final periodicity gap."""
    p = model.params
    T = p.T
    if dt is None:
        dt = T / 512
    n_steps = int(round(T / dt))
    dt = T / n_steps
    oracle = _Oracle(f, model, kind, dt)
    y = np.zeros((3 if p.tau > 0 else 2, oracle.nr))
    y_prev = y.copy()
    gaps = []
    converged = False
    for k in range(1, max_periods + 1):
        t0 = (k - 1) * T
        for j in range(n_steps):
            y = oracle.step(y, t0 + j * dt)
        norm = np.linalg.norm(y)
        gap = (np.linalg.norm(y - y_prev) / norm) if norm > 0 else 0.0
        gaps.append(gap)
        y_prev = y.copy()
        if gap < period_tol:
            converged = True
            break
    if not converged:
        raise NoPeriodicAttractor(
            f"periodicity gap {gaps[-1]:.3e} > {period_tol} after "
            f"{max_periods} periods", gaps=gaps)

    values = np.zeros((n_steps, model.grid.nx))
    t0 = k * T
    for j in range(n_steps):
        values[j] = oracle.op.extend(y[0]).real
        y = oracle.step(y, t0 + j * dt)
    return TimeField(values), gaps[-1]


def oracle_discrepancy(u_hb: HarmonicField, oracle_tf: TimeField,
                       model: ValidatedModel) -> float:
    """Relative L2(L2) distance between a harmonic-balance solution and an
    oracle trajectory sampled on its own time grid."""
    from .model import to_time_samples

    nt = oracle_tf.nt
    hb = to_time_samples(u_hb, nt).values
    w = model.grid.trapezoid_weights()
    diff = float(np.sum((hb - oracle_tf.values) ** 2 * w[None, :]))
    ref = float(np.sum(hb**2 * w[None, :]))
    if ref == 0.0:
        return float(np.sqrt(diff))
    return float(np.sqrt(diff / ref))
