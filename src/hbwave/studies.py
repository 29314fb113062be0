"""End-to-end numerical experiments: manufactured-solution convergence,
the vanishing-relaxation-time sweep, Taylor/derivative tests, and an
independent time-stepping oracle for the periodic attractor.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .diagnostics import estimate_rhs_lo, compute_energies
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
from .nonlinear import (
    FixedPointOptions,
    eval_nonlinearity,
    fixed_point_solve,
    solve,
)
from .norms import l2l2_norm, u0lo_norm, u0me_norm
from .spatial import assemble_laplacian, dense_from_bands, gradient

CASE_IDS = ("linear-dirichlet", "linear-impedance", "westervelt-dirichlet",
            "kuznetsov-dirichlet")


@dataclass
class StudyResult:
    kind: str
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _config_hash(*parts) -> str:
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        return repr(o)
    blob = json.dumps(parts, default=default, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


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


def solve_case(case: ManufacturedCase, model: ValidatedModel,
               opts: FixedPointOptions | None = None) -> HarmonicField:
    return solve(case.f, model, case.kind, opts)


def convergence_study(case_id: str, coeffs: dict, L: float, nx_list,
                      M: int = 2, amplitude: float = 1e-3) -> StudyResult:
    """Dyadic-refinement errors against the manufactured solution.

    coeffs holds scalar tau, taubar, b, c2, eta, eta_tilde, T; nodal arrays
    are rebuilt per grid level.
    """
    if len(nx_list) < 3:
        raise ValueError("need >= 3 grids for observed orders")
    rows = []
    for nx in nx_list:
        grid = Grid(L=L, nx=nx)
        params = PhysicalParams.create(grid, **coeffs)
        case = manufactured_case(case_id, params, grid, M=M,
                                 amplitude=amplitude)
        model = validate_model(grid, params, case.bc_left, case.bc_right)
        u = solve_case(case, model)
        err = u - case.u_star
        rows.append({
            "nx": nx,
            "h": grid.h,
            "err_l2l2": l2l2_norm(err, grid, params.omega, params.T),
            "err_u0lo": u0lo_norm(err, grid, params.omega, params.T),
            "config_hash": _config_hash(case_id, coeffs, L, nx, M, amplitude),
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
    return StudyResult(kind="Convergence", rows=rows,
                       metadata={"case": case_id, "pass": ok,
                                 "orders_l2l2": orders})


def tau_sweep(f: HarmonicField, model: ValidatedModel, taus,
              kind: str = "linear",
              opts: FixedPointOptions | None = None) -> StudyResult:
    """Distance to the tau = 0 solution in the tau-independent discrete
    norms, plus the low-energy-to-data ratio per tau."""
    grid, p = model.grid, model.params
    omega, T = p.omega, p.T

    def solve_at(tau):
        m_tau = model.with_params(model.params.with_tau(tau))
        u = solve(f, m_tau, kind, opts)
        rtilde = (f if kind == "linear"
                  else f + eval_nonlinearity(u, kind, m_tau))
        return m_tau, u, rtilde

    _, u_ref, _ = solve_at(0.0)
    rows = []
    d_by_tau = {}
    for tau in taus:
        m_tau, u, rtilde = solve_at(tau)
        diff = u - u_ref
        d_lo = u0lo_norm(diff, grid, omega, T)
        d_me = u0me_norm(diff, grid, omega, T)
        den = estimate_rhs_lo(rtilde, m_tau)
        e_lo = compute_energies(u, m_tau).lo_total
        d_by_tau[tau] = d_lo
        rows.append({
            "tau": tau, "d_lo": d_lo, "d_me": d_me,
            "rate": None,
            "E_lo_ratio": e_lo / den if den > 0 else None,
            "config_hash": _config_hash(kind, tau, taus),
        })
    for row in rows:
        tau = row["tau"]
        if tau > 0 and 2 * tau in d_by_tau and row["d_lo"] > 0:
            row["rate"] = float(np.log2(d_by_tau[2 * tau] / row["d_lo"]))
    return StudyResult(kind="TauSweep", rows=rows,
                       metadata={"kind": kind, "taus": list(taus)})


def taylor_test(f: HarmonicField, f_dir: HarmonicField,
                model: ValidatedModel, kind: str, eps_list,
                opts: FixedPointOptions | None = None) -> StudyResult:
    """Remainder of the source-to-state map against its linearization.

    R(eps) = ||S(f + eps f_dir) - S(f) - eps u_lin|| should shrink at
    second order; the first-order difference at first order.
    """
    if len(eps_list) < 3:
        raise ValueError("need >= 3 epsilons")
    grid, p = model.grid, model.params
    base = fixed_point_solve(f, model, kind, opts).u
    u_lin = solve_linearized(base, f_dir, model, kind)
    rows = []
    for eps in eps_list:
        u_eps = fixed_point_solve(f + eps * f_dir, model, kind, opts).u
        remainder = u0lo_norm(u_eps - base - eps * u_lin, grid, p.omega, p.T)
        diff = u0lo_norm(u_eps - base, grid, p.omega, p.T)
        rows.append({"eps": eps, "remainder": remainder, "diff": diff,
                     "slope": None,
                     "config_hash": _config_hash(kind, eps, eps_list)})
    for i in range(1, len(rows)):
        r0, r1 = rows[i - 1], rows[i]
        dl = np.log(r0["eps"] / r1["eps"])
        if r0["remainder"] > 0 and r1["remainder"] > 0:
            r1["slope"] = float(np.log(r0["remainder"] / r1["remainder"]) / dl)
        r1["diff_slope"] = (float(np.log(r0["diff"] / r1["diff"]) / dl)
                            if r0["diff"] > 0 and r1["diff"] > 0 else None)
    return StudyResult(kind="Taylor", rows=rows,
                       metadata={"kind": kind, "eps": list(eps_list)})


# --- time-stepping oracle --------------------------------------------------

class _Oracle:
    """Implicit-midpoint integrator of the first-order system on the
    reduced (non-Dirichlet) nodes; the stiff constant-coefficient part is
    prefactored, small nonlinear corrections iterate per step."""

    MAX_STAGE_ITER = 50
    STAGE_TOL = 1e-13

    def __init__(self, f: HarmonicField, model: ValidatedModel, kind: str,
                 dt: float):
        self.model = model
        self.kind = kind
        self.dt = dt
        p = model.params
        self.p = p
        op = assemble_laplacian(model.grid, model.bc_left, model.bc_right, 0,
                                p.omega)
        self.op = op
        nr = len(op.active)
        self.nr = nr
        # discrete Laplacian split: lap(u, u_t) = Lu @ u + d_beta * u_t
        self.Lu = -dense_from_bands(op.bands).real
        d_beta = np.zeros(nr)
        h = model.grid.h
        for pos, bc in ((0, model.bc_left), (-1, model.bc_right)):
            if not bc.is_dirichlet and bc.beta != 0.0:
                d_beta[pos] = -2.0 * bc.beta / h
        self.d_beta = d_beta
        self.b = p.b[op.active]
        self.c2 = p.c2[op.active]
        self.eta = p.eta[op.active]
        self.eta_tilde = p.eta_tilde[op.active]
        self.f = f
        self.tau = p.tau

        A = self._linear_matrix()
        n = A.shape[0]
        self.lu = scipy.linalg.lu_factor(np.eye(n) - 0.5 * dt * A)
        self.A = A

    def _linear_matrix(self) -> np.ndarray:
        nr, Lu, db = self.nr, self.Lu, self.d_beta
        b, c2 = self.b, self.c2
        if self.tau > 0:
            A = np.zeros((3 * nr, 3 * nr))
            A[:nr, nr:2 * nr] = np.eye(nr)
            A[nr:2 * nr, 2 * nr:] = np.eye(nr)
            blk = A[2 * nr:, :]
            blk[:, :nr] = (c2[:, None] * Lu) / self.tau
            blk[:, nr:2 * nr] = (b[:, None] * Lu
                                 + np.diag(c2 * db)) / self.tau
            blk[:, 2 * nr:] = (np.diag(b * db) - np.eye(nr)) / self.tau
            return A
        # tau = 0: (1 - b d_beta) w = b lap v + c2 lap u  (alpha = 1 part)
        D = 1.0 - b * db
        A = np.zeros((2 * nr, 2 * nr))
        A[:nr, nr:] = np.eye(nr)
        A[nr:, :nr] = (c2[:, None] * Lu) / D[:, None]
        A[nr:, nr:] = (b[:, None] * Lu + np.diag(c2 * db)) / D[:, None]
        return A

    def _forcing(self, t: float) -> np.ndarray:
        c = self.f.coeffs[:, self.op.active]
        m = np.arange(self.f.M + 1)
        phases = np.exp(1j * m * self.p.omega * t)
        vals = c[0].real + 2.0 * np.einsum("m,mj->j", phases[1:],
                                           c[1:]).real
        return vals

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

    def _g(self, y: np.ndarray, t: float) -> np.ndarray:
        """Non-stiff remainder F(y, t) - A y."""
        nr = self.nr
        out = np.zeros_like(y)
        if self.tau > 0:
            u, v, w = y[:nr], y[nr:2 * nr], y[2 * nr:]
            da, r_nl = self._nonlinear_rest(u, v)
            out[2 * nr:] = -(da * w + r_nl + self._forcing(t)) / self.tau
        else:
            u, v = y[:nr], y[nr:]
            da, r_nl = self._nonlinear_rest(u, v)
            D = 1.0 - self.b * self.d_beta
            lin_w = (self.A[nr:, :] @ y)
            # exact w solves (1 + da - b d_beta) w = b lap v + c2 lap u - r
            rhs = D * lin_w - r_nl - self._forcing(t)
            w = rhs / (1.0 + da - self.b * self.d_beta)
            out[nr:] = w - lin_w
        return out

    def step(self, y: np.ndarray, t: float) -> np.ndarray:
        dt = self.dt
        t_mid = t + 0.5 * dt
        rhs_lin = y + 0.5 * dt * (self.A @ y)
        y_new = y.copy()
        for _ in range(self.MAX_STAGE_ITER):
            y_mid = 0.5 * (y + y_new)
            cand = scipy.linalg.lu_solve(
                self.lu, rhs_lin + dt * self._g(y_mid, t_mid))
            delta = np.linalg.norm(cand - y_new)
            y_new = cand
            if delta <= self.STAGE_TOL * (np.linalg.norm(y_new) + 1.0):
                return y_new
        raise StepRejected(
            f"implicit stage did not converge at t={t:.6g}")


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
    nr = oracle.nr
    dim = 3 * nr if p.tau > 0 else 2 * nr
    y = np.zeros(dim)
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
        values[j] = oracle.op.extend(y[:nr]).real
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
