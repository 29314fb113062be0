"""End-to-end numerical experiments: manufactured-solution convergence,
the vanishing-relaxation-time sweep, Taylor/derivative tests, and an
independent time-stepping oracle for the periodic attractor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import compute_energies, energy_ratios
from .errors import (NoPeriodicAttractor, StepRejected, UndersampledTime,
                     UnknownCase)
from .linear import solve_linearized
from .model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    ValidatedModel,
    min_samples,
    to_time_samples,
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
ORACLE_STEPS = 512   # the oracle's default steps per period


@dataclass
class StudyResult:
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


@dataclass
class ManufacturedCase:
    u_star: np.ndarray
    f: np.ndarray
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

    u_star = np.zeros((M + 1, grid.nx), complex)
    u_star[1] = 0.5 * A * phi

    # f = -(tau u_ttt + u_tt - c^2 Lap u - b Lap u_t + N(u));  Lap u = -k^2 u
    f = np.zeros((M + 1, grid.nx), complex)
    lin = ((-1j * params.tau * omega**3 - omega**2)
           + (params.c2 + 1j * omega * params.b) * k**2)
    f[1] = -lin * u_star[1]

    if case_id == "westervelt-dirichlet":
        # eta (u^2)_tt = -2 eta A^2 w^2 phi^2 cos(2wt)
        f[2] = params.eta * A**2 * omega**2 * phi**2
        kind = "westervelt"
    elif case_id == "kuznetsov-dirichlet":
        # (eta~ u_t^2 + |grad u|^2)_t = -2 w d(x) sin(2wt)
        dphi = k * np.cos(k * x)
        d = 0.5 * A**2 * (dphi**2 - params.eta_tilde * omega**2 * phi**2)
        f[2] = -1j * omega * d
        kind = "kuznetsov"
    else:
        kind = "linear"
    return ManufacturedCase(u_star=u_star, f=f, bc_left=bc_left,
                            bc_right=bc_right, kind=kind)


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


def tau_sweep(f: np.ndarray, model: ValidatedModel,
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


def taylor_test(f: np.ndarray, f_dir: np.ndarray,
                model: ValidatedModel, kind: str,
                eps_list=(1e-1, 1e-2, 1e-3),
                opts: FixedPointOptions | None = None) -> StudyResult:
    """Remainder of the source-to-state map against its linearization.

    R(eps) = ||S(f + eps f_dir) - S(f) - eps u_lin|| should shrink at
    second order; the first-order difference at first order.  Each
    perturbed solve starts from base + eps u_lin, which is within O(eps^2)
    of its solution, and the nonlinear solve vets that start for
    degeneracy like any other state.  `metadata["picard_iterations"]`
    holds the iterations of each solve: base, linearized, and one per eps.
    """
    if len(eps_list) < MIN_LEVELS:
        raise ValueError(f"need >= {MIN_LEVELS} epsilons")
    grid, p = model.grid, model.params
    base_report = fixed_point_solve(f, model, kind, opts)
    lin_report = solve_linearized(base_report.u, f_dir, model, kind)
    base, u_lin = base_report.u, lin_report.u
    iterations = {"base": base_report.iterations,
                  "linearized": lin_report.iterations, "eps": []}
    rows = []
    for eps in eps_list:
        report = fixed_point_solve(f + eps * f_dir, model, kind, opts,
                                   u0=base + eps * u_lin)
        iterations["eps"].append(report.iterations)
        remainder = u0lo_norm(report.u - base - eps * u_lin, grid, p.omega,
                              p.T)
        diff = u0lo_norm(report.u - base, grid, p.omega, p.T)
        rows.append({"eps": eps, "remainder": remainder, "diff": diff,
                     "slope": None})
    for i in range(1, len(rows)):
        r0, r1 = rows[i - 1], rows[i]
        dl = np.log(r0["eps"] / r1["eps"])
        if r0["remainder"] > 0 and r1["remainder"] > 0:
            r1["slope"] = float(np.log(r0["remainder"] / r1["remainder"]) / dl)
        r1["diff_slope"] = (float(np.log(r0["diff"] / r1["diff"]) / dl)
                            if r0["diff"] > 0 and r1["diff"] > 0 else None)
    return StudyResult(rows=rows,
                       metadata={"picard_iterations": iterations})


# --- time-stepping oracle --------------------------------------------------

class _Oracle:
    """Implicit-midpoint integrator on the reduced (non-Dirichlet) nodes.

    The state has one row per derivative: (u, u_t, u_tt) when tau > 0,
    (u, u_t) when tau = 0.  A step's one unknown is the stage value z, the
    midpoint of the top derivative: v_mid = v + h z and u_mid = u + h v_mid
    when tau > 0, u_mid = u + h z when tau = 0 (h = dt/2).  The new state is
    twice the midpoint minus the old one.  The stage's linear part is one
    tridiagonal system K z = rhs, factored once; the nonlinear terms are
    taken at the previous iterate's midpoint, and z is iterated on that map.
    The linear kind's stage is linear: one solve.

    A stage starts from 3 z_1 - 3 z_2 + z_3, the quadratic through the
    last three steps' stage values (latest first), off by O(dt^3) on the
    uniform step; with fewer, from 2 w - z_1 (w the state's top
    derivative), or from w.  With s_k = dz_gain |dz_k| the k-th update's
    move of the new state, an iterate is accepted once s_k <= STAGE_TOL
    (|y_new| + 1), or once theta / (1 - theta) s_k, its error estimate for a
    contraction theta < 1, is at most STAGE_SAFETY times that (Hairer &
    Wanner, Solving ODEs II, IV.8).  theta is the largest ratio
    s_k / s_(k-1) the oracle has met: a step's own first ratio can fall
    well below the map's contraction.

    The forcing is T-periodic and dt = T / n_steps, so the forcing at the
    midpoint of each step of a period is tabulated once, and so are the
    bands of the z-free linear terms, one per state row.
    """

    MAX_STAGE_ITER = 50
    STAGE_TOL = 1e-13
    STAGE_SAFETY = 0.1      # share of STAGE_TOL left to theta's estimate

    def __init__(self, f: np.ndarray, model: ValidatedModel, kind: str,
                 n_steps: int):
        self.model = model
        self.kind = kind
        p = model.params
        self.tau = tau = p.tau
        self.dt = dt = p.T / n_steps
        h = 0.5 * dt
        self.op = op = assemble_laplacian(model.grid, model.bc_left,
                                          model.bc_right, 0, p.omega)
        self.nr = nr = op.bands.shape[-1]
        # discrete Laplacian split: lap(u, u_t) = L u + d_beta * u_t
        L = -op.bands.real
        d_beta = np.zeros(nr)
        for pos, bc in ((0, model.bc_left), (-1, model.bc_right)):
            if not bc.is_dirichlet:
                d_beta[pos] = -2.0 * bc.beta / model.grid.h
        b, c2 = op.restrict(p.b), op.restrict(p.c2)
        self.two_eta = 2.0 * op.restrict(p.eta)
        self.two_eta_tilde = 2.0 * op.restrict(p.eta_tilde)

        # the forcing at t = (j + 1/2) dt, real: f_0 + 2 Re(e^{i m w t} f_m)
        mwt = np.outer((np.arange(n_steps) + 0.5) * dt,
                       np.arange(1, len(f)) * p.omega)
        fm = 2.0 * op.restrict(f[1:])
        # f_0 added in place: the table is the one array of its size
        self.forcing = (np.hstack([np.cos(mwt), -np.sin(mwt)])
                        @ np.vstack([fm.real, fm.imag]))
        self.forcing += op.restrict(f[0].real)

        # the top equation: K z = (the z-free linear terms) - rest, with the
        # z-free terms the sum over state rows k of lin_k y_k
        lin = np.zeros((3 if tau > 0 else 2, 3, nr))
        lin[0] = scale_rows(L, c2)
        if tau > 0:
            lin[1] = scale_rows(L, h * c2 + b)
            lin[1, 1] += c2 * d_beta
            lin[2, 1] = tau / h
            K = scale_rows(L, -(h * h * c2 + h * b))
            K[1] += tau / h + 1.0 - (h * c2 + b) * d_beta
            # the midpoint is affine in z: mid = P y + g z
            self.P = np.array([[1.0, h, 0.0], [0.0, 1.0, 0.0], [0.0] * 3])
            self.g = np.array([h * h, h, 1.0])
        else:
            lin[1, 1] = (1.0 - b * d_beta) / h
            K = scale_rows(L, -(h * c2 + b))
            K[1] += (1.0 - b * d_beta) / h - c2 * d_beta
            self.P = np.array([[1.0, 0.0], [0.0, 0.0]])
            self.g = np.array([h, 1.0])
            # u_tt solves (1 + da - b d_beta) u_tt
            #   = lap_u u + lap_v u_t - r_nl - forcing
            self.lap_u = lin[0]
            self.lap_v = scale_rows(L, b)
            self.lap_v[1] += c2 * d_beta
            self.one_bd = 1.0 - b * d_beta
        # the rows' blocks side by side, whose zero corners keep them apart
        self.lin_bands = lin.transpose(1, 0, 2).reshape(3, -1)
        # y_new = 2 mid - y, so |y_new - y_new'| = dz_gain |z - z'|
        self.dz_gain = 2.0 * np.sqrt(self.g @ self.g)
        self.solve_stage = tridiagonal_solver(K)
        self.stage_solves = 0   # over the oracle's life
        self.theta = 0.0

    def _rest(self, mid: np.ndarray, forcing: np.ndarray):
        """(alpha - 1) u_tt + r_nl at the stage midpoint: the nonlinear
        terms K leaves out; None for the linear kind, which has none."""
        u, v = mid[0], mid[1]
        if self.kind == "westervelt":
            da, r_nl = self.two_eta * u, self.two_eta * v * v
        elif self.kind == "kuznetsov":
            full = np.zeros((2, self.model.grid.nx))   # Dirichlet nodes 0
            full[:, self.op.span] = u, v
            gu, gv = self.op.restrict(gradient(full, self.model.grid))
            da, r_nl = self.two_eta_tilde * v, 2.0 * gu * gv
        else:
            return None
        utt = mid[2] if self.tau > 0 else (
            (band_product(self.lap_u, u) + band_product(self.lap_v, v)
             - r_nl - forcing) / (self.one_bd + da))
        return da * utt + r_nl

    def step(self, y: np.ndarray, j: int, zs: tuple = ()):
        """One step from state y over step j of a period, whose midpoint is
        at (j + 1/2) dt modulo T; zs holds the previous steps' stage values,
        latest first, of which the first three are used.  Returns the new
        state and this step's stage value."""
        forcing = self.forcing[j]
        # K z = rhs - rest, rhs = sum over rows k of lin_k y_k - forcing
        r = band_product(self.lin_bands, y.reshape(-1)).reshape(y.shape)
        rhs = sum(r) - forcing
        m0, g = self.P @ y, self.g[:, None]
        if len(zs) >= 3:
            z = 3.0 * (zs[0] - zs[1]) + zs[2]
        else:
            z = 2.0 * y[-1] - zs[0] if zs else y[-1]
        mid = m0 + g * z
        s_prev = 0.0        # no ratio before the second update
        for _ in range(self.MAX_STAGE_ITER):
            rest = self._rest(mid, forcing)
            # without nonlinear terms the stage is linear: one solve
            z_new = self.solve_stage(rhs if rest is None else rhs - rest)
            self.stage_solves += 1
            dz = z_new - z
            z, mid = z_new, m0 + g * z_new
            y_new = 2.0 * mid - y
            if rest is None:
                return y_new, z
            s = self.dz_gain * math.sqrt(dz @ dz)
            tol = self.STAGE_TOL * (math.sqrt(np.vdot(y_new, y_new)) + 1.0)
            if s <= tol:
                return y_new, z
            if s_prev > 0.0:
                theta = self.theta = max(self.theta, s / s_prev)
                if theta < 1.0 and (theta * s <= (1.0 - theta)
                                    * self.STAGE_SAFETY * tol):
                    return y_new, z
            s_prev = s
        raise StepRejected(f"implicit stage did not converge in step {j} "
                           "of the period")


def check_oracle_steps(n_steps: int, M: int):
    """Raise UndersampledTime unless the oracle's period of n_steps samples
    resolves harmonic M, as `oracle_discrepancy` needs."""
    if n_steps < min_samples(M):
        raise UndersampledTime(f"oracle steps per period: nt={n_steps} < "
                               f"2M+2={min_samples(M)}")


def time_stepping_oracle(f: np.ndarray, model: ValidatedModel, kind: str,
                         n_steps: int = ORACLE_STEPS, max_periods: int = 200,
                         period_tol: float = 1e-8):
    """Integrate the damped initial-value problem from zero data, at
    n_steps steps of T / n_steps a period, until the state repeats over a
    period.  Returns the (n_steps, nx) samples of u at the start of each
    step of the last period marched, written in place as each period is
    marched, that period's gap |y_end - y_start| / |y_end|, and the
    march's counts (periods, steps, stage solves).  Too few steps to
    resolve harmonic M = len(f) - 1 raise UndersampledTime before the
    first step."""
    check_oracle_steps(n_steps, len(f) - 1)
    oracle = _Oracle(f, model, kind, n_steps)
    y = np.zeros((3 if oracle.tau > 0 else 2, oracle.nr))
    zs = ()
    values = np.zeros((n_steps, model.grid.nx))
    u = values[:, oracle.op.span]       # a view: Dirichlet nodes stay 0
    gaps = []
    for k in range(1, max_periods + 1):
        y_start = y         # steps return new arrays: y is never written
        for j in range(n_steps):
            u[j] = y[0]
            y, z = oracle.step(y, j, zs)
            zs = (z, *zs[:2])
        norm = np.linalg.norm(y)
        gap = (np.linalg.norm(y - y_start) / norm) if norm > 0 else 0.0
        gaps.append(gap)
        if gap < period_tol:
            counts = {"periods": k, "steps": k * n_steps,
                      "stage_solves": oracle.stage_solves}
            return values, gap, counts
    raise NoPeriodicAttractor(
        f"periodicity gap {gaps[-1]:.3e} > {period_tol} after "
        f"{max_periods} periods", gaps=gaps)


def oracle_discrepancy(u_hb: np.ndarray, samples: np.ndarray,
                       model: ValidatedModel) -> float:
    """Relative L2(L2) distance between a harmonic-balance solution and the
    (nt, nx) samples of an oracle trajectory on its own time grid."""
    nt = len(samples)
    w = model.grid.trapezoid_weights()
    # the reference's sum of squares over the samples by Parseval (exact,
    # as nt > 2M), so the difference is squared and weighted in place with
    # no temporary of the trajectories' size: each adds to peak memory
    power = u_hb[0].real**2 + 2.0 * np.sum(np.abs(u_hb[1:])**2, axis=0)
    ref = float(nt * (w @ power))
    sq = to_time_samples(u_hb, nt)
    sq -= samples
    sq *= sq
    sq *= w
    diff = float(np.sum(sq))
    if ref == 0.0:
        return float(np.sqrt(diff))
    return float(np.sqrt(diff / ref))
