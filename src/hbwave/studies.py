"""End-to-end numerical experiments: manufactured-solution convergence,
the vanishing-relaxation-time sweep and Taylor/derivative tests.  The
time-stepping oracle is `hbwave.oracle`.
"""
from __future__ import annotations

import numpy as np

from . import diagnostics
from .errors import TypeMismatch
from .linear import linear_solver, solve_linearized
from .model import (
    KINDS,
    MIN_NODES,
    Grid,
    PhysicalParams,
    ValidatedModel,
    check_eps_list,
    validate_model,
)
from .nonlinear import (
    FixedPointOptions,
    bilinear_factors,
    bilinear_product,
    fixed_point_solve,
    solve,
)
from .norms import l2l2_norm, u0lo_norm, u0me_norm

MMS_AMPLITUDE = 1e-2        # the manufactured solution's amplitude A


def __getattr__(name):
    """`studies.time_stepping_oracle` and `studies.oracle_discrepancy`,
    read from `oracle` on first use: the benchmark's tracer looks them up
    here.  A module-level import would compile the oracle in every verb
    that runs the studies."""
    if name in ("time_stepping_oracle", "oracle_discrepancy"):
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def observed_order(e0: float, e1: float, ratio: float) -> float | None:
    """log(e0 / e1) / log(ratio), the order at which a quantity fell from
    e0 to e1 as its parameter shrank by `ratio`; None unless both levels
    are > 0, which leaves the order's cell empty."""
    if e0 > 0 and e1 > 0:
        return float(np.log(e0 / e1) / np.log(ratio))
    return None


class StudyResult:
    def __init__(self, rows: list | None = None, metadata: dict | None = None):
        self.rows = [] if rows is None else rows
        self.metadata = {} if metadata is None else metadata


def manufactured_case(model: ValidatedModel, kind: str):
    """(u_star, f): a periodic solution u* of the model's equation and of
    its ends' conditions, with the forcing f that makes it one, by the
    method of manufactured solutions (Roache, J. Fluids Eng. 124 (2002)
    4-10).

    u*_m = (A/2) phi_m for m = 1..K, phi_m = sin(pi x / L) + a_m x^2 +
    c_m (L - x)^2, with K = min(2, M) for the linear kind and
    min(2, M // 2) for a nonlinear one, so that r[u*] has no harmonic above
    M; a nonlinear kind with M < 2 raises TypeMismatch.  x^2 and its slope
    vanish at 0, and (L - x)^2 and its slope at L, so each end's condition
    fixes one coefficient alone: 0 at a Dirichlet end, where the sine
    vanishes, and pi / (L^2 (2 + q_m L)) at a Robin end, whose condition is
    -phi'(0) + q_m phi(0) = 0 or phi'(L) + q_m phi(L) = 0 with
    q_m = bc.robin_coefficient(m, omega).  f = -(A_m u*_m +
    r_m[u*, u*]) takes the exact phi'', the model's nodal coefficients
    and r[u*, u*] from `nonlinear.bilinear_product` on the factors of u*
    with its exact u*_x, so the discrete solution differs from u* by the
    spatial error alone."""
    grid, p, M = model.grid, model.params, model.M
    L, x, omega, k = grid.L, grid.nodes, p.omega, np.pi / grid.L
    nonlinear = kind in KINDS
    # r is quadratic, so it reaches harmonic 2K
    K = min(2, M // 2 if nonlinear else M)
    if K < 1:
        raise TypeMismatch(f"a manufactured solution of the {kind} kind "
                           f"needs M >= 2, got M = {M}")
    u, ux, uxx = (np.zeros((M + 1, grid.nx), complex) for _ in range(3))
    for m in range(1, K + 1):
        a, c = (0.0 if bc.is_dirichlet else
                k / (L * (2.0 + bc.robin_coefficient(m, omega) * L))
                for bc in (model.bc_right, model.bc_left))
        u[m] = np.sin(k * x) + a * x**2 + c * (L - x)**2
        ux[m] = k * np.cos(k * x) + 2.0 * (a * x - c * (L - x))
        uxx[m] = 2.0 * (a + c) - k * k * np.sin(k * x)
    for v in (u, ux, uxx):
        v *= 0.5 * MMS_AMPLITUDE
    mw = np.arange(M + 1)[:, None] * omega
    # A_m u_m = (-i tau (m w)^3 - (m w)^2) u_m + (c2 + i m w b) (-u_m'')
    f = (1j * p.tau * mw**3 + mw**2) * u + (p.c2 + 1j * mw * p.b) * uxx
    if nonlinear:
        factors = bilinear_factors(u, kind, model, ux)
        f -= bilinear_product(factors, factors, kind, model, M)
    return u, f


def convergence_study(model: ValidatedModel, kind: str,
                      opts: FixedPointOptions | None = None) -> StudyResult:
    """Errors of the solve against `manufactured_case` on the model's grid
    and on the grids coarsened by 2 and 4, coarsest first, and the observed
    orders between them.  A coarse level takes every 2nd or 4th node and
    nodal coefficient, so nodal data need no interpolation.

    Raises TypeMismatch, before any solve, unless (nx - 1) % 4 == 0 and
    the coarsest level has MIN_NODES nodes or more, or when
    `manufactured_case` does."""
    grid, p, M = model.grid, model.params, model.M
    if (grid.nx - 1) % 4 or (grid.nx - 1) // 4 + 1 < MIN_NODES:
        raise TypeMismatch(
            f"converge needs nx = 4 k + 1 >= {4 * MIN_NODES - 3}, its "
            f"coarsest level every 4th node, got nx = {grid.nx}")
    rows = []
    for s in (4, 2, 1):     # the level takes every s-th node
        level = validate_model(
            Grid(L=grid.L, nx=(grid.nx - 1) // s + 1),
            PhysicalParams(tau=p.tau, taubar=p.taubar, b=p.b[::s],
                           c2=p.c2[::s], eta=p.eta[::s],
                           eta_tilde=p.eta_tilde[::s], T=p.T),
            model.bc_left, model.bc_right, M)
        u_star, f = manufactured_case(level, kind)
        err = solve(f, level, kind, opts).u - u_star
        rows.append({
            "nx": level.grid.nx,
            "h": level.grid.h,
            "err_l2l2": l2l2_norm(err, level.grid, p.omega, p.T),
            "err_u0lo": u0lo_norm(err, level.grid, p.omega, p.T),
        })
    for r0, r1 in zip(rows, rows[1:]):
        for key in ("l2l2", "u0lo"):
            r1[f"order_{key}"] = observed_order(
                r0[f"err_{key}"], r1[f"err_{key}"], r0["h"] / r1["h"])
    orders = [r["order_l2l2"] for r in rows[1:]]
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
        ratios = diagnostics.energy_ratios(
            diagnostics.compute_energies(report.u, m_tau), report.rhs, m_tau)
        d_by_tau[tau] = d_lo
        # E_lo_ratio is the sweep's name for ratio_lo
        rows.append({"tau": tau, "d_lo": d_lo, "d_me": d_me, "rate": None,
                     "E_lo_ratio": ratios.pop("ratio_lo"), **ratios})
    for row in rows:
        tau = row["tau"]
        if tau > 0 and 2 * tau in d_by_tau:
            row["rate"] = observed_order(d_by_tau[2 * tau], row["d_lo"], 2.0)
    return StudyResult(rows=rows)


def taylor_test(f: np.ndarray, f_dir: np.ndarray,
                model: ValidatedModel, kind: str,
                eps_list=(1e-1, 1e-2, 1e-3),
                opts: FixedPointOptions | None = None) -> StudyResult:
    """Remainder of the source-to-state map against its linearization.

    R(eps) = ||S(f + eps f_dir) - S(f) - eps u_lin|| should shrink at
    second order; the first-order difference at first order.  All solves
    share one factorization of A_0..A_M.  The first perturbed solve starts
    from base + eps u_lin, within O(eps^2) of its solution; each later one
    adds (eps / eps_prev)^2 times the previous solve's remainder field,
    which cancels the eps^2 term and leaves it within O(eps^2 eps_prev).
    The nonlinear solve vets each start for degeneracy like any other
    state.  `metadata["picard_iterations"]`
    holds the iterations of each solve: base, linearized, and one per eps.
    """
    check_eps_list(eps_list)
    grid, p = model.grid, model.params
    solver = linear_solver(model, len(f) - 1)
    base_report = fixed_point_solve(f, model, kind, opts, solver=solver)
    lin_report = solve_linearized(base_report.u, f_dir, model, kind, solver)
    base, u_lin = base_report.u, lin_report.u
    iterations = {"base": base_report.iterations,
                  "linearized": lin_report.iterations, "eps": []}
    rows, rest = [], None       # rest: the last solve's remainder field
    for i, eps in enumerate(eps_list):
        if rest is None:
            start = base + eps * u_lin
        else:
            # in place: the last remainder field is held by nothing else,
            # and another field alive through the solve shows in peak RSS
            start = rest
            start *= (eps / eps_list[i - 1]) ** 2
            start += base + eps * u_lin
        report = fixed_point_solve(f + eps * f_dir, model, kind, opts,
                                   u0=start, solver=solver)
        iterations["eps"].append(report.iterations)
        rest = report.u - base - eps * u_lin
        remainder = u0lo_norm(rest, grid, p.omega, p.T)
        diff = u0lo_norm(report.u - base, grid, p.omega, p.T)
        rows.append({"eps": eps, "remainder": remainder, "diff": diff,
                     "slope": None})
    for r0, r1 in zip(rows, rows[1:]):
        ratio = r0["eps"] / r1["eps"]
        r1["slope"] = observed_order(r0["remainder"], r1["remainder"], ratio)
        r1["diff_slope"] = observed_order(r0["diff"], r1["diff"], ratio)
    return StudyResult(rows=rows,
                       metadata={"picard_iterations": iterations})
