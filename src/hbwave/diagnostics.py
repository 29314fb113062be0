"""Energy functionals, multiplier selection, the low-order energy-identity
residual, and the estimate ratios for discrete periodic solutions.

Time norms are evaluated by Parseval from the harmonic coefficients,
spatial norms by trapezoidal quadrature and second-order differences;
boundary "integrals" on the 1-D interval are endpoint sums.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StabilityViolation
from .model import (
    BCKind,
    HarmonicField,
    ValidatedModel,
    dealiased_samples,
    to_time_samples,
)
from .norms import spatial_sq, time_space_norm_sq, time_sum
from .spatial import dual_norm_h1star, gradient, laplacian_fd


def _endpoints(model: ValidatedModel, kinds) -> list:
    """(index, bc) pairs of the endpoints whose kind is in `kinds`."""
    out = []
    for idx, bc in ((0, model.bc_left), (-1, model.bc_right)):
        if bc.kind in kinds:
            out.append((idx, bc))
    return out


GAMMA_KINDS = (BCKind.ABSORBING, BCKind.IMPEDANCE)   # the paper's Gamma
ABSORBING_ONLY = (BCKind.ABSORBING,)


def _trace_norm_sq(u: HarmonicField, model: ValidatedModel, t_order: int,
                   endpoints, weight_fn, values=None) -> float:
    """T * sum_m w_m (m omega)^{2k} sum_endpoints weight * |v_m(endpoint)|^2."""
    p = model.params
    vals = u.coeffs if values is None else values
    return sum((weight_fn(bc) * time_sum(np.abs(vals[:, idx]) ** 2, p.omega,
                                         p.T, t_order)
                for idx, bc in endpoints), 0.0)


def _dual_time_norm_sq(u: HarmonicField, model: ValidatedModel,
                       t_order: int) -> float:
    p = model.params
    d = dual_norm_h1star(u.coeffs, model.grid, model.bc_left, model.bc_right)
    return time_sum(d**2, p.omega, p.T, t_order)


@dataclass
class EnergyReport:
    """Named summands and totals of the three energy levels."""

    lo: dict = field(default_factory=dict)
    me: dict = field(default_factory=dict)
    hi: dict = field(default_factory=dict)

    @property
    def lo_total(self) -> float:
        return sum(self.lo.values())

    @property
    def me_total(self) -> float:
        return sum(self.me.values())

    @property
    def hi_total(self) -> float:
        return sum(self.hi.values())

    @property
    def me_bar(self) -> float:
        return self.lo_total + self.me_total

    @property
    def hi_bar(self) -> float:
        return self.lo_total + self.me_total + self.hi_total

    def rows(self):
        for level, terms in (("lo", self.lo), ("me", self.me),
                             ("hi", self.hi)):
            for name, value in terms.items():
                yield name, level, value
        yield "total", "lo", self.lo_total
        yield "total", "me", self.me_total
        yield "total", "hi", self.hi_total


def compute_energies(u: HarmonicField, model: ValidatedModel) -> EnergyReport:
    """Low/medium/high energy functionals of a periodic harmonic field."""
    grid, p = model.grid, model.params
    tb, tau, omega, T = p.taubar, p.tau, p.omega, p.T

    sq = {key: spatial_sq(u, grid, key)
          for key in (None, "H1_semi", "laplacian", "grad_laplacian")}

    def vol(k, spatial=None):
        return time_sum(sq[spatial], omega, T, k)

    gamma_a = _endpoints(model, ABSORBING_ONLY)
    gamma = _endpoints(model, GAMMA_KINDS)

    uttt_dual = tb * tau**2 * _dual_time_norm_sq(u, model, 3)
    lo = {
        "uttt_dual": uttt_dual,
        "utt_l2": tb * vol(2),
        "u_h1h1": vol(0) + vol(1) + vol(0, "H1_semi") + vol(1, "H1_semi"),
        "utt_trace_absorbing": tb * _trace_norm_sq(
            u, model, 2, gamma_a, lambda bc: 1.0),
        "u_h1_trace_gamma": sum(
            _trace_norm_sq(u, model, k, gamma, lambda bc: bc.gamma)
            for k in (0, 1)),
    }
    me = {
        "uttt_l2": tb * tau**2 * vol(3),
        "utt_h1": tb * (vol(2) + vol(2, "H1_semi")),
        "lap_u_h1l2": vol(0, "laplacian") + vol(1, "laplacian"),
        "uttt_trace_absorbing": tb * tau * _trace_norm_sq(
            u, model, 3, gamma_a, lambda bc: 1.0),
        "u_h2_trace_gamma": sum(
            _trace_norm_sq(u, model, k, gamma, lambda bc: bc.gamma)
            for k in (0, 1, 2)),
    }
    lap_coeffs = laplacian_fd(u.coeffs, grid)
    hi = {
        "uttt_dual": uttt_dual,
        "lap_utt_l2": tb * vol(2, "laplacian"),
        "grad_lap_u_h1l2": vol(0, "grad_laplacian") + vol(1, "grad_laplacian"),
        "lap_utt_trace_absorbing": tb * _trace_norm_sq(
            u, model, 2, gamma_a, lambda bc: 1.0, values=lap_coeffs),
        "lap_u_h1_trace_gamma": sum(
            _trace_norm_sq(u, model, k, gamma, lambda bc: bc.gamma**2,
                           values=lap_coeffs)
            for k in (0, 1)),
    }
    return EnergyReport(lo=lo, me=me, hi=hi)


@dataclass(frozen=True)
class Multipliers:
    sigma: float
    rho: float


def choose_multipliers(model: ValidatedModel,
                       alpha_min: float = 1.0) -> Multipliers:
    """Deterministic multipliers satisfying the positivity conditions
    taubar c2/b < sigma < alpha,  rho b/c2 < sigma,  rho <= sigma alpha/taubar.
    """
    p = model.params
    tb = p.taubar
    ratio = p.c2 / p.b                     # c2/b per node
    sigma = float(np.min(0.5 * (tb * ratio + alpha_min)))
    if tb > 0:
        rho = 0.5 * min(sigma * float(np.min(ratio)), sigma * alpha_min / tb)
    else:
        rho = 0.5 * sigma * float(np.min(ratio))

    upper = float(np.max(tb * ratio))
    ok = (upper < sigma < alpha_min
          and rho * float(np.max(1.0 / ratio)) < sigma
          and (tb == 0 or rho <= sigma * alpha_min / tb))
    if not ok:
        raise StabilityViolation(
            f"no admissible multipliers: sigma={sigma:.6g}, rho={rho:.6g}, "
            f"max(taubar c2/b)={upper:.6g}, alpha={alpha_min:.6g}")
    return Multipliers(sigma=sigma, rho=rho)


def energy_identity_residual(u: HarmonicField, rtilde: HarmonicField,
                             mult: Multipliers,
                             model: ValidatedModel) -> float:
    """Absolute value of the low-order energy identity right-hand side
    (alpha = 1); vanishes at O(h^2) for exact periodic solutions."""
    grid, p = model.grid, model.params
    tb, tau, omega, T = p.taubar, p.tau, p.omega, p.T
    sigma, rho = mult.sigma, mult.rho
    nt = dealiased_samples(u.M)

    us = to_time_samples(u, nt).values
    ut = to_time_samples(u.time_derivative(omega, 1), nt).values
    utt = to_time_samples(u.time_derivative(omega, 2), nt).values
    rs = to_time_samples(rtilde, nt).values
    test = tb * utt + sigma * ut + rho * us

    gut = gradient(ut, grid)
    gus = gradient(us, grid)
    gb = gradient(p.b, grid)
    gc2 = gradient(p.c2, grid)
    div_term = gradient(gb[None, :] * ut + gc2[None, :] * us, grid)

    integrand = ((tb - tau * sigma) * utt**2
                 - rho * ut**2
                 + rs * test
                 - div_term * test
                 + (sigma * p.b - tb * p.c2)[None, :] * gut**2
                 + rho * p.c2[None, :] * gus**2)

    w = grid.trapezoid_weights()
    total = float(np.sum(integrand * w[None, :])) * (T / nt)

    # boundary terms on absorbing/impedance endpoints
    for idx, bc in _endpoints(model, GAMMA_KINDS):
        beta, gamma = bc.beta, bc.gamma
        b_e, c2_e = p.b[idx], p.c2[idx]
        bterm = (tb * beta * b_e * utt[:, idx] ** 2
                 + (beta * (sigma * c2_e - rho * b_e)
                    + gamma * (sigma * b_e - tb * c2_e)) * ut[:, idx] ** 2
                 + rho * gamma * c2_e * us[:, idx] ** 2)
        total += float(np.sum(bterm)) * (T / nt)

    # normal-derivative terms of b, c2 (vanish for constant coefficients)
    for idx, sign in ((0, -1.0), (-1, 1.0)):
        if (model.bcs[0 if idx == 0 else 1]).is_dirichlet:
            continue
        dnu = sign * (gb[idx] * ut[:, idx] + gc2[idx] * us[:, idx])
        total += float(np.sum(dnu * test[:, idx])) * (T / nt)
    return abs(total)


def estimate_rhs_lo(rtilde: HarmonicField, model: ValidatedModel) -> float:
    """taubar ||r||^2_{L2(L2)} + ||r||^2_{L2(H1*)}."""
    grid, p = model.grid, model.params
    return (p.taubar * time_space_norm_sq(rtilde, grid, p.omega, p.T, 0)
            + _dual_time_norm_sq(rtilde, model, 0))


def estimate_rhs_me(energy: EnergyReport, rtilde: HarmonicField,
                    r_nabla: HarmonicField, r_t: HarmonicField,
                    model: ValidatedModel) -> float:
    """E_lo + taubar^2 ||d_t r_nabla||^2 + taubar ||grad r_t||^2
    + ||r_t||^2_Gamma + ||r||^2."""
    grid, p = model.grid, model.params
    tb = p.taubar
    gamma = _endpoints(model, GAMMA_KINDS)
    return (energy.lo_total
            + tb**2 * time_space_norm_sq(r_nabla, grid, p.omega, p.T, 1)
            + tb * time_space_norm_sq(r_t, grid, p.omega, p.T, 0, "H1_semi")
            + _trace_norm_sq(r_t, model, 0, gamma, lambda bc: 1.0)
            + time_space_norm_sq(rtilde, grid, p.omega, p.T, 0))


def estimate_rhs_hi(energy: EnergyReport, rtilde: HarmonicField,
                    model: ValidatedModel) -> float:
    """E_me + taubar ||lap r||^2 + ||lap r||^2_{L2(H1*)}."""
    grid, p = model.grid, model.params
    lap_r = HarmonicField(laplacian_fd(rtilde.coeffs, grid))
    return (energy.me_total
            + p.taubar * time_space_norm_sq(lap_r, grid, p.omega, p.T, 0)
            + _dual_time_norm_sq(lap_r, model, 0))


def estimate_ratio_report(model: ValidatedModel, taus, solutions, rtildes,
                          r_nablas=None, r_ts=None) -> dict:
    """Energy-to-data ratios across a tau sweep (uniform-boundedness check).

    rtildes carry the full inhomogeneity per solve; the splitting defaults
    to r_nabla = rtilde (forcing route), r_t = 0 (no nonlinear route).
    """
    rows = []
    M = solutions[0].M if solutions else 0
    nx = model.grid.nx
    zero = HarmonicField.zeros(M, nx)
    for i, tau in enumerate(taus):
        m_tau = model.with_params(model.params.with_tau(tau))
        u, rt = solutions[i], rtildes[i]
        rn = r_nablas[i] if r_nablas is not None else rt
        rtt = r_ts[i] if r_ts is not None else zero
        energy = compute_energies(u, m_tau)
        den_lo = estimate_rhs_lo(rt, m_tau)
        den_me = estimate_rhs_me(energy, rt, rn, rtt, m_tau)
        den_hi = estimate_rhs_hi(energy, rt, m_tau)
        row = {"tau": tau}
        row["ratio_lo"] = energy.lo_total / den_lo if den_lo > 0 else None
        row["ratio_me"] = energy.me_bar / den_me if den_me > 0 else None
        row["ratio_hi"] = energy.hi_bar / den_hi if den_hi > 0 else None
        rows.append(row)
    summary = {}
    for key in ("ratio_lo", "ratio_me", "ratio_hi"):
        vals = [r[key] for r in rows if r[key] is not None]
        if vals:
            summary[f"{key}_max"] = max(vals)
            summary[f"{key}_min"] = min(vals)
    return {"rows": rows, "summary": summary}
