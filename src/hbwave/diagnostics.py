"""Energy functionals, multiplier selection, the low-order energy-identity
residual, and the energy-to-data ratios for discrete periodic solutions.

Time norms are evaluated by Parseval from the harmonic coefficients,
spatial norms by trapezoidal quadrature and second-order differences;
boundary "integrals" on the 1-D interval are endpoint sums.
"""
from __future__ import annotations

import numpy as np

from .errors import StabilityViolation
from .model import (
    BCKind,
    Frozen,
    ValidatedModel,
    dealiased_samples,
    time_derivative,
    to_time_samples,
)
from .norms import row_sq, time_space_norm_sq, time_sum
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


def _trace_norm_sq(coeffs: np.ndarray, model: ValidatedModel, t_order: int,
                   endpoints, gamma_power: int = 0) -> float:
    """T * sum_m w_m (m omega)^{2k} sum_endpoints gamma^p |v_m(endpoint)|^2
    for harmonic coefficients v = `coeffs` and p = `gamma_power`."""
    p = model.params
    return sum((bc.gamma**gamma_power
                * time_sum(np.abs(coeffs[:, idx]) ** 2, p.omega, p.T, t_order)
                for idx, bc in endpoints), 0.0)


def _dual_time_norm_sq(u: np.ndarray, model: ValidatedModel,
                       t_order: int) -> float:
    p = model.params
    d = dual_norm_h1star(u, model.grid, model.bc_left, model.bc_right)
    return time_sum(d**2, p.omega, p.T, t_order)


class EnergyReport:
    """Named summands and totals of the three energy levels."""

    def __init__(self, lo: dict | None = None, me: dict | None = None,
                 hi: dict | None = None):
        self.lo = {} if lo is None else lo
        self.me = {} if me is None else me
        self.hi = {} if hi is None else hi

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


def compute_energies(u: np.ndarray, model: ValidatedModel) -> EnergyReport:
    """Low/medium/high energy functionals of a periodic harmonic field."""
    grid, p = model.grid, model.params
    tb, tau, omega, T = p.taubar, p.tau, p.omega, p.T

    lap_coeffs = laplacian_fd(u, grid)
    x = grid.trapezoid_weights()
    # ||u_m||^2, ||grad u_m||^2, ||lap u_m||^2 and ||grad lap u_m||^2
    u_sq, grad_sq, lap_sq, grad_lap_sq = (
        row_sq(c, x) for c in (u, gradient(u, grid), lap_coeffs,
                               gradient(lap_coeffs, grid)))

    def vol(k, sq=u_sq):
        return time_sum(sq, omega, T, k)

    gamma_a = _endpoints(model, ABSORBING_ONLY)
    gamma = _endpoints(model, GAMMA_KINDS)

    uttt_dual = tb * tau**2 * _dual_time_norm_sq(u, model, 3)
    lo = {
        "uttt_dual": uttt_dual,
        "utt_l2": tb * vol(2),
        "u_h1h1": vol(0) + vol(1) + vol(0, grad_sq) + vol(1, grad_sq),
        "utt_trace_absorbing": tb * _trace_norm_sq(u, model, 2, gamma_a),
        "u_h1_trace_gamma": sum(
            _trace_norm_sq(u, model, k, gamma, 1) for k in (0, 1)),
    }
    me = {
        "uttt_l2": tb * tau**2 * vol(3),
        "utt_h1": tb * (vol(2) + vol(2, grad_sq)),
        "lap_u_h1l2": vol(0, lap_sq) + vol(1, lap_sq),
        "uttt_trace_absorbing": tb * tau * _trace_norm_sq(u, model, 3,
                                                          gamma_a),
        "u_h2_trace_gamma": sum(
            _trace_norm_sq(u, model, k, gamma, 1) for k in (0, 1, 2)),
    }
    hi = {
        "uttt_dual": uttt_dual,
        "lap_utt_l2": tb * vol(2, lap_sq),
        "grad_lap_u_h1l2": vol(0, grad_lap_sq) + vol(1, grad_lap_sq),
        "lap_utt_trace_absorbing": tb * _trace_norm_sq(lap_coeffs, model, 2,
                                                       gamma_a),
        "lap_u_h1_trace_gamma": sum(
            _trace_norm_sq(lap_coeffs, model, k, gamma, 2) for k in (0, 1)),
    }
    return EnergyReport(lo=lo, me=me, hi=hi)


class Multipliers(Frozen):
    def __init__(self, sigma: float, rho: float):
        vars(self).update(sigma=sigma, rho=rho)


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


def energy_identity_residual(u: np.ndarray, rtilde: np.ndarray,
                             mult: Multipliers,
                             model: ValidatedModel) -> float:
    """Absolute value of the low-order energy identity right-hand side
    (alpha = 1); vanishes at O(h^2) for exact periodic solutions.

    Multiply tau u_ttt + u_tt - c2 u_xx - b u_xxt + r = 0 by the test
    function phi = taubar u_tt + sigma u_t + rho u and integrate over one
    period and the interval.  Integrating by parts in time, where the
    periodic orbit leaves no end terms:
      (tau u_ttt + u_tt) phi  ->  (taubar - tau sigma) u_tt^2 - rho u_t^2.
    Integrating by parts in space, with b and c2 depending on x:
      -(c2 u_xx + b u_xxt) phi
        ->  (c2 u_x + b u_xt) phi_x + (c2' u_x + b' u_xt) phi
    plus the end terms -[(c2 u_x + b u_xt) phi], which the boundary
    conditions turn into the sums over the absorbing and impedance ends
    below.  In time again,
      (c2 u_x + b u_xt) phi_x  ->  (sigma b - taubar c2) u_xt^2
                                   + rho c2 u_x^2.
    The integrand is the sum of these terms and r phi.
    """
    grid, p = model.grid, model.params
    tb, tau, omega, T = p.taubar, p.tau, p.omega, p.T
    sigma, rho = mult.sigma, mult.rho
    nt = dealiased_samples(len(u) - 1)

    us = to_time_samples(u, nt)
    ut = to_time_samples(time_derivative(u, omega, 1), nt)
    utt = to_time_samples(time_derivative(u, omega, 2), nt)
    rs = to_time_samples(rtilde, nt)
    test = tb * utt + sigma * ut + rho * us

    gut = gradient(ut, grid)
    gus = gradient(us, grid)
    gb = gradient(p.b, grid)
    gc2 = gradient(p.c2, grid)

    integrand = ((tb - tau * sigma) * utt**2
                 - rho * ut**2
                 + rs * test
                 + (gb[None, :] * gut + gc2[None, :] * gus) * test
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
    return abs(total)


def estimate_rhs_lo(rtilde: np.ndarray, model: ValidatedModel) -> float:
    """taubar ||r||^2_{L2(L2)} + ||r||^2_{L2(H1*)}."""
    grid, p = model.grid, model.params
    return (p.taubar * time_space_norm_sq(rtilde, grid, p.omega, p.T, 0)
            + _dual_time_norm_sq(rtilde, model, 0))


def estimate_rhs_me(energy: EnergyReport, rtilde: np.ndarray,
                    model: ValidatedModel) -> float:
    """E_lo + taubar^2 ||d_t r||^2 + ||r||^2.

    The whole inhomogeneity takes the forcing route (r_nabla = r); with no
    nonlinear route (r_t = 0) its taubar ||grad r_t||^2 and ||r_t||^2_Gamma
    terms vanish.
    """
    grid, p = model.grid, model.params
    return (energy.lo_total
            + p.taubar**2 * time_space_norm_sq(rtilde, grid, p.omega, p.T, 1)
            + time_space_norm_sq(rtilde, grid, p.omega, p.T, 0))


def estimate_rhs_hi(energy: EnergyReport, rtilde: np.ndarray,
                    model: ValidatedModel) -> float:
    """E_me + taubar ||lap r||^2 + ||lap r||^2_{L2(H1*)}."""
    grid, p = model.grid, model.params
    lap_r = laplacian_fd(rtilde, grid)
    return (energy.me_total
            + p.taubar * time_space_norm_sq(lap_r, grid, p.omega, p.T, 0)
            + _dual_time_norm_sq(lap_r, model, 0))


def energy_ratios(energy: EnergyReport, rtilde: np.ndarray,
                  model: ValidatedModel) -> dict:
    """Energy-to-data ratios of one solved state at the three levels, whose
    boundedness uniformly in tau the paper proves: E_lo, E_me_bar and
    E_hi_bar over their data estimates, each None where its estimate is 0.
    """
    levels = {
        "ratio_lo": (energy.lo_total, estimate_rhs_lo(rtilde, model)),
        "ratio_me": (energy.me_bar, estimate_rhs_me(energy, rtilde, model)),
        "ratio_hi": (energy.hi_bar, estimate_rhs_hi(energy, rtilde, model)),
    }
    return {key: e / den if den > 0 else None
            for key, (e, den) in levels.items()}
