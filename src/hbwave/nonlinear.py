"""Pseudospectral nonlinearity evaluation and the Picard fixed-point solver.

Both model nonlinearities share the bilinear structure
    westervelt:  r[v, w] = eta (v w)_tt
    kuznetsov:   r[v, w] = (eta_tilde v_t w_t + grad v . grad w)_t
with N(u) = r[u, u].  Products are formed nodally on a dealiased time grid
(Nt >= 4M+2), so truncation back to order M is exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneracyDetected,
    MaxIterExceeded,
    NonContraction,
)
from .linear import linear_residual, solve_linear_mgt
from .model import (
    HarmonicField,
    TimeField,
    ValidatedModel,
    dealiased_samples,
    to_harmonics,
    to_time_samples,
)
from .norms import u0lo_norm
from .spatial import gradient

KINDS = ("westervelt", "kuznetsov")
NONCONTRACTION_PATIENCE = 5


def _check_kind(kind: str):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def eval_bilinear(v: HarmonicField, w: HarmonicField, kind: str,
                  model: ValidatedModel) -> HarmonicField:
    """Order-M truncation of the shared bilinear form r[v, w]."""
    _check_kind(kind)
    p = model.params
    omega = p.omega
    M = v.M
    nt = dealiased_samples(M)
    if kind == "westervelt":
        vs = to_time_samples(v, nt).values
        ws = to_time_samples(w, nt).values
        prod = to_harmonics(TimeField(vs * ws), M)
        out = prod.time_derivative(omega, 2)
        out.coeffs *= p.eta[None, :]
    else:
        vt = to_time_samples(v.time_derivative(omega), nt).values
        wt = to_time_samples(w.time_derivative(omega), nt).values
        gv = to_time_samples(HarmonicField(gradient(v.coeffs, model.grid)),
                             nt).values
        gw = to_time_samples(HarmonicField(gradient(w.coeffs, model.grid)),
                             nt).values
        q = p.eta_tilde[None, :] * vt * wt + gv * gw
        out = to_harmonics(TimeField(q), M).time_derivative(omega)
    out.coeffs[0] = out.coeffs[0].real
    return out


def eval_nonlinearity(u: HarmonicField, kind: str,
                      model: ValidatedModel) -> HarmonicField:
    """Nonlinear part N(u) of the residual (forcing excluded)."""
    return eval_bilinear(u, u, kind, model)


def alpha_samples(u: HarmonicField, kind: str,
                  model: ValidatedModel) -> np.ndarray:
    """Effective second-time-derivative coefficient on the dealiased grid."""
    _check_kind(kind)
    p = model.params
    nt = dealiased_samples(u.M)
    if kind == "westervelt":
        us = to_time_samples(u, nt).values
        return 1.0 + 2.0 * p.eta[None, :] * us
    ut = to_time_samples(u.time_derivative(p.omega), nt).values
    return 1.0 + 2.0 * p.eta_tilde[None, :] * ut


def degeneracy_monitor(u: HarmonicField, kind: str,
                       model: ValidatedModel) -> dict:
    """Extrema of alpha and of the pointwise stability margin b/c2 - taubar/alpha."""
    p = model.params
    a = alpha_samples(u, kind, model)
    with np.errstate(divide="ignore"):
        margin = p.b[None, :] / p.c2[None, :] - p.taubar / a
    return {
        "alpha_min": float(a.min()),
        "alpha_max": float(a.max()),
        "stability_margin_min": float(margin.min()),
    }


@dataclass(frozen=True)
class FixedPointOptions:
    tol: float = 1e-11
    max_iter: int = 100
    relaxation: float = 1.0
    degeneracy_floor: float = 0.1
    ball_radius: float | None = None

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must be in (0, 1]")
        # a NaN floor or radius would silently switch its guard off
        if not np.isfinite(self.degeneracy_floor):
            raise ValueError("degeneracy_floor must be finite")
        if not (self.ball_radius is None or 0.0 < self.ball_radius < np.inf):
            raise ValueError("ball_radius must be finite and > 0")


@dataclass
class SolveReport:
    u: HarmonicField
    iterations: int
    update_norms: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    final_residual: float = 0.0
    degeneracy_margin: float = 0.0
    stability_margin: float = 0.0


def fixed_point_solve(f: HarmonicField, model: ValidatedModel, kind: str,
                      opts: FixedPointOptions | None = None,
                      u0: HarmonicField | None = None) -> SolveReport:
    """Iterate u <- solve_linear(f + N(u)) with relaxation until the update
    is small, then verify by full re-substitution into the discrete PDE."""
    _check_kind(kind)
    opts = opts or FixedPointOptions()
    grid, p = model.grid, model.params
    theta = opts.relaxation

    u = u0.copy() if u0 is not None else HarmonicField.zeros(f.M, grid.nx)
    update_norms: list[float] = []
    ratios: list[float] = []
    rising = 0
    for it in range(1, opts.max_iter + 1):
        image = solve_linear_mgt(f + eval_nonlinearity(u, kind, model), model)
        u_new = theta * image + (1.0 - theta) * u

        update = u0lo_norm(u_new - u, grid, p.omega, p.T)
        scale = u0lo_norm(u_new, grid, p.omega, p.T)
        update_norms.append(update)
        # the self-mapping guard mirrors the smallness requirement and is
        # checked before the degeneracy floor: leaving the ball is the
        # primary diagnosis, losing positivity of alpha a consequence
        if opts.ball_radius is not None and scale > opts.ball_radius:
            raise NonContraction(
                f"iterate left the ball of radius {opts.ball_radius}",
                history=update_norms)

        mon = degeneracy_monitor(u_new, kind, model)
        if mon["alpha_min"] < opts.degeneracy_floor:
            raise DegeneracyDetected(
                f"alpha dropped to {mon['alpha_min']:.4g} below floor "
                f"{opts.degeneracy_floor}", alpha_min=mon["alpha_min"])
        if len(update_norms) >= 2 and update_norms[-2] > 0:
            ratio = update_norms[-1] / update_norms[-2]
            ratios.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
            if rising >= NONCONTRACTION_PATIENCE:
                raise NonContraction(
                    f"contraction ratio >= 1 for {rising} consecutive "
                    "iterations", history=update_norms)
        u = u_new
        if update <= opts.tol * max(scale, 1e-300):
            residual = linear_residual(
                u, f + eval_nonlinearity(u, kind, model), model)
            return SolveReport(
                u=u, iterations=it, update_norms=update_norms,
                contraction_ratios=ratios, final_residual=residual,
                degeneracy_margin=mon["alpha_min"],
                stability_margin=mon["stability_margin_min"])
    raise MaxIterExceeded(
        f"no convergence within {opts.max_iter} iterations",
        history=update_norms)


def solve(f: HarmonicField, model: ValidatedModel, kind: str,
          opts: FixedPointOptions | None = None) -> HarmonicField:
    """Periodic solution for the forcing f: the decoupled per-harmonic solve
    for kind "linear", the Picard iteration for a nonlinear kind."""
    if kind == "linear":
        return solve_linear_mgt(f, model)
    return fixed_point_solve(f, model, kind, opts).u
