"""Pseudospectral nonlinearity evaluation and the Picard solver, which is
`linear.fixed_point` with rhs(u) = f + N(u).

Both model nonlinearities share the bilinear structure
    westervelt:  r[v, w] = eta (v w)_tt
    kuznetsov:   r[v, w] = (eta_tilde v_t w_t + grad v . grad w)_t
with N(u) = r[u, u].  Products are formed nodally on a dealiased time grid
(Nt >= 4M+2), so truncation back to order M is exact.
"""
from __future__ import annotations

import numpy as np

from .errors import DegeneracyDetected, NonContraction
from .linear import (
    FixedPointOptions,
    SolveReport,
    fixed_point,
    solve_linear_mgt,
)
from .model import (
    HarmonicField,
    TimeField,
    ValidatedModel,
    dealiased_samples,
    to_harmonics,
    to_time_samples,
)
from .spatial import gradient

KINDS = ("westervelt", "kuznetsov")


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


def fixed_point_solve(f: HarmonicField, model: ValidatedModel, kind: str,
                      opts: FixedPointOptions | None = None,
                      u0: HarmonicField | None = None) -> SolveReport:
    """Iterate u <- solve_linear(f + N(u)) with relaxation until the update
    is small, then verify by full re-substitution into the discrete PDE."""
    _check_kind(kind)
    opts = opts or FixedPointOptions()

    def check(u, norm, update_norms):
        # the self-mapping guard mirrors the smallness requirement and is
        # checked before the degeneracy floor: leaving the ball is the
        # primary diagnosis, losing positivity of alpha a consequence
        if opts.ball_radius is not None and norm > opts.ball_radius:
            raise NonContraction(
                f"iterate left the ball of radius {opts.ball_radius}",
                history=update_norms)
        mon = degeneracy_monitor(u, kind, model)
        if mon["alpha_min"] < opts.degeneracy_floor:
            raise DegeneracyDetected(
                f"alpha dropped to {mon['alpha_min']:.4g} below floor "
                f"{opts.degeneracy_floor}", alpha_min=mon["alpha_min"])
        return {"degeneracy_margin": mon["alpha_min"],
                "stability_margin": mon["stability_margin_min"]}

    if u0 is None:
        u0 = HarmonicField.zeros(f.M, model.grid.nx)
    return fixed_point(lambda u: f + eval_nonlinearity(u, kind, model), u0,
                       model, opts, check)


def solve(f: HarmonicField, model: ValidatedModel, kind: str,
          opts: FixedPointOptions | None = None) -> HarmonicField:
    """Periodic solution for the forcing f: the decoupled per-harmonic solve
    for kind "linear", the Picard iteration for a nonlinear kind."""
    if kind == "linear":
        return solve_linear_mgt(f, model)
    return fixed_point_solve(f, model, kind, opts).u
