"""Pseudospectral nonlinearity evaluation and the Picard solver, which is
`linear.fixed_point` with rhs(u) = f + N(u), and `solve`, the one place
that tells the linear kind from the nonlinear ones.

Both model nonlinearities share the bilinear structure
    westervelt:  r[v, w] = eta (v w)_tt
    kuznetsov:   r[v, w] = (eta_tilde v_t w_t + grad v . grad w)_t
with N(u) = r[u, u].  Products are formed nodally on a dealiased time grid
(`model.dealiased_samples`: Nt >= 3M+1), so truncation back to order M is
exact.  Synthesizing a field's factors and multiplying two factor sets are
separate steps, so a factor used twice, as in r[u, u] or the fixed base of
the linearization, is synthesized once.  The Picard rhs synthesizes each
state once: the same factors give alpha for the degeneracy check and N(u)
for the next solve.  Its Kuznetsov factor grad u is the gradient
`linear.fixed_point` takes once per state for its norms.  The degeneracy
check reads each node's extreme samples of the alpha factor, so its
margins cost O(nx) beyond two passes over the samples.
"""
from __future__ import annotations

import numpy as np

from .errors import DegeneracyDetected
from .linear import FixedPointOptions, SolveReport, fixed_point, linear_solver
from .model import (
    KINDS,
    ValidatedModel,
    dealiased_samples,
    time_derivative,
    to_harmonics,
    to_time_samples,
)
from .spatial import gradient


def _check_kind(kind: str):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def bilinear_factors(v: np.ndarray, kind: str, model: ValidatedModel,
                     grad: np.ndarray | None = None) -> tuple:
    """Time samples of what r[v, .] multiplies: v for westervelt, v_t and
    grad v for kuznetsov, on the dealiased grid.  `grad`, the
    `spatial.gradient` of v, is taken here when kuznetsov needs it and it
    is not given."""
    _check_kind(kind)
    nt = dealiased_samples(len(v) - 1)
    if kind == "westervelt":
        return (to_time_samples(v, nt),)
    if grad is None:
        grad = gradient(v, model.grid)
    return (to_time_samples(time_derivative(v, model.params.omega), nt),
            to_time_samples(grad, nt))


def bilinear_product(fv: tuple, fw: tuple, kind: str, model: ValidatedModel,
                     M: int) -> np.ndarray:
    """Order-M truncation of r[v, w] from the factors of v and of w."""
    p = model.params
    # each product is rebound to its harmonics, so its samples are freed
    # before the time derivative
    if kind == "westervelt":
        # eta fv first: alpha = 1 + 2 eta fv bounds it, so it overflows
        # only if alpha does, and u -> s u, eta -> eta / s scales exactly
        q = p.eta * fv[0]
        q *= fw[0]
        q = to_harmonics(q, M)
        return time_derivative(q, p.omega, 2)
    # in place: one (nt, nx) temporary besides q
    q = p.eta_tilde * fv[0]
    q *= fw[0]
    q += fv[1] * fw[1]
    q = to_harmonics(q, M)
    return time_derivative(q, p.omega)


def eval_bilinear(v: np.ndarray, w: np.ndarray, kind: str,
                  model: ValidatedModel) -> np.ndarray:
    """Order-M truncation of the shared bilinear form r[v, w]; r[u, u]
    synthesizes u once."""
    fv = bilinear_factors(v, kind, model)
    fw = fv if w is v else bilinear_factors(w, kind, model)
    return bilinear_product(fv, fw, kind, model, len(v) - 1)


def degeneracy_monitor(factors: tuple, kind: str,
                       model: ValidatedModel) -> dict:
    """Extrema of alpha = 1 + 2 coef factors[0], with coef eta (westervelt)
    or eta_tilde (kuznetsov), and the minimum of the pointwise stability
    margin b/c2 - taubar/alpha, from a state's `bilinear_factors`.
    These are extrema over the `dealiased_samples(M)` time samples, not
    over continuous t, so alpha_min may sit slightly above the true
    minimum.

    Each node's alpha is extreme where its factor is: one min and one max
    pass over time, picked by the sign of coef, give the node's alpha_lo
    and alpha_hi, and the margin is least at alpha_lo.  Rounding is
    monotone, so all three values equal those of the full (nt, nx) arrays
    bit for bit wherever each node's alpha keeps one sign.  Where a node's
    alpha changes sign (alpha_lo < 0 <= alpha_hi) and taubar > 0, the
    margin's infimum over the node's range is -inf, which is what is
    reported; that state is already below any positive degeneracy floor.
    """
    p = model.params
    coef = p.eta if kind == "westervelt" else p.eta_tilde
    f_min, f_max = factors[0].min(axis=0), factors[0].max(axis=0)
    rising = coef >= 0
    a_lo = 1.0 + 2.0 * coef * np.where(rising, f_min, f_max)
    a_hi = 1.0 + 2.0 * coef * np.where(rising, f_max, f_min)
    pole = (a_lo < 0) & (a_hi >= 0) & (p.taubar > 0)
    with np.errstate(divide="ignore"):
        margin = np.where(pole, -np.inf, p.b / p.c2 - p.taubar / a_lo)
    return {
        "alpha_min": float(a_lo.min()),
        "alpha_max": float(a_hi.max()),
        "stability_margin_min": float(margin.min()),
    }


def fixed_point_solve(f: np.ndarray, model: ValidatedModel, kind: str,
                      opts: FixedPointOptions | None = None,
                      u0: np.ndarray | None = None,
                      solver=None) -> SolveReport:
    """Iterate u <- solve_linear(f + N(u)) with relaxation until the update
    is small, then verify by full re-substitution into the discrete PDE.
    Every state, u0 included, must keep alpha above the degeneracy floor.
    `solver` is passed on to `linear.fixed_point`."""
    _check_kind(kind)
    opts = opts or FixedPointOptions()
    monitor = {}

    def rhs(u, grad):
        factors = bilinear_factors(u, kind, model, grad)
        monitor.update(degeneracy_monitor(factors, kind, model))
        # a NaN alpha_min is below any floor
        if not monitor["alpha_min"] >= opts.degeneracy_floor:
            raise DegeneracyDetected(
                f"alpha dropped to {monitor['alpha_min']:.4g} below floor "
                f"{opts.degeneracy_floor}", alpha_min=monitor["alpha_min"])
        out = bilinear_product(factors, factors, kind, model, len(u) - 1)
        out += f
        return out

    if u0 is None:
        u0 = np.zeros(f.shape, complex)
    report = fixed_point(rhs, u0, model, opts, solver)
    report.alpha_min = monitor["alpha_min"]
    report.stability_margin = monitor["stability_margin_min"]
    return report


def solve(f: np.ndarray, model: ValidatedModel, kind: str,
          opts: FixedPointOptions | None = None) -> SolveReport:
    """Periodic solution for the forcing f and its SolveReport: one
    decoupled per-harmonic solve for kind "linear" (alpha = 1), the Picard
    iteration for a nonlinear kind."""
    if kind != "linear":
        return fixed_point_solve(f, model, kind, opts)
    solve_f, residual = linear_solver(model, len(f) - 1)
    u = solve_f(f)
    return SolveReport(u=u, iterations=1, final_residual=residual(u, f),
                       alpha_min=1.0,
                       stability_margin=model.stability_margin(), rhs=f)
