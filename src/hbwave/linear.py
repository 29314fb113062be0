"""Per-harmonic Helmholtz-type systems for the linear third-order wave
equation and the block-coupled solve for its linearization around a state.

Substituting u_m exp(i m omega t) into
    tau u_ttt + u_tt + (b d_t + c^2)(-Lap) u + r = 0
gives the decoupled family
    A_m u_m = -r_m,
    A_m = (-i tau m^3 w^3 - m^2 w^2) I + diag(c2 + i m w b) Lap_m,
with Lap_m the discrete -Laplacian carrying the harmonic-m Robin rows.
Every A_m is tridiagonal; all M+1 are assembled as one (M+1, 3, nr) band
array and solved, in O(M nx), as one block-diagonal tridiagonal system of
order (M+1) nr.  That is exact: the corners [0, 0] and [2, -1] of every
block are zero and LAPACK's tridiagonal solver eliminates nothing across a
zero sub-diagonal, so each harmonic's solution is bit-identical to its own.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    NonConvergedIteration,
    SingularMeanMode,
    SolveFailure,
)
from .model import HarmonicField, ValidatedModel
from .norms import l2l2_norm
from .spatial import assemble_laplacian, band_product, dense_from_bands

RESIDUAL_RTOL = 1e-10


def kappa_squared(m: int, tau: float, omega: float, b_const: float,
                  c2_const: float) -> complex:
    """Helmholtz wavenumber squared of harmonic m for constant coefficients.

    Dividing A_m by (c2 + i m w b) gives -Lap - kappa_m^2 with
    kappa_m^2 = (m^2 w^2 + i tau m^3 w^3) / (c2 + i m w b).
    """
    mw = m * omega
    return (mw**2 + 1j * tau * mw**3) / (c2_const + 1j * mw * b_const)


def assemble_harmonic_system(model: ValidatedModel, M: int):
    """Bands of A_0..A_M and the -Lap_m operator they scale.

    Returns (op, bands): `op` restricts and extends nodal vectors, `bands`
    has shape (M+1, 3, nr) in LAPACK (1, 1) storage with bands[m] = A_m.
    """
    p = model.params
    m = np.arange(M + 1)
    mw = m * p.omega
    op = assemble_laplacian(model.grid, model.bc_left, model.bc_right, m,
                            p.omega)
    if op.is_singular():
        raise SingularMeanMode(
            "mean-mode operator is singular: no impedance or Dirichlet "
            "endpoint")
    # row i of A_m is scaled by c2_i + i m w b_i; band k of column j lies in
    # row j + k - 1 (the entries np.roll wraps around meet the zero corners)
    coef = p.c2[op.active] + 1j * mw[:, None] * p.b[op.active]
    bands = op.bands * np.stack(
        [np.roll(coef, 1, axis=-1), coef, np.roll(coef, -1, axis=-1)], axis=1)
    bands[:, 1, :] += (-1j * p.tau * mw**3 - mw**2)[:, None]
    return op, bands


def _residuals(bands: np.ndarray, x: np.ndarray, rhs: np.ndarray):
    """Re-substitution residual ||A_m x_m - rhs_m|| per m, and its scale."""
    res = np.linalg.norm(band_product(bands, x) - rhs, axis=-1)
    one_norms = np.abs(bands).sum(axis=-2).max(axis=-1)
    scale = (one_norms * np.linalg.norm(x, axis=-1)
             + np.linalg.norm(rhs, axis=-1))
    return res, scale


def solve_linear_mgt(f: HarmonicField, model: ValidatedModel) -> HarmonicField:
    """Solve A_m u_m = -f_m for m = 0..M; verify each by re-substitution."""
    op, bands = assemble_harmonic_system(model, f.M)
    rhs = -op.restrict(f.coeffs)
    try:
        sol = scipy.linalg.solve_banded(
            (1, 1), bands.transpose(1, 0, 2).reshape(3, -1),
            rhs.reshape(-1)).reshape(rhs.shape)
    except scipy.linalg.LinAlgError as exc:
        raise SolveFailure(f"harmonic-stack factorization failed: {exc}")
    res, scale = _residuals(bands, sol, rhs)
    # the first harmonic over tolerance, if any; a NaN residual fails too
    m = int(np.argmin(res <= RESIDUAL_RTOL * scale))
    if not res[m] <= RESIDUAL_RTOL * scale[m]:
        cond = float(np.linalg.cond(dense_from_bands(bands[m])))
        raise SolveFailure(
            f"harmonic {m} residual {res[m]:.3e} exceeds tolerance "
            f"(cond ~ {cond:.3e})", condition_estimate=cond)
    sol[0] = sol[0].real
    return HarmonicField(op.extend(sol))


def linear_residual(u: HarmonicField, rtilde: HarmonicField,
                    model: ValidatedModel) -> float:
    """Relative re-substitution residual of A_m u_m + r_m over all harmonics."""
    op, bands = assemble_harmonic_system(model, u.M)
    res, scale = _residuals(bands, op.restrict(u.coeffs),
                            -op.restrict(rtilde.coeffs))
    den = np.linalg.norm(scale)
    return float(np.linalg.norm(res) / den) if den > 0 else 0.0


def solve_linearized(u_base: HarmonicField, f_dir: HarmonicField,
                     model: ValidatedModel, kind: str,
                     tol: float = 1e-12, max_iter: int = 200,
                     include_third_order_term: bool = True) -> HarmonicField:
    """Solve the linearized periodic equation around a converged state.

    The cross-harmonic coupling from the time-varying coefficient is applied
    pseudospectrally; the decoupled per-harmonic solves act as the
    preconditioner of a fixed-point iteration (convergent in the same
    small-data regime as the nonlinear solver).

    With include_third_order_term=False the relaxation term is dropped from
    the linearized operator (the second-order linearization variant).
    """
    from .nonlinear import eval_bilinear

    lin_model = model
    if not include_third_order_term:
        lin_model = model.with_params(model.params.with_tau(0.0))

    grid, p = model.grid, model.params
    base2 = 2.0 * u_base
    u = solve_linear_mgt(f_dir, lin_model)
    if u_base.amplitude() == 0.0:
        return u
    prev_update = None
    for it in range(1, max_iter + 1):
        coupling = eval_bilinear(base2, u, kind, model)
        u_new = solve_linear_mgt(f_dir + coupling, lin_model)
        update = l2l2_norm(u_new - u, grid, p.omega, p.T)
        scale = max(l2l2_norm(u_new, grid, p.omega, p.T), 1e-300)
        u = u_new
        if update <= tol * scale:
            coupling = eval_bilinear(base2, u, kind, model)
            res = linear_residual(u, f_dir + coupling, lin_model)
            if res > RESIDUAL_RTOL:
                raise NonConvergedIteration(
                    f"linearized solve residual {res:.3e} > {RESIDUAL_RTOL}",
                    iterations=it, residual=res)
            return u
        if prev_update is not None and update >= prev_update:
            raise NonConvergedIteration(
                "linearized coupling iteration stagnated "
                f"(update {update:.3e} after {it} iterations)",
                iterations=it, residual=update / scale)
        prev_update = update
    raise NonConvergedIteration(
        f"linearized solve did not converge in {max_iter} iterations",
        iterations=max_iter, residual=None)
