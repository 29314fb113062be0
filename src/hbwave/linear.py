"""Per-harmonic Helmholtz-type systems for the linear third-order wave
equation and the block-coupled solve for its linearization around a state.

Substituting u_m exp(i m omega t) into
    tau u_ttt + u_tt + (b d_t + c^2)(-Lap) u + r = 0
gives the decoupled family
    A_m u_m = -r_m,
    A_m = (-i tau m^3 w^3 - m^2 w^2) I + diag(c2 + i m w b) Lap_m,
with Lap_m the discrete -Laplacian carrying the harmonic-m Robin rows.
Every A_m is tridiagonal: all M+1 of them are assembled at once as one
(M+1, 3, nr) band array and solved with LAPACK's tridiagonal solver, so a
linear solve costs O(M nx).
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


def _one_norms(bands: np.ndarray) -> np.ndarray:
    """1-norm (largest column sum) of each matrix in a band stack."""
    return np.abs(bands).sum(axis=-2).max(axis=-1)


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


def _solve_harmonic(m: int, bands: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A_m x = rhs and verify it by re-substitution."""
    try:
        sol = scipy.linalg.solve_banded((1, 1), bands, rhs)
    except scipy.linalg.LinAlgError as exc:
        raise SolveFailure(f"harmonic {m} factorization failed: {exc}")
    res = np.linalg.norm(band_product(bands, sol) - rhs)
    scale = _one_norms(bands) * np.linalg.norm(sol) + np.linalg.norm(rhs)
    if scale > 0 and res > RESIDUAL_RTOL * scale:
        cond = float(np.linalg.cond(dense_from_bands(bands)))
        raise SolveFailure(
            f"harmonic {m} residual {res:.3e} exceeds tolerance "
            f"(cond ~ {cond:.3e})", condition_estimate=cond)
    return sol


def solve_linear_mgt(f: HarmonicField, model: ValidatedModel) -> HarmonicField:
    """Solve the decoupled per-harmonic systems for all m = 0..M."""
    op, bands = assemble_harmonic_system(model, f.M)
    rhs = -op.restrict(f.coeffs)
    out = HarmonicField(op.extend(np.array(
        [_solve_harmonic(m, bands[m], rhs[m]) for m in range(f.M + 1)])))
    out.coeffs[0] = out.coeffs[0].real
    return out


def linear_residual(u: HarmonicField, rtilde: HarmonicField,
                    model: ValidatedModel) -> float:
    """Relative re-substitution residual of A_m u_m + r_m over all harmonics."""
    op, bands = assemble_harmonic_system(model, u.M)
    ur = op.restrict(u.coeffs)
    rhs = -op.restrict(rtilde.coeffs)
    num_sq = np.sum(np.abs(band_product(bands, ur) - rhs) ** 2)
    den_sq = np.sum((_one_norms(bands) * np.linalg.norm(ur, axis=-1)
                     + np.linalg.norm(rhs, axis=-1)) ** 2)
    if den_sq == 0.0:
        return 0.0
    return float(np.sqrt(num_sq / den_sq))


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
