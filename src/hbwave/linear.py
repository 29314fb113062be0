"""Per-harmonic Helmholtz-type systems for the linear third-order wave
equation, and the one fixed-point iteration built on their solve.

Substituting u_m exp(i m omega t) into
    tau u_ttt + u_tt + (b d_t + c^2)(-Lap) u + r = 0
gives the decoupled family
    A_m u_m = -r_m,
    A_m = (-i tau m^3 w^3 - m^2 w^2) I + diag(c2 + i m w b) Lap_m,
with Lap_m the discrete -Laplacian carrying the harmonic-m Robin rows.
Every A_m is tridiagonal; all M+1 are assembled as one (M+1, 3, nr) band
array and factored, in O(M nx), as one block-diagonal tridiagonal system of
order (M+1) nr by `spatial.tridiagonal_solver`.  That is exact: the corners
[0, 0] and [2, -1] of every block are zero and LAPACK eliminates nothing
across a zero sub-diagonal, so each harmonic's solution is bit-identical to
its own.

The nonlinear solve and the linearized solve around a state are both
`fixed_point`, the iteration u <- S(rhs(u)) with S this decoupled solve.
The model is fixed for the whole iteration, so `linear_solver` assembles
and factors A_0..A_M once, before the loop; every iterate only solves.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    MaxIterExceeded,
    NonContraction,
    NonConvergedIteration,
    SingularMeanMode,
    SolveFailure,
)
from .model import HarmonicField, ValidatedModel
from .norms import u0lo_norm
from .spatial import (SingularBlock, assemble_laplacian, band_product,
                      condition_estimate, scale_rows, tridiagonal_solver)

RESIDUAL_RTOL = 1e-10
NONCONTRACTION_PATIENCE = 5


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
    # row i of A_m is scaled by c2_i + i m w b_i; the entries scale_rows
    # wraps around meet the zero corners, so no block leaks into the next
    bands = scale_rows(op.bands,
                       p.c2[op.active] + 1j * mw[:, None] * p.b[op.active])
    bands[:, 1, :] += (-1j * p.tau * mw**3 - mw**2)[:, None]
    return op, bands


def _residuals(bands: np.ndarray, x: np.ndarray, rhs: np.ndarray):
    """Re-substitution residual ||A_m x_m - rhs_m|| per m, and its scale."""
    res = np.linalg.norm(band_product(bands, x) - rhs, axis=-1)
    one_norms = np.abs(bands).sum(axis=-2).max(axis=-1)
    scale = (one_norms * np.linalg.norm(x, axis=-1)
             + np.linalg.norm(rhs, axis=-1))
    return res, scale


def linear_solver(model: ValidatedModel, M: int):
    """Assemble and factor A_0..A_M once; return the solve f -> u of
    A_m u_m = -f_m for m = 0..M, each verified by re-substitution."""
    op, bands = assemble_harmonic_system(model, M)
    # LAPACK would report an overflowed entry as a zero pivot, or not at all
    nonfinite = ~np.isfinite(bands).all(axis=(1, 2))
    if nonfinite.any():
        raise SolveFailure(f"harmonic {int(np.argmax(nonfinite))} has "
                           "non-finite coefficients")
    try:
        solve = tridiagonal_solver(bands)
    except SingularBlock as exc:
        raise SolveFailure(f"harmonic {exc.block} is singular (zero pivot)")

    def solve_checked(f: HarmonicField) -> HarmonicField:
        rhs = -op.restrict(f.coeffs)
        sol = solve(rhs)
        res, scale = _residuals(bands, sol, rhs)
        # the first harmonic over tolerance, if any; a NaN residual fails too
        m = int(np.argmin(res <= RESIDUAL_RTOL * scale))
        if not res[m] <= RESIDUAL_RTOL * scale[m]:
            cond = condition_estimate(bands[m])
            raise SolveFailure(
                f"harmonic {m} residual {res[m]:.3e} exceeds tolerance "
                f"(1-norm cond ~ {cond:.3e})", condition_estimate=cond)
        sol[0] = sol[0].real
        return HarmonicField(op.extend(sol))
    return solve_checked


def solve_linear_mgt(f: HarmonicField, model: ValidatedModel) -> HarmonicField:
    """Solve A_m u_m = -f_m for m = 0..M; verify each by re-substitution."""
    return linear_solver(model, f.M)(f)


def linear_residual(u: HarmonicField, rtilde: HarmonicField,
                    model: ValidatedModel) -> float:
    """Relative re-substitution residual of A_m u_m + r_m over all harmonics."""
    op, bands = assemble_harmonic_system(model, u.M)
    res, scale = _residuals(bands, op.restrict(u.coeffs),
                            -op.restrict(rtilde.coeffs))
    den = np.linalg.norm(scale)
    return float(np.linalg.norm(res) / den) if den > 0 else 0.0


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


# the linearized solve's stopping rule, not user options; a base of
# amplitude 1.0 at nx=33, M=4 needs 127 iterations
LINEARIZED = FixedPointOptions(tol=1e-12, max_iter=200)


@dataclass
class SolveReport:
    u: HarmonicField
    iterations: int
    update_norms: list = field(default_factory=list)
    contraction_ratios: list = field(default_factory=list)
    final_residual: float = 0.0
    degeneracy_margin: float = 0.0
    stability_margin: float = 0.0


def fixed_point(rhs, u: HarmonicField, model: ValidatedModel,
                opts: FixedPointOptions, check=None) -> SolveReport:
    """Iterate u <- theta S(rhs(u)) + (1 - theta) u from u, with S the linear
    solve factored once, until the u0lo update is at most tol times the
    iterate's norm; then verify by re-substitution.  check(u, norm,
    update_norms), if given, vets every iterate before the contraction test
    and returns extra SolveReport fields."""
    grid, p = model.grid, model.params
    theta = opts.relaxation
    update_norms: list[float] = []
    ratios: list[float] = []
    rising = 0
    extra = {}
    solve = linear_solver(model, u.M)
    for it in range(1, opts.max_iter + 1):
        u_new = theta * solve(rhs(u)) + (1.0 - theta) * u
        update = u0lo_norm(u_new - u, grid, p.omega, p.T)
        scale = u0lo_norm(u_new, grid, p.omega, p.T)
        update_norms.append(update)
        if check is not None:
            extra = check(u_new, scale, update_norms)
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
            return SolveReport(
                u=u, iterations=it, update_norms=update_norms,
                contraction_ratios=ratios,
                final_residual=linear_residual(u, rhs(u), model), **extra)
    raise MaxIterExceeded(
        f"no convergence within {opts.max_iter} iterations",
        history=update_norms)


def solve_linearized(u_base: HarmonicField, f_dir: HarmonicField,
                     model: ValidatedModel, kind: str) -> HarmonicField:
    """Derivative of the source-to-state map at u_base in the direction
    f_dir: the fixed point of u = S(f_dir + r[2 u_base, u]), with the
    cross-harmonic coupling applied pseudospectrally.  It converges in the
    same small-data regime as the nonlinear solve.  For the second-order
    linearization pass a model with tau = 0."""
    from .nonlinear import bilinear_factors, bilinear_product

    base2 = bilinear_factors(2.0 * u_base, kind, model)
    report = fixed_point(
        lambda u: f_dir + bilinear_product(
            base2, bilinear_factors(u, kind, model), kind, model, u.M),
        HarmonicField.zeros(f_dir.M, model.grid.nx), model, LINEARIZED)
    if report.final_residual > RESIDUAL_RTOL:
        raise NonConvergedIteration(
            f"linearized solve residual {report.final_residual:.3e} > "
            f"{RESIDUAL_RTOL}", iterations=report.iterations,
            residual=report.final_residual)
    return report.u
