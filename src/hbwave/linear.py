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
and factors A_0..A_M once, before the loop; every iterate only solves, and
the final re-substitution residual uses the same bands.  rhs is evaluated
once per state, and may vet the state (the nonlinear solve checks alpha
there), so its result feeds the next solve, the residual and the report.
The spatial gradient of each state is taken once too: it gives the u0lo
norm of the iterate, that of the update as a difference of gradients
(the gradient is linear), and rhs, whose Kuznetsov N(u) needs grad u.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import norms, spatial
from .errors import (
    MaxIterExceeded,
    NonContraction,
    NonConvergedIteration,
    SolveFailure,
)
from .model import FixedPointOptions, ValidatedModel

RESIDUAL_RTOL = 1e-10
NONCONTRACTION_PATIENCE = 5


def assemble_harmonic_system(model: ValidatedModel, M: int):
    """Bands of A_0..A_M, formed in place in those of -Lap_0..-Lap_M.

    Returns (op, bands): `op` restricts and extends nodal vectors, `bands`
    has shape (M+1, 3, nr) in LAPACK (1, 1) storage with bands[m] = A_m.
    They are op.bands, scaled in place, so no -Lap_m stack outlives the
    assembly.
    """
    # A_0 = c2 (-Lap_0) is nonsingular: validation asks for a Dirichlet
    # end or an impedance end, whose gamma > 0 anchors the mean
    p = model.params
    m = np.arange(M + 1)
    mw = m * p.omega
    op = spatial.assemble_laplacian(model.grid, model.bc_left,
                                    model.bc_right, m, p.omega)
    # row i of A_m is row i of -Lap_m scaled by s_i = c2_i + i m w b_i
    bands = spatial.scale_rows(
        op.bands, op.restrict(p.c2) + 1j * mw[:, None] * op.restrict(p.b))
    bands[:, 1, :] += (-1j * p.tau * mw**3 - mw**2)[:, None]
    return op, bands


def _residuals(bands: np.ndarray, x: np.ndarray, rhs: np.ndarray,
               one_norms: np.ndarray, rescaled: bool = False):
    """Re-substitution residual ||A_m x_m - rhs_m|| per m, and its scale
    ||A_m||_1 ||x_m|| + ||rhs_m||, each row norm from `norms.row_sq`.
    `one_norms` is `spatial.one_norms(bands)`, which a solver takes once.

    A square in the norms overflows once rhs passes about 1e154, and the
    residual's squares underflow, reading 0, once rhs falls below 1e-138;
    then both are taken again, once, with rhs divided by its largest entry,
    and x, which is about A^-1 rhs, with it.  Scaling only then keeps the
    common case free of the extra passes and temporaries."""
    with np.errstate(all="ignore"):
        sq = norms.row_sq(spatial.band_product(bands, x) - rhs)
        scale = (one_norms * np.sqrt(norms.row_sq(x))
                 + np.sqrt(norms.row_sq(rhs)))
    over = np.isinf(scale).any()
    # an exact solve's residual, 0, is 0 again after the division
    if not rescaled and (over or sq.sum() < norms.TINY):
        s = np.abs(rhs).max()
        # dividing by s helps only if s lies past 1 on the sums' side
        if 0.0 < s < np.inf and over == (s > 1.0):
            return _residuals(bands, x / s, rhs / s, one_norms, True)
    return np.sqrt(sq), scale


def _relative_residual(op, bands, one_norms, u: np.ndarray,
                       rtilde: np.ndarray) -> float:
    res, scale = _residuals(bands, op.restrict(u), -op.restrict(rtilde),
                            one_norms)
    den = np.linalg.norm(scale)
    return float(np.linalg.norm(res) / den) if den > 0 else 0.0


def linear_solver(model: ValidatedModel, M: int):
    """Assemble and factor A_0..A_M once.  Return the solve f -> u of
    A_m u_m = -f_m for m = 0..M, each verified by re-substitution, and the
    relative residual (u, rtilde) -> float of A_m u_m + r_m on the same
    bands.  The bands' 1-norms, which scale every residual check, are
    taken once here too, before the factorization, so their temporary and
    the factors are never alive together.  The closures keep the bands and
    their one factorization alive, and nothing else of the size of a
    field."""
    op, bands = assemble_harmonic_system(model, M)
    # LAPACK would report an overflowed entry as a zero pivot, or not at all
    nonfinite = ~np.isfinite(bands).all(axis=(1, 2))
    if nonfinite.any():
        raise SolveFailure(f"harmonic {int(np.argmax(nonfinite))} has "
                           "non-finite coefficients")
    one_norms = spatial.one_norms(bands)
    try:
        solve = spatial.tridiagonal_solver(bands)
    except spatial.SingularBlock as exc:
        raise SolveFailure(f"harmonic {exc.block} is singular (zero pivot)")

    def fail(m: int, what: str):
        cond = spatial.condition_estimate(bands[m])
        raise SolveFailure(f"harmonic {m} {what} (1-norm cond ~ {cond:.3e})",
                           condition_estimate=cond)

    def solve_checked(f: np.ndarray) -> np.ndarray:
        rhs = -op.restrict(f)
        sol = solve(rhs)
        if not np.isfinite(sol).all():
            # an overflow spreads through the stacked solve to the other
            # harmonics, so each one is judged by its own solve
            for m in range(len(bands)):
                if not np.isfinite(rhs[m]).all() or not np.isfinite(
                        spatial.tridiagonal_solver(bands[m])(rhs[m])).all():
                    fail(m, "has a non-finite right-hand side or solution")
        res, scale = _residuals(bands, sol, rhs, one_norms)
        # the first harmonic over tolerance, if any; a NaN residual fails too
        m = int(np.argmin(res <= RESIDUAL_RTOL * scale))
        if not res[m] <= RESIDUAL_RTOL * scale[m]:
            fail(m, f"residual {res[m]:.3e} exceeds tolerance")
        sol[0] = sol[0].real
        return op.extend(sol)
    return solve_checked, partial(_relative_residual, op, bands, one_norms)


def solve_linear_mgt(f: np.ndarray, model: ValidatedModel) -> np.ndarray:
    """Solve A_m u_m = -f_m for m = 0..M; verify each by re-substitution."""
    return linear_solver(model, len(f) - 1)[0](f)


def linear_residual(u: np.ndarray, rtilde: np.ndarray,
                    model: ValidatedModel) -> float:
    """Relative re-substitution residual of A_m u_m + r_m over all harmonics."""
    op, bands = assemble_harmonic_system(model, len(u) - 1)
    return _relative_residual(op, bands, spatial.one_norms(bands), u, rtilde)


# the linearized solve's stopping rule, not user options; a base of
# amplitude 1.0 at nx=33, M=4 needs 127 iterations
LINEARIZED = FixedPointOptions(tol=1e-12, max_iter=200)


class SolveReport:
    def __init__(self, u: np.ndarray, iterations: int,
                 update_norms: list | None = None,
                 contraction_ratios: list | None = None,
                 final_residual: float = 0.0, alpha_min: float = 0.0,
                 stability_margin: float = 0.0,
                 rhs: np.ndarray | None = None):
        self.u = u
        self.iterations = iterations
        self.update_norms = [] if update_norms is None else update_norms
        self.contraction_ratios = ([] if contraction_ratios is None
                                   else contraction_ratios)
        self.final_residual = final_residual
        self.alpha_min = alpha_min
        self.stability_margin = stability_margin
        self.rhs = rhs      # rhs(u), the full inhomogeneity


def fixed_point(rhs, u: np.ndarray, model: ValidatedModel,
                opts: FixedPointOptions, solver=None) -> SolveReport:
    """Iterate u <- theta S(rhs(u)) + (1 - theta) u from u, with S the linear
    solve factored once, until the u0lo update is at most tol times the
    iterate's norm; then verify by re-substitution on the same bands.

    rhs(u, grad u) is evaluated once per state: for the start state, and
    for each new iterate right after the ball guard and before the
    contraction test, so a rhs that vets its state raises in that order.
    Each state's `spatial.gradient` is taken once, here, and serves both
    norms and rhs.  `solver`, a `linear_solver(model, M)` pair, lets
    several solves on one model share one factorization; it is built here
    when not given."""
    grid, p = model.grid, model.params
    theta = opts.relaxation
    update_norms: list[float] = []
    ratios: list[float] = []
    rising = 0
    solve, residual = solver or linear_solver(model, len(u) - 1)
    grad = spatial.gradient(u, grid)
    r = rhs(u, grad)
    for it in range(1, opts.max_iter + 1):
        u_new = theta * solve(r) + (1.0 - theta) * u
        grad_new = spatial.gradient(u_new, grid)
        update = norms.u0lo_norm(u_new - u, grid, p.omega, p.T,
                                 grad_new - grad)
        scale = norms.u0lo_norm(u_new, grid, p.omega, p.T, grad_new)
        update_norms.append(update)
        # the self-mapping guard mirrors the smallness requirement: leaving
        # the ball is the primary diagnosis, a degenerate alpha a consequence
        if opts.ball_radius is not None and scale > opts.ball_radius:
            raise NonContraction(
                f"iterate left the ball of radius {opts.ball_radius}",
                history=update_norms)
        # the last state is dead: freed here, it is not held while rhs
        # synthesizes the new one
        u, grad, r = u_new, grad_new, None
        r = rhs(u, grad)
        if len(update_norms) >= 2 and update_norms[-2] > 0:
            ratio = update_norms[-1] / update_norms[-2]
            ratios.append(ratio)
            rising = rising + 1 if ratio >= 1.0 else 0
            if rising >= NONCONTRACTION_PATIENCE:
                raise NonContraction(
                    f"contraction ratio >= 1 for {rising} consecutive "
                    "iterations", history=update_norms)
        # an update that overflowed is no evidence of convergence
        if np.isfinite(update) and update <= opts.tol * scale:
            return SolveReport(
                u=u, iterations=it, update_norms=update_norms,
                contraction_ratios=ratios, final_residual=residual(u, r),
                rhs=r)
    raise MaxIterExceeded(
        f"no convergence within {opts.max_iter} iterations",
        history=update_norms)


def solve_linearized(u_base: np.ndarray, f_dir: np.ndarray,
                     model: ValidatedModel, kind: str,
                     solver=None) -> SolveReport:
    """Derivative of the source-to-state map at u_base in the direction
    f_dir, as the report of its solve: the fixed point u of
    u = S(f_dir + r[2 u_base, u]), with the cross-harmonic coupling applied
    pseudospectrally.  It converges in the same small-data regime as the
    nonlinear solve.  For the second-order linearization pass a model with
    tau = 0.  `solver` is passed on to `fixed_point`."""
    from .nonlinear import bilinear_factors, bilinear_product

    base2 = bilinear_factors(2.0 * u_base, kind, model)
    report = fixed_point(
        lambda u, grad: f_dir + bilinear_product(
            base2, bilinear_factors(u, kind, model, grad), kind, model,
            len(u) - 1),
        np.zeros(f_dir.shape, complex), model, LINEARIZED, solver)
    if report.final_residual > RESIDUAL_RTOL:
        raise NonConvergedIteration(
            f"linearized solve residual {report.final_residual:.3e} > "
            f"{RESIDUAL_RTOL}", iterations=report.iterations,
            residual=report.final_residual)
    return report
