"""Discrete spatial operators: the negative Laplacian with per-harmonic
Robin/Dirichlet boundary rows, finite-difference norms, and the discrete
H^1-dual norm.

Robin rows use ghost-node elimination of the central stencil, so the
operator stays tridiagonal (complex for m >= 1 with an absorbing
endpoint).  It is stored in LAPACK (1, 1) band form, (3, n) per harmonic:
row 0 the super-diagonal, row 1 the diagonal, row 2 the sub-diagonal, with
the unused corners [0, 0] and [2, -1] zero.  Assembling all M+1 harmonics,
applying them and solving with them each cost O(M nx).  Only
dense_from_bands forms an nx x nx matrix, for the condition estimate of a
failed solve.  scipy.linalg is imported inside the functions that call it:
it is most of the package's import time, and validation needs none of it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import BoundaryCondition, Grid


def band_product(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tridiagonal (..., 3, n) bands times (..., n) vectors."""
    out = bands[..., 1, :] * v
    out[..., 1:] += bands[..., 2, :-1] * v[..., :-1]
    out[..., :-1] += bands[..., 0, 1:] * v[..., 1:]
    return out


def scale_rows(bands: np.ndarray, s: np.ndarray) -> np.ndarray:
    """diag(s) times tridiagonal (..., 3, n) bands, for (..., n) scales s."""
    # band k of column j lies in row j + k - 1; the entries np.roll wraps
    # around meet the zero corners
    return bands * np.stack(
        [np.roll(s, 1, axis=-1), s, np.roll(s, -1, axis=-1)], axis=-2)


def tridiagonal_solver(bands: np.ndarray):
    """Factor one real (3, n) band array (LAPACK gttrf) and return the
    function that solves with it (gttrs)."""
    import scipy.linalg
    *lu, info = scipy.linalg.lapack.dgttrf(bands[2, :-1], bands[1],
                                           bands[0, 1:])
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal (info {info})")
    return lambda rhs: scipy.linalg.lapack.dgttrs(*lu, rhs)[0]


def dense_from_bands(bands: np.ndarray) -> np.ndarray:
    """The (n, n) matrix of one (3, n) band array."""
    return (np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
            + np.diag(bands[2, :-1], -1))


@dataclass
class SpatialOperator:
    """Reduced discrete -Laplacian of harmonic m (or of each m in an array).

    Dirichlet nodes are eliminated; `active` maps reduced indices to full
    grid indices.
    """

    bands: np.ndarray           # (3, nr) or (len(m), 3, nr), see module doc
    active: np.ndarray          # indices of non-Dirichlet nodes
    grid: Grid
    m: np.ndarray
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition

    def restrict(self, v_full: np.ndarray) -> np.ndarray:
        return np.asarray(v_full)[..., self.active]

    def extend(self, v_reduced: np.ndarray) -> np.ndarray:
        out = np.zeros(v_reduced.shape[:-1] + (self.grid.nx,), dtype=complex)
        out[..., self.active] = v_reduced
        return out

    def apply(self, v_full: np.ndarray) -> np.ndarray:
        """Apply to full-grid vectors; Dirichlet nodes read as zero."""
        return self.extend(band_product(self.bands, self.restrict(v_full)))

    def is_singular(self) -> bool:
        # the only singular configuration is the pure-Neumann mean mode
        return bool(np.any(self.m == 0)) and all(
            not bc.is_dirichlet and bc.gamma == 0.0
            for bc in (self.bc_left, self.bc_right))


def assemble_laplacian(grid: Grid, bc_left: BoundaryCondition,
                       bc_right: BoundaryCondition, m,
                       omega: float) -> SpatialOperator:
    """Second-order -d_xx with the harmonic-m Robin data i m omega beta + gamma.

    `m` is one harmonic or an array of them; the bands of an array stack
    along a leading axis.
    """
    m = np.asarray(m)
    nx, h = grid.nx, grid.h
    inv_h2 = 1.0 / h**2
    bands = np.empty(m.shape + (3, nx), dtype=complex)
    bands[...] = np.array([[-inv_h2], [2.0 * inv_h2], [-inv_h2]])

    lo, hi = 0, nx
    if bc_left.is_dirichlet:
        lo = 1
    else:
        q = bc_left.robin_coefficient(m, omega)
        bands[..., 1, 0] = (2.0 + 2.0 * h * q) * inv_h2
        bands[..., 0, 1] = -2.0 * inv_h2
    if bc_right.is_dirichlet:
        hi = nx - 1
    else:
        q = bc_right.robin_coefficient(m, omega)
        bands[..., 1, -1] = (2.0 + 2.0 * h * q) * inv_h2
        bands[..., 2, -2] = -2.0 * inv_h2

    bands = bands[..., lo:hi]
    bands[..., 0, 0] = 0.0
    bands[..., 2, -1] = 0.0
    return SpatialOperator(bands=bands, active=np.arange(lo, hi), grid=grid,
                           m=m, bc_left=bc_left, bc_right=bc_right)


def gradient(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order first derivative along the last axis."""
    v = np.asarray(v)
    h = grid.h
    g = np.empty_like(v, dtype=np.result_type(v, float))
    g[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2 * h)
    g[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * h)
    g[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * h)
    return g


def laplacian_fd(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order second derivative along the last axis (one-sided ends)."""
    v = np.asarray(v)
    h = grid.h
    g = np.empty_like(v, dtype=np.result_type(v, float))
    g[..., 1:-1] = (v[..., 2:] - 2 * v[..., 1:-1] + v[..., :-2]) / h**2
    g[..., 0] = (2 * v[..., 0] - 5 * v[..., 1] + 4 * v[..., 2]
                 - v[..., 3]) / h**2
    g[..., -1] = (2 * v[..., -1] - 5 * v[..., -2] + 4 * v[..., -3]
                  - v[..., -4]) / h**2
    return g


def l2_norm(v: np.ndarray, grid: Grid) -> float:
    """Trapezoidal-rule L2(0, L) norm."""
    w = grid.trapezoid_weights()
    return float(np.sqrt(np.sum(w * np.abs(v) ** 2).real))


def spatial_norms(v: np.ndarray, grid: Grid) -> dict:
    """L2 norm, H1 seminorm and endpoint traces of a nodal vector."""
    g = gradient(v, grid)
    return {
        "L2": l2_norm(v, grid),
        "H1_semi": l2_norm(g, grid),
        "trace_left": v[0],
        "trace_right": v[-1],
    }


def dual_norm_h1star(v: np.ndarray, grid: Grid, bc_left: BoundaryCondition,
                     bc_right: BoundaryCondition):
    """Discrete H^1-dual norm: sqrt(<v, z>) with (I - Lap_h) z = v.

    `v` is one nodal vector, or a stack of them along the leading axis, which
    gives one norm per row from a single factorization.  Uses the mean-mode
    (m = 0) boundary rows; the identity shift makes the operator nonsingular
    for every endpoint combination.
    """
    import scipy.linalg
    op = assemble_laplacian(grid, bc_left, bc_right, 0, omega=1.0)
    op.bands[1] += 1.0
    vr = op.restrict(np.asarray(v, dtype=complex))
    z = scipy.linalg.solve_banded((1, 1), op.bands, vr.T).T
    w = grid.trapezoid_weights()[op.active]
    val = np.sum(w * np.conj(vr) * z, axis=-1).real
    return np.sqrt(np.maximum(val, 0.0))
