"""Discrete space-time norms of harmonic fields.

Time integration uses Parseval with the one-sided convention: weight 1 for
the mean mode and 2 for m >= 1, so that
||d_t^k u||^2_{L2(0,T;X)} = T * sum_m w_m (m omega)^{2k} ||u_m||_X^2.
u0lo_norm weights each harmonic once and sums once.  The Picard loop takes
it twice per iteration, for the iterate and for the update, and passes in
the one gradient it takes per iterate.
"""
from __future__ import annotations

import numpy as np

from .model import Grid
from .spatial import gradient, laplacian_fd


def parseval_weights(M: int) -> np.ndarray:
    w = np.full(M + 1, 2.0)
    w[0] = 1.0
    return w


def spatial_sq(u: np.ndarray, grid: Grid, spatial=None) -> np.ndarray:
    """||X u_m||^2 for every harmonic m, shape (M+1,); X as in
    time_space_norm_sq."""
    if spatial in ("laplacian", "grad_laplacian"):
        u = laplacian_fd(u, grid)
    if spatial in ("H1_semi", "grad_laplacian"):
        u = gradient(u, grid)
    return _nodal_sq(u, grid)


def _nodal_sq(c: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoidal ||c_m||^2_{L2} of each row of nodal values c."""
    return np.sum(grid.trapezoid_weights() * np.abs(c) ** 2, axis=-1)


def time_sum(sq: np.ndarray, omega: float, T: float, t_order: int) -> float:
    """T * sum_m w_m (m omega)^{2k} sq_m for per-harmonic squared norms sq."""
    m = np.arange(len(sq))
    return T * float(np.sum(parseval_weights(len(sq) - 1)
                            * (m * omega) ** (2 * t_order) * sq))


def time_space_norm_sq(u: np.ndarray, grid: Grid, omega: float, T: float,
                       t_order: int = 0, spatial=None) -> float:
    """||d_t^k u||^2_{L2(0,T;X)} where X is given by `spatial`: None (L2),
    "H1_semi", "laplacian" or "grad_laplacian"."""
    return time_sum(spatial_sq(u, grid, spatial), omega, T, t_order)


def l2l2_norm(u: np.ndarray, grid: Grid, omega: float, T: float) -> float:
    return float(np.sqrt(time_space_norm_sq(u, grid, omega, T, 0)))


def u0lo_norm(u: np.ndarray, grid: Grid, omega: float, T: float,
              grad: np.ndarray | None = None) -> float:
    """Discrete H^2(L^2) + H^1(H^1) norm (tau-independent low energy),
    the sum of ||d_t^k u||^2_{L2(L2)} for k <= 2 and ||d_t^k grad u||^2
    for k <= 1, taken as one weighted sum over harmonics:
    T sum_m w_m [(1 + (m w)^2 + (m w)^4) ||u_m||^2
                 + (1 + (m w)^2) ||grad u_m||^2].
    `grad`, the `spatial.gradient` of u, is taken here unless given."""
    if grad is None:
        grad = gradient(u, grid)
    mw2 = (np.arange(len(u)) * omega) ** 2
    sq = ((1.0 + mw2 + mw2 * mw2) * spatial_sq(u, grid)
          + (1.0 + mw2) * _nodal_sq(grad, grid))
    return float(np.sqrt(T * np.sum(parseval_weights(len(u) - 1) * sq)))


def u0me_norm(u: np.ndarray, grid: Grid, omega: float, T: float) -> float:
    """Discrete H^2(H^1) + H^1(L^2 with Laplacian) norm (medium level)."""
    l2_h1 = spatial_sq(u, grid) + spatial_sq(u, grid, "H1_semi")
    lap = spatial_sq(u, grid, "laplacian")
    sq = (sum(time_sum(l2_h1, omega, T, k) for k in range(3))
          + sum(time_sum(lap, omega, T, k) for k in range(2)))
    return float(np.sqrt(sq))
