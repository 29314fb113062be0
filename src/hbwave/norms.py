"""Discrete space-time norms of harmonic fields.

Time integration uses Parseval with the one-sided convention: weight 1 for
the mean mode and 2 for m >= 1, so that
||d_t^k u||^2_{L2(0,T;X)} = T * sum_m w_m (m omega)^{2k} ||u_m||_X^2.
Every spatial square here and in `diagnostics` is `row_sq` with the
trapezoid weights: one pass that squares the float view of the field and
weights it in one product.  A norm in H1 or with the Laplacian takes it of
`spatial.gradient` or `spatial.laplacian_fd` of the field.  u0lo_norm sums
the harmonics with weights formed once.  The Picard loop takes it twice per
iteration, for the iterate and for the update, and passes in the one
gradient it takes per iterate.
"""
from __future__ import annotations

import numpy as np

from .model import Grid, rescaled
from .spatial import gradient, laplacian_fd


def parseval_weights(M: int) -> np.ndarray:
    w = np.full(M + 1, 2.0)
    w[0] = 1.0
    return w


def row_sq(c: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """sum_j weights_j |c_ij|^2 for each row of c (all weights 1 when None),
    in one pass over the float view of c, which holds the real and
    imaginary parts of each entry side by side."""
    c = np.ascontiguousarray(c)
    if np.iscomplexobj(c):
        c = c.view(c.real.dtype)
        if weights is not None:
            weights = np.repeat(weights, 2)
    sq = c * c
    return sq.sum(axis=-1) if weights is None else sq @ weights


def time_sum(sq: np.ndarray, omega: float, T: float, t_order: int) -> float:
    """T * sum_m w_m (m omega)^{2k} sq_m for per-harmonic squared norms sq."""
    m = np.arange(len(sq))
    return T * float(np.sum(parseval_weights(len(sq) - 1)
                            * (m * omega) ** (2 * t_order) * sq))


def time_space_norm_sq(u: np.ndarray, grid: Grid, omega: float, T: float,
                       t_order: int = 0) -> float:
    """||d_t^k u||^2_{L2(0,T;L2)}; for another space X, pass X's transform
    of u, such as `spatial.gradient(u, grid)` for the H1 seminorm."""
    return time_sum(row_sq(u, grid.trapezoid_weights()), omega, T, t_order)


def l2l2_norm(u: np.ndarray, grid: Grid, omega: float, T: float) -> float:
    return float(np.sqrt(time_space_norm_sq(u, grid, omega, T, 0)))


def u0lo_norm(u: np.ndarray, grid: Grid, omega: float, T: float,
              grad: np.ndarray | None = None) -> float:
    """Discrete H^2(L^2) + H^1(H^1) norm (tau-independent low energy),
    the sum of ||d_t^k u||^2_{L2(L2)} for k <= 2 and ||d_t^k grad u||^2
    for k <= 1, taken as one weighted sum over harmonics:
    T sum_m w_m [(1 + (m w)^2 + (m w)^4) ||u_m||^2
                 + (1 + (m w)^2) ||grad u_m||^2].
    `grad`, the `spatial.gradient` of u, is taken here unless given.

    A sum out of range is taken again over both fields by
    `model.rescaled`."""
    if grad is None:
        grad = gradient(u, grid)
    mw2 = (np.arange(len(u)) * omega) ** 2
    w = parseval_weights(len(u) - 1)
    w_grad = w * (1.0 + mw2)
    w_u = w_grad + w * mw2 * mw2
    x = grid.trapezoid_weights()
    (sq,), c = rescaled(
        lambda u, grad: (w_u @ row_sq(u, x) + w_grad @ row_sq(grad, x),),
        u, grad)
    return float(c * np.sqrt(T * sq))


def u0me_norm(u: np.ndarray, grid: Grid, omega: float, T: float) -> float:
    """Discrete H^2(H^1) + H^1(L^2 with Laplacian) norm (medium level)."""
    x = grid.trapezoid_weights()
    l2_h1 = row_sq(u, x) + row_sq(gradient(u, grid), x)
    lap = row_sq(laplacian_fd(u, grid), x)
    sq = (sum(time_sum(l2_h1, omega, T, k) for k in range(3))
          + sum(time_sum(lap, omega, T, k) for k in range(2)))
    return float(np.sqrt(sq))
