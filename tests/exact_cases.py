"""The linear Dirichlet exact solution several tests share: u*_1 =
(A/2) sin(pi x) on (0, 1), A = 1e-3, at M = 2 harmonics, with
tau = 0.1, taubar = 0.5, b = c2 = 1 and T = 2 pi."""
import numpy as np

from hbwave.model import (BCKind, BoundaryCondition, Grid, PhysicalParams,
                          validate_model)

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)
AMPLITUDE = 1e-3
M = 2


def linear_dirichlet_case(nx: int):
    """(model, u_star, f) on nx nodes, with f = -A_1 u*_1 from the exact
    -u*'' = pi^2 u*."""
    grid = Grid(1.0, nx)
    p = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0, c2=1.0,
                              T=2 * np.pi)
    model = validate_model(grid, p, DIRICHLET, DIRICHLET, M)
    omega, k = p.omega, np.pi
    u_star = np.zeros((M + 1, nx), complex)
    u_star[1] = 0.5 * AMPLITUDE * np.sin(k * grid.nodes)
    f = np.zeros((M + 1, nx), complex)
    f[1] = -((-1j * p.tau * omega**3 - omega**2)
             + (p.c2 + 1j * omega * p.b) * k**2) * u_star[1]
    return model, u_star, f
