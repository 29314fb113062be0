"""The banded -Laplacian and harmonic systems against dense references
built here from the finite-difference stencil."""
import numpy as np
import pytest
import scipy.linalg

from hbwave.linear import assemble_harmonic_system, solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    validate_model,
)
from hbwave.spatial import assemble_laplacian

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)
NEUMANN = BoundaryCondition(BCKind.NEUMANN)
IMPEDANCE = BoundaryCondition(BCKind.IMPEDANCE, gamma=0.7)
ABSORBING = BoundaryCondition(BCKind.ABSORBING, beta=1.3, gamma=0.2)
ENDPOINTS = [(DIRICHLET, DIRICHLET), (NEUMANN, IMPEDANCE),
             (ABSORBING, DIRICHLET), (IMPEDANCE, ABSORBING)]
NX = 33


def dense_laplacian(grid, bc_left, bc_right, m, omega):
    """Reduced -d_xx with ghost-node Robin rows, as a dense matrix."""
    nx, h = grid.nx, grid.h
    A = np.zeros((nx, nx), dtype=complex)
    for j in range(1, nx - 1):
        A[j, j - 1:j + 2] = np.array([-1.0, 2.0, -1.0]) / h**2
    keep = np.ones(nx, dtype=bool)
    for row, nbr, bc in ((0, 1, bc_left), (-1, -2, bc_right)):
        if bc.is_dirichlet:
            keep[row] = False
        else:
            q = 1j * m * omega * bc.beta + bc.gamma
            A[row, row] = (2.0 + 2.0 * h * q) / h**2
            A[row, nbr] = -2.0 / h**2
    return A[np.ix_(keep, keep)], np.flatnonzero(keep)


def make_model(bc_left, bc_right):
    grid = Grid(1.0, NX)
    x = grid.nodes
    params = PhysicalParams.create(
        grid, tau=0.1, taubar=0.5, b=1.0 + 0.1 * np.sin(3 * x),
        c2=1.0 + 0.1 * np.cos(2 * x), T=2 * np.pi)
    return validate_model(grid, params, bc_left, bc_right)


@pytest.mark.parametrize("m", [0, 1, 5])
@pytest.mark.parametrize("bc_left, bc_right", ENDPOINTS)
def test_banded_apply_matches_dense_stencil(bc_left, bc_right, m):
    grid = Grid(1.0, NX)
    omega = 1.7
    dense, active = dense_laplacian(grid, bc_left, bc_right, m, omega)
    op = assemble_laplacian(grid, bc_left, bc_right, m, omega)
    np.testing.assert_array_equal(op.active, active)
    rng = np.random.default_rng(m)
    v = rng.normal(size=NX) + 1j * rng.normal(size=NX)
    expected = np.zeros(NX, dtype=complex)
    expected[active] = dense @ v[active]
    applied = op.apply(v)
    assert np.linalg.norm(applied - expected) <= (
        1e-12 * np.linalg.norm(expected))


@pytest.mark.parametrize("m", [0, 1, 5])
@pytest.mark.parametrize("bc_left, bc_right", ENDPOINTS)
def test_banded_solve_matches_dense_system(bc_left, bc_right, m):
    model = make_model(bc_left, bc_right)
    p, omega = model.params, model.params.omega
    rng = np.random.default_rng(10 + m)
    f = HarmonicField(rng.normal(size=(6, NX)) + 1j * rng.normal(
        size=(6, NX)))
    f.coeffs[0] = f.coeffs[0].real
    u = solve_linear_mgt(f, model)

    lap, active = dense_laplacian(model.grid, bc_left, bc_right, m, omega)
    mw = m * omega
    A = ((p.c2 + 1j * mw * p.b)[active][:, None] * lap
         + (-1j * p.tau * mw**3 - mw**2) * np.eye(len(active)))
    expected = np.zeros(NX, dtype=complex)
    expected[active] = np.linalg.solve(A, -f.coeffs[m, active])
    assert np.linalg.norm(u.coeffs[m] - expected) <= (
        1e-12 * np.linalg.norm(expected))


@pytest.mark.parametrize("bc_left, bc_right", ENDPOINTS)
def test_every_harmonic_block_has_zero_corners(bc_left, bc_right):
    # the stacked solve of all harmonics relies on these: with them zero,
    # no entry of the stacked tridiagonal matrix couples two blocks
    _, bands = assemble_harmonic_system(make_model(bc_left, bc_right), 5)
    assert np.all(bands[:, 0, 0] == 0)
    assert np.all(bands[:, 2, -1] == 0)


@pytest.mark.parametrize("bc_left, bc_right", ENDPOINTS)
def test_stacked_solve_equals_separate_block_solves(bc_left, bc_right):
    model = make_model(bc_left, bc_right)
    rng = np.random.default_rng(20)
    f = HarmonicField(rng.normal(size=(6, NX)) + 1j * rng.normal(
        size=(6, NX)))
    f.coeffs[0] = f.coeffs[0].real
    op, bands = assemble_harmonic_system(model, f.M)
    rhs = -op.restrict(f.coeffs)
    separate = np.array([scipy.linalg.solve_banded((1, 1), bands[m], rhs[m])
                         for m in range(f.M + 1)])
    separate[0] = separate[0].real
    np.testing.assert_array_equal(solve_linear_mgt(f, model).coeffs,
                                  op.extend(separate))
