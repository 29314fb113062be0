import numpy as np
import pytest

from hbwave.model import BCKind, BoundaryCondition, Grid
from hbwave.spatial import (
    assemble_laplacian,
    dual_norm_h1star,
    gradient,
    l2_norm,
    laplacian_fd,
)

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)
NEUMANN = BoundaryCondition(BCKind.NEUMANN)


def test_gradient_second_order():
    errs = []
    for nx in (33, 65, 129):
        grid = Grid(1.0, nx)
        v = np.sin(2 * np.pi * grid.nodes)
        exact = 2 * np.pi * np.cos(2 * np.pi * grid.nodes)
        errs.append(np.max(np.abs(gradient(v, grid) - exact)))
    order = np.log2(errs[0] / errs[1])
    assert order == pytest.approx(2.0, abs=0.2)


def test_gradient_handles_complex_2d_arrays():
    grid = Grid(1.0, 17)
    v = np.stack([np.exp(1j * grid.nodes), grid.nodes**2])
    g = gradient(v, grid)
    assert g.shape == v.shape
    np.testing.assert_allclose(g[1].real, 2 * grid.nodes, atol=1e-10)


def test_laplacian_fd_second_order():
    errs = []
    for nx in (33, 65, 129):
        grid = Grid(1.0, nx)
        v = np.sin(np.pi * grid.nodes)
        exact = -np.pi**2 * v
        errs.append(np.max(np.abs(laplacian_fd(v, grid) - exact)))
    order = np.log2(errs[1] / errs[2])
    assert order == pytest.approx(2.0, abs=0.3)


def test_l2_norm_matches_closed_form():
    grid = Grid(1.0, 4097)
    v = np.sin(np.pi * grid.nodes)
    assert l2_norm(v, grid) == pytest.approx(np.sqrt(0.5), rel=1e-6)


def test_dirichlet_operator_eigenvector():
    grid = Grid(1.0, 65)
    op = assemble_laplacian(grid, DIRICHLET, DIRICHLET, m=1, omega=1.0)
    v = np.sin(np.pi * grid.nodes)
    # discrete -Laplacian eigenvalue of sin(pi x) on a uniform grid
    h = grid.h
    lam = 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2
    applied = op.apply(v.astype(complex))
    np.testing.assert_allclose(applied[1:-1], lam * v[1:-1], rtol=1e-10)


def test_robin_row_consistent_with_boundary_condition():
    # v = cos(kx) satisfies v'(0) = 0 and v'(L) + gamma v(L) = 0 when
    # gamma = k tan(kL); the assembled -Laplacian then reproduces k^2 v
    grid = Grid(1.0, 257)
    k = 1.0
    gamma = k * np.tan(k * grid.L)
    left = NEUMANN
    right = BoundaryCondition(BCKind.IMPEDANCE, gamma=gamma)
    op = assemble_laplacian(grid, left, right, m=0, omega=1.0)
    v = np.cos(k * grid.nodes).astype(complex)
    applied = op.apply(v)
    np.testing.assert_allclose(applied.real, k**2 * v.real, atol=5e-3)


def test_mean_mode_singular_without_anchor():
    grid = Grid(1.0, 17)
    op = assemble_laplacian(grid, NEUMANN, NEUMANN, m=0, omega=1.0)
    assert op.is_singular()
    anchored = assemble_laplacian(grid, NEUMANN, DIRICHLET, m=0, omega=1.0)
    assert not anchored.is_singular()


def test_restrict_extend_round_trip():
    grid = Grid(1.0, 17)
    op = assemble_laplacian(grid, DIRICHLET, DIRICHLET, m=1, omega=1.0)
    full = np.arange(17, dtype=complex)
    reduced = op.restrict(full)
    assert reduced.shape == (15,)
    back = op.extend(reduced)
    assert back[0] == 0 and back[-1] == 0
    np.testing.assert_array_equal(back[1:-1], full[1:-1])


def test_dual_norm_on_operator_eigenvector():
    grid = Grid(1.0, 65)
    v = np.sin(np.pi * grid.nodes).astype(complex)
    val = dual_norm_h1star(v, grid, DIRICHLET, DIRICHLET)
    h = grid.h
    lam = 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2
    expected = l2_norm(v, grid) / np.sqrt(1.0 + lam)
    assert val == pytest.approx(expected, rel=1e-6)


def test_dual_norm_nonnegative_and_dominated_by_l2():
    rng = np.random.default_rng(11)
    grid = Grid(1.0, 33)
    v = rng.normal(size=33).astype(complex)
    val = dual_norm_h1star(v, grid, DIRICHLET, DIRICHLET)
    assert 0.0 <= val <= l2_norm(v, grid) * (1 + 1e-12)


def test_dual_norm_of_a_stack_is_per_row():
    rng = np.random.default_rng(5)
    grid = Grid(1.0, 33)
    right = BoundaryCondition(BCKind.ABSORBING, beta=1.0, gamma=0.5)
    vs = rng.normal(size=(4, 33)) + 1j * rng.normal(size=(4, 33))
    stacked = dual_norm_h1star(vs, grid, NEUMANN, right)
    rows = [dual_norm_h1star(v, grid, NEUMANN, right) for v in vs]
    np.testing.assert_allclose(stacked, rows, rtol=1e-14)
