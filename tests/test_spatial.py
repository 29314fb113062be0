import numpy as np
import pytest

from hbwave.model import BCKind, BoundaryCondition, Grid
from hbwave.spatial import (
    assemble_laplacian,
    band_product,
    dual_norm_h1star,
    gradient,
    laplacian_fd,
)

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)
NEUMANN = BoundaryCondition(BCKind.NEUMANN)


def l2_norm(v, grid):
    """Trapezoidal-rule L2(0, L) norm."""
    w = grid.trapezoid_weights()
    return float(np.sqrt(np.sum(w * np.abs(v) ** 2).real))


def apply(op, v):
    """The operator applied to full-grid vectors; Dirichlet nodes read 0."""
    return op.extend(band_product(op.bands, op.restrict(v)))


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


def row_gradient(v, h):
    """The gradient stencil on one row."""
    return np.concatenate([[(-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)],
                           (v[2:] - v[:-2]) / (2 * h),
                           [(3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)]])


def row_laplacian(v, h):
    """The second-difference stencil on one row."""
    return np.concatenate(
        [[(2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / h**2],
         (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2,
         [(2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / h**2]])


STACKS = {
    "contiguous": lambda a: a,
    "transposed": lambda a: a.T.copy().T,
    "sliced": lambda a: np.repeat(a, 2, axis=-1)[..., ::2],
}


@pytest.mark.parametrize("layout", STACKS)
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("stencil, row, smallest", [
    (gradient, row_gradient, 3), (laplacian_fd, row_laplacian, 4)],
    ids=["gradient", "laplacian_fd"])
def test_stencils_match_a_per_row_reference_bit_for_bit(stencil, row,
                                                        smallest, dtype,
                                                        layout):
    # the interior stencil runs over the flattened rows; the entries it
    # writes across two rows are each row's ends, which must be
    # overwritten by the one-sided formulas
    rng = np.random.default_rng(7)
    for n in (smallest, smallest + 1, 33):
        grid = Grid(1.0, n)
        v = rng.standard_normal((5, n))
        if dtype is complex:
            v = v + 1j * rng.standard_normal((5, n))
        v = STACKS[layout](v)
        expected = np.stack([row(r, grid.h) for r in v])
        got = stencil(v, grid)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert stencil(v[2], grid).tobytes() == expected[2].tobytes()


def test_laplacian_fd_second_order():
    errs = []
    for nx in (33, 65, 129):
        grid = Grid(1.0, nx)
        v = np.sin(np.pi * grid.nodes)
        exact = -np.pi**2 * v
        errs.append(np.max(np.abs(laplacian_fd(v, grid) - exact)))
    order = np.log2(errs[1] / errs[2])
    assert order == pytest.approx(2.0, abs=0.3)


def test_dirichlet_operator_eigenvector():
    grid = Grid(1.0, 65)
    op = assemble_laplacian(grid, DIRICHLET, DIRICHLET, m=1, omega=1.0)
    v = np.sin(np.pi * grid.nodes)
    # discrete -Laplacian eigenvalue of sin(pi x) on a uniform grid
    h = grid.h
    lam = 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2
    applied = apply(op, v.astype(complex))
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
    applied = apply(op, v)
    np.testing.assert_allclose(applied.real, k**2 * v.real, atol=5e-3)


def test_restrict_extend_round_trip():
    grid = Grid(1.0, 17)
    op = assemble_laplacian(grid, DIRICHLET, DIRICHLET, m=1, omega=1.0)
    full = np.arange(17, dtype=complex)
    reduced = op.restrict(full)
    assert reduced.shape == (15,)
    back = op.extend(reduced)
    assert back[0] == 0 and back[-1] == 0
    np.testing.assert_array_equal(back[1:-1], full[1:-1])


ENDPOINTS = (DIRICHLET, NEUMANN,
             BoundaryCondition(BCKind.IMPEDANCE, gamma=2.0),
             BoundaryCondition(BCKind.ABSORBING, beta=1.0))


@pytest.mark.parametrize("left", ENDPOINTS)
@pytest.mark.parametrize("right", ENDPOINTS)
def test_restrict_extend_by_slice_equal_the_fancy_index_forms(left, right):
    grid = Grid(1.0, 9)
    op = assemble_laplacian(grid, left, right, m=np.arange(3), omega=1.0)
    # a Dirichlet endpoint's node is eliminated
    active = np.arange(int(left.is_dirichlet), 9 - int(right.is_dirichlet))
    np.testing.assert_array_equal(op.active, active)
    rng = np.random.default_rng(0)
    full = rng.normal(size=(3, 9)) + 1j * rng.normal(size=(3, 9))
    reduced = op.restrict(full)
    np.testing.assert_array_equal(reduced, full[..., active])
    fancy = np.zeros_like(full)
    fancy[..., active] = reduced
    extended = op.extend(reduced)
    assert extended.dtype == fancy.dtype
    np.testing.assert_array_equal(extended, fancy)
    np.testing.assert_array_equal(op.restrict(full[0].real),
                                  full[0].real[active])
    # the Robin u_t diagonal: 2 beta / h at a Robin end, else 0, which
    # harmonic m's diagonal carries as i m omega d_beta
    omega = 1.7
    ops = assemble_laplacian(grid, left, right, m=np.arange(4), omega=omega)
    d_beta = np.zeros(9)
    for node, bc in ((0, left), (-1, right)):
        if not bc.is_dirichlet:
            d_beta[node] = 2.0 * bc.beta / grid.h
    np.testing.assert_array_equal(ops.d_beta, d_beta[active])
    mean = assemble_laplacian(grid, left, right, m=0, omega=omega)
    np.testing.assert_allclose(
        ops.bands[:, 1],
        mean.bands[1] + 1j * np.arange(4)[:, None] * omega * ops.d_beta,
        rtol=1e-15, atol=0)


def test_dual_norm_on_operator_eigenvector():
    grid = Grid(1.0, 65)
    v = np.sin(np.pi * grid.nodes).astype(complex)
    val = dual_norm_h1star(v, grid, DIRICHLET, DIRICHLET)
    h = grid.h
    lam = 4.0 / h**2 * np.sin(np.pi * h / 2) ** 2
    expected = l2_norm(v, grid) / np.sqrt(1.0 + lam)
    assert val == pytest.approx(expected, rel=1e-6, abs=0.0)


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
