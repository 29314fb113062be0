"""The banded -Laplacian and harmonic systems against dense references
built here from the finite-difference stencil, and the tridiagonal kernel
against scipy's LAPACK wrappers."""
import gc

import numpy as np
import pytest
import scipy.linalg

from hbwave import spatial
from hbwave.linear import assemble_harmonic_system, solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    validate_model,
)
from hbwave.spatial import (
    SingularBlock,
    assemble_laplacian,
    condition_estimate,
    tridiagonal_solver,
)

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
    f = rng.normal(size=(6, NX)) + 1j * rng.normal(size=(6, NX))
    f[0] = f[0].real
    u = solve_linear_mgt(f, model)

    lap, active = dense_laplacian(model.grid, bc_left, bc_right, m, omega)
    mw = m * omega
    A = ((p.c2 + 1j * mw * p.b)[active][:, None] * lap
         + (-1j * p.tau * mw**3 - mw**2) * np.eye(len(active)))
    expected = np.zeros(NX, dtype=complex)
    expected[active] = np.linalg.solve(A, -f[m, active])
    assert np.linalg.norm(u[m] - expected) <= (
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
    f = rng.normal(size=(6, NX)) + 1j * rng.normal(size=(6, NX))
    f[0] = f[0].real
    op, bands = assemble_harmonic_system(model, len(f) - 1)
    rhs = -op.restrict(f)
    separate = np.array([scipy.linalg.solve_banded((1, 1), bands[m], rhs[m])
                         for m in range(len(f))])
    np.testing.assert_array_equal(tridiagonal_solver(bands)(rhs), separate)
    separate[0] = separate[0].real
    np.testing.assert_array_equal(solve_linear_mgt(f, model),
                                  op.extend(separate))


@pytest.mark.parametrize("m", [0, 1, 5])
@pytest.mark.parametrize("bc_left, bc_right", ENDPOINTS)
def test_condition_estimate_is_the_dense_one_norm_condition(bc_left,
                                                            bc_right, m):
    _, bands = assemble_harmonic_system(make_model(bc_left, bc_right), 5)
    block = bands[m]
    dense = (np.diag(block[1]) + np.diag(block[0, 1:], 1)
             + np.diag(block[2, :-1], -1))
    exact = np.linalg.cond(dense, 1)
    # ?gtcon estimates ||A^-1||_1 from below (Hager-Higham); it is exact to
    # 1e-13 on 23 of these 24 blocks and 1.9e-5 low on (absorbing, m=1)
    assert exact * (1 - 1e-4) <= condition_estimate(block) <= (
        exact * (1 + 1e-12))


def test_zero_pivot_names_its_block():
    bands = np.tile(np.array([[0.0, -1.0, -1.0], [2.0, 2.0, 2.0],
                              [-1.0, -1.0, 0.0]]), (4, 1, 1))
    # block 2 is zero: the stack's first zero pivot is its row 7 of 12, and
    # (7 - 1) // 3 names the block
    bands[2, :, :] = 0.0
    with pytest.raises(SingularBlock) as info:
        tridiagonal_solver(bands)
    assert info.value.block == 2


# --- the kernel against scipy's wrappers of the same LAPACK routines -------

def _missing_library(path):
    raise OSError(f"{path}: cannot open shared object file")


def _library_without_symbols(path):
    return object()


@pytest.fixture(params=["bundled", "no library", "no symbol"])
def backend(request, monkeypatch):
    """The kernel as numpy's bundled LAPACK runs it, and the scipy fallback
    that the loader takes when it finds no library or no symbol."""
    if request.param != "bundled":
        monkeypatch.setattr(spatial.ctypes, "CDLL", {
            "no library": _missing_library,
            "no symbol": _library_without_symbols}[request.param])
    spatial._bundled_lapack.cache_clear()
    yield request.param
    spatial._bundled_lapack.cache_clear()


def test_bundled_library_is_found():
    # numpy's wheels bundle it; without it only the fallback would run
    spatial._bundled_lapack.cache_clear()
    assert spatial._bundled_lapack() is not None


def test_fallback_backend_uses_scipy(backend):
    expected = (spatial._BundledFactors if backend == "bundled"
                else spatial._FallbackFactors)
    assert isinstance(spatial._gttrf(np.ones((3, 4))), expected)


def random_bands(rng, n, dtype, shape=()):
    bands = rng.normal(size=shape + (3, n))
    if dtype is complex:
        bands = bands + 1j * rng.normal(size=shape + (3, n))
    bands[..., 1, :] += 4.0      # keeps every block well conditioned
    bands[..., 0, 0] = 0.0
    bands[..., 2, -1] = 0.0
    return bands


def scipy_factors(bands):
    gttrf, gttrs, gtcon = scipy.linalg.get_lapack_funcs(
        ("gttrf", "gttrs", "gtcon"), (bands,))
    *lu, info = gttrf(bands[2, :-1], bands[1], bands[0, 1:])
    return lu, gttrs, gtcon


@pytest.mark.parametrize("dtype", [float, complex])
def test_solve_is_bit_identical_to_scipy(backend, dtype):
    rng = np.random.default_rng(30)
    bands = random_bands(rng, 40, dtype)
    lu, gttrs, _ = scipy_factors(bands)
    solve = tridiagonal_solver(bands)
    for shape in ((40,), (40, 3)):
        rhs = rng.normal(size=shape) + (
            1j * rng.normal(size=shape) if dtype is complex else 0.0)
        x = solve(rhs)
        assert x.dtype == bands.dtype and x.shape == shape
        np.testing.assert_array_equal(x, gttrs(*lu, rhs)[0])
    # a real right-hand side is cast to the bands' dtype, as scipy does
    rhs = rng.normal(size=40)
    np.testing.assert_array_equal(solve(rhs), gttrs(*lu, rhs)[0])


@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_solve_is_bit_identical_to_scipy(backend, dtype):
    rng = np.random.default_rng(31)
    stack = random_bands(rng, 17, dtype, shape=(9,))
    rhs = rng.normal(size=(9, 17)) + 1j * rng.normal(size=(9, 17))
    if dtype is float:
        rhs = rhs.real
    separate = [gttrs(*lu, rhs[m])[0]
                for m, (lu, gttrs, _) in enumerate(map(scipy_factors, stack))]
    np.testing.assert_array_equal(tridiagonal_solver(stack)(rhs), separate)


def test_zero_pivot_names_its_block_in_either_backend(backend):
    bands = random_bands(np.random.default_rng(32), 6, complex, shape=(5,))
    bands[3] = 0.0
    with pytest.raises(SingularBlock) as info:
        tridiagonal_solver(bands)
    assert info.value.block == 3


def test_condition_estimate_matches_scipy(backend):
    # 120 random matrices: the estimates agree to 1 ulp, the BLAS
    # reductions of the two OpenBLAS builds being summed differently
    rng = np.random.default_rng(33)
    for k in range(120):
        dtype = complex if k % 2 else float
        bands = random_bands(rng, 5 + k, dtype)
        bands[1] -= 4.0 * rng.uniform()     # some are ill conditioned
        scaled = bands / np.abs(bands).max()
        lu, _, gtcon = scipy_factors(scaled)
        rcond = gtcon(*lu, np.abs(scaled).sum(axis=0).max())[0]
        np.testing.assert_allclose(condition_estimate(bands), 1.0 / rcond,
                                   rtol=1e-15)


def test_singular_condition_estimate_is_inf(backend):
    bands = random_bands(np.random.default_rng(34), 8, float)
    bands[:, 4] = 0.0
    bands[0, 5] = bands[2, 3] = 0.0     # row and column 4 are zero
    assert condition_estimate(bands) == np.inf


def test_solve_keeps_its_factors_alive():
    # ctypes holds raw pointers into the LU arrays; the returned solve must
    # own them, or a solve after a collection reads freed memory
    rng = np.random.default_rng(35)
    for dtype, shape in ((float, ()), (complex, ()), (complex, (4,))):
        bands = random_bands(rng, 64, dtype, shape)
        rhs = rng.normal(size=shape + (64,))
        expected = tridiagonal_solver(bands.copy())(rhs)
        solve = tridiagonal_solver(bands.copy())
        del bands
        gc.collect()
        # reuse the freed memory, if any, with other values
        junk = [np.full(64 * 3, np.nan) for _ in range(64)]
        np.testing.assert_array_equal(solve(rhs), expected)
        del junk


@pytest.mark.parametrize("bands, rhs", [
    (np.ones((2, 5)), np.ones(5)),          # not three bands
    (np.ones((3, 5), dtype=np.longdouble), np.ones(5)),
    (np.ones((3, 5)), np.ones(4)),          # a right-hand side too short
    (np.ones((3, 5)), np.ones((6, 2))),
    (np.ones((3, 5)), np.ones((5, 2, 2))),
    (np.ones((3, 5)), np.float64(1.0)),
])
def test_bad_shapes_raise_instead_of_reaching_lapack(bands, rhs):
    bands = bands.copy()
    if bands.shape[0] == 3:
        bands[1] = 4.0
    with pytest.raises(ValueError):
        tridiagonal_solver(bands)(rhs)
