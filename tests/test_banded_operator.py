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
    band_product,
    condition_estimate,
    one_norms,
    scale_rows,
    tridiagonal_solver,
)
from test_studies import END_PAIRS, variable_model

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
    applied = op.extend(band_product(op.bands, op.restrict(v)))
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
    assert np.all(bands[0, :, 0] == 0)
    assert np.all(bands[2, :, -1] == 0)


@pytest.mark.parametrize("bc_left, bc_right", ENDPOINTS)
def test_stacked_solve_equals_separate_block_solves(bc_left, bc_right):
    model = make_model(bc_left, bc_right)
    rng = np.random.default_rng(20)
    f = rng.normal(size=(6, NX)) + 1j * rng.normal(size=(6, NX))
    f[0] = f[0].real
    op, bands = assemble_harmonic_system(model, len(f) - 1)
    rhs = -op.restrict(f)
    separate = np.array([scipy.linalg.solve_banded((1, 1), bands[:, m], rhs[m])
                         for m in range(len(f))])
    np.testing.assert_array_equal(tridiagonal_solver(bands)(rhs), separate)
    separate[0] = separate[0].real
    np.testing.assert_array_equal(solve_linear_mgt(f, model),
                                  op.extend(separate))


def scaled_copy_bands(model, M):
    """A_0..A_M by an out-of-place formula of its own: a separate -Lap_m
    stack times a (3, M+1, nr) stack of row scales s_m, each band's shifted
    by np.roll to its rows, plus the diagonal shift."""
    p = model.params
    m = np.arange(M + 1)
    mw = m * p.omega
    op = assemble_laplacian(model.grid, model.bc_left, model.bc_right, m,
                            p.omega)
    s = op.restrict(p.c2) + 1j * mw[:, None] * op.restrict(p.b)
    # band k of column j lies in row j + k - 1; the entries np.roll wraps
    # around meet the zero corners
    bands = op.bands * np.stack(
        [np.roll(s, 1, axis=-1), s, np.roll(s, -1, axis=-1)], axis=0)
    bands[1] += (-1j * p.tau * mw**3 - mw**2)[:, None]
    return bands


@pytest.mark.parametrize("backend", ["bundled", "fallback"])
@pytest.mark.parametrize("left, right", END_PAIRS,
                         ids=[f"{left}-{right}" for left, right in END_PAIRS])
def test_in_place_assembly_and_stacked_factors_are_bit_identical(
        monkeypatch, left, right, backend):
    # the bands scaled in place equal the out-of-place product bit for bit,
    # the zero corners included, and the stack factored from one copy of
    # each band solves each block as that block's own factorization does
    if backend == "fallback":
        monkeypatch.setattr(spatial, "_bundled_lapack", lambda: None)
    rng = np.random.default_rng(28)
    for M in range(1, 9):
        model = variable_model(left, right, nx=33, M=M)
        _, bands = assemble_harmonic_system(model, M)
        np.testing.assert_array_equal(
            np.ascontiguousarray(bands).view(np.uint64),
            scaled_copy_bands(model, M).view(np.uint64))
        rhs = rng.normal(size=bands.shape[1:]) + 1j * rng.normal(
            size=bands.shape[1:])
        np.testing.assert_array_equal(
            tridiagonal_solver(bands)(rhs),
            [tridiagonal_solver(bands[:, m])(rhs[m]) for m in range(M + 1)])


@pytest.mark.parametrize("left, right", END_PAIRS,
                         ids=[f"{left}-{right}" for left, right in END_PAIRS])
def test_assembled_stacks_are_contiguous_and_band_first(left, right):
    # scale_rows and the factorization read the flattened (3, N) bands, so
    # every stack is one C-contiguous (3, M+1, nr) array, scaled in place
    M = 4
    model = variable_model(left, right, nx=33, M=M)
    p = model.params
    op = assemble_laplacian(model.grid, model.bc_left, model.bc_right,
                            np.arange(M + 1), p.omega)
    op_h, bands = assemble_harmonic_system(model, M)
    nr = len(op.active)
    for b in (op.bands, bands):
        assert b.shape == (3, M + 1, nr) and b.flags.c_contiguous
    assert bands is op_h.bands


def test_scale_rows_refuses_a_strided_stack():
    # a strided view would be scaled through a copy, leaving it unscaled
    bands = np.ones((3, 4, 10))
    with pytest.raises(ValueError, match="C-contiguous"):
        scale_rows(bands[..., 1:-1], np.full((4, 8), 2.0))
    with pytest.raises(ValueError, match="C-contiguous"):
        scale_rows(np.ones((4, 3, 10)).transpose(1, 0, 2),
                   np.full((4, 10), 2.0))
    assert (bands == 1.0).all()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("K", [1, 2, 33])
@pytest.mark.parametrize("dtype", [float, complex])
def test_flat_band_passes_equal_the_blockwise_ones(dtype, K):
    # one pass over the flattened (3, K nr) bands of a zero-cornered stack
    # gives, bit for bit, what each (3, nr) block gives alone: the corners
    # make every term between two blocks zero, and scale_rows leaves them
    # zero whatever sign the scales have
    rng = np.random.default_rng(37)
    nr = 19
    stack = random_bands(rng, nr, dtype, shape=(K,))
    v = rng.normal(size=(K, nr)) + (
        1j * rng.normal(size=(K, nr)) if dtype is complex else 0.0)
    s = rng.normal(size=(K, nr)) + (
        1j * rng.normal(size=(K, nr)) if dtype is complex else 0.0)
    blocks = [stack[:, k].copy() for k in range(K)]
    np.testing.assert_array_equal(
        _bits(band_product(stack, v)),
        _bits([band_product(b, v[k]) for k, b in enumerate(blocks)]))
    np.testing.assert_array_equal(
        _bits(one_norms(stack)), _bits([one_norms(b) for b in blocks]))
    scaled = scale_rows(stack.copy(), s)
    np.testing.assert_array_equal(
        _bits(scaled),
        _bits(np.stack([scale_rows(b, s[k]) for k, b in enumerate(blocks)],
                       axis=1)))


@pytest.mark.parametrize("m", [0, 1, 5])
@pytest.mark.parametrize("bc_left, bc_right", ENDPOINTS)
def test_condition_estimate_is_the_dense_one_norm_condition(bc_left,
                                                            bc_right, m):
    _, bands = assemble_harmonic_system(make_model(bc_left, bc_right), 5)
    block = bands[:, m]
    dense = (np.diag(block[1]) + np.diag(block[0, 1:], 1)
             + np.diag(block[2, :-1], -1))
    exact = np.linalg.cond(dense, 1)
    # ?gtcon estimates ||A^-1||_1 from below (Hager-Higham); it is exact to
    # 1e-13 on 23 of these 24 blocks and 1.9e-5 low on (absorbing, m=1)
    assert exact * (1 - 1e-4) <= condition_estimate(block) <= (
        exact * (1 + 1e-12))


def test_zero_pivot_names_its_block():
    bands = np.tile(np.array([[[0.0, -1.0, -1.0]], [[2.0, 2.0, 2.0]],
                              [[-1.0, -1.0, 0.0]]]), (1, 4, 1))
    # block 2 is zero: the stack's first zero pivot is its row 7 of 12, and
    # (7 - 1) // 3 names the block
    bands[:, 2, :] = 0.0
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
    bands = np.moveaxis(bands, -2, 0).copy()    # (3, *shape, n), band first
    bands[1] += 4.0      # keeps every block well conditioned
    bands[0, ..., 0] = 0.0
    bands[2, ..., -1] = 0.0
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
                for m, (lu, gttrs, _) in enumerate(
                    map(scipy_factors, stack.transpose(1, 0, 2)))]
    np.testing.assert_array_equal(tridiagonal_solver(stack)(rhs), separate)


def test_zero_pivot_names_its_block_in_either_backend(backend):
    bands = random_bands(np.random.default_rng(32), 6, complex, shape=(5,))
    bands[:, 3] = 0.0
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
    # own them, or a solve after a collection reads freed memory, and so
    # must the in-place solve, whose arguments are bound once
    rng = np.random.default_rng(35)
    for dtype, shape in ((float, ()), (complex, ()), (complex, (4,))):
        bands = random_bands(rng, 64, dtype, shape)
        rhs = rng.normal(size=shape + (64,))
        expected = tridiagonal_solver(bands.copy())(rhs)
        solve = tridiagonal_solver(bands.copy())
        buffer = np.empty(rhs.shape, bands.dtype)
        solve_in_place = tridiagonal_solver(bands.copy(), buffer)
        del bands
        gc.collect()
        # reuse the freed memory, if any, with other values
        junk = [np.full(64 * 3, np.nan) for _ in range(64)]
        np.testing.assert_array_equal(solve(rhs), expected)
        buffer[...] = rhs
        solve_in_place()
        np.testing.assert_array_equal(buffer, expected)
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


# --- the in-place solve ------------------------------------------------------

@pytest.fixture(params=["bundled", "fallback"])
def factors_class(request, monkeypatch):
    """The factors class that runs the in-place solve: numpy's bundled
    LAPACK, or scipy's wrappers when the loader finds nothing."""
    if request.param == "fallback":
        monkeypatch.setattr(spatial, "_bundled_lapack", lambda: None)
        return spatial._FallbackFactors
    return spatial._BundledFactors


@pytest.mark.parametrize("shape", [(), (6,)], ids=["block", "stack"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_in_place_solve_is_bit_identical(factors_class, dtype, shape):
    rng = np.random.default_rng(36)
    bands = random_bands(rng, 23, dtype, shape)
    assert isinstance(spatial._gttrf(bands.reshape(3, -1, 23)[:, 0]),
                      factors_class)
    buffer = np.empty(shape + (23,), bands.dtype)
    solve = tridiagonal_solver(bands, buffer)
    for _ in range(3):      # one binding serves every solve
        rhs = rng.normal(size=buffer.shape) + (
            1j * rng.normal(size=buffer.shape) if dtype is complex else 0.0)
        buffer[...] = rhs
        solve()
        np.testing.assert_array_equal(buffer, tridiagonal_solver(bands)(rhs))


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("bands, buffer", [
    (np.ones((3, 5)), np.zeros(4)),             # too short
    (np.ones((3, 5)), np.zeros(6)),             # too long
    (np.ones((3, 5)), np.zeros((5, 1))),
    (np.ones((3, 5)), np.zeros(5, complex)),    # not the bands' dtype
    (np.ones((3, 5)), np.zeros(5, np.float32)),
    (np.ones((3, 5), complex), np.zeros(5)),
    (np.ones((3, 5)), np.zeros(10)[::2]),       # not contiguous
    (np.ones((3, 5)), read_only(np.zeros(5))),
    (np.ones((3, 5)), [0.0] * 5),               # not an array
    (np.ones((3, 2, 5)), np.zeros(10)),         # a stack's flat buffer
], ids=["short", "long", "2-d", "complex", "float32", "real-for-complex",
        "strided", "read-only", "list", "stack-flat"])
def test_bad_buffer_raises_before_any_foreign_call(monkeypatch, bands,
                                                    buffer):
    bands = bands.copy()
    bands[1] = 4.0
    calls = []
    lapack = spatial._bundled_lapack()
    monkeypatch.setattr(spatial, "_bundled_lapack", lambda: {
        name: lambda *args, name=name: calls.append(name) for name in lapack})
    with pytest.raises(ValueError, match="buffer"):
        tridiagonal_solver(bands, buffer)
    assert calls == []
