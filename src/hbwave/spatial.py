"""Discrete spatial operators: the negative Laplacian with per-harmonic
Robin/Dirichlet boundary rows, finite-difference derivatives, the
discrete H^1-dual norm, and the package's one linear-solve kernel.

Robin rows use ghost-node elimination of the central stencil, so the
operator stays tridiagonal (complex for m >= 1 with an absorbing
endpoint).  Over the reduced (non-Dirichlet) nodes it is stored in LAPACK
(1, 1) band form, one C-contiguous (3, ..., nr) array: row 0 the
super-diagonal, row 1 the diagonal, row 2 the sub-diagonal, with the unused
corners [0, ..., 0] and [2, ..., -1] zero, so a stack of harmonics,
flattened, is the (3, N) band storage of its block-diagonal matrix.
Assembling all M+1 harmonics, applying them and solving with them each cost
O(M nx); every solve goes through `tridiagonal_solver` (LAPACK
?gttrf/?gttrs), and no nx x nx matrix is formed.  The routines are the ones
in the OpenBLAS that numpy's wheel bundles, called through ctypes and
looked up on the first solve, so importing the package or validating a
config loads no linear-algebra library beyond numpy.  A numpy without them
falls back to scipy's wrappers of the same routines (`_FallbackFactors`),
imported only then.
"""
from __future__ import annotations

import ctypes
import functools

import numpy as np

from .model import BoundaryCondition, Grid


def band_product(bands: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Tridiagonal (3, ..., n) bands times v, over the flat (3, N) bands."""
    # the zero corners make every term between two blocks zero
    b, x = bands.reshape(3, -1), np.reshape(v, -1)
    out = b[1] * x
    out[1:] += b[2, :-1] * x[:-1]
    out[:-1] += b[0, 1:] * x[1:]
    return out.reshape(np.shape(v))


def scale_rows(bands: np.ndarray, s: np.ndarray) -> np.ndarray:
    """diag(s) times C-contiguous tridiagonal (3, ..., n) bands, for scales
    s of shape (..., n), in place; returns `bands`."""
    if not bands.flags.c_contiguous:    # its flat view would be a copy
        raise ValueError("scale_rows needs C-contiguous bands")
    # band k of column j lies in row j + k - 1, so the super-diagonal from
    # column 1 takes s[:-1] and the sub-diagonal up to column N - 2 takes
    # s[1:]; the corners, which take the neighbour block's s, are zeroed
    # again, as a -0 or NaN left there would join two blocks
    b, s = bands.reshape(3, -1), np.reshape(s, -1)
    b[0, 1:] *= s[:-1]
    b[1] *= s
    b[2, :-1] *= s[1:]
    bands[0, ..., 0] = bands[2, ..., -1] = 0.0
    return bands


def one_norms(bands: np.ndarray) -> np.ndarray:
    """The 1-norm, the largest column sum, of each tridiagonal block of
    (3, ..., n) bands; column j of a block is bands[:, ..., j]."""
    with np.errstate(all="ignore"):
        return np.abs(bands).sum(axis=0).max(axis=-1)


class SingularBlock(np.linalg.LinAlgError):
    """?gttrf met a zero pivot; `block` indexes the block that holds it."""

    def __init__(self, block: int):
        super().__init__(f"zero pivot in block {block}")
        self.block = block


_TYPES = {np.dtype(np.float64): "d", np.dtype(np.complex128): "z"}
_ROUTINES = ("gttrf", "gttrs", "gtcon")


# A zero-length ctypes array over a C-contiguous array's buffer: as a
# foreign-call argument it is the buffer's address, and it keeps a reference
# to the array.  The array type is built once, here.
_pointer = (ctypes.c_char * 0).from_buffer


def _int64_ref(value: int):
    return ctypes.byref(ctypes.c_int64(value))


# LAPACK's character arguments, and the hidden length gfortran appends
_NORM_1, _NO_TRANSPOSE = ctypes.c_char_p(b"1"), ctypes.c_char_p(b"N")
_CHAR_LEN = ctypes.c_size_t(1)


@functools.cache
def _bundled_lapack():
    """numpy's own ?gttrf/?gttrs/?gtcon as {"dgttrf": function, ...}, or
    None when numpy's library does not export them all.

    numpy's Linux wheels link their core extension against a bundled ILP64
    OpenBLAS, loaded with numpy, whose symbols carry a `scipy_` prefix and a
    `_64_` suffix; the extension's handle finds them.  That layout is not a
    numpy API: a numpy built against another BLAS falls back to
    `_FallbackFactors`.
    """
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        funcs = {t + name: getattr(lib, f"scipy_{t}{name}_64_")
                 for t in _TYPES.values() for name in _ROUTINES}
    except (ImportError, OSError, AttributeError):
        return None
    # no argtypes: they would check only that each argument is a pointer,
    # which _BundledFactors builds itself, and cost 3 us a solve at n = 129
    for func in funcs.values():
        func.restype = None
    return funcs


class _BundledFactors:
    """?gttrf factors of one band array, by numpy's bundled LAPACK.

    ctypes checks nothing, so the arguments are made safe here: the LU
    arrays are this object's own contiguous copies in the routines' dtype,
    and each solve checks the length of its right-hand side and copies it
    into a fresh array of that dtype; the buffer of an in-place solve is
    checked once, by `tridiagonal_solver`, which binds it.  The pointers are
    bound once, into the LU arrays, which this object, its bound methods
    and its in-place solves keep alive.
    """

    def __init__(self, lapack, dl, d, du):
        n, self.dtype = d.size, d.dtype
        t = _TYPES[self.dtype]
        self._gttrs, self._gtcon = lapack[t + "gttrs"], lapack[t + "gtcon"]
        self.n, self._iwork = n, t == "d"       # only dgtcon takes IWORK
        self.lu = (dl, d, du, np.zeros(max(n - 2, 0), self.dtype),
                   np.zeros(n, np.int64))
        self._lu = [_pointer(a) for a in self.lu]
        self._n, self._ldb = _int64_ref(n), _int64_ref(max(n, 1))
        self._one = _int64_ref(1)       # the NRHS of a vector's solve
        info = ctypes.c_int64()
        lapack[t + "gttrf"](self._n, *self._lu, ctypes.byref(info))
        self.info = info.value
        # what ?gttrs and ?gtcon report is 0: their arguments are valid
        self._info = _int64_ref(0)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """?gttrs for (n,) or (n, k) right-hand sides b."""
        # the one copy: C-ordered (k, n) is the Fortran (n, k) LAPACK reads
        x = np.asarray(b).T.astype(self.dtype, order="C")
        if x.ndim not in (1, 2) or x.shape[-1] != self.n:
            raise ValueError(f"right-hand side of shape {np.shape(b)} for "
                             f"a system of order {self.n}")
        nrhs = self._one if x.ndim == 1 else _int64_ref(x.shape[0])
        self._gttrs(_NO_TRANSPOSE, self._n, nrhs, *self._lu, _pointer(x),
                    self._ldb, self._info, _CHAR_LEN)
        return x.T

    def in_place(self, x: np.ndarray):
        """The ?gttrs solve that overwrites x with its solution: x is a
        C-contiguous (n,) array of this dtype, checked by the caller.  Its
        arguments are built here, once, so a solve is the foreign call."""
        return functools.partial(self._gttrs, _NO_TRANSPOSE, self._n,
                                 self._one, *self._lu, _pointer(x),
                                 self._ldb, self._info, _CHAR_LEN)

    def rcond(self, anorm: float) -> float:
        """?gtcon reciprocal 1-norm condition estimate, given the 1-norm."""
        rcond = ctypes.c_double()
        work = [np.zeros(2 * self.n, self.dtype)]
        if self._iwork:
            work.append(np.zeros(self.n, np.int64))
        self._gtcon(_NORM_1, self._n, *self._lu,
                    ctypes.byref(ctypes.c_double(anorm)), ctypes.byref(rcond),
                    *map(_pointer, work), self._info, _CHAR_LEN)
        return rcond.value


class _FallbackFactors:
    """The same factors by scipy's LAPACK wrappers, for a numpy without the
    bundled routines; scipy's f2py checks the arguments itself."""

    def __init__(self, dl, d, du):
        import scipy.linalg
        gttrf, self._gttrs, self._gtcon = scipy.linalg.get_lapack_funcs(
            _ROUTINES, (d,))
        # the bands are this object's own copies: f2py need not copy them
        *self.lu, self.info = gttrf(dl, d, du, overwrite_dl=1, overwrite_d=1,
                                    overwrite_du=1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._gttrs(*self.lu, b)[0]

    def in_place(self, x: np.ndarray):
        # f2py writes a contiguous b of the routine's dtype in place
        return functools.partial(self._gttrs, *self.lu, x, overwrite_b=1)

    def rcond(self, anorm: float) -> float:
        return self._gtcon(*self.lu, anorm)[0]


def _gttrf(bands: np.ndarray):
    """LAPACK ?gttrf of real or complex (3, ..., n) bands, flattened to the
    (3, N) band storage of one matrix of order N."""
    dtype = np.result_type(bands.dtype, np.float64)
    if bands.shape[:1] != (3,) or dtype not in _TYPES:
        raise ValueError(f"need (3, ..., n) real or complex bands, got "
                         f"shape {bands.shape} of {bands.dtype}")
    # ?gttrf overwrites its arguments: it factors one C-contiguous copy of
    # the bands, whose flattened rows are the super-diagonal, the diagonal
    # and the sub-diagonal, each off-diagonal less one end entry
    du, d, dl = np.array(bands, dtype, order="C").reshape(3, -1)
    dl, du = dl[:-1], du[1:]
    lapack = _bundled_lapack()
    if lapack is None:
        return _FallbackFactors(dl, d, du)
    return _BundledFactors(lapack, dl, d, du)


def tridiagonal_solver(bands: np.ndarray, buffer: np.ndarray | None = None):
    """Factor real or complex tridiagonal bands once (?gttrf) and return the
    function that solves with them (?gttrs).

    `bands` is one (3, n) block or a (3, ..., n) stack of blocks with zero
    corners, factored whole as the matrix of order N whose band storage is
    the flat (3, N) bands.  That is exact: no entry couples two blocks, and
    LAPACK eliminates nothing across a zero sub-diagonal, so each block's
    finite solution is bit-identical to its own.  (A block that overflows
    spreads NaN to its neighbours, as 0 * inf at the zero corners.)  The
    solve takes right-hand sides of shape bands.shape[1:], or that plus a
    trailing axis of k of them.  A zero pivot raises SingularBlock.  The
    returned solve keeps the factors alive.

    With a `buffer`, the caller's writable C-contiguous array of shape
    bands.shape[1:], in the bands' dtype (complex for complex bands, else
    float64), the solve takes no argument: it overwrites the right-hand
    side the caller wrote into `buffer` with the solution, which is
    bit-identical to the other solve's.  The buffer is checked here, before
    the factorization, and bound once, so a solve copies nothing: it is the
    foreign call alone.  The factors hold one copy of the bands and the
    fill-in and pivots ?gttrf adds.
    """
    shape = bands.shape[1:]
    if buffer is not None:
        dtype = np.result_type(bands.dtype, np.float64)
        if not (isinstance(buffer, np.ndarray) and buffer.shape == shape
                and buffer.dtype == dtype and buffer.flags.c_contiguous
                and buffer.flags.writeable):
            raise ValueError(
                f"need a writable C-contiguous buffer of shape {shape} and "
                f"dtype {dtype}, got a {type(buffer).__name__} of shape "
                f"{np.shape(buffer)}, dtype {getattr(buffer, 'dtype', None)}")
    factors = _gttrf(bands)
    if factors.info > 0:
        raise SingularBlock((factors.info - 1) // bands.shape[-1])
    if buffer is not None:
        return factors.in_place(buffer.reshape(-1))
    # the block axes flattened, a trailing axis of k right-hand sides kept
    return lambda rhs: factors.solve(np.reshape(
        rhs, (-1, *np.shape(rhs)[len(shape):]))).reshape(np.shape(rhs))


def condition_estimate(bands: np.ndarray) -> float:
    """LAPACK ?gtcon estimate of the 1-norm condition number of one (3, n)
    band array; inf when it is singular."""
    # the condition number is scale-free; a unit largest entry keeps the
    # inverse the estimate works with in range
    scale = np.abs(bands).max()
    if scale > 0:
        bands = bands / scale
    rcond = _gttrf(bands).rcond(one_norms(bands))
    return 1.0 / rcond if rcond > 0 else np.inf


class SpatialOperator:
    """Reduced discrete -Laplacian of harmonic m (or of each m in an array).

    Dirichlet nodes are eliminated; the others are the contiguous run
    `span` of grid nodes, and `active` lists their indices.  `d_beta` is
    the Robin u_t diagonal, 2 beta / h at a Robin end and 0 elsewhere: in
    time, -Lap u = (the m = 0 operator) u + d_beta u_t, and harmonic m's
    diagonal is the m = 0 one plus i m omega d_beta.
    """

    def __init__(self, bands: np.ndarray, span: slice, grid: Grid,
                 d_beta: np.ndarray):
        self.bands = bands      # (3, nr) or (3, len(m), nr), see module doc
        self.span = span        # the non-Dirichlet nodes, lo:hi
        self.grid = grid
        self.d_beta = d_beta    # (nr,)

    @property
    def active(self) -> np.ndarray:
        return np.arange(self.span.start, self.span.stop)

    def restrict(self, v_full: np.ndarray) -> np.ndarray:
        """The non-Dirichlet nodes of v_full: a view, not a copy."""
        return np.asarray(v_full)[..., self.span]

    def extend(self, v_reduced: np.ndarray) -> np.ndarray:
        out = np.zeros(v_reduced.shape[:-1] + (self.grid.nx,), dtype=complex)
        out[..., self.span] = v_reduced
        return out


def assemble_laplacian(grid: Grid, bc_left: BoundaryCondition,
                       bc_right: BoundaryCondition, m,
                       omega: float) -> SpatialOperator:
    """Second-order -d_xx with the harmonic-m Robin data i m omega beta + gamma.

    `m` is one harmonic or an array of them, whose bands are (3, len(m), nr).
    """
    m = np.asarray(m)
    nx, h = grid.nx, grid.h
    inv_h2 = 1.0 / h**2
    span = slice(int(bc_left.is_dirichlet), nx - int(bc_right.is_dirichlet))
    bands = np.empty((3, *m.shape, span.stop - span.start), dtype=complex)
    bands[0] = bands[2] = -inv_h2
    bands[1] = 2.0 * inv_h2
    d_beta = np.zeros(bands.shape[-1])
    # a Robin end's ghost node doubles its neighbour's entry, which lies in
    # band `band` of column `col`; a Dirichlet end's node is not stored
    for bc, node, band, col in ((bc_left, 0, 0, 1), (bc_right, -1, 2, -2)):
        if not bc.is_dirichlet:
            q = bc.robin_coefficient(m, omega)
            bands[1, ..., node] = (2.0 + 2.0 * h * q) * inv_h2
            bands[band, ..., col] = -2.0 * inv_h2
            d_beta[node] = 2.0 * bc.beta / h
    bands[0, ..., 0] = bands[2, ..., -1] = 0.0
    return SpatialOperator(bands, span, grid, d_beta)


def _flat(v: np.ndarray):
    """The field g to fill, shaped like v, and the C-contiguous rows of v
    and of g as one 1-D array each.  A stencil taken in one pass over the
    flat rows needs no iterator buffer, which numpy gives each operand of a
    strided 2-D ufunc; the entries it writes across two rows are the rows'
    end entries, which the one-sided formulas then overwrite."""
    g = np.empty(v.shape, np.result_type(v, float))
    return g, np.ascontiguousarray(v).reshape(-1), g.reshape(-1)


def gradient(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order first derivative along the last axis."""
    v = np.asarray(v)
    h = grid.h
    g, vf, gi = _flat(v)
    gi = gi[1:-1]
    np.subtract(vf[2:], vf[:-2], out=gi)
    gi /= 2 * h
    g[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * h)
    g[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * h)
    return g


def laplacian_fd(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Second-order second derivative along the last axis (one-sided ends)."""
    v = np.asarray(v)
    h = grid.h
    g, vf, gi = _flat(v)
    gi = gi[1:-1]
    np.multiply(2, vf[1:-1], out=gi)
    np.subtract(vf[2:], gi, out=gi)
    gi += vf[:-2]
    gi /= h**2
    g[..., 0] = (2 * v[..., 0] - 5 * v[..., 1] + 4 * v[..., 2]
                 - v[..., 3]) / h**2
    g[..., -1] = (2 * v[..., -1] - 5 * v[..., -2] + 4 * v[..., -3]
                  - v[..., -4]) / h**2
    return g


def dual_norm_h1star(v: np.ndarray, grid: Grid, bc_left: BoundaryCondition,
                     bc_right: BoundaryCondition):
    """Discrete H^1-dual norm: sqrt(<v, z>) with (I - Lap_h) z = v.

    `v` is one nodal vector, or a stack of them along the leading axis, which
    gives one norm per row from a single factorization.  Uses the mean-mode
    (m = 0) boundary rows; the identity shift makes the operator nonsingular
    for every endpoint combination.
    """
    op = assemble_laplacian(grid, bc_left, bc_right, 0, omega=1.0)
    op.bands[1] += 1.0
    vr = op.restrict(np.asarray(v, dtype=complex))
    z = tridiagonal_solver(op.bands)(vr.T).T
    w = op.restrict(grid.trapezoid_weights())
    val = np.sum(w * np.conj(vr) * z, axis=-1).real
    return np.sqrt(np.maximum(val, 0.0))
