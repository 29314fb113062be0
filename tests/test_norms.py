import numpy as np
import pytest

from hbwave.model import Grid, to_time_samples
from hbwave.norms import (
    l2l2_norm,
    parseval_weights,
    time_space_norm_sq,
    u0lo_norm,
    u0me_norm,
)


def l2_norm(v, grid):
    """Trapezoidal-rule L2(0, L) norm."""
    w = grid.trapezoid_weights()
    return float(np.sqrt(np.sum(w * np.abs(v) ** 2).real))


def random_field(M, nx, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(M + 1, nx)) + 1j * rng.normal(size=(M + 1, nx))
    c[0] = c[0].real
    return c


def test_parseval_weights():
    np.testing.assert_array_equal(parseval_weights(3), [1.0, 2.0, 2.0, 2.0])


def test_l2l2_matches_brute_force_time_quadrature():
    grid = Grid(1.0, 9)
    u = random_field(3, 9, seed=4)
    T = 2 * np.pi
    omega = 1.0
    nt = 256
    samples = to_time_samples(u, nt)
    brute = np.sqrt(sum(l2_norm(samples[k], grid) ** 2 for k in range(nt))
                    * T / nt)
    assert l2l2_norm(u, grid, omega, T) == pytest.approx(brute, rel=1e-12,
                                                         abs=0.0)


def test_time_derivative_weighting():
    grid = Grid(1.0, 5)
    u = np.zeros((3, 5), complex)
    u[2] = 1.0
    omega = 1.5
    base = time_space_norm_sq(u, grid, omega, 4.0, t_order=0)
    deriv = time_space_norm_sq(u, grid, omega, 4.0, t_order=1)
    assert deriv == pytest.approx((2 * omega) ** 2 * base)


def test_norm_hierarchy():
    grid = Grid(1.0, 33)
    u = random_field(3, 33, seed=9)
    omega, T = 1.0, 2 * np.pi
    assert (l2l2_norm(u, grid, omega, T)
            <= u0lo_norm(u, grid, omega, T)
            <= u0me_norm(u, grid, omega, T))


def test_norms_are_absolutely_homogeneous():
    grid = Grid(1.0, 17)
    u = random_field(2, 17, seed=1)
    scaled = u * -3.0
    assert u0lo_norm(scaled, grid, 1.0, 2 * np.pi) == pytest.approx(
        3.0 * u0lo_norm(u, grid, 1.0, 2 * np.pi))


@pytest.mark.parametrize("spatial", [None, "H1_semi", "laplacian",
                                     "grad_laplacian"])
def test_vectorised_norm_matches_per_harmonic_loop(spatial):
    from hbwave.spatial import gradient, laplacian_fd

    grid = Grid(1.0, 33)
    u = random_field(5, 33, seed=3)
    omega, T = 1.3, 2.0
    transform = {
        None: lambda c: c,
        "H1_semi": lambda c: gradient(c, grid),
        "laplacian": lambda c: laplacian_fd(c, grid),
        "grad_laplacian": lambda c: gradient(laplacian_fd(c, grid), grid),
    }[spatial]
    w = parseval_weights(len(u) - 1)
    for k in range(4):
        loop = T * sum(w[m] * (m * omega) ** (2 * k)
                       * l2_norm(transform(u[m]), grid) ** 2
                       for m in range(len(u)))
        assert time_space_norm_sq(transform(u), grid, omega, T, k) == (
            pytest.approx(loop, rel=1e-13, abs=0.0))


@pytest.mark.parametrize("layout", ["real", "complex", "strided"])
@pytest.mark.parametrize("with_grad", [False, True])
@pytest.mark.parametrize("M", [0, 1, 8, 32])
def test_u0lo_norm_matches_its_term_by_term_definition(M, with_grad, layout):
    # u0lo_norm squares the float view of a contiguous copy; a real field,
    # or a strided one, must give the same sum
    from hbwave.spatial import gradient

    grid = Grid(1.0, 21)
    u = random_field(M, 42 if layout == "strided" else 21, seed=M)
    u = {"real": np.ascontiguousarray(u.real), "complex": u,
         "strided": u[:, ::2]}[layout]
    assert u.flags.c_contiguous == (layout != "strided")
    omega, T = 1.7, 3.0
    sq = (sum(time_space_norm_sq(u, grid, omega, T, k) for k in range(3))
          + sum(time_space_norm_sq(gradient(u, grid), grid, omega, T, k)
                for k in range(2)))
    grad = None
    if with_grad:
        grad = gradient(u, grid)
        if layout == "strided":
            grad = np.asfortranarray(grad)
    assert u0lo_norm(u, grid, omega, T, grad) == pytest.approx(
        np.sqrt(sq), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("scale", [1e160, 1e300, 1e-160, 1e-300])
def test_u0lo_norm_holds_where_a_square_overflows(scale):
    # a square of an entry past about 1e154 overflows, and a sum of squares
    # of entries below about 1e-154 loses digits (below 1e-162, all of
    # them); the norm is taken again over the fields divided by their
    # largest entry
    grid = Grid(1.0, 21)
    u = random_field(4, 21)
    with np.errstate(over="ignore"):
        big = u0lo_norm(scale * u, grid, 1.7, 3.0)
    assert big == pytest.approx(scale * u0lo_norm(u, grid, 1.7, 3.0),
                                rel=1e-13, abs=0.0)
