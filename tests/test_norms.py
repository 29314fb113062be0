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
from hbwave.spatial import l2_norm


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
    assert l2l2_norm(u, grid, omega, T) == pytest.approx(brute, rel=1e-12)


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
        assert time_space_norm_sq(u, grid, omega, T, k, spatial) == (
            pytest.approx(loop, rel=1e-13))


@pytest.mark.parametrize("M, seed", [(0, 5), (1, 6), (7, 7)])
def test_u0lo_norm_matches_its_term_by_term_definition(M, seed):
    grid = Grid(1.0, 21)
    u = random_field(M, 21, seed=seed)
    omega, T = 1.7, 3.0
    sq = (sum(time_space_norm_sq(u, grid, omega, T, k) for k in range(3))
          + sum(time_space_norm_sq(u, grid, omega, T, k, "H1_semi")
                for k in range(2)))
    assert u0lo_norm(u, grid, omega, T) == pytest.approx(np.sqrt(sq),
                                                         rel=1e-13)
