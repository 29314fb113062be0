"""Exact relations of the discrete problem, which hold to rounding whatever
the solution is: a mirrored problem has the mirrored solution, a forcing
shifted in time has the solution shifted by the same time, and the linear
solve superposes, S(f1 + a f2) = S(f1) + a S(f2).

They need no reference solution, so they see errors that tolerances and
the oracle, which shares the spatial operator, let through.  Two errors
were tried on a copy of the code: a first-order right-end row in
`spatial.gradient` raises the Kuznetsov mirror error to 8.4e-7, and a
dealiasing length of 3M - 2 samples in `model.dealiased_samples` raises
the time-shift error to 6.8e-12 - 1.1e-10, and a linear kind that solves
as Westervelt or Kuznetsov raises the superposition error to 6.7e-4 -
0.18 or 4.4e-3 - 0.060.  The bounds sit 25, 100 and 43 times above the
largest error measured here (numpy 2.4, x86-64)."""
import itertools

import numpy as np
import pytest

from hbwave.model import (BCKind, BoundaryCondition, Grid, PhysicalParams,
                          validate_model)
from hbwave.nonlinear import solve

NX, M = 129, 8
ENDS = {
    "dirichlet": BoundaryCondition(BCKind.DIRICHLET),
    "neumann": BoundaryCondition(BCKind.NEUMANN),
    "impedance": BoundaryCondition(BCKind.IMPEDANCE, gamma=1.0),
    "absorbing": BoundaryCondition(BCKind.ABSORBING, beta=1.0, gamma=0.2),
}
# the pairs validation accepts: at least one impedance or Dirichlet end
PAIRS = [(left, right) for left, right in itertools.product(ENDS, repeat=2)
         if {left, right} & {"dirichlet", "impedance"}]
KINDS = ("linear", "westervelt", "kuznetsov")
# measured 2.9e-14 to 3.9e-13 over every pair and kind
MIRROR_BOUND = 1e-11
# measured 6.0e-16 to 1.0e-15 over both kinds and both shifts
SHIFT_BOUND = 1e-13
# measured 6.6e-16 to 2.3e-14 over every pair
SUPERPOSITION_BOUND = 1e-12


def model(x, left="dirichlet", right="absorbing", mirrored=False):
    """Smooth coefficients with no mirror symmetry on the nodes x of
    [0, 1], read at 1 - x when mirrored, with the ends swapped."""
    if mirrored:
        x, left, right = 1.0 - x, right, left
    grid = Grid(1.0, len(x))
    params = PhysicalParams.create(
        grid, tau=0.1, taubar=0.5, T=2 * np.pi,
        b=1.0 + 0.08 * np.cos(np.pi * x + 0.3),
        c2=1.0 + 0.07 * np.sin(2 * np.pi * x + 0.5),
        eta=1.0 + 0.3 * x, eta_tilde=0.8 + 0.4 * x**2)
    return validate_model(grid, params, ENDS[left], ENDS[right], M)


def forcing(x, amplitude):
    """A drive on harmonics 1 and 2 with no mirror symmetry."""
    f = np.zeros((M + 1, len(x)), complex)
    f[1] = 0.5 * amplitude * np.sin(np.pi * x) + 0.05 * np.cos(3 * np.pi * x)
    f[2] = 0.4 * amplitude * np.sin(2 * np.pi * x) * (1j + x)
    return f


def relative(u, v) -> float:
    return np.linalg.norm(u - v) / np.linalg.norm(v)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("left, right", PAIRS,
                         ids=[f"{left}-{right}" for left, right in PAIRS])
def test_the_mirrored_problem_has_the_mirrored_solution(left, right, kind):
    x = np.linspace(0.0, 1.0, NX)
    f = forcing(x, 0.15)
    u = solve(f, model(x, left, right), kind).u
    u_mirror = solve(f[:, ::-1], model(x, left, right, mirrored=True),
                     kind).u
    assert relative(u_mirror[:, ::-1], u) <= MIRROR_BOUND


@pytest.mark.parametrize("s", [0.37, 1.0])
@pytest.mark.parametrize("kind, amplitude", [("westervelt", 1.5),
                                             ("kuznetsov", 2.0)])
def test_a_time_shifted_forcing_shifts_the_solution(kind, amplitude, s):
    # at these amplitudes harmonic M is about 7e-6 of harmonic 1, so a
    # product aliased onto the kept harmonics breaks the relation
    x = np.linspace(0.0, 1.0, NX)
    m = model(x)
    phase = np.exp(1j * np.arange(M + 1) * m.params.omega * s)[:, None]
    f = forcing(x, amplitude)
    u = solve(f, m, kind).u
    u_shifted = solve(f * phase, m, kind).u
    assert relative(u_shifted, u * phase) <= SHIFT_BOUND


def second_forcing(x):
    """A drive on harmonics 0 and 3, which `forcing` leaves at 0; the mean
    mode is real."""
    f = np.zeros((M + 1, len(x)), complex)
    f[0] = 0.3 * np.cos(np.pi * x) + 0.1 * x
    f[3] = 0.2 * np.sin(3 * np.pi * x) * (1.0 - 0.5j * x)
    return f


@pytest.mark.parametrize("left, right", PAIRS,
                         ids=[f"{left}-{right}" for left, right in PAIRS])
def test_the_linear_solve_superposes(left, right):
    x = np.linspace(0.0, 1.0, NX)
    m = model(x, left, right)
    f1, f2, a = forcing(x, 0.15), second_forcing(x), -1.7
    u1, u2 = (solve(f, m, "linear").u for f in (f1, f2))
    assert relative(solve(f1 + a * f2, m, "linear").u,
                    u1 + a * u2) <= SUPERPOSITION_BOUND
