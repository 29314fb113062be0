"""Exact relations of the discrete problem, which hold to rounding whatever
the solution is: a mirrored problem has the mirrored solution, a forcing
shifted in time has the solution shifted by the same time, the linear
solve superposes, S(f1 + a f2) = S(f1) + a S(f2), and the Westervelt solve
scales, S_{eta/s}(s f) = s S_eta(f), exactly when s is a power of two.

They need no reference solution, so they see errors that tolerances and
the oracle, which shares the spatial operator, let through.  Two errors
were tried on a copy of the code: a first-order right-end row in
`spatial.gradient` raises the Kuznetsov mirror error to 8.4e-7, and a
dealiasing length of 3M - 2 samples in `model.dealiased_samples` raises
the time-shift error to 6.8e-12 - 1.1e-10, and a linear kind that solves
as Westervelt or Kuznetsov raises the superposition error to 6.7e-4 -
0.18 or 4.4e-3 - 0.060.  The bounds sit 25, 100 and 43 times above the
largest error measured here (numpy 2.4, x86-64).  A Westervelt product
that forms u u before it applies eta loses the term below about 1e-154,
which fails the scaling at 2^-530 and 1e-160 with errors of 2.4e-4 to
8.1e-3 or a Picard failure."""
import functools
import itertools
import json

import numpy as np
import pytest

from hbwave.cli import run_command
from hbwave.model import (BCKind, BoundaryCondition, Grid, PhysicalParams,
                          validate_model)
from hbwave.nonlinear import solve
from solution_csv import read_solution_csv
from test_cli import CONFIG

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


def model(x, left="dirichlet", right="absorbing", mirrored=False, s=1.0):
    """Smooth coefficients with no mirror symmetry on the nodes x of
    [0, 1], read at 1 - x when mirrored, with the ends swapped; eta is
    divided by s."""
    if mirrored:
        x, left, right = 1.0 - x, right, left
    grid = Grid(1.0, len(x))
    params = PhysicalParams.create(
        grid, tau=0.1, taubar=0.5, T=2 * np.pi,
        b=1.0 + 0.08 * np.cos(np.pi * x + 0.3),
        c2=1.0 + 0.07 * np.sin(2 * np.pi * x + 0.5),
        eta=(1.0 + 0.3 * x) / s, eta_tilde=0.8 + 0.4 * x**2)
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


# the drive at which alpha_min, over every pair, is closest to the
# degeneracy floor 0.1 (0.114, impedance-neumann), so the Westervelt term
# is far from negligible
SCALING_AMPLITUDE = 0.237


@functools.cache
def unscaled(left, right):
    x = np.linspace(0.0, 1.0, NX)
    return solve(forcing(x, SCALING_AMPLITUDE), model(x, left, right),
                 "westervelt")


# a power of two scales every rounding exactly; 1e+-160 change the
# rounding, which the linear solve alone carries to 5.3e-14 here, and the
# Westervelt solve to 4.2e-14 at most.  The 5.3e-14 is the elimination
# order's, not the conditioning's: LAPACK eliminates from the first row,
# and from a Neumann row the solve's forward error is 2.4e-13 - 5.4e-13
# against 1.1e-14 - 6.4e-14 from any other (harmonic 1, against a
# long-double solve), at the same backward error (4e-17 - 6e-17).
# neumann-dirichlet and dirichlet-neumann have equal condition estimates
# (5.2e4, 5.3e4) but harmonic 1 scales to 3.0e-14 and 7.3e-16; solved
# with the unknowns in reverse order they read 9.4e-16 and 6.5e-14.
# Every error is within cond * eps
@pytest.mark.parametrize("s, bound", [(2.0**530, 0.0), (2.0**-530, 0.0),
                                      (1e160, 1e-12), (1e-160, 1e-12)])
@pytest.mark.parametrize("left, right", PAIRS,
                         ids=[f"{left}-{right}" for left, right in PAIRS])
def test_the_westervelt_solve_scales(left, right, s, bound):
    # alpha = 1 + 2 eta u is unchanged by u -> s u, eta -> eta / s, so
    # S_{eta/s}(s f) = s S_eta(f) in as many Picard steps, compared at
    # the unscaled size.  At 1e160 the norms' first squares overflow,
    # and they are taken again scaled
    x = np.linspace(0.0, 1.0, NX)
    base = unscaled(left, right)
    with np.errstate(over="ignore"):
        scaled = solve(s * forcing(x, SCALING_AMPLITUDE),
                       model(x, left, right, s=s), "westervelt")
    assert scaled.iterations == base.iterations
    assert relative(scaled.u / s, base.u) <= bound


def test_the_cli_solve_scales_by_a_power_of_two(tmp_path):
    # eta = 2^530 and amplitude_1 = 2 * 2^-530: the run with eta = 1 and
    # amplitude_1 = 2 scaled by 2^-530, to the bit
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    runs = {}
    for name, eta, amplitude in (("base", 1.0, 2.0),
                                 ("scaled", 2.0**530, 2.0 * 2.0**-530)):
        out = tmp_path / name
        assert run_command(["solve", str(config), "-o", str(out),
                            "-s", f"physics.eta={eta!r}",
                            "-s", f"forcing.amplitude_1={amplitude!r}"]) == 0
        metrics = json.loads((out / "run_info.json").read_text())["metrics"]
        runs[name] = read_solution_csv(str(out / "solution.csv")), metrics
    (u, base), (u_scaled, scaled) = runs["base"], runs["scaled"]
    assert scaled["iterations"] == base["iterations"]
    assert scaled["alpha_min"] == base["alpha_min"]
    assert np.array_equal(u_scaled, u * 2.0**-530)
