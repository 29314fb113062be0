"""The harmonic-balance solve's working set, by tracemalloc, which sees
every numpy buffer.  The model is a grid-fine one, nx = 1025 and M = 8,
and every bound is in fields: one complex (M + 1, nx) array, 0.148 MB.
Each bound is the figure measured with the lean code plus a margin; the
figure a removed copy would add is noted beside it.  Every function runs
once before it is measured, so caches filled on a first call do not
count."""
import os
import tracemalloc

import numpy as np
import pytest

from hbwave.io import write_solution_csv
from hbwave.linear import linear_solver
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    validate_model,
)
from hbwave.nonlinear import fixed_point_solve
from hbwave.spatial import gradient

NX, M = 1025, 8
FIELD = (M + 1) * NX * 16       # bytes of one complex field


@pytest.fixture(scope="module")
def case():
    grid = Grid(1.0, NX)
    x = grid.nodes
    params = PhysicalParams.create(
        grid, tau=0.1, taubar=0.5, b=1.0 + 0.1 * np.cos(np.pi * x),
        c2=1.0 + 0.1 * np.sin(2.0 * np.pi * x), eta=1.0, T=2 * np.pi)
    dirichlet = BoundaryCondition(BCKind.DIRICHLET)
    model = validate_model(grid, params, dirichlet, dirichlet, M)
    f = np.zeros((M + 1, NX), complex)
    f[1] = 0.05 * np.sin(np.pi * x)
    return model, f


def traced(call):
    """call()'s result, and its peak and retained allocations in fields,
    each over what was allocated on entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - entry) / FIELD, (current - entry) / FIELD


def test_linear_solver_keeps_the_bands_and_one_factorization(case):
    model, _ = case
    linear_solver(model, M)
    _, peak, kept = traced(lambda: linear_solver(model, M))
    # measured 7.59 and 7.59: 3 fields of bands, 4 of factors (dl, d, du,
    # du2) and 0.5 of pivots.  A -Lap_m stack kept beside the bands, or a
    # copy of the whole stack before the factorization, adds 3 fields
    # (13.58 peak and 10.58 kept with both)
    assert peak <= 8.5
    assert kept <= 8.0


def test_picard_solve_with_a_shared_solver(case):
    model, f = case
    solver = linear_solver(model, M)
    for kind in ("westervelt", "kuznetsov"):
        fixed_point_solve(f, model, kind, solver=solver)
        report, peak, _ = traced(
            lambda: fixed_point_solve(f, model, kind, solver=solver))
        assert report.iterations > 1
        # measured 9.79 for both kinds: the iterate, its gradient, the
        # update, the rhs and the dealiased samples.  Holding the last
        # state's u, gradient and rhs while rhs synthesizes the new one
        # reads 10.64 (westervelt) and 12.03 (kuznetsov)
        assert peak <= 10.3, kind


def test_gradient_of_one_field_allocates_only_its_result(case):
    model, f = case
    u = fixed_point_solve(f, model, "westervelt").u
    gradient(u, model.grid)
    _, peak, _ = traced(lambda: gradient(u, model.grid))
    # measured 1.01: the result.  The stencil taken over the strided 2-D
    # interior, whose operands numpy copies through iterator buffers,
    # reads 3.78
    assert peak <= 1.1


def test_solution_csv_is_written_one_harmonic_at_a_time(case, tmp_path):
    model, f = case
    u = fixed_point_solve(f, model, "westervelt").u
    path = os.path.join(tmp_path, "solution.csv")
    write_solution_csv(path, u, model.grid)
    _, peak, _ = traced(lambda: write_solution_csv(path, u, model.grid))
    # measured 2.38: one harmonic's block, its cells and the node formats.
    # The whole text, joined and encoded at once, reads 12.35
    assert peak <= 4.0
