import weakref

import numpy as np
import pytest

from exact_cases import linear_dirichlet_case
from hbwave.errors import (
    MaxIterExceeded,
    NonContraction,
    NonConvergedIteration,
    SolveFailure,
)
from hbwave.linear import (
    NONCONTRACTION_PATIENCE,
    RESIDUAL_RTOL,
    _residuals,
    assemble_harmonic_system,
    linear_residual,
    linear_solver,
    solve_linear_mgt,
    solve_linearized,
)
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    ValidatedModel,
    validate_model,
)
from hbwave.norms import l2l2_norm
from hbwave.spatial import band_product, one_norms, tridiagonal_solver

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)


def make_model(nx=65, **kw):
    grid = Grid(1.0, nx)
    defaults = dict(tau=0.1, taubar=0.5, b=1.0, c2=1.0, T=2 * np.pi)
    defaults.update(kw)
    params = PhysicalParams.create(grid, **defaults)
    return validate_model(grid, params, DIRICHLET, DIRICHLET)


def test_zero_forcing_gives_zero_solution():
    model = make_model(nx=17)
    f = np.zeros((4, 17), complex)
    u = solve_linear_mgt(f, model)
    assert np.all(u == 0)


def test_manufactured_linear_solution_recovered():
    model, u_star, f = linear_dirichlet_case(129)
    grid, params = model.grid, model.params
    u = solve_linear_mgt(f, model)
    err = l2l2_norm(u - u_star, grid, params.omega, params.T)
    ref = l2l2_norm(u_star, grid, params.omega, params.T)
    assert err / ref < 5e-4


def test_residual_of_computed_solution_is_tiny():
    model = make_model()
    f = np.zeros((5, 65), complex)
    f[1] = np.sin(np.pi * model.grid.nodes)
    f[3] = 0.3j * np.sin(2 * np.pi * model.grid.nodes)
    u = solve_linear_mgt(f, model)
    assert linear_residual(u, f, model) < 1e-12


def test_harmonic_system_diagonal_shift():
    model = make_model(nx=9, tau=0.2)
    _, bands = assemble_harmonic_system(model, 2)
    mw = 2 * model.params.omega
    # bands[1, 2, 0] is the first diagonal entry A_2[0, 0]
    op_diag = bands[1, 2, 0] - (
        model.params.c2[1] + 1j * mw * model.params.b[1]) * (
        2.0 / model.grid.h**2)
    assert op_diag == pytest.approx(-1j * 0.2 * mw**3 - mw**2)


def test_singular_harmonic_raises_solve_failure():
    grid = Grid(1.0, 9)
    params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0, c2=0.0,
                                   T=2 * np.pi)
    # built directly to skip validation: with c2 = 0 the system A_0 is zero
    model = ValidatedModel(grid, params, DIRICHLET, DIRICHLET)
    f = np.zeros((2, 9), complex)
    f[0] = 1.0
    with pytest.raises(SolveFailure):
        solve_linear_mgt(f, model)


def test_overflowed_solution_fails_the_check_and_names_the_harmonic():
    # built directly to skip validation, which rejects a subnormal c2: the
    # mean-mode solution overflows, which fails before the residual is
    # compared.  At nx=4097 the O(nx) condition estimate returns at once.
    grid = Grid(1.0, 4097)
    params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0,
                                   c2=1e-310, T=2 * np.pi)
    model = ValidatedModel(grid, params, DIRICHLET, DIRICHLET)
    f = np.zeros((2, grid.nx), complex)
    f[0] = 1.0
    with np.errstate(all="ignore"):
        with pytest.raises(SolveFailure,
                           match="harmonic 0 has a non-finite") as info:
            solve_linear_mgt(f, model)
    # A_0 = c2 (-Lap) has 1-norm condition (4 / h^2) (1 / 8) = 8.39e6
    assert info.value.condition_estimate == pytest.approx(
        0.5 / grid.h**2, rel=1e-6, abs=0.0)


def test_overflow_in_one_harmonic_names_that_harmonic():
    # the forcing lives in harmonic 1 alone; its solution overflows, and the
    # stacked solve spreads NaN to harmonics 0 and 2 through the zero
    # corners (0 * inf), so the check solves each harmonic alone
    model = make_model(nx=33)
    f = np.zeros((3, model.grid.nx), complex)
    f[1] = 1e308 * np.sin(np.pi * model.grid.nodes)
    with np.errstate(all="ignore"):
        with pytest.raises(SolveFailure, match="harmonic 1 has a non-finite "
                           "right-hand side or solution") as info:
            solve_linear_mgt(f, model)
    assert 1 < info.value.condition_estimate < np.inf


def test_non_finite_right_hand_side_names_its_harmonic():
    model = make_model(nx=33)
    f = np.zeros((4, model.grid.nx), complex)
    f[2, 5] = np.nan
    with pytest.raises(SolveFailure, match="harmonic 2 has a non-finite"):
        solve_linear_mgt(f, model)


def test_zero_pivot_names_its_harmonic():
    # nx=3, h=1/2, omega=1: A_m = 8 c2 - m^2 with b = tau = 0, so c2 = 1/8
    # makes A_1 exactly zero while A_0 and A_2 are not
    grid = Grid(1.0, 3)
    params = PhysicalParams.create(grid, tau=0.0, taubar=0.5, b=0.0,
                                   c2=0.125, T=2 * np.pi)
    model = ValidatedModel(grid, params, DIRICHLET, DIRICHLET)
    f = np.zeros((3, 3), complex)
    f[:, 1] = 1.0
    with pytest.raises(SolveFailure, match="harmonic 1 is singular"):
        solve_linear_mgt(f, model)


def test_overflowed_coefficients_name_their_harmonic():
    # built directly to skip validation, which rejects b = 1e307: the row
    # scale i m omega b / h^2 overflows for m >= 1
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1e307,
                                   c2=1.0, T=2 * np.pi)
    model = ValidatedModel(grid, params, DIRICHLET, DIRICHLET)
    f = np.zeros((3, 33), complex)
    f[1] = np.sin(np.pi * model.grid.nodes)
    with np.errstate(all="ignore"):
        with pytest.raises(SolveFailure,
                           match="harmonic 1 has non-finite coefficients"):
            solve_linear_mgt(f, model)


def test_fixed_point_factors_the_harmonic_stack_once(monkeypatch):
    import hbwave.linear
    import hbwave.spatial
    from hbwave.nonlinear import fixed_point_solve

    calls, assemblies = [], []

    def counting(bands):
        calls.append(bands.shape)
        return tridiagonal_solver(bands)

    def counting_assembly(model, M):
        assemblies.append(M)
        return assemble_harmonic_system(model, M)

    monkeypatch.setattr(hbwave.spatial, "tridiagonal_solver", counting)
    monkeypatch.setattr(hbwave.linear, "assemble_harmonic_system",
                        counting_assembly)
    model = make_model(nx=33, eta=1.0)
    f = np.zeros((5, 33), complex)
    f[1] = 3e-2 * np.sin(np.pi * model.grid.nodes)
    report = fixed_point_solve(f, model, "westervelt")
    assert report.iterations > 1
    assert calls == [(3, 5, 31)]
    # the final residual is taken on the bands the solve factored
    assert assemblies == [4]


def test_fixed_point_accepts_no_overflowed_update(monkeypatch):
    # inf <= tol * inf holds, so an update norm that overflowed passed the
    # stopping test and ended the iteration after its first step
    import hbwave.norms
    from hbwave.linear import FixedPointOptions, fixed_point

    monkeypatch.setattr(hbwave.norms, "u0lo_norm", lambda *args: np.inf)
    model = make_model(nx=17)
    f = np.zeros((3, 17), complex)
    f[1] = np.sin(np.pi * model.grid.nodes)
    with pytest.raises(MaxIterExceeded) as info:
        fixed_point(lambda u, grad: f, np.zeros_like(f), model,
                    FixedPointOptions(max_iter=3))
    assert info.value.details["history"] == [np.inf] * 3


def test_fixed_point_frees_the_last_state_before_rhs_runs():
    # rhs synthesizes the new state's samples, the solve's peak; the last
    # state's u, gradient and rhs are dead by then and must not be held
    from hbwave.linear import FixedPointOptions, fixed_point

    model = make_model(nx=33)
    f = np.zeros((4, 33), complex)
    f[1] = np.sin(np.pi * model.grid.nodes)
    states, alive = [], []

    def rhs(u, grad):
        if states:
            alive.append([ref() is not None for ref in states[-1]])
        out = f + 1e-3 * u
        states.append([weakref.ref(a) for a in (u, grad, out)])
        return out

    report = fixed_point(rhs, np.zeros_like(f), model,
                         FixedPointOptions(tol=1e-14))
    assert report.iterations >= 3
    assert alive == [[False] * 3] * report.iterations


def test_linearized_around_zero_base_is_direct_solve():
    model = make_model(nx=33)
    f_dir = np.zeros((4, 33), complex)
    f_dir[1] = np.sin(np.pi * model.grid.nodes)
    base = np.zeros((4, 33), complex)
    u_lin = solve_linearized(base, f_dir, model, "westervelt").u
    direct = solve_linear_mgt(f_dir, model)
    np.testing.assert_allclose(u_lin, direct, atol=1e-14)


def test_linearized_solve_fails_on_its_residual():
    # a fixed point whose re-substitution residual exceeds RESIDUAL_RTOL
    # is no solution: the residual here is the solver's, forced to 1e-9
    model = make_model(nx=17)
    f_dir = np.zeros((4, 17), complex)
    f_dir[1] = np.sin(np.pi * model.grid.nodes)
    solve, _ = linear_solver(model, 3)
    with pytest.raises(NonConvergedIteration) as info:
        solve_linearized(np.zeros_like(f_dir), f_dir, model, "westervelt",
                         solver=(solve, lambda u, rhs: 1e-9))
    assert info.value.residual == 1e-9 > RESIDUAL_RTOL
    assert info.value.iterations >= 1


def test_linearized_matches_finite_difference():
    model = make_model(eta=1.0)
    from hbwave.nonlinear import fixed_point_solve, FixedPointOptions

    grid = model.grid
    f = np.zeros((5, grid.nx), complex)
    f[1] = 3e-3 * np.sin(np.pi * grid.nodes)
    opts = FixedPointOptions(tol=1e-14, max_iter=200)
    base = fixed_point_solve(f, model, "westervelt", opts).u
    u_lin = solve_linearized(base, f, model, "westervelt").u
    eps = 1e-5
    u_plus = fixed_point_solve(f + eps * f, model, "westervelt", opts).u
    fd = (1.0 / eps) * (u_plus - base)
    rel = (l2l2_norm(fd - u_lin, grid, model.params.omega, model.params.T)
           / l2l2_norm(u_lin, grid, model.params.omega, model.params.T))
    assert rel < 1e-4


def test_linearized_without_relaxation_term_differs():
    model = make_model(eta=1.0)
    grid = model.grid
    f = np.zeros((5, grid.nx), complex)
    f[1] = 3e-3 * np.sin(np.pi * grid.nodes)
    base = np.zeros((5, grid.nx), complex)
    with_term = solve_linearized(base, f, model, "westervelt").u
    without = solve_linearized(
        base, f, model.with_params(model.params.with_tau(0.0)),
        "westervelt").u
    assert not np.allclose(with_term, without)


def test_linearized_around_non_contractive_base_raises_non_contraction():
    model = make_model(nx=33, eta=1.0)
    phi = np.sin(np.pi * model.grid.nodes)
    base = np.zeros((5, 33), complex)
    base[1] = 3.0 * phi
    f_dir = np.zeros((5, 33), complex)
    f_dir[1] = phi
    with pytest.raises(NonContraction) as info:
        solve_linearized(base, f_dir, model, "westervelt")
    history = info.value.history
    assert len(history) > NONCONTRACTION_PATIENCE
    assert all(b >= a for a, b in
               zip(history[-NONCONTRACTION_PATIENCE - 1:-1],
                   history[-NONCONTRACTION_PATIENCE:]))


@pytest.mark.parametrize("size", [1.0, 1e200])
def test_residuals_with_given_one_norms_match_computed_ones(size):
    grid = Grid(1.0, 17)
    params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0, c2=1.0,
                                   T=2 * np.pi)
    model = validate_model(grid, params, DIRICHLET,
                           BoundaryCondition(BCKind.ABSORBING, beta=1.0), 3)
    _, bands = assemble_harmonic_system(model, 3)
    rng = np.random.default_rng(2)
    x = size * (rng.normal(size=(4, 16)) + 1j * rng.normal(size=(4, 16)))
    rhs = band_product(bands, x) * (1.0 + 1e-9 * rng.normal(size=(4, 16)))
    with np.errstate(over="ignore"):
        overflows = np.isinf(np.linalg.norm(rhs, axis=-1)).any()
    # 1e200 takes the rescaled path, whose scale is finite again
    assert overflows == (size > 1e154)
    dense = [np.diag(b[1]) + np.diag(b[0, 1:], 1) + np.diag(b[2, :-1], -1)
             for b in bands.transpose(1, 0, 2)]
    given = one_norms(bands)
    np.testing.assert_allclose(given, [np.linalg.norm(a, 1) for a in dense],
                               rtol=1e-15)
    res, scale = _residuals(bands, x, rhs, given)
    assert np.isfinite(scale).all() and (res > 0).all()
    # the relative residual against the dense one, on x and rhs divided by
    # size, which keeps it in range; the rescaled path may divide by
    # another factor, so only res / scale is compared
    xs, rs = x / size, rhs / size
    ref = [np.linalg.norm(a @ v - r) / (np.linalg.norm(a, 1)
                                       * np.linalg.norm(v)
                                       + np.linalg.norm(r))
           for a, v, r in zip(dense, xs, rs)]
    np.testing.assert_allclose(res / scale, ref, rtol=1e-6)


def test_relative_residual_scales_by_a_power_of_two():
    # at 2^505 (about 1e152) every entry and row norm is in range, but the
    # square of the scale's norm overflows: the residual read 0.0
    model = make_model(nx=33)
    f = np.zeros((4, 33), complex)
    f[1] = np.sin(np.pi * model.grid.nodes)
    u = solve_linear_mgt(f, model)
    s = 2.0 ** 505
    ref = linear_residual(u, f, model)
    assert 0.0 < ref < RESIDUAL_RTOL
    assert linear_residual(s * u, s * f, model) == ref


def test_one_norms_taken_once_per_factorization(monkeypatch):
    import hbwave.spatial
    from hbwave.nonlinear import fixed_point_solve

    calls = []

    def counting(bands):
        calls.append(bands.shape)
        return one_norms(bands)

    monkeypatch.setattr(hbwave.spatial, "one_norms", counting)
    model = make_model(nx=33, eta=1.0)
    f = np.zeros((5, 33), complex)
    f[1] = 3e-2 * np.sin(np.pi * model.grid.nodes)
    report = fixed_point_solve(f, model, "westervelt")
    assert report.iterations > 1 and report.final_residual < 1e-12
    assert calls == [(3, 5, 31)]
