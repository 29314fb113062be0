import numpy as np
import pytest

from hbwave.errors import NonContraction, SingularMeanMode, SolveFailure
from hbwave.linear import (
    NONCONTRACTION_PATIENCE,
    assemble_harmonic_system,
    kappa_squared,
    linear_residual,
    solve_linear_mgt,
    solve_linearized,
)
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    ValidatedModel,
    validate_model,
)
from hbwave.norms import l2l2_norm
from hbwave.spatial import tridiagonal_solver
from hbwave.studies import manufactured_case

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)
NEUMANN = BoundaryCondition(BCKind.NEUMANN)


def make_model(nx=65, **kw):
    grid = Grid(1.0, nx)
    defaults = dict(tau=0.1, taubar=0.5, b=1.0, c2=1.0, T=2 * np.pi)
    defaults.update(kw)
    params = PhysicalParams.create(grid, **defaults)
    return validate_model(grid, params, DIRICHLET, DIRICHLET)


def test_kappa_squared_unit_example():
    # m = w = tau = b = c2 = 1: (1 + i)/(1 + i) = 1
    assert kappa_squared(1, 1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 + 0j)


def test_kappa_squared_damping_sign():
    # Im(kappa^2) < 0 exactly when b > tau c^2
    assert kappa_squared(3, 0.1, 1.3, 1.0, 2.0).imag < 0      # b > tau c2
    assert kappa_squared(3, 0.5, 0.2, 1.0, 2.0).imag > 0      # b < tau c2
    assert kappa_squared(2, 0.5, 0.5 * 2.0, 1.0, 2.0).imag == pytest.approx(0.0)


def test_zero_forcing_gives_zero_solution():
    model = make_model(nx=17)
    f = HarmonicField.zeros(3, 17)
    u = solve_linear_mgt(f, model)
    assert np.all(u.coeffs == 0)


def test_manufactured_linear_solution_recovered():
    grid = Grid(1.0, 129)
    params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0, c2=1.0,
                                   T=2 * np.pi)
    case = manufactured_case("linear-dirichlet", params, grid)
    model = validate_model(grid, params, case.bc_left, case.bc_right)
    u = solve_linear_mgt(case.f, model)
    err = l2l2_norm(u - case.u_star, grid, params.omega, params.T)
    ref = l2l2_norm(case.u_star, grid, params.omega, params.T)
    assert err / ref < 5e-4


def test_residual_of_computed_solution_is_tiny():
    model = make_model()
    f = HarmonicField.zeros(4, 65)
    f.coeffs[1] = np.sin(np.pi * model.grid.nodes)
    f.coeffs[3] = 0.3j * np.sin(2 * np.pi * model.grid.nodes)
    u = solve_linear_mgt(f, model)
    assert linear_residual(u, f, model) < 1e-12


def test_mean_mode_without_anchor_raises():
    grid = Grid(1.0, 17)
    params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0, c2=1.0,
                                   T=2 * np.pi)
    with pytest.raises(SingularMeanMode):
        assemble_harmonic_system(type("M", (), {
            "params": params, "grid": grid, "bc_left": NEUMANN,
            "bc_right": NEUMANN})(), 0)


def test_harmonic_system_diagonal_shift():
    model = make_model(nx=9, tau=0.2)
    _, bands = assemble_harmonic_system(model, 2)
    mw = 2 * model.params.omega
    # bands[2, 1, 0] is the first diagonal entry A_2[0, 0]
    op_diag = bands[2, 1, 0] - (
        model.params.c2[1] + 1j * mw * model.params.b[1]) * (
        2.0 / model.grid.h**2)
    assert op_diag == pytest.approx(-1j * 0.2 * mw**3 - mw**2)


def test_singular_harmonic_raises_solve_failure():
    grid = Grid(1.0, 9)
    params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0, c2=0.0,
                                   T=2 * np.pi)
    # built directly to skip validation: with c2 = 0 the system A_0 is zero
    model = ValidatedModel(grid, params, DIRICHLET, DIRICHLET)
    f = HarmonicField.zeros(1, 9)
    f.coeffs[0] = 1.0
    with pytest.raises(SolveFailure):
        solve_linear_mgt(f, model)


def test_nan_residual_fails_the_check_and_names_the_harmonic():
    # built directly to skip validation, which rejects a subnormal c2: the
    # mean-mode solution overflows and its re-substitution residual is NaN.
    # At nx=4097 the O(nx) condition estimate returns at once.
    grid = Grid(1.0, 4097)
    params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0,
                                   c2=1e-310, T=2 * np.pi)
    model = ValidatedModel(grid, params, DIRICHLET, DIRICHLET)
    f = HarmonicField.zeros(1, grid.nx)
    f.coeffs[0] = 1.0
    with np.errstate(all="ignore"):
        with pytest.raises(SolveFailure, match="harmonic 0 residual") as info:
            solve_linear_mgt(f, model)
    # A_0 = c2 (-Lap) has 1-norm condition (4 / h^2) (1 / 8) = 8.39e6
    assert info.value.condition_estimate == pytest.approx(
        0.5 / grid.h**2, rel=1e-6)


def test_zero_pivot_names_its_harmonic():
    # nx=3, h=1/2, omega=1: A_m = 8 c2 - m^2 with b = tau = 0, so c2 = 1/8
    # makes A_1 exactly zero while A_0 and A_2 are not
    grid = Grid(1.0, 3)
    params = PhysicalParams.create(grid, tau=0.0, taubar=0.5, b=0.0,
                                   c2=0.125, T=2 * np.pi)
    model = ValidatedModel(grid, params, DIRICHLET, DIRICHLET)
    f = HarmonicField.zeros(2, 3)
    f.coeffs[:, 1] = 1.0
    with pytest.raises(SolveFailure, match="harmonic 1 is singular"):
        solve_linear_mgt(f, model)


def test_overflowed_coefficients_name_their_harmonic():
    # b = 1e307 passes validation, but i m omega b / h^2 overflows for m >= 1
    model = make_model(nx=33, b=1e307)
    f = HarmonicField.zeros(2, 33)
    f.coeffs[1] = np.sin(np.pi * model.grid.nodes)
    with np.errstate(all="ignore"):
        with pytest.raises(SolveFailure,
                           match="harmonic 1 has non-finite coefficients"):
            solve_linear_mgt(f, model)


def test_fixed_point_factors_the_harmonic_stack_once(monkeypatch):
    import hbwave.linear
    from hbwave.nonlinear import fixed_point_solve

    calls = []

    def counting(bands):
        calls.append(bands.shape)
        return tridiagonal_solver(bands)

    monkeypatch.setattr(hbwave.linear, "tridiagonal_solver", counting)
    model = make_model(nx=33, eta=1.0)
    f = HarmonicField.zeros(4, 33)
    f.coeffs[1] = 3e-2 * np.sin(np.pi * model.grid.nodes)
    report = fixed_point_solve(f, model, "westervelt")
    assert report.iterations > 1
    assert calls == [(5, 3, 31)]


def test_linearized_around_zero_base_is_direct_solve():
    model = make_model(nx=33)
    f_dir = HarmonicField.zeros(3, 33)
    f_dir.coeffs[1] = np.sin(np.pi * model.grid.nodes)
    base = HarmonicField.zeros(3, 33)
    u_lin = solve_linearized(base, f_dir, model, "westervelt")
    direct = solve_linear_mgt(f_dir, model)
    np.testing.assert_allclose(u_lin.coeffs, direct.coeffs, atol=1e-14)


def test_linearized_matches_finite_difference():
    model = make_model(eta=1.0)
    from hbwave.nonlinear import fixed_point_solve, FixedPointOptions

    grid = model.grid
    f = HarmonicField.zeros(4, grid.nx)
    f.coeffs[1] = 3e-3 * np.sin(np.pi * grid.nodes)
    opts = FixedPointOptions(tol=1e-14, max_iter=200)
    base = fixed_point_solve(f, model, "westervelt", opts).u
    u_lin = solve_linearized(base, f, model, "westervelt")
    eps = 1e-5
    u_plus = fixed_point_solve(f + eps * f, model, "westervelt", opts).u
    fd = (1.0 / eps) * (u_plus - base)
    rel = (l2l2_norm(fd - u_lin, grid, model.params.omega, model.params.T)
           / l2l2_norm(u_lin, grid, model.params.omega, model.params.T))
    assert rel < 1e-4


def test_linearized_without_relaxation_term_differs():
    model = make_model(eta=1.0)
    grid = model.grid
    f = HarmonicField.zeros(4, grid.nx)
    f.coeffs[1] = 3e-3 * np.sin(np.pi * grid.nodes)
    base = HarmonicField.zeros(4, grid.nx)
    with_term = solve_linearized(base, f, model, "westervelt")
    without = solve_linearized(
        base, f, model.with_params(model.params.with_tau(0.0)), "westervelt")
    assert not np.allclose(with_term.coeffs, without.coeffs)


def test_linearized_around_non_contractive_base_raises_non_contraction():
    model = make_model(nx=33, eta=1.0)
    phi = np.sin(np.pi * model.grid.nodes)
    base = HarmonicField.zeros(4, 33)
    base.coeffs[1] = 3.0 * phi
    f_dir = HarmonicField.zeros(4, 33)
    f_dir.coeffs[1] = phi
    with pytest.raises(NonContraction) as info:
        solve_linearized(base, f_dir, model, "westervelt")
    history = info.value.history
    assert len(history) > NONCONTRACTION_PATIENCE
    assert all(b >= a for a, b in
               zip(history[-NONCONTRACTION_PATIENCE - 1:-1],
                   history[-NONCONTRACTION_PATIENCE:]))
