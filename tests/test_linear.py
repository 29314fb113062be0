import numpy as np
import pytest

from hbwave.errors import SingularMeanMode, SolveFailure
from hbwave.linear import (
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
    with_term = solve_linearized(base, f, model, "westervelt",
                                 include_third_order_term=True)
    without = solve_linearized(base, f, model, "westervelt",
                               include_third_order_term=False)
    assert not np.allclose(with_term.coeffs, without.coeffs)
