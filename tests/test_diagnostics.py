import numpy as np
import pytest

from hbwave.diagnostics import (
    choose_multipliers,
    compute_energies,
    energy_identity_residual,
    estimate_ratio_report,
    estimate_rhs_lo,
    estimate_rhs_me,
)
from hbwave.errors import StabilityViolation
from hbwave.linear import solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    validate_model,
)
from hbwave.studies import manufactured_case

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)


def make_model(nx=65, **kw):
    grid = Grid(1.0, nx)
    defaults = dict(tau=0.1, taubar=0.5, b=1.0, c2=1.0, T=2 * np.pi)
    defaults.update(kw)
    params = PhysicalParams.create(grid, **defaults)
    return validate_model(grid, params, DIRICHLET, DIRICHLET)


def linear_solve(model, M=4, amp=1e-2):
    f = HarmonicField.zeros(M, model.grid.nx)
    f.coeffs[1] = 0.5 * amp * np.sin(np.pi * model.grid.nodes)
    return solve_linear_mgt(f, model), f


def test_multiplier_choice_constant_coefficients():
    model = make_model()  # b = c2 = 1, taubar = 0.5
    mult = choose_multipliers(model)
    assert mult.sigma == pytest.approx(0.75)
    assert mult.rho == pytest.approx(0.375)


def test_multipliers_satisfy_constraints():
    model = make_model(taubar=0.3, b=2.0, c2=1.5)
    p = model.params
    mult = choose_multipliers(model)
    assert np.max(p.taubar * p.c2 / p.b) < mult.sigma < 1.0
    assert mult.rho * np.max(p.b / p.c2) < mult.sigma
    assert mult.rho <= mult.sigma / p.taubar + 1e-12


def test_multipliers_infeasible_raises():
    # alpha below taubar c2/b leaves no room for sigma
    model = make_model()
    with pytest.raises(StabilityViolation):
        choose_multipliers(model, alpha_min=0.4)


def test_zero_field_has_zero_energies():
    model = make_model()
    u = HarmonicField.zeros(3, model.grid.nx)
    report = compute_energies(u, model)
    for _, _, value in report.rows():
        assert value == 0.0


def test_energy_ordering_and_totals():
    model = make_model()
    u, _ = linear_solve(model)
    report = compute_energies(u, model)
    assert report.lo_total > 0
    assert report.me_bar >= report.me_total
    assert report.hi_bar >= report.hi_total + report.lo_total


def test_energy_rows_have_levels():
    model = make_model()
    u, _ = linear_solve(model)
    levels = {level for _, level, _ in compute_energies(u, model).rows()}
    assert {"lo", "me", "hi"} <= levels


def test_identity_residual_small_on_solution_large_on_perturbation():
    model = make_model()
    u, f = linear_solve(model)
    mult = choose_multipliers(model)
    res = energy_identity_residual(u, f, mult, model)
    up = u.copy()
    up.coeffs[1] *= 1.05
    res_bad = energy_identity_residual(up, f, mult, model)
    assert res_bad > 5 * res


def test_identity_residual_refines_at_second_order():
    vals = []
    for nx in (33, 65, 129):
        grid = Grid(1.0, nx)
        params = PhysicalParams.create(grid, tau=0.1, taubar=0.5, b=1.0,
                                       c2=1.0, T=2 * np.pi)
        case = manufactured_case("linear-dirichlet", params, grid)
        model = validate_model(grid, params, case.bc_left, case.bc_right)
        u = solve_linear_mgt(case.f, model)
        vals.append(energy_identity_residual(
            u, case.f, choose_multipliers(model), model))
    assert vals[0] > vals[1] > vals[2]
    assert np.log2(vals[1] / vals[2]) > 1.5


def test_estimate_rhs_positive_for_nonzero_data():
    model = make_model()
    u, f = linear_solve(model)
    assert estimate_rhs_lo(f, model) > 0
    energy = compute_energies(u, model)
    zero = HarmonicField.zeros(f.M, model.grid.nx)
    assert estimate_rhs_me(energy, f, f, zero, model) > 0


def test_ratio_invariant_under_forcing_rescaling():
    model = make_model()
    u, f = linear_solve(model)
    s = 7.3
    rep1 = estimate_ratio_report(model, [model.params.tau], [u], [f])
    rep2 = estimate_ratio_report(model, [model.params.tau],
                                 [HarmonicField(u.coeffs * s)],
                                 [HarmonicField(f.coeffs * s)])
    r1 = rep1["rows"][0]["ratio_lo"]
    r2 = rep2["rows"][0]["ratio_lo"]
    assert r1 == pytest.approx(r2, rel=1e-10)


def test_ratio_rows_undefined_for_zero_forcing():
    model = make_model()
    z = HarmonicField.zeros(3, model.grid.nx)
    rep = estimate_ratio_report(model, [0.1], [z], [z])
    assert rep["rows"][0]["ratio_lo"] is None
