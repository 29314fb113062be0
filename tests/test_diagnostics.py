import numpy as np
import pytest

from exact_cases import linear_dirichlet_case
from hbwave.diagnostics import (
    choose_multipliers,
    compute_energies,
    energy_identity_residual,
    energy_ratios,
    estimate_rhs_lo,
    estimate_rhs_me,
)
from hbwave.errors import StabilityViolation
from hbwave.linear import solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    validate_model,
)
from hbwave.nonlinear import solve

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)


def make_model(nx=65, **kw):
    grid = Grid(1.0, nx)
    defaults = dict(tau=0.1, taubar=0.5, b=1.0, c2=1.0, T=2 * np.pi)
    defaults.update(kw)
    params = PhysicalParams.create(grid, **defaults)
    return validate_model(grid, params, DIRICHLET, DIRICHLET)


def linear_solve(model, M=4, amp=1e-2):
    f = np.zeros((M + 1, model.grid.nx), complex)
    f[1] = 0.5 * amp * np.sin(np.pi * model.grid.nodes)
    return solve_linear_mgt(f, model), f


def test_multiplier_choice_constant_coefficients():
    model = make_model()  # b = c2 = 1, taubar = 0.5
    mult = choose_multipliers(model)
    assert mult.sigma == pytest.approx(0.75)
    assert mult.rho == pytest.approx(0.375)


def test_multiplier_choice_at_taubar_zero():
    # no bound rho <= sigma alpha / taubar: rho is half of sigma min(c2/b)
    model = make_model(tau=0.0, taubar=0.0, b=2.0, c2=1.0)
    mult = choose_multipliers(model)
    assert mult.sigma == 0.5
    assert mult.rho == 0.125


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
    u = np.zeros((4, model.grid.nx), complex)
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
    up[1] *= 1.05
    res_bad = energy_identity_residual(up, f, mult, model)
    assert res_bad > 5 * res


def test_identity_residual_refines_at_second_order():
    vals = []
    for nx in (33, 65, 129):
        model, _, f = linear_dirichlet_case(nx)
        u = solve_linear_mgt(f, model)
        vals.append(energy_identity_residual(
            u, f, choose_multipliers(model), model))
    assert vals[0] > vals[1] > vals[2]
    assert np.log2(vals[1] / vals[2]) > 1.5


def test_estimate_rhs_positive_for_nonzero_data():
    model = make_model()
    u, f = linear_solve(model)
    assert estimate_rhs_lo(f, model) > 0
    assert estimate_rhs_me(compute_energies(u, model), f, model) > 0


def test_ratio_invariant_under_forcing_rescaling():
    model = make_model()
    u, f = linear_solve(model)
    s = 7.3
    us, fs = u * s, f * s
    r1 = energy_ratios(compute_energies(u, model), f, model)
    r2 = energy_ratios(compute_energies(us, model), fs, model)
    assert set(r1) == {"ratio_lo", "ratio_me", "ratio_hi"}
    for key in r1:
        assert r1[key] > 0
        assert r1[key] == pytest.approx(r2[key], rel=1e-10, abs=0.0)


def test_ratios_undefined_for_zero_forcing():
    model = make_model()
    z = np.zeros((4, model.grid.nx), complex)
    assert energy_ratios(compute_energies(z, model), z, model) == {
        "ratio_lo": None, "ratio_me": None, "ratio_hi": None}


RIGHT_ENDS = {
    "dirichlet": DIRICHLET,
    "absorbing": BoundaryCondition(BCKind.ABSORBING, beta=1.0),
    "impedance": BoundaryCondition(BCKind.IMPEDANCE, gamma=1.0),
    "neumann": BoundaryCondition(BCKind.NEUMANN),
}


@pytest.mark.parametrize("right", sorted(RIGHT_ENDS))
@pytest.mark.parametrize("kind", ["linear", "westervelt", "kuznetsov"])
def test_identity_residual_refines_at_second_order_for_varying_b_c2(kind,
                                                                    right):
    # b' and c2' enter the identity through the spatial integration by
    # parts; with constant coefficients those terms vanish
    vals = []
    for nx in (65, 129, 257):
        grid = Grid(1.0, nx)
        x = grid.nodes
        params = PhysicalParams.create(
            grid, tau=0.1, taubar=0.3, b=1.0 + 0.05 * np.cos(np.pi * x),
            c2=1.0 + 0.05 * np.sin(2 * np.pi * x), T=2 * np.pi,
            eta=1.0 if kind == "westervelt" else 0.0,
            eta_tilde=1.0 if kind == "kuznetsov" else 0.0)
        model = validate_model(grid, params, DIRICHLET, RIGHT_ENDS[right], 8)
        f = np.zeros((9, nx), complex)
        f[1] = 0.25 * np.exp(-((x - 0.5) / 0.125) ** 2)
        report = solve(f, model, kind)
        vals.append(energy_identity_residual(
            report.u, report.rhs, choose_multipliers(model), model))
    orders = np.log2(np.array(vals[:-1]) / np.array(vals[1:]))
    assert (orders >= 1.9).all(), orders
