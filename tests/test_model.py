import numpy as np
import pytest

from hbwave.errors import InvalidModel, UndersampledTime
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    TimeField,
    collect_violations,
    dealiased_samples,
    min_samples,
    to_harmonics,
    to_time_samples,
    validate_model,
)

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)


def make_params(grid, **kw):
    defaults = dict(tau=0.1, taubar=0.5, b=1.0, c2=1.0, T=2 * np.pi)
    defaults.update(kw)
    return PhysicalParams.create(grid, **defaults)


def test_omega_derived_from_period():
    grid = Grid(1.0, 9)
    p = make_params(grid, T=4.0)
    assert p.omega == pytest.approx(np.pi / 2)


def test_grid_spacing_and_weights():
    grid = Grid(2.0, 5)
    assert grid.h == pytest.approx(0.5)
    w = grid.trapezoid_weights()
    assert w.sum() == pytest.approx(2.0)
    assert w[0] == w[-1] == pytest.approx(0.25)


def test_round_trip_at_minimum_sampling():
    rng = np.random.default_rng(7)
    M, nx = 5, 11
    u = HarmonicField(rng.normal(size=(M + 1, nx))
                      + 1j * rng.normal(size=(M + 1, nx)))
    u.coeffs[0] = u.coeffs[0].real
    nt = min_samples(M)
    back = to_harmonics(to_time_samples(u, nt), M)
    np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-13)


def test_synthesis_matches_cosine_convention():
    grid_nx = 4
    M = 3
    u = HarmonicField.zeros(M, grid_nx)
    u.coeffs[2] = 0.5  # u(t) = cos(2 w t)
    nt = 16
    samples = to_time_samples(u, nt).values
    t = np.arange(nt) / nt * 2 * np.pi
    np.testing.assert_allclose(samples[:, 0], np.cos(2 * t), atol=1e-13)


def test_undersampling_rejected():
    u = HarmonicField.zeros(4, 5)
    with pytest.raises(UndersampledTime):
        to_time_samples(u, 2 * 4 + 1)
    with pytest.raises(UndersampledTime):
        to_harmonics(TimeField(np.zeros((9, 5))), 4)


def test_dealiased_samples_power_of_two():
    for M in (1, 2, 3, 8, 17):
        n = dealiased_samples(M)
        assert n >= 4 * M + 2
        assert n & (n - 1) == 0


def test_time_derivative_factors():
    u = HarmonicField.zeros(3, 2)
    u.coeffs[1] = 1.0
    du = u.time_derivative(omega=2.0, order=2)
    assert du.coeffs[1, 0] == pytest.approx((1j * 2.0) ** 2)


def test_mean_mode_kept_real_by_truncation():
    rng = np.random.default_rng(3)
    v = TimeField(rng.normal(size=(16, 4)))
    u = to_harmonics(v, 3)
    assert np.all(u.coeffs[0].imag == 0)


def test_validate_accepts_reasonable_model():
    grid = Grid(1.0, 9)
    model = validate_model(grid, make_params(grid), DIRICHLET, DIRICHLET)
    assert model.stability_margin() == pytest.approx(0.5)


def test_bad_grid_rejected():
    grid = Grid(1.0, 2)
    codes = {v.code for v in collect_violations(
        grid, make_params(Grid(1.0, 2)), DIRICHLET, DIRICHLET)}
    assert "BadGrid" in codes


def test_highest_harmonic_frequency_must_be_finite():
    def bad_scales(T, M):
        violations = collect_violations(grid, make_params(grid, T=T),
                                        DIRICHLET, DIRICHLET, M=M)
        assert {v.code for v in violations} <= {"BadGrid"}
        return [v.message.split(" = ")[0] for v in violations]

    grid = Grid(1.0, 9)
    # omega = 2.1e102: omega^2 and tau omega^3 are finite, tau (8 omega)^3
    # is not
    assert bad_scales(3e-102, M=1) == []
    assert bad_scales(3e-102, M=8) == ["tau*(M*omega)^3"]
    # omega = 1.6e308 is finite, its square is not, and 8 omega is not
    assert bad_scales(4e-308, M=1) == ["(M*omega)^2", "tau*(M*omega)^3"]
    assert bad_scales(4e-308, M=8) == ["M*omega", "(M*omega)^2",
                                       "tau*(M*omega)^3"]


def test_nonpositive_coefficients_rejected():
    grid = Grid(1.0, 9)
    p = make_params(grid, b=-1.0)
    with pytest.raises(InvalidModel) as exc:
        validate_model(grid, p, DIRICHLET, DIRICHLET)
    assert any(v.code == "NonPositiveCoefficient"
               for v in exc.value.violations)


def test_tau_above_taubar_rejected():
    grid = Grid(1.0, 9)
    p = make_params(grid, tau=0.6, taubar=0.5)
    with pytest.raises(InvalidModel):
        validate_model(grid, p, DIRICHLET, DIRICHLET)


def test_measure_assumption_needs_anchoring_endpoint():
    grid = Grid(1.0, 9)
    neumann = BoundaryCondition(BCKind.NEUMANN)
    codes = {v.code for v in collect_violations(
        grid, make_params(grid), neumann, neumann)}
    assert "MeasureAssumptionViolation" in codes


def test_stability_condition_rejected_when_violated():
    grid = Grid(1.0, 9)
    p = make_params(grid, taubar=1.5)  # min(b/c2) = 1 < taubar
    codes = {v.code for v in collect_violations(
        grid, p, DIRICHLET, DIRICHLET)}
    assert "StabilityViolation" in codes


def test_absorbing_requires_positive_beta():
    grid = Grid(1.0, 9)
    bad = BoundaryCondition(BCKind.ABSORBING, beta=0.0)
    codes = {v.code for v in collect_violations(
        grid, make_params(grid), DIRICHLET, bad)}
    assert "NonPositiveCoefficient" in codes


def test_robin_coefficient():
    bc = BoundaryCondition(BCKind.ABSORBING, beta=2.0, gamma=0.5)
    assert bc.robin_coefficient(3, 1.5) == pytest.approx(1j * 9.0 + 0.5)
