import numpy as np
import pytest

from hbwave.errors import DegeneracyDetected, NonContraction
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    to_time_samples,
    validate_model,
)
from hbwave.nonlinear import (
    FixedPointOptions,
    alpha_samples,
    degeneracy_monitor,
    eval_bilinear,
    eval_nonlinearity,
    fixed_point_solve,
)
from hbwave.norms import u0lo_norm

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)


def make_model(nx=65, **kw):
    grid = Grid(1.0, nx)
    defaults = dict(tau=0.1, taubar=0.5, b=1.0, c2=1.0, eta=1.0,
                    eta_tilde=1.0, T=2 * np.pi)
    defaults.update(kw)
    params = PhysicalParams.create(grid, **defaults)
    return validate_model(grid, params, DIRICHLET, DIRICHLET)


def monochromatic(model, a, M=4):
    u = HarmonicField.zeros(M, model.grid.nx)
    u.coeffs[1] = 0.5 * a * np.sin(np.pi * model.grid.nodes)
    return u


def test_westervelt_monochromatic_is_pure_second_harmonic():
    model = make_model()
    a = 0.01
    u = monochromatic(model, a)
    out = eval_nonlinearity(u, "westervelt", model)
    omega = model.params.omega
    phi = np.sin(np.pi * model.grid.nodes)
    expected = -model.params.eta * a**2 * omega**2 * phi**2
    np.testing.assert_allclose(out.coeffs[2].real, expected, atol=1e-12)
    np.testing.assert_allclose(out.coeffs[2].imag, 0.0, atol=1e-12)
    for m in (0, 1, 3, 4):
        assert np.max(np.abs(out.coeffs[m])) < 1e-12


def test_kuznetsov_monochromatic_is_pure_second_harmonic():
    model = make_model()
    u = monochromatic(model, 0.01)
    out = eval_nonlinearity(u, "kuznetsov", model)
    assert np.max(np.abs(out.coeffs[0])) < 1e-14
    assert np.max(np.abs(out.coeffs[1])) < 1e-14
    assert np.max(np.abs(out.coeffs[2])) > 0
    assert np.max(np.abs(out.coeffs[3])) < 1e-14


def test_bilinear_is_symmetric_and_bilinear():
    model = make_model(nx=17)
    rng = np.random.default_rng(5)
    def rand_field():
        c = rng.normal(size=(4, 17)) + 1j * rng.normal(size=(4, 17))
        c[0] = c[0].real
        return HarmonicField(c)
    v, w = rand_field(), rand_field()
    for kind in ("westervelt", "kuznetsov"):
        rvw = eval_bilinear(v, w, kind, model)
        rwv = eval_bilinear(w, v, kind, model)
        np.testing.assert_allclose(rvw.coeffs, rwv.coeffs, atol=1e-10)
        scaled = eval_bilinear(2.5 * v, w, kind, model)
        np.testing.assert_allclose(scaled.coeffs, 2.5 * rvw.coeffs,
                                   atol=1e-10)


@pytest.mark.parametrize("kind, factors", [("westervelt", 1),
                                           ("kuznetsov", 2)])
def test_bilinear_of_a_field_with_itself_synthesizes_it_once(
        kind, factors, monkeypatch):
    import hbwave.nonlinear

    model = make_model(nx=17)
    rng = np.random.default_rng(6)
    c = rng.normal(size=(4, 17)) + 1j * rng.normal(size=(4, 17))
    c[0] = c[0].real
    u = HarmonicField(c)
    synthesized = []

    def counting(v, nt):
        synthesized.append(v)
        return to_time_samples(v, nt)

    monkeypatch.setattr(hbwave.nonlinear, "to_time_samples", counting)
    same = eval_bilinear(u, u, kind, model)
    assert len(synthesized) == factors
    copied = eval_bilinear(u, u.copy(), kind, model)
    assert len(synthesized) == 3 * factors
    np.testing.assert_array_equal(same.coeffs, copied.coeffs)


def test_alpha_and_monitor_for_zero_state():
    model = make_model()
    u = HarmonicField.zeros(3, model.grid.nx)
    mon = degeneracy_monitor(u, "westervelt", model)
    assert mon["alpha_min"] == pytest.approx(1.0)
    assert mon["alpha_max"] == pytest.approx(1.0)
    assert mon["stability_margin_min"] == pytest.approx(
        model.stability_margin())


def test_alpha_bounds_for_bounded_state():
    model = make_model()
    u = monochromatic(model, 0.2)  # max |u| = 0.2
    a = alpha_samples(u, "westervelt", model)
    assert a.min() >= 0.6 - 1e-9
    assert a.max() <= 1.4 + 1e-9


def test_zero_forcing_converges_immediately():
    model = make_model()
    f = HarmonicField.zeros(3, model.grid.nx)
    report = fixed_point_solve(f, model, "westervelt")
    assert report.iterations == 1
    assert np.all(report.u.coeffs == 0)


def test_small_drive_contracts_fast():
    model = make_model()
    f = monochromatic(model, 6e-3)  # scaled so max |2 eta u| ~ 1e-3
    report = fixed_point_solve(f, model, "westervelt")
    assert report.final_residual < 1e-10
    assert all(r < 0.1 for r in report.contraction_ratios)
    assert len(report.contraction_ratios) == report.iterations - 1
    assert report.degeneracy_margin > 0.99


def test_initial_guess_independence():
    model = make_model()
    f = monochromatic(model, 6e-3)
    opts = FixedPointOptions(tol=1e-13)
    from hbwave.linear import solve_linear_mgt
    r0 = fixed_point_solve(f, model, "westervelt", opts)
    r1 = fixed_point_solve(f, model, "westervelt", opts,
                           u0=solve_linear_mgt(f, model))
    p = model.params
    d = u0lo_norm(r0.u - r1.u, model.grid, p.omega, p.T)
    s = u0lo_norm(r0.u, model.grid, p.omega, p.T)
    assert d <= 10 * opts.tol * s


def test_blowup_reported_never_silent():
    model = make_model()
    f = monochromatic(model, 6e-3)
    big = HarmonicField(f.coeffs * 1e6)
    with pytest.raises((NonContraction, DegeneracyDetected)):
        fixed_point_solve(big, model, "westervelt")


def test_ball_guard_raises_noncontraction():
    model = make_model()
    f = monochromatic(model, 6e-3)
    big = HarmonicField(f.coeffs * 1e6)
    opts = FixedPointOptions(ball_radius=1.0)
    with pytest.raises(NonContraction):
        fixed_point_solve(big, model, "westervelt", opts)


def test_self_mapping_at_small_data():
    model = make_model()
    f = monochromatic(model, 6e-3)
    p = model.params
    opts = FixedPointOptions(
        ball_radius=10 * u0lo_norm(
            fixed_point_solve(f, model, "westervelt").u,
            model.grid, p.omega, p.T))
    report = fixed_point_solve(f, model, "westervelt", opts)
    assert report.final_residual < 1e-10


def test_options_validation():
    with pytest.raises(ValueError):
        FixedPointOptions(tol=0.0)
    with pytest.raises(ValueError):
        FixedPointOptions(max_iter=0)
    with pytest.raises(ValueError):
        FixedPointOptions(relaxation=1.5)
