import numpy as np
import pytest

from hbwave.errors import DegeneracyDetected, NonContraction
from hbwave.linear import linear_residual, solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    to_time_samples,
    validate_model,
)
from hbwave.nonlinear import (
    FixedPointOptions,
    bilinear_factors,
    degeneracy_monitor,
    eval_bilinear,
    fixed_point_solve,
    solve,
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
    u = np.zeros((M + 1, model.grid.nx), complex)
    u[1] = 0.5 * a * np.sin(np.pi * model.grid.nodes)
    return u


def test_westervelt_monochromatic_is_pure_second_harmonic():
    model = make_model()
    a = 0.01
    u = monochromatic(model, a)
    out = eval_bilinear(u, u, "westervelt", model)
    omega = model.params.omega
    phi = np.sin(np.pi * model.grid.nodes)
    expected = -model.params.eta * a**2 * omega**2 * phi**2
    np.testing.assert_allclose(out[2].real, expected, atol=1e-12)
    np.testing.assert_allclose(out[2].imag, 0.0, atol=1e-12)
    for m in (0, 1, 3, 4):
        assert np.max(np.abs(out[m])) < 1e-12


def test_kuznetsov_monochromatic_is_pure_second_harmonic():
    model = make_model()
    u = monochromatic(model, 0.01)
    out = eval_bilinear(u, u, "kuznetsov", model)
    assert np.max(np.abs(out[0])) < 1e-14
    assert np.max(np.abs(out[1])) < 1e-14
    assert np.max(np.abs(out[2])) > 0
    assert np.max(np.abs(out[3])) < 1e-14


def test_bilinear_is_symmetric_and_bilinear():
    model = make_model(nx=17)
    rng = np.random.default_rng(5)
    def rand_field():
        c = rng.normal(size=(4, 17)) + 1j * rng.normal(size=(4, 17))
        c[0] = c[0].real
        return c
    v, w = rand_field(), rand_field()
    for kind in ("westervelt", "kuznetsov"):
        rvw = eval_bilinear(v, w, kind, model)
        rwv = eval_bilinear(w, v, kind, model)
        np.testing.assert_allclose(rvw, rwv, atol=1e-10)
        scaled = eval_bilinear(2.5 * v, w, kind, model)
        np.testing.assert_allclose(scaled, 2.5 * rvw, atol=1e-10)


@pytest.mark.parametrize("kind, factors", [("westervelt", 1),
                                           ("kuznetsov", 2)])
def test_bilinear_of_a_field_with_itself_synthesizes_it_once(
        kind, factors, monkeypatch):
    import hbwave.nonlinear

    model = make_model(nx=17)
    rng = np.random.default_rng(6)
    u = rng.normal(size=(4, 17)) + 1j * rng.normal(size=(4, 17))
    u[0] = u[0].real
    synthesized = []

    def counting(v, nt):
        synthesized.append(v)
        return to_time_samples(v, nt)

    monkeypatch.setattr(hbwave.nonlinear, "to_time_samples", counting)
    same = eval_bilinear(u, u, kind, model)
    assert len(synthesized) == factors
    copied = eval_bilinear(u, u.copy(), kind, model)
    assert len(synthesized) == 3 * factors
    np.testing.assert_array_equal(same, copied)


def test_alpha_and_monitor_for_zero_state():
    model = make_model()
    u = np.zeros((4, model.grid.nx), complex)
    mon = degeneracy_monitor(bilinear_factors(u, "westervelt", model),
                             "westervelt", model)
    assert mon["alpha_min"] == pytest.approx(1.0)
    assert mon["alpha_max"] == pytest.approx(1.0)
    assert mon["stability_margin_min"] == pytest.approx(
        model.stability_margin())


def test_alpha_bounds_for_bounded_state():
    model = make_model()
    u = monochromatic(model, 0.2)  # max |u| = 0.2
    mon = degeneracy_monitor(bilinear_factors(u, "westervelt", model),
                             "westervelt", model)
    assert mon["alpha_min"] >= 0.6 - 1e-9
    assert mon["alpha_max"] <= 1.4 + 1e-9


def test_zero_forcing_converges_immediately():
    model = make_model()
    f = np.zeros((4, model.grid.nx), complex)
    report = fixed_point_solve(f, model, "westervelt")
    assert report.iterations == 1
    assert np.all(report.u == 0)


def test_small_drive_contracts_fast():
    model = make_model()
    f = monochromatic(model, 6e-3)  # scaled so max |2 eta u| ~ 1e-3
    report = fixed_point_solve(f, model, "westervelt")
    assert report.final_residual < 1e-10
    assert all(r < 0.1 for r in report.contraction_ratios)
    assert len(report.contraction_ratios) == report.iterations - 1
    assert report.alpha_min > 0.99


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
    big = f * 1e6
    with pytest.raises((NonContraction, DegeneracyDetected)):
        fixed_point_solve(big, model, "westervelt")


def test_ball_guard_raises_noncontraction():
    model = make_model()
    f = monochromatic(model, 6e-3)
    big = f * 1e6
    opts = FixedPointOptions(ball_radius=1.0)
    with pytest.raises(NonContraction):
        fixed_point_solve(big, model, "westervelt", opts)


@pytest.mark.parametrize("kind, factors", [("westervelt", 1),
                                           ("kuznetsov", 2)])
def test_fixed_point_synthesizes_each_state_once(kind, factors,
                                                 monkeypatch):
    # the start state and every iterate: alpha and N(u) share one synthesis
    import hbwave.nonlinear

    model = make_model(nx=33)
    f = monochromatic(model, 6e-3)
    synthesized = []

    def counting(v, nt):
        synthesized.append(v)
        return to_time_samples(v, nt)

    monkeypatch.setattr(hbwave.nonlinear, "to_time_samples", counting)
    report = fixed_point_solve(f, model, kind)
    assert report.iterations > 1
    assert len(synthesized) == factors * (report.iterations + 1)


@pytest.mark.parametrize("kind", ["westervelt", "kuznetsov"])
def test_report_rhs_is_the_inhomogeneity_of_the_solution(kind):
    model = make_model(nx=33)
    f = monochromatic(model, 6e-3)
    report = solve(f, model, kind)
    expected = f + eval_bilinear(report.u, report.u, kind, model)
    np.testing.assert_array_equal(report.rhs, expected)
    assert report.final_residual == linear_residual(report.u, report.rhs,
                                                    model)


def test_linear_kind_reports_one_solve():
    model = make_model(nx=33)
    f = monochromatic(model, 6e-3)
    report = solve(f, model, "linear")
    np.testing.assert_array_equal(report.u,
                                  solve_linear_mgt(f, model))
    assert report.rhs is f
    assert report.iterations == 1
    assert report.final_residual == linear_residual(report.u, f, model)
    assert report.alpha_min == 1.0
    assert report.stability_margin == model.stability_margin()


def test_degenerate_start_state_raises():
    # a time-constant u0 has N(u0) = 0, so its first iterate is harmless;
    # u0 itself has alpha = 1 - 0.92 sin(pi x), below the 0.1 floor
    model = make_model(nx=33)
    f = monochromatic(model, 6e-3)
    u0 = np.zeros_like(f)
    u0[0] = -0.46 * np.sin(np.pi * model.grid.nodes)
    with pytest.raises(DegeneracyDetected) as info:
        fixed_point_solve(f, model, "westervelt", u0=u0)
    assert info.value.alpha_min == pytest.approx(0.08)


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


def test_relaxation_keeps_a_large_drive_above_the_degeneracy_floor():
    # Westervelt at amplitude 6.0, nx=129, M=16: the plain Picard iterate
    # dips below the default floor 0.1, the relaxed one stays above it
    model = validate_model(Grid(1.0, 129), make_model(nx=129).params,
                           DIRICHLET, DIRICHLET, 16)
    f = monochromatic(model, 6.0, M=16)
    with pytest.raises(DegeneracyDetected) as exc:
        fixed_point_solve(f, model, "westervelt",
                          FixedPointOptions(relaxation=1.0))
    assert exc.value.alpha_min == pytest.approx(0.0915, abs=1e-4)
    report = fixed_point_solve(f, model, "westervelt",
                               FixedPointOptions(relaxation=0.7))
    assert report.iterations == 52
    assert report.alpha_min == pytest.approx(0.1033, abs=1e-4)
    assert report.final_residual <= 1e-14


def full_array_monitor(factors, kind, model):
    """degeneracy_monitor's definition on the full (nt, nx) sample arrays."""
    p = model.params
    coef = p.eta if kind == "westervelt" else p.eta_tilde
    a = 1.0 + 2.0 * coef[None, :] * factors[0]
    with np.errstate(divide="ignore"):
        margin = p.b[None, :] / p.c2[None, :] - p.taubar / a
    return {"alpha_min": float(a.min()), "alpha_max": float(a.max()),
            "stability_margin_min": float(margin.min())}


def mixed_sign_model(taubar, seed=7):
    """A 33-node model whose eta and eta_tilde change sign across the nodes
    (one node has coef 0, node 5 has |coef| = 1.5), with varying b, c2."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, 33)
    coef = rng.uniform(-2.0, 2.0, 33)
    coef[3], coef[5] = 0.0, -1.5
    return make_model(nx=33, tau=0.0, taubar=taubar,
                      b=1.0 + 0.05 * np.cos(np.pi * x),
                      c2=1.0 + 0.05 * np.sin(2 * np.pi * x),
                      eta=coef, eta_tilde=-coef), coef


@pytest.mark.parametrize("kind", ["westervelt", "kuznetsov"])
@pytest.mark.parametrize("taubar", [0.0, 0.5])
def test_degeneracy_monitor_equals_its_full_array_definition(kind, taubar):
    model, coef = mixed_sign_model(taubar)
    if kind == "kuznetsov":
        coef = -coef
    rng = np.random.default_rng(11)
    for _ in range(20):
        # |2 coef f| <= 0.8 keeps alpha in [0.2, 1.8] at every node ...
        f = rng.uniform(-0.2, 0.2, (40, 33))
        # ... but node 5, whose alpha = 1 - 3 u, u in [1, 2], is all negative
        f[:, 5] = -np.sign(coef[5]) * rng.uniform(1.0, 2.0, 40)
        factors = (f,) if kind == "westervelt" else (f, f[::-1])
        mon = degeneracy_monitor(factors, kind, model)
        assert mon == full_array_monitor(factors, kind, model)
        assert mon["alpha_min"] < -1.0


@pytest.mark.parametrize("taubar", [0.0, 0.5])
def test_degeneracy_monitor_where_alpha_changes_sign(taubar):
    # node 5's alpha = 1 - 3 u spans [-0.5, 0.5]: the margin's infimum over
    # that range is -inf when taubar > 0, whatever the samples are, and
    # b/c2 when taubar = 0, as on the full arrays
    model, coef = mixed_sign_model(taubar)
    rng = np.random.default_rng(3)
    f = rng.uniform(-0.2, 0.2, (40, 33))
    f[:, 5] = np.linspace(0.5, 0.2, 40) * -np.sign(coef[5])
    mon = degeneracy_monitor((f,), "westervelt", model)
    full = full_array_monitor((f,), "westervelt", model)
    assert mon["alpha_min"] == full["alpha_min"] < 0 < full["alpha_max"]
    assert mon["alpha_max"] == full["alpha_max"]
    if taubar > 0:
        assert np.isfinite(full["stability_margin_min"])
        assert mon["stability_margin_min"] == -np.inf
    else:
        assert mon["stability_margin_min"] == full["stability_margin_min"]


@pytest.fixture
def gradient_calls(monkeypatch):
    """Every call of spatial.gradient, through each module that binds it."""
    import sys

    from hbwave import spatial

    original, calls = spatial.gradient, []

    def counting(v, grid):
        calls.append(np.shape(v))
        return original(v, grid)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "hbwave"
                and getattr(module, "gradient", None) is original):
            monkeypatch.setattr(module, "gradient", counting)
    return calls


def test_picard_takes_one_gradient_per_state(gradient_calls):
    # the gradient serves both u0lo norms and the Kuznetsov N(u): one call
    # per iterate, plus one for the start state
    from hbwave.linear import solve_linearized

    model = make_model(nx=33)
    f = monochromatic(model, 0.5)
    cold = fixed_point_solve(f, model, "kuznetsov")
    assert cold.iterations > 5
    assert len(gradient_calls) == cold.iterations + 1
    gradient_calls.clear()
    warm = fixed_point_solve(1.01 * f, model, "kuznetsov", u0=cold.u)
    assert warm.iterations > 1
    assert len(gradient_calls) == warm.iterations + 1
    gradient_calls.clear()
    # the linearized solve's base factors take one more
    lin = solve_linearized(cold.u, f, model, "kuznetsov")
    assert lin.iterations > 5
    assert len(gradient_calls) == lin.iterations + 2


@pytest.mark.parametrize("kind", ["westervelt", "kuznetsov"])
def test_picard_update_norm_is_the_norm_of_the_update(kind):
    # fixed_point measures each update from the difference of the gradients
    # it took, whose rounding is that of the iterates' gradients: the u0lo
    # norm of the update to within 1e-15 of the iterate's, four orders of
    # magnitude below the stopping tolerance
    from hbwave.linear import fixed_point

    model = make_model(nx=33)
    f = monochromatic(model, 0.5 if kind == "kuznetsov" else 0.05)
    states = []

    def rhs(u, grad):
        states.append(u)
        return f + eval_bilinear(u, u, kind, model)

    start = np.zeros_like(f)
    report = fixed_point(rhs, start, model, FixedPointOptions())
    assert report.iterations > 3
    p = model.params
    for update, a, b in zip(report.update_norms, states, states[1:]):
        assert abs(update - u0lo_norm(b - a, model.grid, p.omega, p.T)) \
            <= 1e-15 * u0lo_norm(b, model.grid, p.omega, p.T)
