import numpy as np
import pytest

from hbwave.errors import NoPeriodicAttractor, UnknownCase
from hbwave.linear import solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    validate_model,
)
from hbwave.nonlinear import FixedPointOptions, fixed_point_solve, solve
from hbwave.spatial import assemble_laplacian
from hbwave.studies import (
    _Oracle,
    convergence_study,
    manufactured_case,
    oracle_discrepancy,
    solve_case,
    tau_sweep,
    taylor_test,
    time_stepping_oracle,
)

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)
COEFFS = dict(tau=0.1, taubar=0.5, b=1.0, c2=1.0, eta=0.0, eta_tilde=0.0,
              T=2 * np.pi)


def make_model(nx=65, **kw):
    grid = Grid(1.0, nx)
    defaults = dict(COEFFS)
    defaults.update(kw)
    params = PhysicalParams.create(grid, **defaults)
    return validate_model(grid, params, DIRICHLET, DIRICHLET)


def drive(model, amp=6e-3, M=4):
    f = HarmonicField.zeros(M, model.grid.nx)
    f.coeffs[1] = 0.5 * amp * np.sin(np.pi * model.grid.nodes)
    return f


def test_unknown_case_rejected():
    grid = Grid(1.0, 9)
    params = PhysicalParams.create(grid, **COEFFS)
    with pytest.raises(UnknownCase):
        manufactured_case("linear-robin", params, grid)


def test_zero_amplitude_gives_zero_case():
    grid = Grid(1.0, 17)
    params = PhysicalParams.create(grid, **COEFFS)
    case = manufactured_case("linear-dirichlet", params, grid, amplitude=0.0)
    assert np.all(case.f.coeffs == 0)
    assert np.all(case.u_star.coeffs == 0)


def test_westervelt_case_has_harmonics_one_and_two():
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **{**COEFFS, "eta": 1.0})
    case = manufactured_case("westervelt-dirichlet", params, grid)
    assert np.max(np.abs(case.f.coeffs[1])) > 0
    assert np.max(np.abs(case.f.coeffs[2])) > 0
    assert np.max(np.abs(case.f.coeffs[0])) == 0


def test_convergence_linear_dirichlet_second_order():
    result = convergence_study("linear-dirichlet", COEFFS, 1.0,
                               [33, 65, 129])
    assert result.metadata["pass"]
    for order in result.metadata["orders_l2l2"]:
        assert order == pytest.approx(2.0, abs=0.2)


def test_convergence_impedance_second_order():
    result = convergence_study("linear-impedance", COEFFS, 1.0,
                               [33, 65, 129])
    assert result.metadata["pass"]


def test_convergence_needs_three_grids():
    with pytest.raises(ValueError):
        convergence_study("linear-dirichlet", COEFFS, 1.0, [33, 65])


def test_nonlinear_cases_recover_manufactured_solution():
    for case_id, extra in (("westervelt-dirichlet", {"eta": 1.0}),
                           ("kuznetsov-dirichlet", {"eta_tilde": 1.0})):
        grid = Grid(1.0, 129)
        params = PhysicalParams.create(grid, **{**COEFFS, **extra})
        case = manufactured_case(case_id, params, grid)
        model = validate_model(grid, params, case.bc_left, case.bc_right)
        u = solve_case(case, model)
        rel = (np.max(np.abs((u - case.u_star).coeffs))
               / np.max(np.abs(case.u_star.coeffs)))
        assert rel < 5e-4


def test_tau_sweep_monotone_with_reference_row():
    model = make_model(taubar=0.5)
    f = drive(model)
    taus = [0.4, 0.2, 0.1, 0.05, 0.0]
    result = tau_sweep(f, model, taus, kind="linear")
    d = [row["d_lo"] for row in result.rows]
    assert all(a > b for a, b in zip(d[:-2], d[1:-1]))
    assert d[-1] == 0.0  # tau = 0 row is the reference itself, bitwise


def test_tau_sweep_reports_rate_when_tau_halves():
    model = make_model()
    result = tau_sweep(drive(model), model, [0.4, 0.2, 0.1, 0.0],
                       kind="linear")
    rates = [row["rate"] for row in result.rows if row["rate"] is not None]
    assert len(rates) == 2
    for rate in rates:
        assert 0.5 < rate < 1.5


def test_taylor_linear_problem_zero_remainder():
    model = make_model(eta=0.0)
    f = drive(model)
    result = taylor_test(f, f, model, "westervelt", [1e-1, 1e-2, 1e-3],
                         opts=FixedPointOptions(tol=1e-14, max_iter=200))
    for row in result.rows:
        assert row["remainder"] < 1e-12


def test_taylor_second_order_remainder_and_first_order_difference():
    model = make_model(eta=1.0)
    f = drive(model, amp=6e-3)
    result = taylor_test(f, f, model, "westervelt", [1e-1, 1e-2, 1e-3],
                         opts=FixedPointOptions(tol=1e-14, max_iter=200))
    slopes = [row["slope"] for row in result.rows if row["slope"] is not None]
    for slope in slopes:
        assert slope == pytest.approx(2.0, abs=0.1)
    diff_slopes = [row["diff_slope"] for row in result.rows
                   if row.get("diff_slope") is not None]
    for slope in diff_slopes:
        assert slope == pytest.approx(1.0, abs=0.05)


def test_oracle_zero_forcing_stays_zero():
    model = make_model(nx=17)
    f = HarmonicField.zeros(2, 17)
    tf, gap = time_stepping_oracle(f, model, "linear", dt=model.params.T / 64,
                                   max_periods=3)
    assert gap == 0.0
    assert np.all(tf.values == 0.0)


def test_oracle_matches_harmonic_balance_linear():
    model = make_model(nx=33)
    f = drive(model, M=2)
    u = solve_linear_mgt(f, model)
    tf, gap = time_stepping_oracle(f, model, "linear",
                                   dt=model.params.T / 256,
                                   max_periods=60, period_tol=1e-8)
    assert gap < 1e-8
    assert oracle_discrepancy(u, tf, model) < 1e-3


def test_oracle_discrepancy_improves_with_smaller_dt():
    model = make_model(nx=33)
    f = drive(model, M=2)
    u = solve_linear_mgt(f, model)
    d = []
    for div in (64, 128):
        tf, _ = time_stepping_oracle(f, model, "linear",
                                     dt=model.params.T / div,
                                     max_periods=60, period_tol=1e-8)
        d.append(oracle_discrepancy(u, tf, model))
    assert d[1] < d[0]


ABSORBING = BoundaryCondition(BCKind.ABSORBING, beta=1.0)
IMPEDANCE = BoundaryCondition(BCKind.IMPEDANCE, gamma=1.0)
NEUMANN = BoundaryCondition(BCKind.NEUMANN)


def smooth(x, a, k):
    # a nodal coefficient within 1 +- |a|
    return 1.0 + a * np.cos(k * np.pi * x)


@pytest.mark.parametrize("kind, bc_left, bc_right, heterogeneous, kw", [
    pytest.param("linear", DIRICHLET, ABSORBING, False, {},
                 id="linear-dirichlet-absorbing"),
    pytest.param("linear", DIRICHLET, IMPEDANCE, False, {},
                 id="linear-dirichlet-impedance"),
    pytest.param("linear", NEUMANN, IMPEDANCE, False, {},
                 id="linear-neumann-impedance"),
    pytest.param("linear", DIRICHLET, DIRICHLET, True, {},
                 id="linear-heterogeneous"),
    pytest.param("westervelt", DIRICHLET, ABSORBING, True, {"eta": 1.0},
                 id="westervelt-heterogeneous-absorbing"),
    pytest.param("kuznetsov", DIRICHLET, DIRICHLET, False,
                 {"eta_tilde": 1.0}, id="kuznetsov-dirichlet-dirichlet"),
    pytest.param("kuznetsov", DIRICHLET, ABSORBING, False,
                 {"eta_tilde": 1.0}, id="kuznetsov-dirichlet-absorbing"),
    pytest.param("westervelt", DIRICHLET, DIRICHLET, False,
                 {"eta": 1.0, "tau": 0.0}, id="westervelt-tau0"),
])
def test_oracle_cross_check_matrix(kind, bc_left, bc_right, heterogeneous,
                                   kw):
    grid = Grid(1.0, 33)
    coeffs = dict(COEFFS, **kw)
    if heterogeneous:
        coeffs["b"] = smooth(grid.nodes, 0.08, 1)
        coeffs["c2"] = smooth(grid.nodes, -0.06, 2)
    params = PhysicalParams.create(grid, **coeffs)
    model = validate_model(grid, params, bc_left, bc_right)
    f = drive(model)
    u = solve(f, model, kind)
    tf, gap = time_stepping_oracle(f, model, kind, dt=model.params.T / 512,
                                   period_tol=1e-8)
    assert gap < 1e-8
    assert oracle_discrepancy(u, tf, model) < 1e-3


def test_oracle_second_harmonic_agreement_westervelt():
    model = make_model(eta=1.0)
    f = drive(model, amp=6e-3)
    u = fixed_point_solve(f, model, "westervelt").u
    tf, _ = time_stepping_oracle(f, model, "westervelt",
                                 dt=model.params.T / 256,
                                 max_periods=60, period_tol=1e-9)
    from hbwave.model import to_harmonics
    u_or = to_harmonics(tf, u.M)
    a_hb = np.max(np.abs(u.coeffs[2]))
    a_or = np.max(np.abs(u_or.coeffs[2]))
    assert a_or == pytest.approx(a_hb, rel=1e-2)


def test_oracle_reports_missing_attractor():
    model = make_model(nx=17)
    f = drive(model, M=2)
    with pytest.raises(NoPeriodicAttractor) as exc:
        time_stepping_oracle(f, model, "linear", dt=model.params.T / 64,
                             max_periods=2, period_tol=1e-14)
    assert len(exc.value.gaps) == 2


def test_oracle_tau_zero_path():
    model = make_model(tau=0.0)
    f = drive(model, M=2)
    u = solve_linear_mgt(f, model)
    tf, gap = time_stepping_oracle(f, model, "linear",
                                   dt=model.params.T / 256,
                                   max_periods=60, period_tol=1e-8)
    assert oracle_discrepancy(u, tf, model) < 1e-3


def dense_midpoint_step(model, f, y, t, dt):
    """One implicit-midpoint step (I - hA)^{-1} (y + hAy + dt g), h = dt/2,
    of the linear kind's first-order system y' = A y + g(t), with A dense:
    y = (u, u_t, u_tt) when tau > 0 and (u, u_t) when tau = 0."""
    p = model.params
    op = assemble_laplacian(model.grid, model.bc_left, model.bc_right, 0,
                            p.omega)
    nr = len(op.active)
    bands = op.bands.real
    lap = -(np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
            + np.diag(bands[2, :-1], -1))
    # a Robin endpoint's ghost node adds -2 beta / h times u_t to its row
    lap_ut = np.zeros(nr)
    for pos, bc in ((0, model.bc_left), (-1, model.bc_right)):
        if not bc.is_dirichlet:
            lap_ut[pos] = -2.0 * bc.beta / model.grid.h
    b, c2 = p.b[op.active], p.c2[op.active]
    eye, zero = np.eye(nr), np.zeros((nr, nr))
    c = f.coeffs[:, op.active]
    phases = np.exp(1j * np.arange(1, f.M + 1) * p.omega * (t + dt / 2))
    forcing = c[0].real + 2.0 * (phases @ c[1:]).real
    # tau u_ttt + u_tt = c2 lap(u, u_t) + b lap(u_t, u_tt) - forcing
    rows = [c2[:, None] * lap, b[:, None] * lap + np.diag(c2 * lap_ut),
            np.diag(b * lap_ut) - eye]
    if p.tau > 0:
        A = np.block([[zero, eye, zero], [zero, zero, eye],
                      [r / p.tau for r in rows]])
        g = np.concatenate([np.zeros(2 * nr), -forcing / p.tau])
    else:
        D = -rows[2].diagonal()[:, None]
        A = np.block([[zero, eye], [rows[0] / D, rows[1] / D]])
        g = np.concatenate([np.zeros(nr), -forcing / D[:, 0]])
    h = dt / 2
    y = y.reshape(-1)
    return np.linalg.solve(np.eye(len(y)) - h * A,
                           y + h * A @ y + dt * g).reshape(-1, nr)


@pytest.mark.parametrize("tau", [0.1, 0.0])
@pytest.mark.parametrize("bc_left, bc_right", [
    (DIRICHLET, DIRICHLET), (DIRICHLET, ABSORBING), (NEUMANN, IMPEDANCE),
    (ABSORBING, IMPEDANCE)])
def test_oracle_step_matches_dense_midpoint_step(tau, bc_left, bc_right):
    grid = Grid(1.0, 17)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, tau=tau, b=smooth(grid.nodes, 0.08, 1),
        c2=smooth(grid.nodes, -0.06, 2)))
    model = validate_model(grid, params, bc_left, bc_right)
    rng = np.random.default_rng(5)
    f = HarmonicField.zeros(3, grid.nx)
    f.coeffs[:] = rng.standard_normal((4, grid.nx))
    f.coeffs[1:] += 1j * rng.standard_normal((3, grid.nx))
    dt = params.T / 64
    oracle = _Oracle(f, model, "linear", dt)
    y = rng.standard_normal((3 if tau > 0 else 2, oracle.nr))
    expected = dense_midpoint_step(model, f, y, 0.3, dt)
    got = oracle.step(y, 0.3)
    assert got.shape == y.shape
    assert (np.linalg.norm(got - expected)
            <= 1e-12 * np.linalg.norm(expected))
