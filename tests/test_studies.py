import numpy as np
import pytest

from hbwave.diagnostics import compute_energies, energy_ratios
from hbwave.errors import (NoPeriodicAttractor, StepRejected,
                           UndersampledTime, UnknownCase)
from hbwave.linear import solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    to_time_samples,
    validate_model,
)
from hbwave.nonlinear import FixedPointOptions, fixed_point_solve, solve
from hbwave import studies
from hbwave.spatial import assemble_laplacian, band_product
from hbwave.studies import (
    _Oracle,
    convergence_study,
    manufactured_case,
    oracle_discrepancy,
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
    f = np.zeros((M + 1, model.grid.nx), complex)
    f[1] = 0.5 * amp * np.sin(np.pi * model.grid.nodes)
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
    assert np.all(case.f == 0)
    assert np.all(case.u_star == 0)


def test_westervelt_case_has_harmonics_one_and_two():
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **{**COEFFS, "eta": 1.0})
    case = manufactured_case("westervelt-dirichlet", params, grid)
    assert np.max(np.abs(case.f[1])) > 0
    assert np.max(np.abs(case.f[2])) > 0
    assert np.max(np.abs(case.f[0])) == 0


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
        u = solve(case.f, model, case.kind).u
        rel = (np.max(np.abs((u - case.u_star)))
               / np.max(np.abs(case.u_star)))
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


@pytest.mark.parametrize("kind, extra", [("linear", {}),
                                         ("westervelt", {"eta": 1.0})])
def test_tau_sweep_ratios_are_the_diagnostics_ratios(kind, extra):
    model = make_model(**extra)
    f = drive(model)
    taus = [0.2, 0.0]
    result = tau_sweep(f, model, taus, kind=kind)
    for tau, row in zip(taus, result.rows):
        m_tau = model.with_params(model.params.with_tau(tau))
        report = solve(f, m_tau, kind)
        ratios = energy_ratios(compute_energies(report.u, m_tau), report.rhs,
                               m_tau)
        # the same floats, not merely close ones
        assert (row["E_lo_ratio"], row["ratio_me"], row["ratio_hi"]) == (
            ratios["ratio_lo"], ratios["ratio_me"], ratios["ratio_hi"])


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
    f = np.zeros((3, 17), complex)
    samples, gap, _ = time_stepping_oracle(f, model, "linear", n_steps=64,
                                           max_periods=3)
    assert gap == 0.0
    assert np.all(samples == 0.0)


def test_oracle_matches_harmonic_balance_linear():
    model = make_model(nx=33)
    f = drive(model, M=2)
    u = solve_linear_mgt(f, model)
    samples, gap, _ = time_stepping_oracle(f, model, "linear", n_steps=256,
                                           max_periods=60, period_tol=1e-8)
    assert gap < 1e-8
    assert oracle_discrepancy(u, samples, model) < 1e-3


def test_oracle_discrepancy_improves_with_smaller_dt():
    model = make_model(nx=33)
    f = drive(model, M=2)
    u = solve_linear_mgt(f, model)
    d = []
    for div in (64, 128):
        samples, _, _ = time_stepping_oracle(f, model, "linear",
                                             n_steps=div, max_periods=60,
                                             period_tol=1e-8)
        d.append(oracle_discrepancy(u, samples, model))
    assert d[1] < d[0]


def test_oracle_discrepancy_is_a_relative_sample_norm():
    # the reference norm comes from the harmonics (Parseval); it must
    # equal the weighted sum of squares over the samples
    model = make_model(nx=17)
    rng = np.random.default_rng(5)
    M, nt = 3, 8
    u = rng.normal(size=(M + 1, 17)) + 1j * rng.normal(size=(M + 1, 17))
    hb = to_time_samples(u, nt)
    other = rng.normal(size=hb.shape)
    w = model.grid.trapezoid_weights()
    expected = np.sqrt(np.sum((hb - other)**2 * w) / np.sum(hb**2 * w))
    assert oracle_discrepancy(u, other, model) == pytest.approx(
        expected, rel=1e-14)
    assert oracle_discrepancy(u, np.zeros_like(hb),
                              model) == pytest.approx(1.0, rel=1e-14)


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
    u = solve(f, model, kind).u
    samples, gap, _ = time_stepping_oracle(f, model, kind, n_steps=512,
                                           period_tol=1e-8)
    assert gap < 1e-8
    assert oracle_discrepancy(u, samples, model) < 1e-3


def test_oracle_second_harmonic_agreement_westervelt():
    model = make_model(eta=1.0)
    f = drive(model, amp=6e-3)
    u = fixed_point_solve(f, model, "westervelt").u
    samples, _, _ = time_stepping_oracle(f, model, "westervelt", n_steps=256,
                                         max_periods=60, period_tol=1e-9)
    from hbwave.model import to_harmonics
    u_or = to_harmonics(samples, len(u) - 1)
    a_hb = np.max(np.abs(u[2]))
    a_or = np.max(np.abs(u_or[2]))
    assert a_or == pytest.approx(a_hb, rel=1e-2)


def test_oracle_reports_missing_attractor():
    model = make_model(nx=17)
    f = drive(model, M=2)
    with pytest.raises(NoPeriodicAttractor) as exc:
        time_stepping_oracle(f, model, "linear", n_steps=64, max_periods=2,
                             period_tol=1e-14)
    assert len(exc.value.gaps) == 2


def test_oracle_tau_zero_path():
    model = make_model(tau=0.0)
    f = drive(model, M=2)
    u = solve_linear_mgt(f, model)
    samples, gap, _ = time_stepping_oracle(f, model, "linear", n_steps=256,
                                           max_periods=60, period_tol=1e-8)
    assert oracle_discrepancy(u, samples, model) < 1e-3


def dense_laplacian(model):
    """The non-Dirichlet nodes, the dense discrete Laplacian on them, and
    the u_t coefficient of each row: lap(u, u_t) = lap @ u + lap_ut u_t."""
    op = assemble_laplacian(model.grid, model.bc_left, model.bc_right, 0,
                            model.params.omega)
    bands = op.bands.real
    lap = -(np.diag(bands[1]) + np.diag(bands[0, 1:], 1)
            + np.diag(bands[2, :-1], -1))
    # a Robin endpoint's ghost node adds -2 beta / h times u_t to its row
    lap_ut = np.zeros(len(op.active))
    for pos, bc in ((0, model.bc_left), (-1, model.bc_right)):
        if not bc.is_dirichlet:
            lap_ut[pos] = -2.0 * bc.beta / model.grid.h
    return op.active, lap, lap_ut


def dense_forcing(model, f, active, t):
    phases = np.exp(1j * np.arange(1, len(f)) * model.params.omega * t)
    c = f[:, active]
    return c[0].real + 2.0 * (phases @ c[1:]).real


def dense_midpoint_step(model, f, y, t, dt):
    """One implicit-midpoint step (I - hA)^{-1} (y + hAy + dt g), h = dt/2,
    of the linear kind's first-order system y' = A y + g(t), with A dense:
    y = (u, u_t, u_tt) when tau > 0 and (u, u_t) when tau = 0."""
    p = model.params
    active, lap, lap_ut = dense_laplacian(model)
    nr = len(active)
    b, c2 = p.b[active], p.c2[active]
    eye, zero = np.eye(nr), np.zeros((nr, nr))
    forcing = dense_forcing(model, f, active, t + dt / 2)
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
    f = np.zeros((4, grid.nx), complex)
    f[:] = rng.standard_normal((4, grid.nx))
    f[1:] += 1j * rng.standard_normal((3, grid.nx))
    oracle = _Oracle(f, model, "linear", 64)
    y = rng.standard_normal((3 if tau > 0 else 2, oracle.nr))
    # step 19 of 64 starts at t = 19 dt
    expected = dense_midpoint_step(model, f, y, 19 * oracle.dt, oracle.dt)
    got, z = oracle.step(y, 19)
    assert got.shape == y.shape
    assert (np.linalg.norm(got - expected)
            <= 1e-12 * np.linalg.norm(expected))
    # the linear stage takes one solve, so its start does not matter
    guessed, _ = oracle.step(y, 19, (rng.standard_normal(oracle.nr),))
    assert np.array_equal(guessed, got)
    # z is the midpoint of the top derivative
    assert np.allclose(z, 0.5 * (y[-1] + got[-1]), rtol=0, atol=1e-12)


def dense_first_order_rhs(model, f, kind):
    """F(t, y) of the first-order system y' = F(t, y) of any kind, with
    dense Laplacians and numpy's gradient: y = (u, u_t, u_tt) when tau > 0
    and (u, u_t) when tau = 0, on the non-Dirichlet nodes."""
    p, grid = model.params, model.grid
    active, lap, lap_ut = dense_laplacian(model)
    b, c2 = p.b[active], p.c2[active]
    eta, eta_tilde = p.eta[active], p.eta_tilde[active]

    def grad(v):
        full = np.zeros(grid.nx)
        full[active] = v
        return np.gradient(full, grid.h, edge_order=2)[active]

    def F(t, y):
        forcing = dense_forcing(model, f, active, t)
        u, v = y[0], y[1]
        # (alpha - 1) and r_nl of  ... + alpha u_tt + r_nl = ...
        if kind == "westervelt":       # (eta u^2)_tt
            da, r_nl = 2 * eta * u, 2 * eta * v**2
        else:                          # (eta~ u_t^2 + |u_x|^2)_t
            da, r_nl = 2 * eta_tilde * v, 2 * grad(u) * grad(v)
        lap_u = lap @ u + lap_ut * v
        if p.tau > 0:
            w = y[2]
            # tau u_ttt + alpha u_tt + r_nl = c2 lap(u, u_t)
            #                                 + b lap(u_t, u_tt) - forcing
            w_t = (c2 * lap_u + b * (lap @ v + lap_ut * w) - forcing
                   - (1 + da) * w - r_nl) / p.tau
            return np.array([v, w, w_t])
        w = ((c2 * lap_u + b * (lap @ v) - r_nl - forcing)
             / (1 + da - b * lap_ut))
        return np.array([v, w])
    return F


@pytest.mark.parametrize("tau", [0.1, 0.0])
@pytest.mark.parametrize("kind", ["westervelt", "kuznetsov"])
@pytest.mark.parametrize("bc_left, bc_right", [
    (DIRICHLET, ABSORBING), (NEUMANN, IMPEDANCE)])
def test_oracle_step_solves_the_nonlinear_midpoint_equation(kind, tau,
                                                            bc_left,
                                                            bc_right):
    grid = Grid(1.0, 17)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, tau=tau, eta=1.0, eta_tilde=1.0,
        b=smooth(grid.nodes, 0.08, 1), c2=smooth(grid.nodes, -0.06, 2)))
    model = validate_model(grid, params, bc_left, bc_right)
    rng = np.random.default_rng(7)
    f = np.zeros((4, grid.nx), complex)
    f[:] = 0.1 * rng.standard_normal((4, grid.nx))
    oracle = _Oracle(f, model, kind, 64)
    F = dense_first_order_rhs(model, f, kind)
    dt = oracle.dt
    # smooth states of size 0.1, so the stage iteration contracts
    x = grid.nodes[oracle.op.active]
    y = 0.1 * np.array([np.cos(k * np.pi * x + rng.uniform(0, 6))
                        for k in range(1, 4)])[:3 if tau > 0 else 2]
    zs = ()
    # a first step, then from the linear and the quadratic starts
    for j in range(19, 24):
        y_new, z = oracle.step(y, j, zs)
        res = y_new - y - dt * F((j + 0.5) * dt, 0.5 * (y + y_new))
        assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(y_new)
        y, zs = y_new, (z, *zs[:2])


@pytest.mark.parametrize("kind, kw", [("linear", {}),
                                      ("westervelt", {"eta": 1.0})])
def test_oracle_stage_solve_count(monkeypatch, kind, kw):
    """The linear kind's stage takes one solve a step.  The march stops
    after the period whose gap it reports: 5 periods of 512 steps here,
    where marching a sixth period only to sample it made 6.  The Westervelt
    run takes 2 solves a step from its quadratic start with the
    contraction-based stop, 5,120 in all, where 3 a step from the linear
    start made 9,216 over 6 periods and the start from the old state
    12,005.  The first steps, whose start is cruder, may take a few more.
    The stage is factored once, and the counts the march returns are the
    ones counted here."""
    counts = {"factors": 0, "solves": 0, "steps": 0}
    factor = studies.tridiagonal_solver

    def counted_factor(bands):
        counts["factors"] += 1
        solve_stage = factor(bands)

        def counted(rhs):
            counts["solves"] += 1
            return solve_stage(rhs)
        return counted

    step = _Oracle.step

    def counted_step(self, *args):
        counts["steps"] += 1
        return step(self, *args)

    monkeypatch.setattr(studies, "tridiagonal_solver", counted_factor)
    monkeypatch.setattr(_Oracle, "step", counted_step)
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, b=smooth(grid.nodes, 0.08, 1),
        c2=smooth(grid.nodes, -0.06, 2), **kw))
    model = validate_model(grid, params, DIRICHLET, ABSORBING)
    _, gap, march = time_stepping_oracle(drive(model), model, kind,
                                         n_steps=512, period_tol=1e-8)
    assert gap < 1e-8
    assert counts["factors"] == 1
    assert counts["steps"] == 5 * 512
    assert march == {"periods": 5, "steps": counts["steps"],
                     "stage_solves": counts["solves"]}
    if kind == "linear":
        assert counts["solves"] == counts["steps"]
    else:
        assert counts["solves"] <= 2 * counts["steps"] + 16


def recorded_steps(monkeypatch):
    """Patch _Oracle.step to record (oracle, y, j, y_new, z) per step."""
    steps = []
    step = _Oracle.step

    def recorded(self, y, j, zs=()):
        y_new, z = step(self, y, j, zs)
        steps.append((self, y, j, y_new, z))
        return y_new, z
    monkeypatch.setattr(_Oracle, "step", recorded)
    return steps


@pytest.mark.parametrize("n_steps", [0, 2 * 4 + 1])
def test_oracle_checks_its_step_count_before_marching(monkeypatch, n_steps):
    # M = 4 needs 2M + 2 = 10 samples a period; 0 steps would divide by 0
    model = make_model(nx=17)
    steps = recorded_steps(monkeypatch)
    with pytest.raises(UndersampledTime):
        time_stepping_oracle(drive(model, M=4), model, "linear",
                             n_steps=n_steps)
    assert steps == []


def stage_fixed_point(oracle, y, j, z, solves=10):
    """The stage's fixed point, by iterating _Oracle.step's stage map
    from z: K z = sum over rows k of lin_k y_k - forcing - rest(mid(z))."""
    forcing = oracle.forcing[j]
    r = band_product(oracle.lin_bands, y.reshape(-1)).reshape(y.shape)
    rhs = r.sum(axis=0) - forcing
    for _ in range(solves):
        mid = oracle.P @ y + oracle.g[:, None] * z
        z = oracle.solve_stage(rhs - oracle._rest(mid, forcing))
    return z


@pytest.mark.parametrize("amp", [6e-3, 0.3])
@pytest.mark.parametrize("tau", [0.1, 0.0])
@pytest.mark.parametrize("kind", ["westervelt", "kuznetsov"])
def test_oracle_stage_values_are_within_tolerance_of_the_fixed_point(
        monkeypatch, kind, tau, amp):
    """Every stage value the march accepts moves the new state by at most
    STAGE_TOL (|y_new| + 1) from its stage's fixed point: here by at most
    0.11 of that.  With theta the step's own last ratio, Kuznetsov at
    tau = 0 and amplitude 6e-3 misses by 1.4x.  With STAGE_SAFETY = 1, two
    cases miss, by up to 1.5x; with both, six of the eight, by up to
    3.8x."""
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, tau=tau, eta=1.0, eta_tilde=1.0,
        b=smooth(grid.nodes, 0.08, 1), c2=smooth(grid.nodes, -0.06, 2)))
    model = validate_model(grid, params, DIRICHLET, ABSORBING)
    steps = recorded_steps(monkeypatch)
    # two periods from zero data: the first one's gap is 1, the second's less
    time_stepping_oracle(drive(model, amp), model, kind, n_steps=64,
                         max_periods=2, period_tol=1.0)
    assert len(steps) == 2 * 64
    for oracle, y, j, y_new, z in steps:
        error = oracle.dz_gain * np.linalg.norm(
            z - stage_fixed_point(oracle, y, j, z))
        assert error <= oracle.STAGE_TOL * (np.linalg.norm(y_new) + 1.0)


@pytest.mark.parametrize("kind, kw", [("linear", {}),
                                      ("westervelt", {"eta": 1.0})])
def test_oracle_samples_the_period_whose_gap_it_reports(monkeypatch, kind,
                                                        kw):
    model = make_model(nx=17, **kw)
    steps = recorded_steps(monkeypatch)
    samples, gap, counts = time_stepping_oracle(
        drive(model, M=2), model, kind, n_steps=64, period_tol=1e-6)
    periods = counts["periods"]
    assert periods > 1
    assert counts["steps"] == len(steps) == periods * 64
    last = steps[-64:]
    assert [j for _, _, j, _, _ in last] == list(range(64))
    # row j: u at the start of step j, Dirichlet nodes 0
    active = last[0][0].op.active
    expected = np.zeros((64, model.grid.nx))
    expected[:, active] = [y[0] for _, y, _, _, _ in last]
    assert np.array_equal(samples, expected)
    y_start, y_end = last[0][1], last[-1][3]
    assert gap == np.linalg.norm(y_end - y_start) / np.linalg.norm(y_end)
    assert gap < 1e-6


def test_oracle_step_rejected_after_max_stage_iterations(monkeypatch):
    model = make_model(nx=17, eta=1.0)
    oracle = _Oracle(drive(model), model, "westervelt", 64)
    solves = []
    solve_stage = oracle.solve_stage
    oracle.solve_stage = lambda rhs: solves.append(1) or solve_stage(rhs)
    monkeypatch.setattr(_Oracle, "STAGE_TOL", -1.0)     # never met
    y = np.full((3, oracle.nr), 1e-3)
    with pytest.raises(StepRejected, match="step 5 of the period"):
        oracle.step(y, 5)
    assert len(solves) == _Oracle.MAX_STAGE_ITER


def test_taylor_perturbed_solves_start_from_the_linearization():
    # the deriv-check smoke inputs: 33 nodes, M = 8, Kuznetsov, absorbing
    # right end; from zero the eps solves take 59 iterations in all
    grid = Grid(1.0, 33)
    x = grid.nodes
    params = PhysicalParams.create(
        grid, tau=0.1, taubar=0.5, b=1.0 + 0.05 * np.cos(np.pi * x),
        c2=1.0 + 0.05 * np.sin(2 * np.pi * x), eta_tilde=1.0, T=2 * np.pi)
    model = validate_model(grid, params, DIRICHLET,
                           BoundaryCondition(BCKind.ABSORBING, beta=1.0), 8)
    f = np.zeros((9, 33), complex)
    f[1] = np.sin(np.pi * x)
    result = taylor_test(f, f, model, "kuznetsov", [1e-1, 1e-2, 1e-3])
    iterations = result.metadata["picard_iterations"]
    assert set(iterations) == {"base", "linearized", "eps"}
    assert len(iterations["eps"]) == 3 and sum(iterations["eps"]) <= 40
    slopes = [r["slope"] for r in result.rows if r["slope"] is not None]
    assert len(slopes) == 2
    for slope in slopes:
        assert slope == pytest.approx(2.0, abs=0.01)
