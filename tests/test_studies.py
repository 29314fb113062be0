import numpy as np
import pytest

import hbwave.oracle
from hbwave.diagnostics import compute_energies, energy_ratios
from hbwave.errors import (NoPeriodicAttractor, StepRejected, TypeMismatch,
                           UndersampledTime)
from hbwave.linear import solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    dealiased_samples,
    time_derivative,
    to_harmonics,
    to_time_samples,
    validate_model,
)
from hbwave.nonlinear import FixedPointOptions, fixed_point_solve, solve
from hbwave import studies
from hbwave.oracle import _Oracle, oracle_discrepancy, time_stepping_oracle
from hbwave.spatial import assemble_laplacian
from hbwave.studies import (
    MMS_AMPLITUDE,
    convergence_study,
    manufactured_case,
    observed_order,
    tau_sweep,
    taylor_test,
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


# the ends of the manufactured-solution matrix; validation accepts a pair
# with a Dirichlet or an impedance end
ENDS = {"dirichlet": DIRICHLET,
        "impedance": BoundaryCondition(BCKind.IMPEDANCE, gamma=1.5),
        "neumann": BoundaryCondition(BCKind.NEUMANN),
        "absorbing": BoundaryCondition(BCKind.ABSORBING, beta=1.0)}
END_PAIRS = [(left, right) for left in ENDS for right in ENDS
             if {left, right} & {"dirichlet", "impedance"}]


def variable_model(left="dirichlet", right="absorbing", nx=129, M=4,
                   tau=0.1):
    """A model with space-dependent b, c2, eta and eta_tilde."""
    grid = Grid(1.0, nx)
    x = grid.nodes
    params = PhysicalParams.create(
        grid, tau=tau, taubar=0.5, b=1.0 + 0.1 * np.cos(np.pi * x),
        c2=1.0 + 0.1 * np.sin(2.0 * np.pi * x), eta=1.0 + 0.3 * x,
        eta_tilde=0.8 + 0.4 * x**2, T=2 * np.pi)
    return validate_model(grid, params, ENDS[left], ENDS[right], M)


@pytest.mark.parametrize("tau", [0.1, 0.0])
@pytest.mark.parametrize("kind", ["linear", "westervelt", "kuznetsov"])
@pytest.mark.parametrize("left, right", END_PAIRS,
                         ids=[f"{left}-{right}" for left, right in END_PAIRS])
def test_manufactured_solution_refines_at_second_order(left, right, kind,
                                                       tau):
    # all 72 cases take about 1 s; a nodal nonlinearity coefficient taken
    # at the wrong nodes, or applied to the wrong term, leaves an O(h^0)
    # error and an order near 0
    result = convergence_study(variable_model(left, right, tau=tau), kind)
    assert [row["nx"] for row in result.rows] == [33, 65, 129]
    assert result.metadata["pass"]
    for row in result.rows[1:]:
        for key in ("order_l2l2", "order_u0lo"):
            assert row[key] == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("kind, M, harmonics", [
    ("linear", 1, [1]), ("linear", 4, [1, 2]), ("westervelt", 3, [1]),
    ("kuznetsov", 4, [1, 2])])
def test_manufactured_case_keeps_r_below_harmonic_M(kind, M, harmonics):
    # a nonlinear kind's r[u*] reaches harmonic 2K, so K <= M // 2
    model = variable_model(nx=17, M=M)
    u_star, f = manufactured_case(model, kind)
    assert u_star.shape == f.shape == (M + 1, 17)
    assert [m for m in range(M + 1) if np.any(u_star[m])] == harmonics
    assert not np.any(f[0])


@pytest.mark.parametrize("kind", ["westervelt", "kuznetsov"])
@pytest.mark.parametrize("left, right", END_PAIRS,
                         ids=[f"{left}-{right}" for left, right in END_PAIRS])
def test_manufactured_forcing_matches_the_closed_form_of_r(left, right,
                                                          kind):
    # the forcing takes r[u*, u*] from the solver's bilinear form; here r
    # is written out, eta (u^2)_tt or (eta~ u_t^2 + u_x^2)_t, with u*_x
    # the exact derivative of u*_m = (A/2) (sin(k x) + a x^2 + c (L - x)^2)
    model = variable_model(left, right, nx=33, M=4)
    grid, p, M = model.grid, model.params, model.M
    L, x, omega, k = grid.L, grid.nodes, p.omega, np.pi / grid.L
    ux = np.zeros((M + 1, grid.nx), complex)
    for m in (1, 2):
        a, c = (0.0 if bc.is_dirichlet else
                k / (L * (2.0 + bc.robin_coefficient(m, omega) * L))
                for bc in (model.bc_right, model.bc_left))
        ux[m] = 0.5 * MMS_AMPLITUDE * (k * np.cos(k * x)
                                       + 2.0 * (a * x - c * (L - x)))
    u, f = manufactured_case(model, kind)
    u_linear, f_linear = manufactured_case(model, "linear")   # A_m u*_m
    assert np.array_equal(u, u_linear)
    nt = dealiased_samples(M)
    if kind == "westervelt":
        r = p.eta * time_derivative(
            to_harmonics(to_time_samples(u, nt)**2, M), omega, 2)
    else:
        q = (p.eta_tilde * to_time_samples(time_derivative(u, omega), nt)**2
             + to_time_samples(ux, nt)**2)
        r = time_derivative(to_harmonics(q, M), omega)
    expected = f_linear - r
    assert np.linalg.norm(f - expected) <= 1e-15 * np.linalg.norm(expected)


@pytest.mark.parametrize("e0, e1", [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0),
                                    (-1.0, 0.5), (0.5, -1.0)])
def test_observed_order_is_none_at_a_non_positive_level(e0, e1):
    assert observed_order(e0, e1, 2.0) is None
    assert observed_order(4.0, 1.0, 2.0) == 2.0


@pytest.mark.parametrize("nx, M, kind", [
    (34, 4, "linear"),          # nx - 1 is not a multiple of 4
    (13, 4, "linear"),          # its coarsest level has 4 nodes
    (17, 1, "westervelt"),      # no harmonic for u* below M // 2
    (17, 1, "kuznetsov")])
def test_convergence_study_rejects_before_any_solve(monkeypatch, nx, M,
                                                    kind):
    solved = []
    monkeypatch.setattr(studies, "solve", lambda *a: solved.append(a))
    with pytest.raises(TypeMismatch):
        convergence_study(variable_model(nx=nx, M=M), kind)
    assert solved == []


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
        expected, rel=1e-14, abs=0.0)
    assert oracle_discrepancy(u, np.zeros_like(hb), model) == pytest.approx(
        1.0, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("size", [1.0, 1e200])
def test_oracle_discrepancy_from_a_zero_solution_is_absolute(size):
    # a zero solution's reference sum is 0, so the distance is the samples'
    # own L2(L2) norm, taken over them divided by their largest entry and
    # multiplied back: at 1e200 each square overflows
    model = make_model(nx=17)
    rng = np.random.default_rng(6)
    samples = size * rng.uniform(0.5, 1.0, size=(8, 17))
    w = model.grid.trapezoid_weights()
    expected = size * np.sqrt(np.sum((samples / size) ** 2 * w))
    with np.errstate(over="ignore"):
        d = oracle_discrepancy(np.zeros((4, 17), complex), samples, model)
    assert d == pytest.approx(expected, rel=1e-14, abs=0.0)


ABSORBING = BoundaryCondition(BCKind.ABSORBING, beta=1.0)
IMPEDANCE = BoundaryCondition(BCKind.IMPEDANCE, gamma=1.0)
NEUMANN = BoundaryCondition(BCKind.NEUMANN)


def smooth(x, a, k):
    # a nodal coefficient within 1 +- |a|
    return 1.0 + a * np.cos(k * np.pi * x)


# the matrix's nodes; a nodal nonlinearity coefficient needs a drive of
# amplitude 1.0 to show in the discrepancy: at 6e-3, eta or eta_tilde
# reversed across the nodes in bilinear_product still reads below 4e-5
X = np.linspace(0.0, 1.0, 33)


@pytest.mark.parametrize("kind, bc_left, bc_right, heterogeneous, kw, amp", [
    pytest.param("linear", DIRICHLET, ABSORBING, False, {}, 6e-3,
                 id="linear-dirichlet-absorbing"),
    pytest.param("linear", DIRICHLET, IMPEDANCE, False, {}, 6e-3,
                 id="linear-dirichlet-impedance"),
    pytest.param("linear", NEUMANN, IMPEDANCE, False, {}, 6e-3,
                 id="linear-neumann-impedance"),
    pytest.param("linear", DIRICHLET, DIRICHLET, True, {}, 6e-3,
                 id="linear-heterogeneous"),
    pytest.param("westervelt", DIRICHLET, ABSORBING, True, {"eta": 1.0},
                 6e-3, id="westervelt-heterogeneous-absorbing"),
    pytest.param("kuznetsov", DIRICHLET, DIRICHLET, False,
                 {"eta_tilde": 1.0}, 6e-3,
                 id="kuznetsov-dirichlet-dirichlet"),
    pytest.param("kuznetsov", DIRICHLET, ABSORBING, False,
                 {"eta_tilde": 1.0}, 6e-3,
                 id="kuznetsov-dirichlet-absorbing"),
    pytest.param("westervelt", DIRICHLET, DIRICHLET, False,
                 {"eta": 1.0, "tau": 0.0}, 6e-3, id="westervelt-tau0"),
    pytest.param("westervelt", DIRICHLET, ABSORBING, True,
                 {"eta": 1.0 + 0.5 * X}, 1.0, id="westervelt-nodal-eta"),
    pytest.param("kuznetsov", DIRICHLET, ABSORBING, True,
                 {"eta_tilde": 0.8 + 0.6 * X**2}, 1.0,
                 id="kuznetsov-nodal-eta-tilde"),
])
def test_oracle_cross_check_matrix(kind, bc_left, bc_right, heterogeneous,
                                   kw, amp):
    grid = Grid(1.0, len(X))
    coeffs = dict(COEFFS, **kw)
    if heterogeneous:
        coeffs["b"] = smooth(grid.nodes, 0.08, 1)
        coeffs["c2"] = smooth(grid.nodes, -0.06, 2)
    params = PhysicalParams.create(grid, **coeffs)
    model = validate_model(grid, params, bc_left, bc_right)
    f = drive(model, amp)
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
    assert a_or == pytest.approx(a_hb, rel=1e-2, abs=0.0)


def test_oracle_reports_missing_attractor():
    model = make_model(nx=17)
    f = drive(model, M=2)
    with pytest.raises(NoPeriodicAttractor) as exc:
        time_stepping_oracle(f, model, "linear", n_steps=64, max_periods=2,
                             period_tol=1e-14)
    assert len(exc.value.gaps) == 2


@pytest.mark.parametrize("kind, max_periods, message", [
    ("westerveltt", 200, "unknown kind"),
    ("westervelt", 0, "max_periods must be"),
    ("linear", -1, "max_periods must be"),
], ids=["misspelled-kind", "no-periods", "negative-periods"])
def test_oracle_rejects_bad_input_before_the_first_step(monkeypatch, kind,
                                                        max_periods, message):
    # before the check, a misspelled kind marched as the linear kind and a
    # max_periods of 0 ended in an IndexError after marching nothing
    def stage(*args):
        raise AssertionError("the oracle took a step")
    monkeypatch.setattr(_Oracle, "_stage", stage)
    model = make_model(nx=17, eta=1.0)
    with pytest.raises(ValueError, match=message):
        time_stepping_oracle(drive(model, M=2), model, kind, n_steps=64,
                             max_periods=max_periods)


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
        if kind == "linear":
            da, r_nl = 0.0, 0.0
        elif kind == "westervelt":     # (eta u^2)_tt
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
    # a first step, then from the linear, the quadratic and the quartic
    # starts
    for j in range(19, 26):
        y_new, z = oracle.step(y, j, zs)
        res = y_new - y - dt * F((j + 0.5) * dt, 0.5 * (y + y_new))
        assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(y_new)
        y, zs = y_new, (z, *zs[:4])


@pytest.mark.parametrize("tau", [0.1, 0.0])
@pytest.mark.parametrize("kind", ["linear", "westervelt", "kuznetsov"])
@pytest.mark.parametrize("bc_left, bc_right", [
    (DIRICHLET, ABSORBING), (NEUMANN, IMPEDANCE)])
def test_oracle_damped_step_is_two_backward_euler_half_steps(kind, tau,
                                                             bc_left,
                                                             bc_right):
    """A damped step j takes y to y_h = y + h F((j + 1/2) dt, y_h), then
    y_h to y_new = y_h + h F((j + 1) dt, y_new), with h = dt/2: from the
    march's zero start, and from a smooth state."""
    grid = Grid(1.0, 17)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, tau=tau, eta=1.0, eta_tilde=1.0,
        b=smooth(grid.nodes, 0.08, 1), c2=smooth(grid.nodes, -0.06, 2)))
    model = validate_model(grid, params, bc_left, bc_right)
    rng = np.random.default_rng(11)
    f = np.zeros((4, grid.nx), complex)
    f[:] = 0.1 * rng.standard_normal((4, grid.nx))
    f[1:] += 0.1j * rng.standard_normal((3, grid.nx))
    oracle = _Oracle(f, model, kind, 64)
    F = dense_first_order_rhs(model, f, kind)
    h = 0.5 * oracle.dt
    half_steps = []
    stage = oracle._stage

    def recorded(y, *args):
        y_new, z = stage(y, *args)
        half_steps.append((y, y_new, z))
        return y_new, z
    oracle._stage = recorded
    x = grid.nodes[oracle.op.active]
    state = 0.1 * np.array([np.cos(k * np.pi * x + rng.uniform(0, 6))
                            for k in range(1, 4)])[:3 if tau > 0 else 2]
    # the march's two damped steps from zero data, then one from a state
    y, zs = np.zeros_like(state), ()
    for j in (0, 1, 19):
        if j == 19:
            y = state
        half_steps.clear()
        y_new, z = oracle.damped_step(y, j, zs)
        (y0, y_h, z_h), (y_h0, y_end, z_end) = half_steps
        assert y0 is y and y_h0 is y_h and y_end is y_new and z_end is z
        for t, start, end in (((j + 0.5) * oracle.dt, y, y_h),
                              ((j + 1) * oracle.dt, y_h, y_new)):
            res = end - start - h * F(t, end)
            assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(end)
        # a half-step's stage value is its new state's top derivative
        assert np.array_equal(z_h, y_h[-1]) and np.array_equal(z, y_new[-1])
        y, zs = y_new, (z, *zs[:4])


@pytest.mark.parametrize("kind, kw, n_steps, periods, solves_a_step", [
    pytest.param("linear", {}, 512, 3, (1, 1), id="linear-512"),
    pytest.param("westervelt", {"eta": 1.0}, 512, 3, (1.1, 2.5),
                 id="westervelt-512"),
    pytest.param("kuznetsov", {"eta_tilde": 1.0}, 512, 3, (1.1, 2.5),
                 id="kuznetsov-512"),
    pytest.param("westervelt", {"eta": 1.0}, 64, 10, (2.5, 4),
                 id="westervelt-64")])
def test_oracle_stage_solve_count(monkeypatch, kind, kw, n_steps, periods,
                                  solves_a_step):
    """The linear kind's stage takes one solve, and a damped step two.  A
    warm-up level of WARMUP_PERIODS periods at n_steps // 4 steps comes
    first, and the march stops after the period whose gap it reports: 3
    periods of 512 steps here, where the march without the warm-up took 5,
    and 10 periods of 64 steps, where a march of midpoint steps only took
    28: it carries the stiff modes that the zero start excites with a
    factor near -1 a step.  The nonlinear runs at 512 steps take about
    1.05 solves a step (Westervelt 1,588 over 1,536 steps, Kuznetsov
    1,642): the quartic start is close enough that the first update mostly
    passes the stop on the running theta.  The quadratic start took 2 a
    step with that stop or without it (3,079 and 3,083), and so did the
    quartic start with the stop from the second update only (3,081 and
    3,085).  Their warm-ups at 128 steps take about 2.2 (564 and 580
    solves), and the run at 64 steps 2.3 (1,468 over 640 steps; 1,927 from
    the quadratic start).  The first steps of
    each level, whose start is cruder, may take a few more.  Each level's
    stage is factored once, the damped steps included, and the counts the
    march returns are the ones counted here, the warm-up's included, with
    the theta of the level at n_steps after its last step."""
    solves = []         # per factorization, in the order they are made
    steps = {}          # per level, by its steps per period
    thetas = {}         # per level, after its last step
    factor = hbwave.oracle.tridiagonal_solver

    def counted_factor(bands, buffer):
        solve_stage = factor(bands, buffer)
        level = len(solves)
        solves.append(0)

        def counted():
            solves[level] += 1
            solve_stage()
        return counted

    def counted(step):
        def counted_step(self, *args):
            level = len(self.forcing)
            steps[level] = steps.get(level, 0) + 1
            out = step(self, *args)
            thetas[level] = self.theta
            return out
        return counted_step

    monkeypatch.setattr(hbwave.oracle, "tridiagonal_solver", counted_factor)
    for name in ("step", "damped_step"):
        monkeypatch.setattr(_Oracle, name, counted(getattr(_Oracle, name)))
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, b=smooth(grid.nodes, 0.08, 1),
        c2=smooth(grid.nodes, -0.06, 2), **kw))
    model = validate_model(grid, params, DIRICHLET, ABSORBING)
    _, gap, march = time_stepping_oracle(drive(model), model, kind,
                                         n_steps=n_steps, period_tol=1e-8)
    assert gap < 1e-8
    # the level at n_steps is built first; M = 4 needs 10 steps a period
    warmup = n_steps // hbwave.oracle.WARMUP_COARSENING
    assert len(solves) == 2
    assert steps == {n_steps: periods * n_steps,
                     warmup: hbwave.oracle.WARMUP_PERIODS * warmup}
    assert march == {"periods": periods, "steps": sum(steps.values()),
                     "stage_solves": sum(solves),
                     "stage_contraction": thetas[n_steps]}
    for level_solves, level_steps, a_step in zip(
            solves, (steps[n_steps], steps[warmup]), solves_a_step):
        if kind == "linear":
            assert level_solves == level_steps + hbwave.oracle.DAMPED_STEPS
        else:
            assert level_solves <= a_step * level_steps + 16
    # the linear stage has no ratio; the nonlinear ones contract fast
    if kind == "linear":
        assert march["stage_contraction"] == 0.0
    else:
        assert 0.0 < march["stage_contraction"] < 1e-3


@pytest.mark.parametrize("tau", [0.1, 0.0])
@pytest.mark.parametrize("kind", ["westervelt", "kuznetsov"])
def test_oracle_stage_start_is_the_quartic_through_five_values(
        monkeypatch, kind, tau):
    """Along the converged orbit, the stage starts from the quartic through
    the last five stage values, off by O(dt^5): the start's move of the new
    state from the accepted stage value falls 32x per halving of dt, where
    the quadratic through the last three falls 8x (order 3).  At 128 and
    256 steps both stay well above STAGE_TOL (|y_new| + 1), which the
    accepted value is within of the fixed point: the quartic's is 2.5e4
    and 800 times that, the quadratic's 1e7 and 1.3e6 times."""
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, tau=tau, eta=1.0, eta_tilde=1.0,
        b=smooth(grid.nodes, 0.08, 1), c2=smooth(grid.nodes, -0.06, 2)))
    model = validate_model(grid, params, DIRICHLET, ABSORBING)
    starts, stages = [], []
    rest, stage = _Oracle._rest, _Oracle._stage

    def recorded_rest(self, mid, forcing):
        starts.append(mid[-1].copy())   # the midpoint's top row is z
        return rest(self, mid, forcing)

    def recorded_stage(self, y, j, forcing, zs, midpoint):
        first = len(starts)
        y_new, z = stage(self, y, j, forcing, zs, midpoint)
        stages.append((self, zs, starts[first], z, y_new))
        return y_new, z
    monkeypatch.setattr(_Oracle, "_rest", recorded_rest)
    monkeypatch.setattr(_Oracle, "_stage", recorded_stage)
    errors = []     # per step count: (quartic, quadratic) over STAGE_TOL
    for n_steps in (128, 256):
        stages.clear()
        time_stepping_oracle(drive(model), model, kind, n_steps=n_steps,
                             period_tol=1e-8)
        worst = np.zeros(2)
        for oracle, zs, start, z, y_new in stages[-n_steps:]:
            assert len(zs) == 5
            quadratic = 3.0 * (zs[0] - zs[1]) + zs[2]
            tol = oracle.STAGE_TOL * (np.linalg.norm(y_new) + 1.0)
            worst = np.maximum(worst, [
                oracle.dz_gain * np.linalg.norm(guess - z) / tol
                for guess in (start, quadratic)])
        errors.append(worst)
    coarse, fine = errors
    assert np.all(fine > 100.0)
    quartic_order, quadratic_order = np.log2(coarse / fine)
    assert quartic_order >= 4.5
    assert 2.5 <= quadratic_order <= 3.5


def test_oracle_warms_up_only_where_the_coarse_level_resolves_m(
        monkeypatch):
    """The warm-up level takes n_steps // 4 steps a period, and only when
    they resolve harmonic M = 8: at least 2M + 2 = 18."""
    built = []
    init = _Oracle.__init__

    def recorded(self, f, model, kind, n_steps, *args):
        built.append(n_steps)
        init(self, f, model, kind, n_steps, *args)
    monkeypatch.setattr(_Oracle, "__init__", recorded)
    model = make_model(nx=9, eta=1.0)
    for n_steps, levels in ((512, [512, 128]), (72, [72, 18]), (71, [71]),
                            (64, [64])):
        built.clear()
        time_stepping_oracle(drive(model, M=8), model, "westervelt",
                             n_steps=n_steps, max_periods=1, period_tol=2.0)
        assert built == levels


def test_oracle_damped_start_keeps_the_midpoint_attractor():
    """Only the transient is damped, and the warm-up only shortens it: at
    period_tol 1e-11, the last period agrees to 1e-11 with those of a
    march of midpoint steps only, which takes more periods (14 against 9
    here), and of the damped march at n_steps from rest, which takes 9
    periods where the warm-up leaves 8 (1,152 steps against 1,088)."""
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, eta=1.0, b=smooth(grid.nodes, 0.08, 1),
        c2=smooth(grid.nodes, -0.06, 2)))
    model = validate_model(grid, params, DIRICHLET, ABSORBING)
    f, n_steps, tol = drive(model), 128, 1e-11
    samples, _, counts = time_stepping_oracle(f, model, "westervelt",
                                              n_steps=n_steps, period_tol=tol)
    oracle = _Oracle(f, model, "westervelt", n_steps)
    y, zs = np.zeros((3, oracle.nr)), ()
    for periods in range(1, 200):
        y_start, last = y, []
        for j in range(n_steps):
            last.append(y[0])
            y, z = oracle.step(y, j, zs)
            zs = (z, *zs[:4])
        if np.linalg.norm(y - y_start) < tol * np.linalg.norm(y):
            break
    assert counts["periods"] < periods
    midpoint_only = np.zeros_like(samples)
    midpoint_only[:, oracle.op.span] = last
    # the damped march at n_steps alone, from rest
    alone = np.zeros_like(samples)
    _, gaps = hbwave.oracle._march(
        _Oracle(f, model, "westervelt", n_steps), np.zeros((3, oracle.nr)),
        alone[:, oracle.op.span], 200, tol)
    assert gaps[-1] < tol
    assert counts["steps"] < len(gaps) * n_steps
    for expected in (midpoint_only, alone):
        assert (np.linalg.norm(samples - expected)
                <= tol * np.linalg.norm(expected))


def recorded_steps(monkeypatch):
    """Patch _Oracle.step and _Oracle.damped_step to record
    (method name, oracle, y, j, y_new, z) per step."""
    steps = []

    def recorded(name):
        step = getattr(_Oracle, name)

        def recorded_step(self, y, j, zs=()):
            y_new, z = step(self, y, j, zs)
            steps.append((name, self, y, j, y_new, z))
            return y_new, z
        return recorded_step
    for name in ("step", "damped_step"):
        monkeypatch.setattr(_Oracle, name, recorded(name))
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


def stage_fixed_point(oracle, y, forcing, z, solves=10):
    """The stage's fixed point, by iterating _Oracle._stage's map from z:
    K z = sum over rows k of lin_k y_k - forcing - rest(mid(z)), solved in
    place in the oracle's stage_rhs."""
    rhs = oracle.z_free_terms(y) - forcing
    for _ in range(solves):
        mid = oracle.P @ y + oracle.g[:, None] * z
        oracle.stage_rhs[:] = rhs - oracle._rest(mid, forcing)
        oracle.solve_stage()
        z = oracle.stage_rhs.copy()
    return z


@pytest.mark.parametrize("amp", [6e-3, 0.3, 1.0])
@pytest.mark.parametrize("tau", [0.1, 0.0])
@pytest.mark.parametrize("kind", ["westervelt", "kuznetsov"])
def test_oracle_stage_values_are_within_tolerance_of_the_fixed_point(
        monkeypatch, kind, tau, amp):
    """Every stage value the march accepts, the damped steps' half-steps
    and the warm-up level's stages included, moves the new state by at
    most STAGE_TOL (|y_new| + 1) from its stage's fixed point: here by at
    most 0.13 of that at amplitudes 6e-3 and 0.3, and by up to 0.3 at 1.0,
    where the stage contracts more slowly.  From the quadratic start, with
    theta the step's own last ratio, Kuznetsov at tau = 0 and amplitude
    6e-3 missed by 1.3x, and so did it with STAGE_SAFETY = 1.  From the
    quartic start, STAGE_SAFETY = 1 comes within 0.99 of the bound."""
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **dict(
        COEFFS, tau=tau, eta=1.0, eta_tilde=1.0,
        b=smooth(grid.nodes, 0.08, 1), c2=smooth(grid.nodes, -0.06, 2)))
    model = validate_model(grid, params, DIRICHLET, ABSORBING)
    stages = []
    stage = _Oracle._stage

    def recorded(self, y, j, forcing, zs, midpoint):
        y_new, z = stage(self, y, j, forcing, zs, midpoint)
        stages.append((self, y, forcing, midpoint, y_new, z))
        return y_new, z
    monkeypatch.setattr(_Oracle, "_stage", recorded)
    # the warm-up's two periods from zero data at 16 steps, then up to two
    # at 64 steps from its final state
    _, _, counts = time_stepping_oracle(drive(model, amp), model, kind,
                                        n_steps=64, max_periods=2,
                                        period_tol=1.0)
    assert len({oracle for oracle, *_ in stages}) == 2
    # a damped step is two half-steps, and each level takes DAMPED_STEPS
    assert len(stages) == counts["steps"] + 2 * hbwave.oracle.DAMPED_STEPS
    half_steps = [s for s in stages if not s[3]]
    assert len(half_steps) == 2 * 2 * hbwave.oracle.DAMPED_STEPS
    for oracle, y, forcing, midpoint, y_new, z in stages:
        # a half-step's new state is mid, which moves half as far as 2 mid - y
        gain = oracle.dz_gain if midpoint else 0.5 * oracle.dz_gain
        error = gain * np.linalg.norm(
            z - stage_fixed_point(oracle, y, forcing, z))
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
    # the warm-up level's periods of 16 steps come first
    warmup = hbwave.oracle.WARMUP_PERIODS * 16
    assert counts["steps"] == len(steps) == warmup + periods * 64
    assert [len(oracle.forcing) for _, oracle, *_ in steps] == (
        [16] * warmup + [64] * (periods * 64))
    # each level's first steps are damped, and every later one is midpoint
    damped = hbwave.oracle.DAMPED_STEPS
    names = ["damped_step"] * damped
    assert [name for name, *_ in steps] == (
        names + ["step"] * (warmup - damped)
        + names + ["step"] * (periods * 64 - damped))
    last = steps[-64:]
    assert [j for _, _, _, j, _, _ in last] == list(range(64))
    # row j: u at the start of step j, Dirichlet nodes 0
    active = last[0][1].op.active
    expected = np.zeros((64, model.grid.nx))
    expected[:, active] = [y[0] for _, _, y, _, _, _ in last]
    assert np.array_equal(samples, expected)
    y_start, y_end = last[0][2], last[-1][4]
    assert gap == np.linalg.norm(y_end - y_start) / np.linalg.norm(y_end)
    assert gap < 1e-6


def test_oracle_step_rejected_after_max_stage_iterations(monkeypatch):
    model = make_model(nx=17, eta=1.0)
    oracle = _Oracle(drive(model), model, "westervelt", 64)
    solves = []
    solve_stage = oracle.solve_stage
    oracle.solve_stage = lambda: solves.append(1) or solve_stage()
    monkeypatch.setattr(_Oracle, "STAGE_TOL", -1.0)     # never met
    y = np.full((3, oracle.nr), 1e-3)
    with pytest.raises(StepRejected, match="step 5 of the period"):
        oracle.step(y, 5)
    assert len(solves) == _Oracle.MAX_STAGE_ITER


@pytest.mark.parametrize("amp", [1e155, 1e200, 1e-160, 1e-250])
@pytest.mark.parametrize("kind, eta", [("linear", 0.0),
                                       ("westervelt", 1e-300)])
def test_oracle_norms_hold_where_a_square_of_the_state_overflows(kind, eta,
                                                                 amp):
    # the gap, the stage tolerance and the discrepancy square the state,
    # which overflows once |u| passes about 1e154 (|u| ~ amp / 26 here): at
    # 1e155 all three read 0 or inf, and the march stopped after a period
    # with a discrepancy of 0, the Westervelt stages taking one update
    # where they take two; at 1e200 the gap was NaN for 200 periods.  The
    # squares of the gap and the discrepancy underflow once |u| falls below
    # about 1e-154: at 1e-160 and 1e-250 both read 0, and the march stopped
    # after a period.  At eta = 1e-300 the nonlinear terms are below 1e-100
    # of the rest, so harmonic balance's solution at 1e100, scaled, stands
    # for the one at amp.  A tiny run is compared with the run at 1e-100,
    # whose stage tolerance, STAGE_TOL (|y| + 1), is as absolute as its
    # own.  The plain sums overflow before each rescaled one, and numpy
    # warns, as the CLI lets it do in silence
    model = make_model(nx=17, eta=eta)
    u = solve(drive(model, 1e100), model, kind).u
    runs = []
    for a in (1e100 if amp > 1.0 else 1e-100, amp):
        with np.errstate(over="ignore"):
            samples, _, counts = time_stepping_oracle(drive(model, a), model,
                                                      kind, n_steps=64)
            d = oracle_discrepancy(u / 1e100 * a, samples, model)
        runs.append((d, counts["periods"], counts["steps"],
                     counts["stage_solves"]))
    (d_ref, *counts_ref), (d, *counts) = runs
    assert d == pytest.approx(d_ref, rel=1e-9, abs=0.0)
    assert counts == counts_ref


@pytest.mark.parametrize("amp", [1e200, 1e-170, 1e-250])
def test_picard_norms_hold_where_a_square_of_the_iterate_overflows(amp):
    # at amplitude 1e200 the iterate's squares overflow (|u| ~ 4e198): the
    # u0lo norms read inf, inf <= inf passed the stopping test, and the
    # solve returned after 1 iteration with update norms [inf] and a
    # residual of 0.  At 1e-170 and 1e-250 they underflow: the norms read
    # 0, 0 <= tol * 1e-300 passed the stopping test after 1 iteration,
    # and the residual read 0.  At eta = 1e-300 the Westervelt term is
    # below 1e-100 of the rest, so the run at amp is the 1e100 run scaled,
    # its first update amp / 1e100 times, the later ones, the nonlinear
    # correction, (amp / 1e100)^2 times, and the solution amp / 1e100
    # times.  A tiny run is compared with the run at 1e-100, whose
    # correction, like its own, is 0
    model = make_model(nx=17, eta=1e-300)
    a_ref = 1e100 if amp > 1.0 else 1e-100
    runs = []
    for a in (a_ref, amp):
        with np.errstate(over="ignore", invalid="ignore"):
            runs.append(solve(drive(model, a), model, "westervelt"))
    ref, big = runs
    r = amp / a_ref
    assert big.iterations == ref.iterations == 2
    assert big.update_norms[0] == pytest.approx(
        r * ref.update_norms[0], rel=1e-9, abs=0.0)
    assert big.update_norms[1:] == pytest.approx(
        [r * r * n for n in ref.update_norms[1:]], rel=1e-9, abs=0.0)
    assert np.linalg.norm(big.u / r - ref.u) <= 1e-9 * np.linalg.norm(
        ref.u)
    assert 0 < big.final_residual <= 1e-10


def smoke_taylor_case(kind):
    """The deriv-check smoke grid, coefficients and ends: 33 nodes, M = 8,
    absorbing right end; Kuznetsov at amplitude 1, Westervelt at 0.1."""
    grid = Grid(1.0, 33)
    x = grid.nodes
    coef = {"kuznetsov": {"eta_tilde": 1.0}, "westervelt": {"eta": 1.0}}
    params = PhysicalParams.create(
        grid, tau=0.1, taubar=0.5, b=1.0 + 0.05 * np.cos(np.pi * x),
        c2=1.0 + 0.05 * np.sin(2 * np.pi * x), T=2 * np.pi, **coef[kind])
    model = validate_model(grid, params, DIRICHLET,
                           BoundaryCondition(BCKind.ABSORBING, beta=1.0), 8)
    f = np.zeros((9, 33), complex)
    f[1] = (1.0 if kind == "kuznetsov" else 0.1) * np.sin(np.pi * x)
    return f, model


# the eps solves' iterations: from base + eps u_lin alone they take 16/11/7
# (Kuznetsov) and 6/5/3 (Westervelt); adding the rescaled remainder field
# of the previous solve cuts them to 16/8/2 and 6/3/1
@pytest.mark.parametrize("kind, most", [("kuznetsov", 28),
                                        ("westervelt", 11)])
def test_taylor_perturbed_solves_start_from_the_linearization(kind, most):
    f, model = smoke_taylor_case(kind)
    result = taylor_test(f, f, model, kind, [1e-1, 1e-2, 1e-3])
    iterations = result.metadata["picard_iterations"]
    assert set(iterations) == {"base", "linearized", "eps"}
    assert len(iterations["eps"]) == 3 and sum(iterations["eps"]) <= most
    slopes = [r["slope"] for r in result.rows if r["slope"] is not None]
    assert len(slopes) == 2
    for slope in slopes:
        assert slope == pytest.approx(2.0, abs=0.01)


def test_taylor_test_factors_the_harmonic_stack_once(monkeypatch):
    import hbwave.linear
    import hbwave.spatial
    from hbwave.linear import assemble_harmonic_system
    from hbwave.spatial import tridiagonal_solver

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
    f, model = smoke_taylor_case("westervelt")
    result = taylor_test(f, f, model, "westervelt", [1e-1, 1e-2, 1e-3])
    # base, linearized and three eps solves on one factorization
    assert len(result.metadata["picard_iterations"]["eps"]) == 3
    assert calls == [(3, 9, 32)]
    assert assemblies == [8]


def test_taylor_test_rejects_a_repeated_eps_before_any_solve(monkeypatch):
    solves = []
    monkeypatch.setattr(studies, "fixed_point_solve",
                        lambda *args, **kw: solves.append(args))
    f, model = smoke_taylor_case("westervelt")
    # the slope between equal epsilons divides by log 1 = 0
    with pytest.raises(ValueError, match="repeats"):
        taylor_test(f, f, model, "westervelt", [1e-1, 1e-1, 1e-2])
    assert solves == []
    # a value may come back once another stands between
    studies.check_eps_list([1e-1, 1e-2, 1e-1])


@pytest.mark.parametrize("eps", [(0.1, 0.0, 0.001), (0.1, -0.01, 0.001),
                                 (0.1, np.inf, 0.001), (0.1, np.nan, 0.001)],
                         ids=["zero", "negative", "inf", "nan"])
def test_taylor_test_rejects_a_non_positive_or_infinite_eps_before_any_solve(
        monkeypatch, eps):
    solves = []
    monkeypatch.setattr(studies, "fixed_point_solve",
                        lambda *args, **kw: solves.append(args))
    f, model = smoke_taylor_case("westervelt")
    with pytest.raises(ValueError, match="not finite and > 0"):
        taylor_test(f, f, model, "westervelt", eps)
    assert solves == []
