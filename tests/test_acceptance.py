"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line.  Tolerances are pinned here and nowhere else."""
import numpy as np
import pytest

from exact_cases import linear_dirichlet_case
from hbwave.diagnostics import choose_multipliers, energy_identity_residual
from hbwave.errors import (
    DegeneracyDetected,
    InvalidModel,
    NonContraction,
)
from hbwave.linear import assemble_harmonic_system, solve_linear_mgt
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    collect_violations,
    validate_model,
)
from hbwave.nonlinear import FixedPointOptions, fixed_point_solve
from hbwave.norms import l2l2_norm
from hbwave.oracle import oracle_discrepancy, time_stepping_oracle
from hbwave.studies import tau_sweep, taylor_test

DIRICHLET = BoundaryCondition(BCKind.DIRICHLET)
T = 2 * np.pi
COEFFS = dict(tau=0.1, taubar=0.5, b=1.0, c2=1.0, eta=0.0, eta_tilde=0.0,
              T=T)


def make_model(nx=65, **kw):
    grid = Grid(1.0, nx)
    defaults = dict(COEFFS)
    defaults.update(kw)
    params = PhysicalParams.create(grid, **defaults)
    return validate_model(grid, params, DIRICHLET, DIRICHLET)


def drive(model, amp, M=4):
    f = np.zeros((M + 1, model.grid.nx), complex)
    f[1] = 0.5 * amp * np.sin(np.pi * model.grid.nodes)
    return f


def report(n, ok, detail):
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_manufactured_convergence():
    """Linear Dirichlet manufactured solution: L2(L2) order 2.0 +- 0.2
    over Nx in {65, 129, 257}."""
    errors, h = [], []
    for nx in (65, 129, 257):
        model, u_star, f = linear_dirichlet_case(nx)
        p = model.params
        errors.append(l2l2_norm(solve_linear_mgt(f, model) - u_star,
                                model.grid, p.omega, p.T))
        h.append(model.grid.h)
    orders = [float(np.log(errors[i - 1] / errors[i])
                    / np.log(h[i - 1] / h[i])) for i in (1, 2)]
    ok = all(abs(o - 2.0) <= 0.2 for o in orders)
    report(1, ok, f"observed orders {['%.3f' % o for o in orders]}")


def test_criterion_02_damping_sign():
    """Im(kappa_m^2) < 0 for m = 1..64 on 100 random parameter samples
    with b > tau c^2; zero violations allowed.  kappa_m^2 is read off the
    solver's own A_m: dividing it by s_m = c2 + i m w b gives
    -Lap_m - kappa_m^2, so at an interior row i
    kappa_m^2 = -(A_m[i, i] - s_m (-Lap_m)[i, i]) / s_m."""
    rng = np.random.default_rng(20260823)
    grid, M = Grid(1.0, 9), 64
    i = 3                       # a reduced row away from both ends
    violations = 0
    for _ in range(100):
        c2 = rng.uniform(0.5, 2.0)
        omega = rng.uniform(0.5, 3.0)
        tau = rng.uniform(0.0, 0.3)
        b = tau * c2 + rng.uniform(0.05, 1.0)
        params = PhysicalParams.create(grid, tau=tau, taubar=tau, b=b, c2=c2,
                                       T=2 * np.pi / omega)
        model = validate_model(grid, params, DIRICHLET, DIRICHLET, M)
        _, bands = assemble_harmonic_system(model, M)
        mw = np.arange(1, M + 1) * params.omega
        s = c2 + 1j * mw * b
        # (-Lap_m)[i, i] at an interior row is 2 / h^2 for every m
        kappa2 = -(bands[1:, 1, i] - s * (2.0 / grid.h**2)) / s
        violations += int(np.sum(kappa2.imag >= 0))
    report(2, violations == 0, f"{violations} sign violations in 6400 checks")


def test_criterion_03_oracle_equivalence():
    """Harmonic balance vs time-stepping attractor: relative L2(L2)
    discrepancy <= 1e-3 at dt = T/512, period_tol = 1e-8."""
    model = make_model()
    f = drive(model, 6e-3, M=2)
    u = solve_linear_mgt(f, model)
    samples, gap, _ = time_stepping_oracle(f, model, "linear", n_steps=512,
                                           max_periods=200, period_tol=1e-8)
    d = oracle_discrepancy(u, samples, model)
    report(3, d <= 1e-3, f"discrepancy {d:.3e} (gap {gap:.1e})")


def test_criterion_04_contraction_regime():
    """Small-data fixed point: <= 30 iterations, every ratio < 0.5,
    re-substitution residual <= 1e-9, alpha_min >= 0.99."""
    model = make_model(eta=1.0)
    rep = fixed_point_solve(drive(model, 6e-3), model, "westervelt")
    ok = (rep.iterations <= 30
          and all(r < 0.5 for r in rep.contraction_ratios)
          and rep.final_residual <= 1e-9
          and rep.alpha_min >= 0.99)
    report(4, ok, f"{rep.iterations} iterations, max ratio "
                  f"{max(rep.contraction_ratios):.2e}, residual "
                  f"{rep.final_residual:.1e}, alpha_min "
                  f"{rep.alpha_min:.4f}")


def test_criterion_05_second_harmonic_scaling():
    """log-log slope of ||u_2|| vs drive amplitude = 2.00 +- 0.05 over one
    decade of small amplitudes."""
    model = make_model(eta=1.0)
    w = model.grid.trapezoid_weights()
    amps = np.logspace(np.log10(6e-4), np.log10(6e-3), 5)
    vals = []
    for a in amps:
        u = fixed_point_solve(drive(model, a), model, "westervelt").u
        vals.append(np.sqrt(np.sum(w * np.abs(u[2]) ** 2)))
    slope = float(np.polyfit(np.log(amps), np.log(vals), 1)[0])
    report(5, abs(slope - 2.0) <= 0.05, f"slope {slope:.4f}")


def _sweep(kind, **extra):
    """Rows of the tau sweep {0.4..0.025} of criteria 6 and 7."""
    model = make_model(**extra)
    f = drive(model, 6e-3)
    taus = [0.4, 0.2, 0.1, 0.05, 0.025]
    return tau_sweep(f, model, taus, kind=kind).rows


def _sweep_distances(kind, **extra):
    rows = _sweep(kind, **extra)
    d = [row["d_lo"] for row in rows]
    ratios = [row["E_lo_ratio"] for row in rows]
    return d, ratios


def test_criterion_06_singular_limit():
    """tau sweep {0.4..0.025}: d(tau) strictly decreasing with
    d(0.025) <= 0.1 d(0.4), linear and Westervelt."""
    details = []
    ok = True
    for kind, extra in (("linear", {}), ("westervelt", {"eta": 1.0})):
        d, _ = _sweep_distances(kind, **extra)
        mono = all(a > b for a, b in zip(d[:-1], d[1:]))
        shrink = d[-1] <= 0.1 * d[0]
        ok = ok and mono and shrink
        details.append(f"{kind}: monotone={mono}, "
                       f"d(0.025)/d(0.4)={d[-1] / d[0]:.3f}")
    report(6, ok, "; ".join(details))


SPREAD_BOUND = 10.0    # criterion 7: max/min of an energy ratio over tau


def test_criterion_07_uniform_energy_bound():
    """Across the tau sweep the ratio E_lo(u)/(taubar ||r||^2 +
    ||r||^2_{H1*}) has max/min <= 10."""
    details = []
    ok = True
    for kind, extra in (("linear", {}), ("westervelt", {"eta": 1.0})):
        _, ratios = _sweep_distances(kind, **extra)
        spread = max(ratios) / min(ratios)
        ok = ok and spread <= SPREAD_BOUND
        details.append(f"{kind}: max/min {spread:.3f}")
    report(7, ok, "; ".join(details))


@pytest.mark.parametrize("kind, extra", [("linear", {}),
                                         ("westervelt", {"eta": 1.0})])
def test_criterion_07_bound_holds_at_medium_and_high_levels(kind, extra):
    """The medium and high energy-to-data ratios of criterion 7's sweep
    stay within its spread bound too."""
    rows = _sweep(kind, **extra)
    for key in ("ratio_me", "ratio_hi"):
        ratios = [row[key] for row in rows]
        assert max(ratios) / min(ratios) <= SPREAD_BOUND, key


def test_criterion_08_differentiability():
    """Taylor remainder slope 2.0 +- 0.1 over eps {1e-2, 1e-3, 1e-4}
    for Westervelt and Kuznetsov; remainder at solver tolerance for
    eta = 0."""
    opts = FixedPointOptions(tol=1e-14, max_iter=200)
    eps = [1e-2, 1e-3, 1e-4]
    details = []
    ok = True
    for kind, extra in (("westervelt", {"eta": 1.0}),
                        ("kuznetsov", {"eta_tilde": 1.0})):
        model = make_model(**extra)
        f = drive(model, 6e-3)
        result = taylor_test(f, f, model, kind, eps, opts=opts)
        slopes = [r["slope"] for r in result.rows if r["slope"] is not None]
        ok = ok and all(abs(s - 2.0) <= 0.1 for s in slopes)
        details.append(f"{kind} slopes {['%.3f' % s for s in slopes]}")
    model0 = make_model(eta=0.0)
    f0 = drive(model0, 6e-3)
    res0 = taylor_test(f0, f0, model0, "westervelt", eps, opts=opts)
    zero_ok = all(r["remainder"] <= 1e-12 for r in res0.rows)
    ok = ok and zero_ok
    details.append(f"eta=0 max remainder "
                   f"{max(r['remainder'] for r in res0.rows):.1e}")
    report(8, ok, "; ".join(details))


def test_criterion_09_energy_identity_residual():
    """Identity residual of exact solves refines at order ~2 and is
    clearly nonzero on a perturbed non-solution field."""
    vals = []
    for nx in (65, 129, 257):
        model, _, f = linear_dirichlet_case(nx)
        u = solve_linear_mgt(f, model)
        mult = choose_multipliers(model)
        vals.append(energy_identity_residual(u, f, mult, model))
    order = float(np.log2(vals[-2] / vals[-1]))
    model, _, f = linear_dirichlet_case(65)
    u = solve_linear_mgt(f, model)
    perturbed = u.copy()
    perturbed[1] *= 1.05
    mult = choose_multipliers(model)
    res_good = energy_identity_residual(u, f, mult, model)
    res_bad = energy_identity_residual(perturbed, f, mult, model)
    ok = (vals[0] > vals[1] > vals[2]
          and abs(order - 2.0) <= 0.25
          and res_bad > 10 * res_good)
    report(9, ok, f"finest-pair order {order:.3f}, perturbed/exact residual "
                  f"{res_bad / res_good:.1f}x")


def test_criterion_10_hypothesis_violation_surfacing():
    """Structural-assumption violations surface their designated errors:
    no anchoring endpoint, failed damping condition, large-data
    non-contraction."""
    grid = Grid(1.0, 33)
    params = PhysicalParams.create(grid, **COEFFS)
    neumann = BoundaryCondition(BCKind.NEUMANN)

    codes = {v.code for v in collect_violations(grid, params, neumann,
                                                neumann)}
    measure_ok = "MeasureAssumptionViolation" in codes
    with pytest.raises(InvalidModel):
        validate_model(grid, params, neumann, neumann)

    bad = PhysicalParams.create(grid, **{**COEFFS, "taubar": 1.5})
    codes = {v.code for v in collect_violations(grid, bad, DIRICHLET,
                                                DIRICHLET)}
    stability_ok = "StabilityViolation" in codes

    model = make_model(eta=1.0)
    f = drive(model, 6e3)
    contraction_ok = False
    try:
        fixed_point_solve(f, model, "westervelt",
                          FixedPointOptions(ball_radius=1.0))
    except NonContraction:
        contraction_ok = True
    except DegeneracyDetected:
        contraction_ok = False
    ok = measure_ok and stability_ok and contraction_ok
    report(10, ok, f"measure={measure_ok}, stability={stability_ok}, "
                   f"non-contraction={contraction_ok}")
