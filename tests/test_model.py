import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import hbwave
from hbwave.diagnostics import Multipliers
from hbwave.errors import InvalidModel, UndersampledTime
from hbwave.linear import FixedPointOptions
from hbwave.model import (
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    Violation,
    collect_violations,
    dealiased_samples,
    min_samples,
    time_derivative,
    to_harmonics,
    to_time_samples,
    validate_model,
)
from hbwave.nonlinear import bilinear_factors, bilinear_product
from hbwave.spatial import gradient

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
    u = rng.normal(size=(M + 1, nx)) + 1j * rng.normal(size=(M + 1, nx))
    u[0] = u[0].real
    nt = min_samples(M)
    back = to_harmonics(to_time_samples(u, nt), M)
    np.testing.assert_allclose(back, u, atol=1e-13)


def test_synthesis_matches_cosine_convention():
    grid_nx = 4
    M = 3
    u = np.zeros((M + 1, grid_nx), complex)
    u[2] = 0.5  # u(t) = cos(2 w t)
    nt = 16
    samples = to_time_samples(u, nt)
    t = np.arange(nt) / nt * 2 * np.pi
    np.testing.assert_allclose(samples[:, 0], np.cos(2 * t), atol=1e-13)


def test_undersampling_rejected():
    u = np.zeros((5, 5), complex)
    with pytest.raises(UndersampledTime):
        to_time_samples(u, 2 * 4 + 1)
    with pytest.raises(UndersampledTime):
        to_harmonics(np.zeros((9, 5)), 4)


def _smooth(n):
    for f in (2, 3, 5):
        while n % f == 0:
            n //= f
    return n == 1


@pytest.mark.parametrize("M", [1, 2, 3, 8, 16, 17, 32])
def test_dealiased_samples_smooth_and_alias_free(M):
    n = dealiased_samples(M)
    least = max(3 * M + 1, min_samples(M))
    assert n >= least
    assert _smooth(n)
    assert not any(_smooth(k) for k in range(least, n))

    # r[v, w] on n samples equals r[v, w] on an alias-free 4M+2 grid
    rng = np.random.default_rng(M)
    grid = Grid(1.0, 9)
    model = validate_model(grid, make_params(grid, eta=0.7, eta_tilde=1.3),
                           DIRICHLET, DIRICHLET, M)
    omega = model.params.omega
    v, w = (rng.normal(size=(M + 1, grid.nx))
            + 1j * rng.normal(size=(M + 1, grid.nx)) for _ in range(2))
    n_ref = 4 * M + 2
    for kind in ("westervelt", "kuznetsov"):
        fv = bilinear_factors(v, kind, model)
        assert fv[0].shape[0] == n
        out = bilinear_product(fv, bilinear_factors(w, kind, model), kind,
                               model, M)

        def ref_factors(u):
            if kind == "westervelt":
                return (to_time_samples(u, n_ref),)
            return (to_time_samples(time_derivative(u, omega), n_ref),
                    to_time_samples(gradient(u, grid), n_ref))

        ref = bilinear_product(ref_factors(v), ref_factors(w), kind, model, M)
        err = np.linalg.norm(out - ref)
        assert err <= 1e-13 * np.linalg.norm(ref)


def test_time_derivative_factors():
    u = np.zeros((4, 2), complex)
    u[1] = 1.0
    du = time_derivative(u, omega=2.0, order=2)
    assert du[1, 0] == pytest.approx((1j * 2.0) ** 2)


def test_mean_mode_kept_real_by_truncation():
    rng = np.random.default_rng(3)
    u = to_harmonics(rng.normal(size=(16, 4)), 3)
    assert np.all(u[0].imag == 0)


def test_validate_accepts_reasonable_model():
    grid = Grid(1.0, 9)
    model = validate_model(grid, make_params(grid), DIRICHLET, DIRICHLET)
    assert model.stability_margin() == pytest.approx(0.5)


def test_bad_grid_rejected():
    # nx = 3 and 4 too: see MIN_NODES
    for nx in (2, 3, 4):
        grid = Grid(1.0, nx)
        codes = {v.code for v in collect_violations(
            grid, make_params(grid), DIRICHLET, DIRICHLET)}
        assert "BadGrid" in codes


@pytest.mark.parametrize("kind, beta", [(BCKind.IMPEDANCE, 0.0),
                                        (BCKind.ABSORBING, 1.0)])
def test_trace_weight_gamma_squared_must_be_finite(kind, beta):
    # gamma^2 weights the high-level trace term of the energies
    grid = Grid(1.0, 9)

    def violations(gamma):
        return [v.message for v in collect_violations(
            grid, make_params(grid), DIRICHLET,
            BoundaryCondition(kind, beta=beta, gamma=gamma))]

    assert violations(1.3e154) == []
    assert violations(1.35e154) == [
        "right gamma^2 = inf is not a finite, normal number"]


def test_highest_harmonic_frequency_must_be_finite():
    def bad_scales(T, M):
        violations = collect_violations(grid, make_params(grid, T=T),
                                        DIRICHLET, DIRICHLET, M=M)
        assert {v.code for v in violations} <= {"BadGrid"}
        return [v.message.split(" = ")[0] for v in violations]

    grid = Grid(1.0, 9)
    # omega = 2.1e102: omega^2 and tau omega^3 are finite, tau (8 omega)^3
    # is not, and neither is the bound on the entries of A_8 that holds it
    assert bad_scales(3e-102, M=1) == []
    assert bad_scales(3e-102, M=8) == ["tau*(M*omega)^3",
                                       "|A_M| entry bound"]
    # omega = 1.6e308 is finite, its square is not, and 8 omega is not;
    # the row scale M omega b / h^2 and the entry bound overflow with either
    assert bad_scales(4e-308, M=1) == ["(M*omega)^2", "tau*(M*omega)^3",
                                       "M*omega*max(b)/h^2",
                                       "|A_M| entry bound"]
    assert bad_scales(4e-308, M=8) == ["M*omega", "(M*omega)^2",
                                       "tau*(M*omega)^3",
                                       "M*omega*max(b)/h^2",
                                       "|A_M| entry bound"]


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
    # beta does not anchor the mean mode: its Robin term is i m omega beta
    grid = Grid(1.0, 9)
    neumann = BoundaryCondition(BCKind.NEUMANN)
    absorbing = BoundaryCondition(BCKind.ABSORBING, beta=1.0)
    for left, right in ((neumann, neumann), (absorbing, neumann),
                        (absorbing, absorbing)):
        codes = {v.code for v in collect_violations(
            grid, make_params(grid), left, right)}
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


def test_no_hbwave_class_is_a_dataclass():
    # a dataclass generates and compiles its methods in every process
    modules = [importlib.import_module(f"hbwave.{info.name}")
               for info in pkgutil.iter_modules(hbwave.__path__)
               if info.name != "__main__"]
    classes = [cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__]
    assert len(classes) > 13
    assert [cls.__name__ for cls in classes
            if dataclasses.is_dataclass(cls)] == []


def test_import_hbwave_loads_neither_dataclasses_nor_copy():
    script = ("import sys\n"
              "import hbwave\n"
              "assert 'dataclasses' not in sys.modules\n"
              "assert 'copy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _value_objects():
    grid = Grid(1.0, 9)
    params = make_params(grid)
    return [(DIRICHLET, "beta"), (grid, "nx"), (params, "tau"),
            (validate_model(grid, params, DIRICHLET, DIRICHLET), "M"),
            (Violation("BadGrid", "nx too small"), "code"),
            (FixedPointOptions(), "tol"), (Multipliers(1.0, 0.5), "sigma")]


@pytest.mark.parametrize("obj, name", _value_objects(),
                         ids=lambda v: v if isinstance(v, str)
                         else type(v).__name__)
def test_value_objects_are_read_only(obj, name):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, 2)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.unknown = 2
    assert getattr(obj, name) is before
    assert not hasattr(obj, "unknown")


def test_grid_and_boundary_reprs_are_their_values():
    # the benchmark's tracer tells assemblies apart by these reprs
    assert repr(Grid(1.0, 33)) == repr(Grid(L=1.0, nx=33))
    assert repr(Grid(1.0, 33)) != repr(Grid(1.0, 65))
    absorbing = BoundaryCondition(BCKind.ABSORBING, beta=1.0)
    assert repr(absorbing) == repr(BoundaryCondition(BCKind.ABSORBING, 1.0,
                                                     0.0))
    assert repr(absorbing) != repr(BoundaryCondition(BCKind.ABSORBING, 2.0))
    assert repr(absorbing) != repr(BoundaryCondition(BCKind.IMPEDANCE,
                                                     gamma=1.0))
