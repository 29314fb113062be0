import contextlib
import gzip
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hbwave
from hbwave import errors
from hbwave.cli import run_command
from hbwave.io import _SCHEMA, apply_overrides, build_setup, parse_config
from hbwave.linear import RESIDUAL_RTOL, FixedPointOptions, SolveReport
from hbwave.model import dealiased_samples, to_time_samples
from hbwave.nonlinear import solve
from hbwave.oracle import time_stepping_oracle
from solution_csv import read_solution_csv

CONFIG = """\
[domain]
L = 1.0
Nx = 33

[time]
T = 6.283185307179586
M = 4

[physics]
tau = 0.1
taubar = 0.5
b = 1.0
c2 = 1.0
eta = 1.0

[bc.left]
kind = dirichlet

[bc.right]
kind = dirichlet

[forcing]
profile = sine
amplitude_1 = 0.006

[solver]
kind = westervelt
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return str(path)


def run(config, tmp_path, verb, *extra):
    out = str(tmp_path / "out")
    code = run_command([verb, config, "-o", out, *extra])
    return code, out


def test_validate_ok(config, tmp_path):
    code, _ = run(config, tmp_path, "validate")
    assert code == 0


def test_solve_writes_solution_and_energy(config, tmp_path):
    code, out = run(config, tmp_path, "solve")
    assert code == 0
    u = read_solution_csv(os.path.join(out, "solution.csv"))
    assert len(u) - 1 == 4
    assert os.path.exists(os.path.join(out, "energy.csv"))
    assert os.path.exists(os.path.join(out, "run_info.json"))


def test_solve_deterministic_output(config, tmp_path):
    _, out1 = run(config, tmp_path, "solve")
    out2 = str(tmp_path / "out2")
    run_command(["solve", config, "-o", out2])
    with open(os.path.join(out1, "solution.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "solution.csv"), "rb") as fh:
        second = fh.read()
    assert first == second


def test_sweep_tau_monotone_distance(config, tmp_path):
    code, out = run(config, tmp_path, "sweep-tau",
                    "-s", "study.taus=0.4 0.2 0.1 0.05 0",
                    "-s", "solver.kind=linear")
    assert code == 0
    with open(os.path.join(out, "tau_sweep.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "tau,d_lo,d_me,rate,E_lo_ratio,ratio_me,ratio_hi"
    d = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(d[:-1], d[1:]))


def test_energy_verb(config, tmp_path):
    code, out = run(config, tmp_path, "energy")
    assert code == 0
    with open(os.path.join(out, "energy.csv")) as fh:
        header = fh.readline().strip()
    assert header == "term_name,level,value"


def test_deriv_check_writes_taylor_csv(config, tmp_path):
    code, out = run(config, tmp_path, "deriv-check",
                    "-s", "study.eps=0.1 0.03 0.01")
    assert code == 0
    with open(os.path.join(out, "taylor.csv")) as fh:
        assert fh.readline().strip() == "eps,remainder,slope"
    with open(os.path.join(out, "run_info.json")) as fh:
        iterations = json.load(fh)["picard_iterations"]
    # base, linearized, then one solve per eps
    assert iterations["base"] >= 1 and iterations["linearized"] >= 1
    assert len(iterations["eps"]) == 3
    assert all(isinstance(n, int) and n >= 1 for n in iterations["eps"])


def test_deriv_check_rejects_a_repeated_eps_before_any_solve(
        config, tmp_path, monkeypatch):
    import hbwave.studies

    solves = []
    monkeypatch.setattr(hbwave.studies, "fixed_point_solve",
                        lambda *args, **kw: solves.append(args))
    code, out = run(config, tmp_path, "deriv-check",
                    "-s", "study.eps=0.1 0.1 0.01")
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "TypeMismatch"
    assert "repeats" in record["message"]
    assert solves == []
    assert not os.path.exists(os.path.join(out, "taylor.csv"))


def convergence_rows(out):
    with open(os.path.join(out, "convergence.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "nx,h,err_l2l2,err_u0lo,order_l2l2,order_u0lo"
    return [line.split(",") for line in lines[1:]]


def test_converge_verb_ignores_the_forcing(config, tmp_path):
    # the configured grid, coarsened by 4 and by 2, and no [forcing] input
    code, out = run(config, tmp_path, "converge")
    assert code == 0
    rows = convergence_rows(out)
    assert [row[0] for row in rows] == ["9", "17", "33"]
    out2 = str(tmp_path / "out2")
    assert run_command(["converge", config, "-o", out2, "-s",
                        "forcing.amplitude_1=5", "-s",
                        "forcing.profile=gaussian"]) == 0
    assert convergence_rows(out2) == rows


def test_converge_verb_checks_the_configured_model(config, tmp_path):
    # nodal b and c2 files, an absorbing right end and the Westervelt kind
    x = np.linspace(0.0, 1.0, 65)
    np.savetxt(tmp_path / "b.txt", 1.0 + 0.08 * np.cos(np.pi * x))
    np.savetxt(tmp_path / "c2.txt", 1.0 - 0.06 * np.cos(2.0 * np.pi * x))
    code, out = run(config, tmp_path, "converge", "-s", "domain.nx=65",
                    "-s", "physics.b=b.txt", "-s", "physics.c2=c2.txt",
                    "-s", "bc.right.kind=absorbing", "-s", "bc.right.beta=1")
    assert code == 0
    rows = convergence_rows(out)
    assert [row[0] for row in rows] == ["17", "33", "65"]
    for row in rows[1:]:
        for order in row[4:]:
            assert float(order) == pytest.approx(2.0, abs=0.1)


@pytest.mark.parametrize("override", [
    "domain.nx=34",     # nx - 1 is not a multiple of 4
    "domain.nx=13",     # the coarsest level would have 4 nodes
    "time.m=1",         # the config's Westervelt kind needs M >= 2
])
def test_converge_rejects_its_grid_before_any_solve(config, tmp_path,
                                                    override):
    code, out = run(config, tmp_path, "converge", "-s", override)
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        assert json.load(fh)["kind"] == "TypeMismatch"
    assert not os.path.exists(os.path.join(out, "convergence.csv"))


def test_oracle_compare_verb(config, tmp_path):
    code, out = run(config, tmp_path, "oracle-compare",
                    "-s", "study.dt_divisor=128")
    assert code == 0
    with open(os.path.join(out, "oracle.csv")) as fh:
        rows = dict(line.strip().split(",") for line in fh.readlines()[1:])
    assert float(rows["discrepancy"]) < 1e-2


def test_oracle_compare_reaches_the_attractor_at_64_steps_a_period(
        config, tmp_path):
    # the oracle-march layout at nx = 129 and the default period_tol 1e-8:
    # the march's damped start lets it stop after 29 periods, where a march
    # of midpoint steps only exits 2 (NoPeriodicAttractor) after 200, with
    # a gap of 1.0e-7
    code, out = run(config, tmp_path, "oracle-compare",
                    "-s", "domain.nx=129", "-s", "time.m=8",
                    "-s", "bc.right.kind=absorbing", "-s", "bc.right.beta=1.0",
                    "-s", "study.dt_divisor=64")
    assert code == 0
    with open(os.path.join(out, "oracle.csv")) as fh:
        rows = dict(line.strip().split(",") for line in fh.readlines()[1:])
    assert float(rows["periodicity_gap"]) < 1e-8
    assert float(rows["discrepancy"]) < 1e-3


# the oracle-march layout: Westervelt, absorbing right end, M = 8
ORACLE_MARCH = ("-s", "time.m=8", "-s", "bc.right.kind=absorbing",
                "-s", "bc.right.beta=1.0", "-s", "study.period_tol=0.05")


def test_dt_divisor_below_2m_plus_2_fails_validation(config, tmp_path,
                                                     monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an undersampled oracle run started")

    monkeypatch.setattr(hbwave.nonlinear, "solve", must_not_run)
    monkeypatch.setattr(hbwave.oracle, "time_stepping_oracle", must_not_run)
    for verb in ("validate", "oracle-compare"):
        out = str(tmp_path / verb)
        code = run_command([verb, config, "-o", out, *ORACLE_MARCH,
                            "-s", "study.dt_divisor=16"])
        assert code == 1
        assert os.listdir(out) == ["error.json"]
        with open(os.path.join(out, "error.json")) as fh:
            record = json.load(fh)
        assert record["kind"] == "UndersampledTime"
        assert "2M+2=18" in record["message"]
    code = run_command(["validate", config, "-o", str(tmp_path / "ok"),
                        *ORACLE_MARCH, "-s", "study.dt_divisor=18"])
    assert code == 0


def test_default_oracle_steps_below_2m_plus_2_fail_before_the_solve(
        config, tmp_path, monkeypatch):
    # without dt_divisor the oracle takes ORACLE_STEPS = 512 steps, too few
    # for M = 256; that M is valid for every other verb
    def must_not_run(*args, **kwargs):
        raise AssertionError("an undersampled oracle run started")

    monkeypatch.setattr(hbwave.nonlinear, "solve", must_not_run)
    monkeypatch.setattr(hbwave.oracle, "time_stepping_oracle", must_not_run)
    code = run_command(["validate", config, "-o", str(tmp_path / "ok"),
                        "-s", "time.m=256"])
    assert code == 0
    out = str(tmp_path / "oracle")
    code = run_command(["oracle-compare", config, "-o", out,
                        "-s", "time.m=256"])
    assert code == 1
    assert os.listdir(out) == ["error.json"]
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "UndersampledTime"
    assert "nt=512 < 2M+2=514" in record["message"]


# amplitude 5.0 exits 0 with alpha_min about 0.25 and a negative stability
# margin: a run outside the paper's hypotheses
AMPLITUDE_5 = ("-s", "domain.nx=129", "-s", "time.m=16",
               "-s", "forcing.amplitude_1=5.0")


@pytest.mark.parametrize("verb", ["solve", "energy", "oracle-compare"])
def test_run_info_records_the_solve_metrics(config, tmp_path, verb):
    extra = AMPLITUDE_5 + (("-s", "study.dt_divisor=64",
                            "-s", "study.period_tol=1e-3")
                           if verb == "oracle-compare" else ())
    code, out = run(config, tmp_path, verb, *extra)
    assert code == 0
    with open(os.path.join(out, "run_info.json")) as fh:
        metrics = json.load(fh)["metrics"]
    setup = build_setup(apply_overrides(parse_config(config),
                                        list(extra[1::2])), config)
    report = solve(setup.f, setup.model, setup.solver_kind, setup.options)
    # alpha and the margin of the last state, on its full sample arrays
    p = setup.model.params
    u = to_time_samples(report.u, dealiased_samples(setup.model.M))
    alpha = 1.0 + 2.0 * p.eta[None, :] * u
    margin = p.b[None, :] / p.c2[None, :] - p.taubar / alpha
    # oracle-compare adds the march's counts and its stage contraction;
    # the solve's entries stay
    march = {k: metrics.pop(k) for k in ("oracle_periods", "oracle_steps",
                                         "oracle_stage_solves",
                                         "oracle_stage_contraction")
             if verb == "oracle-compare"}
    assert metrics == {"iterations": report.iterations,
                       "final_residual": report.final_residual,
                       "alpha_min": float(alpha.min()),
                       "stability_margin": float(margin.min()),
                       "update_norms": report.update_norms,
                       "contraction_ratios": report.contraction_ratios}
    assert len(metrics["update_norms"]) == metrics["iterations"]
    assert len(metrics["contraction_ratios"]) == metrics["iterations"] - 1
    if march:
        _, _, counts = time_stepping_oracle(setup.f, setup.model,
                                            setup.solver_kind, 64,
                                            period_tol=1e-3)
        assert march == {f"oracle_{k}": v for k, v in counts.items()}
        assert march["oracle_steps"] == 64 * march["oracle_periods"]
        assert march["oracle_stage_solves"] >= march["oracle_steps"]
        assert 0.0 < march["oracle_stage_contraction"] < 1.0
    assert metrics["iterations"] == 27
    assert metrics["final_residual"] <= RESIDUAL_RTOL
    assert metrics["alpha_min"] == pytest.approx(0.251, abs=1e-3)
    assert metrics["stability_margin"] == pytest.approx(-0.993, abs=1e-3)


def test_alpha_min_is_sampled_close_to_the_continuous_minimum(config,
                                                              tmp_path):
    # alpha_min is a minimum over the dealiased_samples(M) time samples;
    # at amplitude 5.0 it sits within 2e-4 of a 4096-sample minimum
    code, out = run(config, tmp_path, "solve", *AMPLITUDE_5)
    assert code == 0
    with open(os.path.join(out, "run_info.json")) as fh:
        alpha_min = json.load(fh)["metrics"]["alpha_min"]
    u = read_solution_csv(os.path.join(out, "solution.csv"))
    eta = build_setup(apply_overrides(parse_config(config),
                                      list(AMPLITUDE_5[1::2])),
                      config).model.params.eta
    fine = 1.0 + 2.0 * eta[None, :] * to_time_samples(u, 4096)
    assert alpha_min == pytest.approx(fine.min(), abs=2e-4)
    assert alpha_min > 2 * FixedPointOptions().degeneracy_floor


def test_run_info_writes_an_infinite_margin_as_null(config, tmp_path):
    # at amplitude 7.0 alpha changes sign at some node, which a negative
    # degeneracy floor lets through: the margin is -inf, not valid JSON
    def no_constant(name):
        raise AssertionError(f"run_info.json holds {name}")

    code, out = run(config, tmp_path, "solve", "-s", "time.m=8",
                    "-s", "forcing.amplitude_1=7.0",
                    "-s", "solver.degeneracy_floor=-1")
    assert code == 0
    with open(os.path.join(out, "run_info.json")) as fh:
        metrics = json.load(fh, parse_constant=no_constant)["metrics"]
    assert metrics["alpha_min"] < 0
    assert metrics["stability_margin"] is None
    assert metrics["final_residual"] <= RESIDUAL_RTOL


def test_run_info_writes_non_finite_update_norms_as_null(config, tmp_path,
                                                         monkeypatch):
    # no run that exits 0 is known to reach one, so a stand-in solve does
    def stand_in(f, model, kind, opts):
        return SolveReport(np.zeros_like(f), 3, [1.0, np.inf, 0.5],
                           [np.inf, np.nan], alpha_min=1.0)

    def no_constant(name):
        raise AssertionError(f"run_info.json holds {name}")

    monkeypatch.setattr(hbwave.nonlinear, "solve", stand_in)
    code, out = run(config, tmp_path, "solve")
    assert code == 0
    with open(os.path.join(out, "run_info.json")) as fh:
        metrics = json.load(fh, parse_constant=no_constant)["metrics"]
    assert metrics["update_norms"] == [1.0, None, 0.5]
    assert metrics["contraction_ratios"] == [None, None]


def test_validation_failure_exits_one_with_record(config, tmp_path):
    out = str(tmp_path / "out")
    code = run_command(["solve", config, "-o", out,
                        "-s", "physics.taubar=2.0"])
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "InvalidModel"
    assert any(v["code"] == "StabilityViolation"
               for v in record["violations"])


@pytest.mark.parametrize("line, text", [
    (3, "this line is junk"),
    (4, "Nx = 65"),             # a repeated key
    (4, "[domain]"),            # a repeated section
])
def test_syntax_error_record_names_its_line(config, tmp_path, line, text):
    with open(config) as fh:
        lines = fh.read().splitlines()
    lines[line - 1] = text
    with open(config, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    code = run_command(["validate", config, "-o", out])
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "ConfigSyntaxError"
    assert record["code"] == "SyntaxError"
    assert record["line"] == line
    assert "traceback" not in record


def test_unknown_key_exits_one(config, tmp_path):
    out = str(tmp_path / "out")
    code = run_command(["solve", config, "-o", out, "-s", "physics.gama=1"])
    assert code == 1


def test_blowup_exits_two_with_noncontraction_record(config, tmp_path):
    out = str(tmp_path / "out")
    code = run_command(["solve", config, "-o", out,
                        "-s", "forcing.amplitude_1=1e6",
                        "-s", "solver.ball_radius=1.0"])
    assert code == 2
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "NonContraction"


def test_blowup_without_ball_reports_degeneracy(config, tmp_path):
    out = str(tmp_path / "out")
    code = run_command(["solve", config, "-o", out,
                        "-s", "forcing.amplitude_1=1e6"])
    assert code == 2
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] in ("NonContraction", "DegeneracyDetected")


@pytest.mark.parametrize("overrides", [
    ["physics.eta=1e308"],
    ["solver.kind=kuznetsov", "physics.eta_tilde=1e308"],
])
@pytest.mark.parametrize("verb", ["validate", "solve"])
def test_overflowing_nonlinearity_coefficient_fails_validation(
        config, tmp_path, verb, overrides):
    # a finite coefficient whose double overflows would make
    # alpha = 1 + 2 eta u NaN at the zero start state
    out = str(tmp_path / "out")
    code = run_command([verb, config, "-o", out,
                        *(a for o in overrides for a in ("-s", o))])
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "InvalidModel"
    name = overrides[-1].split(".")[1].split("=")[0]
    assert record["violations"] == [
        {"code": "NonFiniteValue", "message": f"2*max|{name}| must be finite"}]


@pytest.mark.parametrize("text", ["", "# no values\n", "\n  \n"],
                         ids=["empty", "comment-only", "blank-lines"])
def test_nodal_file_without_values_fails_on_one_stderr_line(
        config, tmp_path, text, capsys):
    # numpy warns about a file with no data, on two more stderr lines
    (tmp_path / "b.txt").write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run(config, tmp_path, "validate", "-s", "physics.b=b.txt")
    assert code == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: TypeMismatch: [physics] b: ")
    assert "has 0 values, expected Nx = 33" in err


def test_no_success_exit_without_outputs(config, tmp_path):
    out = str(tmp_path / "out")
    code = run_command(["solve", config, "-o", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "solution.csv"))
    assert not os.path.exists(os.path.join(out, "error.json"))


@pytest.mark.parametrize("override, kind", [
    ("physics.b=nan", "InvalidModel"),
    ("physics.eta=nan", "InvalidModel"),
    ("physics.c2=inf", "InvalidModel"),
    ("time.t=nan", "InvalidModel"),
    ("domain.l=nan", "InvalidModel"),
    ("solver.relaxation=0", "TypeMismatch"),
    ("solver.tol=nan", "TypeMismatch"),
    ("solver.degeneracy_floor=nan", "TypeMismatch"),
    ("solver.ball_radius=nan", "TypeMismatch"),
    ("forcing.amplitude_1=nan", "TypeMismatch"),
    ("study.dt_divisor=0", "TypeMismatch"),
    ("study.max_periods=0", "TypeMismatch"),
    ("study.period_tol=0", "TypeMismatch"),
    ("study.period_tol=nan", "TypeMismatch"),
    ("study.taus=", "TypeMismatch"),
    ("study.eps=", "TypeMismatch"),
    ("study.eps=1", "TypeMismatch"),
    ("study.eps=0.1,0,0.001", "TypeMismatch"),
    ("study.eps=0.1,inf,0.001", "TypeMismatch"),
    ("study.eps=0.1 0.1 0.01", "TypeMismatch"),    # a slope over log 1 = 0
    ("domain.nx=-5", "TypeMismatch"),
    ("domain.nx=3", "TypeMismatch"),      # the energies read four nodes
    ("domain.nx=4", "TypeMismatch"),      # two interior nodes: see MIN_NODES
    ("domain.nx=100000000", "TypeMismatch"),
    ("domain.nx=1000000000000", "TypeMismatch"),
    ("time.m=1000000000000", "TypeMismatch"),
    ("study.case=linear-dirichlet", "UnknownKey"),    # not in the schema
    ("study.grids=65,129,257", "UnknownKey"),
])
def test_degenerate_input_exits_one_with_record(config, tmp_path, override,
                                                kind):
    out = str(tmp_path / "out")
    code = run_command(["solve", config, "-o", out, "-s", override])
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == kind
    if kind == "InvalidModel":
        # the non-finite value is the only diagnosis, not a knock-on one
        assert [v["code"] for v in record["violations"]] == [
            "NonFiniteValue"]
    assert not os.path.exists(os.path.join(out, "solution.csv"))


@pytest.mark.parametrize("overrides", [
    ["domain.l=1e300"],       # 1/h^2 underflows to 0
    ["domain.l=1e-320"],      # h is subnormal, 1/h^2 overflows
    ["time.t=1e-320"],        # omega overflows
    ["time.t=1e-300"],        # (M omega)^2 and tau (M omega)^3 overflow
    ["physics.c2=1e-310"],    # b/c2 overflows
    ["physics.b=1e307"],      # the row scale M omega b / h^2 overflows
    ["bc.right.beta=1e307"],  # the Robin entry M omega beta / h overflows
    # in-range factors whose product, the row scale times the Robin entry
    # (i M omega b)(2 i M omega beta / h), overflows
    ["physics.b=1e150", "bc.right.beta=1e160"],
    # the Robin entry 2 gamma / h of an impedance end overflows
    ["bc.right.kind=impedance", "bc.right.beta=0", "bc.right.gamma=1e307"],
    # gamma^2, the energies' trace weight, overflows
    ["bc.right.gamma=1.35e154"],
], ids=" ".join)
def test_out_of_range_derived_scale_exits_one_with_record(config, tmp_path,
                                                          overrides):
    # b/c2 is the ratio of the stability test; the rest are grid, time and
    # assembled-entry scales
    expected = ("StabilityViolation" if overrides == ["physics.c2=1e-310"]
                else "BadGrid")
    # validation alone rejects the model, before a solve would meet it
    for verb in ("validate", "solve"):
        out = str(tmp_path / verb)
        # an absorbing right end, so that a Robin entry is assembled
        code = run_command([verb, config, "-o", out,
                            "-s", "bc.right.kind=absorbing",
                            "-s", "bc.right.beta=1"]
                           + [arg for o in overrides for arg in ("-s", o)])
        assert code == 1
        with open(os.path.join(out, "error.json")) as fh:
            record = json.load(fh)
        assert record["kind"] == "InvalidModel"
        assert {v["code"] for v in record["violations"]} == {expected}
        assert not os.path.exists(os.path.join(out, "solution.csv"))


BAD_GRID = "is not a finite, normal number"
# validation runs on Python floats, where x**2 raises OverflowError, a
# division by zero raises ZeroDivisionError, and min and max depend on
# where a NaN sits; each of these exits 1 with the record numpy's float64
# gave, byte for byte
FLOAT_EDGE_CASES = {
    # h * h underflows to 0, so 1/h^2 is inf
    "l=1e-300": (["domain.l=1e-300"], [
        ("BadGrid", f"1/h^2 = inf {BAD_GRID}"),
        ("BadGrid", f"M*omega*max(b)/h^2 = inf {BAD_GRID}"),
        ("BadGrid", f"max(c2)/h^2 = inf {BAD_GRID}"),
        ("BadGrid", f"|A_M| entry bound = inf {BAD_GRID}")]),
    "t=5e-324": (["time.t=5e-324"], [
        ("BadGrid", f"omega = inf {BAD_GRID}"),
        ("BadGrid", f"M*omega = inf {BAD_GRID}"),
        ("BadGrid", f"(M*omega)^2 = inf {BAD_GRID}"),
        ("BadGrid", f"tau*(M*omega)^3 = inf {BAD_GRID}"),
        ("BadGrid", f"M*omega*max(b)/h^2 = inf {BAD_GRID}"),
        ("BadGrid", f"|A_M| entry bound = inf {BAD_GRID}")]),
    "gamma=1.35e154": (["bc.right.kind=absorbing", "bc.right.beta=1",
                        "bc.right.gamma=1.35e154"], [
        ("BadGrid", f"right gamma^2 = inf {BAD_GRID}")]),
    "b=1e-320": (["physics.b=1e-320"], [
        ("BadGrid", f"M*omega*max(b)/h^2 = 4.09595e-317 {BAD_GRID}"),
        ("StabilityViolation", "b/c2 ranges over [9.99989e-321, "
         "9.99989e-321], not finite, normal numbers")]),
    "c2=1e-320": (["physics.c2=1e-320"], [
        ("BadGrid", f"max(c2)/h^2 = 1.02399e-317 {BAD_GRID}"),
        ("StabilityViolation", "b/c2 ranges over [inf, inf], not finite, "
         "normal numbers")]),
    "eta=1e308": (["physics.eta=1e308"], [
        ("NonFiniteValue", "2*max|eta| must be finite")]),
    "nodal b with a nan": (["physics.b=b.txt"], [
        ("NonFiniteValue", "b must be finite")]),
}


@pytest.mark.parametrize("name", FLOAT_EDGE_CASES)
def test_float_edge_cases_keep_their_records(config, tmp_path, name):
    overrides, violations = FLOAT_EDGE_CASES[name]
    (tmp_path / "b.txt").write_text("1\n" * 16 + "nan\n" + "1\n" * 16)
    code, out = run(config, tmp_path, "validate",
                    *(a for o in overrides for a in ("-s", o)))
    assert code == 1
    record = {"kind": "InvalidModel", "code": "InvalidModel",
              "message": "; ".join(f"{c}: {m}" for c, m in violations),
              "violations": [{"code": c, "message": m}
                             for c, m in violations]}
    with open(os.path.join(out, "error.json")) as fh:
        assert fh.read() == json.dumps(record, indent=2) + "\n"


# at M = 8, T = 2e-102: tau (M omega)^3 overflows for tau = 0.4, though
# tau omega^3 does not
SWEEP_AT_M8 = ["time.m=8", "time.t=2e-102", "physics.tau=0",
               "solver.kind=linear", "study.taus=0.4,0.0"]


@pytest.mark.parametrize("overrides, message", [
    (SWEEP_AT_M8, "tau*(M*omega)^3"),
    (["study.taus=0.2,0.6,0.0"], "tau <= taubar"),
], ids=["order-8", "tau-above-taubar"])
@pytest.mark.parametrize("verb", ["validate", "sweep-tau"])
def test_sweep_taus_are_validated_at_the_configured_order(
        config, tmp_path, verb, overrides, message):
    out = str(tmp_path / "out")
    code = run_command([verb, config, "-o", out]
                       + [arg for o in overrides for arg in ("-s", o)])
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "InvalidModel"
    assert any(message in v["message"] for v in record["violations"])
    assert not os.path.exists(os.path.join(out, "tau_sweep.csv"))


def test_sweep_tau_solves_each_default_tau_once(config, tmp_path,
                                                monkeypatch):
    solved = []

    def counting_solve(f, model, *args):
        solved.append(model.params.tau)
        return solve(f, model, *args)

    monkeypatch.setattr("hbwave.studies.solve", counting_solve)
    code, out = run(config, tmp_path, "sweep-tau")
    assert code == 0
    # the tau = 0 row is the reference; it is not solved twice
    assert solved == [0.0, 0.4, 0.2, 0.1, 0.05]
    with open(os.path.join(out, "tau_sweep.csv")) as fh:
        assert [line.split(",")[0] for line in fh.read().splitlines()] == [
            "tau", "0.40000000000000002", "0.20000000000000001",
            "0.10000000000000001", "0.050000000000000003", "0"]

    # a default tau above taubar fails before anything is solved
    solved.clear()
    code, out = run(config, tmp_path, "sweep-tau", "-s", "physics.taubar=0.3")
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        assert "tau=0.4" in json.load(fh)["message"]
    assert solved == []


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_output_dir_exits_two_with_one_line(config, tmp_path,
                                                     capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run_command(["solve", config, "-o", str(blocker / sub)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("verb", ["validate", "solve", "energy", "sweep-tau",
                                  "deriv-check", "oracle-compare",
                                  "converge"])
def test_no_verb_imports_scipy(config, tmp_path, verb):
    # importing scipy.linalg would take longer than most of these runs; the
    # solves call the LAPACK routines that numpy bundles
    script = ("import sys\n"
              "from hbwave.cli import run_command\n"
              "assert 'scipy' not in sys.modules\n"
              "code = run_command(sys.argv[1:])\n"
              "assert code == 0, code\n"
              "assert 'scipy' not in sys.modules, 'the verb imported scipy'\n")
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, verb, config, "-o",
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# `import hbwave` registers every submodule without running it; a verb
# runs only the modules it calls
SOLVER_MODULES = {"cli", "errors", "io", "linear", "model", "nonlinear",
                  "norms", "spatial"}
VERB_MODULES = {
    "validate": {"cli", "errors", "io", "model"},
    "solve": SOLVER_MODULES | {"diagnostics"},
    "energy": SOLVER_MODULES | {"diagnostics"},
    "sweep-tau": SOLVER_MODULES | {"diagnostics", "studies"},
    "deriv-check": SOLVER_MODULES | {"studies"},
    "converge": SOLVER_MODULES | {"studies"},
    "oracle-compare": SOLVER_MODULES | {"oracle"},
}
# a [study] key is checked by `model`, which validation runs anyway: the
# oracle's step count and the Taylor test's epsilons compile no solver
VALIDATE_STUDY_MODULES = {
    "study.dt_divisor=64": VERB_MODULES["validate"],
    "study.eps=0.1 0.01 0.001": VERB_MODULES["validate"],
}


def modules_run(config, tmp_path, verb, *extra):
    """The hbwave modules a child process has run once the verb exits 0.
    A lazily registered module is an importlib.util._LazyModule until an
    attribute is read; then its source runs and it is a plain module."""
    script = ("import sys, types\n"
              "from hbwave.cli import run_command\n"
              "code = run_command(sys.argv[1:])\n"
              "assert code == 0, code\n"
              "print(*sorted(name.partition('.')[2]\n"
              "              for name, module in sys.modules.items()\n"
              "              if name.startswith('hbwave.')\n"
              "              and type(module) is types.ModuleType))\n")
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, verb, config, "-o",
         str(tmp_path / "out"), *extra],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("verb", sorted(VERB_MODULES))
def test_each_verb_runs_only_its_modules(config, tmp_path, verb):
    assert modules_run(config, tmp_path, verb) == VERB_MODULES[verb]


@pytest.mark.parametrize("setting", sorted(VALIDATE_STUDY_MODULES))
def test_validate_runs_the_module_that_checks_a_study_key(config, tmp_path,
                                                          setting):
    assert modules_run(config, tmp_path, "validate", "-s",
                       setting) == VALIDATE_STUDY_MODULES[setting]


# the config checks run on Python floats: validate, and a config error
# of any verb, import no numpy
NUMPY_FREE_RUNS = {
    "validate": (0, ["validate"]),
    "validate with a nodal file and study keys": (0, [
        "validate", "-s", "physics.b=b.txt", "-s", "study.taus=0.2,0.1",
        "-s", "study.eps=0.1 0.01 0.001", "-s", "study.dt_divisor=64"]),
    "solve of an invalid model": (1, ["solve", "-s", "physics.taubar=2"]),
}


@pytest.mark.parametrize("name", NUMPY_FREE_RUNS)
def test_config_checks_import_no_numpy(config, tmp_path, name):
    code, (verb, *extra) = NUMPY_FREE_RUNS[name]
    (tmp_path / "b.txt").write_text("1.05\n" * 33)
    script = ("import sys\n"
              "from hbwave.cli import run_command\n"
              "code = run_command(sys.argv[2:])\n"
              "assert code == int(sys.argv[1]), code\n"
              "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(code), verb, config, "-o",
         str(tmp_path / "out"), *extra],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if code == 1:
        with open(tmp_path / "out" / "error.json") as fh:
            assert json.load(fh)["kind"] == "InvalidModel"


def test_import_registers_exactly_the_package_modules():
    # a module left out of the registration is imported eagerly by the
    # first `from . import` of it, and compiles in every verb's start-up
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    package = sorted(f[:-3] for f in os.listdir(os.path.dirname(
        hbwave.__file__)) if f.endswith(".py")
        and f not in ("__init__.py", "__main__.py"))
    script = ("import sys, hbwave\n"
              "print(*sorted(name.partition('.')[2] for name in sys.modules\n"
              "              if name.startswith('hbwave.')))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == package


def test_validate_does_not_import_traceback(config, tmp_path):
    # only the record of an error outside the taxonomy formats a traceback,
    # so the module is imported on that path alone
    script = ("import sys\n"
              "import hbwave.cli\n"
              "code = hbwave.cli.run_command(sys.argv[1:])\n"
              "assert code == 0, code\n"
              "assert 'traceback' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, "validate", config, "-o",
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_hbwave_runs_without_a_warning(config, tmp_path):
    # `python -m hbwave.cli` warns that runpy found hbwave.cli already
    # imported, by the package; `python -m hbwave` runs hbwave.__main__
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "hbwave", "validate", config, "-o",
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_overflowing_forcing_names_its_harmonic(config, tmp_path):
    # the forcing lives in harmonic 1; an overflow there once reached the
    # other harmonics and harmonic 0 was blamed
    with np.errstate(all="ignore"):
        code, out = run(config, tmp_path, "solve", "-s", "solver.kind=linear",
                        "-s", "forcing.amplitude_1=1e308")
    assert code == 2
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "SolveFailure"
    assert record["message"].startswith(
        "harmonic 1 has a non-finite right-hand side or solution")
    assert 1 < record["condition_estimate"] < np.inf


@pytest.mark.parametrize("verb", ["solve", "energy"])
def test_non_finite_energy_fails_and_writes_no_result(config, tmp_path,
                                                      verb):
    # a finite forcing whose energies overflow: each term squares u ~ 1e158
    with np.errstate(all="ignore"):
        code, out = run(config, tmp_path, verb, "-s", "solver.kind=linear",
                        "-s", "forcing.amplitude_1=1e160")
    assert code == 2
    assert os.listdir(out) == ["error.json"]
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "NonFiniteResult"
    assert (record["file"], record["term"]) == ("energy.csv", "uttt_dual lo")


def test_unexpected_error_exits_two_with_record(config, tmp_path,
                                                monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("hbwave.nonlinear.solve", crash)
    out = str(tmp_path / "out")
    code = run_command(["solve", config, "-o", out])
    assert code == 2
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "RuntimeError"
    assert record["message"] == "boom"
    assert "RuntimeError: boom" in record["traceback"]
    assert "Traceback" not in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "run_info.json"))


FUZZ_KEYS = sorted(f"{section}.{key}" for section, keys in _SCHEMA.items()
                   for key in keys) + ["forcing.amplitude_1",
                                       "forcing.amplitude_9"]
FUZZ_VALUES = ["nan", "inf", "-inf", "-1", "0", "1", "0.5", "3", "65",
               "1e308", "-1e308", "", "junk", "1,x", "0.1 0.01 0.001",
               "absorbing", "impedance"]


# 120 examples take about 1 s
@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZ_KEYS),
                          st.sampled_from(FUZZ_VALUES) | st.text(max_size=4)),
                min_size=1, max_size=3))
def test_validate_exits_zero_or_one_with_record(overrides):
    """validate never fails as a solver would: it exits 0 with no
    error.json, or 1 with a complete one."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.ini")
        with open(config, "w") as fh:
            fh.write(CONFIG)
        out = os.path.join(tmp, "out")
        argv = ["validate", config, "-o", out]
        for key, value in overrides:
            argv += ["-s", f"{key}={value}"]
        code = run_command(argv)
        record = os.path.join(out, "error.json")
        assert code in (0, 1)
        if code == 0:
            assert not os.path.exists(record)
        else:
            with open(record) as fh:
                assert {"kind", "code", "message"} <= set(json.load(fh))


# tiny sizes (nx <= 17, M <= 2) keep a solve at a few milliseconds
SOLVE_CONFIG = CONFIG.replace("Nx = 33", "Nx = 9").replace("M = 4", "M = 2")
SOLVE_FUZZ_KEYS = [key for key in FUZZ_KEYS if key.split(".")[0] in (
    "physics", "bc", "solver", "domain", "time", "forcing")]
SIZE_VALUES = {
    "domain.nx": ["nan", "-1", "0", "1", "3", "4", "5", "17", "", "junk"],
    "time.m": ["nan", "-1", "0", "1", "2", "", "junk"],
}
SOLVE_FUZZ_VALUES = FUZZ_VALUES + [
    "1e-310", "1e154", "1.35e154", "1e160", "1e6", "westervelt",
    "kuznetsov", "neumann", "dirichlet", "gaussian"]
ERROR_CLASSES = {name: cls for name, cls in vars(errors).items()
                 if isinstance(cls, type)
                 and issubclass(cls, errors.HbwaveError)}


def assert_cells_finite(path):
    """Every cell of a written CSV that reads as a number is finite."""
    with open(path) as fh:
        cells = ",".join(fh.read().splitlines()[1:]).split(",")
    numbers = []
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:      # a term name or a level
            pass
    assert numbers and np.isfinite(numbers).all(), path


def _fuzz_override(key):
    if key in SIZE_VALUES:
        return st.tuples(st.just(key), st.sampled_from(SIZE_VALUES[key]))
    return st.tuples(st.just(key), st.sampled_from(SOLVE_FUZZ_VALUES)
                     | st.text(max_size=4))


# 400 examples take about 5 s
@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(SOLVE_FUZZ_KEYS).flatmap(_fuzz_override),
                min_size=1, max_size=3))
# the one-sided end stencils of the energies read v[..., 3]
@example([("domain.nx", "3")])
# the H^1-dual norm factors the two interior nodes, which scipy's ?gttrf
# wrapper, the kernel's fallback, cannot do
@example([("domain.nx", "4")])
# gamma^2 of the energies' trace term overflows a Python float
@example([("bc.right.kind", "absorbing"), ("bc.right.beta", "1"),
          ("bc.right.gamma", "1.35e154")])
# the overflow of harmonic 1 reached the others, and harmonic 0 was blamed
@example([("solver.kind", "linear"), ("forcing.amplitude_1", "1e308")])
# the solve succeeds, and the energies, which square u, overflow
@example([("solver.kind", "linear"), ("forcing.amplitude_1", "1e160")])
# the squares in the re-substitution norms overflowed
@example([("solver.kind", "linear"), ("forcing.amplitude_1", "1e200")])
# a message that quotes a line break from the input
@example([("physics.b", "0\r0")])
@example([("physics.b", "0\n0")])
def test_solve_exits_with_outputs_or_an_error_class(overrides):
    """solve exits 0 with all its outputs, every number in them finite, and
    nothing on stderr, or with the exit code of an hbwave error class, its
    error.json and one stderr line; never through the last-resort handler.
    A warning counts as a stderr line: pytest records the warnings that a
    plain run prints there."""
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.ini")
        with open(config, "w") as fh:
            fh.write(SOLVE_CONFIG)
        out = os.path.join(tmp, "out")
        argv = ["solve", config, "-o", out]
        for key, value in overrides:
            argv += ["-s", f"{key}={value}"]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = run_command(argv)
        lines = stderr.getvalue().splitlines() + [str(w) for w in caught]
        assert len(lines) == (0 if code == 0 else 1), lines
        written = set(os.listdir(out))
        if code == 0:
            assert written == {"solution.csv", "energy.csv", "run_info.json"}
            for name in ("solution.csv", "energy.csv"):
                assert_cells_finite(os.path.join(out, name))
        else:
            assert written == {"error.json"}
            with open(os.path.join(out, "error.json")) as fh:
                record = json.load(fh)
            assert record["kind"] in ERROR_CLASSES, record
            assert "traceback" not in record
            assert code == ERROR_CLASSES[record["kind"]].exit_code


@pytest.mark.parametrize("amplitude", ["1e200", "1e-150", "1e-250"])
def test_huge_forcing_keeps_the_residual_check_finite(tmp_path, amplitude):
    """A right-hand side beyond about 1e154 overflowed the norms of the
    re-substitution check, which then passed whatever the residual, and
    the report's residual read inf / inf = nan.  Below about 1e-138 the
    residual's squares underflowed, and it read 0 whatever the error."""
    config = tmp_path / "run.ini"
    config.write_text(SOLVE_CONFIG)
    raw = apply_overrides(parse_config(str(config)), [
        "solver.kind=linear", f"forcing.amplitude_1={amplitude}"])
    setup = build_setup(raw, str(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve(setup.f, setup.model, setup.solver_kind)
    assert 0 < report.final_residual <= RESIDUAL_RTOL


# a config naming a nodal file, b, with its Nx = 33 values
BYTE_FUZZ_FILES = {
    "run.ini": CONFIG.replace("b = 1.0", "b = b.txt").encode(),
    "b.txt": "".join(f"{1.0 + 0.001 * i!r}\n" for i in range(33)).encode(),
}


def validate_files(files: dict, *overrides) -> tuple:
    """Run validate in process on run.ini among `files`, {name: bytes},
    and check the README contract: exit 0, or exit 1 or 2 with an
    error.json whose kind is an hbwave error class and that holds no
    traceback.  Returns the exit code and the record (None on exit 0)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(data)
        out = os.path.join(tmp, "out")
        argv = ["validate", os.path.join(tmp, "run.ini"), "-o", out]
        for item in overrides:
            argv += ["-s", item]
        code = run_command(argv)
        if code == 0:
            return code, None
        with open(os.path.join(out, "error.json"), encoding="utf-8") as fh:
            record = json.load(fh)
    assert code in (1, 2)
    assert record["kind"] in ERROR_CLASSES, record
    assert "traceback" not in record
    return code, record


# 300 examples take about 1 s
@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(BYTE_FUZZ_FILES)),
       st.lists(st.tuples(st.integers(0, 2000),
                          st.none() | st.integers(0, 255)),
                min_size=1, max_size=4))
# a config that is not UTF-8 failed as a bug, with a traceback
@example("run.ini", [(0, 0xFF)])
def test_validate_keeps_its_contract_on_edited_bytes(name, edits):
    """Each edit replaces the byte at a position, or deletes it (None), in
    the config or in its nodal file."""
    data = bytearray(BYTE_FUZZ_FILES[name])
    for position, byte in edits:
        position %= len(data)
        if byte is None:
            del data[position]
        else:
            data[position] = byte
    validate_files({**BYTE_FUZZ_FILES, name: bytes(data)})


def test_a_truncated_gz_nodal_file_exits_one_without_a_traceback():
    # loadtxt decompressed it by its name, and the truncation escaped the
    # config errors and failed as a bug, exit 2 with a traceback
    gz = gzip.compress(BYTE_FUZZ_FILES["b.txt"])[:-8]
    code, record = validate_files({**BYTE_FUZZ_FILES, "trunc.txt.gz": gz},
                                  "physics.b=trunc.txt.gz")
    assert (code, record["kind"]) == (1, "TypeMismatch")
    assert record["message"].startswith("[physics] b: non-numeric data in ")
