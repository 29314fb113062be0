import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbwave
from hbwave.cli import run_command
from hbwave.io import _SCHEMA, read_solution_csv

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
    assert u.M == 4
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
    assert lines[0] == "tau,d_lo,d_me,rate,E_lo_ratio"
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


def test_converge_verb(config, tmp_path):
    code, out = run(config, tmp_path, "converge",
                    "-s", "study.case=linear-dirichlet",
                    "-s", "study.grids=33 65 129")
    assert code == 0
    assert os.path.exists(os.path.join(out, "convergence.csv"))


def test_oracle_compare_verb(config, tmp_path):
    code, out = run(config, tmp_path, "oracle-compare",
                    "-s", "study.dt_divisor=128")
    assert code == 0
    with open(os.path.join(out, "oracle.csv")) as fh:
        rows = dict(line.strip().split(",") for line in fh.readlines()[1:])
    assert float(rows["discrepancy"]) < 1e-2


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
    ("study.grids=", "TypeMismatch"),
    ("study.eps=1", "TypeMismatch"),
    ("study.grids=65", "TypeMismatch"),
    ("study.eps=0.1,0,0.001", "TypeMismatch"),
    ("study.eps=0.1,inf,0.001", "TypeMismatch"),
    ("study.grids=0,65,129", "TypeMismatch"),
    ("study.grids=1,65,129", "TypeMismatch"),
    ("study.grids=65,129,100000000", "TypeMismatch"),
    ("domain.nx=-5", "TypeMismatch"),
    ("domain.nx=100000000", "TypeMismatch"),
    ("domain.nx=1000000000000", "TypeMismatch"),
    ("time.m=1000000000000", "TypeMismatch"),
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


@pytest.mark.parametrize("override", [
    "domain.l=1e300",       # 1/h^2 underflows to 0
    "domain.l=1e-320",      # h is subnormal, 1/h^2 overflows
    "time.t=1e-320",        # omega overflows
    "time.t=1e-300",        # (M omega)^2 and tau (M omega)^3 overflow
    "physics.c2=1e-310",    # b/c2 overflows
])
def test_out_of_range_derived_scale_exits_one_with_record(config, tmp_path,
                                                          override):
    out = str(tmp_path / "out")
    code = run_command(["solve", config, "-o", out, "-s", override])
    assert code == 1
    with open(os.path.join(out, "error.json")) as fh:
        record = json.load(fh)
    assert record["kind"] == "InvalidModel"
    # b/c2 is the ratio of the stability test; the rest are grid and time
    # scales
    expected = ("StabilityViolation" if override.startswith("physics.")
                else "BadGrid")
    assert {v["code"] for v in record["violations"]} == {expected}
    assert not os.path.exists(os.path.join(out, "solution.csv"))


def test_validate_runs_without_scipy(config, tmp_path):
    # scipy.linalg is most of the start-up time; only solves import it
    script = ("import sys\n"
              "from hbwave.cli import run_command\n"
              "assert 'scipy' not in sys.modules\n"
              "code = run_command(['validate'] + sys.argv[1:])\n"
              "assert code == 0, code\n"
              "assert 'scipy' not in sys.modules, 'validate imported scipy'\n")
    src = os.path.dirname(os.path.dirname(hbwave.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script, config, "-o", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_unexpected_error_exits_two_with_record(config, tmp_path,
                                                monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("hbwave.cli.solve", crash)
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
