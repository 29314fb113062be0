import json
import os

import pytest

from hbwave.cli import run_command
from hbwave.io import read_solution_csv

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
