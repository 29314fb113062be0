import numpy as np
import pytest

from hbwave.errors import (
    ConfigError,
    ConfigSyntaxError,
    NonFiniteResult,
    TypeMismatch,
    UnknownKey,
)
from hbwave.io import (
    _format,
    apply_overrides,
    build_setup,
    parse_config,
    write_csv,
    write_solution_csv,
)
from hbwave.model import Grid
from solution_csv import read_solution_csv

MINIMAL = """\
[domain]
L = 1.0
Nx = 17

[time]
T = 6.283185307179586
M = 3

[physics]
tau = 0.1
taubar = 0.5
b = 1.0
c2 = 1.0

[bc.left]
kind = dirichlet

[bc.right]
kind = dirichlet

[forcing]
profile = sine
amplitude_1 = 0.01
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL)
    return str(path)


def test_minimal_config_builds_model(config_path):
    setup = build_setup(parse_config(config_path), config_path)
    assert setup.model.grid.nx == 17
    assert setup.model.M == 3
    assert setup.solver_kind == "linear"
    assert np.max(np.abs(setup.f[1])) == pytest.approx(0.005)


def test_misspelled_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL + "\n[solver]\ngama = 1.0\n")
    with pytest.raises(UnknownKey) as exc:
        parse_config(str(path))
    assert "gama" in str(exc.value)


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(MINIMAL + "\n[extras]\nfoo = 1\n")
    with pytest.raises(UnknownKey):
        parse_config(str(path))


def test_syntax_error_carries_line_number(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[domain]\nL = 1\nNx 33\n")
    with pytest.raises(ConfigSyntaxError) as exc:
        parse_config(str(path))
    assert exc.value.line == 3


def test_missing_section_rejected(tmp_path):
    path = tmp_path / "nosec.ini"
    path.write_text("[domain]\nL = 1\nNx = 9\n")
    with pytest.raises(ConfigError):
        parse_config(str(path))


def test_coefficient_file_loaded_relative_to_config(tmp_path):
    nodes = np.linspace(0, 1, 17)
    np.savetxt(tmp_path / "bfield.txt", 1.0 + 0.1 * nodes)
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL.replace("b = 1.0", "b = bfield.txt"))
    setup = build_setup(parse_config(str(path)), str(path))
    np.testing.assert_allclose(setup.model.params.b, 1.0 + 0.1 * nodes)


def test_coefficient_file_wrong_length(tmp_path):
    np.savetxt(tmp_path / "bfield.txt", np.ones(9))
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL.replace("b = 1.0", "b = bfield.txt"))
    with pytest.raises(TypeMismatch) as exc:
        build_setup(parse_config(str(path)), str(path))
    assert "17" in str(exc.value)


def test_overrides_replace_values(config_path):
    raw = apply_overrides(parse_config(config_path), ["domain.Nx=33"])
    setup = build_setup(raw, config_path)
    assert setup.model.grid.nx == 33


def test_override_unknown_key_rejected(config_path):
    with pytest.raises(UnknownKey):
        apply_overrides(parse_config(config_path), ["domain.nz=33"])


def test_malformed_override_rejected(config_path):
    with pytest.raises(ConfigError):
        apply_overrides(parse_config(config_path), ["just-a-token"])


def test_forcing_harmonic_outside_range_rejected(config_path):
    raw = apply_overrides(parse_config(config_path), ["forcing.amplitude_9=1"])
    with pytest.raises(TypeMismatch):
        build_setup(raw, config_path)


SPECIAL = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5e-310, 1e308, -1e308]


def _field_with_special_values(M, nx, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(M + 1, nx)) + 1j * rng.normal(size=(M + 1, nx))
    c *= 10.0 ** rng.integers(-300, 300, size=c.shape)
    c[0] = c[0].real
    c[1, :len(SPECIAL)] = SPECIAL
    c[1, -len(SPECIAL):] = [complex(0.5, v) for v in SPECIAL]
    c[M, :len(SPECIAL)] = [complex(v, w) for v, w in
                           zip(SPECIAL, SPECIAL[::-1])]
    return c


def _reference_solution_csv(path, u, grid):
    # reference: one row per (m, j), every cell through write_csv's own
    # per-cell formatting (write_csv itself refuses non-finite cells)
    rows = [(m, j, grid.nodes[j], u[m, j].real, u[m, j].imag)
            for m in range(len(u)) for j in range(grid.nx)]
    lines = ["m,node_index,x,re,im"] + [",".join(_format(c) for c in row)
                                        for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("M, nx", [(1, 17), (8, 33)])
def test_solution_csv_bytes_match_per_row_formatting(tmp_path, M, nx):
    u = _field_with_special_values(M, nx, seed=M)
    grid = Grid(1.0, nx)
    write_solution_csv(str(tmp_path / "fast.csv"), u, grid)
    _reference_solution_csv(str(tmp_path / "ref.csv"), u, grid)
    data = (tmp_path / "fast.csv").read_bytes()
    assert data == (tmp_path / "ref.csv").read_bytes()
    for text in (b"\n0,16,", b",-0,", b",nan,", b",inf\n", b",-inf,",
                 b",4.9406564584124654e-324,", b",1e+308,"):
        assert text in data


def test_solution_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    grid = Grid(1.0, 13)
    u = rng.normal(size=(4, 13)) + 1j * rng.normal(size=(4, 13))
    u[0] = u[0].real
    path = tmp_path / "solution.csv"
    write_solution_csv(str(path), u, grid)
    back = read_solution_csv(str(path))
    assert np.array_equal(back, u)
    # and with signed zeros, NaN, infinities, subnormals and extremes,
    # compared bit for bit
    u = _field_with_special_values(8, 17, seed=3)
    write_solution_csv(str(path), u, Grid(1.0, 17))
    back = read_solution_csv(str(path))
    assert back.shape == u.shape
    assert np.array_equal(back.view(np.uint64), u.view(np.uint64))


# each edits the lines of a 3 x 5 solution.csv; line 5 is (m, j) = (0, 4)
DEFECTS = {
    "truncated row": lambda ln: ln[:5] + [ln[5].rsplit(",", 1)[0]] + ln[6:],
    "non-numeric cell": lambda ln: ln[:5] + [ln[5].replace(",", ",x", 1)]
    + ln[6:],
    "fractional index": lambda ln: ln[:5] + ["1.5" + ln[5][1:]] + ln[6:],
    "negative index": lambda ln: ln[:5] + ["-1" + ln[5][1:]] + ln[6:],
    "missing (m, j)": lambda ln: ln[:5] + ln[6:],
    "duplicated (m, j)": lambda ln: ln[:5] + [ln[4]] + ln[6:],
    "no rows": lambda ln: ln[:1],
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_read_solution_csv_rejects_malformed_rows(tmp_path, defect):
    path = tmp_path / "solution.csv"
    write_solution_csv(str(path), np.zeros((3, 5), complex), Grid(1.0, 5))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(DEFECTS[defect](lines)) + "\n")
    with pytest.raises(ConfigError):
        read_solution_csv(str(path))


def test_csv_has_header_and_lf_endings(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ("a", "b"), [(1, 2.5)])
    data = path.read_bytes()
    assert data == b"a,b\n1,2.5\n"


def test_empty_rows_give_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ("x", "y"), [])
    assert path.read_text() == "x,y\n"


def test_none_serialized_as_empty_cell(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ("a", "b"), [(None, 1)])
    assert path.read_text() == "a,b\n,1\n"


@pytest.mark.parametrize("header, rows, term", [
    (("term_name", "level", "value"),
     [("u_h1h1", "lo", 1.0), ("utt_l2", "me", np.inf)], "utt_l2 me"),
    (("metric", "value"), [("discrepancy", np.nan)], "discrepancy"),
    (("tau", "d_lo", "rate"), [(0.1, 2e-3, None), (0.05, 1e-3, -np.inf)],
     "rate at tau = 0.050000000000000003"),
])
def test_non_finite_cell_fails_and_nothing_is_written(tmp_path, header, rows,
                                                      term):
    path = tmp_path / "out.csv"
    with pytest.raises(NonFiniteResult) as info:
        write_csv(str(path), header, rows)
    assert (info.value.file, info.value.term) == ("out.csv", term)
    assert info.value.exit_code == 2
    assert list(tmp_path.iterdir()) == []


def test_seventeen_digit_round_trip(tmp_path):
    value = 1.0 / 3.0
    path = tmp_path / "out.csv"
    write_csv(str(path), ("v",), [(value,)])
    text = path.read_text().splitlines()[1]
    assert float(text) == value
