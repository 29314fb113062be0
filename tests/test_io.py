import gzip
import warnings

import numpy as np
import pytest

from hbwave.errors import (
    ConfigError,
    ConfigSyntaxError,
    InvalidModel,
    NonFiniteResult,
    TypeMismatch,
    UnknownKey,
)
from hbwave.io import (
    _atomic_write,
    _format,
    apply_overrides,
    build_setup,
    parse_config,
    read_nodal,
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


def test_override_names_and_value_are_stripped(config_path):
    # as configparser strips a file's "tau = 0.2"
    raw = apply_overrides(parse_config(config_path),
                          ["physics.tau = 0.2", " Domain . Nx= 33 "])
    assert raw["physics"]["tau"] == "0.2"
    assert raw["domain"]["nx"] == "33"
    setup = build_setup(raw, config_path)
    assert setup.model.params.tau == 0.2
    assert setup.model.grid.nx == 33


def test_override_unknown_key_rejected(config_path):
    with pytest.raises(UnknownKey):
        apply_overrides(parse_config(config_path), ["domain.nz=33"])


def test_override_unknown_section_rejected(config_path):
    with pytest.raises(UnknownKey) as exc:
        apply_overrides(parse_config(config_path), ["extras.nx=33"])
    assert "unknown section [extras]" in str(exc.value)


def test_malformed_override_rejected(config_path):
    with pytest.raises(ConfigError):
        apply_overrides(parse_config(config_path), ["just-a-token"])


def test_override_without_a_section_rejected(config_path):
    with pytest.raises(ConfigError) as exc:
        apply_overrides(parse_config(config_path), ["nx=33"])
    assert "is not section.key=value" in str(exc.value)


def test_forcing_harmonic_outside_range_rejected(config_path):
    raw = apply_overrides(parse_config(config_path), ["forcing.amplitude_9=1"])
    with pytest.raises(TypeMismatch):
        build_setup(raw, config_path)


def test_forcing_harmonic_index_must_be_an_integer(config_path):
    raw = apply_overrides(parse_config(config_path), ["forcing.amplitude_x=1"])
    with pytest.raises(TypeMismatch) as exc:
        build_setup(raw, config_path)
    assert "amplitude_x: harmonic index must be an integer" in str(exc.value)


@pytest.mark.parametrize("profile, shape", [
    ("sine", lambda x: np.sin(np.pi * x)),
    ("sine2", lambda x: np.sin(2.0 * np.pi * x)),
    ("constant", np.ones_like),
    ("gaussian", lambda x: np.exp(-((x - 0.5) / 0.125) ** 2)),
])
def test_forcing_profiles_shape_the_amplitudes(config_path, profile, shape):
    raw = apply_overrides(parse_config(config_path),
                          [f"forcing.profile={profile}"])
    setup = build_setup(raw, config_path)
    x = setup.model.grid.nodes
    np.testing.assert_allclose(setup.f[1], 0.005 * shape(x), rtol=1e-15,
                               atol=1e-18)
    assert not setup.f[[0, 2, 3]].any()


@pytest.mark.parametrize("key", ["amplitude_01", "amplitude_0_1",
                                 "amplitude_+1"])
def test_forcing_harmonic_has_one_spelling(config_path, key):
    # int() reads each of these as 1; next to amplitude_1 the last one
    # would silently have set harmonic 1
    raw = apply_overrides(parse_config(config_path), [f"forcing.{key}=7.0"])
    with pytest.raises(TypeMismatch) as exc:
        build_setup(raw, config_path)
    assert key in str(exc.value)
    assert "amplitude_1" in str(exc.value)


def loadtxt(path):
    """np.loadtxt's reading of a nodal file: ("ok", values) or
    ("ValueError", message)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # an empty file warns
            return "ok", np.loadtxt(path, dtype=float).reshape(-1).tolist()
    except ValueError as exc:
        return "ValueError", str(exc)


NODAL_TEXTS = {
    # Python's float() reads these, loadtxt does not
    "underscore": "1_0\n",
    "arabic-indic digits": "\u0661\u0662\n",
    "leading BOM": "\ufeff1\n",
    "ragged rows": "1 2\n3\n",
    "ragged after a blank line": "1\n\n2 3\n",
    "bad field on row 2": "1 2\n3 x\n",
    "comma": "1,2\n",
    # loadtxt reads these
    "trailing comment": "1 2 # c\n3 4\n",
    "infinity and nan": "Infinity NaN\n",
    "overflow": "1e999\n",
    "CRLF line ends": "1\r\n2\r\n",
    "CR line ends": "1\r2\r",
    "unicode whitespace": "1\x0b2\x853\u20284\n",
    "two columns": "1 2\n3 4\n\n5 6\n",
    "empty": "",
    "blank": "\n  \n",
    "comment-only": "# no values\n",
}


@pytest.mark.parametrize("text", NODAL_TEXTS.values(), ids=NODAL_TEXTS)
def test_nodal_reader_matches_loadtxt(tmp_path, text):
    path = tmp_path / "b.txt"
    path.write_bytes(text.encode())
    expected = loadtxt(str(path))
    try:
        got = "ok", list(read_nodal(str(path)))
    except ValueError as exc:
        got = "ValueError", str(exc)
    # repr: NaN equals itself there
    assert repr(got) == repr(expected)


GZIP = gzip.compress(b"1\n" * 17)
# (file written, its bytes, the file b names); loadtxt decompressed a .gz
# file, failing as a bug where it was cut short, and read b.txt.gz for a
# missing b.txt
COMPRESSED_CASES = {
    "gz named .gz": ("b.txt.gz", GZIP, "b.txt.gz"),
    "gz named .txt": ("b.txt", GZIP, "b.txt"),
    "truncated gz named .gz": ("b.txt.gz", GZIP[:-8], "b.txt.gz"),
    "truncated gz named .txt": ("b.txt", GZIP[:-8], "b.txt"),
    "missing .txt beside .gz": ("b.txt.gz", GZIP, "b.txt"),
}


@pytest.mark.parametrize("written, data, named", COMPRESSED_CASES.values(),
                         ids=COMPRESSED_CASES)
def test_nodal_reader_reads_the_named_text_file_only(tmp_path, written,
                                                     data, named):
    (tmp_path / written).write_bytes(data)
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL.replace("b = 1.0", f"b = {named}"))
    with pytest.raises(TypeMismatch) as exc:
        build_setup(parse_config(str(path)), str(path))
    error = "non-numeric data in" if named == written else "cannot read"
    assert str(exc.value).startswith(
        f"[physics] b: {error} {tmp_path / named}: ")


def test_a_nul_in_a_nodal_path_is_a_read_error(tmp_path):
    # open raises ValueError for it, which was reported as non-numeric data
    with pytest.raises(OSError):
        read_nodal(str(tmp_path / "a\0b"))
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL.replace("b = 1.0", "b = a\0b"))
    with pytest.raises(TypeMismatch) as exc:
        build_setup(parse_config(str(path)), str(path))
    assert str(exc.value) == (
        f"[physics] b: cannot read {tmp_path / 'a'}\0b: embedded null byte")


def test_config_that_is_not_utf8_is_a_config_error(tmp_path):
    path = tmp_path / "run.ini"
    path.write_bytes(MINIMAL.encode().replace(b"1.0", b"1.0\xff", 1))
    with pytest.raises(ConfigError) as exc:
        parse_config(str(path))
    assert type(exc.value) is ConfigError
    assert str(exc.value).startswith(f"cannot read config {path}: 'utf-8' "
                                     "codec can't decode byte 0xff")


@pytest.mark.parametrize("text", ["1_0\n", "1 2\n3\n"])
def test_non_numeric_nodal_file_is_a_type_mismatch(tmp_path, text):
    (tmp_path / "b.txt").write_text(text)
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL.replace("b = 1.0", "b = b.txt"))
    with pytest.raises(TypeMismatch) as exc:
        build_setup(parse_config(str(path)), str(path))
    assert str(exc.value).startswith(
        f"[physics] b: non-numeric data in {tmp_path / 'b.txt'}: ")


def test_overflowing_nodal_value_reads_as_inf(tmp_path):
    # loadtxt reads 1e999 as inf, which validation then rejects
    (tmp_path / "b.txt").write_text("1\n" * 16 + "1e999\n")
    path = tmp_path / "run.ini"
    path.write_text(MINIMAL.replace("b = 1.0", "b = b.txt"))
    with pytest.raises(InvalidModel) as exc:
        build_setup(parse_config(str(path)), str(path))
    assert [(v.code, v.message) for v in exc.value.violations] == [
        ("NonFiniteValue", "b must be finite")]


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


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")

    def parts():
        yield "half of the new text\n"
        raise RuntimeError("the writer failed")
    with pytest.raises(RuntimeError):
        _atomic_write(str(path), parts())
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "old\n"


def test_seventeen_digit_round_trip(tmp_path):
    value = 1.0 / 3.0
    path = tmp_path / "out.csv"
    write_csv(str(path), ("v",), [(value,)])
    text = path.read_text().splitlines()[1]
    assert float(text) == value
