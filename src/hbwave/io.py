"""Configuration parsing and result serialization.

Configs are INI-style files; every key is checked against the schema (no
silent ignoring), coefficient arrays may be loaded from text files resolved
relative to the config, and all result CSVs are written atomically with a
fixed column schema and 17 significant digits.  solution.csv, with one row
per harmonic and node, is formatted one harmonic block at a time, so it
costs time linear in its (M + 1) nx rows; the small CSVs go through
write_csv cell by cell.

Reading and checking a config imports no numpy: the checks run on Python
floats, and a command that solves turns the checked values into arrays
when it first reads its RunSetup's `model` or `f`.
"""
from __future__ import annotations

import configparser
import functools
import json
import math
import os
import time

from .errors import (
    ConfigError,
    ConfigSyntaxError,
    NonFiniteResult,
    TypeMismatch,
    UnknownKey,
)
from .model import (
    KINDS,
    MAX_UNKNOWNS,
    MIN_NODES,
    BCKind,
    BoundaryCondition,
    FixedPointOptions,
    Grid,
    PhysicalParams,
    ValidatedModel,
    check_eps_list,
    check_oracle_steps,
    validate_model,
)

_SCHEMA = {
    "domain": {"l", "nx"},
    "time": {"t", "m"},
    "physics": {"tau", "taubar", "b", "c2", "eta", "eta_tilde"},
    "bc.left": {"kind", "beta", "gamma"},
    "bc.right": {"kind", "beta", "gamma"},
    "forcing": {"profile"},          # plus amplitude_<m> keys
    "solver": {"kind", "tol", "max_iter", "relaxation", "degeneracy_floor",
               "ball_radius"},
    "study": {"taus", "eps", "dt_divisor", "max_periods", "period_tol"},
}

PROFILES = ("sine", "sine2", "constant", "gaussian")


def forcing_profile(name: str, x, L: float):
    """The spatial shape of the forcing at the nodes x of [0, L]."""
    import numpy as np
    if name == "sine":
        return np.sin(np.pi * x / L)
    if name == "sine2":
        return np.sin(2.0 * np.pi * x / L)
    if name == "constant":
        return np.ones_like(x)
    return np.exp(-(((x - 0.5 * L) / (0.125 * L)) ** 2))      # gaussian


SOLVER_KINDS = ("linear", *KINDS)


class RunSetup:
    """Everything a command needs: validated model, forcing, options.

    `checked` is the model as validated, with each coefficient a float or
    a tuple of nodal floats.  `model`, with nodal arrays, and `f`, the
    forcing harmonics `amplitudes` ({m: amplitude}) give to the profile,
    are made once, on first read, by the commands that solve."""

    def __init__(self, checked: ValidatedModel, profile: str,
                 amplitudes: dict, solver_kind: str,
                 options: FixedPointOptions, study: dict | None = None):
        self.checked = checked
        self.profile = profile
        self.amplitudes = amplitudes
        self.solver_kind = solver_kind
        self.options = options
        self.study = {} if study is None else study

    @functools.cached_property
    def model(self) -> ValidatedModel:
        return self.checked.with_arrays()

    @functools.cached_property
    def f(self):
        import numpy as np
        grid = self.checked.grid
        profile = forcing_profile(self.profile, grid.nodes, grid.L)
        f = np.zeros((self.checked.M + 1, grid.nx), complex)
        for m, amp in self.amplitudes.items():
            f[m] = amp * profile if m == 0 else 0.5 * amp * profile
        return f


def _in_schema(section: str, key: str) -> bool:
    return key in _SCHEMA[section] or (
        section == "forcing" and key.startswith("amplitude_"))


def parse_config(path: str) -> dict:
    """Read an INI config into {section: {key: string}} with schema checks."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:     # or not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}")
    except (configparser.MissingSectionHeaderError,
            configparser.DuplicateSectionError,
            configparser.DuplicateOptionError) as exc:
        raise ConfigSyntaxError(str(exc), line=exc.lineno)
    except configparser.ParsingError as exc:
        line = exc.errors[0][0] if exc.errors else None
        raise ConfigSyntaxError(str(exc), line=line)
    raw = {}
    for section in cp.sections():
        key = section.lower()
        if key not in _SCHEMA:
            raise UnknownKey(f"unknown section [{section}]")
        raw[key] = {}
        for opt, value in cp.items(section):
            if not _in_schema(key, opt):
                raise UnknownKey(f"unknown key {opt!r} in section [{section}]")
            raw[key][opt] = value
    for required in ("domain", "time", "physics", "forcing"):
        if required not in raw:
            raise ConfigError(f"missing required section [{required}]")
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    """Apply section.key=value pairs on top of a parsed config."""
    out = {sec: dict(vals) for sec, vals in raw.items()}
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not section.key=value")
        # stripped, as configparser strips a file's names and values
        lhs, value = map(str.strip, item.split("=", 1))
        if "." not in lhs:
            raise ConfigError(f"override {item!r} is not section.key=value")
        sec, key = (part.strip().lower() for part in lhs.rsplit(".", 1))
        if sec not in _SCHEMA:
            raise UnknownKey(f"unknown section [{sec}] in override {item!r}")
        if not _in_schema(sec, key):
            raise UnknownKey(f"unknown key {key!r} in override {item!r}")
        out.setdefault(sec, {})[key] = value
    return out


def _as_float(section: str, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise TypeMismatch(f"[{section}] {key} = {value!r} is not a number")


def _as_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise TypeMismatch(f"[{section}] {key} = {value!r} is not an integer")


def _number(field: str) -> float:
    """A field as np.loadtxt reads it: ASCII without underscores, so not
    the "1_0" or other scripts' digits that float() also reads."""
    if field.isascii() and "_" not in field:
        return float(field)
    raise ValueError(field)


def read_nodal(path: str) -> tuple:
    """The numbers of the UTF-8 text file at `path`, row by row, as floats.

    It accepts and rejects the text that np.loadtxt(path, dtype=float)
    does, with the same messages: `#` starts a comment, whitespace
    separates numbers, a line without numbers is skipped, every row has as
    many numbers as the first, and each number is read by `_number`;
    "1e999" reads as inf.  Raises OSError when the file cannot be read,
    ValueError when it is not UTF-8 or not such a table; like loadtxt, it
    reports the first bad row or number in reading order.
    """
    if "\0" in path:         # which `open` raises ValueError for
        raise OSError("embedded null byte")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.split("\n")
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    rows = [fields for fields in map(str.split, lines) if fields]
    width = len(rows[0]) if rows else 0
    ragged = next((row for row, fields in enumerate(rows)
                   if len(fields) != width), len(rows))
    fields = [field for row in rows[:ragged] for field in row]
    joined = "".join(fields)
    try:
        if not joined.isascii() or "_" in joined:
            raise ValueError(joined)
        values = tuple(map(float, fields))
    except ValueError:
        # the first field that `_number` rejects
        for i, field in enumerate(fields):
            try:
                _number(field)
            except ValueError:
                row, column = divmod(i, width)
                raise ValueError(
                    f"could not convert string {repr(field)[:100]} to "
                    f"float64 at row {row}, column {column + 1}.") from None
    if ragged < len(rows):
        raise ValueError(
            f"the number of columns changed from {width} to "
            f"{len(rows[ragged])} at row {ragged + 1}; use `usecols` to "
            "select a subset and avoid this error")
    return values


def _coefficient(section_vals: dict, key: str, default: float, nx: int,
                 config_dir: str):
    """Scalar, or path to a whitespace/newline-separated nodal file, whose
    values it returns as a tuple."""
    if key not in section_vals:
        return default
    value = section_vals[key].strip()
    try:
        return float(value)
    except ValueError:
        pass
    path = value if os.path.isabs(value) else os.path.join(config_dir, value)
    try:
        values = read_nodal(path)
    except OSError as exc:
        raise TypeMismatch(f"[physics] {key}: cannot read {path}: {exc}")
    except ValueError as exc:
        raise TypeMismatch(f"[physics] {key}: non-numeric data in {path}: "
                           f"{exc}")
    if len(values) != nx:
        raise TypeMismatch(
            f"[physics] {key}: file {path} has {len(values)} values, "
            f"expected Nx = {nx}")
    return values


def _boundary(raw: dict, section: str) -> BoundaryCondition:
    vals = raw.get(section, {"kind": "dirichlet"})
    kind_name = vals.get("kind", "dirichlet").strip().lower()
    try:
        kind = BCKind(kind_name)
    except ValueError:
        raise TypeMismatch(
            f"[{section}] kind = {kind_name!r}; expected one of "
            f"{[k.value for k in BCKind]}")
    beta = _as_float(section, "beta", vals.get("beta", "0"))
    gamma = _as_float(section, "gamma", vals.get("gamma", "0"))
    return BoundaryCondition(kind=kind, beta=beta, gamma=gamma)


def build_setup(raw: dict, config_path: str) -> RunSetup:
    """Check a parsed config and turn it into a validated model, forcing
    and options, on Python floats: see RunSetup."""
    config_dir = os.path.dirname(os.path.abspath(config_path))
    dom = raw["domain"]
    L = _as_float("domain", "l", dom.get("l", "1"))
    nx = _as_int("domain", "nx", dom.get("nx", "65"))
    tim = raw["time"]
    T = _as_float("time", "t", tim.get("t", str(2 * math.pi)))
    M = _as_int("time", "m", tim.get("m", "8"))
    if M < 1:
        raise TypeMismatch(f"[time] m = {M}; need >= 1")
    # checked before anything of size nx or (M + 1) nx is allocated
    if nx < MIN_NODES:
        raise TypeMismatch(f"[domain] nx = {nx}; need >= {MIN_NODES}")
    if (M + 1) * nx > MAX_UNKNOWNS:
        raise TypeMismatch(f"[domain] nx = {nx}: (M + 1) * nx = "
                           f"{(M + 1) * nx} unknowns per field exceed "
                           f"{MAX_UNKNOWNS}")
    grid = Grid(L=L, nx=nx)

    phys = raw["physics"]
    params = PhysicalParams(
        tau=_as_float("physics", "tau", phys.get("tau", "0")),
        taubar=_as_float("physics", "taubar", phys.get("taubar", "0")),
        b=_coefficient(phys, "b", 1.0, nx, config_dir),
        c2=_coefficient(phys, "c2", 1.0, nx, config_dir),
        eta=_coefficient(phys, "eta", 0.0, nx, config_dir),
        eta_tilde=_coefficient(phys, "eta_tilde", 0.0, nx, config_dir),
        T=T,
    )
    bc_left = _boundary(raw, "bc.left")
    bc_right = _boundary(raw, "bc.right")
    model = validate_model(grid, params, bc_left, bc_right, M)

    forc = raw["forcing"]
    profile_name = forc.get("profile", "sine").strip().lower()
    if profile_name not in PROFILES:
        raise TypeMismatch(
            f"[forcing] profile = {profile_name!r}; expected one of "
            f"{sorted(PROFILES)}")
    amplitudes = {}
    for key, value in forc.items():
        if not key.startswith("amplitude_"):
            continue
        index = key[len("amplitude_"):]
        try:
            m = int(index)
        except ValueError:
            raise TypeMismatch(f"[forcing] {key}: harmonic index must be an "
                               "integer")
        # int() also reads "01", "+1", "0_1" and other scripts' digits: one
        # spelling per harmonic, so that no key silently replaces another
        if str(m) != index:
            raise TypeMismatch(f"[forcing] {key}: write harmonic {m} as "
                               f"amplitude_{m}")
        if not 0 <= m <= M:
            raise TypeMismatch(f"[forcing] {key}: harmonic {m} outside 0..{M}")
        amp = _as_float("forcing", key, value)
        if not math.isfinite(amp):
            raise TypeMismatch(f"[forcing] {key} = {value!r} is not finite")
        amplitudes[m] = amp

    sol = raw.get("solver", {})
    solver_kind = sol.get("kind", "linear").strip().lower()
    if solver_kind not in SOLVER_KINDS:
        raise TypeMismatch(
            f"[solver] kind = {solver_kind!r}; expected one of "
            f"{SOLVER_KINDS}")
    # FixedPointOptions holds the defaults of the keys the config leaves out
    try:
        options = FixedPointOptions(**{
            key: convert("solver", key, sol[key])
            for key, convert in (("tol", _as_float), ("max_iter", _as_int),
                                 ("relaxation", _as_float),
                                 ("degeneracy_floor", _as_float),
                                 ("ball_radius", _as_float))
            if key in sol})
    except ValueError as exc:
        raise TypeMismatch(f"[solver] {exc}")

    study = {}
    st = raw.get("study", {})
    for key in ("taus", "eps"):
        if key not in st:
            continue
        try:
            study[key] = [float(v)
                          for v in st[key].replace(",", " ").split()]
        except ValueError:
            raise TypeMismatch(f"[study] {key} = {st[key]!r} is not a "
                               "numeric list")
        if not study[key]:
            raise TypeMismatch(f"[study] {key} is empty")
    # each tau is validated with its model, the epsilons by the Taylor
    # test's own check
    for tau in study.get("taus", ()):
        model.with_params(params.with_tau(tau))
    if "eps" in study:
        try:
            check_eps_list(study["eps"])
        except ValueError as exc:
            raise TypeMismatch(f"[study] eps = {st['eps']!r}; {exc}")
    for key, convert in (("dt_divisor", _as_int), ("max_periods", _as_int),
                         ("period_tol", _as_float)):
        if key in st:
            study[key] = convert("study", key, st[key])
            if not 0 < study[key] < math.inf:
                raise TypeMismatch(f"[study] {key} = {st[key]!r}; need a "
                                   "finite value > 0")
    # the oracle samples one period at its dt_divisor steps, which the
    # comparison resolves up to harmonic M only from 2M + 2 samples on, and
    # tabulates each step; oracle-compare checks the default count, which
    # bounds no other verb
    if "dt_divisor" in study:
        check_oracle_steps(study["dt_divisor"], M, nx)
    return RunSetup(checked=model, profile=profile_name,
                    amplitudes=amplitudes, solver_kind=solver_kind,
                    options=options, study=study)


# --- serialization ---------------------------------------------------------

def _format(value) -> str:
    # %.17g writes an int below 1e17, Python's or numpy's, as its digits
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%.17g" % value


def _new_file(directory: str):
    """(fd, path) of a new file in `directory`, open for writing, with
    the mode `open` gives: 0o666 less the umask (mkstemp's is 0o600)."""
    while True:
        path = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
        try:
            return os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                           0o666), path
        except FileExistsError:
            continue


def _atomic_write(path: str, parts):
    """Write the strings of `parts` in turn to a temporary file beside
    `path`, LF-only, then move it onto `path`: a reader sees the old file
    or the whole new one.  Each part is written as soon as it is made, so
    a generator of parts never holds the whole text."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = _new_file(directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            for text in parts:
                fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _non_finite_term(header, row) -> str | None:
    """The term of the row's first non-finite number, or None: the row's
    text cells, or else the column at the row's first cell."""
    for name, cell in zip(header, row):
        if not (cell is None or isinstance(cell, str) or math.isfinite(cell)):
            labels = [c for c in row if isinstance(c, str)]
            return " ".join(labels) if labels else (
                f"{name} at {header[0]} = {_format(row[0])}")
    return None


def write_csv(path: str, header, rows):
    """Write rows of cells under a mandatory header, atomically, LF-only.
    A non-finite number raises NonFiniteResult before anything is written."""
    lines = [",".join(header)]
    for row in rows:
        term = _non_finite_term(header, row)
        if term is not None:
            name = os.path.basename(path)
            raise NonFiniteResult(f"{name}: {term} is not finite",
                                  file=name, term=term)
        lines.append(",".join(_format(cell) for cell in row))
    _atomic_write(path, ["\n".join(lines) + "\n"])


SOLUTION_HEADER = ("m", "node_index", "x", "re", "im")


def write_solution_csv(path: str, u, grid: Grid):
    """One row per (m, j), harmonic-major, in the format of write_csv.

    Each node's `node_index,x,` is formatted once, into that node's row
    format for every harmonic.  A harmonic's block format joins them after
    its own `m,`, and one `%` over a flat tuple fills in re and im, so the
    cost is linear in the (M + 1) nx rows.  Each block goes to the file as
    soon as it is formatted: the whole text is never held at once.
    """
    import numpy as np
    rows = ["%d,%.17g,%%.17g,%%.17g\n" % node
            for node in enumerate(grid.nodes.tolist())]

    def blocks():
        yield ",".join(SOLUTION_HEADER) + "\n"
        for m, c in enumerate(u):
            start = "%d," % m
            cells = np.column_stack((c.real, c.imag)).ravel().tolist()
            yield (start + start.join(rows)) % tuple(cells)
    _atomic_write(path, blocks())


def _write_json(path: str, record: dict) -> str:
    """Write `record` to `path` as indented JSON, atomically; returns path."""
    _atomic_write(path, [json.dumps(record, indent=2, default=float) + "\n"])
    return path


def write_error_record(output_dir: str, exc, **extra) -> str:
    """error.json: the class, its code, the message, then the details the
    error carries (errors.HbwaveError) and any `extra` fields."""
    record = {
        "kind": type(exc).__name__,
        "code": getattr(exc, "code", "error"),
        "message": str(exc),
        **getattr(exc, "details", {}),
        **extra,
    }
    return _write_json(os.path.join(output_dir, "error.json"), record)


def write_run_info(output_dir: str, verb: str, config_path: str,
                   overrides, extra: dict | None = None) -> str:
    info = {
        "verb": verb,
        "config": os.path.abspath(config_path),
        "overrides": list(overrides or ()),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **(extra or {}),
    }
    return _write_json(os.path.join(output_dir, "run_info.json"), info)
