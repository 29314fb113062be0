"""Configuration parsing and result serialization.

Configs are INI-style files; every key is checked against the schema (no
silent ignoring), coefficient arrays may be loaded from text files resolved
relative to the config, and all result CSVs are written atomically with a
fixed column schema and 17 significant digits.  solution.csv, with one row
per harmonic and node, is formatted one harmonic block at a time, so it
costs time linear in its (M + 1) nx rows; the small CSVs go through
write_csv cell by cell.
"""
from __future__ import annotations

import configparser
import json
import os
import tempfile
import time
import warnings

import numpy as np

from . import oracle, studies
from .errors import (
    ConfigError,
    ConfigSyntaxError,
    NonFiniteResult,
    TypeMismatch,
    UnknownKey,
)
from .model import (
    MIN_NODES,
    BCKind,
    BoundaryCondition,
    Grid,
    PhysicalParams,
    ValidatedModel,
    validate_model,
)
from .linear import FixedPointOptions

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

PROFILES = {
    "sine": lambda x, L: np.sin(np.pi * x / L),
    "sine2": lambda x, L: np.sin(2.0 * np.pi * x / L),
    "constant": lambda x, L: np.ones_like(x),
    "gaussian": lambda x, L: np.exp(-(((x - 0.5 * L) / (0.125 * L)) ** 2)),
}

SOLVER_KINDS = ("linear", "westervelt", "kuznetsov")
# bound on (M + 1) * nx, the complex coefficients of one field: 16 MB a
# field, about 29 times the largest size of the ROADMAP grid sweep
# (nx=2049, M=16)
MAX_UNKNOWNS = 10**6


class RunSetup:
    """Everything a command needs: validated model, forcing, options."""

    def __init__(self, model: ValidatedModel, f: np.ndarray, solver_kind: str,
                 options: FixedPointOptions, study: dict | None = None):
        self.model = model
        self.f = f
        self.solver_kind = solver_kind
        self.options = options
        self.study = {} if study is None else study


def _in_schema(section: str, key: str) -> bool:
    return key in _SCHEMA[section] or (
        section == "forcing" and key.startswith("amplitude_"))


def parse_config(path: str) -> dict:
    """Read an INI config into {section: {key: string}} with schema checks."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
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
        lhs, value = item.split("=", 1)
        if "." not in lhs:
            raise ConfigError(f"override {item!r} is not section.key=value")
        sec, key = lhs.rsplit(".", 1)
        sec, key = sec.lower(), key.lower()
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


def _coefficient(section_vals: dict, key: str, default: float, nx: int,
                 config_dir: str):
    """Scalar, or path to a whitespace/newline-separated nodal array."""
    if key not in section_vals:
        return default
    value = section_vals[key].strip()
    try:
        return float(value)
    except ValueError:
        pass
    path = value if os.path.isabs(value) else os.path.join(config_dir, value)
    try:
        # the size check below rejects an empty or comment-only file;
        # numpy's warning about it would be a second line on stderr
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore",
                                    "loadtxt: input contained no data")
            arr = np.loadtxt(path, dtype=float).reshape(-1)
    except OSError as exc:
        raise TypeMismatch(f"[physics] {key}: cannot read {path}: {exc}")
    except ValueError as exc:
        raise TypeMismatch(f"[physics] {key}: non-numeric data in {path}: "
                           f"{exc}")
    if arr.size != nx:
        raise TypeMismatch(
            f"[physics] {key}: file {path} has {arr.size} values, "
            f"expected Nx = {nx}")
    return arr


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
    """Turn a parsed config into a validated model, forcing and options."""
    config_dir = os.path.dirname(os.path.abspath(config_path))
    dom = raw["domain"]
    L = _as_float("domain", "l", dom.get("l", "1"))
    nx = _as_int("domain", "nx", dom.get("nx", "65"))
    tim = raw["time"]
    T = _as_float("time", "t", tim.get("t", str(2 * np.pi)))
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
    params = PhysicalParams.create(
        grid,
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
    profile = PROFILES[profile_name](grid.nodes, L)
    f = np.zeros((M + 1, nx), complex)
    for key, value in forc.items():
        if not key.startswith("amplitude_"):
            continue
        try:
            m = int(key[len("amplitude_"):])
        except ValueError:
            raise TypeMismatch(f"[forcing] {key}: harmonic index must be an "
                               "integer")
        if not 0 <= m <= M:
            raise TypeMismatch(f"[forcing] {key}: harmonic {m} outside 0..{M}")
        amp = _as_float("forcing", key, value)
        if not np.isfinite(amp):
            raise TypeMismatch(f"[forcing] {key} = {value!r} is not finite")
        f[m] = amp * profile if m == 0 else 0.5 * amp * profile

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
        # studies is loaded only for a config that sets eps
        need = 1 if key == "taus" else studies.MIN_LEVELS
        try:
            study[key] = [float(v)
                          for v in st[key].replace(",", " ").split()]
        except ValueError:
            raise TypeMismatch(f"[study] {key} = {st[key]!r} is not a "
                               "numeric list")
        if len(study[key]) < need:
            raise TypeMismatch(f"[study] {key} = {st[key]!r}; need "
                               f"{need} or more values")
        # each tau is validated below, with its model
        if key != "taus" and not all(0 < v < np.inf for v in study[key]):
            raise TypeMismatch(f"[study] {key} = {st[key]!r}; need finite "
                               "values > 0")
        if key == "eps":
            try:
                studies.check_eps_list(study[key])
            except ValueError as exc:
                raise TypeMismatch(f"[study] eps = {st[key]!r}; {exc}")
    for tau in study.get("taus", ()):
        model.with_params(params.with_tau(tau))
    for key, convert in (("dt_divisor", _as_int), ("max_periods", _as_int),
                         ("period_tol", _as_float)):
        if key in st:
            study[key] = convert("study", key, st[key])
            if not 0 < study[key] < np.inf:
                raise TypeMismatch(f"[study] {key} = {st[key]!r}; need a "
                                   "finite value > 0")
    # the oracle samples one period at its dt_divisor steps, which the
    # comparison resolves up to harmonic M only from 2M + 2 samples on;
    # oracle-compare checks the default count, which bounds no other verb
    if "dt_divisor" in study:
        oracle.check_oracle_steps(study["dt_divisor"], M)
    return RunSetup(model=model, f=f, solver_kind=solver_kind,
                    options=options, study=study)


# --- serialization ---------------------------------------------------------

def _format(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return "%.17g" % float(value)


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
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
        if not (cell is None or isinstance(cell, str) or np.isfinite(cell)):
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
    _atomic_write(path, "\n".join(lines) + "\n")


SOLUTION_HEADER = ("m", "node_index", "x", "re", "im")


def write_solution_csv(path: str, u: np.ndarray, grid: Grid):
    """One row per (m, j), harmonic-major, in the format of write_csv.

    Each node's `node_index,x,` is formatted once, into that node's row
    format for every harmonic.  A harmonic's block format joins them after
    its own `m,`, and one `%` over a flat tuple fills in re and im, so the
    cost is linear in the (M + 1) nx rows.
    """
    rows = ["%d,%.17g,%%.17g,%%.17g\n" % node
            for node in enumerate(grid.nodes.tolist())]
    blocks = [",".join(SOLUTION_HEADER) + "\n"]
    for m, c in enumerate(u):
        start = "%d," % m
        cells = np.column_stack((c.real, c.imag)).ravel().tolist()
        blocks.append((start + start.join(rows)) % tuple(cells))
    _atomic_write(path, "".join(blocks))


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
    path = os.path.join(output_dir, "error.json")
    _atomic_write(path, json.dumps(record, indent=2, default=float) + "\n")
    return path


def write_run_info(output_dir: str, verb: str, config_path: str,
                   overrides, extra: dict | None = None) -> str:
    info = {
        "verb": verb,
        "config": os.path.abspath(config_path),
        "overrides": list(overrides or ()),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if extra:
        info.update(extra)
    path = os.path.join(output_dir, "run_info.json")
    _atomic_write(path, json.dumps(info, indent=2, default=float) + "\n")
    return path
