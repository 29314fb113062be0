"""Configuration parsing and result serialization.

Configs are INI-style files; every key is checked against the schema (no
silent ignoring), coefficient arrays may be loaded from text files resolved
relative to the config, and all result CSVs are written atomically with a
fixed column schema and 17 significant digits.
"""
from __future__ import annotations

import configparser
import json
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ConfigSyntaxError,
    TypeMismatch,
    UnknownKey,
)
from .model import (
    BCKind,
    BoundaryCondition,
    Grid,
    HarmonicField,
    PhysicalParams,
    ValidatedModel,
    validate_model,
)
from .nonlinear import FixedPointOptions

_SCHEMA = {
    "domain": {"l", "nx"},
    "time": {"t", "m"},
    "physics": {"tau", "taubar", "b", "c2", "eta", "eta_tilde"},
    "bc.left": {"kind", "beta", "gamma"},
    "bc.right": {"kind", "beta", "gamma"},
    "forcing": {"profile"},          # plus amplitude_<m> keys
    "solver": {"kind", "tol", "max_iter", "relaxation", "degeneracy_floor",
               "ball_radius"},
    "study": {"case", "grids", "taus", "eps", "dt_divisor", "max_periods",
              "period_tol"},
}

PROFILES = {
    "sine": lambda x, L: np.sin(np.pi * x / L),
    "sine2": lambda x, L: np.sin(2.0 * np.pi * x / L),
    "constant": lambda x, L: np.ones_like(x),
    "gaussian": lambda x, L: np.exp(-(((x - 0.5 * L) / (0.125 * L)) ** 2)),
}

SOLVER_KINDS = ("linear", "westervelt", "kuznetsov")


@dataclass
class RunSetup:
    """Everything a command needs: validated model, forcing, options."""

    model: ValidatedModel
    f: HarmonicField
    solver_kind: str
    options: FixedPointOptions
    M: int
    study: dict = field(default_factory=dict)


def parse_config(path: str) -> dict:
    """Read an INI config into {section: {key: string}} with schema checks."""
    cp = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.MissingSectionHeaderError as exc:
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
            if opt not in _SCHEMA[key] and not (
                    key == "forcing" and opt.startswith("amplitude_")):
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
        if key not in _SCHEMA[sec] and not (
                sec == "forcing" and key.startswith("amplitude_")):
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
    grid = Grid(L=L, nx=nx)

    tim = raw["time"]
    T = _as_float("time", "t", tim.get("t", str(2 * np.pi)))
    M = _as_int("time", "m", tim.get("m", "8"))
    if M < 1:
        raise TypeMismatch(f"[time] m = {M}; need >= 1")

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
    model = validate_model(grid, params, bc_left, bc_right)

    forc = raw["forcing"]
    profile_name = forc.get("profile", "sine").strip().lower()
    if profile_name not in PROFILES:
        raise TypeMismatch(
            f"[forcing] profile = {profile_name!r}; expected one of "
            f"{sorted(PROFILES)}")
    profile = PROFILES[profile_name](grid.nodes, L)
    f = HarmonicField.zeros(M, nx)
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
        f.coeffs[m] = amp * profile if m == 0 else 0.5 * amp * profile

    sol = raw.get("solver", {})
    solver_kind = sol.get("kind", "linear").strip().lower()
    if solver_kind not in SOLVER_KINDS:
        raise TypeMismatch(
            f"[solver] kind = {solver_kind!r}; expected one of "
            f"{SOLVER_KINDS}")
    def number(key, default):
        return _as_float("solver", key, sol.get(key, default))

    try:
        options = FixedPointOptions(
            tol=number("tol", "1e-11"),
            max_iter=_as_int("solver", "max_iter", sol.get("max_iter", "100")),
            relaxation=number("relaxation", "1.0"),
            degeneracy_floor=number("degeneracy_floor", "0.1"),
            ball_radius=(number("ball_radius", None)
                         if "ball_radius" in sol else None),
        )
    except ValueError as exc:
        raise TypeMismatch(f"[solver] {exc}")

    study = {}
    st = raw.get("study", {})
    if "case" in st:
        study["case"] = st["case"].strip()
    for key in ("grids", "taus", "eps"):
        if key in st:
            try:
                parts = [p for p in st[key].replace(",", " ").split() if p]
                study[key] = ([int(p) for p in parts] if key == "grids"
                              else [float(p) for p in parts])
            except ValueError:
                raise TypeMismatch(f"[study] {key} = {st[key]!r} is not a "
                                   "numeric list")
    for key, convert in (("dt_divisor", _as_int), ("max_periods", _as_int),
                         ("period_tol", _as_float)):
        if key in st:
            study[key] = convert("study", key, st[key])
    return RunSetup(model=model, f=f, solver_kind=solver_kind,
                    options=options, M=M, study=study)


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


def write_csv(path: str, header, rows):
    """Write rows of cells under a mandatory header, atomically, LF-only."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format(cell) for cell in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_solution_csv(path: str, u: HarmonicField, grid: Grid):
    rows = []
    for m in range(u.M + 1):
        for j in range(u.nx):
            c = u.coeffs[m, j]
            rows.append((m, j, grid.nodes[j], c.real, c.imag))
    write_csv(path, ("m", "node_index", "x", "re", "im"), rows)


def read_solution_csv(path: str) -> HarmonicField:
    """Inverse of write_solution_csv (17-digit round trip is bit exact)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != ["m", "node_index", "x", "re", "im"]:
            raise ConfigError(f"{path}: unexpected header {header}")
        entries = []
        for line in fh:
            if not line.strip():
                continue
            m_s, j_s, _x, re_s, im_s = line.strip().split(",")
            entries.append((int(m_s), int(j_s),
                            float(re_s) + 1j * float(im_s)))
    M = max(e[0] for e in entries)
    nx = max(e[1] for e in entries) + 1
    u = HarmonicField.zeros(M, nx)
    for m, j, c in entries:
        u.coeffs[m, j] = c
    return u


def write_energy_csv(path: str, report):
    write_csv(path, ("term_name", "level", "value"), report.rows())


def write_tau_sweep_csv(path: str, result):
    rows = [(r["tau"], r["d_lo"], r["d_me"], r["rate"], r["E_lo_ratio"])
            for r in result.rows]
    write_csv(path, ("tau", "d_lo", "d_me", "rate", "E_lo_ratio"), rows)


def write_taylor_csv(path: str, result):
    rows = [(r["eps"], r["remainder"], r["slope"]) for r in result.rows]
    write_csv(path, ("eps", "remainder", "slope"), rows)


def write_oracle_csv(path: str, metrics: dict):
    write_csv(path, ("metric", "value"), sorted(metrics.items()))


def write_error_record(output_dir: str, exc) -> str:
    record = {
        "kind": type(exc).__name__,
        "code": getattr(exc, "code", "error"),
        "message": str(exc),
    }
    for attr in ("violations", "history", "gaps", "alpha_min", "iterations",
                 "residual", "condition_estimate"):
        value = getattr(exc, attr, None)
        if value is None:
            continue
        if attr == "violations":
            value = [{"code": v.code, "message": v.message} for v in value]
        record[attr] = value
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
