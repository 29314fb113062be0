"""Benchmark workloads: the seeded inputs each one writes, the CLI verb it
runs on them, and the checks its outputs must pass.

Every workload uses T = 2 pi, tau = 0.1 and taubar = 0.5 with smooth nodal
b and c2 fields within +-10% of 1.0, so min(b/c2) - taubar >= 0.318 and the
model validates for every seed.  The program sees only the config file and
the two coefficient files.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, replace

import numpy as np

import reference

T = 2.0 * math.pi
TAU = 0.1
TAUBAR = 0.5
COEFF_SPREAD = 0.09          # b, c2 stay within 1 +- COEFF_SPREAD
AMPLITUDE_JITTER = 0.05      # amplitude_1 drawn within +-5% of nominal

SOLUTION_RTOL = 1e-9         # relative L2 error of solution.csv
ENERGY_RTOL = 1e-9           # relative error of each energy.csv term
SLOPE_TOL = 0.1              # |Taylor slope - 2| (acceptance criterion 8)
DISCREPANCY_TOL = 1e-3       # oracle discrepancy (acceptance criterion 3)
PERIOD_TOL = 1e-8            # the CLI's default [study] period_tol


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str
    kind: str                # [solver] kind
    nx: int
    M: int
    amplitude: float         # nominal amplitude_1
    right: str               # right endpoint: "dirichlet" or "absorbing"
    smoke_size: tuple        # (nx, M) of the smoke mode

    def smoke(self) -> "Workload":
        """The same workload at a size that runs in about a second."""
        nx, M = self.smoke_size
        return replace(self, nx=nx, M=M)


WORKLOADS = {w.name: w for w in (
    Workload("grid-fine", "solve", "westervelt", 1025, 8, 6e-3, "dirichlet",
             (65, 4)),
    Workload("harmonic-taylor", "deriv-check", "kuznetsov", 129, 32, 2.0,
             "absorbing", (33, 8)),
    Workload("oracle-march", "oracle-compare", "westervelt", 129, 8, 6e-3,
             "absorbing", (33, 4)),
)}


@dataclass
class Inputs:
    """Files written for one seed, and the data the checks need."""

    workload: Workload
    config: str
    b: np.ndarray
    c2: np.ndarray
    amplitude: float


def smooth_field(rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
    """1 + a sum of three cosine modes whose amplitudes add up to at most
    COEFF_SPREAD, so the field stays within 1 +- COEFF_SPREAD."""
    k = np.arange(1, 4)
    a = rng.uniform(-1.0, 1.0, size=3)
    a *= rng.uniform(0.2, 1.0) * COEFF_SPREAD / np.sum(np.abs(a))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=3)
    return 1.0 + np.sum(a[:, None] * np.cos(k[:, None] * math.pi * x[None, :]
                                            + phase[:, None]), axis=0)


def write_inputs(w: Workload, seed: int, directory: str) -> Inputs:
    """Draw b, c2 and amplitude_1 from `seed` and write the config."""
    rng = np.random.default_rng([seed, w.nx, w.M])
    x = np.linspace(0.0, 1.0, w.nx)
    b = smooth_field(rng, x)
    c2 = smooth_field(rng, x)
    amplitude = w.amplitude * (1.0 + rng.uniform(-AMPLITUDE_JITTER,
                                                 AMPLITUDE_JITTER))
    os.makedirs(directory, exist_ok=True)
    for name, values in (("b.txt", b), ("c2.txt", c2)):
        with open(os.path.join(directory, name), "w") as fh:
            fh.write("".join("%.17g\n" % v for v in values))
    nonlinear = "eta" if w.kind == "westervelt" else "eta_tilde"
    right = ("kind = dirichlet" if w.right == "dirichlet"
             else "kind = absorbing\nbeta = 1.0")
    config = os.path.join(directory, "run.ini")
    with open(config, "w") as fh:
        fh.write(f"""[domain]
L = 1.0
Nx = {w.nx}

[time]
T = {T!r}
M = {w.M}

[physics]
tau = {TAU}
taubar = {TAUBAR}
b = b.txt
c2 = c2.txt
{nonlinear} = 1.0

[bc.left]
kind = dirichlet

[bc.right]
{right}

[forcing]
profile = sine
amplitude_1 = {amplitude!r}

[solver]
kind = {w.kind}
""")
    return Inputs(w, config, b, c2, amplitude)


def _rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(inputs: Inputs, out: str, expected=None) -> str | None:
    """Return None when the verb's outputs in `out` pass the workload's
    checks, otherwise a one-line reason.  `expected` is the reference
    solution for grid-fine, computed once per seed by `expected_for`."""
    name = inputs.workload.name
    try:
        if name == "grid-fine":
            return _check_grid_fine(out, expected)
        if name == "harmonic-taylor":
            slopes = [float(r["slope"]) for r in _rows(
                os.path.join(out, "taylor.csv")) if r["slope"]]
            if not slopes or any(abs(s - 2.0) > SLOPE_TOL for s in slopes):
                return f"Taylor slopes {slopes} not within 2 +- {SLOPE_TOL}"
            return None
        values = {r["metric"]: float(r["value"]) for r in _rows(
            os.path.join(out, "oracle.csv"))}
        if not values["discrepancy"] <= DISCREPANCY_TOL:
            return f"oracle discrepancy {values['discrepancy']:.3e}"
        if not values["periodicity_gap"] < PERIOD_TOL:
            return f"periodicity gap {values['periodicity_gap']:.3e}"
        return None
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def expected_for(inputs: Inputs):
    """Reference result the checks compare against (grid-fine only)."""
    if inputs.workload.name != "grid-fine":
        return None
    w = inputs.workload
    u = reference.westervelt_dirichlet(inputs.b, inputs.c2, inputs.amplitude,
                                       w.nx, w.M, TAU, T)
    return u, reference.energies_dirichlet(u, TAU, TAUBAR, T)


def _check_grid_fine(out: str, expected) -> str | None:
    u_ref, energy_ref = expected
    data = np.loadtxt(os.path.join(out, "solution.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    if data.shape != (u_ref.size, 5):
        return f"solution.csv is {data.shape}, expected ({u_ref.size}, 5)"
    u = np.zeros_like(u_ref)
    u[data[:, 0].astype(int), data[:, 1].astype(int)] = (data[:, 3]
                                                         + 1j * data[:, 4])
    err = np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref)
    if not err <= SOLUTION_RTOL:
        return f"solution relative L2 error {err:.3e}"
    got = {(r["term_name"], r["level"]): float(r["value"])
           for r in _rows(os.path.join(out, "energy.csv"))}
    if set(got) != set(energy_ref):
        return f"energy.csv terms {sorted(got)} differ from the reference"
    for key, ref in energy_ref.items():
        # a term that is zero (every endpoint trace here) is held to the
        # scale of its level's total
        scale = abs(ref or energy_ref[("total", key[1])])
        if not abs(got[key] - ref) <= ENERGY_RTOL * scale:
            return f"energy {key} = {got[key]!r}, reference {ref!r}"
    return None
