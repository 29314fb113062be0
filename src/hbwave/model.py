"""Physical/discrete data model for time-periodic nonlinear acoustics.

Fields that are T-periodic in time are stored one-sided in harmonic space:
u(t, x) = u_0(x) + sum_{m=1..M} 2 Re(u_m(x) exp(i m omega t)),
so reality of time samples is structural.  Spatially everything lives on a
uniform grid over the interval (0, L).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidModel,
    UndersampledTime,
    Violation,
)

TWO_PI = 2.0 * np.pi


class BCKind(enum.Enum):
    ABSORBING = "absorbing"
    IMPEDANCE = "impedance"
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class BoundaryCondition:
    """Endpoint condition d_nu u + beta u_t + gamma u = 0 (or u = 0)."""

    kind: BCKind
    beta: float = 0.0
    gamma: float = 0.0

    def robin_coefficient(self, m: int, omega: float) -> complex:
        """Harmonic-m Robin coefficient i m omega beta + gamma."""
        return 1j * m * omega * self.beta + self.gamma

    @property
    def is_dirichlet(self) -> bool:
        return self.kind is BCKind.DIRICHLET


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [0, L]."""

    L: float
    nx: int

    @property
    def h(self) -> float:
        return self.L / (self.nx - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.nx, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


@dataclass(frozen=True)
class PhysicalParams:
    """Coefficients of the third-order-in-time wave equation.

    tau is the relaxation time, taubar an upper bound used in the energy
    weights, b the attenuation field, c2 the squared sound speed field,
    eta / eta_tilde the quadratic nonlinearity coefficients, T the period.
    omega is always derived from T.
    """

    tau: float
    taubar: float
    b: np.ndarray
    c2: np.ndarray
    eta: np.ndarray
    eta_tilde: np.ndarray
    T: float

    @property
    def omega(self) -> float:
        return TWO_PI / self.T

    @staticmethod
    def create(grid: Grid, *, tau, taubar, b, c2, eta=0.0, eta_tilde=0.0, T):
        """Broadcast scalar coefficients to nodal arrays."""
        def nodal(v):
            a = np.asarray(v, dtype=float)
            if a.ndim == 0:
                a = np.full(grid.nx, float(a))
            return a
        return PhysicalParams(tau=float(tau), taubar=float(taubar),
                              b=nodal(b), c2=nodal(c2), eta=nodal(eta),
                              eta_tilde=nodal(eta_tilde), T=float(T))

    def with_tau(self, tau: float) -> "PhysicalParams":
        return PhysicalParams(tau=float(tau), taubar=self.taubar, b=self.b,
                              c2=self.c2, eta=self.eta,
                              eta_tilde=self.eta_tilde, T=self.T)


@dataclass
class HarmonicField:
    """One-sided harmonic coefficients, shape (M+1, nx) complex."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 2:
            raise ValueError("coeffs must be (M+1, nx)")

    @property
    def M(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def nx(self) -> int:
        return self.coeffs.shape[1]

    @staticmethod
    def zeros(M: int, nx: int) -> "HarmonicField":
        return HarmonicField(np.zeros((M + 1, nx), dtype=complex))

    def copy(self) -> "HarmonicField":
        return HarmonicField(self.coeffs.copy())

    def __add__(self, other):
        return HarmonicField(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return HarmonicField(self.coeffs - other.coeffs)

    def __mul__(self, s):
        return HarmonicField(self.coeffs * s)

    __rmul__ = __mul__

    def time_derivative(self, omega: float, order: int = 1) -> "HarmonicField":
        m = np.arange(self.M + 1)
        factor = (1j * m * omega) ** order
        return HarmonicField(self.coeffs * factor[:, None])

    def amplitude(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0


@dataclass
class TimeField:
    """Real samples on a uniform time grid over one period, (Nt, nx)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @property
    def nt(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]


def min_samples(M: int) -> int:
    """Minimum time samples for a lossless round trip at order M."""
    return 2 * M + 2


def dealiased_samples(M: int) -> int:
    """Smallest power of two >= 4M+2 (exact for quadratic products)."""
    n = 1
    while n < 4 * M + 2:
        n *= 2
    return n


def to_time_samples(u: HarmonicField, nt: int) -> TimeField:
    """Synthesize real time samples at t_k = k T / Nt."""
    if nt < min_samples(u.M):
        raise UndersampledTime(f"nt={nt} < 2M+2={min_samples(u.M)}")
    spectrum = np.zeros((nt // 2 + 1, u.nx), dtype=complex)
    spectrum[: u.M + 1] = u.coeffs * nt
    values = np.fft.irfft(spectrum, n=nt, axis=0)
    return TimeField(values)


def to_harmonics(v: TimeField, M: int) -> HarmonicField:
    """Order-M truncation of the discrete Fourier series of each node."""
    if v.nt < min_samples(M):
        raise UndersampledTime(f"nt={v.nt} < 2M+2={min_samples(M)}")
    spectrum = np.fft.rfft(v.values, axis=0) / v.nt
    coeffs = np.zeros((M + 1, v.nx), dtype=complex)
    take = min(M + 1, spectrum.shape[0])
    coeffs[:take] = spectrum[:take]
    coeffs[0] = coeffs[0].real
    return HarmonicField(coeffs)


@dataclass(frozen=True)
class ValidatedModel:
    """Grid, coefficients and endpoint conditions with invariants verified."""

    grid: Grid
    params: PhysicalParams
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition

    @property
    def bcs(self):
        return (self.bc_left, self.bc_right)

    def stability_margin(self, alpha_min: float = 1.0) -> float:
        p = self.params
        return float(np.min(p.b / p.c2) - p.taubar / alpha_min)

    def with_params(self, params: PhysicalParams) -> "ValidatedModel":
        return validate_model(self.grid, params, self.bc_left, self.bc_right)


def _check_bc(bc: BoundaryCondition, side: str, violations):
    if bc.kind is BCKind.ABSORBING:
        if bc.beta <= 0:
            violations.append(Violation(
                "NonPositiveCoefficient",
                f"{side} absorbing endpoint needs beta > 0, got {bc.beta}"))
        if bc.gamma < 0:
            violations.append(Violation(
                "NonPositiveCoefficient", f"{side} gamma must be >= 0"))
    elif bc.kind is BCKind.IMPEDANCE:
        if bc.gamma <= 0:
            violations.append(Violation(
                "NonPositiveCoefficient",
                f"{side} impedance endpoint needs gamma > 0, got {bc.gamma}"))
        if bc.beta != 0:
            violations.append(Violation(
                "NonPositiveCoefficient",
                f"{side} impedance endpoint must have beta = 0"))
    elif bc.kind is BCKind.NEUMANN:
        if bc.beta != 0 or bc.gamma != 0:
            violations.append(Violation(
                "NonPositiveCoefficient",
                f"{side} Neumann endpoint must have beta = gamma = 0"))


def _finite_normal(value) -> bool:
    """Every entry of `value` is finite and normal (zero is not normal)."""
    return bool(np.all(np.isfinite(value)
                       & (np.abs(value) >= np.finfo(float).tiny)))


def collect_violations(grid, params, bc_left, bc_right, M: int = 1):
    """All structural-assumption failures of a candidate configuration.

    `M` is the highest harmonic the model is solved with.
    """
    values = {"L": grid.L, "T": params.T, "tau": params.tau,
              "taubar": params.taubar, "b": params.b, "c2": params.c2,
              "eta": params.eta, "eta_tilde": params.eta_tilde,
              "left beta": bc_left.beta, "left gamma": bc_left.gamma,
              "right beta": bc_right.beta, "right gamma": bc_right.gamma}
    nonfinite = [name for name, value in values.items()
                 if not np.all(np.isfinite(value))]
    violations = [Violation("NonFiniteValue", f"{name} must be finite")
                  for name in nonfinite]
    if grid.nx < 3:
        violations.append(Violation("BadGrid", f"nx={grid.nx} < 3"))
    if grid.L <= 0:
        violations.append(Violation("BadGrid", f"L={grid.L} <= 0"))
    if params.T <= 0:
        violations.append(Violation("BadGrid", f"T={params.T} <= 0"))
    if not nonfinite and grid.nx >= 3 and grid.L > 0 and params.T > 0:
        # the grid and time scales the operators are built from, up to the
        # highest harmonic's diagonal terms (M omega)^2 and tau (M omega)^3
        with np.errstate(all="ignore"):
            h = np.float64(grid.L) / (grid.nx - 1)
            omega = TWO_PI / np.float64(params.T)
            derived = {"h": h, "1/h^2": 1.0 / h**2, "omega": omega,
                       "M*omega": M * omega, "(M*omega)^2": (M * omega)**2}
            if params.tau > 0:
                derived["tau*(M*omega)^3"] = params.tau * (M * omega)**3
        violations.extend(
            Violation("BadGrid", f"{name} = {value:.6g} is not a finite, "
                      "normal number")
            for name, value in derived.items() if not _finite_normal(value))
    if np.any(params.b <= 0):
        violations.append(Violation(
            "NonPositiveCoefficient", "b must be > 0 at every node"))
    if np.any(params.c2 <= 0):
        violations.append(Violation(
            "NonPositiveCoefficient", "c2 must be > 0 at every node"))
    if params.tau < 0 or params.taubar < params.tau:
        violations.append(Violation(
            "NonPositiveCoefficient",
            f"need 0 <= tau <= taubar, got tau={params.tau}, "
            f"taubar={params.taubar}"))
    for side, bc in (("left", bc_left), ("right", bc_right)):
        _check_bc(bc, side, violations)

    # mean-mode solvability: at least one impedance or Dirichlet endpoint
    def anchors(bc):
        return bc.kind in (BCKind.IMPEDANCE, BCKind.DIRICHLET)
    if not (anchors(bc_left) or anchors(bc_right)):
        violations.append(Violation(
            "MeasureAssumptionViolation",
            "no impedance or Dirichlet endpoint; the mean-mode system "
            "is singular"))

    # a-priori stability with alpha = 1; an overflowing b/c2 would pass it
    if not nonfinite and np.all(params.b > 0) and np.all(params.c2 > 0):
        with np.errstate(all="ignore"):
            ratio = params.b / params.c2
        margin = float(np.min(ratio) - params.taubar)
        if not _finite_normal(ratio):
            violations.append(Violation(
                "StabilityViolation",
                f"b/c2 ranges over [{np.min(ratio):.6g}, "
                f"{np.max(ratio):.6g}], not finite, normal numbers"))
        elif margin <= 0:
            violations.append(Violation(
                "StabilityViolation",
                f"min(b/c2) - taubar = {margin:.6g} <= 0"))
    return violations


def validate_model(grid, params, bc_left, bc_right,
                   M: int = 1) -> ValidatedModel:
    """Return a validated model or raise InvalidModel with all violations."""
    violations = collect_violations(grid, params, bc_left, bc_right, M)
    if violations:
        raise InvalidModel(violations)
    return ValidatedModel(grid=grid, params=params,
                          bc_left=bc_left, bc_right=bc_right)
