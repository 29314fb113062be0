"""Physical/discrete data model for time-periodic nonlinear acoustics.

Fields that are T-periodic in time are stored one-sided in harmonic space:
u(t, x) = u_0(x) + sum_{m=1..M} 2 Re(u_m(x) exp(i m omega t)),
so reality of time samples is structural.  A harmonic field is a plain
complex (M+1, nx) array of u_0..u_M, with M = len(u) - 1, and time samples
over one period are plain real (nt, nx) arrays: `to_time_samples` maps the
first to the second, `to_harmonics` back, and `time_derivative` scales
u_m by (i m omega)^k.  Spatially everything lives on a uniform grid
over the interval (0, L).
"""
from __future__ import annotations

import enum
import math
import operator
import sys

from .errors import InvalidModel, UndersampledTime

TWO_PI = 2.0 * math.pi
# fewest grid nodes: the energies' one-sided end stencils read four, and
# between two Dirichlet ends the H^1-dual norm factors the interior nodes
# alone, which scipy's ?gttrf wrapper, the solve kernel's fallback, cannot do
# below order 3
MIN_NODES = 5
# the nonlinear kinds, whose r[u, u] the Picard solve adds; "linear" has none
KINDS = ("westervelt", "kuznetsov")


class Frozen:
    """Base of the read-only value classes: `__init__` stores the fields
    with `vars(self).update`, after which they cannot be set or deleted,
    and the repr lists them by value.  Unlike a dataclass, defining a
    subclass generates no code."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Violation(Frozen):
    """A single validation failure (code + human-readable message)."""

    def __init__(self, code: str, message: str):
        vars(self).update(code=code, message=message)


class BCKind(enum.Enum):
    ABSORBING = "absorbing"
    IMPEDANCE = "impedance"
    NEUMANN = "neumann"
    DIRICHLET = "dirichlet"


class BoundaryCondition(Frozen):
    """Endpoint condition d_nu u + beta u_t + gamma u = 0 (or u = 0)."""

    def __init__(self, kind: BCKind, beta: float = 0.0, gamma: float = 0.0):
        vars(self).update(kind=kind, beta=beta, gamma=gamma)

    def robin_coefficient(self, m: int, omega: float) -> complex:
        """Harmonic-m Robin coefficient i m omega beta + gamma."""
        return 1j * m * omega * self.beta + self.gamma

    @property
    def is_dirichlet(self) -> bool:
        return self.kind is BCKind.DIRICHLET


class Grid(Frozen):
    """Uniform nodes on [0, L]."""

    def __init__(self, L: float, nx: int):
        vars(self).update(L=L, nx=nx)

    @property
    def h(self) -> float:
        return self.L / (self.nx - 1)

    @property
    def nodes(self):
        import numpy as np
        return np.linspace(0.0, self.L, self.nx)

    def trapezoid_weights(self):
        import numpy as np
        w = np.full(self.nx, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


class PhysicalParams(Frozen):
    """Coefficients of the third-order-in-time wave equation.

    tau is the relaxation time, taubar an upper bound used in the energy
    weights, b the attenuation field, c2 the squared sound speed field,
    eta / eta_tilde the quadratic nonlinearity coefficients, T the period.
    omega is always derived from T.  The solvers take each coefficient as
    an array of its nodal values (`create`); a checked config holds each
    as a float or a tuple of floats, which validation reads alike.
    """

    def __init__(self, tau: float, taubar: float, b, c2, eta, eta_tilde,
                 T: float):
        vars(self).update(tau=tau, taubar=taubar, b=b, c2=c2, eta=eta,
                          eta_tilde=eta_tilde, T=T)

    @property
    def omega(self) -> float:
        return TWO_PI / self.T

    @staticmethod
    def create(grid: Grid, *, tau, taubar, b, c2, eta=0.0, eta_tilde=0.0, T):
        """Broadcast scalar coefficients to nodal arrays."""
        import numpy as np

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


def time_derivative(u, omega: float, order: int = 1):
    """d_t^order of the harmonic field u: u_m times (i m omega)^order."""
    import numpy as np
    m = np.arange(len(u))
    return u * ((1j * m * omega) ** order)[:, None]


def min_samples(M: int) -> int:
    """Minimum time samples for a lossless round trip at order M."""
    return 2 * M + 2


# The two checks below vet [study] keys for the time-stepping oracle and the
# Taylor test, and FixedPointOptions vets the [solver] keys.  They live here
# so that config validation runs them without compiling the modules that
# use them.

def check_oracle_steps(n_steps: int, M: int):
    """Raise UndersampledTime unless the oracle's period of n_steps samples
    resolves harmonic M, as `oracle.oracle_discrepancy` needs."""
    if n_steps < min_samples(M):
        raise UndersampledTime(f"oracle steps per period: nt={n_steps} < "
                               f"2M+2={min_samples(M)}")


MIN_LEVELS = 3      # fewest epsilons: two observed orders


def check_eps_list(eps_list):
    """Raise ValueError unless eps_list has MIN_LEVELS or more values, each
    finite and > 0, and no two consecutive ones are equal: each slope
    divides by log(eps_(i-1) / eps_i)."""
    if len(eps_list) < MIN_LEVELS:
        raise ValueError(f"need >= {MIN_LEVELS} epsilons")
    for e in eps_list:
        if not 0 < e < math.inf:
            raise ValueError(f"eps {e!r} is not finite and > 0")
    for e0, e1 in zip(eps_list, eps_list[1:]):
        if e0 == e1:
            raise ValueError(f"eps {e1!r} repeats the one before it; each "
                             "slope needs two different epsilons")


class FixedPointOptions(Frozen):
    def __init__(self, tol: float = 1e-11, max_iter: int = 100,
                 relaxation: float = 1.0, degeneracy_floor: float = 0.1,
                 ball_radius: float | None = None):
        if not 0.0 < tol < math.inf:
            raise ValueError("tol must be finite and > 0")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < relaxation <= 1.0:
            raise ValueError("relaxation must be in (0, 1]")
        # a NaN floor or radius would silently switch its guard off
        if not math.isfinite(degeneracy_floor):
            raise ValueError("degeneracy_floor must be finite")
        if not (ball_radius is None or 0.0 < ball_radius < math.inf):
            raise ValueError("ball_radius must be finite and > 0")
        vars(self).update(tol=tol, max_iter=max_iter, relaxation=relaxation,
                          degeneracy_floor=degeneracy_floor,
                          ball_radius=ball_radius)


def _is_smooth(n: int) -> bool:
    """n has no prime factor above 5."""
    for f in (2, 3, 5):
        while n % f == 0:
            n //= f
    return n == 1


def dealiased_samples(M: int) -> int:
    """Smallest 2,3,5-smooth length >= 3M+1 and >= min_samples(M).

    A product of two order-M fields has harmonics up to 2M; on nt samples
    harmonic k <= 2M aliases to nt - k, which lies above M once nt > 3M,
    so its order-M truncation is exact (Orszag's 3/2 rule).
    """
    n = max(3 * M + 1, min_samples(M))
    while not _is_smooth(n):
        n += 1
    return n


def to_time_samples(u, nt: int):
    """Real (nt, nx) samples of the harmonic field u at t_k = k T / nt."""
    import numpy as np
    M = len(u) - 1
    if nt < min_samples(M):
        raise UndersampledTime(f"nt={nt} < 2M+2={min_samples(M)}")
    # irfft zero-pads the M+1 coefficients to nt//2+1
    return np.fft.irfft(u, n=nt, axis=0, norm="forward")


def to_harmonics(v, M: int):
    """Order-M truncation of the discrete Fourier series of each node of
    the real (nt, nx) samples v."""
    import numpy as np
    nt = len(v)
    if nt < min_samples(M):
        raise UndersampledTime(f"nt={nt} < 2M+2={min_samples(M)}")
    coeffs = np.fft.rfft(v, axis=0, norm="forward")[:M + 1]
    coeffs[0] = coeffs[0].real
    return coeffs


class ValidatedModel(Frozen):
    """Grid, coefficients and endpoint conditions with invariants verified
    up to harmonic M."""

    def __init__(self, grid: Grid, params: PhysicalParams,
                 bc_left: BoundaryCondition, bc_right: BoundaryCondition,
                 M: int = 1):
        vars(self).update(grid=grid, params=params, bc_left=bc_left,
                          bc_right=bc_right, M=M)

    def stability_margin(self) -> float:
        """min(b/c2) - taubar, the margin at alpha = 1."""
        import numpy as np
        p = self.params
        return float(np.min(p.b / p.c2) - p.taubar)

    def with_params(self, params: PhysicalParams) -> "ValidatedModel":
        return validate_model(self.grid, params, self.bc_left, self.bc_right,
                              self.M)

    def with_arrays(self) -> "ValidatedModel":
        """This model with each coefficient an array of its nx nodal
        values, as the solvers take them.  The values are the same, so the
        checks it passed still hold."""
        p = self.params
        params = PhysicalParams.create(
            self.grid, tau=p.tau, taubar=p.taubar, b=p.b, c2=p.c2, eta=p.eta,
            eta_tilde=p.eta_tilde, T=p.T)
        return ValidatedModel(self.grid, params, self.bc_left, self.bc_right,
                              self.M)


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


def _values(value, n: int = 1) -> list:
    """The values of a scalar or a nodal coefficient as Python floats: an
    array or a sequence gives its entries, a scalar n copies of itself."""
    value = value.tolist() if hasattr(value, "tolist") else value
    return list(value) if isinstance(value, (list, tuple)) else [value] * n


# Validation runs on Python floats, which differ from numpy's float64 in
# two places: `**` raises OverflowError where numpy gives inf, and a
# division by zero raises where numpy gives inf or NaN.  These two give
# numpy's values; numpy's scalar power is C's pow, and so is math.pow.

def _pow(x: float, n: int) -> float:
    try:
        return math.pow(x, n)
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def _div(a: float, b: float) -> float:
    if b:
        return a / b
    if a == 0 or math.isnan(a):
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _finite_normal(value: float) -> bool:
    """`value` is finite and normal (zero is not normal)."""
    return math.isfinite(value) and abs(value) >= sys.float_info.min


def collect_violations(grid, params, bc_left, bc_right, M: int = 1):
    """All structural-assumption failures of a candidate configuration.

    `M` is the highest harmonic the model is solved with.  Each coefficient
    may be a scalar or its nodal values, as an array or a sequence; the
    checks read them as Python floats, so they import no numpy.
    """
    nx = grid.nx
    values = {"L": _values(grid.L), "T": _values(params.T),
              "tau": _values(params.tau), "taubar": _values(params.taubar),
              "b": _values(params.b, nx), "c2": _values(params.c2, nx),
              "eta": _values(params.eta, nx),
              "eta_tilde": _values(params.eta_tilde, nx),
              "left beta": _values(bc_left.beta),
              "left gamma": _values(bc_left.gamma),
              "right beta": _values(bc_right.beta),
              "right gamma": _values(bc_right.gamma)}
    nonfinite = [name for name, vs in values.items()
                 if not all(map(math.isfinite, vs))]
    violations = [Violation("NonFiniteValue", f"{name} must be finite")
                  for name in nonfinite]
    # alpha = 1 + 2 eta u (or 2 eta_tilde u_t); zero coefficients are legal
    violations.extend(
        Violation("NonFiniteValue", f"2*max|{name}| must be finite")
        for name in ("eta", "eta_tilde") if name not in nonfinite
        and not math.isfinite(2.0 * max(map(abs, values[name]), default=0)))
    b, c2 = values["b"], values["c2"]
    # a b or c2 <= 0 has its own violation below; no value is NaN once
    # all are finite, so min and max, whose result with a NaN depends on
    # where it sits, are safe from here on
    positive = not nonfinite and min(b + c2, default=1.0) > 0
    if nx < MIN_NODES:
        violations.append(Violation("BadGrid", f"nx={nx} < {MIN_NODES}"))
    if grid.L <= 0:
        violations.append(Violation("BadGrid", f"L={grid.L} <= 0"))
    if params.T <= 0:
        violations.append(Violation("BadGrid", f"T={params.T} <= 0"))
    if not nonfinite and nx >= MIN_NODES and grid.L > 0 and params.T > 0:
        # the grid and time scales the operators are built from, up to the
        # highest harmonic's diagonal terms (M omega)^2 and tau (M omega)^3,
        # its row scale (c2 + i M omega b)/h^2, its Robin entries and a bound
        # on its largest entry; and gamma^2, the energies' trace weight
        h = float(grid.L) / (nx - 1)
        omega = TWO_PI / float(params.T)
        h2, w = _pow(h, 2), M * omega
        derived = {"h": h, "1/h^2": _div(1.0, h2), "omega": omega,
                   "M*omega": w, "(M*omega)^2": _pow(w, 2)}
        if params.tau > 0:
            derived["tau*(M*omega)^3"] = params.tau * _pow(w, 3)
        if positive:
            derived["M*omega*max(b)/h^2"] = _div(w * max(b), h2)
            derived["max(c2)/h^2"] = _div(max(c2), h2)
            # |A_M| entries are at most the row scale times the largest
            # -Lap row sum (a Robin row adds 2 |q_M| / h), plus the
            # diagonal shift; 0 * inf is NaN, so tau = 0 adds nothing
            robin = max((_div(2.0 * (w * abs(bc.beta) + abs(bc.gamma)), h)
                         for bc in (bc_left, bc_right)
                         if not bc.is_dirichlet), default=0.0)
            entry = ((max(c2) + w * max(b)) * (_div(4.0, h2) + robin)
                     + _pow(w, 2))
            if params.tau > 0:
                entry += params.tau * _pow(w, 3)
            derived["|A_M| entry bound"] = entry
        for side, bc in (("left", bc_left), ("right", bc_right)):
            if not bc.is_dirichlet and bc.beta != 0:
                derived[f"M*omega*{side} beta/h"] = _div(w * bc.beta, h)
            if not bc.is_dirichlet and bc.gamma != 0:
                derived[f"{side} gamma^2"] = _pow(bc.gamma, 2)
        violations.extend(
            Violation("BadGrid", f"{name} = {value:.6g} is not a finite, "
                      "normal number")
            for name, value in derived.items() if not _finite_normal(value))
    if any(v <= 0 for v in b):
        violations.append(Violation(
            "NonPositiveCoefficient", "b must be > 0 at every node"))
    if any(v <= 0 for v in c2):
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
    if positive:
        ratio = list(map(operator.truediv, b, c2))
        lo, hi = min(ratio), max(ratio)
        margin = lo - params.taubar
        # no ratio is negative: all are finite and normal if lo and hi are
        if not (_finite_normal(lo) and _finite_normal(hi)):
            violations.append(Violation(
                "StabilityViolation",
                f"b/c2 ranges over [{lo:.6g}, {hi:.6g}], not finite, "
                "normal numbers"))
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
                          bc_left=bc_left, bc_right=bc_right, M=M)
