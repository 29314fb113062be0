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

import numpy as np

from .errors import InvalidModel, UndersampledTime

TWO_PI = 2.0 * np.pi
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
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx)

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.nx, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


class PhysicalParams(Frozen):
    """Coefficients of the third-order-in-time wave equation.

    tau is the relaxation time, taubar an upper bound used in the energy
    weights, b the attenuation field, c2 the squared sound speed field,
    eta / eta_tilde the quadratic nonlinearity coefficients, T the period.
    omega is always derived from T.
    """

    def __init__(self, tau: float, taubar: float, b: np.ndarray,
                 c2: np.ndarray, eta: np.ndarray, eta_tilde: np.ndarray,
                 T: float):
        vars(self).update(tau=tau, taubar=taubar, b=b, c2=c2, eta=eta,
                          eta_tilde=eta_tilde, T=T)

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


def time_derivative(u: np.ndarray, omega: float, order: int = 1) -> np.ndarray:
    """d_t^order of the harmonic field u: u_m times (i m omega)^order."""
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
        if not 0 < e < np.inf:
            raise ValueError(f"eps {e!r} is not finite and > 0")
    for e0, e1 in zip(eps_list, eps_list[1:]):
        if e0 == e1:
            raise ValueError(f"eps {e1!r} repeats the one before it; each "
                             "slope needs two different epsilons")


class FixedPointOptions(Frozen):
    def __init__(self, tol: float = 1e-11, max_iter: int = 100,
                 relaxation: float = 1.0, degeneracy_floor: float = 0.1,
                 ball_radius: float | None = None):
        if not 0.0 < tol < np.inf:
            raise ValueError("tol must be finite and > 0")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < relaxation <= 1.0:
            raise ValueError("relaxation must be in (0, 1]")
        # a NaN floor or radius would silently switch its guard off
        if not np.isfinite(degeneracy_floor):
            raise ValueError("degeneracy_floor must be finite")
        if not (ball_radius is None or 0.0 < ball_radius < np.inf):
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


def to_time_samples(u: np.ndarray, nt: int) -> np.ndarray:
    """Real (nt, nx) samples of the harmonic field u at t_k = k T / nt."""
    M = len(u) - 1
    if nt < min_samples(M):
        raise UndersampledTime(f"nt={nt} < 2M+2={min_samples(M)}")
    # irfft zero-pads the M+1 coefficients to nt//2+1
    return np.fft.irfft(u, n=nt, axis=0, norm="forward")


def to_harmonics(v: np.ndarray, M: int) -> np.ndarray:
    """Order-M truncation of the discrete Fourier series of each node of
    the real (nt, nx) samples v."""
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
        p = self.params
        return float(np.min(p.b / p.c2) - p.taubar)

    def with_params(self, params: PhysicalParams) -> "ValidatedModel":
        return validate_model(self.grid, params, self.bc_left, self.bc_right,
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
    # alpha = 1 + 2 eta u (or 2 eta_tilde u_t); zero coefficients are legal
    with np.errstate(over="ignore"):
        violations.extend(
            Violation("NonFiniteValue", f"2*max|{name}| must be finite")
            for name in ("eta", "eta_tilde") if name not in nonfinite
            and not np.all(np.isfinite(2.0 * values[name])))
    if grid.nx < MIN_NODES:
        violations.append(Violation("BadGrid", f"nx={grid.nx} < {MIN_NODES}"))
    if grid.L <= 0:
        violations.append(Violation("BadGrid", f"L={grid.L} <= 0"))
    if params.T <= 0:
        violations.append(Violation("BadGrid", f"T={params.T} <= 0"))
    if not nonfinite and grid.nx >= MIN_NODES and grid.L > 0 and params.T > 0:
        # the grid and time scales the operators are built from, up to the
        # highest harmonic's diagonal terms (M omega)^2 and tau (M omega)^3,
        # its row scale (c2 + i M omega b)/h^2, its Robin entries and a bound
        # on its largest entry; and gamma^2, the energies' trace weight
        with np.errstate(all="ignore"):
            h = np.float64(grid.L) / (grid.nx - 1)
            omega = TWO_PI / np.float64(params.T)
            derived = {"h": h, "1/h^2": 1.0 / h**2, "omega": omega,
                       "M*omega": M * omega, "(M*omega)^2": (M * omega)**2}
            if params.tau > 0:
                derived["tau*(M*omega)^3"] = params.tau * (M * omega)**3
            # a b or c2 <= 0 has its own violation below
            if np.all(params.b > 0) and np.all(params.c2 > 0):
                derived["M*omega*max(b)/h^2"] = (M * omega * params.b.max()
                                                 / h**2)
                derived["max(c2)/h^2"] = params.c2.max() / h**2
                # |A_M| entries are at most the row scale times the largest
                # -Lap row sum (a Robin row adds 2 |q_M| / h), plus the
                # diagonal shift; 0 * inf is NaN, so tau = 0 adds nothing
                robin = max((2.0 * (M * omega * abs(bc.beta) + abs(bc.gamma))
                             / h for bc in (bc_left, bc_right)
                             if not bc.is_dirichlet), default=0.0)
                entry = ((params.c2.max() + M * omega * params.b.max())
                         * (4.0 / h**2 + robin) + (M * omega)**2)
                if params.tau > 0:
                    entry += params.tau * (M * omega)**3
                derived["|A_M| entry bound"] = entry
            for side, bc in (("left", bc_left), ("right", bc_right)):
                if not bc.is_dirichlet and bc.beta != 0:
                    derived[f"M*omega*{side} beta/h"] = M * omega * bc.beta / h
                if not bc.is_dirichlet and bc.gamma != 0:
                    derived[f"{side} gamma^2"] = np.float64(bc.gamma)**2
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
                          bc_left=bc_left, bc_right=bc_right, M=M)
