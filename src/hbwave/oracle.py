"""An independent time-stepping oracle for the periodic attractor.

The damped initial-value problem is marched by implicit midpoint steps
from rest until the state repeats over a period, and its last period is
sampled for comparison with a harmonic-balance solution.  The oracle
shares the model, the m = 0 spatial operator and the kinds' names with
harmonic balance, and nothing of its solve, norms or studies.  Its norms
retake sums of squares out of range by the model's one rule,
`model.rescaled`, shared numerics like `model.to_time_samples`.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NoPeriodicAttractor, StepRejected
from .model import (KINDS, ValidatedModel, check_oracle_steps, min_samples,
                    rescaled, to_time_samples)
from .spatial import (assemble_laplacian, band_product, gradient,
                      scale_rows, tridiagonal_solver)

ORACLE_STEPS = 512   # the oracle's default steps per period
DAMPED_STEPS = 2     # each level's first steps, taken as _Oracle.damped_step
WARMUP_PERIODS = 2   # periods of the coarse warm-up level
WARMUP_COARSENING = 4    # its steps per period: n_steps // 4


class _Oracle:
    """Implicit-midpoint integrator on the reduced (non-Dirichlet) nodes.

    The state has one row per derivative: (u, u_t, u_tt) when tau > 0,
    (u, u_t) when tau = 0.  With h = dt/2 and y' = F(t, y), a step's stage
    is the backward-Euler half-step mid = y + h F(t_mid, mid), and the new
    state is twice the midpoint minus the old one.  The stage's one unknown
    is z, the midpoint of the top derivative: v_mid = v + h z and
    u_mid = u + h v_mid when tau > 0, u_mid = u + h z when tau = 0.  Its
    linear part expands harmonic balance's operator polynomial
    A_m = sum_k (i m omega)^k B_k, B_k acting on d_t^k u up to the top
    order n (3, or 2 when tau = 0), into one tridiagonal system K z = rhs,
    factored once and solved in place: `solve_stage()` overwrites
    `stage_rhs`, the buffer it is bound to, with z.  The nonlinear terms
    are taken at the previous iterate's midpoint, and z is iterated on
    that map.  The linear kind's stage is linear: one solve.

    `damped_step` takes a step as two backward-Euler half-steps instead:
    the same stage, whose new state is the midpoint itself, first with the
    forcing at the step's midpoint and then with the forcing at its end.
    Midpoint's amplification factor tends to -1 for stiff modes; backward
    Euler's tends to 0, so a few such steps at the start of a march damp
    the stiff transient that zero data excite (Rannacher, Numer. Math. 43
    (1984) 309-327).

    A stage starts from 5 z_1 - 10 z_2 + 10 z_3 - 5 z_4 + z_5, the quartic
    through the last five steps' stage values (latest first), off by
    O(dt^5) on the uniform step; with three or four, from the quadratic
    3 z_1 - 3 z_2 + z_3; with fewer, from 2 w - z_1 (w the state's top
    derivative), or from w.  With s_k = gain |dz_k| the k-th update's move
    of the new state, an iterate is accepted once s_k <= STAGE_TOL
    (|y_new| + 1), or once theta / (1 - theta) s_k, its error estimate for a
    contraction 0 < theta < 1, is at most STAGE_SAFETY times that (Hairer &
    Wanner, Solving ODEs II, IV.8).  theta is the largest ratio
    s_k / s_(k-1) the oracle has met, on earlier steps and this one's: a
    step's own first ratio can fall well below the map's contraction.  So
    the first update, which has no ratio of its own, is tested against the
    theta of earlier steps, and from the quartic start it mostly passes.

    The forcing is T-periodic and dt = T / n_steps, so the forcing at the
    midpoint of each step of a period is tabulated once, and so are the
    coefficients of the z-free linear terms, which one `einsum` takes
    over windows of the padded state (`z_free_terms`).  Each level of a
    march is its own _Oracle, with its own m = 0 operator `op`.
    """

    MAX_STAGE_ITER = 50
    STAGE_TOL = 1e-13
    STAGE_SAFETY = 0.1      # share of STAGE_TOL left to theta's estimate

    def __init__(self, f: np.ndarray, model: ValidatedModel, kind: str,
                 n_steps: int):
        grid, p = model.grid, model.params
        if kind not in ("linear", *KINDS):
            raise ValueError(f"unknown kind {kind!r}")
        self.tau = tau = p.tau
        self.dt = dt = p.T / n_steps
        h = 0.5 * dt
        self.op = op = assemble_laplacian(grid, model.bc_left, model.bc_right,
                                          0, p.omega)
        self.nr = nr = op.bands.shape[-1]
        b, c2 = op.restrict(p.b), op.restrict(p.c2)
        # the kind's nonlinear terms (alpha - 1, r_nl) at (u, u_t), chosen
        # once; None for the linear kind, which has none
        self._nonlinear = None
        if kind == "westervelt":            # (eta u^2)_tt
            two_eta = 2.0 * op.restrict(p.eta)
            self._nonlinear = lambda u, v: (two_eta * u, two_eta * v * v)
        elif kind == "kuznetsov":           # (eta~ u_t^2 + |u_x|^2)_t
            two_eta_tilde = 2.0 * op.restrict(p.eta_tilde)

            def kuznetsov(u, v):
                full = np.zeros((2, grid.nx))   # Dirichlet nodes 0
                full[:, op.span] = u, v
                gu, gv = op.restrict(gradient(full, grid))
                return two_eta_tilde * v, 2.0 * gu * gv
            self._nonlinear = kuznetsov

        self._mw = np.arange(1, len(f)) * p.omega
        fm = 2.0 * op.restrict(f[1:])
        self._fm = np.vstack([fm.real, fm.imag])
        self._f0 = op.restrict(f[0].real)
        self.forcing = self.forcing_at((np.arange(n_steps) + 0.5) * dt)

        # harmonic balance's A_m is sum_k (i m omega)^k B_k, with B_0 =
        # c2 (-Lap_0), B_1 = b (-Lap_0) + c2 D, B_2 = 1 + b D and B_3 = tau,
        # D = op.d_beta; here B_k acts on d_t^k u.  coeffs[k] = (s, e, a)
        # with B_k = s (-Lap_0) + e D + a: a sum of B_k scales -Lap_0 once,
        # by the summed s, rather than rounding each B_k's bands
        coeffs = ((c2, 0.0, 0.0), (b, c2, 0.0), (0.0, b, 1.0), (0.0, 0.0, tau))
        n = 3 if tau > 0 else 2     # the top order, and the state's rows
        top = coeffs[n][2] + coeffs[n][1] * op.d_beta   # B_n, a diagonal

        def bands(w, diag=0.0):
            """sum_k w_k B_k over k < n, plus the diagonal diag."""
            s, e, a = (sum(wk * c[i] for wk, c in zip(w, coeffs))
                       for i in range(3))
            out = scale_rows(op.bands.real.copy(), s)
            out[1] += (diag + a) + e * op.d_beta
            return out
        # the midpoint is affine in z, mid = P y + g z: P_kj = h^(j - k) for
        # k <= j < n - 1 and g_k = h^(n - 1 - k), which depend only on the
        # distance to the top row, so n = 2 takes n = 3's last two rows
        P = np.array([[1.0, h, 0.0], [0.0, 1.0, 0.0], [0.0] * 3])
        self.P, self.g = P[3 - n:, 3 - n:], np.array([h * h, h, 1.0])[3 - n:]
        # the top equation, B_n (z - y_(n-1)) / h + sum_k B_k mid_k + rest
        # = -forcing, is K z = (the z-free linear terms) - rest - forcing,
        # with K = sum_k g_k B_k + B_n / h and the z-free terms the sum over
        # state rows j of lin_j y_j, lin_j = -sum_k P_kj B_k (+ B_n / h)
        K = bands(self.g, top / h)
        lin = np.stack([-bands(self.P[:, j]) for j in range(n)], axis=1)
        lin[1, -1] += top / h
        # _rest's tau = 0 elimination of u_tt reads B_0, B_1 and B_n = B_2
        self.B = [bands(np.eye(n)[k]) for k in (0, 1)] + [top]
        # the z-free terms at node i are the dot product of the state's
        # columns i - 1, i, i + 1, a window of the transposed state padded
        # with a zero column at each end, with those columns' coefficients
        self._padded = np.zeros((nr + 2, n))
        self._windows = as_strided(self._padded, (nr, 3 * n),
                                   (n * self._padded.itemsize,
                                    self._padded.itemsize), writeable=False)
        coef = np.zeros((nr, 3, n))
        coef[1:, 0] = lin[2, :, :-1].T
        coef[:, 1] = lin[1].T
        coef[:-1, 2] = lin[0, :, 1:].T
        self._coef = coef.reshape(nr, -1)
        # y_new = 2 mid - y, so |y_new - y_new'| = dz_gain |z - z'|; a
        # half-step's new state is mid, which moves half as far
        self.dz_gain = 2.0 * math.sqrt(self.g @ self.g)
        # the stage solve works in place: K z = stage_rhs, z in stage_rhs
        self.stage_rhs = np.zeros(nr)
        self.solve_stage = tridiagonal_solver(K, self.stage_rhs)
        self.stage_solves = 0   # over the oracle's life
        self.theta = 0.0

    def forcing_at(self, t) -> np.ndarray:
        """The real forcing f_0 + 2 Re(e^{i m w t} f_m) at each time in t,
        one row each."""
        mwt = np.outer(t, self._mw)
        out = np.hstack([np.cos(mwt), -np.sin(mwt)]) @ self._fm
        # f_0 added in place: the step table is the one array of its size
        out += self._f0
        return out

    def _rest(self, mid: np.ndarray, forcing: np.ndarray) -> np.ndarray:
        """(alpha - 1) u_tt + r_nl at the stage midpoint: the nonlinear
        terms K leaves out, for the nonlinear kinds."""
        u, v = mid[0], mid[1]
        da, r_nl = self._nonlinear(u, v)
        B = self.B
        utt = mid[2] if self.tau > 0 else (
            -(band_product(B[0], u) + band_product(B[1], v) + r_nl + forcing)
            / (B[2] + da))
        return da * utt + r_nl

    def step(self, y: np.ndarray, j: int, zs: tuple = ()):
        """One step from state y over step j of a period, whose midpoint is
        at (j + 1/2) dt modulo T; zs holds the previous steps' stage values,
        latest first, of which the first five are used.  Returns the new
        state and this step's stage value."""
        return self._stage(y, j, self.forcing[j], zs, True)

    def damped_step(self, y: np.ndarray, j: int, zs: tuple = ()):
        """Step j of a period from state y as two backward-Euler half-steps
        of dt/2, whose F takes the forcing at (j + 1/2) dt and at (j + 1) dt.
        Returns the new state and the second half-step's stage value, its
        top derivative."""
        y_half, z = self._stage(y, j, self.forcing[j], zs, False)
        return self._stage(y_half, j, self.forcing_at([(j + 1) * self.dt])[0],
                           (z, *zs[:4]), False)

    def z_free_terms(self, y: np.ndarray) -> np.ndarray:
        """The sum over state rows k of lin_k y_k, the stage's linear terms
        that do not hold z, as a fresh array."""
        self._padded[1:-1] = y.T
        return np.einsum("ij,ij->i", self._windows, self._coef)

    def _stage(self, y, j, forcing, zs, midpoint):
        """Solve the stage mid = y + h F(mid), F taking the given forcing
        row, from zs's start.  Returns the new state, 2 mid - y for a
        midpoint step and mid for a half-step, and the stage value."""
        # K z = rhs - rest, rhs = the z-free linear terms - forcing
        rhs = self.z_free_terms(y)
        rhs -= forcing
        m0, g = self.P @ y, self.g[:, None]
        buf = self.stage_rhs
        if self._nonlinear is None:     # a linear stage: one solve
            buf[:] = rhs
            self.solve_stage()
            self.stage_solves += 1
            z = buf.copy()
            mid = m0 + g * z
            return (2.0 * mid - y if midpoint else mid), z
        if len(zs) >= 5:
            z = 5.0 * (zs[0] - zs[3]) + 10.0 * (zs[2] - zs[1]) + zs[4]
        elif len(zs) >= 3:
            z = 3.0 * (zs[0] - zs[1]) + zs[2]
        else:
            z = 2.0 * y[-1] - zs[0] if zs else y[-1]
        mid = m0 + g * z
        gain = self.dz_gain if midpoint else 0.5 * self.dz_gain
        s_prev = 0.0        # the step's own first ratio comes at update 2
        for _ in range(self.MAX_STAGE_ITER):
            np.subtract(rhs, self._rest(mid, forcing), out=buf)
            self.solve_stage()
            self.stage_solves += 1
            dz = buf - z
            z = buf.copy()
            mid = m0 + g * z
            y_new = 2.0 * mid - y if midpoint else mid
            s, n = math.sqrt(dz.dot(dz)), math.sqrt(np.vdot(y_new, y_new))
            if not s + n < math.inf:    # a square overflowed
                (s, n), c = rescaled(_squares, dz, y_new)
                s, n = c * math.sqrt(s), c * math.sqrt(n)
            s *= gain
            tol = self.STAGE_TOL * (n + 1.0)
            if s <= tol:
                return y_new, z
            if s_prev > 0.0:
                self.theta = max(self.theta, s / s_prev)
            theta = self.theta
            if 0.0 < theta < 1.0 and (theta * s <= (1.0 - theta)
                                      * self.STAGE_SAFETY * tol):
                return y_new, z
            s_prev = s
        raise StepRejected(f"implicit stage did not converge in step {j} "
                           "of the period")


def _squares(*arrays) -> tuple:
    """The sum of squares of each real array's entries."""
    return tuple(np.vdot(x, x) for x in arrays)


def time_stepping_oracle(f: np.ndarray, model: ValidatedModel, kind: str,
                         n_steps: int = ORACLE_STEPS, max_periods: int = 200,
                         period_tol: float = 1e-8):
    """Integrate the damped initial-value problem from zero data, at
    n_steps steps of T / n_steps a period, until the state repeats over a
    period, and sample its last period.

    A warm-up level comes first: WARMUP_PERIODS periods from rest at
    n_steps // WARMUP_COARSENING steps a period, when that many steps still
    resolve harmonic M = len(f) - 1 (at least 2M + 2).  The two levels'
    periodic orbits differ by O(dt^2), while the transient from rest
    shrinks by the same factor a period at either step, so the march at
    n_steps starts from the warm-up's final state, near its own orbit, and
    needs fewer of its costlier periods.  Each level is its own `_Oracle`,
    and is marched by `_march`: its first
    DAMPED_STEPS steps are damped, every later one is an implicit-midpoint
    step, so the attractor is the midpoint scheme's at n_steps.

    Returns the (n_steps, nx) samples of u at the start of each step of the
    last period marched, that period's gap |y_end - y_start| / |y_end|,
    and the counts: periods at n_steps, the steps and stage solves of the
    whole run, the warm-up's included, a damped step counting as one step,
    and stage_contraction, the n_steps level's final theta (0 for the
    linear kind, whose stage takes one solve).  period_tol, max_periods
    and NoPeriodicAttractor's gaps are the n_steps level's.  Too few steps
    to resolve harmonic M raise UndersampledTime, and an unknown kind or
    max_periods < 1 ValueError, before the first step."""
    M = len(f) - 1
    check_oracle_steps(n_steps, M, model.grid.nx)
    if max_periods < 1:
        raise ValueError(f"max_periods must be at least 1, got {max_periods}")
    oracle = _Oracle(f, model, kind, n_steps)
    y = np.zeros((len(oracle.g), oracle.nr))
    values = np.zeros((n_steps, model.grid.nx))
    u = values[:, oracle.op.span]       # a view: Dirichlet nodes stay 0
    steps = solves = 0
    n_warmup = n_steps // WARMUP_COARSENING
    if n_warmup >= min_samples(M):
        warmup = _Oracle(f, model, kind, n_warmup)
        # it samples into rows the march at n_steps overwrites; a gap
        # below 0 is never met, so it marches all its periods
        y, _ = _march(warmup, y, u[:n_warmup], WARMUP_PERIODS, 0.0)
        steps, solves = WARMUP_PERIODS * n_warmup, warmup.stage_solves
    y, gaps = _march(oracle, y, u, max_periods, period_tol)
    if not gaps[-1] < period_tol:
        raise NoPeriodicAttractor(
            f"periodicity gap {gaps[-1]:.3e} > {period_tol} after "
            f"{max_periods} periods", gaps=gaps)
    counts = {"periods": len(gaps), "steps": steps + len(gaps) * n_steps,
              "stage_solves": solves + oracle.stage_solves,
              "stage_contraction": oracle.theta}
    return values, gaps[-1], counts


def _march(oracle: _Oracle, y: np.ndarray, u: np.ndarray, max_periods: int,
           period_tol: float):
    """March `oracle` from state y, its first DAMPED_STEPS steps damped,
    for up to max_periods periods, stopping after the first whose gap
    |y_end - y_start| / |y_end| is below period_tol.  Writes u at the start
    of step j of each period into u[j].  Returns the final state and the
    gaps of the periods marched."""
    n_steps = len(u)
    zs = ()
    gaps = []
    for k in range(max_periods):
        y_start = y         # steps return new arrays: y is never written
        for j in range(n_steps):
            u[j] = y[0]
            step = (oracle.damped_step if k == 0 and j < DAMPED_STEPS
                    else oracle.step)
            y, z = step(y, j, zs)
            zs = (z, *zs[:4])
        # the scale of a retake cancels in the ratio
        (norm, moved), _ = rescaled(_squares, y, y - y_start)
        gaps.append(math.sqrt(moved) / math.sqrt(norm) if norm > 0 else 0.0)
        if gaps[-1] < period_tol:
            break
    return y, gaps


def oracle_discrepancy(u_hb: np.ndarray, samples: np.ndarray,
                       model: ValidatedModel) -> float:
    """Relative L2(L2) distance between a harmonic-balance solution and the
    (nt, nx) samples of an oracle trajectory on its own time grid, absolute
    where the solution is 0.  Sums of squares out of range are taken again
    by `model.rescaled`, and an absolute distance multiplied by its c."""
    nt = len(samples)
    w = model.grid.trapezoid_weights()

    def sums(u_hb, samples):
        # the reference's sum of squares over the samples by Parseval
        # (exact, as nt > 2M), so the difference is squared and weighted
        # in place with no temporary of the trajectories' size: each adds
        # to peak memory
        power = u_hb[0].real**2 + 2.0 * np.sum(np.abs(u_hb[1:])**2, axis=0)
        sq = to_time_samples(u_hb, nt)
        sq -= samples
        sq *= sq
        sq *= w
        return float(nt * (w @ power)), float(np.sum(sq))

    (ref, diff), c = rescaled(sums, u_hb, samples)
    if ref == 0.0:
        return c * math.sqrt(diff)
    return math.sqrt(diff / ref)
