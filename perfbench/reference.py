"""Independent reference for the grid-fine output check.

It solves the same discrete problem as `hbwave solve` for Westervelt with
Dirichlet endpoints (second-order finite differences, one-sided harmonic
coefficients, dealiased products) but shares no code with the package: the
per-harmonic systems are tridiagonal and are solved banded, and the energy
terms are evaluated with vectorised Parseval sums.  Agreement is checked
with a tolerance, so a later change may alter rounding.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

PICARD_RTOL = 1e-15
PICARD_MAX_ITER = 60


def _dealiased(M: int) -> int:
    n = 1
    while n < 4 * M + 2:
        n *= 2
    return n


def _westervelt_term(u: np.ndarray, omega: float) -> np.ndarray:
    """Order-M harmonics of (u^2)_tt with eta = 1."""
    M1, nx = u.shape
    nt = _dealiased(M1 - 1)
    spectrum = np.zeros((nt // 2 + 1, nx), dtype=complex)
    spectrum[:M1] = u * nt
    samples = np.fft.irfft(spectrum, n=nt, axis=0)
    prod = np.fft.rfft(samples * samples, axis=0)[:M1] / nt
    prod[0] = prod[0].real
    m = np.arange(M1)
    return prod * (-(m * omega) ** 2)[:, None]


def westervelt_dirichlet(b, c2, amplitude, nx, M, tau, T) -> np.ndarray:
    """Harmonic coefficients (M+1, nx) of the periodic Westervelt solution
    (eta = 1, sine forcing of harmonic 1) with u = 0 at both ends."""
    omega = 2.0 * np.pi / T
    h = 1.0 / (nx - 1)
    x = np.linspace(0.0, 1.0, nx)
    f = np.zeros((M + 1, nx), dtype=complex)
    f[1] = 0.5 * amplitude * np.sin(np.pi * x)
    bands = []
    for m in range(M + 1):
        mw = m * omega
        coef = (c2 + 1j * mw * b)[1:-1] / h**2
        ab = np.zeros((3, nx - 2), dtype=complex)
        ab[0, 1:] = -coef[:-1]
        ab[1] = 2.0 * coef - 1j * tau * mw**3 - mw**2
        ab[2, :-1] = -coef[1:]
        bands.append(ab)

    def image(u):
        rhs = -(f + _westervelt_term(u, omega))
        out = np.zeros_like(u)
        for m, ab in enumerate(bands):
            out[m, 1:-1] = scipy.linalg.solve_banded((1, 1), ab, rhs[m, 1:-1])
        out[0] = out[0].real
        return out

    u = np.zeros((M + 1, nx), dtype=complex)
    for _ in range(PICARD_MAX_ITER):
        u_new = image(u)
        done = np.max(np.abs(u_new - u)) <= PICARD_RTOL * np.max(np.abs(u_new))
        u = u_new
        if done:
            return u
    raise RuntimeError("reference Picard iteration did not converge")


def _gradient(v, h):
    g = np.empty_like(v)
    g[..., 1:-1] = (v[..., 2:] - v[..., :-2]) / (2 * h)
    g[..., 0] = (-3 * v[..., 0] + 4 * v[..., 1] - v[..., 2]) / (2 * h)
    g[..., -1] = (3 * v[..., -1] - 4 * v[..., -2] + v[..., -3]) / (2 * h)
    return g


def _second(v, h):
    g = np.empty_like(v)
    g[..., 1:-1] = (v[..., 2:] - 2 * v[..., 1:-1] + v[..., :-2]) / h**2
    g[..., 0] = (2 * v[..., 0] - 5 * v[..., 1] + 4 * v[..., 2]
                 - v[..., 3]) / h**2
    g[..., -1] = (2 * v[..., -1] - 5 * v[..., -2] + 4 * v[..., -3]
                  - v[..., -4]) / h**2
    return g


def energies_dirichlet(u: np.ndarray, tau, taubar, T) -> dict:
    """The energy.csv terms, keyed by (term_name, level), of a field with
    Dirichlet endpoints (every endpoint-trace term is zero)."""
    M1, nx = u.shape
    h = 1.0 / (nx - 1)
    omega = 2.0 * np.pi / T
    wq = np.full(nx, h)
    wq[0] = wq[-1] = 0.5 * h
    wt = np.full(M1, 2.0)
    wt[0] = 1.0
    mw = np.arange(M1) * omega

    def sq(v):                       # squared trapezoidal L2 norm per m
        return np.sum(wq * np.abs(v) ** 2, axis=-1)

    spatial = {None: sq(u), "H1": sq(_gradient(u, h)),
               "lap": sq(_second(u, h)),
               "gradlap": sq(_gradient(_second(u, h), h))}

    def vol(k, kind=None):
        return T * float(np.sum(wt * mw ** (2 * k) * spatial[kind]))

    # H1-dual norm: <v, z> with (I - Lap_h) z = v on the interior nodes
    n = nx - 2
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -1.0 / h**2
    ab[1] = 1.0 + 2.0 / h**2
    vi = u[:, 1:-1]
    z = scipy.linalg.solve_banded((1, 1), ab, vi.T).T
    dual = np.maximum(np.sum(wq[1:-1] * np.conj(vi) * z, axis=-1).real, 0.0)
    uttt_dual = taubar * tau**2 * T * float(np.sum(wt * mw**6 * dual))

    lo = {"uttt_dual": uttt_dual, "utt_l2": taubar * vol(2),
          "u_h1h1": vol(0) + vol(1) + vol(0, "H1") + vol(1, "H1"),
          "utt_trace_absorbing": 0.0, "u_h1_trace_gamma": 0.0}
    me = {"uttt_l2": taubar * tau**2 * vol(3),
          "utt_h1": taubar * (vol(2) + vol(2, "H1")),
          "lap_u_h1l2": vol(0, "lap") + vol(1, "lap"),
          "uttt_trace_absorbing": 0.0, "u_h2_trace_gamma": 0.0}
    hi = {"uttt_dual": uttt_dual, "lap_utt_l2": taubar * vol(2, "lap"),
          "grad_lap_u_h1l2": vol(0, "gradlap") + vol(1, "gradlap"),
          "lap_utt_trace_absorbing": 0.0, "lap_u_h1_trace_gamma": 0.0}
    out = {}
    for level, terms in (("lo", lo), ("me", me), ("hi", hi)):
        for name, value in terms.items():
            out[(name, level)] = value
        out[("total", level)] = sum(terms.values())
    return out
