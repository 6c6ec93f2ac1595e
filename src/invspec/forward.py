"""Forward solver: eigenvalues, eigenfunctions and norming constants of
-y'' + q y = mu y with y(0) = 0 and y(pi)cos(beta) + y'(pi)sin(beta) = 0.

The solution phi(x, mu) with phi(0) = 0, phi'(0) = 1 is integrated by an
adaptive embedded Runge-Kutta pair; eigenvalues are zeros of
Omega(mu) = phi(pi)cos(beta) + phi'(pi)sin(beta), bracketed by asymptotic
windows and refined by bisection + secant polish.  All mu-batched helpers
integrate one vector system so the expensive part is shared.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicSpline

from .asymptotics import DeltaSequence, delta_sequence, fit_c
from .core import (
    PI,
    BoundaryAngle,
    Grid,
    GridFunction,
    Potential,
    RuleKind,
    SpectralData,
    as_angle,
    interpolant,
    make_grid,
    _frozen,
)
from .errors import ConfigError, NumericsError

BRACKET_TOL = 1e-11   # ODE tolerance while bracketing / bisecting
POLISH_TOL = 1e-13    # ODE tolerance for the final polish and traces
TRACE_NODES = 2049
WINDOW_HALF_WIDTH = 0.45
MAX_ABS_Q = 1e6


def _uniform_grid(n: int) -> Grid:
    return make_grid(n, RuleKind.TRAPEZOID)


@dataclass(frozen=True)
class SolutionTrace:
    """phi and phi' sampled along a fine uniform grid for one mu."""

    grid: Grid
    phi: np.ndarray
    dphi: np.ndarray
    mu: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _frozen(self.phi))
        object.__setattr__(self, "dphi", _frozen(self.dphi))

    def interior_zero_count(self) -> int:
        """Sign changes of phi strictly inside (0, pi)."""
        v = self.phi[1:-1]
        return int(np.sum(v[:-1] * v[1:] < 0.0))


@dataclass(frozen=True)
class EigenRecord:
    """One eigenpair summary: mu_n and its norming constant."""

    mu: float
    a: float


@dataclass(frozen=True)
class ForwardSolution:
    """Bundle of everything the forward solve produces."""

    beta: BoundaryAngle
    q: Potential
    records: list
    traces: list
    quad: Grid              # Gauss grid used for inner products
    phi_quad: np.ndarray    # records x quad-nodes matrix of phi values
    delta: DeltaSequence

    def spectral_data(self) -> SpectralData:
        mus = np.array([r.mu for r in self.records])
        a = np.array([r.a for r in self.records])
        c = None
        if len(self.records) >= 12:
            c, _ = fit_c(SpectralData(self.beta.beta, mus, a), self.delta)
        return SpectralData(self.beta.beta, mus, a, c_fit=c)

    def gram(self, k: int | None = None) -> np.ndarray:
        """Inner-product matrix of the first k eigenfunctions on the Gauss grid."""
        k = len(self.records) if k is None else k
        ph = self.phi_quad[:k]
        return (ph * self.quad.weights) @ ph.T


def _check_potential(q: Potential) -> None:
    if np.max(np.abs(q.values)) > MAX_ABS_Q:
        raise ConfigError("potential samples exceed 1e6; out of numerical reach")


def _ode_batch(qf, mus: np.ndarray, *, x_eval: np.ndarray | None = None,
               want_norm: bool = False, tol: float = BRACKET_TOL):
    """Integrate (phi, phi', [integral of phi^2]) for a batch of mu values.

    Returns (phi_end, dphi_end, norms, phi_path, dphi_path); path entries are
    None unless x_eval was given.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    m = mus.size
    mu_max = max(float(mus.max()), 1.0)
    max_step = 0.1 / np.sqrt(mu_max)
    n_state = 3 * m if want_norm else 2 * m
    y0 = np.zeros(n_state)
    y0[m:2 * m] = 1.0

    def rhs(x, y):
        phi = y[:m]
        out = np.empty_like(y)
        out[:m] = y[m:2 * m]
        out[m:2 * m] = (qf(x) - mus) * phi
        if want_norm:
            out[2 * m:] = phi * phi
        return out

    sol = solve_ivp(rhs, (0.0, PI), y0, method="DOP853", rtol=tol, atol=tol,
                    max_step=max_step, t_eval=x_eval, dense_output=False)
    if not sol.success:
        raise NumericsError(f"ODE integration failed for mu in [{mus.min():.6g}, {mus.max():.6g}] "
                            f"at tolerance {tol:.0e}: {sol.message}")
    yT = sol.y[:, -1]
    phi_end, dphi_end = yT[:m], yT[m:2 * m]
    norms = yT[2 * m:] if want_norm else None
    phi_path = sol.y[:m, :] if x_eval is not None else None
    dphi_path = sol.y[m:2 * m, :] if x_eval is not None else None
    return phi_end, dphi_end, norms, phi_path, dphi_path


def shoot(q: Potential, mu: float, *, n_nodes: int = TRACE_NODES,
          tol: float = POLISH_TOL) -> SolutionTrace:
    """Integrate the initial-value problem for one mu and record the trace."""
    _check_potential(q)
    grid = _uniform_grid(n_nodes)
    qf = interpolant(q)
    _, _, _, phi, dphi = _ode_batch(qf, np.array([mu]), x_eval=grid.nodes, tol=tol)
    return SolutionTrace(grid, phi[0], dphi[0], float(mu))


def characteristic(q: Potential, beta: BoundaryAngle | float, mu) -> np.ndarray:
    """Omega(mu) = phi(pi)cos(beta) + phi'(pi)sin(beta); zeros are eigenvalues."""
    beta = as_angle(beta)
    _check_potential(q)
    qf = interpolant(q)
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    phi_end, dphi_end, _, _, _ = _ode_batch(qf, mus, tol=POLISH_TOL)
    out = phi_end * np.cos(beta.beta) + dphi_end * np.sin(beta.beta)
    return out if np.ndim(mu) else float(out[0])


def _omega_batch(qf, beta: BoundaryAngle, mus: np.ndarray, tol: float) -> np.ndarray:
    phi_end, dphi_end, _, _, _ = _ode_batch(qf, mus, tol=tol)
    return phi_end * np.cos(beta.beta) + dphi_end * np.sin(beta.beta)


def eigenvalues(q: Potential, beta: BoundaryAngle | float, N: int,
                *, delta: DeltaSequence | None = None,
                check_oscillation: bool = True) -> np.ndarray:
    """First N eigenvalues, strictly increasing.

    Indices n >= 2 are bracketed inside half-width-0.45 windows around the
    asymptotic centers (n + delta_n + mean(q)/(2(n+delta_n)))^2; the two low
    modes come from a scan below the first window that extends downward until
    both are found.  Roots are refined by bisection to width 1e-6 and a
    secant polish on tighter ODE tolerances.
    """
    beta = as_angle(beta)
    _check_potential(q)
    if N < 1:
        raise ConfigError("N must be at least 1")
    if delta is None or delta.n_max < max(N, 3):
        delta = delta_sequence(beta, max(N, 3))
    qf = interpolant(q)
    qm = q.mean

    centers = []
    for n in range(2, max(N, 3)):
        om = float(delta.omega(n))
        centers.append(om + qm / (2.0 * om))
    first_edge = centers[0] - WINDOW_HALF_WIDTH

    lo_list, hi_list = [], []
    if N >= 1:
        s0, s1 = _scan_low_modes(qf, beta, q, first_edge)
        lo_list.append(s0[0]); hi_list.append(s0[1])
        if N >= 2:
            lo_list.append(s1[0]); hi_list.append(s1[1])
    for n in range(2, N):
        c = centers[n - 2]
        a, b = c - WINDOW_HALF_WIDTH, c + WINDOW_HALF_WIDTH
        lo_list.append(a * abs(a)); hi_list.append(b * abs(b))
    lo = np.array(lo_list[:N])
    hi = np.array(hi_list[:N])

    f_lo = _omega_batch(qf, beta, lo, BRACKET_TOL)
    f_hi = _omega_batch(qf, beta, hi, BRACKET_TOL)
    bad = np.sign(f_lo) * np.sign(f_hi) >= 0
    if bad.any():
        # widen the asymptotic windows once before giving up
        for i in np.flatnonzero(bad):
            if i < 2:
                raise NumericsError(f"eigenvalue {i}: lost bracket from low-mode scan")
            c = centers[i - 2]
            a, b = c - 0.49, c + 0.49
            lo[i], hi[i] = a * abs(a), b * abs(b)
        f_lo = _omega_batch(qf, beta, lo, BRACKET_TOL)
        f_hi = _omega_batch(qf, beta, hi, BRACKET_TOL)
        still = np.flatnonzero(np.sign(f_lo) * np.sign(f_hi) >= 0)
        if still.size:
            raise NumericsError(f"eigenvalue {int(still[0])}: no sign change in search window")

    # bisection to bracket width 1e-6
    width = float(np.max(hi - lo))
    n_iter = int(np.ceil(np.log2(max(width, 1e-6) / 1e-6))) + 1
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        f_mid = _omega_batch(qf, beta, mid, BRACKET_TOL)
        take_hi = np.sign(f_mid) * np.sign(f_lo) > 0
        lo = np.where(take_hi, mid, lo)
        f_lo = np.where(take_hi, f_mid, f_lo)
        hi = np.where(take_hi, hi, mid)
        f_hi = np.where(take_hi, f_hi, f_mid)

    # secant polish on tight tolerances
    a, b = lo.copy(), hi.copy()
    fa = _omega_batch(qf, beta, a, POLISH_TOL)
    fb = _omega_batch(qf, beta, b, POLISH_TOL)
    x = np.where(np.abs(fa) < np.abs(fb), a, b)
    fx = np.where(np.abs(fa) < np.abs(fb), fa, fb)
    x_prev, f_prev = np.where(np.abs(fa) < np.abs(fb), b, a), np.where(np.abs(fa) < np.abs(fb), fb, fa)
    for _ in range(8):
        denom = fx - f_prev
        step = np.where(np.abs(denom) > 0, fx * (x - x_prev) / np.where(denom == 0, 1.0, denom), 0.0)
        x_new = x - step
        x_new = np.clip(x_new, np.minimum(a, b), np.maximum(a, b))
        f_new = _omega_batch(qf, beta, x_new, POLISH_TOL)
        slope = np.abs(denom) / np.maximum(np.abs(x - x_prev), 1e-300)
        done = np.abs(f_new) <= 1e-12 * np.maximum(1.0, slope)
        x_prev, f_prev = x, fx
        x, fx = x_new, f_new
        if done.all():
            break

    mus = np.sort(x)
    if np.any(np.diff(mus) <= 0):
        i = int(np.flatnonzero(np.diff(mus) <= 0)[0])
        raise NumericsError(f"refined eigenvalues are not strictly increasing: "
                            f"mu[{i}]={mus[i]:.12g}, mu[{i + 1}]={mus[i + 1]:.12g}")
    if check_oscillation:
        _check_oscillation_counts(q, mus)
    return mus


def _scan_low_modes(qf, beta: BoundaryAngle, q: Potential, first_edge: float):
    """Brackets for the two eigenvalues below the first asymptotic window."""
    mu_low = min(0.0, float(q.values.min())) * 1.1 - 1.0
    for _ in range(8):
        s_lo = -np.sqrt(abs(mu_low))
        # resolution fine enough that adjacent roots (lambda spacing ~1)
        # cannot share a scan cell even after the range expands
        n_scan = max(80, int((first_edge - s_lo) / 0.05) + 1)
        ss = np.linspace(s_lo, first_edge, n_scan)
        mus = ss * np.abs(ss)
        vals = _omega_batch(qf, beta, mus, BRACKET_TOL)
        idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        if idx.size >= 2:
            i0, i1 = idx[0], idx[1]
            return (mus[i0], mus[i0 + 1]), (mus[i1], mus[i1 + 1])
        mu_low = mu_low * 2.0 - 1.0
    raise NumericsError(f"eigenvalue 0/1: scan of mu in [{mus[0]:.6g}, {mus[-1]:.6g}] "
                        "below the first window found fewer than two roots")


def _check_oscillation_counts(q: Potential, mus: np.ndarray) -> None:
    """Sturm oscillation guard: phi(., mu_n) must have exactly n interior zeros."""
    n_nodes = max(513, 8 * mus.size + 1)
    grid = _uniform_grid(n_nodes)
    qf = interpolant(q)
    _, _, _, phi, _ = _ode_batch(qf, mus, x_eval=grid.nodes, tol=BRACKET_TOL)
    for n in range(mus.size):
        v = phi[n, 1:-1]
        count = int(np.sum(v[:-1] * v[1:] < 0.0))
        if count != n:
            raise NumericsError(
                f"eigenvalue {n}: oscillation count {count} != {n}; a root was missed or duplicated"
            )


def norming_constants(q: Potential, beta: BoundaryAngle | float, mus: np.ndarray,
                      *, trace_nodes: int = TRACE_NODES,
                      quad: Grid | None = None
                      ) -> tuple[list, list, Grid, np.ndarray]:
    """Norming constants and endpoint data for given eigenvalues.

    a_n is accumulated as an extra ODE state (integral of phi^2), which keeps
    its accuracy at the integrator tolerance instead of a grid rule's.
    Returns (records, traces, quad_grid, phi_at_quad).
    """
    beta = as_angle(beta)
    _check_potential(q)
    mus = np.asarray(mus, dtype=float)
    quad = quad or make_grid(256, RuleKind.GAUSS)
    trace_grid = _uniform_grid(trace_nodes)
    x_eval = np.unique(np.concatenate([trace_grid.nodes, quad.nodes, [0.0, PI]]))
    qf = interpolant(q)
    _, _, norms, phi_path, dphi_path = _ode_batch(qf, mus, x_eval=x_eval,
                                                  want_norm=True, tol=1e-12)
    trace_idx = np.searchsorted(x_eval, trace_grid.nodes)
    quad_idx = np.searchsorted(x_eval, quad.nodes)
    records, traces = [], []
    phi_quad = phi_path[:, quad_idx]
    for n, mu in enumerate(mus):
        phi_pi = float(phi_path[n, -1])
        dphi_pi = float(dphi_path[n, -1])
        if abs(phi_pi) < 1e-12 * max(1.0, abs(dphi_pi)):
            raise NumericsError(
                f"eigenvalue {n}: phi(pi) vanishes with sin(beta) != 0; mu={mu} is not a true root"
            )
        records.append(EigenRecord(mu=float(mu), a=float(norms[n])))
        traces.append(SolutionTrace(trace_grid, phi_path[n, trace_idx],
                                    dphi_path[n, trace_idx], float(mu)))
    return records, traces, quad, phi_quad


def forward_solve(q: Potential, beta: BoundaryAngle | float, N: int) -> ForwardSolution:
    """Eigenvalues + norming constants + traces in one call."""
    beta = as_angle(beta)
    delta = delta_sequence(beta, max(N, 3))
    mus = eigenvalues(q, beta, N, delta=delta)
    records, traces, quad, phi_quad = norming_constants(q, beta, mus)
    return ForwardSolution(beta, q, records, traces, quad, phi_quad, delta)


def expand(f: GridFunction, records: list, traces: list, N: int) -> GridFunction:
    """Partial eigenfunction expansion of f sampled back on f's grid.

    Coefficients are (1/a_n) * integral of f * phi_n, evaluated by Simpson's
    rule on the shared uniform trace grid.
    """
    if N > len(records):
        raise ConfigError("N exceeds the available records")
    tgrid = traces[0].grid
    fx = interpolant(f)(tgrid.nodes)
    out = np.zeros(f.grid.n)
    for rec, tr in zip(records[:N], traces[:N]):
        c_n = float(simpson(fx * tr.phi, x=tr.grid.nodes)) / rec.a
        phi_on_f = CubicSpline(tr.grid.nodes, tr.phi)(f.grid.nodes)
        out += c_n * phi_on_f
    return GridFunction(f.grid, out)

