"""Forward solver: eigenvalues, eigenfunctions and norming constants of
-y'' + q y = mu y with y(0) = 0 and y(pi)cos(beta) + y'(pi)sin(beta) = 0.

phi(x, mu), with phi(0) = 0 and phi'(0) = 1, crosses each cell by one
fourth-order Magnus step on the potential's interpolant; there are four cells
per sample interval, with edges on the samples.  On a cell of width h, with
q1, q2 the interpolant at its Gauss points and qbar their mean, the step is
exp(Omega), Omega = [[d, h], [h (qbar - mu), -d]], d = (sqrt(3)/12) h^2 (q1 - q2).
As Omega^2 = s2 I, s2 = d^2 + h^2 (qbar - mu), exp(Omega) = mucos(-s2, 1) I +
musin(-s2, 1) Omega and its mu-derivative are closed form on every branch.
The error is fourth order in the cell width: on q = cos x, eigenvalues move by
1.2e-10, 7.7e-12, 4.8e-13 and 2.9e-14 at 256, 512, 1024 and 2048 cells, the
same for n < 16 as for n < 256.

A balanced-tree product of the cell matrices, batched over mu and carrying
d/dmu, gives Omega(mu) = phi(pi) cos(beta) + phi'(pi) sin(beta) and Omega'(mu)
for safeguarded Newton, and a = phi'(pi) phi_mu(pi) - phi(pi) phi_mu'(pi), the
integral of phi^2 (W = phi' phi_mu - phi phi_mu' has W' = phi^2, W(0) = 0).
Stepping across the cells gives phi at every edge and, by one partial step, at any x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson, solve_ivp  # noqa: F401  solve_ivp: unused, perfbench/tracing.py wraps it
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
    mucos,
    musin,
    _frozen,
)
from .errors import ConfigError, NumericsError

CELLS_PER_INTERVAL = 4
SWEEP_SIZE = 1 << 12  # mu values x steps per batch: a sweep's arrays stay under 1 MB
NEWTON_TOL = 1e-12    # relative Newton step at which a root is accepted
NEWTON_MAX = 100
TRACE_NODES = 2049
WINDOW_HALF_WIDTH = 0.45
MAX_ABS_Q = 1e6
_GAUSS = np.sqrt(3.0) / 6.0  # a cell's Gauss points sit at 1/2 -+ _GAUSS of its width


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


class _Cells:
    """The potential's interpolant cut into cells, with each cell's Magnus data."""

    def __init__(self, q: Potential):
        if np.max(np.abs(q.values)) > MAX_ABS_Q:
            raise ConfigError("potential samples exceed 1e6; out of numerical reach")
        self.qf = interpolant(q)
        knots = np.unique(np.clip(np.concatenate([[0.0], q.grid.nodes, [PI]]), 0.0, PI))
        frac = np.arange(CELLS_PER_INTERVAL) / CELLS_PER_INTERVAL
        self.edges = np.append((knots[:-1, None] + np.diff(knots)[:, None] * frac).ravel(), PI)
        self.steps = self.magnus(self.edges[:-1], self.edges[1:])

    def magnus(self, a: np.ndarray, b: np.ndarray):
        """(h, qbar, d) of the Magnus steps from a to b."""
        h = b - a
        q1, q2 = self.qf(a + (0.5 - _GAUSS) * h), self.qf(a + (0.5 + _GAUSS) * h)
        return h, 0.5 * (q1 + q2), 0.5 * _GAUSS * h * h * (q1 - q2)


def _propagators(steps, mus: np.ndarray, deriv: bool = False):
    """exp(Omega) of every step (axis 1) for every mu (axis 0), and with
    ``deriv`` its mu-derivative (else None)."""
    h, qbar, d = steps
    v = h * (qbar - mus[:, None])           # Omega[1, 0]
    s2 = d * d + h * v
    C, S = mucos(-s2, 1.0), musin(-s2, 1.0)
    M = np.stack((C + S * d, S * h, S * v, C - S * d), axis=-1).reshape(s2.shape + (2, 2))
    if not deriv:
        return M, None
    # dC/ds2 = S/2 and dS/ds2 = (C - S)/(2 s2), by its Taylor series where
    # that would cancel; ds2/dmu = -h^2
    small = np.abs(s2) < 1e-2
    series = 1 / 6 + s2 * (1 / 60 + s2 * (1 / 1680 + s2 * (1 / 90720 + s2 / 7983360)))
    dC = -0.5 * h * h * S
    dS = -h * h * np.where(small, series, (C - S) / (2.0 * np.where(small, 1.0, s2)))
    dM = np.stack((dC + dS * d, dS * h, dS * v - S * h, dC - dS * d), axis=-1)
    return M, dM.reshape(M.shape)


def _tree(M: np.ndarray, dM: np.ndarray | None):
    """M[:, -1] @ ... @ M[:, 0] by multiplying adjacent pairs level by level,
    and its mu-derivative by the product rule when dM is given."""
    while M.shape[1] > 1:
        if M.shape[1] % 2:  # pad with the identity, whose derivative is zero
            M = np.concatenate([M, np.broadcast_to(np.eye(2), M[:, :1].shape)], axis=1)
            dM = None if dM is None else np.concatenate([dM, np.zeros_like(dM[:, :1])], axis=1)
        if dM is not None:
            dM = dM[:, 1::2] @ M[:, 0::2] + M[:, 1::2] @ dM[:, 0::2]
        M = M[:, 1::2] @ M[:, 0::2]
    return M[:, 0], None if dM is None else dM[:, 0]


def _chunks(count: int, width: int):
    """Slices of ``count`` mu values, each batch holding at most SWEEP_SIZE
    mu values x ``width`` steps."""
    step = max(1, SWEEP_SIZE // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _sweep(cells: _Cells, mus: np.ndarray, deriv: bool = False) -> np.ndarray:
    """Rows phi(pi), phi'(pi), and with ``deriv`` phi_mu(pi), phi_mu'(pi):
    the second column of the product of all cell matrices and of its mu-derivative."""
    out = np.empty((4 if deriv else 2, mus.size))
    for sl in _chunks(mus.size, cells.edges.size):
        E, dE = _tree(*_propagators(cells.steps, mus[sl], deriv))
        out[:2, sl] = E[:, :, 1].T
        if deriv:
            out[2:, sl] = dE[:, :, 1].T
    return out


def _omega(cells: _Cells, beta: BoundaryAngle, mus, deriv: bool = False):
    """Omega(mu), and with ``deriv`` the pair (Omega, Omega')."""
    y = _sweep(cells, np.atleast_1d(np.asarray(mus, dtype=float)), deriv)
    w = np.array([np.cos(beta.beta), np.sin(beta.beta)])
    return (w @ y[:2], w @ y[2:]) if deriv else w @ y


def _solution(cells: _Cells, mus: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(x, mu) and phi'(x, mu), rows mu and columns x: (phi, phi') stepped
    from (0, 1) to every cell edge, then one partial step from the edge below x."""
    n = cells.edges.size - 1
    k = np.clip(np.searchsorted(cells.edges, x, side="right") - 1, 0, n - 1)
    partial = cells.magnus(cells.edges[k], x)
    M, _ = _propagators(cells.steps, mus)   # every mu at once, so the cell loop below runs once
    y = np.empty((mus.size, n + 1, 2, 1))
    y[:, 0] = [[0.0], [1.0]]
    for j in range(n):
        y[:, j + 1] = M[:, j] @ y[:, j]
    z = np.concatenate([_propagators(partial, mus[sl])[0] @ y[sl][:, k] for sl in _chunks(mus.size, x.size)])
    return z[:, :, 0, 0], z[:, :, 1, 0]


def shoot(q: Potential, mu: float, *, n_nodes: int = TRACE_NODES) -> SolutionTrace:
    """phi and phi' for one mu on a uniform grid of n_nodes points."""
    grid = make_grid(n_nodes, RuleKind.TRAPEZOID)
    phi, dphi = _solution(_Cells(q), np.array([float(mu)]), grid.nodes)
    return SolutionTrace(grid, phi[0], dphi[0], float(mu))


def characteristic(q: Potential, beta: BoundaryAngle | float, mu) -> np.ndarray:
    """Omega(mu) = phi(pi)cos(beta) + phi'(pi)sin(beta); zeros are eigenvalues."""
    out = _omega(_Cells(q), as_angle(beta), mu)
    return out if np.ndim(mu) else float(out[0])


def eigenvalues(q: Potential, beta: BoundaryAngle | float, N: int,
                *, delta: DeltaSequence | None = None) -> np.ndarray:
    """First N eigenvalues, strictly increasing.

    Indices n >= 2 are bracketed inside half-width-0.45 windows around the
    asymptotic centers (n + delta_n + mean(q)/(2(n+delta_n)))^2, the two low
    modes by a scan below the first window; Newton refines every root.
    """
    beta = as_angle(beta)
    cells = _Cells(q)
    if N < 1:
        raise ConfigError("N must be at least 1")
    if delta is None or delta.n_max < max(N, 3):
        delta = delta_sequence(beta, max(N, 3))
    om = delta.omega(np.arange(2, max(N, 3)))
    centers = om + q.mean / (2.0 * om)
    low_lo, low_hi = _scan_low_modes(cells, beta, q, centers[0] - WINDOW_HALF_WIDTH)

    def windows(half_width):
        a, b = centers - half_width, centers + half_width
        return np.append(low_lo, a * np.abs(a))[:N], np.append(low_hi, b * np.abs(b))[:N]

    lo, hi = windows(WINDOW_HALF_WIDTH)
    f_lo, f_hi = _omega(cells, beta, lo), _omega(cells, beta, hi)
    bad = np.flatnonzero(np.sign(f_lo) * np.sign(f_hi) >= 0)
    if bad.size and bad[0] >= 2:
        # widen the asymptotic windows once before giving up
        lo[bad], hi[bad] = (w[bad] for w in windows(0.49))
        f_lo, f_hi = _omega(cells, beta, lo), _omega(cells, beta, hi)
        bad = np.flatnonzero(np.sign(f_lo) * np.sign(f_hi) >= 0)
    if bad.size:
        i = bad[0]
        raise NumericsError(f"eigenvalue {i}: no sign change in [{lo[i]:.12g}, {hi[i]:.12g}]: "
                            f"Omega(lo)={f_lo[i]:.6g}, Omega(hi)={f_hi[i]:.6g}")

    mus = np.sort(_newton(cells, beta, lo, hi, f_lo))
    if np.any(np.diff(mus) <= 0):
        i = int(np.flatnonzero(np.diff(mus) <= 0)[0])
        raise NumericsError(f"refined eigenvalues are not strictly increasing: "
                            f"mu[{i}]={mus[i]:.12g}, mu[{i + 1}]={mus[i + 1]:.12g}")
    # Sturm guard: phi(., mu_n) changes sign n times across the cell edges in
    # (0, pi]; phi(pi) != 0 because sin(beta) > 0
    phi = _solution(cells, mus, cells.edges[1:])[0]
    counts = np.sum(phi[:, :-1] * phi[:, 1:] < 0.0, axis=1)
    wrong = np.flatnonzero(counts != np.arange(N))
    if wrong.size:
        n = wrong[0]
        raise NumericsError(f"eigenvalue {n}: oscillation count {counts[n]} != {n} "
                            f"at mu={mus[n]:.12g}; a root was missed or duplicated")
    return mus


def _newton(cells: _Cells, beta: BoundaryAngle, lo: np.ndarray, hi: np.ndarray,
            f_lo: np.ndarray) -> np.ndarray:
    """Root of Omega in each bracket [lo, hi] with Omega(lo) = f_lo: Newton
    from the midpoint, bisecting whenever a step would leave the bracket,
    which every evaluation shrinks."""
    x = 0.5 * (lo + hi)
    for _ in range(NEWTON_MAX):
        f, df = _omega(cells, beta, x, deriv=True)
        left = np.sign(f) == np.sign(f_lo)
        lo, f_lo, hi = np.where(left, x, lo), np.where(left, f, f_lo), np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - f / df
        small = np.abs(new - x) <= NEWTON_TOL * np.maximum(1.0, np.abs(x))
        x = np.where(small | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
        if small.all():
            return x
    i = int(np.flatnonzero(~small)[0])
    raise NumericsError(f"eigenvalue {i}: Newton did not converge in {NEWTON_MAX} steps; "
                        f"mu={x[i]:.12g} in bracket [{lo[i]:.12g}, {hi[i]:.12g}]")


def _scan_low_modes(cells: _Cells, beta: BoundaryAngle, q: Potential, first_edge: float):
    """Brackets for the two eigenvalues below the first asymptotic window."""
    mu_low = min(0.0, float(q.values.min())) * 1.1 - 1.0
    for _ in range(8):
        s_lo = -np.sqrt(abs(mu_low))
        # resolution fine enough that adjacent roots (lambda spacing ~1)
        # cannot share a scan cell even after the range expands
        n_scan = max(80, int((first_edge - s_lo) / 0.05) + 1)
        ss = np.linspace(s_lo, first_edge, n_scan)
        mus = ss * np.abs(ss)
        vals = _omega(cells, beta, mus)
        idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        if idx.size >= 2:
            return mus[idx[:2]], mus[idx[:2] + 1]
        mu_low = mu_low * 2.0 - 1.0
    raise NumericsError(f"eigenvalue 0/1: scan of mu in [{mus[0]:.6g}, {mus[-1]:.6g}] "
                        "below the first window found fewer than two roots")


def norming_constants(q: Potential, mus: np.ndarray, *, trace_nodes: int = TRACE_NODES,
                      quad: Grid | None = None
                      ) -> tuple[list, list, Grid, np.ndarray]:
    """Norming constants, by the Wronskian identity of the module docstring,
    and traces for given eigenvalues.
    Returns (records, traces, quad_grid, phi_at_quad).
    """
    cells = _Cells(q)
    mus = np.asarray(mus, dtype=float)
    quad = quad or make_grid(256, RuleKind.GAUSS)
    trace_grid = make_grid(trace_nodes, RuleKind.TRAPEZOID)
    phi_pi, dphi_pi, phi_mu, dphi_mu = _sweep(cells, mus, deriv=True)
    bad = np.flatnonzero(np.abs(phi_pi) < 1e-12 * np.maximum(1.0, np.abs(dphi_pi)))
    if bad.size:
        raise NumericsError(f"eigenvalue {bad[0]}: phi(pi) vanishes with sin(beta) != 0; "
                            f"mu={mus[bad[0]]} is not a true root")
    nt = trace_grid.n
    phi, dphi = _solution(cells, mus, np.concatenate([trace_grid.nodes, quad.nodes]))
    records = [EigenRecord(float(m), float(a)) for m, a in zip(mus, dphi_pi * phi_mu - phi_pi * dphi_mu)]
    traces = [SolutionTrace(trace_grid, phi[n, :nt], dphi[n, :nt], float(m)) for n, m in enumerate(mus)]
    return records, traces, quad, phi[:, nt:]


def forward_solve(q: Potential, beta: BoundaryAngle | float, N: int) -> ForwardSolution:
    """Eigenvalues + norming constants + traces in one call."""
    beta = as_angle(beta)
    delta = delta_sequence(beta, max(N, 3))
    mus = eigenvalues(q, beta, N, delta=delta)
    records, traces, quad, phi_quad = norming_constants(q, mus)
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

