"""Forward solver: eigenvalues and norming constants of -y'' + q y = mu y with
y(0) = 0 and y(pi)cos(beta) + y'(pi)sin(beta) = 0, and eigenfunctions on request.

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

A 2x2 matrix is held as its four entries (m00, m01, m10, m11), each an
array with rows mu and columns cell, and products are written out entry by
entry.  A balanced-tree product of the cell matrices, batched over mu and
carrying d/dmu by the product rule, gives Omega(mu) = phi(pi) cos(beta) +
phi'(pi) sin(beta) and Omega'(mu) for safeguarded Newton, and
a = phi'(pi) phi_mu(pi) - phi(pi) phi_mu'(pi), the integral of phi^2
(W = phi' phi_mu - phi phi_mu' has W' = phi^2, W(0) = 0).  phi and phi' at
every cell edge are the second columns of the prefix products, from
log2(cells) levels of Hillis-Steele doubling; their sign changes count the
eigenvalues below mu, and one partial step from the edge below x gives them
at any x.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import simpson, solve_ivp  # noqa: F401  solve_ivp: unused, perfbench/tracing.py wraps it
from scipy.interpolate import CubicSpline

from .asymptotics import DeltaSequence, delta_sequence, drift_constant
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
# mu values x cells per batch: a Newton step at N <= 16 on 1024 cells is one
# batch of 128 KiB entry arrays; 2^16 gained no time and raised peak RSS by 2.5 MiB
SWEEP_SIZE = 1 << 14
NEWTON_TOL = 1e-12    # relative Newton step at which a root is accepted
NEWTON_MAX = 100
TRACE_NODES = 2049
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
    """The spectrum of (q, beta), one EigenRecord per eigenpair.  The
    eigenfunctions and the q = 0 index corrections are computed when first read."""

    beta: BoundaryAngle
    q: Potential
    records: list

    @cached_property
    def traces(self) -> list:
        """phi_n and phi_n' on the uniform grid of TRACE_NODES points."""
        grid = make_grid(TRACE_NODES, RuleKind.TRAPEZOID)
        phi, dphi = _solution(_Cells(self.q), np.array([r.mu for r in self.records]), grid.nodes)
        return [SolutionTrace(grid, p, d, r.mu) for p, d, r in zip(phi, dphi, self.records)]

    @cached_property
    def delta(self) -> DeltaSequence:
        return delta_sequence(self.beta, max(len(self.records), 3))

    def spectral_data(self) -> SpectralData:
        mus = np.array([r.mu for r in self.records])
        a = np.array([r.a for r in self.records])
        c = None
        if len(self.records) >= 12:
            c, _ = drift_constant(SpectralData(self.beta.beta, mus, a), self.delta)
        return SpectralData(self.beta.beta, mus, a, c_fit=c)

    def gram(self, k: int | None = None) -> np.ndarray:
        """Inner-product matrix of the first k eigenfunctions on a 256-node Gauss grid."""
        k = len(self.records) if k is None else k
        quad = make_grid(256, RuleKind.GAUSS)
        ph, _ = _solution(_Cells(self.q), np.array([r.mu for r in self.records[:k]]), quad.nodes)
        return (ph * quad.weights) @ ph.T


class _Cells:
    """The interpolant of q - shift cut into cells, with each cell's Magnus data."""

    def __init__(self, q: Potential, shift: float = 0.0):
        if np.max(np.abs(q.values)) > MAX_ABS_Q:
            raise ConfigError("potential samples exceed 1e6; out of numerical reach")
        self.qf = interpolant(q)
        self.shift = shift
        knots = np.unique(np.clip(np.concatenate([[0.0], q.grid.nodes, [PI]]), 0.0, PI))
        frac = np.arange(CELLS_PER_INTERVAL) / CELLS_PER_INTERVAL
        self.edges = np.append((knots[:-1, None] + np.diff(knots)[:, None] * frac).ravel(), PI)
        self.steps = self.magnus(self.edges[:-1], self.edges[1:])

    def magnus(self, a: np.ndarray, b: np.ndarray):
        """(h, qbar, d) of the Magnus steps from a to b."""
        h = b - a
        q1, q2 = self.qf(a + (0.5 - _GAUSS) * h), self.qf(a + (0.5 + _GAUSS) * h)
        return h, 0.5 * (q1 + q2) - self.shift, 0.5 * _GAUSS * h * h * (q1 - q2)


def _propagators(steps, mus: np.ndarray, deriv: bool = False):
    """Entries (m00, m01, m10, m11) of exp(Omega), each with rows mu and
    columns step, and with ``deriv`` their mu-derivatives (else None)."""
    h, qbar, d = steps
    v = h * (qbar - mus[:, None])           # Omega[1, 0]
    s2 = d * d + h * v
    C, S = mucos(-s2, 1.0), musin(-s2, 1.0)
    Sd = S * d
    M = (C + Sd, S * h, S * v, C - Sd)
    if not deriv:
        return M, None
    # dC/ds2 = S/2 and dS/ds2 = (C - S)/(2 s2), by its Taylor series where
    # that would cancel; ds2/dmu = -h^2
    small = np.abs(s2) < 1e-2
    series = 1 / 6 + s2 * (1 / 60 + s2 * (1 / 1680 + s2 * (1 / 90720 + s2 / 7983360)))
    dC = -0.5 * h * h * S
    dS = -h * h * np.where(small, series, (C - S) / (2.0 * np.where(small, 1.0, s2)))
    dSd = dS * d
    return M, (dC + dSd, dS * h, dS * v - S * h, dC - dSd)


def _mul(b, a):
    """The entries of b @ a, for 2x2 matrices given by their entries."""
    b00, b01, b10, b11 = b
    a00, a01, a10, a11 = a
    return (b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
            b10 * a00 + b11 * a10, b10 * a01 + b11 * a11)


def _tree(M, dM):
    """Entries of M[:, -1] @ ... @ M[:, 0], by multiplying adjacent pairs
    level by level, and of its mu-derivative by the product rule when dM is given."""
    while M[0].shape[1] > 1:
        if M[0].shape[1] % 2:  # pad with the identity, whose derivative is zero
            M = _pad(M, (1.0, 0.0, 0.0, 1.0))
            dM = None if dM is None else _pad(dM, (0.0, 0.0, 0.0, 0.0))
        early, late = [m[:, 0::2] for m in M], [m[:, 1::2] for m in M]
        if dM is not None:
            dM = tuple(x + y for x, y in zip(_mul([m[:, 1::2] for m in dM], early),
                                             _mul(late, [m[:, 0::2] for m in dM])))
        M = _mul(late, early)
    return tuple(m[:, 0] for m in M), None if dM is None else tuple(m[:, 0] for m in dM)


def _pad(M, entries):
    """One more column per entry array, holding the given matrix."""
    return tuple(np.concatenate([m, np.full((m.shape[0], 1), e)], axis=1) for m, e in zip(M, entries))


def _chunks(count: int, width: int):
    """Slices of ``count`` mu values, each batch holding at most SWEEP_SIZE
    mu values x ``width`` cells."""
    step = max(1, SWEEP_SIZE // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _sweep(cells: _Cells, mus: np.ndarray, deriv: bool = False) -> np.ndarray:
    """Rows phi(pi), phi'(pi), and with ``deriv`` phi_mu(pi), phi_mu'(pi):
    the second column of the product of all cell matrices and of its mu-derivative."""
    out = np.empty((4 if deriv else 2, mus.size))
    for sl in _chunks(mus.size, cells.steps[0].size):
        E, dE = _tree(*_propagators(cells.steps, mus[sl], deriv))
        out[:2, sl] = E[1], E[3]
        if deriv:
            out[2:, sl] = dE[1], dE[3]
    return out


def _omega(cells: _Cells, beta: BoundaryAngle, mus, deriv: bool = False):
    """Omega(mu), and with ``deriv`` the pair (Omega, Omega')."""
    y = _sweep(cells, np.atleast_1d(np.asarray(mus, dtype=float)), deriv)
    w = np.array([np.cos(beta.beta), np.sin(beta.beta)])
    return (w @ y[:2], w @ y[2:]) if deriv else w @ y


def _edge_values(cells: _Cells, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi and phi' at every cell edge, rows mu: the second columns of the
    prefix products M[:, j] @ ... @ M[:, 0], by Hillis-Steele doubling."""
    P = _propagators(cells.steps, mus)[0]
    n, s = P[0].shape[1], 1
    while s < n:
        # P[:, j] covered cells j-s+1..j; multiplying by P[:, j-s] covers j-2s+1..j
        for p, new in zip(P, _mul([p[:, s:] for p in P], [p[:, :-s] for p in P])):
            p[:, s:] = new
        s *= 2
    zeros, ones = np.zeros((mus.size, 1)), np.ones((mus.size, 1))
    return np.hstack([zeros, P[1]]), np.hstack([ones, P[3]])


def _solution(cells: _Cells, mus: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi(x, mu) and phi'(x, mu), rows mu and columns x: (phi, phi') at every
    cell edge, then one partial step from the edge below each x.  Each batch
    of mu takes every x at once; batches are sized on the wider of the cells
    and x, so peak memory stays near that of a sweep."""
    n = cells.steps[0].size
    k = np.clip(np.searchsorted(cells.edges, x, side="right") - 1, 0, n - 1)
    partial = cells.magnus(cells.edges[k], x)
    out = np.empty((2, mus.size, x.size))
    for sl in _chunks(mus.size, max(n, x.size)):
        y0, y1 = (e[:, k] for e in _edge_values(cells, mus[sl]))
        p00, p01, p10, p11 = _propagators(partial, mus[sl])[0]
        out[0, sl] = p00 * y0 + p01 * y1
        out[1, sl] = p10 * y0 + p11 * y1
    return out[0], out[1]


def characteristic(q: Potential, beta: BoundaryAngle | float, mu) -> np.ndarray:
    """Omega(mu) = phi(pi)cos(beta) + phi'(pi)sin(beta); zeros are eigenvalues."""
    out = _omega(_Cells(q), as_angle(beta), mu)
    return out if np.ndim(mu) else float(out[0])


def _count(cells: _Cells, beta: BoundaryAngle, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number of eigenvalues strictly below each mu, and Omega(mu).

    With m sign changes of phi across the cell edges in (0, pi], the Pruefer
    angle theta(pi) lies in (m pi, (m+1) pi], and eigenvalue n is where it
    reaches (n+1) pi - beta; it has been passed exactly when Omega(mu) phi(pi) < 0.
    A non-finite Omega, where the cell products overflow, is refused.
    """
    counts, omega = np.empty(mus.size, dtype=int), np.empty(mus.size)
    for sl in _chunks(mus.size, cells.steps[0].size):
        phi, dphi = _edge_values(cells, mus[sl])
        omega[sl] = phi[:, -1] * np.cos(beta.beta) + dphi[:, -1] * np.sin(beta.beta)
        bad = np.flatnonzero(~np.isfinite(omega[sl]))
        if bad.size:
            raise NumericsError(f"Omega(mu) is not finite at mu={mus[sl][bad[0]] + cells.shift:.12g} for "
                                f"beta={beta.beta:.12g}: the solution overflows double precision")
        counts[sl] = np.sum(phi[:, 1:-1] * phi[:, 2:] < 0.0, axis=1) + (omega[sl] * phi[:, -1] < 0.0)
    return counts, omega


def eigenvalues(q: Potential, beta: BoundaryAngle | float, N: int) -> np.ndarray:
    """First N eigenvalues, strictly increasing.

    The roots are found for q - mean(q), then moved back by mean(q): a
    constant shift of q moves every eigenvalue by the same amount, and the
    Magnus step sees only qbar - mu.  In s = sign(mu) sqrt|mu| every root
    lies between -sqrt(max(0, -cot(beta))^2 + max(0, -min qbar) + 1), below
    the q = 0 ground state moved down by comparison, and
    sqrt(N^2 + max(0, max qbar) + 1), as delta_n < 1.  _count on half steps
    of s between the two, with any step that holds more than one root halved
    until none does, brackets each root by its index; Newton refines it
    inside its bracket.  Error messages give mu for q itself.
    """
    beta = as_angle(beta)
    shift = q.mean
    cells = _Cells(q, shift)
    if N < 1:
        raise ConfigError("N must be at least 1")
    qbar = cells.steps[1]
    s_lo = -np.sqrt(max(0.0, -qbar.min()) + max(0.0, -1.0 / np.tan(beta.beta)) ** 2 + 1.0)
    s_hi = np.sqrt(N * N + max(0.0, qbar.max()) + 1.0)
    s = np.linspace(s_lo, s_hi, int(np.ceil(2.0 * (s_hi - s_lo))) + 1)
    counts, omega = _count(cells, beta, s * np.abs(s))
    if counts[0] != 0 or counts[-1] < N:
        raise NumericsError(f"eigenvalue count {counts[0]} below mu={s_lo * abs(s_lo) + shift:.12g} and "
                            f"{counts[-1]} below mu={s_hi * s_hi + shift:.12g}; expected 0 and at least {N}")
    while True:
        steps = np.diff(counts)
        if np.any(steps < 0):
            i = int(np.flatnonzero(steps < 0)[0])
            raise NumericsError(f"eigenvalue counts decrease from {counts[i]} to {counts[i + 1]} between "
                                f"mu={s[i] * abs(s[i]) + shift:.12g} and {s[i + 1] * abs(s[i + 1]) + shift:.12g}")
        split = np.flatnonzero((steps > 1) & (counts[:-1] < N))
        if not split.size:
            break
        mid = 0.5 * (s[split] + s[split + 1])
        if np.any((mid == s[split]) | (mid == s[split + 1])):
            i = split[0]
            raise NumericsError(f"eigenvalues {counts[i]}..{counts[i + 1] - 1} are not separable "
                                f"in double precision at mu={s[i] * abs(s[i]) + shift:.12g}")
        c, f = _count(cells, beta, mid * np.abs(mid))
        s, counts, omega = (np.insert(a, split + 1, b) for a, b in ((s, mid), (counts, c), (omega, f)))
    i = np.flatnonzero(np.diff(counts) == 1)[:N]
    mu = s * np.abs(s)
    lo, hi = mu[i], mu[i + 1]
    mus = _newton(cells, beta, lo, hi, omega[i], omega[i + 1])
    tol = NEWTON_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    out = np.flatnonzero((mus < lo - tol) | (mus > hi + tol))
    if out.size:
        n = out[0]
        raise NumericsError(f"eigenvalue {n}: Newton left its bracket: mu={mus[n] + shift:.12g} "
                            f"outside [{lo[n] + shift:.12g}, {hi[n] + shift:.12g}]")
    return mus + shift


def _newton(cells: _Cells, beta: BoundaryAngle, lo: np.ndarray, hi: np.ndarray,
            f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    """Root of Omega in each bracket [lo, hi], with Omega(lo) = f_lo and
    Omega(hi) = f_hi of opposite signs: Newton from the secant point,
    bisecting whenever a step would leave the bracket, which every
    evaluation shrinks.  Each step sweeps only the brackets still open;
    ``idx`` maps them back to the caller's order."""
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    roots = np.empty_like(x)
    idx = np.arange(x.size)
    for _ in range(NEWTON_MAX):
        f, df = _omega(cells, beta, x, deriv=True)
        left = np.sign(f) == np.sign(f_lo)
        lo, f_lo, hi = np.where(left, x, lo), np.where(left, f, f_lo), np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - f / df
        small = np.abs(new - x) <= NEWTON_TOL * np.maximum(1.0, np.abs(x))
        x = np.where(small | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
        roots[idx[small]] = x[small]
        if small.all():
            return roots
        idx, x, lo, hi, f_lo = (a[~small] for a in (idx, x, lo, hi, f_lo))
    shift = cells.shift
    raise NumericsError(f"eigenvalue {idx[0]}: Newton did not converge in {NEWTON_MAX} steps; "
                        f"mu={x[0] + shift:.12g} in bracket [{lo[0] + shift:.12g}, {hi[0] + shift:.12g}]")


def norming_constants(q: Potential, mus: np.ndarray) -> np.ndarray:
    """Norming constants a_n of the given eigenvalues, by the Wronskian
    identity of the module docstring."""
    mus = np.asarray(mus, dtype=float)
    phi_pi, dphi_pi, phi_mu, dphi_mu = _sweep(_Cells(q), mus, deriv=True)
    bad = np.flatnonzero(np.abs(phi_pi) < 1e-12 * np.maximum(1.0, np.abs(dphi_pi)))
    if bad.size:
        raise NumericsError(f"eigenvalue {bad[0]}: phi(pi) vanishes with sin(beta) != 0; "
                            f"mu={mus[bad[0]]} is not a true root")
    a = dphi_pi * phi_mu - phi_pi * dphi_mu
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise NumericsError(f"eigenvalue {bad[0]}: the norming constant overflows double precision; "
                            f"mu={mus[bad[0]]:.12g}")
    return a


def forward_solve(q: Potential, beta: BoundaryAngle | float, N: int) -> ForwardSolution:
    """The first N eigenvalues and their norming constants."""
    beta = as_angle(beta)
    mus = eigenvalues(q, beta, N)
    return ForwardSolution(beta, q, [EigenRecord(float(m), float(a))
                                     for m, a in zip(mus, norming_constants(q, mus))])


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

