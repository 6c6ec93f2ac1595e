"""Forward solver: eigenvalues and norming constants of -y'' + q y = mu y with
y(0) = 0 and y(pi)cos(beta) + y'(pi)sin(beta) = 0, and eigenfunctions on request.

phi(x, mu), with phi(0) = 0 and phi'(0) = 1, crosses each cell by one
fourth-order Magnus step on the potential's interpolant; there are four cells
per sample interval, with edges on the samples.  On a cell of width h, with
q1, q2 the interpolant at its Gauss points and qbar their mean, the step is
exp(Omega), Omega = [[d, h], [h (qbar - mu), -d]], d = (sqrt(3)/12) h^2 (q1 - q2).
As Omega^2 = s2 I, s2 = d^2 + h^2 (qbar - mu), exp(Omega) = C(s2) I + S(s2) Omega
with C = cosh sqrt(s2) and S = sinh sqrt(s2) / sqrt(s2), continued through
s2 <= 0.  Both, and dS/ds2 for the mu-derivative, are Taylor series in s2
summed by Horner's rule: on 1024 cells |s2| stays below 3e-3 up to mu = 300,
where degree 4 reaches roundoff, and a batch with larger |s2| is quartered
and restored by double-angle identities.
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
every cell edge come from the same tree: its levels are kept (the up-sweep),
and (phi, phi') at the start of each block is carried down to its two
halves (the down-sweep), about one 2x2 product and one matrix-vector product
per cell in all.  Their sign changes count the eigenvalues below mu, and one
partial step from the edge below x gives them at any x.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

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
SERIES_TOL = 1e-17    # first omitted term of the propagator series
# Taylor coefficients in s2 of C, S and dS/ds2 (see _series); degree 9 reaches |s2| = 1
_C_COEF = np.array([1.0 / factorial(2 * k) for k in range(10)])
_S_COEF = np.array([1.0 / factorial(2 * k + 1) for k in range(10)])
_DS_COEF = np.array([(k + 1) / factorial(2 * k + 3) for k in range(10)])


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
            c, _, _ = drift_constant(SpectralData(self.beta.beta, mus, a), self.delta)
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


def _series(s2: np.ndarray, deriv: bool = False):
    """C = sum s2^k/(2k)!, S = sum s2^k/(2k+1)! and, with ``deriv``, dS/ds2
    (else None): cosh and sinh(x)/x of x = sqrt(s2), cos and sin(x)/x of
    x = sqrt(-s2).  Horner's rule at the least degree whose first omitted term
    at max|s2| is below SERIES_TOL.  An entry with |s2| > 1 is quartered j
    times, the least j with |s2| 4^-j <= 1, and C(4u) = 2 C(u)^2 - 1,
    S(4u) = S(u) C(u), S'(4u) = (S'(u) C(u) + S(u)^2/2)/4 restore it, at a cost
    of up to about 4^j ulp to that entry alone.  Non-finite entries stay
    non-finite and are not quartered."""
    m = float(np.max(np.abs(s2), initial=0.0))
    if not np.isfinite(m):
        m = float(np.max(np.abs(s2), initial=0.0, where=np.isfinite(s2)))
    u, j_max = s2, 0
    if m > 1.0:
        j = np.zeros(s2.shape, dtype=np.int64)
        big = np.isfinite(s2) & (np.abs(s2) > 1.0)
        j[big] = np.ceil(0.5 * np.log2(np.abs(s2[big])))
        u = np.ldexp(s2, -2 * j)
        m = float(np.max(np.abs(u), initial=0.0, where=np.isfinite(u)))
        j_max = int(j.max())
    K, term = 1, m * m / 24.0
    while term >= SERIES_TOL:
        K += 1
        term *= m / ((2 * K + 1) * (2 * K + 2))
    C, S = _horner(_C_COEF[:K + 1], u), _horner(_S_COEF[:K + 1], u)
    dS = _horner(_DS_COEF[:K + 1], u) if deriv else None
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(j_max):
            sel = j > step
            if deriv:
                dS = np.where(sel, 0.25 * (dS * C + 0.5 * S * S), dS)
            S, C = np.where(sel, S * C, S), np.where(sel, 2.0 * C * C - 1.0, C)
    return C, S, dS


def _horner(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum coef[k] u^k, for at least two coefficients."""
    out = coef[-1] * u
    out += coef[-2]
    for c in coef[-3::-1]:
        out *= u
        out += c
    return out


def _propagators(steps, mus: np.ndarray, deriv: bool = False):
    """Entries (m00, m01, m10, m11) of exp(Omega), each with rows mu and
    columns step, and with ``deriv`` their mu-derivatives (else None)."""
    h, qbar, d = steps
    v = h * (qbar - mus[:, None])           # Omega[1, 0]
    s2 = d * d + h * v
    C, S, dS = _series(s2, deriv)
    Sd = S * d
    M = (C + Sd, S * h, S * v, C - Sd)
    if not deriv:
        return M, None
    # dC/ds2 = S/2, and ds2/dmu = -h^2
    dC = -0.5 * h * h * S
    dS *= -h * h
    dSd = dS * d
    return M, (dC + dSd, dS * h, dS * v - S * h, dC - dSd)


def _mul(b, a):
    """The entries of b @ a, for 2x2 matrices given by their entries."""
    b00, b01, b10, b11 = b
    a00, a01, a10, a11 = a
    return (b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
            b10 * a00 + b11 * a10, b10 * a01 + b11 * a11)


def _levels(M, dM=None):
    """The levels of the balanced-tree product M[:, -1] @ ... @ M[:, 0], from
    the cells up to the single product: an odd width is padded with the
    identity, then each column of the next level is the product of a pair of
    adjacent columns.  With dM, each level carries its mu-derivative by the
    product rule (else None)."""
    while True:
        if M[0].shape[1] % 2 and M[0].shape[1] > 1:  # the identity's derivative is zero
            M = _pad(M, (1.0, 0.0, 0.0, 1.0))
            dM = None if dM is None else _pad(dM, (0.0, 0.0, 0.0, 0.0))
        yield M, dM
        if M[0].shape[1] == 1:
            return
        early, late = [m[:, 0::2] for m in M], [m[:, 1::2] for m in M]
        if dM is not None:
            dM = tuple(x + y for x, y in zip(_mul([m[:, 1::2] for m in dM], early),
                                             _mul(late, [m[:, 0::2] for m in dM])))
        M = _mul(late, early)


def _tree(M, dM):
    """Entries of M[:, -1] @ ... @ M[:, 0], and of its mu-derivative when dM is given."""
    for M, dM in _levels(M, dM):
        pass
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
    """phi and phi' at every cell edge, rows mu.  The up-sweep is _levels; the
    down-sweep carries (phi, phi') at the start of each block to its halves:
    the first starts where its parent does, the second after the first's product."""
    levels = [L for L, _ in _levels(_propagators(cells.steps, mus)[0])]
    top = levels.pop()
    y0, y1 = np.zeros((mus.size, 1)), np.ones((mus.size, 1))
    for L in reversed(levels):
        k = L[0].shape[1] // 2
        y0, y1 = y0[:, :k], y1[:, :k]
        m00, m01, m10, m11 = (m[:, 0::2] for m in L)
        odd0, odd1 = m00 * y0 + m01 * y1, m10 * y0 + m11 * y1
        y0 = np.stack([y0, odd0], axis=2).reshape(mus.size, 2 * k)
        y1 = np.stack([y1, odd1], axis=2).reshape(mus.size, 2 * k)
    n = cells.steps[0].size
    return np.hstack([y0[:, :n], top[1]]), np.hstack([y1[:, :n], top[3]])


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
        # products of large phi overflow to inf of the right sign; a non-finite Omega is refused
        with np.errstate(over="ignore", invalid="ignore"):
            phi, dphi = _edge_values(cells, mus[sl])
            omega[sl] = phi[:, -1] * np.cos(beta.beta) + dphi[:, -1] * np.sin(beta.beta)
            counts[sl] = np.sum(phi[:, 1:-1] * phi[:, 2:] < 0.0, axis=1) + (omega[sl] * phi[:, -1] < 0.0)
        bad = np.flatnonzero(~np.isfinite(omega[sl]))
        if bad.size:
            raise NumericsError(f"Omega(mu) is not finite at mu={mus[sl][bad[0]] + cells.shift:.12g} for "
                                f"beta={beta.beta:.12g}: the solution overflows double precision")
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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite a_n is refused below
        phi_pi, dphi_pi, phi_mu, dphi_mu = _sweep(_Cells(q), mus, deriv=True)
        a = dphi_pi * phi_mu - phi_pi * dphi_mu
    bad = np.flatnonzero(np.abs(phi_pi) < 1e-12 * np.maximum(1.0, np.abs(dphi_pi)))
    if bad.size:
        raise NumericsError(f"eigenvalue {bad[0]}: phi(pi) vanishes with sin(beta) != 0; "
                            f"mu={mus[bad[0]]} is not a true root")
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

