"""Forward solver: eigenvalues and norming constants of -y'' + q y = mu y with
y(0) = 0 and y(pi)cos(beta) + y'(pi)sin(beta) = 0, and eigenfunctions on request.

phi(x, mu), with phi(0) = 0 and phi'(0) = 1, crosses each cell by one
sixth-order Magnus step on the potential's interpolant (Blanes, Casas and Ros,
BIT 40, 2000); there are two cells per sample interval (more at large N, see
_Cells), edges on the samples.  On a cell of width h, with w_i = q_i - mu at
its three Gauss points 1/2 -+ sqrt(15)/10 and 1/2 of the width,
k2 = (sqrt(15)/3) h (w3 - w1) and k3 = (10/3) h (w3 - 2 w2 + w1), the step is
exp(Omega), Omega = [[a, b], [c, -a]] with
    b = h + (h^3 k2^2/30 - 2 h^2 k3/3)/120,
    a = (-20 h k2 + h^2 k2 k3/30)/240 + (h^3 k2/180) w2,
    c = k3/12 + (h k3^2/30 - h k2^2)/120 + (h + h^2 k3/180 + h^3 k2^2/3600) w2.
k2 and k3 do not depend on mu, so a and c are affine in mu and b is constant.
As Omega^2 = s2 I, s2 = a^2 + b c, exp(Omega) = C(s2) I + S(s2) Omega
with C = cosh sqrt(s2) and S = sinh sqrt(s2) / sqrt(s2), continued through
s2 <= 0: Taylor series in s2 summed by Horner's rule (see _series).
The error is sixth order in the cell width: on q = exp x the first 16
eigenvalues move by 7.1e-10, 1.1e-11 and 1.1e-13 at 256, 512 and 1024 cells
(the fourth-order step with two Gauss points: 2.2e-7, 1.3e-8 and 8.4e-10),
against 16384 cells; on q = cos x they agree from 512 cells on to 6e-14, two
ulp of mu_15.

A 2x2 matrix is held as its four entries (m00, m01, m10, m11), each an
array with rows mu and columns cell, and products are written out entry by
entry.  A balanced-tree product of the cell matrices, batched over mu and
taken at mu + i eps (eps = COMPLEX_STEP; a complex step, exact to roundoff
with no subtraction: Squire and Trapp, SIAM Review 40, 1998), gives in its
real part and its imaginary part over eps Omega(mu) = phi(pi) cos(beta) +
phi'(pi) sin(beta) and Omega'(mu) for safeguarded Newton, and, at every mu,
a = phi'(pi) phi_mu(pi) - phi(pi) phi_mu'(pi), the integral of phi^2
(W = phi' phi_mu - phi phi_mu' has W' = phi^2, W(0) = 0): the Newton step
that accepts a root gives its a_n.  phi and phi' at every cell edge come
from the same tree in real arithmetic: its levels are kept (the up-sweep),
and (phi, phi') at the start of each block is carried down to its two
halves (the down-sweep), about one 2x2 product and one matrix-vector product
per cell in all.  Their sign changes count the eigenvalues below mu, and one
partial step from the edge below x gives them at any x in [0, pi]: the one
eigenfunction evaluator, ForwardSolution.eigenfunctions, which expand reads.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import factorial

import numpy as np

from .asymptotics import DeltaSequence, delta_sequence, fit_tail
from .core import (
    PI,
    BoundaryAngle,
    GridFunction,
    Potential,
    SpectralData,
    as_angle,
    interpolant,
    _check_count,
)
from .errors import ConfigError, DomainError, NumericsError

# Nothing here integrates an ODE; the name stays only because the benchmark's
# tracer (perfbench/tracing.py) reads and patches it.
solve_ivp = None

CELLS_PER_INTERVAL = 2
# mu values x cells per batch, a complex entry counting two: 96 KiB entry arrays
# (24 mu x 512 cells real, 12 complex).  2^14 makes them 128 KiB, glibc's mmap
# threshold: about 900 page faults per N=16 solve, 6.5 ms, not 5.4; 2^13 took
# 10-20% longer at N = 64, 256 and 1000 (more batches of the same work)
SWEEP_SIZE = 3 << 12
NEWTON_TOL = 1e-12    # relative Newton step at which a root is accepted
COMPLEX_STEP = 1e-20  # Im of mu in Newton's sweeps; 1e-150 made subnormal products 3x slower
NEWTON_MAX = 100
TRACE_NODES = 2049
# expand's composite Simpson rule on TRACE_NODES uniform points of [0, pi]:
# weights h/3 times 1, 4, 2, 4, ..., 2, 4, 1
_SIMPSON_X = np.linspace(0.0, PI, TRACE_NODES)
_SIMPSON_W = np.where(np.arange(TRACE_NODES) % 2, 4.0, 2.0)
_SIMPSON_W[[0, -1]] = 1.0
_SIMPSON_W *= PI / (TRACE_NODES - 1) / 3.0
MAX_ABS_Q = 1e6
_GAUSS = np.sqrt(15.0) / 10.0  # a cell's outer Gauss points sit at 1/2 -+ _GAUSS of its width
SERIES_TOL = 1e-17    # first omitted term of the propagator series
# Taylor coefficients in s2 of C and S (see _series); degree 9 reaches |s2| = 1
_C_COEF = np.array([1.0 / factorial(2 * k) for k in range(10)])
_S_COEF = np.array([1.0 / factorial(2 * k + 1) for k in range(10)])


@dataclass(frozen=True)
class ForwardSolution:
    """The spectrum of (q, beta) in ``records``, one read-only record array with
    fields ``mu`` and ``a``.  The q = 0 index corrections are computed when first
    read, and the eigenfunctions at the points asked for, when eigenfunctions is called."""

    beta: BoundaryAngle
    q: Potential
    records: np.recarray

    @cached_property
    def delta(self) -> DeltaSequence:
        return delta_sequence(self.beta, max(len(self.records), 3))

    def spectral_data(self) -> SpectralData:
        data = SpectralData(self.beta.beta, self.records.mu, self.records.a)
        if data.count < 12:
            return data
        return replace(data, c_fit=fit_tail(data, self.delta).c)

    def eigenfunctions(self, x) -> tuple[np.ndarray, np.ndarray]:
        """phi_n(x) and phi_n'(x), one row per record and one column per x,
        on cells fine enough for the largest mu_n; x must lie in [0, pi]."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        outside = ~((x >= 0.0) & (x <= PI))
        if outside.any():
            raise DomainError(f"eigenfunctions evaluated at x={x[outside][0]:.12g}, outside [0, pi]")
        mus = self.records.mu
        return _solution(_cells_for(self.q, mus), mus, x)


class _Cells:
    """The interpolant of q - shift cut into cells, with each cell's Magnus data:
    CELLS_PER_INTERVAL 2^j per sample interval, j the least with every cell's
    phase step h sqrt(top(N)^2 - min qbar) <= pi/2, so below the bracket top
    of the first N eigenvalues no cell holds two zeros of phi, and |s2| stays
    below about (pi/2)^2 = 2.47.  qbar is the cell's Gauss mean of q - shift."""

    def __init__(self, q: Potential, shift: float = 0.0, N: int = 0):
        if np.max(np.abs(q.values)) > MAX_ABS_Q:
            raise ConfigError("potential samples exceed 1e6; out of numerical reach")
        self.qf = interpolant(q)
        self.shift = shift
        knots = np.unique(np.clip(np.concatenate([[0.0], q.grid.nodes, [PI]]), 0.0, PI))
        per = CELLS_PER_INTERVAL
        while True:
            frac = np.arange(per) / per
            self.edges = np.append((knots[:-1, None] + np.diff(knots)[:, None] * frac).ravel(), PI)
            self.steps = self.magnus(self.edges[:-1], self.edges[1:])
            qbar = self.steps[0]
            if N < 1 or np.diff(self.edges).max() * np.sqrt(self.top(N) ** 2 - qbar.min()) <= 0.5 * PI:
                break
            per *= 2

    def top(self, N: int) -> float:
        """sqrt(N^2 + max(0, max qbar) + 1), above sqrt(mu) of eigenvalue N - 1 as delta_n < 1."""
        return float(np.sqrt(N * N + max(0.0, self.steps[0].max()) + 1.0))

    def magnus(self, x0: np.ndarray, x1: np.ndarray):
        """(qbar, a0, a1, b, c0, c1) of the Magnus steps from x0 to x1, whose
        exponents are [[a0 - a1 mu, b], [c0 - c1 mu, a1 mu - a0]]."""
        h = x1 - x0
        q1, q2, q3 = (self.qf(x0 + t * h) for t in (0.5 - _GAUSS, 0.5, 0.5 + _GAUSS))
        k2, k3 = (np.sqrt(15.0) / 3.0) * h * (q3 - q1), (10.0 / 3.0) * h * (q3 - 2.0 * q2 + q1)
        a1 = h ** 3 * k2 / 180.0
        c1 = h + h * h * k3 / 180.0 + h ** 3 * k2 * k2 / 3600.0
        w2 = q2 - self.shift
        a0 = (-20.0 * h * k2 + h * h * k2 * k3 / 30.0) / 240.0 + a1 * w2
        c0 = k3 / 12.0 + (h * k3 * k3 / 30.0 - h * k2 * k2) / 120.0 + c1 * w2
        b = h + (h ** 3 * k2 * k2 / 30.0 - 2.0 * h * h * k3 / 3.0) / 120.0
        return (5.0 * q1 + 8.0 * q2 + 5.0 * q3) / 18.0 - self.shift, a0, a1, b, c0, c1


def _cells_for(q: Potential, mus: np.ndarray) -> _Cells:
    """The cells of q fine enough for every finite mu given: with N >= sqrt(mu),
    top(N)^2 > mu."""
    mu = np.max(mus, initial=0.0, where=np.isfinite(mus))
    return _Cells(q, 0.0, max(1, int(np.ceil(np.sqrt(mu)))))


def _series(s2: np.ndarray):
    """C = sum s2^k/(2k)! and S = sum s2^k/(2k+1)!: cosh and sinh(x)/x of
    x = sqrt(s2), cos and sin(x)/x of x = sqrt(-s2), for real or complex s2.
    Horner's rule at the least degree whose first omitted term at max|s2| is
    below SERIES_TOL: on 512 cells |s2| stays below 1.2e-2 up to mu = 300,
    where degree 5 reaches roundoff.  An entry with |s2| > 1 is quartered j
    times, the least j with |s2| 4^-j <= 1, and C(4u) = 2 C(u)^2 - 1,
    S(4u) = S(u) C(u) restore it, at a cost of up to about 4^j ulp to that
    entry alone.  At s2 + i t, Im S / t is dS/ds2 of the summed polynomial,
    one degree lower, so complex s2 take one more.  Non-finite entries stay
    non-finite and are not quartered."""
    r = np.abs(s2)
    finite = np.isfinite(r)
    m, u, j_max = float(np.max(r, initial=0.0, where=finite)), s2, 0
    if m > 1.0:
        j = np.zeros(s2.shape, dtype=np.int64)
        big = finite & (r > 1.0)
        j[big] = np.ceil(0.5 * np.log2(r[big]))
        u = s2.copy()
        u[big] *= np.ldexp(1.0, -2 * j[big])
        m = float(np.max(np.abs(u), initial=0.0, where=finite))
        j_max = int(j.max())
    K, term = 1, m * m / 24.0
    while term >= SERIES_TOL:
        K += 1
        term *= m / ((2 * K + 1) * (2 * K + 2))
    K += np.iscomplexobj(s2)
    with np.errstate(over="ignore", invalid="ignore"):
        C, S = _horner(_C_COEF[:K + 1], u), _horner(_S_COEF[:K + 1], u)
        for step in range(j_max):
            sel = j > step
            S, C = np.where(sel, S * C, S), np.where(sel, 2.0 * C * C - 1.0, C)
    return C, S


def _horner(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum coef[k] u^k, for at least two coefficients."""
    out = coef[-1] * u
    out += coef[-2]
    for c in coef[-3::-1]:
        out *= u
        out += c
    return out


def _propagators(steps, mus: np.ndarray):
    """Entries (m00, m01, m10, m11) of exp(Omega), each with rows mu and
    columns step; mu real, or complex for a complex step."""
    _, a0, a1, b, c0, c1 = steps
    a, c = a0 - a1 * mus[:, None], c0 - c1 * mus[:, None]
    C, S = _series(a * a + b * c)
    Sa = S * a
    return C + Sa, S * b, S * c, C - Sa


def _mul(b, a):
    """The entries of b @ a, for 2x2 matrices given by their entries."""
    b00, b01, b10, b11 = b
    a00, a01, a10, a11 = a
    return (b00 * a00 + b01 * a10, b00 * a01 + b01 * a11,
            b10 * a00 + b11 * a10, b10 * a01 + b11 * a11)


def _levels(M):
    """The levels of the balanced-tree product M[:, -1] @ ... @ M[:, 0], from
    the cells up to the single product: an odd width is padded with the
    identity, then each column of the next level is the product of a pair of
    adjacent columns."""
    while True:
        if M[0].shape[1] % 2 and M[0].shape[1] > 1:
            M = tuple(np.concatenate([m, np.full((m.shape[0], 1), e)], axis=1)
                      for m, e in zip(M, (1.0, 0.0, 0.0, 1.0)))
        yield M
        if M[0].shape[1] == 1:
            return
        M = _mul([m[:, 1::2] for m in M], [m[:, 0::2] for m in M])


def _chunks(count: int, width: int):
    """Slices of ``count`` mu values, each batch holding at most SWEEP_SIZE
    mu values x ``width`` entries per row."""
    step = max(1, SWEEP_SIZE // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _sweep(cells: _Cells, mus: np.ndarray) -> np.ndarray:
    """Rows phi(pi), phi'(pi), phi_mu(pi) and phi_mu'(pi): the second column
    of the product of all cell matrices at mu + i COMPLEX_STEP, its real part
    and its imaginary part over COMPLEX_STEP."""
    out = np.empty((2, mus.size), dtype=complex)
    for sl in _chunks(mus.size, 2 * cells.steps[0].size):  # complex entries take twice the bytes
        for E in _levels(_propagators(cells.steps, mus[sl] + 1j * COMPLEX_STEP)):
            pass
        out[:, sl] = E[1][:, 0], E[3][:, 0]
    return np.concatenate([out.real, out.imag / COMPLEX_STEP])


def _edge_values(cells: _Cells, mus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """phi and phi' at every cell edge, rows mu.  The up-sweep is _levels; the
    down-sweep carries (phi, phi') at the start of each block to its halves:
    the first starts where its parent does, the second after the first's product."""
    levels = list(_levels(_propagators(cells.steps, mus)))
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
        p00, p01, p10, p11 = _propagators(partial, mus[sl])
        out[0, sl] = p00 * y0 + p01 * y1
        out[1, sl] = p10 * y0 + p11 * y1
    return out[0], out[1]


def characteristic(q: Potential, beta: BoundaryAngle | float, mu) -> np.ndarray:
    """Omega(mu) = phi(pi)cos(beta) + phi'(pi)sin(beta); zeros are eigenvalues."""
    beta = as_angle(beta)
    mus = np.atleast_1d(np.asarray(mu, dtype=float))
    y = _sweep(_cells_for(q, mus), mus)
    out = np.array([np.cos(beta.beta), np.sin(beta.beta)]) @ y[:2]
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


def eigenvalues(q: Potential, beta: BoundaryAngle | float, N: int, *, norming: bool = False):
    """First N eigenvalues, strictly increasing; with ``norming``, the pair (mus, a).

    The roots are found for q - mean(q), then moved back by mean(q): a
    constant shift of q moves every eigenvalue by the same amount, and the
    Magnus step sees only q - mu.  In s = sign(mu) sqrt|mu| every root
    lies between -sqrt(max(0, -cot(beta))^2 + max(0, -min qbar) + 1), below
    the q = 0 ground state moved down by comparison, and _Cells.top(N).
    _count on half steps of s between the two, with any step that holds more
    than one root halved until none does, brackets each root by its index;
    Newton refines it inside its bracket, and a_n comes from the sweep that
    accepts root n.  Error messages give mu for q itself.
    """
    _check_count("N", N, 1)
    beta = as_angle(beta)
    shift = q.mean
    cells = _Cells(q, shift, N)
    qbar = cells.steps[0]
    s_lo = -np.sqrt(max(0.0, -qbar.min()) + max(0.0, -1.0 / np.tan(beta.beta)) ** 2 + 1.0)
    s_hi = cells.top(N)
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
    mus, rows = _newton(cells, beta, lo, hi, omega[i], omega[i + 1])
    tol = NEWTON_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    out = np.flatnonzero((mus < lo - tol) | (mus > hi + tol))
    if out.size:
        n = out[0]
        raise NumericsError(f"eigenvalue {n}: Newton left its bracket: mu={mus[n] + shift:.12g} "
                            f"outside [{lo[n] + shift:.12g}, {hi[n] + shift:.12g}]")
    mus = mus + shift
    return (mus, _norming(rows, mus)) if norming else mus


def _newton(cells: _Cells, beta: BoundaryAngle, lo: np.ndarray, hi: np.ndarray,
            f_lo: np.ndarray, f_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root of Omega in each bracket [lo, hi], with Omega(lo) = f_lo and
    Omega(hi) = f_hi of opposite signs: Newton from the secant point,
    bisecting whenever a step would leave the bracket, which every
    evaluation shrinks.  Each step sweeps only the brackets still open;
    ``idx`` maps them back to the caller's order.  Also returns the _sweep
    rows of the step that accepted each root."""
    w = np.array([np.cos(beta.beta), np.sin(beta.beta)])
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    roots, rows = np.empty_like(x), np.empty((4, x.size))
    idx = np.arange(x.size)
    for _ in range(NEWTON_MAX):
        y = _sweep(cells, x)
        f, df = w @ y[:2], w @ y[2:]
        left = np.sign(f) == np.sign(f_lo)
        lo, f_lo, hi = np.where(left, x, lo), np.where(left, f, f_lo), np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - f / df
        small = np.abs(new - x) <= NEWTON_TOL * np.maximum(1.0, np.abs(x))
        x = np.where(small | ((new > lo) & (new < hi)), new, 0.5 * (lo + hi))
        roots[idx[small]], rows[:, idx[small]] = x[small], y[:, small]
        if small.all():
            return roots, rows
        idx, x, lo, hi, f_lo = (a[~small] for a in (idx, x, lo, hi, f_lo))
    shift = cells.shift
    raise NumericsError(f"eigenvalue {idx[0]}: Newton did not converge in {NEWTON_MAX} steps; "
                        f"mu={x[0] + shift:.12g} in bracket [{lo[0] + shift:.12g}, {hi[0] + shift:.12g}]")


def _norming(y: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """a_n = phi'(pi) phi_mu(pi) - phi(pi) phi_mu'(pi) from the _sweep rows y at
    or near mu_n (the identity holds at every mu); mus, for messages, are q's."""
    phi_pi, dphi_pi, phi_mu, dphi_mu = y
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite a_n is refused below
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


def norming_constants(q: Potential, mus: np.ndarray) -> np.ndarray:
    """Norming constants a_n of the given eigenvalues, from one complex-step sweep."""
    mus = np.asarray(mus, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite a_n is refused by _norming
        y = _sweep(_cells_for(q, mus), mus)
    return _norming(y, mus)


def forward_solve(q: Potential, beta: BoundaryAngle | float, N: int) -> ForwardSolution:
    """The first N eigenvalues and their norming constants."""
    beta = as_angle(beta)
    records = np.rec.fromarrays(eigenvalues(q, beta, N, norming=True), names="mu,a")
    records.flags.writeable = False
    return ForwardSolution(beta, q, records)


def expand(f: GridFunction, solution: ForwardSolution, N: int) -> GridFunction:
    """Partial eigenfunction expansion of f over the first N modes of
    ``solution``, sampled back on f's grid.

    Coefficients are (1/a_n) * integral of f * phi_n, by the composite
    Simpson rule on TRACE_NODES uniform points with f read through its
    interpolant; phi_n at those points and at f's nodes comes from one
    eigenfunctions call on the first N records only.
    """
    _check_count("N", N, 1)
    if N > len(solution.records):
        raise ConfigError(f"N={N} exceeds the {len(solution.records)} available records")
    records = solution.records[:N]
    phi, _ = ForwardSolution(solution.beta, solution.q, records).eigenfunctions(
        np.concatenate([_SIMPSON_X, f.grid.nodes]))
    c = (interpolant(f)(_SIMPSON_X) * phi[:, :TRACE_NODES]) @ _SIMPSON_W / records.a
    return GridFunction(f.grid, c @ phi[:, TRACE_NODES:])
