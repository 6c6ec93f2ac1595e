"""Inverse solver: from two spectral sequences to the potential and the
recovered boundary angle.

Pipeline: admissibility checks (which also fit the drift constant c of
lambda_n ~ omega_n + c/(2 omega_n) + kappa/omega_n^3) -> difference kernel
H(t) of the data against the unperturbed (q = 0) spectrum for the same
angle -> F(x,t) = (H(|x-t|) - H(x+t))/2 -> the main equation
P(x,t) + F(x,t) + int_0^x P(x,s) F(s,t) ds = 0 -> q(x) = 2 d/dx P(x,x),
solutions phi rebuilt through the kernel, and the boundary angle from the
constancy of phi'(pi)/phi(pi) over eigenvalues.  In code the chain is
build_H -> solve_kernel_field(H, x_nodes): the field reads H's tables, and
F at points off its grids is the field's :meth:`KernelField.F`.

The main equation is discretized by the trapezoid rule on the nodes
t_j = j h, h = pi/M, M = x_nodes - 1, where the slope jump of F along t = s
falls on a node, so the error is a series in h^2; one Richardson step
between the grids h and h/2 leaves O(h^4) (Atkinson, The Numerical Solution
of Integral Equations of the Second Kind, CUP 1997, ch. 4).  F on a grid is
Toeplitz minus Hankel, read as sliding windows of one H table with no index
matrix.  One Cholesky factor L of I + h F per grid gives the whole diagonal
from its pivots, the discrete form of q = -2 (log det(I + F_x))'' (Dyson,
Commun. Math. Phys. 47, 1976), and the refusal of data that are not
positive; its inverse L^(-1), taken once per grid by recursive blocks,
gives every row in O(M^2) with no solve, and G^(-1) the condition number and
the x-derivative of the row at x = pi, whose matrix is the whole of I + h F.
The factor, its inverse and G^(-1) overwrite I + h F where it lies, each in
the lower triangle of the C-order buffer with contiguous rows, so a grid
builds F once and keeps one matrix, its rows.  The solutions phi are
rebuilt at all nodes by one matrix product with the rows' quadrature weights.

Everything after validate expects drift-free data (c = 0): (mu_n - c, a_n)
are the exact data of q - c, and :func:`invspec.roundtrip.inverse_pipeline`
inverts those and adds c back.  The pipeline fits the tail once
(:func:`~invspec.asymptotics.fit_tail`): validate reads the whole fit, and
the H kernel its kappa and gamma, which are those of the drift-free data; a
kernel built on its own fits the data it is given.  H is tabulated on a
uniform grid of [0, 2*pi]: the modes mu < 1 directly, every other term, the
tail model's partial sum among them, in one FFT sum (see
:class:`HFunction`), and the model's whole series in closed form; H' comes
from the same pass.  phi and phi'(pi) share one Richardson rule.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dlauum, dpotrf, dtrtri

from .asymptotics import (
    DeltaSequence,
    TailFit,
    cos_halfint_closed,
    delta_sequence,
    fit_tail,
    sin_halfint_closed,
    unperturbed_spectrum,
)
from .core import (
    PI,
    ZERO_MU_TOL,
    BoundaryAngle,
    Potential,
    SpectralData,
    Spline,
    as_angle,
    gauss_rule,
    mucos,
    mucosm1,
    musin,
    trapezoid_grid,
    _check_count,
)
from .errors import AdmissibilityError, ConfigError, DataConsistencyError, DomainError, NumericsError

TWO_PI = 2.0 * PI
DEFAULT_N_TERMS = 2000
DEFAULT_X_NODES = 129
CONDITION_LIMIT = 1e8   # on the 1-norm condition number of I + h F
_TRTRI_LEAF = 64   # dtrtri's block in _invert_upper: 32 timed the same at M = 256, 128 slower
H_GRID_SIZE = 4 * (DEFAULT_X_NODES - 1) + 1   # the H table of the default x grid
# Gregory's corrections to the trapezoid weights at either end, through fourth differences
_GREGORY_END = np.array([-245.0, 462.0, -336.0, 146.0, -27.0]) / 1440.0


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


def validate(data: SpectralData, beta: BoundaryAngle | float, *,
             tail: TailFit | None = None) -> dict:
    """Admissibility report for (mu_n, a_n) against the given angle.

    Hard failures (block the inverse solve unless forced): non-monotone or
    duplicated eigenvalues, non-positive norming constants, or a tail that
    strays more than 0.25 from n + delta_n over the final quarter, once the
    spectrum is shifted by its drift constant.  Trend violations of the
    remainder sequences only warn, since a finite prefix cannot prove a limit.
    At least 12 pairs are needed.

    The report is read off one :func:`~invspec.asymptotics.fit_tail`, the
    given ``tail`` (which must be the fit of ``data`` against a delta
    sequence reaching n = count - 1) or else its own, against the delta
    sequence to n = count - 1, the last index the fit reads, built only
    then: ``c_fit``, ``kappa``, ``gamma`` and ``spread`` are its drift
    constant, third-order and norming coefficients and refit spread (None if
    the fit is skipped and no ``tail`` given), and the last four checks read
    its ``l_n``, ``s_n`` and ``spread``.  The inverse pipeline shifts the
    data by the same fit's c, and its H kernel reads ``kappa`` and ``gamma``.
    """
    beta = as_angle(beta)
    if data.count < 12:
        raise ConfigError(f"validation needs at least 12 data points, got {data.count}")
    mono = bool(np.all(np.diff(data.mu) > 0))
    pos = bool(np.all(data.norming > 0))
    checks = [
        _check("eigenvalues-strictly-increasing", mono,
               "" if mono else "duplicated or out-of-order mu entries", "fail"),
        _check("norming-constants-positive", pos,
               "" if pos else f"min a_n = {float(data.norming.min()):.3e}", "fail"),
    ]
    if tail is None and mono and pos:
        tail = fit_tail(data, delta_sequence(beta, data.count - 1))
    c, kappa, gamma, spread = (None,) * 4 if tail is None else (tail.c, tail.kappa, tail.gamma, tail.spread)
    if mono and pos:
        tail_gap = float(np.max(np.abs(tail.l_n[(3 * data.count) // 4 - 2:])))  # l_n starts at n = 2
        checks += [
            _check("tail-tracks-unperturbed-order", tail_gap < 0.25,
                   f"max |sqrt(mu_n - c) - (n+delta_n)| = {tail_gap:.3f} over the final quarter",
                   "fail"),
            _check("drift-constant-fit-cauchy", spread <= 0.1 * (1.0 + abs(c)),
                   f"c = {c:.6g} (fitted from the tail; the source data carries no "
                   f"explicit constant), refit spread = {spread:.3g}", "warn"),
            _trend_check("eigenvalue-remainder-trend", np.abs(np.arange(2, data.count) * tail.l_n)),
            _trend_check("norming-remainder-trend", np.abs(tail.s_n)),
        ]

    hard_fail = any(ch["status"] == "fail" for ch in checks)
    return {
        "checks": checks,
        "hard_fail": hard_fail,
        "status": "fail" if hard_fail else (
            "warn" if any(ch["status"] == "warn" for ch in checks) else "pass"),
        "c_fit": c,
        "kappa": kappa,
        "gamma": gamma,
        "spread": spread,
        "count": data.count,
        "beta": beta.beta,
    }


def _check(name: str, ok: bool, detail: str, failing: str) -> dict:
    """One check of the validate report: status "pass" when ``ok``, else
    ``failing`` ("fail" or "warn")."""
    return {"name": name, "status": "pass" if ok else failing, "detail": detail}


def _trend_check(name: str, seq: np.ndarray) -> dict:
    quarter = max(1, seq.size // 4)
    first = float(np.max(seq[:quarter]))
    last = float(np.max(seq[-quarter:]))
    return _check(name, last <= max(first, 1e-12),
                  f"first-quarter max {first:.3e}, last-quarter max {last:.3e}", "warn")


# ---------------------------------------------------------------------------
# Model extension of finite data and the H kernel
# ---------------------------------------------------------------------------


def _extend_data(data: SpectralData, delta: DeltaSequence, n_terms: int,
                 mu_base: np.ndarray, a_base: np.ndarray, tail: TailFit
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Continue drift-free (mu_n, a_n) past the data by the tail model ``tail``
    fitted to them.

    Eigenvalues extend as lambda_n^2 with lambda_n = omega_n + kappa/omega_n^3,
    omega_n the unperturbed ones.  Norming constants extend through the
    difference coefficient gamma_n = 1/k_n - 1/k_n(base), the only
    combination the kernels depend on: with gamma_n ~ gamma/omega^2 fitted
    from the data tail, data identical to the base cancel exactly.
    """
    mu = np.empty(n_terms)
    a = np.empty(n_terms)
    m = data.count
    mu[:m] = data.mu
    a[:m] = data.norming
    if n_terms > m:
        om = delta.omega(np.arange(m, n_terms))
        mu[m:] = (om + tail.kappa / om**3) ** 2
        inv_k = 1.0 / (a_base[m:] * mu_base[m:]) + tail.gamma / (om * om)
        a[m:] = 1.0 / (inv_k * mu[m:])
    return mu, a


def _pair_sum(t: np.ndarray, mu_d: np.ndarray, a_d: np.ndarray, mu_b: np.ndarray,
              a_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable truncated sum of the paired H series plus its constants, over
    all the given terms, and its t-derivative, a sum of -sin(lt)/(a l) terms.

    Terms are differenced before accumulation so identical data/base
    entries cancel exactly.
    """
    sums = []
    for term_of in (mucosm1, lambda mu, tt: -musin(mu, tt)):
        term = (1.0 / a_d[:, None]) * term_of(mu_d[:, None], t[None, :])
        term -= (1.0 / a_b[:, None]) * term_of(mu_b[:, None], t[None, :])
        sums.append(term.sum(axis=0))
    reg_d = np.abs(mu_d) >= ZERO_MU_TOL
    reg_b = np.abs(mu_b) >= ZERO_MU_TOL
    const = float(np.sum(1.0 / (a_d[reg_d] * mu_d[reg_d]))
                  - np.sum(1.0 / (a_b[reg_b] * mu_b[reg_b])))
    return sums[0] + const, sums[1]


def _table_nodes(L: int) -> np.ndarray:
    """The L + 1 nodes t_j = 2*pi*j/L of an H table."""
    return np.linspace(0.0, TWO_PI, L + 1)


def _halfint_expsum(lam: np.ndarray, w: np.ndarray, L: int) -> np.ndarray:
    """sum_n w_rn exp(i lam_n t) for each row w_r of the real matrix w, at
    every node t_j = 2*pi*j/L (j = 0..L), for real lam_n >= 0: one row out
    per row in.

    Each frequency is lam = m + 1/2 + e with m its nearest bin, |e| <= 1/2,
    so exp(i lam t) = exp(i t/2) sum_k (i e t)^k/k! exp(i m t).  For each
    Taylor order k and each row the weights w e^k are summed per bin, folded
    modulo L (exact on the grid, where exp(i m t) has period L in m), and one
    inverse FFT (numpy's, all orders and rows in one call) gives the sums
    Y_k over the bins; Horner's rule in t combines the orders.  Terms binned
    together cancel before any FFT.  The order K is the least one whose
    remainder bound (2 pi max|e|)^(K+1)/(K+1)! is below 1e-17.
    """
    t = _table_nodes(L)
    m = np.rint(lam - 0.5)
    e = lam - 0.5 - m
    bins = m.astype(np.int64) % L
    x = TWO_PI * float(np.max(np.abs(e), initial=0.0))
    K, bound = 0, x
    while bound >= 1e-17:
        K += 1
        bound *= x / (K + 1)
    Y = np.empty((K + 1, len(w), L + 1), dtype=complex)
    for k in range(K + 1):
        for r, row in enumerate(w):
            Y[k, r, :L] = np.bincount(bins, row, minlength=L)
        w = w * e
    np.fft.ifft(Y[..., :L], norm="forward", out=Y[..., :L])  # the sums over the bins, unscaled
    Y[..., L] = Y[..., 0]  # j = L folds onto bin j = 0
    it = 1j * t
    acc = Y[K]
    for k in range(K - 1, -1, -1):
        acc *= it / (k + 1)
        acc += Y[k]
    acc *= np.exp(0.5j * t)
    return acc


class HFunction:
    """The spectral difference kernel H on [0, 2*pi], for drift-free data.

    ``tail`` is the given :func:`~invspec.asymptotics.fit_tail`, or else the
    fit of the data given; its ``kappa`` and ``gamma``, its only fields read,
    continue the data past their count (see :func:`_extend_data`).  The
    pipeline gives the fit of its data before the shift by their drift
    constant c, whose ``kappa`` and ``gamma`` are already taken on the data
    shifted by c.
    :meth:`tables` gives H and H' on a uniform table; the tail past n_terms
    converges absolutely, so H is continuous up to t = 2*pi.  Construction
    sums no table and splits the terms once: pairs with mu < 1 on either side
    for :func:`_pair_sum`, and every other term w cos(lam t) for one
    :func:`_halfint_expsum` per table, whose rows w and w lam give H and H'
    (data at sqrt(mu) with w = 1/(a mu), base with -w, and the tail model's
    partial sum at n + 1/2, n < n_terms, with -gamma/(n + 1/2)^2, whose whole
    series is added in closed form).
    """

    def __init__(self, data: SpectralData, beta: BoundaryAngle | float,
                 n_terms: int = DEFAULT_N_TERMS, *, delta: DeltaSequence | None = None,
                 tail: TailFit | None = None):
        beta = as_angle(beta)
        _check_count("n_terms", n_terms, 8)
        if n_terms < data.count:
            raise ConfigError(f"n_terms={n_terms} is below the data count {data.count}; "
                              "the pairs past n_terms would be dropped")
        if delta is None or delta.n_max < n_terms:
            delta = delta_sequence(beta, n_terms)
        self.n_terms = int(n_terms)

        base = unperturbed_spectrum(beta, n_terms, delta)
        self.mu_b, self.a_b = base.mu, base.norming
        self.tail = fit_tail(data, delta) if tail is None else tail
        self.mu_d, self.a_d = _extend_data(data, delta, n_terms, self.mu_b, self.a_b, self.tail)

        zero_d = np.abs(self.mu_d[:data.count]) < ZERO_MU_TOL
        zero_b = np.abs(self.mu_b[:2]) < ZERO_MU_TOL
        has_zero_d = bool(zero_d.any())
        has_zero_b = bool(zero_b.any())
        self.branch = {
            (False, False): "regular",
            (True, False): "zero-in-data",
            (False, True): "zero-in-unperturbed",
            (True, True): "zero-in-both",
        }[(has_zero_d, has_zero_b)]

        low = (self.mu_d < 1.0) | (self.mu_b < 1.0)
        hi = ~low
        self._low = (self.mu_d[low], self.a_d[low], self.mu_b[low], self.a_b[low])
        om = np.arange(2, self.n_terms) + 0.5
        self._lam = np.concatenate([np.sqrt(self.mu_d[hi]), np.sqrt(self.mu_b[hi]), om])
        self._w = np.concatenate([1.0 / (self.a_d[hi] * self.mu_d[hi]),
                                  -1.0 / (self.a_b[hi] * self.mu_b[hi]),
                                  -self.tail.gamma / (om * om)])

    def tables(self, L: int) -> tuple[np.ndarray, np.ndarray]:
        """H and H' at t_j = 2*pi*j/L, j = 0..L, both read-only; H'(0) is the
        limit from the right.  A value that is not finite is refused."""
        t = _table_nodes(L)
        H, dH = _pair_sum(t, *self._low)
        sums = _halfint_expsum(self._lam, np.stack([self._w, self._w * self._lam]), L)
        H += sums[0].real
        H += self.tail.gamma * cos_halfint_closed(t)
        dH -= sums[1].imag
        dH -= self.tail.gamma * sin_halfint_closed(t)
        for vals in (H, dH):
            finite = np.isfinite(vals)
            if not finite.all():
                bad = int(np.argmin(finite))
                raise NumericsError(f"non-finite kernel value {vals[bad]} at t={t[bad]:.4f}")
            vals.flags.writeable = False
        return H, dH


def build_H(data: SpectralData, beta: BoundaryAngle | float,
            n_terms: int = DEFAULT_N_TERMS, *, delta: DeltaSequence | None = None,
            tail: TailFit | None = None) -> HFunction:
    """Construct the H kernel (see :class:`HFunction`) for drift-free data,
    such as the pipeline's data shifted by their fitted drift constant; any
    ``c_fit`` the data carry is not read.  Without a ``tail`` the kernel fits
    its own from those data; the pipeline's H is this function's on the
    same pairs with the pipeline's fit of the unshifted data."""
    return HFunction(data, beta, n_terms, delta=delta, tail=tail)


# ---------------------------------------------------------------------------
# The main equation on a uniform grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapezoidSystem:
    """The main equation on the nodes t_j = j h, h = pi/M: its one matrix, the
    rows P(t_k, t_j), k, j = 0..M (lower triangular, zero in row and column 0),
    P(t_k, t_k) from the pivots of the Cholesky factor of G = I + h F, row
    M's x-derivative ``slope`` = P_x(pi, t_j), j = 0..M (see :func:`_factor`),
    each row's :func:`_residuals`, taken against the H table's windows, and
    the 1-norm condition of G."""

    h: float
    rows: np.ndarray
    diagonal: np.ndarray
    slope: np.ndarray
    residuals: np.ndarray
    cond: float


def _windows(table: np.ndarray, M: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """H(|t_i - t_j|) and H(t_i + t_j), i, j = 1..M: the Toeplitz and Hankel
    sliding windows of table[::stride] (no index matrix)."""
    v = table[::stride]
    return (sliding_window_view(np.concatenate([v[M - 1:0:-1], v[:M]]), M)[::-1],
            sliding_window_view(v[2:2 * M + 1], M))


def _grid_F(table: np.ndarray, M: int, stride: int, out: np.ndarray) -> np.ndarray:
    """F(t_i, t_j), i, j = 1..M, in the C-order buffer ``out``: Toeplitz minus
    Hankel over 2, from the :func:`_windows` of the table."""
    np.subtract(*_windows(table, M, stride), out=out)
    return np.multiply(out, 0.5, out=out)


def _factor(table: np.ndarray, slopes: np.ndarray, M: int, stride: int) -> TrapezoidSystem:
    """Assemble G = I + h F from the H table ``table`` read at every
    ``stride``-th node, in one M x M buffer, factor it (LAPACK potrf), invert
    the factor (:func:`_invert_upper`) and form G^(-1) (lauum), all in place;
    the rows are the one matrix kept, and F is built this once.

    G is exactly symmetric, so G.T is the same matrix in Fortran order.  Each
    routine runs with lower=0 on G.T, whose upper triangle is the lower one
    of the C-order buffer: L = U^T, W = L^(-1) and G^(-1) sit there in turn,
    with contiguous rows, the rest zero.  G's column sums are taken in the
    rows' block.

    Row k's matrix is the leading block G_k minus (h/2) F[:, k] e_k^T, the
    half weight at its own end, and its right-hand side -F[:, k]; by
    Sherman-Morrison its solution is -y/(1 - h y_k/2) with
    y = G_k^(-1) F[:, k].  As F[:, k] = (G_k e_k - e_k)/h and
    G_k^(-1) e_k = W[k, :k]^T / l_k, with l_k the k-th pivot and W's leading
    block the inverse of L's, y = (e_k - W[k, :k]/l_k)/h: every row at once,
    W's strict lower triangle times 1/s_k, s_k = -h l_k (h y_k/2 - 1).
    y_k = (1 - 1/l_k^2)/h, so the pivots alone give the diagonal; in the rows
    it is taken as (F_kk - sum_{j<k} L_kj^2/h)/l_k^2, the same number without
    the cancellation of 1 - 1/l_k^2, which costs eps/h.
    The x-derivative of row M's equation at x = pi,
    P_x + F_x(pi, .) + P(pi, pi) F(pi, .) + int P_x F = 0, has the row's own
    matrix, so P_x = w - (h/2) w_M P(pi, .) with w = G^(-1) r, r its
    right-hand side, read from the H and H' (``slopes``) tables; F_x takes
    H'(0) from the right.  G^(-1) lies in one triangle, so w is its symmetric
    product with r.
    A positive info refuses the data: I + F_x is not positive at x = info h.
    The 1-norm condition number comes from G's column sums and G^(-1) = W^T W
    (potri's to roundoff); pocon's estimate varies in its last bits with
    the alignment of its work arrays, so identical runs would report differently."""
    h = PI / M
    G = _grid_F(table, M, stride, np.empty((M, M)))
    fkk = np.diagonal(G).copy()
    G *= h
    G.flat[::M + 1] += 1.0
    rows = np.zeros((M + 1, M + 1))
    g_norm = np.abs(G, out=rows[1:, 1:]).sum(axis=0).max()
    _, info = dpotrf(G.T, lower=0, clean=1, overwrite_a=1)
    _check_info("potrf", info, PI)
    if info > 0:
        raise AdmissibilityError(
            f"data not positive: the Gelfand-Levitan operator I + F_x is not positive "
            f"definite at x={info * h:.4f} (leading minor {info} of the {M}-node trapezoid "
            f"matrix); some norming constant is not positive")
    pivots = np.diagonal(G).copy()
    z = (1.0 - 1.0 / (pivots * pivots)) / h
    diagonal = np.concatenate([[0.0], -z / (1.0 - 0.5 * h * z)])
    np.fill_diagonal(G, 0.0)
    y_k = (fkk - np.einsum("ij,ij->i", G, G) / h) / (pivots * pivots)
    np.fill_diagonal(G, pivots)
    _invert_upper(G.T)
    scale = -h * pivots * (0.5 * h * y_k - 1.0)
    np.multiply(G, (1.0 / scale)[:, None], out=rows[1:, 1:])
    np.fill_diagonal(rows[1:, 1:], y_k / (0.5 * h * y_k - 1.0))
    _, info = dlauum(G.T, lower=0, overwrite_c=1)
    _check_info("lauum", info, PI)
    v, dv = table[::stride], slopes[::stride]
    r = -(0.5 * (dv[M - 1::-1] - dv[M + 1:]) + diagonal[M] * (0.5 * (v[M - 1::-1] - v[M + 1:])))
    w = G @ r + G.T @ r - np.diagonal(G) * r  # G^(-1) r
    slope = np.zeros(M + 1)
    slope[1:] = w - 0.5 * h * w[-1] * rows[M, 1:]
    inv = np.abs(G, out=G)  # G^(-1) in the buffer's lower triangle
    cond = g_norm * (inv.sum(axis=0) + inv.sum(axis=1) - np.diagonal(inv)).max()
    if not cond <= CONDITION_LIMIT:
        raise AdmissibilityError(
            f"ill-posed data: 1-norm condition estimate {cond:.3e} at x={PI:.4f} exceeds "
            f"{CONDITION_LIMIT:.0e} (the {M}-node trapezoid matrix of I + F_x)")
    residuals = _residuals(h, table, stride, rows, diagonal)
    return TrapezoidSystem(h, rows, diagonal, slope, residuals, float(cond))


def _invert_upper(U: np.ndarray) -> None:
    """Invert the upper triangular U in place by recursive blocks (Elmroth et
    al., SIAM Rev. 46, 2004): U = [[A, B], [0, C]] has the inverse
    [[A^(-1), -A^(-1) B C^(-1)], [0, C^(-1)]], B's block by two dtrmm, A and
    C by recursion to dtrtri on at most _TRTRI_LEAF rows; the rest is kept."""
    n = U.shape[0]
    if n <= _TRTRI_LEAF:
        inv, info = dtrtri(U, lower=0, overwrite_c=1)
        _check_info("trtri", info, PI)
        U[...] = inv
        return
    k = n // 2
    _invert_upper(U[:k, :k])
    _invert_upper(U[k:, k:])
    B = dtrmm(-1.0, U[:k, :k], U[:k, k:], overwrite_b=1)  # -A^(-1) B, a copy
    U[:k, k:] = dtrmm(1.0, U[k:, k:], B, side=1, overwrite_b=1)


def _check_info(routine: str, info: int, x: float) -> None:
    """Refuse a negative LAPACK info: an illegal argument to the routine."""
    if info < 0:
        raise NumericsError(f"{routine}: illegal value in argument {-info} at x={x:.4f}")


def _residuals(h: float, table: np.ndarray, stride: int, rows: np.ndarray,
               diagonal: np.ndarray) -> np.ndarray:
    """The residual of each row k = 1..M's own equation at t = t_k when
    P(t_k, t_k) is read from the pivots: roundoff for admissible data, so it
    checks the pivots against the rows.  F is not built: each row's dot with
    F is half the difference of its dots with the two :func:`_windows` of the
    H table, and F's diagonal is read from them."""
    y = rows[1:, 1:]
    toeplitz, hankel = _windows(table, y.shape[0], stride)
    fkk = 0.5 * (np.diagonal(toeplitz) - np.diagonal(hankel))
    dots = 0.5 * (np.einsum("ij,ij->i", y, toeplitz) - np.einsum("ij,ij->i", y, hankel))
    return np.abs(diagonal[1:] + fkk + h * (dots - 0.5 * np.diagonal(y) * fkk))


def _richardson_weights(coarse: np.ndarray, fine: np.ndarray, h: float,
                        ends: int | np.ndarray) -> np.ndarray:
    """Weights c on the fine nodes tau_j = j h/2 such that
    c . s(tau) = (4 T_{h/2} - T_h)/3 for the integral of u s over [0, k h],
    T the trapezoid rule, for one row of u or a matrix of rows on the coarse
    and fine nodes, each zero past its end node ``ends`` = 2k (one per row).
    Column 0 is zero, as P(x, 0) = 0, so its half weight needs no code."""
    c = (2.0 * h / 3.0) * fine
    c[..., ::2] -= (h / 3.0) * coarse
    rows = np.atleast_2d(c)  # a view of c
    rows[np.arange(rows.shape[0]), ends] *= 0.5
    return c


@dataclass(frozen=True)
class KernelRow:
    """Row P(x, .) at a node x = t_k of the field's grid: ``values`` at
    ``nodes`` t_0..t_k, one Richardson step from the grids h and h/2."""

    x: float
    nodes: np.ndarray
    values: np.ndarray


def solve_gl(field: KernelField, x: float) -> KernelRow:
    """The full row P(x, .) at a node x > 0 of the field's grid: the rows of
    the grids h and h/2 at x, combined by one Richardson step.  The solutions
    phi are rebuilt from ``field.weights``, not from rows (see
    :meth:`KernelField.phi`)."""
    k = field.index(x)
    if k == 0:
        raise ConfigError(f"x={x} outside (0, pi]")
    coarse, fine = field.grids
    return KernelRow(x=float(field.x_nodes[k]), nodes=field.x_nodes[:k + 1].copy(),
                     values=(4.0 * fine.rows[2 * k, :2 * k + 1:2] - coarse.rows[k, :k + 1]) / 3.0)


class KernelField:
    """The transformation kernel P, from the H kernel ``H``, on the uniform
    x grid of ``x_nodes`` nodes on [0, pi].

    ``grid`` is that trapezoid grid, built once here, and ``x_nodes`` its
    nodes.  Construction factors the trapezoid systems of the grids
    h = pi/M and h/2, read from one H table on ``table_size`` + 1 = 4M + 1
    nodes, and inverts their factors; the diagonal is their pivots' P(x, x),
    combined by one Richardson step.  Each grid is factored in the lower
    triangle of the buffer that built it, takes its residuals and its slope
    P_x(pi, .) against the H and H' tables (:func:`_factor`), and keeps one
    matrix, its rows; ``weights``, the only other, holds in row k the
    :func:`_richardson_weights` of the rows at t_k (zero past t_k), and
    ``slope_weights`` those of the two slopes.  The field reads ``H`` through
    one :meth:`HFunction.tables` call, whose tables it does not keep."""

    def __init__(self, H: HFunction, x_nodes: int = DEFAULT_X_NODES):
        _check_count("x_nodes", x_nodes, 5)  # a floor of the CLI contract: fewer exit 64
        self.H = H
        self.grid = trapezoid_grid(np.linspace(0.0, PI, x_nodes))
        self.x_nodes = self.grid.nodes
        M = x_nodes - 1
        self.table_size = 4 * M
        tables = H.tables(self.table_size)
        self.grids = (_factor(*tables, M, 2), _factor(*tables, 2 * M, 1))
        coarse, fine = self.grids
        self.diagonal = (4.0 * fine.diagonal[::2] - coarse.diagonal) / 3.0
        self.condition_max = max(coarse.cond, fine.cond)
        self.weights = _richardson_weights(coarse.rows, fine.rows[::2], coarse.h, 2 * np.arange(M + 1))
        self.slope_weights = _richardson_weights(coarse.slope, fine.slope, coarse.h, 2 * M)
        self._spline = None

    def F(self, x, t):
        """F(x, t) = (H(|x-t|) - H(x+t))/2 at any x, t in [0, pi], through the
        not-a-knot :class:`~invspec.core.Spline` of the H table of the
        default x grid (H_GRID_SIZE nodes), built on the first call; the
        main equation reads F on its grids only.  Arguments past [0, pi] by
        roundoff are taken at its ends, others (and NaN) are refused."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        lo = float(np.minimum(np.min(x, initial=np.inf), np.min(t, initial=np.inf)))
        hi = float(np.maximum(np.max(x, initial=-np.inf), np.max(t, initial=-np.inf)))
        if not (lo >= -1e-12 and hi <= PI + 1e-12):  # NaN fails too
            raise DomainError(f"F evaluated outside [0, pi] (x and t from {lo:.6g} to {hi:.6g})")
        if self._spline is None:
            L = H_GRID_SIZE - 1
            self._spline = Spline(_table_nodes(L), self.H.tables(L)[0])
        out = 0.5 * (self._spline(np.abs(x - t)) - self._spline(np.clip(x + t, 0.0, TWO_PI)))
        return out if out.ndim else float(out)

    def index(self, x: float) -> int:
        """k with x = t_k; an x off the grid is refused."""
        return int(self._indices(np.array([float(x)]))[0])

    def _indices(self, xs: np.ndarray) -> np.ndarray:
        """k with xs = t_k for each x, in one test; the first x off the grid
        is refused."""
        h = self.grids[0].h
        ks = np.rint(xs / h)
        on = (ks >= 0) & (ks < self.x_nodes.size) & (np.abs(xs - ks * h) <= 1e-9)
        if not on.all():
            x = float(xs[np.argmin(on)])
            raise ConfigError(f"x={x} is not a node of the {self.x_nodes.size}-node x grid")
        return ks.astype(np.intp)

    def row(self, x: float) -> KernelRow:
        return solve_gl(self, x)

    def phi(self, x, mus) -> np.ndarray:
        """phi(x, mu) = s(x) + integral of P(x,t) s(t) dt over [0, x] for each
        mu and grid node x, with s = sin(sqrt(mu) t)/sqrt(mu); phi(0, mu) = 0.

        The one rebuild of the solutions from the kernel, one matrix product
        with the rows of ``weights``: a scalar x gives a vector over mu, an
        array of x a (mu, x) matrix.
        """
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        ks = self._indices(xs)
        n = 2 * int(ks.max(initial=0)) + 1
        S = musin(mus[:, None], np.arange(n) * self.grids[1].h)
        out = musin(mus[:, None], xs) + S @ self.weights[ks, :n].T
        return out if np.ndim(x) else out[:, 0]

    def dphi(self, mus) -> np.ndarray:
        """phi'(pi, mu) = c(pi) + P(pi,pi) s(pi) + integral of P_x(pi,t) s(t) dt
        for each mu, with c = cos(sqrt(mu) t): the grids' slopes (see
        :func:`_factor`) combined by ``slope_weights``, the Richardson rule
        of phi's rows."""
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        fine = self.grids[1]
        return (mucos(mus, PI) + self.diagonal[-1] * musin(mus, PI)
                + musin(mus[:, None], np.arange(fine.slope.size) * fine.h) @ self.slope_weights)


def solve_kernel_field(H: HFunction, x_nodes: int = DEFAULT_X_NODES) -> KernelField:
    """Factor the main equation of the H kernel ``H`` on the uniform grid of
    ``x_nodes`` nodes on [0, pi] (at least 5), which gives the whole kernel
    diagonal and every row."""
    return KernelField(H, x_nodes)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


def recover_q(field: KernelField) -> Potential:
    """Potential from the kernel diagonal on the field's x grid:
    q = 2 d/dx P(x,x).

    The derivative at each node is the node slope of the not-a-knot
    :class:`~invspec.core.Spline` through the diagonal, one tridiagonal
    solve.  The result carries trapezoid weights on the field's uniform grid.
    """
    return Potential(field.grid, 2.0 * Spline(field.x_nodes, field.diagonal).slopes)


@dataclass(frozen=True)
class BetaRecovery:
    beta_tilde: float
    cot_beta_tilde: float
    spread: float
    ratios: np.ndarray
    prediction_gap: float   # |cot(beta~) - (cot(beta) - P(pi, pi))|, P(pi, pi) = (integral q)/2


def recover_beta(field: KernelField, data: SpectralData) -> BetaRecovery:
    """Boundary angle from the constancy of -phi'(pi, mu_n)/phi(pi, mu_n),
    phi' read from the field's endpoint slopes (:meth:`KernelField.dphi`).

    The median ratio over the first K = min(8, max(5, count // 4))
    eigenvalues gives cot of the recovered angle; the spread doubles as a
    data-consistency diagnostic and raises when the ratios disagree beyond
    1e-2 relative.  Expects drift-free data, the eigenvalues of the field's
    own problem: the prediction carries no drift term.
    """
    mus = data.mu[:min(8, max(5, data.count // 4))]
    ratios = -field.dphi(mus) / field.phi(PI, mus)
    med = float(np.median(ratios))
    dev = np.abs(ratios - med)
    spread = float(np.max(dev))
    if spread > 1e-2 * (1.0 + abs(med)):
        n = int(np.argmax(dev))
        raise DataConsistencyError(
            f"endpoint ratios disagree (spread {spread:.3e}, worst at index {n}, "
            f"mu={mus[n]:.6g}); data are not from a single problem")
    beta_tilde = float(np.pi / 2.0 - np.arctan(med))  # arccot into (0, pi)
    prediction = as_angle(data.beta).cot - field.diagonal[-1]  # P(pi, pi): half the integral of q
    return BetaRecovery(beta_tilde, med, spread, ratios, abs(med - prediction))


def consistency_suite(field: KernelField, data: SpectralData) -> dict:
    """Post-hoc identities over the first 20 pairs of drift-free data:
    completeness defect of the rebuilt solutions for f(x)=x and f(x)=sin(x),
    their Gram matrix against the norming constants, and the largest
    diagonal residual over every row of both grids (roundoff for admissible
    data: it checks the pivots against the rows), taken by each grid's factor.

    phi is rebuilt at every grid node.  Each integral splits as
    phi = s + (phi - s): the free solutions s carry the oscillation and
    integrate on a 64-node Gauss rule to roundoff; the kernel's share, about
    |P|/sqrt(mu) of them, integrates on the grid by Gregory's rule."""
    k_terms = min(20, data.count)
    mus, a = data.mu[:k_terms], data.norming[:k_terms]
    x = field.x_nodes
    w = field.grid.weights.copy()
    w[:_GREGORY_END.size] += (x[1] - x[0]) * _GREGORY_END
    w[-_GREGORY_END.size:] += (x[1] - x[0]) * _GREGORY_END[::-1]
    phi = field.phi(x, mus)
    s = musin(mus[:, None], x)
    xg, wg = gauss_rule(64, 0.0, PI)
    sg = musin(mus[:, None], xg)
    diag_res = max(float(g.residuals.max()) for g in field.grids)

    parseval = {}
    for name, f in (("x", np.asarray), ("sin", np.sin)):
        fg = f(xg)
        f2 = float(np.dot(wg, fg * fg))
        coef = sg @ (wg * fg) + (phi - s) @ (w * f(x))
        parseval[name] = abs(f2 - float(np.sum(coef * coef / a))) / f2

    G = (sg * wg) @ sg.T + (phi * w) @ phi.T - (s * w) @ s.T
    off = np.abs(G - np.diag(np.diag(G))) / np.outer(np.sqrt(a), np.sqrt(a))
    gram_off = float(np.max(off)) if k_terms > 1 else 0.0
    gram_diag = float(np.max(np.abs(np.diag(G) - a) / a))

    return {
        "diagonal_residual_max": float(diag_res),
        "parseval_defect": parseval,
        "gram_offdiag_max": gram_off,
        "gram_diag_rel_max": gram_diag,
        "condition_max": field.condition_max,
        "branch": field.H.branch,
        "k_terms": k_terms,
    }
